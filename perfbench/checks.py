"""Independent checks of the program's answers, run after the clock stops.

Nothing here imports tmzv: answers arrive as JSON and are compared with
the closed forms of ref.py, or recomposed with its arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

import ref


@lru_cache(maxsize=None)
def _mzv(q, s, N):
    return ref.mzv_closed(q, s, N)


@lru_cache(maxsize=None)
def _polylog(q, s, u, N):
    return ref.polylog_closed(q, s, u, N)


@lru_cache(maxsize=None)
def _zeta_nu(q, nu, K):
    return tuple(ref.nu_interpolated(ref.gf(q), list(nu), 1, K))


def _closed_form_ok(q, value, prec, closed):
    got = ref.Laurent.from_dict(ref.gf(q), value)
    return got.N is not None and got.N >= prec and got == closed(got.N)


def check_mzv_cli(op, out):
    _, q, s, prec = op
    if out.get("rc") != 0:
        return "exit code %r" % out.get("rc")
    payload = json.loads(out["stdout"])
    if not _closed_form_ok(q, payload["value"], prec,
                           lambda N: _mzv(q, tuple(s), N)):
        return "value differs from sum of prod l_d^-s_i"
    return None


def check_mzv(op, out):
    _, q, s, prec = op
    if not _closed_form_ok(q, out, prec, lambda N: _mzv(q, tuple(s), N)):
        return "value differs from sum of prod l_d^-s_i"
    return None


def check_polylog(op, out):
    _, q, s, u, prec = op
    if not _closed_form_ok(q, out, prec, lambda N: _polylog(q, s, u, N)):
        return "value differs from sum_i u^(q^i) / l_i^s"
    return None


def check_zeta_nu(op, out):
    _, q, nu, K = op
    F = ref.gf(q)
    nu = list(nu)
    if out["prec"] < K:
        return "precision %d below the requested %d" % (out["prec"], K)
    x = []
    for i, digit in enumerate(out["digits"]):
        x = ref.padd(F, x, ref.pmul(F, digit, ref.ppow(F, nu, out["v"] + i)))
    want = list(_zeta_nu(q, tuple(nu), K))
    if ref.pmod(F, ref.psub(F, x, want), ref.ppow(F, nu, K)):
        return "value differs from the interpolated sum times nu/(nu - 1)"
    return None


def check_inversion(op, out, material):
    """The program's own verdict, and both inclusion-exclusion identities
    recomposed from its deformed rows."""
    _, q, s, t_order, prec = op
    if not out.get("pass"):
        return "inversion_check reports failure"
    F = ref.gf(q)
    zero = [ref.Laurent(F, None, [], None)] * (t_order + 1)
    L = {tuple(map(int, k.split(","))): [ref.Laurent.from_dict(F, c) for c in v]
         for k, v in material["L"].items()}
    Ls = {tuple(map(int, k.split(","))): [ref.Laurent.from_dict(F, c) for c in v]
          for k, v in material["Lstar"].items()}

    def tmul(a, b):
        out = list(zero)
        for i, x in enumerate(a):
            if x.is_exact_zero():
                continue
            for j in range(t_order + 1 - i):
                out[i + j] = out[i + j] + x * b[j]
        return out

    def tadd(a, b):
        return [x + y for x, y in zip(a, b)]

    def tsign(a, n):
        return [x.signed(n) for x in a]

    for (a, b) in L:
        rhs1 = rhs2 = zero
        for k in range(a + 1, b):
            rhs1 = tadd(rhs1, tsign(tmul(L[(a, k)], Ls[(k, b)]), k - 1))
            rhs2 = tadd(rhs2, tsign(tmul(L[(k, b)], Ls[(a, k)]), k))
        r1 = tadd(tsign(Ls[(a, b)], a),
                  tsign(tadd(rhs1, tsign(L[(a, b)], b - 1)), 1))
        r2 = tadd(tsign(Ls[(a, b)], b - 1),
                  tsign(tadd(rhs2, tsign(L[(a, b)], a)), 1))
        for r in (r1, r2):
            if not all(x.vanishes_below(prec) for x in r):
                return "identity on interval %d,%d does not vanish" % (a, b)
    return None


def _reports_pass(out, window):
    if out.get("rc") != 0:
        return "exit code %r" % out.get("rc")
    payload = json.loads(out["stdout"])
    if not payload["pass"]:
        return "oracle-log reports failure"
    for rep in payload["reports"]:
        if any(v is not None and Fraction(str(v)) < window
               for v in rep["residuals"]):
            return "residual below the window"
    return None


def check_oracle_log(op, out, material, unchecked):
    """The suite's verdict; then sum_{i+j=n} P_i Q_j^(i), recomposed from
    the closed-form logarithm and the exponential coefficients, must vanish
    wherever it is known, for 1 <= n <= nmax; and for the Carlitz module
    P_n = 1/l_n.

    An entry of the sum checks something only when it is known past the
    lowest nonzero coefficient of its terms, so that a cancellation is
    certified.  An n with no such entry (or a P_n of the Carlitz module
    known only below the degree of l_n) is appended to unchecked instead
    of being counted as checked."""
    _, q, s, model, nmax, window = op
    bad = _reports_pass(out, window)
    if bad:
        return bad
    F = ref.gf(q)
    P = [[[ref.Laurent.from_dict(F, x) for x in row] for row in M]
         for M in material["P"]]
    Q = [[[ref.Laurent.from_dict(F, x) for x in row] for row in M]
         for M in material["Q"]]
    d = len(P[0])
    where = "oracle-log q=%d s=%s %s" % (q, ",".join(map(str, s)), model)
    for n in range(1, nmax + 1):
        checked = False
        for r in range(d):
            for c in range(d):
                acc = ref.Laurent(F, None, [], None)
                lowest = None  # lowest nonzero coefficient of any term
                for i in range(n + 1):
                    for k in range(d):
                        a, b = P[i][r][k], Q[n - i][k][c].frobenius(i)
                        if a.is_exact_zero() or b.is_exact_zero():
                            continue
                        term = a * b
                        if term.v is not None and (lowest is None
                                                   or term.v < lowest):
                            lowest = term.v
                        acc = acc + term
                if acc.v is not None:
                    return "sum P_i Q_j^(i) does not vanish at n=%d" % n
                if lowest is not None and (acc.N is None or acc.N > lowest):
                    checked = True
        if not checked:
            unchecked.append("%s: n=%d: the sum is known nowhere its terms "
                             "are nonzero" % (where, n))
        if model == "star" and tuple(s) == (1,):
            x = P[n][0][0]
            if x.N is None or x != ref.inv_ell(q, n, x.N):
                return "P_%d differs from 1/l_%d" % (n, n)
            if x.N <= ref.ell_degree(q, n):
                unchecked.append("%s: P_%d is known only below the degree "
                                 "of l_%d" % (where, n, n))
    return None


CLOSED_FORM_CHECKS = {
    "mzv-cli": check_mzv_cli,
    "mzv": check_mzv,
    "polylog": check_polylog,
    "zeta_nu": check_zeta_nu,
}


def check(op, out, material, unchecked):
    """None when the output is right, else a one-line reason.  material is
    the program's intermediate series for the recomposing checks; parts of
    an answer that a check could not reach are appended to unchecked."""
    if op[0] == "inversion":
        return check_inversion(op, out, material)
    if op[0] == "oracle-log":
        return check_oracle_log(op, out, material, unchecked)
    return CLOSED_FORM_CHECKS[op[0]](op, out)
