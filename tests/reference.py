"""Reference oracles the tests compare the package with: literal sums,
closed forms and direct constructions that no CLI verb or benchmark
workload needs.  Each one computes its answer by a route independent of
the one under test, or states what it shares with it."""

import itertools
import json
from fractions import Fraction
from math import comb

from tmzv.scalars import APoly, FieldSpec, PrecisionLaurent, RatFunc
from tmzv.tlayer import TateTrunc, TPoly, gamma_factorial, inv_bracket
from tmzv.tmodule import _LaurentScalars
from tmzv.vadic import NuAdic, NuPlace, nu_inv, nu_mod, nu_split
from tmzv.zeta import (MZVIndex, MZVValue, _default_Q, _gamma_product,
                       _rel_guard, _shell_term, lseries_raw, lseries_value,
                       mzv_cutoff)

# ---------------------------------------------------------------------------
# K = F_q(theta) by the fraction formulas, every result reduced by a gcd
# ---------------------------------------------------------------------------


def fraction_sum(a: RatFunc, b: RatFunc, negate: bool = False) -> RatFunc:
    """(a.num b.den + b.num a.den) / (a.den b.den), or a - b with negate."""
    other = b.num * a.den
    return RatFunc(a.num * b.den + (-other if negate else other),
                   a.den * b.den)


def fraction_product(a: RatFunc, b: RatFunc) -> RatFunc:
    return RatFunc(a.num * b.num, a.den * b.den)


def fraction_equal(a: RatFunc, b: RatFunc) -> bool:
    return a.num * b.den == b.num * a.den


# ---------------------------------------------------------------------------
# enumerations
# ---------------------------------------------------------------------------


def monic_enumerate(fs: FieldSpec, d: int):
    """All q^d monic polynomials of degree d, lexicographic in
    (c_{d-1}, ..., c_0)."""
    if d == 0:
        yield APoly.one(fs)
        return
    for tail in itertools.product(range(fs.q), repeat=d):
        yield APoly(fs, tuple(reversed(tail)) + (fs.one,))


def compositions(max_weight: int, max_depth: int):
    """All tuples of positive integers with bounded weight and depth."""
    out = []

    def rec(prefix, left):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == max_depth:
            return
        for x in range(1, left + 1):
            rec(prefix + [x], left - x)

    rec([], max_weight)
    return sorted(out, key=lambda t: (sum(t), len(t), t))


# ---------------------------------------------------------------------------
# power sums and multiple zeta values
# ---------------------------------------------------------------------------


def power_sum_enum(fs: FieldSpec, d: int, k: int, prec: int) -> PrecisionLaurent:
    """Oracle route: literal sum over all monics of degree d (q^d terms)."""
    acc = PrecisionLaurent.zero(fs, N=prec)
    window = prec + d * k + 1
    for a in monic_enumerate(fs, d):
        la = RatFunc(APoly.one(fs), a).laurent(window)
        term = PrecisionLaurent.one(fs)
        for _ in range(k):
            term = (term * la).truncate(window)
        acc = acc + term.truncate(prec)
    return acc.truncate(prec)


def power_sum_recurrence(fs: FieldSpec, d: int, k: int,
                         prec: int) -> PrecisionLaurent:
    """S_d(k) = g_0 b_{k-1} by the plain b-recurrence, for every k: b_j =
    sum_{q^i <= j} g_i b_{j - q^i}, over the rows g_i = c_{d,i}/D_d of
    g'_i = (g_{i-1}^q - g_i)/[d+1] built with whole twists and products by
    1/[d+1].  It shares no code with power_sum's twist for q | k, its cut
    before the twist or its bracket division; zero to precision prec when
    the valuation bound max(d k, deg l_d) reaches prec, as there."""
    q, N = fs.q, prec
    if max(d * k, q * (q**d - 1) // (q - 1)) >= N:
        return PrecisionLaurent.zero(fs, N=N)
    imax = 0
    while q ** (imax + 1) <= k:
        imax += 1
    g = (PrecisionLaurent.one(fs, N=N),)
    for e in range(1, d + 1):
        row = []
        for i in range(min(e, imax) + 1):
            acc = PrecisionLaurent.zero(fs, N=N)
            if 1 <= i <= len(g):
                acc = acc + g[i - 1].frobenius(1).truncate(N)
            if i < len(g):
                acc = acc - g[i]
            row.append((acc * inv_bracket(fs, e, N)).truncate(N))
        g = tuple(row)
    b = [PrecisionLaurent.one(fs, N=N)]
    for j in range(1, k):
        acc = PrecisionLaurent.zero(fs, N=N)
        for i in range(len(g)):
            if q**i <= j:
                acc = acc + g[i] * b[j - q**i]
        b.append(acc.truncate(N))
    return (g[0] * b[k - 1]).truncate(N)


def mzv_brute(fs: FieldSpec, s, star: bool = False, prec: int = 20,
              D: int = None) -> MZVValue:
    """Oracle route: literal nested sum over chains of monic polynomials
    with (strictly, or weakly for star) decreasing degrees below cutoff."""
    idx = MZVIndex(tuple(s))
    s = idx.s
    if D is None:
        D = mzv_cutoff(s, prec, fs.q)
    N = prec
    T = {(j, d): power_sum_enum(fs, d, s[j], N)
         for j in range(len(s)) for d in range(D)}

    def rec(j: int, dmax: int) -> PrecisionLaurent:
        # literal loop over degree chains for s[j:], degrees < dmax
        acc = PrecisionLaurent.zero(fs, N=N)
        for d in range(dmax):
            term = T[(j, d)]
            if j + 1 < len(s):
                term = term * rec(j + 1, d + 1 if star else d)
            acc = acc + term.truncate(N)
        return acc.truncate(N)

    return MZVValue(rec(0, D).truncate(prec), idx, "BruteForce", star)


def chen_delta(q: int, a: int, b: int, j: int) -> int:
    """Delta_j of the harmonic product of depth-one values over F_q,

        zeta(a) zeta(b) = zeta(a+b) + zeta(a,b) + zeta(b,a)
                          + sum_{0<j<a+b} Delta_j zeta(a+b-j, j),

    as an integer mod p: (-1)^(a-1) C(j-1, a-1) + (-1)^(b-1) C(j-1, b-1)
    when (q - 1) | j, else 0 (H.-J. Chen, J. Number Theory, 2015, after
    Thakur, IMRN 2010)."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    if not 0 < j < a + b or j % (q - 1):
        return 0
    return ((-1) ** (a - 1) * comb(j - 1, a - 1)
            + (-1) ** (b - 1) * comb(j - 1, b - 1)) % p


def mzv_deformed(fs: FieldSpec, s, star: bool = False, prec: int = 40) -> MZVValue:
    """Third MZV route: normalized deformed series at t = theta divided by
    the Gamma factors."""
    idx = MZVIndex(tuple(s))
    gam = _gamma_product(fs, idx.s)
    d = gam.degree()
    val = lseries_value(fs, idx.s, star=star, prec=prec + d + 2)
    ginv = gam.laurent().inv(window=prec + d + 2)
    return MZVValue((val * ginv).truncate(prec), idx, "DeformedSeries", star)


def lseries_tate(fs: FieldSpec, s, Q=None, star: bool = False, M: int = 20,
                 prec: int = 40) -> TateTrunc:
    """t-truncation to order M of the normalized series, one series with
    its shell terms built at its own window.  Every shell term is kept to
    N = min(v + rel, rel), rel = prec + _rel_guard(fs, s), so no digit far
    below theta^-prec is computed."""
    s = tuple(s)
    Q = _default_Q(fs, s, Q)
    rel = prec + _rel_guard(fs, s)
    return lseries_raw(list(zip(s, Q)), star, prec,
                       lambda si, Qi, i: _shell_term(si, Qi, i, M, rel),
                       TateTrunc.zero(fs, M))


def row_norm(v, cs, N):
    """(v, tuple of codes) of the row v, cs cut below N, with the zeros at
    both ends stripped; (None, ()) when no nonzero code is left."""
    if v is None:
        return None, ()
    live = [j for j, c in enumerate(cs) if c and (N is None or v + j < N)]
    if not live:
        return None, ()
    return v + live[0], tuple(cs[live[0]:live[-1] + 1])


def row_neg(fs: FieldSpec, cs) -> tuple:
    """The codes of -x, one fs.neg per code."""
    return tuple(fs.neg(c) for c in cs)


def row_add(fs: FieldSpec, va, Na, ca, vb, Nb, cb, negate=False):
    """(v, N, tuple of codes) of the row a + b, or a - b, one exponent at a
    time through fs.add and fs.neg, below the lesser N."""
    N = min((n for n in (Na, Nb) if n is not None), default=None)
    acc = {}
    for v, cs, neg in ((va, ca, False), (vb, cb, negate)):
        if v is not None:
            for j, c in enumerate(cs):
                acc[v + j] = fs.add(acc.get(v + j, 0), fs.neg(c) if neg else c)
    if not acc:
        return None, N, ()
    lo = min(acc)
    v, c = row_norm(lo, [acc.get(e, 0) for e in range(lo, max(acc) + 1)], N)
    return v, N, c


def spread(cs, k) -> list:
    """The codes of cs with k - 1 zeros between consecutive ones, appended
    one code at a time."""
    out = []
    for c in cs:
        if out:
            out.extend([0] * (k - 1))
        out.append(c)
    return out


def frob_laurent_rel(c: RatFunc, i: int, rel: int) -> PrecisionLaurent:
    """c^{q^i} to relative precision rel by the per-monomial builder: the
    top monomials of a polynomial's twist written one at a time into a
    window of rel codes; any other c is twisted in K and then converted by
    the windowed Laurent strategy, with window rel (the one step it shares
    with zeta._frob_laurent_rel)."""
    if c.is_zero():
        return PrecisionLaurent.zero(c.fs)
    if not c.is_poly():
        return _LaurentScalars(c.fs, rel).conv(c.frobenius(i))
    fs = c.fs
    a = c.num
    d = a.degree()
    k = fs.q**i
    v = -d * k
    coeffs = [0] * rel
    for j in range(d, -1, -1):
        off = (d - j) * k
        if off >= rel:
            break
        coeffs[off] = a[j]
    return PrecisionLaurent(fs, v, coeffs, N=v + rel)


def ramified_laurent(a: APoly, e: int) -> PrecisionLaurent:
    """An exact element a of A in the ramified tower K_inf(eta), eta^e =
    -theta (e = q - 1): theta^j written as (-1)^j eta^(-j e), one
    coefficient at a time, with no call to PrecisionLaurent.embed_ram."""
    fs = a.fs
    if a.is_zero():
        return PrecisionLaurent.zero(fs, ram=e)
    d = a.degree()
    coeffs = [0] * (d * e + 1)
    for j in range(d + 1):
        c = a[j]
        if c:
            coeffs[(d - j) * e] = fs.neg(c) if j % 2 else c
    return PrecisionLaurent(fs, -d * e, coeffs, ram=e)


def laurent_eq_to_prec(a: PrecisionLaurent, b: PrecisionLaurent, N: int) -> bool:
    """Whether a and b agree below theta^-N; both must be known that far."""
    d = a - b
    assert d.N is None or d.N >= N, f"only {d.N} digits, not {N}"
    return d.v is None or d.v >= N


def tate_dict(x: TateTrunc) -> dict:
    """A t-truncation as plain data: its order, its tower and each row's
    to_dict."""
    return {"tdeg": x.M, "ram": x.ram, "coeffs": [c.to_dict() for c in x.coeffs]}


# ---------------------------------------------------------------------------
# polynomials in t and motives
# ---------------------------------------------------------------------------


def tpoly_pow(f: TPoly, e: int) -> TPoly:
    acc = TPoly.one(f.fs)
    base = f
    while e:
        if e & 1:
            acc = acc * base
        base = base * base
        e >>= 1
    return acc


def t_minus_theta(fs: FieldSpec) -> TPoly:
    return TPoly(fs, (-RatFunc.theta(fs), RatFunc.one(fs)))


def anderson_thakur_closed(fs: FieldSpec, n: int) -> TPoly:
    """Independent closed form: H_n = 1 for n <= q; for q+1 <= n <= q^2,
    H_n = sum_{j=0..k} C(n-jq+j-1, j) (t^q - t)^(k-j) (t^q - theta^q)^j
    with k = floor((n-1)/q)."""
    q = fs.q
    if n < 1:
        raise ValueError("n >= 1")
    if n <= q:
        return TPoly.one(fs)
    if n > q * q:
        raise ValueError("closed form only valid for n <= q^2")
    k = (n - 1) // q
    tq_t = TPoly(
        fs,
        [RatFunc.zero(fs) if i not in (1, q) else (-RatFunc.one(fs) if i == 1 else RatFunc.one(fs)) for i in range(q + 1)],
    )
    tq_thq = TPoly(
        fs,
        [(-RatFunc(APoly.monomial(fs, q)) if i == 0 else (RatFunc.one(fs) if i == q else RatFunc.zero(fs))) for i in range(q + 1)],
    )
    acc = TPoly.zero(fs)
    for j in range(k + 1):
        c = comb(n - j * q + j - 1, j) % fs.p
        if c == 0:
            continue
        acc = acc + tpoly_pow(tq_t, k - j) * tpoly_pow(tq_thq, j).scale(
            RatFunc(APoly.const(fs, fs.from_int(c)))
        )
    return acc


def star_dimension(s) -> int:
    """Dimension of the star t-module for the reversed index tuple s:
    weight plus the partial-weight correction."""
    s = tuple(s)
    if not s:
        raise ValueError("empty tuple")
    return sum(s) + sum(sum(s[: ell + 1]) for ell in range(len(s) - 1))


# ---------------------------------------------------------------------------
# nu-adic expansions
# ---------------------------------------------------------------------------


def nu_reduce(x, place: NuPlace, prec: int) -> NuAdic:
    """nu-adic expansion of an exact element of K to guaranteed precision
    nu^prec."""
    if isinstance(x, APoly):
        x = RatFunc.from_apoly(x)
    if not isinstance(x, RatFunc):
        raise TypeError("nu_reduce expects APoly or RatFunc")
    vd, den = nu_split(x.den, place)
    m = max(prec + vd, 1)
    return NuAdic.from_unit(place, -vd, x.num * nu_inv(den, place, m), prec)


def depth_one_nu_sum(fs: FieldSpec, s: int, place: NuPlace, prec: int,
                     dmax: int) -> NuAdic:
    """Gamma_s nu^s/(nu^s - 1) sum_a a^(-s) mod nu^prec, the sum over the
    monic a with nu not dividing a and deg a < dmax: the depth-one nu-adic
    value as an interpolated sum over monics.  Gamma_s is the Carlitz
    factorial and nu^s/(nu^s - 1) the Euler factor at nu (Anderson-Thakur,
    Ann. of Math. 132, 1990; Thakur, Function Field Arithmetic, 2004)."""
    mod = place.nu.pow(prec)
    acc = APoly.zero(fs)
    for d in range(dmax):
        for a in monic_enumerate(fs, d):
            if not nu_mod(a, place, 1).is_zero():
                acc = acc + nu_inv(a.pow(s, mod), place, prec)
    nus = place.nu.pow(s)
    x = (gamma_factorial(fs, s) * nus * acc
         * nu_inv(nus - APoly.one(fs), place, prec))
    return NuAdic.from_unit(place, 0, x, prec)


# ---------------------------------------------------------------------------
# the CLI's output
# ---------------------------------------------------------------------------


def jsonable(x):
    """A CLI payload as plain data, walked in Python value by value."""
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (PrecisionLaurent,)):
        return x.to_dict()
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    return str(x)


def emit(payload: dict, fmt: str):
    """Print a CLI payload as JSON of jsonable(payload), or as text."""
    if fmt == "json":
        print(json.dumps(jsonable(payload), sort_keys=True,
                         separators=(",", ":")))
    elif "reports" in payload:
        for rep in payload["reports"]:
            status = "PASS" if rep.get("pass") else "FAIL"
            extra = rep.get("resource_error")
            if extra:
                status = "ERROR"
            print("%-40s %s" % (rep["name"], status))
            if extra:
                print("  resource error: %s" % extra)
        print("overall: %s" % ("PASS" if payload.get("pass") else "FAIL"))
    else:
        for k, v in payload.items():
            print("%s: %s" % (k, jsonable(v)))
