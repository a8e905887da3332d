"""Anderson t-modules as computational objects: the exponential and
logarithm coefficient streams (one Sylvester recursion, which log_eval
sums for every module, and for shape-backed modules the twisted-product
closed form that log_oracle_check compares with it), the one pole jet
1/(t - theta^{q^k}) of every scalar strategy and of the deformed
L-series, certified series evaluation, the Stark logarithm route,
split-logarithm verification, and the period basis.

Matrices are plain lists of lists over duck-typed scalars (RatFunc for
exact work, PrecisionLaurent/LocalJet backends elsewhere).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .scalars import (APoly, FieldSpec, PrecisionError, PrecisionLaurent,
                      RatFunc, memo, min_residual_valuation)
from .tlayer import (LocalJet, _is_exact_zero, bracket, gamma_factorial,
                     inv_bracket, omega, omega_jet)

# ---------------------------------------------------------------------------
# small matrix helpers (duck-typed scalars)
# ---------------------------------------------------------------------------


def mat_mul(A, B):
    """A B over duck-typed scalars.  Terms with an exact-zero factor
    (tlayer._is_exact_zero) are skipped, which leaves every entry as it
    was; an entry whose terms are all skipped is one of those zeros."""
    live = [[not _is_exact_zero(b) for b in row] for row in B]
    out = []
    for row in A:
        terms = [(a, Bk, lk) for a, Bk, lk in zip(row, B, live)
                 if not _is_exact_zero(a)]
        out_row = []
        for j in range(len(B[0])):
            acc = None
            for a, Bk, lk in terms:
                if lk[j]:
                    t = a * Bk[j]
                    acc = t if acc is None else acc + t
            if acc is None:
                acc = terms[0][1][j] if terms else row[0]
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_vec(A, v):
    return [x for x, in mat_mul(A, [[x] for x in v])]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_map(A, f):
    return [[f(a) for a in row] for row in A]


def mat_identity(d, one, zero):
    return [[one if i == j else zero for j in range(d)] for i in range(d)]


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


# ---------------------------------------------------------------------------
# scalar strategies: exact K arithmetic, or windowed Laurent series
# ---------------------------------------------------------------------------


class ScalarStrategy:
    """Base of the scalar strategies.  A strategy has `zero`, `one`,
    `theta` (needed only by a TModule), `conv(x)` for an element of A or
    K, and `inv_bracket(k)` for 1/[k] = 1/(theta^{q^k} - theta), the only
    inverse the t-module recursions take.  `key` names the strategy and its
    parameters; strategies with equal keys compute the same values, so they
    compare and hash by key and share memo entries."""

    key: tuple

    def __eq__(self, other):
        return isinstance(other, ScalarStrategy) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


class _ExactScalars(ScalarStrategy):
    """Reduced rational functions; everything exact."""

    def __init__(self, fs: FieldSpec):
        self.fs = fs
        self.zero = RatFunc.zero(fs)
        self.one = RatFunc.one(fs)
        self.theta = RatFunc.theta(fs)
        self.key = ("exact", fs)

    def conv(self, c: RatFunc):
        return c

    def inv_bracket(self, k: int):
        return RatFunc(APoly.one(self.fs), bracket(self.fs, k))


class _LaurentScalars(ScalarStrategy):
    """Truncated Laurent series carrying a relative window (in theta-digits):
    every inverse keeps `window` digits past its leading exponent, so
    products of factors with opposite huge valuations do not collapse."""

    def __init__(self, fs: FieldSpec, window: int, ram: int = 1):
        self.fs = fs
        self.window = window
        self.ram = ram
        self.zero = PrecisionLaurent.zero(fs, ram=ram)
        self.one = PrecisionLaurent.one(fs, ram=ram)
        self.theta = PrecisionLaurent.theta_pow(fs, 1, ram=ram)
        self.key = ("laurent", fs, window, ram)

    def conv(self, c):
        """A RatFunc or APoly as a windowed Laurent series; a
        PrecisionLaurent passes through unchanged."""
        if isinstance(c, PrecisionLaurent):
            return c
        if isinstance(c, APoly):
            c = RatFunc.from_apoly(c)
        if c.is_zero():
            return PrecisionLaurent.zero(self.fs, ram=self.ram)
        a = c.num.laurent(ram=self.ram)
        if c.is_poly():
            return a
        return a * c.den.laurent(ram=self.ram).inv(
            window=self.window * self.ram)

    def inv_bracket(self, k: int):
        x = inv_bracket(self.fs, k, self.fs.q**k + self.window)
        return x.embed_ram() if self.ram > 1 else x

    def bracket_pow(self, k: int, m: int, b: int):
        """b (-[k])^m, b an integer, exactly, from its at most m + 1 terms:
        with Q = q^k, (-[k])^m = (theta - theta^Q)^m has binom(m, i)
        (-1)^(m+i) at theta^e, e = mQ - i(Q - 1), which sits at exponent
        -e ram with the sign (-1)^e of theta = -eta^(q-1) when ram > 1."""
        fs, ram = self.fs, self.ram
        p, Q = fs.p, fs.q**k
        if not b % p:
            return self.zero
        step = (Q - 1) * ram
        cs = [0] * (m * step + 1)
        for i in range(m + 1):
            e = m * Q - i * (Q - 1)
            sign = (-1) ** (m + i + (e if ram > 1 else 0))
            cs[i * step] = b * math.comb(m, i) * sign % p
        return PrecisionLaurent(fs, -m * Q * ram, cs, ram=ram)


def _pole_inv_jet(sc, k: int, D: int) -> LocalJet:
    """Jet at t = theta of 1/(t - theta^{q^k}), order D, in the scalars of
    any strategy: LocalJet.pole_inv of 1/(theta - theta^{q^k}) = -1/[k].
    Not memoised: its callers keep what they build from it."""
    return LocalJet.pole_inv(-sc.inv_bracket(k), D, sc.zero)


def _bracket_pow_jets(sc, n: int, D: int) -> list:
    """Jets at t = theta of (t - theta^{q^n})^j for j < D, order D, in the
    scalars of any strategy: with u = t - theta and [n] = theta^{q^n} -
    theta this is (u - [n])^j, whose u^k coefficient is
    binom(j, k) (-[n])^{j-k}.  Laurent scalars build it in closed form
    (bracket_pow); the others take the powers of -[n], formed once in A."""
    fs = sc.fs
    if isinstance(sc, _LaurentScalars):
        coeff = functools.partial(sc.bracket_pow, n)
    else:
        neg = -bracket(fs, n)
        pows = [APoly.one(fs)]
        for _ in range(1, D):
            pows.append(pows[-1] * neg)

        def coeff(m, b):
            return sc.conv(RatFunc(pows[m].scale(fs.from_int(b)),
                                   reduce=False))
    return [LocalJet.of([coeff(j - k, math.comb(j, k)) for k in range(j + 1)],
                        D, sc.zero)
            for j in range(D)]


# ---------------------------------------------------------------------------
# t-modules
# ---------------------------------------------------------------------------


class TModule:
    """E_theta = d[theta] + E_1 tau + ... + E_k tau^k with d x d matrices
    over K (RatFunc entries); d[theta] = theta I + N with N strictly upper
    triangular (ValueError otherwise)."""

    def __init__(self, fs: FieldSpec, d: int, dtheta, taus, block_dims=None,
                 scalars=None):
        self.fs = fs
        self.d = d
        self.dtheta = dtheta
        self.taus = list(taus)
        # Jordan-block dimensions of d[theta]; one block (d,) by default
        self.block_dims = block_dims or (d,)
        self.scalars = scalars if scalars is not None else _ExactScalars(fs)
        sc = self.scalars
        self.nilpotent = [[(a - sc.theta if i == j else a)
                           for j, a in enumerate(row)]
                          for i, row in enumerate(dtheta)]
        if not all(_is_exact_zero(x) for i, row in enumerate(self.nilpotent)
                   for x in row[:i + 1]):
            raise ValueError("d[theta] - theta I must be strictly upper "
                             "triangular")
        self._exp_cache = [mat_identity(d, sc.one, sc.zero)]
        self._log_cache = [mat_identity(d, sc.one, sc.zero)]
        self._laurent_twins: dict = {}

    def with_scalars(self, sc):
        """The same module with entries converted through `sc.conv` (cached
        per scalar key); recursions then run over that backend."""
        if sc.key == self.scalars.key:
            return self
        got = self._laurent_twins.get(sc.key)
        if got is None:
            conv = sc.conv
            got = TModule(self.fs, self.d, mat_map(self.dtheta, conv),
                          [mat_map(M, conv) for M in self.taus],
                          block_dims=self.block_dims, scalars=sc)
            self._laurent_twins[sc.key] = got
        return got

    def with_laurent(self, window: int):
        """The same module over windowed Laurent scalars; coefficient
        recursions then run at a fixed relative working precision."""
        return self.with_scalars(_LaurentScalars(self.fs, window))

    @classmethod
    def carlitz(cls, fs: FieldSpec):
        one = RatFunc.one(fs)
        return cls(fs, 1, [[RatFunc.theta(fs)]], [[[one]]])

    @classmethod
    def carlitz_tensor(cls, fs: FieldSpec, n: int):
        """C^{otimes n} in the jet basis: d[theta] = theta I + shift,
        a single tau in the lower-left corner."""
        z, one, th = RatFunc.zero(fs), RatFunc.one(fs), RatFunc.theta(fs)
        dtheta = [[th if i == j else (one if j == i + 1 else z)
                   for j in range(n)] for i in range(n)]
        tau = [[z] * n for _ in range(n)]
        tau[n - 1][0] = one
        return cls(fs, n, dtheta, [tau])

    # -- F_q[t]-action -----------------------------------------------------

    def act(self, a: APoly, v, conv=None):
        """E_a(v) for a module point v (list of scalars) of an exact module,
        by Horner's rule in E_theta: acc <- E_theta(acc) + c v over the
        coefficients c of a, from the top down.  `conv` maps the matrix
        entries and the F_q constants, both in K, into the point's scalars,
        which twist through their own `frobenius`."""
        return self._horner(a, v, [self.dtheta] + self.taus, conv)

    def lie_act(self, a: APoly, z, conv=None):
        """d[a](z): the Horner loop of `act` with d[theta] alone."""
        return self._horner(a, z, [self.dtheta], conv)

    def _horner(self, a: APoly, v, mats, conv):
        if conv is None:
            conv = lambda x: x
        mats = [mat_map(M, conv) for M in mats]
        acc = None
        for c in reversed(a.coeffs):
            if acc is not None:
                w = acc
                acc = mat_vec(mats[0], w)
                for k, M in enumerate(mats[1:], start=1):
                    acc = vec_add(acc, mat_vec(M, [x.frobenius(k) for x in w]))
            if c:
                u = conv(RatFunc(APoly.const(self.fs, c)))
                cv = [u * x for x in v]
                acc = cv if acc is None else vec_add(acc, cv)
        return acc if acc is not None else [conv(self.scalars.zero)] * self.d

    # -- exponential / logarithm coefficients ------------------------------

    def exp_coeff(self, n: int):
        """Q_n from exp_E(d[theta] z) = E_theta(exp_E(z)): Q_n (theta^{q^n} I
        + N^{(n)}) - d[theta] Q_n = sum_{k>=1} E_{theta,k} Q_{n-k}^{(k)}."""
        return self._solve(self._exp_cache, n, False)

    def log_coeff_recursive(self, n: int):
        """P_n from log_E(E_theta(x)) = d[theta] log_E(x): P_n (theta^{q^n} I
        + N^{(n)}) - d[theta] P_n = -sum_{k>=1} P_{n-k} E_{theta,k}^{(n-k)}."""
        return self._solve(self._log_cache, n, True)

    def _solve(self, cache, n, log):
        """cache[n], growing the cache by one Sylvester solve per step."""
        while len(cache) <= n:
            m = len(cache)
            cache.append(self._sylvester_solve(self._conv_rhs(cache, m, log), m))
        return cache[n]

    def _conv_rhs(self, cache, m, log=False):
        """The right side of step m from the coefficients C_0..C_{m-1} in
        cache: sum_k E_k C_{m-k}^{(k)}, or -sum_k C_{m-k} E_k^{(m-k)} for
        the logarithm."""
        z = self.scalars.zero
        R = [[z] * self.d for _ in range(self.d)]
        for k in range(1, min(m, len(self.taus)) + 1):
            C, Ek = cache[m - k], self.taus[k - 1]
            if log:
                Ek = mat_map(Ek, lambda x: x.frobenius(m - k))
                R = mat_sub(R, mat_mul(C, Ek))
            else:
                C = mat_map(C, lambda x: x.frobenius(k))
                R = mat_add(R, mat_mul(Ek, C))
        return R

    def _sylvester_solve(self, R, n):
        """Solve X (theta^{q^n} I + N') - (theta I + N) X = R with
        N' = N^{(n)} by substitution: with lam = theta^{q^n} - theta,
        X_ij = (R_ij - sum_{k<j} X_ik N'_kj + sum_{k>i} N_ik X_kj) / lam,
        and since N and N' are strictly upper triangular the sums only
        reach entries below or to the left, so rows go bottom-up and
        columns left to right."""
        sc = self.scalars
        ilam = sc.inv_bracket(n)
        d = self.d
        N = self.nilpotent
        # the entries that can be nonzero: N_ik with k > i, N'_kj with k < j
        N_right = [[(k, N[i][k]) for k in range(i + 1, d)
                    if not _is_exact_zero(N[i][k])] for i in range(d)]
        Np_above = [[(k, N[k][j].frobenius(n)) for k in range(j)
                     if not _is_exact_zero(N[k][j])] for j in range(d)]
        X = [[None] * d for _ in range(d)]
        for i in range(d - 1, -1, -1):
            for j in range(d):
                acc = R[i][j]
                for k, c in Np_above[j]:
                    acc = acc - X[i][k] * c
                for k, c in N_right[i]:
                    acc = acc + c * X[k][j]
                X[i][j] = acc * ilam
        return X


def _theta_jet_matrix(shape, m: int, sc, D: int):
    """Order-D jets at t = theta of the m-th twisted transition matrix: the
    inverse-transpose of the motive matrix with numerators twisted by m - 1
    and poles moved to t = theta^{q^m} (hence regular at theta).  Its
    numerators are the other model's motive coefficients, transposed: the
    AT and Star coefficient matrices are inverse to each other."""
    from .motive import _phi_coeff

    if shape.model not in ("AT", "Star"):
        raise ValueError("closed-form coefficients need an AT or Star shape")
    dual = "Star" if shape.model == "AT" else "AT"
    r = shape.r
    dims = shape.block_dims
    linv = _pole_inv_jet(sc, m, D)
    lpow = [LocalJet.const_jet(sc.one, D, sc.zero)]
    for _ in range(dims[0]):
        lpow.append(lpow[-1] * linv)
    zjet = LocalJet.zero_jet(D, sc.zero)
    out = [[zjet for _ in range(r)] for _ in range(r)]
    for i in range(1, r + 1):
        out[i - 1][i - 1] = lpow[dims[i - 1]]
        for j in range(i + 1, r + 1):
            c = _phi_coeff(shape, dual, i, j)
            if c is not None:
                num = c.jet(D, sc, twist=m - 1)
                out[i - 1][j - 1] = num * lpow[dims[j - 1]]
    return out


@memo
def _theta_jet_products(shape, sc, D: int) -> list:
    """Running products of the twisted transition-matrix jets: entry n - 1
    is the product over 1..n; _theta_jet_product extends the list in place."""
    return []


def _theta_jet_product(shape, n: int, sc, D: int):
    """Running product of the twisted transition-matrix jets, 1..n."""
    lst = _theta_jet_products(shape, sc, D)
    while len(lst) < n:
        m = len(lst) + 1
        Th = _theta_jet_matrix(shape, m, sc, D)
        lst.append(Th if m == 1 else mat_mul(lst[-1], Th))
    return lst[n - 1]


def log_coeff_matrix(shape, n: int, scalars=None):
    """Closed-form logarithm coefficient P_n of the t-module induced by a
    shape: column (ell, j) is the twisted term (_twisted_term) of
    (t - theta^{q^n})^j in block ell."""
    from .motive import sigma_basis

    sc = scalars if scalars is not None else _ExactScalars(shape.fs)
    if n == 0:
        return mat_identity(shape.dim, sc.one, sc.zero)
    D = max(shape.block_dims)
    jets = _bracket_pow_jets(sc, n, D)
    cols = [_twisted_term(shape, n, sc, D, [jets[j] if b == ell else None
                                             for b in range(1, shape.r + 1)])
            for ell, j in sigma_basis(shape)]
    return [list(row) for row in zip(*cols)]


# ---------------------------------------------------------------------------
# certified series evaluation
# ---------------------------------------------------------------------------


def _abs_exp(x):
    """log_q |x|_inf as a Fraction, or None when zero (to precision)."""
    if isinstance(x, PrecisionLaurent):
        return None if x.v is None else -Fraction(x.v, x.ram)
    if isinstance(x, APoly):
        return None if x.is_zero() else Fraction(x.degree())
    if isinstance(x, RatFunc):
        if x.is_zero():
            return None
        return Fraction(x.num.degree() - x.den.degree())
    raise TypeError("unsupported scalar type %r" % (type(x),))


def _eval_window(fs: FieldSpec, prec: int, vals) -> int:
    w = prec + 2 * fs.q + 10
    emax = 0
    for x in vals:
        e = _abs_exp(x)
        if e is not None and e > emax:
            emax = e
    return w + math.ceil(emax)


def _certified_sum(term, first: int, prec: int, max_terms: int, what: str,
                   val=min_residual_valuation, acc=None):
    """acc + sum_{n >= first} term(n) over vectors, stopping after two
    consecutive terms whose valuation val(term) is None or >= prec, and
    raising PrecisionError(what) when term(max_terms) has not stopped it.
    This is the stop rule of the exp/log, Stark, nu-adic and strange-formula
    series; it rests on observed term decay, not on a proved tail bound."""
    stable = 0
    for n in range(first, max_terms + 1):
        t = term(n)
        acc = t if acc is None else vec_add(acc, t)
        v = val(t)
        stable = stable + 1 if (v is None or v >= prec) else 0
        if stable >= 2:
            return acc
    raise PrecisionError(what)


def _series_sum(coeff_fn, vec, prec: int, max_terms: int):
    """Sum_{n>=0} C_n vec^{(n)} to precision prec."""
    def term(n):
        return mat_vec(coeff_fn(n), [x.frobenius(n) for x in vec] if n else vec)

    return _certified_sum(
        term, 0, prec, max_terms,
        f"series did not certify precision {prec} within {max_terms} terms")


def _truncate_vec(vec, prec: int):
    return [x.truncate(prec * x.ram) for x in vec]


def exp_eval(E: TModule, z, prec: int = 40, max_terms: int = 60, scalars=None):
    """Exp_E(z) to absolute precision prec (theta-digits), evaluated over a
    windowed Laurent backend with measured term decay."""
    sc = (scalars if scalars is not None
          else _LaurentScalars(E.fs, _eval_window(E.fs, prec, z)))
    EL = E.with_scalars(sc)
    zz = [sc.conv(x) for x in z]
    acc = _series_sum(EL.exp_coeff, zz, prec, max_terms)
    return _truncate_vec(acc, prec)


def _iter_slots(block_dims):
    """(ell, j) labels in coordinate order; j descends within each block."""
    for ell, d in enumerate(block_dims, start=1):
        for j in range(d - 1, -1, -1):
            yield ell, d, j


def check_log_domain(E, v):
    """Certified convergence region of the logarithm of a t-module or shape
    E: coordinate (ell, j) must satisfy |v| < q^{(d_ell - j) + d_ell/(q-1)}."""
    q = E.fs.q
    for x, (ell, d, j) in zip(v, _iter_slots(E.block_dims)):
        e = _abs_exp(x)
        if e is None:
            continue
        if not e < (d - j) + Fraction(d, q - 1):
            raise ValueError(
                "coordinate (%d, %d) is outside the certified logarithm "
                "domain" % (ell, j))


def log_eval(E: TModule, v, prec: int = 40, max_terms: int = 60):
    """Log_E(v) inside the certified domain, with the coefficients of the
    functional-equation recursion over windowed Laurent scalars."""
    check_log_domain(E, v)
    sc = _LaurentScalars(E.fs, _eval_window(E.fs, prec, v))
    vv = [sc.conv(x) for x in v]
    acc = _series_sum(E.with_scalars(sc).log_coeff_recursive, vv, prec,
                      max_terms)
    return _truncate_vec(acc, prec)


# ---------------------------------------------------------------------------
# the Stark logarithm and the split-logarithm cross-check
# ---------------------------------------------------------------------------


def _gamma_guard(shape) -> int:
    g = 0
    for si in shape.s:
        g += gamma_factorial(shape.fs, si).degree()
    return g


def _twisted_term(shape, n: int, sc, D: int, jets) -> list:
    """delta_0 of the n-fold twisted transition product applied to one
    order-D jet per block (None for a zero block): term n of the Stark and
    nu-adic logarithm series."""
    from .motive import delta0

    zjet = LocalJet.zero_jet(D, sc.zero)
    blocks = []
    for row in _theta_jet_product(shape, n, sc, D):
        acc = zjet
        for p, w in zip(row, jets):
            if w is not None:
                acc = acc + p * w
        blocks.append(acc)
    return delta0(blocks, shape)


def stark_log_eval(shape, prec: int = 40, max_terms: int = 60):
    """Canonical logarithm of the special point, as the twisted-product
    series: term n is delta_0 of the n-fold transition product applied to
    the (n-1)-twisted extension row (the n = 0 term vanishes identically)."""
    from .motive import phi_tilde

    D = max(shape.block_dims)
    sc = _LaurentScalars(shape.fs,
                         _eval_window(shape.fs, prec, ()) + _gamma_guard(shape))
    f = phi_tilde(shape)[shape.r][:shape.r]

    def term(n):
        return _twisted_term(shape, n, sc, D, [
            None if x.is_zero() else x.jet(D, sc, twist=n - 1) for x in f])

    acc = _certified_sum(
        term, 1, prec, max_terms,
        f"logarithm series did not certify precision {prec} within "
        f"{max_terms} terms")
    return _truncate_vec(acc, prec)


def split_log_check(shape, prec: int = 30) -> dict:
    """Cross-check of the extended logarithm: write the special point as
    sum_i E_{t^{n_i}}(u_i) with every u_i inside the certified domain
    (exact identity), then compare sum_i d[t^{n_i}] Log(u_i) against the
    twisted-product series."""
    from .motive import special_point, split_decomposition, split_recomposes, \
        tmodule_of

    fs = shape.fs
    E = tmodule_of(shape)
    dec = split_decomposition(shape)
    recomposes = split_recomposes(shape, dec)

    # exact side: the pieces rebuild the special point on the nose
    vsum = None
    for n, u in dec:
        a = APoly.monomial(fs, n)
        part = E.act(a, u)
        vsum = part if vsum is None else vec_add(vsum, part)
    v_matches = vsum == special_point(shape)

    # analytic side against the twisted-product series
    nmax = max(n for n, _u in dec)
    inner = prec + nmax + 2
    sc = _LaurentScalars(fs, _eval_window(fs, inner, ()) + _gamma_guard(shape))
    zsum = None
    for n, u in dec:
        a = APoly.monomial(fs, n)
        z = E.lie_act(a, log_eval(E, u, prec=inner), conv=sc.conv)
        zsum = z if zsum is None else vec_add(zsum, z)
    res = min_residual_valuation(
        vec_sub(zsum, stark_log_eval(shape, prec=inner)))
    passed = recomposes and v_matches and (res is None or res >= prec)
    return {
        "identity": "Log(v) = sum_i d[t^(n_i)] Log(u_i)",
        "model": shape.model,
        "s": list(shape.s),
        "prec": prec,
        "terms": len(dec),
        "recomposes": recomposes,
        "special_point_matches": v_matches,
        "log_residual": res,
        "pass": passed,
    }


# ---------------------------------------------------------------------------
# the period basis
# ---------------------------------------------------------------------------


def period_basis(shape, prec: int = 30):
    """Basis of the period lattice of the induced t-module: the j-th vector
    stacks, for ell <= j, the jet of the (j, ell) entry of the lower
    unit-triangular inverse system, scaled by the inverse (q-1)-st-root
    series to the power d_j.  All entries live in the ramified tower."""
    from .motive import delta0
    from .zeta import lseries_jet

    fs = shape.fs
    e = fs.q - 1
    r = shape.r
    s = shape.s
    star = shape.model == "Star"
    D = max(shape.block_dims)
    W = _eval_window(fs, prec, ()) + _gamma_guard(shape)
    zero_r = PrecisionLaurent.zero(fs, ram=e)

    oj = omega_jet(fs, D, W).inv()
    opow = [LocalJet.const_jet(PrecisionLaurent.one(fs, ram=e), D, zero_r)]
    for _ in range(shape.block_dims[0]):
        opow.append(opow[-1] * oj)

    def embed_jet(jet: LocalJet) -> LocalJet:
        return LocalJet([c.embed_ram() for c in jet.orders], zero_r)

    def g_entry(j, ell):
        """(j, ell) entry of the inverse triangular factor, as a jet."""
        if j == ell:
            return LocalJet.const_jet(PrecisionLaurent.one(fs), D,
                                      PrecisionLaurent.zero(fs))
        sub = tuple(reversed(s[ell - 1:j - 1]))
        Qsub = tuple(reversed(shape.Q[ell - 1:j - 1]))
        jet = lseries_jet(fs, sub, Q=Qsub, star=not star, D=D, prec=W)
        if not star and (j - ell) % 2 == 1:
            jet = -jet
        return jet

    zjet = LocalJet.zero_jet(D, zero_r)
    out = []
    for j in range(1, r + 1):
        scale = opow[shape.block_dims[j - 1]]
        blocks = []
        for ell in range(1, r + 1):
            if ell <= j:
                blocks.append(embed_jet(g_entry(j, ell)) * scale)
            else:
                blocks.append(zjet)
        out.append(delta0(blocks, shape))
    return out


def period_check(shape, prec: int = 30) -> dict:
    """Each period-basis vector must be killed by the exponential."""
    fs = shape.fs
    lam = period_basis(shape, prec=prec)
    W = _eval_window(fs, prec, (x for v in lam for x in v))
    sc = _LaurentScalars(fs, W, ram=fs.q - 1)
    E = _shape_module(shape)
    res = []
    for v in lam:
        res.append(min_residual_valuation(
            exp_eval(E, v, prec=prec, scalars=sc)))
    passed = all(x is None or x >= prec for x in res)
    return {
        "identity": "Exp(lambda_j) = 0",
        "model": shape.model,
        "s": list(shape.s),
        "prec": prec,
        "exp_residuals": res,
        "pass": passed,
    }


def depth_one_period_check(fs, n: int, prec: int = 30) -> dict:
    """For the n-th tensor power the fundamental period's last coordinate is
    the n-th power of the reciprocal omega value (the Carlitz period for
    n = 1), and the exponential kills the whole vector."""
    from .motive import star_shape

    shape = star_shape(fs, (n,))
    lam = period_basis(shape, prec=prec)[0]
    W = 2 * (prec + n * math.ceil(fs.q / (fs.q - 1)) + 4)
    oinv = omega(fs, W, 2 * W).eval_theta().inv()
    diff = lam[n - 1] - oinv.pow(n)
    res_last = diff.residual_valuation()
    sc = _LaurentScalars(fs, _eval_window(fs, prec, lam), ram=fs.q - 1)
    res_exp = min_residual_valuation(
        exp_eval(_shape_module(shape), lam, prec=prec, scalars=sc))
    passed = ((res_last is None or res_last >= prec)
              and (res_exp is None or res_exp >= prec))
    return {
        "identity": "lambda_1 last coordinate = (1/Omega(theta))^n,"
                    " Exp(lambda_1) = 0",
        "q": fs.q,
        "n": n,
        "prec": prec,
        "last_coordinate_residual": res_last,
        "exp_residual": res_exp,
        "pass": passed,
    }


def log_oracle_check(shape, nmax: int = 8, window: int = 80) -> dict:
    """The two logarithm-coefficient routes (closed-form twisted-product
    jets vs the functional-equation recursion) agree entrywise inside a
    shared truncation window."""
    fs = shape.fs
    sc = _LaurentScalars(fs, window)
    E = _shape_module(shape).with_scalars(sc)
    residuals = []
    for n in range(1, nmax + 1):
        A = log_coeff_matrix(shape, n, sc)
        B = E.log_coeff_recursive(n)
        residuals.append(min_residual_valuation(
            x - y for row_a, row_b in zip(A, B)
            for x, y in zip(row_a, row_b)))
    passed = all(v is None or v >= window for v in residuals)
    return {
        "identity": "closed-form log coefficients = functional-equation "
                    "recursion",
        "model": shape.model,
        "s": list(shape.s),
        "nmax": nmax,
        "window": window,
        "residuals": residuals,
        "pass": passed,
    }


def _shape_module(shape) -> TModule:
    from .motive import tmodule_of
    return tmodule_of(shape)
