"""Characteristic-p multiple zeta values and their deformed L-series.

Power sums over monic polynomials are computed from the coefficients of the
linearized polynomial e_d(x) = prod_{deg b < d} (x - b): the monics of degree
d are the roots of e_d(x) - D_d, whose logarithmic derivative collapses to a
single term in characteristic p, giving

    sum_{k>=1} S_d(k) u^k = g_0 * u * (1 - sum_i g_i u^{q^i})^{-1}

with g_i = c_{d,i}/D_d.  The normalized ratios g_i satisfy the first-order
recursion g'_{i} = (g_{i-1}^q - g_i)/[d+1] coming from
e_{d+1} = e_d^q - D_d^{q-1} e_d, so no large polynomial is ever built, and
the division by the bracket [d+1] is a few shifts and adds of one packed
integer.  For q | k, S_d(k) = S_d(k/q)^q in characteristic p, and a q-th
power over F_q is the Frobenius twist: frobenius(1, N) of S_d(k/q) at the
same precision N spreads only its codes below ceil(N/q), with no product.

Row d has g_0 = +-1/l_d and g_i = +-1/(D_i L_{d-i}^{q^i}), all of
valuation >= 0, so v_inf(S_d(k)) >= max(d k, deg l_d) with
deg l_d = q + q^2 + ... + q^d.  A multiple zeta value is therefore summed
over the O(log_q prec) outermost degrees below that bound (mzv_cutoff).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import (APoly, FieldSpec, PrecisionError, PrecisionLaurent,
                      RatFunc, _spread, frozen, memo, min_residual_valuation)
from .tlayer import (LocalJet, TPoly, TateTrunc, anderson_thakur,
                     gamma_factorial, inv_bracket, l_poly, omega)
from .tmodule import (TModule, _certified_sum, _LaurentScalars,
                      _pole_inv_jet, exp_eval, log_eval, mat_mul, mat_sub,
                      split_log_check, stark_log_eval, vec_sub)

# ---------------------------------------------------------------------------
# power sums S_d(k) = sum over monic a of degree d of a^(-k)
# ---------------------------------------------------------------------------


def _div_bracket(x: PrecisionLaurent, e: int, N: int) -> PrecisionLaurent:
    """(x * inv_bracket(fs, e, N)).truncate(N), with no product: 1/[e] =
    sum_j theta^{-Q - j(Q-1)}, Q = q^e, so the quotient, stored from
    exponent v(x) + Q with length L, is x / (1 - z^(Q-1)) mod z^L, a few
    shifts and adds of one packed integer (FieldSpec.geometric).  Zero and
    exact inputs, and Q >= N, take the product."""
    fs = x.fs
    Q = fs.q**e
    if x.v is None or x.N is None or Q >= N:
        return (x * inv_bracket(fs, e, N)).truncate(N)
    v = x.v + Q
    Nout = min(N, x.N + Q, N + x.v)
    return PrecisionLaurent(fs, v, fs.geometric(x.coeffs, Q - 1, max(Nout - v, 0)),
                            N=Nout)


@memo
def _gamma_rows(fs: FieldSpec, imax: int, N: int) -> list:
    """Row d is the ratios g_i = c_{d,i}/D_d for i = 0..min(d, imax), as
    series to precision N; _gamma_row extends the list in place."""
    return [(PrecisionLaurent.one(fs, N=N),)]


def _gamma_row(fs: FieldSpec, d: int, imax: int, N: int):
    rows = _gamma_rows(fs, imax, N)
    while len(rows) <= d:
        e = len(rows)
        prev = rows[-1]
        row = []
        for i in range(min(e, imax) + 1):
            acc = PrecisionLaurent.zero(fs, N=N)
            if 1 <= i <= len(prev):
                acc = acc + prev[i - 1].frobenius(1, N)
            if i < len(prev):
                acc = acc - prev[i]
            row.append(_div_bracket(acc, e, N))
        rows.append(tuple(row))
    return rows[d]


def _power_sum_floor(q: int, d: int, k: int) -> int:
    """max(d k, deg l_d), a lower bound on v_inf(S_d(k)) for k >= 1: every
    monic of degree d contributes theta^{-dk}, and S_d(k) = g_0 b_{k-1}
    with v_inf(g_0) = deg l_d = q (q^d - 1)/(q - 1) and v_inf(b_{k-1}) >= 0.
    (k deg l_d is no bound once k > q: S_1(3) over F_2 has valuation 4.)"""
    return max(d * k, q * (q**d - 1) // (q - 1))


@memo
def power_sum(fs: FieldSpec, d: int, k: int, prec: int) -> PrecisionLaurent:
    """S_d(k) = sum_{a monic, deg a = d} a^(-k), to guaranteed precision;
    zero to precision prec, without building any row, once
    _power_sum_floor(q, d, k) >= prec.

    For q | k, S_d(k) = sum_a (a^(-k/q))^q = S_d(k/q)^q in characteristic
    p, and the q-th power of a series over F_q is its Frobenius twist: no
    product.  S_d(k/q) is taken at the same prec, so that its memo entry
    and the rows at prec are shared, and frobenius(1, prec) spreads only its
    codes below ceil(prec/q), as the others land at or past prec; its
    valuation is >= 0, so the twist only moves it up."""
    if d < 0 or k < 1:
        raise ValueError("need d >= 0 and k >= 1")
    N = prec
    if _power_sum_floor(fs.q, d, k) >= N:
        return PrecisionLaurent.zero(fs, N=N)
    if k % fs.q == 0:
        return power_sum(fs, d, k // fs.q, N).frobenius(1, N)
    imax = 0
    while fs.q ** (imax + 1) <= k:
        imax += 1
    g = _gamma_row(fs, d, imax, N)
    # b_j = coefficients of (1 - sum_i g_i u^{q^i})^{-1}
    b = [PrecisionLaurent.one(fs, N=N)]
    for j in range(1, k):
        acc = PrecisionLaurent.zero(fs, N=N)
        i = 0
        while i < len(g) and fs.q**i <= j:
            acc = acc + g[i] * b[j - fs.q**i]
            i += 1
        b.append(acc.truncate(N))
    return (g[0] * b[k - 1]).truncate(N)


# ---------------------------------------------------------------------------
# multiple zeta values
# ---------------------------------------------------------------------------


class MZVIndex:
    __slots__ = ("s",)
    __setattr__ = __delattr__ = frozen

    def __init__(self, s: tuple):
        if not s or any(si < 1 for si in s):
            raise ValueError("index entries must be positive")
        object.__setattr__(self, "s", s)

    def __eq__(self, other):
        return isinstance(other, MZVIndex) and self.s == other.s

    def __hash__(self):
        return hash((self.s,))

    def __repr__(self):
        return "MZVIndex(s=%r)" % (self.s,)


class MZVValue:
    __slots__ = ("value", "index", "route", "star")

    def __init__(self, value: PrecisionLaurent, index, route: str, star):
        self.value, self.index = value, index
        self.route, self.star = route, star

    def __eq__(self, other):
        return isinstance(other, MZVValue) and (
            self.value, self.index, self.route, self.star) == (
            other.value, other.index, other.route, other.star)

    def __repr__(self):
        return "MZVValue(value=%r, index=%r, route=%r, star=%r)" % (
            self.value, self.index, self.route, self.star)


def mzv_cutoff(s, prec: int, q: int) -> int:
    """Least D with max(D s_1, deg l_D) >= prec.  A term whose outermost
    monic has degree d is S_d(s_1) times inner power sums of valuation
    >= 0, so it has valuation >= _power_sum_floor(q, d, s_1), which grows
    with d; every degree from D on is zero to precision prec."""
    D = 0
    while _power_sum_floor(q, D, s[0]) < prec:
        D += 1
    return D


def mzv(fs: FieldSpec, s, star: bool = False, prec: int = 40) -> MZVValue:
    """zeta_A(s_1,...,s_r) = sum over deg a_1 > ... > deg a_r >= 0 of
    1/(a_1^{s_1} ... a_r^{s_r}); star variant uses >=.  Dynamic program
    over power sums, summed over the outermost degrees below
    mzv_cutoff."""
    idx = MZVIndex(tuple(s))
    s = idx.s
    D = mzv_cutoff(s, prec, fs.q)
    N = prec
    r = len(s)
    # G[d] for the innermost factor, then fold outward with prefix sums
    G = [power_sum(fs, d, s[r - 1], N) for d in range(D)]
    for j in range(r - 2, -1, -1):
        # prefix[d] = sum_{d' < d} G[d']   (strict; star shifts by one)
        prefix = [PrecisionLaurent.zero(fs, N=N)]
        for d in range(1, D):
            prefix.append((prefix[-1] + G[d - 1]).truncate(N))
        nxt = []
        for d in range(D):
            low = prefix[d] + G[d] if star else prefix[d]
            nxt.append((power_sum(fs, d, s[j], N) * low).truncate(N))
        G = nxt
    acc = PrecisionLaurent.zero(fs, N=N)
    for d in range(D):
        acc = acc + G[d]
    return MZVValue(acc.truncate(prec), idx, "PowerSumDP", star)


# ---------------------------------------------------------------------------
# deformed L-series: shell sums over i_1 > ... > i_k >= 0 (>= for star) of
# prod_m Q_m^{(i_m)} / LL_{i_m}^{s_m}, the Omega-free normalization.  All
# scalars carry a *relative* precision window: factors with huge opposite
# valuations (Q^{(i)} against LL_i^{-s}) then multiply without precision
# collapse, because N - v is preserved under multiplication.
# ---------------------------------------------------------------------------


def _rel_guard(fs: FieldSpec, s) -> int:
    """Extra relative digits absorbing the bounded shell norms."""
    q = fs.q
    return sum((si * q) // (q - 1) + 1 for si in s) + 10


def _frob_laurent_rel(c: RatFunc, i: int, rel: int) -> PrecisionLaurent:
    """c^{q^i} to relative precision rel.  A polynomial's q^i-th power has
    support on multiples of q^i, so only its top ceil(rel/q^i) monomials
    land inside the window: they are cut and spread.  Any other c is
    converted by the windowed Laurent strategy to ceil(rel/q^i) digits past
    its leading exponent, which the twist maps to >= rel; a monomial
    denominator stays exact."""
    if c.is_zero():
        return PrecisionLaurent.zero(c.fs)
    fs, k = c.fs, c.fs.q**i
    if c.is_poly():
        a = c.num.coeffs
        v = -(len(a) - 1) * k
        return PrecisionLaurent(fs, v, _spread(fs, a[::-1][:-(-rel // k)], k), N=v + rel)
    y = _LaurentScalars(fs, -(-rel // k)).conv(c)
    return y.frobenius(i, None if y.N is None else y.v * k + rel)


@memo
def _ll_inv_jet(fs: FieldSpec, i: int, s: int, D: int, rel: int) -> LocalJet:
    """Jet at t = theta of LL_i^{-s}, a product of pole jets
    1/(t - theta^{q^i})."""
    if i == 0:
        return LocalJet.const_jet(
            PrecisionLaurent.one(fs), D, PrecisionLaurent.zero(fs))
    got = _ll_inv_jet(fs, i - 1, s, D, rel)
    f = _pole_inv_jet(_LaurentScalars(fs, rel), i, D)
    for _ in range(s):
        got = got * f
    return got


@memo
def _tpoly_jet_rel(Q: TPoly, i: int, D: int, rel: int) -> LocalJet:
    """Jet at t = theta of Q^{(i)}, Horner in u = t - theta, without ever
    densifying the twisted coefficients."""
    fs = Q.fs
    z = PrecisionLaurent.zero(fs)
    acc = LocalJet.zero_jet(D, z)
    if Q.is_zero():
        return acc
    tjet = LocalJet.of(
        [PrecisionLaurent.theta_pow(fs, 1), PrecisionLaurent.one(fs)], D, z)
    for c in reversed(Q.coeffs):
        acc = acc * tjet
        if not c.is_zero():
            acc = acc + LocalJet.const_jet(_frob_laurent_rel(c, i, rel), D, z)
    return acc


@memo
def _ll_inv_tate(fs: FieldSpec, i: int, s: int, M: int) -> TateTrunc:
    """LL_i^{-s} = prod_{j=1..i} (t - theta^{q^j})^{-s} in the Tate algebra,
    exactly.  Each division by t - c, c = theta^{q^i}, is the recurrence
    out_k = c^{-1} (out_{k-1} - in_k) on the t-coefficients, and c^{-1} is
    an exponent shift by q^i."""
    if i == 0:
        return TateTrunc.one(fs, M)
    got = _ll_inv_tate(fs, i - 1, s, M).coeffs
    k = fs.q**i
    for _ in range(s):
        prev = PrecisionLaurent.zero(fs)
        out = []
        for c in got:
            prev = (prev - c).shift(k)
            out.append(prev)
        got = out
    return TateTrunc(fs, got, M)


def _tpoly_tate_rel(Q: TPoly, i: int, M: int, rel: int) -> TateTrunc:
    """Q^(i) to order M, row n to N = min(v_n + rel, rel); a zero row is
    zero to precision rel."""
    return TateTrunc(
        Q.fs, [_frob_laurent_rel(Q[n], i, rel) for n in range(min(M, Q.degree()) + 1)],
        M).truncate(rel)


def _shell_term(s: int, Q: TPoly, i: int, M: int, C: int) -> TateTrunc:
    """Q^(i) LL_i^(-s) to order M, every row to N = min(v + C, C): C digits
    past the row's valuation bound, and never past the exponent C.  Every
    row of LL_i^(-s) has v >= s (q + ... + q^i) >= 0, so the capped rows of
    Q^(i) still carry each product row to at least that N, LL_i^(-s) is
    needed only below C - min v(Q^(i)), and the term is zero to precision
    C, with no product, once min v(Q^(i)) + s (q + ... + q^i) >= C; the
    product is cut to C."""
    qt = _tpoly_tate_rel(Q, i, M, C)
    if i == 0:
        return qt
    fs, q = Q.fs, Q.fs.q
    # a row zero to precision N has valuation >= N
    vq = min(n if v is None else v for v, n in zip(qt.vs, qt.Ns))
    if vq + s * (q ** (i + 1) - q) // (q - 1) >= C:
        return TateTrunc.zero(fs, M, N=C)
    ll = _ll_inv_tate(fs, i, s, M).truncate(C - vq)
    return (qt * ll).truncate(C)


def _jet_term(s: int, Q: TPoly, i: int, D: int, rel: int) -> LocalJet:
    """Q^(i) LL_i^(-s) as an order-D jet at t = theta, every order to rel
    digits past its valuation."""
    qj = _tpoly_jet_rel(Q, i, D, rel)
    if i == 0:
        return qj
    return qj * _ll_inv_jet(Q.fs, i, s, D, rel)


# the most shells an L-series sum forms before it raises PrecisionError
LSERIES_MAX_SHELLS = 64


def lseries_raw(pairs, star: bool, prec, term, zero):
    """Shell dynamic program.  pairs = [(s_1, Q_1), ..., (s_k, Q_k)] with the
    first pair taking the largest Frobenius index; term(s, Q, i) is the
    shell term Q^(i) LL_i^(-s), a TateTrunc or a LocalJet, and zero the
    empty sum of that type.

    A shell G is small when its least residual valuation is >= prec and it
    is settled against the sum S it was added to: every coefficient of G
    (a row of a TateTrunc, an order of a LocalJet) is zero to its
    precision or starts at or past S's N in that coefficient, so G leaves
    every digit S certifies alone.  The terms are known to about rel, well
    past prec, so a shell below theta^-prec can still reach those digits.
    The sum stops after two consecutive small shells, once every entry has
    had a shell; that the shells after them are small too rests on their
    norms' geometric decay, not on a proved tail bound."""
    k = len(pairs)
    prefix = [zero] * k
    stable = 0
    seen = False
    for i in range(LSERIES_MAX_SHELLS + 1):
        # at entry m, G is shell i of the chains from entry m + 1 on and
        # prefix[m + 1] the shells before i; a strict chain goes on in the
        # earlier shells only, a weak one in shell i too
        G = None
        for m in range(k - 1, -1, -1):
            s, Q = pairs[m]
            T = term(s, Q, i)
            if G is not None:
                if star:
                    prefix[m + 1] = prefix[m + 1] + G
                    T = T * prefix[m + 1]
                else:
                    T, prefix[m + 1] = T * prefix[m + 1], prefix[m + 1] + G
            G = T
        prefix[0] = prefix[0] + G
        val = G.min_residual_valuation()
        if val is not None:
            seen = True
        stable = stable + 1 if (seen and (val is None or val >= prec)
                                and G.settled(prefix[0])) else 0
        if stable >= 2 and i + 1 >= k:
            return prefix[0]
    raise PrecisionError(
        f"L-series shells did not certify precision {prec} within {LSERIES_MAX_SHELLS} terms")


def _default_Q(fs: FieldSpec, s, Q):
    if Q is None:
        return tuple(anderson_thakur(fs, si) for si in s)
    return tuple(Q)


def lseries_jet(fs: FieldSpec, s, Q=None, star: bool = False, D: int = 1,
                prec: int = 40) -> LocalJet:
    """Jet at t = theta of the normalized series [L(s_1,...,s_k) Omega^{-w}]
    (star: weak chains), with Q_m defaulting to the interpolation polynomial
    H_{s_m}."""
    s = tuple(s)
    Q = _default_Q(fs, s, Q)
    rel = prec + D + _rel_guard(fs, s)
    return lseries_raw(list(zip(s, Q)), star, prec,
                       lambda si, Qi, i: _jet_term(si, Qi, i, D, rel),
                       LocalJet.zero_jet(D, PrecisionLaurent.zero(fs)))


def lseries_value(fs: FieldSpec, s, Q=None, star: bool = False,
                  prec: int = 40) -> PrecisionLaurent:
    """Value at t = theta; equals Gamma_{s_1}...Gamma_{s_k} zeta_A(s_1,...,s_k)
    (or the star value) when the Q_m are the H_{s_m}."""
    jet = lseries_jet(fs, s, Q=Q, star=star, D=1, prec=prec)
    return jet.orders[0].truncate(prec)


# ---------------------------------------------------------------------------
# Carlitz (star) multiple polylogarithms
# ---------------------------------------------------------------------------


def _as_ratfunc(u):
    if isinstance(u, RatFunc):
        return u
    if isinstance(u, APoly):
        return RatFunc.from_apoly(u)
    raise TypeError("polylogarithm arguments must be RatFunc or APoly")


def outside_polylog_domain(q: int, s: int, e, first: bool) -> bool:
    """Whether an argument u with |u|_inf = q^e, paired with index entry s,
    lies outside the convergence domain of the Carlitz multiple
    polylogarithm sum_{i_1 > ... > i_k} prod_m u_m^{q^{i_m}} / L_{i_m}^{s_m}
    (Chang, Compositio Math. 2014): the first argument, which carries the
    largest index, needs |u| < q^{s q/(q-1)}; the others may sit on that
    boundary."""
    bound = Fraction(s * q, q - 1)
    return e > bound or (first and e == bound)


def polylog(fs: FieldSpec, s, u, star: bool = False,
            prec: int = 40) -> PrecisionLaurent:
    """Carlitz multiple polylogarithm Li_{(s_1,...,s_k)}(u_1,...,u_k) =
    sum over i_1 > ... > i_k >= 0 of u_1^{q^{i_1}}...u_k^{q^{i_k}} /
    (L_{i_1}^{s_1}...L_{i_k}^{s_k}); star variant uses weak chains."""
    s = tuple(s)
    u = [_as_ratfunc(x) for x in u]
    if len(u) != len(s):
        raise ValueError("need one argument per index entry")
    if any(x.is_zero() for x in u):
        return PrecisionLaurent.zero(fs, N=prec)
    for m, (sm, um) in enumerate(zip(s, u)):
        e = um.num.degree() - um.den.degree()
        if outside_polylog_domain(fs.q, sm, e, m == 0):
            raise ValueError(
                f"argument {m + 1} violates the convergence condition")
    Q = tuple(TPoly.const(fs, x) for x in u)
    return lseries_value(fs, s, Q=Q, star=star, prec=prec)


# ---------------------------------------------------------------------------
# deformed rows and the rigid-analytic trivialization
# ---------------------------------------------------------------------------


class DeformedRow:
    """All interval sub-series of a shape, Omega-free normalized, as
    t-truncations.  Keys are half-open intervals (a, b), 1 <= a < b <= r+1:
    L[(a,b)] deforms the strict-chain series on (s_a,...,s_{b-1});
    Lstar[(a,b)] the weak-chain series on the reversed interval."""

    __slots__ = ("shape", "M", "prec", "L", "Lstar")

    def __init__(self, shape, M: int, prec: int, L: dict, Lstar: dict):
        self.shape, self.M, self.prec = shape, M, prec
        self.L, self.Lstar = L, Lstar

    def __eq__(self, other):
        return isinstance(other, DeformedRow) and (
            self.shape, self.M, self.prec, self.L, self.Lstar) == (
            other.shape, other.M, other.prec, other.L, other.Lstar)

    def __repr__(self):
        return "DeformedRow(shape=%r, M=%r, prec=%r, L=%r, Lstar=%r)" % (
            self.shape, self.M, self.prec, self.L, self.Lstar)

    def inversion_residuals(self) -> dict:
        """Inclusion-exclusion between the strict and weak series, in both
        directions: for every interval,

          (-1)^a L*(rev a,b) = sum_k (-1)^{k-1} L(a,k) L*(rev k,b)
                               + (-1)^{b-1} L(a,b)
          (-1)^{b-1} L*(rev a,b) = sum_k (-1)^k L(k,b) L*(rev a,k)
                               + (-1)^a L(a,b)

        returns {interval: min residual valuation over the two}.  Each
        residual is taken times the sign of its left side, which leaves its
        valuation alone: L*(rev a,b) minus the right side with every sign
        folded into an addition or a subtraction."""
        L, Ls = self.L, self.Lstar
        out = {}
        for (a, b) in L:
            r1 = _signed_residual(
                Ls[(a, b)],
                [(L[(a, k)] * Ls[(k, b)], k - 1 + a) for k in range(a + 1, b)]
                + [(L[(a, b)], b - 1 + a)])
            r2 = _signed_residual(
                Ls[(a, b)],
                [(L[(k, b)] * Ls[(a, k)], k + b - 1) for k in range(a + 1, b)]
                + [(L[(a, b)], a + b - 1)])
            vals = [v for v in (r1, r2) if v is not None]
            out[(a, b)] = min(vals) if vals else None
        return out


def _signed_residual(lhs, terms):
    """Least residual valuation of lhs - sum (-1)^n x over (x, n) in terms."""
    for x, n in terms:
        lhs = lhs - x if n % 2 == 0 else lhs + x
    return lhs.min_residual_valuation()


def _sgn_tate(x, n: int):
    return x if n % 2 == 0 else -x


def _interval_series(fs: FieldSpec, M: int, prec: int, s):
    """The normalized series, t-truncated to order M and taken to prec
    through lseries_raw, for the intervals of the index s, built once per
    distinct series: strict and weak chains agree in depth one,
    and the empty interval gives 1.

    The intervals also share one table of shell terms Q^(i) LL_i^(-s),
    built at the widest window W = prec + _rel_guard(fs, s), which is at
    least every interval's rel = prec + _rel_guard(fs, sub).  An interval
    takes each term with every row's N lowered by cut = W - rel, and that
    is the term built at rel: row k of the term has N_k = min(w_k + W, W)
    with w_k = min_j (v(Q_j) + v(LL_{k-j})) and exact coefficients below
    it, and min(w_k + W, W) - (W - rel) = min(w_k + rel, rel).  The table
    is keyed by (s, Q, i, cut), so each term is built once and lowered
    once per window.  Both tables live as long as the returned function."""
    W = prec + _rel_guard(fs, s)
    terms, table = {}, {}
    zero = TateTrunc.zero(fs, M)

    def term(si, Qi, i, cut):
        got = terms.get((si, Qi, i, cut))
        if got is None:
            got = terms[si, Qi, i, cut] = (
                term(si, Qi, i, 0).lower_precision(cut) if cut
                else _shell_term(si, Qi, i, M, W))
        return got

    def series(sub, Qsub, weak):
        key = (sub, Qsub, weak and len(sub) > 1)
        if key not in table:
            if sub:
                cut = W - prec - _rel_guard(fs, sub)
                table[key] = lseries_raw(list(zip(sub, Qsub)), weak, prec,
                                         lambda si, Qi, i: term(si, Qi, i, cut),
                                         zero)
            else:
                table[key] = TateTrunc.one(fs, M)
        return table[key]

    return series


def deformed_row(shape, n_terms: int = 20, prec: int = 40) -> DeformedRow:
    r = shape.r
    series = _interval_series(shape.fs, n_terms, prec, shape.s)
    L, Ls = {}, {}
    for a in range(1, r + 2):
        for b in range(a + 1, r + 2):
            sub = shape.s[a - 1:b - 1]
            Qsub = shape.Q[a - 1:b - 1]
            L[(a, b)] = series(sub, Qsub, False)
            Ls[(a, b)] = series(tuple(reversed(sub)), tuple(reversed(Qsub)),
                                True)
    return DeformedRow(shape, n_terms, prec, L, Ls)


def trivialization_check(shape, M: int = 20, N: int = 30) -> dict:
    """Residuals of the trivialization identities for the (r+1)-level system:
    the unit-triangular product (Omega-free form of Psi Upsilon = I), the
    literal twist equation Psi^(-1) = Phi Psi in the ramified tower, its
    twist-free form Psi = Phi^(1) Psi^(1), and the last row of the inverse
    matrix evaluated at t = theta against the Gamma-scaled zeta values."""
    from .motive import phi_tilde

    fs = shape.fs
    q = fs.q
    r = shape.r
    s = shape.s
    dims = shape.block_dims + (0,)
    star = shape.model == "Star"
    Nw = q * N + 2 * q  # headroom so the (-1)-twist still certifies N
    zero_t = TateTrunc.zero(fs, M)
    one_t = TateTrunc.one(fs, M)

    series = _interval_series(fs, M, Nw, s)

    def interval(a, b, reverse, weak):
        sub = s[a - 1:b - 1]
        Qsub = shape.Q[a - 1:b - 1]
        if reverse:
            sub, Qsub = tuple(reversed(sub)), tuple(reversed(Qsub))
        return series(sub, Qsub, weak)

    # Omega-free triangular factors: Psi = Fhat . diag(Omega^{d_l}),
    # Upsilon = diag(Omega^{-d_j}) . Ghat
    Fhat = [[zero_t] * (r + 1) for _ in range(r + 1)]
    Ghat = [[zero_t] * (r + 1) for _ in range(r + 1)]
    for j in range(1, r + 2):
        for ell in range(1, j + 1):
            if star:
                Fhat[j - 1][ell - 1] = _sgn_tate(
                    interval(ell, j, reverse=False, weak=True), j - ell)
                Ghat[j - 1][ell - 1] = interval(ell, j, reverse=True, weak=False)
            else:
                Fhat[j - 1][ell - 1] = interval(ell, j, reverse=False, weak=False)
                Ghat[j - 1][ell - 1] = _sgn_tate(
                    interval(ell, j, reverse=True, weak=True), j - ell)

    FG = mat_mul(Fhat, Ghat)
    for i in range(r + 1):
        FG[i][i] = FG[i][i] - one_t
    res_unit = min_residual_valuation(
        c for row in FG for x in row for c in x.coeffs)

    # ramified Psi and the twist equations
    Om = omega(fs, M, Nw)
    maxd = max(dims)
    Ompow = [one_t.embed_ram()]
    for _ in range(maxd):
        Ompow.append(Ompow[-1] * Om)
    zero_r = zero_t.embed_ram()
    Psi = [[zero_r] * (r + 1) for _ in range(r + 1)]
    for j in range(r + 1):
        for ell in range(j + 1):
            Psi[j][ell] = Fhat[j][ell].embed_ram() * Ompow[dims[ell]]
    pt = phi_tilde(shape)
    Phi_ram = [[x.twist(-1).to_tate(M).embed_ram() for x in row] for row in pt]
    Phi1_ram = [[x.to_tate(M).embed_ram() for x in row] for row in pt]
    R_lit = mat_sub([[x.twist(-1) for x in row] for row in Psi],
                    mat_mul(Phi_ram, Psi))
    res_lit = min_residual_valuation(
        c for row in R_lit for x in row for c in x.coeffs)
    R_tf = mat_sub(Psi, mat_mul(Phi1_ram, [[x.twist(1) for x in row] for row in Psi]))
    res_tf = min_residual_valuation(
        c for row in R_tf for x in row for c in x.coeffs)

    # last row of the inverse matrix at t = theta vs Gamma-scaled zeta values
    last = []
    for ell in range(1, r + 1):
        sub = tuple(reversed(s[ell - 1:]))
        got = lseries_value(fs, sub, Q=tuple(reversed(shape.Q[ell - 1:])),
                            star=not star, prec=N + 2)
        gam = _gamma_product(fs, sub)
        ref = mzv(fs, sub, star=not star, prec=N + gam.degree() + 2).value
        diff = got - (gam.laurent() * ref)
        last.append(None if diff.v is None else Fraction(diff.v))

    def ok(v, target):
        return v is None or v >= target

    passed = (ok(res_unit, N) and ok(res_lit, N) and ok(res_tf, N)
              and all(ok(v, N) for v in last))
    return {
        "identity": "Psi^(-1) = Phi Psi and Psi Upsilon = I",
        "model": shape.model,
        "s": list(s),
        "t_order": M,
        "prec": N,
        "unit_product_residual": res_unit,
        "twist_residual": res_lit,
        "twist_free_residual": res_tf,
        "last_row_residuals": last,
        "pass": passed,
    }


def inversion_check(shape, n_terms: int = 12, prec: int = 40) -> dict:
    """Both inclusion-exclusion identities between the strict and weak
    deformed series, on every interval of the shape."""
    row = deformed_row(shape, n_terms=n_terms, prec=prec + 2)
    res = row.inversion_residuals()
    passed = all(v is None or v >= prec for v in res.values())
    return {
        "identity": "(-1)^a L*(rev) = sum_k +/- L L* + (-1)^(b-1) L",
        "s": list(shape.s),
        "t_order": n_terms,
        "prec": prec,
        "interval_residuals": {"%d,%d" % k: v for k, v in sorted(res.items())},
        "pass": passed,
    }


# ---------------------------------------------------------------------------
# the logarithmic interpretation suites
# ---------------------------------------------------------------------------


def _gamma_product(fs: FieldSpec, s) -> APoly:
    gam = APoly.one(fs)
    for si in s:
        gam = gam * gamma_factorial(fs, si)
    return gam


def stark_unit_check(shape, prec: int = 40, split: bool = True) -> dict:
    """Full logarithmic interpretation for one shape: the twisted-product
    logarithm z exponentiates back to the special point, its block-leading
    coordinates match the (Gamma-scaled) zeta values from the independent
    power-sum DP, and the split decomposition recomposes and reproduces z."""
    from .motive import special_point, tmodule_of

    fs = shape.fs
    r = shape.r
    star = shape.model == "Star"
    z = stark_log_eval(shape, prec=prec + 10)
    E = tmodule_of(shape)
    Z = exp_eval(E, z, prec=prec)
    sc = _LaurentScalars(fs, prec + 10)
    v = [sc.conv(x) for x in special_point(shape)]
    res_exp = min_residual_valuation(vec_sub(Z, v))

    coord_res = []
    for ell in range(1, r + 1):
        sub = tuple(reversed(shape.s[ell - 1:]))
        gam = _gamma_product(fs, sub)
        ref = mzv(fs, sub, star=not star, prec=prec + gam.degree() + 2).value
        want = gam.laurent() * ref
        if star or (r - ell) % 2 == 1:
            want = -want
        diff = z[shape.slot(ell, 0)] - want
        coord_res.append(diff.residual_valuation())
    split_out = split_log_check(shape, prec=min(prec, 30)) if split else None
    passed = ((res_exp is None or res_exp >= prec)
              and all(v_ is None or v_ >= prec for v_ in coord_res)
              and (split_out is None or split_out["pass"]))
    return {
        "identity": "Exp(z) = v and z coordinates are Gamma-scaled zetas",
        "model": shape.model,
        "s": list(shape.s),
        "prec": prec,
        "exp_residual": res_exp,
        "coordinate_residuals": coord_res,
        "split": split_out,
        "pass": passed,
    }


def depth_one_check(fs: FieldSpec, n: int, prec: int = 40) -> dict:
    """Anderson-Thakur depth one: Exp_{C^(x)n}(z_n) = Z_n with Z_n the jet
    coordinates of the interpolation polynomial and the last coordinate of
    z_n equal to Gamma_n zeta_A(n)."""
    from .motive import special_point, star_shape, tmodule_of

    shape = star_shape(fs, (n,))
    E = tmodule_of(shape)
    C = TModule.carlitz_tensor(fs, n)
    same_module = E.dtheta == C.dtheta and E.taus == C.taus

    # Z_n = (a_{n-1}, ..., a_0) from H_n = sum a_i (t-theta)^i
    H = anderson_thakur(fs, n)
    jets = H.taylor_coeffs(n)
    Zn = list(reversed(jets))
    vstar = special_point(shape)
    point_matches = [-x for x in vstar] == Zn

    z = [-x for x in stark_log_eval(shape, prec=prec + 10)]
    Z = exp_eval(C, z, prec=prec)
    sc = _LaurentScalars(fs, prec + 10)
    res_exp = min_residual_valuation(
        vec_sub(Z, [sc.conv(x) for x in Zn]))

    gam = gamma_factorial(fs, n)
    ref = mzv(fs, (n,), prec=prec + gam.degree() + 2).value
    diff = z[n - 1] - gam.laurent() * ref
    res_last = diff.residual_valuation()
    passed = (same_module and point_matches
              and (res_exp is None or res_exp >= prec)
              and (res_last is None or res_last >= prec))
    return {
        "identity": "Exp_Cn(z_n) = Z_n, last coordinate Gamma_n zeta_A(n)",
        "q": fs.q,
        "n": n,
        "prec": prec,
        "module_matches_tensor_power": same_module,
        "point_matches_jets": point_matches,
        "exp_residual": res_exp,
        "last_coordinate_residual": res_last,
        "pass": passed,
    }


# ---------------------------------------------------------------------------
# the curious depth-two identity
# ---------------------------------------------------------------------------


def strange_formula_check(fs: FieldSpec, prec: int = 40, imax: int = 30) -> dict:
    """zeta_A(1, q^3-1) = (1/l_3 + 1/l_2 + theta/l_2) zeta_A(q^3)
    - (1/l_2) sum_{i>=0} theta^{q^{i+2}} / l_i^{q^3}, entirely inside K_inf;
    the series is the q^3-th power of a re-indexed Carlitz logarithm."""
    q = fs.q
    W = prec + q * q + 10
    lhs = mzv(fs, (1, q**3 - 1), prec=W).value
    z3 = mzv(fs, (q**3,), prec=W).value
    l2 = l_poly(fs, 2).laurent()
    l3 = l_poly(fs, 3).laurent()
    il2 = l2.inv(window=W)
    il3 = l3.inv(window=W)
    th = PrecisionLaurent.theta_pow(fs, 1)
    coef = il3 + il2 + th * il2
    vals = []

    def term(i):
        step = q ** (i + 2)
        li = l_poly(fs, i).laurent()
        return [li.inv(window=W + step).pow(q**3)
                * PrecisionLaurent.theta_pow(fs, step)]

    def val(t):
        vals.append(t[0].v)
        return t[0].v

    acc, = _certified_sum(term, 0, W, imax,
                          "logarithm-power series did not converge", val,
                          [PrecisionLaurent.zero(fs, N=W)])
    monotone = all(a < b for a, b in zip(vals, vals[1:]))
    rhs = coef * z3 - il2 * acc
    diff = (lhs - rhs).truncate(prec)
    res = None if diff.v is None else Fraction(diff.v)
    return {
        "identity": "zeta_A(1,q^3-1) = (1/l_3 + (1+theta)/l_2) zeta_A(q^3)"
                    " - (1/l_2) (log_C(theta^(1/q)))^(q^3)",
        "q": q,
        "prec": prec,
        "residual_valuation": res,
        "series_valuations_monotone": monotone,
        "pass": (res is None or res >= prec) and monotone,
    }


# ---------------------------------------------------------------------------
# the polylogarithm specialization (constant twisting entries)
# ---------------------------------------------------------------------------


def cm_check(fs: FieldSpec, s, u=None, prec: int = 30) -> dict:
    """Polylogarithm model: with constant twisting entries u the logarithm of
    the special point v_u has block-leading coordinate (d_1+...+d_ell) equal
    to (-1)^(r-ell) Li*_{(s_r,...,s_ell)}(u_r,...,u_ell), checked against the
    independent chain-sum series; Exp inverts the logarithm back to v_u."""
    from .motive import MotiveShape, special_point, tmodule_of

    s = tuple(s)
    r = len(s)
    if u is None:
        u = tuple(RatFunc.one(fs) for _ in s)
    else:
        u = tuple(_as_ratfunc(x) for x in u)
    shape = MotiveShape(fs, s, tuple(TPoly.const(fs, x) for x in u), "AT")
    E = tmodule_of(shape)
    v = special_point(shape)
    z = log_eval(E, list(v), prec=prec + 10)
    Z = exp_eval(E, z, prec=prec)
    sc = _LaurentScalars(fs, prec + 10)
    res_exp = min_residual_valuation(
        vec_sub(Z, [sc.conv(x) for x in v]))

    coord_res = []
    for ell in range(1, r + 1):
        sub = tuple(reversed(s[ell - 1:]))
        args = list(reversed(u[ell - 1:]))
        want = polylog(fs, sub, args, star=True, prec=prec + 4)
        if (r - ell) % 2 == 1:
            want = -want
        diff = z[shape.slot(ell, 0)] - want
        coord_res.append(diff.residual_valuation())
    passed = ((res_exp is None or res_exp >= prec)
              and all(v_ is None or v_ >= prec for v_ in coord_res))
    return {
        "identity": "Log(v_u) block coordinates are signed Li* values",
        "q": fs.q,
        "s": list(s),
        "u": [str(x) for x in u],
        "prec": prec,
        "exp_residual": res_exp,
        "coordinate_residuals": coord_res,
        "pass": passed,
    }


def carlitz_check(fs: FieldSpec, prec: int = 60) -> dict:
    """exp_C(zeta_A(1)) = 1: the zeta value from the power-sum DP feeds the
    Carlitz exponential and lands back on 1."""
    z1 = mzv(fs, (1,), prec=prec + 6).value
    C = TModule.carlitz(fs)
    Z = exp_eval(C, [z1], prec=prec)
    diff = Z[0] - PrecisionLaurent.one(fs)
    res = diff.residual_valuation()
    return {
        "identity": "exp_C(zeta_A(1)) = 1",
        "q": fs.q,
        "prec": prec,
        "residual_valuation": res,
        "pass": res is None or res >= prec,
    }
