"""Finite-place completions: valuation arithmetic at a monic irreducible
nu, the windowed nu-adic scalars, and the nu-adic multiple zeta values.

The nu-adic logarithm runs the twisted-product terms of the infinite one
(tmodule._twisted_term) over NuAdic scalars.  Its coefficients only divide
by the brackets [k] = theta^{q^k} - theta, which are squarefree with the
elements of F_{q^k} as roots, so nu (of degree f) divides [k] once when
f | k and not at all otherwise; and since the coefficients lie in F_q, a
twist x^(i) is the power x^(q^i).
"""

from __future__ import annotations

from .scalars import APoly, FieldSpec, PrecisionError, RatFunc, frozen, memo
from .tlayer import LocalJet
from .tmodule import (ScalarStrategy, _bracket_pow_jets, _certified_sum,
                      _twisted_term)

# ---------------------------------------------------------------------------
# places and nu-adic expansions
# ---------------------------------------------------------------------------


class NuPlace:
    """A finite place of K: a monic irreducible nu with residue degree
    f = deg nu; |x|_nu = q^(-f * v_nu(x))."""

    __slots__ = ("nu", "_hash")
    __setattr__ = __delattr__ = frozen

    def __init__(self, nu: APoly):
        if not nu.is_monic():
            raise ValueError("nu must be monic")
        if not nu.is_irreducible():
            raise ValueError("nu must be irreducible")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "_hash", hash((nu,)))  # memo key

    def __eq__(self, other):
        return isinstance(other, NuPlace) and self.nu == other.nu

    def __hash__(self):
        return self._hash

    @property
    def fs(self) -> FieldSpec:
        return self.nu.fs

    @property
    def f(self) -> int:
        return self.nu.degree()

    def __repr__(self):
        return f"NuPlace({self.nu!r})"


@memo
def _nu_pow(place: NuPlace, m: int) -> APoly:
    return place.nu.pow(m)


def nu_split(a: APoly, place: NuPlace):
    """(v_nu(a), a / nu^v) by galloping division: k doubles while nu^k
    divides, then halves to 1, O(log v) divisions; (None, a) for zero."""
    if a.is_zero():
        return None, a
    v, k, grow = 0, 1, True
    while k:
        divides = False
        if a.degree() >= k * place.f:
            quo, rem = divmod(a, _nu_pow(place, k))
            divides = rem.is_zero()
            if divides:
                a, v = quo, v + k
        grow = grow and divides
        k = 2 * k if grow else k // 2
    return v, a


def nu_mod(a: APoly, place: NuPlace, m: int) -> APoly:
    return a % _nu_pow(place, m)


@memo
def nu_inv(a: APoly, place: NuPlace, m: int) -> APoly:
    """Inverse of a unit modulo nu^m."""
    mod = _nu_pow(place, m)
    g, x, _y = a.ext_gcd(mod)
    if g.degree() != 0:
        raise ZeroDivisionError("element is not a unit at nu")
    return (x.scale(a.fs.inv(g.lead()))) % mod


class NuAdic:
    """x = nu^v * unit + O(nu^N), the unit prime to nu and reduced mod
    nu^(N-v); x = O(nu^N) has v = N and a zero unit, and the exact zero
    has v = N = None.  Sums, products and Frobenius twists track N, as
    PrecisionLaurent does, and never raise N - v."""

    __slots__ = ("place", "v", "unit", "N")
    __setattr__ = __delattr__ = frozen

    def __init__(self, place: NuPlace, v: int, unit: APoly, N: int):
        object.__setattr__(self, "place", place)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "N", N)

    def __eq__(self, other):
        return isinstance(other, NuAdic) and (
            self.place, self.v, self.unit, self.N) == (
            other.place, other.v, other.unit, other.N)

    def __hash__(self):  # not cached: most values are never hashed
        return hash((self.place, self.v, self.unit, self.N))

    @classmethod
    def from_unit(cls, place: NuPlace, v: int, unit: APoly, N: int) -> "NuAdic":
        """nu^v * unit + O(nu^N) for a unit of any valuation: reduced mod
        nu^(N-v) first, then split (the quotient is then reduced too)."""
        k, u = nu_split(nu_mod(unit, place, max(N - v, 0)), place)
        return cls(place, N if k is None else v + k, u, N)

    def is_zero(self) -> bool:
        """The exact zero, which a sum or product may drop."""
        return self.N is None

    def is_zero_to_prec(self) -> bool:
        return self.unit.is_zero()

    @property
    def digits(self) -> tuple:
        """Base-nu digits of the unit (each of degree < f), for reports."""
        out, u = [], self.unit
        while not u.is_zero():
            u, rem = divmod(u, self.place.nu)
            out.append(rem)
        return tuple(out)

    def __add__(self, other: "NuAdic") -> "NuAdic":
        if self.place.nu != other.place.nu:
            raise ValueError("mismatched places")
        if self.is_zero() or other.is_zero():
            return other if self.is_zero() else self
        N = min(self.N, other.N)
        lo, hi = sorted((self, other), key=lambda x: x.v)
        unit = sum((x.unit * _nu_pow(self.place, x.v - lo.v)
                    for x in (lo, hi) if x.v < N), APoly.zero(self.place.fs))
        if lo.v < min(hi.v, N):
            # a unit plus a multiple of nu is a unit: nothing to split off
            return NuAdic(self.place, lo.v,
                          nu_mod(unit, self.place, N - lo.v), N)
        return NuAdic.from_unit(self.place, min(lo.v, N), unit, N)

    def __neg__(self) -> "NuAdic":
        return NuAdic(self.place, self.v, -self.unit, self.N)

    def __sub__(self, other: "NuAdic") -> "NuAdic":
        return self + (-other)

    def __mul__(self, other: "NuAdic") -> "NuAdic":
        """A product of units is a unit; N = min(v_x + N_y, v_y + N_x)."""
        if self.is_zero() or other.is_zero():
            return self if self.is_zero() else other
        v = self.v + other.v
        N = min(self.v + other.N, other.v + self.N)
        unit = nu_mod(self.unit * other.unit, self.place, N - v)
        return NuAdic(self.place, N if unit.is_zero() else v, unit, N)

    def frobenius(self, i: int) -> "NuAdic":
        """x^(i) = x^(q^i): v scales by q^i, and the unit, i q-th powerings
        mod nu^(N-v), keeps its N - v digits."""
        if i == 0 or self.is_zero():
            return self
        Q, R, u = self.place.fs.q**i, self.N - self.v, self.unit
        for _ in range(i):
            u = nu_mod(u.frobenius(1), self.place, R)
        return NuAdic(self.place, Q * self.v, u, Q * self.v + R)

    def inv(self) -> "NuAdic":
        """1/x for x not zero to its precision, with its N - v digits."""
        R = self.N - self.v
        return NuAdic(self.place, -self.v, nu_inv(self.unit, self.place, R),
                      R - self.v)

    def eq_to_prec(self, other: "NuAdic", K: int) -> bool:
        d = self - other
        return d.is_zero_to_prec() or d.v >= K

    def to_dict(self):
        return {
            "nu": list(self.place.nu.coeffs),
            "v": self.v,
            "digits": [list(d.coeffs) for d in self.digits],
            "prec": self.N,
            "normalization": "|x|_nu = q^(-f*v)",
        }

    def __repr__(self):
        if self.is_zero():
            return "0"
        if self.is_zero_to_prec():
            return f"O(nu^{self.N})"
        parts = [f"({d!r})*nu^{self.v + i}"
                 for i, d in enumerate(self.digits) if not d.is_zero()]
        return " + ".join(parts) + f" + O(nu^{self.N})"


class _NuAdicScalars(ScalarStrategy):
    """NuAdic scalars at one place, the nu-adic twin of _LaurentScalars:
    `conv` reduces an element of A mod nu^window and `inv_bracket` keeps
    `window` digits past its leading one; the arithmetic tracks N."""

    def __init__(self, place: NuPlace, window: int):
        self.place = place
        self.fs = place.fs
        self.window = window
        self.zero = NuAdic(place, None, APoly.zero(place.fs), None)
        self.one = self.conv(APoly.one(place.fs))
        self.key = ("nu-adic", place, window)

    def conv(self, c) -> NuAdic:
        """An element of A, or a polynomial element of K, mod nu^window;
        an exact zero stays exact."""
        if isinstance(c, RatFunc):
            if not c.is_poly():
                raise ValueError("nu-adic scalars embed integral elements")
            c = c.num
        if c.is_zero():
            return self.zero
        return NuAdic.from_unit(self.place, 0, c, self.window)

    def inv_bracket(self, k: int) -> NuAdic:
        """1/[k] with `window` digits: [k] = theta^(q^k) - theta has
        valuation e = [f | k], so theta is taken to window + e digits."""
        e = 1 if k % self.place.f == 0 else 0
        th = NuAdic.from_unit(self.place, 0, APoly.theta(self.fs),
                              self.window + e)
        return (th.frobenius(k) - th).inv()


# ---------------------------------------------------------------------------
# nu-adic logarithm evaluation
# ---------------------------------------------------------------------------


def a_nu(shape, place: NuPlace) -> APoly:
    """(nu^{d_1} - 1) ... (nu^{d_r} - 1); a nu-adic unit that contracts the
    special point into the open unit ball."""
    fs = shape.fs
    out = APoly.one(fs)
    for d in shape.block_dims:
        out = out * (_nu_pow(place, d) - APoly.one(fs))
    return out


@memo
def _nu_log_term(shape, sc: _NuAdicScalars, Z: tuple, i: int) -> tuple:
    """Term i of the nu-adic logarithm of Z: delta_0 of the i-fold twisted
    transition product applied to the i-twisted point, in the scalars sc
    (one entry per (shape, sc, Z, i), shared by every K reaching it)."""
    dims = shape.block_dims
    D = max(dims)
    pows = _bracket_pow_jets(sc, i, D)
    jets = []
    for ell, dl in enumerate(dims, start=1):
        jet = LocalJet.zero_jet(D, sc.zero)
        for j in range(dl):
            c = Z[shape.slot(ell, j)]
            if not c.is_zero():
                jet = jet + pows[j].scale(c.frobenius(i))
        jets.append(None if jet.is_zero() else jet)
    return tuple(_twisted_term(shape, i, sc, D, jets))


def nu_log_eval(shape, sc: _NuAdicScalars, Z, K: int, max_terms: int = 40):
    """Log of a point Z of NuAdic coordinates with |Z|_nu < 1, summed from
    the terms of _nu_log_term.  Returns (coordinate vector of NuAdic,
    diagnostics).  Term i is certified to c_i = max(K, q^i v(Z) -
    i(3d_1 - 1)), the most its stop test and bound test read: its tracked N
    must reach c_i (PrecisionError otherwise), and its valuation is
    reported as min(v_i, c_i), c_i for an exact zero."""
    q, d1 = shape.fs.q, shape.block_dims[0]
    vZ = min((x.v for x in Z if not x.is_zero_to_prec()), default=None)
    if vZ is None:
        return list(Z), {"terms": 0, "bound_ok": True}
    if vZ < 1:
        raise ValueError("point is not inside the nu-adic unit ball")

    diag = {"terms": 0, "term_valuations": [], "bound_ok": True}
    vals = diag["term_valuations"]

    def term(i):
        t = _nu_log_term(shape, sc, Z, i)
        bound = q**i * vZ - i * (3 * d1 - 1)
        c = max(K, bound)
        live = [x for x in t if not x.is_zero()]
        if min((x.N for x in live), default=c) < c:
            raise PrecisionError(f"nu-adic logarithm term {i} falls short "
                                 f"of nu^{c}")
        v = min([c] + [x.v for x in live])
        vals.append(v)
        if v < bound:
            diag["bound_ok"] = False
        return t

    # i = 0: the identity coefficient
    acc = _certified_sum(
        term, 1, K, max_terms,
        f"nu-adic logarithm did not certify precision {K} within "
        f"{max_terms} terms", lambda t: vals[-1], list(Z))
    diag["terms"] = len(vals) + 1
    return acc, diag


@memo
def _shape_action(shape):
    """The induced t-module of a shape and its special point: one entry
    per shape, shared by every place and precision (tmodule_of itself keeps
    no memo, since most shapes that reach it never repeat)."""
    from .motive import special_point, tmodule_of

    return tmodule_of(shape), tuple(special_point(shape))


@memo
def _contracted_point(shape, sc: _NuAdicScalars, a: APoly) -> tuple:
    """Z = E_a(v) for the special point v, in the scalars sc: one entry per
    (shape, sc, a), shared by every K whose window is sc's."""
    E, point = _shape_action(shape)
    return tuple(E.act(a, [sc.conv(x) for x in point], conv=sc.conv))


def zeta_nu(fs: FieldSpec, index, place: NuPlace, K: int = 8, a: APoly = None,
            max_terms: int = 40):
    """nu-adic MZV: -(1/a) times the d_1-th coordinate of Log(E_a(v)) for
    the weak-model module of the reversed tuple; a defaults to the canonical
    contraction and the value is independent of the choice.

    The value carries the Carlitz factorial of every entry: at depth one
    it is Gamma_s nu^s/(nu^s - 1) sum_a a^(-s), the sum over the monic a
    prime to nu, read nu-adically (Gamma_s = tlayer.gamma_factorial, and
    nu^s/(nu^s - 1) the Euler factor at nu).  At depth r >= 2 it is the
    same coordinate of the logarithm and carries Gamma_{s_1}...Gamma_{s_r}:
    divided by that product it satisfies the harmonic product of the
    inf-adic values (tests/test_relations.py); no sum over monics checks it.

    E_a(v) and the logarithm run in _NuAdicScalars, and the value is cut
    to nu^K once its tracked N reaches K (PrecisionError otherwise)."""
    from .motive import star_shape

    index = tuple(index)
    shape = star_shape(fs, tuple(reversed(index)))
    if a is None:
        a = a_nu(shape, place)
    va, au = nu_split(a, place)
    Kp, D = K + va + 2, shape.block_dims[0]
    # The window: a summand of term i is Z_j^(i) (Z_j known to nu^W) times
    # elements of A and brackets known to W digits past their leading one,
    # and the pole jets, D - 1 orders deep (D = d_1, the largest block),
    # give the brackets a valuation >= 1 - (i + 1) D.  So term i is known
    # to nu^((q^i - 1) v(Z) + W + 1 - (i + 1) D): both parts of c_i once
    # W >= K' + (i + 1) D - q^i, as v(Z) >= 1.  Multiples of 16 let
    # requests at nearby K share their terms.
    W = Kp + max([0] + [(i + 1) * D - fs.q**i for i in range(1, D + 2)])
    W = -(-W // 16) * 16
    sc = _NuAdicScalars(place, W)
    coords, diag = nu_log_eval(shape, sc, _contracted_point(shape, sc, a),
                               Kp, max_terms)
    # O(nu^W) turns an exact zero into one known to the window
    val = -(coords[shape.slot(1, 0)] + NuAdic(place, W, APoly.zero(fs), W))
    if val.N - va < K:
        raise PrecisionError(f"nu-adic value known to nu^{val.N - va}, "
                             f"below nu^{K}")
    # divide by a: shift the valuation and multiply by the unit inverse
    mm = max(K - (val.v - va), 1)
    return NuAdic.from_unit(place, val.v - va,
                            val.unit * nu_inv(au, place, mm), K), diag


def zeta_nu_check(fs: FieldSpec, index, place: NuPlace, K: int = 8) -> dict:
    """Independence of the contraction element: a and nu*a must give the
    same nu-adic value."""
    shape_s = tuple(reversed(tuple(index)))
    from .motive import star_shape
    base = a_nu(star_shape(fs, shape_s), place)
    v1, d1 = zeta_nu(fs, index, place, K=K)
    v2, d2 = zeta_nu(fs, index, place, K=K, a=base * place.nu)
    agree = v1.eq_to_prec(v2, K)
    return {
        "identity": "zeta_nu independent of the contraction element",
        "q": fs.q,
        "s": list(index),
        "nu": list(place.nu.coeffs),
        "nu_prec": K,
        "normalization": "|x|_nu = q^(-f*v)",
        "terms": [d1["terms"], d2["terms"]],
        "bound_ok": d1["bound_ok"] and d2["bound_ok"],
        "agree": agree,
        "value": v1.to_dict(),
        "pass": agree and d1["bound_ok"] and d2["bound_ok"],
    }
