"""Finite-place completions: valuation arithmetic at a monic irreducible
nu, the factored-denominator subring used to evaluate logarithm coefficients
exactly over K, and the nu-adic multiple zeta values.

The logarithm coefficients of the weak-model t-module only ever divide by
the bracket polynomials [k] = theta^{q^k} - theta, so every coefficient
lives in the subring { f / prod_k [k]^{e_k} : f in A }.  Since [k] is
squarefree and its roots are the elements of F_{q^k}, the place nu of
residue degree f divides [k] exactly once when f | k and not at all
otherwise, which makes the nu-adic valuation of the factored denominator
exact bookkeeping rather than arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import APoly, FieldSpec, RatFunc, memo
from .tlayer import LocalJet, bracket
from .tmodule import (ScalarStrategy, _bracket_pow_jets, _certified_sum,
                      _twisted_term)

# ---------------------------------------------------------------------------
# places and nu-adic expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NuPlace:
    """A finite place of K: a monic irreducible nu with residue degree
    f = deg nu; |x|_nu = q^(-f * v_nu(x))."""

    nu: APoly

    def __post_init__(self):
        if not self.nu.is_monic():
            raise ValueError("nu must be monic")
        if not self.nu.is_irreducible():
            raise ValueError("nu must be irreducible")

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


def nu_valuation(a: APoly, place: NuPlace):
    """v_nu(a); None for the zero polynomial."""
    return nu_split(a, place)[0]


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


@dataclass(frozen=True)
class NuAdic:
    """x = nu^v * unit + O(nu^N), the unit prime to nu and reduced mod
    nu^(N-v); x = O(nu^N) has v = N and a zero unit."""

    place: NuPlace
    v: int
    unit: APoly
    N: int

    @classmethod
    def from_unit(cls, place: NuPlace, v: int, unit: APoly, N: int) -> "NuAdic":
        """nu^v * unit + O(nu^N) for a unit of any valuation: reduced mod
        nu^(N-v) first, then split (the quotient is then reduced too)."""
        k, u = nu_split(nu_mod(unit, place, max(N - v, 0)), place)
        return cls(place, N if k is None else v + k, u, N)

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

    def __sub__(self, other: "NuAdic") -> "NuAdic":
        if self.place.nu != other.place.nu:
            raise ValueError("mismatched places")
        N = min(self.N, other.N)
        vmin = min(self.v, other.v, N)

        def lift(x):
            return x.unit * _nu_pow(self.place, x.v - vmin)

        return NuAdic.from_unit(self.place, vmin, lift(self) - lift(other), N)

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
        if self.is_zero_to_prec():
            return f"O(nu^{self.N})"
        parts = [f"({d!r})*nu^{self.v + i}"
                 for i, d in enumerate(self.digits) if not d.is_zero()]
        return " + ".join(parts) + f" + O(nu^{self.N})"


# ---------------------------------------------------------------------------
# the factored-denominator subring
# ---------------------------------------------------------------------------


class FactoredScalar:
    """f / prod_k [k]^{e_k} with f in A and [k] = theta^{q^k} - theta.  The
    denominator is the sorted tuple of its pairs (k, e_k), so a scalar that
    memo entries share cannot change in place."""

    __slots__ = ("fs", "num", "den")

    def __init__(self, fs: FieldSpec, num: APoly, den=()):
        self.fs = fs
        self.num = num
        self.den = (tuple(sorted(dict(den).items()))
                    if den and not num.is_zero() else ())

    def is_zero(self):
        return self.num.is_zero()

    def _scale_to(self, den: dict):
        own = dict(self.den)
        out = self.num
        for k, e in den.items():
            extra = e - own.get(k, 0)
            if extra:
                out = out * bracket(self.fs, k).pow(extra)
        return out

    def __add__(self, other):
        den = dict(self.den)
        for k, e in other.den:
            den[k] = max(den.get(k, 0), e)
        return FactoredScalar(self.fs, self._scale_to(den)
                              + other._scale_to(den), den)

    def __neg__(self):
        return FactoredScalar(self.fs, -self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, APoly):
            other = FactoredScalar(self.fs, other)
        den = dict(self.den)
        for k, e in other.den:
            den[k] = den.get(k, 0) + e
        return FactoredScalar(self.fs, self.num * other.num, den)

    def den_valuation(self, place: NuPlace) -> int:
        """v_nu of the denominator product: [k] picks up nu exactly once
        when f | k."""
        return sum(e for k, e in self.den if k % place.f == 0)

    def nu_valuation(self, place: NuPlace):
        if self.is_zero():
            return None
        return nu_valuation(self.num, place) - self.den_valuation(place)

    def to_nuadic(self, place: NuPlace, prec: int) -> NuAdic:
        """One inverse mod nu^m, of the product of the bracket factors."""
        vd = self.den_valuation(place)
        m = max(prec + vd, 1)
        unit = nu_mod(self.num, place, m) * _den_inv(place, self.den, m)
        return NuAdic.from_unit(place, -vd, unit, prec)

    def __repr__(self):
        if not self.den:
            return repr(self.num)
        den = "*".join(f"[{k}]^{e}" for k, e in self.den)
        return f"({self.num!r})/({den})"


@memo
def _den_inv(place: NuPlace, den: tuple, m: int) -> APoly:
    """Inverse mod nu^m of the unit prod_k ([k] / nu^[f | k])^{e_k}, for a
    FactoredScalar denominator den = ((k, e_k), ...)."""
    fs = place.fs
    mod = _nu_pow(place, m)
    out = APoly.one(fs)
    for k, e in den:
        b = bracket(fs, k)
        if k % place.f == 0:
            b = b // place.nu
        out = out * b.pow(e, mod) % mod
    return nu_inv(out, place, m)


class FactoredRing(ScalarStrategy):
    """Scalar strategy over FactoredScalar, for the closed-form logarithm
    coefficients: conversion accepts polynomial elements only, and 1/[k]
    is pure denominator bookkeeping."""

    def __init__(self, fs: FieldSpec):
        self.fs = fs
        self.zero = FactoredScalar(fs, APoly.zero(fs))
        self.one = FactoredScalar(fs, APoly.one(fs))
        self.key = ("factored", fs)

    def conv(self, c: RatFunc) -> FactoredScalar:
        if isinstance(c, APoly):
            return FactoredScalar(self.fs, c)
        if not c.is_poly():
            raise ValueError("factored scalars only embed polynomials")
        return FactoredScalar(self.fs, c.num)

    def inv_bracket(self, k: int) -> FactoredScalar:
        return FactoredScalar(self.fs, APoly.one(self.fs), ((k, 1),))


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


def _as_apoly(x) -> APoly:
    """An integral element of K as a polynomial."""
    if isinstance(x, APoly):
        return x
    if not x.is_poly():
        raise ValueError("the nu-adic action needs integral coordinates")
    return x.num


@memo
def _nu_log_term(shape, place: NuPlace, Z: tuple, i: int):
    """Term i of the nu-adic logarithm of Z over the factored subring, with
    its nu-valuation (None for a zero term): delta_0 of the i-fold twisted
    transition product applied to the i-twisted point.  One entry per
    (shape, place, Z, i), which every precision reaching term i shares."""
    ring = FactoredRing(shape.fs)
    dims = shape.block_dims
    D = max(dims)
    pows = _bracket_pow_jets(ring, i, D)
    jets = []
    for ell, dl in enumerate(dims, start=1):
        jet = LocalJet.zero_jet(D, ring.zero)
        for j in range(dl):
            c = Z[shape.slot(ell, j)]
            if not c.is_zero():
                jet = jet + pows[j].scale(ring.conv(c.frobenius(i)))
        jets.append(None if jet.is_zero() else jet)
    t = tuple(_twisted_term(shape, i, ring, D, jets))
    return t, min((x.nu_valuation(place) for x in t if not x.is_zero()),
                  default=None)


def nu_log_eval(shape, place: NuPlace, Z, K: int, max_terms: int = 40):
    """Log of a point with |Z|_nu < 1, summed from the terms of
    _nu_log_term.  Returns (coordinate vector of FactoredScalar,
    diagnostics)."""
    q = shape.fs.q
    d1 = shape.block_dims[0]
    ring = FactoredRing(shape.fs)

    Z = tuple(_as_apoly(x) for x in Z)
    vZ = min((nu_valuation(x, place) for x in Z if not x.is_zero()),
             default=None)
    if vZ is None:
        return [ring.zero] * shape.dim, {"terms": 0, "bound_ok": True}
    if vZ < 1:
        raise ValueError("point is not inside the nu-adic unit ball")

    diag = {"terms": 0, "term_valuations": [], "bound_ok": True}
    vals = diag["term_valuations"]

    def term(i):
        t, v = _nu_log_term(shape, place, Z, i)
        vals.append(v)
        if v is not None and v < q**i * vZ - i * (3 * d1 - 1):
            diag["bound_ok"] = False
        return t

    # i = 0: the identity coefficient
    acc = _certified_sum(
        term, 1, K, max_terms,
        f"nu-adic logarithm did not certify precision {K} within "
        f"{max_terms} terms", lambda t: vals[-1], [ring.conv(x) for x in Z])
    diag["terms"] = len(vals) + 1
    return acc, diag


@memo
def _shape_action(shape):
    """The induced t-module of a shape and its special point in A: one entry
    per shape, shared by every place and precision (tmodule_of itself keeps
    no memo, since most shapes that reach it never repeat)."""
    from .motive import special_point, tmodule_of

    return tmodule_of(shape), tuple(_as_apoly(x) for x in special_point(shape))


def zeta_nu(fs: FieldSpec, index, place: NuPlace, K: int = 8, a: APoly = None,
            max_terms: int = 40):
    """nu-adic MZV: -(1/a) times the d_1-th coordinate of Log(E_a(v)) for
    the weak-model module of the reversed tuple; a defaults to the canonical
    contraction and the value is independent of the choice."""
    from .motive import star_shape

    index = tuple(index)
    shape = star_shape(fs, tuple(reversed(index)))
    E, point = _shape_action(shape)
    if a is None:
        a = a_nu(shape, place)
    va, au = nu_split(a, place)
    d1 = shape.block_dims[0]
    # working modulus: survives the denominator valuations of every term
    m = K + va + 2 + 12 * (3 * d1 - 1) + 5
    Z = E.act(a, point, conv=_as_apoly, red=lambda x: nu_mod(x, place, m))
    coords, diag = nu_log_eval(shape, place, Z, K + va + 2,
                               max_terms=max_terms)
    val = (-coords[shape.slot(1, 0)]).to_nuadic(place, K + va + 1)
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
