"""The harmonic product of depth-one values as a certificate at depth two,
at infinity (mzv) and at a finite place nu (zeta_nu):

    zeta(a) zeta(b) = zeta(a+b) + zeta(a,b) + zeta(b,a)
                      + sum_{0<j<a+b} Delta_j zeta(a+b-j, j),

with Chen's coefficients Delta_j (reference.chen_delta).  The nu-adic
values satisfy the relations of the infinity-adic ones (Chang-Mishiba,
Invent. Math., 2021) once zeta_nu(s) is divided by Gamma_{s_1}...Gamma_{s_r}.
Each case also asserts that at least two of its terms are nonzero below the
precision checked, so the relation is not met by zeros alone."""

import pytest

from reference import chen_delta, nu_reduce
from tmzv.scalars import APoly, PrecisionLaurent, RatFunc, field
from tmzv.tlayer import gamma_factorial
from tmzv.vadic import NuPlace, zeta_nu
from tmzv.zeta import mzv

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}


def harmonic_terms(q, a, b, value, const):
    """The side zeta(a) zeta(b) and the terms of the other, each Delta_j
    term with its coefficient as const(Delta_j)."""
    terms = [value((a + b,)), value((a, b)), value((b, a))]
    for j in range(1, a + b):
        d = chen_delta(q, a, b, j)
        if d:
            terms.append(value((a + b - j, j)) * const(d))
    return value((a,)) * value((b,)), terms


PAIRS = [(a, b) for a in range(1, 5) for b in range(1, 5)]


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_mzv_harmonic_product(q):
    fs = field(*FIELDS[q])
    prec = 60

    def value(s):
        return mzv(fs, s, prec=prec).value

    def const(d):
        return PrecisionLaurent(fs, 0, (fs.from_int(d),))

    for a, b in PAIRS:
        lhs, terms = harmonic_terms(q, a, b, value, const)
        diff = lhs
        for t in terms:
            diff = diff - t
        assert diff.v is None and diff.N >= prec, (a, b, diff)
        live = [t for t in [lhs] + terms if t.v is not None and t.v < prec]
        assert len(live) >= 2, (a, b)


# (q, nu, pairs) at three places; q = 2, nu = theta^2 + theta + 1, where
# depth-one values vanish to nu^8, is left out
NU_CASES = [
    (3, (0, 1), [(1, 1), (2, 3), (1, 4), (3, 3), (2, 4), (1, 5)]),
    (5, (2, 1), [(1, 1), (2, 3), (1, 5), (3, 4), (2, 6)]),
    (4, (0, 1), [(1, 3), (2, 3), (4, 1), (2, 5)]),
]
NU_PREC = 16


@pytest.mark.parametrize("q,nu,pair", [(q, nu, pair) for q, nu, pairs in
                                       NU_CASES for pair in pairs], ids=str)
def test_zeta_nu_harmonic_product(q, nu, pair):
    fs = field(*FIELDS[q])
    place = NuPlace(APoly(fs, nu))
    K = NU_PREC

    def value(s):
        gam = APoly.one(fs)
        for si in s:
            gam = gam * gamma_factorial(fs, si)
        z, _diag = zeta_nu(fs, s, place, K=K)
        return z * nu_reduce(RatFunc(APoly.one(fs), gam), place, K)

    def const(d):
        return nu_reduce(APoly(fs, (fs.from_int(d),)), place, K)

    a, b = pair
    lhs, terms = harmonic_terms(q, a, b, value, const)
    diff = lhs
    for t in terms:
        diff = diff - t
    # zero to its tracked precision, which the Gamma division and the
    # products leave at nu^15 or nu^16 in every case here
    assert diff.is_zero_to_prec() and diff.N >= K - 1, diff
    live = [t for t in [lhs] + terms
            if not t.is_zero_to_prec() and t.v < diff.N]
    assert len(live) >= 2
