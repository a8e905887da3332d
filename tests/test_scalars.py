"""Field tower and exact polynomial / truncated Laurent arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (fraction_equal, fraction_product, fraction_sum,
                       monic_enumerate)
from tmzv.scalars import APoly, FieldSpec, PrecisionLaurent, RatFunc, field
from tmzv.tlayer import TateTrunc


def fq2():
    return field(2)


def fq3():
    return field(3)


def fq4():
    return field(2, 2)


FIELDS = [fq2, fq3, fq4]


def apolys(fs, max_deg=5):
    elt = st.integers(min_value=0, max_value=fs.q - 1)
    return st.lists(elt, min_size=0, max_size=max_deg + 1).map(
        lambda cs: APoly(fs, tuple(cs)))


def generic_divmod(a, b):
    """Schoolbook division through the field's add and mul, for any q."""
    fs = a.fs
    rem = list(a.coeffs)
    db = b.degree()
    ilead = fs.inv(b.lead())
    quo = [0] * max(0, len(rem) - db)
    while len(rem) - 1 >= db and rem:
        c = fs.mul(rem[-1], ilead)
        shift = len(rem) - 1 - db
        quo[shift] = c
        for j, x in enumerate(b.coeffs, shift):
            rem[j] = fs.add(rem[j], fs.mul(c, fs.neg(x)))
        while rem and rem[-1] == 0:
            rem.pop()
    return APoly(fs, quo), APoly(fs, rem)


class TestField:
    def test_prime_fields(self):
        assert fq2().q == 2
        assert fq3().q == 3

    def test_extension_field(self):
        fs = fq4()
        assert fs.q == 4 and fs.p == 2 and fs.m == 2

    def test_nonprime_base_rejected(self):
        with pytest.raises(ValueError):
            field(4)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            field(6)


class TestAPoly:
    @pytest.mark.parametrize("make", FIELDS)
    def test_ring_axioms_smoke(self, make):
        fs = make()
        t = APoly.monomial(fs, 1)
        one = APoly.one(fs)
        assert (t + one) * (t + one) == t * t + (one + one) * t + one

    # sum and negation against the coefficient formulas in the field's own
    # add and neg, over F_2 (where -a = a), F_3 and F_9
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_add_and_neg_match_coefficient_formulas(self, data):
        fs = data.draw(st.sampled_from([field(2), field(3), field(3, 2)]))
        a, b = data.draw(apolys(fs, 8)), data.draw(apolys(fs, 8))
        n = max(len(a.coeffs), len(b.coeffs))
        assert a + b == APoly(fs, [fs.add(a[i], b[i]) for i in range(n)])
        assert -a == APoly(fs, [fs.neg(a[i]) for i in range(len(a.coeffs))])
        assert a - b == APoly(fs, [fs.sub(a[i], b[i]) for i in range(n)])
        assert (a + b).coeffs[-1:] != (0,) and (-a).coeffs[-1:] != (0,)

    def test_divmod(self):
        fs = fq3()
        a = APoly(fs, (1, 2, 0, 1))
        b = APoly(fs, (2, 1))
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree() < b.degree()

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_divmod_random(self, data):
        # prime fields take the integer loop mod p, extension fields the
        # fs.add / fs.mul loop; both against the generic loop, with divisors
        # of any nonzero leading coefficient
        fs = data.draw(st.sampled_from([field(2), field(3), field(5),
                                        field(2, 2), field(3, 2)]))
        a = data.draw(apolys(fs, max_deg=12))
        b = data.draw(apolys(fs))
        b = APoly(fs, b.coeffs + (data.draw(st.integers(1, fs.q - 1)),))
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.is_zero() or rem.degree() < b.degree()
        assert (quo, rem) == generic_divmod(a, b)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ext_gcd_bezout(self, data):
        fs = fq2()
        a = data.draw(apolys(fs))
        b = data.draw(apolys(fs))
        if a.is_zero() and b.is_zero():
            return
        g, x, y = a.ext_gcd(b)
        assert x * a + y * b == g
        assert (a % g).is_zero() and (b % g).is_zero()

    @pytest.mark.parametrize("make", FIELDS)
    def test_frobenius_is_additive(self, make):
        fs = make()
        a = APoly(fs, tuple(range(min(fs.q, 3))) + (1,))
        b = APoly.theta(fs) + APoly.one(fs)
        assert (a + b).frobenius(1) == a.frobenius(1) + b.frobenius(1)
        assert (a * b).frobenius(1) == a.frobenius(1) * b.frobenius(1)

    def test_frobenius_power(self):
        fs = fq3()
        th = APoly.theta(fs)
        assert th.frobenius(2) == th.pow(9)

    def test_monic_enumerate_count(self):
        fs = fq3()
        assert len(list(monic_enumerate(fs, 2))) == 9
        assert all(a.is_monic() and a.degree() == 2
                   for a in monic_enumerate(fs, 2))


class TestRatFunc:
    def test_inverse(self):
        fs = fq2()
        x = RatFunc.theta(fs) + RatFunc.one(fs)
        assert (x * x.inv()) == RatFunc.one(fs)

    def test_laurent_agrees_with_poly(self):
        fs = fq3()
        a = APoly(fs, (1, 0, 2))
        assert RatFunc.from_apoly(a).laurent(20) == a.laurent(20)

    def test_laurent_of_a_fraction_needs_a_precision(self):
        # 1/(theta + 1) has an infinite expansion: no precision, no series;
        # 1/theta^2 is an exact monomial and stays exact
        fs = fq3()
        th, one = APoly.theta(fs), APoly.one(fs)
        x = RatFunc(one, th + one)
        with pytest.raises(ValueError):
            x.laurent()
        y = x.laurent(20)
        assert y.v == 1 and y.N is not None
        assert (y * (th + one).laurent(20)
                - PrecisionLaurent.one(fs)).is_zero_to_prec()
        z = RatFunc(one, th * th).laurent()
        assert (z.v, z.coeffs, z.N) == (2, (fs.one,), None)

    @pytest.mark.parametrize("make", FIELDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_frobenius_stays_reduced(self, make, data):
        # f(theta^{q^i}) = f^{q^i}: the twist of a reduced fraction needs no
        # gcd, and its denominator stays monic
        fs = make()
        den = data.draw(apolys(fs, 4))
        if den.is_zero():
            return
        x = RatFunc(data.draw(apolys(fs, 4)), den)
        i = data.draw(st.integers(min_value=1, max_value=2))
        got = x.frobenius(i)
        want = RatFunc(x.num.frobenius(i), x.den.frobenius(i))
        assert (got.num, got.den) == (want.num, want.den)


def ratfuncs(fs):
    """Polynomials and proper fractions of K, half each."""
    dens = apolys(fs, 3).filter(lambda d: not d.is_zero())
    return st.tuples(apolys(fs, 4), st.booleans(), dens).map(
        lambda t: RatFunc(t[0], t[2]) if t[1] else RatFunc(t[0]))


class TestRatFuncArithmetic:
    # polynomial operands skip the gcd and equality compares (num, den);
    # both must agree with the fraction formulas on every mix of operands
    @pytest.mark.parametrize("make", FIELDS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_formulas(self, make, data):
        fs = make()
        a, b = data.draw(ratfuncs(fs)), data.draw(ratfuncs(fs))
        for got, want in ((a + b, fraction_sum(a, b)),
                          (a - b, fraction_sum(a, b, negate=True)),
                          (a * b, fraction_product(a, b))):
            assert (got.num, got.den) == (want.num, want.den)
            assert got.den.is_monic()
        assert (a == b) == fraction_equal(a, b)
        assert a - a == RatFunc.zero(fs)

    @pytest.mark.parametrize("make", FIELDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equal_values_compare_and_hash_equal(self, make, data):
        # the same element built from an unreduced fraction
        fs = make()
        a = data.draw(ratfuncs(fs))
        c = data.draw(apolys(fs, 2).filter(lambda d: not d.is_zero()))
        b = RatFunc(a.num * c, a.den * c)
        assert a == b and hash(a) == hash(b) and fraction_equal(a, b)
        assert (a == b + RatFunc.one(fs)) is False


class TestFieldIdentity:
    # field() is memoised and FieldSpec.__eq__ returns at once on identity;
    # a field built directly must still be equal to it
    @pytest.mark.parametrize("args", [(3,), (2, 2), (3, 2)])
    def test_direct_field_equals_memoised_one(self, args):
        direct, memo = FieldSpec(*args), field(*args)
        assert direct is not memo
        assert direct == memo and hash(direct) == hash(memo)
        x = PrecisionLaurent.one(direct) + PrecisionLaurent.one(memo)
        assert x == PrecisionLaurent(memo, 0, (2 % memo.p,))

    def test_mismatched_fields_or_ram_raise(self):
        f3, f9 = field(3), field(3, 2)
        one = PrecisionLaurent.one
        for a, b in ((one(f3), one(field(5))), (one(f3), one(f9)),
                     (one(f3), one(f3, ram=2))):
            for op in (lambda: a + b, lambda: a - b, lambda: a * b):
                with pytest.raises(ValueError):
                    op()
        for a, b in ((TateTrunc.one(f3, 2), TateTrunc.one(f9, 2)),
                     (TateTrunc.one(f3, 2), TateTrunc.one(f3, 2, ram=2))):
            for op in (lambda: a + b, lambda: a - b, lambda: a * b):
                with pytest.raises(ValueError):
                    op()


class TestPrecisionLaurent:
    def test_mul_precision_is_relative(self):
        fs = fq2()
        a = APoly.theta(fs).laurent(10)      # v=-1, N=10
        b = APoly.theta(fs).laurent(10)
        c = a * b
        assert c.v == -2
        assert Fraction(c.N - c.v, 1) <= Fraction(a.N - a.v + b.N - b.v, 1)

    def test_inverse_roundtrip(self):
        fs = fq3()
        x = (APoly.theta(fs) + APoly.one(fs)).laurent(30)
        y = x.inv(window=30) * x - PrecisionLaurent.one(fs)
        assert y.is_zero_to_prec()

    def test_inverse_of_exact_series_states_its_window(self):
        fs = fq3()
        x = (APoly.theta(fs) + APoly.one(fs)).laurent()
        with pytest.raises(ValueError):
            x.inv()
        y = x.inv(window=12)
        assert (y.v, y.N) == (1, 1 + 12)  # N = -v + W
        assert (x * y - PrecisionLaurent.one(fs)).is_zero_to_prec()
        m = APoly.monomial(fs, 3, 2).laurent()
        assert m.inv() == PrecisionLaurent(fs, 3, (fs.inv(2),))

    def test_frobenius_scales_support(self):
        fs = fq2()
        x = APoly(fs, (1, 1)).laurent(12)
        y = x.frobenius(1)
        assert y == (APoly(fs, (1, 1)) * APoly(fs, (1, 1))).laurent(y.N)

    def test_inverse_frobenius_precision(self):
        fs = fq3()
        x = APoly.theta(fs).pow(3).laurent(30)
        y = x.frobenius(-1)
        assert y.v == -1
        assert y.N == 10  # ceil(30/3)

    def test_inverse_frobenius_needs_divisible_support(self):
        fs = fq2()
        x = (APoly.theta(fs) + APoly.one(fs)).laurent(10)
        with pytest.raises(ValueError):
            x.frobenius(-1)

    def test_embed_ram_preserves_value(self):
        fs = fq3()
        x = APoly(fs, (2, 1)).laurent(15)
        y = x.embed_ram()
        assert y.ram == fs.q - 1
        assert Fraction(y.v, y.ram) == Fraction(x.v, x.ram)

    def test_serialization_roundtrip(self):
        fs = fq4()
        x = APoly(fs, (3, 1, 2)).laurent(9)
        assert PrecisionLaurent.from_dict(x.to_dict()) == x

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_add_associative_to_window(self, data):
        fs = fq2()
        xs = [data.draw(apolys(fs)).laurent(25) for _ in range(3)]
        d = (xs[0] + xs[1]) + xs[2] - (xs[0] + (xs[1] + xs[2]))
        assert d.is_zero_to_prec()

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_mul_inverse_to_window(self, data):
        fs = fq3()
        a = data.draw(apolys(fs))
        if a.is_zero():
            return
        x = a.laurent(25)
        d = x * x.inv(window=25) - PrecisionLaurent.one(fs)
        assert d.is_zero_to_prec()
