"""t-polynomials, Tate truncations, jets, and the classical quantities."""

import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import anderson_thakur_closed, t_minus_theta
from tmzv.scalars import (APoly, PrecisionLaurent, RatFunc, _row_add, field,
                          min_residual_valuation)
from tmzv.tlayer import (LocalJet, TPoly, TateTrunc, _is_exact_zero,
                         anderson_thakur, bracket, d_poly, gamma_factorial,
                         l_poly, omega, omega_jet)
from tmzv.tmodule import _ExactScalars
from tmzv.zeta import _ll_inv_tate


class TestClassicalQuantities:
    @pytest.mark.parametrize("q,args", [(2, ()), (3, ()), (2, (2,))])
    def test_bracket(self, q, args):
        fs = field(q, *args) if args else field(q)
        th = APoly.theta(fs)
        for k in range(1, 4):
            assert bracket(fs, k) == th.frobenius(k) - th

    def test_d_and_l_recursions(self):
        fs = field(3)
        for k in range(1, 4):
            assert d_poly(fs, k) == bracket(fs, k) * d_poly(fs, k - 1).pow(fs.q)
            assert l_poly(fs, k) == -bracket(fs, k) * l_poly(fs, k - 1)

    def test_gamma_small(self):
        fs = field(2)
        assert gamma_factorial(fs, 1) == APoly.one(fs)
        assert gamma_factorial(fs, 2) == APoly.one(fs)
        assert gamma_factorial(fs, 3) == d_poly(fs, 1)


class TestAndersonThakur:
    @pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (2, 2)])
    def test_small_values(self, q, m):
        fs = field(q, m)
        for n in range(1, fs.q + 1):
            assert anderson_thakur(fs, n) == TPoly.one(fs)

    @pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (2, 2)])
    def test_closed_form_window(self, q, m):
        fs = field(q, m)
        for n in range(fs.q + 1, fs.q * fs.q + 1):
            assert anderson_thakur(fs, n) == anderson_thakur_closed(fs, n)

    @pytest.mark.parametrize("q,m", [(2, 1), (3, 1)])
    def test_norm_bound(self, q, m):
        fs = field(q, m)
        for n in range(1, fs.q * fs.q + 1):
            H = anderson_thakur(fs, n)
            assert H.gauss_norm_exp() < Fraction(n * fs.q, fs.q - 1)


class TestTPoly:
    def test_taylor_coeffs_reconstruct(self):
        fs = field(2)
        H = anderson_thakur(fs, 3)
        coeffs = H.taylor_coeffs(H.degree() + 1)
        acc = TPoly.zero(fs)
        u = TPoly.one(fs)
        for c in coeffs:
            acc = acc + u.scale(c)
            u = u * t_minus_theta(fs)
        assert acc == H

    def test_twist_on_coefficients(self):
        fs = field(3)
        H = anderson_thakur(fs, 4)
        tw = H.twist(1)
        assert tw.coeffs[0] == H.coeffs[0].frobenius(1)

    def test_jet_matches_taylor(self):
        fs = field(2)
        H = anderson_thakur(fs, 3)
        jet = H.jet(3, _ExactScalars(fs))
        lst = jet.orders
        tay = H.taylor_coeffs(3)
        for a, b in zip(lst, tay):
            assert a == b

    def test_negative_twist_undoes_positive(self):
        # a motive entry X is stored as X^(1) and recovered by a -1 twist
        fs = field(2)
        H = anderson_thakur(fs, 3)
        assert H.twist(1).twist(-1) == H

    def test_negative_twist_requires_roots(self):
        fs = field(2)
        with pytest.raises(ValueError):
            t_minus_theta(fs).twist(-1)


class TestTateTrunc:
    def test_mul_matches_poly_product(self):
        fs = field(2)
        A = anderson_thakur(fs, 3)
        B = anderson_thakur(fs, 4)
        M = 10
        got = A.to_tate(M, 30) * B.to_tate(M, 30)
        want = (A * B).to_tate(M, 30)
        for c1, c2 in zip(got.coeffs, want.coeffs):
            assert (c1 - c2).is_zero_to_prec()

    def test_omega_functional_equation(self):
        # Omega^(-1) = (t - theta) Omega
        fs = field(3)
        M, N = 8, 24
        # the inverse twist divides guaranteed precision by q
        Om = omega(fs, M, fs.q * N + 2 * fs.q)
        lhs = Om.twist(-1)
        rhs = t_minus_theta(fs).to_tate(M, None, ram=fs.q - 1) * Om
        res = (lhs - rhs).min_residual_valuation()
        assert res is None or res >= N

    def test_omega_jet_consistent_with_series(self):
        fs = field(2)
        D, N = 3, 20
        oj = omega_jet(fs, D, 3 * N)
        Om = omega(fs, 40, 3 * N)
        # compare the value at theta (0th jet coefficient)
        v = Om.eval_theta()
        d = oj.orders[0] - v
        assert d.is_zero_to_prec()


@st.composite
def laurent_rows(draw, fs, ram):
    """A row of each kind: exact, truncated, zero to precision N, exact zero."""
    kind = draw(st.sampled_from(["exact", "truncated", "zero_N", "zero"]))
    if kind == "zero":
        return PrecisionLaurent.zero(fs, ram=ram)
    if kind == "zero_N":
        return PrecisionLaurent.zero(fs, N=draw(st.integers(-8, 24)), ram=ram)
    v = draw(st.integers(-8, 16))
    coeffs = draw(st.lists(st.integers(0, fs.q - 1), min_size=1, max_size=12))
    N = None if kind == "exact" else v + draw(st.integers(0, 16))
    return PrecisionLaurent(fs, v, coeffs, N=N, ram=ram)


@st.composite
def row_lists(draw):
    """Two lists of rows over one field and tower, of independent lengths
    M + 1: q in {2, 3, 4, 9}, ram in {1, q - 1}."""
    fs = field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)])))
    ram = draw(st.sampled_from([1, fs.q - 1]))
    rows = laurent_rows(fs, ram)
    return fs, ram, [draw(st.lists(rows, min_size=M + 1, max_size=M + 1))
                     for M in (draw(st.integers(0, 6)), draw(st.integers(0, 6)))]


def row(x):
    return (x.v, x.coeffs, x.N)


def rows_of(t):
    return [row(x) for x in t.coeffs]


def reference_sum(x, y, sign):
    """Row of x + sign * y, coefficient by coefficient below the least N."""
    fs = x.fs
    N = min((n for n in (x.N, y.N) if n is not None), default=None)
    acc = {}
    for z, neg in ((x, False), (y, sign < 0)):
        for j, c in enumerate(z.coeffs):
            acc[z.v + j] = fs.add(acc.get(z.v + j, 0), fs.neg(c) if neg else c)
    live = sorted(e for e, c in acc.items() if c and (N is None or e < N))
    if not live:
        return (None, (), N)
    return (live[0], tuple(acc.get(e, 0) for e in range(live[0], live[-1] + 1)), N)


@st.composite
def zero_against(draw):
    """Rows x of every kind and a series z zero to precision in every row,
    its own M: z's N in each row lies above, at or below x's N there, or
    is None (an exact zero), where x's N is a number; opposite an exact
    row of x it is None or a number.  Half the draws keep every N of z at
    or past x's, the case in which z leaves x alone."""
    fs, ram, (ra, _) = draw(row_lists())
    alone = draw(st.booleans())
    rz = []
    for i in range(draw(st.integers(0, 6)) + 1):
        n = ra[i].N if i < len(ra) else None
        if n is None:
            N = None if alone else draw(st.one_of(st.none(), st.integers(-8, 24)))
        else:
            N = draw(st.one_of(st.none(), st.sampled_from(
                [n, n + 1, n + 5] if alone else [n - 5, n - 1, n, n + 1, n + 5])))
        rz.append(PrecisionLaurent.zero(fs, N=N, ram=ram))
    return fs, ram, ra, rz


class TestFlatRows:
    # every TateTrunc operation on its flat rows against the same operation
    # on the PrecisionLaurent rows one by one, in v, coefficients and N
    @settings(max_examples=200, deadline=None)
    @given(ops=row_lists())
    def test_sum_difference_negation(self, ops):
        fs, ram, (ra, rb) = ops
        a = TateTrunc(fs, ra, len(ra) - 1, ram=ram)
        b = TateTrunc(fs, rb, len(rb) - 1, ram=ram)
        M = min(a.M, b.M)
        assert (a + b).M == (a - b).M == M
        assert rows_of(a + b) == [row(x + y) for x, y in zip(ra, rb)]
        assert rows_of(a - b) == [row(x - y) for x, y in zip(ra, rb)]
        assert rows_of(-a) == [row(-x) for x in ra]
        for x, y in zip(ra, rb):
            assert row(x + y) == reference_sum(x, y, 1)
            assert row(x - y) == reference_sum(x, y, -1)
        for x in ra:
            assert row(-x) == reference_sum(PrecisionLaurent.zero(fs, ram=ram), x, -1)

    @settings(max_examples=150, deadline=None)
    @given(ops=zero_against())
    def test_sum_with_a_zero_operand(self, ops):
        # against _row_add row by row and the coefficient reference; a zero
        # that leaves x alone and has at least x's M returns x itself from
        # x + z, z + x and x - z
        fs, ram, ra, rz = ops
        x = TateTrunc(fs, ra, len(ra) - 1, ram=ram)
        z = TateTrunc(fs, rz, len(rz) - 1, ram=ram)
        alone = all(b.N is None if a.N is None else b.N is None or b.N >= a.N
                    for a, b in zip(ra, rz))
        for a, b, sign in ((x, z, 1), (z, x, 1), (x, z, -1), (z, x, -1)):
            got = a + b if sign > 0 else a - b
            assert got.M == min(a.M, b.M)
            pairs = list(zip(a.coeffs, b.coeffs))
            assert [(g.v, g.N, g.coeffs) for g in got.coeffs] == [
                _row_add(fs, u.v, u.N, u.coeffs, w.v, w.N, w.coeffs, sign < 0)
                for u, w in pairs]
            assert rows_of(got) == [reference_sum(u, w, sign) for u, w in pairs]
            if alone and x.M <= z.M and (a is x or sign > 0):
                # when x is zero in every row too, either operand is the sum
                assert got is x or got is z and x.vs.count(None) > x.M

    @settings(max_examples=200, deadline=None)
    @given(ops=row_lists(), N=st.integers(-10, 30), d=st.integers(0, 12))
    def test_cuts_and_valuation(self, ops, N, d):
        fs, ram, (ra, _) = ops
        a = TateTrunc(fs, ra, len(ra) - 1, ram=ram)
        assert rows_of(a.truncate(N)) == [row(x.truncate(N)) for x in ra]
        # the shell-term cut: every finite N lowered by d
        assert rows_of(a.lower_precision(d)) == [
            row(x if x.N is None else x.truncate(x.N - d)) for x in ra]
        got = a.min_residual_valuation()
        assert got == min_residual_valuation(ra)
        # in theta-units: an int at ram 1, a Fraction only when ram > 1
        assert got is None or ram > 1 or type(got) is int
        zero = TateTrunc(fs, [PrecisionLaurent.zero(fs, ram=ram)] * len(ra),
                         len(ra) - 1, ram=ram)
        assert zero.min_residual_valuation() is None

    @settings(max_examples=100, deadline=None)
    @given(ops=row_lists(), extra=st.integers(-3, 3))
    def test_view_round_trip(self, ops, extra):
        fs, ram, (ra, _) = ops
        M = len(ra) - 1
        a = TateTrunc(fs, ra, M, ram=ram)
        assert a.coeffs == tuple(ra)
        assert [a[i] for i in range(-1, M + 2)] == (
            [PrecisionLaurent.zero(fs, ram=ram)] + list(ra)
            + [PrecisionLaurent.zero(fs, ram=ram)])
        back = TateTrunc(fs, [PrecisionLaurent.from_dict(x.to_dict())
                              for x in a.coeffs], M, ram=ram)
        assert back.coeffs == a.coeffs
        # fewer rows than M + 1 are padded with exact zeros, more are cut
        M2 = max(M + extra, 0)
        short = TateTrunc(fs, ra, M2, ram=ram)
        want = (list(ra) + [PrecisionLaurent.zero(fs, ram=ram)] * 3)[: M2 + 1]
        assert short.coeffs == tuple(want)

    @pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (2, 2)])
    @pytest.mark.parametrize("N", [None, -1, 0, 1, 5])
    def test_zero_and_one(self, q, m, N):
        fs = field(q, m)
        for ram in {1, fs.q - 1}:
            z = PrecisionLaurent.zero(fs, N=N, ram=ram)
            assert TateTrunc.zero(fs, 3, ram=ram, N=N).coeffs == (z,) * 4
            assert TateTrunc.one(fs, 3, ram=ram, N=N).coeffs == (
                PrecisionLaurent.one(fs, N=N, ram=ram), z, z, z)

    def test_tate_series_hold_no_laurent_objects(self):
        # the memoised LL_i^(-s) series and products keep their rows as
        # tuples only: a cached PrecisionLaurent view would double what a
        # memo table retains
        assert set(TateTrunc.__slots__) == {"fs", "vs", "Ns", "cs", "M", "ram"}
        fs = field(2)
        x = _ll_inv_tate(fs, 3, 2, 6)
        for t in (x, x * x, x + x, -x, x.truncate(40)):
            assert not hasattr(t, "__dict__")
            seen, todo = set(), [t]
            while todo:
                obj = todo.pop()
                if id(obj) in seen:
                    continue
                seen.add(id(obj))
                assert not isinstance(obj, PrecisionLaurent)
                if obj is t or isinstance(obj, (tuple, list)):
                    todo.extend(gc.get_referents(obj))
            assert all(id(c) in seen for c in t.cs)


@st.composite
def t_polys(draw, fs):
    """A polynomial in t of degree < 4 whose coefficients are polynomials in
    theta of degree < 4; one in four is a multiple of t - theta, which
    vanishes at t = theta."""
    coeff = st.lists(st.integers(0, fs.q - 1), max_size=4).map(
        lambda cs: RatFunc.from_apoly(APoly(fs, cs)))
    f = TPoly(fs, draw(st.lists(coeff, max_size=4)))
    return f * t_minus_theta(fs) if draw(st.integers(0, 3)) == 0 else f


class TestLocalJet:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_arithmetic_matches_exact_taylor_coefficients(self, data):
        # the sum, difference and product of two jets carry exactly D orders,
        # the Taylor coefficients at t = theta of the sum, difference and
        # product in t; f times its inverse is the jet of 1 where
        # f(theta) != 0, and the inverse raises where f(theta) = 0
        fs = field(*data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2)])))
        D = data.draw(st.integers(1, 5))
        sc = _ExactScalars(fs)
        f, g = data.draw(t_polys(fs)), data.draw(t_polys(fs))
        a, b = f.jet(D, sc), g.jet(D, sc)
        for got, want in ((a * b, f * g), (a + b, f + g), (a - b, f - g)):
            assert got.orders == tuple(want.taylor_coeffs(D))
        if f.taylor_coeffs(1)[0].is_zero():
            with pytest.raises(ArithmeticError):
                a.inv()
        else:
            assert (a * a.inv()).orders == \
                tuple(TPoly.one(fs).taylor_coeffs(D))

    def test_inverse(self):
        fs = field(2)
        H = anderson_thakur(fs, 3)
        jet = H.jet(4, _ExactScalars(fs))
        prod = jet * jet.inv()
        one = LocalJet.const_jet(RatFunc.one(fs), 4, RatFunc.zero(fs))
        assert prod.orders == one.orders

    def test_pole_detection(self):
        fs = field(2)
        f = t_minus_theta(fs)
        jet = f.jet(2, _ExactScalars(fs))
        with pytest.raises(ArithmeticError):
            jet.inv()


class TestSettled:
    """One settled test for the rows of a TateTrunc and the orders of a
    LocalJet: a shell leaves a sum's certified digits alone when each of
    its coefficients is zero to its precision or starts at or past the
    sum's N there."""

    @staticmethod
    def both(fs, coeffs):
        """The same three coefficients as t-rows 0..2 and as jet orders
        0..2."""
        return (TateTrunc(fs, coeffs, 2),
                LocalJet(coeffs, PrecisionLaurent.zero(fs)))

    @pytest.mark.parametrize("c,want", [
        # zero to a precision below the sum's N = 10
        (("zero", 4), True),
        # starts exactly at the sum's N
        ((10, 20), True),
        # starts below it
        ((9, 20), False),
    ])
    def test_one_coefficient_against_the_sum(self, c, want):
        fs = field(3)
        v, N = c
        x = (PrecisionLaurent.zero(fs, N=N) if v == "zero"
             else PrecisionLaurent(fs, v, (1,), N=N))
        z = PrecisionLaurent.zero(fs)
        # the sum: row 0 known to N = 10, row 1 zero to N = 8, no row 2
        total = self.both(fs, [PrecisionLaurent(fs, 3, (1, 2), N=10),
                               PrecisionLaurent.zero(fs, N=8), z])
        for coeffs, expect in (([x, z, z], want),
                               # row 1 is settled at its N = 8, not below
                               ([x, PrecisionLaurent(fs, 8, (2,), N=9), z], want),
                               ([x, PrecisionLaurent(fs, 7, (2,), N=9), z], False)):
            tate, jet = self.both(fs, coeffs)
            assert tate.min_residual_valuation() == jet.min_residual_valuation()
            assert tate.settled(total[0]) == jet.settled(total[1]) == expect

    def test_an_order_the_sum_lacks(self):
        # the sum is exact there, so no nonzero coefficient leaves it alone
        fs = field(2)
        z = PrecisionLaurent.zero(fs)
        total = self.both(fs, [PrecisionLaurent(fs, 0, (1,), N=10), z, z])
        far = PrecisionLaurent(fs, 50, (1,), N=60)
        tate, jet = self.both(fs, [z, z, far])
        assert _is_exact_zero(jet.orders[0]) and _is_exact_zero(jet.orders[1])
        assert total[1].orders[2] == z
        assert tate.settled(total[0]) is jet.settled(total[1]) is False
        # a coefficient zero to its precision there still is settled
        tate, jet = self.both(fs, [z, z, PrecisionLaurent.zero(fs, N=3)])
        assert tate.settled(total[0]) is jet.settled(total[1]) is True
