"""t-polynomials, Tate truncations, jets, and the classical quantities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmzv.scalars import APoly, PrecisionLaurent, RatFunc, field
from tmzv.tlayer import (LocalJet, TPoly, TateTrunc,
                         anderson_thakur, anderson_thakur_closed, bracket,
                         d_poly, gamma_factorial, l_poly, omega, omega_jet)


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
            u = u * TPoly.t_minus_theta(fs)
        assert acc == H

    def test_twist_on_coefficients(self):
        fs = field(3)
        H = anderson_thakur(fs, 4)
        tw = H.twist(1)
        assert tw.coeffs[0] == H.coeffs[0].frobenius(1)

    def test_jet_matches_taylor(self):
        fs = field(2)
        H = anderson_thakur(fs, 3)
        jet = H.jet(3)
        lst = jet.coeff_list(3)
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
            TPoly.t_minus_theta(fs).twist(-1)


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
        rhs = TPoly.t_minus_theta(fs).to_tate(M, None, ram=fs.q - 1) * Om
        res = (lhs - rhs).min_residual_valuation()
        assert res is None or res >= N

    def test_omega_jet_consistent_with_series(self):
        fs = field(2)
        D, N = 3, 20
        oj = omega_jet(fs, D, 3 * N)
        Om = omega(fs, 40, 3 * N)
        # compare the value at theta (0th jet coefficient)
        v = Om.eval_theta()
        d = oj.order(0) - v
        assert d.is_zero_to_prec()


class TestLocalJet:
    def test_inverse(self):
        fs = field(2)
        H = anderson_thakur(fs, 3)
        jet = H.jet(4)
        prod = jet * jet.inv()
        one = LocalJet.const_jet(RatFunc.one(fs), 4, RatFunc.zero(fs))
        assert prod.coeff_list(4) == one.coeff_list(4)

    def test_pole_detection(self):
        fs = field(2)
        f = TPoly.t_minus_theta(fs)
        jet = f.jet(2)
        with pytest.raises(ArithmeticError):
            jet.inv().coeff_list(2)
