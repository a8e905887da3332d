"""t-modules: F_q[t]-action, exponential/logarithm, periods."""

import hashlib
import json
import os
import tracemalloc
from functools import reduce
from math import comb
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import nu_reduce, ramified_laurent, t_minus_theta, tpoly_pow
from tmzv.motive import at_shape, star_shape
from tmzv.scalars import (APoly, PrecisionError, PrecisionLaurent, RatFunc,
                          field, min_residual_valuation)
from tmzv.tlayer import (LocalJet, TateTrunc, bracket, d_poly, inv_bracket,
                         l_poly)
from tmzv.tmodule import (TModule, _bracket_pow_jets, _ExactScalars,
                          _LaurentScalars, _pole_inv_jet, _shape_module,
                          check_log_domain,
                          depth_one_period_check, exp_eval, log_coeff_matrix,
                          log_eval, log_oracle_check, mat_add, mat_identity,
                          mat_map, mat_mul, mat_sub, mat_vec, period_check,
                          split_log_check, stark_log_eval, vec_add, vec_sub)
from tmzv.vadic import NuPlace, _NuAdicScalars, zeta_nu
from tmzv.zeta import strange_formula_check


def small_apolys(fs, max_deg=3):
    elt = st.integers(min_value=0, max_value=fs.q - 1)
    return st.lists(elt, min_size=0, max_size=max_deg + 1).map(
        lambda cs: APoly(fs, tuple(cs)))


def dense_mat_mul(A, B):
    """Every term of every entry, exact zeros included."""
    return [[reduce(add, (a * B[k][j] for k, a in enumerate(row)))
             for j in range(len(B[0]))] for row in A]


def laurent_entries(fs):
    """Exact zeros, zeros known to a finite precision, and nonzero series."""
    def build(kind, v, coeffs, dN):
        if kind == "zero":
            return PrecisionLaurent.zero(fs)
        if kind == "zero_N":
            return PrecisionLaurent.zero(fs, N=v + dN)
        return PrecisionLaurent(fs, v, [1] + coeffs,
                                N=None if kind == "exact" else v + dN)
    return st.builds(build, st.sampled_from(["zero", "zero", "zero_N",
                                             "exact", "truncated"]),
                     st.integers(-6, 8),
                     st.lists(st.integers(0, fs.q - 1), max_size=8),
                     st.integers(1, 20))


def ratfunc_entries(fs):
    poly = small_apolys(fs, 2)
    return st.one_of(st.just(RatFunc.zero(fs)), st.builds(
        lambda a, b: RatFunc(a, b + APoly.monomial(fs, 3)), poly, poly))


@st.composite
def matrix_pairs(draw, entries, zero):
    fs = field(draw(st.sampled_from([2, 3])))
    n, m, p = (draw(st.integers(1, 4)) for _ in range(3))
    ent = entries(fs)
    A = [[draw(ent) for _ in range(m)] for _ in range(n)]
    B = [[draw(ent) for _ in range(p)] for _ in range(m)]
    if draw(st.booleans()):  # a row of A or a column of B all exact zeros
        if draw(st.booleans()):
            A[0] = [zero(fs)] * m
        else:
            for row in B:
                row[0] = zero(fs)
    return A, B


def laurent_key(x):
    return type(x), x.v, x.coeffs, x.N


class TestMatrixProducts:
    @settings(max_examples=100, deadline=None)
    @given(pair=matrix_pairs(laurent_entries, PrecisionLaurent.zero))
    def test_laurent_products_match_dense(self, pair):
        A, B = pair
        want = dense_mat_mul(A, B)
        got = mat_mul(A, B)
        assert [[laurent_key(x) for x in r] for r in got] == \
            [[laurent_key(x) for x in r] for r in want]
        v = [row[0] for row in B]
        assert [laurent_key(x) for x in mat_vec(A, v)] == \
            [laurent_key(r[0]) for r in dense_mat_mul(A, [[x] for x in v])]

    @settings(max_examples=60, deadline=None)
    @given(pair=matrix_pairs(ratfunc_entries, RatFunc.zero))
    def test_ratfunc_products_match_dense(self, pair):
        A, B = pair
        got = mat_mul(A, B)
        assert got == dense_mat_mul(A, B)
        assert all(type(x) is RatFunc for r in got for x in r)

    def test_zero_known_to_precision_lowers_N(self):
        fs = field(2)
        A = [[PrecisionLaurent.zero(fs, N=3), PrecisionLaurent.zero(fs)]]
        B = [[PrecisionLaurent.one(fs)], [PrecisionLaurent.one(fs, N=9)]]
        (x,), = mat_mul(A, B)
        assert (x.v, x.N) == (None, 3)
        A = [[PrecisionLaurent.zero(fs), PrecisionLaurent.zero(fs)]]
        (x,), = mat_mul(A, B)
        assert (x.v, x.N) == (None, None)

    def test_tate_zeros_are_not_skipped(self):
        # a zero t-series still truncates the sum at its own t-order
        fs = field(2)
        one3 = TateTrunc.one(fs, 3)
        A = [[TateTrunc.zero(fs, 1), one3]]
        (x,), = mat_mul(A, [[one3], [one3]])
        assert x.M == 1


def solve_by_iteration(E, R, n, ram=1):
    """The fixed point of X = (R - X N' + N X) / lam, iterated from R / lam,
    over windowed Laurent scalars: in K_inf at ram 1, and at ram q - 1 in
    K_inf(eta), with R and N embedded; 1/lam is the schoolbook series
    inverse of lam = theta^(q^n) - theta in that tower (schoolbook_inv)."""
    sc = E.scalars
    ilam = schoolbook_inv(bracket(E.fs, n), sc.window, ram)
    R = mat_map(R, lambda x: in_tower(x, ram))
    N = mat_map(E.nilpotent, lambda x: in_tower(x, ram))
    Np = mat_map(N, lambda x: x.frobenius(n))
    X = mat_map(R, lambda x: x * ilam)
    for _ in range(2 * E.d + 2):
        X2 = mat_map(mat_add(mat_sub(R, mat_mul(X, Np)), mat_mul(N, X)),
                     lambda x: x * ilam)
        if X2 == X:
            return X
        X = X2
    raise AssertionError("no fixed point")


def sylvester_lhs(E, X, n):
    """X d[theta]^(n) - d[theta] X, with d[theta]^(n) = theta^(q^n) I + N'."""
    twisted = mat_map(E.dtheta, lambda x: x.frobenius(n))
    return mat_sub(mat_mul(X, twisted), mat_mul(E.dtheta, X))


SYLVESTER_MODULES = [("tensor", q, n) for q in (2, 3) for n in (1, 2, 3, 4)] \
    + [("at", 2, (1, 2)), ("star", 3, (2, 1))]


class TestSylvesterSolve:
    @pytest.mark.parametrize("kind,q,arg", SYLVESTER_MODULES, ids=str)
    def test_solution_satisfies_equation_exactly(self, kind, q, arg):
        fs = field(q)
        if kind == "tensor":
            E = TModule.carlitz_tensor(fs, arg)
        else:
            E = _shape_module((at_shape if kind == "at" else star_shape)(
                fs, arg))
        assert isinstance(E.scalars, _ExactScalars)
        d = E.d
        # a dense right side, and the ones the exponential recursion builds
        dense = [[RatFunc(APoly.monomial(fs, i + 2 * j) + APoly.one(fs),
                          APoly.theta(fs) + APoly.one(fs))
                  for j in range(d)] for i in range(d)]
        cases = [(dense, 1), (dense, 2)]
        for n in (1, 2):
            cases.append((E._conv_rhs([E.exp_coeff(k) for k in range(n)], n),
                          n))
        for R, n in cases:
            X = E._sylvester_solve(R, n)
            assert sylvester_lhs(E, X, n) == R
        assert E.exp_coeff(2) == E._sylvester_solve(cases[-1][0], 2)

    @pytest.mark.parametrize("q,s,model", [(2, (1, 2), "at"),
                                           (3, (2, 4), "at"),
                                           (2, (2, 1, 1), "star")])
    def test_same_values_and_precision_as_iteration(self, q, s, model):
        fs = field(q)
        shape = at_shape(fs, s) if model == "at" else star_shape(fs, s)
        E = _shape_module(shape).with_scalars(_LaurentScalars(fs, 40))
        for n in (1, 2, 3):
            R = E._conv_rhs([E.exp_coeff(k) for k in range(n)], n)
            got = E._sylvester_solve(R, n)
            # the solve in K_inf, embedded, against the iteration run in
            # each tower
            for ram in sorted({1, q - 1}):
                want = solve_by_iteration(E, R, n, ram)
                assert [[scalar_key(in_tower(x, ram)) for x in r]
                        for r in got] == \
                    [[scalar_key(x) for x in r] for r in want]

    def test_rejects_non_triangular_d_theta(self):
        fs = field(2)
        z, one, th = RatFunc.zero(fs), RatFunc.one(fs), RatFunc.theta(fs)
        tau = [[z, z], [one, z]]
        with pytest.raises(ValueError, match="strictly upper triangular"):
            TModule(fs, 2, [[th, z], [one, th]], [tau])
        with pytest.raises(ValueError, match="strictly upper triangular"):
            TModule(fs, 2, [[th + one, one], [z, th]], [tau])
        E = TModule(fs, 2, [[th, one], [z, th]], [tau])
        assert E.with_laurent(20).nilpotent[0][1] == PrecisionLaurent.one(fs)

    @pytest.mark.parametrize("s", [(3,), (2, 1), (1, 2, 1)])
    def test_block_dims(self, s):
        fs = field(3)
        assert TModule.carlitz(fs).block_dims == (1,)
        assert TModule.carlitz_tensor(fs, sum(s)).block_dims == (sum(s),)
        for shape in (at_shape(fs, s), star_shape(fs, s)):
            E = _shape_module(shape)
            assert E.block_dims == shape.block_dims
            # the Laurent twin keeps the shape's blocks, and its entries,
            # embedded, are the exact entries written in K_inf(eta) one
            # coefficient at a time
            EL = E.with_laurent(20)
            assert EL.block_dims == shape.block_dims
            for M, ML in zip([E.dtheta] + E.taus, [EL.dtheta] + EL.taus):
                for x, y in zip(sum(M, []), sum(ML, [])):
                    assert x.is_poly()
                    want = ramified_laurent(x.num, fs.q - 1)
                    assert scalar_key(y.embed_ram()) == scalar_key(want)


BRACKET_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 9: (3, 2)}


def schoolbook_inv(x, window, ram):
    """The series inverse of an exact element of A, the way a windowed
    Laurent strategy once inverted it: in K_inf at ram 1, and at ram
    q - 1 in K_inf(eta), from reference.ramified_laurent, with the window
    scaled to eta-digits."""
    y = x.laurent() if ram == 1 else ramified_laurent(x, ram)
    return y.inv(window=window * ram)


def in_tower(x, ram):
    """A series of K_inf in the tower of ram: embedded when ram > 1."""
    return x.embed_ram() if ram > 1 else x


class RamifiedConv:
    """The conv and zero of K_inf(eta) for exact polynomials, through
    reference.ramified_laurent: what the jets of _LaurentScalars, which
    work in K_inf, must equal once embedded."""

    def __init__(self, fs):
        self.fs, self.ram = fs, fs.q - 1
        self.zero = PrecisionLaurent.zero(fs, ram=self.ram)

    def conv(self, c):
        assert c.is_poly()
        return ramified_laurent(c.num, self.ram)


class TestBracketInverse:
    # the closed form 1/[k] = sum_j theta^(-q^k - j(q^k - 1)) against the
    # schoolbook inverse of the bracket polynomial, in v, coefficients and N
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_closed_form_matches_schoolbook_inverse(self, data):
        q = data.draw(st.sampled_from(sorted(BRACKET_FIELDS)))
        fs = field(*BRACKET_FIELDS[q])
        ram = data.draw(st.sampled_from([1, q - 1]))
        k = data.draw(st.integers(1, 4))
        window = data.draw(st.integers(1, 100))
        got = inv_bracket(fs, k, q**k + window)
        if ram > 1:
            got = got.embed_ram()
        want = schoolbook_inv(bracket(fs, k), window, ram)
        assert (got.v, got.coeffs, got.N, got.ram) == \
            (want.v, want.coeffs, want.N, want.ram)


class TestPoleJet:
    # the jet at t = theta of 1/(t - theta^(q^k)) from each scalar strategy
    # against the explicit formula: the coefficient of u^m is
    # (-1)^m c^(m+1) with c = 1/(theta - theta^(q^k))
    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_nu_adic(self, q):
        # (-1)^m (-1/[k])^(m+1) = -1/[k]^(m+1), right below its tracked N,
        # which keeps the window's digits past the leading one
        fs = field(*BRACKET_FIELDS[q])
        for nu in ((0, 1), (1, 1)):
            pl = NuPlace(APoly(fs, nu))
            sc = _NuAdicScalars(pl, 9)
            for k in (1, 2, 3):
                for D in (1, 2, 4):
                    jet = _pole_inv_jet(sc, k, D)
                    for m, c in enumerate(jet.orders):
                        want = -RatFunc(APoly.one(fs),
                                        bracket(fs, k).pow(m + 1))
                        assert c.N - c.v == 9 and c.v == -(m + 1)
                        assert c.eq_to_prec(nu_reduce(want, pl, c.N), c.N)

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_exact_and_laurent(self, q):
        fs = field(*BRACKET_FIELDS[q])
        th = APoly.theta(fs)
        for k in (1, 2):
            x = th - th.frobenius(k)
            cases = [(_ExactScalars(fs), 1, RatFunc(x).inv())]
            for ram in sorted({1, q - 1}):
                for window in (1, 17, 60):
                    cases.append((_LaurentScalars(fs, window), ram,
                                  schoolbook_inv(x, window, ram)))
            for sc, ram, c in cases:
                for D in (1, 3):
                    want, p = [], c
                    for m in range(D):
                        want.append(p if m % 2 == 0 else -p)
                        p = p * c
                    got = _pole_inv_jet(sc, k, D).orders
                    if ram > 1:
                        # built in K_inf, embedded, against the ramified
                        # schoolbook inverse and its powers
                        got = [y.embed_ram() for y in got]
                    assert [scalar_key(y) for y in got] == \
                        [scalar_key(y) for y in want]


def scalar_key(x):
    """Everything a scalar of any strategy holds: v, coefficients, N and
    ram of a series, numerator and denominator of an exact element, v,
    unit and N of a nu-adic one."""
    if isinstance(x, PrecisionLaurent):
        return x.v, x.coeffs, x.N, x.ram
    if isinstance(x, RatFunc):
        return x.num.coeffs, x.den.coeffs
    return x.v, x.unit.coeffs, x.N


class TestBracketPowerJet:
    # the closed-form jets of (t - theta^(q^n))^j from each scalar strategy
    # against the Taylor expansion of the power multiplied out in TPoly
    # arithmetic and twisted, entry for entry
    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_matches_taylor_expansion_of_twisted_power(self, q):
        fs = field(*BRACKET_FIELDS[q])
        laurent = _LaurentScalars(fs, 17)
        # (strategy, the scalars the Taylor expansion is written in): the
        # Laurent jets also embedded, against the oracle in K_inf(eta)
        strategies = [(sc, sc) for sc in (
            _ExactScalars(fs), _NuAdicScalars(NuPlace(APoly(fs, (1, 1))), 17),
            laurent)]
        if q > 2:
            strategies.append((laurent, RamifiedConv(fs)))
        for n in range(1, 4):
            for D in range(1, 8):
                for sc, tower in strategies:
                    jets = _bracket_pow_jets(sc, n, D)
                    assert len(jets) == D
                    for j, got in enumerate(jets):
                        want = tpoly_pow(t_minus_theta(fs), j).twist(
                            n).jet(D, tower)
                        assert [scalar_key(x) for x in lift(got, tower)] == \
                            [scalar_key(x) for x in want.orders]


def lift(jet, tower):
    """The orders of a jet, embedded when tower is the ramified oracle."""
    if isinstance(tower, RamifiedConv):
        return [x.embed_ram() for x in jet.orders]
    return list(jet.orders)


def apoly_route_jets(sc, n, D):
    """The bracket-power jets through dense powers of -[n] in A, each
    coefficient scaled and passed to sc.conv: the route the Laurent scalars
    replaced by their closed form."""
    fs = sc.fs
    neg = -bracket(fs, n)
    pows = [APoly.one(fs)]
    for _ in range(1, D):
        pows.append(pows[-1] * neg)
    return [LocalJet.of([sc.conv(RatFunc(pows[j - k].scale(
        fs.from_int(comb(j, k))), reduce=False)) for k in range(j + 1)],
        D, sc.zero) for j in range(D)]


class TestClosedFormBracketPowers:
    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_laurent_jets_match_apoly_route(self, q):
        fs = field(*BRACKET_FIELDS[q])
        sc = _LaurentScalars(fs, 11)
        # in K_inf, and embedded against the A route in K_inf(eta)
        for tower in [sc] + ([RamifiedConv(fs)] if q > 2 else []):
            for n in range(1, 5):
                got = _bracket_pow_jets(sc, n, 6)
                want = apoly_route_jets(tower, n, 6)
                for g, w in zip(got, want):
                    assert [scalar_key(x) for x in lift(g, tower)] \
                        == [scalar_key(x) for x in w.orders]


class TestCarlitz:
    @pytest.mark.parametrize("q", [2, 3])
    def test_exp_log_coefficients(self, q):
        # exp coefficient 1/D_n, log coefficient 1/L_n
        fs = field(q)
        C = TModule.carlitz(fs)
        one = APoly.one(fs)
        for n in range(1, 5):
            assert C.exp_coeff(n)[0][0] == RatFunc(one, d_poly(fs, n))
            assert C.log_coeff_recursive(n)[0][0] == RatFunc(one, l_poly(fs, n))

    def test_tensor_power_one_is_carlitz(self):
        fs = field(2)
        C = TModule.carlitz(fs)
        T = TModule.carlitz_tensor(fs, 1)
        assert C.dtheta == T.dtheta and C.taus == T.taus


def tau_compose(E, F):
    """(sum E_i tau^i)(sum F_j tau^j) for tau-polynomials of matrices."""
    out = []
    for i, Ei in enumerate(E):
        for j, Fj in enumerate(F):
            Fj_tw = mat_map(Fj, lambda x: x.frobenius(i)) if i else Fj
            term = mat_mul(Ei, Fj_tw)
            while len(out) <= i + j:
                out.append(None)
            out[i + j] = term if out[i + j] is None else mat_add(out[i + j], term)
    return out


def tau_polynomial(E, a):
    """E_a as a tau-polynomial [d[a], E_{a,1}, ...]: the reference for the
    Horner action, built by composing E_theta F_q-linearly."""
    sc = E.scalars
    z = sc.zero
    eth = [E.dtheta] + E.taus
    power = [mat_identity(E.d, sc.one, z)]  # E_{theta^k}, from k = 0
    out = [[[z] * E.d for _ in range(E.d)]]
    for k, c in enumerate(a.coeffs):
        if c:
            const = RatFunc(APoly.const(E.fs, c))
            while len(out) < len(power):
                out.append([[z] * E.d for _ in range(E.d)])
            for i, M in enumerate(power):
                out[i] = mat_add(out[i], mat_map(M, lambda x: x * const))
        if k + 1 < len(a.coeffs):
            power = tau_compose(eth, power)
    return out


def reference_act(E, a, v):
    """sum_k E_{a,k} v^{(k)}."""
    out = None
    for k, M in enumerate(tau_polynomial(E, a)):
        term = mat_vec(M, [x.frobenius(k) for x in v])
        out = term if out is None else vec_add(out, term)
    return out


def reference_lie_act(E, a, z):
    return mat_vec(tau_polynomial(E, a)[0], z)


@st.composite
def modules_and_elements(draw, integral=False):
    """A Carlitz tensor power (n <= 3) or a shape module at q = 2, 3, an
    element a of degree <= 4, and a point (polynomial when integral)."""
    fs = field(draw(st.sampled_from([2, 3])))
    kind = draw(st.sampled_from(["tensor", "star", "at"]))
    if kind == "tensor":
        E = TModule.carlitz_tensor(fs, draw(st.integers(1, 3)))
    else:
        s = draw(st.sampled_from([(1,), (2,), (1, 1), (2, 1)]))
        E = _shape_module((star_shape if kind == "star" else at_shape)(fs, s))
    a = draw(small_apolys(fs, 4))
    poly = small_apolys(fs, 2)
    if integral:
        v = [draw(poly) for _ in range(E.d)]
    else:
        v = [RatFunc(draw(poly), draw(poly) + APoly.monomial(fs, 3))
             for _ in range(E.d)]
    return E, a, v


class TestActionReference:
    # the Horner action against the tau-polynomial of E_a applied term by
    # term, exactly, mod nu^m, and over windowed Laurent series
    @given(case=modules_and_elements())
    @settings(max_examples=40, deadline=None)
    def test_act_and_lie_act_match_the_tau_polynomial(self, case):
        E, a, v = case
        assert E.act(a, v) == reference_act(E, a, v)
        assert E.lie_act(a, v) == reference_lie_act(E, a, v)

    @given(case=modules_and_elements(integral=True), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_reduced_act_is_the_reduced_exact_act(self, case, data):
        E, a, v = case
        fs = E.fs
        quad = (1, 0, 1) if fs.q == 3 else (1, 1, 1)
        pl = NuPlace(APoly(fs, data.draw(st.sampled_from([(0, 1), (1, 1),
                                                           quad]))))
        m = data.draw(st.integers(1, 4))
        sc = _NuAdicScalars(pl, m)
        got = E.act(a, [sc.conv(x) for x in v], conv=sc.conv)
        want = reference_act(E, a, [RatFunc.from_apoly(x) for x in v])
        assert all(w.is_poly() for w in want)
        for g, w in zip(got, want):
            if g.is_zero():
                assert w.is_zero()
            else:
                assert g.N >= m and g.eq_to_prec(nu_reduce(w, pl, g.N), g.N)

    @given(case=modules_and_elements(), prec=st.integers(10, 30))
    @settings(max_examples=25, deadline=None)
    def test_laurent_act_holds_to_its_precision(self, case, prec):
        # a point known below theta^-prec: Frobenius twists only sharpen
        # that, and each Horner step multiplies by entries of degree <= e,
        # so E_a(v) and d[a](v) are right, and claim to be, below
        # theta^-(prec - e deg a)
        E, a, v = case
        sc = _LaurentScalars(E.fs, prec + 60)
        vl = [sc.conv(x).truncate(prec) for x in v]
        for got, want, mats in (
                (E.act(a, vl, conv=sc.conv), reference_act(E, a, v),
                 [E.dtheta] + E.taus),
                (E.lie_act(a, vl, conv=sc.conv), reference_lie_act(E, a, v),
                 [E.dtheta])):
            e = max(x.num.degree() - x.den.degree()
                    for M in mats for row in M for x in row)
            for g, w in zip(got, want):
                assert (g - sc.conv(w)).is_zero_to_prec()
                assert g.N is None or g.N >= prec - max(e, 0) * a.degree()


class TestAction:
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_act_is_a_ring_action(self, data):
        fs = field(2)
        E = TModule.carlitz_tensor(fs, 2)
        a = data.draw(small_apolys(fs, 2))
        b = data.draw(small_apolys(fs, 2))
        v = [RatFunc.from_apoly(data.draw(small_apolys(fs, 1)))
             for _ in range(2)]
        assert E.act(a * b, v) == E.act(a, E.act(b, v))
        assert E.act(a + b, v) == [x + y for x, y in
                                   zip(E.act(a, v), E.act(b, v))]

    def test_lie_act_is_d_theta(self):
        fs = field(3)
        E = TModule.carlitz_tensor(fs, 2)
        z = [RatFunc.one(fs), RatFunc.theta(fs)]
        got = E.lie_act(APoly.theta(fs), z)
        # theta I + shift
        assert got == [RatFunc.theta(fs) * z[0] + z[1],
                       RatFunc.theta(fs) * z[1]]


class TestExpLog:
    @pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 2)])
    def test_roundtrip(self, q, n):
        fs = field(q)
        E = TModule.carlitz_tensor(fs, n)
        z = [RatFunc.zero(fs)] * (n - 1) + [RatFunc.one(fs)]
        v = exp_eval(E, z, prec=30)
        w = log_eval(E, v, prec=30)
        sc = _LaurentScalars(fs, 40)
        d = vec_sub(w, [sc.conv(x).truncate(30) for x in z])
        res = min_residual_valuation(d)
        assert res is None or res >= 30

    def test_functional_equation(self):
        # Exp(d[a] z) = E_a(Exp(z))
        fs = field(2)
        E = TModule.carlitz_tensor(fs, 2)
        z = [RatFunc.zero(fs), RatFunc.one(fs)]
        a = APoly.theta(fs) + APoly.one(fs)
        sc = _LaurentScalars(fs, 60)
        lhs = exp_eval(E, E.lie_act(a, z), prec=30)
        rhs = E.act(a, exp_eval(E, z, prec=45), conv=sc.conv)
        res = min_residual_valuation(
            vec_sub(lhs, [x.truncate(30) for x in rhs]))
        assert res is None or res >= 30

    def test_log_domain_rejects_large_input(self):
        fs = field(2)
        E = TModule.carlitz_tensor(fs, 2)
        big = [RatFunc.from_apoly(APoly.theta(fs).pow(9)), RatFunc.zero(fs)]
        with pytest.raises(ValueError):
            check_log_domain(E, big)


class TestCertifiedSum:
    # the shared two-small-terms stop: when the terms run out first, each
    # series raises PrecisionError in its own words
    @pytest.mark.parametrize("series", ["exp", "log", "stark", "zeta_nu",
                                        "strange"])
    def test_exhausted_terms_raise(self, series):
        fs = field(2)
        E = TModule.carlitz_tensor(fs, 2)
        z = [RatFunc.zero(fs), RatFunc.one(fs)]
        fs3 = field(3)
        calls = {
            "exp": (lambda: exp_eval(E, z, prec=20, max_terms=1),
                    "series did not certify precision 20 within 1 terms"),
            "log": (lambda: log_eval(E, z, prec=20, max_terms=1),
                    "series did not certify precision 20 within 1 terms"),
            "stark": (lambda: stark_log_eval(at_shape(fs, (1, 2)), prec=20,
                                             max_terms=1),
                      "logarithm series did not certify precision 20 "
                      "within 1 terms"),
            "zeta_nu": (lambda: zeta_nu(fs3, (1,), NuPlace(APoly.theta(fs3)),
                                        K=8, max_terms=1),
                        r"nu-adic logarithm did not certify precision \d+ "
                        "within 1 terms"),
            "strange": (lambda: strange_formula_check(fs, prec=10, imax=1),
                        "logarithm-power series did not converge"),
        }
        call, msg = calls[series]
        with pytest.raises(PrecisionError, match="^%s$" % msg):
            call()


def log_by_inverting_exp(E, n):
    """P_0..P_n from sum_{i+j=m} P_i Q_j^{(i)} = [m = 0] I: the logarithm as
    the inverse of the exponential, with m products and m twists of the
    exponential coefficients at step m."""
    sc = E.scalars
    P = [mat_identity(E.d, sc.one, sc.zero)]
    for m in range(1, n + 1):
        acc = [[sc.zero] * E.d for _ in range(E.d)]
        for i in range(m):
            Qj = mat_map(E.exp_coeff(m - i), lambda x: x.frobenius(i))
            acc = mat_add(acc, mat_mul(P[i], Qj))
        P.append(mat_map(acc, lambda x: -x))
    return P


def matrix_key(P):
    return [[scalar_key(x) for x in row] for row in P]


# the default oracle-log shapes, star (2, 1) at q = 3 and AT (1, 2, 3) at q = 2
ROUTE_SHAPES = ((2, (1,), "star"), (2, (4,), "star"), (2, (3, 1), "star"),
                (2, (2, 1, 1), "star"), (2, (1, 2), "at"), (3, (2, 4), "at"),
                (3, (2, 1), "star"), (2, (1, 2, 3), "at"))


class TestLogCoefficients:
    @pytest.mark.parametrize("q,s,model", [
        (2, (1,), "at"), (2, (2,), "at"), (3, (2,), "at"), (2, (1, 1), "star")])
    def test_closed_form_matches_recursive_exactly(self, q, s, model):
        # the closed-form twisted product against the functional-equation
        # recursion, over exact scalars
        fs = field(q)
        shape = at_shape(fs, s) if model == "at" else star_shape(fs, s)
        E = _shape_module(shape)
        for n in range(4):
            assert log_coeff_matrix(shape, n) == E.log_coeff_recursive(n)

    @pytest.mark.parametrize("q,s,model", ROUTE_SHAPES, ids=str)
    def test_three_routes_agree_entrywise(self, q, s, model):
        # closed form, functional equation and inversion of the exponential:
        # equal in v, coefficients and N at window 60
        shape = _make_shape(q, s, model)
        sc = _LaurentScalars(shape.fs, 60)
        E = _shape_module(shape).with_scalars(sc)
        inverted = log_by_inverting_exp(E, 8)
        for n in range(9):
            want = matrix_key(inverted[n])
            assert matrix_key(E.log_coeff_recursive(n)) == want
            assert matrix_key(log_coeff_matrix(shape, n, sc)) == want

    @pytest.mark.parametrize("pm", [(2,), (3,), (2, 2)], ids=str)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_tensor_power_recursion_matches_inversion(self, pm, dim):
        fs = field(*pm)
        for window, nmax in ((None, 3), (50, 7)):
            E = TModule.carlitz_tensor(fs, dim)
            if window is not None:
                E = E.with_laurent(window)
            inverted = log_by_inverting_exp(E, nmax)
            for n in range(nmax + 1):
                assert matrix_key(E.log_coeff_recursive(n)) == \
                    matrix_key(inverted[n])

    def test_recursion_leaves_the_exponential_alone(self):
        E = _shape_module(at_shape(field(3), (2, 4))).with_laurent(60)
        E.log_coeff_recursive(8)
        assert len(E._exp_cache) == 1

    def test_recursion_memory_is_bounded(self):
        # r products and twists of the small E_k per step; inverting the
        # exponential instead peaked near 700 MB here
        E = _shape_module(at_shape(field(3), (2, 4))).with_laurent(60)
        tracemalloc.start()
        try:
            E.log_coeff_recursive(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20

    def test_oracle_check_windowed(self):
        fs = field(2)
        rep = log_oracle_check(at_shape(fs, (1, 2)), nmax=4, window=60)
        assert rep["pass"]


LOG_COEFFS_PATH = os.path.join(os.path.dirname(__file__), "data",
                               "log_coeffs.json")

# the oracle-log suite's shapes at the sizes the log-oracle benchmark runs:
# (q, s, model, nmax), windowed Laurent scalars of window 60
STORED_LAURENT_SHAPES = (
    (2, (1,), "star", 6), (2, (4,), "star", 6), (2, (3, 1), "star", 6),
    (2, (2, 1, 1), "star", 6), (2, (1, 2), "at", 6), (3, (2, 4), "at", 3))
# exact scalars, n <= 3
STORED_EXACT_SHAPES = ((2, (1, 2), "at"), (3, (2, 1), "star"))


def _make_shape(q, s, model):
    return (at_shape if model == "at" else star_shape)(field(q), s)


def _matrix_digest(P, entry):
    blob = json.dumps([[entry(x) for x in row] for row in P],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def stored_log_coeffs():
    """sha256 of the canonical JSON of every pinned closed-form logarithm
    coefficient P_n: Laurent entries through to_dict (v, N and digits),
    exact entries as numerator and denominator coefficient lists."""
    out = {}
    for q, s, model, nmax in STORED_LAURENT_SHAPES:
        shape = _make_shape(q, s, model)
        sc = _LaurentScalars(shape.fs, 60)
        for n in range(nmax + 1):
            out["laurent q=%d s=%s %s n=%d" % (
                q, ",".join(map(str, s)), model, n)] = _matrix_digest(
                log_coeff_matrix(shape, n, sc), lambda x: x.to_dict())
    for q, s, model in STORED_EXACT_SHAPES:
        shape = _make_shape(q, s, model)
        for n in range(4):
            out["exact q=%d s=%s %s n=%d" % (
                q, ",".join(map(str, s)), model, n)] = _matrix_digest(
                log_coeff_matrix(shape, n),
                lambda x: [list(x.num.coeffs), list(x.den.coeffs)])
    return out


def write_stored_log_coeffs():
    """Regenerate tests/data/log_coeffs.json from the present code."""
    with open(LOG_COEFFS_PATH, "w") as f:
        json.dump(stored_log_coeffs(), f, indent=1, sort_keys=True)
        f.write("\n")


class TestStoredLogCoefficients:
    # the closed-form logarithm coefficients, hashed, against the stored
    # digests: a change of route to the same values must leave every entry
    # as it was, v, N and digits alike
    def test_coefficients_match_stored_digests(self):
        with open(LOG_COEFFS_PATH) as f:
            want = json.load(f)
        got = stored_log_coeffs()
        assert len(got) == 47
        assert got == want


class TestStarkAndPeriods:
    def test_split_log_check(self):
        fs = field(2)
        rep = split_log_check(at_shape(fs, (1, 2)), prec=20)
        assert rep["recomposes"] and rep["special_point_matches"]
        assert rep["pass"]

    def test_period_check(self):
        fs = field(2)
        rep = period_check(star_shape(fs, (2, 1)), prec=20)
        assert rep["pass"]

    def test_depth_one_period_is_inverse_omega(self):
        fs = field(2)
        rep = depth_one_period_check(fs, 2, prec=20)
        assert rep["pass"]
