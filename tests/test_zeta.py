"""Multiple zeta values, polylogarithms, and the identity check reports."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (compositions, frob_laurent_rel, laurent_eq_to_prec,
                       lseries_tate, mzv_brute, mzv_deformed, power_sum_enum,
                       power_sum_recurrence, tate_dict)
from tmzv import zeta
from tmzv.motive import MotiveShape, at_shape, star_shape
from tmzv.scalars import APoly, PrecisionLaurent, RatFunc, field
from tmzv.tlayer import (LocalJet, TateTrunc, TPoly, anderson_thakur,
                         l_poly)
from tmzv.zeta import (DeformedRow, MZVIndex, _frob_laurent_rel,
                       _gamma_rows, _jet_term, _ll_inv_tate, _rel_guard,
                       _shell_term, carlitz_check, cm_check, deformed_row,
                       depth_one_check, inversion_check, lseries_raw, mzv,
                       polylog, power_sum, stark_unit_check,
                       strange_formula_check)


def indices(max_weight=5, max_depth=3):
    return st.lists(st.integers(min_value=1, max_value=max_weight),
                    min_size=1, max_size=max_depth).filter(
        lambda s: sum(s) <= max_weight).map(tuple)


class TestIndex:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MZVIndex((1, 0))

    @pytest.mark.parametrize("s", [(), (0,), (1, 0), (2, -1)])
    def test_validation_message(self, s):
        with pytest.raises(ValueError) as exc:
            MZVIndex(s)
        assert str(exc.value) == "index entries must be positive"

    def test_a_frozen_record_equal_by_value(self):
        a, b = MZVIndex((1, 2)), MZVIndex(tuple([1, 2]))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != MZVIndex((2, 1)) and a != ((1, 2),)
        with pytest.raises(AttributeError):
            a.s = (3,)
        with pytest.raises(AttributeError):
            del a.s
        assert repr(a) == "MZVIndex(s=(1, 2))"


class TestRecords:
    """MZVValue and DeformedRow are mutable records compared by field."""

    def test_values_compare_by_field(self):
        fs = field(2)
        a, b = mzv(fs, (1, 2), prec=20), mzv(fs, (1, 2), prec=20)
        assert a is not b and a == b
        assert a != (a.value, a.index, a.route, a.star)
        assert a != mzv(fs, (1, 2), star=True, prec=20)
        b.route = "Other"
        assert b.route == "Other" and a != b
        with pytest.raises(TypeError):
            hash(a)

    def test_rows_compare_by_field(self):
        shape = at_shape(field(2), (1, 2))
        a = DeformedRow(shape, 2, 10, {}, {})
        b = DeformedRow(at_shape(field(2), (1, 2)), 2, 10, {}, {})
        assert a == b and a != DeformedRow(shape, 3, 10, {}, {})
        assert a != (shape, 2, 10, {}, {})
        b.prec = 11
        assert b.prec == 11 and a != b
        with pytest.raises(TypeError):
            hash(a)


class TestPowerSums:
    @pytest.mark.parametrize("q", [2, 3])
    def test_closed_form_matches_enumeration(self, q):
        fs = field(q)
        for d in range(4):
            for k in (1, 2, 3):
                diff = power_sum(fs, d, k, 20) - power_sum_enum(fs, d, k, 20)
                assert diff.is_zero_to_prec()

    def test_high_degree_from_cold_rows(self):
        # the rows up to degree 1200 are built in one loop, not one call
        # frame per degree
        fs = field(2)
        _gamma_rows.table.pop((fs, 0, 10), None)
        val = power_sum(fs, 1200, 1, 10)
        assert val.is_zero_to_prec() and val.N == 10


def fq(q):
    return field(2, 2) if q == 4 else field(q)


POWER_SUM_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
                    8: (2, 3), 9: (3, 2)}


@st.composite
def power_sum_args(draw):
    """(q, d, k, prec): k up to q^2 + q, the multiples of q and q^2 drawn
    as often as the rest."""
    q = draw(st.sampled_from(sorted(POWER_SUM_FIELDS)))
    k = draw(st.one_of(st.integers(1, q * q + q),
                       st.integers(1, q + 1).map(lambda j: j * q),
                       st.just(q * q)))
    return q, draw(st.integers(0, 5)), k, draw(st.integers(1, 400))


class TestPowerSumTwist:
    @given(args=power_sum_args())
    @settings(max_examples=60, deadline=None)
    def test_matches_recurrence(self, args):
        # S_d(k) for q | k is the twist of S_d(k/q); the reference runs the
        # b-recurrence for every k
        q, d, k, prec = args
        fs = field(*POWER_SUM_FIELDS[q])
        got = power_sum(fs, d, k, prec)
        want = power_sum_recurrence(fs, d, k, prec)
        assert (got.v, got.coeffs, got.N) == (want.v, want.coeffs, want.N)
        # the literal sum makes q^d k products: d <= 2, capped in work
        if d <= 2 and q**d * k <= 3000:
            assert (got - power_sum_enum(fs, d, k, prec)).is_zero_to_prec()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_no_products_for_k_equal_q(self, d, monkeypatch):
        fs = field(5)
        power_sum(fs, d, 1, 2000)
        power_sum.table.pop((fs, d, 5, 2000), None)
        want = power_sum_recurrence(fs, d, 5, 2000)
        calls = []
        monkeypatch.setattr(type(fs), "conv", lambda *a: calls.append(a))
        got = power_sum(fs, d, 5, 2000)
        monkeypatch.undo()
        assert calls == [] and got == want

    def test_memo_order(self):
        # the same values, to the byte, in any order and from empty tables
        requests = [(q, d, k, prec) for q in (2, 3, 4) for d in range(4)
                    for k in (1, 2, q, q + 1, 2 * q, q * q)
                    for prec in (30, 95, 400)]

        def answers(seed):
            order = list(requests)
            random.Random(seed).shuffle(order)
            got = {r: json.dumps(power_sum(fq(r[0]), *r[1:]).to_dict())
                   for r in order}
            return [got[r] for r in requests]

        first = answers(1)
        assert answers(2) == first
        power_sum.table.clear()
        zeta._gamma_rows.table.clear()
        assert answers(3) == first


def deg_l(q, d):
    return sum(q**i for i in range(1, d + 1))


def linear_cutoff(s, prec, q):
    """The cutoff the certified one replaced: prec // min(s) + 3 degrees."""
    return prec // min(s) + 3


class TestDegreeCutoff:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_power_sum_valuation_bound(self, q):
        # N lies above every bound, so each value comes from the DP itself
        fs = fq(q)
        for d in range(5):
            N = max(12 * d, deg_l(q, d)) + 1
            for k in range(1, 13):
                bound = max(d * k, deg_l(q, d))
                assert power_sum(fs, d, k, N).residual_valuation() >= min(N, bound)

    def test_k_times_deg_l_is_no_bound(self):
        # S_1(3) over F_2 = theta^-3 + (theta + 1)^-3 has valuation 4, below
        # k * deg l_1 = 6
        fs = field(2)
        for val in (power_sum(fs, 1, 3, 20), power_sum_enum(fs, 1, 3, 20)):
            assert val.v == 4

    def test_short_circuit_builds_no_rows(self):
        fs = field(3)
        _gamma_rows.table.pop((fs, 0, 40), None)
        val = power_sum(fs, 3, 1, 40)  # deg l_3 = 39 < 40: computed
        assert val.v == 39 and val.N == 40
        _gamma_rows.table.pop((fs, 0, 39), None)
        power_sum.table.pop((fs, 3, 1, 39), None)
        val = power_sum(fs, 3, 1, 39)  # deg l_3 = 39 >= 39: zero, no rows
        assert val.is_zero_to_prec() and val.N == 39
        assert (fs, 0, 39) not in _gamma_rows.table

    @given(q=st.sampled_from([2, 3, 4, 5]),
           s=st.lists(st.integers(1, 8), min_size=1, max_size=3).map(tuple),
           prec=st.integers(1, 200), star=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_linear_cutoff(self, q, s, prec, star):
        # the reference sums prec // min(s) + 3 degrees with power sums from
        # the full DP: no short cut, no memo
        fs = fq(q)
        got = mzv(fs, s, star=star, prec=prec).value
        with mock.patch.object(zeta, "mzv_cutoff", linear_cutoff), \
                mock.patch.object(zeta, "power_sum", power_sum.__wrapped__), \
                mock.patch.object(zeta, "_power_sum_floor", lambda q, d, k: 0):
            want = mzv(fs, s, star=star, prec=prec).value
        assert (got.v, got.coeffs, got.N) == (want.v, want.coeffs, want.N)

    def test_cutoff_is_logarithmic(self):
        assert zeta.mzv_cutoff((1,), 2500, 2) == 11
        assert zeta.mzv_cutoff((1, 2, 3), 1500, 3) == 7
        assert zeta.mzv_cutoff((40,), 100, 2) == 3

    def test_high_precision_builds_few_power_sums(self):
        fs = field(2)
        prec = 20000
        for key in [k for k in power_sum.table if k[3] == prec]:
            del power_sum.table[key]
        val = mzv(fs, (1,), prec=prec).value
        assert val.N == prec
        assert len([k for k in power_sum.table if k[3] == prec]) <= 20

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("star", [False, True])
    def test_brute_default_cutoff_matches_dp(self, q, star):
        fs = field(q)
        for s in [(1,), (2,), (1, 2), (2, 1), (3, 1)]:
            assert mzv_brute(fs, s, star=star).value == mzv(fs, s, star=star, prec=20).value



class TestMZV:
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("star", [False, True])
    def test_dp_matches_brute_force(self, q, star):
        # literal enumeration below degree D agrees to valuation D*min(s)
        fs = field(q)
        D = 6
        for s in [(1,), (2,), (1, 2), (2, 1), (1, 1, 2)]:
            a = mzv(fs, s, star=star, prec=30).value
            b = mzv_brute(fs, s, star=star, prec=30, D=D).value
            assert (a - b).truncate(D * min(s)).is_zero_to_prec()

    @given(s=indices())
    @settings(max_examples=15, deadline=None)
    def test_dp_matches_brute_force_random(self, s):
        fs = field(2)
        D = 5
        a = mzv(fs, s, prec=30).value
        b = mzv_brute(fs, s, prec=30, D=D).value
        assert (a - b).truncate(D * min(s)).is_zero_to_prec()

    @pytest.mark.parametrize("q,s", [(2, (1,)), (2, (2, 1)), (3, (1,)),
                                     (3, (2, 1))])
    def test_deformed_route_agrees(self, q, s):
        fs = field(q)
        a = mzv_deformed(fs, s, prec=25).value
        b = mzv(fs, s, prec=25).value
        assert (a - b).is_zero_to_prec()


class TestPolylog:
    @pytest.mark.parametrize("s", [(1, 1), (2, 1)])
    def test_star_is_strict_plus_diagonal(self, s):
        # shells with >= split as shells with > plus the collapsed diagonal
        fs = field(2)
        one = RatFunc.one(fs)
        a = polylog(fs, s, (one, one), star=True, prec=25)
        b = polylog(fs, s, (one, one), prec=25)
        c = polylog(fs, (s[0] + s[1],), (one,), prec=25)
        assert (a - b - c).is_zero_to_prec()

    def test_alternating_arguments_match_series(self):
        # fresh argument objects on every call: a cache keyed by object
        # identity could hand one argument's jet to the other
        fs = field(2)
        prec = 20
        want = {}
        for u in (RatFunc.one(fs), RatFunc.theta(fs)):
            acc, i = RatFunc.zero(fs), 0
            # the i-th term has valuation deg L_i - q^i deg u, rising with i
            while l_poly(fs, i).degree() - fs.q**i * u.num.degree() < prec:
                acc = acc + RatFunc(u.num.pow(fs.q**i), l_poly(fs, i))
                i += 1
            want[u.num.degree()] = acc.laurent(N=prec)
        for k in range(40):
            u = RatFunc.one(fs) if k % 2 == 0 else RatFunc.theta(fs)
            got = polylog(fs, (1,), [u], prec=prec)
            assert laurent_eq_to_prec(got, want[u.num.degree()], prec)

    def test_depth_one_at_one_is_zeta(self):
        fs = field(3)
        a = polylog(fs, (2,), (RatFunc.one(fs),), prec=25)
        b = mzv(fs, (2,), prec=25).value
        assert (a - b).is_zero_to_prec()

    @pytest.mark.parametrize("prec", [30, 40])
    def test_rational_argument_with_growing_twist(self, prec):
        # u = theta^3 / (theta + 1): the twisted numerator outgrows the
        # square of the twisted denominator, so a denominator cut at the
        # quotient's own precision would be zero to that precision
        fs = field(2)
        th = RatFunc.theta(fs)
        u = th * th * th / (th + RatFunc.one(fs))
        acc, i = RatFunc.zero(fs), 0
        # the i-th term has valuation 2 deg L_i - q^i (deg num - deg den)
        while 2 * l_poly(fs, i).degree() - 2 * fs.q**i < prec:
            L = l_poly(fs, i)
            acc = acc + RatFunc(u.num.pow(fs.q**i), u.den.pow(fs.q**i) * L * L)
            i += 1
        got = polylog(fs, (2,), [u], prec=prec)
        assert got.N == prec and laurent_eq_to_prec(got, acc.laurent(N=prec), prec)

    def test_later_argument_on_the_boundary_converges(self):
        # |u_2| = q^{s_2 q/(q-1)} sits on the boundary, which only the first
        # argument (paired with the largest index i_1) must stay off
        fs = field(2)
        th = RatFunc.theta(fs)
        u1, u2 = RatFunc.one(fs) / th, th * th
        acc = RatFunc.zero(fs)
        # term (i_1, i_2) has degree 4 - 3 q^{i_1}, below -30 from i_1 = 5 on
        for i1 in range(6):
            for i2 in range(i1):
                k1, k2 = fs.q**i1, fs.q**i2
                acc = acc + RatFunc(
                    u1.num.pow(k1) * u2.num.pow(k2),
                    u1.den.pow(k1) * u2.den.pow(k2)
                    * l_poly(fs, i1) * l_poly(fs, i2))
        got = polylog(fs, (1, 1), [u1, u2], prec=30)
        assert got.N == 30 and laurent_eq_to_prec(got, acc.laurent(N=30), 30)

    @pytest.mark.parametrize("s,num,den,arg", [
        # u_1 on its boundary: deg(u_1^{q^i} / L_i) = 2 for every i
        ((1, 2), (1, 0, 0, 1, 1), (1, 0, 1), 1),
        # u_2 past its boundary
        ((1, 1), (0, 0, 0, 1), (1,), 2),
    ])
    def test_outside_the_domain_is_rejected(self, s, num, den, arg):
        fs = field(2)
        u = [RatFunc(APoly(fs, num), APoly(fs, den)),
             RatFunc.one(fs) / RatFunc.theta(fs)]
        if arg == 2:
            u.reverse()
        with pytest.raises(ValueError, match="argument %d" % arg):
            polylog(fs, s, u, prec=2)


def linv_dense(fs, j, M):
    """1/(t - theta^{q^j}) = -sum_k theta^{-q^j (k+1)} t^k, exactly."""
    neg = fs.neg(fs.one)
    return TateTrunc(fs, [PrecisionLaurent(fs, fs.q**j * (k + 1), (neg,))
                          for k in range(M + 1)], M)


class TestDeformedSeries:
    @pytest.mark.parametrize("q,i,s,M", [(2, 3, 1, 8), (2, 2, 3, 6),
                                         (3, 2, 2, 5), (5, 1, 4, 4),
                                         (3, 1, 1, 0)])
    def test_ll_inv_recurrence_matches_dense_product(self, q, i, s, M):
        fs = field(q)
        want = TateTrunc.one(fs, M)
        for j in range(1, i + 1):
            for _ in range(s):
                want = want * linv_dense(fs, j, M)
        got = _ll_inv_tate(fs, i, s, M)
        assert got.M == M
        assert [(c.v, c.coeffs, c.N) for c in got.coeffs] == [
            (c.v, c.coeffs, c.N) for c in want.coeffs]

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_twisted_shell_coefficients_match_the_monomial_builder(self, q):
        # c^{q^i} to relative precision rel: the cut polynomial spread, or
        # the fraction converted to ceil(rel / q^i) digits and then twisted,
        # against the twist written one monomial at a time
        fs = field(*POWER_SUM_FIELDS[q])
        t, one = RatFunc.theta(fs), RatFunc.one(fs)
        cs = [RatFunc.zero(fs), one, t, t * t * t + t + t, one / t,
              (t + one) / (t * t), t * t * t / (t + one)]
        for c, i, rel in itertools.product(cs, range(7), (1, 5, 40)):
            got, want = _frob_laurent_rel(c, i, rel), frob_laurent_rel(c, i, rel)
            assert (got.v, got.coeffs, got.N) == (want.v, want.coeffs, want.N)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_depth_one_strict_and_weak_agree(self, q, s):
        fs = field(q)
        strict = lseries_tate(fs, (s,), star=False, M=6, prec=20)
        weak = lseries_tate(fs, (s,), star=True, M=6, prec=20)
        assert strict.coeffs == weak.coeffs


def rows(x):
    return [(c.v, c.coeffs, c.N) for c in x.coeffs]


def shape_with(fs, s, scaled):
    """The AT shape of s, or one whose Q_m are H_{s_m} / (theta + 1)^7, so
    that the twisted coefficients are rational functions, not polynomials."""
    if not scaled:
        return at_shape(fs, s)
    c = RatFunc.one(fs)
    for _ in range(7):
        c = c * (RatFunc.theta(fs) + RatFunc.one(fs)).inv()
    return MotiveShape(fs, s, tuple(anderson_thakur(fs, si).scale(c)
                                    for si in s), "ExtGeneric")


def lseries_reference(pairs, star, prec, term, zero, imax=64):
    """The shell sum with the weak chains' inner sum prefix + G formed
    apart from the prefix update, kept as the reference."""
    k = len(pairs)
    prefix = [zero] * k
    stable, seen = 0, False
    for i in range(imax + 1):
        G = [None] * k
        for m in range(k - 1, -1, -1):
            s, Q = pairs[m]
            T = term(s, Q, i)
            if m == k - 1:
                G[m] = T
            else:
                inner = (prefix[m + 1] + G[m + 1]) if star else prefix[m + 1]
                G[m] = T * inner
        for m in range(k):
            prefix[m] = prefix[m] + G[m]
        val = G[0].min_residual_valuation()
        if val is not None:
            seen = True
        stable = stable + 1 if (seen and (val is None or val >= prec)
                                and G[0].settled(prefix[0])) else 0
        if stable >= 2 and i + 1 >= k:
            return prefix[0]
    raise AssertionError("reference did not stop")


def uncapped_term(fs, M, rel, s, Q, i):
    """Q^(i), row n to N = v + rel, times the exact LL_i^(-s): the shell
    term built afresh at the series' own rel, with no table and no
    ceiling."""
    qt = TateTrunc(fs, [zeta._frob_laurent_rel(Q[n], i, rel)
                        for n in range(min(M, Q.degree()) + 1)], M)
    return qt if i == 0 else qt * _ll_inv_tate(fs, i, s, M)


def capped_term(fs, M, rel, s, Q, i):
    """uncapped_term with every row then cut at the ceiling rel."""
    return uncapped_term(fs, M, rel, s, Q, i).truncate(rel)


def series_reference(fs, s, Q, star, M, prec):
    """lseries_tate by the reference shell sum and terms."""
    rel = prec + _rel_guard(fs, s)
    return lseries_reference(list(zip(s, Q)), star, prec,
                             partial(capped_term, fs, M, rel),
                             TateTrunc.zero(fs, M))


def sgn(x, n):
    return x if n % 2 == 0 else -x


def residuals_reference(row):
    """inversion_residuals with each side's terms negated by their sign
    and summed, then subtracted, kept as the reference."""
    L, Ls, z = row.L, row.Lstar, TateTrunc.zero(row.shape.fs, row.M)
    out = {}
    for (a, b) in L:
        rhs = z
        for k in range(a + 1, b):
            rhs = rhs + sgn(L[(a, k)] * Ls[(k, b)], k - 1)
        rhs = rhs + sgn(L[(a, b)], b - 1)
        r1 = (sgn(Ls[(a, b)], a) - rhs).min_residual_valuation()
        rhs = z
        for k in range(a + 1, b):
            rhs = rhs + sgn(L[(k, b)] * Ls[(a, k)], k)
        rhs = rhs + sgn(L[(a, b)], a)
        r2 = (sgn(Ls[(a, b)], b - 1) - rhs).min_residual_valuation()
        vals = [v for v in (r1, r2) if v is not None]
        out[(a, b)] = min(vals) if vals else None
    return out


class TestTermTable:
    @given(q=st.sampled_from([2, 3, 4]), s=indices(max_weight=6),
           M=st.integers(1, 6), prec=st.integers(1, 30), scaled=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_row_intervals_match_per_interval_series(self, q, s, M, prec, scaled):
        # each interval of the row takes its shell terms from the row's
        # table, built at the widest window; a per-interval call builds its
        # own, and so does the reference, at the interval's window and
        # with the same ceiling
        fs = fq(q)
        shape = shape_with(fs, s, scaled)
        row = deformed_row(shape, n_terms=M, prec=prec)
        for (a, b) in row.L:
            sub, Q = s[a - 1:b - 1], shape.Q[a - 1:b - 1]
            for star, got, sub, Q in ((False, row.L[(a, b)], sub, Q),
                                      (True, row.Lstar[(a, b)], sub[::-1], Q[::-1])):
                want = series_reference(fs, sub, Q, star, M, prec)
                assert rows(got) == rows(want)
                assert rows(lseries_tate(fs, sub, Q=Q, star=star, M=M,
                                         prec=prec)) == rows(want)

    @pytest.mark.parametrize("q,s", [(2, (1, 2, 1)), (3, (2, 1, 3)),
                                     (2, (3, 3)), (3, (1, 1, 1))])
    def test_each_term_built_once_at_the_widest_window(self, q, s):
        # a term is Q^(i) from _tpoly_tate_rel, times LL_i^(-s) when i > 0
        fs = field(q)
        made, products, depth = [], [], []
        tpoly, ll_inv = zeta._tpoly_tate_rel, zeta._ll_inv_tate

        def spy_tpoly(Q, i, M, rel):
            made.append((Q, i, rel))
            return tpoly(Q, i, M, rel)

        def spy_ll_inv(fs, i, s, M):
            # its recursion on i - 1 comes through here too: count only the
            # outermost call, which pairs with the last Q^(i)
            if not depth:
                Q, j, _ = made[-1]
                assert j == i
                products.append((s, Q, i))
            depth.append(i)
            try:
                return ll_inv(fs, i, s, M)
            finally:
                depth.pop()

        with mock.patch.object(zeta, "_tpoly_tate_rel", spy_tpoly), \
                mock.patch.object(zeta, "_ll_inv_tate", spy_ll_inv):
            deformed_row(at_shape(fs, s), n_terms=6, prec=22)
        W = 22 + _rel_guard(fs, s)
        assert products and all(rel == W for _, _, rel in made)
        assert len(products) == len(set(products))

    @pytest.mark.parametrize("q,s", [(2, (1, 2, 1)), (3, (2, 1, 3)),
                                     (2, (3, 3)), (3, (1, 1, 1))])
    def test_each_term_lowered_once_per_window(self, q, s):
        # every interval shorter than s takes its terms lowered to its own
        # window; the table keeps each lowered term, so one row builds each
        # shell term once and lowers it at most once per distinct window
        fs = field(q)
        built, lowered = [], []
        shell_term, lower = zeta._shell_term, TateTrunc.lower_precision

        def spy_term(si, Q, i, M, C):
            got = shell_term(si, Q, i, M, C)
            built.append(((si, Q, i), got))
            return got

        def spy_lower(self, d):
            lowered.append((id(self), d))
            return lower(self, d)

        with mock.patch.object(zeta, "_shell_term", spy_term), \
                mock.patch.object(TateTrunc, "lower_precision", spy_lower):
            deformed_row(at_shape(fs, s), n_terms=6, prec=22)
        keys = [key for key, _ in built]
        assert len(keys) == len(set(keys))
        assert lowered and len(lowered) == len(set(lowered))
        assert {t for t, _ in lowered} <= {id(got) for _, got in built}
        windows = {_rel_guard(fs, s) - _rel_guard(fs, s[a:b])
                   for a in range(len(s)) for b in range(a + 1, len(s) + 1)}
        assert {d for _, d in lowered} <= windows - {0}

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("s", [(1, 2), (2, 1, 1), (1, 3, 2), (3, 1, 2)])
    def test_inversion_residuals_match_negated_sums(self, q, s):
        # an unshared deformed row, so a wrong sign shows as a residual
        for shape in (at_shape(field(q), s), star_shape(field(q), s)):
            row = deformed_row(shape, n_terms=6, prec=22)
            assert row.inversion_residuals() == residuals_reference(row)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("s", [(1, 2), (2, 1, 1), (1, 1, 1), (3, 2)])
    @pytest.mark.parametrize("star", [False, True])
    def test_shell_sum_matches_reference(self, q, s, star):
        fs = field(q)
        pairs = [(si, anderson_thakur(fs, si)) for si in s]
        rel = 20 + _rel_guard(fs, s)

        def tate(si, Q, i):
            return _shell_term(si, Q, i, 5, rel)

        def jet(si, Q, i):
            return _jet_term(si, Q, i, 2, rel + 2)

        zero = TateTrunc.zero(fs, 5)
        got = lseries_raw(pairs, star, 20, tate, zero)
        assert rows(got) == rows(lseries_reference(pairs, star, 20, tate, zero))
        zero = LocalJet.zero_jet(2, PrecisionLaurent.zero(fs))
        got = lseries_raw(pairs, star, 20, jet, zero)
        want = lseries_reference(pairs, star, 20, jet, zero)
        assert [(c.v, c.coeffs, c.N) for c in got.orders] == \
            [(c.v, c.coeffs, c.N) for c in want.orders]


class TestCertificate:
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("star", [False, True])
    def test_rows_agree_with_higher_precision_below_their_N(self, q, star):
        # what a row claims below its N is what prec + 40 computes there
        fs = field(q)
        P, M = 20, 6
        for s in compositions(5, 3):
            lo = lseries_tate(fs, s, star=star, M=M, prec=P)
            hi = lseries_tate(fs, s, star=star, M=M, prec=P + 40)
            for a, b in zip(lo.coeffs, hi.coeffs):
                if a.N is None:
                    assert b == a
                else:
                    assert b.N is None or b.N >= a.N
                    assert (a - b).truncate(a.N).is_zero_to_prec()


def exact_depth_one(fs, s, Q, M, N):
    """sum_i Q^(i) LL_i^(-s) to order M with exact rational t-coefficients,
    over the shells up to the second in a row whose rows all have
    valuation >= N (the shells' valuations rise with i)."""

    def tmul(a, b):
        out = [RatFunc.zero(fs)] * (M + 1)
        for i, x in enumerate(a):
            for j in range(M + 1 - i):
                out[i + j] = out[i + j] + x * b[j]
        return out

    acc = [RatFunc.zero(fs)] * (M + 1)
    ll = [RatFunc.one(fs)] + [RatFunc.zero(fs)] * M
    i, small = 0, 0
    while small < 2:
        if i > 0:
            # 1/(t - c) = -sum_k t^k / c^(k+1), c = theta^(q^i)
            c = RatFunc.from_apoly(APoly.monomial(fs, fs.q**i))
            f, ck = [], c
            for _ in range(M + 1):
                f.append(-ck.inv())
                ck = ck * c
            for _ in range(s):
                ll = tmul(ll, f)
        term = tmul([Q[n].frobenius(i) for n in range(M + 1)], ll)
        acc = [x + y for x, y in zip(acc, term)]
        vals = [x.den.degree() - x.num.degree() for x in term if not x.is_zero()]
        small = small + 1 if all(v >= N for v in vals) else 0
        i += 1
    return acc


def assert_agrees_with_uncapped(fs, shape, M, prec, star):
    """Every interval of the deformed row, and the series of the whole
    index, agree with prec + 40 and uncapped terms below their N, and no N
    passes the reference's."""
    s = shape.s
    row = deformed_row(shape, n_terms=M, prec=prec)
    got = [(s, shape.Q, star,
            lseries_tate(fs, s, Q=shape.Q, star=star, M=M, prec=prec))]
    for (a, b) in row.L:
        sub, Q = s[a - 1:b - 1], shape.Q[a - 1:b - 1]
        got.append((sub, Q, False, row.L[(a, b)]))
        got.append((sub[::-1], Q[::-1], True, row.Lstar[(a, b)]))
    P = prec + 40
    for sub, Q, weak, x in got:
        rel = P + _rel_guard(fs, sub)
        ref = lseries_raw(list(zip(sub, Q)), weak, P,
                          partial(uncapped_term, fs, M, rel), TateTrunc.zero(fs, M))
        for a, b in zip(x.coeffs, ref.coeffs):
            if a.N is None:
                assert b == a
            else:
                assert b.N is None or b.N >= a.N
                assert (a - b).truncate(a.N).is_zero_to_prec()


# a deformed row, as JSON, computed here after other calls and cold in a
# fresh interpreter
ROW_JSON = """
import hashlib
import itertools
import json
from tmzv.motive import at_shape
from tmzv.scalars import field
from tmzv.zeta import deformed_row
row = deformed_row(at_shape(field(3), (2, 1, 3)), n_terms=4, prec=20)
print(json.dumps({kind: {"%d,%d" % k: [c.to_dict() for c in v.coeffs]
                         for k, v in sorted(t.items())}
                  for kind, t in (("L", row.L), ("Lstar", row.Lstar))},
                 sort_keys=True))
"""


class TestCeiling:
    @given(q=st.sampled_from([2, 3, 4]), s=indices(max_weight=6),
           M=st.integers(1, 6), prec=st.integers(1, 30), star=st.booleans())
    # shell 3 of (1, 1) over F_2 has valuation 14, past prec 1 but below
    # the rows' N = 17: the shells stop only once they are zero to that N
    @example(q=2, s=(1, 1), M=1, prec=1, star=False)
    @settings(max_examples=25, deadline=None)
    def test_rows_agree_with_uncapped_reference(self, q, s, M, prec, star):
        # every strict and weak interval of a deformed row, and the series
        # of the whole index, against prec + 40 with no ceiling on the terms
        assert_agrees_with_uncapped(fq(q), at_shape(fq(q), s), M, prec, star)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_jet_orders_agree_with_higher_precision(self, q):
        # every order of lseries_jet, below its N, against the same call at
        # prec + 40; the constant twisting entries 1, theta and
        # theta^3/(theta + 1) take turns over (D, star, prec), each where
        # the index lies in its convergence domain
        fs = fq(q)
        th, one = RatFunc.theta(fs), RatFunc.one(fs)
        us = (one, th, th * th * th * (th + one).inv())
        for s in ((1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (3, 1), (2, 1, 1)):
            inside = itertools.cycle([u for u in us if not any(
                zeta.outside_polylog_domain(
                    q, si, u.num.degree() - u.den.degree(), m == 0)
                for m, si in enumerate(s))])
            for D, star, prec in itertools.product((1, 2, 3), (False, True),
                                                   (5, 10, 20, 30)):
                Q = (TPoly.const(fs, next(inside)),) * len(s)
                lo = zeta.lseries_jet(fs, s, Q=Q, star=star, D=D, prec=prec)
                hi = zeta.lseries_jet(fs, s, Q=Q, star=star, D=D, prec=prec + 40)
                for j in range(D):
                    a, b = lo.orders[j], hi.orders[j]
                    if a.N is None:
                        assert b == a
                    else:
                        assert b.N is None or b.N >= a.N
                        assert (a - b).truncate(a.N).is_zero_to_prec()

    @pytest.mark.parametrize("q,s,M,scaled", [(3, (2,), 2, True),
                                               (4, (3,), 3, False)])
    def test_row_zero_in_every_summed_shell_is_not_exact(self, q, s, M, scaled):
        # row M of (t - theta^q)^(-s) is zero in characteristic p (its
        # binomial factor is 3 and 10), so shell 1 is zero there, and shell
        # 2 is not: a zero term row is zero to precision rel, not exact
        fs = fq(q)
        assert_agrees_with_uncapped(fs, shape_with(fs, s, scaled), M, 1, False)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_term_rows_at_the_ceiling(self, q, i):
        # row k of a shell term is known to min(N_k, C), N_k its precision
        # with no ceiling; 1 + theta^5 t has its least valuation in row 1,
        # which leaves the product's row 0 past C until the product is cut
        fs = field(q)
        C, M = 20, 4
        for Q in (anderson_thakur(fs, q + 1), TPoly.zero(fs),
                  TPoly(fs, [RatFunc(APoly.one(fs)),
                             RatFunc(APoly.monomial(fs, 5))])):
            for s in (1, 2, 3):
                got = zeta._shell_term(s, Q, i, M, C)
                want = uncapped_term(fs, M, C, s, Q, i)
                for a, b in zip(got.coeffs, want.coeffs):
                    assert a.N == (C if b.N is None else min(b.N, C))
                    assert (a - b).truncate(a.N).is_zero_to_prec()

    def test_row_does_not_depend_on_earlier_calls(self, capsys):
        fs = field(3)
        shape = at_shape(fs, (2, 1, 3))
        for M, prec in ((6, 30), (2, 9), (4, 12), (3, 20)):
            deformed_row(shape, n_terms=M, prec=prec)
            lseries_tate(fs, shape.s, Q=shape.Q, M=M, prec=prec)
        exec(ROW_JSON, {})
        warm = json.loads(capsys.readouterr().out)
        src = os.path.dirname(os.path.dirname(os.path.abspath(zeta.__file__)))
        cold = subprocess.run([sys.executable, "-c", ROW_JSON],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert json.loads(cold.stdout) == warm

    def test_rational_coefficients_with_growing_twist(self):
        # Q = H_5 / (theta + 1) over F_2: the twisted numerator outgrows the
        # square of the twisted denominator
        fs = field(2)
        c = (RatFunc.theta(fs) + RatFunc.one(fs)).inv()
        Q = anderson_thakur(fs, 5).scale(c)
        row = deformed_row(MotiveShape(fs, (5,), (Q,), "ExtGeneric"),
                           n_terms=1, prec=1)
        got = row.L[(1, 2)]
        assert row.Lstar[(1, 2)].coeffs == got.coeffs
        N = max(x.N for x in got.coeffs)
        for x, want in zip(got.coeffs, exact_depth_one(fs, 5, Q, 1, N)):
            assert x.N >= 1
            assert (x - want.laurent(N=x.N)).is_zero_to_prec()


ROWS_PATH = os.path.join(os.path.dirname(__file__), "data", "deformed_rows.json")


def stored_row_shapes():
    """(name, q, s) of every pinned deformed row: weight <= 6 and depth <= 3
    at q = 2 and 3, weight <= 4 and depth <= 3 at q = 4."""
    return [("q=%d s=%s" % (q, ",".join(map(str, s))), q, s)
            for q, w in ((2, 6), (3, 6), (4, 4)) for s in compositions(w, 3)]


def deformed_row_digest(fs, s):
    """sha256 of the canonical JSON of deformed_row(at_shape(fs, s), 6, 22):
    every L and Lstar series through to_dict, keyed "a,b"."""
    row = deformed_row(at_shape(fs, s), n_terms=6, prec=22)
    doc = {name: {"%d,%d" % k: tate_dict(x) for k, x in sorted(series.items())}
           for name, series in (("L", row.L), ("Lstar", row.Lstar))}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def write_stored_rows():
    """Regenerate tests/data/deformed_rows.json from the present code."""
    digests = {name: deformed_row_digest(fq(q), s)
               for name, q, s in stored_row_shapes()}
    with open(ROWS_PATH, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


class TestStoredRows:
    # every deformed row of the inclusion-exclusion range, hashed, against
    # the stored digests; a change of storage or arithmetic in the Tate
    # layer must leave each series as it was, v, N and digits alike
    def test_rows_match_stored_digests(self):
        with open(ROWS_PATH) as f:
            want = json.load(f)
        got = {name: deformed_row_digest(fq(q), s)
               for name, q, s in stored_row_shapes()}
        assert len(got) == 96
        assert got == want


class TestCompositions:
    def test_weight_six_depth_three_count(self):
        tuples = list(compositions(6, 3))
        assert len(tuples) == 41
        assert all(1 <= len(s) <= 3 and sum(s) <= 6 for s in tuples)


class TestCheckReports:
    def test_carlitz(self):
        rep = carlitz_check(field(2), prec=30)
        assert rep["pass"] and rep["residual_valuation"] >= 30

    def test_depth_one(self):
        rep = depth_one_check(field(2), 2, prec=25)
        assert rep["pass"]

    def test_stark_unit_star(self):
        rep = stark_unit_check(star_shape(field(2), (1, 3)), prec=25,
                               split=False)
        assert rep["pass"]

    def test_inversion(self):
        rep = inversion_check(at_shape(field(2), (1, 2)), prec=25)
        assert rep["pass"]

    def test_strange_formula(self):
        rep = strange_formula_check(field(2), prec=25)
        assert rep["pass"]

    def test_cm(self):
        rep = cm_check(field(2), (1, 1), prec=20)
        assert rep["pass"]
