"""Dual t-motives, sigma-reduction maps, special points, golden examples."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import star_dimension, t_minus_theta, tpoly_pow
from tmzv.motive import (MotiveShape, _tm_theta_pow, at_shape, build_motive,
                         delta0, delta1, sigma_basis, special_point,
                         split_decomposition, split_recomposes, star_shape,
                         tmodule_of)
from tmzv.scalars import APoly, RatFunc, field
from tmzv.tlayer import TPoly
from tmzv.tmodule import _ExactScalars, _theta_jet_products


def _ap(fs, *coeffs):
    return RatFunc.from_apoly(APoly(fs, tuple(coeffs)))


def _theta_matrix(E):
    """E'_theta as strings 'd+k*tau^j' for compact golden comparison:
    each entry is (dtheta entry, [tau^1 entry, tau^2 entry, ...])."""
    d = E.d
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            row.append((E.dtheta[i][j], tuple(M[i][j] for M in E.taus)))
        out.append(row)
    return out


class TestShapes:
    def test_block_dims(self):
        fs = field(3)
        shape = at_shape(fs, (2, 4))
        assert shape.block_dims == (6, 4)
        assert shape.dim == 10

    def test_sigma_basis_order(self):
        fs = field(3)
        labels = sigma_basis(at_shape(fs, (2, 4)))
        assert labels[0] == (1, 5)
        assert labels[5] == (1, 0)
        assert labels[6] == (2, 3)
        assert labels[-1] == (2, 0)

    def test_norm_condition_enforced(self):
        fs = field(2)
        bad = TPoly.const(fs, RatFunc.from_apoly(APoly.theta(fs).pow(9)))
        with pytest.raises(ValueError):
            MotiveShape(fs, (1,), (bad,), "AT")

    @pytest.mark.parametrize("degs,ok", [((2, -1), True), ((-1, 2), False),
                                         ((3, -1), False), ((2, 1), True)])
    def test_norm_condition_strict_only_at_the_last_entry(self, degs, ok):
        # Q_r is the first argument of the shape's polylogarithm, so only it
        # must stay off the boundary deg Q = s q/(q - 1) = 2
        fs = field(2)
        one = APoly.one(fs)
        Q = tuple(TPoly.const(fs, RatFunc(APoly.monomial(fs, d), one) if d >= 0
                              else RatFunc(one, APoly.monomial(fs, -d)))
                  for d in degs)
        if ok:
            MotiveShape(fs, (1, 1), Q, "Star")
        else:
            with pytest.raises(ValueError, match="norm condition"):
                MotiveShape(fs, (1, 1), Q, "Star")


class TestShapeRecord:
    """MotiveShape is a frozen record, equal and hashed by value."""

    def test_equal_by_value_across_fresh_builds(self):
        a, b = at_shape(field(3), (1, 2)), at_shape(field(3), (1, 2))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != star_shape(field(3), (1, 2))
        assert a != at_shape(field(3), (2, 1))

    def test_unequal_to_the_tuple_of_its_fields(self):
        a = at_shape(field(3), (1, 2))
        assert a != (a.fs, a.s, a.Q, a.model)

    def test_fields_cannot_be_assigned(self):
        a = at_shape(field(3), (1, 2))
        with pytest.raises(AttributeError):
            a.s = (2, 1)
        with pytest.raises(AttributeError):
            del a.model
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a.s == (1, 2) and a.model == "AT"

    def test_validation_messages(self):
        fs = field(2)
        one = TPoly.one(fs)
        big = TPoly.const(fs, RatFunc.from_apoly(APoly.theta(fs).pow(9)))
        for args, message in [
                (((1,), (one,), "Other"), "unknown model 'Other'"),
                (((), (), "AT"), "composition entries must be positive"),
                (((1, 0), (one, one), "AT"),
                 "composition entries must be positive"),
                (((1, 1), (one,), "AT"),
                 "need one twisting polynomial per entry"),
                (((1,), (TPoly.zero(fs),), "AT"),
                 "twisting polynomials must be nonzero"),
                (((1,), (big,), "AT"), "norm condition fails at the last entry"),
                (((1, 1), (big, one), "Star"),
                 "norm condition fails at entry 1")]:
            with pytest.raises(ValueError) as exc:
                MotiveShape(fs, *args)
            assert str(exc.value) == message

    def test_a_fresh_shape_hits_the_memo_entry(self):
        fs = field(3)
        sc = _ExactScalars(fs)
        first = _theta_jet_products(at_shape(fs, (1, 2)), sc, 3)
        size = len(_theta_jet_products.table)
        assert _theta_jet_products(at_shape(fs, (1, 2)), sc, 3) is first
        assert len(_theta_jet_products.table) == size


class TestStarDimension:
    def test_known_values(self):
        assert star_dimension((1, 1, 2)) == 7
        assert star_dimension((1, 3)) == 5

    @given(n=st.integers(min_value=1, max_value=12))
    def test_depth_one(self, n):
        assert star_dimension((n,)) == n

    def test_star_shape_dimension_agrees(self):
        fs = field(2)
        for s in [(1, 3), (1, 1, 2)]:
            shape = star_shape(fs, tuple(reversed(s)))
            assert shape.dim == star_dimension(s)


class TestDelta:
    def test_delta1_on_basis(self):
        fs = field(2)
        shape = star_shape(fs, (3, 1))
        d = shape.dim
        for k, (ell, j) in enumerate(sigma_basis(shape)):
            # (t - theta)^j m_ell
            f = TPoly.one(fs)
            for _ in range(j):
                f = f * t_minus_theta(fs)
            coords = [TPoly.zero(fs) for _ in range(shape.r)]
            coords[ell - 1] = f
            col = delta1(coords, shape)
            want = [RatFunc.zero(fs)] * d
            want[k] = RatFunc.one(fs)
            assert [x for x in col] == want

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_delta1_kills_sigma_minus_one(self, data):
        fs = field(2)
        shape = star_shape(fs, (2, 1))
        # random polynomial element m: delta1(sigma m - m) = 0
        deg = data.draw(st.integers(min_value=0, max_value=2))
        coords = []
        for _ in range(shape.r):
            cs = [_ap(fs, *[data.draw(st.integers(0, 1)) for _ in range(2)])
                  for _ in range(deg + 1)]
            coords.append(TPoly(fs, cs))
        # sigma(x m) = Phi-weighted coordinates with a +1 twist cancelled by
        # choosing the test element with q-th-power coefficients
        M = build_motive(shape)
        coords_q = [TPoly(fs, [c.frobenius(1) for c in f.coeffs])
                    for f in coords]
        sig = []
        for ell in range(shape.r):
            acc = TPoly.zero(fs)
            for k in range(shape.r):
                ent = M[k][ell]
                if not ent.is_zero():
                    acc = acc + ent.twist(-1) * coords[k]
            sig.append(acc)
        diff = [a - b for a, b in zip(sig, coords_q)]
        out = delta1(diff, shape)
        assert all(x.is_zero() for x in out)

    def test_delta0_beyond_window_vanishes(self):
        fs = field(2)
        shape = star_shape(fs, (3, 1))
        d1 = shape.block_dims[0]
        f = TPoly.one(fs)
        for _ in range(d1):
            f = f * t_minus_theta(fs)
        sc = _ExactScalars(fs)
        col = delta0([f.jet(d1, sc),
                      TPoly.zero(fs).jet(shape.block_dims[1], sc)], shape)
        assert all(x.is_zero() for x in col)


class TestThetaPower:
    # the closed form of (t - theta^(q^w))^d against the power multiplied
    # out in TPoly arithmetic and then twisted
    @pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_closed_form_matches_power_and_twist(self, p, m):
        fs = field(p, m)
        for w in range(3):
            for d in range(13):
                got = _tm_theta_pow(fs, d, w)
                want = tpoly_pow(t_minus_theta(fs), d).twist(w)
                assert [(c.num.coeffs, c.den.coeffs) for c in got.coeffs] == \
                    [(c.num.coeffs, c.den.coeffs) for c in want.coeffs]
                assert hash(got) == hash(want)


class TestGoldenAT:
    def test_q3_s24(self):
        fs = field(3)
        E = tmodule_of(at_shape(fs, (2, 4)))
        z, one, th = RatFunc.zero(fs), RatFunc.one(fs), RatFunc.theta(fs)
        assert E.d == 10 and len(E.taus) == 1
        tau = E.taus[0]
        # superdiagonal companion blocks 6 | 4
        for i in range(10):
            for j in range(10):
                want = th if i == j else (
                    one if (j == i + 1 and i != 5 and i != 9) else z)
                assert E.dtheta[i][j] == want
        expect_tau = {(5, 0): one, (5, 6): -one, (9, 6): one}
        for i in range(10):
            for j in range(10):
                assert tau[i][j] == expect_tau.get((i, j), z)
        v = special_point(at_shape(fs, (2, 4)))
        two = one + one
        assert v == [z, z, one, z, one, _ap(fs, 0, 1, 0, 2), two, z, two,
                     _ap(fs, 0, 2, 0, 1)]

    def test_q3_s42(self):
        fs = field(3)
        E = tmodule_of(at_shape(fs, (4, 2)))
        z, one = RatFunc.zero(fs), RatFunc.one(fs)
        assert E.d == 8
        tau = E.taus[0]
        coupling = _ap(fs, 0, 1, 0, 2)  # theta + 2 theta^3
        expect_tau = {(2, 6): one, (4, 6): one, (5, 0): one,
                      (5, 6): coupling, (7, 6): one}
        for i in range(8):
            for j in range(8):
                assert tau[i][j] == expect_tau.get((i, j), z)
        v = special_point(at_shape(fs, (4, 2)))
        assert v == [z, z, one, z, one, coupling, z, one]


class TestGoldenStar:
    def test_q2_s31(self):
        # reversed index (1,3); display plus the forced corner tau
        fs = field(2)
        E = tmodule_of(star_shape(fs, (3, 1)))
        z, one = RatFunc.zero(fs), RatFunc.one(fs)
        assert E.d == 5
        tau = E.taus[0]
        gam3 = _ap(fs, 0, 1, 1)  # theta^2 + theta
        expect_tau = {(2, 4): one, (3, 0): one, (3, 4): gam3, (4, 4): one}
        for i in range(5):
            for j in range(5):
                assert tau[i][j] == expect_tau.get((i, j), z)
        v = special_point(star_shape(fs, (3, 1)))
        assert [-x for x in v] == [z, z, z, z, one]

    def test_general_q_s211(self):
        # reversed index (1,1,2); display plus the forced corner tau
        for q in (2, 3):
            fs = field(q)
            E = tmodule_of(star_shape(fs, (2, 1, 1)))
            z, one = RatFunc.zero(fs), RatFunc.one(fs)
            assert E.d == 7
            tau = E.taus[0]
            expect_tau = {(3, 0): one, (3, 4): one, (5, 4): one,
                          (5, 6): one, (6, 6): one}
            for i in range(7):
                for j in range(7):
                    assert tau[i][j] == expect_tau.get((i, j), z)
            v = special_point(star_shape(fs, (2, 1, 1)))
            assert [-x for x in v] == [z, z, z, z, z, z, one]


class TestSplitDecomposition:
    @pytest.mark.parametrize("q,s,model", [
        (2, (3, 1), "star"), (2, (2, 1, 1), "star"),
        (2, (1, 2), "at"), (2, (1, 3), "at"), (3, (2, 4), "at")])
    def test_recomposes(self, q, s, model):
        fs = field(q)
        shape = star_shape(fs, s) if model == "star" else at_shape(fs, s)
        dec = split_decomposition(shape)
        assert split_recomposes(shape, dec)

    def test_depth_one_single_triple(self):
        fs = field(2)
        dec = split_decomposition(star_shape(fs, (2,)))
        assert len(dec) == 1


class TestIntegrality:
    @pytest.mark.parametrize("q,s,model", [
        (2, (3, 1), "star"), (3, (2, 4), "at"), (2, (1, 2), "at")])
    def test_special_point_in_A(self, q, s, model):
        fs = field(q)
        shape = star_shape(fs, s) if model == "star" else at_shape(fs, s)
        for x in special_point(shape):
            assert x.is_poly()

    @pytest.mark.parametrize("q,s,model", [
        (2, (3, 1), "star"), (3, (2, 4), "at")])
    def test_module_entries_in_A(self, q, s, model):
        fs = field(q)
        shape = star_shape(fs, s) if model == "star" else at_shape(fs, s)
        E = tmodule_of(shape)
        for M in [E.dtheta] + list(E.taus):
            for row in M:
                for x in row:
                    assert x.is_poly()


class TestDepthOneCollapse:
    def test_both_models_coincide(self):
        fs = field(2)
        one_q = (TPoly.one(fs),)
        at_ = MotiveShape(fs, (3,), one_q, "AT")
        st_ = MotiveShape(fs, (3,), one_q, "Star")
        assert build_motive(at_)[0][0] == build_motive(st_)[0][0]
