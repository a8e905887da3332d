"""nu-adic places, factored scalars, and nu-adic zeta values.

Regenerate tests/data/zeta_nu.json with write_stored_zeta_nu().
"""

import functools
import hashlib
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import monic_enumerate, nu_reduce
from tmzv import vadic
from tmzv.motive import special_point, star_shape, tmodule_of
from tmzv.scalars import APoly, RatFunc, field
from tmzv.tlayer import bracket
from tmzv.vadic import (FactoredScalar, NuPlace, a_nu, nu_inv, nu_mod,
                        nu_split, nu_valuation, zeta_nu, zeta_nu_check)


@functools.lru_cache(maxsize=None)
def places(q, f):
    """Every place of residue degree f over F_q."""
    fs = {2: field(2), 3: field(3), 4: field(2, 2), 9: field(3, 2)}[q]
    out = []
    for nu in monic_enumerate(fs, f):
        try:
            out.append(NuPlace(nu))
        except ValueError:
            pass
    return out


def split_by_one_power(a, pl):
    """(v_nu(a), a / nu^v) from one division by nu per power."""
    v = 0
    while True:
        quo, rem = divmod(a, pl.nu)
        if not rem.is_zero():
            return v, a
        a, v = quo, v + 1


def q2_place():
    fs = field(2)
    return NuPlace(APoly(fs, (1, 1, 1)))


class TestNuPlace:
    def test_residue_degree(self):
        assert q2_place().f == 2

    def test_reducible_rejected(self):
        fs = field(2)
        with pytest.raises(ValueError):
            NuPlace(APoly(fs, (1, 0, 1)))  # (theta + 1)^2

    def test_valuation(self):
        pl = q2_place()
        fs = pl.fs
        assert nu_valuation(APoly.zero(fs), pl) is None
        assert nu_valuation(APoly.theta(fs), pl) == 0
        assert nu_valuation(pl.nu * pl.nu * APoly.theta(fs), pl) == 2

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_split_recovers_unit_and_power(self, data):
        # places of degree 1-3 over F_2, F_3, F_4 and F_9, against one
        # division by nu per power
        q = data.draw(st.sampled_from([2, 3, 4, 9]))
        pl = data.draw(st.sampled_from(places(q, data.draw(st.integers(1, 3)))))
        fs = pl.fs
        unit = APoly(fs, tuple(data.draw(st.integers(0, fs.q - 1))
                               for _ in range(data.draw(st.integers(1, 12)))))
        if nu_mod(unit, pl, 1).is_zero():
            unit = unit + APoly.one(fs)
        k = data.draw(st.integers(0, 40))
        a = unit * pl.nu.pow(k)
        assert nu_split(a, pl) == split_by_one_power(a, pl) == (k, unit)
        assert nu_valuation(a, pl) == k
        assert nu_split(APoly.zero(fs), pl) == (None, APoly.zero(fs))

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    @pytest.mark.parametrize("f", [1, 2])
    def test_split_divisions_grow_with_log_of_valuation(self, q, f,
                                                        monkeypatch):
        # v = 64 takes a handful of divisions by powers of nu, where one
        # division per power would take 65
        pl = places(q, f)[-1]
        fs = pl.fs
        rng = random.Random(q * 10 + f)
        calls = []
        divmod_apoly = APoly.__divmod__

        def counted(a, b):
            calls.append(1)
            return divmod_apoly(a, b)

        for deg in (0, 1, 7, 200):
            unit = APoly(fs, [rng.randrange(fs.q) for _ in range(deg)]
                         + [rng.randrange(1, fs.q)])
            if nu_mod(unit, pl, 1).is_zero():
                unit = unit + APoly.one(fs)
            a = unit * pl.nu.pow(64)
            calls.clear()
            monkeypatch.setattr(APoly, "__divmod__", counted)
            got = nu_split(a, pl)
            monkeypatch.setattr(APoly, "__divmod__", divmod_apoly)
            assert got == (64, unit)
            assert len(calls) <= 20

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_inverse_multiplies_back(self, data):
        pl = q2_place()
        fs = pl.fs
        cs = [data.draw(st.integers(0, 1)) for _ in range(4)]
        a = APoly(fs, tuple(cs))
        if a.is_zero() or nu_valuation(a, pl) != 0:
            return
        m = 6
        assert nu_mod(a * nu_inv(a, pl, m) - APoly.one(fs), pl, m).is_zero()


class TestNuAdic:
    def test_eq_to_prec(self):
        pl = q2_place()
        fs = pl.fs
        a = nu_reduce(RatFunc.theta(fs), pl, 6)
        b = nu_reduce(RatFunc.theta(fs) + RatFunc.from_apoly(
            pl.nu.pow(4)), pl, 6)
        assert a.eq_to_prec(b, 4)
        assert not a.eq_to_prec(b, 6)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reduce_digits_recompose(self, data):
        # x = nu^k u / w with u, w prime to nu and k of either sign: the
        # digits recompose x nu^(-v) mod nu^(N - v), and v = min(k, N)
        fs = data.draw(st.sampled_from([field(2), field(3), field(2, 2)]))
        places = []
        for deg in (1, 2):
            for nu in monic_enumerate(fs, deg):
                try:
                    places.append(NuPlace(nu))
                except ValueError:
                    pass
        pl = data.draw(st.sampled_from(places))

        def unit():
            a = APoly(fs, tuple(data.draw(st.integers(0, fs.q - 1))
                                for _ in range(data.draw(st.integers(1, 5)))))
            return a if not nu_mod(a, pl, 1).is_zero() else a + APoly.one(fs)

        u, w = unit(), unit()
        k = data.draw(st.integers(-3, 3))
        N = data.draw(st.integers(-2, 6))
        num, den = u * pl.nu.pow(max(k, 0)), w * pl.nu.pow(max(-k, 0))
        d = nu_reduce(RatFunc(num, den), pl, N).to_dict()
        v = d["v"]
        assert v == min(k, N) and d["prec"] == N
        y = APoly.zero(fs)
        for i, dg in enumerate(d["digits"]):
            assert len(dg) <= pl.f
            y = y + APoly(fs, tuple(dg)) * pl.nu.pow(i)
        assert nu_mod(y * w - u * pl.nu.pow(k - v), pl, N - v).is_zero()

    def test_serialization_keys(self):
        pl = q2_place()
        d = nu_reduce(RatFunc.one(pl.fs), pl, 5).to_dict()
        assert {"nu", "v", "digits", "prec"} <= set(d)


class TestFactoredScalars:
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_reduction_compatible_with_exact(self, data):
        # arithmetic in the factored subring, then reduction, matches exact
        # rational arithmetic followed by reduction
        pl = q2_place()
        fs = pl.fs
        def draw_pair():
            num = APoly.one(fs) + APoly(fs, tuple(
                data.draw(st.integers(0, 1)) for _ in range(3)))
            e = data.draw(st.integers(0, 2))
            fac = FactoredScalar(fs, num, {1: e} if e else None)
            exact = RatFunc(num, bracket(fs, 1).pow(e))
            return fac, exact

        (fx, ex), (fy, ey) = draw_pair(), draw_pair()
        fac = fx * fy + fx - fy
        exact = ex * ey + ex - ey
        assert fac.to_nuadic(pl, 6).eq_to_prec(nu_reduce(exact, pl, 6), 6)


    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_to_nuadic_matches_exact_reduction(self, data):
        # one inverse of the product of the bracket powers gives the same
        # expansion as the exact rational function
        q = data.draw(st.sampled_from([2, 3, 4]))
        pl = data.draw(st.sampled_from(places(q, data.draw(st.integers(1, 2)))))
        fs = pl.fs
        num = APoly(fs, tuple(data.draw(st.integers(0, fs.q - 1))
                              for _ in range(data.draw(st.integers(1, 6)))))
        if num.is_zero():
            num = APoly.one(fs)
        num = num * pl.nu.pow(data.draw(st.integers(0, 2)))
        ks = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3,
                                unique=True))
        den = {k: data.draw(st.integers(1, 3)) for k in ks}
        exact = APoly.one(fs)
        for k, e in den.items():
            exact = exact * bracket(fs, k).pow(e)
        prec = data.draw(st.integers(1, 8))
        assert FactoredScalar(fs, num, den).to_nuadic(pl, prec) == \
            nu_reduce(RatFunc(num, exact), pl, prec)


class TestZetaNu:
    @pytest.mark.parametrize("s", [(1,), (3, 1)])
    def test_special_point_is_torsion_q2(self, s):
        # E_{a_nu} kills the special point exactly, so zeta_nu vanishes
        pl = q2_place()
        shape = star_shape(pl.fs, s)
        E = tmodule_of(shape)
        out = E.act(a_nu(shape, pl), special_point(shape))
        assert all(x.is_zero() for x in out)

    def test_depth_one_vanishes_q2(self):
        pl = q2_place()
        v, diag = zeta_nu(pl.fs, (1,), pl, K=8)
        assert v.is_zero_to_prec() and diag["bound_ok"]

    def test_depth_one_interpolated_sum_q3(self):
        # independent oracle at nu = theta: the interpolated Goss sum
        # (nu-factor removed) terminates at degree 2; multiplying back the
        # Euler factor nu/(nu - 1) recovers the logarithmic value
        fs = field(3)
        pl = NuPlace(APoly.theta(fs))
        v, diag = zeta_nu(fs, (1,), pl, K=8)
        assert diag["bound_ok"] and not v.is_zero_to_prec()
        m = 12
        acc = APoly.zero(fs)
        for d in range(6):
            for a in monic_enumerate(fs, d):
                if nu_valuation(a, pl) == 0:
                    acc = acc + nu_inv(a, pl, m)
        fac = nu_inv(pl.nu - APoly.one(fs), pl, m) * pl.nu
        want = nu_mod(acc * fac, pl, m)
        assert nu_mod(want - v.unit * pl.nu.pow(v.v), pl, 8).is_zero()

    def test_alternating_fields_with_fresh_places(self):
        # a cache keyed by object identity could hand a power of the q = 2
        # place to the q = 3 one
        for k in range(40):
            fs = field(2 if k % 2 == 0 else 3)
            _, diag = zeta_nu(fs, (1,), NuPlace(APoly.theta(fs)), K=6)
            assert diag["bound_ok"]

    def test_contraction_independence_q3(self):
        fs = field(3)
        rep = zeta_nu_check(fs, (1,), NuPlace(APoly.theta(fs)), K=6)
        assert rep["pass"]


ZETA_NU_PATH = os.path.join(os.path.dirname(__file__), "data", "zeta_nu.json")

# the places of the benchmark's session stream (perfbench/inputs.py
# SESSION_PLACES), as (q, coefficients of nu)
PINNED_PLACES = (
    (2, (0, 1)), (2, (1, 1)), (2, (1, 1, 1)), (2, (1, 1, 0, 1)),
    (3, (0, 1)), (3, (1, 1)), (3, (2, 1)), (3, (1, 0, 1)),
)


def _zeta_nu_digest(fs, s, nu, K):
    v, diag = zeta_nu(fs, s, NuPlace(APoly(fs, nu)), K=K)
    blob = json.dumps({"value": v.to_dict(), "diagnostics": diag},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def stored_zeta_nu():
    """sha256 of the canonical JSON of each pinned zeta_nu value and its
    diagnostics (terms, term valuations, bound test)."""
    out = {}
    cases = [(q, (1,), nu) for q, nu in PINNED_PLACES]
    cases.append((2, (2, 1), (1, 1, 1)))
    for q, s, nu in cases:
        fs = field(q)
        for K in (4, 8):
            out["q=%d s=%s nu=%s K=%d" % (
                q, ",".join(map(str, s)), ",".join(map(str, nu)), K)] = \
                _zeta_nu_digest(fs, s, nu, K)
    return out


def write_stored_zeta_nu():
    """Regenerate tests/data/zeta_nu.json from the present code."""
    with open(ZETA_NU_PATH, "w") as f:
        json.dump(stored_zeta_nu(), f, indent=1, sort_keys=True)
        f.write("\n")


class TestStoredZetaNu:
    # a faster route to the same valuations and inverses must leave every
    # value, term count and term valuation as it was
    def test_values_match_stored_digests(self):
        got = stored_zeta_nu()
        assert len(got) == 18
        with open(ZETA_NU_PATH) as f:
            assert got == json.load(f)


class TestMemoOrder:
    # the memo entries of shapes, log terms and inverses serve any later
    # request, so the order of the requests, and whether the entries exist
    # at all, must not change a value or its diagnostics
    TABLES = (vadic._shape_action, vadic._nu_log_term, vadic._den_inv,
              vadic.nu_inv)

    def answers(self, requests):
        out = {}
        for q, nu, K in requests:
            fs = field(q)
            v, diag = zeta_nu(fs, (1,), NuPlace(APoly(fs, nu)), K=K)
            out[q, nu, K] = (v, diag["terms"], diag.get("term_valuations"),
                             diag["bound_ok"])
        return out

    def test_order_and_cleared_tables_change_nothing(self):
        requests = [(q, nu, K) for q, nu in PINNED_PLACES for K in range(4, 9)]
        rng = random.Random(5)
        first = self.answers(rng.sample(requests, len(requests)))
        second = self.answers(rng.sample(requests, len(requests)))
        for fn in self.TABLES:
            fn.table.clear()
        third = self.answers(requests)
        assert len(first) == 40
        assert first == second == third
