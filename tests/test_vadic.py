"""nu-adic places, the windowed nu-adic scalars, and nu-adic zeta values.

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

from reference import depth_one_nu_sum, monic_enumerate, nu_reduce
from tmzv import vadic
from tmzv.motive import special_point, star_shape, tmodule_of
from tmzv.scalars import MEMO_TABLES, APoly, PrecisionError, RatFunc, field
from tmzv.tlayer import bracket
from tmzv.vadic import (NuAdic, NuPlace, _NuAdicScalars, a_nu, nu_inv,
                        nu_mod, nu_split, zeta_nu, zeta_nu_check)


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

    def test_validation_messages(self):
        for q, coeffs, message in [(2, (0, 0, 1), "nu must be irreducible"),
                                   (2, (1, 0, 1), "nu must be irreducible"),
                                   (2, (), "nu must be monic"),
                                   (3, (1, 2), "nu must be monic")]:
            with pytest.raises(ValueError) as exc:
                NuPlace(APoly(field(q), coeffs))
            assert str(exc.value) == message

    def test_a_frozen_record_equal_by_value(self):
        a, b = q2_place(), q2_place()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != NuPlace(APoly.theta(field(2)))
        assert a != (a.nu,)
        with pytest.raises(AttributeError):
            a.nu = APoly.theta(field(2))
        with pytest.raises(AttributeError):
            del a.nu
        assert repr(a) == "NuPlace(%r)" % (a.nu,) == "NuPlace(θ^2 + θ + 1)"

    def test_a_fresh_place_hits_the_memo_entry(self):
        first = vadic._nu_pow(q2_place(), 3)
        size = len(vadic._nu_pow.table)
        assert vadic._nu_pow(q2_place(), 3) is first
        assert len(vadic._nu_pow.table) == size

    def test_valuation(self):
        pl = q2_place()
        fs = pl.fs
        assert nu_split(APoly.zero(fs), pl)[0] is None
        assert nu_split(APoly.theta(fs), pl)[0] == 0
        assert nu_split(pl.nu * pl.nu * APoly.theta(fs), pl)[0] == 2

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
        if a.is_zero() or nu_split(a, pl)[0] != 0:
            return
        m = 6
        assert nu_mod(a * nu_inv(a, pl, m) - APoly.one(fs), pl, m).is_zero()


class TestNuAdic:
    def test_a_frozen_record_equal_by_value(self):
        pl = q2_place()
        fs = pl.fs
        a = NuAdic.from_unit(pl, 1, APoly(fs, (1, 1)), 6)
        b = NuAdic(q2_place(), a.v, APoly(fs, a.unit.coeffs), 6)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != NuAdic(pl, a.v, a.unit, 7)
        assert a != (a.place, a.v, a.unit, a.N)
        for name in ("place", "v", "unit", "N"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
        assert a.N == 6

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


class TestNuAdicScalars:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_arithmetic_matches_exact_reduction(self, data):
        # sums, differences, products and twists in the windowed scalars,
        # on operands that may carry a 1/[k], against exact arithmetic in
        # K reduced mod nu^N: each
        # result agrees with the exact one below its tracked N, keeps at
        # most `window` digits past its leading one, and claims no more
        # digits than its operands carry.  The operands run past nu^window,
        # so a result that claimed more would show digits the window cut.
        q = data.draw(st.sampled_from([2, 3, 4]))
        pl = data.draw(st.sampled_from(places(q, data.draw(st.integers(1, 2)))))
        fs = pl.fs
        W = data.draw(st.integers(1, 6))
        sc = _NuAdicScalars(pl, W)

        def operand():
            a = APoly(fs, tuple(data.draw(st.integers(0, fs.q - 1))
                                for _ in range(data.draw(st.integers(0, 14)))))
            a = a * pl.nu.pow(data.draw(st.integers(0, 3)))
            x, exact = sc.conv(a), RatFunc.from_apoly(a)
            k = data.draw(st.integers(0, 3))
            if k:
                ib = sc.inv_bracket(k)
                assert ib.N - ib.v == W
                assert ib.eq_to_prec(nu_reduce(
                    RatFunc(APoly.one(fs), bracket(fs, k)), pl, ib.N), ib.N)
                x, exact = x * ib, exact / RatFunc.from_apoly(bracket(fs, k))
            return x, exact

        def most(*xs):
            return min((x.N for x in xs if not x.is_zero()), default=None)

        (x, ex), (y, ey) = operand(), operand()
        i = data.draw(st.integers(1, 2))
        inf = float("inf")
        cases = [(x + y, ex + ey, most(x, y)), (x - y, ex - ey, most(x, y)),
                 (x.frobenius(i), ex.frobenius(i),
                  None if x.is_zero() else q**i * x.N)]
        if not (x.is_zero() or y.is_zero()):
            cases.append((x * y, ex * ey, min(x.v + y.N, y.v + x.N)))
        for got, want, bound in cases:
            if got.is_zero():
                assert want.is_zero() and bound is None
                continue
            assert got.N <= (inf if bound is None else bound)
            assert got.N - got.v <= W
            assert got.eq_to_prec(nu_reduce(want, pl, got.N), got.N)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_inv_bracket_matches_exact_reduction(self, data):
        # a numerator times a product of powers of 1/[k], each factor in
        # the windowed scalars, against the exact rational function reduced
        # mod nu^N: it agrees below its tracked N, which is the window less
        # the valuation of the denominator
        q = data.draw(st.sampled_from([2, 3, 4]))
        pl = data.draw(st.sampled_from(places(q, data.draw(st.integers(1, 2)))))
        fs = pl.fs
        W = data.draw(st.integers(1, 8))
        sc = _NuAdicScalars(pl, W)
        num = APoly(fs, tuple(data.draw(st.integers(0, fs.q - 1))
                              for _ in range(data.draw(st.integers(1, 6)))))
        if num.is_zero():
            num = APoly.one(fs)
        num = num * pl.nu.pow(data.draw(st.integers(0, 2)))
        ks = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3,
                                unique=True))
        got, den, vden = sc.conv(num), APoly.one(fs), 0
        for k in ks:
            e = data.draw(st.integers(1, 3))
            for _ in range(e):
                got = got * sc.inv_bracket(k)
            den = den * bracket(fs, k).pow(e)
            vden += e if k % pl.f == 0 else 0
        assert got.N == W - vden
        if nu_split(num, pl)[0] < W:
            assert got.v == nu_split(num, pl)[0] - vden
        assert got.eq_to_prec(nu_reduce(RatFunc(num, den), pl, got.N), got.N)


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

    def test_alternating_fields_with_fresh_places(self):
        # a cache keyed by object identity could hand a power of the q = 2
        # place to the q = 3 one
        for k in range(40):
            fs = field(2 if k % 2 == 0 else 3)
            _, diag = zeta_nu(fs, (1,), NuPlace(APoly.theta(fs)), K=6)
            assert diag["bound_ok"]

    def test_a_term_short_of_its_certificate_raises(self):
        # at a window too narrow for term 1 to reach nu^10, the log sum
        # raises rather than report digits it does not know
        fs = field(3)
        pl = NuPlace(APoly.theta(fs))
        shape = star_shape(fs, (2, 1))
        sc = _NuAdicScalars(pl, 4)
        Z = vadic._contracted_point(shape, sc, a_nu(shape, pl))
        with pytest.raises(PrecisionError, match="term 1 falls short"):
            vadic.nu_log_eval(shape, sc, Z, 10)

    def test_a_value_short_of_K_raises(self, monkeypatch):
        # a window of one digit leaves the contracted point O(nu), so the
        # value is known to nu^1 only, and zeta_nu refuses to cut it to K
        scalars = vadic._NuAdicScalars
        monkeypatch.setattr(vadic, "_NuAdicScalars",
                            lambda place, window: scalars(place, 1))
        fs = field(3)
        with pytest.raises(PrecisionError, match=r"known to nu\^1, below"):
            zeta_nu(fs, (1,), NuPlace(APoly.theta(fs)), K=8)

    def test_contraction_independence_q3(self):
        fs = field(3)
        rep = zeta_nu_check(fs, (1,), NuPlace(APoly.theta(fs)), K=6)
        assert rep["pass"]


# the depth-one cases of the interpolated-sum oracle, as (q, nu, s): 14 of
# the 24 values are nonzero mod nu^8
DEPTH_ONE_CASES = (
    [(3, (0, 1), s) for s in (1, 3, 5, 7, 9, 11)]
    + [(3, (1, 0, 1), s) for s in (1, 3, 5, 7)]
    + [(4, (0, 1), s) for s in (1, 2, 3, 5, 6, 7)]
    + [(2, (1, 1, 1), s) for s in (1, 3, 5)]
    + [(5, (2, 1), s) for s in (1, 2, 3, 6, 7)])


@pytest.mark.parametrize("q,nu,s", DEPTH_ONE_CASES, ids=[
    "q=%d nu=%s s=%d" % (q, ",".join(map(str, nu)), s)
    for q, nu, s in DEPTH_ONE_CASES])
def test_depth_one_matches_interpolated_sum(q, nu, s):
    # an oracle outside the logarithm route: Gamma_s nu^s/(nu^s - 1) times
    # the sum of a^(-s) over the monic a prime to nu, which settles mod
    # nu^8 by degree 4 (degree 3 at q = 4, 5)
    fs = {2: field(2), 3: field(3), 4: field(2, 2), 5: field(5)}[q]
    pl = NuPlace(APoly(fs, nu))
    v, diag = zeta_nu(fs, (s,), pl, K=8)
    assert diag["bound_ok"] and v.N == 8
    want = depth_one_nu_sum(fs, s, pl, 8, 5 if q <= 3 else 4)
    assert v.eq_to_prec(want, 8)


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
    # the memo entries of shapes, log terms, transition products and
    # inverses serve any later
    # request, so the order of the requests, and whether the entries exist
    # at all, must not change a value or its diagnostics

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
        for table in MEMO_TABLES:
            table.clear()
        third = self.answers(requests)
        assert len(first) == 40
        assert first == second == third
