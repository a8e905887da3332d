"""Pinned outputs of the series built from pole jets at t = theta: raw
deformed L-series jets, the period basis and the logarithm series of the
polylogarithm special points and of the split-decomposition pieces.

Regenerate tests/data/series_jets.json with write_stored_series_jets().
"""

import hashlib
import json
import os

from tmzv.motive import (MotiveShape, at_shape, special_point,
                         split_decomposition, star_shape, tmodule_of)
from tmzv.scalars import PrecisionLaurent, RatFunc, field
from tmzv.tlayer import TPoly, _is_exact_zero
from tmzv.tmodule import log_eval, period_basis
from tmzv.zeta import lseries_jet

SERIES_JETS_PATH = os.path.join(os.path.dirname(__file__), "data",
                                "series_jets.json")


def _digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _jet_dict(jet):
    """The pinned form of a jet: D, and its orders from the first to the
    last that is not an exact zero, with the index of the first as shift
    (D when every order is an exact zero)."""
    D = len(jet.orders)
    live = [j for j, c in enumerate(jet.orders) if not _is_exact_zero(c)]
    lo, hi = (live[0], live[-1] + 1) if live else (D, D)
    return {"shift": lo, "D": D,
            "coeffs": [c.to_dict() for c in jet.orders[lo:hi]]}


def _vectors_dict(vs):
    return [[x.to_dict() for x in v] for v in vs]


def _name(s):
    return ",".join(map(str, s))


def _u_values(fs):
    """1, theta and theta^3/(theta + 1): constant, polynomial and rational
    twisting entries."""
    th = RatFunc.theta(fs)
    one = RatFunc.one(fs)
    return (("1", one), ("theta", th),
            ("theta^3/(theta+1)", th * th * th * (th + one).inv()))


def stored_series_jets():
    """sha256 of the canonical JSON (v, N and digits of every scalar) of
    every pinned jet, period basis and logarithm value."""
    out = {}
    for q in (2, 3):
        fs = field(q)
        for s in ((1, 2), (2, 1), (3,)):
            for D in (1, 2, 4):
                for star in (False, True):
                    out["lseries_jet q=%d s=%s D=%d %s" % (
                        q, _name(s), D, "star" if star else "strict")] = \
                        _digest(_jet_dict(lseries_jet(fs, s, star=star, D=D,
                                                      prec=30)))
        for label, u in _u_values(fs):
            for D in (1, 3):
                out["lseries_jet q=%d s=2 u=%s D=%d" % (q, label, D)] = \
                    _digest(_jet_dict(lseries_jet(
                        fs, (2,), Q=(TPoly.const(fs, u),), D=D, prec=30)))
        for make, model in ((at_shape, "at"), (star_shape, "star")):
            for s in ((1, 2), (2, 1)):
                out["period_basis q=%d s=%s %s" % (q, _name(s), model)] = \
                    _digest(_vectors_dict(period_basis(make(fs, s), prec=20)))
        for s in ((1, 1), (1, 2), (2, 1)):
            shape = MotiveShape(fs, s, tuple(TPoly.const(fs, RatFunc.one(fs))
                                             for _ in s), "AT")
            v = log_eval(tmodule_of(shape), special_point(shape), prec=40)
            out["log_eval cm q=%d s=%s u=1" % (q, _name(s))] = \
                _digest(_vectors_dict([v]))
    fs = field(2)
    for make, model, s in ((star_shape, "star", (3, 1)),
                           (star_shape, "star", (2, 1, 1)),
                           (star_shape, "star", (2, 1)),
                           (at_shape, "at", (1, 2))):
        shape = make(fs, s)
        E = tmodule_of(shape)
        for k, (n, u) in enumerate(split_decomposition(shape)):
            out["log_eval split q=2 s=%s %s piece=%d n=%d" % (
                _name(s), model, k, n)] = _digest(_vectors_dict(
                    [log_eval(E, u, prec=40)]))
    return out


def _monomial_denominator_u(fs):
    """1/theta and (theta + 1)/theta^2: twisting entries whose denominator
    is a power of theta."""
    th = RatFunc.theta(fs)
    one = RatFunc.one(fs)
    return (("1/theta", th.inv()),
            ("(theta+1)/theta^2", (th + one) * (th * th).inv()))


def monomial_denominator_jets():
    """Jets of L(2) with Q = (u,) whose u has a monomial denominator, as
    (v, coefficient codes, N) per coefficient of u^m, m < D (prime fields,
    so a code is the digit)."""
    out = {}
    for q in (2, 3):
        fs = field(q)
        for label, u in _monomial_denominator_u(fs):
            for D in (1, 3):
                jet = lseries_jet(fs, (2,), Q=(TPoly.const(fs, u),), D=D,
                                  prec=30)
                out["q=%d u=%s D=%d" % (q, label, D)] = [
                    [c.v, list(c.coeffs), c.N] for c in jet.orders]
    return out


def write_stored_series_jets():
    """Regenerate tests/data/series_jets.json from the present code."""
    with open(SERIES_JETS_PATH, "w") as f:
        json.dump({"digests": stored_series_jets(),
                   "monomial_denominator": monomial_denominator_jets()},
                  f, indent=1, sort_keys=True)
        f.write("\n")


def _stored():
    with open(SERIES_JETS_PATH) as f:
        return json.load(f)


class TestStoredSeriesJets:
    # the raw L-series jets, the period basis and the logarithm values,
    # hashed, against the stored digests: a change of route to the same
    # values must leave every scalar as it was, v, N and digits alike
    def test_series_match_stored_digests(self):
        got = stored_series_jets()
        # 48 L-series jets, 8 period bases, 6 special points, 5 pieces
        assert len(got) == 67
        assert got == _stored()["digests"]


class TestMonomialDenominator:
    # where u has a monomial denominator theta^k, the jet of its series
    # may carry more digits than the stored one: every stored digit below
    # the stored N must still hold, and no coefficient may lose precision
    def test_jet_agrees_below_stored_precision(self):
        stored = _stored()["monomial_denominator"]
        for q in (2, 3):
            fs = field(q)
            for label, u in _monomial_denominator_u(fs):
                for D in (1, 3):
                    jet = lseries_jet(fs, (2,), Q=(TPoly.const(fs, u),), D=D,
                                      prec=30)
                    want = stored["q=%d u=%s D=%d" % (q, label, D)]
                    got = jet.orders
                    assert len(got) == len(want) == D
                    for c, (v, coeffs, N) in zip(got, want):
                        old = PrecisionLaurent(fs, v, coeffs, N=N)
                        assert c.N is None or c.N >= N
                        cut = c.truncate(N)
                        assert (cut.v, cut.coeffs, cut.N) == \
                            (old.v, old.coeffs, old.N)
