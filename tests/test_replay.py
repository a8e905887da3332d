"""Memo replay: every answer of a seeded stream, served in one process with
whatever earlier requests left in the memo tables, equals the answer the
same request gets from empty tables (scalars.MEMO_TABLES), byte for byte in
to_dict.  The precisions of the stream overlap across requests, so an entry
that leaked one precision into another request, or one field, index or
place into another, would show as a differing answer."""

import json
import random

import pytest

from tmzv import zeta
from tmzv.motive import at_shape, star_shape
from tmzv.scalars import MEMO_TABLES, APoly, RatFunc, field
from tmzv.tmodule import TModule, exp_eval, log_eval
from tmzv.vadic import NuPlace, zeta_nu

FIELDS = {2: (2,), 3: (3,), 4: (2, 2), 5: (5,)}
PLACES = {2: ((0, 1), (1, 1), (1, 1, 1)), 3: ((0, 1), (2, 1), (1, 0, 1))}
PRECS = range(20, 121, 4)


def request(rng):
    """One request of the stream: a plain tuple, built from rng alone."""
    kind = rng.choice(("mzv", "mzv", "polylog", "lseries", "zeta_nu",
                       "exp_log", "inversion"))
    q = rng.choice(sorted(FIELDS))
    prec = rng.choice(PRECS)
    if kind == "mzv":
        s = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
        return kind, q, s, rng.random() < 0.5, prec
    if kind == "polylog":
        return kind, rng.choice((2, 3)), rng.randint(1, 3), rng.randint(0, 1), prec
    if kind == "lseries":
        s = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 2)))
        return kind, q, s, rng.random() < 0.5, prec
    if kind == "zeta_nu":
        q = rng.choice((2, 3))
        return kind, q, rng.choice(PLACES[q]), rng.randint(1, 2), rng.randint(4, 8)
    if kind == "exp_log":
        return kind, rng.choice((2, 3)), rng.randint(1, 2), rng.choice(PRECS[:6])
    return (kind, rng.choice((2, 3)), rng.choice(((1,), (2,), (1, 1), (2, 1))),
            rng.randint(2, 4), rng.choice(PRECS[:4]))


def answer(req):
    """The request's answer as canonical JSON: every series by to_dict."""
    kind, q = req[:2]
    fs = field(*FIELDS[q])
    if kind == "mzv":
        s, star, prec = req[2:]
        got = zeta.mzv(fs, s, star=star, prec=prec)
        out = [got.value.to_dict(), got.route, got.star]
    elif kind == "polylog":
        s, u, prec = req[2:]
        arg = APoly.one(fs) if u == 0 else APoly.theta(fs)
        out = zeta.polylog(fs, (s,), [arg], prec=prec).to_dict()
    elif kind == "lseries":
        s, star, prec = req[2:]
        out = zeta.lseries_value(fs, s, star=star, prec=prec).to_dict()
    elif kind == "zeta_nu":
        nu, s, K = req[2:]
        v, diag = zeta_nu(fs, (s,), NuPlace(APoly(fs, nu)), K=K)
        out = [v.to_dict(), diag]
    elif kind == "exp_log":
        n, prec = req[2:]
        E = TModule.carlitz_tensor(fs, n)
        z = [RatFunc.zero(fs)] * (n - 1) + [RatFunc.one(fs)]
        v = exp_eval(E, z, prec=prec)
        out = [[x.to_dict() for x in v],
               [x.to_dict() for x in log_eval(E, v, prec=prec)]]
    else:
        s, n_terms, prec = req[2:]
        shape = (star_shape if len(s) > 1 else at_shape)(fs, s)
        out = zeta.inversion_check(shape, n_terms=n_terms, prec=prec)
    return json.dumps(out, sort_keys=True, default=str)


def clear_memo():
    for table in MEMO_TABLES:
        table.clear()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_answer_equals_its_cold_answer(seed):
    rng = random.Random(seed)
    stream = [request(rng) for _ in range(60)]
    clear_memo()
    warm = [answer(req) for req in stream]
    assert sum(len(table) for table in MEMO_TABLES) > 0
    cold = []
    for req in stream:
        clear_memo()
        cold.append(answer(req))
    for req, a, b in zip(stream, warm, cold):
        assert a == b, req
