"""The memo: value keys, its size bound, and no other cache in the package."""

import itertools
import pathlib
import re

import tmzv
from tmzv.motive import MotiveShape, g_vectors
from tmzv.scalars import MEMO_ENTRIES, RatFunc, field, memo
from tmzv.tlayer import TPoly
from tmzv.tmodule import _ExactScalars, _theta_jet_products, log_coeff_matrix
from tmzv.zeta import cm_check


def constant_shape(fs, u):
    return MotiveShape(fs, (1, 2), tuple(TPoly.const(fs, x) for x in u), "AT")


class TestValueKeys:
    # every call below builds its shape afresh, so an identity-keyed cache
    # could hand one u's entry to another u that reuses a freed id
    fs = field(2)
    us = list(itertools.product((RatFunc.one(fs), RatFunc.theta(fs)), repeat=2))

    def test_cycled_fresh_shapes_get_their_own_log_coefficients(self):
        kept = [constant_shape(self.fs, u) for u in self.us]
        want = [log_coeff_matrix(shape, 3) for shape in kept]
        for k in range(200):
            i = k % len(self.us)
            assert log_coeff_matrix(constant_shape(self.fs, self.us[i]), 3) == want[i]
        exact = _ExactScalars(self.fs)
        assert sum(shape in kept and sc == exact
                   for shape, sc, _ in _theta_jet_products.table) == 4

    def test_cycled_cm_checks_pass(self):
        for k in range(40):
            assert cm_check(self.fs, (1, 2), self.us[k % len(self.us)], prec=20)["pass"]
        kept = [constant_shape(self.fs, u) for u in self.us]
        assert sum(key[0] in kept for key in g_vectors.table) == 4


class TestBound:
    def test_oldest_entries_drop_and_values_stay_right(self):
        calls = []

        @memo
        def square(x):
            calls.append(x)
            return x * x

        for x in range(2 * MEMO_ENTRIES):
            assert square(x) == x * x
        assert len(square.table) == MEMO_ENTRIES
        assert next(iter(square.table)) == (MEMO_ENTRIES,)
        assert square(2 * MEMO_ENTRIES - 1) == (2 * MEMO_ENTRIES - 1) ** 2
        assert len(calls) == 2 * MEMO_ENTRIES
        assert square(0) == 0 and len(calls) == 2 * MEMO_ENTRIES + 1
        assert len(square.table) == MEMO_ENTRIES


def test_package_has_no_other_cache():
    # identity keys go stale when CPython reuses an id; lru_cache and
    # module-level dicts grow without the memo's bound
    banned = re.compile(r"(?<![\w.])id\(|lru_cache|^_\w*CACHE\w*\s*[:=]")
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(pathlib.Path(tmzv.__file__).parent.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []
