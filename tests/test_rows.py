"""The row arithmetic of PrecisionLaurent and TateTrunc (scalars._row_add,
_row_neg and _norm) against the tuple reference of tests/reference.py:
sums, differences, negations and cuts at N, with offset valuations and
all-zero results.  Rows are bytes over F_q with q <= 256 and p < 128, and
tuples over every other field, with the same answers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import row_add, row_neg, row_norm
from tmzv.scalars import APoly, PrecisionLaurent, _norm, _row_add, _row_neg, field

BYTE_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 7: (7, 1), 8: (2, 3),
               9: (3, 2), 25: (5, 2), 27: (3, 3), 243: (3, 5), 256: (2, 8)}
TUPLE_FIELDS = {131: (131, 1), 257: (257, 1)}
FIELDS = {**BYTE_FIELDS, **TUPLE_FIELDS}


def codes(fs):
    return st.one_of(st.just(0), st.just(fs.q - 1), st.integers(0, fs.q - 1))


@st.composite
def rows(draw, fs):
    """A stored row (v, N, coefficients), normalised by PrecisionLaurent."""
    v = draw(st.integers(-10, 10))
    cs = draw(st.lists(codes(fs), max_size=40))
    N = draw(st.one_of(st.none(), st.integers(v - 2, v + 45)))
    x = PrecisionLaurent(fs, v, cs, N=N)
    return x.v, x.N, x.coeffs


def row_type(fs, cs):
    return bytes if fs.byte_rows and cs else tuple


@pytest.mark.parametrize("q", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sum_difference_negation_match_the_tuple_reference(q, data):
    fs = field(*FIELDS[q])
    assert fs.byte_rows == (q in BYTE_FIELDS)
    a = data.draw(rows(fs))
    # b = a half of the time: a - a is the all-zero row
    b = a if data.draw(st.booleans()) else data.draw(rows(fs))
    for negate in (False, True):
        got = _row_add(fs, *a, *b, negate)
        assert type(got[2]) is row_type(fs, got[2])
        assert got[:2] + (tuple(got[2]),) == row_add(fs, *a, *b, negate)
    neg = _row_neg(fs, a[2])
    assert type(neg) is row_type(fs, a[2])
    assert tuple(neg) == row_neg(fs, a[2])
    # the tuples of APoly.__neg__ are negated as tuples
    assert _row_neg(fs, tuple(a[2])) == row_neg(fs, a[2])
    assert (-APoly(fs, a[2])).coeffs == row_neg(fs, a[2])
    assert _row_add(fs, *a, a[0], a[1], neg, False) == (None, a[1], ())


@pytest.mark.parametrize("q", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cut_at_N_matches_the_tuple_reference(q, data):
    fs = field(*FIELDS[q])
    cs = data.draw(st.lists(codes(fs), max_size=40))
    v = data.draw(st.one_of(st.none(), st.integers(-10, 10)))
    N = data.draw(st.one_of(st.none(), st.integers(-15, 55)))
    want = row_norm(v, cs, N)
    for given_cs in (cs, tuple(cs)) + ((bytes(cs),) if fs.q <= 256 else ()):
        got_v, got = _norm(fs, v, given_cs, N)
        assert type(got) is row_type(fs, got)
        assert (got_v, tuple(got)) == want


@pytest.mark.parametrize("p,length", [(101, 30), (127, 5), (127, 40)])
def test_byte_rows_on_the_array_route(p, length):
    # the kernel's array route packs through array(typecode, ...), which
    # would read a bytes initializer as machine words, not as codes
    fs = field(p)
    xs = [(7 * i + 1) % p for i in range(length)]
    a = PrecisionLaurent(fs, 0, xs)
    assert type(a.coeffs) is bytes
    assert fs._slot_layout(length * (p - 1) ** 2)[1] is not None
    want = [0] * (2 * length - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            want[i + j] = (want[i + j] + x * y) % p
    got = a * a
    assert (got.v, list(got.coeffs)) == (0, want)
