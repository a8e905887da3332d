"""The row arithmetic of PrecisionLaurent and TateTrunc (scalars._row_add,
_row_neg and _norm) against the tuple reference of tests/reference.py:
sums, differences, negations and cuts at N, with offset valuations and
all-zero results.  Rows are bytes over F_q with q <= 256 and p < 128, and
tuples over every other field, with the same answers.  The strided rows of
the Frobenius twists (scalars._spread) and the cut twist frobenius(i, N)
are checked against one code at a time and against frobenius(i).truncate(N)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import row_add, row_neg, row_norm, spread
from tmzv.scalars import (APoly, PrecisionLaurent, _norm, _row_add, _row_neg,
                          _spread, field)

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


# ---------------------------------------------------------------------------
# strided rows and the cut twist
# ---------------------------------------------------------------------------

# q = 131 keeps tuple rows; its twists are long, so there i <= 1
TWIST_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 9: (3, 2), 131: (131, 1)}


@pytest.mark.parametrize("q", sorted(TWIST_FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_spread_matches_one_code_at_a_time(q, data):
    fs = field(*TWIST_FIELDS[q])
    cs = data.draw(st.lists(codes(fs), max_size=12))
    k = data.draw(st.integers(1, 6))
    for row in (tuple(cs),) + ((bytes(cs),) if fs.byte_rows else ()):
        got = _spread(fs, row, k)
        # a new, mutable row even for one code or k = 1: embed_ram writes
        # its sign flips into it
        assert type(got) is (bytearray if fs.byte_rows else list)
        assert list(got) == spread(cs, k)


@st.composite
def twist_cases(draw, fs):
    """(x, i, N): a series exact, to a finite N or zero to precision (with
    any codes, zeros included), a twist i in -2..3 (-2..1 at q = 131) that
    x can take, and N below, at or past the twist's own N, or None."""
    i = draw(st.integers(-2, 1 if fs.q == 131 else 3))
    ram = draw(st.sampled_from([1, fs.q - 1]))
    kind = draw(st.sampled_from(["exact", "finite", "zero"]))
    v = draw(st.integers(-6, 6))
    if kind == "zero":
        x = PrecisionLaurent.zero(
            fs, N=draw(st.one_of(st.none(), st.integers(-6, 20))), ram=ram)
    else:
        cs = draw(st.lists(codes(fs), max_size=12))
        N = None if kind == "exact" else v + draw(st.integers(0, 16))
        x = PrecisionLaurent(fs, v, cs, N=N, ram=ram)
    if i < 0:
        # a negative twist needs support and valuation on multiples of q^-i
        x = x.frobenius(-i)
        if x.N is not None and draw(st.booleans()):
            x = x.truncate(x.N - draw(st.integers(0, 5)))
    twisted = x.frobenius(i)
    k = fs.q ** abs(i)
    anchors = [0] + [n for n in (twisted.N, twisted.v) if n is not None]
    if twisted.v is not None:
        anchors.append(twisted.v + len(twisted.coeffs))
    N = draw(st.one_of(st.none(), st.builds(
        int.__add__, st.sampled_from(anchors),
        st.one_of(st.sampled_from([-1, 0, 1]),
                  st.integers(-2 * k - 2, 2 * k + 2)))))
    return x, i, N


@pytest.mark.parametrize("q", sorted(TWIST_FIELDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cut_twist_is_the_twist_truncated(q, data):
    fs = field(*TWIST_FIELDS[q])
    x, i, N = data.draw(twist_cases(fs))
    want = x.frobenius(i) if N is None else x.frobenius(i).truncate(N)
    got = x.frobenius(i, N)
    assert type(got.coeffs) is type(want.coeffs)
    assert (got.v, got.coeffs, got.N, got.ram) == \
        (want.v, want.coeffs, want.N, want.ram)


@pytest.mark.parametrize("q", sorted(TWIST_FIELDS))
def test_cut_twist_keeps_the_last_code_below_N(q):
    # codes at exponents 0 and k: below N = k + 1, so both stay, though
    # floor((N - k v) / k) would keep one
    fs = field(*TWIST_FIELDS[q])
    k = fs.q
    got = PrecisionLaurent(fs, 0, (1, 1)).frobenius(1, k + 1)
    assert (got.v, list(got.coeffs), got.N) == (0, [1] + [0] * (k - 1) + [1], k + 1)
    assert PrecisionLaurent(fs, 0, (1, 1)).frobenius(1, k).coeffs == (
        b"\x01" if fs.byte_rows else (1,))


@pytest.mark.parametrize("q", sorted(TWIST_FIELDS))
def test_roots_off_the_multiples_are_not_representable(q):
    fs = field(*TWIST_FIELDS[q])
    for N in (None, 3):
        with pytest.raises(ValueError, match="valuation not divisible"):
            PrecisionLaurent(fs, 1, (1,)).frobenius(-1, N)
        with pytest.raises(ValueError, match="exponent not divisible"):
            PrecisionLaurent(fs, 0, (1, 1)).frobenius(-1, N)
    with pytest.raises(ValueError, match="q-th root not representable in A"):
        APoly(fs, (1, 1)).frobenius(-1)
    # zeros off the multiples of q are no obstacle
    assert APoly(fs, (1,) + (0,) * (q - 1) + (2 % fs.p,)).frobenius(-1) == \
        APoly(fs, (1, 2 % fs.p))
