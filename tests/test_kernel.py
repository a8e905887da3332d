"""The F_q product kernel and the TateTrunc product built on it, against
schoolbook and pairwise references; direct subtraction and division by a
bracket, against the negation and product they replace."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmzv import tlayer
from tmzv.cli import main
from tmzv.scalars import PrecisionLaurent, field
from tmzv.tlayer import LocalJet, TateTrunc, _clipped_rows, _product_precisions
from tmzv.zeta import _div_bracket, inv_bracket


def schoolbook(fs, xs, ys):
    out = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] = fs.add(out[i + j], fs.mul(x, y))
    return out


def schoolbook_mod_p(p, xs, ys):
    out = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def pack_mul(p, xs, ys):
    """The packed F_p product of xs and ys, whatever their lengths."""
    return list(field(p)._pack_mul(xs, ys, len(xs) + len(ys) - 1))


def width_edges(p, m=1, top=300):
    """Lengths at which m * min(len) * (p-1)^2, the slot bound of the
    digit-plane products (m = 1: of the F_p product), first needs a wider
    slot."""
    out = set()
    for w in (1, 2, 3, 4):
        n = (256**w - 1) // (m * (p - 1) ** 2) + 1
        if n <= top:
            out.update((n - 1, n))
    return sorted(n for n in out if n >= 1)


EXTENSION_FIELDS = {4: (2, 2), 8: (2, 3), 9: (3, 2), 25: (5, 2)}

# around the edges of the byte route: w(p - 1) <= 255 holds at every length
# here for q = 7, 31 and 37, and up to four coefficients at q = 127; the
# extension fields split codes with translate tables up to q = 256, and code
# by code at q = 512
BYTE_ROUTE_FIELDS = {7: (7, 1), 31: (31, 1), 37: (37, 1), 127: (127, 1),
                     16: (2, 4), 27: (3, 3), 49: (7, 2), 81: (3, 4),
                     121: (11, 2), 128: (2, 7), 243: (3, 5), 256: (2, 8),
                     512: (2, 9)}


class TestConv:
    @pytest.mark.parametrize("p", [2, 3, 5, 257, 4093])
    def test_all_top_digits_at_slot_edges(self, p):
        for n in width_edges(p) + [1, 300]:
            for m in (1, n, 300):
                xs, ys = [p - 1] * n, [p - 1] * m
                want = schoolbook_mod_p(p, xs, ys)
                assert pack_mul(p, xs, ys) == want
                assert list(field(p).conv(xs, ys)) == want

    @pytest.mark.parametrize("p", [2, 3, 5, 257])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_prime_field_matches_schoolbook(self, p, data):
        digits = st.lists(st.integers(0, p - 1), min_size=1, max_size=300)
        xs, ys = data.draw(digits), data.draw(digits)
        assert list(field(p).conv(xs, ys)) == schoolbook_mod_p(p, xs, ys)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_large_p_kernel_matches_schoolbook(self, data):
        digits = st.lists(st.integers(0, 4092), min_size=1, max_size=300)
        xs, ys = data.draw(digits), data.draw(digits)
        assert pack_mul(4093, xs, ys) == schoolbook_mod_p(4093, xs, ys)

    @pytest.mark.parametrize("q", [2, 3, 257, 4, 8, 9, 25])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_short_product_is_prefix_of_full(self, q, data):
        fs = field(*EXTENSION_FIELDS.get(q, (q,)))
        codes = st.lists(st.integers(0, q - 1), min_size=1, max_size=120)
        xs, ys = data.draw(codes), data.draw(codes)
        full = list(fs.conv(xs, ys))
        for n in (0, 1, data.draw(st.integers(0, len(full) + 3)), len(full)):
            assert list(fs.conv(xs, ys, n)) == full[:n]

    @pytest.mark.parametrize("q", sorted(EXTENSION_FIELDS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_extension_field_matches_schoolbook(self, q, data):
        fs = field(*EXTENSION_FIELDS[q])
        codes = st.lists(st.integers(0, q - 1), min_size=1, max_size=300)
        xs, ys = data.draw(codes), data.draw(codes)
        assert list(fs.conv(xs, ys)) == schoolbook(fs, xs, ys)

    @pytest.mark.parametrize("q", sorted(BYTE_ROUTE_FIELDS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_byte_route_matches_schoolbook(self, q, data):
        p, m = BYTE_ROUTE_FIELDS[q]
        fs = field(p, m)
        lengths = st.one_of(st.sampled_from(width_edges(p, m) + [2, 300]),
                            st.integers(1, 300))
        codes = st.sampled_from([q - 1]) if data.draw(st.booleans()) else (
            st.integers(0, q - 1))
        xs, ys = [data.draw(st.lists(codes, min_size=k, max_size=k))
                  for k in (data.draw(lengths), data.draw(lengths))]
        full = schoolbook(fs, xs, ys) if m > 1 else schoolbook_mod_p(p, xs, ys)
        n = data.draw(st.one_of(st.none(), st.integers(0, len(full) + 3)))
        assert list(fs.conv(xs, ys, n)) == full[:n]

    @pytest.mark.parametrize("p,length,route", [
        (2, 300, bytes), (31, 300, bytes), (37, 300, bytes), (127, 4, bytes),
        (127, 5, list), (251, 2, list), (257, 2, list), (4093, 300, list)])
    def test_slot_route(self, p, length, route):
        # bytes when w(p - 1) <= 255 for the fewest w bytes that hold
        # min(len) * (p - 1)^2, an array of machine integers otherwise
        xs = [p - 1] * length
        got = field(p)._pack_mul(xs, xs, 2 * length - 1)
        assert type(got) is route
        assert list(got) == schoolbook_mod_p(p, xs, xs)

    @pytest.mark.parametrize("q", [4, 8, 9, 25, 49])
    def test_extension_field_top_codes(self, q):
        # every digit of every coefficient at p - 1: at a width edge the
        # middle digit plane fills its slots to m * min(len) * (p-1)^2
        fs = field(*{**EXTENSION_FIELDS, **BYTE_ROUTE_FIELDS}[q])
        for n in width_edges(fs.p, fs.m) + [1, 2, 300]:
            for k in (1, n, 300):
                xs, ys = [q - 1] * n, [q - 1] * k
                assert list(fs.conv(xs, ys)) == schoolbook(fs, xs, ys)

    # a one-coefficient operand scales the other one without packing; a
    # trailing zero sends the same product through the packed path
    @pytest.mark.parametrize("q", [2, 3, 5, 257, 4, 9])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_one_coefficient_matches_packed_product(self, q, data):
        fs = field(*EXTENSION_FIELDS.get(q, (q,)))
        codes = st.lists(st.integers(0, q - 1), min_size=1, max_size=40)
        ys = data.draw(codes)
        for c in (0, 1, data.draw(st.integers(2, q - 1)) if q > 2 else 1):
            packed = list(fs.conv([c, 0], ys))[:len(ys)]
            if fs.m == 1:
                assert pack_mul(fs.p, [c], ys) == packed
            assert list(fs.conv([c], ys)) == packed == list(fs.conv(ys, [c]))
            assert list(fs.conv([c], [ys[0]])) == packed[:1]
            for n in range(len(ys) + 3):
                assert fs.conv([c], ys, n) == packed[:n] == fs.conv(ys, [c], n)


def pairwise_product(a, b):
    """sum_{i+j=k} a_i * b_j with PrecisionLaurent products and sums."""
    M = min(a.M, b.M)
    out = [PrecisionLaurent.zero(a.fs, ram=a.ram)] * (M + 1)
    for i in range(M + 1):
        ci = a[i]
        if ci.is_zero_to_prec() and ci.N is None:
            continue
        for j in range(M + 1 - i):
            out[i + j] = out[i + j] + ci * b[j]
    return out


@st.composite
def laurent_entries(draw, fs, ram):
    kind = draw(st.sampled_from(["exact", "truncated", "zero_N", "zero"]))
    if kind == "zero":
        return PrecisionLaurent.zero(fs, ram=ram)
    if kind == "zero_N":
        return PrecisionLaurent.zero(fs, N=draw(st.integers(-12, 30)), ram=ram)
    v = draw(st.integers(-12, 20))
    coeffs = draw(st.lists(st.integers(0, fs.q - 1), min_size=1, max_size=16))
    N = None if kind == "exact" else v + draw(st.integers(0, 24))
    return PrecisionLaurent(fs, v, coeffs, N=N, ram=ram)


@st.composite
def tate_pairs(draw):
    fs = field(*draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2)])))
    ram = draw(st.sampled_from([1, fs.q - 1]))
    entries = laurent_entries(fs, ram)
    out = []
    for _ in range(2):
        M = draw(st.integers(0, 7))
        cs = draw(st.lists(entries, min_size=M + 1, max_size=M + 1))
        out.append(TateTrunc(fs, cs, M, ram=ram))
    return out


@st.composite
def sloped_tate_pairs(draw):
    """Long rows whose valuations follow a per-operand slope (so the two
    operands' slopes differ), mixing exact, truncated and zero rows: short
    truncated rows clip the long ones, often to nothing, and exact rows
    keep the rows that feed them whole."""
    fs = field(*draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2)])))
    ram = draw(st.sampled_from([1, fs.q - 1]))
    M = draw(st.integers(0, 7))
    out = []
    for _ in range(2):
        v0, slope = draw(st.integers(-12, 12)), draw(st.integers(-4, 8))
        cs = []
        for i in range(M + 1):
            kind = draw(st.sampled_from(["exact", "truncated", "truncated",
                                         "zero_N", "zero"]))
            v = v0 + slope * i + draw(st.integers(0, 2))
            if kind == "zero":
                cs.append(PrecisionLaurent.zero(fs, ram=ram))
            elif kind == "zero_N":
                cs.append(PrecisionLaurent.zero(fs, N=v, ram=ram))
            else:
                coeffs = [draw(st.integers(1, fs.q - 1))] + draw(
                    st.lists(st.integers(0, fs.q - 1), max_size=40))
                N = None if kind == "exact" else v + draw(st.integers(1, 12))
                cs.append(PrecisionLaurent(fs, v, coeffs, N=N, ram=ram))
        out.append(TateTrunc(fs, cs, M, ram=ram))
    return out


@st.composite
def zero_operand_pairs(draw):
    """A pair of tate_pairs with one operand, either one, replaced by a
    series zero to precision in every row (exact zeros among them)."""
    a, b = draw(tate_pairs())
    fs, ram = a.fs, a.ram
    zeros = st.one_of(st.none(), st.integers(-12, 30)).map(
        lambda N: PrecisionLaurent.zero(fs, N=N, ram=ram))
    z = TateTrunc(fs, draw(st.lists(zeros, min_size=a.M + 1, max_size=a.M + 1)),
                  a.M, ram=ram)
    return (z, b) if draw(st.booleans()) else (b, z)


def assert_matches_pairwise(a, b):
    got = a * b
    want = pairwise_product(a, b)
    assert got.M == min(a.M, b.M)
    for g, w in zip(got.coeffs, want):
        assert (g.v, g.coeffs, g.N) == (w.v, w.coeffs, w.N)


class TestTateProduct:
    @settings(max_examples=300, deadline=None)
    @given(pair=tate_pairs())
    def test_matches_pairwise_sum(self, pair):
        assert_matches_pairwise(*pair)

    @settings(max_examples=300, deadline=None)
    @given(pair=sloped_tate_pairs())
    def test_clipped_rescaled_product_matches_pairwise_sum(self, pair):
        assert_matches_pairwise(*pair)

    @settings(max_examples=120, deadline=None)
    @given(pair=zero_operand_pairs())
    def test_zero_operand_answered_from_precisions(self, pair):
        # the product of a zero is zero in every row, to the N_k of the
        # pairwise sum, with no clip and no kernel call
        a, b = pair

        def refuse(*args):
            raise AssertionError("a zero operand clipped or multiplied")

        with mock.patch.object(type(a.fs), "conv", refuse), \
                mock.patch.object(tlayer, "_clipped_rows", refuse):
            got = a * b
        assert set(got.vs) == {None}
        assert_matches_pairwise(a, b)

    def test_rows_laid_out_along_their_slope(self, monkeypatch):
        # row i sits at exponent 10*i: under t -> theta^10 t every row starts
        # at 0, so each operand packs into 6 slots instead of 5*101 + 51
        fs = field(3)
        rows = [PrecisionLaurent(fs, 10 * i, [1]) for i in range(6)]
        a = TateTrunc(fs, rows, 5)
        lengths = []
        conv = type(fs).conv

        def spy(self, xs, ys, n=None):
            lengths.append((len(xs), len(ys), n))
            return conv(self, xs, ys, n)

        monkeypatch.setattr(type(fs), "conv", spy)
        got = a * a
        monkeypatch.undo()
        assert lengths == [(6, 6, 6)]
        assert [(c.v, tuple(c.coeffs)) for c in got.coeffs] == [
            (10 * k, ((k + 1) % 3,)) if (k + 1) % 3 else (None, ())
            for k in range(6)]
        assert_matches_pairwise(a, a)

    @pytest.mark.parametrize("q,ram", [(3, 1), (3, 2)])
    def test_row_clipped_to_nothing(self, q, ram):
        # N_1 = N(a_0) + v(b_1) = 2 lies below v(a_1 b_0) = 10, so a_1 is
        # left out and row 1 holds a_0 b_1 alone
        fs = field(q)
        a = TateTrunc(fs, [PrecisionLaurent(fs, 0, [1], N=2, ram=ram),
                           PrecisionLaurent(fs, 10, [1, 2] * 20, ram=ram)], 1, ram=ram)
        b = TateTrunc(fs, [PrecisionLaurent.one(fs, ram=ram),
                           PrecisionLaurent.one(fs, ram=ram)], 1, ram=ram)
        Ns = _product_precisions(a.vs, a.Ns, b.vs, b.Ns)
        assert Ns == [2, 2]
        assert [i for i, _, _ in _clipped_rows(a.vs, a.cs, b.vs, Ns)] == [0]
        assert [(x.v, tuple(x.coeffs), x.N) for x in (a * b).coeffs] == [(0, (1,), 2)] * 2
        assert_matches_pairwise(a, b)

    @pytest.mark.parametrize("q,ram", [(2, 1), (5, 4)])
    def test_exact_row_blocks_the_clip(self, q, ram):
        # a_0 b_0 is exact, so a_0 is kept whole although it also feeds
        # row 1, which is known only below N(b_1) + v(a_0) = 3
        fs = field(q)
        long_row = PrecisionLaurent(fs, 0, [1, 0, 1] * 15, ram=ram)
        a = TateTrunc(fs, [long_row, PrecisionLaurent.zero(fs, ram=ram)], 1, ram=ram)
        b = TateTrunc(fs, [PrecisionLaurent.one(fs, ram=ram),
                           PrecisionLaurent(fs, 1, [1, 1], N=3, ram=ram)], 1, ram=ram)
        Ns = _product_precisions(a.vs, a.Ns, b.vs, b.Ns)
        assert Ns == [None, 3]
        rows = _clipped_rows(a.vs, a.cs, b.vs, Ns)
        assert rows == [(0, 0, long_row.coeffs)]
        assert (a * b).coeffs[0] == long_row
        assert_matches_pairwise(a, b)

    def test_zero_entries_set_precision_only(self):
        fs = field(3)
        a = TateTrunc(fs, [PrecisionLaurent.zero(fs, N=5),
                           PrecisionLaurent.zero(fs)], 1)
        b = TateTrunc(fs, [PrecisionLaurent(fs, -2, [1, 2], N=4),
                           PrecisionLaurent.one(fs)], 1)
        c = a * b
        assert [(x.v, x.N) for x in c.coeffs] == [(None, 3), (None, 5)]


@st.composite
def laurent_factors(draw, fs, ram):
    """A nonzero series, exact or known below N > v (N - v = 1 included),
    optionally stretched by a Frobenius twist as the log recursion does."""
    v = draw(st.integers(-12, 20))
    coeffs = [draw(st.integers(1, fs.q - 1))] + draw(
        st.lists(st.integers(0, fs.q - 1), max_size=40))
    N = draw(st.one_of(st.none(), st.integers(v + 1, v + 30)))
    return PrecisionLaurent(fs, v, coeffs, N=N, ram=ram).frobenius(
        draw(st.integers(0, 2)))


@st.composite
def laurent_pairs(draw):
    fs = field(*draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2)])))
    ram = draw(st.sampled_from([1, fs.q - 1]))
    return draw(laurent_factors(fs, ram)), draw(laurent_factors(fs, ram))


def schoolbook_laurent(a, b):
    """a * b from the full schoolbook product and the error-term bound."""
    cands = [x.N + y.v for x, y in ((a, b), (b, a)) if x.N is not None]
    full = schoolbook(a.fs, a.coeffs, b.coeffs)
    return PrecisionLaurent(a.fs, a.v + b.v, full,
                            N=min(cands) if cands else None, ram=a.ram)


class TestLaurentProduct:
    @settings(max_examples=200, deadline=None)
    @given(pair=laurent_pairs())
    def test_clipped_product_matches_schoolbook(self, pair):
        a, b = pair
        got, want = a * b, schoolbook_laurent(a, b)
        assert (got.v, got.coeffs, got.N) == (want.v, want.coeffs, want.N)

    @settings(max_examples=100, deadline=None)
    @given(pair=laurent_pairs())
    def test_conv_gets_the_stored_coefficients(self, pair):
        # only conv cuts the operands: it gets them as stored, with
        # n = N - v (None for an exact product), and the packed products
        # it makes see no operand and no product longer than n
        a, b = pair
        FS = type(a.fs)
        calls, kernel = [], []
        conv, pack_mul, digit_conv = FS.conv, FS._pack_mul, FS._digit_conv

        def spy(self, xs, ys, n=None):
            calls.append((xs, ys, n))
            return conv(self, xs, ys, n)

        def kernel_spy(product):
            def spy(self, xs, ys, size):
                kernel.append((len(xs), len(ys), size))
                return product(self, xs, ys, size)
            return spy

        with mock.patch.object(FS, "conv", spy), \
                mock.patch.object(FS, "_pack_mul", kernel_spy(pack_mul)), \
                mock.patch.object(FS, "_digit_conv", kernel_spy(digit_conv)):
            got = a * b
        [(xs, ys, n)] = calls
        assert xs is a.coeffs and ys is b.coeffs
        assert n == (None if got.N is None else got.N - a.v - b.v)
        if n is not None:
            assert all(max(lens) <= n for lens in kernel)

    @pytest.mark.parametrize("q,ram", [(3, 1), (3, 2), (5, 4)])
    def test_operands_clipped_at_product_precision(self, q, ram, monkeypatch):
        # N(a * b) - v(a * b) = min(N_a - v_a, N_b - v_b) = 1 here: only the
        # leading coefficients meet below N, however long the operands are.
        # The product hands conv the stored coefficients and n = N - v, and
        # conv alone cuts both to one coefficient: no packed product runs,
        # and the one-coefficient product has one coefficient
        fs = field(q)
        a = PrecisionLaurent(fs, 0, [1, 2, 1], N=1, ram=ram)
        b = PrecisionLaurent(fs, -3, [1, 1, 2, 1], ram=ram).frobenius(2)
        calls = []
        conv = type(fs).conv

        def spy(self, xs, ys, n=None):
            out = conv(self, xs, ys, n)
            calls.append((xs, ys, n, len(out)))
            return out

        def refuse(*args):
            raise AssertionError("operands longer than n reached a packed product")

        monkeypatch.setattr(type(fs), "conv", spy)
        monkeypatch.setattr(type(fs), "_pack_mul", refuse)
        monkeypatch.setattr(type(fs), "_digit_conv", refuse)
        got = a * b
        monkeypatch.undo()
        want = schoolbook_laurent(a, b)
        [(xs, ys, n, size)] = calls
        assert xs is a.coeffs and ys is b.coeffs
        assert (n, size) == (got.N - got.v, 1)
        assert (got.v, got.coeffs, got.N) == (want.v, want.coeffs, want.N)
        assert got.N == got.v + 1


FIELDS = st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2)])


class TestSubtraction:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_laurent_sub_is_sum_with_negation(self, data):
        fs = field(*data.draw(FIELDS))
        ram = data.draw(st.sampled_from([1, fs.q - 1]))
        a = data.draw(laurent_entries(fs, ram))
        b = data.draw(laurent_entries(fs, ram))
        assert a - b == a + (-b)

    @settings(max_examples=100, deadline=None)
    @given(pair=tate_pairs())
    def test_tate_sub_is_sum_with_negation(self, pair):
        a, b = pair
        got, want = a - b, a + (-b)
        assert got.M == want.M and got.coeffs == want.coeffs

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_jet_sub_is_sum_with_negation(self, data):
        fs = field(*data.draw(FIELDS))
        ram = data.draw(st.sampled_from([1, fs.q - 1]))
        zero = PrecisionLaurent.zero(fs, ram=ram)
        a, b = [LocalJet(data.draw(st.lists(laurent_entries(fs, ram), max_size=6)),
                         zero) for _ in range(2)]
        got, want = a - b, a + (-b)
        assert got.orders == want.orders


class TestBracketDivision:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_recurrence_matches_product(self, data):
        # long operands, exact ones and zeros to precision included; N below
        # v + Q, below Q and far above both
        fs = field(*data.draw(FIELDS))
        kind = data.draw(st.sampled_from(["exact", "truncated", "truncated",
                                          "zero_N", "zero"]))
        v = data.draw(st.integers(-10, 30))
        if kind == "zero":
            x = PrecisionLaurent.zero(fs)
        elif kind == "zero_N":
            x = PrecisionLaurent.zero(fs, N=v)
        else:
            coeffs = data.draw(st.lists(st.integers(0, fs.q - 1), min_size=1,
                                        max_size=60))
            N = None if kind == "exact" else v + data.draw(st.integers(0, 70))
            x = PrecisionLaurent(fs, v, coeffs, N=N)
        e = data.draw(st.integers(1, 4))
        N = data.draw(st.integers(1, 120))
        assert _div_bracket(x, e, N) == (x * inv_bracket(fs, e, N)).truncate(N)

    @pytest.mark.parametrize("q", [2, 7, 9, 25, 4093])
    def test_long_and_slot_width_edges(self, q):
        # a quotient of length L sums up to 2^steps digits per slot, (Q - 1)
        # 2^steps >= L: L = 2,000, and each L where steps first needs a
        # wider slot and the L before it, up to 70,000; every x is all top
        # codes or random codes
        fs = field(*{2: (2, 1), 7: (7, 1), 9: (3, 2), 25: (5, 2),
                     4093: (4093, 1)}[q])
        rng = random.Random(q)
        for e in (1, 2):
            Q = fs.q**e
            lengths = {2000}
            for steps in range(1, 17):
                L = ((Q - 1) << (steps - 1)) + 1  # the least L with steps
                if L > 70000:
                    break
                if (fs._slot_layout((fs.p - 1) << steps)
                        != fs._slot_layout((fs.p - 1) << (steps - 1))):
                    lengths.update((L - 1, L))
            for L in sorted(lengths):
                for coeffs in ([fs.q - 1] * L,
                               [rng.randrange(fs.q) for _ in range(L)]):
                    # stored from v(x) + Q = Q - 3 up to N - 3: L slots
                    x = PrecisionLaurent(fs, -3, coeffs, N=L - 3)
                    N = L + Q
                    got = _div_bracket(x, e, N)
                    assert got.N - (Q - 3) == L
                    assert got == (x * inv_bracket(fs, e, N)).truncate(N)

    def test_no_kernel_call(self, monkeypatch):
        fs = field(2, 2)
        x = PrecisionLaurent(fs, 0, [1, 2, 3] * 30, N=90)
        want = (x * inv_bracket(fs, 1, 90)).truncate(90)
        calls = []
        monkeypatch.setattr(type(fs), "conv", lambda *a: calls.append(a))
        got = _div_bracket(x, 1, 90)
        monkeypatch.undo()
        assert calls == [] and got == want


def test_mzv_over_large_prime_field(capsys):
    assert main(["mzv", "--q", "257", "--s", "1", "--prec", "600"]) == 0
    assert "valuation: 0" in capsys.readouterr().out
