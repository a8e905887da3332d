"""Element arithmetic of F_q without tables, against q x q reference tables
built here from digit arithmetic; Rabin's irreducibility test against trial
division; the default moduli; the digit codec; the memory a FieldSpec
takes."""

import json
import os
import tracemalloc

import pytest

from reference import monic_enumerate
from tmzv.scalars import APoly, FieldSpec, field


def reference_tables(fs):
    """add, neg, mul and inv tables of F_q from the base-p digits of the
    codes: sums digit by digit, products as polynomial products reduced by
    the modulus, inverses as a^(q-2)."""
    p, m, q = fs.p, fs.m, fs.q

    def digits(c):
        return [c // p**i % p for i in range(m)]

    def code(ds):
        return sum(d % p * p**i for i, d in enumerate(ds))

    add = [[code([x + y for x, y in zip(digits(a), digits(b))])
            for b in range(q)] for a in range(q)]
    neg = [code([-d for d in digits(a)]) for a in range(q)]
    red = fs.modulus[:-1]
    mul = [[0] * q for _ in range(q)]
    for a in range(q):
        for b in range(q):
            prod = [0] * (2 * m - 1)
            for i, x in enumerate(digits(a)):
                for j, y in enumerate(digits(b)):
                    prod[i + j] += x * y
            for k in range(2 * m - 2, m - 1, -1):
                c, prod[k] = prod[k], 0
                for j in range(m):
                    prod[k - m + j] -= c * red[j]
            mul[a][b] = code(prod[:m])
    inv = [None] * q
    for a in range(1, q):
        acc = 1
        for _ in range(q - 2):
            acc = mul[acc][a]
        inv[a] = acc
    return add, neg, mul, inv


FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2)]


@pytest.mark.parametrize("pm", FIELDS, ids=lambda pm: "q=%d" % pm[0] ** pm[1])
def test_element_ops_match_reference_tables(pm):
    fs = field(*pm)
    q = fs.q
    add, neg, mul, inv = reference_tables(fs)
    for a in range(q):
        assert fs.neg(a) == neg[a]
        if a:
            assert fs.inv(a) == inv[a]
        for b in range(q):
            assert fs.add(a, b) == add[a][b]
            assert fs.sub(a, b) == add[a][neg[b]]
            assert fs.mul(a, b) == mul[a][b]
    with pytest.raises(ZeroDivisionError):
        fs.inv(0)


def divisible_by_a_monic(nu):
    """Trial division by every monic of degree 1 .. deg(nu) / 2."""
    return any((nu % b).is_zero()
               for d in range(1, nu.degree() // 2 + 1)
               for b in monic_enumerate(nu.fs, d))


@pytest.mark.parametrize("pm,max_deg", [((2, 1), 6), ((3, 1), 6),
                                        ((2, 2), 3), ((3, 2), 3)],
                         ids=["q=2", "q=3", "q=4", "q=9"])
def test_rabin_matches_trial_division(pm, max_deg):
    fs = field(*pm)
    for d in range(1, max_deg + 1):
        for nu in monic_enumerate(fs, d):
            assert nu.is_irreducible() == (not divisible_by_a_monic(nu)), nu


def test_rabin_rejects_constants():
    fs = field(3)
    assert not APoly.one(fs).is_irreducible()
    assert not APoly.zero(fs).is_irreducible()


def test_default_moduli_unchanged():
    # every (p, m) with m >= 2 and p^m <= 4096, as the lexicographically
    # least irreducible found by trial division
    path = os.path.join(os.path.dirname(__file__), "data", "default_moduli.json")
    with open(path) as f:
        rows = json.load(f)
    assert len(rows) == 40
    for p, m, modulus in rows:
        assert field(p, m).modulus == tuple(modulus)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="not irreducible"):
        FieldSpec(3, 2, (2, 0, 1))  # x^2 - 1


@pytest.mark.parametrize("pm", [(5, 1), (2, 3), (3, 2), (7, 2)])
def test_digit_codec_round_trip(pm):
    fs = field(*pm)
    for c in range(fs.q):
        ds = fs.digits(c)
        assert len(ds) == fs.m and all(0 <= d < fs.p for d in ds)
        assert fs.from_digits(ds) == c
    # each digit is reduced mod p
    assert fs.from_digits([d + 2 * fs.p for d in fs.digits(fs.q - 1)]) == fs.q - 1


@pytest.mark.parametrize("pm", [(5, 1), (2, 2), (3, 5), (2, 8), (2, 9)],
                         ids=lambda pm: "q=%d^%d" % pm)
def test_row_digits_match_digits(pm):
    # q <= 256 reads the digits through translate tables, q = 512 per code
    fs = field(*pm)
    codes = list(range(fs.q)) + [fs.q - 1, 0, 1]
    assert fs.row_digits(codes) == [fs.digits(c) for c in codes]
    assert fs.row_digits([]) == []


@pytest.mark.parametrize("pm", [(4093, 1), (2, 12), (3, 7), (5, 5)],
                         ids=lambda pm: "q=%d^%d" % pm)
def test_largest_fields_build_small(pm):
    field(pm[0])  # the prime field the modulus search works over
    tracemalloc.start()
    try:
        fs = FieldSpec(*pm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    a = fs.q - 1
    assert fs.mul(a, fs.inv(a)) == fs.one
    assert fs.add(a, fs.neg(a)) == 0
