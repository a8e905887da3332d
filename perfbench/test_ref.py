"""Tests of the reference arithmetic against brute-force enumeration over
monic polynomials of small degree.

    python3 -m unittest perfbench/test_ref.py      (or: python3 perfbench/test_ref.py)
"""

from __future__ import annotations

import itertools
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ref  # noqa: E402


def power_sum_brute(F, d, k, N):
    """sum over monic a of degree d of a^(-k), by enumeration."""
    acc = ref.Laurent(F, None, [], None)
    for a in ref.monics(F, d):
        inv = ref.poly_inverse(F, a, N)
        term = ref.one(F)
        for _ in range(k):
            term = (term * inv).truncate(N)
        acc = acc + term
    return acc


def mzv_brute(F, s, N):
    """zeta_A(s) from enumerated power sums over decreasing degree chains."""
    top = 0  # a monic of degree d has a^(-k) of valuation d k
    while min(s) * top < N:
        top += 1
    S = {(d, k): power_sum_brute(F, d, k, N)
         for d in range(top + 1) for k in set(s)}
    total = ref.Laurent(F, None, [], N)
    for degs in itertools.combinations(range(top + 1), len(s)):
        term = ref.one(F)
        for d, k in zip(reversed(degs), s):  # d_1 > d_2 > ... > d_r
            term = (term * S[(d, k)]).truncate(N)
        total = total + term
    return total


class TestField(unittest.TestCase):
    def test_axioms(self):
        for q in (2, 3, 4, 5, 7):
            F = ref.gf(q)
            for a in range(1, q):
                self.assertEqual(F.mul[a][F.inv[a]], 1)
                self.assertEqual(F.add[a][F.neg[a]], 0)
            for a, b, c in itertools.product(range(q), repeat=3):
                self.assertEqual(F.mul[a][F.add[b][c]],
                                 F.add[F.mul[a][b]][F.mul[a][c]])

    def test_f4_has_a_cube_root_of_unity(self):
        F = ref.gf(4)
        x = 2  # the class of x in F_2[x]/(x^2 + x + 1)
        self.assertEqual(F.mul[F.mul[x][x]][x], 1)
        self.assertNotEqual(F.mul[x][x], 1)


class TestClosedForms(unittest.TestCase):
    def test_power_sums_are_inverse_powers_of_l(self):
        for q, dmax in ((2, 3), (3, 2), (4, 2), (5, 1)):
            F = ref.gf(q)
            for d in range(dmax + 1):
                for k in range(1, q + 1):
                    N = ref.ell_degree(q, d) * k + 12
                    got = power_sum_brute(F, d, k, N)
                    self.assertEqual(got, ref.inv_ell(q, d, N, k), (q, d, k))

    def test_inv_ell_inverts_the_polynomial(self):
        for q in (2, 3, 4):
            F = ref.gf(q)
            for d in range(4):
                N = ref.ell_degree(q, d) + 30
                self.assertEqual(ref.inv_ell(q, d, N),
                                 ref.poly_inverse(F, ref.ell(F, d), N))

    def test_mzv_closed_form_against_enumeration(self):
        for q, s, N in ((2, (1,), 12), (2, (1, 2), 12), (2, (2, 1, 1), 12),
                        (3, (2, 1), 7), (3, (3,), 7), (4, (1, 2), 5)):
            F = ref.gf(q)
            self.assertEqual(ref.mzv_closed(q, s, N), mzv_brute(F, s, N),
                             (q, s))

    def test_polylog_closed_form_against_direct_sum(self):
        for q, s, u, N in ((2, 1, 0, 30), (2, 2, 1, 30), (3, 1, 1, 40),
                           (3, 3, 0, 40), (5, 2, 1, 60)):
            F = ref.gf(q)
            acc = ref.Laurent(F, None, [], N)
            i = 0
            while s * ref.ell_degree(q, i) - u * q**i < N:
                term = ref.Laurent(F, -u * q**i, [1], None)
                inv = ref.poly_inverse(F, ref.ell(F, i), N + u * q**i)
                for _ in range(s):
                    term = (term * inv).truncate(N)
                acc = acc + term
                i += 1
            self.assertEqual(ref.polylog_closed(q, s, u, N), acc, (q, s, u))


class TestLaurent(unittest.TestCase):
    def test_f4_product_matches_inverse(self):
        # (theta^2 + x theta + 1) times its inverse is 1 to the precision
        F = ref.gf(4)
        a = [1, 2, 1]
        prod = ref.Laurent(F, -2, a[::-1], None) * ref.poly_inverse(F, a, 20)
        self.assertEqual(prod, ref.Laurent(F, 0, [1], 18))

    def test_kronecker_matches_schoolbook(self):
        rng = random.Random(5)
        for p in (2, 3, 7):
            for _ in range(20):
                a = [rng.randrange(p) for _ in range(rng.randint(1, 40))]
                b = [rng.randrange(p) for _ in range(rng.randint(1, 40))]
                want = [0] * (len(a) + len(b) - 1)
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        want[i + j] = (want[i + j] + x * y) % p
                self.assertEqual(ref.kronecker_mul(p, a, b), want)

    def test_product_precision(self):
        # (theta^-1 + O(theta^-5)) * (theta^-2 + O(theta^-4)) is known
        # below min(5 + 2, 4 + 1) = 5
        F = ref.gf(3)
        a = ref.Laurent(F, 1, [1], 5)
        b = ref.Laurent(F, 2, [1], 4)
        c = a * b
        self.assertEqual((c.v, c.c, c.N), (3, [1], 5))
        self.assertTrue((c - c).vanishes_below(5))
        self.assertFalse(c.vanishes_below(4))

    def test_frobenius_stretches(self):
        a = ref.Laurent(ref.gf(2), 1, [1, 1], 4)
        b = a.frobenius(2)
        self.assertEqual((b.v, b.c, b.N), (4, [1, 0, 0, 0, 1], 16))


class TestNuAdic(unittest.TestCase):
    def test_vanishes_when_q_minus_1_divides_k(self):
        # the nu-adic zeta values at multiples of q - 1 vanish; over F_2
        # that is every k
        F = ref.gf(2)
        for nu in ([0, 1], [1, 1], [1, 1, 1]):
            self.assertEqual(ref.nu_interpolated(F, nu, 1, 6), [])

    def test_precisions_are_consistent(self):
        F = ref.gf(3)
        for nu in ([0, 1], [1, 0, 1]):
            lo = ref.nu_interpolated(F, nu, 1, 4)
            hi = ref.nu_interpolated(F, nu, 1, 7)
            self.assertTrue(lo)
            self.assertEqual(ref.pmod(F, hi, ref.ppow(F, nu, 4)), lo)


if __name__ == "__main__":
    unittest.main()
