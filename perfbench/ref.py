"""Reference arithmetic for checking tmzv's answers, written without tmzv.

Nothing here imports the package under test.  The closed forms used:

* l_d = (theta - theta^q)(theta - theta^(q^2)) ... (theta - theta^(q^d)),
  l_0 = 1, and the power sums S_d(k) = sum over monic a of degree d of
  a^(-k) equal l_d^(-k) for 1 <= k <= q (Carlitz for k = 1; Anderson and
  Thakur, Ann. Math. 1990, and Thakur, Function Field Arithmetic, 2004).
* Hence zeta_A(s_1, ..., s_r) = sum over d_1 > ... > d_r >= 0 of
  prod_i l_{d_i}^(-s_i) when every s_i <= q, and the depth-one Carlitz
  polylogarithm Li_s(u) = sum_i u^(q^i) / l_i^s.

Series in 1/theta are Laurent objects: the coefficients from the first
nonzero one on, every coefficient below an absolute precision N known.
The checks and the brute-force tests use the same class.  Since
1/l_d = (-1)^d theta^(-deg l_d) prod_j (1 - theta^(-(q^j - 1)))^(-1), each
chain of the MZV sum is a monomial run through a few geometric
prefix sums, so no general series division is needed for the closed forms.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


# ---------------------------------------------------------------------------
# F_q = F_p[x]/(modulus); elements are codes sum_i c_i p^i over the basis
# 1, x, ..., x^(m-1), the encoding tmzv's JSON digit lists also use
# ---------------------------------------------------------------------------


class GF:
    def __init__(self, p: int, modulus=(0, 1)):
        self.p = p
        self.modulus = tuple(modulus)
        self.m = m = len(modulus) - 1
        self.q = q = p**m

        def digits(c):
            return [(c // p**i) % p for i in range(m)]

        def code(ds):
            return sum((d % p) * p**i for i, d in enumerate(ds))

        self.code = code
        self.add = [[code([x + y for x, y in zip(digits(a), digits(b))])
                     for b in range(q)] for a in range(q)]
        self.neg = [code([-x for x in digits(a)]) for a in range(q)]
        self.mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(q):
                prod = [0] * (2 * m - 1)
                for i, x in enumerate(digits(a)):
                    for j, y in enumerate(digits(b)):
                        prod[i + j] += x * y
                for k in range(2 * m - 2, m - 1, -1):
                    c = prod[k]
                    for j in range(m + 1):
                        prod[k - m + j] -= c * self.modulus[j]
                self.mul[a][b] = code(prod[:m])
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = next(b for b in range(1, q) if self.mul[a][b] == 1)


@lru_cache(maxsize=None)
def gf(q: int) -> GF:
    """F_q for prime q, or F_4 = F_2[x]/(x^2 + x + 1)."""
    if q == 4:
        return GF(2, (1, 1, 1))
    if q < 2 or any(q % d == 0 for d in range(2, q)):
        raise ValueError("reference field needs q prime or q = 4")
    return GF(q)


# ---------------------------------------------------------------------------
# polynomials over F_q in theta: coefficient lists, low degree first,
# no trailing zeros
# ---------------------------------------------------------------------------


def ptrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(F: GF, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F.add[out[i]][c]
    return ptrim(out)


def pneg(F: GF, a):
    return [F.neg[c] for c in a]


def psub(F: GF, a, b):
    return padd(F, a, pneg(F, b))


def pmul(F: GF, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            row = F.mul[x]
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add[out[i + j]][row[y]]
    return ptrim(out)


def pdivmod(F: GF, a, b):
    b = ptrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = ptrim(a)
    db = len(b) - 1
    ilead = F.inv[b[-1]]
    quo = [0] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db and rem:
        c = F.mul[rem[-1]][ilead]
        shift = len(rem) - 1 - db
        quo[shift] = c
        for j, y in enumerate(b):
            rem[shift + j] = F.add[rem[shift + j]][F.neg[F.mul[c][y]]]
        rem = ptrim(rem)
    return ptrim(quo), rem


def pmod(F: GF, a, b):
    return pdivmod(F, a, b)[1]


def ppow(F: GF, a, e: int):
    acc = [1]
    for _ in range(e):
        acc = pmul(F, acc, a)
    return acc


def pinv_mod(F: GF, a, mod):
    """Inverse of a modulo mod (extended Euclid); a must be a unit."""
    r0, r1 = ptrim(mod), pmod(F, a, mod)
    x0, x1 = [], [1]
    while r1:
        quo, rem = pdivmod(F, r0, r1)
        r0, r1 = r1, rem
        x0, x1 = x1, psub(F, x0, pmul(F, quo, x1))
    if len(r0) != 1:
        raise ZeroDivisionError("not a unit modulo the given polynomial")
    c = F.inv[r0[0]]
    return pmod(F, [F.mul[c][x] for x in x0], mod)


def monics(F: GF, d: int):
    """All monic polynomials of degree d."""
    for tail in itertools.product(range(F.q), repeat=d):
        yield list(tail) + [1]


def ell(F: GF, d: int):
    """l_d as a polynomial over the prime field inside F_q."""
    acc = [1]
    for i in range(1, d + 1):
        fac = [0] * (F.q**i + 1)
        fac[1] = 1
        fac[F.q**i] = F.neg[1]
        acc = pmul(F, acc, fac)
    return acc


def ell_degree(q: int, d: int) -> int:
    return sum(q**i for i in range(1, d + 1))


# ---------------------------------------------------------------------------
# truncated Laurent series in 1/theta, with absolute precision
# ---------------------------------------------------------------------------


class Laurent:
    """sum_i c[i] theta^(-(v + i)) + O(theta^(-N)) over F_q, coefficients as
    codes.  v is None for a series known to be zero below N; N None means
    exact."""

    __slots__ = ("F", "v", "c", "N")

    def __init__(self, F: GF, v, c, N):
        c = list(c)
        if v is not None and N is not None:
            c = c[:max(N - v, 0)]
        while c and c[0] == 0:
            c.pop(0)
            v += 1
        while c and c[-1] == 0:
            c.pop()
        self.F, self.v, self.c, self.N = F, (v if c else None), c, N

    @classmethod
    def from_terms(cls, F: GF, terms: dict, N) -> "Laurent":
        """From {n: code of the coefficient of theta^(-n)}."""
        if not terms:
            return cls(F, None, [], N)
        v = min(terms)
        c = [0] * (max(terms) - v + 1)
        for n, x in terms.items():
            c[n - v] = x
        return cls(F, v, c, N)

    @classmethod
    def from_dict(cls, F: GF, d: dict) -> "Laurent":
        """From tmzv's to_dict form: coefficients as base-p digit lists."""
        if d["ram"] != 1:
            raise ValueError("reference series live in K_inf, not K_inf(eta)")
        if (d["field"]["p"], d["field"]["m"]) != (F.p, F.m):
            raise ValueError("series over another field")
        return cls(F, d["v"], [F.code(digs) for digs in d["coeffs"]], d["N"])

    def __eq__(self, other):
        return (self.F.q, self.v, self.c, self.N) == (
            other.F.q, other.v, other.c, other.N)

    def __repr__(self):
        return "Laurent(q=%d, v=%r, c=%r, N=%r)" % (
            self.F.q, self.v, self.c, self.N)

    def floor(self):
        """Lowest exponent that is not known to be zero (N for a zero)."""
        return self.v if self.v is not None else self.N

    def truncate(self, N: int) -> "Laurent":
        return Laurent(self.F, self.v, self.c, _min_prec(self.N, N))

    def __add__(self, other):
        F = self.F
        N = _min_prec(self.N, other.N)
        if self.v is None:
            return Laurent(F, other.v, other.c, N)
        if other.v is None:
            return Laurent(F, self.v, self.c, N)
        v = min(self.v, other.v)
        out = [0] * (max(self.v + len(self.c), other.v + len(other.c)) - v)
        for x in (self, other):
            for i, c in enumerate(x.c):
                out[x.v - v + i] = F.add[out[x.v - v + i]][c]
        return Laurent(F, v, out, N)

    def __neg__(self):
        return Laurent(self.F, self.v, [self.F.neg[c] for c in self.c], self.N)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.F
        cands = []
        if self.N is not None and other.floor() is not None:
            cands.append(self.N + other.floor())
        if other.N is not None and self.floor() is not None:
            cands.append(other.N + self.floor())
        N = min(cands) if cands else None
        if self.v is None or other.v is None:
            return Laurent(F, None, [], N)
        a, b = self.c, other.c
        if N is not None:
            # coefficients at or beyond N do not matter
            a = a[:max(N - self.v - other.v, 0)]
            b = b[:max(N - self.v - other.v, 0)]
        if F.m == 1:
            prod = kronecker_mul(F.p, a, b)
        else:
            prod = pmul(F, a, b)
            prod += [0] * (len(a) + len(b) - 1 - len(prod))
        return Laurent(F, self.v + other.v, prod, N)

    def frobenius(self, i: int) -> "Laurent":
        """The q^i-th power: exponents and precision scale by q^i (F_q is
        fixed by x -> x^q)."""
        k = self.F.q**i
        N = None if self.N is None else self.N * k
        if self.v is None:
            return Laurent(self.F, None, [], N)
        out = [0] * ((len(self.c) - 1) * k + 1)
        out[::k] = self.c
        return Laurent(self.F, self.v * k, out, N)

    def is_exact_zero(self) -> bool:
        return self.v is None and self.N is None

    def signed(self, n: int) -> "Laurent":
        return -self if n % 2 else self

    def vanishes_below(self, n: int) -> bool:
        """Known, and zero, at every exponent below n."""
        return (self.N is None or self.N >= n) and (self.v is None or self.v >= n)


def _min_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def kronecker_mul(p: int, a, b):
    """Product of coefficient lists mod p through one big-integer product:
    each coefficient gets a slot wide enough for its exact sum."""
    if not a or not b:
        return []
    width = (min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 1
    A = B = 0
    for c in reversed(a):
        A = (A << width) | c
    for c in reversed(b):
        B = (B << width) | c
    prod = A * B
    mask = (1 << width) - 1
    out = []
    for _ in range(len(a) + len(b) - 1):
        out.append((prod & mask) % p)
        prod >>= width
    return out


def one(F: GF) -> Laurent:
    return Laurent(F, 0, [1], None)


def poly_inverse(F: GF, a, N: int) -> Laurent:
    """1/a for a nonzero polynomial a, to absolute precision N (schoolbook
    long division in 1/theta; used only by the brute-force tests)."""
    a = ptrim(a)
    d = len(a) - 1
    rev = a[::-1]  # rev[i] = coefficient of theta^(d - i)
    c0 = F.inv[rev[0]]
    coeffs = []
    for k in range(max(N - d, 0)):
        acc = 0
        for i in range(1, min(k, d) + 1):
            acc = F.add[acc][F.mul[rev[i]][coeffs[k - i]]]
        coeffs.append(F.mul[c0][F.neg[acc]] if k else c0)
    return Laurent(F, d, coeffs, N)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _chain_term(q: int, p: int, factors, shift: int, N: int, acc: dict):
    """Add (-1)^(sum s d) theta^(-shift - sum s deg l_d) prod 1/(1 -
    theta^(-(q^j - 1)))^s over the factors (d, s) into acc (mod p)."""
    lo = shift + sum(s * ell_degree(q, d) for d, s in factors)
    L = N - lo
    if L <= 0:
        return
    c = [0] * L
    c[0] = 1
    for d, s in factors:
        for j in range(1, d + 1):
            m = q**j - 1
            for _ in range(s):
                for start in range(m, L, m):
                    end = min(start + m, L)
                    c[start:end] = [(x + y) % p for x, y in
                                    zip(c[start:end], c[start - m:end - m])]
    if sum(s * d for d, s in factors) % 2:
        c = [(-x) % p for x in c]
    for i, x in enumerate(c):
        if x:
            n = lo + i
            acc[n] = (acc.get(n, 0) + x) % p


def mzv_closed(q: int, s, N: int) -> Laurent:
    """zeta_A(s) to absolute precision N, for every s_i <= q.  The answer
    has coefficients in the prime field F_p, whose codes are the integers
    mod p."""
    if any(not 1 <= si <= q for si in s):
        raise ValueError("the closed form needs 1 <= s_i <= q")
    F = gf(q)
    acc: dict = {}
    r = len(s)

    def rec(j, dmax, factors, lo):
        if j == r:
            _chain_term(q, F.p, factors, 0, N, acc)
            return
        for d in range(r - j - 1, dmax):
            e = lo + s[j] * ell_degree(q, d)
            if e >= N:
                break
            rec(j + 1, d, factors + [(d, s[j])], e)

    # the outermost degree is bounded by the precision
    top = 0
    while s[0] * ell_degree(q, top) < N:
        top += 1
    rec(0, top + 1, [], 0)
    return Laurent.from_terms(F, acc, N)


def inv_ell(q: int, n: int, N: int, k: int = 1) -> Laurent:
    """l_n^(-k) to absolute precision N."""
    F = gf(q)
    acc: dict = {}
    _chain_term(q, F.p, [(n, k)], 0, N, acc)
    return Laurent.from_terms(F, acc, N)


def polylog_closed(q: int, s: int, u_degree: int, N: int) -> Laurent:
    """Li_s(u) for u = theta^u_degree (u_degree in {0, 1}): sum over i of
    theta^(u_degree q^i) / l_i^s, to absolute precision N."""
    F = gf(q)
    acc: dict = {}
    i = 0
    while s * ell_degree(q, i) - u_degree * q**i < N:
        _chain_term(q, F.p, [(i, s)], -u_degree * q**i, N, acc)
        i += 1
    return Laurent.from_terms(F, acc, N)


# ---------------------------------------------------------------------------
# nu-adic values: the interpolated sum over monics prime to nu
# ---------------------------------------------------------------------------


def nu_interpolated(F: GF, nu, k: int, K: int, max_monics: int = 6561):
    """(sum over monic a prime to nu of a^(-k)) * nu^k / (nu^k - 1) modulo
    nu^K.  Degrees are summed until two consecutive degrees contribute zero
    modulo nu^K; raises if that needs more than max_monics monics."""
    mod = ppow(F, nu, K)
    total = []
    zero_run = 0
    d = 0
    while zero_run < 2:
        if F.q**d > max_monics:
            raise ArithmeticError("interpolated sum did not settle")
        part = []
        for a in monics(F, d):
            if pmod(F, a, nu):
                part = padd(F, part, pinv_mod(F, ppow(F, a, k), mod))
        part = pmod(F, part, mod)
        total = padd(F, total, part)
        zero_run = zero_run + 1 if not part else 0
        d += 1
    nuk = ppow(F, nu, k)
    fac = pmul(F, nuk, pinv_mod(F, psub(F, nuk, [1]), mod))
    return pmod(F, pmul(F, total, fac), mod)
