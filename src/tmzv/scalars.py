"""Exact arithmetic for F_q, A = F_q[theta], K = F_q(theta), and the
completion K_inf = F_q((1/theta)) with tracked guaranteed precision.

F_q elements are integer codes 0..q-1: the code's base-p digits are the
coordinates in the modulus basis of F_q = F_p[x]/(modulus).  A FieldSpec
precomputes add/mul/inv tables, so element arithmetic is table lookup.

Polynomial products over a prime field F_p (FieldSpec.conv) are one
big-integer product (Kronecker substitution): each coefficient list is
packed into an integer, one fixed-width slot per coefficient, the two
integers are multiplied and the slots of the product are read back and
reduced mod p.  A product slot holds a sum of at most min(len) terms, each
at most (p-1)^2, so the slot width is the smallest of 1, 2, 4 or 8 bytes
that holds min(len) * (p-1)^2; packing and unpacking go through an array of
that item size in the machine's byte order.  Over F_q with q = p^m, m > 1,
conv is a schoolbook product on the multiplication table that skips zero
coefficients of both operands.  conv(xs, ys, n) returns only the first n
coefficients of the product: the packed product is cut to n slots before it
is unpacked, and the table path computes no more.

PrecisionLaurent represents an element of K_inf (ram = 1) or of the totally
ramified extension K_inf(eta), eta^(q-1) = -theta (ram = q-1), as a truncated
Laurent series.  Exponent n stands for theta^(-n) (resp. eta^(-n)); the
valuation v_inf is n/ram.  Every value carries a guaranteed precision N: all
coefficients with exponent < N are correct.  N = None means exact.
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array
from fractions import Fraction

# array typecode for each slot width in bytes
_SLOT_TYPECODES = {array(c).itemsize: c for c in "QLIHB"}


def _pack_mul(p: int, xs, ys, n=None):
    """Multiply two F_p coefficient lists via packed big-integer arithmetic;
    with n, only the first n product coefficients are unpacked."""
    bound = min(len(xs), len(ys)) * (p - 1) ** 2
    width = next(w for w in (1, 2, 4, 8) if bound >> (8 * w) == 0)
    code = _SLOT_TYPECODES[width]
    order = sys.byteorder
    prod = int.from_bytes(array(code, xs).tobytes(), order) * int.from_bytes(
        array(code, ys).tobytes(), order
    )
    size = len(xs) + len(ys) - 1
    if n is not None and n < size:
        size = n
        prod &= (1 << (8 * width * n)) - 1
    out = array(code)
    out.frombytes(prod.to_bytes(width * size, order))
    return [c % p for c in out]


class FieldSpec:
    """F_q with q = p^m, defined by a monic irreducible modulus over F_p.

    Elements are integer codes in [0, q): code = sum(c_i * p^i) for
    coordinates (c_0, ..., c_{m-1}) in the basis 1, x, ..., x^{m-1}.
    """

    def __init__(self, p: int, m: int = 1, modulus=None):
        if p < 2 or not _is_prime(p):
            raise ValueError("p must be prime")
        if m < 1:
            raise ValueError("m must be >= 1")
        self.p = p
        self.m = m
        self.q = p**m
        if self.q > 4096:
            raise ValueError("field too large for table-based arithmetic")
        if modulus is None:
            modulus = _default_modulus(p, m)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if not _is_irreducible(p, modulus):
            raise ValueError("modulus is not irreducible over F_p")
        self.modulus = modulus
        self._build_tables()

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q

        def digits(c):
            out = []
            for _ in range(m):
                out.append(c % p)
                c //= p
            return out

        def code(ds):
            c = 0
            for d in reversed(ds):
                c = c * p + (d % p)
            return c

        self._digits = digits
        self.add_table = [[0] * q for _ in range(q)]
        self.neg_table = [0] * q
        for a in range(q):
            da = digits(a)
            self.neg_table[a] = code([(-d) % p for d in da])
            for b in range(q):
                db = digits(b)
                self.add_table[a][b] = code([(x + y) % p for x, y in zip(da, db)])
        # multiplication: polynomial product reduced by the modulus
        red = [c % p for c in self.modulus[:-1]]
        self.mul_table = [[0] * q for _ in range(q)]
        for a in range(q):
            da = digits(a)
            for b in range(q):
                db = digits(b)
                prod = [0] * (2 * m - 1)
                for i, x in enumerate(da):
                    if x:
                        for j, y in enumerate(db):
                            prod[i + j] = (prod[i + j] + x * y) % p
                for k in range(2 * m - 2, m - 1, -1):
                    c = prod[k]
                    if c:
                        prod[k] = 0
                        for j in range(m):
                            prod[k - m + j] = (prod[k - m + j] - c * red[j]) % p
                self.mul_table[a][b] = code(prod[:m])
        self.inv_table = [0] * q
        for a in range(1, q):
            x = a
            # a^(q-2) = a^(-1)
            acc, e, base = 1, q - 2, a
            while e:
                if e & 1:
                    acc = self.mul_table[acc][base]
                base = self.mul_table[base][base]
                e >>= 1
            self.inv_table[a] = acc
        self.one = 1 % q if q > 1 else 0

    # element ops (codes)
    def add(self, a, b):
        return self.add_table[a][b]

    def sub(self, a, b):
        return self.add_table[a][self.neg_table[b]]

    def neg(self, a):
        return self.neg_table[a]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        return self.inv_table[a]

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        acc, base = self.one, a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def from_int(self, n: int):
        """Image of an integer under F_p -> F_q (prime-subfield element)."""
        return n % self.p

    def conv(self, xs, ys, n=None):
        """Convolution (polynomial product coefficients) of F_q code lists;
        with n, only the first n coefficients of the product."""
        if not xs or not ys:
            return []
        if self.m == 1:
            return _pack_mul(self.p, xs, ys, n)
        size = len(xs) + len(ys) - 1
        if n is not None:
            size = min(size, n)
        out = [0] * size
        mt, at = self.mul_table, self.add_table
        nz = [(j, y) for j, y in enumerate(ys) if y]
        for i, x in enumerate(xs[:size]):
            if x:
                row = mt[x]
                for j, y in nz:
                    if i + j >= size:
                        break
                    out[i + j] = at[out[i + j]][row[y]]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, m={self.m}, modulus={self.modulus})"


def _is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


def _poly_mod(p, a, mod):
    a = list(a)
    dm = len(mod) - 1
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k]
        if c:
            for j in range(dm + 1):
                a[k - dm + j] = (a[k - dm + j] - c * mod[j]) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _is_irreducible(p, mod):
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(mod) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            # long division remainder of mod by div
            rem = list(mod)
            dd = len(div) - 1
            while len(rem) - 1 >= dd and any(rem):
                c = rem[-1]
                shift = len(rem) - 1 - dd
                for j in range(dd + 1):
                    rem[shift + j] = (rem[shift + j] - c * div[j]) % p
                while rem and rem[-1] == 0:
                    rem.pop()
            if not rem:
                return False
    return True


def _default_modulus(p, m):
    """Lexicographically least monic irreducible of degree m over F_p."""
    if m == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=m):
        cand = tuple(reversed(tail)) + (1,)  # lexicographic in (c_{m-1},...,c_0)
        if _is_irreducible(p, cand):
            return cand
    raise RuntimeError("no irreducible modulus found")


MEMO_ENTRIES = 8192


def memo(fn):
    """Memoise fn on its positional arguments, compared by value (== and
    hash), so an argument built afresh hits the entry of an equal one.  Each
    function keeps at most MEMO_ENTRIES results and drops the oldest first;
    the table is fn.table."""
    table = {}
    miss = object()

    @functools.wraps(fn)
    def cached(*args):
        got = table.get(args, miss)
        if got is miss:
            got = fn(*args)
            if len(table) >= MEMO_ENTRIES:
                del table[next(iter(table))]
            table[args] = got
        return got

    cached.table = table
    return cached


@memo
def field(p: int, m: int = 1, modulus=None) -> FieldSpec:
    return FieldSpec(p, m, modulus)


class APoly:
    """Polynomial in theta over F_q; coefficient i is the theta^i code."""

    __slots__ = ("fs", "coeffs")

    def __init__(self, fs: FieldSpec, coeffs=()):
        self.fs = fs
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls, fs):
        return cls(fs, ())

    @classmethod
    def one(cls, fs):
        return cls(fs, (fs.one,))

    @classmethod
    def theta(cls, fs):
        return cls(fs, (0, fs.one))

    @classmethod
    def const(cls, fs, c):
        return cls(fs, (c,))

    @classmethod
    def monomial(cls, fs, deg, c=None):
        return cls(fs, (0,) * deg + ((fs.one if c is None else c),))

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def lead(self):
        return self.coeffs[-1] if self.coeffs else 0

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.fs.one

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        return isinstance(other, APoly) and self.fs == other.fs and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.fs, self.coeffs))

    def __add__(self, other):
        fs = self.fs
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = fs.add(out[i], c)
        return APoly(fs, out)

    def __neg__(self):
        fs = self.fs
        return APoly(fs, [fs.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = APoly.const(self.fs, other % self.fs.q if other >= 0 else self.fs.neg((-other) % self.fs.q))
        return APoly(self.fs, self.fs.conv(self.coeffs, other.coeffs))

    def scale(self, c):
        fs = self.fs
        return APoly(fs, [fs.mul(c, x) for x in self.coeffs])

    def shift(self, k):
        """Multiply by theta^k (k >= 0)."""
        if self.is_zero():
            return self
        return APoly(self.fs, (0,) * k + self.coeffs)

    def __divmod__(self, other):
        fs = self.fs
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree()
        ilead = fs.inv(other.lead())
        quo = [0] * max(0, len(rem) - db)
        while len(rem) - 1 >= db and rem:
            c = fs.mul(rem[-1], ilead)
            shift = len(rem) - 1 - db
            quo[shift] = c
            for j in range(db + 1):
                rem[shift + j] = fs.sub(rem[shift + j], fs.mul(c, other.coeffs[j]))
            while rem and rem[-1] == 0:
                rem.pop()
        return APoly(fs, quo), APoly(fs, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if not a.is_zero() and not a.is_monic():
            a = a.scale(a.fs.inv(a.lead()))
        return a

    def ext_gcd(self, other):
        """Return (g, x, y) with x*self + y*other = g, g monic (or zero)."""
        fs = self.fs
        r0, r1 = self, other
        x0, x1 = APoly.one(fs), APoly.zero(fs)
        y0, y1 = APoly.zero(fs), APoly.one(fs)
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        if not r0.is_zero() and not r0.is_monic():
            c = fs.inv(r0.lead())
            r0, x0, y0 = r0.scale(c), x0.scale(c), y0.scale(c)
        return r0, x0, y0

    def pow(self, e, mod=None):
        if e < 0:
            raise ValueError("negative exponent")
        acc, base = APoly.one(self.fs), self
        if mod is not None:
            base = base % mod
        while e:
            if e & 1:
                acc = acc * base
                if mod is not None:
                    acc = acc % mod
            base = base * base
            if mod is not None:
                base = base % mod
            e >>= 1
        return acc

    def frobenius(self, i: int):
        """theta -> theta^(q^i) on exponents (F_q coefficients are fixed)."""
        if i == 0 or self.is_zero():
            return self
        if i < 0:
            k = self.fs.q ** (-i)
            out = [0] * (self.degree() // k + 1)
            for j, c in enumerate(self.coeffs):
                if c:
                    if j % k:
                        raise ValueError("q-th root not representable in A")
                    out[j // k] = c
            return APoly(self.fs, out)
        k = self.fs.q**i
        out = [0] * (self.degree() * k + 1)
        for j, c in enumerate(self.coeffs):
            if c:
                out[j * k] = c
        return APoly(self.fs, out)

    def eval_fq(self, x):
        """Evaluate at an F_q code (Horner)."""
        fs = self.fs
        acc = 0
        for c in reversed(self.coeffs):
            acc = fs.add(fs.mul(acc, x), c)
        return acc

    def laurent(self, N=None, ram=1):
        """Embed into PrecisionLaurent (exponent -deg..0, optionally ramified)."""
        return PrecisionLaurent.from_apoly(self, N=N, ram=ram)

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for j in range(self.degree(), -1, -1):
            c = self[j]
            if not c:
                continue
            cs = "" if (c == self.fs.one and j > 0) else str(c)
            if j == 0:
                terms.append(str(c))
            elif j == 1:
                terms.append(f"{cs}θ")
            else:
                terms.append(f"{cs}θ^{j}")
        return " + ".join(terms)


def monic_enumerate(fs: FieldSpec, d: int):
    """All q^d monic polynomials of degree d, lexicographic in
    (c_{d-1}, ..., c_0)."""
    if d == 0:
        yield APoly.one(fs)
        return
    for tail in itertools.product(range(fs.q), repeat=d):
        yield APoly(fs, tuple(reversed(tail)) + (fs.one,))


class RatFunc:
    """Element of K = F_q(theta) as a reduced fraction num/den, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: APoly, den: APoly = None, reduce=True):
        fs = num.fs
        if den is None:
            den = APoly.one(fs)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = APoly.one(fs)
        elif reduce:
            if den.degree() == 0:
                c = fs.inv(den.coeffs[0])
                num, den = num.scale(c), APoly.one(fs)
            else:
                g = num.gcd(den)
                if g.degree() > 0:
                    num, den = num // g, den // g
                if not den.is_monic():
                    c = fs.inv(den.lead())
                    num, den = num.scale(c), den.scale(c)
        self.num = num
        self.den = den

    @property
    def fs(self):
        return self.num.fs

    @classmethod
    def zero(cls, fs):
        return cls(APoly.zero(fs))

    @classmethod
    def one(cls, fs):
        return cls(APoly.one(fs))

    @classmethod
    def theta(cls, fs):
        return cls(APoly.theta(fs))

    @classmethod
    def from_apoly(cls, a: APoly):
        return cls(a)

    def is_zero(self):
        return self.num.is_zero()

    def is_poly(self):
        return self.den.degree() == 0

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in K")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def frobenius(self, i: int):
        return RatFunc(self.num.frobenius(i), self.den.frobenius(i))

    def laurent(self, N=None, ram=1):
        a = self.num.laurent(N=N, ram=ram)
        if self.is_poly():
            return a
        return a / self.den.laurent(N=N, ram=ram)

    def __repr__(self):
        if self.is_poly():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


class PrecisionLaurent:
    """Truncated Laurent series over F_q with guaranteed precision.

    Exponent n stands for theta^(-n) when ram == 1, eta^(-n) when
    ram == q-1 (eta^(q-1) = -theta).  v_inf = n / ram.  All coefficients
    with exponent < N are guaranteed correct; N = None means exact.
    A zero marker (v = None) is "zero to precision N".
    """

    __slots__ = ("fs", "ram", "v", "coeffs", "N")

    def __init__(self, fs, v, coeffs, N=None, ram=1):
        self.fs = fs
        self.ram = ram
        c = coeffs if isinstance(coeffs, (list, tuple)) else list(coeffs)
        hi = len(c)
        if v is not None and N is not None:
            # drop stored coefficients at exponents >= N
            hi = max(min(hi, N - v), 0)
        lo = 0
        while lo < hi and not c[lo]:
            lo += 1
        while hi > lo and not c[hi - 1]:
            hi -= 1
        if lo == hi:
            self.v = None
            self.coeffs = ()
        else:
            self.v = v + lo
            self.coeffs = tuple(c[lo:hi])
        self.N = N

    # constructors
    @classmethod
    def zero(cls, fs, N=None, ram=1):
        return cls(fs, None, (), N=N, ram=ram)

    @classmethod
    def one(cls, fs, N=None, ram=1):
        return cls(fs, 0, (fs.one,), N=N, ram=ram)

    @classmethod
    def const(cls, fs, c, N=None, ram=1):
        return cls(fs, 0, (c,), N=N, ram=ram)

    @classmethod
    def monomial(cls, fs, v, c=None, N=None, ram=1):
        return cls(fs, v, ((c if c is not None else fs.one),), N=N, ram=ram)

    @classmethod
    def theta_pow(cls, fs, k, N=None, ram=1):
        """theta^k as a series in the given tower."""
        if ram == 1:
            return cls(fs, -k, (fs.one,), N=N, ram=1)
        # theta = -eta^(q-1)
        c = fs.one if k % 2 == 0 else fs.neg(fs.one)
        return cls(fs, -k * ram, (c,), N=N, ram=ram)

    @classmethod
    def eta_pow(cls, fs, k, N=None):
        q = fs.q
        return cls(fs, -k, (fs.one,), N=N, ram=q - 1)

    @classmethod
    def from_apoly(cls, a: APoly, N=None, ram=1):
        fs = a.fs
        if a.is_zero():
            return cls.zero(fs, N=N, ram=ram)
        d = a.degree()
        if ram == 1:
            coeffs = [a[d - i] for i in range(d + 1)]
            return cls(fs, -d, coeffs, N=N, ram=1)
        e = ram
        coeffs = [0] * (d * e + 1)
        for j in range(d + 1):
            c = a[j]
            if c:
                if j % 2:
                    c = fs.neg(c)
                coeffs[(d - j) * e] = c
        return cls(fs, -d * e, coeffs, N=N, ram=e)

    # queries
    def is_zero_to_prec(self):
        return self.v is None

    def is_exact(self):
        return self.N is None

    def valuation(self):
        """Exact valuation in exponent units; raises on zero-to-precision."""
        if self.v is None:
            raise _PrecisionError("zero to precision; valuation unknown")
        return self.v

    def v_infty(self) -> Fraction:
        return Fraction(self.valuation(), self.ram)

    def abs_infty_exp(self) -> Fraction:
        """Exponent e with |x| = q^e."""
        return -self.v_infty()

    def __getitem__(self, n):
        """Coefficient at exponent n (must be below N when N is finite)."""
        if self.N is not None and n >= self.N:
            raise _PrecisionError(f"coefficient at exponent {n} beyond precision {self.N}")
        if self.v is None:
            return 0
        i = n - self.v
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _check(self, other):
        if self.fs != other.fs or self.ram != other.ram:
            raise ValueError("mismatched field spec or ramification")

    # arithmetic
    def __add__(self, other):
        return self._add(other, False)

    def __sub__(self, other):
        return self._add(other, True)

    def _add(self, other, negate):
        """self + other, or self - other in the same single pass."""
        self._check(other)
        fs = self.fs
        N = _minN(self.N, other.N)
        if other.v is None:
            if self.v is None:
                return PrecisionLaurent.zero(fs, N=N, ram=self.ram)
            return PrecisionLaurent(fs, self.v, self.coeffs, N=N, ram=self.ram)
        nt = fs.neg_table
        if self.v is None:
            ys = [nt[c] for c in other.coeffs] if negate else other.coeffs
            return PrecisionLaurent(fs, other.v, ys, N=N, ram=self.ram)
        v = min(self.v, other.v)
        top = max(self.v + len(self.coeffs), other.v + len(other.coeffs))
        out = [0] * (top - v)
        out[self.v - v : self.v - v + len(self.coeffs)] = self.coeffs
        at = fs.add_table
        if negate:
            for i, c in enumerate(other.coeffs, other.v - v):
                if c:
                    out[i] = at[out[i]][nt[c]]
        else:
            for i, c in enumerate(other.coeffs, other.v - v):
                if c:
                    out[i] = at[out[i]][c]
        return PrecisionLaurent(fs, v, out, N=N, ram=self.ram)

    def __neg__(self):
        fs = self.fs
        return PrecisionLaurent(
            fs, self.v, [fs.neg(c) for c in self.coeffs], N=self.N, ram=self.ram
        )

    def __mul__(self, other):
        self._check(other)
        fs = self.fs
        if self.v is None or other.v is None:
            # error term valuations: v(a) + N(b) and v(b) + N(a)
            cands = []
            for x, y in ((self, other), (other, self)):
                if x.N is not None:
                    base = y.v if y.v is not None else y.N
                    if base is not None:
                        cands.append(x.N + base)
            N = min(cands) if cands else None
            return PrecisionLaurent.zero(fs, N=N, ram=self.ram)
        N = None
        cands = []
        if self.N is not None:
            cands.append(self.N + other.v)
        if other.N is not None:
            cands.append(other.N + self.v)
        v = self.v + other.v
        xs, ys, n = self.coeffs, other.coeffs, None
        if cands:
            N = min(cands)
            # a coefficient at index N - v or later in either operand only
            # reaches exponents >= N, which the product drops, so neither
            # operand nor the product goes past it; N - v is
            # min(N_a - v_a, N_b - v_b) >= 1, as a series stores no
            # coefficient at or past its N
            n = N - v
            xs, ys = xs[:n], ys[:n]
        return PrecisionLaurent(fs, v, fs.conv(xs, ys, n), N=N, ram=self.ram)

    def scale(self, c):
        fs = self.fs
        if c == 0:
            return PrecisionLaurent.zero(fs, N=self.N, ram=self.ram)
        return PrecisionLaurent(
            fs, self.v, [fs.mul(c, x) for x in self.coeffs], N=self.N, ram=self.ram
        )

    def shift(self, k):
        """Multiply by the uniformizer^(-k): exponent shift by k."""
        if self.v is None:
            return PrecisionLaurent.zero(self.fs, N=None if self.N is None else self.N + k, ram=self.ram)
        return PrecisionLaurent(
            self.fs, self.v + k, self.coeffs, N=None if self.N is None else self.N + k, ram=self.ram
        )

    def inv(self, window=None):
        """Series inverse.  Result precision N - 2v (exact stays exact up to
        the requested window)."""
        if self.v is None:
            raise _PrecisionError("division by zero-to-precision value")
        fs = self.fs
        v = self.v
        if self.N is None and len(self.coeffs) == 1:
            # exact monomial: exact inverse
            return PrecisionLaurent(
                fs, -v, (fs.inv(self.coeffs[0]),), N=None, ram=self.ram
            )
        if self.N is not None:
            W = self.N - v
        else:
            W = window if window is not None else max(len(self.coeffs) * 2, 64)
        W = max(W, 1)
        b = self.coeffs
        c0inv = fs.inv(b[0])
        out = [0] * W
        out[0] = c0inv
        for n in range(1, W):
            acc = 0
            for k in range(1, min(n, len(b) - 1) + 1):
                acc = fs.add(acc, fs.mul(b[k], out[n - k]))
            out[n] = fs.neg(fs.mul(c0inv, acc))
        if self.N is not None:
            N = self.N - 2 * v
        elif window is not None:
            N = -v + W
        else:
            N = None
            if len(self.coeffs) > 1:
                # a finite exact series usually has an infinite inverse;
                # cap honestly at the computed window
                N = -v + W
        return PrecisionLaurent(fs, -v, out, N=N, ram=self.ram)

    def __truediv__(self, other):
        return self * other.inv()

    def pow(self, e, window=None):
        if e < 0:
            return self.inv(window=window).pow(-e, window=window)
        acc = PrecisionLaurent.one(self.fs, ram=self.ram)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def frobenius(self, i: int):
        """q^i power: exponent scaling (F_q coefficients are Frobenius-fixed)."""
        if i == 0:
            return self
        q = self.fs.q
        if i > 0:
            k = q**i
            if self.v is None:
                return PrecisionLaurent.zero(
                    self.fs, N=None if self.N is None else self.N * k, ram=self.ram
                )
            out = [0] * ((len(self.coeffs) - 1) * k + 1)
            for j, c in enumerate(self.coeffs):
                if c:
                    out[j * k] = c
            return PrecisionLaurent(
                self.fs, self.v * k, out, N=None if self.N is None else self.N * k, ram=self.ram
            )
        k = q ** (-i)
        newN = None if self.N is None else -((-self.N) // k)  # ceil(N/k)
        if self.v is None:
            return PrecisionLaurent.zero(self.fs, N=newN, ram=self.ram)
        if self.v % k:
            raise ValueError("q-th root not representable: valuation not divisible")
        out = [0] * ((len(self.coeffs) - 1) // k + 1)
        for j, c in enumerate(self.coeffs):
            if c:
                n = self.v + j
                if n % k:
                    raise ValueError("q-th root not representable: exponent not divisible")
                out[n // k - self.v // k] = c
        return PrecisionLaurent(self.fs, self.v // k, out, N=newN, ram=self.ram)

    def truncate(self, N):
        """Reduce guaranteed precision to N (no-op if already weaker)."""
        if self.N is not None and self.N <= N:
            return self
        if self.v is None:
            return PrecisionLaurent.zero(self.fs, N=N, ram=self.ram)
        return PrecisionLaurent(self.fs, self.v, self.coeffs, N=N, ram=self.ram)

    # tower maps
    def embed_ram(self):
        """Embedding K_inf -> K_inf(eta): exponents scale by e = q-1,
        theta^(-n) -> (-1)^n eta^(-n(q-1))."""
        if self.ram != 1:
            raise ValueError("already ramified")
        fs = self.fs
        e = fs.q - 1
        N = None if self.N is None else self.N * e
        if self.v is None:
            return PrecisionLaurent.zero(fs, N=N, ram=e)
        out = [0] * ((len(self.coeffs) - 1) * e + 1)
        for j, c in enumerate(self.coeffs):
            if c:
                n = self.v + j
                out[j * e] = c if n % 2 == 0 else fs.neg(c)
        return PrecisionLaurent(fs, self.v * e, out, N=N, ram=e)

    def restrict(self):
        """Inverse of embed_ram; requires support on multiples of q-1."""
        if self.ram == 1:
            return self
        fs = self.fs
        e = self.ram
        N = None if self.N is None else -((-self.N) // e)
        if self.v is None:
            return PrecisionLaurent.zero(fs, N=N, ram=1)
        if self.v % e:
            raise ValueError("not in the base field: valuation not divisible by e")
        out = [0] * ((len(self.coeffs) - 1) // e + 1)
        for j, c in enumerate(self.coeffs):
            if c:
                n = self.v + j
                if n % e:
                    raise ValueError("not in the base field: exponent not divisible by e")
                out[(n - self.v) // e] = c if n % 2 == 0 else fs.neg(c)
        return PrecisionLaurent(fs, self.v // e, out, N=N, ram=1)

    def residual_valuation(self):
        """How far a residual is certified to vanish, in theta-units: v_inf
        when a coefficient is known, N / ram when the value is zero to
        precision N, None when it is exactly zero."""
        if self.v is None:
            return None if self.N is None else Fraction(self.N, self.ram)
        return Fraction(self.v, self.ram)

    # comparisons
    def eq_to_prec(self, other, N):
        d = self - other
        if d.N is not None and d.N < N:
            raise _PrecisionError(f"cannot compare to precision {N}: only {d.N} available")
        return d.v is None or d.v >= N

    def __eq__(self, other):
        if not isinstance(other, PrecisionLaurent):
            return NotImplemented
        return (
            self.fs == other.fs
            and self.ram == other.ram
            and self.v == other.v
            and self.coeffs == other.coeffs
            and self.N == other.N
        )

    def __hash__(self):
        return hash((self.fs, self.ram, self.v, self.coeffs, self.N))

    def to_dict(self):
        fs = self.fs
        return {
            "field": {"p": fs.p, "m": fs.m, "modulus": list(fs.modulus)},
            "ram": self.ram,
            "v": self.v,
            "N": self.N,
            "coeffs": [fs._digits(c) for c in self.coeffs],
        }

    @classmethod
    def from_dict(cls, d):
        f = d["field"]
        fs = field(f["p"], f["m"], tuple(f["modulus"]))
        coeffs = []
        for digs in d["coeffs"]:
            c = 0
            for x in reversed(digs):
                c = c * fs.p + (x % fs.p)
            coeffs.append(c)
        return cls(fs, d["v"], coeffs, N=d["N"], ram=d["ram"])

    def __repr__(self):
        sym = "θ" if self.ram == 1 else "η"
        if self.v is None:
            return f"O({sym}^-{self.N})" if self.N is not None else "0"
        terms = []
        for j, c in enumerate(self.coeffs[:8]):
            if c:
                n = self.v + j
                terms.append(f"{c}·{sym}^{-n}")
        s = " + ".join(terms)
        if len(self.coeffs) > 8:
            s += " + ..."
        if self.N is not None:
            s += f" + O({sym}^-{self.N})"
        return s


class _PrecisionError(ArithmeticError):
    """Raised when a result is indistinguishable from zero at the available
    precision, or a comparison exceeds the guaranteed window."""


PrecisionError = _PrecisionError


def _minN(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def min_residual_valuation(values):
    """Least residual_valuation over PrecisionLaurent values; None when every
    one is an exact zero."""
    best = None
    for x in values:
        v = x.residual_valuation()
        if v is not None and (best is None or v < best):
            best = v
    return best
