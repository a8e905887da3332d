"""Exact arithmetic for F_q, A = F_q[theta], K = F_q(theta), and the
completion K_inf = F_q((1/theta)) with tracked guaranteed precision.

F_q elements are integer codes 0..q-1: the code's base-p digits are the
coordinates in the basis 1, x, ..., x^(m-1) of F_q = F_p[x]/(modulus).  No
FieldSpec keeps a q x q table:

- over a prime field (m = 1) every element operation is integer arithmetic
  mod p;
- over F_q, q = p^m with m > 1, a FieldSpec keeps the powers of one
  primitive element g (the least code >= p whose order is q - 1) and their
  logarithms, lists of size q.  A product adds logarithms; a sum uses Zech
  logarithms, g^i + g^j = g^(i + Z(j - i)) with g^Z(k) = 1 + g^k;
- the product kernel keeps bytes.translate tables of 256 bytes, each built by
  the first product that reads it: one per byte of the widest product slot
  used so far (one over F_2, at most 255 // (p - 1)), and over F_q with
  m > 1 at most m fold tables and, for q <= 256, m - 1 digit and m - 1 code
  tables.  A table that maps c to c mod p is shared.

Polynomial products (FieldSpec.conv) are big-integer products (Kronecker
substitution), unless one operand is a single coefficient c: that product is
the other operand scaled by c, with no packing.  conv(xs, ys, n) cuts both
operands to n coefficients first and returns the first n coefficients of the
product.  Over F_p each coefficient list is packed into an integer, one
w-byte slot per coefficient, and the two integers are multiplied.  A product
slot holds a sum of at most min(len) terms, each at most (p-1)^2, and w is
the fewest bytes that hold min(len) * (p-1)^2.  While w(p - 1) <= 255 (the
byte route) no Python loop runs per coefficient: an operand is packed by
int.from_bytes (w = 1) or by the slice assignment b[::w] on a bytearray; the
product is converted to bytes once, byte k of every slot is the slice
b[k::w] translated to c * 256^k mod p, the translated slices add as integers
with no carry, since a slot's bytes then sum to at most w(p - 1), and one
more translation reduces the sum mod p.  Where codes are >= 256 or
w(p - 1) > 255, packing and unpacking go instead through an array of 1, 2, 4
or 8-byte machine integers, with one % p per coefficient (the array route):
every p > 127, and from p = 53 on the products whose shorter operand passes
a length that falls with p, 3,851 coefficients at p = 67 and 4 at p = 127.

Over F_q with m > 1 each operand is split into its m digit planes (digit j of
every code, one translation each), and the m^2 plane products are summed as
integers into the planes P_l = sum_{j+k=l} X_j Y_k, l < 2m - 1, of the
product over F_p[x]; their slots hold m * min(len) * (p-1)^2.  Each P_l is
reduced mod p as above; x^m = sum_i red_i x^i mod the modulus folds
P_{2m-2} .. P_m, top first, into the planes below them, each fold an integer
sum of the plane translated to c * red_i mod p; the code tables c ->
(c mod p) * p^j and one more integer sum rebuild the codes.  Over q > 256 the
split and the rebuild go code by code.  On a 2-core x86 VM (Python 3.11) the
F_2 product of two 2,500-coefficient lists costs 0.12 us per output
coefficient, and the F_4 product of two 1,180-coefficient lists 0.32 us.

PrecisionLaurent represents an element of K_inf (ram = 1) or of the totally
ramified extension K_inf(eta), eta^(q-1) = -theta (ram = q-1), as a truncated
Laurent series.  Exponent n stands for theta^(-n) (resp. eta^(-n)); the
valuation v_inf is n/ram.  Every value carries a guaranteed precision N: all
coefficients with exponent < N are correct.  N = None means exact.  Values
are built in K_inf and enter the tower by embed_ram, a ring map that keeps N
(scaled by q-1); only eta_pow, for Omega's eta^(-q), builds inside it.

Its coefficients, a row, are bytes when q <= 256 and p < 128
(FieldSpec.byte_rows), else a tuple; the empty row is ().  Byte rows add as
integers shifted to a common valuation: over F_p a byte then holds at most
2(p - 1) <= 252, so nothing carries and one translation reduces it mod p;
over F_{2^m} the sum is their XOR, and over F_{p^m}, p odd, a loop over the
codes.  A negation is one translation, a cut one slice and rstrip/lstrip.
A twist by q^i, i > 0, is a cut to the codes that land below N, then one
_spread into a zeroed row; a twist by q^-i is the slice cs[::q^i].
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array
from fractions import Fraction

# array typecode for each slot width in bytes (the array route)
_SLOT_TYPECODES = {array(c).itemsize: c for c in "QLIHB"}


def _prime_factors(n):
    """The distinct primes dividing n, in increasing order."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


MAX_Q = 4096


def field_size_error(q) -> ValueError:
    """The error for a field larger than MAX_Q, with q as the caller has
    it (a number, or p^m)."""
    return ValueError("q = %s exceeds the largest supported field size "
                      "q <= %d" % (q, MAX_Q))


class FieldSpec:
    """F_q with q = p^m, defined by a monic irreducible modulus over F_p.

    Elements are integer codes in [0, q): code = sum(c_i * p^i) for
    coordinates (c_0, ..., c_{m-1}) in the basis 1, x, ..., x^{m-1}.
    """

    def __init__(self, p: int, m: int = 1, modulus=None):
        # the size first: factoring a large p is itself an unbounded run
        if p >= 2 and p**m > MAX_Q:
            raise field_size_error("%d^%d" % (p, m))
        if _prime_factors(p) != [p]:
            raise ValueError("p must be prime")
        if m < 1:
            raise ValueError("m must be >= 1")
        self.p = p
        self.m = m
        self.q = p**m
        if modulus is None:
            modulus = _default_modulus(p, m)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if m > 1 and not APoly(field(p), modulus).is_irreducible():
                raise ValueError("modulus is not irreducible over F_p")
        self.modulus = modulus
        self.one = 1
        self._hash = hash((p, m, modulus))
        # the kernel's translate tables, built by the first call that
        # reads them (_slot_tables, _ext_tables)
        self._slot_tabs, self._ext_tabs = (), None
        if m > 1:
            self._build_logs()
        # rows are bytes when a code fits a byte and so does a sum of two
        # digits, at most 2(p - 1) (_row_add); _neg_tab maps c to -c, which
        # characteristic 2 never asks for (_row_neg)
        self.byte_rows = self.q <= 256 and p < 128
        self._neg_tab = self.byte_rows and p > 2 and bytes(
            self.neg(c) if c < self.q else 0 for c in range(256))

    def _build_logs(self):
        """_log[g^i] = i for 0 <= i < q - 1 and _log[0] = Z = 2(q - 1);
        _exp[i] = g^(i mod (q - 1)) for i < Z and _exp[i] = 0 from Z to 2Z,
        so a sum of logarithms that involves the log of 0 reads 0;
        _zech[k] = log(1 + g^k)."""
        p, q = self.p, self.q
        red = [(-c) % p for c in self.modulus[:-1]]  # x^m mod the modulus

        def times(ds, gs):
            # ds * g mod the modulus, by Horner over g's digits gs
            acc = [gs[-1] * d % p for d in ds]
            for gk in reversed(gs[:-1]):
                t = acc[-1]
                acc = [(u + t * r + gk * d) % p
                       for u, r, d in zip([0] + acc[:-1], red, ds)]
            return acc

        def power(ds, e):
            acc = self.digits(1)
            while e:
                if e & 1:
                    acc = times(acc, ds)
                e >>= 1
                if e:
                    ds = times(ds, ds)
            return acc

        one = self.digits(1)
        cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
        g = next(g for g in range(p, q)
                 if all(power(self.digits(g), e) != one for e in cofactors))
        gs = self.digits(g)
        while not gs[-1]:
            gs.pop()
        exp = [1] * (q - 1)
        ds = one
        for i in range(1, q - 1):
            ds = times(ds, gs)
            exp[i] = self.from_digits(ds)
        log = [2 * (q - 1)] * q
        for i, c in enumerate(exp):
            log[c] = i
        # 1 + c steps the lowest digit of c
        self._zech = [log[c - c % p + (c + 1) % p] for c in exp]
        self._exp = exp + exp + [0] * (2 * q - 1)
        self._log = log
        self._half = (q - 1) // 2 if p > 2 else 0  # -1 = g^half

    def digits(self, c):
        """The m base-p digits of a code, lowest first."""
        out = []
        for _ in range(self.m):
            c, d = divmod(c, self.p)
            out.append(d)
        return out

    def row_digits(self, codes):
        """The digit lists of a row of codes, as digits gives them."""
        if self.m == 1:
            return [[c] for c in codes]
        return [list(ds) for ds in zip(*self._digit_planes(codes))]

    def from_digits(self, ds):
        """The code with base-p digits ds, lowest first, each reduced mod p."""
        c = 0
        for d in reversed(ds):
            c = c * self.p + d % self.p
        return c

    # element ops (codes)
    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la]]

    def sub(self, a, b):
        if self.m == 1:
            return (a - b) % self.p
        return self.add(a, self._exp[self._log[b] + self._half])

    def neg(self, a):
        if self.m == 1:
            return -a % self.p
        return self._exp[self._log[a] + self._half]

    def mul(self, a, b):
        if self.m == 1:
            return a * b % self.p
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        if self.m == 1:
            return pow(a, -1, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def from_int(self, n: int):
        """Image of an integer under F_p -> F_q (prime-subfield element)."""
        return n % self.p

    def conv(self, xs, ys, n=None):
        """Convolution (polynomial product coefficients) of F_q code lists;
        with n, only the first n coefficients of the product."""
        if n is not None:
            if len(xs) > n:
                xs = xs[:n]
            if len(ys) > n:
                ys = ys[:n]
        if not xs or not ys:
            return []
        p, m = self.p, self.m
        if len(xs) == 1 or len(ys) == 1:
            # one coefficient c times the other operand: no packing
            if len(xs) != 1:
                xs, ys = ys, xs
            c = xs[0]
            if c == 1:
                return ys
            if m == 1:
                return [c * y % p for y in ys]
            mul = self.mul
            return [mul(c, y) for y in ys]
        size = len(xs) + len(ys) - 1
        if n is not None and n < size:
            size = n
        if m == 1:
            return self._pack_mul(xs, ys, size)
        return self._digit_conv(xs, ys, size)

    def _slot_layout(self, bound):
        """(w, typecode) of the product slots for slot values up to bound:
        w the fewest bytes that hold it while w(p - 1) <= 255, with typecode
        None (the byte route); else w the fewest of 1, 2, 4 or 8, with the
        array typecode of that width (the array route).  _pack and _unpack
        take the pair, so the route is chosen here only."""
        w = (bound.bit_length() + 7) // 8
        if w * (self.p - 1) <= 255:
            return w, None
        w = next(v for v in (1, 2, 4, 8) if v >= w)
        return w, _SLOT_TYPECODES[w]

    def _pack(self, cs, slot):
        """The integer with cs[i] in w-byte slot i; slot is (w, typecode)."""
        w, typecode = slot
        if typecode:
            # list: an array reads a bytes initializer as machine words
            return int.from_bytes(array(typecode, list(cs)).tobytes(), sys.byteorder)
        if w == 1:
            return int.from_bytes(cs, "little")
        b = bytearray(w * len(cs))
        b[::w] = cs
        return int.from_bytes(b, "little")

    def _unpack(self, z, slot, full, size):
        """The first size of the full w-byte slots of z, each reduced mod p:
        bytes on the byte route, a list on the array route.  Byte k of every
        slot is the slice b[k::w], translated to c * 256^k mod p; the
        translated bytes of a slot sum to at most w(p - 1) <= 255, so the
        planes add as integers with no carry, and one more translation
        reduces the sum.  Over F_2 only byte 0 counts, as 256^k is even."""
        p, (w, typecode) = self.p, slot
        if typecode:
            if size < full:
                z &= (1 << (8 * w * size)) - 1
            words = array(typecode)
            words.frombytes(z.to_bytes(w * size, sys.byteorder))
            return [c % p for c in words]
        tabs = self._slot_tables(w)
        b = z.to_bytes(w * full, "little")
        if w == 1 or p == 2:
            return b[:w * size:w].translate(tabs[0])
        acc = 0
        for k, t in enumerate(tabs[:w]):
            acc += int.from_bytes(b[k:w * size:w].translate(t), "little")
        return acc.to_bytes(size, "little").translate(tabs[0])

    def _pack_mul(self, xs, ys, size):
        """The first size coefficients of the product of two F_p coefficient
        lists (bytes on the byte route, a list on the array route): one
        big-integer product (Kronecker substitution), whose slots each sum
        at most min(len) terms of at most (p - 1)^2."""
        slot = self._slot_layout(min(len(xs), len(ys)) * (self.p - 1) ** 2)
        z = self._pack(xs, slot) * self._pack(ys, slot)
        return self._unpack(z, slot, len(xs) + len(ys) - 1, size)

    def geometric(self, cs, step, L):
        """The first L coefficients of cs / (1 - z^step) = cs prod_{j <
        steps} (1 + z^(step 2^j)) mod z^L, 2^steps step >= L: cs packed into
        one integer in the kernel's slots, each factor a shift and an add,
        and the slots, sums of at most 2^steps digits < p, reduced mod p
        once at the end.  Over F_q with m > 1 this runs per digit plane, as
        a sum in F_q is digit-wise."""
        steps = 0
        while step << steps < L:
            steps += 1
        slot = self._slot_layout((self.p - 1) << steps)
        shift = 8 * slot[0] * step
        mask = (1 << 8 * slot[0] * L) - 1
        planes = []
        cs = cs[:L]
        for plane in [cs] if self.m == 1 else self._digit_planes(cs):
            z = self._pack(plane, slot)
            for j in range(steps):
                z += z << (shift << j)
            planes.append(self._unpack(z & mask, slot, L, L))
        return planes[0] if self.m == 1 else self._from_planes(planes)

    def _digit_conv(self, xs, ys, size):
        """conv over F_q, q = p^m with m > 1, cut to size coefficients.  The
        digit planes X_j of xs and Y_k of ys (digit j, resp. k, of every
        code) give the planes P_l = sum_{j+k=l} X_j Y_k of the product over
        F_p[x], l < 2m - 1, each from m or fewer packed products summed as
        integers; x^m = sum_i red_i x^i mod the modulus folds P_{2m-2} ..
        P_m, top first, into the planes below them, and the m planes left
        are the digits of the product's codes."""
        m = self.m
        xps, yps = self._digit_planes(xs), self._digit_planes(ys)
        slot = self._slot_layout(m * min(len(xs), len(ys)) * (self.p - 1) ** 2)
        xi = [self._pack(cs, slot) for cs in xps]
        yi = [self._pack(cs, slot) for cs in yps]
        full = len(xs) + len(ys) - 1
        acc = [0] * (2 * m - 1)
        for j, a in enumerate(xi):
            for k, b in enumerate(yi):
                acc[j + k] += a * b
        acc = [int.from_bytes(self._unpack(z, slot, full, size), "little")
               for z in acc]
        # a plane takes at most m - 1 folds of bytes < p, so its bytes stay
        # below m(p - 1) <= 255 and the sums carry nothing
        fold = self._ext_tables()[1]
        for top in range(2 * m - 2, m - 1, -1):
            b = acc[top].to_bytes(size, "little")
            for i, t in enumerate(fold, top - m):
                if t:
                    acc[i] += int.from_bytes(b.translate(t), "little")
        return self._from_planes([a.to_bytes(size, "little") for a in acc[:m]])

    def _from_planes(self, digits):
        """The codes whose digit planes are digits, each the bytes of its
        digits < p: the code tables and one integer sum."""
        codes = self._ext_tables()[2]
        if codes is None:
            # codes >= 256 do not fit a byte
            return [self.from_digits(ds) for ds in zip(*digits)]
        out = 0
        for d, t in zip(digits, codes):
            out += int.from_bytes(d.translate(t), "little")
        return out.to_bytes(len(digits[0]), "little")

    def _slot_tables(self, w):
        """The translate tables of bytes 0 .. w - 1 of a product slot, built
        as wider slots are first used (only byte 0's over F_2): byte k
        stands for c * 256^k, so its table maps c to c * 256^k mod p.  Every
        table of the field that maps c to c mod p is byte 0's."""
        tabs, p = self._slot_tabs, self.p
        if not tabs:
            tabs = (bytes(c % p for c in range(256)),)
        while len(tabs) < (1 if p == 2 else w):
            r = pow(256, len(tabs), p)
            tabs += (tabs[0] if r == 1 else bytes(c * r % p for c in range(256)),)
        self._slot_tabs = tabs
        return tabs

    def _ext_tables(self):
        """(digits, fold, codes) of F_q, q = p^m with m > 1: fold[i] maps c
        to c * red_i mod p, where x^m = sum_i red_i x^i mod the modulus (None
        where red_i = 0); for q <= 256, digits[j] maps a code to its digit j
        and codes[j] maps c to (c mod p) * p^j, else both are None."""
        if self._ext_tabs is None:
            p, m = self.p, self.m
            mod = self._slot_tables(1)[:1]
            fold = tuple(None if not r else mod[0] if r == 1 else
                         bytes(c * r % p for c in range(256))
                         for r in (-c % p for c in self.modulus[:-1]))
            digits = codes = None
            if self.q <= 256:
                digits = mod + tuple(bytes(c // p**j % p for c in range(256))
                                     for j in range(1, m))
                codes = mod + tuple(bytes(c % p * p**j for c in range(256))
                                    for j in range(1, m))
            self._ext_tabs = digits, fold, codes
        return self._ext_tabs

    def _digit_planes(self, cs):
        """The m digit planes of a list of codes, digit j of every code."""
        digits = self._ext_tables()[0]
        if digits is None:
            p = self.p
            return [[c // p**j % p for c in cs] for j in range(self.m)]
        b = bytes(cs)
        return [b.translate(t) for t in digits]

    def __eq__(self, other):
        # field() is memoised, so equal fields are nearly always one object
        return self is other or (
            isinstance(other, FieldSpec)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldSpec(p={self.p}, m={self.m}, modulus={self.modulus})"


def _default_modulus(p, m):
    """Lexicographically least monic irreducible of degree m over F_p."""
    if m == 1:
        return (0, 1)
    fp = field(p)
    for tail in itertools.product(range(p), repeat=m):
        cand = tuple(reversed(tail)) + (1,)  # lexicographic in (c_{m-1},...,c_0)
        if APoly(fp, cand).is_irreducible():
            return cand
    raise RuntimeError("no irreducible modulus found")


MEMO_ENTRIES = 8192
MEMO_TABLES = []


def memo(fn):
    """Memoise fn on its positional arguments, compared by value (== and
    hash), so an argument built afresh hits the entry of an equal one.  Each
    function keeps at most MEMO_ENTRIES results and drops the oldest first;
    the table is fn.table, and MEMO_TABLES lists every table."""
    table = {}
    MEMO_TABLES.append(table)
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


def frozen(self, name, *_value):
    """__setattr__ and __delattr__ of a record set once, in __init__."""
    raise AttributeError("cannot assign to field %r" % (name,))


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
        if fs.m == 1:
            p = fs.p
            low = [(x + y) % p for x, y in zip(a, b)]
        else:
            low = list(map(fs.add, a, b))
        return APoly(fs, low + list(a[len(b):]))

    def __neg__(self):
        return APoly(self.fs, _row_neg(self.fs, self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, APoly):
            return NotImplemented
        return APoly(self.fs, self.fs.conv(self.coeffs, other.coeffs))

    def scale(self, c):
        fs = self.fs
        return APoly(fs, [fs.mul(c, x) for x in self.coeffs])

    def __divmod__(self, other):
        fs = self.fs
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree()
        ilead = fs.inv(other.lead())
        quo = [0] * max(0, len(rem) - db)
        p, add, mul = fs.p, fs.add, fs.mul
        # over a prime field the codes are integers mod p, and c * b is
        # subtracted directly; otherwise -b is added through fs
        bs = other.coeffs if fs.m == 1 else [fs.neg(b) for b in other.coeffs]
        while len(rem) - 1 >= db and rem:
            shift = len(rem) - 1 - db
            if fs.m == 1:
                c = rem[-1] * ilead % p
                rem[shift:] = [(r - c * b) % p
                               for r, b in zip(rem[shift:], bs)]
            else:
                c = mul(rem[-1], ilead)
                for j, b in enumerate(bs, shift):
                    rem[j] = add(rem[j], mul(c, b))
            quo[shift] = c
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

        def reduce(x):
            return x if mod is None else x % mod

        acc, base = None, reduce(self)
        while e:
            if e & 1:
                acc = base if acc is None else reduce(acc * base)
            e >>= 1
            if e:
                base = reduce(base * base)
        return APoly.one(self.fs) if acc is None else acc

    def frobenius(self, i: int):
        """theta -> theta^(q^i) on exponents (F_q coefficients are fixed)."""
        if i == 0 or self.is_zero():
            return self
        if i > 0:
            return APoly(self.fs, _spread(self.fs, self.coeffs, self.fs.q**i))
        cs = self.coeffs
        out = cs[::self.fs.q ** -i]
        # the codes the slice drops must all be zeros
        if cs.count(0) - out.count(0) != len(cs) - len(out):
            raise ValueError("q-th root not representable in A")
        return APoly(self.fs, out)

    def is_irreducible(self):
        """Rabin's test: nu of degree f >= 2 over F_q is irreducible iff nu
        divides theta^(q^f) - theta and gcd(theta^(q^(f/r)) - theta, nu) = 1
        for every prime r | f; degree 1 is irreducible, degree <= 0 not."""
        f = self.degree()
        if f < 2:
            return f == 1
        frob = [APoly.theta(self.fs)]  # frob[k] = theta^(q^k) mod nu
        for _ in range(f):
            frob.append(frob[-1].pow(self.fs.q, self))
        return frob[f] == frob[0] and all(
            self.gcd(frob[f // r] - frob[0]).degree() == 0
            for r in _prime_factors(f))

    def laurent(self, N=None):
        """Embed into PrecisionLaurent over K_inf (exponent -deg..0)."""
        return PrecisionLaurent.from_apoly(self, N=N)

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


class RatFunc:
    """Element of K = F_q(theta) as a reduced fraction num/den, den monic.
    Every constructor keeps that form, so equal elements have equal (num,
    den).  A sum or difference with a polynomial is reduced already
    (gcd(a + b den, den) = gcd(a, den)), and so is a product of two
    polynomials: those skip the gcd."""

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
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return self._add(other.num, other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self._add(-other.num, other.den)

    def _add(self, num, den):
        """self + num/den, for num/den reduced with den monic."""
        if den.degree() == 0:
            return RatFunc(self.num + num * self.den, self.den, reduce=False)
        if self.den.degree() == 0:
            return RatFunc(self.num * den + num, den, reduce=False)
        return RatFunc(self.num * den + num * self.den, self.den * den)

    def __mul__(self, other):
        if self.den.degree() == 0 and other.den.degree() == 0:
            return RatFunc(self.num * other.num, self.den, reduce=False)
        return RatFunc(self.num * other.num, self.den * other.den)

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in K")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def frobenius(self, i: int):
        """The q^i-th power: num(theta^{q^i}) = num^{q^i} and likewise for
        den, so the twist of a reduced fraction is reduced, den still monic."""
        return RatFunc(self.num.frobenius(i), self.den.frobenius(i),
                       reduce=False)

    def laurent(self, N=None):
        a = self.num.laurent(N=N)
        if self.is_poly():
            return a
        return a * self.den.laurent(N=N).inv()

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
        self.v, self.coeffs = _norm(fs, v, coeffs, N)
        self.N = N

    @classmethod
    def _row(cls, fs, v, coeffs, N, ram):
        """The series of a row in _norm form, not normalised again."""
        x = cls.__new__(cls)
        x.fs, x.ram, x.v, x.coeffs, x.N = fs, ram, v, coeffs, N
        return x

    # constructors
    @classmethod
    def zero(cls, fs, N=None, ram=1):
        return cls(fs, None, (), N=N, ram=ram)

    @classmethod
    def one(cls, fs, N=None, ram=1):
        return cls(fs, 0, (fs.one,), N=N, ram=ram)

    @classmethod
    def theta_pow(cls, fs, k, N=None):
        """theta^k in K_inf."""
        return cls(fs, -k, (fs.one,), N=N)

    @classmethod
    def eta_pow(cls, fs, k, N=None):
        """eta^k in K_inf(eta): the one value built inside the tower."""
        return cls(fs, -k, (fs.one,), N=N, ram=fs.q - 1)

    @classmethod
    def from_apoly(cls, a: APoly, N=None):
        if a.is_zero():
            return cls.zero(a.fs, N=N)
        return cls(a.fs, -a.degree(), a.coeffs[::-1], N=N)

    # queries
    def is_zero_to_prec(self):
        return self.v is None

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
        v, N, c = _row_add(self.fs, self.v, self.N, self.coeffs,
                           other.v, other.N, other.coeffs, negate)
        return PrecisionLaurent._row(self.fs, v, c, N, self.ram)

    def __neg__(self):
        return PrecisionLaurent._row(
            self.fs, self.v, _row_neg(self.fs, self.coeffs), self.N, self.ram
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
        n = None
        if cands:
            N = min(cands)
            # a coefficient at index N - v or later in either operand only
            # reaches exponents >= N, which the product drops, so conv cuts
            # both operands and the product there; N - v is
            # min(N_a - v_a, N_b - v_b) >= 1, as a series stores no
            # coefficient at or past its N
            n = N - v
        return PrecisionLaurent(fs, v, fs.conv(self.coeffs, other.coeffs, n),
                                N=N, ram=self.ram)

    def shift(self, k):
        """Multiply by the uniformizer^(-k): exponent shift by k."""
        if self.v is None:
            return PrecisionLaurent.zero(self.fs, N=None if self.N is None else self.N + k, ram=self.ram)
        return PrecisionLaurent(
            self.fs, self.v + k, self.coeffs, N=None if self.N is None else self.N + k, ram=self.ram
        )

    def inv(self, window=None):
        """Series inverse.  An exact monomial inverts exactly; otherwise the
        result has N = N - 2v, or N = -v + window for an exact series, which
        must state its window."""
        if self.v is None:
            raise _PrecisionError("division by zero-to-precision value")
        fs = self.fs
        v = self.v
        if self.N is not None:
            W, N = max(self.N - v, 1), self.N - 2 * v
        elif len(self.coeffs) == 1:
            return PrecisionLaurent(
                fs, -v, (fs.inv(self.coeffs[0]),), N=None, ram=self.ram
            )
        elif window is None:
            raise ValueError("the inverse of an exact series needs a window")
        else:
            W = max(window, 1)
            N = -v + W
        b = self.coeffs
        c0inv = fs.inv(b[0])
        out = [0] * W
        out[0] = c0inv
        for n in range(1, W):
            acc = 0
            for k in range(1, min(n, len(b) - 1) + 1):
                acc = fs.add(acc, fs.mul(b[k], out[n - k]))
            out[n] = fs.neg(fs.mul(c0inv, acc))
        return PrecisionLaurent(fs, -v, out, N=N, ram=self.ram)

    def pow(self, e):
        acc = PrecisionLaurent.one(self.fs, ram=self.ram)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def frobenius(self, i: int, N=None):
        """The q^i power, exponent n to q^i n (F_q coefficients are
        Frobenius-fixed), truncated to N when N is given: equal to
        frobenius(i).truncate(N), but for i > 0 only the ceil((N - q^i v) /
        q^i) codes that land below N are spread."""
        if i == 0:
            return self if N is None else self.truncate(N)
        fs, v, cs = self.fs, self.v, self.coeffs
        if i > 0:
            k = fs.q**i
            M = None if self.N is None else self.N * k
        else:
            k = fs.q ** -i
            M = None if self.N is None else -(-self.N // k)  # ceil(N/k)
        if N is None or M is not None and M <= N:
            N = M
        if v is None:
            return PrecisionLaurent.zero(fs, N=N, ram=self.ram)
        if i > 0:
            if N is not None:
                cs = cs[:max(-((k * v - N) // k), 0)]
            return PrecisionLaurent(fs, v * k, _spread(fs, cs, k), N=N, ram=self.ram)
        if v % k:
            raise ValueError("q-th root not representable: valuation not divisible")
        out = cs[::k]
        if cs.count(0) - out.count(0) != len(cs) - len(out):
            raise ValueError("q-th root not representable: exponent not divisible")
        return PrecisionLaurent(fs, v // k, out, N=N, ram=self.ram)

    def truncate(self, N):
        """Reduce guaranteed precision to N (no-op if already weaker)."""
        if self.N is not None and self.N <= N:
            return self
        if self.v is None:
            return PrecisionLaurent.zero(self.fs, N=N, ram=self.ram)
        return PrecisionLaurent(self.fs, self.v, self.coeffs, N=N, ram=self.ram)

    # tower maps
    def embed_ram(self):
        """Embedding K_inf -> K_inf(eta), the ring map by which every value
        but eta_pow's enters the tower: v and N scale by e = q-1, and
        theta^(-n) -> (-1)^n eta^(-n(q-1)), the one place this rule is kept."""
        if self.ram != 1:
            raise ValueError("already ramified")
        fs = self.fs
        e = fs.q - 1
        N = None if self.N is None else self.N * e
        if self.v is None:
            return PrecisionLaurent.zero(fs, N=N, ram=e)
        cs = self.coeffs
        out = _spread(fs, cs, e)
        if fs.p != 2:
            # the coefficients j at odd exponents v + j change sign
            j = (self.v + 1) % 2
            out[j * e::2 * e] = _row_neg(fs, cs[j::2])
        return PrecisionLaurent(fs, self.v * e, out, N=N, ram=e)

    def residual_valuation(self):
        """How far a residual is certified to vanish, in theta-units: v_inf
        when a coefficient is known, N / ram when the value is zero to
        precision N, None when it is exactly zero."""
        if self.v is None:
            return None if self.N is None else Fraction(self.N, self.ram)
        return Fraction(self.v, self.ram)

    # comparisons
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
            "coeffs": fs.row_digits(self.coeffs),
        }

    @classmethod
    def from_dict(cls, d):
        f = d["field"]
        fs = field(f["p"], f["m"], tuple(f["modulus"]))
        coeffs = [fs.from_digits(ds) for ds in d["coeffs"]]
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


# A row is the (v, N, coefficients) of a PrecisionLaurent without the object;
# TateTrunc stores one per t-degree, and both classes do row arithmetic here.


def _norm(fs, v, c, N):
    """(v, coefficients) of the row v, c cut below N, with the zeros at both
    ends stripped, as bytes when fs.byte_rows and else as a tuple; (None, ())
    when no nonzero coefficient is left."""
    if v is None:
        return None, ()
    if N is not None and N - v < len(c):
        # drop stored coefficients at exponents >= N
        c = c[:max(N - v, 0)]
    if fs.byte_rows:
        hi = bytes(c).rstrip(b"\0")
        c = hi.lstrip(b"\0")
        return (v + len(hi) - len(c), c) if c else (None, ())
    lo, hi = 0, len(c)
    while lo < hi and not c[lo]:
        lo += 1
    while hi > lo and not c[hi - 1]:
        hi -= 1
    if lo == hi:
        return None, ()
    return v + lo, tuple(c[lo:hi])


def _row_add(fs, va, Na, ca, vb, Nb, cb, negate):
    """(v, N, coefficients) of the row a + b, or a - b when negate."""
    N = Na if Nb is None else Nb if Na is None or Nb < Na else Na
    if va is None or vb is None:
        v, n, c = (va, Na, ca) if vb is None else (vb, Nb, _row_neg(fs, cb) if negate else cb)
        if n == N:
            # a row kept at its own N is already in _norm form
            return v, N, c
    else:
        v = min(va, vb)
        size = max(va + len(ca), vb + len(cb)) - v
        p = fs.p
        if fs.byte_rows and (fs.m == 1 or p == 2):
            # the rows as integers, one byte per code: over F_{2^m} a sum is
            # their XOR; over F_p the bytes sum to at most 2(p - 1) <= 255,
            # so nothing carries, and one translation reduces them mod p
            a = int.from_bytes(ca, "little") << 8 * (va - v)
            b = int.from_bytes(_row_neg(fs, cb) if negate else cb, "little") << 8 * (vb - v)
            c = (a ^ b if p == 2 else a + b).to_bytes(size, "little")
            if p > 2:
                c = c.translate(fs._slot_tables(1)[0])
        else:
            c = [0] * size
            c[va - v : va - v + len(ca)] = ca
            if fs.m == 1:
                sign = p - 1 if negate else 1
                for i, x in enumerate(cb, vb - v):
                    if x:
                        c[i] = (c[i] + sign * x) % p
            else:
                add = fs.sub if negate else fs.add
                for i, x in enumerate(cb, vb - v):
                    if x:
                        c[i] = add(c[i], x)
    v, c = _norm(fs, v, c, N)
    return v, N, c


def _row_neg(fs, cs):
    """The coefficients of the row -x (same v and N): as they are in
    characteristic 2, else one translation of a bytes row, one pass mod p
    or one over the nonzero codes."""
    if fs.p == 2:
        return cs
    if type(cs) is bytes:
        return cs.translate(fs._neg_tab)
    if fs.m == 1:
        p = fs.p
        return tuple([-c % p for c in cs])
    neg = fs.neg
    return tuple([neg(c) if c else 0 for c in cs])


def _spread(fs, cs, k):
    """A new row with k - 1 zeros between consecutive codes of cs: a
    bytearray when fs.byte_rows, else a list.  Every strided row of the
    package is laid out here (the kernel's slots, in _pack, aside)."""
    n = (len(cs) - 1) * k + 1 if cs else 0
    out = bytearray(n) if fs.byte_rows else [0] * n
    out[::k] = cs
    return out


def min_residual_valuation(values):
    """Least residual_valuation over PrecisionLaurent values; None when every
    one is an exact zero."""
    best = None
    for x in values:
        v = x.residual_valuation()
        if v is not None and (best is None or v < best):
            best = v
    return best
