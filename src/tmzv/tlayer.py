"""Polynomials and truncated series in t over the scalar tower.

TPoly is an exact polynomial in t with RatFunc coefficients;
TateTrunc is a t-truncated series stored as one flat (v, N, coefficients)
row per t-degree, whose product is one F_q polynomial product of the two
series laid out flat and clipped to what the product certifies;
LocalJet is a truncated expansion in u = t - theta over any scalar backend
(RatFunc, PrecisionLaurent or NuAdic), the tuple of its D orders: order j
is the coefficient of u^j, and no jet has a pole.

Also provides the classical quantities [k], 1/[k], D_k, L_i, gamma_j,
Gamma_n, the Anderson-Thakur polynomials H_n, and the Omega series.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import (
    APoly,
    FieldSpec,
    PrecisionLaurent,
    PrecisionError,
    RatFunc,
    _norm,
    _row_add,
    _row_neg,
    memo,
    min_residual_valuation,
)


def _is_exact_zero(x):
    """Zero with no attached uncertainty: an exact-zero PrecisionLaurent, a
    zero of A or K, or the exact NuAdic zero (N None).  Its product with
    anything is an exact zero, and adding that to a sum changes nothing.
    Jet and t-series zeros are not: their order or truncation enters the
    sum."""
    if type(x) is PrecisionLaurent:
        return x.v is None and x.N is None
    if isinstance(x, (LocalJet, TateTrunc)):
        return False
    return x.is_zero()


class TPoly:
    """Polynomial in t over K = F_q(theta); coefficient i belongs to t^i."""

    __slots__ = ("fs", "coeffs", "_hash")

    def __init__(self, fs: FieldSpec, coeffs=()):
        self.fs = fs
        c = list(coeffs)
        while c and c[-1].is_zero():
            c.pop()
        self.coeffs = tuple(c)
        # RatFunc coefficients are reduced with a monic denominator, so equal
        # coefficients have equal (num, den) and equal hashes; coeffs never
        # changes, so the hash is taken once here
        self._hash = hash((fs, self.coeffs))

    @classmethod
    def zero(cls, fs):
        return cls(fs, ())

    @classmethod
    def one(cls, fs):
        return cls(fs, (RatFunc.one(fs),))

    @classmethod
    def const(cls, fs, c: RatFunc):
        return cls(fs, (c,))

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else RatFunc.zero(self.fs)

    def __eq__(self, other):
        return (
            isinstance(other, TPoly)
            and self.fs == other.fs
            and len(self.coeffs) == len(other.coeffs)
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return TPoly(self.fs, out)

    def __neg__(self):
        return TPoly(self.fs, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RatFunc):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return TPoly.zero(self.fs)
        out = [RatFunc.zero(self.fs) for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
        return TPoly(self.fs, out)

    def scale(self, c: RatFunc):
        return TPoly(self.fs, [x * c for x in self.coeffs])

    def tshift(self, k):
        """Multiply by t^k."""
        if self.is_zero():
            return self
        return TPoly(self.fs, (RatFunc.zero(self.fs),) * k + self.coeffs)

    def twist(self, i: int):
        return TPoly(self.fs, [c.frobenius(i) for c in self.coeffs])

    def is_integral(self):
        return all(c.is_poly() for c in self.coeffs)

    def divmod_tm_theta(self):
        """Write self = (t - theta) * g + c; return (g, c)."""
        fs = self.fs
        th = RatFunc.theta(fs)
        if self.is_zero():
            return TPoly.zero(fs), RatFunc.zero(fs)
        g = [RatFunc.zero(fs)] * (len(self.coeffs) - 1)
        acc = RatFunc.zero(fs)
        for i in range(len(self.coeffs) - 1, 0, -1):
            acc = self.coeffs[i] + th * acc
            g[i - 1] = acc
        c = self.coeffs[0] + th * acc
        return TPoly(fs, g), c

    def split_at_pole(self, d: int):
        """Write self = (t-theta)^d * quo + sum_{j<d} c_j (t-theta)^j.

        Returns (quo, [c_0, ..., c_{d-1}])."""
        f = self
        cs = []
        for _ in range(d):
            f, c = f.divmod_tm_theta()
            cs.append(c)
        return f, cs

    def taylor_coeffs(self, D: int):
        """First D coefficients of the expansion in u = t - theta."""
        _, cs = self.split_at_pole(D)
        return cs

    def jet(self, D: int, sc, twist: int = 0):
        """LocalJet of order D of self^(twist) in the scalars of strategy
        sc: the exact Taylor coefficients, each passed through sc.conv."""
        f = self.twist(twist) if twist else self
        cs = f.taylor_coeffs(min(D, f.degree() + 1))
        return LocalJet.of([sc.conv(c) for c in cs], D, sc.zero)

    def gauss_norm_exp(self) -> Fraction:
        """Exponent e with ||f|| = q^e (max coefficient |.|_inf)."""
        if self.is_zero():
            raise PrecisionError("Gauss norm of zero")
        best = None
        for c in self.coeffs:
            if not c.is_zero():
                e = Fraction(c.num.degree() - c.den.degree())
                if best is None or e > best:
                    best = e
        return best

    def to_tate(self, M: int, N=None, ram=1):
        fs = self.fs
        out = [self[i].laurent(N=N, ram=ram) for i in range(M + 1)]
        return TateTrunc(fs, out, M, ram=ram)

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self[i]
            if c.is_zero():
                continue
            if i == 0:
                parts.append(f"({c!r})")
            else:
                parts.append(f"({c!r})·t^{i}" if i > 1 else f"({c!r})·t")
        return " + ".join(parts)


def _clipped_rows(va, ca, vb, Ns):
    """The rows of a (v in va, coefficients in ca) that reach a kept
    coefficient of sum a_i b_j, as (i, v_i, coefficients).  One at exponent
    e meets b_j (from vb_j on) in row i + j, below N_{i+j} only if
    e < N_{i+j} - vb_j; so a_i is cut below the largest of these bounds over
    the live b_j with i + j <= M, kept whole if it feeds an exact row, and
    left out if the bound does not pass v(a_i)."""
    M = len(Ns) - 1
    live = [(j, v) for j, v in enumerate(vb) if v is not None]
    rows = []
    for i, (v, c) in enumerate(zip(va, ca)):
        if v is None:
            continue
        top = v
        for j, w in live:
            if i + j > M:
                break
            n = Ns[i + j]
            if n is None:
                top = None
                break
            if n - w > top:
                top = n - w
        if top is None:
            rows.append((i, v, c))
        elif top > v:
            rows.append((i, v, c[: top - v]))
    return rows


def _slope(rows):
    """Integer slope of the valuations from the first row to the last."""
    (i0, v0, _), (i1, v1, _) = rows[0], rows[-1]
    return (v1 - v0) // (i1 - i0) if i1 > i0 else 0


def _extent(rows, beta):
    """(lo, span) of the rows under t -> theta^beta t, which moves row i to
    the exponents from v_i - beta*i; lo is the lowest of them."""
    lo, hi = None, None
    for i, v, cs in rows:
        e = v - beta * i
        if lo is None or e < lo:
            lo = e
        e += len(cs)
        if hi is None or e > hi:
            hi = e
    return lo, hi - lo


def _lay_out(rows, beta, lo, S):
    """One flat coefficient list holding row i at offset
    i*S + (v_i - beta*i - lo); S >= span keeps the rows in order."""
    flat = []
    for i, v, cs in rows:
        flat += [0] * (i * S + v - beta * i - lo - len(flat))
        flat += cs
    return flat


def _product_precisions(va, Na, vb, Nb):
    """Precision N of each t-degree k of sum a_i b_j (rows v, N in va, Na
    and vb, Nb): the least, over i + j = k, of the precision
    PrecisionLaurent.__mul__ gives a_i * b_j, min(N(a_i) + v(b_j),
    N(b_j) + v(a_i)), where a zero-to-precision factor counts its N as its
    valuation.  None means exact, and a pair of exact rows bounds nothing;
    an exact zero (v and N None) bounds no product row."""
    M = len(va) - 1
    # (index, N, lower bound on the valuation) of each row of b that is
    # not an exact zero
    live = [(j, n, n if w is None else w)
            for j, (w, n) in enumerate(zip(vb, Nb)) if w is not None or n is not None]
    Ns = [None] * (M + 1)
    for i, (v, na) in enumerate(zip(va, Na)):
        if v is None:
            if na is None:
                continue
            v = na
        for j, nb, w in live:
            k = i + j
            if k > M:
                break
            if na is None:
                if nb is None:
                    continue
                n = nb + v
            else:
                n = na + w
                if nb is not None and nb + v < n:
                    n = nb + v
            old = Ns[k]
            if old is None or n < old:
                Ns[k] = n
    return Ns


def _leaves_alone(z, x):
    """Whether z adds to x without changing it: each row of z up to x.M is
    an exact zero or zero to a precision at or past x's N there, so each
    row sum keeps x's row and its N."""
    for v, n, m in zip(z.vs, z.Ns, x.Ns):
        if v is not None or (n is not None and (m is None or n < m)):
            return False
    return True


def _settled(vs, Ns):
    """Whether an addend whose coefficients start at vs leaves alone every
    digit of a sum whose coefficients are known to Ns: each coefficient of
    the addend is zero to its own precision (v None) or starts at or past
    the sum's N there.  Only a zero leaves an exact coefficient (N None)
    alone."""
    return all(v is None or (n is not None and v >= n) for v, n in zip(vs, Ns))


class TateTrunc:
    """t-truncated series: K_inf coefficients for t^0..t^M, row i stored
    flat as vs[i], Ns[i], cs[i], the v, N and coeffs of a PrecisionLaurent.
    Sums and cuts are the row arithmetic PrecisionLaurent uses (scalars
    _row_add, _row_neg, _norm); coeffs builds PrecisionLaurent views anew.
    A sum with an operand zero to precision in every row, at or past the
    other's N in each (exact rows only against exact zeros), is the other
    operand itself when the M agree (in a - b, only b may be that zero).

    A product is one polynomial product over F_q (2-D Kronecker
    substitution) that computes only what its rows certify.  Row k of the
    product keeps the precision N_k that the pairwise sum of
    PrecisionLaurent products would have (see _product_precisions), and
    results match that sum coefficient for coefficient.  When either
    operand is zero to precision in every row, the N_k are the whole
    answer: no clip, no packing and no kernel call.  Otherwise:

    - clip: each operand row a_i is cut to the exponents below
      max_j (N_{i+j} - v(b_j)) over the live b_j with i + j <= M (and
      likewise for b); a row that feeds an exact product row is kept whole,
      and a row cut to nothing is left out.  Zero-to-precision entries store
      no coefficients and contribute only to N_k.
    - rescale: row i is laid out at offset i*S + (v_i - beta*i - lo), which
      is the layout of the isometry t -> theta^beta t.  beta is 0 or the
      end-to-end slope of either operand's row valuations, whichever packs
      shortest; the stride S = span_a + span_b - 1 is wide enough that row k
      of the flat product holds exactly sum_{i+j=k} a_i b_j, starting at
      exponent lo_a + lo_b + beta*k.
    - short unpack: conv returns only the first (M+1)*S product
      coefficients, so the rows above M are never unpacked."""

    __slots__ = ("fs", "vs", "Ns", "cs", "M", "ram")

    def __init__(self, fs, coeffs, M, ram=1):
        rows = [(c.v, c.N, c.coeffs) for c in tuple(coeffs)[: M + 1]]
        rows += [(None, None, ())] * (M + 1 - len(rows))
        self.fs, self.M, self.ram = fs, M, ram
        self.vs, self.Ns, self.cs = zip(*rows)

    @classmethod
    def _of_rows(cls, fs, M, ram, vs, Ns, cs):
        """The series with rows (vs[i], Ns[i], cs[i]), each in _norm form."""
        x = cls.__new__(cls)
        x.fs, x.M, x.ram, x.vs, x.Ns, x.cs = fs, M, ram, tuple(vs), tuple(Ns), tuple(cs)
        return x

    @classmethod
    def zero(cls, fs, M, ram=1, N=None):
        return cls._of_rows(fs, M, ram, (None,) * (M + 1), (N,) * (M + 1), ((),) * (M + 1))

    @classmethod
    def one(cls, fs, M, ram=1, N=None):
        v, c = _norm(0, (fs.one,), N)
        return cls._of_rows(fs, M, ram, (v,) + (None,) * M, (N,) * (M + 1), (c,) + ((),) * M)

    @property
    def coeffs(self):
        """The rows as a tuple of PrecisionLaurent, built afresh."""
        fs, ram, row = self.fs, self.ram, PrecisionLaurent._row
        return tuple(row(fs, v, c, N, ram)
                     for v, N, c in zip(self.vs, self.Ns, self.cs))

    def __getitem__(self, i):
        if not 0 <= i <= self.M:
            return PrecisionLaurent.zero(self.fs, ram=self.ram)
        return PrecisionLaurent._row(self.fs, self.vs[i], self.cs[i], self.Ns[i], self.ram)

    def _align(self, other):
        if self.fs != other.fs or self.ram != other.ram:
            raise ValueError("mismatched TateTrunc bases")
        return min(self.M, other.M)

    def _add(self, other, negate):
        M = self._align(other)
        # an operand zero to precision in every row, at or past the other's
        # N, leaves the other as it is (in a - b only the zero b does)
        if self.M == M and other.vs.count(None) > M and _leaves_alone(other, self):
            return self
        if not negate and other.M == M and self.vs.count(None) > M \
                and _leaves_alone(self, other):
            return other
        fs = self.fs
        return TateTrunc._of_rows(fs, M, self.ram, *zip(*[
            _row_add(fs, va, Na, ca, vb, Nb, cb, negate)
            for va, Na, ca, vb, Nb, cb in zip(
                self.vs, self.Ns, self.cs, other.vs, other.Ns, other.cs)]))

    def __add__(self, other):
        return self._add(other, False)

    def __sub__(self, other):
        return self._add(other, True)

    def __neg__(self):
        return TateTrunc._of_rows(self.fs, self.M, self.ram, self.vs, self.Ns,
                                  [_row_neg(self.fs, c) for c in self.cs])

    def __mul__(self, other):
        if isinstance(other, PrecisionLaurent):
            return self.scale(other)
        M = self._align(other)
        fs, ram = self.fs, self.ram
        va, vb = self.vs[: M + 1], other.vs[: M + 1]
        Ns = _product_precisions(va, self.Ns[: M + 1], vb, other.Ns[: M + 1])
        if va.count(None) > M or vb.count(None) > M:
            # an operand zero to precision in every row: N_k is the answer
            ra = rb = None
        else:
            ra = _clipped_rows(va, self.cs[: M + 1], vb, Ns)
            rb = _clipped_rows(vb, other.cs[: M + 1], va, Ns)
        if not ra or not rb:
            return TateTrunc._of_rows(fs, M, ram, (None,) * (M + 1), Ns, ((),) * (M + 1))

        def packing(beta):
            (lo_a, span_a), (lo_b, span_b) = _extent(ra, beta), _extent(rb, beta)
            S = span_a + span_b - 1
            return (ra[-1][0] + rb[-1][0]) * S + span_a + span_b, beta, lo_a, lo_b, S

        _, beta, lo_a, lo_b, S = min(map(packing, {0, _slope(ra), _slope(rb)}))
        prod = fs.conv(
            _lay_out(ra, beta, lo_a, S), _lay_out(rb, beta, lo_b, S), (M + 1) * S
        )
        vs, cs = zip(*[_norm(lo_a + lo_b + beta * k, prod[k * S : (k + 1) * S], n)
                       for k, n in enumerate(Ns)])
        return TateTrunc._of_rows(fs, M, ram, vs, Ns, cs)

    def scale(self, c: PrecisionLaurent):
        return TateTrunc(self.fs, [x * c for x in self.coeffs], self.M, ram=self.ram)

    def _cut(self, Ns):
        """The rows cut to the precisions Ns, each at most the row's own."""
        vs, cs = zip(*[(v, c) if n == old else _norm(v, c, n)
                       for v, c, old, n in zip(self.vs, self.cs, self.Ns, Ns)])
        return TateTrunc._of_rows(self.fs, self.M, self.ram, vs, Ns, cs)

    def truncate(self, N):
        """Every row's precision lowered to at most N."""
        return self._cut([N if n is None or n > N else n for n in self.Ns])

    def lower_precision(self, d):
        """Every row's precision N lowered by d; exact rows stay exact."""
        return self._cut([None if n is None else n - d for n in self.Ns])

    def twist(self, i: int):
        return TateTrunc(
            self.fs, [c.frobenius(i) for c in self.coeffs], self.M, ram=self.ram
        )

    def min_residual_valuation(self):
        """Least residual valuation over the rows, in theta-units: v, or N
        for a row zero to precision N; None if every row is an exact zero.
        An int at ram 1, a Fraction only when ram > 1."""
        best = None
        for v, n in zip(self.vs, self.Ns):
            x = n if v is None else v
            if x is not None and (best is None or x < best):
                best = x
        return best if best is None or self.ram == 1 else Fraction(best, self.ram)

    def settled(self, total):
        """Whether adding self leaves every digit that total certifies
        alone, row by row (_settled)."""
        return _settled(self.vs, total.Ns)

    def eval_theta(self):
        """Evaluate the stored truncation at t = theta."""
        fs = self.fs
        acc = PrecisionLaurent.zero(fs, ram=self.ram)
        th = PrecisionLaurent.theta_pow(fs, 1, ram=self.ram)
        for c in reversed(self.coeffs):
            acc = acc * th + c
        return acc

    def embed_ram(self):
        if self.ram != 1:
            raise ValueError("already ramified")
        e = self.fs.q - 1
        return TateTrunc(self.fs, [c.embed_ram() for c in self.coeffs], self.M, ram=e)

    def __repr__(self):
        return " + ".join(f"[{c!r}]·t^{i}" for i, c in enumerate(self.coeffs[:4])) + (
            " + ..." if self.M > 3 else ""
        )


class LocalJet:
    """Truncated expansion in u = t - theta over a duck-typed scalar ring.

    orders[j] is the coefficient of u^j for every j < D = len(orders),
    exact zeros included: a jet starts at order 0, so it has no pole.
    Sums, products and inverses keep the least D of their operands.
    `zero` is the scalar zero used for padding.
    """

    __slots__ = ("orders", "zero")

    def __init__(self, orders, zero):
        self.orders = tuple(orders)
        self.zero = zero

    @classmethod
    def of(cls, coeffs, D, zero):
        """Jet of order D whose first orders are coeffs, cut to D and padded
        with exact zeros."""
        cs = list(coeffs[:D])
        return cls(cs + [zero] * (D - len(cs)), zero)

    @classmethod
    def zero_jet(cls, D, zero):
        return cls((zero,) * D, zero)

    @classmethod
    def const_jet(cls, c, D, zero):
        return cls.of([c], D, zero)

    @classmethod
    def pole_inv(cls, c0, D, zero):
        """Jet of c0/(1 + c0 u), order D: the coefficient of u^m is
        (-1)^m c0^{m+1}.  With c0 = 1/(theta - a) this is 1/(t - a)."""
        cs = []
        p = c0
        for m in range(D):
            cs.append(p if m % 2 == 0 else -p)
            if m + 1 < D:
                p = p * c0
        return cls(cs, zero)

    def is_zero(self):
        return all(_is_exact_zero(c) for c in self.orders)

    def __add__(self, other):
        return LocalJet([b if _is_exact_zero(a) else a if _is_exact_zero(b)
                         else a + b for a, b in zip(self.orders, other.orders)],
                        self.zero)

    def __neg__(self):
        return LocalJet([-c for c in self.orders], self.zero)

    def __sub__(self, other):
        return LocalJet([-b if _is_exact_zero(a) else a if _is_exact_zero(b)
                         else a - b for a, b in zip(self.orders, other.orders)],
                        self.zero)

    def __mul__(self, other):
        if not isinstance(other, LocalJet):
            return self.scale(other)
        ys = other.orders
        D = min(len(self.orders), len(ys))
        out = [self.zero] * D
        for i, a in enumerate(self.orders[:D]):
            if _is_exact_zero(a):
                continue
            for j in range(D - i):
                b = ys[j]
                if not _is_exact_zero(b):
                    out[i + j] = out[i + j] + a * b
        return LocalJet(out, self.zero)

    def min_residual_valuation(self):
        """Least residual valuation over the orders; None if every order
        is an exact zero."""
        return min_residual_valuation(self.orders)

    def settled(self, total):
        """Whether adding self leaves every digit that total certifies
        alone, order by order (_settled)."""
        return _settled([c.v for c in self.orders],
                        [c.N for c in total.orders])

    def scale(self, c):
        return LocalJet([x if _is_exact_zero(x) else x * c
                         for x in self.orders], self.zero)

    def inv(self):
        """Jet inverse; order 0 must be invertible in the scalars (an
        exact zero there raises from its own inverse)."""
        b = self.orders
        c0 = b[0].inv()
        out = [c0]
        for k in range(1, len(b)):
            acc = None
            for i in range(1, k + 1):
                if not _is_exact_zero(b[i]):
                    term = b[i] * out[k - i]
                    acc = term if acc is None else acc + term
            out.append(-(c0 * acc) if acc is not None else self.zero)
        return LocalJet(out, self.zero)


# classical quantities


def bracket(fs: FieldSpec, k: int) -> APoly:
    """[k] = theta^(q^k) - theta."""
    if k < 1:
        raise ValueError("k >= 1")
    out = [0] * (fs.q**k + 1)
    out[1] = fs.neg(fs.one)
    out[fs.q**k] = fs.add(out[fs.q**k], fs.one)
    return APoly(fs, out)


def inv_bracket(fs: FieldSpec, k: int, N: int) -> PrecisionLaurent:
    """Expansion of 1/[k] = 1/(theta^{q^k} - theta) to guaranteed precision
    N, sum_j theta^{-q^k - j(q^k - 1)}, built directly (the bracket
    polynomial itself may be astronomically large and is never
    materialized)."""
    if k <= 0:
        raise ValueError("bracket index must be positive")
    Q = fs.q**k
    if Q >= N:
        return PrecisionLaurent.zero(fs, N=N)
    coeffs = [0] * (N - Q)
    j = 0
    while Q + j * (Q - 1) < N:
        coeffs[j * (Q - 1)] = fs.one
        j += 1
    return PrecisionLaurent(fs, Q, coeffs, N=N)


@memo
def d_poly(fs: FieldSpec, k: int) -> APoly:
    """D_k = [k] D_{k-1}^q, D_0 = 1."""
    if k == 0:
        return APoly.one(fs)
    return bracket(fs, k) * d_poly(fs, k - 1).frobenius(1)


@memo
def l_poly(fs: FieldSpec, i: int) -> APoly:
    """L_i = (theta - theta^q) ... (theta - theta^(q^i)), L_0 = 1."""
    if i == 0:
        return APoly.one(fs)
    return l_poly(fs, i - 1) * (-bracket(fs, i))


def gamma_j(fs: FieldSpec, j: int) -> TPoly:
    """gamma_j = prod_{l=1..j} (theta^(q^j) - t^(q^l)), gamma_0 = 1."""
    acc = TPoly.one(fs)
    for l in range(1, j + 1):
        coeffs = [RatFunc.zero(fs)] * (fs.q**l + 1)
        coeffs[0] = RatFunc(APoly.monomial(fs, fs.q**j))
        coeffs[fs.q**l] = -RatFunc.one(fs)
        acc = acc * TPoly(fs, coeffs)
    return acc


def gamma_factorial(fs: FieldSpec, n: int) -> APoly:
    """Gamma_n = prod_j D_j^(n_j) with n-1 = sum n_j q^j in base q."""
    if n < 1:
        raise ValueError("n >= 1")
    acc = APoly.one(fs)
    m = n - 1
    j = 0
    while m:
        nj = m % fs.q
        if nj:
            acc = acc * d_poly(fs, j).pow(nj)
        m //= fs.q
        j += 1
    return acc


@memo
def anderson_thakur(fs: FieldSpec, n: int) -> TPoly:
    """H_n via the generating series: the coefficient alpha_n of x^n in
    x * (1 - sum_j (gamma_j/D_j) x^(q^j))^(-1), times Gamma_n, with the
    variables t and theta exchanged.  Result is an exact polynomial over A.
    """
    if n < 1:
        raise ValueError("n >= 1")
    # inverse-series coefficients C_k in K[t]: C_0 = 1,
    # C_k = sum_{q^j <= k} (gamma_j / D_j) C_{k - q^j}
    C = [TPoly.one(fs)]
    terms = []
    j = 0
    while fs.q**j <= n - 1:
        terms.append((fs.q**j, gamma_j(fs, j).scale(RatFunc(APoly.one(fs), d_poly(fs, j)))))
        j += 1
    for k in range(1, n):
        acc = TPoly.zero(fs)
        for step, gj in terms:
            if step <= k:
                acc = acc + gj * C[k - step]
        C.append(acc)
    alpha = C[n - 1].scale(RatFunc(gamma_factorial(fs, n)))
    if not alpha.is_integral():
        raise ArithmeticError("alpha_n not integral; inversion normalization broken")
    # exchange t and theta: alpha = sum_{i,j} c_{ij} theta^i t^j -> sum c_{ij} t^i theta^j
    max_i = max((c.num.degree() for c in alpha.coeffs if not c.is_zero()), default=0)
    rows = [[0] * (alpha.degree() + 1) for _ in range(max_i + 1)]
    for jdeg, c in enumerate(alpha.coeffs):
        for ideg in range(c.num.degree() + 1):
            if not c.is_zero():
                rows[ideg][jdeg] = c.num[ideg]
    out = [RatFunc(APoly(fs, row)) for row in rows]
    return TPoly(fs, out)


def omega_factor_count(fs: FieldSpec, N_theta: int) -> int:
    """Factors of the Omega product needed for theta-precision N (the i-th
    factor only perturbs exponents <= -q^i), plus a safety margin."""
    q = fs.q
    target = N_theta * (q - 1) / q + 1
    n = 1
    while q**n < target:
        n += 1
    return n + 2


def omega(fs: FieldSpec, M: int, N_theta: int) -> TateTrunc:
    """Omega as a TateTrunc over the ramified tower (ram = q-1; for q = 2 the
    tower is K_inf itself).  Leading scalar is eta^(-q); coefficients exact to
    theta-precision N_theta (eta-precision N_theta*(q-1))."""
    e = fs.q - 1
    Nram = N_theta * e
    nfac = omega_factor_count(fs, N_theta)
    lead = PrecisionLaurent.eta_pow(fs, -fs.q, N=Nram + fs.q)
    one = PrecisionLaurent.one(fs, ram=e)
    acc = TateTrunc(fs, [one], M, ram=e)
    for i in range(1, nfac + 1):
        c1 = -PrecisionLaurent.theta_pow(fs, -(fs.q**i), ram=e)
        fac = TateTrunc(fs, [one, c1], M, ram=e)
        acc = acc * fac
    out = acc.scale(lead)
    return out.truncate(Nram)


def omega_jet(fs: FieldSpec, D: int, N_theta: int) -> LocalJet:
    """Jet of Omega at t = theta over the ramified tower."""
    e = fs.q - 1
    Nram = N_theta * e
    nfac = omega_factor_count(fs, N_theta)
    z = PrecisionLaurent.zero(fs, ram=e)
    acc = LocalJet.of([PrecisionLaurent.eta_pow(fs, -fs.q, N=Nram + fs.q * e + D * e)], D, z)
    for i in range(1, nfac + 1):
        tpi = PrecisionLaurent.theta_pow(fs, -(fs.q**i), ram=e, N=Nram + fs.q * e + D * e)
        one = PrecisionLaurent.one(fs, ram=e, N=Nram + fs.q * e + D * e)
        c0 = one - PrecisionLaurent.theta_pow(fs, 1 - fs.q**i, ram=e, N=Nram + fs.q * e + D * e)
        fac = LocalJet.of([c0, -tpi], D, z)
        acc = acc * fac
    return acc
