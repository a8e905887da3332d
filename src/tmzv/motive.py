"""Dual t-motives attached to a composition (s_1,...,s_r) with twisting
polynomials (Q_1,...,Q_r), the sigma-basis, the maps iota, delta_0, delta_1
and its z-deformation, special points, and the sigma-split decomposition.

The key algebraic fact used everywhere: for each block index ell there is a
vector G_ell = sum_k g_{ell,k} m_k with polynomial coordinates such that

    (t - theta)^{d_ell} m_ell = sigma(G_ell),

so any multiple of (t - theta)^{d_ell} m_ell can be pushed under sigma with
a +1 twist on its coefficient, keeping all Frobenius twists nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .scalars import APoly, FieldSpec, RatFunc, memo
from .tlayer import TPoly, anderson_thakur
from . import tmodule as _tmodule
from .zeta import outside_polylog_domain

# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MotiveShape:
    fs: FieldSpec
    s: tuple
    Q: tuple
    model: str  # AT | Star | ExtGeneric

    def __post_init__(self):
        if self.model not in ("AT", "Star", "ExtGeneric"):
            raise ValueError("unknown model %r" % (self.model,))
        if not self.s or any(si < 1 for si in self.s):
            raise ValueError("composition entries must be positive")
        if len(self.Q) != len(self.s):
            raise ValueError("need one twisting polynomial per entry")
        # the shape's series is Li*_{(s_r,...,s_1)}(Q_r,...,Q_1), so Q_r is
        # the polylogarithm's first argument
        r = len(self.s)
        for i, Qi in enumerate(self.Q):
            if Qi.is_zero():
                raise ValueError("twisting polynomials must be nonzero")
            if outside_polylog_domain(self.fs.q, self.s[i],
                                      Qi.gauss_norm_exp(), i == r - 1):
                raise ValueError("norm condition fails at the last entry"
                                 if i == r - 1 else
                                 "norm condition fails at entry %d" % (i + 1,))

    @property
    def r(self):
        return len(self.s)

    @property
    def block_dims(self):
        """d_ell = s_ell + ... + s_r."""
        out = []
        acc = 0
        for si in reversed(self.s):
            acc += si
            out.append(acc)
        return tuple(reversed(out))

    @property
    def dim(self):
        return sum(self.block_dims)

    @property
    def offsets(self):
        out = []
        acc = 0
        for d in self.block_dims:
            out.append(acc)
            acc += d
        return tuple(out)

    def slot(self, ell: int, j: int) -> int:
        """Coordinate index of the basis vector (t-theta)^j m_ell
        (ell is 1-based, 0 <= j < d_ell; j descends within a block)."""
        d = self.block_dims[ell - 1]
        if not 0 <= j < d:
            raise IndexError("jet index out of range")
        return self.offsets[ell - 1] + (d - 1 - j)


def at_shape(fs: FieldSpec, s) -> MotiveShape:
    """AT model with Q_ell the Anderson-Thakur polynomial H_{s_ell}."""
    return MotiveShape(fs, tuple(s), tuple(anderson_thakur(fs, si) for si in s), "AT")


def star_shape(fs: FieldSpec, s) -> MotiveShape:
    """Star model with Q_ell = H_{s_ell}."""
    return MotiveShape(fs, tuple(s), tuple(anderson_thakur(fs, si) for si in s), "Star")


def sigma_basis(shape: MotiveShape):
    """Ordered basis labels (ell, j) for (t-theta)^j m_ell, j descending."""
    out = []
    for ell, d in enumerate(shape.block_dims, start=1):
        for j in range(d - 1, -1, -1):
            out.append((ell, j))
    return tuple(out)


# ---------------------------------------------------------------------------
# motive matrices
# ---------------------------------------------------------------------------


def _tm_theta_pow(fs: FieldSpec, d: int, twist: int = 0) -> TPoly:
    """(t - theta^{q^twist})^d in closed form: its t^k coefficient is
    binom(d, k) (-theta^{q^twist})^{d-k}."""
    return TPoly(fs, [RatFunc(APoly.monomial(
        fs, fs.q**twist * (d - k), fs.from_int((-1)**(d - k) * comb(d, k))),
        reduce=False) for k in range(d + 1)])


def _q_chain(shape: MotiveShape, i: int, j: int) -> TPoly:
    """Q*_{i,j} = (-1)^{j-i} Q_i ... Q_{j-1} (1-based, i <= j; 1 at i = j)."""
    out = TPoly.one(shape.fs)
    for k in range(i, j):
        out = out * shape.Q[k - 1]
    return -out if (j - i) % 2 else out


def _phi_coeff(shape: MotiveShape, model: str, ell: int, j: int):
    """Entry (j, ell), ell <= j, of the motive matrix of `model` over
    (t - theta)^{d_ell}: Q*_{ell,j} in the Star (and ExtGeneric) model; 1 on
    the diagonal, Q_ell below it and zero (None) elsewhere in the AT model,
    whose matrix is the inverse of the Star one's coefficient matrix."""
    if model == "AT" and j > ell:
        return shape.Q[ell - 1] if j == ell + 1 else None
    return _q_chain(shape, ell, j)


def _phi_rows(shape: MotiveShape, n: int) -> list:
    """Rows 1..n of the extended motive matrix [[Phi, 0], [f, 1]] (n <= r+1,
    with d_{r+1} = 0 so that row r+1 is the special-point row f), cut to n
    columns.  Each entry X is stored as its +1 twist X^(1), which lies in
    A[t]; X itself is X^(1).twist(-1), which needs q-th roots, so callers
    twist by n - 1 >= 0 or use X^(1) as it stands."""
    fs = shape.fs
    dims = shape.block_dims + (0,)
    zero = TPoly.zero(fs)
    rows = []
    for j in range(1, n + 1):
        row = [zero] * n
        for ell in range(1, j + 1):
            c = _phi_coeff(shape, shape.model, ell, j)
            if c is not None:
                tm = _tm_theta_pow(fs, dims[ell - 1], twist=1)
                row[ell - 1] = tm if ell == j else c * tm
        rows.append(row)
    return rows


def build_motive(shape: MotiveShape) -> list:
    """The rows of the motive matrix Phi: r x r TPoly entries, each stored
    as its +1 twist."""
    return _phi_rows(shape, shape.r)


def phi_tilde(shape: MotiveShape) -> list:
    """(r+1)x(r+1) extension [[Phi, 0], [f, 1]] of the motive matrix by the
    special-point row f."""
    if shape.model not in ("AT", "Star"):
        raise ValueError("extended matrix needs an AT or Star shape")
    return _phi_rows(shape, shape.r + 1)


@memo
def g_vectors(shape: MotiveShape):
    """G_ell with sigma(G_ell) = (t-theta)^{d_ell} m_ell; returned as a tuple
    whose ell-th entry is the list of m-coordinates [g_{ell,1},...,g_{ell,ell}]:
    G_ell = m_ell - sum_{i<ell} Phi_{ell,i} / (t-theta)^{d_i} G_i."""
    fs = shape.fs
    out = []
    for ell in range(1, shape.r + 1):
        coords = [TPoly.zero(fs) for _ in range(ell)]
        coords[ell - 1] = TPoly.one(fs)
        for i in range(1, ell):
            c = _phi_coeff(shape, shape.model, i, ell)
            if c is not None:
                for k in range(i):
                    coords[k] = coords[k] - c * out[i - 1][k]
        out.append(coords)
    return tuple(tuple(c) for c in out)


# ---------------------------------------------------------------------------
# iota / delta maps
# ---------------------------------------------------------------------------


def iota(shape: MotiveShape, column) -> list:
    """Column of d scalars -> motive element Sum u_{(ell,j)} (t-theta)^j m_ell,
    as a list of r TPoly block coordinates."""
    fs = shape.fs
    if len(column) != shape.dim:
        raise ValueError("column length mismatch")
    coords = []
    for ell, d in enumerate(shape.block_dims, start=1):
        f = TPoly.zero(fs)
        for j in range(d):
            c = column[shape.slot(ell, j)]
            if isinstance(c, APoly):
                c = RatFunc.from_apoly(c)
            if not c.is_zero():
                f = f + _tm_theta_pow(fs, j).scale(c)
        coords.append(f)
    return coords


def delta0(coords, shape: MotiveShape) -> list:
    """Stacked (t-theta)-jet coefficients in basis order: orders 0..d - 1
    of the LocalJet of each block of dimension d."""
    out = [None] * shape.dim
    for ell, d in enumerate(shape.block_dims, start=1):
        orders = coords[ell - 1].orders
        for j in range(d):
            out[shape.slot(ell, j)] = orders[j]
    return out


def _delta1_levels(coords, shape: MotiveShape) -> dict:
    """sigma-reduction.  Returns {level: column}; the element equals
    Sum_levels sigma^level(iota(column_level)) modulo nothing -- i.e.
    delta_1 of the element is the plain sum of the columns (coefficients
    spawned at level L already carry their q^L twist)."""
    fs = shape.fs
    dims = shape.block_dims
    G = g_vectors(shape)
    out: dict = {}
    work = [(0, ell, f) for ell, f in enumerate(coords, start=1)
            if f is not None and not f.is_zero()]
    while work:
        level, ell, g = work.pop()
        quo, jets = g.split_at_pole(dims[ell - 1])
        col = out.get(level)
        if col is None:
            col = [RatFunc.zero(fs) for _ in range(shape.dim)]
            out[level] = col
        for j, c in enumerate(jets):
            if not c.is_zero():
                idx = shape.slot(ell, j)
                col[idx] = col[idx] + c
        if not quo.is_zero():
            h = quo.twist(1)
            for k in range(1, ell + 1):
                gk = G[ell - 1][k - 1]
                if not gk.is_zero():
                    work.append((level + 1, k, h * gk))
    return out


def delta1(coords, shape: MotiveShape) -> list:
    levels = _delta1_levels(coords, shape)
    fs = shape.fs
    out = [RatFunc.zero(fs) for _ in range(shape.dim)]
    for col in levels.values():
        for i, c in enumerate(col):
            out[i] = out[i] + c
    return out


# ---------------------------------------------------------------------------
# special points and the split decomposition
# ---------------------------------------------------------------------------


def special_point_pre_sigma(shape: MotiveShape) -> list:
    """X with alpha(M) = sigma(X), as r block coordinates."""
    fs = shape.fs
    r = shape.r
    G = g_vectors(shape)
    if shape.model == "AT":
        coords = [shape.Q[r - 1] * g for g in G[r - 1]]
    else:
        coords = [TPoly.zero(fs) for _ in range(r - 1)] + [-shape.Q[r - 1]]
    return coords + [TPoly.zero(fs)] * (r - len(coords))


def special_point(shape: MotiveShape) -> list:
    """v_s (AT) or v*_s (Star) = delta_1(alpha(M)); entries in A when the
    twisting polynomials are."""
    return delta1(special_point_pre_sigma(shape), shape)


def split_decomposition(shape: MotiveShape) -> list:
    """Pairs (n_i, u_i), u_i a d-column of RatFunc, with alpha(M) =
    Sum_i t^{n_i} sigma(iota(u_i)) and every u_i inside the certified
    logarithm domain."""
    fs = shape.fs
    r = shape.r

    def unit(ell, j, c):
        u = [RatFunc.zero(fs)] * shape.dim
        u[shape.slot(ell, j)] = c
        return u

    pairs = []
    if shape.model == "Star":
        Qr = shape.Q[r - 1]
        for n in range(Qr.degree() + 1):
            c = Qr[n]
            if not c.is_zero():
                pairs.append((n, unit(r, 0, -c)))
    elif shape.model == "AT":
        G = g_vectors(shape)
        for ell in range(1, r + 1):
            f = shape.Q[r - 1] * G[r - 1][ell - 1]
            for n in range(f.degree() + 1):
                c = f[n]
                if not c.is_zero():
                    pairs.append((n, unit(ell, 0, c)))
    else:
        raise ValueError("split decomposition needs an AT or Star shape")
    for _, u in pairs:
        _tmodule.check_log_domain(shape, u)
    return pairs


def split_recomposes(shape: MotiveShape, dec: list) -> bool:
    """Exact check: Sum t^{n_i} iota(u_i) over the pairs of
    split_decomposition equals the pre-sigma special point, coordinatewise
    as polynomials."""
    fs = shape.fs
    acc = [TPoly.zero(fs) for _ in range(shape.r)]
    for n, u in dec:
        for b, f in enumerate(iota(shape, u)):
            acc[b] = acc[b] + f.tshift(n)
    return acc == special_point_pre_sigma(shape)


# ---------------------------------------------------------------------------
# the induced t-module
# ---------------------------------------------------------------------------


def tmodule_of(shape: MotiveShape):
    """The induced t-module E': columns of E'_theta are delta_{1,z}(t w_i),
    with the z^0 layer giving d[theta] = theta I + (jet shift) and z^k the
    tau^k matrix coefficient."""
    fs = shape.fs
    d = shape.dim
    zero = RatFunc.zero(fs)
    layers: dict = {}
    for i, (ell, j) in enumerate(sigma_basis(shape)):
        coords = [TPoly.zero(fs) for _ in range(shape.r)]
        coords[ell - 1] = _tm_theta_pow(fs, j).tshift(1)
        for level, col in _delta1_levels(coords, shape).items():
            mat = layers.setdefault(level, [[zero] * d for _ in range(d)])
            for rrow in range(d):
                mat[rrow][i] = mat[rrow][i] + col[rrow]
    kmax = max(layers)
    coeffs = [layers.get(k, [[zero] * d for _ in range(d)])
              for k in range(1, kmax + 1)]
    return _tmodule.TModule(fs, d, layers[0], coeffs,
                            block_dims=shape.block_dims)
