"""Primitive rank-2 sublattices of Z^4 and their Plucker coordinates.

Conventions used throughout:

* A plane is a saturated rank-2 sublattice L of Z^4.  Its Plucker vector
  lists the six 2x2 minors of a basis matrix in the column-pair order
  (1,2), (1,3), (1,4), (2,3), (2,4), (3,4), written (a, b, c, d, e, f).
* Decomposability is the single quadratic relation a*f - b*e + c*d = 0.
* L is saturated iff gcd(a, ..., f) = 1, and the basis is only determined
  up to sign of the minor vector, so planes are named by the sign class
  with the first nonzero coordinate positive.
* disc(L) = -4 * det(Gram basis) = -4 * (a^2 + ... + f^2).

Enumeration writes the relation as x . y = 0 with x = (a, b, c) and
y = (f, -e, d).  Every x != 0 of norm at most N whose first nonzero entry
is positive is read off the x-slabs of the ball of Z^3 (`ball`), in chunks
of a few thousand.  For such x with g = gcd(x), the solutions y are the
points of norm at most N - |x|^2 of the rank-2 lattice x^perp, of
covolume |x|/g: each x gets the closed-form basis of (x/g)^perp
(`orthogonal_bases`), Gauss-reduced, and the points a v1 + b v2 inside
the ellipse are listed row by row in b, each row a run of a between two
exact integer square roots.  The (x, b, a) candidates are laid out flat
and built in blocks of at most `_BLOCK`, with no Python loop over x; of
y and -y only one is built, and the other is its mirror.  x = 0 leaves
any primitive (d, e, f) of norm at most N whose first nonzero entry is
positive: the primitive x of the same chunks.

Every cache is a grow-only, lock-guarded `NormTable` of one entry per
norm, so sweeps over a range of discriminants pay for a few passes.  The
Plucker rows of the solved blocks (`_solutions`) and the sphere points of
`repnum`, read off the slabs of `ball`, are ordered by one int64 key
(`lex_order`) and split by norm (`rows_by_norm`).  The plane counts
(`_plane_counts`) solve one x of each orbit of the 48 signed permutations
G of Z^3.  G acts diagonally on (x, y) and keeps x . y, |x|^2, |y|^2 and
gcd(x, y), so the number of solutions y of each norm is constant on the
orbit of x, and each representative counts for the sign-normalized x of
its orbit: about 1/24 of the x the table of planes solves.  The counts
are bincounts of the norms of the blocks, which build no row at all, so
`plane_count` keeps none.  Each table refuses a norm past its limit
(`ROW_LIMIT`, `NORM_LIMIT`) before it fills anything.

Hermite bases come in closed form (`plane_bases`).  The rows of
S = u v^T - v u^T are S[k] = u_k v - v_k u, and span the plane when its
Plucker vector is primitive.  For the Hermite basis, u has the first pivot
i and v vanishes there, so S[i] = u_i v and v is S[i] over its gcd; with j
the pivot of v, u = (u_j v - S[j]) / v_j, where u_j is the one value in
[0, v_j) that makes u integral (v is primitive), found by trying each.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

Vec4 = tuple[int, int, int, int]


# ---------------------------------------------------------------------------
# exact integer matrix helpers


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def row_hnf(rows):
    """Row-style Hermite normal form over Z.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    and zero rows sink to the bottom.
    """
    A = [[int(x) for x in r] for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, m):
            if A[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, m):
            if A[i][col] == 0:
                continue
            g, s, t = ext_gcd(A[r][col], A[i][col])
            ar, ai = A[r][col] // g, A[i][col] // g
            Rr, Ri = A[r], A[i]
            A[r] = [s * x + t * y for x, y in zip(Rr, Ri)]
            A[i] = [ar * y - ai * x for x, y in zip(Rr, Ri)]
        if A[r][col] < 0:
            A[r] = [-x for x in A[r]]
        for i in range(r):
            q = A[i][col] // A[r][col]
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], A[r])]
        r += 1
        if r == m:
            break
    return A


def hnf_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical nonzero Hermite rows of the lattice spanned by the input rows."""
    H = row_hnf(rows)
    return tuple(tuple(r) for r in H if any(r))


def integer_kernel(rows) -> tuple[tuple[int, ...], ...]:
    """Hermite basis of {x : M x = 0} over Z.

    The Hermite form of [M^T | I] is U [M^T | I] = [U M^T | U] for a
    unimodular U; its rows whose M^T part vanishes carry, in their I part,
    a basis of the kernel, already in Hermite form.  The integer kernel of
    an integer matrix is saturated by construction.
    """
    m = len(rows)
    n = len(rows[0])
    B = [[rows[i][j] for i in range(m)] + [int(i == j) for i in range(n)]
         for j in range(n)]
    return tuple(tuple(r[m:]) for r in row_hnf(B) if not any(r[:m]))


def _ext_gcd_arrays(x, y):
    """Elementwise g = +-gcd(x, y) with g = alpha x + beta y."""
    r0, r1 = x, y
    s0, s1 = np.ones_like(x), np.zeros_like(x)
    t0, t1 = np.zeros_like(x), np.ones_like(x)
    while r1.any():
        live = r1 != 0
        q = r0 // np.where(live, r1, 1)
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - q * r1, r1)
        s0, s1 = np.where(live, s1, s0), np.where(live, s0 - q * s1, s1)
        t0, t1 = np.where(live, t1, t0), np.where(live, t0 - q * t1, t1)
    return r0, s0, t0


def orthogonal_bases(points) -> np.ndarray:
    """Basis (b1, b2) of the lattice orthogonal to each primitive
    v = (x, y, z) in points (N, 3), as an (N, 2, 3) array, in closed form:
    with g = +-gcd(x, y) = alpha x + beta y, b1 = (y/g, -x/g, 0) and
    b2 = (alpha z, beta z, -g) lie in v^perp and b1 x b2 = v, so they span
    it; v = (0, 0, +-1) takes e1, e2.  Spans the lattice of
    `klein.orthogonal_lattice_z3` without a Hermite reduction."""
    v = np.asarray(points, dtype=np.int64).reshape(-1, 3)
    if (np.gcd.reduce(v, axis=1) != 1).any():
        raise ValueError("points must be primitive")
    x, y, z = v.T
    g, alpha, beta = _ext_gcd_arrays(x, y)
    axis = g == 0
    gs = np.where(axis, 1, g)
    bases = np.stack([np.stack([y // gs, -x // gs, np.zeros_like(x)], axis=1),
                      np.stack([alpha * z, beta * z, -g], axis=1)], axis=1)
    bases[axis] = ((1, 0, 0), (0, 1, 0))
    return bases


# ---------------------------------------------------------------------------
# Plucker vectors


_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class PluckerVector:
    a: int
    b: int
    c: int
    d: int
    e: int
    f: int

    @property
    def coords(self) -> tuple[int, int, int, int, int, int]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    def norm(self) -> int:
        return sum(x * x for x in self.coords)

    def content(self) -> int:
        g = 0
        for x in self.coords:
            g = gcd(g, x)
        return g

    @property
    def is_primitive(self) -> bool:
        return self.content() == 1

    def relation(self) -> int:
        """Value of the decomposability form a*f - b*e + c*d."""
        return self.a * self.f - self.b * self.e + self.c * self.d

    @property
    def is_decomposable(self) -> bool:
        return self.relation() == 0

    @property
    def is_sign_normalized(self) -> bool:
        for x in self.coords:
            if x:
                return x > 0
        return False

    def sign_normalized(self) -> "PluckerVector":
        for x in self.coords:
            if x:
                if x > 0:
                    return self
                return PluckerVector(*(-y for y in self.coords))
        raise ValueError("zero Plucker vector has no sign class")


def plucker_of_basis(u, v) -> PluckerVector:
    """Six 2x2 minors of the 2x4 matrix with rows u, v, in pair order.

    The raw minors are returned without sign normalization and without any
    division: a gcd larger than 1 means the span is not saturated, which
    callers can query through ``is_primitive``.
    """
    u = [int(x) for x in u]
    v = [int(x) for x in v]
    coords = tuple(u[i] * v[j] - u[j] * v[i] for i, j in _PAIRS)
    if not any(coords):
        raise ValueError("degenerate basis")
    return PluckerVector(*coords)


def skew_matrices(rows) -> np.ndarray:
    """The 4x4 skew matrix S = u v^T - v u^T of each Plucker row, whose
    entry (i, j) with i < j is the minor of columns i, j.  Shape (N, 4, 4).

    For p = u ^ v and q both nonzero, S(p) S(q) = 0 iff q is a multiple of
    the Plucker vector of the plane orthogonal to u and v.  The product is
    v (S(q) u)^T - u (S(q) v)^T, so it vanishes iff S(q) kills u and v; a
    nonzero skew matrix with a 2-dimensional kernel has rank 2, so q = w ^ z,
    and S(q) x = w (z . x) - z (w . x) vanishes iff x is orthogonal to w, z.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 6)
    i, j = np.array(_PAIRS).T
    S = np.zeros((len(rows), 4, 4), dtype=np.int64)
    S[:, i, j] = rows
    S[:, j, i] = -rows
    return S


# every term that `plane_bases` and the products on its bases compute, and
# every product of the plane enumeration (`_solutions`), for norms up to n
# is below 32 n^2, so below 2^63 for n up to this bound
NMAX_INT64 = 2 ** 29 - 1


def plane_bases(rows) -> np.ndarray:
    """`Plane.from_plucker(p).basis` of each sign-normalized primitive row
    p, shape (N, 2, 4), in the closed form of the module docstring.  At
    norm n, |v|^2 <= n and |u| < 2 sqrt(n), so every term is below 2n.
    Raises ArithmeticError where the minors of (u, v) are not the row."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 6)
    if (np.gcd.reduce(rows, axis=1) != 1).any():
        raise ValueError("imprimitive Plucker vector")
    S = skew_matrices(rows)
    at = np.arange(len(S))
    top = S[at, S.any(axis=2).argmax(axis=1)]
    v = top // np.gcd.reduce(top, axis=1, keepdims=True)
    pivot = (v != 0).argmax(axis=1)
    Sj, vj = S[at, pivot], v[at, pivot, None]
    uj = np.zeros_like(vj)
    for t in range(1, int(vj.max(initial=1))):
        uj[(t < vj) & ((t * v - Sj) % vj == 0).all(axis=1, keepdims=True)] = t
    u = (uj * v - Sj) // vj
    i, j = np.array(_PAIRS).T
    if (u[:, i] * v[:, j] - u[:, j] * v[:, i] != rows).any():
        raise ArithmeticError("basis reconstruction lost the minors")
    return np.stack([u, v], axis=1)


def lead_signs(rows) -> np.ndarray:
    """Sign of the first nonzero entry of each row (N, k), 0 for a zero
    row: the sign-class rule in array form."""
    rows = np.asarray(rows)
    return np.sign(rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)])


def complements(rows) -> np.ndarray:
    """`orth_complement` of each Plucker row, shape (N, 6)."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 6)
    q = rows[:, ::-1] * np.array([1, -1, 1, 1, -1, 1])
    return q * lead_signs(q)[:, None]


def complement_index(rows) -> np.ndarray:
    """Index in rows, the planes of one norm, of each plane's complement,
    looked up by its `complements` row; -1 where it is not there."""
    where = {p: k for k, p in enumerate(map(tuple, rows.tolist()))}
    return np.array([where.get(q, -1) for q in map(tuple, complements(rows).tolist())],
                    dtype=np.intp)


def orth_complement(p: PluckerVector) -> PluckerVector:
    """Plucker vector of the orthogonal complement, sign-normalized.

    Under the pairing of a plane with its complement the six coordinates
    reverse with signs on the two middle pairs: (a,b,c,d,e,f) maps to
    (f,-e,d,c,-b,a).  Applied twice this is the identity on sign classes.
    """
    a, b, c, d, e, f = p.coords
    return PluckerVector(f, -e, d, c, -b, a).sign_normalized()


# ---------------------------------------------------------------------------
# planes


@dataclass(frozen=True)
class Plane:
    """Saturated rank-2 sublattice of Z^4 in canonical (Hermite) basis form."""

    basis: tuple[Vec4, Vec4]
    plucker: PluckerVector
    gram: tuple[tuple[int, int], tuple[int, int]]

    @classmethod
    def from_plucker(cls, p: PluckerVector) -> "Plane":
        if not any(p.coords):
            raise ValueError("zero Plucker vector")
        if not p.is_decomposable:
            raise ValueError("Plucker relation fails: vector names no plane")
        if not p.is_primitive:
            raise ValueError("imprimitive Plucker vector")
        p = p.sign_normalized()
        a, b, c, d, e, f = p.coords
        # x lies in the plane iff x wedged with the 2-vector vanishes
        M = [
            [d, -b, a, 0],
            [e, -c, 0, a],
            [f, 0, -c, b],
            [0, f, -e, d],
        ]
        ker = integer_kernel(M)
        if len(ker) != 2:
            raise ValueError("Plucker vector does not cut out a plane")
        u, v = ker
        back = plucker_of_basis(u, v)
        if back.coords != p.coords:
            raise ArithmeticError("basis reconstruction lost the minors")
        return cls._assemble(u, v, p)

    @classmethod
    def from_basis(cls, u, v) -> "Plane":
        p = plucker_of_basis(u, v)
        if not p.is_primitive:
            raise ValueError("span is not saturated")
        return cls.from_plucker(p)

    @classmethod
    def _assemble(cls, u, v, p: PluckerVector) -> "Plane":
        u = tuple(int(x) for x in u)
        v = tuple(int(x) for x in v)
        d  = sum(x * x for x in u)
        h  = sum(x * y for x, y in zip(u, v))
        d2 = sum(x * x for x in v)
        return cls(basis=(u, v), plucker=p, gram=((d, h), (h, d2)))

    @property
    def disc(self) -> int:
        return -4 * self.plucker.norm()

    @property
    def norm(self) -> int:
        return self.plucker.norm()

    def binary_form(self) -> tuple[int, int, int]:
        """Coefficients (A, B, C) of the restricted quadratic form on the basis."""
        return (self.gram[0][0], 2 * self.gram[0][1], self.gram[1][1])

    def orthogonal_complement(self) -> "Plane":
        return Plane.from_plucker(orth_complement(self.plucker))

    def to_json_dict(self) -> dict:
        return {
            "plucker": list(self.plucker.coords),
            "basis": [list(self.basis[0]), list(self.basis[1])],
            "disc": self.disc,
        }


# ---------------------------------------------------------------------------
# enumeration of all primitive planes of a given norm


def lex_order(rows, lead=None) -> np.ndarray:
    """Indices that sort the integer rows (N, w) lexicographically, after
    the nonnegative integers lead (N,) when given, as `np.lexsort` does,
    by one argsort of the int64 key lead B^w + sum_i (r_i + R) B^(w-1-i),
    with R the largest |entry| and B = 2R + 1.  The key is increasing in
    (lead, row) and equal only on equal rows.  Raises ArithmeticError where
    the largest key, (max(lead) + 1) B^w - 1, would pass int64."""
    rows = np.asarray(rows, dtype=np.int64)
    R = max(int(rows.max(initial=0)), -int(rows.min(initial=0)))
    top = 0 if lead is None else int(lead.max(initial=0))
    B, w = 2 * R + 1, rows.shape[1]
    if (top + 1) * B ** w > 2 ** 63:
        raise ArithmeticError(f"sort key {(top + 1) * B ** w - 1} is past int64")
    key = np.zeros(len(rows), np.int64) if lead is None else lead.astype(np.int64)
    for col in rows.T:
        key *= B
        key += col + R
    return np.argsort(key)


class NormTable:
    """Entries indexed by norm, up to a ceiling that only grows:
    ``fill(nmax)`` returns one entry for each norm 0..nmax.  A request past
    the ceiling refills it under the lock, up to the largest of the
    request, twice the old ceiling and 64, but never past ``limit``: a
    request past the limit is refused with a ValueError before anything is
    filled, so a sweep of rising requests pays for a few fills of known
    size."""

    def __init__(self, fill, limit: int):
        self._lock = threading.Lock()
        self._fill = fill
        self.limit = limit
        self.nmax = -1
        self._entries = ()

    def warm(self, nmax: int) -> None:
        if nmax <= self.nmax:
            return
        if nmax > self.limit:
            raise ValueError(f"norm {nmax} is past {self.limit}, the largest "
                             f"norm this table is filled to")
        with self._lock:
            if nmax <= self.nmax:
                return
            target = min(max(nmax, 2 * self.nmax, 64), self.limit)
            self._entries = self._fill(target)
            self.nmax = target

    def get(self, n: int):
        """The entry of norm n, which `warm` has filled."""
        return self._entries[n]


def rows_by_norm(blocks):
    """A `NormTable` fill from ``blocks(nmax)``, a generator of (norms,
    rows) blocks that together hold every row of norm at most nmax, in any
    order: the rows of each norm, sorted lexicographically, as views of
    one ordered copy, so a norm without rows has a (0, w) view."""
    def fill(nmax: int) -> list[np.ndarray]:
        ns, rows = (np.concatenate(part) for part in zip(*blocks(nmax)))
        order = lex_order(rows, ns)
        return np.split(rows[order], np.searchsorted(ns[order], np.arange(1, nmax + 1)))
    return fill


def ball(nmax: int):
    """Norms and points of Z^3 of norm 1..nmax, one x-slab at a time: the
    (y, z) of each x are the prefix, up to norm nmax - x^2, of the square
    [-R, R]^2 sorted by norm."""
    R = isqrt(nmax)
    rng = np.arange(-R, R + 1, dtype=np.int64)
    P, Q = (g.ravel() for g in np.meshgrid(rng, rng, indexing="ij"))
    disk = np.argsort(P * P + Q * Q, kind="stable")
    P, Q = P[disk], Q[disk]
    NORM = P * P + Q * Q
    for x in range(-R, R + 1):
        L = int(np.searchsorted(NORM, nmax - x * x, side="right"))
        skip = 1 if x == 0 else 0  # the disk starts at (0, 0)
        yield x * x + NORM[skip:L], np.stack([np.full(L - skip, x, dtype=np.int64),
                                              P[skip:L], Q[skip:L]], axis=1)


def _isqrt(v: np.ndarray) -> np.ndarray:
    """floor(sqrt(v)) of each nonnegative int64 v: the float root is within
    one of it, and one integer step either way makes it exact."""
    q = np.sqrt(v).astype(np.int64)
    q -= q * q > v
    q += (q + 1) * (q + 1) <= v
    return q


def _gauss_reduced(v1: np.ndarray, v2: np.ndarray):
    """Lagrange-Gauss reduction of each basis (v1[k], v2[k]) of a rank-2
    lattice: a basis of the same lattice with |2 v1.v2| <= v1.v1 <= v2.v2.
    No step lengthens a vector, so no dot product passes the largest input
    norm."""
    while True:
        A, C = (v1 * v1).sum(axis=1), (v2 * v2).sum(axis=1)
        swap = (C < A)[:, None]
        v1, v2 = np.where(swap, v2, v1), np.where(swap, v1, v2)
        A = np.minimum(A, C)
        q = ((v1 * v2).sum(axis=1) * 2 + A) // (2 * A)  # nearest integer to B/A
        if not q.any():
            return v1, v2
        v2 = v2 - q[:, None] * v1


# x per chunk of `_solutions`: every array of a chunk has one entry per x,
# per (x, b) row or per candidate of one block, never one per x of the ball
_X_CHUNK = 2048

# candidates that `_solutions` builds in one pass: each int64 temporary of a
# block is 256 KB; 2^16 was no faster and raised the peak of the first table
# build (to 64) by about 1.5 MB
_BLOCK = 2 ** 15


def _kernel_rows(x, v1, v2, xo, b, o, a):
    """The rows (x, y_2, -y_1, y_0) of y = a v1 + b v2 on the (x, b) rows o,
    x, v1 and v2 read at xo, followed by the rows of their mirrors -y."""
    r = xo[o]
    y = a[:, None] * v1[r] + b[o, None] * v2[r]
    rows = np.concatenate([x[r], y[:, ::-1] * (1, -1, 1)], axis=1)
    return np.concatenate([rows, rows * (1, 1, 1, -1, -1, -1)])


def _solve_chunk(nmax: int, s: np.ndarray, x: np.ndarray):
    """(norms, rows) of each block of the primitive solutions of
    x . y = 0 and |x|^2 + |y|^2 <= nmax, for a chunk of sign-normalized
    x != 0 of norms s.  A block holds the norms of one of each pair of
    solutions of equal norm, (x, y) and (x, -y), or (x, 0) and (0, x); rows
    is a function that builds the rows of the ones held, then of their
    partners, so a consumer of norms alone builds no row.

    With g = gcd(x), the y are the points a v1 + b v2 of the lattice
    (x/g)^perp with Gauss-reduced basis (v1, v2), Gram (A, B; B, C) and
    det = AC - B^2 = |x/g|^2, of norm at most r^2 = nmax - |x|^2:
    |b| <= sqrt(A r^2 / det), and for each b, with t = isqrt(A r^2 - det b^2),
    a runs over [ceil((-Bb - t)/A), floor((-Bb + t)/A)], as
    A Q(a, b) = (Aa + Bb)^2 + det b^2.  Of each pair y, -y != 0 the one with
    b > 0, or b = 0 < a, is kept.  Each x has a run of (x, b) rows and each
    row a run of a; the candidates are laid out flat and built in blocks of
    at most `_BLOCK`.
    """
    g = np.gcd.reduce(x, axis=1)
    bases = orthogonal_bases(x // g[:, None])
    v1, v2 = _gauss_reduced(bases[:, 0], bases[:, 1])
    A, B, C = (v1 * v1).sum(axis=1), (v1 * v2).sum(axis=1), (v2 * v2).sum(axis=1)
    Ar2, det = A * (nmax - s), A * C - B * B
    nb = _isqrt(Ar2 // det) + 1
    xo = np.repeat(np.arange(len(x)), nb)
    b = np.arange(len(xo)) - np.repeat(np.cumsum(nb) - nb, nb)
    t = _isqrt(Ar2[xo] - det[xo] * b * b)
    Ab, Bb = A[xo], B[xo] * b
    a0 = np.where(b == 0, 1, -((Bb + t) // Ab))
    na = (t - Bb) // Ab - a0 + 1
    base = s[xo] + C[xo] * b * b  # the norm at a = 0
    # y = a v1 + b v2 has content gcd(a, b), since (v1, v2) spans a
    # saturated lattice, so the row is primitive iff gcd(a, gcd(b, g)) = 1
    gb = np.gcd(b, g[xo])
    ends = np.cumsum(na)
    starts = ends - na
    shift = a0 - starts  # a of candidate k on row o is k + shift[o]
    for lo in range(0, int(ends[-1]), _BLOCK):
        top = min(lo + _BLOCK, int(ends[-1]))
        first, last = np.searchsorted(ends, [lo, top - 1], side="right")
        span = slice(first, last + 1)
        runs = np.minimum(ends[span], top) - np.maximum(starts[span], lo)
        o = np.repeat(np.arange(first, last + 1), runs)
        a = np.arange(lo, top) + shift[o]
        nv = base[o] + a * (Ab[o] * a + 2 * Bb[o])
        check = np.flatnonzero(gb[o] != 1)
        if len(check):
            keep = np.ones(len(o), dtype=bool)
            keep[check] = np.gcd(a[check], gb[o[check]]) == 1
            o, a, nv = o[keep], a[keep], nv[keep]
        yield nv, functools.partial(_kernel_rows, x, v1, v2, xo, b, o, a)
    # y = 0 and x = 0: (x, 0) and (0, x), primitive where x is
    p = x[g == 1]
    yield s[g == 1], lambda: np.concatenate([np.pad(p, ((0, 0), (0, 3))),
                                             np.pad(p, ((0, 0), (3, 0)))])


def _sign_normalized(nmax: int):
    """(norms, points) of the x != 0 of norm at most nmax whose first
    nonzero entry is positive, slab by slab from `ball`."""
    for s, x in ball(nmax):
        live = lead_signs(x) > 0
        yield s[live], x[live]


def _solutions(nmax: int, xs=None):
    """(norms, rows) of each block of the sign-normalized primitive
    solutions of norm <= nmax with x from xs, an iterable of (norms,
    points) of sign-normalized x != 0 (every such x by default), with rows
    a function that builds them; each solution is in one block.

    With x = (a, b, c) and y = (f, -e, d) the relation reads x . y = 0.
    The x are taken in chunks of `_X_CHUNK`.  Every int64 term is at most
    3 (nmax^2 + nmax): the closed-form basis of x/g has norms at most
    nmax^2 + nmax, Gauss reduction lengthens no vector, and the reduced
    terms are smaller.  Raises ArithmeticError past `NMAX_INT64`, before
    anything is built."""
    if nmax > NMAX_INT64:
        raise ArithmeticError(f"norm {nmax} is past the int64 bound {NMAX_INT64}")
    S, X = np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.int64)
    for s, x in _sign_normalized(nmax) if xs is None else xs:
        S, X = np.concatenate([S, s]), np.concatenate([X, x])
        while len(X) >= _X_CHUNK:
            yield from _solve_chunk(nmax, S[:_X_CHUNK], X[:_X_CHUNK])
            S, X = S[_X_CHUNK:], X[_X_CHUNK:]
    if len(X):
        yield from _solve_chunk(nmax, S, X)


def _plane_rows(nmax: int):
    """(norms, rows) blocks of `_solutions`, for the table of planes."""
    for ns, rows in _solutions(nmax):
        yield np.concatenate([ns, ns]), rows()


def _orbit_classes(nmax: int):
    """(weight, norms, points) of the x = (x0, x1, x2) != 0 of norm at most
    nmax with 0 <= x0 <= x1 <= x2, one of each orbit of the 48 signed
    permutations G, grouped by the weight |Gx| / 2, the number of
    sign-normalized points of the orbit.  That is 24 over the order of the
    stabilizer, 2 for each zero entry times the permutations of equal
    entries: 3 for (0, 0, k), 4 for (k, k, k), 6 for (0, k, k), 12 for
    the other shapes with a zero or two equal entries and 24 for the rest.
    The (x0, x1) of each x2 are a prefix of the pairs x0 <= x1 by x1."""
    R = isqrt(nmax)
    x1, x0 = np.tril_indices(R + 1)
    q = x0 * x0 + x1 * x1
    parts = [np.empty((0, 3), dtype=np.int64)]
    for x2 in range(1, R + 1):
        k = np.flatnonzero(q[:(x2 + 1) * (x2 + 2) // 2] <= nmax - x2 * x2)
        parts.append(np.stack([x0[k], x1[k], np.full(len(k), x2)], axis=1))
    x = np.concatenate(parts)
    x0, x1, x2 = x.T
    perms = np.where(x0 == x2, 6, np.where((x0 == x1) | (x1 == x2), 2, 1))
    weight = 24 // (perms << (x == 0).sum(axis=1))
    s = (x * x).sum(axis=1)
    for w in (3, 4, 6, 12, 24):
        yield w, s[weight == w], x[weight == w]


def _plane_counts(nmax: int) -> np.ndarray:
    """Planes of each norm 0..nmax, from one x of each orbit of G (see the
    module docstring): each weight class of `_orbit_classes` gets one
    histogram of the norms of its `_solutions` blocks, times its weight,
    and all twice for the mirrors, in exact int64 with no row built."""
    counts = np.zeros(nmax + 1, dtype=np.int64)
    for weight, s, x in _orbit_classes(nmax):
        hist = np.zeros(nmax + 1, dtype=np.int64)
        for ns, _ in _solutions(nmax, [(s, x)]):
            hist += np.bincount(ns, minlength=nmax + 1)
        counts += weight * hist
    return 2 * counts


# the largest norms the caches are filled to: at either limit a fill in a
# fresh process peaks at about 250 MB (2-core VM, numpy 2.4), the row table
# at 512 (224 MB) and the sphere table at 8192 (245 MB); a count streams its
# blocks, so its sweep to 8192 holds a few MB and, one x per orbit, takes
# about 0.45 s
ROW_LIMIT = 2 ** 9
NORM_LIMIT = 2 ** 13

_plucker_table = NormTable(rows_by_norm(_plane_rows), ROW_LIMIT)
_plucker_counts = NormTable(_plane_counts, NORM_LIMIT)


def warm_cache(nmax: int) -> None:
    """Ensure the solution table covers every norm up to nmax."""
    _plucker_table.warm(nmax)


def warm_count_cache(nmax: int) -> None:
    """Ensure the plane counts cover every norm up to nmax."""
    _plucker_counts.warm(nmax)


def plucker_arrays(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("norm must be positive")
    warm_cache(n)
    return _plucker_table.get(n)


def plane_count(n: int) -> int:
    """Number of planes of norm n, read off the count sweep: no rows are
    kept, sorted or split by norm."""
    if n < 1:
        raise ValueError("norm must be positive")
    warm_count_cache(n)
    return int(_plucker_counts.get(n))


def enumerate_planes(n: int) -> tuple[Plane, ...]:
    """All planes of discriminant -4n, with their Hermite bases."""
    rows = plucker_arrays(n)
    return tuple(Plane._assemble(u, v, PluckerVector(*p)) for p, (u, v)
                 in zip(rows.tolist(), plane_bases(rows).tolist()))
