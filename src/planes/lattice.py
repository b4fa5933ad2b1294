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
x_k is positive is read off the x-slabs of the ball of Z^3 (`ball`),
listed in one array and grouped by the pivot k.  Within a group the other
two entries (y_i, y_j) of y run over the norm-sorted disk up to
N - |x|^2, so each x owns a prefix of the disk; the (x, disk point)
candidates are laid out flat and solved in blocks of at most `_BLOCK`,
y_k by exact division, with no Python loop over x.  x = 0 leaves any
primitive (d, e, f) of norm at most N whose first nonzero entry is
positive: the primitive rows of that same array.

Three grow-only, lock-guarded caches read block generators, so sweeps over
a range of discriminants pay for a few passes.  The solved blocks
(`_solve_blocks`) feed a `NormTable` of rows, split by norm and ordered by
one int64 key (`lex_order`), and a `NormCounts`, one bincount of the norms
of each block, so `plane_count` keeps no rows.  The slabs of `ball` feed
the `NormTable` of sphere points of `repnum`.

Hermite bases come in closed form (`plane_bases`).  The rows of
S = u v^T - v u^T are S[k] = u_k v - v_k u, and span the plane when its
Plucker vector is primitive.  For the Hermite basis, u has the first pivot
i and v vanishes there, so S[i] = u_i v and v is S[i] over its gcd; with j
the pivot of v, u = (u_j v - S[j]) / v_j, where u_j is the one value in
[0, v_j) that makes u integral (v is primitive), found by trying each.
"""

from __future__ import annotations

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


# every term that `plane_bases` and the products on its bases compute for
# norms up to n is below 32 n^2, so below 2^63 for n up to this bound
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


class _Ceiling:
    """Data for every norm up to a ceiling that only grows, read off
    ``blocks(nmax)``, which yields (norms, rows) blocks that together hold
    every entry of norm at most nmax, in any order.  A request past the
    ceiling refills it under the lock, up to the largest of the request,
    twice the old ceiling and 64, so a rising sweep of requests pays for a
    few fills."""

    def __init__(self, blocks):
        self._lock = threading.Lock()
        self._blocks = blocks
        self.nmax = -1

    def warm(self, nmax: int) -> None:
        if nmax <= self.nmax:
            return
        with self._lock:
            if nmax <= self.nmax:
                return
            target = max(nmax, 2 * self.nmax, 64)
            self._fill(target)
            self.nmax = target


class NormTable(_Ceiling):
    """Integer rows grouped by norm, for every norm up to the ceiling: the
    blocks concatenated, and the rows of one norm sorted lexicographically.
    """

    def __init__(self, blocks, width: int):
        super().__init__(blocks)
        self._rows: dict[int, np.ndarray] = {}
        self._empty = np.empty((0, width), dtype=np.int64)

    def _fill(self, target: int) -> None:
        ns, rows = (np.concatenate(part) for part in zip(*self._blocks(target)))
        order = lex_order(rows, ns)
        ns, rows = ns[order], rows[order]
        starts = np.flatnonzero(np.diff(ns)) + 1
        self._rows = dict(zip(ns[np.r_[0, starts]].tolist(),
                              np.split(rows, starts)))

    def get(self, n: int) -> np.ndarray:
        """Rows of norm n; empty if there are none (or n is past the ceiling)."""
        return self._rows.get(n, self._empty)


class NormCounts(_Ceiling):
    """How many entries each norm has, for every norm up to the ceiling:
    the sum of one bincount of each block's norms, so no more than one
    block is held at a time.
    """

    def __init__(self, blocks):
        super().__init__(blocks)
        self._counts = np.zeros(0, dtype=np.int64)

    def _fill(self, target: int) -> None:
        counts = np.zeros(target + 1, dtype=np.int64)
        for ns, _ in self._blocks(target):
            counts += np.bincount(ns, minlength=target + 1)
        self._counts = counts

    def get(self, n: int) -> int:
        """Entries of norm n; 0 if there are none (or n is past the ceiling)."""
        return int(self._counts[n]) if 0 <= n < len(self._counts) else 0


def sorted_disk(R: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points (P, Q) of the square [-R, R]^2 and their norms, sorted by
    norm, so the points of norm at most m are a prefix."""
    rng = np.arange(-R, R + 1, dtype=np.int64)
    P, Q = (g.ravel() for g in np.meshgrid(rng, rng, indexing="ij"))
    disk = np.argsort(P * P + Q * Q, kind="stable")
    P, Q = P[disk], Q[disk]
    return P, Q, P * P + Q * Q


def ball(nmax: int):
    """Norms and points of Z^3 of norm 1..nmax, one x-slab at a time: the
    (y, z) of each x are the prefix of the norm-sorted disk up to nmax - x^2."""
    R = isqrt(nmax)
    P, Q, NORM = sorted_disk(R)
    for x in range(-R, R + 1):
        L = int(np.searchsorted(NORM, nmax - x * x, side="right"))
        skip = 1 if x == 0 else 0  # the disk starts at (0, 0)
        yield x * x + NORM[skip:L], np.stack([np.full(L - skip, x, dtype=np.int64),
                                              P[skip:L], Q[skip:L]], axis=1)


# (x, disk point) candidates that `_solve_blocks` solves in one pass: each
# int64 temporary of a block is 256 KB; 2^16 was no faster and raised the
# peak of the first table build (to 64) by about 1.5 MB
_BLOCK = 2 ** 15


def _solve_blocks(nmax: int):
    """Norms and rows of the sign-normalized primitive solutions of norm
    <= nmax, one solved block at a time; each solution is in one block.

    With x = (a, b, c) and y = (f, -e, d) the relation reads x . y = 0.
    """
    R = isqrt(nmax)
    P, Q, NORM = sorted_disk(R)

    def primitive(x, g, y, nv):
        """The norms and primitive rows (x, y_2, -y_1, y_0), of norms nv,
        for x of content g; a primitive x makes every solution primitive."""
        keep = np.ones(len(nv), dtype=bool)
        check = np.flatnonzero(g != 1)
        keep[check] = np.gcd(np.gcd(np.gcd(y[0][check], y[1][check]),
                                    y[2][check]), g[check]) == 1
        rows = np.empty((int(keep.sum()), 6), dtype=np.int64)
        rows[:, :3] = x[keep]
        rows[:, 3], rows[:, 4], rows[:, 5] = y[2][keep], -y[1][keep], y[0][keep]
        return nv[keep], rows

    # x != 0 with first nonzero x_k > 0, grouped by k: each x pairs with the
    # disk prefix of norm <= nmax - |x|^2 as (y_i, y_j), and y_k is solved
    # from the relation by exact division, _BLOCK candidates at a time
    S, X = (np.concatenate(part) for part in zip(*ball(nmax)))
    live = lead_signs(X) > 0
    X, S = X[live], S[live]
    pivot = (X != 0).argmax(axis=1)
    for k in range(3):
        i, j = (m for m in range(3) if m != k)
        x, s = X[pivot == k], S[pivot == k]
        g = np.gcd.reduce(x, axis=1)
        xi, xj, xk = (np.ascontiguousarray(x[:, m]) for m in (i, j, k))
        L = np.searchsorted(NORM, nmax - s, side="right")
        ends = np.cumsum(L)
        starts = ends - L
        total = int(ends[-1]) if len(ends) else 0
        for lo in range(0, total, _BLOCK):
            hi = min(lo + _BLOCK, total)
            first, last = np.searchsorted(ends, [lo, hi - 1], side="right")
            span = slice(first, last + 1)
            owner = np.repeat(np.arange(first, last + 1),
                              np.minimum(ends[span], hi) - np.maximum(starts[span], lo))
            at = np.arange(lo, hi) - starts[owner]
            t = -(xi[owner] * P[at] + xj[owner] * Q[at])
            hit = np.flatnonzero(t % xk[owner] == 0)
            yk = t[hit] // xk[owner[hit]]
            nv = s[owner[hit]] + NORM[at[hit]] + yk * yk
            fit = np.flatnonzero(nv <= nmax)
            owner, at = owner[hit[fit]], at[hit[fit]]
            y = [None] * 3
            y[i], y[j], y[k] = P[at], Q[at], yk[fit]
            yield primitive(x[owner], g[owner], y, nv[fit])

    # x = 0: (d, e, f) runs over the same nonzero vectors as x, and
    # primitive drops the imprimitive ones since g = 0
    yield primitive(np.zeros_like(X), np.zeros(len(X), dtype=np.int64),
                    [X[:, 2], -X[:, 1], X[:, 0]], S)


_plucker_table = NormTable(_solve_blocks, 6)
_plucker_counts = NormCounts(_solve_blocks)


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
    return _plucker_counts.get(n)


def enumerate_planes(n: int) -> tuple[Plane, ...]:
    """All planes of discriminant -4n, with their Hermite bases."""
    rows = plucker_arrays(n)
    return tuple(Plane._assemble(u, v, PluckerVector(*p)) for p, (u, v)
                 in zip(rows.tolist(), plane_bases(rows).tolist()))
