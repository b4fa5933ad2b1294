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

Enumeration walks the outer triple (a, b, c) and solves the relation,
which is linear in (d, e, f), for the remaining coordinate; the inner
loops are flat numpy scans.  Results are cached per norm so that sweeps
over a range of discriminants pay for a single pass.  The outer loop is
shardable (disjoint (a, b, c) blocks, merged by union); the cache is
guarded by a lock and only ever grows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

Vec4 = tuple[int, int, int, int]


# ---------------------------------------------------------------------------
# exact integer matrix helpers


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
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


def row_hnf(rows, transform: bool = False):
    """Row-style Hermite normal form over Z.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    and zero rows sink to the bottom.  With transform=True also returns a
    unimodular U with U * rows == H, which is how integer kernels are read
    off (rows of U facing a zero row of H).
    """
    A = [[int(x) for x in r] for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
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
            U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            if A[i][col] == 0:
                continue
            g, s, t = _ext_gcd(A[r][col], A[i][col])
            ar, ai = A[r][col] // g, A[i][col] // g
            Rr, Ri = A[r], A[i]
            A[r] = [s * x + t * y for x, y in zip(Rr, Ri)]
            A[i] = [ar * y - ai * x for x, y in zip(Rr, Ri)]
            if transform:
                Ur, Ui = U[r], U[i]
                U[r] = [s * x + t * y for x, y in zip(Ur, Ui)]
                U[i] = [ar * y - ai * x for x, y in zip(Ur, Ui)]
        if A[r][col] < 0:
            A[r] = [-x for x in A[r]]
            U[r] = [-x for x in U[r]]
        for i in range(r):
            q = A[i][col] // A[r][col]
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], A[r])]
                if transform:
                    U[i] = [x - q * y for x, y in zip(U[i], U[r])]
        r += 1
        if r == m:
            break
    if transform:
        return A, U
    return A


def hnf_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical nonzero Hermite rows of the lattice spanned by the input rows."""
    H = row_hnf(rows)
    return tuple(tuple(r) for r in H if any(r))


def integer_kernel(rows) -> tuple[tuple[int, ...], ...]:
    """Hermite basis of {x : M x = 0} over Z.

    The integer kernel of an integer matrix is saturated by construction.
    """
    m = len(rows)
    n = len(rows[0])
    B = [[rows[i][j] for i in range(m)] for j in range(n)]  # transpose, n x m
    H, U = row_hnf(B, transform=True)
    ker = [U[i] for i in range(n) if not any(H[i])]
    return hnf_rows(ker) if ker else tuple()


def _det(rows) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


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

    @classmethod
    def from_coords(cls, coords) -> "PluckerVector":
        return cls(*(int(x) for x in coords))

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

    def saturation_index(self) -> int:
        """Index of the basis span inside its saturation, via Hermite solving.

        Independent of the gcd of the minors; for a valid Plane this is 1.
        """
        return saturation_index(self.basis)

    def to_json_dict(self) -> dict:
        return {
            "plucker": list(self.plucker.coords),
            "basis": [list(self.basis[0]), list(self.basis[1])],
            "disc": self.disc,
        }


def saturation_index(basis) -> int:
    """Index [sat(L) : L] for the row span L of a rank-2 integer basis."""
    rat_kernel = integer_kernel(basis)
    sat = integer_kernel(rat_kernel)
    if len(sat) != 2:
        raise ValueError("basis does not span a plane")
    # pivot columns of the Hermite basis give an invertible 2x2 block
    piv = [next(j for j, x in enumerate(row) if x) for row in sat]
    S = [[Fraction(sat[i][piv[j]]) for j in range(2)] for i in range(2)]
    det_s = S[0][0] * S[1][1] - S[0][1] * S[1][0]
    C = []
    for brow in basis:
        rhs = [Fraction(brow[piv[0]]), Fraction(brow[piv[1]])]
        c0 = (rhs[0] * S[1][1] - rhs[1] * S[1][0]) / det_s
        c1 = (rhs[1] * S[0][0] - rhs[0] * S[0][1]) / det_s
        C.append((c0, c1))
        for j in range(4):
            if c0 * sat[0][j] + c1 * sat[1][j] != brow[j]:
                raise ValueError("basis is not contained in its saturation span")
    det_c = C[0][0] * C[1][1] - C[0][1] * C[1][0]
    if det_c.denominator != 1:
        raise ValueError("non-integral change of basis")
    return abs(int(det_c))


# ---------------------------------------------------------------------------
# enumeration of all primitive planes of a given norm


_cache_lock = threading.Lock()
_plucker_cache: dict[int, np.ndarray] = {}
_plucker_cache_nmax = -1

_EMPTY = np.empty((0, 6), dtype=np.int64)


def _bulk_enumerate(nmax: int) -> dict[int, np.ndarray]:
    """One pass over all sign-normalized primitive solutions of norm <= nmax."""
    out_n: list[np.ndarray] = []
    out_rows: list[np.ndarray] = []
    R = isqrt(nmax)
    rng = np.arange(-R, R + 1, dtype=np.int64)
    P0, Q0 = np.meshgrid(rng, rng, indexing="ij")
    P0 = P0.ravel()
    Q0 = Q0.ravel()
    NORM = P0 * P0 + Q0 * Q0
    order = np.argsort(NORM, kind="stable")
    P0, Q0, NORM = P0[order], Q0[order], NORM[order]

    def emit(n_arr, rows):
        if len(n_arr):
            out_n.append(n_arr)
            out_rows.append(rows)

    def gcd_rows(g0, cols):
        g = np.full(cols[0].shape, abs(g0), dtype=np.int64)
        for col in cols:
            g = np.gcd(g, np.abs(col))
        return g

    # a > 0: solve f from the relation
    for a in range(1, R + 1):
        rb = isqrt(nmax - a * a)
        for b in range(-rb, rb + 1):
            rc = isqrt(nmax - a * a - b * b)
            for c in range(-rc, rc + 1):
                s = a * a + b * b + c * c
                L = int(np.searchsorted(NORM, nmax - s, side="right"))
                if L == 0:
                    continue
                D, E, NDE = P0[:L], Q0[:L], NORM[:L]
                t = b * E - c * D
                mask = t % a == 0
                if not mask.any():
                    continue
                D, E, NDE, t = D[mask], E[mask], NDE[mask], t[mask]
                F = t // a
                nv = s + NDE + F * F
                keep = nv <= nmax
                if not keep.any():
                    continue
                D, E, F, nv = D[keep], E[keep], F[keep], nv[keep]
                g = gcd_rows(gcd(a, gcd(b, c)), (D, E, F))
                prim = g == 1
                if not prim.any():
                    continue
                D, E, F, nv = D[prim], E[prim], F[prim], nv[prim]
                rows = np.empty((len(D), 6), dtype=np.int64)
                rows[:, 0] = a
                rows[:, 1] = b
                rows[:, 2] = c
                rows[:, 3] = D
                rows[:, 4] = E
                rows[:, 5] = F
                emit(nv, rows)

    # a = 0, b > 0: solve e = c*d/b from the relation
    for b in range(1, R + 1):
        rc = isqrt(nmax - b * b)
        for c in range(-rc, rc + 1):
            s = b * b + c * c
            L = int(np.searchsorted(NORM, nmax - s, side="right"))
            if L == 0:
                continue
            D, F, NDF = P0[:L], Q0[:L], NORM[:L]
            t = c * D
            mask = t % b == 0
            D, F, NDF, t = D[mask], F[mask], NDF[mask], t[mask]
            if not len(D):
                continue
            E = t // b
            nv = s + NDF + E * E
            keep = nv <= nmax
            D, E, F, nv = D[keep], E[keep], F[keep], nv[keep]
            if not len(D):
                continue
            g = gcd_rows(gcd(b, c), (D, E, F))
            prim = g == 1
            D, E, F, nv = D[prim], E[prim], F[prim], nv[prim]
            if not len(D):
                continue
            rows = np.empty((len(D), 6), dtype=np.int64)
            rows[:, 0] = 0
            rows[:, 1] = b
            rows[:, 2] = c
            rows[:, 3] = D
            rows[:, 4] = E
            rows[:, 5] = F
            emit(nv, rows)

    # a = b = 0, c > 0: the relation forces d = 0
    for c in range(1, R + 1):
        s = c * c
        L = int(np.searchsorted(NORM, nmax - s, side="right"))
        if L == 0:
            continue
        E, F, NEF = P0[:L], Q0[:L], NORM[:L]
        nv = s + NEF
        g = gcd_rows(c, (E, F))
        prim = g == 1
        E, F, nv = E[prim], F[prim], nv[prim]
        if not len(E):
            continue
        rows = np.zeros((len(E), 6), dtype=np.int64)
        rows[:, 2] = c
        rows[:, 4] = E
        rows[:, 5] = F
        emit(nv, rows)

    # a = b = c = 0: any primitive (d, e, f), first nonzero positive
    for d in range(0, R + 1):
        L = int(np.searchsorted(NORM, nmax - d * d, side="right"))
        if L == 0:
            continue
        E, F, NEF = P0[:L], Q0[:L], NORM[:L]
        if d == 0:
            head = (E > 0) | ((E == 0) & (F > 0))
            E, F, NEF = E[head], F[head], NEF[head]
        nv = d * d + NEF
        g = gcd_rows(d, (E, F))
        prim = g == 1
        E, F, nv = E[prim], F[prim], nv[prim]
        if not len(E):
            continue
        rows = np.zeros((len(E), 6), dtype=np.int64)
        rows[:, 3] = d
        rows[:, 4] = E
        rows[:, 5] = F
        emit(nv, rows)

    if not out_n:
        return {}
    ns = np.concatenate(out_n)
    rows = np.concatenate(out_rows)
    order = np.lexsort((rows[:, 5], rows[:, 4], rows[:, 3],
                        rows[:, 2], rows[:, 1], rows[:, 0], ns))
    ns, rows = ns[order], rows[order]
    table: dict[int, np.ndarray] = {}
    bounds = np.flatnonzero(np.diff(ns)) + 1
    for chunk_n, chunk in zip(np.split(ns, bounds), np.split(rows, bounds)):
        table[int(chunk_n[0])] = chunk
    return table


def warm_cache(nmax: int) -> None:
    """Ensure the solution table covers every norm up to nmax."""
    global _plucker_cache, _plucker_cache_nmax
    if nmax <= _plucker_cache_nmax:
        return
    with _cache_lock:
        if nmax <= _plucker_cache_nmax:
            return
        target = max(nmax, 2 * _plucker_cache_nmax, 64)
        table = _bulk_enumerate(target)
        _plucker_cache = table
        _plucker_cache_nmax = target


def plucker_arrays(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("norm must be positive")
    warm_cache(n)
    return _plucker_cache.get(n, _EMPTY)


def plucker_vectors(n: int) -> list[PluckerVector]:
    """All sign-normalized primitive decomposable vectors of norm n."""
    return [PluckerVector(*map(int, row)) for row in plucker_arrays(n)]


def plane_count(n: int) -> int:
    return len(plucker_arrays(n))


@lru_cache(maxsize=None)
def enumerate_planes(n: int) -> tuple[Plane, ...]:
    """All planes of discriminant -4n, reconstructed with canonical bases."""
    return tuple(Plane.from_plucker(p) for p in plucker_vectors(n))


# ---------------------------------------------------------------------------
# representation numbers of the senary minor form of a positive matrix


@dataclass(frozen=True)
class SymMatrix4:
    """Symmetric positive definite 4x4 integer matrix."""

    rows: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        if len(self.rows) != 4 or any(len(r) != 4 for r in self.rows):
            raise ValueError("need a 4x4 matrix")
        for i in range(4):
            for j in range(4):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError("matrix is not symmetric")
        for k in range(1, 5):
            minor = [list(r[:k]) for r in self.rows[:k]]
            if _det(minor) <= 0:
                raise ValueError("matrix is not positive definite")

    @classmethod
    def from_rows(cls, rows) -> "SymMatrix4":
        return cls(tuple(tuple(int(x) for x in r) for r in rows))

    @classmethod
    def identity(cls) -> "SymMatrix4":
        return cls.diag(1, 1, 1, 1)

    @classmethod
    def diag(cls, *entries) -> "SymMatrix4":
        return cls.from_rows([[entries[i] if i == j else 0 for j in range(4)]
                              for i in range(4)])

    def minor_form(self) -> tuple[tuple[int, ...], ...]:
        """6x6 Gram matrix of the induced form on pair-index wedge coordinates."""
        x = self.rows
        W = []
        for (i, j) in _PAIRS:
            row = []
            for (k, l) in _PAIRS:
                row.append(x[i][k] * x[j][l] - x[i][l] * x[j][k])
            W.append(tuple(row))
        return tuple(W)


def _minor_value(W, v) -> int:
    total = 0
    for i in range(6):
        if v[i] == 0:
            continue
        row = W[i]
        total += v[i] * sum(row[j] * v[j] for j in range(6))
    return total


def _short_vectors(W, bound: int):
    """All nonzero integer v with v^T W v <= bound, by pruned backtracking.

    Float Cholesky bounds carry a slack of half a unit, so no integer
    solution can be pruned away; membership is re-checked exactly.
    """
    Wf = np.array(W, dtype=float)
    Lf = np.linalg.cholesky(Wf)
    Rf = Lf.T  # upper triangular, v^T W v = |Rf v|^2
    n = 6
    slack = 0.5
    v = [0] * n
    found = []

    def descend(i: int, rem: float):
        center = sum(Rf[i, j] * v[j] for j in range(i + 1, n))
        rii = Rf[i, i]
        half = (max(rem, 0.0) + slack) ** 0.5
        lo = int(np.ceil((-half - center) / rii))
        hi = int(np.floor((half - center) / rii))
        for vi in range(lo, hi + 1):
            t = (rii * vi + center) ** 2
            if t > rem + slack:
                continue
            v[i] = vi
            if i == 0:
                q = _minor_value(W, v)
                if 0 < q <= bound:
                    found.append((tuple(v), q))
            else:
                descend(i - 1, rem - t)
        v[i] = 0

    descend(n - 1, float(bound))
    return found


def rp_counts(x: SymMatrix4, kmax: int) -> dict[int, int]:
    """Counts, for every k <= kmax, of primitive decomposable sign classes
    on which the minor form of x takes the value k."""
    W = x.minor_form()
    counts: dict[int, int] = {k: 0 for k in range(1, kmax + 1)}
    for v, q in _short_vectors(W, kmax):
        first = next(c for c in v if c)
        if first < 0:
            continue
        g = 0
        for c in v:
            g = gcd(g, c)
        if g != 1:
            continue
        if v[0] * v[5] - v[1] * v[4] + v[2] * v[3] != 0:
            continue
        counts[q] += 1
    return counts


def rp_count(x: SymMatrix4, k: int) -> int:
    if k < 1:
        raise ValueError("k must be positive")
    return rp_counts(x, k)[k]


def zp_partial(x: SymMatrix4, s, kmax: int):
    """Partial Dirichlet sum sum_{k<=kmax} rp(x;k) k^-s.

    Exact Fraction for nonnegative integer s, float otherwise.
    """
    counts = rp_counts(x, kmax)
    s_int = None
    if isinstance(s, int):
        s_int = s
    elif isinstance(s, Fraction) and s.denominator == 1:
        s_int = int(s)
    if s_int is not None and s_int >= 0:
        return sum(Fraction(r, k ** s_int) for k, r in counts.items() if r)
    sf = float(s)
    return float(sum(r * k ** (-sf) for k, r in counts.items() if r))
