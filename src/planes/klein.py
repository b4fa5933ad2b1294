"""Klein correspondence between planes and pairs of three-square vectors.

A plane with basis u, v maps to the pair of traceless parts of u*conj(v)
and conj(v)*u, each of norm equal to the plane norm.  The pair is well
defined up to a joint sign flip, which `KleinPair.of` fixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from planes import lattice, repnum
from planes.lattice import Plane, hnf_rows, integer_kernel, orthogonal_bases
from planes.qform import (
    FormClass,
    QuadForm,
    class_group,
    genus_partition,
    gl2_class,
    reduced,
)
from planes.quaternion import Quaternion, TracelessQuaternion


def _traceless_part(q: Quaternion) -> TracelessQuaternion:
    return TracelessQuaternion(q.x1, q.x2, q.x3)


@dataclass(frozen=True)
class KleinPair:
    """Sign-normalized image of a plane: first nonzero entry of a1 positive."""

    a1: TracelessQuaternion
    a2: TracelessQuaternion

    @staticmethod
    def of(a1: TracelessQuaternion, a2: TracelessQuaternion) -> "KleinPair":
        lead = next((c for c in a1.vec3() if c != 0), 0)
        if lead == 0:
            raise ValueError("first component must be nonzero")
        if lead < 0:
            a1, a2 = -a1, -a2
        return KleinPair(a1, a2)

    @property
    def norm(self) -> int:
        return self.a1.nr()


def _raw_pair(u: Quaternion, v: Quaternion) -> tuple[TracelessQuaternion, TracelessQuaternion]:
    return _traceless_part(u * v.conj()), _traceless_part(v.conj() * u)


def klein_map(plane: Plane) -> KleinPair:
    """Image of a plane, independent of the choice of basis."""
    u = Quaternion.from_vec4(plane.basis[0])
    v = Quaternion.from_vec4(plane.basis[1])
    a1, a2 = _raw_pair(u, v)
    # basis independence, spot-checked on two unimodular rebasings
    if _raw_pair(u + v, v) != (a1, a2):
        raise ArithmeticError("Klein pair changed under (u, v) -> (u + v, v)")
    if _raw_pair(v, -u) != (a1, a2):
        raise ArithmeticError("Klein pair changed under (u, v) -> (v, -u)")
    if not a1.nr() == a2.nr() == plane.norm:
        raise ArithmeticError("Klein pair norms differ from the plane norm")
    return KleinPair.of(a1, a2)


def _linear_pairs(rows) -> np.ndarray:
    """`_raw_pair` of any basis of each Plucker row (a, ..., f), which is
    linear in the row: a1 = -(a+f, b-e, c+d) and a2 = -(a-f, b+e, c-d).
    Shape (N, 2, 3)."""
    a, b, c, d, e, f = np.asarray(rows, dtype=np.int64).reshape(-1, 6).T
    return -np.stack([np.stack([a + f, b - e, c + d], axis=-1),
                      np.stack([a - f, b + e, c - d], axis=-1)], axis=1)


def klein_pairs(rows) -> np.ndarray:
    """`klein_map` of the plane of each Plucker row, as an (N, 2, 3) array
    of (a1, a2), with the joint sign of `KleinPair.of`."""
    pairs = _linear_pairs(rows)
    return pairs * lattice.lead_signs(pairs[:, 0])[:, None, None]


# sign-normalized w1 that `_pair_scan` tests against their class at once
_W1_BLOCK = 256


def _pair_scan(n: int):
    """Pairs (w1, w2) of norm n, congruent mod 2, pair-primitive (the odd
    parts of their contents coprime, and w1 + w2, w1 - w2 not both in
    4Z^3), with w1 sign-normalized.  Within each parity class, blocks of
    w1 are tested against every w2 of the class in one broadcast; yields
    (w1, w2, mask) per block, with mask[a, b] whether (w1[a], w2[b]) is a
    pair."""
    pts = repnum.sphere_points(n)
    g = np.gcd.reduce(pts, axis=1)
    odd = g // (g & -g)
    normalized = lattice.lead_signs(pts) > 0
    parity = (pts & 1) @ np.array([4, 2, 1])
    for key in np.flatnonzero(np.bincount(parity, minlength=8)):
        idx = np.flatnonzero(parity == key)
        w2 = pts[idx]
        heads = idx[normalized[idx]]
        for lo in range(0, len(heads), _W1_BLOCK):
            block = heads[lo:lo + _W1_BLOCK]
            w1 = pts[block, None]
            quarter = ((((w1 + w2) & 3) == 0).all(axis=2)
                       & (((w1 - w2) & 3) == 0).all(axis=2))
            yield w1[:, 0], w2, ~quarter & (np.gcd(odd[block, None], odd[idx]) == 1)


# w mod 4 of a vector of Z^3 as three base-4 digits, and the parity bit of
# each digit: w1 and w2 are congruent mod 2 iff their keys agree on
# _ODD_BITS, and w1 + w2, w1 - w2 both lie in 4Z^3 iff the keys are equal
# and have no odd bit (both vectors even, w1 = w2 mod 4)
_MOD4 = np.array([16, 4, 1])
_ODD_BITS = 0b010101


def _pair_counts(nmax: int) -> np.ndarray:
    """Pairs of `_pair_scan` of each norm 0..nmax, in one pass over
    `lattice.ball`.  The pair test reads only the key of each vector,
    w mod 4 and the odd part o of its content, so the points are
    histogrammed by (norm, o, key), slab by slab: o^2 divides the norm, and
    o has one row per multiple of o^2 up to nmax.  Within each norm, the
    counts of two keys with coprime o are multiplied where the keys pass
    the test; the sum is at most r3(n)^2, far inside int64.  Joint negation
    maps the pairs onto themselves with no fixed point, so the pairs with
    w1 sign-normalized are half of them."""
    odd = np.arange(1, isqrt(nmax) + 1, 2)
    height = nmax // odd ** 2 + 1
    start = np.cumsum(height) - height
    hist = np.zeros(64 * int(height.sum()), dtype=np.int64)
    for ns, pts in lattice.ball(nmax):
        g = np.gcd.reduce(pts, axis=1)
        o = g // (g & -g)
        row = start[o // 2] + ns // (o * o)
        hist += np.bincount(64 * row + (pts & 3) @ _MOD4, minlength=len(hist))
    hist = hist.reshape(-1, 64)
    m1, m2 = np.ogrid[:64, :64]
    test = ((((m1 ^ m2) & _ODD_BITS) == 0)
            & ~((m1 == m2) & ((m1 & _ODD_BITS) == 0))).astype(np.int64)
    counts = np.zeros(nmax + 1, dtype=np.int64)
    for i, p in enumerate(odd.tolist()):
        for j, q in enumerate(odd.tolist()):
            if (p * q) ** 2 > nmax or gcd(p, q) != 1:
                continue
            k = np.arange(1, nmax // (p * q) ** 2 + 1)
            counts[(p * q) ** 2 * k] += ((hist[start[i] + q * q * k] @ test)
                                         * hist[start[j] + p * p * k]).sum(axis=1)
    return counts // 2


_pair_table = lattice.NormTable(_pair_counts, lattice.NORM_LIMIT)


def warm_pair_cache(nmax: int) -> None:
    """Ensure the pair counts cover every norm up to nmax."""
    _pair_table.warm(nmax)


def pair_count(n: int) -> int:
    """Number of pairs of `pair_array(n)`, read off the count table: no
    pair is listed and no sphere point is kept."""
    if n < 1:
        raise ValueError("norm must be positive")
    warm_pair_cache(n)
    return int(_pair_table.get(n))


def pair_array(n: int) -> np.ndarray:
    """The pairs of `pairs_for_norm`, as a lexsorted (M, 2, 3) int64 array."""
    if n < 1:
        raise ValueError("norm must be positive")
    found = [np.empty((0, 2, 3), dtype=np.int64)]
    for w1, w2, mask in _pair_scan(n):
        i, j = np.nonzero(mask)
        found.append(np.stack([w1[i], w2[j]], axis=1))
    pairs = np.concatenate(found)
    return pairs[lattice.lex_order(pairs.reshape(-1, 6))]


def pairs_for_norm(n: int) -> list[tuple[tuple, tuple]]:
    return [(tuple(w1), tuple(w2)) for w1, w2 in pair_array(n).tolist()]


# ---------------------------------------------------------------------------
# binary forms attached to vectors and planes


def orthogonal_lattice_z3(v) -> tuple[tuple[int, ...], ...]:
    """Basis, in row Hermite form, of the rank 2 lattice orthogonal to v."""
    v = tuple(int(c) for c in v)
    if v == (0, 0, 0):
        raise ValueError("zero vector")
    return integer_kernel([list(v)])


def gauss_map(v) -> frozenset:
    """GL2 class of the quadratic form on the lattice orthogonal to v."""
    b1, b2 = orthogonal_lattice_z3(v)
    g00 = sum(c * c for c in b1)
    g01 = sum(a * b for a, b in zip(b1, b2))
    g11 = sum(c * c for c in b2)
    return gl2_class(FormClass.of(QuadForm(g00, 2 * g01, g11)))


def gram_classes(bases) -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """Proper classes of the forms on the bases (N, 2, k), as reduced
    triples: a list of them, one per distinct Gram matrix, and the index in
    it of the class on each basis.  The distinct ones are found with a
    dict, since numpy's row de-duplication imports numpy.ma on first use."""
    g = np.einsum("nak,nbk->nab", bases, bases)
    grams = list(zip(g[:, 0, 0].tolist(), g[:, 0, 1].tolist(), g[:, 1, 1].tolist()))
    slot = {f: k for k, f in enumerate(dict.fromkeys(grams))}
    return ([reduced(g00, 2 * g01, g11) for g00, g01, g11 in slot],
            np.fromiter(map(slot.__getitem__, grams), np.intp, len(grams)))


def orthogonal_classes(points) -> list[tuple[int, int, int]]:
    """Sorted distinct reduced triples of the forms on v^perp, v over the
    primitive points, on the bases of `orthogonal_bases`.  Each stands for
    its `gauss_map` GL2 class."""
    return sorted(set(gram_classes(orthogonal_bases(points))[0]))


# ---------------------------------------------------------------------------
# the multiplication map on a plane and its complement


def _require_theorem_norm(n: int) -> None:
    if n % 4 != 1 or not repnum.is_squarefree(n):
        raise ValueError("theorem hypotheses not met: need squarefree norm 1 mod 4")


def mu_products(plane: Plane, comp: Plane, which: int):
    """Traceless products g[a][b] of the basis vectors u_a of the plane
    and w_b of its complement comp: u_a*conj(w_b) (which=1) or
    conj(u_a)*w_b (which=2), each as a vector in Z^3."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    us = [Quaternion.from_vec4(b) for b in plane.basis]
    ws = [Quaternion.from_vec4(b) for b in comp.basis]
    prods = [[u * w.conj() if which == 1 else u.conj() * w for w in ws] for u in us]
    if any(p.x0 for row in prods for p in row):
        raise ArithmeticError("product is not traceless")
    return tuple(tuple((p.x1, p.x2, p.x3) for p in row) for row in prods)


def mu_product_arrays(bases, comps, which: int) -> np.ndarray:
    """`mu_products` of each plane basis in bases (N, 2, 4) with the basis
    of its complement in comps, as whole quaternions (N, 2, 2, 4) whose
    entry 0 is u.w, half the trace: with s = 1 (which=1) or -1 (which=2),
    u*conj(w) or conj(u)*w is u.w + s (w_0 u' - u_0 w') - u' x w'."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    u, w = bases[:, :, None], comps[:, None]
    s = 1 if which == 1 else -1
    vec = (s * (w[..., :1] * u[..., 1:] - u[..., :1] * w[..., 1:])
           - np.cross(u[..., 1:], w[..., 1:]))
    return np.concatenate([(u * w).sum(axis=-1, keepdims=True), vec], axis=-1)


def mu_image(plane: Plane, which: int) -> tuple[tuple[int, ...], ...]:
    """Hermite basis of the lattice spanned by the quaternion products
    u*conj(w) (which=1) or conj(u)*w (which=2), u in the plane and w in
    its complement.  Both lattices are orthogonal complements in Z^3 of
    the matching Klein component."""
    _require_theorem_norm(plane.norm)
    gens = mu_products(plane, plane.orthogonal_complement(), which)
    rows = hnf_rows([g for row in gens for g in row])
    if len(rows) != 2:
        raise ValueError("unexpected image rank")
    return rows


# ---------------------------------------------------------------------------
# realizability of form pairs


@lru_cache(maxsize=None)
def genus_context(n: int):
    """Class group of discriminant -4n, its genus partition, and the
    `orthogonal_classes` of the norm-n vectors, for squarefree n = 1, 2
    mod 4.  By Gauss the forms are classes of the group filling one genus;
    that is judged in `suites`, not here."""
    if n % 4 not in (1, 2) or not repnum.is_squarefree(n):
        raise ValueError("theorem hypotheses not met: need squarefree n = 1, 2 mod 4")
    group = class_group(-4 * n)
    return group, genus_partition(group), orthogonal_classes(repnum.sphere_points(n))


def class_pairs(n: int):
    """The observed (plane form, complement form) pairs of reduced triples
    of the planes of norm n, on `lattice.plane_bases`; the pairs whose
    composition lies in the genus of the first form of `genus_context`,
    the genus of every form where Gauss's theorem holds; and the Plucker
    rows whose complement is not among the planes."""
    _require_theorem_norm(n)
    group, partition, image = genus_context(n)
    target = partition.genus_of(group.index[image[0]])
    rows = lattice.plucker_arrays(n)
    forms, which = gram_classes(lattice.plane_bases(rows))
    comp = lattice.complement_index(rows)
    pairs = set(zip(which[comp >= 0].tolist(), which[comp[comp >= 0]].tolist()))
    observed = {(forms[i], forms[j]) for i, j in pairs}
    h = range(group.order)
    admitted = {(group.forms[i], group.forms[j]) for i in h for j in h
                if partition.genus_of(group.product(i, j)) == target}
    return observed, admitted, rows[comp < 0]
