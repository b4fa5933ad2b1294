"""Plucker embedding and plane enumeration.

The slow 6-fold loop below is the ground-truth oracle for small norms;
the production enumerator must reproduce it exactly.
"""

import functools
import hashlib
import itertools
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planes import lattice
from planes.klein import KleinPair
from planes.lattice import (
    Plane,
    PluckerVector,
    enumerate_planes,
    hnf_rows,
    integer_kernel,
    orth_complement,
    plucker_of_basis,
    row_hnf,
)
from planes.quaternion import TracelessQuaternion
from planes.repnum import r24_formula

E1, E2, E3, E4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def brute_plane_count(n: int) -> int:
    """Sign classes of primitive decomposable vectors of norm n, by raw loop."""
    m = isqrt(n)
    count = 0
    rng = range(-m, m + 1)
    for a in range(0, m + 1):  # leading coordinate fixed nonnegative
        for b in rng:
            for c in rng:
                for d in rng:
                    for e in rng:
                        for f in rng:
                            v = (a, b, c, d, e, f)
                            if sum(x * x for x in v) != n:
                                continue
                            if a * f - b * e + c * d != 0:
                                continue
                            g = 0
                            for x in v:
                                g = gcd(g, x)
                            if g != 1:
                                continue
                            first = next(x for x in v if x)
                            if first > 0:
                                count += 1
    return count


@pytest.mark.parametrize("n,expected", [(1, 6), (2, 24), (3, 32), (4, 12),
                                        (5, 96), (6, 96), (7, 0), (8, 48)])
def test_counts_against_brute_force(n, expected):
    assert brute_plane_count(n) == expected
    assert len(enumerate_planes(n)) == expected


def test_plucker_of_basis_examples():
    assert plucker_of_basis(E1, E2).coords == (1, 0, 0, 0, 0, 0)
    assert plucker_of_basis(E3, E4).coords == (0, 0, 0, 0, 0, 1)
    p = plucker_of_basis((1, 0, 1, 0), (0, 1, 0, 1))
    assert p.coords == (1, 0, 1, -1, 0, 1)
    assert p.relation() == 0


def test_plucker_of_basis_keeps_content():
    p = plucker_of_basis((2, 0, 0, 0), (0, 2, 0, 0))
    assert p.coords == (4, 0, 0, 0, 0, 0)
    assert not p.is_primitive


def test_degenerate_basis_rejected():
    with pytest.raises(ValueError, match="degenerate basis"):
        plucker_of_basis((1, 2, 3, 4), (2, 4, 6, 8))


def test_orth_complement_examples():
    e12 = PluckerVector(1, 0, 0, 0, 0, 0)
    assert orth_complement(e12).coords == (0, 0, 0, 0, 0, 1)
    p = PluckerVector(1, 0, 1, -1, 0, 1)
    assert orth_complement(p).coords == (1, 0, -1, 1, 0, 1)
    assert orth_complement(orth_complement(p)) == p


def test_complements_are_orth_complement():
    for n in range(1, 61):
        rows = lattice.plucker_arrays(n)
        assert lattice.complements(rows).tolist() == [
            list(orth_complement(PluckerVector(*p)).coords) for p in rows.tolist()]


@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 6), max_size=12))
@settings(max_examples=100)
def test_lead_signs_are_the_object_sign_rules(rows):
    """`lead_signs` against `PluckerVector.sign_normalized` on each row and
    against `KleinPair.of` on its halves (a1, a2); small entries make
    leading zeros and whole zero rows common."""
    arr = np.array(rows, dtype=np.int64).reshape(-1, 6)
    signs, halves = lattice.lead_signs(arr), lattice.lead_signs(arr[:, :3])
    for row, s, s3 in zip(rows, signs.tolist(), halves.tolist()):
        a1, a2 = TracelessQuaternion(*row[:3]), TracelessQuaternion(*row[3:])
        if not any(row):
            assert s == 0
            with pytest.raises(ValueError):
                PluckerVector(*row).sign_normalized()
        else:
            assert PluckerVector(*row).sign_normalized().coords == tuple(s * x for x in row)
        if not any(row[:3]):
            assert s3 == 0
            with pytest.raises(ValueError):
                KleinPair.of(a1, a2)
        else:
            pair = KleinPair.of(a1, a2)
            assert pair.a1.vec3() + pair.a2.vec3() == tuple(s3 * x for x in row)


def test_disc_of_plane_examples():
    assert Plane.from_basis(E1, E2).disc == -4
    assert Plane.from_basis((1, 1, 0, 0), (0, 0, 1, 1)).disc == -16
    assert Plane.from_plucker(PluckerVector(1, 0, 1, -1, 0, 1)).disc == -16


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 12, 45])
def test_enumerated_planes_are_coherent(n):
    planes = enumerate_planes(n)
    assert len(planes) == r24_formula(n)
    seen = set()
    for plane in planes:
        assert plane.disc == -4 * n
        assert plane.plucker.is_sign_normalized
        assert plane.plucker.is_primitive
        # the stored basis must reproduce the stored coordinates
        rt = plucker_of_basis(*plane.basis).sign_normalized()
        assert rt == plane.plucker
        seen.add(plane.plucker.coords)
    assert len(seen) == len(planes)
    # the complement permutes the solution set
    flipped = {orth_complement(p.plucker).coords for p in planes}
    assert flipped == seen


vec4 = st.tuples(*(st.integers(min_value=-6, max_value=6) for _ in range(4)))


@given(st.lists(vec4, min_size=2, max_size=3))
@settings(max_examples=60)
def test_row_hnf_preserves_lattice_shape(rows):
    h = row_hnf([list(r) for r in rows])
    # pivots strictly move right and are positive
    pivots = []
    for r in h:
        nz = [j for j, x in enumerate(r) if x]
        if not nz:
            continue
        assert r[nz[0]] > 0
        pivots.append(nz[0])
    assert pivots == sorted(set(pivots))


@given(vec4, vec4)
@settings(max_examples=60)
def test_integer_kernel_is_orthogonal_and_saturated(u, v):
    rows = [list(u), list(v)]
    ker = integer_kernel(rows)
    for krow in ker:
        assert sum(a * b for a, b in zip(krow, u)) == 0
        assert sum(a * b for a, b in zip(krow, v)) == 0
    if len(ker) == 2:
        assert plucker_of_basis(*ker).is_primitive


@given(st.data())
@settings(max_examples=80)
def test_integer_kernel_rank_is_the_nullity(data):
    """A kernel that drops or adds a row can stay orthogonal and saturated;
    its rank must be ncols - rank(M), dependent rows included."""
    ncols = data.draw(st.sampled_from((3, 4)))
    row = st.lists(st.integers(min_value=-4, max_value=4),
                   min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(row, min_size=1, max_size=3))
    if data.draw(st.booleans()):
        # a last row that is an integer combination of the first two
        k = data.draw(st.lists(st.integers(min_value=-3, max_value=3),
                               min_size=2, max_size=2))
        rows = rows[:2] + [[sum(c * r[j] for c, r in zip(k, rows))
                            for j in range(ncols)]]
    assert len(integer_kernel(rows)) == ncols - len(hnf_rows(rows))


# sha256 of the rows of norms 1..256, concatenated as int64 in C order,
# recorded from the enumerators that solved each leading case separately
FROZEN_TABLES = {
    "plucker": (6, 395_114,
                "d8d4cdf53ba5afc3f3fa9ff3f3ee10f22fbd03240336f6347ce58e692d6247f5"),
    "sphere": (3, 17_076,
               "ddd791767495aded39d3c97a32f07e69159c5f2fdf31546de7752545889092da"),
}


def _assert_frozen(name, table):
    width, count, digest = FROZEN_TABLES[name]
    rows = np.concatenate([table.get(n) for n in range(1, 257)])
    assert rows.dtype == np.int64 and rows.shape == (count, width)
    assert hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("ceiling", [256, 300])
@pytest.mark.parametrize("name", sorted(FROZEN_TABLES))
def test_tables_are_frozen(name, ceiling):
    blocks = {"plucker": lattice._plane_rows, "sphere": lattice.ball}[name]
    table = lattice.NormTable(lattice.rows_by_norm(blocks), lattice.ROW_LIMIT)
    table.warm(ceiling)
    assert table.nmax == ceiling
    _assert_frozen(name, table)


def test_plucker_table_is_frozen_across_block_seams(monkeypatch):
    """Blocks of 97 candidates and chunks of 61 x, solved once to 300: the
    table they fill has the frozen digest, and the counts they fill are its
    lengths.  x = (0, 0, 1) alone has about 470 candidates there, so seams
    fall inside the run of one x, and of one (x, b) row."""
    monkeypatch.setattr(lattice, "_BLOCK", 97)
    monkeypatch.setattr(lattice, "_X_CHUNK", 61)
    blocks = list(lattice._plane_rows(300))
    assert max(len(ns) for ns, _ in blocks) == 2 * 97
    table = lattice.NormTable(lattice.rows_by_norm(lambda nmax: blocks), 300)
    counts = lattice.NormTable(lattice._plane_counts, 300)
    table.warm(300)
    counts.warm(300)
    _assert_frozen("plucker", table)
    assert [counts.get(n) for n in range(1, 301)] == [len(table.get(n))
                                                      for n in range(1, 301)]


@pytest.mark.parametrize("block", [lattice._BLOCK, 97])
def test_plane_counts_are_the_table_lengths(monkeypatch, block):
    """The count sweep, one x per orbit, gives the row table's count, every
    sign-normalized x, at every norm up to `ROW_LIMIT`, also with blocks of
    97 candidates, whose seams fall in the middle of the run of one x."""
    top = lattice.ROW_LIMIT
    lengths = [len(lattice.plucker_arrays(n)) for n in range(1, top + 1)]
    monkeypatch.setattr(lattice, "_BLOCK", block)
    counts = lattice.NormTable(lattice._plane_counts, lattice.NORM_LIMIT)
    counts.warm(top)
    assert counts.nmax == top
    assert [counts.get(n) for n in range(1, top + 1)] == lengths
    assert counts.get(0) == 0
    with pytest.raises(IndexError):
        counts.get(top + 1)
    assert sum(lengths[:256]) == FROZEN_TABLES["plucker"][1]
    assert [lattice.plane_count(n) for n in range(1, top + 1)] == lengths
    with pytest.raises(ValueError):
        lattice.plane_count(0)


@functools.cache
def _stream_counts(nmax: int) -> np.ndarray:
    """Planes of each norm 0..nmax, a bincount of the norms of every block
    of `_plane_rows`, the full sign-normalized stream."""
    counts = np.zeros(nmax + 1, dtype=np.int64)
    for ns, _ in lattice._plane_rows(nmax):
        counts += np.bincount(ns, minlength=nmax + 1)
    return counts


def _orbit_counts_miss(ceilings) -> list[int]:
    """The ceilings up to 1024 whose fill from one x per orbit differs from
    the full stream."""
    return [n for n in ceilings
            if not np.array_equal(lattice._plane_counts(n), _stream_counts(1024)[:n + 1])]


def test_orbit_counts_are_the_full_stream_counts():
    """At every norm up to 1024, the fill to 1024 from one x per orbit is
    the bincount of the full stream; so is the fill to each ceiling up to
    160, and to every 37th past it, each with its boundary norm."""
    assert _orbit_counts_miss([*range(1, 161), *range(161, 1024, 37), 1024]) == []


def test_orbit_weights_are_half_the_orbit_sizes():
    """Each representative to 1024 has 0 <= x0 <= x1 <= x2 and the weight
    |Gx| / 2, with its orbit listed by brute force; weighted, they number
    the sign-normalized points of `ball` of each norm."""
    G = [(e, p) for e in itertools.product((1, -1), repeat=3)
         for p in itertools.permutations(range(3))]
    weighted = np.zeros(1025, dtype=np.int64)
    for weight, s, x in lattice._orbit_classes(1024):
        weighted += weight * np.bincount(s, minlength=1025)
        for row in x.tolist():
            assert 0 <= row[0] <= row[1] <= row[2]
            orbit = {tuple(e[i] * row[p[i]] for i in range(3)) for e, p in G}
            assert len(orbit) == 2 * weight, row
    signed = np.zeros(1025, dtype=np.int64)
    for s, x in lattice.ball(1024):
        signed += np.bincount(s[lattice.lead_signs(x) > 0], minlength=1025)
    assert np.array_equal(weighted, signed)


_SHAPES = {
    "(k, k, k)": lambda x: x[:, 0] == x[:, 2],
    "(0, j, k)": lambda x: (x[:, 0] == 0) & (0 < x[:, 1]) & (x[:, 1] < x[:, 2]),
    "(0, 0, k)": lambda x: x[:, 1] == 0,
    "(j, j, k)": lambda x: (0 < x[:, 0]) & (x[:, 0] == x[:, 1]) & (x[:, 1] < x[:, 2]),
    "(i, j, k)": lambda x: (0 < x[:, 0]) & (x[:, 0] < x[:, 1]) & (x[:, 1] < x[:, 2]),
}


@pytest.mark.parametrize("shape, wrong", [("(k, k, k)", 8), ("(0, j, k)", 24),
                                          ("(0, 0, k)", 6), ("(j, j, k)", 24),
                                          ("(i, j, k)", 12)])
def test_a_wrong_orbit_weight_is_caught(monkeypatch, shape, wrong):
    """One orbit shape weighted wrong: the fill no longer matches the full
    stream, already at the ceilings below 64."""
    real = lattice._orbit_classes

    def mutant(nmax):
        for weight, s, x in real(nmax):
            hit = _SHAPES[shape](x)
            yield weight, s[~hit], x[~hit]
            yield wrong, s[hit], x[hit]

    monkeypatch.setattr(lattice, "_orbit_classes", mutant)
    assert _orbit_counts_miss(range(1, 64))


@pytest.mark.parametrize("n", [7, 12, 15, 16])
def test_norms_without_planes_read_empty(n):
    """Norms 7, 12, 15 and 16 (0, 7, 12 and 15 mod 16) have no plane: the
    table's split gives them (0, 6) rows, and the count sweep 0."""
    rows = lattice.plucker_arrays(n)
    assert rows.shape == (0, 6) and rows.dtype == np.int64
    assert lattice.plane_count(n) == 0


def _box_scan(nmax: int) -> np.ndarray:
    """(norm, a, ..., f) of every six-tuple of the box [-m, m]^6, m = isqrt(nmax),
    with a*f - b*e + c*d = 0, content 1, first nonzero entry positive and
    norm <= nmax, sorted: the planes of norm <= nmax by a direct scan."""
    m = isqrt(nmax)
    box = np.indices((2 * m + 1,) * 6).reshape(6, -1).T - m
    norms = (box * box).sum(axis=1)
    box, norms = box[norms <= nmax], norms[norms <= nmax]
    a, b, c, d, e, f = box.T
    lead = box[np.arange(len(box)), (box != 0).argmax(axis=1)]
    keep = (a * f - b * e + c * d == 0) & (np.gcd.reduce(box, axis=1) == 1) & (lead > 0)
    found = np.c_[norms[keep], box[keep]]
    return found[np.lexsort(found.T[::-1])]


def test_enumeration_is_the_box_scan():
    """Up to 24 the enumeration to each ceiling N is the box scan to N, so
    every row of norm exactly N, on the boundary of its ellipse, is there;
    the table, read norm by norm, is the scan to 24."""
    scan = _box_scan(24)
    for nmax in range(1, 25):
        ns, rows = (np.concatenate(part) for part in zip(*lattice._plane_rows(nmax)))
        found = np.c_[ns, rows]
        assert np.array_equal(found[np.lexsort(found.T[::-1])], scan[scan[:, 0] <= nmax])
    table = np.concatenate([np.c_[np.full(len(r), n), r] for n in range(1, 25)
                            for r in [lattice.plucker_arrays(n)]])
    assert np.array_equal(table, scan)
    assert len(scan) == sum(r24_formula(n) for n in range(1, 25))


def test_past_the_limit_is_refused_before_any_fill():
    """A request past a cache's limit raises before its blocks are read, and
    the doubling stops at the limit."""
    asked = []

    def fill(nmax):
        asked.append(nmax)
        return np.zeros(nmax + 1, dtype=np.int64)

    counts = lattice.NormTable(fill, 100)
    counts.warm(70)
    with pytest.raises(ValueError, match="past 100"):
        counts.warm(101)
    counts.warm(90)
    assert asked == [70, 100] and counts.nmax == 100
    table = lattice.NormTable(lambda nmax: asked.append(nmax), 100)
    with pytest.raises(ValueError, match="past 100"):
        table.warm(10 ** 9)
    assert asked == [70, 100] and table.nmax == -1
    with pytest.raises(ArithmeticError, match="int64 bound"):
        next(lattice._solutions(lattice.NMAX_INT64 + 1))


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(-3, 3)), max_size=40))
@settings(max_examples=60)
def test_lex_order_is_the_lexsort_order(entries):
    rows = np.array(entries, dtype=np.int64).reshape(-1, 4)
    ns, rows = rows[:, 0], rows[:, 1:]
    order = lattice.lex_order(rows, ns)
    oracle = np.lexsort((*rows.T[::-1], ns))
    assert np.array_equal(np.c_[ns, rows][order], np.c_[ns, rows][oracle])
    assert np.array_equal(rows[lattice.lex_order(rows)], rows[np.lexsort(rows.T[::-1])])


def test_sort_key_past_int64_is_refused():
    """Entries up to 2^9 make B = 2^10 + 1, and 2^63 / B^6 is about 7.95,
    so norms up to 6 fit the key and larger ones do not; the table
    refuses before it changes."""
    def huge(nmax):
        return (np.array([nmax, 1]),
                np.array([[2 ** 9, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, -2 ** 9]]))

    table = lattice.NormTable(lattice.rows_by_norm(lambda nmax: [huge(nmax)]), 64)
    with pytest.raises(ArithmeticError, match="past int64"):
        table.warm(64)
    assert table.nmax == -1
    assert lattice.lex_order(huge(6)[1], huge(6)[0]).tolist() == [1, 0]
    with pytest.raises(ArithmeticError):
        lattice.lex_order(*huge(7)[::-1])


def test_plane_bases_match_from_plucker():
    """The closed-form bases equal the kernel-HNF bases on every plane of
    norm <= 60."""
    for n in range(1, 61):
        rows = lattice.plucker_arrays(n)
        oracle = [Plane.from_plucker(PluckerVector(*p)).basis for p in rows.tolist()]
        assert [tuple(map(tuple, b)) for b in lattice.plane_bases(rows).tolist()] == oracle


# sha256 of the bases of every plane of norm 1..200, in table order,
# concatenated as int64 (N, 2, 4) in C order, recorded from
# `Plane.from_plucker` (the kernel-HNF path)
FROZEN_BASES = (242_954,
                "ce44fbdfd9197a4efdc6bd80e51849982248b14df7d70cc7c7ceb8fc2b04cadb")


def test_plane_bases_are_frozen():
    count, digest = FROZEN_BASES
    bases = np.concatenate([lattice.plane_bases(lattice.plucker_arrays(n))
                            for n in range(1, 201)])
    assert bases.dtype == np.int64 and bases.shape == (count, 2, 4)
    assert hashlib.sha256(np.ascontiguousarray(bases).tobytes()).hexdigest() == digest


def test_plane_bases_reject_rows_that_name_no_plane():
    with pytest.raises(ValueError, match="imprimitive"):
        lattice.plane_bases([[2, 0, 0, 0, 0, 0]])
    with pytest.raises(ArithmeticError, match="lost the minors"):
        lattice.plane_bases([[1, 0, 0, 0, 0, 1]])  # a*f - b*e + c*d = 1
    assert lattice.plane_bases(np.empty((0, 6), dtype=np.int64)).shape == (0, 2, 4)
