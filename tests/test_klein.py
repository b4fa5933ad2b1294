"""Klein correspondence, Gauss map, and pair realizability."""

import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planes import klein, lattice, repnum
from planes.klein import (
    KleinPair,
    class_pairs,
    gauss_map,
    genus_context,
    gram_classes,
    klein_map,
    klein_pairs,
    mu_image,
    orthogonal_classes,
    orthogonal_lattice_z3,
    pair_count,
    pairs_for_norm,
)
from planes.lattice import (
    Plane,
    enumerate_planes,
    hnf_rows,
    orthogonal_bases,
    plucker_of_basis,
)
from planes.qform import FormClass, QuadForm, class_group, compose, gl2_class
from planes.quaternion import Quaternion, TracelessQuaternion

I_HAT = TracelessQuaternion(1, 0, 0)


def _class(a, b, c):
    return FormClass.of(QuadForm(a, b, c))


def test_klein_map_coordinate_plane():
    p = Plane.from_basis((1, 0, 0, 0), (0, 1, 0, 0))
    pair = klein_map(p)
    assert pair.a1 == I_HAT and pair.a2 == I_HAT
    assert pair.norm == 1


def test_klein_pair_sign_normalization():
    pair = KleinPair.of(TracelessQuaternion(-1, 0, 2),
                        TracelessQuaternion(0, 1, 0))
    assert pair.a1 == TracelessQuaternion(1, 0, -2)
    assert pair.a2 == TracelessQuaternion(0, -1, 0)
    with pytest.raises(ValueError):
        KleinPair.of(TracelessQuaternion(0, 0, 0), I_HAT)


def test_linear_map_is_the_raw_pair():
    """Exact proof that `_linear_pairs` of the minors of (u, v) equals
    `_raw_pair(u, v)`: both sides are bilinear in (u, v), so agreeing on
    every pair of unit vectors (e_i, e_j), degenerate ones included, makes
    them agree on every pair of vectors."""
    units = [tuple(int(i == k) for k in range(4)) for i in range(4)]
    for u, v in product(units, repeat=2):
        minors = [u[i] * v[j] - u[j] * v[i]
                  for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
        raw = klein._raw_pair(Quaternion.from_vec4(u), Quaternion.from_vec4(v))
        assert klein._linear_pairs(minors).tolist() == [
            [list(t.vec3()) for t in raw]]


vec4 = st.tuples(*(st.integers(min_value=-9, max_value=9) for _ in range(4)))


@given(vec4, vec4)
@settings(max_examples=200)
def test_klein_pairs_match_klein_map(u, v):
    """The array map on the Plucker row against the quaternion definition
    on the plane, signs normalized on both sides."""
    try:
        p = plucker_of_basis(u, v)
    except ValueError:  # u and v are dependent
        assume(False)
    assume(p.is_primitive)
    pair = klein_map(Plane.from_basis(u, v))
    assert klein_pairs([p.sign_normalized().coords]).tolist() == [
        [list(pair.a1.vec3()), list(pair.a2.vec3())]]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 11, 17, 45])
def test_klein_images_match_pair_scan(n):
    planes = enumerate_planes(n)
    assert pair_count(n) == len(planes)
    images = set()
    for p in planes:
        pair = klein_map(p)
        assert pair.a1.nr() == pair.a2.nr() == n
        images.add((pair.a1.vec3(), pair.a2.vec3()))
    assert len(images) == len(planes)
    assert images == set(pairs_for_norm(n))


def _pair_scan_per_w1(n):
    """The pair scan one sign-normalized w1 at a time: the reference for
    the blocked broadcast of `klein._pair_scan`."""
    pts = repnum.sphere_points(n)
    if not len(pts):
        return 0, []
    g = np.gcd.reduce(np.abs(pts), axis=1)
    odd = g // (g & -g)
    normalized = lattice.lead_signs(pts) > 0
    parity = (pts % 2) @ np.array([4, 2, 1])
    found = []
    for key in range(8):
        idx = np.flatnonzero(parity == key)
        sub, sub_odd = pts[idx], odd[idx]
        for i in np.flatnonzero(normalized[idx]):
            w1 = sub[i]
            quarter = (((sub + w1) % 4 == 0).all(axis=1)
                       & ((sub - w1) % 4 == 0).all(axis=1))
            mask = (np.gcd(sub_odd[i], sub_odd) == 1) & ~quarter
            found += [(tuple(w1.tolist()), tuple(sub[j].tolist()))
                      for j in np.flatnonzero(mask)]
    return len(found), sorted(found)


def test_pair_scan_matches_the_per_w1_loop(monkeypatch):
    """Every norm n <= 60, with the w1 block at its size and at 3, so that
    blocks end inside a parity class."""
    oracle = {n: _pair_scan_per_w1(n) for n in range(1, 61)}
    for block in (klein._W1_BLOCK, 3):
        monkeypatch.setattr(klein, "_W1_BLOCK", block)
        for n, (count, pairs) in oracle.items():
            assert pair_count(n) == count
            assert pairs_for_norm(n) == pairs
            assert klein.pair_array(n).tolist() == [list(map(list, p)) for p in pairs]


def _one_sphere(n):
    """The points of norm n, lexicographically sorted, filtered off the
    slabs of `lattice.ball` as they stream: no table of lower norms."""
    pts = np.concatenate([p[ns == n] for ns, p in lattice.ball(n)])
    return pts[lattice.lex_order(pts)]


def test_pair_count_is_the_number_of_listed_pairs(monkeypatch):
    """The count table against the listing of `_pair_scan`, at every norm
    n <= 600 and at large norms with several odd contents, e = 0 and e = 1:
    3,675 = 3 * 35^2, 4,099 (prime), 7,225 = 85^2, 8,189, 8,190 = 2 * 3^2 * 455
    and 8,100 = 4 * 45^2.  Past 600 the listing reads its sphere points one
    norm at a time, so the test fills no sphere table to 8,190."""
    klein.warm_pair_cache(600)
    for n in range(1, 601):
        assert pair_count(n) == len(klein.pair_array(n)), n
    monkeypatch.setattr(repnum, "sphere_points", _one_sphere)
    for n in (3675, 4099, 7225, 8100, 8189, 8190):
        assert pair_count(n) == len(klein.pair_array(n)), n


def test_pair_count_fill_streams_the_ball():
    """A fill to 2,048 keeps one slab of `lattice.ball` and the histogram
    at a time: its traced peak is about 3.5 MB, where concatenating the
    ball and its contents alone holds about 25 MB."""
    tracemalloc.start()
    try:
        counts = klein._pair_counts(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counts) == 2049
    assert peak < 8 * 2 ** 20, peak


def test_pair_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        pair_count(0)
    with pytest.raises(ValueError):
        pairs_for_norm(-3)


def test_orthogonal_lattice_examples():
    assert orthogonal_lattice_z3((1, 0, 0)) == ((0, 1, 0), (0, 0, 1))
    assert orthogonal_lattice_z3((0, 1, 2)) == ((1, 0, 0), (0, 2, -1))
    with pytest.raises(ValueError):
        orthogonal_lattice_z3((0, 0, 0))


def test_orthogonal_bases_span_the_kernel_lattice():
    """The closed form spans the Hermite kernel lattice at every primitive
    sphere point of norm <= 200, and its cross product is the point.  So
    does its Gauss reduction, the basis the plane enumeration walks, with
    cross product +-v and |2 v1.v2| <= v1.v1 <= v2.v2."""
    pts = np.concatenate([repnum.sphere_points(n) for n in range(1, 201)])
    pts = pts[np.gcd.reduce(pts, axis=1) == 1]
    bases = orthogonal_bases(pts)
    v1, v2 = lattice._gauss_reduced(bases[:, 0], bases[:, 1])
    for v, (b1, b2), r1, r2 in zip(pts.tolist(), bases.tolist(), v1.tolist(), v2.tolist()):
        assert hnf_rows([b1, b2]) == orthogonal_lattice_z3(v)
        assert hnf_rows([r1, r2]) == orthogonal_lattice_z3(v)
    off_axis = pts[:, :2].any(axis=1)  # (0, 0, +-1) takes e1, e2
    assert (np.cross(bases[:, 0], bases[:, 1])[off_axis] == pts[off_axis]).all()
    cross = np.cross(v1, v2)
    assert ((cross == pts).all(axis=1) | (cross == -pts).all(axis=1)).all()
    A, B, C = (v1 * v1).sum(axis=1), (v1 * v2).sum(axis=1), (v2 * v2).sum(axis=1)
    assert ((np.abs(2 * B) <= A) & (A <= C)).all()
    assert not (bases == np.stack([v1, v2], axis=1)).all()
    with pytest.raises(ValueError):
        orthogonal_bases([(1, 0, 0), (2, 0, 2)])
    with pytest.raises(ValueError):
        orthogonal_bases([(0, 0, 0)])


@pytest.mark.parametrize("n", [1, 2, 5, 6, 10, 21, 41, 42, 105])
def test_orthogonal_classes_are_the_gauss_map(n):
    pts = repnum.sphere_points(n)
    assert ({gl2_class(FormClass(QuadForm(*f))) for f in orthogonal_classes(pts)}
            == {gauss_map(v) for v in pts.tolist()})


def test_orthogonal_classes_import_nothing():
    """No module import on the first call: gauss-genus, the plane suites and
    the count and series queries run in timed rounds, where a first-use
    import (np.unique pulls in numpy.ma) adds file reads to the round."""
    env = dict(os.environ, PYTHONPATH=str(Path(klein.__file__).parents[1]))
    for call in ("klein.orthogonal_classes(repnum.sphere_points(21))",
                 "[suites.run_suite(s, nmax=20) for s in "
                 "('klein', 'orth', 'comp-ort', 'pair-genus')]",
                 'cli.cmd_dispatch(["count", "--disc", "100"])',
                 'cli.cmd_dispatch(["series", "--dmax", "31"])'):
        code = ("import contextlib, io, sys\n"
                "from planes import cli, klein, repnum, suites\n"
                "before = set(sys.modules)\n"
                f"with contextlib.redirect_stdout(io.StringIO()):\n    {call}\n"
                "print(sorted(set(sys.modules) - before))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", call


def test_gauss_map_values():
    assert gauss_map((0, 1, 2)) == frozenset({_class(1, 0, 5)})
    assert gauss_map((1, 0, 0)) == frozenset({_class(1, 0, 1)})
    # imprimitive vector direction: the form picks up the square content
    assert gauss_map((1, 1, 1)) == frozenset({_class(2, 2, 2)})
    for c in gauss_map((0, 1, 2)):
        assert c.disc == -20


def test_mu_image_coordinate_plane():
    p = Plane.from_basis((1, 0, 0, 0), (0, 1, 0, 0))
    assert mu_image(p, 1) == ((0, 1, 0), (0, 0, 1))
    assert mu_image(p, 2) == ((0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        mu_image(p, 3)


def test_mu_image_requires_theorem_norm():
    p2 = enumerate_planes(2)[0]
    with pytest.raises(ValueError, match="squarefree norm 1 mod 4"):
        mu_image(p2, 1)


@pytest.mark.parametrize("n", [5, 13, 17])
def test_mu_image_is_orthogonal_to_klein_component(n):
    for p in enumerate_planes(n):
        pair = klein_map(p)
        assert mu_image(p, 1) == orthogonal_lattice_z3(pair.a1.vec3())
        assert mu_image(p, 2) == orthogonal_lattice_z3(pair.a2.vec3())


def test_norm_identity_small_grid():
    """nr of the traceless product factors through both binary forms."""
    p = enumerate_planes(5)[0]
    comp = p.orthogonal_complement()
    us = [Quaternion.from_vec4(b) for b in p.basis]
    ws = [Quaternion.from_vec4(b) for b in comp.basis]

    def q(gram, x, y):
        return (gram[0][0] * x * x + 2 * gram[0][1] * x * y
                + gram[1][1] * y * y)

    grid = range(-2, 3)
    for x in grid:
        for y in grid:
            u = x * us[0] + y * us[1]
            for s in grid:
                for t in grid:
                    w = s * ws[0] + t * ws[1]
                    prod = u * w.conj()
                    assert prod.x0 == 0
                    nr = prod.x1 ** 2 + prod.x2 ** 2 + prod.x3 ** 2
                    assert nr == q(p.gram, x, y) * q(comp.gram, s, t)


def test_genus_context_single_genus():
    group, partition, forms = genus_context(5)
    assert group.disc == -20
    assert forms == [(1, 0, 5)]
    assert partition.genus_of(group.index[forms[0]]) == partition.principal_genus
    with pytest.raises(ValueError):
        genus_context(3)  # 3 mod 4 outside the theorem
    with pytest.raises(ValueError):
        genus_context(45)  # not squarefree


def test_genus_context_leaves_the_verdict_to_the_suites(monkeypatch):
    """A form outside the group and forms of two genera are returned as
    they are: gauss-genus and pair-genus judge them."""
    for image in ([(2, 2, 3), (2, 0, 10)], [(1, 0, 5), (2, 2, 3)]):  # disc -20, -80
        genus_context.cache_clear()
        monkeypatch.setattr(klein, "orthogonal_classes", lambda points: image)
        assert genus_context(5)[2] == image


def test_class_pairs_admit_matching_classes_at_disc_minus_20():
    g = class_group(-20)
    principal = g.forms[g.identity]
    other, = (f for f in g.forms if f != principal)
    _, admitted, _ = class_pairs(5)
    assert admitted == {(principal, principal), (other, other)}


def test_class_pairs_validation():
    for n in (6, 45):  # 2 mod 4; not squarefree
        with pytest.raises(ValueError, match="squarefree norm 1 mod 4"):
            class_pairs(n)


def _triple(form) -> tuple:
    return FormClass.of(QuadForm(*form)).triple()


def test_gram_classes_are_the_plane_forms():
    for n in range(1, 31):
        planes = enumerate_planes(n)
        bases = np.array([p.basis for p in planes], dtype=np.int64).reshape(-1, 2, 4)
        forms, which = gram_classes(bases)
        assert [forms[k] for k in which.tolist()] == [
            _triple(p.binary_form()) for p in planes]


def test_class_pairs_are_the_object_path():
    """`class_pairs` against planes rebuilt one at a time with their
    complements, the way the genus survey computed them before, and
    against the genus rule on `compose` of the class objects, in the genus
    of the `gauss_map` class of one norm-n vector."""
    for n in range(5, 46, 4):
        if not repnum.is_squarefree(n):
            continue
        observed, admitted, lost = class_pairs(n)
        group, partition, _ = genus_context(n)
        image = next(iter(gauss_map(repnum.sphere_points(n)[0])))
        target = partition.genus_of(group.index[image.triple()])
        assert observed == {
            (_triple(p.binary_form()), _triple(p.orthogonal_complement().binary_form()))
            for p in enumerate_planes(n)}
        assert admitted == {
            (c1.triple(), c2.triple()) for c1 in group.classes for c2 in group.classes
            if partition.genus_of(group.index[compose(c1, c2).triple()]) == target}
        assert not len(lost)


def test_realizable_pairs_are_observed():
    """Predicted pairs at n = 13 coincide with the enumerated ones."""
    observed = {
        (_triple(p.binary_form()), _triple(p.orthogonal_complement().binary_form()))
        for p in enumerate_planes(13)}
    assert observed == class_pairs(13)[1]
