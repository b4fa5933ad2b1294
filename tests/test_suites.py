"""The per-plane suites: the comp-ort norm identity check against the grid
it replaced, the orth check against the kernel complement it replaced,
and failures reported rather than raised; and the one report shape that
every suite shares."""

import inspect
import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planes import klein, lattice, mds, qform, repnum, suites
from planes.cli import cmd_dispatch
from planes.klein import mu_products
from planes.lattice import (
    Plane,
    PluckerVector,
    enumerate_planes,
    hnf_rows,
    integer_kernel,
    plucker_of_basis,
)
from planes.qform import QuadForm


def _grid_ok(stack, gram_l, gram_w):
    """Reference: N(x*y) = Q_L(x) Q_W(y) sampled on a 7x7 grid in each
    of x and y, the check comp-ort made before comparing coefficients;
    one verdict for each 2x2 table of products in the stack."""
    rng = np.arange(-3, 4)
    cc = np.stack(np.meshgrid(rng, rng, indexing="ij"), axis=-1).reshape(-1, 2)
    q_u = np.einsum("ia,ab,ib->i", cc, np.array(gram_l), cc)
    q_w = np.einsum("ia,ab,ib->i", cc, np.array(gram_w), cc)
    vec = np.einsum("ia,jb,mabk->mijk", cc, cc,
                    np.array(stack, dtype=np.int64), optimize=True)
    return ((vec ** 2).sum(axis=3) == np.outer(q_u, q_w)).all(axis=(1, 2))


def _moved(gens):
    """Every copy of the products with one coordinate moved by +-1."""
    for a, b, k, step in product((0, 1), (0, 1), range(3), (1, -1)):
        rows = [[list(g) for g in row] for row in gens]
        rows[a][b][k] += step
        yield rows


def _negated(gens):
    """Every copy of the products with one of them negated; the identity
    can survive this, so the two checks need only agree."""
    for a, b in product((0, 1), repeat=2):
        rows = [[list(g) for g in row] for row in gens]
        rows[a][b] = [-x for x in rows[a][b]]
        yield rows


@pytest.mark.parametrize("n", [5, 13, 17])
def test_norm_identity_coefficients_agree_with_grid(n):
    for plane in enumerate_planes(n):
        comp = plane.orthogonal_complement()
        for which in (1, 2):
            gens = mu_products(plane, comp, which)
            moved = list(_moved(gens))
            assert suites._norm_identity_ok(gens, plane.gram, comp.gram)
            assert not any(suites._norm_identity_ok(bad, plane.gram, comp.gram)
                           for bad in moved)
            grid = _grid_ok([gens, *moved], plane.gram, comp.gram)
            assert grid[0] and not grid[1:].any()
            negated = list(_negated(gens))
            assert list(_grid_ok(negated, plane.gram, comp.gram)) == [
                suites._norm_identity_ok(t, plane.gram, comp.gram)
                for t in negated]


def test_orth_reports_a_wrong_shuffle(monkeypatch):
    def wrong(rows):
        q = rows[:, ::-1] * np.array([1, 1, 1, 1, -1, 1])
        return q * lattice.lead_signs(q)[:, None]

    monkeypatch.setattr(lattice, "complements", wrong)
    report = suites.check_orth(nmax=5)
    assert report["status"] == "fail"
    assert report["detail"]["failures"]
    # the complement lookup of pair-genus misses and says so
    assert suites.check_pair_genus(nmax=5)["status"] == "fail"
    # comp-ort's products with a non-orthogonal "complement" have a trace
    report = suites.check_comp_ort(nmax=5)
    assert report["status"] == "fail"
    whys = {f.get("why") for f in report["detail"]["failures"]}
    assert "product is not traceless" in whys


def test_skew_product_singles_out_the_kernel_complement():
    """For every plane of norm <= 30, exactly one plane q of the same norm
    has S(p) S(q) = 0, and it is the complement spanned by the integer
    kernel of the plane's basis, the check orth made before."""
    for n in range(1, 31):
        rows = lattice.plucker_arrays(n)
        skew = lattice.skew_matrices(rows)
        for plane, s in zip(enumerate_planes(n), skew):
            hits = np.flatnonzero(~(s @ skew).any(axis=(1, 2)))
            ker = integer_kernel([list(b) for b in plane.basis])
            oracle = plucker_of_basis(*ker).sign_normalized()
            assert rows[hits].tolist() == [list(oracle.coords)]


def test_klein_reports_swapped_coordinates(monkeypatch):
    linear = klein.klein_pairs
    monkeypatch.setattr(klein, "klein_pairs",
                        lambda rows: linear(rows[:, [0, 1, 2, 3, 5, 4]]))
    report = suites.check_klein(nmax=10)
    assert report["status"] == "fail"
    assert report["detail"]["failures"]


def test_klein_reports_two_planes_on_one_pair(monkeypatch):
    """The bijection check counts distinct images on the sorted array: a
    map that drops the first plane of each norm and repeats the second in
    its place has one image fewer than planes at every norm with a plane."""
    linear = klein.klein_pairs
    monkeypatch.setattr(klein, "klein_pairs",
                        lambda rows: linear(np.concatenate([rows[1:2], rows[1:]])))
    failures = suites.check_klein(nmax=10)["detail"]["failures"]
    assert failures
    for record in failures:
        assert record["distinct_images"] == record["planes"] - 1 == record["pairs"] - 1


def test_klein_reports_images_off_the_pair_set(monkeypatch):
    """Cycling the coordinates of a2 keeps the images distinct and their
    number, but breaks a1 = a2 mod 2: only the array comparison sees it."""
    linear = klein.klein_pairs

    def cycled(rows):
        pairs = linear(rows)
        pairs[:, 1] = pairs[:, 1][:, [1, 2, 0]]
        return pairs

    monkeypatch.setattr(klein, "klein_pairs", cycled)
    failures = suites.check_klein(nmax=10)["detail"]["failures"]
    assert failures
    for record in failures:
        assert record["distinct_images"] == record["planes"] == record["pairs"]


def test_klein_and_orth_build_no_plane(monkeypatch, capsys):
    def refuse(cls, p):
        raise RuntimeError(f"Plane built from {p}")

    def refuse_init(self, *args, **kwargs):
        raise RuntimeError("Plane constructed")

    monkeypatch.setattr(lattice.Plane, "from_plucker", classmethod(refuse))
    monkeypatch.setattr(lattice.Plane, "__init__", refuse_init)
    assert suites.check_klein(nmax=10)["status"] == "pass"
    assert suites.check_orth(nmax=10)["status"] == "pass"
    assert suites.check_comp_ort(nmax=30)["status"] == "pass"
    assert suites.check_pair_genus(nmax=30)["status"] == "pass"
    assert cmd_dispatch(["klein", "--disc", "3"]) == 0
    golden = Path(__file__).with_name("golden") / "klein-json.out"
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


@pytest.mark.parametrize("n", [5, 13, 17])
def test_product_arrays_are_mu_products(n):
    """The int64 products of comp-ort, on the closed-form bases and the
    complements looked up by row, are `mu_products` of the planes rebuilt
    by `Plane.from_plucker` and their complements."""
    rows = lattice.plucker_arrays(n)
    bases = lattice.plane_bases(rows)
    comp = lattice.complement_index(rows)
    assert (comp >= 0).all()
    planes = [Plane.from_plucker(PluckerVector(*p)) for p in rows.tolist()]
    for which in (1, 2):
        prods = klein.mu_product_arrays(bases, bases[comp], which)
        assert not prods[..., 0].any()
        assert [tuple(tuple(map(tuple, row)) for row in g)
                for g in prods[..., 1:].tolist()] == [
            mu_products(plane, plane.orthogonal_complement(), which)
            for plane in planes]


@st.composite
def _spans_in_a_perp(draw):
    """A nonzero a and four vectors of a^perp: any combinations of its
    Hermite basis, ones whose span has index k > 1, ones of rank <= 1, and
    ones with a vector moved off a^perp."""
    a = draw(st.tuples(*[st.integers(-9, 9)] * 3).filter(any))
    coef = st.integers(-3, 3)
    rows = draw(st.lists(st.tuples(coef, coef), min_size=4, max_size=4))
    kind = draw(st.sampled_from(["any", "index", "rank1", "off"]))
    k = draw(st.integers(2, 4))
    if kind == "index":
        rows = [(k * x, y) for x, y in rows]
    elif kind == "rank1":
        rows = [(x, k * x) for x, _ in rows]
    b1, b2 = klein.orthogonal_lattice_z3(a)
    gens = [[x * s + y * t for s, t in zip(b1, b2)] for x, y in rows]
    if kind == "off":
        gens[0] = [g + c for g, c in zip(gens[0], a)]
    return a, gens


@given(_spans_in_a_perp())
@settings(max_examples=400, deadline=None)
def test_cross_product_criterion_is_the_hermite_check(case):
    a, gens = case
    criterion = suites._spans_orthogonal(np.array([gens]), np.array([a]))
    assert criterion.tolist() == [hnf_rows(gens) == klein.orthogonal_lattice_z3(a)]


def _rebased(monkeypatch, rebase):
    exact = lattice.plane_bases

    def patched(rows):
        bases = exact(rows)
        return np.stack(rebase(bases[:, 0], bases[:, 1]), axis=1)

    monkeypatch.setattr(lattice, "plane_bases", patched)


def test_comp_ort_and_pair_genus_reject_a_sublattice(monkeypatch):
    _rebased(monkeypatch, lambda u, v: (u, 2 * v))
    report = suites.check_comp_ort(nmax=30)
    assert report["status"] == "fail"
    assert all(f["image"] != f["orthogonal"] for f in report["detail"]["failures"])
    assert suites.check_pair_genus(nmax=30)["status"] == "fail"


def test_comp_ort_and_pair_genus_accept_another_basis(monkeypatch):
    _rebased(monkeypatch, lambda u, v: (u + v, v))
    assert suites.check_comp_ort(nmax=30)["status"] == "pass"
    assert suites.check_pair_genus(nmax=30)["status"] == "pass"


@pytest.mark.parametrize("name", ["comp-ort", "pair-genus"])
def test_nmax_past_the_int64_bound_is_refused(monkeypatch, capsys, name):
    def refuse(self, nmax):
        raise RuntimeError(f"table built to {nmax}")

    monkeypatch.setattr(lattice.NormTable, "warm", refuse)
    past = lattice.NMAX_INT64 + 1
    with pytest.raises(ValueError, match="int64 bound"):
        suites.run_suite(name, nmax=past)
    assert cmd_dispatch(["verify", name, "--nmax", str(past)]) == 2
    assert "int64 bound" in capsys.readouterr().err


def test_gauss_genus_reports_a_sublattice(monkeypatch):
    """Bases patched to (b1, 2 b2) give forms of disc -16n: failure records,
    not an exception."""
    real = klein.orthogonal_bases

    def doubled(points):
        bases = real(points)
        return np.stack([bases[:, 0], 2 * bases[:, 1]], axis=1)

    monkeypatch.setattr(klein, "orthogonal_bases", doubled)
    report = suites.check_gauss_genus(nmax=30)
    assert report["status"] == "fail"
    # each n gives its form records, in order of n; the report keeps 20
    assert report["detail"]["failure_count"] > len(report["detail"]["failures"]) == 20
    records = [r for r in report["detail"]["failures"] if "form" in r]
    seen = sorted({r["n"] for r in records})
    assert seen == [n for n in range(1, 31)
                    if n % 4 in (1, 2) and repnum.is_squarefree(n)][:len(seen)]
    assert all(QuadForm(*r["form"]).disc == -16 * r["n"] for r in records)


def test_pair_genus_reports_a_shifted_genus(monkeypatch):
    """With the image forms replaced by one form of the next genus, Gauss's
    theorem still holds on them and the genus rule moves to that genus:
    every n with more than one genus fails, and each record names the
    pairs on either side."""
    real = klein.genus_context

    def shifted(n):
        group, partition, forms = real(n)
        target = partition.genus_of(group.index[forms[0]])
        moved = partition.genera[(target + 1) % partition.count][0]
        return group, partition, [group.forms[moved]]

    monkeypatch.setattr(klein, "genus_context", shifted)
    report = suites.check_pair_genus(nmax=30)
    assert report["status"] == "fail"
    records = report["detail"]["failures"]
    assert [r["n"] for r in records] == [5, 13, 17, 21, 29]
    assert records[0] == {
        "n": 5, "observed": 2, "predicted": 2,
        "observed_only": [((1, 0, 5), (1, 0, 5)), ((2, 2, 3), (2, 2, 3))],
        "predicted_only": [((1, 0, 5), (2, 2, 3)), ((2, 2, 3), (1, 0, 5))]}
    for r in records:
        observed, predicted, _ = klein.class_pairs(r["n"])
        assert r["observed_only"] == sorted(observed - predicted)
        assert r["predicted_only"] == sorted(predicted - observed)
        assert r["observed_only"] and r["predicted_only"]


def test_pair_genus_reports_what_gauss_genus_reports(monkeypatch, image_fault):
    """Where the forms on v^perp break Gauss's theorem, pair-genus fails
    with the gauss-genus records of each n and compares no class pairs."""
    def refuse(n):
        raise RuntimeError(f"class pairs compared at n={n}")

    monkeypatch.setattr(klein, "class_pairs", refuse)
    gauss = suites.check_gauss_genus(nmax=30)
    report = suites.check_pair_genus(nmax=30)
    assert gauss["status"] == report["status"] == "fail"
    records = report["detail"]["failures"]
    assert records == [image_fault(n) for n in (5, 13, 17, 21, 29)]
    assert records == [r for r in gauss["detail"]["failures"] if r["n"] % 4 == 1]


def test_gauss_and_pair_genus_build_no_form_objects(monkeypatch):
    """The genus suites stay on reduced triples from the Gram matrix to the
    verdict: no `QuadForm` or `FormClass` is built."""
    built = []
    for cls in (qform.QuadForm, qform.FormClass):
        real = cls.__init__

        def counted(self, *args, real=real, **kwargs):
            built.append(type(self).__name__)
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    assert suites.check_gauss_genus(nmax=150)["status"] == "pass"
    assert suites.check_pair_genus(nmax=30)["status"] == "pass"
    assert built == []


def test_forms_suites_build_no_composition_table(monkeypatch):
    def refuse(self):
        raise RuntimeError("composition table built")

    monkeypatch.setattr(qform.ClassGroup, "table", property(refuse))
    assert suites.check_class_number(dmax=150)["status"] == "pass"
    assert suites.check_genus_structure(nmax=150)["status"] == "pass"
    assert suites.check_gauss_genus(nmax=150)["status"] == "pass"


def test_gauss_genus_makes_no_hermite_reduction(monkeypatch):
    def refuse(*args):
        raise RuntimeError("Hermite reduction")

    for module, name in ((klein, "gauss_map"), (klein, "integer_kernel"),
                         (lattice, "integer_kernel"), (lattice, "row_hnf")):
        monkeypatch.setattr(module, name, refuse)
    assert suites.check_gauss_genus(nmax=150)["status"] == "pass"


def test_genus_structure_composes_about_twice_per_class(monkeypatch):
    """At most 2h compositions per group: h squares, then one coset per
    genus, each as large as the squares; the h^2 table took 48,666."""
    calls = []
    real = qform._composed

    def counted(f1, f2):
        calls.append(1)
        return real(f1, f2)

    monkeypatch.setattr(qform, "_composed", counted)
    assert suites.check_genus_structure(nmax=399)["status"] == "pass"
    total_h = sum(qform.class_group(-4 * n).order for n in range(1, 400))
    assert total_h < len(calls) <= 2 * total_h


@pytest.mark.parametrize("name", ["klein", "orth"])
def test_klein_and_orth_build_the_table_once(monkeypatch, name):
    built = []

    def blocks(nmax):
        built.append(nmax)
        return lattice._plane_rows(nmax)

    table = lattice.NormTable(lattice.rows_by_norm(blocks), lattice.ROW_LIMIT)
    monkeypatch.setattr(lattice, "_plucker_table", table)
    assert suites.run_suite(name, nmax=100)["status"] == "pass"
    assert built == [100]


def test_r24_and_count_read_no_row_table(monkeypatch, capsys):
    def refuse(nmax):
        raise RuntimeError(f"row table built to {nmax}")

    monkeypatch.setattr(lattice._plucker_table, "warm", refuse)
    assert cmd_dispatch(["verify", "r24", "--dmax", "100"]) == 0
    assert cmd_dispatch(["count", "--disc", "45"]) == 0
    assert '"r24_oracle": 768' in capsys.readouterr().out


def test_oracle_disagreement_fails_r24_and_count(monkeypatch, capsys):
    true_count = klein.pair_count
    monkeypatch.setattr(klein, "pair_count", lambda n: true_count(n) + 1)
    report = suites.check_r24(dmax=5)
    assert report["status"] == "fail"
    assert report["detail"]["failures"] == [
        {"d": d, "plucker": lattice.plane_count(d), "klein": true_count(d) + 1}
        for d in range(1, 6)]
    assert cmd_dispatch(["count", "--disc", "5"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "d": 5, "r24_formula": 96, "r24_oracle": None, "agree": False,
        "error": "oracles disagree at d=5: plucker=96, klein=97"}


def test_r24_builds_the_count_array_once(monkeypatch):
    """The Plucker, the Klein and the three-square count tables are each
    filled once, to dmax."""
    built = []

    def counted(fill):
        def wrapper(nmax):
            built.append((fill.__name__, nmax))
            return fill(nmax)
        return wrapper

    monkeypatch.setattr(lattice, "_plucker_counts",
                        lattice.NormTable(counted(lattice._plane_counts), lattice.NORM_LIMIT))
    monkeypatch.setattr(klein, "_pair_table",
                        lattice.NormTable(counted(klein._pair_counts), lattice.NORM_LIMIT))
    monkeypatch.setattr(repnum, "_r3_table",
                        lattice.NormTable(counted(repnum._r3_counts), lattice.NORM_LIMIT))
    assert suites.run_suite("r24", dmax=100)["status"] == "pass"
    assert sorted(built) == [("_pair_counts", 100), ("_plane_counts", 100),
                             ("_r3_counts", 100)]


@pytest.mark.parametrize("name", ["gauss-genus", "klein"])
def test_sphere_readers_fill_the_sphere_table_once(monkeypatch, name):
    """A suite that reads sphere points fills their table once, to its bound,
    not at each doubling of a rising norm."""
    built = []

    def blocks(nmax):
        built.append(nmax)
        return lattice.ball(nmax)

    monkeypatch.setattr(repnum, "_sphere_table",
                        lattice.NormTable(lattice.rows_by_norm(blocks), lattice.NORM_LIMIT))
    assert suites.run_suite(name, nmax=150)["status"] == "pass"
    assert built == [150]


def test_r24_reports_one_moved_plucker_count(monkeypatch):
    """One extra solution of norm 45 in the count sweep: the Plucker count
    there is 769 against 768 Klein pairs, and r24 fails on that d alone."""
    def moved(nmax):
        counts = lattice._plane_counts(nmax)
        counts[45] += 1
        return counts

    monkeypatch.setattr(lattice, "_plucker_counts",
                        lattice.NormTable(moved, lattice.NORM_LIMIT))
    report = suites.run_suite("r24", dmax=60)
    assert report["status"] == "fail"
    assert report["detail"]["failures"] == [{"d": 45, "plucker": 769, "klein": 768}]


def test_local_identity_rejects_swapped_euler_factor_kinds(monkeypatch):
    """Kinds +1 and -1 of `mds.local_factors` swapped: the global identity
    at w = 4 cannot tell, but each side of the local identity can."""
    factors = mds.local_factors()
    swapped = {1: factors[-1], -1: factors[1], 0: factors[0]}
    monkeypatch.setattr(mds, "local_factors", lambda: swapped)
    report = suites.check_local_identity(order=4)
    assert report["status"] == "fail"
    assert report["detail"]["failures"] == [1, -1]
    assert report["detail"]["failure_count"] == 2


def _r3_off_by_one(monkeypatch):
    real = repnum.r3
    monkeypatch.setattr(repnum, "r3", lambda n: real(n) + 1)


def test_class_number_rejects_a_wrong_r3(monkeypatch):
    _r3_off_by_one(monkeypatch)
    report = suites.check_class_number(dmax=30)
    assert report["status"] == "fail"
    # d0 = 5 is the first squarefree d0 >= 4, with h(-20) = 2
    assert report["detail"]["failures"][0] == {"d0": 5, "r3": 25,
                                               "class_number_prediction": 24}


def test_l_value_rejects_a_wrong_r3(monkeypatch):
    """r3 one too large moves the closed form by pi / (24 sqrt d0), far past
    the tolerance, at every d0."""
    _r3_off_by_one(monkeypatch)
    report = suites.check_l_value(dmax=60)
    assert report["status"] == "fail"
    first = report["detail"]["failures"][0]
    assert first["d0"] == 11
    assert first["closed_form"] == pytest.approx(25 * np.pi / (24 * np.sqrt(11)))
    assert first["abs_diff"] == pytest.approx(np.pi / (24 * np.sqrt(11)), rel=1e-9)
    assert [f["d0"] for f in report["detail"]["failures"]] == [11, 19, 35, 43, 51, 59]


def test_p_local_rejects_a_moved_divisor_sum(monkeypatch):
    real = repnum.f_sum
    monkeypatch.setattr(repnum, "f_sum", lambda d0, f: real(d0, f) + (f == 9))
    report = suites.check_p_local(fmax=15)
    assert report["status"] == "fail"
    assert [f["d0"] for f in report["detail"]["failures"]] == [3, 11, 19]
    assert report["detail"]["failures"][0] == {
        "d0": 3, "fmax": 15,
        "mismatches": [{"f": 9, "divisor_sum": "154", "euler": "153"}]}


def test_genus_structure_rejects_two_merged_genera(monkeypatch):
    real = qform.genus_partition

    def merged(group):
        partition = real(group)
        if partition.count < 2:
            return partition
        first, second, *rest = partition.genera
        genera = (tuple(sorted(first + second)), *rest)
        return qform.GenusPartition(
            group=group, genera=genera,
            genus_index={i: k for k, genus in enumerate(genera) for i in genus})

    monkeypatch.setattr(qform, "genus_partition", merged)
    report = suites.check_genus_structure(nmax=30)
    assert report["status"] == "fail"
    # n = 5 is the first with two genera, of h(-20) = 2 classes
    assert report["detail"]["failures"][0] == {"n": 5, "genera": 1, "index": 2}


# every bound of every suite, small enough for tier-1
SMALL_BOUNDS = {
    "r24": {"dmax": 30},
    "klein": {"nmax": 10},
    "orth": {"nmax": 10},
    "local-identity": {"order": 4},
    "p-local": {"fmax": 15},
    "class-number": {"dmax": 50},
    "l-value": {"dmax": 30},
    "gauss-genus": {"nmax": 30},
    "comp-ort": {"nmax": 30},
    "pair-genus": {"nmax": 30},
    "genus-structure": {"nmax": 30},
    "global-identity": {"w": 4.0, "dmax": 50, "prime_cutoff": 100},
}


@pytest.mark.parametrize("name", list(suites.SUITES))
def test_every_report_has_one_shape(name):
    bounds = SMALL_BOUNDS[name]
    assert set(bounds) == set(inspect.signature(suites.SUITES[name]).parameters)
    report = suites.run_suite(name, **bounds)
    assert set(report) == {"check", "status", "detail"}
    assert report["check"] == name
    detail = report["detail"]
    assert isinstance(detail["failures"], list)
    assert isinstance(detail["failure_count"], int)
    assert detail["failure_count"] >= len(detail["failures"])
    assert {k: detail[k] for k in bounds} == bounds


def test_report_keeps_20_failures_and_counts_them_all():
    report = suites._report("x", list(range(25)), {"nmax": 3})
    assert report["status"] == "fail"
    assert report["detail"] == {"nmax": 3, "failures": list(range(20)),
                                "failure_count": 25}
