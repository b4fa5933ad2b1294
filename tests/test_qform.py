"""Binary quadratic forms: reduction, composition, genus structure."""

import hashlib
import json
import random
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planes import qform
from planes.qform import (
    ClassGroup,
    FormClass,
    QuadForm,
    class_group,
    compose,
    genus_partition,
    gl2_class,
    opposite,
    principal_form,
    reduce,
)


def test_reduce_examples():
    assert reduce(QuadForm(5, 4, 1)) == QuadForm(1, 0, 1)
    assert reduce(QuadForm(2, -2, 3)) == QuadForm(2, 2, 3)
    assert reduce(QuadForm(1, 1, 1)) == QuadForm(1, 1, 1)


def test_reduce_rejects_indefinite():
    with pytest.raises(ValueError, match="form is not positive definite"):
        reduce(QuadForm(1, 0, -1))
    with pytest.raises(ValueError, match="form is not positive definite"):
        reduce(QuadForm(-1, 0, -1))


def test_compose_refusals_keep_their_messages():
    c20 = class_group(-20).classes[0]
    c23 = class_group(-23).classes[0]
    with pytest.raises(ValueError, match="discriminants differ"):
        compose(c20, c23)
    doubled = FormClass(QuadForm(2, 2, 2))  # disc -12, content 2
    with pytest.raises(ValueError, match="composition needs primitive classes"):
        compose(doubled, class_group(-12).classes[0])
    with pytest.raises(ValueError, match="composition needs primitive classes"):
        compose(class_group(-12).classes[0], doubled)


def test_compose_refuses_a_non_integral_form(monkeypatch):
    """Zero Bezout cofactors leave B = b2, and (2, 1, 3) with itself then
    gives (B^2 - D) / 4A = 24/16."""
    monkeypatch.setattr(qform, "ext_gcd", lambda a, b: (gcd(a, b), 0, 0))
    c = FormClass(QuadForm(2, 1, 3))
    with pytest.raises(ArithmeticError, match="composed form is not integral"):
        compose(c, c)


form_strategy = st.builds(
    QuadForm,
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=1, max_value=12),
).filter(lambda q: q.disc < 0)


@given(form_strategy)
@settings(max_examples=80)
def test_reduce_is_idempotent_and_reduced(q):
    r = reduce(q)
    assert r.is_reduced
    assert r.disc == q.disc
    assert reduce(r) == r


@given(form_strategy, st.integers(min_value=0, max_value=2 ** 16 - 1))
@settings(max_examples=80)
def test_reduce_constant_on_orbits(q, word):
    """Random SL2 words reach the same reduced representative."""
    m = (1, 0, 0, 1)
    for _ in range(8):
        if word & 1:  # T: x -> x + y
            m = (m[0], m[0] + m[1], m[2], m[2] + m[3])
        else:  # S: (x, y) -> (-y, x)
            m = (m[1], -m[0], m[3], -m[2])
        word >>= 1
    moved = q.transform(*m)
    assert moved.disc == q.disc
    assert reduce(moved) == reduce(q)


FROZEN_GROUPS = {
    -4: [(1, 0, 1)],
    -20: [(1, 0, 5), (2, 2, 3)],
    -23: [(1, 1, 6), (2, -1, 3), (2, 1, 3)],
    -56: [(1, 0, 14), (2, 0, 7), (3, -2, 5), (3, 2, 5)],
    -84: [(1, 0, 21), (2, 2, 11), (3, 0, 7), (5, 4, 5)],
}


@pytest.mark.parametrize("disc,forms", sorted(FROZEN_GROUPS.items()))
def test_class_group_enumeration(disc, forms):
    g = class_group(disc)
    assert sorted(c.triple() for c in g.classes) == sorted(forms)


def test_class_group_validation():
    with pytest.raises(ValueError):
        class_group(5)
    with pytest.raises(ValueError):
        class_group(-2)


@pytest.mark.parametrize("disc", sorted(FROZEN_GROUPS))
def test_group_axioms(disc):
    g = class_group(disc)
    n = g.order
    ident = g.identity
    for i in range(n):
        assert g.table[i][ident] == i
        assert g.table[ident][i] == i
        # Latin square: every row and column is a permutation
        assert sorted(g.table[i]) == list(range(n))
        assert sorted(g.table[j][i] for j in range(n)) == list(range(n))
        inv = g.inverse(i)
        assert g.table[i][inv] == ident
    for i in range(n):
        for j in range(n):
            assert g.table[i][j] == g.table[j][i]
            for k in range(n):
                assert (g.table[g.table[i][j]][k] == g.table[i][g.table[j][k]])


def test_inverse_is_opposite():
    g = class_group(-47)
    assert g.order == 5
    for c in g.classes:
        assert compose(c, c.opposite()) == g.classes[g.identity]
        assert g.table[g.index[c.triple()]][g.index[c.opposite().triple()]] == g.identity


INVERSE_DISCS = [-20, -23, -56, -84, -4 * 1105]


@pytest.mark.parametrize("disc", INVERSE_DISCS)
def test_inverse_builds_no_table(monkeypatch, disc):
    def refuse(self):
        raise RuntimeError("composition table built")

    g = class_group(disc)
    monkeypatch.setattr(ClassGroup, "table", property(refuse))
    inverses = [g.inverse(i) for i in range(g.order)]
    monkeypatch.undo()
    assert all(g.table[i][inv] == g.identity for i, inv in enumerate(inverses))


def test_product_path_builds_no_dataclass(monkeypatch):
    g = class_group(-4 * 399)
    built = []
    for cls in (QuadForm, FormClass):
        real = cls.__init__

        def counted(self, *args, real=real, **kwargs):
            built.append(type(self).__name__)
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    squares = g.squares()
    part = genus_partition(g)
    table = g.table
    assert built == []
    assert len(squares) > 1 and part.count > 1 and len(table) == g.order


@pytest.mark.parametrize("disc", [-3, -23, -47, -84, -4 * 399])
def test_product_is_compose_on_the_classes(disc):
    g = class_group(disc)
    for i, ci in enumerate(g.classes):
        for j, cj in enumerate(g.classes):
            assert g.product(i, j) == g.index[compose(ci, cj).triple()]


def _brute_reduced_forms(disc: int) -> list:
    """Reduced primitive triples of the discriminant, every b in turn."""
    out = []
    for a in range(1, isqrt(-disc // 3) + 1):
        for b in range(-a, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or gcd(gcd(a, b), c) != 1:
                continue
            if b < 0 and (b == -a or a == c):
                continue
            out.append((a, b, c))
    return sorted(out)


def test_enumeration_matches_a_brute_scan():
    """Every discriminant down to -4000, past the digest's -1596."""
    for disc in range(-3, -4001, -1):
        if disc % 4 in (0, 1):
            assert list(class_group(disc).forms) == _brute_reduced_forms(disc), disc


def _primitive_values(q: QuadForm, bound: int) -> set:
    """Values <= bound taken at coprime (x, y)."""
    D = -q.disc
    vals = set()
    xmax = isqrt(4 * q.c * bound // D) + 1
    ymax = isqrt(4 * q.a * bound // D) + 1
    for x in range(-xmax, xmax + 1):
        for y in range(-ymax, ymax + 1):
            if gcd(x, y) != 1:
                continue
            m = q(x, y)
            if 0 < m <= bound:
                vals.add(m)
    return vals


def test_class_groups_are_frozen():
    """sha256 over classes, table, identity, squares and genera of every
    group of disc -4n, n <= 399, and -d0, d0 = 3 mod 8 up to 400; recorded
    from the eagerly built h^2 table and the partition that read it, before
    both moved to composing on demand."""
    h = hashlib.sha256()
    for disc in [-4 * n for n in range(1, 400)] + [-d for d in range(3, 401, 8)]:
        g = class_group(disc)
        rec = [disc, [c.triple() for c in g.classes], g.table, g.identity,
               g.squares(), genus_partition(g).genera]
        h.update(json.dumps(rec, separators=(",", ":")).encode() + b"\n")
    assert h.hexdigest() == (
        "b2ade7c13c6d9a07174731fbf91c15b92793761745231303b54b87d9af86ebcd")


@pytest.mark.parametrize("disc", [-20, -23, -56, -84])
def test_composition_multiplies_represented_values(disc):
    g = class_group(disc)
    D = -disc
    checked = 0
    for c1 in g.classes:
        for c2 in g.classes:
            v1 = sorted(m for m in _primitive_values(c1.form, 60)
                        if gcd(m, 2 * D) == 1)
            v2 = sorted(m for m in _primitive_values(c2.form, 60)
                        if gcd(m, 2 * D) == 1)
            prod = compose(c1, c2)
            for m1 in v1[:3]:
                for m2 in v2[:3]:
                    if gcd(m1, m2) != 1:
                        continue
                    assert m1 * m2 in _primitive_values(prod.form, m1 * m2)
                    checked += 1
    assert checked > 0


def test_genus_counts():
    for disc, expected in [(-20, 2), (-23, 1), (-56, 2), (-84, 4)]:
        part = genus_partition(class_group(disc))
        assert part.count == expected


def test_genus_partition_is_square_cosets():
    g = class_group(-84)
    part = genus_partition(g)
    assert g.squares() == (g.identity,)
    assert part.count == g.order // len(g.squares())
    assert part.genus_of(g.identity) == part.principal_genus


@pytest.mark.parametrize("disc", [-23, -56, -84])
def test_genus_matches_residues_represented(disc):
    """Classes lie in one genus exactly when they hit the same
    residues mod disc among values prime to 2 disc."""
    g = class_group(disc)
    part = genus_partition(g)
    D = -disc

    def residues(c: FormClass) -> frozenset:
        return frozenset(m % D for m in _primitive_values(c.form, 40 * D)
                         if gcd(m, 2 * D) == 1)

    sets = [residues(c) for c in g.classes]
    for i in range(g.order):
        for j in range(g.order):
            same_genus = part.genus_of(i) == part.genus_of(j)
            assert same_genus == (sets[i] == sets[j])


def test_gl2_class_pairs_opposites():
    g = class_group(-23)
    c = next(c for c in g.classes if c.triple() == (2, 1, 3))
    assert gl2_class(c) == frozenset({c, c.opposite()})
    assert len(gl2_class(g.classes[g.identity])) == 1


def test_principal_form_both_parities():
    assert principal_form(-4) == (1, 0, 1)
    assert principal_form(-23) == (1, 1, 6)
    assert opposite(QuadForm(2, 1, 3)) == QuadForm(2, -1, 3)


def test_json_round_shape():
    d = class_group(-84).to_json_dict()
    assert d["disc"] == -84
    assert len(d["forms"]) == 4 and len(d["table"]) == 4
    assert sorted(d["genera"]) == [[0], [1], [2], [3]]
