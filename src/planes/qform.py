"""Positive definite binary quadratic forms and their class groups.

Forms a*x^2 + b*x*y + c*y^2 are integer triples (a, b, c).  Proper
(SL_2) classes are named by the unique reduced representative with
|b| <= a <= c and b >= 0 whenever |b| = a or a = c; a GL_2 class is the
set {class, opposite class}.  Group structure is computed only for
primitive forms.

Reduction (`reduced`), composition (`_composed`) and every `ClassGroup`
product, square, inverse and genus run on plain triples; `QuadForm` and
`FormClass` are the API edge, built by `reduce`, `compose` and
`ClassGroup.classes`.  The inverse of a class is its reduced opposite,
so it needs no composition table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, isqrt

from planes.lattice import ext_gcd


@dataclass(frozen=True, order=True)
class QuadForm:
    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def transform(self, m11: int, m12: int, m21: int, m22: int) -> "QuadForm":
        """Substitute (x, y) -> (m11 x + m12 y, m21 x + m22 y)."""
        a, b, c = self.a, self.b, self.c
        na = a * m11 * m11 + b * m11 * m21 + c * m21 * m21
        nc = a * m12 * m12 + b * m12 * m22 + c * m22 * m22
        nb = 2 * a * m11 * m12 + b * (m11 * m22 + m12 * m21) + 2 * c * m21 * m22
        return QuadForm(na, nb, nc)

    @property
    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True


def opposite(q: QuadForm) -> QuadForm:
    return QuadForm(q.a, -q.b, q.c)


def reduced(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Gauss reduction of the triple to its canonical proper-class
    representative."""
    disc = b * b - 4 * a * c
    if a <= 0 or disc >= 0:
        raise ValueError("form is not positive definite")
    a0, b0, c0 = a, b, c
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if b <= -a or b > a:
            # shift b into (-a, a], keeping the class
            nb = (b + a) % (2 * a) - a
            if nb == -a:
                nb = a
            c += (nb * nb - b * b) // (4 * a)
            b = nb
            continue
        break
    if b < 0 and (a == -b or a == c):
        b = -b
    if b * b - 4 * a * c != disc:
        raise ArithmeticError("reduction changed the discriminant of "
                              f"{QuadForm(a0, b0, c0)}")
    return a, b, c


def reduce(q: QuadForm) -> QuadForm:
    """Gauss reduction to the canonical proper-class representative."""
    return QuadForm(*reduced(q.a, q.b, q.c))


@dataclass(frozen=True, order=True)
class FormClass:
    """Proper equivalence class, carried by its reduced representative."""

    form: QuadForm

    @classmethod
    def of(cls, q: QuadForm) -> "FormClass":
        return cls(reduce(q))

    @property
    def disc(self) -> int:
        return self.form.disc

    def opposite(self) -> "FormClass":
        return FormClass.of(opposite(self.form))

    def triple(self) -> tuple[int, int, int]:
        return (self.form.a, self.form.b, self.form.c)


def principal_form(disc: int) -> tuple[int, int, int]:
    if disc % 4 == 0:
        return (1, 0, -disc // 4)
    if disc % 4 == 1:
        return (1, 1, (1 - disc) // 4)
    raise ValueError("not a discriminant")


def _composed(f1: tuple[int, int, int],
              f2: tuple[int, int, int]) -> tuple[int, int, int]:
    """Reduced triple of the composition of two forms of the same
    discriminant D.

    Dirichlet composition (Cohen, A Course in Computational Algebraic
    Number Theory, 5.4): with s = (b1 + b2)/2 and d = gcd(a1, a2, s) =
    u a1 + v a2 + w s, the form (A, B, (B^2 - D)/(4A)) with A = a1 a2 / d^2
    and B = b2 + 2 (a2/d) ((v (s - b2) - w c2) mod a1/d) represents the
    composed class.  It takes any two primitive forms as they are, and the
    computation is deterministic.
    """
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    D = b1 * b1 - 4 * a1 * c1
    if b2 * b2 - 4 * a2 * c2 != D:
        raise ValueError("discriminants differ")
    if gcd(a1, b1, c1) != 1 or gcd(a2, b2, c2) != 1:
        raise ValueError("composition needs primitive classes")
    s = (b1 + b2) // 2  # b1, b2 share the parity of D
    g, _, v = ext_gcd(a1, a2)
    d, x, w = ext_gcd(g, s)  # d = x (u a1 + v a2) + w s
    B = b2 + 2 * (a2 // d) * ((x * v * (s - b2) - w * c2) % (a1 // d))
    A = a1 * a2 // (d * d)
    num = B * B - D
    if num % (4 * A):
        raise ArithmeticError(f"composed form is not integral: {A}, {B}, {D}")
    return reduced(A, B, num // (4 * A))


def compose(c1: FormClass, c2: FormClass) -> FormClass:
    """Gauss composition of proper classes of the same discriminant."""
    return FormClass(QuadForm(*_composed(c1.triple(), c2.triple())))


def gl2_class(c: FormClass) -> frozenset[FormClass]:
    return frozenset((c, c.opposite()))


@dataclass(frozen=True)
class ClassGroup:
    """Form class group of a negative discriminant, held as its sorted
    reduced triples `forms` and their `index`.

    Products are composed on demand.  The composition `table`, h^2
    compositions, is built on first use only; `squares` takes h
    compositions and a genus partition h more."""

    disc: int
    forms: tuple[tuple[int, int, int], ...]
    identity: int
    index: dict[tuple[int, int, int], int] = field(compare=False, repr=False)

    @cached_property
    def classes(self) -> tuple[FormClass, ...]:
        return tuple(FormClass(QuadForm(*f)) for f in self.forms)

    @property
    def order(self) -> int:
        return len(self.forms)

    def product(self, i: int, j: int) -> int:
        return self.index[_composed(self.forms[i], self.forms[j])]

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.product(i, j) for j in range(self.order))
                     for i in range(self.order))

    def inverse(self, i: int) -> int:
        a, b, c = self.forms[i]
        return self.index[reduced(a, -b, c)]

    @cached_property
    def _squares(self) -> tuple[int, ...]:
        return tuple(sorted({self.product(i, i) for i in range(self.order)}))

    def squares(self) -> tuple[int, ...]:
        return self._squares

    def to_json_dict(self) -> dict:
        return {
            "disc": self.disc,
            "forms": [list(f) for f in self.forms],
            "table": [list(r) for r in self.table],
            "genera": [list(g) for g in genus_partition(self).genera],
        }


# the largest |disc| of a class group: of the 2,000 discriminants nearest it,
# disc -520439 (h = 1266) has the largest table for `planes classgroup`, h^2
# compositions, which took 6.2-7.2 s at an 89 MB peak (fresh process, 2-core VM)
DISC_LIMIT = 2 ** 19


def class_group(disc: int) -> ClassGroup:
    """Enumerate the reduced primitive forms of the discriminant: for each
    a, b runs over (-a, a] in steps of 2 from the first b = disc (mod 2)."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError("not a negative discriminant")
    if -disc > DISC_LIMIT:
        raise ValueError(f"|disc| {-disc} is past the class group limit {DISC_LIMIT}")
    forms = []
    amax = isqrt(-disc // 3)
    for a in range(1, amax + 1):
        for b in range(1 - a + (a + 1 + disc) % 2, a + 1, 2):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == -b or a == c):
                continue
            if gcd(a, b, c) == 1:
                forms.append((a, b, c))
    forms.sort()
    index = {f: i for i, f in enumerate(forms)}
    return ClassGroup(disc=disc, forms=tuple(forms),
                      identity=index[principal_form(disc)], index=index)


@dataclass(frozen=True)
class GenusPartition:
    """Partition of a class group into cosets of its subgroup of squares."""

    group: ClassGroup
    genera: tuple[tuple[int, ...], ...]
    genus_index: dict[int, int] = field(compare=False, repr=False)

    @property
    def count(self) -> int:
        return len(self.genera)

    def genus_of(self, i: int) -> int:
        try:
            return self.genus_index[i]
        except KeyError:
            raise ValueError("index outside group")

    @property
    def principal_genus(self) -> int:
        return self.genus_of(self.group.identity)


def genus_partition(group: ClassGroup) -> GenusPartition:
    """Cosets of the squares, composed from one representative each: h
    compositions, 2h with the squares themselves."""
    sq = group.squares()
    seen: set[int] = set()
    cosets = []
    for i in range(group.order):
        if i in seen:
            continue
        coset = tuple(sorted(group.product(i, j) for j in sq))
        seen.update(coset)
        cosets.append(coset)
    cosets.sort(key=lambda t: t[0])
    genus_index = {i: gi for gi, coset in enumerate(cosets) for i in coset}
    return GenusPartition(group=group, genera=tuple(cosets),
                          genus_index=genus_index)
