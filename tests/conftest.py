"""Fixtures shared by every test module."""

import pytest

from planes import klein, qform


@pytest.fixture(autouse=True)
def fresh_genus_contexts():
    """`klein.genus_context` keeps what it read off `orthogonal_classes`, so
    a test that patches that function would leave its contexts to the tests
    after it, or find the ones an earlier test left: each test starts and
    ends with an empty cache."""
    contexts = klein.genus_context
    contexts.cache_clear()
    yield
    contexts.cache_clear()


def _second_genus(n, forms):
    """One class of disc -4n outside the genus of the first form, if any."""
    group = qform.class_group(-4 * n)
    partition = qform.genus_partition(group)
    target = partition.genus_of(group.index[forms[0]])
    return [f for i, f in enumerate(group.forms) if partition.genus_of(i) != target][:1]


# each fault: the forms it adds at norm n, and the record gauss-genus writes
# for it at a norm of the theorem with two genera or more
_FAULTS = {
    "second-genus": (_second_genus, lambda n: {"n": n, "distinct_genera": 2}),
    "not-a-class": (lambda n, forms: [(1, 0, 1)],
                    lambda n: {"n": n, "form": (1, 0, 1),
                               "why": f"not a class of disc {-4 * n}"}),
}


@pytest.fixture(params=list(_FAULTS))
def image_fault(request, monkeypatch):
    """Gauss's theorem broken on v^perp: `klein.orthogonal_classes` gains,
    at each norm, a class of a second genus or (1, 0, 1) of disc -4.
    Gives the record of a norm n."""
    add, record = _FAULTS[request.param]
    real = klein.orthogonal_classes

    def patched(points):
        forms = real(points)
        return sorted(set(forms) | set(add(int((points[0] ** 2).sum()), forms)))

    monkeypatch.setattr(klein, "orthogonal_classes", patched)
    return record
