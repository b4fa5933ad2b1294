"""Multiplicativity, conjugation, and trace identities on a coefficient grid."""

from hypothesis import given
from hypothesis import strategies as st

from planes.quaternion import Quaternion

coeff = st.integers(min_value=-10, max_value=10)
quat = st.builds(Quaternion, coeff, coeff, coeff, coeff)

ONE = Quaternion(1, 0, 0, 0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def test_hamilton_relations():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert I * I == -ONE
    assert J * I == -K


def test_identity_and_sample_norms():
    q = Quaternion(2, -1, 3, 0)
    assert q * ONE == q
    assert ((ONE + I) * (ONE + J)).nr() == 4
    assert (ONE + I + J + K).nr() == 4
    assert Quaternion(0, 0, 0, 0).nr() == 0
    assert Quaternion(0, 2, -1, 0).nr() == 5


def test_conjugation_examples():
    assert (ONE + I).conj() == ONE - I
    assert Quaternion(5, 0, 0, 0).conj() == Quaternion(5, 0, 0, 0)
    assert (I + J + K).conj() == -(I + J + K)


@given(quat, quat)
def test_norm_multiplicative(q, r):
    assert (q * r).nr() == q.nr() * r.nr()


@given(quat, quat)
def test_conjugation_antihomomorphism(q, r):
    assert (q * r).conj() == r.conj() * q.conj()


@given(quat)
def test_conjugation_involution_and_norm(q):
    assert q.conj().conj() == q
    assert q * q.conj() == Quaternion(q.nr(), 0, 0, 0)

