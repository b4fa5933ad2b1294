"""Representation numbers and the closed-form plane count."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planes.repnum import (
    RepDecomposition,
    decompose,
    f_sum,
    factorize,
    is_admissible_disc,
    is_squarefree,
    kronecker_symbol,
    legendre_symbols,
    r3,
    r24_formula,
    r24_oracle,
    rs3_coeffs,
    sphere_points,
    squarefree_decompose,
)

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]

# independently derived by plane enumeration; the formula must hit these
R24_FROZEN = {1: 6, 2: 24, 3: 32, 4: 12, 27: 480, 45: 768,
              243: 4896, 275: 6912, 363: 5376}


def brute_r3(n: int) -> int:
    from math import isqrt
    m = isqrt(n)
    return sum(1 for x in range(-m, m + 1) for y in range(-m, m + 1)
               for z in range(-m, m + 1) if x * x + y * y + z * z == n)


@pytest.mark.parametrize("n", range(1, 31))
def test_r3_against_direct_count(n):
    assert r3(n) == brute_r3(n)


def test_r3_examples():
    assert [r3(n) for n in (1, 2, 3, 4, 5, 6, 7)] == [6, 12, 8, 6, 24, 24, 0]


def test_r3_counts_are_the_sphere_table_lengths():
    """The count table, which keeps no point, gives the number of sphere
    points of every norm up to 2048, and 1 for the origin."""
    assert r3(0) == 1
    assert [r3(n) for n in range(1, 2049)] == [len(sphere_points(n))
                                               for n in range(1, 2049)]
    with pytest.raises(ValueError):
        r3(-1)


@pytest.mark.parametrize("n", [7, 28])
def test_norms_without_three_squares_have_no_points(n):
    points = sphere_points(n)
    assert points.shape == (0, 3) and points.dtype == np.int64


@given(st.integers(min_value=1, max_value=4000))
@settings(max_examples=100)
def test_squarefree_decompose_roundtrip(n):
    n0, m = squarefree_decompose(n)
    assert n0 * m * m == n
    assert is_squarefree(n0)


def test_is_squarefree_edges():
    assert is_squarefree(1)
    assert not is_squarefree(0)
    assert not is_squarefree(-5)
    assert not is_squarefree(12)
    assert is_squarefree(30)


def test_factorize():
    assert factorize(1) == ()
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(97) == ((97, 1),)
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=-60, max_value=60), st.sampled_from(ODD_PRIMES))
def test_legendre_euler_criterion(a, p):
    """At an odd prime the Kronecker symbol is the Legendre symbol: 0 on
    multiples of p, else 1 exactly on the quadratic residues."""
    s = kronecker_symbol(a, p)
    assert s in (-1, 0, 1)
    if a % p == 0:
        assert s == 0
    else:
        assert any(x * x % p == a % p for x in range(p)) == (s == 1)


@given(st.integers(min_value=-60, max_value=60), st.sampled_from(ODD_PRIMES))
def test_kronecker_extends_legendre(a, p):
    """At an odd prime the Kronecker symbol is Euler's a^((p-1)/2) mod p."""
    e = pow(a, (p - 1) // 2, p)
    assert kronecker_symbol(a, p) == (-1 if e == p - 1 else e)


def test_legendre_symbols_are_the_scalar_symbols():
    """Every odd prime below 10^4, against d0 that several of them divide,
    one at the top of the range and one past int32; and the largest prime
    below 2^31, where the squares come closest to int64."""
    primes = [q for q in range(3, 10 ** 4, 2) if factorize(q) == ((q, 1),)]
    for d0 in (1, 3, 7, 19, 35, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23, 9973,
               9967 * 9973, 2 ** 40 + 3):
        for a in (-d0, d0):
            assert legendre_symbols(a, primes).tolist() == [
                kronecker_symbol(a, q) for q in primes]
    top = 2 ** 31 - 1
    for a in (-3, -top, 2 ** 40 - 1, -(2 ** 40 + 3)):
        assert legendre_symbols(a, [top]).tolist() == [kronecker_symbol(a, top)]
    for bad in ([3, 2], [2 ** 31 + 11]):
        with pytest.raises(ValueError):
            legendre_symbols(-3, bad)


@given(st.integers(min_value=-60, max_value=60),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=120)
def test_kronecker_multiplicative_in_modulus(a, m, n):
    assert (kronecker_symbol(a, m * n)
            == kronecker_symbol(a, m) * kronecker_symbol(a, n))


def test_kronecker_at_two():
    assert kronecker_symbol(6, 2) == 0
    assert [kronecker_symbol(a, 2) for a in (1, 3, 5, 7)] == [1, -1, -1, 1]


def test_admissibility_window():
    for d in range(1, 201):
        assert is_admissible_disc(d) == (d % 16 not in (0, 7, 12, 15))
    assert not is_admissible_disc(0)
    assert not is_admissible_disc(-3)


def test_decompose_examples():
    dec = decompose(45)
    assert (dec.d0, dec.e, dec.f) == (5, 0, 3)
    assert decompose(4) == RepDecomposition(d=4, d0=1, e=1, f=1)
    assert decompose(8) == RepDecomposition(d=8, d0=2, e=1, f=1)
    assert decompose(27) == RepDecomposition(d=27, d0=3, e=0, f=3)


def test_decompose_rejects_inadmissible():
    with pytest.raises(ValueError):
        decompose(12)
    with pytest.raises(ValueError):
        decompose(16)


def test_rep_decomposition_validation():
    with pytest.raises(ValueError):
        RepDecomposition(d=45, d0=5, e=0, f=2)
    with pytest.raises(ValueError):
        RepDecomposition(d=36, d0=4, e=0, f=3)
    with pytest.raises(ValueError):
        RepDecomposition(d=36, d0=4, e=1, f=3)


def test_f_sum_values():
    assert f_sum(1, 1) == 1
    assert f_sum(3, 3) == 15
    # trivial square part contributes nothing regardless of the core
    for d0 in (1, 2, 3, 5, 11):
        assert f_sum(d0, 1) == Fraction(1)


def test_f_sum_validation():
    with pytest.raises(ValueError):
        f_sum(3, 2)
    with pytest.raises(ValueError):
        f_sum(3, 0)


def test_r24_frozen_values():
    for d, expected in sorted(R24_FROZEN.items()):
        assert r24_formula(d) == expected


def test_r24_vanishing_pattern():
    for d in range(1, 101):
        vanish = d % 16 in (0, 7, 12, 15)
        assert (r24_formula(d) == 0) == vanish


def test_r24_rejects_nonpositive():
    with pytest.raises(ValueError):
        r24_formula(0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 9, 11, 27, 45])
def test_oracle_agrees_with_formula(d):
    assert r24_oracle(d) == (r24_formula(d), r24_formula(d))


def test_rs3_coeffs_support():
    table = rs3_coeffs(30)
    assert list(table) == [3, 7, 11, 15, 19, 23, 27]
    for d, v in table.items():
        assert d % 4 == 3
        assert v == r24_formula(d)
    assert table.get(4, 0) == 0
    assert table[3] == 32
    with pytest.raises(ValueError):
        rs3_coeffs(-1)
