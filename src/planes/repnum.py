"""Representation numbers: sums of three squares and plane counts.

The plane count of discriminant -4d has a closed form in terms of r3 of
the squarefree core of d; `r24_formula` evaluates it with exact rational
arithmetic and `r24_oracle` recounts by two independent enumerations
(Plucker solutions and Klein pairs), whose callers compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from planes import lattice


# ---------------------------------------------------------------------------
# elementary number theory helpers


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization ((p, e), ...) of n >= 1, p ascending, by trial
    division."""
    if n < 1:
        raise ValueError("need a positive integer")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_squarefree(n: int) -> bool:
    return n >= 1 and all(e == 1 for _, e in factorize(n))


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = n0 * m^2 with n0 squarefree; returns (n0, m)."""
    n0, m = 1, 1
    for p, e in factorize(n):
        n0 *= p ** (e % 2)
        m *= p ** (e // 2)
    return n0, m


def legendre_symbols(a: int, primes) -> np.ndarray:
    """The Legendre symbol (a|q), by Euler's criterion, for each odd prime q
    of primes, as one int64 array, by square-and-multiply; q < 2^31 keeps
    every product below 2^62."""
    q = np.asarray(primes, dtype=np.int64)
    if len(q) and (q.min() < 3 or q.max() >= 2 ** 31):
        raise ValueError("need odd primes q with 3 <= q < 2^31")
    base, exp, r = a % q, (q - 1) // 2, np.ones_like(q)
    while exp.any():
        r = np.where(exp & 1, r * base % q, r)
        base = base * base % q
        exp >>= 1
    return np.where(r == q - 1, -1, r)


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for arbitrary integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        t = 0
        while n % 2 == 0:
            n //= 2
            t += 1
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    if n != 1:
        return 0
    return sign * result


def is_admissible_disc(d: int) -> bool:
    """Whether any plane has discriminant -4d (d not 0, 7, 12, 15 mod 16)."""
    return d >= 1 and d % 16 not in (0, 7, 12, 15)


# ---------------------------------------------------------------------------
# sums of three squares


_sphere_table = lattice.NormTable(lattice.rows_by_norm(lattice.ball),
                                  lattice.NORM_LIMIT)


def warm_sphere_cache(nmax: int) -> None:
    _sphere_table.warm(nmax)


def sphere_points(n: int) -> np.ndarray:
    """Integer triples of norm exactly n, lexicographically sorted."""
    if n < 1:
        raise ValueError("norm must be positive")
    warm_sphere_cache(n)
    return _sphere_table.get(n)


def _r3_counts(nmax: int) -> np.ndarray:
    """Points of Z^3 of each norm 0..nmax: a bincount of the norms of each
    slab of `lattice.ball`, and 1 for the origin; no point is kept."""
    counts = np.zeros(nmax + 1, dtype=np.int64)
    for ns, _ in lattice.ball(nmax):
        counts += np.bincount(ns, minlength=nmax + 1)
    counts[0] = 1
    return counts


_r3_table = lattice.NormTable(_r3_counts, lattice.NORM_LIMIT)


def warm_r3_cache(nmax: int) -> None:
    """Ensure the three-square counts cover every norm up to nmax."""
    _r3_table.warm(nmax)


def r3(n: int) -> int:
    """Number of ways to write n as an ordered sum of three squares, read
    off the count table, which lists no point."""
    if n < 0:
        raise ValueError("norm must be nonnegative")
    warm_r3_cache(n)
    return int(_r3_table.get(n))


# ---------------------------------------------------------------------------
# plane counts


@dataclass(frozen=True)
class RepDecomposition:
    """Shape d = d0 * 4^e * f^2 with d0 squarefree and f odd, e in {0, 1}."""

    d: int
    d0: int
    e: int
    f: int

    def __post_init__(self):
        if self.d != self.d0 * 4 ** self.e * self.f ** 2:
            raise ValueError("inconsistent decomposition")
        if self.f % 2 == 0:
            raise ValueError("square part must be odd")
        if not is_squarefree(self.d0):
            raise ValueError("core must be squarefree")


def decompose(d: int) -> RepDecomposition:
    """Split an admissible d as d0 * 4^e * f^2; admissibility keeps f odd."""
    if not is_admissible_disc(d):
        raise ValueError(f"{d} is not an admissible discriminant over 4")
    e = 1 if d % 4 == 0 else 0
    rest = d // 4 ** e
    d0, f = squarefree_decompose(rest)
    return RepDecomposition(d=d, d0=d0, e=e, f=f)


def _exp_ef(p: int, n: int) -> int:
    # exponent rule of the divisor sum: squared factor iff p divides n
    return 2 if n % p == 0 else 1


def _divisors_of(f: int) -> list[tuple[int, int]]:
    """(divisor, number of distinct prime factors) pairs for all c | f."""
    divs = [(1, 0)]
    for p, e in factorize(f):
        divs = [(d * p ** k, w + (1 if k else 0))
                for d, w in divs for k in range(e + 1)]
    return divs


def f_sum(d0: int, f: int) -> Fraction:
    """f^2 times the divisor sum over c | f in the closed-form count."""
    if f < 1 or f % 2 == 0:
        raise ValueError("square part must be a positive odd integer")
    primes = [p for p, _ in factorize(f)]
    eps = {p: kronecker_symbol(-d0, p) for p in primes}
    total = Fraction(0)
    for c, omega in _divisors_of(f):
        term = Fraction(2 ** omega, c)
        fc = f // c
        for p in primes:
            term *= (1 - Fraction(eps[p], p)) ** _exp_ef(p, fc)
        total += term
    return f * f * total


def r24_formula(d: int) -> int:
    """Closed-form count of planes of discriminant -4d."""
    if d < 1:
        raise ValueError("need a positive integer")
    if not is_admissible_disc(d):
        return 0
    dec = decompose(d)
    cd = {0: Fraction(1, 3), 1: Fraction(1, 6),
          2: Fraction(1, 6), 3: Fraction(1, 2)}[d % 4]
    val = cd * r3(dec.d0) ** 2 * f_sum(dec.d0, dec.f)
    if val.denominator != 1:
        raise ArithmeticError(f"count came out non-integral at d={d}")
    return int(val)


def r24_oracle(d: int) -> tuple[int, int]:
    """Plane count by two independent enumerations: sign classes of
    primitive decomposable six-tuples of norm d, and Klein pairs of
    three-square vectors of norm d.  Returns (plucker_count, klein_count);
    the caller decides what a disagreement means."""
    from planes import klein

    return lattice.plane_count(d), klein.pair_count(d)


def rs3_coeffs(dmax: int) -> dict[int, int]:
    """Coefficients d -> r24(d) of the plane-count series, d = 3 mod 4 up to
    dmax; every other coefficient is zero."""
    if dmax < 0:
        raise ValueError("bound must be nonnegative")
    warm_r3_cache(dmax)
    return {d: r24_formula(d) for d in range(3, dmax + 1, 4)}
