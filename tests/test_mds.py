"""Local generating function, square-part sums, and the assembled identity."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from planes import mds, repnum, suites
from planes.mds import (
    ONE,
    P,
    X1,
    X2,
    Y,
    MultiPoly,
    RationalFn,
    closed_local,
    f_sum_check,
    h_fn,
    l_value_check,
    lhs_local,
    local_identity_sides,
    odd_primes_upto,
    p_local,
    q_local,
    rf_equal,
    rs3_identity_numeric,
    verify_local_identity,
)


# ---------------------------------------------------------------------------
# polynomial plumbing


def test_multipoly_arithmetic():
    f = (ONE + X1) * (ONE - X1)
    assert f == ONE - X1 ** 2
    assert (ONE + Y) ** 2 == ONE + 2 * Y + Y ** 2
    assert P - P == MultiPoly.const(0)
    assert not (P - P)


def test_monomial_negative_exponents():
    inv = MultiPoly.monomial(1, p=-1)
    assert inv * P == ONE
    assert MultiPoly.monomial(Fraction(1, 2), p=-2).evaluate(
        {"p": Fraction(4), "x1": Fraction(0), "x2": Fraction(0),
         "y": Fraction(0)}) == Fraction(1, 32)


def test_subst_monomial_zero_into_pole():
    inv = MultiPoly.monomial(1, p=-1)
    with pytest.raises(ZeroDivisionError):
        inv.subst_monomial("p", 0)
    # zero into an ordinary variable just kills the terms
    assert (X1 + Y).subst_monomial("x1", 0) == Y


def test_coefficient_and_truncate():
    f = ONE + 3 * P * Y ** 2 + P ** 2 * Y ** 4
    assert f.coefficient(y=2) == 3 * P
    assert f.coefficient(y=3) == MultiPoly.const(0)
    assert f.truncate({"y": 2}) == ONE + 3 * P * Y ** 2


def test_series_inverts_denominator():
    geom = RationalFn(ONE, (ONE - Y,))
    assert geom.series({"y": 3}) == ONE + Y + Y ** 2 + Y ** 3
    with pytest.raises(ValueError, match="no invertible base monomial"):
        RationalFn(ONE, (Y,)).series({"y": 3})
    with pytest.raises(ValueError, match="no invertible base monomial"):
        # 1 - x1 has no y in it, so the whole product is its base part
        RationalFn(ONE, (ONE - X1,)).series({"y": 2})


def test_series_refuses_a_tail_that_lowers_a_capped_exponent():
    """y/x1 has grade 0, as the base monomial does, so lowest-grade-first
    division cannot order its terms: refused, although this one factor's
    expansion within the caps is finite."""
    fn = RationalFn(ONE, (ONE - MultiPoly.monomial(1, y=1, x1=-1),))
    with pytest.raises(ValueError, match="lowers a capped exponent"):
        fn.series({"y": 3, "x1": 3})


def _check_truncated_inverse(fn: RationalFn, caps: dict):
    """s is the series of fn under caps: s * den agrees with num inside
    the caps box, and s has no term outside it."""
    s = fn.series(caps)
    assert (s * fn.den_product()).truncate(caps) == fn.num.truncate(caps)
    assert s.truncate(caps) == s


@pytest.mark.parametrize("eps", [1, -1, 0])
def test_series_times_denominator_recovers_numerator(eps):
    _check_truncated_inverse(lhs_local(eps), {"y": 12})


@pytest.mark.parametrize("fn", [h_fn(), q_local(True), q_local(False)],
                         ids=["h", "q-divides", "q-coprime"])
def test_multi_cap_series_times_denominator_recovers_numerator(fn):
    _check_truncated_inverse(fn, {"x1": 4, "x2": 4, "y": 4})


def _to_sympy(sp, r: RationalFn):
    p, y, x1, x2 = sp.symbols("p y x1 x2")

    def poly(m: MultiPoly):
        return sp.Add(*(sp.Rational(c.numerator, c.denominator)
                        * p ** e[0] * y ** e[1] * x1 ** e[2] * x2 ** e[3]
                        for e, c in m.terms.items()))

    return poly(r.num) / sp.Mul(*(poly(f) for f in r.den))


@pytest.mark.parametrize("eps", [1, -1, 0])
def test_local_identity_series_agree_with_sympy(eps):
    """Second oracle for the division in `series`: sympy's own expansion
    of both sides of each local-identity case to y^24 at every numeric
    prime.  sympy expands the cancelled fraction, since on the factored one
    its series takes minutes."""
    sp = pytest.importorskip("sympy")
    y = sp.Symbol("y")
    for side in local_identity_sides(eps):
        for pv in (3, 5, 7, 11, 13):
            fn = side.subst("p", pv)
            ours = _to_sympy(sp, RationalFn(fn.series({"y": 24})))
            theirs = sp.series(sp.cancel(_to_sympy(sp, fn)), y, 0, 25).removeO()
            assert sp.expand(ours - theirs) == 0, (eps, pv)


def test_rf_equal_agrees_with_sympy_cancel():
    """Second oracle for cross-multiplication: sympy's cancel of the
    difference, on both checks of each local-identity case and on one
    perturbed numerator."""
    sp = pytest.importorskip("sympy")
    pairs = [(lhs_local(eps), closed_local(eps)) for eps in (1, -1, 0)]
    pairs += [local_identity_sides(eps) for eps in (1, -1, 0)]
    for r1, r2 in pairs:
        assert rf_equal(r1, r2)
        assert sp.cancel(_to_sympy(sp, r1) - _to_sympy(sp, r2)) == 0
    lhs, rhs = local_identity_sides(-1)
    bent = RationalFn(lhs.num + P * Y ** 3, lhs.den)
    assert not rf_equal(bent, rhs)
    assert sp.cancel(_to_sympy(sp, bent) - _to_sympy(sp, rhs)) != 0


def test_rf_equal_detects_difference():
    a = RationalFn(ONE, (ONE - Y,))
    b = RationalFn(ONE + Y, (ONE - Y ** 2,))
    c = RationalFn(ONE + Y, (ONE - Y,))
    assert rf_equal(a, b)
    assert not rf_equal(a, c)


# ---------------------------------------------------------------------------
# the generating function H


def test_h_series_boundary_rows():
    s = h_fn().series({"x1": 6, "x2": 0, "y": 10})
    for k in range(7):
        assert s.coefficient(x1=k, x2=0, y=0) == ONE
    for m in range(11):
        assert s.coefficient(x1=0, x2=0, y=m) == ONE


def test_h_is_symmetric_in_x1_x2():
    caps = {"x1": 4, "x2": 4, "y": 4}
    s = h_fn().series(caps)
    # exponent tuples run (p, y, x1, x2); swap the last two slots
    flipped = MultiPoly({(e[0], e[1], e[3], e[2]): c
                         for e, c in s.terms.items()})
    assert s == flipped


def test_h_is_built_once():
    assert h_fn() is h_fn()


def test_q_local_even_part_is_one_at_y_zero():
    q = q_local(divides=False)
    assert q.series({"x1": 0, "x2": 0, "y": 0}) == ONE


# ---------------------------------------------------------------------------
# local square-part series


def test_p_local_closed_numerators():
    assert p_local(1).num == (ONE - Y ** 2) * (ONE - P * Y ** 2)
    assert p_local(0).num == ONE + P * Y ** 2
    assert p_local(-1).num == ONE + 3 * Y ** 2 + 3 * P * Y ** 2 + P * Y ** 4
    with pytest.raises(ValueError):
        p_local(2)


@pytest.mark.parametrize("eps", [1, -1, 0])
def test_closed_local_agrees_with_lhs(eps):
    assert rf_equal(lhs_local(eps), closed_local(eps))


# ---------------------------------------------------------------------------
# the three-case local identity


def test_local_identity_passes():
    cases = {c["eps"]: c for c in verify_local_identity()}
    assert set(cases) == {1, -1, 0}
    for c in cases.values():
        assert c["symbolic"] and c["closed_form"]
        assert all(c["numeric_primes"].values())
        assert set(c["numeric_primes"]) == {"3", "5", "7", "11", "13"}


def test_local_identity_small_order():
    assert all(c["symbolic"] and c["closed_form"] and all(c["numeric_primes"].values())
               for c in verify_local_identity(order=4))
    with pytest.raises(ValueError):
        verify_local_identity(order=1)


@pytest.mark.parametrize("term, expected", [
    (MultiPoly.const(3), "3"),
    (MultiPoly.monomial(-1, p=1, y=2, x1=1), "-p*y^2*x1"),
    (MultiPoly.monomial(Fraction(-2, 3), p=2, y=3), "-2/3*p^2*y^3"),
])
def test_local_identity_failure_names_the_lowest_wrong_term(monkeypatch, term, expected):
    """Add a known term to the left side of the eps = -1 case.  Both
    denominators are 1 plus terms of degree >= 2, so the lowest term of
    the cross-multiplied difference is the added term itself."""
    sides = mds.local_identity_sides

    def perturbed(eps):
        lhs, rhs = sides(eps)
        if eps == -1:
            lhs = RationalFn(lhs.num + term * lhs.den_product(), lhs.den)
        return lhs, rhs

    monkeypatch.setattr(mds, "local_identity_sides", perturbed)
    report = suites.check_local_identity(order=4)
    assert report["status"] == "fail" and report["detail"]["failures"] == [-1]
    cases = {c["eps"]: c for c in report["detail"]["cases"]}
    assert cases[-1]["mismatching_term"] == expected
    assert not cases[-1]["symbolic"]
    assert all(cases[eps]["symbolic"] and "mismatching_term" not in cases[eps]
               for eps in (1, 0))


@pytest.mark.parametrize("power, numeric", [(4, False), (5, True)])
def test_local_identity_series_cap_is_inclusive(monkeypatch, power, numeric):
    """Add y^power to the left side of the eps = -1 case: at order 4 the
    series see y^4 at every prime and miss y^5, while the symbolic check
    sees both."""
    sides = mds.local_identity_sides

    def perturbed(eps):
        lhs, rhs = sides(eps)
        if eps == -1:
            lhs = RationalFn(lhs.num + Y ** power * lhs.den_product(), lhs.den)
        return lhs, rhs

    monkeypatch.setattr(mds, "local_identity_sides", perturbed)
    report = suites.check_local_identity(order=4)
    cases = {c["eps"]: c for c in report["detail"]["cases"]}
    assert report["status"] == "fail" and not cases[-1]["symbolic"]
    assert set(cases[-1]["numeric_primes"].values()) == {numeric}


# ---------------------------------------------------------------------------
# divisor sums against the Euler factors


@pytest.mark.parametrize("d0", [3, 11, 19])
def test_f_sum_check(d0):
    assert f_sum_check(d0, fmax=99) == []


def test_f_sum_check_validation():
    with pytest.raises(ValueError):
        f_sum_check(5)
    with pytest.raises(ValueError):
        f_sum_check(75)


# ---------------------------------------------------------------------------
# L-values


def test_l_value_check_small():
    values = l_value_check(11)
    assert values["abs_diff"] < suites.L_VALUE_ATOL
    assert values["closed_form"] == pytest.approx(
        math.pi / math.sqrt(11))


def _l_value_d0(dmax):
    return [d0 for d0 in range(11, dmax + 1, 8) if repnum.is_squarefree(d0)]


def test_l_value_character_is_the_kronecker_symbol():
    """The character table of `l_value_check`, from Euler's criterion at
    each prime of d0, is (-d0 | a) for every a < d0, at every squarefree
    d0 = 3 mod 8 up to 2000."""
    for d0 in [3, *_l_value_d0(2000)]:
        assert mds._character(d0).tolist() == [
            repnum.kronecker_symbol(-d0, a) for a in range(d0)], d0


def test_l_value_rejects_a_negated_prime_symbol(monkeypatch):
    """The symbol of one prime of d0 negated in the product negates the
    whole character table: l-value fails at every d0."""
    real = mds._character
    monkeypatch.setattr(mds, "_character", lambda d0: -real(d0))
    report = suites.check_l_value(dmax=200)
    assert report["status"] == "fail"
    assert [f["d0"] for f in report["detail"]["failures"]] == _l_value_d0(200)


@pytest.mark.parametrize("d0", [11, 19, 131, 395])
def test_l_value_chunked_sum_matches_one_shot(d0):
    """The chunked head sum against the whole L_TERMS-term array at once."""
    terms = mds.L_TERMS
    chi = np.array([repnum.kronecker_symbol(-d0, a) for a in range(d0)],
                   dtype=np.float64)
    n = np.arange(1, terms + 1)
    partial = np.cumsum(chi[(terms + 1 + np.arange(d0 - 1)) % d0])
    one_shot = (float(np.sum(chi[n % d0] / n))
                + float(partial.sum()) / d0 / (terms + 1))
    chunked = l_value_check(d0)["character_sum"]
    assert chunked == pytest.approx(one_shot, abs=1e-12)


@pytest.mark.parametrize("terms", [1000, 1001])
@pytest.mark.parametrize("d0", [11, 19, 131, 395, 1003])
def test_l_value_sum_is_the_exact_rational_sum(monkeypatch, d0, terms):
    """The row-blocked head plus the averaged tail against the same sum in
    Fractions, with blocks of at most 50 terms: several blocks and a short
    last one, a remainder and none (1001 = 91 * 11), a d0 wider than a
    block, and d0 > L_TERMS with no whole row."""
    monkeypatch.setattr(mds, "L_TERMS", terms)
    monkeypatch.setattr(mds, "_L_CHUNK", 50)
    chi = [repnum.kronecker_symbol(-d0, a) for a in range(d0)]
    head = sum(Fraction(chi[n % d0], n) for n in range(1, terms + 1))
    # partial sums over terms < m <= terms + j for j = 0..d0-1, averaged
    partial = itertools.accumulate(
        (chi[m % d0] for m in range(terms + 1, terms + d0)), initial=0)
    tail = Fraction(sum(partial), d0 * (terms + 1))
    assert l_value_check(d0)["character_sum"] == pytest.approx(
        float(head + tail), abs=1e-13)


def _fsum_columns(d0, rows):
    """Correctly rounded sum_{k < rows} 1/(k d0 + r) for r = 1..d0."""
    k = np.arange(rows, dtype=np.float64)[:, None]
    terms = 1.0 / (k * d0 + np.arange(1, d0 + 1))
    return [math.fsum(column) for column in terms.T.tolist()]


@pytest.mark.parametrize("d0", [11, 395, 1003, 8187])
def test_l_value_columns_match_correctly_rounded_sums(d0):
    """Each residue column, direct rows plus the Euler-Maclaurin remainder,
    within 4 ulps of the fsum of its terms: rows below, at and one past
    the direct rows, and the L_TERMS // d0 rows the check uses.  8187 is
    near the sphere-table limit that bounds --dmax, with several direct
    blocks of _L_CHUNK terms."""
    direct = mds._L_DIRECT_ROWS
    for rows in (direct - 1, direct, direct + 1, mds.L_TERMS // d0):
        ours = mds._column_sums(d0, rows)
        for got, want in zip(ours, _fsum_columns(d0, rows)):
            assert abs(got - want) <= 4 * math.ulp(want), (rows, got, want)


@pytest.mark.parametrize("d0", [11, 19, 131, 395])
def test_l_value_character_sum_matches_fsum_of_all_terms(d0):
    """The whole check against fsum of all L_TERMS terms plus the averaged
    tail, far tighter than the one-shot comparison."""
    terms = mds.L_TERMS
    chi = np.array([repnum.kronecker_symbol(-d0, a) for a in range(d0)],
                   dtype=np.float64)
    n = np.arange(1, terms + 1)
    partial = np.cumsum(chi[(terms + 1 + np.arange(d0 - 1)) % d0])
    reference = (math.fsum((chi[n % d0] / n).tolist())
                 + float(partial.sum()) / d0 / (terms + 1))
    assert l_value_check(d0)["character_sum"] == pytest.approx(
        reference, abs=4e-15)


@pytest.mark.parametrize("d0", [11, 395])
def test_l_value_every_correction_term_is_visible(monkeypatch, d0):
    """With 8 direct rows the first omitted term is |B_10|/10 8^-10 / d0
    = 7.0e-12/d0 per column, while the smallest kept one, B_8/8 v^8 / d0
    with v >= 1/9, is at least 9.7e-11/d0.  A tolerance of 2.1e-11/d0
    between them fails on any kept term dropped or sign-flipped, on the
    half-sum dropped, and on the seam row counted twice or skipped."""
    monkeypatch.setattr(mds, "_L_DIRECT_ROWS", 8)
    rows = mds.L_TERMS // d0
    tol = 3 * 8.0 ** -10 / 132 / d0
    ours = mds._column_sums(d0, rows)
    for got, want in zip(ours, _fsum_columns(d0, rows)):
        assert got == pytest.approx(want, rel=0, abs=tol)


def _bernoulli(m):
    b = [Fraction(1)]
    for j in range(1, m + 1):
        b.append(-sum(math.comb(j + 1, i) * b[i] for i in range(j)) / (j + 1))
    return b[m]


def test_l_value_remainder_bound_guard():
    """The kept terms are B_2j/(2j), and the first omitted one at the
    direct-row seam stays below 1e-17 per column at d0 = 11."""
    kept = mds._L_BERNOULLI
    for j, c in enumerate(kept, 1):
        assert c == pytest.approx(float(_bernoulli(2 * j) / (2 * j)), rel=1e-15)
    m = 2 * len(kept) + 2
    omitted = abs(_bernoulli(m)) / m * Fraction(1, mds._L_DIRECT_ROWS ** m) / 11
    assert omitted < Fraction(1, 10 ** 17)


@pytest.mark.parametrize("d0", [11, 395])
def test_l_value_check_memory_is_bounded(d0):
    """The head sum holds one block buffer of _L_CHUNK float64 terms
    (512 KB), so one call peaks below 1 MB."""
    repnum.r3(d0)  # the r3 table is built outside the measurement
    tracemalloc.start()
    try:
        l_value_check(d0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


def test_l_value_check_rejects_out_of_scope():
    for bad in (3, 7, 75):
        with pytest.raises(ValueError):
            l_value_check(bad)


@pytest.mark.parametrize("d0", [11, 19, 43, 59])
def test_l_value_closed_form_matches_character_average(d0):
    """Finite character average: L(1, chi) = -pi d0^(-3/2) * sum a chi(a)."""
    chi = [repnum.kronecker_symbol(-d0, a) for a in range(d0)]
    finite = -math.pi / (d0 * math.sqrt(d0)) * sum(
        a * chi[a % d0] for a in range(1, d0))
    closed = math.pi * repnum.r3(d0) / (24 * math.sqrt(d0))
    assert finite == pytest.approx(closed, abs=1e-12)


# ---------------------------------------------------------------------------
# the assembled global identity


def test_odd_primes_upto():
    assert odd_primes_upto(10) == [3, 5, 7]
    assert odd_primes_upto(2) == []
    assert odd_primes_upto(30)[-1] == 29


def _factor_from_definition(kind: int, q: int, w: int) -> Fraction:
    """The Euler factor at q from `q_local`, evaluated in Fractions at p = q
    and y = q^(1-w); kind 0 is the odd part at x1 = x2 = 1/q, over y."""
    x, y = Fraction(kind or 1, q), Fraction(1, q ** (w - 1))
    rf = q_local(divides=(kind == 0))
    value = rf.evaluate({"p": Fraction(q), "y": y, "x1": x, "x2": x})
    return value / y if kind == 0 else value


@pytest.mark.parametrize("w", [3, 4, 10, 30, 90])
def test_local_factor_is_q_local(w):
    """`local_factors` evaluated in floats over an array of primes, as the
    numeric identity evaluates it, against the exact definition."""
    primes = odd_primes_upto(10 ** 4)
    cases = [(kind, q) for q in odd_primes_upto(300) for kind in (-1, 0, 1)]
    cases += [(kind, q) for q in primes[::40] + primes[-1:] for kind in (-1, 1)]
    qs = np.array([q for _, q in cases], dtype=np.float64)
    at = {"p": qs, "y": qs ** (1 - w), "x1": 0.0, "x2": 0.0}
    got = {kind: mds.local_factors()[kind].evaluate(at) for kind in (-1, 0, 1)}
    for i, (kind, q) in enumerate(cases):
        exact = _factor_from_definition(kind, q, w)
        assert abs(got[kind][i] - float(exact)) <= 2e-15 * abs(exact), (kind, q)


def test_identity_numeric_coarse():
    assert rs3_identity_numeric(4.0, 3)["rel_diff"] < 1e-2


@pytest.mark.parametrize("w", [10.0, 30.0, 90.0, 600.0])
def test_identity_numeric_holds_at_large_w(w):
    """At large w the d0 = 3 term dominates and y = q^(1-w) is tiny; the
    factors must not lose it to cancellation or underflow."""
    sides = rs3_identity_numeric(w, 200)
    assert sides["rel_diff"] < suites.IDENTITY_RTOL, sides


def test_identity_numeric_rejects_small_w():
    with pytest.raises(ValueError):
        rs3_identity_numeric(2.0, 100)
    with pytest.raises(ValueError):
        rs3_identity_numeric(1.5, 100)
    with pytest.raises(ValueError):
        rs3_identity_numeric(math.inf, 100)
    with pytest.raises(ValueError):
        rs3_identity_numeric(math.nan, 100)
    with pytest.raises(ValueError):
        rs3_identity_numeric(700.0, 100)
