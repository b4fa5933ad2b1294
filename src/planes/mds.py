"""Exact rational-function arithmetic for the Euler-product identities.

Everything symbolic lives in Laurent polynomials over Q in the fixed
variables p, y, x1, x2.  Rational functions keep their denominators as
factor lists; equality is decided by cross-multiplication, so no
polynomial GCDs are ever needed.  Series expansion is one division by
the product of the factors, which must be one monomial plus terms whose
capped exponents are all >= 0 and not all 0; every denominator here has
that shape.

The identity checks at the bottom return only what they computed;
`planes.suites` applies the tolerances and builds the reports.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from planes import repnum

VARS = ("p", "y", "x1", "x2")
_IDX = {v: i for i, v in enumerate(VARS)}
_ZERO_EXP = (0, 0, 0, 0)


class MultiPoly:
    """Laurent polynomial in p, y, x1, x2 with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for exp, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[tuple(exp)] = c
        self.terms = clean

    @staticmethod
    def _of(terms: dict) -> "MultiPoly":
        """Wrap a dict of nonzero Fraction terms without re-cleaning it."""
        res = MultiPoly.__new__(MultiPoly)
        res.terms = terms
        return res

    @staticmethod
    def const(c) -> "MultiPoly":
        return MultiPoly({_ZERO_EXP: Fraction(c)})

    @staticmethod
    def monomial(coeff, **exps) -> "MultiPoly":
        e = [0, 0, 0, 0]
        for v, k in exps.items():
            e[_IDX[v]] = k
        return MultiPoly({tuple(e): Fraction(coeff)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, Fraction(0)) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return MultiPoly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return MultiPoly.const(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return MultiPoly({})
            return MultiPoly._of({e: c * other for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                s = out.get(exp, Fraction(0)) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return MultiPoly._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers only via monomial()")
        out = MultiPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def subst_monomial(self, var: str, coeff, exps: dict | None = None) -> "MultiPoly":
        """Replace var by coeff * (monomial in the other variables)."""
        i = _IDX[var]
        coeff = Fraction(coeff)
        add = [0, 0, 0, 0]
        for v, k in (exps or {}).items():
            add[_IDX[v]] = k
        out: dict = {}
        for e, c in self.terms.items():
            k = e[i]
            if coeff == 0 and k < 0:
                raise ZeroDivisionError("substituting zero into a pole")
            nc = c * (coeff ** k if coeff else (1 if k == 0 else 0))
            if not nc:
                continue
            ne = list(e)
            ne[i] = 0
            for j in range(4):
                ne[j] += k * add[j]
            ne = tuple(ne)
            s = out.get(ne, Fraction(0)) + nc
            if s:
                out[ne] = s
            else:
                out.pop(ne, None)
        return MultiPoly._of(out)

    def truncate(self, caps: dict) -> "MultiPoly":
        idx = [(_IDX[v], m) for v, m in caps.items()]
        return MultiPoly._of({e: c for e, c in self.terms.items()
                              if all(e[i] <= m for i, m in idx)})

    def coefficient(self, **exps) -> "MultiPoly":
        """Terms matching the given exponents exactly, with those
        variables stripped out."""
        idx = {_IDX[v]: k for v, k in exps.items()}
        out = {}
        for e, c in self.terms.items():
            if all(e[i] == k for i, k in idx.items()):
                ne = tuple(0 if i in idx else e[i] for i in range(4))
                out[ne] = c
        return MultiPoly._of(out)

    def evaluate(self, assign: dict):
        vals = [assign[v] for v in VARS]
        total = None
        for e, c in self.terms.items():
            term = c if isinstance(vals[0], Fraction) else float(c)
            for v, k in zip(vals, e):
                if k:
                    term = term * v ** k
            total = term if total is None else total + term
        if total is None:
            return Fraction(0) if isinstance(vals[0], Fraction) else 0.0
        return total

    def sorted_terms(self):
        # graded lexicographic, deterministic across runs
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            factors = [str(c)] if abs(c) != 1 or not any(e) else []
            for v, k in zip(VARS, e):
                if k == 1:
                    factors.append(v)
                elif k:
                    factors.append(f"{v}^{k}")
            frag = "*".join(factors) or str(c)
            if c == -1 and any(e):
                frag = "-" + frag
            bits.append(frag)
        return " + ".join(bits).replace("+ -", "- ")


P = MultiPoly.monomial(1, p=1)
Y = MultiPoly.monomial(1, y=1)
X1 = MultiPoly.monomial(1, x1=1)
X2 = MultiPoly.monomial(1, x2=1)
ONE = MultiPoly.const(1)


@dataclass(frozen=True)
class RationalFn:
    """Numerator with a tuple of denominator factors, never reduced."""

    num: MultiPoly
    den: tuple = ()

    def subst(self, var: str, coeff, exps: dict | None = None) -> "RationalFn":
        return RationalFn(
            self.num.subst_monomial(var, coeff, exps),
            tuple(f.subst_monomial(var, coeff, exps) for f in self.den),
        )

    def evaluate(self, assign: dict):
        """num / den at the point assign, as `MultiPoly.evaluate` takes it."""
        return (self.num.evaluate(assign)
                / math.prod(f.evaluate(assign) for f in self.den))

    def den_product(self) -> MultiPoly:
        out = ONE
        for f in self.den:
            out = out * f
        return out

    def series(self, caps: dict) -> MultiPoly:
        """num / den with each capped exponent at most its cap, by one division
        by the denominator product: its base part (capped exponents all 0)
        must be one monomial c0*m0 and its tail must have capped exponents
        >= 0.  Terms are divided by c0*m0 lowest grade (capped sum) first."""
        capped = [_IDX[v] for v in caps]
        base, tail = [], []
        for e, c in self.den_product().terms.items():
            (tail if any(e[i] for i in capped) else base).append((e, c))
        if len(base) != 1:
            raise ValueError("denominator has no invertible base monomial")
        if any(e[i] < 0 for e, _ in tail for i in capped):
            raise ValueError("denominator tail lowers a capped exponent")
        (e0, c0), = base
        tail = [(e, -c / c0, sum(e[i] for i in capped)) for e, c in tail]
        rows: dict[int, dict] = {}
        for e, c in self.num.truncate(caps).terms.items():
            rows.setdefault(sum(e[i] for i in capped), {})[e] = c
        out = {}
        for g in range(min(rows, default=0), sum(caps.values()) + 1):
            for e, c in rows.pop(g, {}).items():
                if not c:
                    continue
                q = (e[0] - e0[0], e[1] - e0[1], e[2] - e0[2], e[3] - e0[3])
                out[q] = c / c0
                for et, ct, gt in tail:
                    ne = (q[0] + et[0], q[1] + et[1], q[2] + et[2], q[3] + et[3])
                    if all(ne[i] <= m for i, m in zip(capped, caps.values())):
                        row = rows.setdefault(g + gt, {})
                        row[ne] = row.get(ne, 0) + c * ct
        return MultiPoly._of(out)


def rf_equal(r1: RationalFn, r2: RationalFn) -> bool:
    return r1.num * r2.den_product() == r2.num * r1.den_product()


# ---------------------------------------------------------------------------
# the generating function H and its even/odd pieces


@cache
def h_fn() -> RationalFn:
    # the last coefficient must be +p: with -p the even part at
    # x1 = x2 = 1/p misses (1-y^2)(1-py^2) by 2py^4
    num = (ONE - X1 * Y - X2 * Y + X1 * X2 * Y + P * X1 * X2 * Y ** 2
           - P * X1 * X2 ** 2 * Y ** 2 - P * X1 ** 2 * X2 * Y ** 2
           + P * X1 ** 2 * X2 ** 2 * Y ** 3)
    den = (ONE - X1, ONE - X2, ONE - Y,
           ONE - P * X1 ** 2 * Y ** 2, ONE - P * X2 ** 2 * Y ** 2,
           ONE - P ** 2 * X1 ** 2 * X2 ** 2 * Y ** 2)
    return RationalFn(num, den)


def q_local(divides: bool) -> RationalFn:
    """Even (p not dividing) or odd (p dividing) part of H in y, the even
    case carrying the extra (1-x1)(1-x2)."""
    h = h_fn()
    num_plus = h.num * (ONE + Y)
    num_minus = h.num.subst_monomial("y", -1, {"y": 1}) * (ONE - Y)
    shared = (ONE - Y, ONE + Y,
              ONE - P * X1 ** 2 * Y ** 2, ONE - P * X2 ** 2 * Y ** 2,
              ONE - P ** 2 * X1 ** 2 * X2 ** 2 * Y ** 2)
    if divides:
        num = (num_plus - num_minus) * Fraction(1, 2)
        return RationalFn(num, (ONE - X1, ONE - X2) + shared)
    num = (num_plus + num_minus) * Fraction(1, 2)
    return RationalFn(num, shared)


# ---------------------------------------------------------------------------
# the p-part of the square-part sum and its closed form


def p_local(eps: int) -> RationalFn:
    """Closed form of the local square-part series, one of three cases."""
    if eps not in (-1, 0, 1):
        raise ValueError("eps must be one of -1, 0, 1")
    num = ONE + (eps * eps - 2 * eps) * Y ** 2 + (1 - 2 * eps) * P * Y ** 2 \
        + (eps * eps) * P * Y ** 4
    return RationalFn(num, (ONE - P * Y ** 2, ONE - P ** 2 * Y ** 2))


def lhs_local(eps: int) -> RationalFn:
    """P(y, eps) divided by the local zeta factors (1-y^2)(1-py^2)."""
    base = p_local(eps)
    return RationalFn(base.num, base.den + (ONE - Y ** 2, ONE - P * Y ** 2))


def closed_local(eps: int) -> RationalFn:
    """Fully simplified form of lhs_local, case by case."""
    if eps == 1:
        return RationalFn(ONE, (ONE - P * Y ** 2, ONE - P ** 2 * Y ** 2))
    if eps == 0:
        num = ONE + P * Y ** 2
    elif eps == -1:
        num = ONE + 3 * Y ** 2 + 3 * P * Y ** 2 + P * Y ** 4
    else:
        raise ValueError("eps must be one of -1, 0, 1")
    return RationalFn(num, (ONE - Y ** 2, ONE - P * Y ** 2,
                            ONE - P * Y ** 2, ONE - P ** 2 * Y ** 2))


def local_identity_sides(eps: int) -> tuple[RationalFn, RationalFn]:
    """The two sides of the local identity in case eps: lhs_local against
    the Euler factor of kind eps (`local_factors`) at y -> py."""
    return lhs_local(eps), local_factors()[eps].subst("y", 1, {"p": 1, "y": 1})


_NUMERIC_PRIMES = (3, 5, 7, 11, 13)
_SERIES_ORDER = 20


def _first_diff(lhs: RationalFn, rhs: RationalFn) -> str:
    diff = lhs.num * rhs.den_product() - rhs.num * lhs.den_product()
    terms = diff.sorted_terms()
    if not terms:
        return ""
    e, c = terms[0]
    return repr(MultiPoly({e: c}))


def verify_local_identity(order: int = _SERIES_ORDER) -> list[dict]:
    """Exact three-case check of the local factor identity, plus numeric
    series confirmation at small primes: one record per case eps."""
    if order < 2:
        raise ValueError("series order must be at least 2")
    cases = []
    for eps in (1, -1, 0):
        lhs, rhs = local_identity_sides(eps)
        entry = {
            "eps": eps,
            "symbolic": rf_equal(lhs, rhs),
            "closed_form": rf_equal(lhs_local(eps), closed_local(eps)),
            "numeric_primes": {
                str(pv): lhs.subst("p", pv).series({"y": order})
                == rhs.subst("p", pv).series({"y": order})
                for pv in _NUMERIC_PRIMES},
        }
        if not entry["symbolic"]:
            entry["mismatching_term"] = _first_diff(lhs, rhs)
        cases.append(entry)
    return cases


def f_sum_check(d0: int, fmax: int = 99) -> list[dict]:
    """The divisor-sum values against the Euler product of p_local,
    coefficient by coefficient over odd f: the odd f where they differ."""
    if d0 % 4 != 3 or not repnum.is_squarefree(d0):
        raise ValueError("need squarefree d0 = 3 mod 4")
    series_cache: dict = {}  # series by eps; y^2k coefficient at p by (eps, p, k)
    mismatches = []
    for f in range(1, fmax + 1, 2):
        lhs = repnum.f_sum(d0, f)
        rhs = Fraction(1)
        for p, k in repnum.factorize(f):
            eps = repnum.kronecker_symbol(-d0, p)
            if eps not in series_cache:
                series_cache[eps] = p_local(eps).series({"y": 2 * _max_pow(fmax)})
            if (eps, p, k) not in series_cache:
                coeff = series_cache[eps].coefficient(y=2 * k)
                at_p = dict.fromkeys(VARS, Fraction(0)) | {"p": Fraction(p)}
                series_cache[eps, p, k] = coeff.evaluate(at_p)
            rhs *= series_cache[eps, p, k]
        if lhs != rhs:
            mismatches.append({"f": f, "divisor_sum": str(lhs), "euler": str(rhs)})
    return mismatches


def _max_pow(fmax: int) -> int:
    # largest prime-power exponent that can occur below fmax (base 3)
    k = 1
    while 3 ** (k + 1) <= fmax:
        k += 1
    return k


# ---------------------------------------------------------------------------
# numerical checks: L-values and the assembled identity


_L_CHUNK = 2 ** 16  # most terms in one block of direct rows: a 512 KB buffer
_L_DIRECT_ROWS = 32  # rows of each residue column summed term by term
# B_2j / (2j), j = 1..4: the Euler-Maclaurin terms past the direct rows
_L_BERNOULLI = (1 / 12, -1 / 120, 1 / 252, -1 / 240)
L_TERMS = 10 ** 6  # terms of the character sum before the averaged tail


def _column_sums(d0: int, rows: int) -> np.ndarray:
    """sum_{k < rows} 1/(k d0 + r) for r = 1..d0, as `l_value_check` says."""
    r = np.arange(1, d0 + 1, dtype=np.float64)
    direct = min(rows, _L_DIRECT_ROWS)
    columns = np.zeros(d0)
    if rows > direct:
        u_a, u_b = d0 * direct + r, d0 * (rows - 1) + r
        v_a, v_b = d0 / u_a, d0 / u_b
        p_a = p_b = 0.0
        for c in reversed(_L_BERNOULLI):
            p_a, p_b = (p_a + c) * v_a ** 2, (p_b + c) * v_b ** 2
        columns += (np.log(u_b / u_a) + (v_a + v_b) / 2 + p_a - p_b) / d0
    buffer = np.empty((max(1, min(direct, _L_CHUNK // d0)), d0))
    for k in reversed(range(0, direct, len(buffer))):
        block = buffer[:direct - k]
        np.add(np.arange(k, k + len(block), dtype=np.float64)[:, None] * d0,
               r, out=block)
        columns += np.reciprocal(block, out=block)[::-1].sum(axis=0)
    return columns


def _character(d0: int) -> np.ndarray:
    """chi(a) = (-d0 | a) for a = 0..d0 - 1: the Jacobi symbol (a | d0), as
    -d0 = 1 mod 4 is a fundamental discriminant, so the product over the
    primes p of d0 of Euler's criterion a^((p-1)/2) mod p, for all a at once."""
    a, chi = np.arange(d0), np.ones(d0)
    for p, _ in repnum.factorize(d0):
        base, e, r = a % p, (p - 1) // 2, 1
        while e:
            r = r * base % p if e & 1 else r
            base, e = base * base % p, e >> 1
        chi *= np.where(r == p - 1, -1, r)
    return chi


def l_value_check(d0: int) -> dict:
    """Character-sum evaluation of L(1, chi_{-d0}) against the closed form
    pi * r3(d0) / (24 sqrt(d0)).  The sum is sum_{n <= L_TERMS} chi(n)/n
    plus a tail that averages the partial character sums over one period,
    so the error is far below the l-value suite's 1e-6 budget.

    The head is summed by residue rows, n = k d0 + r with r = 1..d0, into
    d0 column sums (`_column_sums`) that one dot product with chi(r)
    combines; the terms past the last whole row (fewer than d0) are summed
    one by one.  The rows a = _L_DIRECT_ROWS through b, the last whole
    row, of each column come from Euler-Maclaurin (Abramowitz & Stegun
    23.1.30) on f(k) = 1/(d0 k + r).  With u = d0 k + r, v = d0/u and
    P(w) = sum_j B_2j/(2j) w^j over _L_BERNOULLI, they sum to

        (1/d0) [ln(u_b/u_a) + (v_a + v_b)/2 + P(v_a^2) - P(v_b^2)].

    f is completely monotone, so the error is at most the first omitted
    term, |B_10|/10 a^-10 / d0 < 6.8e-18/d0 per column.  The rows before a
    are added to that term by term, smallest first, through one buffer of
    at most _L_CHUNK terms (one row when d0 is wider) a block of rows at a
    time, so each column lands within a few ulps of its correctly rounded
    sum."""
    if d0 <= 3 or d0 % 8 != 3 or not repnum.is_squarefree(d0):
        raise ValueError("need squarefree d0 = 3 mod 8, d0 > 3")
    chi = _character(d0)
    rows = L_TERMS // d0
    columns = _column_sums(d0, rows)
    n = np.arange(rows * d0 + 1, L_TERMS + 1)
    # chi(r) for r = 1..d0 is chi[1], ..., chi[d0 - 1], chi[0]
    head = math.fsum(columns * np.roll(chi, -1)) + float(np.sum(chi[n % d0] / n))
    partial = np.cumsum(chi[(L_TERMS + 1 + np.arange(d0 - 1)) % d0])
    tail_mean = (0.0 + float(partial.sum())) / d0
    lhs = head + tail_mean / (L_TERMS + 1)
    rhs = math.pi * repnum.r3(d0) / (24 * math.sqrt(d0))
    return {"d0": d0, "character_sum": lhs, "closed_form": rhs,
            "abs_diff": abs(lhs - rhs)}


def odd_primes_upto(limit: int) -> list[int]:
    if limit < 3:
        return []
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(math.isqrt(limit)) + 1):
        if sieve[q]:
            sieve[q * q::q] = False
    return [int(q) for q in np.flatnonzero(sieve) if q % 2 == 1]


def _zeta2_euler(s: float, primes: list[int]) -> float:
    out = 1.0
    for q in primes:
        out /= 1.0 - q ** (-s)
    return out


@cache
def local_factors() -> dict[int, RationalFn]:
    """The Euler factor of the global identity at a prime p, by kind, the
    symbol (-d0 | p), as a function of p and y = p^(1-w): the even part
    of `q_local` at x1 = x2 = kind/p for kind +-1, and for kind 0 (p | d0)
    the odd part at x1 = x2 = 1/p, over y, since p accounts for one odd
    power of d0: the odd part counts p-powers of d, not of d/d0."""
    at = {kind: q_local(kind == 0).subst("x1", kind or 1, {"p": -1})
          .subst("x2", kind or 1, {"p": -1}) for kind in (1, -1, 0)}
    return at | {0: RationalFn(at[0].num * MultiPoly.monomial(1, y=-1), at[0].den)}


# the sieve behind the Euler products takes prime_cutoff + 1 bytes, and
# every odd prime below it is a Python int; refuse a cutoff past this first
PRIME_CUTOFF_MAX = 10 ** 7


def rs3_identity_numeric(w: float, dmax: int, prime_cutoff: int = 10 ** 4) -> dict:
    """Both sides of the assembled identity, truncated, and their gap.

    Left: the plane-count series over d = 3 mod 4 times the odd-prime
    zeta factors; the constant is pi^2/128 because the d = 3 mod 4
    counts carry a factor 1/2 relative to the bare square-part sum.
    Right: the class of squarefree d0 = 3 mod 8, each weighted by
    r3(d0)^2 and the Euler product of local H factors.
    """
    if not 2 < w < math.inf:
        raise ValueError("need a finite w > 2 for convergence")
    if dmax < 3:
        raise ValueError("need dmax >= 3: no coefficient enters below d = 3")
    if prime_cutoff > PRIME_CUTOFF_MAX:
        raise ValueError(f"prime cutoff {prime_cutoff} is past {PRIME_CUTOFF_MAX}")
    if 3.0 ** -w < sys.float_info.min:
        raise ValueError(f"w = {w} is too large: the weight 3^-w of the "
                         "first coefficient underflows")
    primes = odd_primes_upto(prime_cutoff)
    q = np.array(primes, dtype=np.float64)
    # the factors hold no x1, x2; row kind + 1 is the factor of each prime
    at = {"p": q, "y": q ** (1 - w), "x1": 0.0, "x2": 0.0}
    factors = np.stack([local_factors()[kind].evaluate(at) for kind in (-1, 0, 1)])
    count_sum = sum(r * d ** (-w) for d, r in repnum.rs3_coeffs(dmax).items())
    lhs = (math.pi ** 2 / 128) * _zeta2_euler(2 * w, primes) \
        * _zeta2_euler(2 * w - 1, primes) * count_sum
    rhs = 0.0
    for d0 in range(3, dmax + 1, 8):
        if not repnum.is_squarefree(d0):
            continue
        kinds = repnum.legendre_symbols(-d0, primes)
        euler = float(np.prod(np.choose(kinds + 1, factors)))
        rhs += repnum.r3(d0) ** 2 * d0 ** (-w) * euler
    rhs *= (9 / 4) * (math.pi ** 2 / 576)
    return {"w": w, "dmax": dmax, "prime_cutoff": prime_cutoff,
            "lhs": lhs, "rhs": rhs, "rel_diff": abs(lhs - rhs) / max(lhs, rhs)}
