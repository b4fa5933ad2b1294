"""Output checks computed apart from the program.

Nothing here imports `planes`: every check recomputes what it needs from
first principles (brute force, the Plucker relation, group axioms, Gauss's
genus count) and compares it with a report the program produced.  Each
check returns a list of error strings; an empty list means the report
passed.
"""

from __future__ import annotations

from math import gcd, isqrt

import numpy as np

# ---------------------------------------------------------------------------
# brute-force plane counts


def brute_plane_counts(nmax: int) -> dict[int, int]:
    """Number of primitive, sign-normalised, decomposable integer 6-tuples
    (a, b, c, d, e, f) with a^2 + ... + f^2 = n, for every 1 <= n <= nmax.

    Walks the whole box [-R, R]^6, one slice of the first coordinate at a
    time, with no use of the program's enumeration.
    """
    R = isqrt(nmax)
    rng = np.arange(-R, R + 1, dtype=np.int64)
    rest = np.stack(np.meshgrid(rng, rng, rng, rng, rng, indexing="ij"),
                    axis=-1).reshape(-1, 5)
    rest_norm = (rest * rest).sum(axis=1)
    counts = np.zeros(nmax + 1, dtype=np.int64)
    for a in range(-R, R + 1):
        norm = a * a + rest_norm
        keep = (norm >= 1) & (norm <= nmax)
        rows, norm = rest[keep], norm[keep]
        b, c, d, e, f = rows.T
        full = np.column_stack([np.full(len(rows), a, dtype=np.int64), rows])
        decomposable = a * f - b * e + c * d == 0
        primitive = np.gcd.reduce(np.abs(full), axis=1) == 1
        lead = full[np.arange(len(full)), np.argmax(full != 0, axis=1)]
        ok = decomposable & primitive & (lead > 0)
        counts += np.bincount(norm[ok], minlength=nmax + 1)
    return {n: int(counts[n]) for n in range(1, nmax + 1)}


def r24_vanishes(d: int) -> bool:
    """No plane has norm d exactly when d mod 16 is 0, 7, 12 or 15."""
    return d % 16 in (0, 7, 12, 15)


# ---------------------------------------------------------------------------
# planes and Klein pairs


def _minors(u, v) -> list[int]:
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    return [u[i] * v[j] - u[j] * v[i] for i, j in pairs]


def check_planes(d: int, planes: list[dict]) -> list[str]:
    """Each plane's basis minors equal its Plucker vector, which is
    primitive, sign-normalised, of norm d and satisfies af - be + cd = 0;
    no plane repeats."""
    errors = []
    seen = set()
    for plane in planes:
        p = [int(x) for x in plane["plucker"]]
        tag = f"d={d} plane {p}"
        if len(p) != 6:
            errors.append(f"{tag}: not six coordinates")
            continue
        u, v = plane["basis"]
        if _minors(u, v) != p:
            errors.append(f"{tag}: basis minors {_minors(u, v)}")
        a, b, c, dd, e, f = p
        if a * f - b * e + c * dd != 0:
            errors.append(f"{tag}: Plucker relation fails")
        if gcd(*p) != 1:
            errors.append(f"{tag}: imprimitive")
        if not any(p) or next(x for x in p if x) < 0:
            errors.append(f"{tag}: not sign-normalised")
        if sum(x * x for x in p) != d:
            errors.append(f"{tag}: norm is not {d}")
        if plane.get("disc", -4 * d) != -4 * d:
            errors.append(f"{tag}: disc {plane['disc']}")
        if tuple(p) in seen:
            errors.append(f"{tag}: repeated")
        seen.add(tuple(p))
    return errors


def check_enumerate(payload: dict, brute: dict[int, int]) -> list[str]:
    d = payload["d"]
    errors = check_planes(d, payload["planes"])
    if payload["count"] != len(payload["planes"]):
        errors.append(f"enumerate d={d}: count {payload['count']} lists "
                      f"{len(payload['planes'])} planes")
    if d in brute and payload["count"] != brute[d]:
        errors.append(f"enumerate d={d}: {payload['count']} planes, "
                      f"brute force {brute[d]}")
    if r24_vanishes(d) != (payload["count"] == 0):
        errors.append(f"enumerate d={d}: count {payload['count']} breaks "
                      "the mod-16 vanishing rule")
    return errors


def check_klein(payload: dict, brute: dict[int, int]) -> list[str]:
    """Every pair has norm d on both sides, a1 = a2 mod 2, and no pair
    repeats; the pair count equals the plane count."""
    d = payload["d"]
    errors = []
    seen = set()
    for row in payload["pairs"]:
        a1, a2 = tuple(row["a1"]), tuple(row["a2"])
        tag = f"klein d={d} pair {a1} {a2}"
        if sum(x * x for x in a1) != d or sum(x * x for x in a2) != d:
            errors.append(f"{tag}: norm is not {d}")
        if any((x - y) % 2 for x, y in zip(a1, a2)):
            errors.append(f"{tag}: a1 and a2 differ mod 2")
        if (a1, a2) in seen:
            errors.append(f"{tag}: repeated")
        seen.add((a1, a2))
    if payload["count"] != len(payload["pairs"]):
        errors.append(f"klein d={d}: count {payload['count']} lists "
                      f"{len(payload['pairs'])} pairs")
    if d in brute and payload["count"] != brute[d]:
        errors.append(f"klein d={d}: {payload['count']} pairs, "
                      f"brute force {brute[d]} planes")
    return errors


def check_count(payload: dict, brute: dict[int, int]) -> list[str]:
    d = payload["d"]
    formula, oracle = payload["r24_formula"], payload["r24_oracle"]
    errors = []
    if not payload["agree"] or formula != oracle:
        errors.append(f"count d={d}: formula {formula} vs oracle {oracle}")
    if r24_vanishes(d) != (formula == 0):
        errors.append(f"count d={d}: r24 = {formula} breaks the mod-16 "
                      "vanishing rule")
    if d in brute and formula != brute[d]:
        errors.append(f"count d={d}: r24 = {formula}, brute force {brute[d]}")
    return errors


# ---------------------------------------------------------------------------
# class groups and genera


def gauss_genus_count(n: int) -> int:
    """Number of genera of primitive forms of discriminant -4n, 2^(mu-1)
    with mu as in Cox, Primes of the form x^2 + ny^2, Prop. 3.11."""
    r = 0
    m = n
    while m % 2 == 0:
        m //= 2
    p = 3
    while p * p <= m:
        if m % p == 0:
            r += 1
            while m % p == 0:
                m //= p
        p += 2
    if m > 1:
        r += 1
    if n % 4 == 3:
        mu = r
    elif n % 4 in (1, 2) or n % 8 == 4:
        mu = r + 1
    else:
        mu = r + 2
    return 2 ** (mu - 1)


def _principal(disc: int) -> list[int]:
    return [1, 0, -disc // 4] if disc % 4 == 0 else [1, 1, (1 - disc) // 4]


def check_classgroup(payload: dict) -> list[str]:
    """Reduced primitive forms of the discriminant; the table is an
    abelian group whose identity is the principal form; for disc = -4n the
    genera number 2^(mu-1) and partition the classes into equal cosets."""
    disc = payload["disc"]
    forms, table, genera = payload["forms"], payload["table"], payload["genera"]
    tag = f"classgroup {disc}"
    errors = []
    for a, b, c in forms:
        if b * b - 4 * a * c != disc or gcd(gcd(a, b), c) != 1:
            errors.append(f"{tag}: form {(a, b, c)} not primitive of this disc")
        if not (abs(b) <= a <= c) or (b < 0 and (-b == a or a == c)):
            errors.append(f"{tag}: form {(a, b, c)} not reduced")
    h = len(forms)
    if len({tuple(f) for f in forms}) != h:
        errors.append(f"{tag}: repeated form")
    T = np.array(table, dtype=np.int64)
    if T.shape != (h, h) or h == 0 or T.min() < 0 or T.max() >= h:
        return errors + [f"{tag}: table is not closed on {h} classes"]
    if _principal(disc) not in forms:
        return errors + [f"{tag}: principal form missing"]
    e = forms.index(_principal(disc))
    idx = np.arange(h)
    if not (np.array_equal(T[e], idx) and np.array_equal(T[:, e], idx)):
        errors.append(f"{tag}: principal form is not the identity")
    if not np.array_equal(T, T.T):
        errors.append(f"{tag}: table is not commutative")
    if not np.array_equal(T[T], T[idx[:, None, None], T[None, :, :]]):
        errors.append(f"{tag}: table is not associative")
    if not all((T[i] == e).any() for i in range(h)):
        errors.append(f"{tag}: some class has no inverse")
    members = sorted(i for g in genera for i in g)
    if members != list(range(h)) or len({len(g) for g in genera}) != 1:
        errors.append(f"{tag}: genera do not split the group into equal cosets")
    if disc % 4 == 0 and len(genera) != gauss_genus_count(-disc // 4):
        errors.append(f"{tag}: {len(genera)} genera, Gauss predicts "
                      f"{gauss_genus_count(-disc // 4)}")
    return errors


# ---------------------------------------------------------------------------
# the Dirichlet series and the verification suites


def check_series(payload: dict, r24: dict[int, int]) -> list[str]:
    """Coefficients sit on d = 3 mod 4 up to dmax, vanish by the mod-16
    rule, agree with the counts the run saw, and the identity passed."""
    errors = []
    dmax = payload["dmax"]
    coeffs = payload["coefficients"]
    if [d for d, _ in coeffs] != list(range(3, dmax + 1, 4)):
        errors.append("series: coefficients are not d = 3 mod 4 up to dmax")
    for d, v in coeffs:
        if r24_vanishes(d) != (v == 0):
            errors.append(f"series d={d}: {v} breaks the mod-16 vanishing rule")
        if d in r24 and r24[d] != v:
            errors.append(f"series d={d}: {v}, count query gave {r24[d]}")
    if payload["identity"]["status"] != "pass":
        errors.append("series: global identity failed")
    return errors


def check_suite(name: str, report: dict, bounds: dict) -> list[str]:
    """The suite passed, its failure list (where it keeps one) is empty,
    and it echoes each bound it was given (where it reports that bound)."""
    tag = f"suite {name}"
    errors = []
    if report.get("check") != name or report.get("status") != "pass":
        errors.append(f"{tag}: status {report.get('status')!r}")
    detail = report.get("detail", {})
    if detail.get("failures", []) != []:
        errors.append(f"{tag}: failures {detail['failures']}")
    for key, value in bounds.items():
        if key in detail and detail[key] != value:
            errors.append(f"{tag}: ran with {key}={detail[key]}, given {value}")
    for case in detail.get("cases", []):
        if not (case["symbolic"] and case["closed_form"]
                and all(case["numeric_primes"].values())):
            errors.append(f"{tag}: case eps={case['eps']} failed")
    return errors
