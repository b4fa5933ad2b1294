"""Named verification suites.

Each function returns a report dict {check, status, detail} and never
raises on a mathematical failure; exceptions are reserved for broken
inputs.  Every report, pass/fail judgement and tolerance lives here;
`planes.mds` returns only what it computed.  `_report` gives each detail
the suite's bounds, the first 20 failures and their `failure_count`.
The registry at the bottom is what the CLI dispatches on.
"""

from __future__ import annotations

import numpy as np

from planes import klein, lattice, mds, qform, repnum


def _report(name: str, failures: list, detail: dict) -> dict:
    detail = dict(detail, failures=failures[:20], failure_count=len(failures))
    return {"check": name,
            "status": "pass" if not failures else "fail",
            "detail": detail}


def _refuse_below(name: str, bound: int, first: int) -> None:
    """A bound below the suite's first checked case would pass unchecked."""
    if bound < first:
        raise ValueError(f"need {name} >= {first}: no case is checked below {first}")


def check_r24(dmax: int = 500) -> dict:
    """Closed formula against both enumerations, d up to dmax."""
    lattice.warm_count_cache(dmax)
    klein.warm_pair_cache(dmax)
    repnum.warm_r3_cache(dmax)
    failures = []
    for d in range(1, dmax + 1):
        formula = repnum.r24_formula(d)
        oracle, klein_count = repnum.r24_oracle(d)
        if oracle != klein_count:
            failures.append({"d": d, "plucker": oracle, "klein": klein_count})
            continue
        if formula != oracle:
            failures.append({"d": d, "formula": formula, "oracle": oracle})
        admissible = repnum.is_admissible_disc(d)
        if admissible != (oracle > 0):
            failures.append({"d": d, "admissible": admissible, "count": oracle})
    return _report("r24", failures, {"dmax": dmax, "checked": dmax})


def check_klein(nmax: int = 200) -> dict:
    """Plane-to-pair map is a bijection onto the characterized pair set."""
    lattice.warm_cache(nmax)
    repnum.warm_sphere_cache(nmax)
    failures = []
    for n in range(1, nmax + 1):
        rows = lattice.plucker_arrays(n)
        images = klein.klein_pairs(rows).reshape(-1, 6)
        images = images[lattice.lex_order(images)]
        # a sorted row starts a new image where it differs from the last
        distinct = min(len(images), 1) + int(np.diff(images, axis=0).any(axis=1).sum())
        pairs = klein.pair_array(n).reshape(-1, 6)
        if distinct != len(rows) or not np.array_equal(images, pairs):
            failures.append({"n": n, "planes": len(rows),
                             "distinct_images": distinct, "pairs": len(pairs)})
    return _report("klein", failures, {"nmax": nmax})


def check_orth(nmax: int = 200) -> dict:
    """The coordinate shuffle q of each plane p is the Plucker vector of its
    orthogonal complement: S(p) S(q) = 0 with q primitive and
    sign-normalized names exactly that plane (`lattice.skew_matrices`),
    and its disc -4|q|^2 equals the plane's."""
    lattice.warm_cache(nmax)
    failures = []
    for n in range(1, nmax + 1):
        rows = lattice.plucker_arrays(n)
        shuffles = lattice.complements(rows)
        skew_product = lattice.skew_matrices(rows) @ lattice.skew_matrices(shuffles)
        bad = (skew_product.any(axis=(1, 2)) | (lattice.lead_signs(shuffles) < 0)
               | (np.gcd.reduce(shuffles, axis=1) != 1)
               | ((shuffles * shuffles).sum(axis=1) != n))
        failures += [{"n": n, "plucker": tuple(p), "shuffle": tuple(q)}
                     for p, q in zip(rows[bad].tolist(), shuffles[bad].tolist())]
    return _report("orth", failures, {"nmax": nmax})


def check_local_identity(order: int = 20) -> dict:
    """The local factor identity in each case eps, symbolically, against
    its closed form and as series at small primes; a failure is the eps
    of a case where any of the three fails."""
    cases = mds.verify_local_identity(order=order)
    failures = [c["eps"] for c in cases
                if not (c["symbolic"] and c["closed_form"]
                        and all(c["numeric_primes"].values()))]
    return _report("local-identity", failures, {"order": order, "cases": cases})


def check_p_local(fmax: int = 99) -> dict:
    """Divisor-sum and Euler-product square-part series, term by term."""
    _refuse_below("fmax", fmax, 3)  # f = 1 is the empty product
    failures = []
    for d0 in (3, 11, 19):
        mismatches = mds.f_sum_check(d0, fmax)
        if mismatches:
            failures.append({"d0": d0, "fmax": fmax, "mismatches": mismatches})
    return _report("p-local", failures, {"fmax": fmax, "d0": [3, 11, 19]})


def check_class_number(dmax: int = 200) -> dict:
    """Three-squares counts against class numbers on both branches."""
    _refuse_below("dmax", dmax, 5)
    repnum.warm_r3_cache(dmax)
    failures = []
    for d0 in range(4, dmax + 1):
        if not repnum.is_squarefree(d0):
            continue
        if d0 % 8 == 3:
            expected = 24 * qform.class_group(-d0).order
        elif d0 % 4 in (1, 2):
            expected = 12 * qform.class_group(-4 * d0).order
        else:
            continue
        if repnum.r3(d0) != expected:
            failures.append({"d0": d0, "r3": repnum.r3(d0),
                             "class_number_prediction": expected})
    return _report("class-number", failures, {"dmax": dmax, "min_d0": 4})


# largest gap between the character sum and the closed form of L(1, chi)
L_VALUE_ATOL = 1e-6


def check_l_value(dmax: int = 200) -> dict:
    """The character sum of L(1, chi_{-d0}) against pi r3(d0)/(24 sqrt d0)
    for each squarefree d0 = 3 mod 8 from 11 to dmax, within L_VALUE_ATOL."""
    _refuse_below("dmax", dmax, 11)
    repnum.warm_r3_cache(dmax)
    failures = []
    worst = 0.0
    for d0 in range(11, dmax + 1, 8):
        if not repnum.is_squarefree(d0):
            continue
        values = mds.l_value_check(d0)
        worst = max(worst, values["abs_diff"])
        if not values["abs_diff"] < L_VALUE_ATOL:
            failures.append(values)
    return _report("l-value", failures, {"dmax": dmax, "worst_abs_diff": worst})


def _gauss_genus_failures(n: int) -> list[dict]:
    """Gauss's theorem at n, on `klein.genus_context`: each form orthogonal
    to a norm-n vector is a class of disc -4n, and they fill one genus."""
    group, partition, forms = klein.genus_context(n)
    failures = [{"n": n, "form": f, "why": f"not a class of disc {-4 * n}"}
                for f in forms if f not in group.index]
    genera = {partition.genus_of(group.index[f]) for f in forms if f in group.index}
    if len(genera) != 1:
        failures.append({"n": n, "distinct_genera": len(genera)})
    return failures


def check_gauss_genus(nmax: int = 200) -> dict:
    """All forms orthogonal to norm-n vectors land in a single genus, with
    the forms and the class group read off `klein.genus_context`."""
    repnum.warm_sphere_cache(nmax)
    failures = []
    for n in range(1, nmax + 1):
        if n % 4 in (1, 2) and repnum.is_squarefree(n):
            failures += _gauss_genus_failures(n)
    return _report("gauss-genus", failures, {"nmax": nmax})


def _refuse_past_int64(nmax: int) -> None:
    if nmax > lattice.NMAX_INT64:
        raise ValueError(f"nmax {nmax} is past the int64 bound {lattice.NMAX_INT64}")


def _norm_identity_ok(gens, gram_l, gram_w) -> np.ndarray:
    """N(sum x_a y_b g_ab) = Q_L(x) Q_W(y) as polynomials in x and y,
    compared on the symmetrised coefficients of each monomial, for each
    table of products g (..., 2, 2, 3) and Gram matrices (..., 2, 2)."""
    g, gl, gw = (np.asarray(x, dtype=np.int64) for x in (gens, gram_l, gram_w))
    dots = np.einsum("...abk,...cdk->...abcd", g, g)
    rhs = 2 * np.einsum("...ac,...bd->...abcd", gl, gw)
    return (dots + dots.swapaxes(-3, -1) == rhs).all(axis=(-4, -3, -2, -1))


def _spans_orthogonal(gens, a) -> np.ndarray:
    """Whether the vectors gens (N, m, 3) span the lattice a^perp of Z^3
    orthogonal to a (N, 3) != 0: each is orthogonal to a, and the gcd of
    their cross products is |a / content(a)| in each coordinate.  A basis
    of a^perp has cross product +-a / content(a), so for vectors in a^perp
    that gcd is |a / content(a)| times their index, or 0 below rank 2."""
    k, l = np.triu_indices(gens.shape[1], 1)
    cross = np.gcd.reduce(np.cross(gens[:, k], gens[:, l]), axis=1)
    primitive = np.abs(a) // np.gcd.reduce(a, axis=1, keepdims=True)
    return (~np.einsum("nmk,nk->nm", gens, a).any(axis=1)
            & (cross == primitive).all(axis=1))


def check_comp_ort(nmax: int = 150) -> dict:
    """Image lattices of the two multiplication maps, and the norm identity,
    in int64 on `lattice.plane_bases`: the products are below 4n, their
    cross products and the identity's terms below 32 n^2 (NMAX_INT64)."""
    _refuse_below("nmax", nmax, 5)
    _refuse_past_int64(nmax)
    lattice.warm_cache(nmax)
    failures = []
    for n in range(5, nmax + 1, 4):
        if not repnum.is_squarefree(n):
            continue
        rows = lattice.plucker_arrays(n)
        bases, comp = lattice.plane_bases(rows), lattice.complement_index(rows)
        gram = np.einsum("nak,nbk->nab", bases, bases)
        pairs = klein.klein_pairs(rows)
        maps = []  # per map: products, traced, spans a^perp, norm identity
        for which in (1, 2):
            prods = klein.mu_product_arrays(bases, bases[comp], which)
            gens = prods[..., 1:]
            maps.append((gens, prods[..., 0].any(axis=(1, 2)),
                         _spans_orthogonal(gens.reshape(-1, 4, 3), pairs[:, which - 1]),
                         _norm_identity_ok(gens, gram, gram[comp])))
        flagged = (comp < 0) | np.any([t | ~i | ~m for _, t, i, m in maps], axis=0)
        for k in np.flatnonzero(flagged).tolist():
            plucker = tuple(rows[k].tolist())
            if comp[k] < 0:
                failures.append({"n": n, "plucker": plucker,
                                 "why": "complement not among the planes"})
                continue
            for which, (gens, traced, image, identity) in enumerate(maps, 1):
                record = {"n": n, "which": which, "plucker": plucker}
                if traced[k]:
                    failures.append(record | {"why": "product is not traceless"})
                elif not image[k]:
                    failures.append({"n": n, "which": which,
                                     "image": lattice.hnf_rows(gens[k].reshape(4, 3)),
                                     "orthogonal": klein.orthogonal_lattice_z3(
                                         pairs[k, which - 1])})
                elif not identity[k]:
                    failures.append(record | {"why": "norm identity coefficients"})
    return _report("comp-ort", failures, {"nmax": nmax})


def check_pair_genus(nmax: int = 150) -> dict:
    """Observed (plane form, complement form) pairs equal the genus rule,
    both from `klein.class_pairs`, at each n where Gauss's theorem holds;
    where it fails, the gauss-genus records stand instead.  nmax may not
    pass NMAX_INT64."""
    _refuse_below("nmax", nmax, 5)
    _refuse_past_int64(nmax)
    lattice.warm_cache(nmax)
    failures = []
    for n in range(5, nmax + 1, 4):
        if not repnum.is_squarefree(n):
            continue
        judged = _gauss_genus_failures(n)
        if judged:
            failures += judged
            continue
        observed, predicted, lost = klein.class_pairs(n)
        failures += [{"n": n, "plucker": tuple(p),
                      "why": "complement not among the planes"}
                     for p in lost.tolist()]
        if observed != predicted:
            failures.append({"n": n, "observed": len(observed),
                             "predicted": len(predicted),
                             "observed_only": sorted(observed - predicted),
                             "predicted_only": sorted(predicted - observed)})
    return _report("pair-genus", failures, {"nmax": nmax})


def check_genus_structure(nmax: int = 300) -> dict:
    """Genus count equals the index of the squares and is a power of two."""
    if 4 * nmax > qform.DISC_LIMIT:
        raise ValueError(f"nmax {nmax} is past {qform.DISC_LIMIT // 4}: class group limit")
    failures = []
    for n in range(1, nmax + 1):
        group = qform.class_group(-4 * n)
        partition = qform.genus_partition(group)
        count = partition.count
        index = group.order // len(group.squares())
        if count != index or count & (count - 1):
            failures.append({"n": n, "genera": count, "index": index})
    return _report("genus-structure", failures, {"nmax": nmax})


# relative gap between the truncated sides below which the identity passes;
# scripts/identity_convergence.py prints how the gap shrinks with dmax
IDENTITY_RTOL = 1e-4


def check_global_identity(w: float = 4.0, dmax: int = 200,
                          prime_cutoff: int = 10 ** 4) -> dict:
    sides = mds.rs3_identity_numeric(w, dmax, prime_cutoff)
    failures = ([] if sides["rel_diff"] < IDENTITY_RTOL
                else [{"rel_diff": sides["rel_diff"], "rtol": IDENTITY_RTOL}])
    return _report("global-identity", failures, sides)


SUITES = {
    "r24": check_r24,
    "klein": check_klein,
    "orth": check_orth,
    "local-identity": check_local_identity,
    "p-local": check_p_local,
    "class-number": check_class_number,
    "l-value": check_l_value,
    "gauss-genus": check_gauss_genus,
    "comp-ort": check_comp_ort,
    "pair-genus": check_pair_genus,
    "genus-structure": check_genus_structure,
    "global-identity": check_global_identity,
}


def run_suite(name: str, **overrides) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](**overrides)
