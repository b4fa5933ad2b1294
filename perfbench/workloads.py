"""The three workloads, one round each.

A round builds its inputs from the seed, runs them against the program
through its public functions with the clock running, takes the peak RSS,
and only then checks every output with `checks`.  Rounds are run by
`one_round.py`, each in a fresh interpreter, so caches start cold as they do
for every CLI run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback

import checks

# plane-suites: the four per-plane suites at one reduced norm bound
PLANE_NMAX = 20
PLANE_SUITES = ("klein", "orth", "comp-ort", "pair-genus")

# count-queries: counts up to past the second doubling of the Plucker
# cache (64 -> 128 -> 256), a sparse seeded sample of the other queries
COUNT_DMAX = 256
CLASSGROUP_QUERIES = 32
CLASSGROUP_NMAX = 199
PAIR_POOL_DMAX = 16
SERIES_DMAX = 200
COUNT_BRUTE_NMAX = 48

# forms: class-group and series suites above their acceptance bounds, in
# the order of `verify all`
FORM_SUITES = (
    ("local-identity", {"order": 24}),
    ("p-local", {"fmax": 199}),
    ("class-number", {"dmax": 400}),
    ("l-value", {"dmax": 400}),
    ("gauss-genus", {"nmax": 300}),
    ("genus-structure", {"nmax": 399}),
    ("global-identity", {"dmax": 300}),
)


def is_squarefree(n: int) -> bool:
    return n >= 1 and all(n % (p * p) for p in range(2, int(n ** 0.5) + 1))


def _timed(ops):
    """Run (kind, thunk) pairs in order with the clock running.

    Returns the outputs (None where an operation raised), the per-call
    latencies, wall and CPU time, the peak RSS and the failure count.
    """
    outputs, latencies, failed = [], [], 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for kind, thunk in ops:
        t = time.perf_counter()
        try:
            out = thunk()
        except Exception:  # one failed operation must not end the round
            traceback.print_exc(file=sys.stderr)
            out = None
            failed += 1
        latencies.append([kind, (time.perf_counter() - t) * 1000])
        outputs.append(out)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return outputs, {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
                     "latencies": latencies, "attempted": len(ops),
                     "failed": failed}


def _suite_round(order, tracer):
    from planes import suites

    ops = [(name, lambda n=name, kw=kw: suites.run_suite(n, **kw))
           for name, kw in order]
    outputs, result = _timed(ops)
    if tracer:
        tracer.stop()
    errors = []
    for (name, kw), report in zip(order, outputs):
        if report is not None:
            errors += checks.check_suite(name, report, kw)
    return result, errors


# The suite workloads take no seeded input: a suite takes only its bound,
# and a seeded order would not change a round's work but would move it
# between suites (the first one fills the caches the others read), and
# with it the per-call latencies.


def plane_suites(seed: int, tracer=None) -> dict:
    specs = [(name, {"nmax": PLANE_NMAX}) for name in PLANE_SUITES]
    result, errors = _suite_round(specs, tracer)
    # every plane the suites walked, against brute force
    from planes import lattice

    brute = checks.brute_plane_counts(PLANE_NMAX)
    for n in range(1, PLANE_NMAX + 1):
        planes = [p.to_json_dict() for p in lattice.enumerate_planes(n)]
        errors += checks.check_enumerate(
            {"d": n, "count": len(planes), "planes": planes}, brute)
    every = sum(brute.values())
    theorem = sum(brute[n] for n in range(5, PLANE_NMAX + 1, 4)
                  if is_squarefree(n))
    result["items"] = 2 * every + 2 * theorem  # klein, orth; comp-ort, pair-genus
    result["errors"] = errors
    return result


def forms(seed: int, tracer=None) -> dict:
    result, errors = _suite_round(FORM_SUITES, tracer)
    bound = dict(FORM_SUITES)
    items = bound["genus-structure"]["nmax"]
    items += sum(1 for d in range(4, bound["class-number"]["dmax"] + 1)
                 if is_squarefree(d) and (d % 8 == 3 or d % 4 in (1, 2)))
    items += sum(1 for n in range(1, bound["gauss-genus"]["nmax"] + 1)
                 if n % 4 in (1, 2) and is_squarefree(n))
    items += sum(1 for d in range(11, bound["l-value"]["dmax"] + 1, 8)
                 if is_squarefree(d))
    items += 3  # p-local: d0 in 3, 11, 19
    items += sum(1 for d in range(3, bound["global-identity"]["dmax"] + 1, 8)
                 if is_squarefree(d))
    result["items"] = items
    result["errors"] = errors
    return result


def query_plan(seed: int) -> list[list[str]]:
    """Ascending count queries with the seeded sample slotted in between.

    The enumerate/klein pool is fixed; the seed splits it between the two
    commands, so every seed does the same planes' worth of work.
    """
    rng = random.Random(seed)
    extra = [["classgroup", "--disc", str(-4 * n)]
             for n in rng.sample(range(1, CLASSGROUP_NMAX + 1),
                                 CLASSGROUP_QUERIES)]
    pool = [d for d in range(1, PAIR_POOL_DMAX + 1)
            if not checks.r24_vanishes(d)]
    rng.shuffle(pool)
    half = len(pool) // 2
    extra += [["enumerate", "--disc", str(d)] for d in pool[:half]]
    extra += [["klein", "--disc", str(d)] for d in pool[half:]]
    extra.append(["series", "--dmax", str(SERIES_DMAX)])
    keyed = [(float(d), ["count", "--disc", str(d)])
             for d in range(1, COUNT_DMAX + 1)]
    keyed += [(rng.uniform(0, COUNT_DMAX), argv) for argv in extra]
    keyed.sort(key=lambda kv: kv[0])
    return [argv for _, argv in keyed]


def _dispatch(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.cmd_dispatch(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return buf.getvalue()


def count_queries(seed: int, tracer=None) -> dict:
    from planes import cli

    plan = query_plan(seed)
    outputs, result = _timed(
        [(argv[0], lambda a=argv: _dispatch(cli, a)) for argv in plan])
    if tracer:
        tracer.stop()
    brute = checks.brute_plane_counts(COUNT_BRUTE_NMAX)
    errors, r24, series = [], {}, []
    for argv, text in zip(plan, outputs):
        if text is None:
            continue
        payload = json.loads(text)
        cmd = argv[0]
        if cmd == "count":
            errors += checks.check_count(payload, brute)
            r24[payload["d"]] = payload["r24_formula"]
        elif cmd == "enumerate":
            errors += checks.check_enumerate(payload, brute)
        elif cmd == "klein":
            errors += checks.check_klein(payload, brute)
        elif cmd == "classgroup":
            errors += checks.check_classgroup(payload)
        else:
            series.append(payload)
    for payload in series:
        errors += checks.check_series(payload, r24)
    result["items"] = len(plan)
    result["errors"] = errors
    return result


WORKLOADS = {
    "plane-suites": plane_suites,
    "count-queries": count_queries,
    "forms": forms,
}
