"""Each output check accepts a real report and rejects a corrupted one.

    python3 -m pytest perfbench -q

The real reports come from the program itself (`planes` under `src`);
each test then breaks one fact of the report and expects the check to
name it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from planes import cli, suites  # noqa: E402

BRUTE = checks.brute_plane_counts(24)


def _cli(*argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.cmd_dispatch(list(argv)) == 0
    return json.loads(buf.getvalue())


def test_brute_force_reproduces_known_counts():
    assert [BRUTE[n] for n in (1, 2, 3, 5)] == [6, 24, 32, 96]
    assert all(BRUTE[n] == 0 for n in BRUTE if checks.r24_vanishes(n))


def test_count_check_rejects_wrong_count_and_broken_vanishing():
    good = _cli("count", "--disc", "5")
    assert checks.check_count(good, BRUTE) == []
    wrong = dict(good, r24_formula=95, r24_oracle=95)
    assert checks.check_count(wrong, BRUTE)
    # d = 23 is 7 mod 16: a nonzero count there breaks the rule
    vanishing = {"d": 23, "r24_formula": 4, "r24_oracle": 4, "agree": True}
    assert any("mod-16" in e for e in checks.check_count(vanishing, {}))
    disagree = dict(good, r24_oracle=94, agree=False)
    assert checks.check_count(disagree, BRUTE)


def test_enumerate_check_rejects_bad_planes():
    good = _cli("enumerate", "--disc", "6")
    assert checks.check_enumerate(good, BRUTE) == []

    bad = copy.deepcopy(good)
    bad["planes"][0]["basis"][0][0] += 1
    assert any("minors" in e for e in checks.check_enumerate(bad, BRUTE))

    bad = copy.deepcopy(good)
    bad["planes"][1] = copy.deepcopy(bad["planes"][0])
    assert any("repeated" in e for e in checks.check_enumerate(bad, BRUTE))

    bad = copy.deepcopy(good)
    del bad["planes"][-1]
    bad["count"] -= 1
    assert any("brute force" in e for e in checks.check_enumerate(bad, BRUTE))

    # one valid plane of norm 2 is not all 24 of them
    bad = {"d": 2, "count": 1, "planes": [
        {"plucker": [1, 1, 0, 0, 0, 0], "basis": [[1, 0, 0, 0], [0, 1, 1, 0]],
         "disc": -8}]}
    assert any("brute force" in e for e in checks.check_enumerate(bad, BRUTE))
    # (1, 0, 0, 0, 0, 1) fails the relation a*f - b*e + c*d = 0
    bad = {"d": 2, "count": 1, "planes": [
        {"plucker": [1, 0, 0, 0, 0, 1], "basis": [[1, 0, 0, 0], [0, 1, 0, 0]],
         "disc": -8}]}
    errors = checks.check_planes(2, bad["planes"])
    assert any("relation" in e for e in errors)
    # (2, 0, 0, 0, 0, 0) is imprimitive
    bad = [{"plucker": [2, 0, 0, 0, 0, 0], "basis": [[2, 0, 0, 0], [0, 1, 0, 0]],
            "disc": -16}]
    assert any("imprimitive" in e for e in checks.check_planes(4, bad))


def test_klein_check_rejects_bad_pairs():
    good = _cli("klein", "--disc", "6")
    assert checks.check_klein(good, BRUTE) == []

    bad = copy.deepcopy(good)
    bad["pairs"][0]["a1"][0] += 2
    assert any("norm" in e for e in checks.check_klein(bad, BRUTE))

    bad = copy.deepcopy(good)
    bad["pairs"][1] = copy.deepcopy(bad["pairs"][0])
    assert any("repeated" in e for e in checks.check_klein(bad, BRUTE))

    parity = {"d": 1, "count": 1,
              "pairs": [{"plucker": [1, 0, 0, 0, 0, 0],
                         "a1": [1, 0, 0], "a2": [0, 1, 0]}]}
    assert any("mod 2" in e for e in checks.check_klein(parity, {}))


def test_classgroup_check_rejects_broken_groups():
    assert checks.gauss_genus_count(5) == 2
    assert checks.gauss_genus_count(21) == 4
    assert checks.gauss_genus_count(8) == 2
    good = _cli("classgroup", "--disc", "-84")
    assert len(good["forms"]) == 4
    assert checks.check_classgroup(good) == []

    bad = copy.deepcopy(good)
    bad["table"][1][2], bad["table"][1][3] = bad["table"][1][3], bad["table"][1][2]
    assert checks.check_classgroup(bad)

    bad = copy.deepcopy(good)
    bad["forms"][0], bad["forms"][1] = bad["forms"][1], bad["forms"][0]
    assert any("identity" in e for e in checks.check_classgroup(bad))

    bad = copy.deepcopy(good)
    bad["genera"] = [sorted(i for g in good["genera"][:2] for i in g),
                     *good["genera"][2:]]
    assert any("genera" in e for e in checks.check_classgroup(bad))

    bad = copy.deepcopy(good)
    bad["genera"] = [[0, 1], [2, 3]]
    assert any("Gauss" in e for e in checks.check_classgroup(bad))


def test_series_check_rejects_wrong_coefficients():
    good = _cli("series", "--dmax", "200")
    r24 = {d: _cli("count", "--disc", str(d))["r24_formula"]
           for d in range(3, 201, 4)}
    assert checks.check_series(good, r24) == []

    bad = copy.deepcopy(good)
    bad["coefficients"][2][1] += 1
    assert checks.check_series(bad, r24)

    bad = copy.deepcopy(good)
    bad["identity"]["status"] = "fail"
    assert any("identity" in e for e in checks.check_series(bad, r24))


@pytest.mark.parametrize("name, kw", [("orth", {"nmax": 6}),
                                      ("p-local", {"fmax": 15}),
                                      ("local-identity", {"order": 4})])
def test_suite_check_rejects_failures_and_wrong_bounds(name, kw):
    good = suites.run_suite(name, **kw)
    assert checks.check_suite(name, good, kw) == []

    bad = copy.deepcopy(good)
    bad["status"] = "fail"
    assert checks.check_suite(name, bad, kw)

    if "failures" in good["detail"]:
        bad = copy.deepcopy(good)
        bad["detail"]["failures"] = [{"n": 1}]
        assert checks.check_suite(name, bad, kw)
    key = next(iter(kw))
    if key in good["detail"]:
        bad = copy.deepcopy(good)
        bad["detail"][key] += 1
        assert any("given" in e for e in checks.check_suite(name, bad, kw))
    if "cases" in good["detail"]:
        bad = copy.deepcopy(good)
        bad["detail"]["cases"][0]["symbolic"] = False
        assert checks.check_suite(name, bad, kw)


def test_query_plan_is_seeded_and_keeps_its_mix():
    plan = workloads.query_plan(3)
    assert plan == workloads.query_plan(3)
    assert plan != workloads.query_plan(4)
    kinds = [argv[0] for argv in plan]
    assert kinds.count("count") == workloads.COUNT_DMAX
    assert kinds.count("classgroup") == workloads.CLASSGROUP_QUERIES
    assert kinds.count("series") == 1
    counts = [int(argv[2]) for argv in plan if argv[0] == "count"]
    assert counts == sorted(counts)
    pool = sorted(int(argv[2]) for argv in plan
                  if argv[0] in ("enumerate", "klein"))
    assert pool == sorted(int(argv[2]) for argv in workloads.query_plan(4)
                          if argv[0] in ("enumerate", "klein"))


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == tracing.metrics()


def test_traced_round_sees_calls_through_every_binding():
    out = HERE.parent / ".bench_out"
    out.mkdir(exist_ok=True)
    spans = out / "spans-test.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "one_round.py"), "--workload",
         "plane-suites", "--seed", "0", "--spans", str(spans)],
        capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(proc.stdout.splitlines()[-1])
    layers = result["layers"]
    assert result["errors"] == [] and result["failed"] == 0
    # suites binds integer_kernel and enumerate_planes by name, and
    # SUITES holds the check_* functions: all must be seen
    assert layers["lattice.integer_kernel.calls"] > 0
    assert layers["lattice.enumerate_planes.calls"] > 0
    assert layers["suites.check_orth.total_s"] > 0
    assert layers["quaternion.Quaternion.__mul__.calls"] > 0
    assert layers["lattice.Plane.from_plucker.per_plane"] > 1
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"name", "start", "end", "parent"}
