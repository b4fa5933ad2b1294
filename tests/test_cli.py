"""End-to-end behavior of the planes command line."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from planes import klein, lattice, mds, qform, repnum, suites
from planes.cli import _COMMANDS, _build_parser, _render, cmd_dispatch


def run(capsys, *argv):
    code = cmd_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_holds_no_plane_rows():
    """`count --disc 500` peaks under 100 MB in a fresh interpreter; kept
    as a table of every Plucker row up to 512, it read 288 MB."""
    code = ("import contextlib, io, resource\n"
            "from planes import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.cmd_dispatch(['count', '--disc', '500'])\n"
            "print(status, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    # exec carries the peak RSS of the process it replaces into the new
    # one, so the measured interpreter is started by a small launcher, not
    # by this test process, whose own peak can pass 100 MB
    launch = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    env = dict(os.environ, PYTHONPATH=str(Path(suites.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", launch, sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, peak_kb = map(int, proc.stdout.split())
    assert status == 0
    assert peak_kb < 100 * 1024


@pytest.mark.parametrize("argv", [
    ["count", "--disc", "45"], ["enumerate", "--disc", "5"], ["klein", "--disc", "3"],
    ["classgroup", "--disc", "-84"], ["series", "--dmax", "15"],
    ["verify", "local-identity", "--order", "6"], ["verify", "l-value", "--dmax", "60"]])
def test_json_rendering_is_the_json_module_text(argv):
    """The JSON writer gives the bytes of `json.dumps(indent=2,
    sort_keys=True)` on the payload of each command."""
    args = _build_parser().parse_args(argv)
    payload, _ = _COMMANDS[args.command](args)
    assert _render(payload, args) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.1, 1e300, 2 ** 70, -2 ** 70,
    "caf\u00e9 \u2603 \U0001d11e", 'quote " backslash \\ tab \t newline \n nul \x00',
    "", [], {}, [[]], [{}], (1, 2), (1, "x", None), [1, True, 2], [False, 0],
    [1.0, 2], {"b": [3, [4, {}]], "a": None}, {3: "x", 1: "y"}, {2.5: 1, True: 0},
    {"x": {"y": [{"z": (True, False, None)}]}}])
def test_json_rendering_edge_values(value):
    """Edge values inside a payload render as `json` renders them."""
    payload = {"value": value, "list": [value], "n": 1}
    args = _build_parser().parse_args(["count", "--disc", "1"])
    assert _render(payload, args) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_json_rendering_refuses_what_json_refuses():
    args = _build_parser().parse_args(["count", "--disc", "1"])
    for payload in ({"x": object()}, {(1, 2): 3}, {1: 2, "a": 3}):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _render(payload, args)


def test_count_agreeing(capsys):
    code, out, err = run(capsys, "count", "--disc", "45")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"d": 45, "r24_formula": 768, "r24_oracle": 768,
                       "agree": True}


def test_count_empty_norm(capsys):
    code, out, _ = run(capsys, "count", "--disc", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["r24_formula"] == 0 and payload["r24_oracle"] == 0
    assert payload["agree"] is True


def test_count_text_format(capsys):
    code, out, _ = run(capsys, "count", "--disc", "45", "--format", "text")
    assert code == 0
    assert out == "r24(45) = 768 (formula) vs 768 (oracle): agree\n"


def test_count_csv_format(capsys):
    code, out, _ = run(capsys, "count", "--disc", "45", "--format", "csv")
    assert code == 0
    assert out == "d,r24_formula,r24_oracle,agree\n45,768,768,true\n"


def test_usage_errors(capsys):
    assert run(capsys, "count", "--disc", "0")[0] == 2
    assert run(capsys, "enumerate", "--disc", "-3")[0] == 2
    assert run(capsys, "klein", "--disc", "0")[0] == 2
    assert run(capsys, "count")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "verify", "bogus")[0] == 2
    assert run(capsys, "count", "--disc", "45", "--format", "yaml")[0] == 2
    assert run(capsys, "verify", "r24", "--dmax", "0")[0] == 2
    assert run(capsys, "series", "--w", "inf", "--dmax", "15")[0] == 2
    assert run(capsys, "series", "--w", "nan", "--dmax", "15")[0] == 2
    assert run(capsys, "verify", "global-identity", "--w", "nan")[0] == 2
    assert run(capsys, "verify", "global-identity", "--dmax", "2")[0] == 2
    assert run(capsys, "series", "--dmax", "2")[0] == 2
    assert run(capsys, "series", "--w", "700")[0] == 2
    assert run(capsys, "verify", "global-identity", "--w", "700")[0] == 2


@pytest.mark.parametrize("suite,flag,first", [
    ("l-value", "dmax", 11),
    ("comp-ort", "nmax", 5),
    ("pair-genus", "nmax", 5),
    ("class-number", "dmax", 5),
    ("p-local", "fmax", 3),
])
def test_bound_below_the_first_case_is_usage_error(capsys, suite, flag, first):
    # below its first case a suite would pass having checked nothing
    code, out, err = run(capsys, "verify", suite, f"--{flag}", str(first - 1))
    assert code == 2 and out == ""
    assert f"need {flag} >= {first}" in err
    assert run(capsys, "verify", suite, f"--{flag}", str(first))[0] == 0


def test_count_nonpositive_reports_reason(capsys):
    code, _, err = run(capsys, "count", "--disc", "-3")
    assert code == 2
    assert err.endswith("error: argument --disc: "
                        "expected a positive integer, got '-3'\n")


def test_enumerate_norm_one(capsys):
    code, out, _ = run(capsys, "enumerate", "--disc", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6 and len(payload["planes"]) == 6
    for p in payload["planes"]:
        assert p["disc"] == -4
        assert len(p["plucker"]) == 6 and len(p["basis"]) == 2


def test_enumerate_a_norm_without_planes(capsys):
    code, out, _ = run(capsys, "enumerate", "--disc", "7")
    assert code == 0
    assert json.loads(out) == {"d": 7, "count": 0, "planes": []}


def test_enumerate_csv_has_plucker_columns(capsys):
    code, out, _ = run(capsys, "enumerate", "--disc", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p12,p13,p14,p23,p24,p34,disc"
    assert len(lines) == 25  # header plus 24 planes


def test_klein_listing(capsys):
    code, out, _ = run(capsys, "klein", "--disc", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 32
    for row in payload["pairs"]:
        assert set(row) == {"plucker", "a1", "a2"}
        assert sum(c * c for c in row["a1"]) == 3


def test_classgroup_output(capsys):
    code, out, _ = run(capsys, "classgroup", "--disc", "-20")
    assert code == 0
    payload = json.loads(out)
    assert payload["disc"] == -20
    assert payload["forms"] == [[1, 0, 5], [2, 2, 3]]
    assert payload["genera"] == [[0], [1]]


def test_classgroup_text(capsys):
    code, out, _ = run(capsys, "classgroup", "--disc", "-84",
                       "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "disc -84: 4 classes, 4 genera"


def test_classgroup_rejects_positive(capsys):
    code, _, err = run(capsys, "classgroup", "--disc", "5")
    assert code == 2
    assert "discriminant" in err


def test_classgroup_past_the_disc_limit_is_refused_before_enumerating(
        capsys, monkeypatch):
    """A |disc| past `DISC_LIMIT` exits 2 before a form is enumerated, and
    so does genus-structure at an nmax that would reach one; the limit
    itself is a class group."""
    def refuse(n):
        raise AssertionError(f"enumerated to {n}")

    assert qform.class_group(-qform.DISC_LIMIT).order > 0
    monkeypatch.setattr(qform, "isqrt", refuse)
    for disc in (-qform.DISC_LIMIT - 3, -qform.DISC_LIMIT - 4, -4_000_004):
        code, out, err = run(capsys, "classgroup", "--disc", str(disc))
        assert code == 2 and out == ""
        assert "class group limit" in err
    past = str(qform.DISC_LIMIT // 4 + 1)
    code, out, err = run(capsys, "verify", "genus-structure", "--nmax", past)
    assert code == 2 and out == ""
    assert "class group limit" in err


def test_series_small_truncation_fails_identity(capsys):
    code, out, _ = run(capsys, "series", "--dmax", "20")
    assert code == 1
    payload = json.loads(out)
    assert payload["identity"]["status"] == "fail"
    assert payload["coefficients"][0] == [3, 32]


def test_series_default_passes(capsys):
    code, out, _ = run(capsys, "series")
    assert code == 0
    payload = json.loads(out)
    assert payload["dmax"] == 200 and payload["w"] == 4.0
    assert payload["identity"]["status"] == "pass"
    assert payload["identity"]["detail"]["rel_diff"] < 1e-4


def test_series_csv_is_coefficient_table(capsys):
    code, out, _ = run(capsys, "series", "--dmax", "15", "--format", "csv")
    assert code == 1  # truncation too coarse for the identity, table still out
    assert out.splitlines() == ["d,r24", "3,32", "7,0", "11,288", "15,0"]


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "r24", "--dmax", "60")
    assert code == 0
    payload = json.loads(out)
    assert payload["check"] == "r24" and payload["status"] == "pass"
    assert payload["detail"]["dmax"] == 60


def test_pair_genus_exits_1_with_the_gauss_genus_records(capsys, image_fault):
    reports = {}
    for name in ("gauss-genus", "pair-genus"):
        code, out, _ = run(capsys, "verify", name, "--nmax", "30")
        assert code == 1
        reports[name] = json.loads(out)
    records = reports["pair-genus"]["detail"]["failures"]
    assert records == [json.loads(json.dumps(image_fault(n))) for n in (5, 13, 17, 21, 29)]
    assert records == [r for r in reports["gauss-genus"]["detail"]["failures"]
                       if r["n"] % 4 == 1]


def test_series_refuses_a_large_prime_cutoff_before_the_sieve(capsys, monkeypatch):
    def refuse(limit):
        raise AssertionError(f"sieve to {limit} allocated")

    monkeypatch.setattr(mds, "odd_primes_upto", refuse)
    for cutoff in (mds.PRIME_CUTOFF_MAX + 1, 2 ** 31 - 1):
        code, out, err = run(capsys, "series", "--prime-cutoff", str(cutoff))
        assert code == 2 and out == ""
        assert "prime cutoff" in err


def test_norm_past_a_cache_limit_is_refused_before_any_fill(capsys, monkeypatch):
    """`count`, r24, the three-square forms suites and `series` past
    `NORM_LIMIT`, 10^5 among them, and `enumerate`, `klein` and a plane
    suite past `ROW_LIMIT` exit 2 before a block of any cache is read."""
    def refuse(nmax):
        raise AssertionError(f"filled to {nmax}")

    monkeypatch.setattr(lattice, "_plucker_counts",
                        lattice.NormTable(refuse, lattice.NORM_LIMIT))
    monkeypatch.setattr(lattice, "_plucker_table",
                        lattice.NormTable(refuse, lattice.ROW_LIMIT))
    monkeypatch.setattr(repnum, "_sphere_table",
                        lattice.NormTable(refuse, lattice.NORM_LIMIT))
    monkeypatch.setattr(repnum, "_r3_table",
                        lattice.NormTable(refuse, lattice.NORM_LIMIT))
    monkeypatch.setattr(klein, "_pair_table",
                        lattice.NormTable(refuse, lattice.NORM_LIMIT))
    past_rows, past_norms = str(lattice.ROW_LIMIT + 1), str(lattice.NORM_LIMIT + 1)
    for argv in (["count", "--disc", "100000"], ["count", "--disc", past_norms],
                 ["verify", "r24", "--dmax", past_norms],
                 ["verify", "class-number", "--dmax", past_norms],
                 ["verify", "l-value", "--dmax", past_norms],
                 ["verify", "global-identity", "--dmax", past_norms],
                 ["series", "--dmax", past_norms],
                 ["enumerate", "--disc", past_rows], ["klein", "--disc", past_rows],
                 ["verify", "orth", "--nmax", past_rows]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "the largest norm this table is filled to" in err


def test_verify_local_identity_order_flag(capsys):
    code, out, _ = run(capsys, "verify", "local-identity", "--order", "6")
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    assert run(capsys, "verify", "local-identity", "--order", "0")[0] == 2


def test_verify_text_format(capsys):
    code, out, _ = run(capsys, "verify", "p-local", "--format", "text")
    assert code == 0
    assert out == "p-local: pass\n"


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "enumerate", "--disc", "45")
    _, second, _ = run(capsys, "enumerate", "--disc", "45")
    assert first == second


def test_out_file_matches_stdout(capsys, tmp_path):
    _, direct, _ = run(capsys, "klein", "--disc", "5", "--format", "csv")
    target = tmp_path / "pairs.csv"
    code, out, err = run(capsys, "klein", "--disc", "5", "--format", "csv",
                         "--out", str(target))
    assert code == 0
    assert out == ""
    assert f"wrote {target}" in err
    assert target.read_text(encoding="utf-8") == direct


def test_out_file_that_cannot_be_written_is_an_error(capsys, tmp_path):
    target = tmp_path / "missing" / "pairs.csv"
    code, out, err = run(capsys, "klein", "--disc", "5", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_runconfig_validation(capsys):
    # the parsed namespace is the run config: the parser rejects what the
    # config must not hold, and fills in its defaults
    parser = _build_parser()
    for argv in (["verify", "nope"],
                 ["count", "--disc", "45", "--format", "yaml"],
                 ["verify", "r24", "--dmax", "0"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    cfg = parser.parse_args(["verify", "all"])
    assert cfg.command == "verify" and cfg.suite == "all"
    assert cfg.fmt == "json" and cfg.out is None


@pytest.mark.parametrize("argv,flag", [
    (["verify", "local-identity", "--nmax", "3"], "--nmax"),
    (["verify", "p-local", "--dmax", "9"], "--dmax"),
])
def test_flag_the_suite_does_not_take_is_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert flag in err


@pytest.fixture
def suite_calls(monkeypatch):
    """Every suite replaced by a passing stub of the same signature; maps
    each suite to the keyword arguments its stub received."""
    calls = {}
    for name, fn in list(suites.SUITES.items()):
        @functools.wraps(fn)
        def stub(*args, _name=name, **kwargs):
            assert not args
            calls[_name] = kwargs
            return {"check": _name, "status": "pass", "detail": {}}
        monkeypatch.setitem(suites.SUITES, name, stub)
    return calls


NMAX_SUITES = {"klein", "orth", "gauss-genus", "comp-ort", "pair-genus",
               "genus-structure"}
DMAX_SUITES = {"r24", "class-number", "l-value", "global-identity"}


def test_verify_all_passes_no_bounds(capsys, suite_calls):
    assert run(capsys, "verify", "all")[0] == 0
    assert suite_calls == {name: {} for name in suites.SUITES}


@pytest.mark.parametrize("flag,takers", [("nmax", NMAX_SUITES),
                                         ("dmax", DMAX_SUITES)])
def test_verify_all_routes_a_flag_to_every_taker(capsys, suite_calls,
                                                 flag, takers):
    assert run(capsys, "verify", "all", f"--{flag}", "5")[0] == 0
    assert suite_calls == {name: ({flag: 5} if name in takers else {})
                           for name in suites.SUITES}
