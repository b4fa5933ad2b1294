"""Command-line front end.

Subcommands cover enumeration (count, enumerate, klein), class groups
(classgroup), the Dirichlet series with its global identity (series), and
the named verification suites (verify).  Output is JSON by default, with
CSV for the flat tables and a plain text mode.  Exit codes: 0 success,
1 a verification failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii

from . import klein, lattice, qform, repnum, suites

_PLUCKER_COLS = ("p12", "p13", "p14", "p23", "p24", "p34")


@functools.cache
def _suite_bounds() -> dict[str, dict[str, object]]:
    """Each suite's bounds and their defaults, read off its signature.

    The signatures are the one place that says which flags `verify` takes
    and where each goes; `inspect.signature` sees through wrappers that
    set `__wrapped__`.
    """
    return {name: {p.name: p.default
                   for p in inspect.signature(fn).parameters.values()}
            for name, fn in suites.SUITES.items()}


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _add_bound(parser, name: str, like, **kwargs) -> None:
    """A flag for one suite bound, typed after the bound's signature default
    `like`: integer bounds must be positive."""
    kind = _positive if type(like) is int else type(like)
    parser.add_argument("--" + name.replace("_", "-"), dest=name, type=kind,
                        **kwargs)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process, on import (the
    first argparse help string imports `locale` through gettext): parsing
    leaves it unchanged, so every `cmd_dispatch` reuses it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", dest="fmt", choices=("json", "csv", "text"),
                        default="json", help="output format (default json)")
    common.add_argument("--out", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")

    parser = argparse.ArgumentParser(
        prog="planes",
        description="Primitive rank-2 sublattices of Z^4: plane counts, "
                    "Klein pairs, class groups, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = sub.add_parser("count", parents=[common],
                       help="count planes of norm D by formula and by oracle")
    p.add_argument("--disc", type=_positive, required=True, metavar="D",
                   help="positive plane norm (lattice discriminant is -4D)")

    p = sub.add_parser("enumerate", parents=[common],
                       help="list all primitive planes of norm D")
    p.add_argument("--disc", type=_positive, required=True, metavar="D")

    p = sub.add_parser("klein", parents=[common],
                       help="Klein pairs of all planes of norm D")
    p.add_argument("--disc", type=_positive, required=True, metavar="D")

    p = sub.add_parser("classgroup", parents=[common],
                       help="form class group of a negative discriminant")
    p.add_argument("--disc", type=int, required=True, metavar="D",
                   help="negative discriminant, e.g. -20")

    p = sub.add_parser("series", parents=[common],
                       help="Dirichlet coefficients and the global identity "
                            "(defaults as in verify global-identity)")
    for name, default in _suite_bounds()["global-identity"].items():
        _add_bound(p, name, default, default=default,
                   help=f"default {default}")

    p = sub.add_parser("verify", parents=[common],
                       help="run one verification suite, or all of them")
    p.add_argument("suite", choices=sorted(suites.SUITES) + ["all"],
                   metavar="SUITE",
                   help="one of: " + ", ".join(sorted(suites.SUITES) + ["all"]))
    takers: dict[str, list[str]] = {}
    for suite, bounds in _suite_bounds().items():
        for name in bounds:
            takers.setdefault(name, []).append(suite)
    for name, names in takers.items():
        # absent unless given, so each suite keeps its own default
        _add_bound(p, name, _suite_bounds()[names[0]][name],
                   default=argparse.SUPPRESS,
                   help="taken by " + ", ".join(names))

    return parser


def _cmd_count(args: argparse.Namespace) -> tuple[dict, int]:
    d = args.disc
    formula = repnum.r24_formula(d)
    oracle, klein_count = repnum.r24_oracle(d)
    if oracle != klein_count:
        payload = {"d": d, "r24_formula": formula, "r24_oracle": None,
                   "agree": False, "error": f"oracles disagree at d={d}: "
                   f"plucker={oracle}, klein={klein_count}"}
        return payload, 1
    agree = formula == oracle
    payload = {"d": d, "r24_formula": formula, "r24_oracle": oracle,
               "agree": agree}
    return payload, 0 if agree else 1


def _cmd_enumerate(args: argparse.Namespace) -> tuple[dict, int]:
    d = args.disc
    planes = lattice.enumerate_planes(d)
    payload = {"d": d, "count": len(planes),
               "planes": [p.to_json_dict() for p in planes]}
    return payload, 0


def _cmd_klein(args: argparse.Namespace) -> tuple[dict, int]:
    d = args.disc
    plucker = lattice.plucker_arrays(d)
    rows = [{"plucker": p, "a1": a1, "a2": a2}
            for p, (a1, a2) in zip(plucker.tolist(),
                                   klein.klein_pairs(plucker).tolist())]
    payload = {"d": d, "count": len(rows), "pairs": rows}
    return payload, 0


def _cmd_classgroup(args: argparse.Namespace) -> tuple[dict, int]:
    return qform.class_group(args.disc).to_json_dict(), 0


def _cmd_series(args: argparse.Namespace) -> tuple[dict, int]:
    coeffs = repnum.rs3_coeffs(args.dmax)
    identity = suites.check_global_identity(args.w, args.dmax, args.prime_cutoff)
    payload = {"dmax": args.dmax, "w": args.w,
               "coefficients": [[d, v] for d, v in coeffs.items()],
               "identity": identity}
    return payload, 0 if identity["status"] == "pass" else 1


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    given = {k: v for k, v in vars(args).items()
             if any(k in bounds for bounds in _suite_bounds().values())}
    for key in given:
        if not any(key in _suite_bounds()[name] for name in names):
            raise ValueError(f"--{key.replace('_', '-')} is not a bound of "
                             f"suite {args.suite}")
    reports = [suites.run_suite(name, **{k: v for k, v in given.items()
                                         if k in _suite_bounds()[name]})
               for name in names]
    ok = all(r["status"] == "pass" for r in reports)
    if args.suite != "all":
        return reports[0], 0 if ok else 1
    payload = {"suite": "all", "status": "pass" if ok else "fail",
               "reports": reports}
    return payload, 0 if ok else 1


_COMMANDS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "klein": _cmd_klein,
    "classgroup": _cmd_classgroup,
    "series": _cmd_series,
    "verify": _cmd_verify,
}


# --------------------------------------------------------------------------
# rendering


def _genus_of(payload: dict) -> list[int]:
    """Genus of each form of a classgroup payload, in form order."""
    genus = [0] * len(payload["forms"])
    for gi, coset in enumerate(payload["genera"]):
        for i in coset:
            genus[i] = gi
    return genus


def _csv_table(payload: dict, cmd: str) -> tuple[list[str], list[list]]:
    if cmd == "count":
        header = ["d", "r24_formula", "r24_oracle", "agree"]
        row = [payload["d"], payload["r24_formula"], payload["r24_oracle"],
               str(payload["agree"]).lower()]
        return header, [row]
    if cmd == "enumerate":
        header = list(_PLUCKER_COLS) + ["disc"]
        return header, [p["plucker"] + [p["disc"]] for p in payload["planes"]]
    if cmd == "klein":
        header = list(_PLUCKER_COLS) + ["a1_i", "a1_j", "a1_k",
                                        "a2_i", "a2_j", "a2_k"]
        return header, [r["plucker"] + r["a1"] + r["a2"]
                        for r in payload["pairs"]]
    if cmd == "classgroup":
        return ["a", "b", "c", "genus"], [
            form + [g] for form, g in zip(payload["forms"], _genus_of(payload))]
    if cmd == "series":
        return ["d", "r24"], [list(pair) for pair in payload["coefficients"]]
    if cmd == "verify":
        reports = payload.get("reports", [payload])
        return ["suite", "status"], [[r["check"], r["status"]] for r in reports]
    raise ValueError(f"no csv table for {cmd}")


def _render_csv(payload: dict, cmd: str) -> str:
    header, rows = _csv_table(payload, cmd)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _render_text(payload: dict, cmd: str) -> str:
    lines = []
    if cmd == "count":
        verdict = "agree" if payload["agree"] else "DISAGREE"
        lines.append(f"r24({payload['d']}) = {payload['r24_formula']} (formula)"
                     f" vs {payload['r24_oracle']} (oracle): {verdict}")
    elif cmd == "enumerate":
        lines.append(f"{payload['count']} planes of norm {payload['d']} "
                     f"(lattice disc {-4 * payload['d']})")
        for p in payload["planes"]:
            lines.append("  " + str(tuple(p["plucker"])))
    elif cmd == "klein":
        lines.append(f"{payload['count']} planes of norm {payload['d']}")
        for r in payload["pairs"]:
            lines.append(f"  {tuple(r['plucker'])} -> "
                         f"a1={tuple(r['a1'])} a2={tuple(r['a2'])}")
    elif cmd == "classgroup":
        n_classes = len(payload["forms"])
        lines.append(f"disc {payload['disc']}: {n_classes} classes, "
                     f"{len(payload['genera'])} genera")
        for form, g in zip(payload["forms"], _genus_of(payload)):
            lines.append(f"  {tuple(form)}  genus {g}")
    elif cmd == "series":
        for d, v in payload["coefficients"]:
            lines.append(f"  d={d} r24={v}")
        idn = payload["identity"]
        det = idn["detail"]
        lines.append(f"identity at w={det['w']}: lhs={det['lhs']:.10g} "
                     f"rhs={det['rhs']:.10g} rel={det['rel_diff']:.3g} "
                     f"[{idn['status']}]")
    elif cmd == "verify":
        reports = payload.get("reports", [payload])
        for r in reports:
            mark = "pass" if r["status"] == "pass" else "FAIL"
            lines.append(f"{r['check']}: {mark}")
            if r["status"] != "pass":
                lines.append("  " + json.dumps(r["detail"], sort_keys=True))
        if "reports" in payload:
            lines.append(f"all: {payload['status']}")
    else:
        raise ValueError(f"no text rendering for {cmd}")
    return "\n".join(lines) + "\n"


def _scalar(o) -> str:
    """JSON text of None, a bool, an int or a float, spelled as `json` does
    (NaN, Infinity and -Infinity included)."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write_json(o, pad: str, out: list) -> None:
    """Append to out the pieces of `json.dumps(o, indent=2, sort_keys=True)`
    at indent pad, without `json`'s pure-Python indenting encoder: a list
    of plain ints is one join."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = pad + "  "
        if all(type(v) is int for v in o):
            out.append("[\n" + inner + (",\n" + inner).join(map(int.__repr__, o))
                       + "\n" + pad + "]")
            return
        sep = "[\n" + inner
        for v in o:
            out.append(sep)
            sep = ",\n" + inner
            _write_json(v, inner, out)
        out.append("\n" + pad + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in sorted(o.items()):
            key = k if isinstance(k, str) else _scalar(k)
            out.append(sep + encode_basestring_ascii(key) + ": ")
            sep = ",\n" + inner
            _write_json(v, inner, out)
        out.append("\n" + pad + "}")
    else:
        out.append(_scalar(o))


def _render(payload: dict, args: argparse.Namespace) -> str:
    if args.fmt == "json":
        out = []
        _write_json(payload, "", out)
        out.append("\n")
        return "".join(out)
    if args.fmt == "csv":
        return _render_csv(payload, args.command)
    return _render_text(payload, args.command)


def cmd_dispatch(argv=None) -> int:
    """Parse argv, run one subcommand, emit the report.

    Returns the process exit code instead of raising SystemExit so that
    tests can call it directly.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        payload, code = _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = _render(payload, args)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return code


_build_parser()


def main() -> None:
    sys.exit(cmd_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
