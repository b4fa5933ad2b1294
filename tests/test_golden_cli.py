"""Byte-exact CLI outputs against committed golden files.

Each case runs one command line in process and compares its stdout with
`tests/golden/<name>.out` byte for byte, and its exit code with the one
listed here.  Regenerate the files (only when an output change is meant)
with

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from planes.cli import cmd_dispatch

GOLDEN = Path(__file__).with_name("golden")
FORMATS = ("json", "csv", "text")

# (golden file stem, argv, exit code)
CASES = [
    ("count-45", ["count", "--disc", "45"], 0),
    ("count-7", ["count", "--disc", "7"], 0),
    *((f"{cmd}-{fmt}", [cmd, "--disc", disc, "--format", fmt], 0)
      for cmd, disc in (("enumerate", "5"), ("klein", "3"),
                        ("classgroup", "-84"))
      for fmt in FORMATS),
    *((f"series-15-{fmt}", ["series", "--dmax", "15", "--format", fmt], 1)
      for fmt in FORMATS),
    ("series-default", ["series"], 0),
    *((f"verify-{name}-{fmt}", ["verify", *args, "--format", fmt], 0)
      for name, args in (("r24", ["r24", "--dmax", "60"]),
                         ("klein", ["klein", "--nmax", "10"]),
                         ("local-identity", ["local-identity", "--order", "6"]),
                         ("p-local", ["p-local"]))
      for fmt in ("json", "text")),
]


def _run(argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cmd_dispatch(list(argv))
    return code, buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, code):
    got_code, got = _run(argv)
    assert got_code == code
    assert got == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CASES:
        got_code, got = _run(argv)
        if got_code != code:
            sys.exit(f"{name}: exit {got_code}, expected {code}")
        (GOLDEN / f"{name}.out").write_bytes(got)
    print(f"wrote {len(CASES)} files to {GOLDEN}")
