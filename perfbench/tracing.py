"""Per-module tracing from outside the program.

`Tracer.install` wraps the public functions listed in `LAYERS` and binds
each wrapper in every namespace of the `planes` package that holds the
original: module globals (so `from planes.lattice import integer_kernel`
in `suites` is caught too), module-level dicts such as `suites.SUITES`,
and class attributes for methods.  A wrapper records one span per call
(name, start, end, parent span) in flat arrays kept in memory; `write`
dumps them as JSON lines when the round ends.  `Quaternion.__mul__` is
only counted, since a span per product would cost more than the product.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import statistics
import sys
import time
from array import array

import numpy as np

CTS = ("calls", "total_s", "self_s")
CT = ("calls", "total_s")
CTR = ("calls", "total_s", "rss_mb")

# (module of planes, qualified name, stats reported)
LAYERS = (
    ("lattice", "warm_cache", CTR),
    ("lattice", "enumerate_planes", CTS),
    ("lattice", "Plane.from_plucker", CTS + ("per_plane",)),
    ("lattice", "integer_kernel", CTS),
    ("lattice", "row_hnf", CTS),
    ("quaternion", "Quaternion.__mul__", ("calls",)),
    ("klein", "klein_map", ("calls", "self_s")),
    ("klein", "mu_image", ("calls", "self_s")),
    ("klein", "pair_count", CT),
    ("klein", "pairs_for_norm", CT),
    ("klein", "gauss_map", CT),
    ("klein", "genus_context", CT),
    ("qform", "class_group", CTS + ("repeat_ratio",)),
    ("qform", "compose", CTS),
    ("qform", "reduce", CTS),
    ("qform", "genus_partition", CTS),
    ("repnum", "warm_sphere_cache", CTR),
    ("repnum", "r24_formula", CTR),
    ("repnum", "r24_oracle", CTR),
    ("repnum", "r3", CTR),
    ("mds", "verify_local_identity", CT),
    ("mds", "f_sum_check", CT),
    ("mds", "l_value_check", CT),
    ("mds", "rs3_identity_numeric", CT),
    *(("suites", f"check_{s}", ("total_s", "self_s")) for s in (
        "klein", "orth", "comp_ort", "pair_genus", "genus_structure",
        "class_number", "gauss_genus", "l_value", "local_identity",
        "p_local", "global_identity")),
    ("cli", "cmd_dispatch", ("calls", "self_s", "p50_ms")),
)
CLI_COMMANDS = ("count", "enumerate", "klein", "classgroup", "series")
UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "rss_mb": "MB",
         "per_plane": "ratio", "repeat_ratio": "ratio", "p50_ms": "ms"}
OVERHEAD = "trace.overhead_s"


def _plane_key(cls, p):
    coords = tuple(p.coords)
    lead = next((x for x in coords if x), 0)
    return coords if lead > 0 else tuple(-x for x in coords)


# distinct-argument keys behind the ratios and the per-command latencies
KEYS = {
    "lattice.Plane.from_plucker": _plane_key,
    "qform.class_group": lambda disc: disc,
    "cli.cmd_dispatch": lambda argv=None: argv[0] if argv else None,
}


def metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [(f"{mod}.{qual}.{stat}", UNITS[stat])
           for mod, qual, stats in LAYERS for stat in stats]
    out += [(f"cli.{cmd}.p50_ms", "ms") for cmd in CLI_COMMANDS]
    out.append((OVERHEAD, "s"))
    return out


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.rss_kb: dict[str, int] = {}
        self.keys: dict[str, list] = {}
        self.active = False

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for mod_name, qual, stats in LAYERS:
            mod = importlib.import_module(f"planes.{mod_name}")
            name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr,
                            classmethod(self._wrap(name, raw.__func__, stats)))
                else:
                    setattr(cls, attr, self._wrap(name, raw, stats))
            else:
                orig = getattr(mod, qual)
                _rebind(orig, self._wrap(name, orig, stats))
        self.active = True

    def stop(self) -> None:
        self.active = False

    def _wrap(self, name: str, fn, stats):
        self.calls[name] = 0
        if stats == ("calls",):
            def counted(*args, **kwargs):
                if self.active:
                    self.calls[name] += 1
                return fn(*args, **kwargs)
            return functools.update_wrapper(counted, fn)

        index = len(self.names)
        self.names.append(name)
        key = KEYS.get(name)
        keys = self.keys.setdefault(name, [])
        rss = "rss_mb" in stats
        self.rss_kb[name] = 0
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            if key is not None:
                keys.append(key(*args, **kwargs))
            span = len(self.span_start)
            self.span_name.append(index)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_end.append(0.0)
            before = _maxrss_kb() if rss else 0
            self.stack.append(span)
            self.span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[span] = clock()
                self.stack.pop()
                if rss:
                    self.rss_kb[name] += _maxrss_kb() - before
        return functools.update_wrapper(traced, fn)

    # -- results ------------------------------------------------------------

    def _spans(self):
        name = np.array(self.span_name, dtype=np.int32)
        parent = np.array(self.span_parent, dtype=np.int32)
        start = np.array(self.span_start, dtype=np.float64)
        end = np.array(self.span_end, dtype=np.float64)
        return name, parent, start, end

    def stats(self) -> dict[str, float]:
        """Per-layer values of one traced round, keyed as in `metrics()`.
        Self time is a span's duration minus that of its child spans."""
        name, parent, start, end = self._spans()
        dur = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested],
                               minlength=len(dur))
        width = len(self.names)
        total = np.bincount(name, weights=dur, minlength=width)
        own = np.bincount(name, weights=dur - children, minlength=width)
        out: dict[str, float] = {}
        for mod_name, qual, stats in LAYERS:
            label = f"{mod_name}.{qual}"
            calls = self.calls[label]
            i = self.names.index(label) if label in self.names else -1
            keys = self.keys.get(label, [])
            ratio = calls / len(set(keys)) if keys else 0.0
            values = {
                "calls": calls,
                "total_s": float(total[i]) if i >= 0 else 0.0,
                "self_s": float(own[i]) if i >= 0 else 0.0,
                "rss_mb": self.rss_kb.get(label, 0) / 1024,
                "per_plane": ratio,
                "repeat_ratio": ratio,
                "p50_ms": _p50_ms(dur[name == i]) if i >= 0 else 0.0,
            }
            for stat in stats:
                out[f"{label}.{stat}"] = values[stat]
        dispatch = self.names.index("cli.cmd_dispatch")
        dispatch_ms = dur[name == dispatch]
        commands = self.keys["cli.cmd_dispatch"]
        for cmd in CLI_COMMANDS:
            picked = [t for t, c in zip(dispatch_ms, commands) if c == cmd]
            out[f"cli.{cmd}.p50_ms"] = _p50_ms(picked)
        return out

    def write(self, path) -> None:
        """Dump every span as one JSON line: name, start, end, parent."""
        name, parent, start, end = self._spans()
        with open(path, "w", encoding="utf-8") as fh:
            for n, p, s, e in zip(name.tolist(), parent.tolist(),
                                  start.tolist(), end.tolist()):
                fh.write(json.dumps({"name": self.names[n], "start": s,
                                     "end": e, "parent": p}) + "\n")


def _p50_ms(durations) -> float:
    return statistics.median(durations) * 1000 if len(durations) else 0.0


def _rebind(orig, wrapper) -> None:
    """Replace `orig` by `wrapper` wherever a planes module binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "planes" and not mod_name.startswith("planes."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
            elif type(value) is dict:
                for k, v in value.items():
                    if v is orig:
                        value[k] = wrapper
