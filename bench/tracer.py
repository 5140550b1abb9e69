"""Span recorder for the traced run, and the wrappers that feed it.

A traced command runs in its own interpreter (see `trace_child.py`).  There
the public functions of every gaussweyl module are replaced by wrappers that
open a span on entry and close it on exit; the name is rebound in every
gaussweyl module that imported it, so calls between modules are seen too.
Spans stay in memory and are written out once, when the command ends.  The
benchmark process then reads the span files of all commands and computes
self times: a span's duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

PACKAGE = "gaussweyl"
# Modules whose public functions are traced.  In `cli` only the entry point is
# wrapped, so `cli.main` self time is argument parsing plus report writing.
LAYERS = ("basis", "gaussian", "wigner", "symbols", "quadform", "heat", "positivity", "stochproj", "cli")
CLI_TRACED = ("main",)
# The span around `import gaussweyl.cli`; reported as `cli.import_s`, not as
# part of any layer's self time.
IMPORT_SPAN = "cli.import"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    command: int


class SpanRecorder:
    """Spans (name, start, end, parent, command id) and named counters,
    kept in memory until `dump`."""

    def __init__(self, command: int = 0):
        self.command = command
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.wrapped: list[str] = []
        self._open: list[tuple[int, str, float]] = []
        self._next_id = 0

    def open(self, name: str) -> int:
        sid = self._next_id
        self._next_id += 1
        self._open.append((sid, name, time.perf_counter()))
        return sid

    def close(self, sid: int) -> None:
        end = time.perf_counter()
        top, name, start = self._open.pop()
        if top != sid:
            raise RuntimeError(f"span {name!r} closed out of order")
        parent = self._open[-1][0] if self._open else None
        self.spans.append(Span(sid, name, start, end, parent, self.command))

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self._open[-1][1] if self._open else None

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] += n

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "spans": [[s.id, s.name, s.start, s.end, s.parent] for s in self.spans],
            "counters": dict(self.counters),
            "wrapped": list(self.wrapped),
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


def spans_from_dict(data: dict) -> list[Span]:
    return [Span(i, n, s, e, p, data["command"]) for i, n, s, e, p in data["spans"]]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Self time of each span, keyed by (command, span id): its duration
    minus the union of its direct children's intervals clipped to it."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    by_key = {(s.command, s.id): s for s in spans}
    for s in spans:
        if s.parent is not None:
            p = by_key[(s.command, s.parent)]
            children[(s.command, s.parent)].append((max(s.start, p.start), min(s.end, p.end)))
    return {
        key: (s.end - s.start) - _covered(children.get(key, ()))
        for key, s in by_key.items()
    }


def summarize(spans: list[Span], counters: dict[str, float], wrapped) -> dict[str, float]:
    """Summed over all commands: `<function>.calls` and `<function>.self_s` for
    every wrapped function, `layer.<module>.self_s`, `cli.import_s`, and every
    counter in COUNTERS.  Keys exist (as 0) even where nothing ran."""
    out: dict[str, float] = {IMPORT_SPAN + "_s": 0.0}
    out.update({f"layer.{m}.self_s": 0.0 for m in LAYERS})
    out.update({k: 0 for k in COUNTERS})
    for name in wrapped:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    selfs = self_times(spans)
    for s in spans:
        st = selfs[(s.command, s.id)]
        if s.name == IMPORT_SPAN:
            out[IMPORT_SPAN + "_s"] += st
            continue
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += st
        out[f"layer.{s.name.split('.')[0]}.self_s"] += st
    for k, v in counters.items():
        out[k] += v
    return out


# ---------------------------------------------------------------------------
# Wrapping the program's functions.
# ---------------------------------------------------------------------------


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _ladder_hook(rec, fn, args, kwargs):
    """Count shots by wrapping the order callback; count failures."""
    a = _bound(fn, args, kwargs)
    inner = a["value_at_order"]

    def counted(n):
        rec.count("gaussian.ladder.shots")
        return inner(n)

    a["value_at_order"] = counted
    return (), a


# Counters computed from a call's arguments (before the call), per function.
_ARG_COUNTERS = {
    "basis.laguerre_eval": {"terms": lambda a: int(np.size(a["x"])) * a["k"]},
    "symbols.eval_ddot": {"points": lambda a: np.atleast_2d(np.asarray(a["x"])).shape[0]},
    "wigner.wigner_closed": {"points": lambda a: np.broadcast(np.asarray(a["x"]), np.asarray(a["xi"])).size},
    "gaussian.integrate_tensor": {"points": lambda a: a["rule"].order ** a["m"]},
    "quadform.assemble_matrix": {
        "basis_size": lambda a: a["truncation"].size,
        # Hermitian families visit the upper triangle only
        "pairs_visited": lambda a: (
            a["truncation"].size ** 2
            if a["sym"].family == "custom"
            else a["truncation"].size * (a["truncation"].size + 1) // 2
        ),
    },
    "stochproj.mc_conv_rate": {"samples": lambda a: a["samples"]},
}
# Every counter a traced command can produce.
COUNTERS = tuple(f"{fn}.{stat}" for fn, stats in _ARG_COUNTERS.items() for stat in stats) + (
    "gaussian.ladder.shots",
    "gaussian.ladder.failed",
    "positivity.flandrin_matrix.grid_points",
    "wigner.classical_wigner_diagonals.entries",
)


def _wrap_function(rec: SpanRecorder, name: str, fn, errors: tuple):
    arg_counter = _ARG_COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name == "gaussian.ladder":
            args, kwargs = _ladder_hook(rec, fn, args, kwargs)
        if arg_counter is not None:
            bound = _bound(fn, args, kwargs)
            for stat, count in arg_counter.items():
                rec.count(f"{name}.{stat}", count(bound))
        caller = rec.current()
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except errors:
            if name == "gaussian.ladder":
                rec.count("gaussian.ladder.failed")
            raise
        finally:
            rec.close(sid)
        if name == "gaussian.gl_panel_rule" and caller == "positivity.flandrin_matrix":
            # flandrin_matrix integrates on the square grid of this rule
            rec.count("positivity.flandrin_matrix.grid_points", result.order**2)
        return result

    return wrapper


def _wrap_generator(rec: SpanRecorder, name: str, fn):
    """One span per next(), so lazily produced work is timed where it runs."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            sid = rec.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                rec.close(sid)
            rec.count(f"{name}.entries")
            yield item

    return wrapper


def install(rec: SpanRecorder) -> None:
    """Wrap the public functions of every traced module and rebind each name
    wherever a gaussweyl module holds it; the names go to `rec.wrapped`."""
    gaussian = sys.modules[f"{PACKAGE}.gaussian"]
    errors = (gaussian.QuadratureConvergenceError,)
    replacement = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__ or attr.startswith("_"):
                continue
            if layer == "cli" and attr not in CLI_TRACED:
                continue
            name = f"{layer}.{attr}"
            if inspect.isgeneratorfunction(obj):
                replacement[obj] = _wrap_generator(rec, name, obj)
            else:
                replacement[obj] = _wrap_function(rec, name, obj, errors)
            rec.wrapped.append(name)
    holders = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for mod in holders:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacement:
                setattr(mod, attr, replacement[obj])
