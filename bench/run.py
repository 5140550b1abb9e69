"""gaussweyl benchmark: the CLI driven from outside, one command at a time.

    python3 bench/run.py --workload sections --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

It first times SETUP_REPS runs of `gaussweyl --version`.  Then one client
runs the workload's commands in series, each as a fresh
`python -m gaussweyl.cli ...` process (a closed loop with one client), checks
every output against an independent reference (refcheck.py), and repeats the
list until `--seconds`, counted from the first set-up run, is used up, at
least twice.  With `--trace 1` it runs one plain pass and one pass with every
layer traced (trace_child.py), and reports the per-layer metrics instead.  The metrics printed are the ones
BENCHMARK.json lists; README.md in this directory explains each.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
`--workload all` runs every workload and names each metric `<workload>.<metric>`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer
from refcheck import NO_OUTPUT, Verdict
from workloads import WORKLOADS, Command

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 12
MIN_PASSES = 2
COMMAND_TIMEOUT_S = 150
PARSE_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError)


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    returncode: int
    maxrss_kb: int


@dataclass(frozen=True)
class Result:
    command: Command
    run: ChildRun
    verdict: Verdict

    @property
    def failed(self) -> bool:
        return self.run.returncode != 0 or not self.verdict.ok

    @property
    def unexpected(self) -> bool:
        """Output is missing or disagrees with the reference, and the command
        has no known defect whose failure takes this form."""
        if self.verdict.ok:
            return False
        defect = self.command.known_defect
        if defect is None:
            return True
        if defect.exits:
            return not (self.run.returncode != 0 and self.verdict == NO_OUTPUT)
        return self.run.returncode != 0 or self.verdict == NO_OUTPUT


@dataclass(frozen=True)
class Pass:
    results: list[Result]
    traced: bool

    @property
    def wall_s(self) -> float:
        return sum(r.run.wall_s for r in self.results)


def run_child(argv: list[str], env: dict, cwd: Path, log_stem: Path) -> ChildRun:
    """Run one process to completion; its peak RSS comes from its own rusage."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, proc.returncode, usage.ru_maxrss)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(work: Path, env: dict) -> list[float]:
    """Wall time of `gaussweyl --version` in fresh interpreters, after one
    unmeasured run that leaves the bytecode cache warm."""
    argv = [sys.executable, "-m", "gaussweyl.cli", "--version"]
    times = []
    for i in range(SETUP_REPS + 1):
        run = run_child(argv, env, work, work / f"version{i}")
        if run.returncode != 0:
            raise RuntimeError(f"`gaussweyl --version` exited {run.returncode}; see {work}/version{i}.err")
        if i:
            times.append(run.wall_s)
    return times


def check_output(cmd: Command, outdir: Path, rng) -> Verdict:
    path = outdir / cmd.output
    if not path.exists():
        return NO_OUTPUT
    try:
        return cmd.checker.check(path, rng)
    except PARSE_ERRORS as exc:
        return Verdict(False, f"unreadable output: {exc!r}")


def run_pass(cmds: list[Command], seed: int, outdir: Path, env: dict, traced: bool) -> Pass:
    outdir.mkdir(parents=True)
    results = []
    for i, cmd in enumerate(cmds):
        if traced:
            argv = [sys.executable, str(BENCH / "trace_child.py"), str(outdir / f"spans{i}.json"), str(i)]
        else:
            argv = [sys.executable, "-m", "gaussweyl.cli"]
        run = run_child(argv + cmd.argv(outdir), env, outdir, outdir / f"cmd{i}")
        verdict = check_output(cmd, outdir, np.random.default_rng([seed, i]))
        results.append(Result(cmd, run, verdict))
    return Pass(results, traced)


def layer_metrics(p: Pass, outdir: Path, plain_wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass, from the span files its commands wrote."""
    spans, counters, wrapped = [], {}, set()
    for i, r in enumerate(p.results):
        path = outdir / f"spans{i}.json"
        if not path.exists():
            continue  # the command died before writing spans; its time stays unattributed
        data = json.loads(path.read_text())
        command_spans = tracer.spans_from_dict(data)
        check_attribution(command_spans, r.run.wall_s, r.command.label)
        spans += command_spans
        for k, v in data["counters"].items():
            counters[k] = counters.get(k, 0) + v
        wrapped.update(data["wrapped"])
    m = tracer.summarize(spans, counters, sorted(wrapped))
    m["trace.wall_s"] = p.wall_s
    m["trace.unattributed_s"] = p.wall_s - attributed_s(m)
    m["trace.overhead_ratio"] = p.wall_s / plain_wall_s
    calls = m["gaussian.ladder.calls"]
    m["gaussian.ladder.converged_ratio"] = (calls - m["gaussian.ladder.failed"]) / calls if calls else 0.0
    return m


def attributed_s(m: dict) -> float:
    return m["cli.import_s"] + sum(m[f"layer.{layer}.self_s"] for layer in tracer.LAYERS)


def check_attribution(spans: list[tracer.Span], wall_s: float, label: str) -> None:
    """The self times of one command's spans must fit in the wall time of its
    process, so that its unattributed time is not negative.  Overlapping
    top-level spans, or time counted twice, break this."""
    attributed = sum(tracer.self_times(spans).values())
    if attributed > wall_s:
        raise RuntimeError(f"spans of `{label}` attribute {attributed:.6f} s, "
                           f"but its process ran for {wall_s:.6f} s")


def measure(cmds: list[Command], seed: int, deadline: float, trace: bool, work: Path, env: dict):
    """Plain passes while the next one ends before `deadline` (at least
    MIN_PASSES); with tracing, pairs of one plain and one traced pass (at
    least one pair).  Returns the passes and the per-layer numbers of each
    traced pass."""
    passes: list[Pass] = []
    layers: list[dict] = []
    per_round = 2 if trace else 1
    while len(passes) < (per_round if trace else MIN_PASSES) or (
        time.perf_counter() + statistics.mean(p.wall_s for p in passes) * per_round <= deadline
    ):
        plain = run_pass(cmds, seed, work / f"pass{len(passes)}", env, traced=False)
        passes.append(plain)
        if trace:
            outdir = work / f"pass{len(passes)}"
            passes.append(run_pass(cmds, seed, outdir, env, traced=True))
            layers.append(layer_metrics(passes[-1], outdir, plain.wall_s))
    return passes, layers


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, work_root: Path) -> tuple[dict, list[str]]:
    work = work_root / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    cmds = WORKLOADS[name](seed)
    start = time.perf_counter()  # `seconds` covers the set-up runs too
    setup = measure_setup(work, env)
    passes, layers = measure(cmds, seed, start + seconds, trace, work, env)

    results = [r for p in passes for r in p.results]
    plain = [p for p in passes if not p.traced]
    attempted = len(results)
    failed = sum(r.failed for r in results)
    if trace:
        # the mean keeps the add-up identity exact when there are several traced passes
        values = {k: statistics.fmean(m[k] for m in layers) for k in layers[0]}
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p.wall_s for p in plain),
            "cmd_p50_s": statistics.median(r.run.wall_s for p in plain for r in p.results),
            "pass_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": max(r.run.maxrss_kb for p in plain for r in p.results) / 1024.0,
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    lines = [
        f"workload {name}: seed {seed}, {len(plain)} plain pass(es)"
        + (f" + {len(layers)} traced" if trace else "")
        + f" of {len(cmds)} commands, closed loop with 1 client",
    ]
    for k, v in metrics.items():
        lines.append(f"  {k:<48} {v['value']:>14.6g} {v['unit']}")
    lines.append(f"  {'fail_ratio':<48} {failed / attempted:>14.6g} failed/attempted ({failed}/{attempted})")
    lines.append(f"  samples: setup_s {len(setup)} runs; pass walls (s) "
                 + ", ".join(f"{p.wall_s:.3f}{' traced' if p.traced else ''}" for p in passes)
                 + f"; cmd_p50_s {sum(len(p.results) for p in plain)} commands")
    for i, r in enumerate(passes[0].results):
        if not r.failed:
            status = "ok"
        elif r.unexpected:
            status = "FAIL (unexpected)"
        else:
            status = "FAIL (known defect)" if r.command.known_defect else "FAIL"
        sys.stderr.write(f"[{name} {i:2d}] exit {r.run.returncode} {r.run.wall_s:7.3f}s {status:<20} "
                         f"{r.command.label} | {r.verdict.detail}\n")
    summary = {
        "correct": not any(r.unexpected for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return summary, lines


def machine_line() -> str:
    import scipy

    return (f"machine: nproc {os.cpu_count()}, python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, BLAS threads {blas_threads()}")


def blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy wheels bundle, if it is there."""
    import ctypes
    import glob

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            return str(get())
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gaussweyl" / "cli.py").is_file():
        sys.stderr.write(f"bench: no gaussweyl sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(machine_line())
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        summary, lines = run_workload(name, args.seed, args.seconds, bool(args.trace), spec, ROOT / ".bench_work")
        print("\n".join(lines), flush=True)
        out["correct"] = out["correct"] and summary["correct"]
        out["attempted"] += summary["attempted"]
        out["failed"] += summary["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        out["metrics"].update({prefix + k: v for k, v in summary["metrics"].items()})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
