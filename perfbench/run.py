"""Benchmark entry point for the monogamy package.

    python3 perfbench/run.py --workload oracle_scale --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                      # every workload, seed 0

Run from anywhere; the package is imported from src/ beside this
directory, never from an installed copy. Each set-up and each pass runs
in a fresh worker process with BLAS pinned to one thread and
MONOGAMY_BUDGET removed from its environment.

--trace 0 reports the end-to-end metrics: half the set-ups, then whole
passes until --seconds of pass wall time have been measured (at least
one pass), then the other half of the set-ups. --seconds defaults to
BENCHMARK.json's run_seconds. Times are in reference seconds
(refclock.py), with wall seconds printed beside them.
--trace 1 runs one untraced and one traced pass side by side and reports
per-layer metrics. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only
when every item passed its correctness check; 2 when the package is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify_suite", "oracle_scale", "exact_minimax")
# End-to-end metrics in the JSON result. The per-item latencies are printed
# too, but a 13-check median swings by half between runs on a shared host,
# so no bound of 25% or less could hold for them on every workload.
END_TO_END = ("run_s", "setup_s", "peak_rss_mib")
# Set-up-only processes per run, on top of each pass's own set-up. Half run
# before the passes and half after, so the median samples two stretches of
# a host whose speed drifts over tens of seconds.
SETUP_RUNS = 14
RUN_DEADLINE_S = 170  # every process of one workload run ends within this
# A further pass starts only if this many times the longest pass so far
# still fits before the deadline, so a slow program is not cut mid-pass.
PASS_HEADROOM = 2.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def run_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


class WorkerFailed(Exception):
    """A worker crashed or printed no result: its items count as failed."""


class WorkerTimedOut(WorkerFailed):
    """A worker was killed at its deadline: its items could not be checked."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MONOGAMY_BUDGET"}
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def start(workload: str, seed: int, mode: str, trace: bool) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if trace:
        cmd.append("--trace")
    return subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen, label: str, deadline: float) -> dict:
    """Wait for a worker until the deadline and return its JSON result."""
    limit = max(0.0, deadline - time.monotonic())
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerTimedOut(f"{label}: killed at its deadline after {limit:.0f} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-3:]
        raise WorkerFailed(f"{label}: exit {proc.returncode}: {' | '.join(tail)}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise WorkerFailed(f"{label}: last line is not a JSON result: {lines[-1][:200]}") from None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (a copy may have no .git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, versions: dict) -> str:
    return (
        f'cpu="{cpu_model()}" nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} '
        f"numpy={versions.get('numpy', '?')} scipy={versions.get('scipy', '?')} "
        f"blas_threads=1 ({','.join(BLAS_VARS)}) commit={git_commit()} seed={seed}"
    )


class Run:
    """Results of one workload run: worker outputs and the failures seen."""

    def __init__(self):
        self.setups: list[float] = []
        self.setup_walls: list[float] = []
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.timeouts: list[str] = []
        self.versions: dict = {}

    def add(self, result: dict):
        self.setups.append(result["setup_s"])
        self.setup_walls.append(result["setup_wall_s"])
        self.versions = result["versions"]
        if "run_s" in result:
            self.passes.append(result)
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            self.failures += result["failures"]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.passes)

    def lost(self, exc: WorkerFailed):
        """A worker that crashed or timed out counts as one failed item."""
        self.attempted += 1
        self.failed += 1
        (self.timeouts if isinstance(exc, WorkerTimedOut) else self.failures).append(str(exc))


def setups(run: Run, workload: str, seed: int, count: int, deadline: float):
    for _ in range(count):
        if time.monotonic() >= deadline:
            return  # the run has already failed; more set-ups would only be killed
        try:
            run.add(finish(start(workload, seed, "setup", False), "setup", deadline))
        except WorkerFailed as exc:
            run.lost(exc)


def measure(workload: str, seed: int, seconds: float, deadline: float) -> Run:
    run = Run()
    setups(run, workload, seed, SETUP_RUNS // 2, deadline)
    measured, longest = 0.0, 0.0
    while not run.passes or measured < seconds:
        if run.passes and time.monotonic() + PASS_HEADROOM * longest > deadline:
            print(f"# {workload}: stopped after {len(run.passes)} passes "
                  f"({measured:.1f} s) to end before the deadline", file=sys.stderr)
            break
        try:
            result = finish(start(workload, seed, "pass", False), "pass", deadline)
        except WorkerFailed as exc:
            run.lost(exc)
            break
        run.add(result)
        measured += result["run_wall_s"]
        longest = max(longest, result["run_wall_s"] + result["setup_wall_s"])
    setups(run, workload, seed, SETUP_RUNS - SETUP_RUNS // 2, deadline)
    return run


def end_to_end(run: Run) -> dict:
    """name -> (value, unit, note) for the end-to-end metrics."""
    if not run.passes:
        return {}
    lat = [stats.latency_summary(p["latencies_s"]) for p in run.passes]
    med = statistics.median
    n = len(run.passes)
    return {
        "run_s": (med(p["run_s"] for p in run.passes), "s",
                  f"reference seconds, median of {n} passes"),
        "setup_s": (med(run.setups), "s", f"reference seconds, median of {len(run.setups)} set-ups"),
        "run_wall_s": (med(p["run_wall_s"] for p in run.passes), "s", f"median of {n} passes"),
        "setup_wall_s": (med(run.setup_walls), "s", f"median of {len(run.setup_walls)} set-ups"),
        "peak_rss_mib": (med(p["peak_rss_mib"] for p in run.passes), "MiB",
                         f"median of {n} passes, ru_maxrss of the pass process"),
        "item_p50_ms": (1e3 * med(s["p50"] for s in lat), "ms",
                        f"{lat[0]['count']} items per pass, median of {n} passes"),
        "item_tail_ms": (1e3 * med(s["tail"] for s in lat), "ms",
                         f"{lat[0]['tail_label']} of {lat[0]['count']} items per pass, "
                         f"median of {n} passes"),
    }


def traced(workload: str, seed: int, deadline: float) -> tuple[Run, dict]:
    """An untraced and a traced pass side by side; name -> (value, unit, note) per layer.

    Running the two at once keeps the whole run well inside the deadline.
    Both passes report reference seconds, which take out the drifting speed
    of the vCPU each ran on, so their difference is the tracing overhead.
    """
    run = Run()
    workers = {"untraced pass": start(workload, seed, "pass", False),
               "traced pass": start(workload, seed, "pass", True)}
    results = {}
    for label, proc in workers.items():
        try:
            results[label] = finish(proc, label, deadline)
            run.add(results[label])
        except WorkerFailed as exc:
            run.lost(exc)
    if len(results) < len(workers):
        return run, {}
    plain, result = results["untraced pass"], results["traced pass"]
    metrics = {k: (v, unit, "") for k, (v, unit) in result["layers"].items()}
    metrics["trace.overhead_s"] = (result["run_s"] - plain["run_s"], "s",
                                   f"reference seconds: traced run_s {result['run_s']:.3f} "
                                   f"- untraced {plain['run_s']:.3f}")
    value, unit = result["layers"]["trace.unattributed_s"]
    metrics["trace.unattributed_s"] = (value, unit, "traced pass wall time outside every span")
    metrics["gate.err_over_tol"] = (result["err_over_tol"] or 0.0, "ratio",
                                    "diagnostic: max |numeric - exact| / tolerance")
    assembly, eigensolve = metrics["split.assembly_self_s"][0], metrics["split.eigensolve_self_s"][0]
    verdict = "exceeds" if assembly > eigensolve else "does not exceed"
    metrics["split.assembly_self_s"] = (assembly, "s", f"{verdict} eigensolve self time")
    if result["missing_spans"]:
        print(f"warning: spans not found, their metrics read 0: {result['missing_spans']}",
              file=sys.stderr)
    return run, metrics


def report(workload: str, metrics: dict, run: Run):
    for name, (value, unit, note) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"{workload} fail_ratio {ratio:.6g}  ({run.failed} failed / {run.attempted} attempted, "
          f"{len(run.timeouts)} of them timed out)")
    if "gate.err_over_tol" not in metrics:
        errs = [p["err_over_tol"] for p in run.passes if p["err_over_tol"] is not None]
        value = f"{max(errs):.3g}" if errs else "n/a (given by --trace 1)"
        print(f"{workload} err_over_tol {value}  (diagnostic: max |numeric - exact| / tolerance)")
    for line in run.failures[:20]:
        print(f"{workload} FAILED {line}")
    for line in run.timeouts:
        print(f"{workload} TIMED OUT {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "monogamy" / "__init__.py").is_file():
        print(f"error: no monogamy package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    runs, combined, versions = [], {}, {}
    for workload in names:
        deadline = time.monotonic() + RUN_DEADLINE_S
        if args.trace:
            run, metrics = traced(workload, args.seed, deadline)
        else:
            run = measure(workload, args.seed, args.seconds, deadline)
            metrics = end_to_end(run)
        versions = versions or run.versions
        report(workload, metrics, run)
        runs.append(run)
        for name, (value, unit, _) in metrics.items():
            if not args.trace and name not in END_TO_END:
                continue
            key = name if len(names) == 1 else f"{workload}.{name}"
            combined[key] = {"value": value, "unit": unit}
    print(f"# env: {environment(args.seed, versions)}")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    correct = all(r.correct for r in runs)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
