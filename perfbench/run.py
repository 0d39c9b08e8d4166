"""unibound benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Runs one workload through ``unibound run`` from the repository's sources,
one process at a time (a closed loop with one client), and checks every
output. NAME ``all`` (the default) runs every workload in turn; the other
defaults are seed 1, 25 seconds and no tracing.

With ``--trace 0`` the workload is repeated in passes for about S seconds
(at least two) and the end-to-end metrics are the medians over passes:

* ``wall_s``: spawn of the pass's first process to exit of its last;
* ``setup_s``: per process, spawn until the experiment is resolved
  (interpreter, ``import unibound``, load, validate, resolve), summed over
  the pass; extra set-up-only passes bring its samples to MIN_SETUP_SAMPLES;
* ``run_s``: per process, resolved experiment until ``result.*.json`` and
  ``table.csv`` are written, summed over the pass;
* ``peak_rss_mb``: the largest max-RSS of any process in the pass.

With ``--trace 1`` one untraced pass is followed by one traced pass whose
spans (see ``child.py``) give the per-layer metrics, summed over the pass.

Checks, each failing the run it concerns: exit code 0; every run of a
configuration at the seed has the same digest (``checks.digest``), traced
or not; the expectation oracle matches ``checks.reference_oracle``; and,
for ``replicate``, a ``--workers 2`` run matches the ``--workers 1`` digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it
give the environment and a table per workload.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".bench_work"

WORKLOADS = {
    "cli-suite": lambda: sorted((ROOT / "configs").glob("*.yaml")),
    "oracle-mc": lambda: [HERE / "workloads" / "oracle-mc.yaml"],
    "replicate": lambda: [HERE / "workloads" / "replicate.yaml"],
    "ustat-report": lambda: [HERE / "workloads" / "ustat-report.yaml"],
}
WORKER_CHECK = {"replicate": 2}

MIN_PASSES = 2
MIN_SETUP_SAMPLES = 5
# Every child is killed past this many seconds after the workload starts,
# so one workload ends well within three minutes.
BUDGET_S = 170.0

# One BLAS thread: with OpenBLAS's default on 2 vCPUs, replicate passes took
# 4.9-5.4 s against 4.2-4.5 s with one thread, the extra time going to
# threads contending for the cores.
BLAS_THREADS = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")

END_TO_END = {"wall_s": "s", "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, span name, field of the span totals). The
# ``self`` field is a span's time minus the time of its child spans.
LAYER_METRICS = {
    "config.load_s": ("s", "config.load", "self"),
    "config.validate_s": ("s", "config.validate", "self"),
    "config.resolve_s": ("s", "config.resolve", "self"),
    "derivative_bounds.constants_s": ("s", "derivative_bounds.constants", "self"),
    "deviation.oracle_s": ("s", "deviation.oracle", "self"),
    "deviation.oracle_calls": ("count", "deviation.oracle", "calls"),
    "deviation.uniform_deviation_s": ("s", "deviation.uniform_deviation", "self"),
    "deviation.replication_self_s": ("s", "deviation.experiment", "self"),
    "deviation.swing_s": ("s", "deviation.swing", "self"),
    "deviation.tail_s": ("s", "deviation.tail", "self"),
    "deviation.probe_s": ("s", "deviation.probe", "self"),
    "functionals.eval_s": ("s", "functionals.eval", "self"),
    "functionals.eval_calls": ("count", "functionals.eval", "calls"),
    "functionals.eval_rows": ("count", "functionals.eval", "work"),
    "spaces.sample_s": ("s", "spaces.sample", "self"),
    "spaces.sample_calls": ("count", "spaces.sample", "calls"),
    "spaces.draw_batch_s": ("s", "spaces.draw_batch", "self"),
    "spaces.draw_batch_rows": ("count", "spaces.draw_batch", "work"),
    "classes.image_s": ("s", "classes.image", "self"),
    "classes.image_calls": ("count", "classes.image", "calls"),
    "complexity.gaussian_s": ("s", "complexity.gaussian", "self"),
    "complexity.gaussian_draws": ("count", "complexity.gaussian", "work"),
    "complexity.rademacher_s": ("s", "complexity.rademacher", "self"),
    "rng.stream_s": ("s", "rng.stream", "self"),
    "rng.stream_calls": ("count", "rng.stream", "calls"),
    "rng.normals_s": ("s", "rng.normals", "self"),
    "runner.self_s": ("s", "runner.run", "self"),
}
# Per-layer metrics that do not come from one span's totals.
OTHER_LAYER_UNITS = {
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "deviation.oracle_rows": "count",
    "functionals.eval_bytes_computed": "B",
    "runner.result_bytes": "B",
    "trace.overhead_s": "s",
}


@dataclass
class Proc:
    """One finished child process."""

    code: int
    rss_mb: float
    setup: float | None = None
    run: float | None = None
    layers: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)


@dataclass
class Pass:
    """One pass over a workload's configurations; sums and maxima over its
    processes."""

    wall: float
    setup: float
    run: float | None
    rss_mb: float
    procs: list


class Session:
    """Spawns the children of one workload and keeps its check verdicts."""

    def __init__(self, workload: str, seed: int, deadline: float):
        WORK.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self._ids = itertools.count()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.env.update(BLAS_THREADS)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another session still works there
            pass

    def fail(self, problem: str):
        self.failed += 1
        self.problems.append(problem)

    def spawn(self, config: Path, mode: str, workers: int | None = None) -> Proc:
        """Run one child to its exit and check its outputs."""
        i = next(self._ids)
        out, side, log = (self.work / f"{i}{suffix}" for suffix in ("", ".json", ".log"))
        cmd = [sys.executable, str(CHILD), str(side), mode, "run", str(config),
               "--seed", str(self.seed), "--out", str(out)]
        if workers is not None:
            cmd += ["--workers", str(workers)]
        self.attempted += 1
        with open(log, "wb") as log_handle:
            spawned = time.monotonic()
            child = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log_handle,
                                     stderr=subprocess.STDOUT)
            watchdog = threading.Timer(max(1.0, self.deadline - spawned), child.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                watchdog.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        proc = Proc(child.returncode, usage.ru_maxrss / 1024.0)
        label = f"{config.name} ({mode}{'' if workers is None else f', workers {workers}'})"
        if proc.code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            self.fail(f"{label} exited {proc.code}: {' | '.join(tail)}")
            return proc
        info = json.loads(side.read_text())
        marks = info["marks"]
        proc.setup = marks["resolved"] - spawned
        if mode == "setup":
            return proc
        proc.run = marks["written"] - marks["resolved"]
        try:
            record, table, written = checks.read_outputs(out)
        except (OSError, ValueError) as exc:
            self.fail(f"{label}: unreadable outputs: {exc}")
            return proc
        shutil.rmtree(out)
        self.check(config, label, record, table)
        if mode == "trace":
            proc.spans = span_totals(info["spans"])
            proc.layers = layer_metrics(proc.spans, info, spawned, written)
        return proc

    def check(self, config: Path, label: str, record: dict, table: bytes):
        got = checks.digest(record, table)
        key = str(config)
        if key not in self.digests:
            self.digests[key] = got
            problems = checks.oracle_problems(record, resolve_config)
            if problems:
                self.fail(f"{label}: " + "; ".join(problems[:3]))
        elif got != self.digests[key]:
            self.fail(f"{label}: digest {got[:12]} differs from {self.digests[key][:12]}")

    def run_pass(self, configs: list[Path], mode: str) -> Pass:
        start = time.monotonic()
        procs = [self.spawn(c, mode) for c in configs]
        wall = time.monotonic() - start
        done = [p for p in procs if p.code == 0]
        return Pass(
            wall,
            sum(p.setup for p in done),
            None if mode == "setup" else sum(p.run for p in done),
            max(p.rss_mb for p in procs),
            procs,
        )

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def resolve_config(raw: dict):
    from unibound.config import resolve

    return resolve(raw)


def span_totals(spans: list) -> dict:
    """name -> {calls, incl, self, work, oracle_work} over a child's spans."""
    covered: dict[int, float] = defaultdict(float)
    parent_of, name_of = {}, {}
    for span_id, name, start, end, parent, _ in spans:
        covered[parent] += end - start
        parent_of[span_id], name_of[span_id] = parent, name
    totals: dict = defaultdict(lambda: dict.fromkeys(("calls", "incl", "self", "work", "oracle_work"), 0))
    for span_id, name, start, end, _, work in spans:
        t = totals[name]
        t["calls"] += 1
        t["incl"] += end - start
        t["self"] += end - start - covered[span_id]
        t["work"] += work
        ancestor = parent_of[span_id]
        while ancestor >= 0 and name_of[ancestor] != "deviation.oracle":
            ancestor = parent_of[ancestor]
        if ancestor >= 0:
            t["oracle_work"] += work
    return dict(totals)


def layer_metrics(totals: dict, info: dict, spawned: float, written: int) -> dict:
    zero = dict.fromkeys(("calls", "incl", "self", "work", "oracle_work"), 0)
    out = {
        metric: totals.get(span, zero)[key]
        for metric, (_, span, key) in LAYER_METRICS.items()
    }
    marks = info["marks"]
    evals = totals.get("functionals.eval", zero)
    out["cli.interpreter_s"] = marks["import_start"] - spawned
    out["cli.import_s"] = marks["imported"] - marks["import_start"]
    out["deviation.oracle_rows"] = evals["oracle_work"]
    out["functionals.eval_bytes_computed"] = evals["work"] * info.get("row_bytes", 0)
    out["runner.result_bytes"] = written
    return out


def measure(session: Session, configs: list[Path], seconds: float) -> dict:
    """Passes for about ``seconds`` (at least MIN_PASSES), then set-up-only
    passes until set-up has MIN_SETUP_SAMPLES samples."""
    passes: list[Pass] = []
    durations: list[float] = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or (
        time.monotonic() - start + statistics.median(durations) <= seconds
        and session.time_left() > 2 * max(durations)
    ):
        begun = time.monotonic()
        passes.append(session.run_pass(configs, "plain"))
        durations.append(time.monotonic() - begun)
    setups = [p.setup for p in passes]
    while len(setups) < MIN_SETUP_SAMPLES and session.time_left() > 30:
        setups.append(session.run_pass(configs, "setup").setup)
    samples = {
        "wall_s": [p.wall for p in passes],
        "setup_s": setups,
        "run_s": [p.run for p in passes],
        "peak_rss_mb": [p.rss_mb for p in passes],
    }
    return samples


def trace(session: Session, configs: list[Path]) -> tuple[dict, dict]:
    """One untraced pass, then one traced pass; per-layer metrics and span
    totals of the traced pass, summed over its processes."""
    plain = session.run_pass(configs, "plain")
    traced = session.run_pass(configs, "trace")
    layers: dict = defaultdict(float)
    spans: dict = defaultdict(lambda: defaultdict(float))
    for proc in traced.procs:
        for key, value in proc.layers.items():
            layers[key] += value
        for name, totals in proc.spans.items():
            for key, value in totals.items():
                spans[name][key] += value
    for name in ("cli.interpreter", "cli.import"):
        spent = layers[f"{name}_s"]
        spans[name].update(calls=len(traced.procs), incl=spent, self=spent)
    if plain.run is not None and traced.run is not None:
        layers["trace.overhead_s"] = traced.run - plain.run
    return dict(layers), spans


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def print_samples(samples: dict):
    print(f"  {'metric':<14}{'unit':<7}{'median':>12}{'min':>12}{'max':>12}{'n':>4}")
    for metric, values in samples.items():
        print(f"  {metric:<14}{END_TO_END[metric]:<7}{statistics.median(values):>12.4f}"
              f"{min(values):>12.4f}{max(values):>12.4f}{len(values):>4}")


def print_spans(spans: dict):
    total = sum(t["self"] for t in spans.values()) or 1.0
    print(f"  {'span':<30}{'calls':>8}{'incl_s':>10}{'self_s':>10}{'self%':>7}{'work':>12}")
    for name, t in sorted(spans.items(), key=lambda item: -item[1]["self"]):
        print(f"  {name:<30}{int(t['calls']):>8}{t['incl']:>10.4f}{t['self']:>10.4f}"
              f"{100 * t['self'] / total:>7.1f}{int(t['work']):>12}")


def bench_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[Session, dict]:
    configs = WORKLOADS[name]()
    session = Session(name, seed, time.monotonic() + BUDGET_S)
    try:
        session.run_pass(configs[:1], "setup")  # compiles bytecode, warms caches
        print(f"workload {name}  seed {seed}  configs {len(configs)}")
        if traced:
            layers, spans = trace(session, configs)
            print_spans(spans)
            units = {metric: unit for metric, (unit, _, _) in LAYER_METRICS.items()}
            units.update(OTHER_LAYER_UNITS)
            metrics = {
                metric: {"value": layers.get(metric, 0) if unit == "s" else int(layers.get(metric, 0)),
                         "unit": unit}
                for metric, unit in units.items()
            }
        else:
            samples = measure(session, configs, seconds)
            print_samples(samples)
            metrics = {
                metric: {"value": statistics.median(values), "unit": END_TO_END[metric]}
                for metric, values in samples.items()
            }
        workers = WORKER_CHECK.get(name)
        if workers:
            session.spawn(configs[0], "plain", workers)
        rate = session.failed / session.attempted
        print(f"  error_rate {rate:.4f} ({session.failed} of {session.attempted} runs)")
        for problem in session.problems:
            print(f"  FAILED {problem}")
        return session, metrics
    finally:
        session.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    missing = [p for p in (ROOT / "src" / "unibound" / "cli.py", ROOT / "configs") if not p.exists()]
    if missing:
        print(f"cannot benchmark: {', '.join(map(str, missing))} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        session, found = bench_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += session.attempted
        failed += session.failed
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + key: value for key, value in found.items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
