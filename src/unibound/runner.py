"""Experiment execution and result persistence.

Each run writes two files into the output directory:

* ``result.<kind>.json``: a self-describing record with the fully resolved
  configuration echo, the artifact version, the Python, numpy and scipy
  versions, per-operation outputs, and wall-clock seconds per stage.
  Re-running the echoed configuration with the same seed and versions
  reproduces every numeric field bit for bit (timings aside).
* ``table.csv``: a flat table, one row per replication or grid point, with
  full round-trip decimal formatting.

Exit codes: 0 success, 2 configuration error, 3 resource cap, 4 an
invariant check in the results was violated, 5 I/O error, 1 unexpected.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import platform
import time
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__
# gaussian_mc and rademacher_exact stay importable here: perfbench traces each
# layer through the names the runner imports, though comparison_report now
# makes those calls.
from .complexity import EXACT, comparison_report, gaussian_mc, rademacher_exact, rademacher_mc
from .config import Experiment, load_config, resolve, validate_config
from .derivative_bounds import (
    CLOSED_FORM,
    DERIVED_BOUND,
    closed_form_constants,
    estimate_constants_numeric,
    u_statistic_constant_bounds,
)
from .deviation import (
    bounded_difference_tail,
    deviation_experiment,
    swap_process_probe,
    squared_swing_sum,
)
from .errors import ConfigError
from .rng import stream
from .spaces import sample

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4
EXIT_IO = 5


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def _write_table(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


class _Stages:
    def __init__(self):
        self.seconds: dict[str, float] = {}

    def run(self, name, fn):
        start = time.perf_counter()
        result = fn()
        self.seconds[name] = time.perf_counter() - start
        return result


def _constants(exp: Experiment, stages: _Stages):
    """(L, M) along the configured route, timed as the ``constants`` stage;
    a run computes them once."""
    def compute():
        if exp.constants_route == CLOSED_FORM:
            return closed_form_constants(exp.stat)
        if exp.constants_route == DERIVED_BOUND:
            return u_statistic_constant_bounds(exp.n, exp.kernel)
        return estimate_constants_numeric(
            exp.stat, exp.constants_probes, exp.constants_fd_step, stream(exp.seed, "constants")
        )

    return stages.run("constants", compute)


def _run_complexity(exp: Experiment, stages: _Stages, summary: list[str]):
    """R and G of one sample's class image; the comparison estimates each
    once, and a Monte Carlo R is drawn on its own only when its R is exact."""
    x = sample(exp.law, stream(exp.seed, "complexity/x"))
    image = exp.fc.image_matrix(x)
    comparison = stages.run(
        "comparison", lambda: comparison_report(image, exp.draws, exp.seed)
    )
    gauss = comparison.gaussian
    results: dict = {"gaussian_mc": gauss, "comparison": comparison}
    rows: list[tuple] = []
    header = ["quantity", "method", "value", "draws", "stderr"]
    mc = comparison.rademacher
    if mc.method == EXACT:
        results["rademacher_exact"] = mc
        rows.append(("rademacher", "exact", mc.value, "", ""))
        summary.append(f"rademacher exact           {mc.value!r}")
        mc = stages.run(
            "rademacher-mc",
            lambda: rademacher_mc(image, exp.draws, stream(exp.seed, "complexity/r")),
        )
    results["rademacher_mc"] = mc
    rows.append(("rademacher", "monte-carlo", mc.value, mc.draws, mc.stderr))
    rows.append(("gaussian", "monte-carlo", gauss.value, gauss.draws, gauss.stderr))
    summary.append(f"rademacher monte-carlo     {mc.value!r} (stderr {mc.stderr!r})")
    summary.append(f"gaussian monte-carlo       {gauss.value!r} (stderr {gauss.stderr!r})")
    summary.append(f"comparison inequalities    {'ok' if comparison.ok else 'VIOLATED'}")
    ok = comparison.ok
    return results, header, rows, ok


def _run_constants(exp: Experiment, stages: _Stages, summary: list[str], report):
    results = {"constants": report}
    summary.append(f"L ({report.method})         {report.lipschitz!r}")
    summary.append(f"M ({report.method})         {report.mixed!r}")
    if report.detail is not None:
        header = ["coordinate", "grad_sup", "mixed_rowsq"]
        rows = [
            (k, report.detail.grad_sup[k], report.detail.mixed_rowsq[k])
            for k in range(exp.n)
        ]
    else:
        header = ["lipschitz", "mixed", "method"]
        rows = [(report.lipschitz, report.mixed, report.method)]
    return results, header, rows, True


def _run_deviate(exp: Experiment, stages: _Stages, summary: list[str], constants):
    report = stages.run(
        "deviation-experiment",
        lambda: deviation_experiment(
            exp.law, exp.fc, exp.stat, constants, exp.c, exp.delta,
            exp.replications, exp.seed,
            gaussian_draws=exp.gaussian_draws,
            oracle_method=exp.oracle_method,
            oracle_replicas=exp.oracle_replicas,
            allow_numeric_constants=exp.override_numeric_constants,
        ),
    )
    results = {"deviation": report}
    header = ["replication", "deviation", "argmax", "image_gaussian", "exceeds_bound"]
    rows = [
        (r, report.dev_samples[r], report.argmax_labels[r], report.image_g_samples[r],
         bool(report.dev_samples[r] > report.bound))
        for r in range(exp.replications)
    ]
    oracle = report.oracle
    largest = "" if oracle.stderrs is None else f" (largest stderr {float(oracle.stderrs.max())!r})"
    summary.append(f"expectation oracle         {oracle.method}{largest}")
    summary.append(f"mean deviation             {report.dev_mean!r} (stderr {report.dev_stderr!r})")
    summary.append(f"image gaussian average     {report.image_g.value!r}")
    summary.append(f"assembled bound            {report.bound!r} (tail {report.tail!r})")
    summary.append(f"empirical constant c_hat   {report.c_hat!r}")
    summary.append(
        f"coverage at delta={exp.delta}    rate {report.violation_rate!r} "
        f"(allowance {report.violation_allowance!r}) -> {'ok' if report.coverage_ok else 'VIOLATED'}"
    )
    return results, header, rows, report.coverage_ok


def _tail_member(exp: Experiment):
    if exp.member is None:
        return exp.fc.members[0]
    return exp.fc.subclass([exp.member]).members[0]


def _run_tail(exp: Experiment, stages: _Stages, summary: list[str]):
    member = _tail_member(exp)
    swing = stages.run(
        "swing", lambda: squared_swing_sum(
            exp.stat, member, exp.law.space, seed=stream(exp.seed, "tail/swing")
        )
    )
    report = stages.run(
        "tail-simulation",
        lambda: bounded_difference_tail(
            exp.law, exp.stat, member, exp.t_grid, exp.tail_replicas, exp.seed,
            oracle_method=exp.oracle_method, oracle_replicas=exp.oracle_replicas,
            swing=swing,
        ),
    )
    results = {"tail": report}
    header = ["t", "empirical", "bound", "stderr", "violation"]
    rows = [
        (report.t_grid[i], report.empirical[i], report.bound[i], report.stderr[i],
         bool(report.violations[i]))
        for i in range(report.t_grid.shape[0])
    ]
    summary.append(f"member                     {member.label}")
    summary.append(f"expected value             {report.expected_value!r}")
    summary.append(
        f"swing norm                 {report.swing_norm!r} "
        f"({'exact' if report.swing_is_exact else 'sampled lower bound'})"
    )
    summary.append(f"tail violations            {int(report.violations.sum())} -> {'ok' if report.ok else 'VIOLATED'}")
    return results, header, rows, report.ok


def _run_probe(exp: Experiment, stages: _Stages, summary: list[str], constants):
    x = sample(exp.law, stream(exp.seed, "probe/x", 0))
    x_alt = sample(exp.law, stream(exp.seed, "probe/x", 1))
    rng = stream(exp.seed, "probe/pairs")
    count = len(exp.fc)

    def run_probes():
        out = []
        for j in range(exp.probe_pairs):
            i1, i2 = rng.choice(count, size=2, replace=False)
            f, g = exp.fc.members[int(i1)], exp.fc.members[int(i2)]
            out.append(
                swap_process_probe(
                    x, x_alt, f, g, exp.stat, constants, exp.s_grid, exp.draws,
                    stream(exp.seed, "probe/sigma", j),
                )
            )
        return out

    probes = stages.run("probes", run_probes)
    results = {"probes": probes}
    header = ["pair", "f", "g", "distance", "s", "empirical", "bound", "stderr", "violation"]
    rows = []
    ok = True
    for j, probe in enumerate(probes):
        ok = ok and probe.ok
        for i in range(probe.s_grid.shape[0]):
            rows.append(
                (j, probe.f_label, probe.g_label, probe.distance, probe.s_grid[i],
                 probe.empirical[i], probe.bound[i], probe.stderr[i], bool(probe.violations[i]))
            )
        summary.append(
            f"pair ({probe.f_label}, {probe.g_label})  d={probe.distance!r}  "
            f"violations {int(probe.violations.sum())}  zero-mean {'ok' if probe.zero_mean_ok else 'VIOLATED'}"
        )
    summary.append(f"process probes             {'ok' if ok else 'VIOLATED'}")
    return results, header, rows, ok


def _run_full_report(exp: Experiment, stages: _Stages, summary: list[str]):
    constants = _constants(exp, stages)
    results: dict = {}
    ok = True
    summary.append("[constants]")
    const_results, _, _, _ = _run_constants(exp, stages, summary, constants)
    results.update(const_results)
    summary.append("[complexity]")
    comp_results, _, _, comp_ok = _run_complexity(exp, stages, summary)
    results.update(comp_results)
    ok = ok and comp_ok
    summary.append("[deviation]")
    dev_results, header, rows, dev_ok = _run_deviate(exp, stages, summary, constants)
    results.update(dev_results)
    ok = ok and dev_ok
    if exp.t_grid is not None:
        summary.append("[tail]")
        tail_results, _, _, tail_ok = _run_tail(exp, stages, summary)
        results.update(tail_results)
        ok = ok and tail_ok
    if exp.s_grid is not None:
        summary.append("[process probe]")
        probe_results, _, _, probe_ok = _run_probe(exp, stages, summary, constants)
        results.update(probe_results)
        ok = ok and probe_ok
    return results, header, rows, ok


def _with_constants(run):
    """``run`` as a runner of its own kind: the constants stage comes first."""
    return lambda exp, stages, summary: run(exp, stages, summary, _constants(exp, stages))


_RUNNERS = {
    "complexity": _run_complexity,
    "constants": _with_constants(_run_constants),
    "deviate": _with_constants(_run_deviate),
    "tail": _run_tail,
    "probe": _with_constants(_run_probe),
    "full-report": _run_full_report,
}


def run_experiment(raw: dict, *, out_dir=None, workers=None, seed=None, override=None):
    """Execute a configuration; returns (exit code, record, summary lines).

    ``out_dir``, ``workers``, ``seed`` and ``override`` mirror the CLI flags
    and override their configuration counterparts before resolution, so the
    echoed configuration reproduces the run by itself; ``workers`` is only
    echoed and has no effect.
    """
    raw = dict(raw)
    if seed is not None:
        raw["seed"] = int(seed)
    if out_dir is not None:
        raw["out"] = str(out_dir)
    if workers is not None:
        raw["workers"] = int(workers)
    if override:
        raw["override_numeric_constants"] = True
    exp = resolve(raw)

    stages = _Stages()
    summary: list[str] = [f"unibound {__version__}  kind={exp.kind}  seed={exp.seed}  n={exp.n}"]
    results, header, rows, ok = _RUNNERS[exp.kind](exp, stages, summary)

    record = {
        "artifact_version": __version__,
        # Bit-for-bit reruns hold for the same versions of these.
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "kind": exp.kind,
        "config": exp.echo,
        "results": _jsonable(results),
        "wall_clock": stages.seconds,
    }
    out_path = Path(exp.out)
    out_path.mkdir(parents=True, exist_ok=True)
    with open(out_path / f"result.{exp.kind}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _write_table(out_path / "table.csv", header, rows)
    summary.append(f"results written to {out_path}")
    return (EXIT_OK if ok else EXIT_INVARIANT), record, summary


def validate_file(path) -> list[str]:
    """Schema verdict for a configuration file.

    OSError propagates for unreadable files; unparseable YAML becomes a
    ConfigError.
    """
    try:
        raw = load_config(path)
    except yaml.YAMLError as exc:
        raise ConfigError(f"unparseable configuration: {exc}") from exc
    return validate_config(raw)
