"""Experiment execution and result persistence.

Each run writes two files into the output directory:

* ``result.<kind>.json``: a self-describing record with the fully resolved
  configuration echo, the artifact version, the Python, numpy and scipy
  versions, per-operation outputs, and wall-clock seconds per stage.
  Re-running the echoed configuration with the same seed and versions
  reproduces every numeric field bit for bit (timings aside).
* ``table.csv``: a flat table, one row per replication or grid point, with
  full round-trip decimal formatting. A stage hands it over as columns, and
  a float, boolean or integer array is formatted a slice of rows at a time.

Exit codes: 0 success, 2 configuration error (every resource cap a
configuration can reach included), 3 a library ResourceError, which no
configuration reaches, 4 an invariant check in the results was violated,
5 I/O error, 1 unexpected.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import platform
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
# gaussian_mc and rademacher_exact stay importable here: perfbench traces each
# layer through the names the runner imports, though comparison_report now
# makes those calls.
from .complexity import EXACT, comparison_report, gaussian_mc, rademacher_exact, rademacher_mc
from .config import KINDS, Experiment, resolve
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
from .functionals import batches
from .rng import stream
from .spaces import sample

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4
EXIT_IO = 5


def _plain(obj):
    """A record value JSON cannot encode, as one it can: a dataclass as its
    fields, an array as nested lists, a numpy scalar as its Python value."""
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


# How ``_fmt`` writes each value of an array of one of these kinds, applied
# to the array's Python values.
_ARRAY_FORMATS = {"f": repr, "b": lambda v: "true" if v else "false", "i": str, "u": str}
# Bytes a table cell costs while its slice of rows is written: a short str
# and the references to it.
_CELL_BYTES = 96


def _write_table(path: Path, header: list[str], columns: list) -> None:
    """Write the equal-length ``columns`` under ``header`` with csv's writer,
    formatting a slice of rows at a time."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for part in batches(len(columns[0]), _CELL_BYTES * len(columns)):
            cells = []
            for column in columns:
                if isinstance(column, np.ndarray) and column.dtype.kind in _ARRAY_FORMATS:
                    cells.append(map(_ARRAY_FORMATS[column.dtype.kind], column[part].tolist()))
                else:
                    cells.append([_fmt(v) for v in column[part]])
            writer.writerows(zip(*cells))


class _Run:
    """One run's state: the experiment, the seconds per timed step, the
    summary lines, and (L, M), computed once on first use."""

    def __init__(self, exp: Experiment):
        self.exp = exp
        self.seconds: dict[str, float] = {}
        kind, seed = exp.settings["kind"], exp.settings["seed"]
        self.summary = [f"unibound {__version__}  kind={kind}  seed={seed}  n={exp.n}"]

    def timed(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds[name] = time.perf_counter() - start
        return result

    @functools.cached_property
    def constants(self):
        """(L, M) along the configured route, timed as ``constants``."""
        exp = self.exp
        settings = exp.settings["constants"]
        if settings["route"] == CLOSED_FORM:
            return self.timed("constants", closed_form_constants, exp.stat)
        if settings["route"] == DERIVED_BOUND:
            return self.timed("constants", u_statistic_constant_bounds, exp.n, exp.kernel)
        return self.timed("constants", estimate_constants_numeric, exp.stat, settings["probes"],
                          settings["fd_step"], stream(exp.settings["seed"], "constants"))


# Each stage takes the run and returns (results, (header, columns), ok), its
# table as equal-length columns.

def _run_complexity(run: _Run):
    """R and G of one sample's class image; the comparison estimates each
    once, and a Monte Carlo R is drawn on its own only when its R is exact."""
    exp, s, summary = run.exp, run.exp.settings, run.summary
    x = sample(exp.law, stream(s["seed"], "complexity/x"))
    image = exp.fc.image_matrix(x)
    comparison = run.timed("comparison", comparison_report, image, s["draws"], s["seed"])
    gauss = comparison.gaussian
    results: dict = {"gaussian_mc": gauss, "comparison": comparison}
    rows: list[tuple] = []
    header = ["quantity", "method", "value", "draws", "stderr"]
    mc = comparison.rademacher
    if mc.method == EXACT:
        results["rademacher_exact"] = mc
        rows.append(("rademacher", "exact", mc.value, "", ""))
        summary.append(f"rademacher exact           {mc.value!r}")
        mc = run.timed("rademacher-mc", rademacher_mc, image, s["draws"],
                       stream(s["seed"], "complexity/r"))
    results["rademacher_mc"] = mc
    rows.append(("rademacher", "monte-carlo", mc.value, mc.draws, mc.stderr))
    rows.append(("gaussian", "monte-carlo", gauss.value, gauss.draws, gauss.stderr))
    summary.append(f"rademacher monte-carlo     {mc.value!r} (stderr {mc.stderr!r})")
    summary.append(f"gaussian monte-carlo       {gauss.value!r} (stderr {gauss.stderr!r})")
    summary.append(f"comparison inequalities    {'ok' if comparison.ok else 'VIOLATED'}")
    return results, (header, list(zip(*rows))), comparison.ok


def _run_constants(run: _Run):
    exp, report = run.exp, run.constants
    run.summary.append(f"L ({report.method})         {report.lipschitz!r}")
    run.summary.append(f"M ({report.method})         {report.mixed!r}")
    if report.detail is not None:
        header = ["coordinate", "grad_sup", "mixed_rowsq"]
        columns = [range(exp.n), report.detail.grad_sup, report.detail.mixed_rowsq]
    else:
        header = ["lipschitz", "mixed", "method"]
        columns = [[report.lipschitz], [report.mixed], [report.method]]
    return {"constants": report}, (header, columns), True


def _run_deviation(run: _Run):
    exp, s, summary, constants = run.exp, run.exp.settings, run.summary, run.constants
    report = run.timed(
        "deviation-experiment", deviation_experiment,
        exp.law, exp.fc, exp.stat, constants, s["c"], s["delta"], s["replications"], s["seed"],
        gaussian_draws=s["gaussian_draws"],
        oracle_method=s["oracle"]["method"],
        oracle_replicas=s["oracle"]["replicas"],
        allow_numeric_constants=s["override_numeric_constants"],
    )
    header = ["replication", "deviation", "argmax", "image_gaussian", "exceeds_bound"]
    columns = [range(s["replications"]), report.dev_samples, report.argmax_labels,
               report.image_g_samples, report.dev_samples > report.bound]
    oracle = report.oracle
    largest = "" if oracle.stderrs is None else f" (largest stderr {float(oracle.stderrs.max())!r})"
    summary.append(f"expectation oracle         {oracle.method}{largest}")
    summary.append(f"mean deviation             {report.dev_mean!r} (stderr {report.dev_stderr!r})")
    summary.append(f"image gaussian average     {report.image_g.value!r}")
    summary.append(f"assembled bound            {report.bound!r} (tail {report.tail!r})")
    summary.append(f"empirical constant c_hat   {report.c_hat!r}")
    summary.append(
        f"coverage at delta={s['delta']}    rate {report.violation_rate!r} "
        f"(allowance {report.violation_allowance!r}) -> {'ok' if report.coverage_ok else 'VIOLATED'}"
    )
    return {"deviation": report}, (header, columns), report.coverage_ok


def _run_tail(run: _Run):
    exp, s, summary = run.exp, run.exp.settings, run.summary
    member = exp.fc.members[0 if s["member"] is None else exp.fc.labels.index(s["member"])]
    swing = run.timed("swing", squared_swing_sum, exp.stat, member, exp.law.space,
                      seed=stream(s["seed"], "tail/swing"))
    report = run.timed(
        "tail-simulation", bounded_difference_tail,
        exp.law, exp.stat, member, s["t_grid"], s["tail_replicas"], s["seed"],
        oracle_method=s["oracle"]["method"], oracle_replicas=s["oracle"]["replicas"], swing=swing,
    )
    header = ["t", "empirical", "bound", "stderr", "violation"]
    columns = [report.t_grid, report.empirical, report.bound, report.stderr, report.violations]
    summary.append(f"member                     {member.label}")
    summary.append(f"expected value             {report.expected_value!r}")
    summary.append(
        f"swing norm                 {report.swing_norm!r} "
        f"({'exact' if report.swing_is_exact else 'sampled lower bound'})"
    )
    summary.append(f"tail violations            {int(report.violations.sum())} -> {'ok' if report.ok else 'VIOLATED'}")
    return {"tail": report}, (header, columns), report.ok


def _run_probe(run: _Run):
    exp, s, summary, constants = run.exp, run.exp.settings, run.summary, run.constants
    x = sample(exp.law, stream(s["seed"], "probe/x", 0))
    x_alt = sample(exp.law, stream(s["seed"], "probe/x", 1))
    rng = stream(s["seed"], "probe/pairs")
    count = len(exp.fc)

    def run_probes():
        out = []
        for j in range(s["probe_pairs"]):
            i1, i2 = rng.choice(count, size=2, replace=False)
            f, g = exp.fc.members[int(i1)], exp.fc.members[int(i2)]
            out.append(
                swap_process_probe(
                    x, x_alt, f, g, exp.stat, constants, s["s_grid"], s["draws"],
                    stream(s["seed"], "probe/sigma", j),
                )
            )
        return out

    probes = run.timed("probes", run_probes)
    header = ["pair", "f", "g", "distance", "s", "empirical", "bound", "stderr", "violation"]
    # A pair's own values repeat over its grid; the grid's columns follow.
    sizes = [len(probe.s_grid) for probe in probes]
    columns = [np.repeat(np.arange(len(probes)), sizes)]
    columns += [np.repeat([getattr(probe, name) for probe in probes], sizes)
                for name in ("f_label", "g_label", "distance")]
    columns += [np.concatenate([getattr(probe, name) for probe in probes])
                for name in ("s_grid", "empirical", "bound", "stderr", "violations")]
    ok = True
    for probe in probes:
        ok = ok and probe.ok
        summary.append(
            f"pair ({probe.f_label}, {probe.g_label})  d={probe.distance!r}  "
            f"violations {int(probe.violations.sum())}  zero-mean {'ok' if probe.zero_mean_ok else 'VIOLATED'}"
        )
    summary.append(f"process probes             {'ok' if ok else 'VIOLATED'}")
    return {"probes": probes}, (header, columns), ok


# Each stage of ``config.STAGES``: its heading in a run of several stages,
# and its function.
_STAGES = {
    "constants": ("constants", _run_constants),
    "complexity": ("complexity", _run_complexity),
    "deviation": ("deviation", _run_deviation),
    "tail": ("tail", _run_tail),
    "probe": ("process probe", _run_probe),
}


def run_experiment(raw: dict, *, out_dir=None, seed=None, override=None):
    """Execute a configuration; returns (exit code, record as written, summary lines).

    ``out_dir``, ``seed`` and ``override`` mirror the CLI flags and override
    their configuration counterparts before resolution, so the echoed
    configuration reproduces the run by itself.
    """
    raw = dict(raw)
    if seed is not None:
        raw["seed"] = int(seed)
    if out_dir is not None:
        raw["out"] = str(out_dir)
    if override:
        raw["override_numeric_constants"] = True
    exp = resolve(raw)
    kind = exp.settings["kind"]

    run = _Run(exp)
    results: dict = {}
    tables = {}
    ok = True
    for stage in exp.stages:
        heading, execute = _STAGES[stage]
        if len(exp.stages) > 1:
            run.summary.append(f"[{heading}]")
        stage_results, tables[stage], stage_ok = execute(run)
        results.update(stage_results)
        ok = ok and stage_ok
    # A run writes the table of the last stage its kind always runs.
    header, columns = tables[KINDS[kind][0][-1]]

    record = {
        "artifact_version": __version__,
        # Bit-for-bit reruns hold for the same versions of these.
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "kind": kind,
        "config": exp.echo,
        "results": results,
        "wall_clock": run.seconds,
    }
    text = json.dumps(record, indent=2, sort_keys=True, default=_plain) + "\n"
    out_path = Path(exp.settings["out"])
    out_path.mkdir(parents=True, exist_ok=True)
    (out_path / f"result.{kind}.json").write_text(text, encoding="utf-8")
    _write_table(out_path / "table.csv", header, columns)
    run.summary.append(f"results written to {out_path}")
    return (EXIT_OK if ok else EXIT_INVARIANT), json.loads(text), run.summary
