"""Run ``unibound`` the way its console script does, and record timings.

    python3 perfbench/child.py SIDECAR MODE UNIBOUND-ARGS...

MODE is one of

* ``plain``: marks when ``import unibound`` starts and ends, when the
  experiment is resolved and when its outputs are written;
* ``setup``: the same marks, but the process exits right after the
  experiment is resolved, so set-up can be sampled on its own;
* ``trace``: the ``plain`` marks plus one span per call into the layers
  listed in ``LAYER_CALLS`` and per ``Statistic.evaluate`` call.

Nothing under ``src/`` is changed: the spans come from wrapping, in this
process only, the names each module imports from another layer. The marks
and spans go to the JSON file SIDECAR when the process ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import math
import sys
import threading
import time

# (module or "module:Class" whose attribute is wrapped, attribute, span). A
# module calls another layer through the name it imported, so each importing
# module is listed.
LAYER_CALLS = [
    ("unibound.cli", "main", "cli.main"),
    ("unibound.cli", "load_config", "config.load"),
    ("unibound.config", "validate_config", "config.validate"),
    ("unibound.runner", "resolve", "config.resolve"),
    ("unibound.cli", "run_experiment", "runner.run"),
    ("unibound.runner", "closed_form_constants", "derivative_bounds.constants"),
    ("unibound.runner", "u_statistic_constant_bounds", "derivative_bounds.constants"),
    ("unibound.runner", "estimate_constants_numeric", "derivative_bounds.constants"),
    ("unibound.runner", "deviation_experiment", "deviation.experiment"),
    ("unibound.deviation", "expectation_oracle", "deviation.oracle"),
    ("unibound.deviation", "uniform_deviation", "deviation.uniform_deviation"),
    ("unibound.runner", "squared_swing_sum", "deviation.swing"),
    ("unibound.runner", "bounded_difference_tail", "deviation.tail"),
    ("unibound.runner", "swap_process_probe", "deviation.probe"),
    ("unibound.runner", "sample", "spaces.sample"),
    ("unibound.deviation", "sample", "spaces.sample"),
    ("unibound.deviation", "draw_batch", "spaces.draw_batch"),
    ("unibound.classes:FunctionClass", "image_matrix", "classes.image"),
    ("unibound.runner", "gaussian_mc", "complexity.gaussian"),
    ("unibound.deviation", "gaussian_mc", "complexity.gaussian"),
    ("unibound.complexity", "gaussian_mc", "complexity.gaussian"),
    ("unibound.runner", "rademacher_exact", "complexity.rademacher"),
    ("unibound.runner", "rademacher_mc", "complexity.rademacher"),
    ("unibound.complexity", "rademacher_exact", "complexity.rademacher"),
    ("unibound.complexity", "rademacher_mc", "complexity.rademacher"),
    ("unibound.runner", "comparison_report", "complexity.comparison"),
    ("unibound.complexity", "standard_normals", "rng.normals"),
    ("unibound.runner", "stream", "rng.stream"),
    ("unibound.deviation", "stream", "rng.stream"),
    ("unibound.config", "stream", "rng.stream"),
    ("unibound.functionals", "stream", "rng.stream"),
]

# Work counted per span, from the call's arguments.
AMOUNTS = {
    "spaces.draw_batch": lambda args, kwargs: kwargs.get("count", args[1] if len(args) > 1 else 0),
    "complexity.gaussian": lambda args, kwargs: kwargs.get("draws", args[1] if len(args) > 1 else 0),
}


class SetupDone(BaseException):
    """Raised once the experiment is resolved in ``setup`` mode."""


class Tracer:
    """Spans (id, name, start, end, parent id, amount), kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, amount=None):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            work = amount(args, kwargs) if amount else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, work))

        return traced

    def install(self):
        for owner_path, attr, name in LAYER_CALLS:
            module_path, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_path)
            if class_name:
                owner = getattr(owner, class_name)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), AMOUNTS.get(name)))

    def wrap_statistic(self, exp):
        """The experiment with its statistic's ``evaluate`` traced."""
        rows = lambda args, kwargs: math.prod(args[0].shape[:-1])
        evaluate = self.wrap("functionals.eval", exp.stat.evaluate, rows)
        return dataclasses.replace(exp, stat=dataclasses.replace(exp.stat, evaluate=evaluate))


def row_bytes(exp) -> int:
    """Bytes one evaluated row touches: n doubles, or the (C(n,m), m)
    subset gather of a U-statistic."""
    if exp.kernel is not None:
        m = exp.kernel.order
        return math.comb(exp.n, m) * m * 8
    return exp.n * 8


def main() -> int:
    sidecar, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    marks = {"import_start": time.monotonic()}
    import unibound.cli as cli
    import unibound.runner as runner

    marks["imported"] = time.monotonic()
    info: dict = {"marks": marks}
    tracer = Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()

    traced_resolve = runner.resolve

    def resolve(raw):
        exp = traced_resolve(raw)
        marks["resolved"] = time.monotonic()
        if mode == "setup":
            raise SetupDone
        if tracer:
            info["row_bytes"] = row_bytes(exp)
            exp = tracer.wrap_statistic(exp)
        return exp

    traced_run = cli.run_experiment

    def run_experiment(*args, **kwargs):
        result = traced_run(*args, **kwargs)
        marks["written"] = time.monotonic()
        return result

    runner.resolve = resolve
    cli.run_experiment = run_experiment
    try:
        code = cli.main(argv)
    except SetupDone:
        code = 0
    finally:
        if tracer:
            info["spans"] = tracer.spans
        with open(sidecar, "w", encoding="utf-8") as handle:
            json.dump(info, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
