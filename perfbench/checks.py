"""Output checks: run digests and an exact reference for the expectation oracle."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Record fields that may differ between runs of one configuration at one seed.
VOLATILE = ("wall_clock",)
VOLATILE_CONFIG = ("out", "workers")

# Allowed distance between the record's oracle and the reference.
MC_STDERRS = 5.0
EXACT_ABS = 1e-9


def read_outputs(out_dir: Path) -> tuple[dict, bytes, int]:
    """(record, table.csv bytes, bytes written) of one run's output directory."""
    (result,) = out_dir.glob("result.*.json")
    raw = result.read_bytes()
    table = (out_dir / "table.csv").read_bytes()
    return json.loads(raw), table, len(raw) + len(table)


def digest(record: dict, table: bytes) -> str:
    """sha256 of the record without its timings and run-location echo, plus
    the table."""
    pruned = {k: v for k, v in record.items() if k not in VOLATILE}
    pruned["config"] = {k: v for k, v in record["config"].items() if k not in VOLATILE_CONFIG}
    blob = json.dumps(pruned, sort_keys=True).encode("utf-8") + b"\0" + table
    return hashlib.sha256(blob).hexdigest()


def reference_oracle(exp) -> np.ndarray | None:
    """E Phi(f(X)) per member from per-coordinate moments, or None when the
    statistic has no moment form here.

    With W the (n, s) weight rows and S the (K, s) member values on the
    support, mu = S W^T and m2 = (S*S) W^T hold each member's per-coordinate
    first and second moments. An order-2 U-statistic sums the kernel over
    support pairs, weighted by the two coordinates' laws.
    """
    if exp.law.space.kind != "finite":
        return None
    w = exp.law.weight_matrix
    s = exp.fc.support_matrix()
    n = exp.n
    mu = s @ w.T
    if exp.stat.name == "mean":
        return mu.mean(axis=1)
    if exp.stat.name == "variance":
        m2 = (s * s) @ w.T
        total = mu.sum(axis=1)
        return ((n - 1) * m2.sum(axis=1) - total**2 + (mu**2).sum(axis=1)) / (n * (n - 1))
    if exp.kernel is not None and exp.kernel.order == 2:
        upper = np.triu_indices(n, 1)
        out = np.empty(s.shape[0])
        for k, values in enumerate(s):
            pairs = np.stack(np.broadcast_arrays(values[:, None], values[None, :]), axis=-1)
            per_coordinate_pair = w @ exp.kernel.fn(pairs) @ w.T
            out[k] = per_coordinate_pair[upper].mean()
        return out
    return None


def oracle_problems(record: dict, resolve) -> list[str]:
    """Where the record's expectation oracle disagrees with the reference.

    ``resolve`` builds the experiment from the record's echoed configuration.
    Monte Carlo values must lie within MC_STDERRS of their own standard
    errors; exact-enumeration values within EXACT_ABS.
    """
    deviation = record["results"].get("deviation")
    if deviation is None:
        return []
    oracle = deviation["oracle"]
    ref = reference_oracle(resolve(record["config"]))
    if ref is None:
        return []
    values = np.asarray(oracle["values"])
    allowed = np.full(values.shape, EXACT_ABS)
    if oracle["method"] == "monte-carlo":
        # The floor covers rounding where a member's statistic is constant.
        allowed = np.maximum(allowed, MC_STDERRS * np.asarray(oracle["stderrs"]))
    gap = np.abs(values - ref)
    bad = np.flatnonzero(gap > allowed)
    return [
        f"oracle {oracle['method']} member {oracle['labels'][k]}: "
        f"{float(values[k])!r} vs reference {float(ref[k])!r} (allowed {float(allowed[k])!r})"
        for k in bad
    ]
