"""The shipped configurations keep their outputs byte for byte.

Each configuration runs in-process at seed 1 into a temporary directory,
and the sha256 of its record (without the run's timings and output
directory) and ``table.csv`` must equal the pinned value. The Monte Carlo
oracle's count path, which no shipped configuration takes, runs on the
variance configuration with 20 000 oracle draws. So do three benchmark-shaped
runs, written here in full: a Monte Carlo oracle of 100 000 draws on 256
members, 2000 replications of the deviation loop, and a U-statistic full
report.

The record names the Python, numpy and scipy versions, which are part of
its bytes, and the contract holds for fixed versions; the test skips on
any other. A change that moves a result on purpose re-pins the value it
moves and says why.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml

from unibound.cli import main

ROOT = Path(__file__).resolve().parent.parent
PINNED_VERSIONS = ("3.11.7", "2.4.6", "1.17.1")

# Configuration (or configuration + variant) -> sha256 at seed 1.
DIGESTS = {
    "complexity_lookup": "5f17251a469444d6c9327cf83b0869cbe1ae5522f33dc760c325f956738d24a8",
    "constants_numeric_variance": "91df711281dd19e490e4fa0d538a5beea42bc973c789bb2dfd8dc6ff2e9c38bf",
    "deviate_mean": "18627e5c39a029e0a40ca5f16c77fc9315b86487bcfbd3ec936eb5d352288792",
    "deviate_variance": "a0bb399acfc629a09e2c1404801e5e0f6f4fe2e7a14b44551ce12c14a9bbfd18",
    "full_report": "6100bad01a4b695b07589002fdba2754b6ba1c15a2abc2e74bb3596d35157261",
    "probe_variance": "08728f48be1204ba6d9b057fdb841970561df531331c75f544326b94c939d4e8",
    "tail_mean": "8d555c3e74a5d765e4c6057fc21ee8a0813019382ddfd19ab05139ac6d6527a3",
    "deviate_variance+monte-carlo": "761a11b23663b9bf2772bd1eb4f627e12c25fe8aef3b0743bf7f4625bc69aa83",
}
VARIANTS = {"monte-carlo": {"oracle": {"method": "monte-carlo", "replicas": 20000}}}

FIVE_POINTS = {"kind": "finite", "support": [
    {"label": label, "value": value}
    for label, value in zip("abcde", (0.0, 0.25, 0.5, 0.75, 1.0))
]}
# Configuration -> (configuration, sha256 at seed 1).
WORKLOADS = {
    "oracle-mc": ({
        "kind": "deviate", "seed": 1, "n": 64, "law": {"space": FIVE_POINTS},
        "class": {"random_lookup": {"count": 256}}, "statistic": {"name": "variance"},
        "constants": {"route": "closed-form"}, "c": 1.0, "delta": 0.1,
        "replications": 200, "gaussian_draws": 2000,
        "oracle": {"method": "monte-carlo", "replicas": 100000},
    }, "14c18e9e23c036d65c688494e7ff34cc3f53451998ab5130c5e9b911eb446077"),
    "replicate": ({
        "kind": "deviate", "seed": 1, "n": 16, "law": {"space": FIVE_POINTS},
        "class": {"random_lookup": {"count": 64}}, "statistic": {"name": "variance"},
        "constants": {"route": "closed-form"}, "c": 1.0, "delta": 0.1,
        "replications": 2000, "gaussian_draws": 2000, "oracle": {"method": "monte-carlo"},
    }, "3ba454373cd6f0ae87bc550f6afab38c783da1fc6499c52bb8c2af5a069353f4"),
    "ustat-report": ({
        "kind": "full-report", "seed": 1, "n": 16,
        "law": {"space": {"kind": "finite", "support": [
            {"label": "0", "value": 0.0}, {"label": "1", "value": 1.0}]}},
        "class": {"random_lookup": {"count": 16}},
        "statistic": {"name": "u-statistic", "kernel": {"name": "smoothed-min", "sharpness": 4}},
        "constants": {"route": "derived-bound"}, "c": 1.0, "delta": 0.1,
        "replications": 300, "draws": 20000, "gaussian_draws": 1000, "tail_replicas": 100000,
        "t_grid": {"min": 0.0, "max": 0.4, "count": 8},
        "s_grid": {"min": 0.02, "max": 0.3, "count": 6}, "probe_pairs": 3,
    }, "80753d3657d666d3c984341b73af07bb6ee8c97df14410f9e4375bc122133a09"),
}

pytestmark = pytest.mark.skipif(
    (platform.python_version(), np.__version__, scipy.__version__) != PINNED_VERSIONS,
    reason=f"digests are pinned for Python, numpy, scipy = {PINNED_VERSIONS}",
)


def run_digest(config: Path, out: Path, capsys) -> str:
    """sha256 of one seed-1 run's record, without ``wall_clock`` and the
    echoed ``out``, followed by a zero byte and ``table.csv``."""
    assert main(["run", str(config), "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    (result,) = out.glob("result.*.json")
    record = json.loads(result.read_text(encoding="utf-8"))
    del record["wall_clock"], record["config"]["out"]
    blob = json.dumps(record, sort_keys=True).encode("utf-8") + b"\0"
    return hashlib.sha256(blob + (out / "table.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shipped_outputs_keep_their_digest(name, tmp_path, capsys):
    stem, _, variant = name.partition("+")
    config = ROOT / "configs" / f"{stem}.yaml"
    if variant:
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        raw.update(VARIANTS[variant])
        config = tmp_path / f"{stem}.yaml"
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert run_digest(config, tmp_path / "out", capsys) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_shaped_runs_keep_their_digest(name, tmp_path, capsys):
    raw, pinned = WORKLOADS[name]
    config = tmp_path / f"{name}.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert run_digest(config, tmp_path / "out", capsys) == pinned
