"""Results do not depend on how many threads BLAS may use.

Each test runs the same computation in two fresh processes, one with one
BLAS thread and one with two, and compares what they print or write. A
BLAS dot or matrix product on a reported value can sum in a different
order per thread count, and would show here as a difference in the last
digits.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from test_digests import PINNED_VERSIONS

ROOT = Path(__file__).resolve().parent.parent

EXACT_ORACLE = """
from unibound.classes import random_lookup_class
from unibound.deviation import expectation_oracle
from unibound.functionals import class_separation_statistic, sample_variance_statistic
from unibound.spaces import finite_space, iid_law, uniform_on

bits = finite_space([("0", 0.0), ("1", 1.0)])
n = 16
law = iid_law(uniform_on(bits), n)
for stat in (sample_variance_statistic(n), class_separation_statistic([8, 8])):
    for seed in range(4):
        oracle = expectation_oracle(law, random_lookup_class(bits, 2, seed), stat, "exact")
        print([repr(float(v)) for v in oracle.values])
"""

# The analytic U-statistic oracle sums a member's kernel values over its
# support^m tuples, here 1e6 of them.
U_STATISTIC_ORACLE = """
from unibound.classes import random_lookup_class
from unibound.deviation import expectation_oracle
from unibound.functionals import smoothed_min_kernel, u_statistic
from unibound.spaces import finite_space, iid_law, uniform_on

points = finite_space([(str(j), j / 999) for j in range(1000)])
n = 6
oracle = expectation_oracle(iid_law(uniform_on(points), n), random_lookup_class(points, 3, 5),
                            u_statistic(n, smoothed_min_kernel()), "auto")
print(oracle.method, [repr(float(v)) for v in oracle.values])
"""

# Class separation on rows of thousands of points, where a matrix product
# over the coordinates would split its sums by thread.
CLASS_SEPARATION = """
from unibound.functionals import class_separation_statistic
from unibound.rng import stream

stat = class_separation_statistic([1500, 1500])
print([repr(float(v)) for v in stat(stream(3, "rows").random((4, stat.n)))])
"""

# The replication loop's Gaussian products, one per replication and slice
# of pairs, at the shape of the replicate benchmark: 64 members on five
# support points at n = 16, 200 replications.
REPLICATIONS = """
import hashlib
from unibound.classes import random_lookup_class
from unibound.derivative_bounds import closed_form_constants
from unibound.deviation import deviation_experiment
from unibound.functionals import sample_variance_statistic
from unibound.spaces import finite_space, iid_law, uniform_on

points = finite_space([(str(j), j / 4) for j in range(5)])
stat = sample_variance_statistic(16)
rep = deviation_experiment(iid_law(uniform_on(points), 16), random_lookup_class(points, 64, 1), stat,
                           closed_form_constants(stat), 1.0, 0.1, 200, 1, gaussian_draws=2000,
                           oracle_method="monte-carlo")
print(hashlib.sha256(rep.dev_samples.tobytes() + rep.image_g_samples.tobytes()).hexdigest(),
      rep.argmax_labels)
"""


def _run(args, threads):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def _same_output_at_one_and_two_threads(script):
    one, two = (_run(["-c", script], threads) for threads in (1, 2))
    assert one == two


def test_exact_oracle_does_not_depend_on_blas_threads():
    _same_output_at_one_and_two_threads(EXACT_ORACLE)


def test_u_statistic_oracle_does_not_depend_on_blas_threads():
    _same_output_at_one_and_two_threads(U_STATISTIC_ORACLE)


def test_class_separation_does_not_depend_on_blas_threads():
    _same_output_at_one_and_two_threads(CLASS_SEPARATION)


def test_replications_do_not_depend_on_blas_threads():
    _same_output_at_one_and_two_threads(REPLICATIONS)


def _record(out):
    record = json.loads((out / "result.full-report.json").read_text(encoding="utf-8"))
    del record["wall_clock"], record["config"]["out"]
    return json.dumps(record, sort_keys=True)


def test_full_report_does_not_depend_on_blas_threads(tmp_path):
    # full_report.yaml runs every stage: constants, complexity, deviations,
    # swing, tail and probes.
    outs = [tmp_path / f"threads-{threads}" for threads in (1, 2)]
    for threads, out in zip((1, 2), outs):
        _run(["-m", "unibound.cli", "run", str(ROOT / "configs" / "full_report.yaml"),
              "--out", str(out)], threads)
    assert _record(outs[0]) == _record(outs[1])
    assert (outs[0] / "table.csv").read_bytes() == (outs[1] / "table.csv").read_bytes()


@pytest.mark.skipif(
    (platform.python_version(), np.__version__, scipy.__version__) != PINNED_VERSIONS,
    reason=f"digests are pinned for Python, numpy, scipy = {PINNED_VERSIONS}",
)
def test_digests_hold_at_one_and_two_blas_threads(tmp_path):
    # The pinned digests of every shipped configuration and benchmark shape,
    # each run in a fresh process at each thread count.
    for threads in (1, 2):
        out = _run(["-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider",
                    f"--basetemp={tmp_path / f'threads-{threads}'}",
                    str(ROOT / "tests" / "test_digests.py")], threads)
        assert " passed" in out and "skipped" not in out, out
