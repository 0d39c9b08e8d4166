"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the PASS/FAIL line
per criterion on the terminal.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

from unibound.classes import lookup_member, random_lookup_class
from unibound.cli import main as cli_main
from unibound.complexity import comparison_report, gaussian_mc, rademacher_exact, rademacher_mc
from unibound.derivative_bounds import (
    closed_form_constants,
    estimate_constants_numeric,
    u_statistic_constant_bounds,
)
from unibound.deviation import (
    bounded_difference_tail,
    deviation_experiment,
    swap_process_probe,
    symmetrization_check_mean,
)
from unibound.functionals import (
    mean_statistic,
    sample_variance_statistic,
    squared_difference_kernel,
    u_statistic,
)
from unibound.rng import stream
from unibound.spaces import finite_space, iid_law, sample, uniform_on

BITS = finite_space([("0", 0.0), ("1", 1.0)])
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

ROOT_SEED = 20260810


def bit_law(n):
    return iid_law(uniform_on(BITS), n)


def verdict(number, ok, detail):
    line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def random_point_sets(count=20):
    sets = []
    for i in range(count):
        rng = stream(ROOT_SEED, "acceptance/classes", i)
        n = int(rng.integers(2, 13))
        k = int(rng.integers(2, 51))
        sets.append(rng.random((k, n)))
    return sets


# ---------------------------------------------------------------------------

def test_criterion_01_exact_vs_mc_rademacher():
    start = time.perf_counter()
    hits = 0
    for i, y in enumerate(random_point_sets()):
        exact = rademacher_exact(y).value
        est = rademacher_mc(y, 100_000, stream(ROOT_SEED, "acceptance/c1", i))
        hits += abs(est.value - exact) <= 4.0 * est.stderr
    elapsed = time.perf_counter() - start
    verdict(1, hits >= 19 and elapsed < 60.0,
            f"{hits}/20 within 4 stderr of exact, {elapsed:.1f}s")


def test_criterion_02_gaussian_analytic_values():
    pair = gaussian_mc([[1.0], [-1.0]], 100_000, stream(ROOT_SEED, "acceptance/c2", 0))
    basis = gaussian_mc([[1.0, 0.0], [0.0, 1.0]], 100_000, stream(ROOT_SEED, "acceptance/c2", 1))
    err_pair = abs(pair.value - math.sqrt(2.0 / math.pi))
    err_basis = abs(basis.value - 1.0 / math.sqrt(math.pi))
    ok = err_pair <= 4.0 * pair.stderr and err_basis <= 4.0 * basis.stderr
    verdict(2, ok,
            f"|G-sqrt(2/pi)|={err_pair:.2e} (4se={4*pair.stderr:.2e}), "
            f"|G-1/sqrt(pi)|={err_basis:.2e} (4se={4*basis.stderr:.2e})")


def test_criterion_03_comparison_inequalities():
    flagged = 0
    for i, y in enumerate(random_point_sets()):
        rep = comparison_report(y, 100_000, stream(ROOT_SEED, "acceptance/c3", i))
        flagged += not rep.ok
    verdict(3, flagged == 0, f"{flagged}/20 classes flagged")


def test_criterion_04_numeric_constants_oracle():
    worst = 0.0
    for n in (4, 8, 16):
        rep = estimate_constants_numeric(
            sample_variance_statistic(n), probes=200, seed=stream(ROOT_SEED, "acceptance/c4", n)
        )
        worst = max(worst, abs(rep.lipschitz - 2.0 / n),
                    abs(rep.mixed - 2.0 / math.sqrt(n * (n - 1))))
    mean_rep = estimate_constants_numeric(
        mean_statistic(6), probes=50, seed=stream(ROOT_SEED, "acceptance/c4", 0)
    )
    ok = worst <= 1e-4 and mean_rep.mixed <= 1e-6
    verdict(4, ok, f"variance max error {worst:.2e} (tol 1e-4), mean M_hat {mean_rep.mixed:.2e}")


def test_criterion_05_u_statistic_reduction():
    n = 9
    u = u_statistic(n, squared_difference_kernel())
    v = sample_variance_statistic(n)
    pts = stream(ROOT_SEED, "acceptance/c5").random((1000, n))
    gap = float(np.max(np.abs(u(pts) - v(pts))))
    derived = u_statistic_constant_bounds(n, squared_difference_kernel())
    closed = closed_form_constants(v)
    exact_match = derived.lipschitz == closed.lipschitz and derived.mixed == closed.mixed
    verdict(5, gap <= 1e-12 and exact_match,
            f"max |u - variance| = {gap:.2e}, derived == closed: {exact_match}")


def test_criterion_06_symmetrization_bound_for_mean():
    fc = random_lookup_class(BITS, 16, stream(ROOT_SEED, "acceptance/c6-class"))
    rep = symmetrization_check_mean(bit_law(12), fc, 1000, ROOT_SEED + 6)
    verdict(6, rep.holds,
            f"dev {rep.dev_mean:.5f} <= (2/n) R {rep.bound_side:.5f} + slack {rep.allowance:.5f}")


def test_criterion_06_report_is_pinned():
    # Criterion 6's report at the acceptance seed, every field to the bit: a
    # change to how the replications draw or average must not move it.
    fc = random_lookup_class(BITS, 16, stream(ROOT_SEED, "acceptance/c6-class"))
    rep = symmetrization_check_mean(bit_law(12), fc, 1000, ROOT_SEED + 6)
    assert (rep.dev_mean, rep.dev_stderr) == (0.09391257926280147, 0.002330425201557446)
    assert (rep.rad_mean, rep.rad_stderr) == (1.4908091672053745, 0.0009628229315084048)
    assert (rep.bound_side, rep.allowance) == (0.24846819453422908, 0.009963582760568721)
    assert rep.holds


def test_criterion_07_bounded_difference_tail():
    n = 25
    member = lookup_member("id", BITS, {"0": 0.0, "1": 1.0})
    t_grid = np.linspace(0.0, 0.45, 10)
    rep = bounded_difference_tail(
        bit_law(n), mean_statistic(n), member, t_grid, 100_000, ROOT_SEED + 7
    )
    at = int(np.argmin(np.abs(rep.t_grid - 0.2)))
    bound_02 = rep.bound[at]
    binomial_tail = float(binom.sf(17, 25, 0.5))  # P(X >= 18) = P(mean - 1/2 > 0.2)
    ok = (
        rep.ok
        and bound_02 == pytest.approx(math.exp(-2.0), rel=1e-12)
        and binomial_tail < bound_02
    )
    verdict(7, ok,
            f"violations {int(rep.violations.sum())}, bound(0.2)={bound_02:.6f} "
            f"(exp(-2)={math.exp(-2.0):.6f}), exact binomial {binomial_tail:.6f}")


@pytest.fixture(scope="module")
def scaling_reference():
    fc = random_lookup_class(BITS, 8, stream(ROOT_SEED, "acceptance/c8-class"))
    stat = sample_variance_statistic(16)
    rep = deviation_experiment(
        bit_law(16), fc, stat, closed_form_constants(stat),
        1.0, 0.1, 1000, ROOT_SEED + 8, gaussian_draws=2000,
    )
    return fc, rep


def test_criterion_08_main_bound_shape(scaling_reference):
    fc, base = scaling_reference
    c_hat = base.c_hat
    details = [f"c_hat(16)={c_hat:.5f}"]
    ok = c_hat is not None and c_hat > 0.0
    for n in (32, 64):
        stat = sample_variance_statistic(n)
        constants = closed_form_constants(stat)
        rep = deviation_experiment(
            bit_law(n), fc, stat, constants, 1.0, 0.1, 1000, ROOT_SEED + n,
            gaussian_draws=2000, oracle_replicas=20_000,
        )
        budget = 1.5 * c_hat * (constants.lipschitz + constants.mixed) * rep.image_g.value
        ok = ok and rep.dev_mean <= budget
        details.append(f"n={n}: dev {rep.dev_mean:.5f} <= 1.5 c_hat (L+M) Eg {budget:.5f}")
    verdict(8, ok, "; ".join(details))


def test_criterion_09_delta_coverage(scaling_reference):
    fc, base = scaling_reference
    c_cal = base.c_hat * (1.0 + 3.0 * base.c_hat_rel_stderr)
    stat = sample_variance_statistic(16)
    rep = deviation_experiment(
        bit_law(16), fc, stat, closed_form_constants(stat),
        c_cal, 0.1, 1000, ROOT_SEED + 9, gaussian_draws=2000,
    )
    ceiling = 0.1 + 4.0 * math.sqrt(0.1 * 0.9 / 1000.0)
    ok = rep.violation_rate <= ceiling
    verdict(9, ok,
            f"c={c_cal:.5f}, violation rate {rep.violation_rate:.4f} <= {ceiling:.4f}")


def test_criterion_10_process_probe():
    # a 5-point support keeps the swapped variance process non-degenerate
    # (on a binary support, draws with balanced agreement collapse it to 0)
    n = 10
    space = finite_space([(str(j), j / 4.0) for j in range(5)])
    law = iid_law(uniform_on(space), n)
    fc = random_lookup_class(space, 8, stream(ROOT_SEED, "acceptance/c10-class"))
    stat = sample_variance_statistic(n)
    constants = closed_form_constants(stat)
    x = sample(law, stream(ROOT_SEED, "acceptance/c10-x", 0))
    x_alt = sample(law, stream(ROOT_SEED, "acceptance/c10-x", 1))
    rng = stream(ROOT_SEED, "acceptance/c10-pairs")
    s_grid = np.linspace(0.02, 0.3, 8)
    ok = True
    details = []
    for j in range(3):
        i1, i2 = rng.choice(len(fc), size=2, replace=False)
        rep = swap_process_probe(
            x, x_alt, fc.members[int(i1)], fc.members[int(i2)], stat, constants,
            s_grid, 100_000, stream(ROOT_SEED, "acceptance/c10-sigma", j),
        )
        ok = ok and not rep.violations.any() and rep.zero_mean_ok
        assert rep.process_stderr > 1e-6  # the process must actually fluctuate
        details.append(
            f"({rep.f_label},{rep.g_label}): viol {int(rep.violations.sum())}, "
            f"|mean Y|={abs(rep.process_mean):.2e} vs 4se={4*rep.process_stderr:.2e}"
        )
    verdict(10, ok, "; ".join(details))


def _record_without_run_details(out_dir):
    """The run record, serialised, without its timings and the echoed run
    location, which differ between reruns."""
    (path,) = out_dir.glob("result.*.json")
    record = json.loads(path.read_text(encoding="utf-8"))
    del record["wall_clock"], record["config"]["out"]
    return json.dumps(record, sort_keys=True)


def test_criterion_11_determinism_of_shipped_configs(tmp_path):
    mismatches = []
    for config in sorted(CONFIG_DIR.glob("*.yaml")):
        out_a = tmp_path / f"{config.stem}-a"
        out_b = tmp_path / f"{config.stem}-b"
        code_a = cli_main(["run", str(config), "--out", str(out_a), "--workers", "1"])
        code_b = cli_main(["run", str(config), "--out", str(out_b), "--workers", "3"])
        same = (out_a / "table.csv").read_bytes() == (out_b / "table.csv").read_bytes()
        same = same and _record_without_run_details(out_a) == _record_without_run_details(out_b)
        if not (same and code_a == code_b == 0):
            mismatches.append(config.name)
    verdict(11, not mismatches,
            f"{7 - len(mismatches)}/7 shipped configs give identical records and byte-identical "
            "tables across reruns and worker counts"
            + (f"; mismatches: {mismatches}" if mismatches else ""))
