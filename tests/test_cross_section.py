"""Rules that tie keys of different sections together, and the ranges the
library states.

Each case mutates the small deviate configuration so that it breaks one
cross-section rule or one range and nothing else: ``validate`` reports
exactly that rule's message, and ``run`` refuses the file with exit code 2
and the same message before it writes anything. Where a library function
states the rule, the message is that function's refusal of the same input,
at the key path.
"""

import numpy as np
import pytest
import yaml

from unibound import classes as cls, functionals as fx, spaces as sp
from unibound.cli import main
from unibound.complexity import check_draws, rademacher_mc
from unibound.config import RANGES, SCHEMA, validate_config
from unibound.derivative_bounds import closed_form_constants, estimate_constants_numeric
from unibound.deviation import (
    assemble_bound, bounded_difference_tail, deviation_experiment, expectation_oracle,
    squared_swing_sum, threshold_grid,
)
from unibound.errors import UniboundError
from unibound.rng import stream
from unibound.runner import EXIT_CONFIG, EXIT_OK, run_experiment

from test_config_cli import small_deviate_config

BITS = [{"label": "0", "value": 0.0}, {"label": "1", "value": 1.0}]
INTERVAL = {"space": {"kind": "interval"}}
AFFINE = {"members": [{"type": "affine", "label": "a", "slope": 1.0, "intercept": 0.0}]}
DERIVED = {"route": "derived-bound"}


def _u_statistic(kernel, constants=DERIVED):
    return {"statistic": {"name": "u-statistic", "kernel": kernel}, "constants": constants}


def _lookup(table):
    return {"class": {"members": [{"type": "lookup", "label": "a", "table": table}]}}


# (changes to the small deviate configuration, the one violation they cause)
CASES = {
    "support-labels": (
        {"law": {"space": {"kind": "finite", "support": [BITS[0], {**BITS[1], "label": "0"}]}}},
        "law.space.support: support labels must be unique"),
    "weight-rows": (
        {"law": {"space": {"kind": "finite", "support": BITS}, "weights": [[0.5, 0.5]] * 3}},
        "law.weights: need one row per coordinate (8)"),
    "weight-size": (
        {"law": {"space": {"kind": "finite", "support": BITS}, "weights": [0.2, 0.3, 0.5]}},
        "law.weights: weight vector must match the support size 2"),
    "weight-sign": (
        {"law": {"space": {"kind": "finite", "support": BITS}, "weights": [-0.5, 1.5]}},
        "law.weights: weights must be nonnegative"),
    "weight-sum": (
        {"law": {"space": {"kind": "finite", "support": BITS}, "weights": [[0.5, 0.5]] * 7
                 + [[0.7, 0.7]]}},
        "law.weights[7]: weights must sum to 1 within 1e-12"),
    "weight-type": (
        {"law": {"space": {"kind": "finite", "support": BITS}, "weights": ["0.5", 0.5]}},
        "law.weights: must be a vector of numbers or a list of them"),
    "random-lookup-interval": (
        {"law": INTERVAL},
        "class.random_lookup: random lookup classes need a finite space"),
    "lookup-member-interval": (
        {"law": INTERVAL, **_lookup({"0": 0.1, "1": 0.8})},
        "class.members[0]: lookup members exist only on finite spaces"),
    "lookup-missing-labels": (
        _lookup({"0": 0.1}),
        "class.members[0]: lookup table for 'a' misses support labels ['1']"),
    "lookup-extra-labels": (
        _lookup({"0": 0.1, "1": 0.8, "2": 0.5}),
        "class.members[0]: lookup table for 'a' names unknown labels ['2']"),
    "lookup-range": (
        _lookup({"0": 0.1, "1": 1.5}),
        "class.members: member 'a' leaves [0, 1] on the support"),
    "lookup-type": (
        _lookup({"0": 0.1, "1": True}),
        "class.members[0].table: values must be numbers"),
    "member-labels": (
        {"class": {"members": [{"type": "constant", "label": "a", "value": 0.5}] * 2}},
        "class.members: member labels must be unique"),
    "kernel-arguments": (
        _u_statistic({"name": "smoothed-min", "order": 3}),
        "statistic.kernel.order: smoothed-min is a two-argument kernel"),
    "kernel-order": (
        _u_statistic({"name": "product", "order": 9}),
        "statistic.kernel.order: kernel order 9 exceeds n = 8"),
    "subsets-cap": (
        {"n": 1415, **_u_statistic({"name": "squared-difference"})},
        "statistic.kernel.order: C(1415,2) subsets exceed the enumeration cap 1000000"),
    "subset-table-cap": (
        {"n": 1100, **_u_statistic({"name": "product", "order": 1098})},
        "statistic.kernel.order: C(1100,1098) x 1098 = 663686100 subset indices exceed the "
        "subset table cap 8000000"),
    "closed-form-u-statistic": (
        _u_statistic({"name": "smoothed-min"}, {"route": "closed-form"}),
        "constants.route: u-statistic[smoothed-min,m=2] carries no closed-form constants"),
    "numeric-pairs": (
        {"n": 1415, "constants": {"route": "numeric"}, "override_numeric_constants": True},
        "constants.route: C(1415,2) = 1000405 coordinate pairs exceed the enumeration cap 1000000"),
    "exact-interval": (
        {"law": INTERVAL, "class": AFFINE, "oracle": {"method": "exact"}},
        "oracle.method: exact enumeration needs a finite sample space"),
    "exact-cap": (
        {"n": 20, "oracle": {"method": "exact"}},
        "oracle.method: 2^20 lattice points exceed the enumeration cap 1000000"),
    "tail-interval": (
        {"kind": "tail", "t_grid": [0.1], "law": INTERVAL, "class": AFFINE},
        "law.space.kind: swing sums need a finite sample space"),
    "member-label": (
        {"member": "zz"},
        "member: unknown label 'zz'; class members: ['f00', 'f01', 'f02', 'f03']"),
    "group-sizes": (
        {"statistic": {"name": "class-separation", "group_sizes": [3, 4]}},
        "statistic.group_sizes: must sum to n = 8"),
    "seed-range": ({"seed": -1}, "seed: root seed must be a nonnegative integer"),
    "n-range": ({"n": 1}, "n: a product law needs n >= 2 coordinates"),
    "c-range": ({"c": 0.0}, "c: c must be a finite positive number"),
    "delta-range": ({"delta": 1.5}, "delta: delta must lie strictly inside (0, 1)"),
    "probes-range": ({"constants": {"probes": 0}}, "constants.probes: probes must be >= 1"),
    "fd-step-range": (
        {"constants": {"fd_step": 0.5}}, "constants.fd_step: fd_step must lie in [1e-7, 1e-2]"),
    "replications-floor": ({"replications": 99}, "replications: replications must be >= 100"),
    "draws-floor": ({"draws": 99}, "draws: draws must be >= 100"),
    "gaussian-draws-floor": ({"gaussian_draws": 99}, "gaussian_draws: gaussian_draws must be >= 100"),
    "tail-replicas-floor": ({"tail_replicas": 99}, "tail_replicas: tail_replicas must be >= 100"),
    "oracle-replicas-floor": ({"oracle": {"replicas": 99}}, "oracle.replicas: replicas must be >= 100"),
    "t-grid-range": ({"t_grid": [0.1, -0.1]}, "t_grid: thresholds must be finite and nonnegative"),
    "s-grid-range": (
        {"s_grid": {"min": -0.5, "max": 0.5, "count": 3}},
        "s_grid: thresholds must be finite and nonnegative"),
    "member-value": (
        {"class": {"members": [{"type": "constant", "label": "a", "value": 1.5}]}},
        "class.members[0]: member 'a' leaves [0, 1]"),
    "t-grid-cap": (
        {"t_grid": {"min": 0.0, "max": 1.0, "count": 10**20}},
        "t_grid: t_grid thresholds exceed the enumeration cap 1000000"),
    "lookup-cap": (
        {"class": {"random_lookup": {"count": 10**20}}},
        "class.random_lookup: count x 2 table entries exceed the enumeration cap 1000000"),
}


@pytest.mark.parametrize("case", CASES)
def test_cross_section_rule_refused_by_validate_and_run(tmp_path, capsys, case):
    changes, message = CASES[case]
    out = tmp_path / "out"
    cfg = {**small_deviate_config(out), **changes}
    assert validate_config(cfg) == [message]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


BITS_SPACE = sp.finite_space([("0", 0.0), ("1", 1.0)])
BITS_LAW = sp.iid_law(sp.uniform_on(BITS_SPACE), 8)
LOOKUPS = cls.random_lookup_class(BITS_SPACE, 4, 0)
VARIANCE = fx.sample_variance_statistic(8)
VARIANCE_CONSTANTS = closed_form_constants(VARIANCE)
# Each case whose rule a library function states: the key path, and the
# library call on the case's input that the rule refuses.
LIBRARY = {
    "support-labels": ("law.space.support", lambda: sp.finite_space([("0", 0.0), ("0", 1.0)])),
    "weight-size": ("law.weights", lambda: sp.finite_weights(BITS_SPACE, [0.2, 0.3, 0.5])),
    "weight-sign": ("law.weights", lambda: sp.finite_weights(BITS_SPACE, [-0.5, 1.5])),
    "weight-sum": ("law.weights[7]", lambda: sp.finite_weights(BITS_SPACE, [0.7, 0.7])),
    "random-lookup-interval": (
        "class.random_lookup", lambda: cls.random_lookup_class(sp.interval_space(), 4, 0)),
    "lookup-member-interval": (
        "class.members[0]", lambda: cls.lookup_member("a", sp.interval_space(), {"0": 0.1, "1": 0.8})),
    "lookup-missing-labels": ("class.members[0]", lambda: cls.lookup_member("a", BITS_SPACE, {"0": 0.1})),
    "lookup-extra-labels": (
        "class.members[0]", lambda: cls.lookup_member("a", BITS_SPACE, {"0": 0.1, "1": 0.8, "2": 0.5})),
    "lookup-range": ("class.members", lambda: cls.FunctionClass(
        BITS_SPACE, (cls.lookup_member("a", BITS_SPACE, {"0": 0.1, "1": 1.5}),))),
    "member-labels": (
        "class.members", lambda: cls.FunctionClass(BITS_SPACE, (cls.constant_member("a", 0.5),) * 2)),
    "kernel-order": ("statistic.kernel.order", lambda: fx.u_statistic(8, fx.product_kernel(9))),
    "subsets-cap": ("statistic.kernel.order",
                    lambda: fx.u_statistic(1415, fx.squared_difference_kernel())),
    "subset-table-cap": ("statistic.kernel.order",
                         lambda: fx.u_statistic(1100, fx.product_kernel(1098))),
    "closed-form-u-statistic": (
        "constants.route", lambda: closed_form_constants(fx.u_statistic(8, fx.smoothed_min_kernel()))),
    "numeric-pairs": (
        "constants.route",
        lambda: estimate_constants_numeric(fx.sample_variance_statistic(1415), probes=1)),
    "exact-interval": ("oracle.method", lambda: expectation_oracle(
        sp.iid_law(sp.uniform_on(sp.interval_space()), 8),
        cls.FunctionClass(sp.interval_space(), (cls.identity_member("a"),)),
        fx.sample_variance_statistic(8), "exact")),
    "exact-cap": ("oracle.method", lambda: expectation_oracle(
        sp.iid_law(sp.uniform_on(BITS_SPACE), 20), cls.random_lookup_class(BITS_SPACE, 4, 0),
        fx.sample_variance_statistic(20), "exact")),
    "tail-interval": ("law.space.kind", lambda: squared_swing_sum(
        fx.sample_variance_statistic(8), cls.identity_member("a"), sp.interval_space())),
    "seed-range": ("seed", lambda: stream(-1, "config")),
    "n-range": ("n", lambda: sp.iid_law(sp.uniform_on(BITS_SPACE), 1)),
    "c-range": ("c", lambda: assemble_bound(VARIANCE_CONSTANTS, 0.1, 0.0, 0.1, 8)),
    "delta-range": ("delta", lambda: assemble_bound(VARIANCE_CONSTANTS, 0.1, 1.0, 1.5, 8)),
    "probes-range": ("constants.probes", lambda: estimate_constants_numeric(VARIANCE, probes=0)),
    "fd-step-range": ("constants.fd_step", lambda: estimate_constants_numeric(VARIANCE, fd_step=0.5)),
    "replications-floor": ("replications", lambda: deviation_experiment(
        BITS_LAW, LOOKUPS, VARIANCE, VARIANCE_CONSTANTS, 1.0, 0.1, 99, 7)),
    "draws-floor": ("draws", lambda: rademacher_mc(LOOKUPS.support_matrix(), 99, 7)),
    "gaussian-draws-floor": ("gaussian_draws", lambda: check_draws(99, "gaussian_draws")),
    "tail-replicas-floor": ("tail_replicas", lambda: check_draws(99, "tail_replicas")),
    "oracle-replicas-floor": ("oracle.replicas", lambda: expectation_oracle(
        BITS_LAW, LOOKUPS, VARIANCE, "monte-carlo", replicas=99)),
    "t-grid-range": ("t_grid", lambda: bounded_difference_tail(
        BITS_LAW, VARIANCE, LOOKUPS.members[0], [0.1, -0.1], 100, 7)),
    "s-grid-range": ("s_grid", lambda: threshold_grid(np.linspace(-0.5, 0.5, 3), "s_grid")),
    "member-value": ("class.members[0]", lambda: cls.constant_member("a", 1.5)),
    "t-grid-cap": ("t_grid", lambda: threshold_grid({"min": 0.0, "max": 1.0, "count": 10**20}, "t_grid")),
    "lookup-cap": ("class.random_lookup", lambda: cls.random_lookup_class(BITS_SPACE, 10**20, 0)),
}


@pytest.mark.parametrize("case", LIBRARY)
def test_library_rule_reports_the_library_message(tmp_path, case):
    path, refuse = LIBRARY[case]
    with pytest.raises(UniboundError) as refusal:
        refuse()
    changes, _ = CASES[case]
    assert validate_config({**small_deviate_config(tmp_path), **changes}) == [f"{path}: {refusal.value}"]


# Each key whose range a library function states, with a value of the key's
# type outside that range.
OUT_OF_RANGE = {
    "seed": -1, "n": 1, "c": 0.0, "delta": 1.5, "constants.probes": 0, "constants.fd_step": 0.5,
    "replications": 99, "draws": 99, "gaussian_draws": 99, "tail_replicas": 99,
    "oracle.replicas": 99, "t_grid": [-0.1], "s_grid": {"min": -0.5, "max": 0.5, "count": 3},
    "class.members[].value": 1.5, "probe_pairs": 10**7,
}


def test_the_field_table_tests_no_library_range():
    # The member value's range is the class's, which checks the members it is given.
    assert set(OUT_OF_RANGE) == {path for path, _ in RANGES} | {"class.members[].value"}
    for path, value in OUT_OF_RANGE.items():
        assert SCHEMA.fields[path].test(value) is None, path


@pytest.mark.parametrize("changes", [
    {"statistic": {"name": "class-separation", "group_sizes": [3, 5]}},
    {"law": {"space": {"kind": "finite", "support": BITS}, "weights": [0.25, 0.75]}},
], ids=["class-separation", "flat-weights"])
def test_cross_section_neighbours_run(tmp_path, changes):
    cfg = {**small_deviate_config(tmp_path), **changes}
    assert validate_config(cfg) == []
    code, record, _ = run_experiment(cfg)
    assert code == EXIT_OK
    assert record["results"]["deviation"]["dev_mean"] >= 0.0


def test_tail_runs_the_named_member(tmp_path):
    cfg = {**small_deviate_config(tmp_path), "kind": "tail", "member": "f01",
           "t_grid": [0.1, 0.2], "tail_replicas": 200}
    del cfg["delta"], cfg["replications"]
    assert validate_config(cfg) == []
    code, record, summary = run_experiment(cfg)
    assert code == EXIT_OK
    assert "member                     f01" in summary
    assert set(record["results"]) == {"tail"}
