"""Rules that tie keys of different sections together.

Each case mutates the small deviate configuration so that it breaks one
cross-section rule and nothing else: ``validate`` reports exactly that
rule's message, and ``run`` refuses the file with exit code 2 and the
same message before it writes anything.
"""

import pytest
import yaml

from unibound.cli import main
from unibound.config import validate_config
from unibound.runner import EXIT_CONFIG, EXIT_OK, run_experiment

from test_config_cli import small_deviate_config

BITS = [{"label": "0", "value": 0.0}, {"label": "1", "value": 1.0}]
INTERVAL = {"space": {"kind": "interval"}}
AFFINE = {"members": [{"type": "affine", "label": "a", "slope": 1.0, "intercept": 0.0}]}
DERIVED = {"route": "derived-bound"}


def _u_statistic(kernel):
    return {"statistic": {"name": "u-statistic", "kernel": kernel}, "constants": DERIVED}


# (changes to the small deviate configuration, the one violation they cause)
CASES = {
    "support-labels": (
        {"law": {"space": {"kind": "finite", "support": [BITS[0], {**BITS[1], "label": "0"}]}}},
        "law.space.support: labels must be unique"),
    "weight-rows": (
        {"law": {"space": {"kind": "finite", "support": BITS}, "weights": [[0.5, 0.5]] * 3}},
        "law.weights: need one row per coordinate (8)"),
    "weight-size": (
        {"law": {"space": {"kind": "finite", "support": BITS}, "weights": [0.2, 0.3, 0.5]}},
        "law.weights[0]: must match the support size 2"),
    "weight-sign": (
        {"law": {"space": {"kind": "finite", "support": BITS}, "weights": [-0.5, 1.5]}},
        "law.weights[0]: weights must be nonnegative numbers"),
    "random-lookup-interval": (
        {"law": INTERVAL},
        "class.random_lookup: needs a finite sample space"),
    "lookup-member-interval": (
        {"law": INTERVAL, "class": {"members": [
            {"type": "lookup", "label": "a", "table": {"0": 0.1, "1": 0.8}}]}},
        "class.members[0]: lookup members need a finite sample space"),
    "member-labels": (
        {"class": {"members": [{"type": "constant", "label": "a", "value": 0.5}] * 2}},
        "class.members: labels must be unique"),
    "kernel-arguments": (
        _u_statistic({"name": "smoothed-min", "order": 3}),
        "statistic.kernel.order: smoothed-min is a two-argument kernel"),
    "kernel-order": (
        _u_statistic({"name": "product", "order": 9}),
        "statistic.kernel.order: exceeds n = 8"),
    "exact-interval": (
        {"law": INTERVAL, "class": AFFINE, "oracle": {"method": "exact"}},
        "oracle.method: exact enumeration needs a finite sample space"),
    "exact-cap": (
        {"n": 20, "oracle": {"method": "exact"}},
        "oracle.method: support^n exceeds the enumeration cap 1000000"),
    "member-label": (
        {"member": "zz"},
        "member: unknown label 'zz'; class members: ['f00', 'f01', 'f02', 'f03']"),
    "group-sizes": (
        {"statistic": {"name": "class-separation", "group_sizes": [3, 4]}},
        "statistic.group_sizes: must sum to n = 8"),
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
    assert message in capsys.readouterr().err
    assert not out.exists()


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
