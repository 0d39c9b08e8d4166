import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml

from unibound import complexity, runner
from unibound.cli import main
from unibound.config import resolve, validate_config
from unibound.errors import ConfigError
from unibound.runner import EXIT_CONFIG, EXIT_IO, EXIT_OK, run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_deviate_config(out):
    return {
        "kind": "deviate",
        "seed": 7,
        "n": 8,
        "law": {
            "space": {
                "kind": "finite",
                "support": [
                    {"label": "0", "value": 0.0},
                    {"label": "1", "value": 1.0},
                ],
            }
        },
        "class": {"random_lookup": {"count": 4}},
        "statistic": {"name": "variance"},
        "delta": 0.1,
        "replications": 100,
        "gaussian_draws": 200,
        "out": str(out),
    }


# ---------------------------------------------------------------------------
# validation

def test_shipped_configs_validate():
    assert CONFIG_DIR.is_dir()
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
        assert validate_config(raw) == [], path.name


def test_delta_out_of_range_names_field(tmp_path):
    cfg = small_deviate_config(tmp_path)
    cfg["delta"] = 1.5
    violations = validate_config(cfg)
    assert any("delta" in v and "(0, 1)" in v for v in violations)


def test_unknown_statistic_lists_supported(tmp_path):
    cfg = small_deviate_config(tmp_path)
    cfg["statistic"] = {"name": "median"}
    violations = validate_config(cfg)
    assert any("median" in v and "mean" in v and "variance" in v for v in violations)


def test_unknown_keys_rejected(tmp_path):
    cfg = small_deviate_config(tmp_path)
    cfg["typo_key"] = 1
    cfg["law"]["space"]["extra"] = True
    violations = validate_config(cfg)
    assert any("typo_key" in v for v in violations)
    assert any("extra" in v for v in violations)


def test_seed_is_mandatory(tmp_path):
    cfg = small_deviate_config(tmp_path)
    del cfg["seed"]
    assert any(v.startswith("seed") for v in validate_config(cfg))


def test_bad_weights_flagged(tmp_path):
    cfg = small_deviate_config(tmp_path)
    cfg["law"]["weights"] = [0.7, 0.7]
    assert any("sum to 1" in v for v in validate_config(cfg))


def test_u_statistic_requires_kernel(tmp_path):
    cfg = small_deviate_config(tmp_path)
    cfg["statistic"] = {"name": "u-statistic"}
    assert any("kernel" in v for v in validate_config(cfg))


def squared_difference_config(out, n):
    """An order-2 squared-difference U-statistic of 2 lookup members."""
    cfg = small_deviate_config(out)
    cfg.update(n=n, constants={"route": "derived-bound"})
    cfg["class"] = {"random_lookup": {"count": 2}}
    cfg["statistic"] = {"name": "u-statistic", "kernel": {"name": "squared-difference"}}
    return cfg


def test_u_statistic_subsets_at_the_enumeration_cap(tmp_path):
    # C(1414, 2) = 998 991 subsets fit the cap of 1e6; C(1415, 2) do not.
    assert validate_config(squared_difference_config(tmp_path, 1414)) == []


@pytest.mark.parametrize("n", [1415, 4472])
def test_u_statistic_past_the_enumeration_cap_is_refused(tmp_path, capsys, n):
    # Refused as a config error before any subset table is built: building
    # one would raise a resource error (exit 3) instead.
    cfg = squared_difference_config(tmp_path / "out", n)
    message = f"statistic.kernel.order: C({n},2) subsets exceed the enumeration cap 1000000"
    assert validate_config(cfg) == [message]
    path = tmp_path / "cfg.yaml"
    write_config(path, cfg)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().out
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_numeric_route_needs_override_for_bounds(tmp_path):
    cfg = small_deviate_config(tmp_path)
    cfg["constants"] = {"route": "numeric"}
    violations = validate_config(cfg)
    assert any("override_numeric_constants" in v for v in violations)
    cfg["override_numeric_constants"] = True
    assert validate_config(cfg) == []


def test_group_sizes_must_sum_to_n(tmp_path):
    cfg = small_deviate_config(tmp_path)
    cfg["statistic"] = {"name": "class-separation", "group_sizes": [3, 3]}
    assert any("group_sizes" in v for v in validate_config(cfg))
    cfg["statistic"]["group_sizes"] = [3, 5]
    assert validate_config(cfg) == []


def test_resolve_rejects_invalid():
    with pytest.raises(ConfigError):
        resolve({"kind": "deviate"})


# ---------------------------------------------------------------------------
# run + reproducibility

def test_run_writes_record_and_table(tmp_path):
    cfg = small_deviate_config(tmp_path / "out")
    code, record, summary = run_experiment(cfg)
    assert code == EXIT_OK
    result_path = tmp_path / "out" / "result.deviate.json"
    table_path = tmp_path / "out" / "table.csv"
    assert result_path.is_file() and table_path.is_file()
    on_disk = json.loads(result_path.read_text())
    assert on_disk["config"]["seed"] == 7
    assert on_disk["results"]["deviation"]["dev_mean"] == record["results"]["deviation"]["dev_mean"]
    header = table_path.read_text().splitlines()[0]
    assert header == "replication,deviation,argmax,image_gaussian,exceeds_bound"


def test_record_names_versions_and_oracle(tmp_path):
    code, record, summary = run_experiment(small_deviate_config(tmp_path / "auto"))
    assert code == EXIT_OK
    assert record["environment"] == {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
    }
    assert "expectation oracle         analytic" in summary
    cfg = small_deviate_config(tmp_path / "mc")
    cfg["oracle"] = {"method": "monte-carlo", "replicas": 1000}
    _, record, summary = run_experiment(cfg)
    largest = max(record["results"]["deviation"]["oracle"]["stderrs"])
    assert f"expectation oracle         monte-carlo (largest stderr {largest!r})" in summary


def test_record_round_trips_from_echo(tmp_path):
    cfg = small_deviate_config(tmp_path / "a")
    code, record, _ = run_experiment(cfg)
    assert code == EXIT_OK
    echoed = dict(record["config"])
    echoed["out"] = str(tmp_path / "b")
    code2, record2, _ = run_experiment(echoed)
    assert code2 == EXIT_OK
    assert record["results"] == record2["results"]
    a = (tmp_path / "a" / "table.csv").read_bytes()
    b = (tmp_path / "b" / "table.csv").read_bytes()
    assert a == b


def test_results_do_not_depend_on_workers(tmp_path):
    cfg = small_deviate_config(tmp_path / "w1")
    code, _, _ = run_experiment(cfg, workers=1)
    cfg2 = small_deviate_config(tmp_path / "w3")
    code2, _, _ = run_experiment(cfg2, workers=3)
    assert code == code2 == EXIT_OK
    cfg4 = {**small_deviate_config(tmp_path / "w4"), "workers": 4}
    assert validate_config(cfg4) == []
    assert run_experiment(cfg4)[1]["config"]["workers"] == 4
    assert (tmp_path / "w1" / "table.csv").read_bytes() == (tmp_path / "w3" / "table.csv").read_bytes()


def test_seed_override_changes_results(tmp_path):
    cfg = small_deviate_config(tmp_path / "s1")
    _, record1, _ = run_experiment(cfg)
    cfg2 = small_deviate_config(tmp_path / "s2")
    _, record2, _ = run_experiment(cfg2, seed=8)
    assert record2["config"]["seed"] == 8
    assert record1["results"]["deviation"]["dev_mean"] != record2["results"]["deviation"]["dev_mean"]


def test_numeric_constants_refused_then_overridden(tmp_path):
    cfg = small_deviate_config(tmp_path / "num")
    cfg["constants"] = {"route": "numeric", "probes": 20}
    with pytest.raises(ConfigError):
        run_experiment(cfg)
    code, record, _ = run_experiment(cfg, override=True)
    assert code == EXIT_OK
    assert record["results"]["deviation"]["constants"]["method"] == "numeric-estimate"


def test_full_report_computes_each_quantity_once(tmp_path, monkeypatch):
    calls = {"constants": 0, "rademacher_exact": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        runner, "estimate_constants_numeric", counted("constants", runner.estimate_constants_numeric)
    )
    exact = counted("rademacher_exact", complexity.rademacher_exact)
    monkeypatch.setattr(runner, "rademacher_exact", exact)
    monkeypatch.setattr(complexity, "rademacher_exact", exact)
    cfg = yaml.safe_load((CONFIG_DIR / "full_report.yaml").read_text())
    cfg.update(constants={"route": "numeric", "probes": 5}, replications=100, draws=200,
               gaussian_draws=200, tail_replicas=200)
    _, record, _ = run_experiment(cfg, out_dir=tmp_path, override=True)
    assert calls == {"constants": 1, "rademacher_exact": 1}
    results = record["results"]
    assert results["rademacher_exact"] == results["comparison"]["rademacher"]
    assert results["constants"] == results["deviation"]["constants"]


def full_report_config(out, **changes):
    cfg = yaml.safe_load((CONFIG_DIR / "full_report.yaml").read_text())
    cfg.update(replications=100, draws=200, gaussian_draws=200, tail_replicas=200, out=str(out))
    cfg.update(changes)
    return cfg


AFFINE_PAIR = {"members": [
    {"type": "affine", "label": "a", "slope": 1.0, "intercept": 0.0},
    {"type": "affine", "label": "b", "slope": 0.5, "intercept": 0.25},
]}


def test_full_report_refuses_tail_on_interval_space(tmp_path):
    cfg = full_report_config(tmp_path, law={"space": {"kind": "interval"}})
    cfg["class"] = AFFINE_PAIR
    violations = validate_config(cfg)
    assert violations == [
        "law.space.kind: the tail experiment needs a finite sample space (swing sums)"
    ]
    with pytest.raises(ConfigError):
        run_experiment(cfg)
    del cfg["t_grid"]
    assert validate_config(cfg) == []


def test_full_report_refuses_probe_on_one_member(tmp_path):
    cfg = full_report_config(tmp_path, **{"class": {"random_lookup": {"count": 1}}})
    assert validate_config(cfg) == ["class: the probe needs at least two members"]
    path = tmp_path / "cfg.yaml"
    write_config(path, cfg)
    assert main(["run", str(path)]) == EXIT_CONFIG
    del cfg["s_grid"]
    assert validate_config(cfg) == []


def test_full_report_runs_every_requested_stage(tmp_path):
    _, record, _ = run_experiment(full_report_config(tmp_path))
    assert {"tail", "probes"} <= set(record["results"])


@pytest.mark.parametrize("n, exact", [(20, True), (21, False)])
def test_complexity_record_names_exact_rademacher(tmp_path, monkeypatch, n, exact):
    # The comparison's R is exact while its count-pattern pairs fit the
    # enumeration cap; only then does the record carry rademacher_exact. G,
    # and a Monte Carlo R, are estimated once and read off the comparison.
    # Coordinate i is a point mass at support point i, so the image's n
    # columns are distinct and its pattern pairs are the 2^(n-1) sign pairs.
    calls = {"gaussian": 0, "rademacher_mc": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (runner, complexity):
        monkeypatch.setattr(module, "gaussian_mc", counted("gaussian", complexity.gaussian_mc))
        monkeypatch.setattr(
            module, "rademacher_mc", counted("rademacher_mc", complexity.rademacher_mc)
        )
    cfg = yaml.safe_load((CONFIG_DIR / "complexity_lookup.yaml").read_text())
    cfg.update(n=n, draws=200)
    cfg["law"] = {
        "space": {"kind": "finite",
                  "support": [{"label": f"p{i}", "value": i / (n - 1)} for i in range(n)]},
        "weights": np.eye(n).tolist(),
    }
    _, record, summary = run_experiment(cfg, out_dir=tmp_path)
    results = record["results"]
    assert calls == {"gaussian": 1, "rademacher_mc": 1}
    assert (results["comparison"]["rademacher"]["method"] == "exact") == exact
    assert ("rademacher_exact" in results) == exact
    assert any(line.startswith("rademacher exact") for line in summary) == exact
    assert results["gaussian_mc"] == results["comparison"]["gaussian"]
    assert (results["rademacher_mc"] == results["comparison"]["rademacher"]) == (not exact)


# ---------------------------------------------------------------------------
# CLI surface

def write_config(path, cfg):
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(cfg, handle)


def test_cli_validate_ok(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    write_config(path, small_deviate_config(tmp_path / "out"))
    assert main(["validate", str(path)]) == EXIT_OK
    assert "valid" in capsys.readouterr().out


def test_cli_validate_reports_violations(tmp_path, capsys):
    cfg = small_deviate_config(tmp_path / "out")
    cfg["delta"] = 1.5
    path = tmp_path / "cfg.yaml"
    write_config(path, cfg)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert "delta" in capsys.readouterr().out


def test_cli_validate_unreadable_file(tmp_path):
    assert main(["validate", str(tmp_path / "missing.yaml")]) == EXIT_IO


def test_cli_run_and_rerun_byte_identical(tmp_path, capsys):
    cfg = small_deviate_config(tmp_path / "out1")
    path = tmp_path / "cfg.yaml"
    write_config(path, cfg)
    assert main(["run", str(path)]) == EXIT_OK
    assert main(["run", str(path), "--out", str(tmp_path / "out2"), "--workers", "3"]) == EXIT_OK
    capsys.readouterr()
    a = (tmp_path / "out1" / "table.csv").read_bytes()
    b = (tmp_path / "out2" / "table.csv").read_bytes()
    assert a == b


def test_cli_run_numeric_without_override_refused(tmp_path, capsys):
    cfg = small_deviate_config(tmp_path / "out")
    cfg["constants"] = {"route": "numeric", "probes": 20}
    path = tmp_path / "cfg.yaml"
    write_config(path, cfg)
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert main(["run", str(path), "--override-numeric-constants"]) == EXIT_OK
    capsys.readouterr()


def test_cli_run_missing_config(tmp_path):
    assert main(["run", str(tmp_path / "nope.yaml")]) == EXIT_IO
