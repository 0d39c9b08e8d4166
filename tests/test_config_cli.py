import dataclasses
import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml

from unibound import complexity, functionals, runner
from unibound.cli import main
from unibound.config import KINDS, SCHEMA, STAGES, Experiment, resolve, validate_config
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
    # Refused as a config error before any subset table is built, by the
    # check that building one runs.
    cfg = squared_difference_config(tmp_path / "out", n)
    message = f"statistic.kernel.order: C({n},2) subsets exceed the enumeration cap 1000000"
    assert validate_config(cfg) == [message]
    path = tmp_path / "cfg.yaml"
    write_config(path, cfg)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().out
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("n, order", [(10**6, 2000), (10**18, 10**7)])
def test_u_statistic_far_past_the_enumeration_cap_is_refused_at_once(tmp_path, capsys, n, order):
    # min(order, n - order) >= 12 puts C(n, order) past the cap, so the count
    # is never formed: at the first shape it has more digits than Python
    # converts to a string, and forming the second took more than 30 s.
    cfg = small_deviate_config(tmp_path / "out")
    cfg.update(n=n, constants={"route": "derived-bound"},
               statistic={"name": "u-statistic", "kernel": {"name": "product", "order": order}})
    path = tmp_path / "cfg.yaml"
    write_config(path, cfg)
    start = time.perf_counter()
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == (f"violation: statistic.kernel.order: C({n},{order}) subsets "
                                       "exceed the enumeration cap 1000000\n")


@pytest.mark.parametrize("count", [10**9, 10**20])
@pytest.mark.parametrize("changes, message", [
    (lambda count: {"t_grid": {"min": 0.0, "max": 1.0, "count": count}},
     "t_grid: t_grid thresholds exceed the enumeration cap 1000000"),
    (lambda count: {"class": {"random_lookup": {"count": count}}},
     "class.random_lookup: count x 2 table entries exceed the enumeration cap 1000000"),
    (lambda count: {"probe_pairs": count},
     "probe_pairs: probe pairs exceed the enumeration cap 1000000"),
], ids=["t_grid", "random_lookup", "probe_pairs"])
def test_a_count_past_the_enumeration_cap_is_refused_before_it_allocates(
        tmp_path, capsys, count, changes, message):
    # Refused before the grid or the class table is allocated: at 10**20 numpy
    # refuses the allocation itself, and at 10**9 it would take gigabytes. The
    # probe pairs allocate nothing, but run one after another without end.
    cfg = full_report_config(tmp_path / "out", **changes(count))
    path = tmp_path / "cfg.yaml"
    write_config(path, cfg)
    start = time.perf_counter()
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (f"violation: {message}\n", f"config error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n, refused", [(1414, False), (1415, True)])
def test_numeric_route_pairs_at_the_enumeration_cap(tmp_path, n, refused):
    # The finite-difference Hessian enumerates C(n, 2) coordinate pairs per
    # probe: C(1414, 2) = 998 991 fit the cap of 1e6; C(1415, 2) do not.
    cfg = small_deviate_config(tmp_path)
    cfg.update(kind="constants", n=n, constants={"route": "numeric"})
    message = f"constants.route: C({n},2) = 1000405 coordinate pairs exceed the enumeration cap 1000000"
    assert validate_config(cfg) == ([message] if refused else [])


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


def test_the_experiment_carries_the_normalised_settings_once(tmp_path):
    # Only what is not a key is a field of its own; every key reaches the
    # runner through ``settings``, nested as in the document, defaults filled in.
    assert [f.name for f in dataclasses.fields(Experiment)] == [
        "n", "law", "fc", "stat", "kernel", "stages", "settings", "echo"]
    exp = resolve(full_report_config(tmp_path))
    assert set(exp.settings) == {f.key for f in SCHEMA.sections[""]}
    assert exp.settings["oracle"] == {"method": "auto", "replicas": 100_000}
    assert exp.settings["constants"] == {"route": "closed-form", "probes": 200, "fd_step": 1e-4}
    assert exp.settings["t_grid"] == {"min": 0.0, "max": 0.4, "count": 8}
    assert exp.settings["n"] == exp.n == 12


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


@pytest.mark.parametrize("labels", [
    ["a", "b"],
    ["plain", "a,b", "p2", 'say "x"', "p3", "p4", "two\nlines", "cr\r", "", "p5"],
], ids=["plain", "quoted"])
def test_table_is_written_as_csv_writes_each_formatted_cell(tmp_path, monkeypatch, labels):
    # Floats of every repr form, booleans, integers and text that csv must
    # or need not quote, formatted by column in slices of two rows, against
    # csv's writer over each cell formatted by ``_fmt``.
    import csv

    monkeypatch.setattr(runner, "_CELL_BYTES", 2**18)
    assert functionals.BATCH_BYTES // (2**18 * 7) == 2
    rng = np.random.default_rng(3)
    floats = np.concatenate([rng.random(40), [0.0, -0.0, 1e16, 1e-5, 1 / 3, np.inf, -np.inf, np.nan,
                                              5e-324, 1.5e300]])
    rows = len(floats)
    columns = [range(rows), floats, rng.random(rows).astype(np.float32), floats > 0.5,
               np.arange(rows, dtype=np.uint8), [labels[j % len(labels)] for j in range(rows)],
               [(j, 0.25, np.float64(0.1), np.True_, "")[j % 5] for j in range(rows)]]
    header = ["i", "x", "x32", "big", "u8", "label", "mixed"]
    runner._write_table(tmp_path / "table.csv", header, columns)
    with open(tmp_path / "expected.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([runner._fmt(v) for v in row])
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


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


def test_workers_key_is_refused(tmp_path):
    # Replications run in one thread, so the schema has no worker count.
    cfg = {**small_deviate_config(tmp_path / "w"), "workers": 2}
    (violation,) = validate_config(cfg)
    assert violation.startswith("workers: unknown key")
    with pytest.raises(ConfigError, match="workers: unknown key"):
        run_experiment(cfg)
    assert not (tmp_path / "w").exists()


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


def test_one_member_class_has_no_c_hat(tmp_path):
    # One member's image has G = 0, so (L + M) E G is 0 and a nonzero mean
    # deviation gives no ratio.
    cfg = small_deviate_config(tmp_path)
    cfg["class"] = {"random_lookup": {"count": 1}}
    _, record, summary = run_experiment(cfg)
    deviation = record["results"]["deviation"]
    assert deviation["image_g"]["value"] == 0.0 and deviation["dev_mean"] != 0.0
    assert deviation["c_hat"] is None and deviation["c_hat_rel_stderr"] is None
    assert "empirical constant c_hat   None" in summary


def test_constant_member_has_zero_c_hat(tmp_path):
    # A constant member's mean never deviates: 0 / 0 reads as c_hat = 0.
    cfg = small_deviate_config(tmp_path)
    cfg["class"] = {"members": [{"type": "constant", "label": "half", "value": 0.5}]}
    cfg["statistic"] = {"name": "mean"}
    _, record, summary = run_experiment(cfg)
    deviation = record["results"]["deviation"]
    assert deviation["image_g"]["value"] == 0.0 and deviation["dev_mean"] == 0.0
    assert deviation["c_hat"] == 0.0
    assert "empirical constant c_hat   0.0" in summary


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
    assert violations == ["law.space.kind: swing sums need a finite sample space"]
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


def test_every_kind_runs_stages_the_runner_knows():
    assert set(runner._STAGES) == set(STAGES)
    for always, if_given in KINDS.values():
        assert always and set(always + if_given) <= set(STAGES)


def test_full_report_without_grids_skips_tail_and_probe(tmp_path):
    cfg = full_report_config(tmp_path)
    del cfg["t_grid"], cfg["s_grid"]
    exp = resolve(cfg)
    assert exp.stages == ("constants", "complexity", "deviation")
    assert "stages" not in exp.echo
    _, record, summary = run_experiment(cfg)
    assert set(record["results"]) == {"constants", "gaussian_mc", "comparison",
                                      "rademacher_exact", "rademacher_mc", "deviation"}
    assert [line for line in summary if line.startswith("[")] == [
        "[constants]", "[complexity]", "[deviation]"]
    header = (tmp_path / "table.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "replication,deviation,argmax,image_gaussian,exceeds_bound"


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


def test_cli_validate_refuses_an_integer_past_the_largest_float(tmp_path, capsys):
    # A float cannot hold a 330-digit integer, so it is not a number here.
    cfg = small_deviate_config(tmp_path / "out")
    cfg["delta"] = 10**330
    path = tmp_path / "cfg.yaml"
    write_config(path, cfg)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().out == "violation: delta: must be a number\n"


# A file's bytes, None for no file, with the exit code and stderr text that
# both commands give it.
BAD_FILES = {
    "missing": (None, EXIT_IO, "i/o error: "),
    "unparseable": (b"kind: [deviate\n", EXIT_CONFIG, "config error: unparseable configuration: "),
    "not-utf-8": (b"\xffkind: deviate\n", EXIT_CONFIG, "config error: unparseable configuration: "),
    "list": (b"- kind\n- seed\n", EXIT_CONFIG, "config error: configuration must be a key-value"),
    # Past Python's 4300-digit limit on converting a string to an integer.
    "long-integer": (b"seed: " + b"7" * 5000 + b"\n", EXIT_CONFIG,
                     "config error: unparseable configuration: "),
    # Past the parser's recursion limit.
    "deep-nesting": (b"seed: " + b"[" * 20_000 + b"]" * 20_000 + b"\n", EXIT_CONFIG,
                     "config error: unparseable configuration: "),
}


@pytest.mark.parametrize("bad", BAD_FILES)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_refuses_bad_files(tmp_path, capsys, command, bad):
    content, code, message = BAD_FILES[bad]
    path = tmp_path / "cfg.yaml"
    if content is not None:
        path.write_bytes(content)
    assert main([command, str(path)]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message)


ONE_POINT = {"space": {"kind": "finite", "support": [{"label": "a", "value": 0.5}]}}


def _past_64_coordinates(case, out):
    """Configurations on a one-point support past numpy's 64 array
    dimensions: a tail at n = 65, a full report at n = 70, and an order-65
    U-statistic at n = 66."""
    if case == "tail":
        cfg = yaml.safe_load((CONFIG_DIR / "tail_mean.yaml").read_text())
        cfg.update(n=65, tail_replicas=200,
                   **{"class": {"members": [{"type": "lookup", "label": "f", "table": {"a": 0.25}}]}})
    elif case == "full-report":
        cfg = full_report_config(out, n=70)
    else:
        cfg = small_deviate_config(out)
        cfg.update(n=66, constants={"route": "derived-bound"},
                   statistic={"name": "u-statistic", "kernel": {"name": "product", "order": 65}})
    cfg.update(law=ONE_POINT, out=str(out))
    return cfg


@pytest.mark.parametrize("case", ["tail", "full-report", "u-statistic"])
def test_one_point_lattices_past_64_coordinates_run(tmp_path, capsys, case):
    # The support^n lattice of the exact swing sup and the support^65 kernel
    # tuples of the analytic oracle are flat arrays of one point each.
    path = tmp_path / "cfg.yaml"
    write_config(path, _past_64_coordinates(case, tmp_path / "out"))
    assert main(["run", str(path)]) == EXIT_OK
    capsys.readouterr()
    results = json.loads(next((tmp_path / "out").glob("result.*.json")).read_text())["results"]
    if case == "u-statistic":
        assert results["deviation"]["oracle"]["method"] == "analytic"
    else:
        assert (results["tail"]["swing_norm"], results["tail"]["swing_is_exact"]) == (0.0, True)


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
