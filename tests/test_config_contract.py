"""``validate`` accepts exactly the configurations ``run`` accepts.

A configuration without violations resolves, and one with violations is
refused by ``resolve`` with a ConfigError (exit code 2 from the CLI).
"""

import copy
import math
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from unibound.cli import main
from unibound.config import resolve, validate_config
from unibound.errors import ConfigError
from unibound.functionals import MAX_COUNT, SUBSET_TABLE_CAP
from unibound.runner import EXIT_CONFIG
from unibound.spaces import FAMILIES

from test_config_cli import small_deviate_config

ROOT = Path(__file__).resolve().parent.parent
BASES = {p.stem: yaml.safe_load(p.read_text()) for p in sorted(ROOT.glob("configs/*.yaml"))}
WORKLOADS = {p.stem: yaml.safe_load(p.read_text()) for p in sorted(ROOT.glob("perfbench/workloads/*.yaml"))}
SHIPPED = {**BASES, **WORKLOADS}
BASES["small_deviate"] = small_deviate_config("results")

# Replacements for a scalar: values of the wrong type, and values below or
# outside every range in the schema (never huge ones, which can be valid).
WRONG_TYPE = ["abc", [1], {"x": 1}, None, True]
OUT_OF_RANGE = [-1, 0, -0.5, 1.5]


def _gap_config(key, value):
    """The numeric-constants config with its route left to the default."""
    cfg = copy.deepcopy(BASES["constants_numeric_variance"])
    del cfg["constants"]["route"]
    cfg["constants"][key] = value
    return cfg


def _high_order_config():
    """The tail config on an order-1099 product kernel at n = 1100: only
    C(1100, 1099) = 1100 subsets, but C(1100, 550) passes the largest double."""
    cfg = copy.deepcopy(BASES["tail_mean"])
    cfg["n"] = 1100
    cfg["statistic"] = {"name": "u-statistic", "kernel": {"name": "product", "order": 1099}}
    cfg["constants"] = {"route": "derived-bound"}
    return cfg


# ---------------------------------------------------------------------------
# constants.probes and constants.fd_step are checked whatever the route

@pytest.mark.parametrize("key, value", [("probes", "abc"), ("probes", [1]), ("fd_step", "x")])
def test_constants_keys_checked_off_the_numeric_route(tmp_path, capsys, key, value):
    for route in ("closed-form", "derived-bound", None):
        cfg = _gap_config(key, value)
        if route is not None:
            cfg["constants"]["route"] = route
        assert any(v.startswith(f"constants.{key}:") for v in validate_config(cfg))
        with pytest.raises(ConfigError):
            resolve(cfg)
    cfg = _gap_config(key, value)
    cfg["out"] = str(tmp_path / "out")
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert f"constants.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# the exact oracle's cap is checked without forming support^n

@pytest.mark.parametrize("size", [1, 2])
def test_exact_oracle_cap_is_checked_at_once_at_huge_n(size):
    # support^n at n = 10^18 is an integer of about 10^17 bytes; past n = 64
    # any support of two or more points passes the cap, and one point gives 1.
    cfg = copy.deepcopy(BASES["deviate_variance"])
    cfg["n"] = 10**18
    cfg["law"]["space"]["support"] = cfg["law"]["space"]["support"][:size]
    cfg["oracle"] = {"method": "exact"}
    start = time.perf_counter()
    refused = [v for v in validate_config(cfg) if v.startswith("oracle.method:")]
    assert time.perf_counter() - start < 1.0
    assert refused == ([] if size == 1 else [
        "oracle.method: 2^1000000000000000000 lattice points exceed the enumeration cap 1000000"])


# ---------------------------------------------------------------------------
# a count past what an array can hold is refused up front

@pytest.mark.parametrize("base, path, value", [
    ("tail_mean", ("n",), 10**400),                # the mean's 1 / n overflows a float
    ("deviate_variance", ("n",), 10**186),         # the variance's n (n - 1) does
    ("deviate_mean", ("replications",), 10**20),
    ("deviate_mean", ("gaussian_draws",), 10**20),
    ("deviate_mean", ("oracle", "replicas"), 10**20),
    ("constants_numeric_variance", ("constants", "probes"), 10**20),
])
def test_a_count_past_what_an_array_holds_is_refused_up_front(tmp_path, capsys, base, path, value):
    cfg = copy.deepcopy(BASES[base])
    cfg["out"] = str(tmp_path / "out")
    cfg.setdefault(path[0], {})
    section = cfg if len(path) == 1 else cfg[path[0]]
    section[path[-1]] = value
    message = f"{'.'.join(path)}: {path[-1]} exceeds the largest array count {MAX_COUNT}"
    config_path = tmp_path / "cfg.yaml"
    config_path.write_text(yaml.safe_dump(cfg))
    assert main(["validate", str(config_path)]) == EXIT_CONFIG
    assert main(["run", str(config_path)]) == EXIT_CONFIG
    assert capsys.readouterr() == (f"violation: {message}\n", f"config error: {message}\n")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# a U-statistic's subset table is capped in validate as in u_statistic

@pytest.mark.parametrize("n, order", [(1414, 1412), (1100, 1098)])
def test_oversized_subset_table_is_refused_up_front(n, order):
    entries = {1414: 1410575292, 1100: 663686100}[n]
    cfg = _high_order_config()
    cfg["n"] = n
    cfg["statistic"]["kernel"]["order"] = order
    assert validate_config(cfg) == [
        f"statistic.kernel.order: C({n},{order}) x {order} = {entries} subset indices exceed the "
        f"subset table cap {SUBSET_TABLE_CAP}"
    ]
    assert math.comb(n, order) * order == entries > SUBSET_TABLE_CAP
    with pytest.raises(ConfigError, match="subset table cap"):
        resolve(cfg)


def test_high_order_subset_table_under_the_cap_is_accepted():
    assert validate_config(_high_order_config()) == []


# ---------------------------------------------------------------------------
# the weights' sum is the one the library takes

# Their Python sum is 1 + 9.9987e-13, inside the tolerance of 1e-12; their
# numpy sum, the one the coordinate law takes, is 1 + 1.00009e-12.
DRIFT_WEIGHTS = [0.11214995265391213, 0.04543286366934898, 0.16499533463428265,
                 0.17824202894901092, 0.14694434091123953, 0.1636205391469412,
                 0.056249642853863135, 0.1323652971824014]


def _drift_config():
    cfg = copy.deepcopy(BASES["small_deviate"])
    cfg["n"] = 6
    cfg["law"] = {"space": {"kind": "finite", "support": [
        {"label": str(j), "value": j / 7} for j in range(8)]}, "weights": DRIFT_WEIGHTS}
    return cfg


def test_weight_sum_refused_by_validate_as_by_run(tmp_path, capsys):
    cfg = _drift_config()
    cfg["out"] = str(tmp_path / "out")
    message = "law.weights: weights must sum to 1 within 1e-12"
    assert validate_config(cfg) == [message]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().out == f"violation: {message}\n"
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# the interval families are the ones the spaces module defines

def _interval_config(family):
    cfg = copy.deepcopy(BASES["small_deviate"])
    cfg["law"] = {"space": {"kind": "interval"}, "family": family}
    cfg["class"] = {"members": [{"type": "threshold", "label": "f", "theta": 0.2, "width": 0.5}]}
    return cfg


def test_unknown_family_message_names_every_family():
    (message,) = [v for v in validate_config(_interval_config({"name": "cauchy"}))
                  if v.startswith("law.family.name:")]
    for name in FAMILIES:
        assert name in message


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_resolves(name):
    family = {"name": name, **{key: 0.5 for key in FAMILIES[name]}}
    assert validate_config(_interval_config(family)) == []
    coordinate = resolve(_interval_config(family)).law.coordinates[0]
    assert (coordinate.family, coordinate.params) == (name, (0.5,) * len(FAMILIES[name]))


# ---------------------------------------------------------------------------
# validate and resolve agree on mutated shipped configurations

def _paths(node, prefix=()):
    """Every key path and list position in a document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(cfg))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        op = draw(st.sampled_from(["drop", "wrong-type", "out-of-range"]))
        if op == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        elif op == "wrong-type":
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(WRONG_TYPE)))
        elif isinstance(parent[path[-1]], (int, float)):
            parent[path[-1]] = draw(st.sampled_from(OUT_OF_RANGE))
    return cfg


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
@example(_gap_config("probes", "abc"))
@example(_gap_config("probes", [1]))
@example(_gap_config("fd_step", "x"))
@example(_high_order_config())
@example(_drift_config())
def test_validate_accepts_exactly_what_resolve_accepts(cfg):
    if validate_config(cfg) == []:
        resolve(cfg)
    else:
        with pytest.raises(ConfigError):
            resolve(cfg)


# Values put at each key path: integers past a float, past a float's square
# and past int64, the edges of every range, non-finite and huge floats, and
# each other type, nesting included.
SUBSTITUTES = [10**400, 10**186, 10**20, 2**63, -1, 0, 1, 0.5, math.nan, math.inf, 1e308,
               True, None, "x", "", [], {}, [1], {"a": 1}, [[[[[[1]]]]]]]


def test_validate_never_raises_on_one_substituted_value():
    # The 7 shipped configs and the 3 benchmark workloads, each with one
    # value replaced, 6200 documents in all.
    assert len(SHIPPED) == 10
    for name, base in SHIPPED.items():
        for path in _paths(base):
            for value in SUBSTITUTES:
                cfg = copy.deepcopy(base)
                parent = cfg
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = copy.deepcopy(value)
                assert isinstance(validate_config(cfg), list), (name, path, value)
