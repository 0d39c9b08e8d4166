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
from unibound.functionals import SUBSET_TABLE_CAP
from unibound.runner import EXIT_CONFIG
from unibound.spaces import FAMILIES

from test_config_cli import small_deviate_config

ROOT = Path(__file__).resolve().parent.parent
BASES = {p.stem: yaml.safe_load(p.read_text()) for p in sorted(ROOT.glob("configs/*.yaml"))}
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
    assert refused == ([] if size == 1 else
                       ["oracle.method: support^n exceeds the enumeration cap 1000000"])


# ---------------------------------------------------------------------------
# a U-statistic's subset table is capped in validate as in u_statistic

@pytest.mark.parametrize("n, order", [(1414, 1412), (1100, 1098)])
def test_oversized_subset_table_is_refused_up_front(n, order):
    cfg = _high_order_config()
    cfg["n"] = n
    cfg["statistic"]["kernel"]["order"] = order
    entries = math.comb(n, order) * order
    assert validate_config(cfg) == [
        f"statistic.kernel.order: C({n},{order}) x {order} subset indices exceed the "
        f"subset table cap {SUBSET_TABLE_CAP}"
    ]
    assert entries > SUBSET_TABLE_CAP
    with pytest.raises(ConfigError, match="subset table cap"):
        resolve(cfg)


def test_high_order_subset_table_under_the_cap_is_accepted():
    assert validate_config(_high_order_config()) == []


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
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


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
def test_validate_accepts_exactly_what_resolve_accepts(cfg):
    if validate_config(cfg) == []:
        resolve(cfg)
    else:
        with pytest.raises(ConfigError):
            resolve(cfg)
