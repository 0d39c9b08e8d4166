"""Experiment configuration: YAML schema, strict validation, object building.

A configuration is a nested key-value document. Validation is strict:
unknown keys anywhere in the tree are rejected, every violation is reported
with its path, and statically decidable runtime refusals (enumeration caps,
numeric constants without the override flag) are flagged here too, so that
``validate`` accepts exactly the configurations ``run`` accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import classes as cls
from . import spaces as sp
from .errors import ConfigError
from .functionals import (
    ENUM_CAP,
    MAX_SUBSETS,
    Statistic,
    class_separation_statistic,
    constant_kernel,
    identity_kernel,
    mean_statistic,
    product_kernel,
    sample_variance_statistic,
    smoothed_min_kernel,
    squared_difference_kernel,
    u_statistic,
)
from .rng import stream

KINDS = ("complexity", "constants", "deviate", "tail", "probe", "full-report")
STATISTICS = ("mean", "variance", "u-statistic", "class-separation")
KERNELS = ("squared-difference", "product", "smoothed-min", "constant", "identity")
ROUTES = ("closed-form", "derived-bound", "numeric")
ORACLE_METHODS = ("auto", "exact", "monte-carlo")
MEMBER_TYPES = ("lookup", "threshold", "affine", "constant")

_TOP_KEYS = {
    "kind", "seed", "n", "out", "workers", "law", "class", "statistic",
    "constants", "c", "delta", "replications", "draws", "gaussian_draws",
    "oracle", "t_grid", "s_grid", "probe_pairs", "tail_replicas", "member",
    "override_numeric_constants",
}

DEFAULTS = {
    "out": "results",
    "workers": 1,
    "c": 1.0,
    "draws": 100_000,
    "gaussian_draws": 2000,
    "probe_pairs": 3,
    "tail_replicas": 100_000,
    "override_numeric_constants": False,
}


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        raw = yaml.safe_load(handle)
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a key-value document")
    return raw


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)) and math.isfinite(v)


def _check_keys(node: dict, allowed: set, path: str, out: list):
    for key in node:
        if key not in allowed:
            out.append(f"{path}{key}: unknown key (allowed: {sorted(allowed)})")


def _validate_space(node, path, out) -> tuple[str | None, list[str]]:
    labels: list[str] = []
    if not isinstance(node, dict):
        out.append(f"{path}: must be a mapping")
        return None, labels
    _check_keys(node, {"kind", "support"}, path + ".", out)
    kind = node.get("kind")
    if kind not in ("finite", "interval"):
        out.append(f"{path}.kind: must be 'finite' or 'interval'")
        return None, labels
    if kind == "finite":
        support = node.get("support")
        if not isinstance(support, list) or not support:
            out.append(f"{path}.support: finite spaces need a non-empty support list")
            return kind, labels
        for i, pt in enumerate(support):
            ppath = f"{path}.support[{i}]"
            if not isinstance(pt, dict):
                out.append(f"{ppath}: must be a mapping with label and value")
                continue
            _check_keys(pt, {"label", "value"}, ppath + ".", out)
            if "label" not in pt or "value" not in pt:
                out.append(f"{ppath}: needs both label and value")
                continue
            if not _is_num(pt["value"]) or not (0.0 <= pt["value"] <= 1.0):
                out.append(f"{ppath}.value: must lie in [0, 1]")
            labels.append(str(pt["label"]))
        if len(set(labels)) != len(labels):
            out.append(f"{path}.support: labels must be unique")
    else:
        if "support" in node:
            out.append(f"{path}.support: interval spaces carry no support")
    return kind, labels


def _validate_law(node, n, path, out) -> tuple[str | None, list[str]]:
    if not isinstance(node, dict):
        out.append(f"{path}: must be a mapping")
        return None, []
    _check_keys(node, {"space", "weights", "family"}, path + ".", out)
    if "space" not in node:
        out.append(f"{path}.space: required")
        return None, []
    kind, labels = _validate_space(node["space"], path + ".space", out)
    if kind == "finite":
        if "family" in node:
            out.append(f"{path}.family: finite laws are specified by weights")
        weights = node.get("weights")
        if weights is not None:
            if not isinstance(weights, list) or not weights:
                out.append(f"{path}.weights: must be a weight vector or a list of them")
            else:
                per_coordinate = isinstance(weights[0], list)
                rows = weights if per_coordinate else [weights]
                if per_coordinate and n is not None and len(rows) != n:
                    out.append(f"{path}.weights: need one row per coordinate ({n})")
                for j, row in enumerate(rows):
                    wpath = f"{path}.weights[{j}]"
                    if not isinstance(row, list) or len(row) != len(labels):
                        out.append(f"{wpath}: must match the support size {len(labels)}")
                        continue
                    if any(not _is_num(w) or w < 0.0 for w in row):
                        out.append(f"{wpath}: weights must be nonnegative numbers")
                    elif abs(sum(float(w) for w in row) - 1.0) > 1e-12:
                        out.append(f"{wpath}: weights must sum to 1 within 1e-12")
    elif kind == "interval":
        if "weights" in node:
            out.append(f"{path}.weights: interval laws are specified by a family")
        fam = node.get("family", {"name": "uniform"})
        if not isinstance(fam, dict):
            out.append(f"{path}.family: must be a mapping")
        else:
            _check_keys(fam, {"name", "p", "a", "b"}, path + ".family.", out)
            name = fam.get("name")
            if name not in ("uniform", "bernoulli", "beta"):
                out.append(f"{path}.family.name: must be uniform, bernoulli, or beta")
            elif name == "bernoulli":
                if not _is_num(fam.get("p")) or not (0.0 <= fam["p"] <= 1.0):
                    out.append(f"{path}.family.p: bernoulli needs p in [0, 1]")
            elif name == "beta":
                if not (_is_num(fam.get("a")) and fam["a"] > 0.0 and _is_num(fam.get("b")) and fam["b"] > 0.0):
                    out.append(f"{path}.family: beta needs positive a and b")
    return kind, labels


def _validate_class(node, space_kind, support_labels, path, out) -> list[str]:
    member_labels: list[str] = []
    if not isinstance(node, dict):
        out.append(f"{path}: must be a mapping")
        return member_labels
    _check_keys(node, {"members", "random_lookup"}, path + ".", out)
    has_members = "members" in node
    has_random = "random_lookup" in node
    if has_members == has_random:
        out.append(f"{path}: give exactly one of members or random_lookup")
        return member_labels
    if has_random:
        spec = node["random_lookup"]
        if space_kind == "interval":
            out.append(f"{path}.random_lookup: needs a finite sample space")
        if not isinstance(spec, dict):
            out.append(f"{path}.random_lookup: must be a mapping")
        else:
            _check_keys(spec, {"count"}, path + ".random_lookup.", out)
            count = spec.get("count")
            if not _is_int(count) or count < 1:
                out.append(f"{path}.random_lookup.count: must be a positive integer")
            else:
                width = max(2, len(str(count - 1)))
                member_labels = [f"f{j:0{width}d}" for j in range(count)]
        return member_labels
    members = node["members"]
    if not isinstance(members, list) or not members:
        out.append(f"{path}.members: must be a non-empty list")
        return member_labels
    for i, m in enumerate(members):
        mpath = f"{path}.members[{i}]"
        if not isinstance(m, dict):
            out.append(f"{mpath}: must be a mapping")
            continue
        mtype = m.get("type")
        if mtype not in MEMBER_TYPES:
            out.append(f"{mpath}.type: must be one of {list(MEMBER_TYPES)}")
            continue
        if "label" not in m:
            out.append(f"{mpath}.label: required")
        else:
            member_labels.append(str(m["label"]))
        if mtype == "lookup":
            _check_keys(m, {"type", "label", "table"}, mpath + ".", out)
            if space_kind == "interval":
                out.append(f"{mpath}: lookup members need a finite sample space")
                continue
            table = m.get("table")
            if not isinstance(table, dict):
                out.append(f"{mpath}.table: must map support labels to values")
                continue
            keys = {str(k) for k in table}
            missing = [lab for lab in support_labels if lab not in keys]
            extra = sorted(keys - set(support_labels))
            if missing:
                out.append(f"{mpath}.table: missing support labels {missing}")
            if extra:
                out.append(f"{mpath}.table: unknown support labels {extra}")
            if any(not _is_num(v) or not (0.0 <= v <= 1.0) for v in table.values()):
                out.append(f"{mpath}.table: values must lie in [0, 1]")
        elif mtype == "threshold":
            _check_keys(m, {"type", "label", "theta", "width"}, mpath + ".", out)
            if not _is_num(m.get("theta")):
                out.append(f"{mpath}.theta: required number")
            if not _is_num(m.get("width")) or m.get("width", 0) <= 0.0:
                out.append(f"{mpath}.width: must be a positive number")
        elif mtype == "affine":
            _check_keys(m, {"type", "label", "slope", "intercept"}, mpath + ".", out)
            if not (_is_num(m.get("slope")) and _is_num(m.get("intercept"))):
                out.append(f"{mpath}: affine members need slope and intercept")
        else:
            _check_keys(m, {"type", "label", "value"}, mpath + ".", out)
            if not _is_num(m.get("value")) or not (0.0 <= m["value"] <= 1.0):
                out.append(f"{mpath}.value: must lie in [0, 1]")
    if len(set(member_labels)) != len(member_labels):
        out.append(f"{path}.members: labels must be unique")
    return member_labels


def _validate_statistic(node, n, path, out) -> tuple[str | None, int | None]:
    if not isinstance(node, dict):
        out.append(f"{path}: must be a mapping")
        return None, None
    _check_keys(node, {"name", "kernel", "group_sizes"}, path + ".", out)
    name = node.get("name")
    if name not in STATISTICS:
        out.append(f"{path}.name: unknown statistic {name!r}; supported: {list(STATISTICS)}")
        return None, None
    order = None
    if name == "u-statistic":
        kernel = node.get("kernel")
        if not isinstance(kernel, dict):
            out.append(f"{path}.kernel: u-statistic needs a kernel mapping")
            return name, None
        _check_keys(kernel, {"name", "order", "sharpness", "value"}, path + ".kernel.", out)
        kname = kernel.get("name")
        if kname not in KERNELS:
            out.append(f"{path}.kernel.name: unknown kernel {kname!r}; supported: {list(KERNELS)}")
            return name, None
        order = kernel.get("order", 1 if kname == "identity" else 2)
        if not _is_int(order) or order < 1:
            out.append(f"{path}.kernel.order: must be a positive integer")
            return name, None
        if kname in ("squared-difference", "smoothed-min") and order != 2:
            out.append(f"{path}.kernel.order: {kname} is a two-argument kernel")
        if kname == "identity" and order != 1:
            out.append(f"{path}.kernel.order: identity is a one-argument kernel")
        if kname == "smoothed-min":
            sharp = kernel.get("sharpness", 4.0)
            if not _is_num(sharp) or sharp <= 0.0:
                out.append(f"{path}.kernel.sharpness: must be positive")
        if kname == "constant" and not _is_num(kernel.get("value", 1.0)):
            out.append(f"{path}.kernel.value: must be a number")
        if n is not None:
            if order > n:
                out.append(f"{path}.kernel.order: exceeds n = {n}")
            elif math.comb(n, order) > MAX_SUBSETS:
                out.append(f"{path}.kernel.order: C({n},{order}) exceeds the subset cap {MAX_SUBSETS}")
    elif "kernel" in node:
        out.append(f"{path}.kernel: only u-statistic takes a kernel")
    if name == "class-separation":
        sizes = node.get("group_sizes")
        if not isinstance(sizes, list) or not sizes or any(not _is_int(g) or g < 1 for g in sizes):
            out.append(f"{path}.group_sizes: must be a non-empty list of positive integers")
        elif n is not None and sum(sizes) != n:
            out.append(f"{path}.group_sizes: must sum to n = {n}")
    elif "group_sizes" in node:
        out.append(f"{path}.group_sizes: only class-separation takes group sizes")
    return name, order


def _validate_grid(node, path, out, minimum=0.0):
    if isinstance(node, list):
        if not node or any(not _is_num(v) or v < minimum for v in node):
            out.append(f"{path}: must be a non-empty list of numbers >= {minimum}")
        return
    if isinstance(node, dict):
        _check_keys(node, {"min", "max", "count"}, path + ".", out)
        lo, hi, count = node.get("min"), node.get("max"), node.get("count")
        if not (_is_num(lo) and _is_num(hi) and _is_int(count)):
            out.append(f"{path}: range needs numeric min, max and integer count")
            return
        if lo < minimum or hi < lo or count < 1:
            out.append(f"{path}: need {minimum} <= min <= max and count >= 1")
        return
    out.append(f"{path}: must be a list or a min/max/count range")


def validate_config(raw: dict) -> list[str]:
    """All schema violations, without executing anything."""
    out: list[str] = []
    if not isinstance(raw, dict):
        return ["configuration must be a key-value document"]
    _check_keys(raw, _TOP_KEYS, "", out)

    kind = raw.get("kind")
    if kind not in KINDS:
        out.append(f"kind: must be one of {list(KINDS)}")
    if "seed" not in raw:
        out.append("seed: required")
    elif not _is_int(raw["seed"]) or raw["seed"] < 0:
        out.append("seed: must be a nonnegative integer")
    n = raw.get("n")
    if not _is_int(n) or n < 2:
        out.append("n: must be an integer >= 2")
        n = None

    space_kind, support_labels = (None, [])
    if "law" not in raw:
        out.append("law: required")
    else:
        space_kind, support_labels = _validate_law(raw["law"], n, "law", out)

    member_labels: list[str] = []
    if "class" not in raw:
        out.append("class: required")
    else:
        member_labels = _validate_class(raw["class"], space_kind, support_labels, "class", out)

    stat_name, kernel_order = (None, None)
    if "statistic" not in raw:
        out.append("statistic: required")
    else:
        stat_name, kernel_order = _validate_statistic(raw["statistic"], n, "statistic", out)
    if stat_name in ("variance", "class-separation") and n is not None and n < 2:
        out.append("n: this statistic needs n >= 2")

    constants = raw.get("constants", {"route": "closed-form"})
    route = None
    if not isinstance(constants, dict):
        out.append("constants: must be a mapping")
    else:
        _check_keys(constants, {"route", "probes", "fd_step"}, "constants.", out)
        route = constants.get("route", "closed-form")
        if route not in ROUTES:
            out.append(f"constants.route: must be one of {list(ROUTES)}")
        elif route == "closed-form" and stat_name == "u-statistic":
            out.append("constants.route: u-statistics carry no closed form; use derived-bound or numeric")
        elif route == "derived-bound" and stat_name not in (None, "u-statistic"):
            out.append("constants.route: derived-bound applies to u-statistics only")
        if route == "numeric":
            probes = constants.get("probes", 200)
            step = constants.get("fd_step", 1e-4)
            if not _is_int(probes) or probes < 1:
                out.append("constants.probes: must be a positive integer")
            if not _is_num(step) or not (1e-7 <= step <= 1e-2):
                out.append("constants.fd_step: must lie in [1e-7, 1e-2]")

    if "c" in raw and (not _is_num(raw["c"]) or raw["c"] <= 0.0):
        out.append("c: must be a positive number")
    if "delta" in raw and (not _is_num(raw["delta"]) or not (0.0 < raw["delta"] < 1.0)):
        out.append("delta: must lie strictly inside (0, 1)")
    for key, low in (("replications", 100), ("draws", 100), ("gaussian_draws", 100),
                     ("tail_replicas", 100), ("probe_pairs", 1), ("workers", 1)):
        if key in raw and (not _is_int(raw[key]) or raw[key] < low):
            out.append(f"{key}: must be an integer >= {low}")
    if "out" in raw and not isinstance(raw["out"], str):
        out.append("out: must be a path string")
    if "override_numeric_constants" in raw and not isinstance(raw["override_numeric_constants"], bool):
        out.append("override_numeric_constants: must be a boolean")

    oracle = raw.get("oracle", {})
    if not isinstance(oracle, dict):
        out.append("oracle: must be a mapping")
        oracle = {}
    else:
        _check_keys(oracle, {"method", "replicas"}, "oracle.", out)
        if oracle.get("method", "auto") not in ORACLE_METHODS:
            out.append(f"oracle.method: must be one of {list(ORACLE_METHODS)}")
        if "replicas" in oracle and (not _is_int(oracle["replicas"]) or oracle["replicas"] < 100):
            out.append("oracle.replicas: must be an integer >= 100")
    if oracle.get("method") == "exact":
        if space_kind != "finite":
            out.append("oracle.method: exact enumeration needs a finite sample space")
        elif n is not None and support_labels and len(support_labels) ** n > ENUM_CAP:
            out.append(f"oracle.method: support^n exceeds the enumeration cap {ENUM_CAP}")

    if "t_grid" in raw:
        _validate_grid(raw["t_grid"], "t_grid", out)
    if "s_grid" in raw:
        _validate_grid(raw["s_grid"], "s_grid", out)
    if "member" in raw:
        if not isinstance(raw["member"], str):
            out.append("member: must be a member label string")
        elif member_labels and raw["member"] not in member_labels:
            out.append(f"member: unknown label {raw['member']!r}; class members: {member_labels}")

    if kind in ("deviate", "full-report"):
        for key in ("delta", "replications"):
            if key not in raw:
                out.append(f"{key}: required for kind {kind}")
        if route == "numeric" and not raw.get("override_numeric_constants", False):
            out.append(
                "constants.route: numeric constants are lower bounds; bound assembly "
                "refuses them unless override_numeric_constants is true"
            )
    if kind == "tail" and "t_grid" not in raw:
        out.append("t_grid: required for kind tail")
    if kind == "probe":
        if "s_grid" not in raw:
            out.append("s_grid: required for kind probe")
        if member_labels and len(member_labels) < 2:
            out.append("class: the probe needs at least two members")
    if kind == "tail" and space_kind == "interval":
        out.append("law.space.kind: the tail experiment needs a finite sample space (swing sums)")
    return out


# ---------------------------------------------------------------------------
# Building runtime objects

@dataclass(frozen=True, eq=False)
class Experiment:
    """A fully resolved experiment: built objects plus echoed configuration."""

    kind: str
    seed: int
    n: int
    law: sp.ProductLaw
    fc: cls.FunctionClass
    stat: Statistic
    kernel: object | None
    constants_route: str
    constants_probes: int
    constants_fd_step: float
    c: float
    delta: float | None
    replications: int | None
    draws: int
    gaussian_draws: int
    oracle_method: str
    oracle_replicas: int
    t_grid: np.ndarray | None
    s_grid: np.ndarray | None
    probe_pairs: int
    tail_replicas: int
    member_label: str | None
    override_numeric: bool
    workers: int
    out: str
    echo: dict = field(repr=False, default_factory=dict)


def _grid_array(node) -> np.ndarray:
    if isinstance(node, list):
        return np.asarray([float(v) for v in node])
    return np.linspace(float(node["min"]), float(node["max"]), int(node["count"]))


def _build_space(node) -> sp.SampleSpace:
    if node["kind"] == "interval":
        return sp.interval_space()
    return sp.finite_space([(pt["label"], pt["value"]) for pt in node["support"]])


def _build_law(node, n: int) -> sp.ProductLaw:
    space = _build_space(node["space"])
    if space.kind == sp.FINITE:
        weights = node.get("weights")
        if weights is None:
            coords = [sp.uniform_on(space)] * n
        elif weights and isinstance(weights[0], list):
            coords = [sp.finite_weights(space, row) for row in weights]
        else:
            coords = [sp.finite_weights(space, weights)] * n
        return sp.ProductLaw(tuple(coords))
    fam = node.get("family", {"name": "uniform"})
    name = fam["name"]
    if name == "uniform":
        coord = sp.uniform_on(space)
    elif name == "bernoulli":
        coord = sp.bernoulli(fam["p"])
    else:
        coord = sp.beta_family(fam["a"], fam["b"])
    return sp.iid_law(coord, n)


def _build_class(node, space: sp.SampleSpace, seed: int) -> cls.FunctionClass:
    if "random_lookup" in node:
        return cls.random_lookup_class(space, node["random_lookup"]["count"], stream(seed, "class"))
    members = []
    for m in node["members"]:
        label = str(m["label"])
        if m["type"] == "lookup":
            members.append(cls.lookup_member(label, space, {str(k): v for k, v in m["table"].items()}))
        elif m["type"] == "threshold":
            members.append(cls.ThresholdMember(label, float(m["theta"]), float(m["width"])))
        elif m["type"] == "affine":
            members.append(cls.AffineClippedMember(label, float(m["slope"]), float(m["intercept"])))
        else:
            members.append(cls.constant_member(label, float(m["value"])))
    return cls.FunctionClass(space, tuple(members))


def build_kernel(node):
    name = node["name"]
    if name == "squared-difference":
        return squared_difference_kernel()
    if name == "product":
        return product_kernel(node.get("order", 2))
    if name == "smoothed-min":
        return smoothed_min_kernel(node.get("sharpness", 4.0))
    if name == "constant":
        return constant_kernel(node.get("value", 1.0), node.get("order", 2))
    return identity_kernel()


def _build_statistic(node, n: int):
    name = node["name"]
    if name == "mean":
        return mean_statistic(n), None
    if name == "variance":
        return sample_variance_statistic(n), None
    if name == "u-statistic":
        kernel = build_kernel(node["kernel"])
        return u_statistic(n, kernel), kernel
    signs = cls.separation_labels(node["group_sizes"])
    return class_separation_statistic(n, signs), None


def resolve(raw: dict) -> Experiment:
    """Build the experiment; the configuration must already be valid."""
    violations = validate_config(raw)
    if violations:
        raise ConfigError("; ".join(violations))
    merged = dict(DEFAULTS)
    merged.update(raw)
    n = int(merged["n"])
    seed = int(merged["seed"])
    law = _build_law(merged["law"], n)
    fc = _build_class(merged["class"], law.space, seed)
    stat, kernel = _build_statistic(merged["statistic"], n)
    constants = merged.get("constants", {"route": "closed-form"})
    oracle = merged.get("oracle", {})
    member_label = merged.get("member")
    echo = {k: merged[k] for k in sorted(merged)}
    return Experiment(
        kind=merged["kind"],
        seed=seed,
        n=n,
        law=law,
        fc=fc,
        stat=stat,
        kernel=kernel,
        constants_route=constants.get("route", "closed-form"),
        constants_probes=int(constants.get("probes", 200)),
        constants_fd_step=float(constants.get("fd_step", 1e-4)),
        c=float(merged["c"]),
        delta=float(merged["delta"]) if "delta" in merged else None,
        replications=int(merged["replications"]) if "replications" in merged else None,
        draws=int(merged["draws"]),
        gaussian_draws=int(merged["gaussian_draws"]),
        oracle_method=oracle.get("method", "auto"),
        oracle_replicas=int(oracle.get("replicas", 100_000)),
        t_grid=_grid_array(merged["t_grid"]) if "t_grid" in merged else None,
        s_grid=_grid_array(merged["s_grid"]) if "s_grid" in merged else None,
        probe_pairs=int(merged["probe_pairs"]),
        tail_replicas=int(merged["tail_replicas"]),
        member_label=member_label,
        override_numeric=bool(merged["override_numeric_constants"]),
        workers=int(merged["workers"]),
        out=str(merged["out"]),
        echo=echo,
    )
