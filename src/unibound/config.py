"""Experiment configuration: YAML schema, strict validation, object building.

A configuration is a nested key-value document. One table, ``FIELDS``,
states every key of the schema once: what it accepts, its default, and the
sample spaces, statistics, kernels, families or member types it applies
to. Checking walks a document against the table in one pass and yields its
normalised values, every default filled in; ``resolve`` builds the
experiment from those values. ``KINDS`` states the stages each kind runs
and ``STAGES`` the keys each stage needs; the runner executes the stages
that ``resolve`` derives from them. Validation is strict: unknown keys
anywhere in the tree are rejected, every violation is reported with its
path, and statically decidable runtime refusals (enumeration caps, numeric
constants without the override flag) are flagged here too, so that
``validate`` accepts exactly the configurations ``run`` accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import classes as cls, derivative_bounds as db, functionals as fx, spaces as sp
from .complexity import MIN_DRAWS
from .deviation import (
    DEFAULT_GAUSSIAN_DRAWS, DEFAULT_ORACLE_METHOD, DEFAULT_ORACLE_REPLICAS, EXACT, ORACLE_METHODS,
)
from .errors import ConfigError
from .rng import stream
from .schema import (
    IGNORED, OPTIONAL, REQUIRED, Field, Schema, at_least, choice, dig, is_int, is_num, list_of,
    number, of_type, rule,
)

# The choices of a key, each with the builder of its object.
KERNELS = {
    "squared-difference": lambda k: fx.squared_difference_kernel(),
    "product": lambda k: fx.product_kernel(k["order"]),
    "smoothed-min": lambda k: fx.smoothed_min_kernel(k["sharpness"]),
    "constant": lambda k: fx.constant_kernel(k["value"], k["order"]),
    "identity": lambda k: fx.identity_kernel(),
}
STATISTICS = {
    "mean": lambda s, n, kernel: fx.mean_statistic(n),
    "variance": lambda s, n, kernel: fx.sample_variance_statistic(n),
    "u-statistic": lambda s, n, kernel: fx.u_statistic(n, kernel),
    "class-separation": lambda s, n, kernel: fx.class_separation_statistic(s["group_sizes"]),
}
MEMBER_TYPES = {
    "lookup": lambda m, space: cls.lookup_member(m["label"], space, m["table"]),
    "threshold": lambda m, space: cls.ThresholdMember(m["label"], m["theta"], m["width"]),
    "affine": lambda m, space: cls.AffineClippedMember(m["label"], m["slope"], m["intercept"]),
    "constant": lambda m, space: cls.constant_member(m["label"], m["value"]),
}
# The orders the kernels fix themselves.
_FIXED_ORDER = {k.name: k.order for k in (
    fx.squared_difference_kernel(), fx.smoothed_min_kernel(), fx.identity_kernel())}


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = yaml.safe_load(handle)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"unparseable configuration: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a key-value document")
    return raw


def _grid(g):
    if isinstance(g, list):
        ok = g and all(is_num(v) and v >= 0.0 for v in g)
        return None if ok else "must be a non-empty list of numbers >= 0.0"
    if not isinstance(g, dict):
        return "must be a list or a min/max/count range"
    lo, hi, count = g.get("min"), g.get("max"), g.get("count")
    if not (is_num(lo) and is_num(hi) and is_int(count)):
        return "range needs numeric min, max and integer count"
    if lo < 0.0 or hi < lo or count < 1:
        return "need 0.0 <= min <= max and count >= 1"


def _grid_array(g) -> np.ndarray:
    if isinstance(g, list):
        return np.asarray([float(v) for v in g])
    return np.linspace(float(g["min"]), float(g["max"]), g["count"])


def _grid_fields(name: str) -> tuple[Field, ...]:
    """A threshold grid: a list, or a range whose keys the grid test vets."""
    parts = (Field(f"{name}.{key}", default=OPTIONAL) for key in ("min", "max", "count"))
    return (Field(name, _grid, OPTIONAL, _grid_array), *parts)


_MAPPING = of_type(dict, "must be a mapping")
_POSITIVE_INT = at_least(1, "must be a positive integer")
_UNIT = number("must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)

# The stages of each kind: those it always runs, then those it runs only
# when the configuration gives their keys, in the order they run.
KINDS = {
    "complexity": (("complexity",), ()),
    "constants": (("constants",), ()),
    "deviate": (("deviation",), ()),
    "tail": (("tail",), ()),
    "probe": (("probe",), ()),
    "full-report": (("constants", "complexity", "deviation"), ("tail", "probe")),
}
# The keys each stage needs.
STAGES = {
    "constants": (), "complexity": (), "deviation": ("delta", "replications"),
    "tail": ("t_grid",), "probe": ("s_grid",),
}

ON_FINITE, ON_INTERVAL = (sp.FINITE,), (sp.INTERVAL,)
FIELDS = (
    Field("kind", choice(KINDS)),
    Field("seed", at_least(0, "must be a nonnegative integer"), REQUIRED),
    Field("n", at_least(2)),
    Field("law", _MAPPING, REQUIRED),
    Field("law.space", _MAPPING, REQUIRED),
    Field("law.space.kind", choice(ON_FINITE + ON_INTERVAL, "must be 'finite' or 'interval'")),
    Field("law.space.support", list_of("finite spaces need a non-empty support list"),
          when=ON_FINITE, elsewhere="interval spaces carry no support"),
    Field("law.space.support[]", rule(
        lambda p: isinstance(p, dict), "must be a mapping with label and value",
        lambda p: "label" in p and "value" in p, "needs both label and value")),
    Field("law.space.support[].label", convert=str),
    Field("law.space.support[].value", _UNIT),
    Field("law.weights", rule(lambda v: v is None or isinstance(v, list) and len(v) > 0,
                              "must be a weight vector or a list of them"),
          OPTIONAL, when=ON_FINITE, elsewhere="interval laws are specified by a family"),
    Field("law.family", rule(
        lambda f: isinstance(f, dict), "must be a mapping",
        lambda f: f.get("name") != "beta" or all(is_num(f.get(k)) and f[k] > 0.0 for k in "ab"),
        "beta needs positive a and b",
    ), {"name": "uniform"}, when=ON_INTERVAL, elsewhere="finite laws are specified by weights"),
    Field("law.family.name", choice(sp.FAMILIES)),
    Field("law.family.p", number("bernoulli needs p in [0, 1]", lambda v: 0.0 <= v <= 1.0),
          when=("bernoulli",), elsewhere=IGNORED),
    Field("law.family.a", default=OPTIONAL, when=("beta",), elsewhere=IGNORED),
    Field("law.family.b", default=OPTIONAL, when=("beta",), elsewhere=IGNORED),
    Field("class", rule(
        lambda c: isinstance(c, dict), "must be a mapping",
        lambda c: ("members" in c) != ("random_lookup" in c),
        "give exactly one of members or random_lookup"), REQUIRED),
    Field("class.members", list_of("must be a non-empty list"), OPTIONAL),
    Field("class.members[]", rule(
        lambda m: isinstance(m, dict), "must be a mapping",
        lambda m: m.get("type") != "affine"
        or all(is_num(m.get(k)) for k in ("slope", "intercept")),
        "affine members need slope and intercept")),
    Field("class.members[].type", choice(MEMBER_TYPES)),
    Field("class.members[].label", default=REQUIRED, convert=str),
    Field("class.members[].table", of_type(dict, "must map support labels to values"),
          when=("lookup",), convert=lambda t: {str(k): v for k, v in t.items()}),
    Field("class.members[].theta", number("required number"), when=("threshold",), convert=float),
    Field("class.members[].width", number("must be a positive number", lambda v: v > 0.0),
          when=("threshold",), convert=float),
    Field("class.members[].slope", default=OPTIONAL, when=("affine",), convert=float),
    Field("class.members[].intercept", default=OPTIONAL, when=("affine",), convert=float),
    Field("class.members[].value", _UNIT, when=("constant",), convert=float),
    Field("class.random_lookup", _MAPPING, OPTIONAL),
    Field("class.random_lookup.count", _POSITIVE_INT),
    Field("statistic", _MAPPING, REQUIRED),
    Field("statistic.name", choice(
        STATISTICS, lambda v: f"unknown statistic {v!r}; supported: {list(STATISTICS)}")),
    Field("statistic.kernel", of_type(dict, "u-statistic needs a kernel mapping"),
          when=("u-statistic",), elsewhere="only u-statistic takes a kernel"),
    Field("statistic.kernel.name", choice(
        KERNELS, lambda v: f"unknown kernel {v!r}; supported: {list(KERNELS)}")),
    Field("statistic.kernel.order", _POSITIVE_INT,
          lambda name: _FIXED_ORDER.get(name, fx.DEFAULT_KERNEL_ORDER)),
    Field("statistic.kernel.sharpness", number("must be positive", lambda v: v > 0.0),
          fx.DEFAULT_SHARPNESS, when=("smoothed-min",), elsewhere=IGNORED),
    Field("statistic.kernel.value", number("must be a number"), 1.0,
          when=("constant",), elsewhere=IGNORED),
    Field("statistic.group_sizes",
          list_of("must be a non-empty list of positive integers", lambda g: is_int(g) and g >= 1),
          when=("class-separation",), elsewhere="only class-separation takes group sizes"),
    Field("constants", _MAPPING, {}),
    Field("constants.route", choice((db.CLOSED_FORM, db.DERIVED_BOUND, db.NUMERIC)),
          db.CLOSED_FORM),
    Field("constants.probes", _POSITIVE_INT, db.DEFAULT_PROBES),
    Field("constants.fd_step", number(f"must lie in {db.FD_STEP_RANGE_TEXT}",
                                      lambda v: db.FD_STEP_RANGE[0] <= v <= db.FD_STEP_RANGE[1]),
          db.DEFAULT_FD_STEP, float),
    Field("c", number("must be a positive number", lambda v: v > 0.0), 1.0, float),
    Field("delta", number("must lie strictly inside (0, 1)", lambda v: 0.0 < v < 1.0),
          OPTIONAL, float),
    Field("replications", at_least(MIN_DRAWS), OPTIONAL),
    Field("draws", at_least(MIN_DRAWS), 100_000),
    Field("gaussian_draws", at_least(MIN_DRAWS), DEFAULT_GAUSSIAN_DRAWS),
    Field("tail_replicas", at_least(MIN_DRAWS), 100_000),
    Field("probe_pairs", at_least(1), 3),
    Field("out", of_type(str, "must be a path string"), "results"),
    Field("override_numeric_constants", of_type(bool, "must be a boolean"), False),
    Field("oracle", _MAPPING, {}),
    Field("oracle.method", choice(ORACLE_METHODS), DEFAULT_ORACLE_METHOD),
    Field("oracle.replicas", at_least(MIN_DRAWS), DEFAULT_ORACLE_REPLICAS),
    *_grid_fields("t_grid"),
    *_grid_fields("s_grid"),
    Field("member", of_type(str, "must be a member label string"), OPTIONAL),
)
# Where each section's selector value lives, under the section's first key.
SCHEMA = Schema(FIELDS, {
    "law": "space.kind", "law.space": "kind", "law.family": "name",
    "class.members[]": "type", "statistic": "name", "statistic.kernel": "name",
})


def _cross_check(v: dict, raw: dict, out: list) -> None:
    """Violations that tie keys of different sections together."""
    n, law, fc, stat = v["n"], v["law"] or {}, v["class"] or {}, v["statistic"] or {}
    space_kind = dig(law, "space.kind")
    labels = [p["label"] for p in dig(law, "space.support") or () if p]
    if len(set(labels)) != len(labels):
        out.append("law.space.support: labels must be unique")
    weights = law.get("weights")
    per_coordinate = bool(weights) and isinstance(weights[0], list)
    rows = weights if per_coordinate else [weights] if weights else []
    if per_coordinate and n is not None and len(rows) != n:
        out.append(f"law.weights: need one row per coordinate ({n})")
    for j, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(labels):
            out.append(f"law.weights[{j}]: must match the support size {len(labels)}")
        elif any(not is_num(w) or w < 0.0 for w in row):
            out.append(f"law.weights[{j}]: weights must be nonnegative numbers")
        elif abs(sum(float(w) for w in row) - 1.0) > sp.WEIGHT_TOL:
            out.append(f"law.weights[{j}]: weights must sum to 1 within {sp.WEIGHT_TOL}")

    count = dig(fc, "random_lookup.count")
    member_labels = cls.random_lookup_labels(count) if count is not None else []
    if fc.get("random_lookup") and space_kind == sp.INTERVAL:
        out.append("class.random_lookup: needs a finite sample space")
    for i, m in enumerate(fc.get("members") or ()):
        if m is None or m["type"] is None:
            continue
        member_labels += [m["label"]] if m["label"] is not None else []
        if m["type"] == "lookup" and space_kind == sp.INTERVAL:
            out.append(f"class.members[{i}]: lookup members need a finite sample space")
        elif m["type"] == "lookup" and m["table"] is not None:
            missing = [lab for lab in labels if lab not in m["table"]]
            extra = sorted(set(m["table"]) - set(labels))
            if missing:
                out.append(f"class.members[{i}].table: missing support labels {missing}")
            if extra:
                out.append(f"class.members[{i}].table: unknown support labels {extra}")
            if not all(is_num(x) and 0.0 <= x <= 1.0 for x in m["table"].values()):
                out.append(f"class.members[{i}].table: values must lie in [0, 1]")
    if fc.get("members") and len(set(member_labels)) != len(member_labels):
        out.append("class.members: labels must be unique")

    name, order = dig(stat, "kernel.name"), dig(stat, "kernel.order")
    if name is not None and order is not None:
        fixed = _FIXED_ORDER.get(name, order)
        if order != fixed:
            arguments = {1: "one", 2: "two"}[fixed]
            out.append(f"statistic.kernel.order: {name} is a {arguments}-argument kernel")
        if n is not None and order > n:
            out.append(f"statistic.kernel.order: exceeds n = {n}")
        elif n is not None and math.comb(n, order) > fx.ENUM_CAP:
            out.append(f"statistic.kernel.order: C({n},{order}) subsets exceed the enumeration cap "
                       f"{fx.ENUM_CAP}")
        elif n is not None and math.comb(n, order) * order > fx.SUBSET_TABLE_CAP:
            out.append(f"statistic.kernel.order: C({n},{order}) x {order} subset indices exceed the "
                       f"subset table cap {fx.SUBSET_TABLE_CAP}")
    if stat.get("group_sizes") and n is not None and sum(stat["group_sizes"]) != n:
        out.append(f"statistic.group_sizes: must sum to n = {n}")

    route = dig(v, "constants.route")
    if route == db.CLOSED_FORM and stat.get("name") == "u-statistic":
        out.append("constants.route: u-statistics carry no closed form; "
                   "use derived-bound or numeric")
    elif route == db.DERIVED_BOUND and stat.get("name") not in (None, "u-statistic"):
        out.append("constants.route: derived-bound applies to u-statistics only")
    elif route == db.NUMERIC and n is not None and math.comb(n, 2) > fx.ENUM_CAP:
        out.append(f"constants.route: the numeric route's C({n},2) coordinate pairs exceed the "
                   f"enumeration cap {fx.ENUM_CAP}")
    if dig(v, "oracle.method") == EXACT:
        if space_kind != sp.FINITE:
            out.append("oracle.method: exact enumeration needs a finite sample space")
        # Any s >= 2 passes the cap by n = 64, so support^n is never built.
        elif n is not None and labels and len(labels) ** min(n, 64) > fx.ENUM_CAP:
            out.append(f"oracle.method: support^n exceeds the enumeration cap {fx.ENUM_CAP}")
    if v["member"] is not None and member_labels and v["member"] not in member_labels:
        out.append(f"member: unknown label {v['member']!r}; class members: {member_labels}")

    kind, stages = v["kind"], _stages(v)
    out.extend(f"{key}: required for kind {kind}"
               for stage in KINDS.get(kind, ((), ()))[0] for key in STAGES[stage] if key not in raw)
    # The deviation stage assembles the bound.
    if "deviation" in stages and route == db.NUMERIC and not raw.get("override_numeric_constants"):
        out.append("constants.route: numeric constants are lower bounds; bound assembly "
                   "refuses them unless override_numeric_constants is true")
    if "probe" in stages and member_labels and len(member_labels) < 2:
        out.append("class: the probe needs at least two members")
    if "tail" in stages and space_kind == sp.INTERVAL:
        out.append("law.space.kind: the tail experiment needs a finite sample space (swing sums)")


def _stages(v: dict) -> tuple[str, ...]:
    """The stages a configuration's kind runs, given its normalised values."""
    always, if_given = KINDS.get(v["kind"], ((), ()))
    return always + tuple(s for s in if_given if all(v[key] is not None for key in STAGES[s]))


def _parse(raw) -> tuple[list[str], dict | None]:
    """(violations, normalised values) of a configuration document."""
    if not isinstance(raw, dict):
        return ["configuration must be a key-value document"], None
    out, values = SCHEMA.check(raw)
    _cross_check(values, raw, out)
    return out, values


def validate_config(raw: dict) -> list[str]:
    """All schema violations, without executing anything."""
    return _parse(raw)[0]


# ---------------------------------------------------------------------------
# Building runtime objects

@dataclass(frozen=True, eq=False)
class Experiment:
    """A fully resolved experiment: built objects plus echoed configuration.

    Each setting is named after its key; keys of the ``constants`` and
    ``oracle`` sections carry the section as a prefix (``oracle_method``).
    """

    kind: str
    stages: tuple[str, ...]   # from KINDS; derived, neither a key nor echoed
    seed: int
    n: int
    law: sp.ProductLaw
    fc: cls.FunctionClass
    stat: fx.Statistic
    kernel: fx.Kernel | None
    constants_route: str
    constants_probes: int
    constants_fd_step: float
    c: float
    delta: float | None
    replications: int | None
    draws: int
    gaussian_draws: int
    tail_replicas: int
    probe_pairs: int
    out: str
    override_numeric_constants: bool
    oracle_method: str
    oracle_replicas: int
    t_grid: np.ndarray | None
    s_grid: np.ndarray | None
    member: str | None
    echo: dict = field(repr=False, default_factory=dict)


def _build_law(law: dict, n: int) -> sp.ProductLaw:
    if law["space"]["kind"] == sp.INTERVAL:
        name = law["family"]["name"]
        params = tuple(float(law["family"][key]) for key in sp.FAMILIES[name])
        coordinate = sp.CoordinateDistribution(sp.interval_space(), family=name, params=params)
        return sp.iid_law(coordinate, n)
    space = sp.finite_space([(p["label"], p["value"]) for p in law["space"]["support"]])
    weights = law["weights"]
    if weights is None:
        coords = [sp.uniform_on(space)] * n
    elif isinstance(weights[0], list):
        coords = [sp.finite_weights(space, row) for row in weights]
    else:
        coords = [sp.finite_weights(space, weights)] * n
    return sp.ProductLaw(tuple(coords))


def _build_class(spec: dict, space: sp.SampleSpace, seed: int) -> cls.FunctionClass:
    if spec["random_lookup"] is not None:
        return cls.random_lookup_class(space, spec["random_lookup"]["count"], stream(seed, "class"))
    members = tuple(MEMBER_TYPES[m["type"]](m, space) for m in spec["members"])
    return cls.FunctionClass(space, members)


def resolve(raw: dict) -> Experiment:
    """Build the experiment; the configuration must already be valid."""
    violations, settings = _parse(raw)
    if violations:
        raise ConfigError("; ".join(violations))
    settings["stages"] = _stages(settings)
    n, seed, spec = settings.pop("n"), settings.pop("seed"), settings.pop("statistic")
    law = _build_law(settings.pop("law"), n)
    fc = _build_class(settings.pop("class"), law.space, seed)
    kernel = KERNELS[spec["kernel"]["name"]](spec["kernel"]) if spec["kernel"] else None
    for section in ("constants", "oracle"):
        settings.update({f"{section}_{k}": x for k, x in settings.pop(section).items()})
    merged = {**SCHEMA.defaults(), **raw}
    return Experiment(
        n=n, seed=seed, law=law, fc=fc, stat=STATISTICS[spec["name"]](spec, n, kernel),
        kernel=kernel, echo={k: merged[k] for k in sorted(merged)}, **settings,
    )
