"""Experiment configuration: YAML schema, strict validation, object building.

A configuration is a nested key-value document. One table, ``FIELDS``,
states every key of the schema once: what it accepts, its default, and the
sample spaces, statistics, kernels, families or member types it applies
to. Checking walks a document against the table in one pass and yields its
normalised values, every default filled in; ``resolve`` builds the
experiment from those values. ``KINDS`` states the stages each kind runs
and ``STAGES`` the keys each stage needs; the runner executes the stages
that ``resolve`` derives from them. Validation is strict: unknown keys
anywhere in the tree are rejected and every violation is reported with its
path. The table tests each value on its own, its type and the rules no
library function states; checking then puts each value whose range a
library function states to that function's check, builds the law's
coordinates, the class, the kernel and the statistic with the library's
constructors, and puts the constants route, the exact oracle and the tail
to the library's checks. A rule that a library function states, a range,
a cap or a tie between sections, is thus that function's refusal at the
key's path, and ``resolve`` reuses what was built; ``validate`` accepts
exactly the configurations ``run`` accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from . import classes as cls, derivative_bounds as db, functionals as fx, spaces as sp
from .complexity import check_draws
from .deviation import (
    DEFAULT_GAUSSIAN_DRAWS, DEFAULT_ORACLE_METHOD, DEFAULT_ORACLE_REPLICAS, EXACT, ORACLE_METHODS,
    check_c, check_delta, check_swing_space, lattice_points, threshold_grid,
)
from .errors import ConfigError, UniboundError
from .rng import check_seed, stream
from .schema import (
    IGNORED, OPTIONAL, REQUIRED, Field, Schema, at_least, choice, dig, is_int, is_num, list_of,
    of_type, rule,
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
        # ValueError covers undecodable bytes and an integer past Python's
        # digit limit; RecursionError, a value nested too deep to parse.
        except (yaml.YAMLError, ValueError, RecursionError) as exc:
            raise ConfigError(f"unparseable configuration: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a key-value document")
    return raw


def _grid(g):
    """The shape of a threshold grid; ``threshold_grid`` states its range."""
    if isinstance(g, list):
        return None if all(map(is_num, g)) else "must be a list of numbers"
    if not isinstance(g, dict):
        return "must be a list or a min/max/count range"
    lo, hi, count = g.get("min"), g.get("max"), g.get("count")
    if not (is_num(lo) and is_num(hi) and is_int(count)):
        return "range needs numeric min, max and integer count"
    if hi < lo:
        return "need min <= max"


def _grid_fields(name: str) -> tuple[Field, ...]:
    """A threshold grid: a list, or a range whose keys the grid test vets;
    ``threshold_grid`` builds either."""
    parts = (Field(f"{name}.{key}", default=OPTIONAL) for key in ("min", "max", "count"))
    return (Field(name, _grid, OPTIONAL), *parts)


# Where the library states a value's range, the table tests only its type.
_MAPPING = of_type(dict, "must be a mapping")
_NUMBER = rule(is_num, "must be a number")
_INT = rule(is_int, "must be an integer")

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
    Field("seed", _INT, REQUIRED),
    Field("n", _INT),
    Field("law", _MAPPING, REQUIRED),
    Field("law.space", _MAPPING, REQUIRED),
    Field("law.space.kind", choice(ON_FINITE + ON_INTERVAL, "must be 'finite' or 'interval'")),
    Field("law.space.support", list_of("finite spaces need a non-empty support list"),
          when=ON_FINITE, elsewhere="interval spaces carry no support"),
    Field("law.space.support[]", rule(
        lambda p: isinstance(p, dict), "must be a mapping with label and value",
        lambda p: "label" in p and "value" in p, "needs both label and value")),
    Field("law.space.support[].label", convert=str),
    Field("law.space.support[].value", _NUMBER),
    # Weights and table values are numbers in the document: the library's
    # float() would take "0.5" or true.
    Field("law.weights", rule(lambda v: v is None or isinstance(v, list) and len(v) > 0 and all(
        isinstance(row, list) and all(map(is_num, row)) for row in (v if isinstance(v[0], list) else [v])),
        "must be a vector of numbers or a list of them"),
          OPTIONAL, when=ON_FINITE, elsewhere="interval laws are specified by a family"),
    Field("law.family", _MAPPING, {"name": "uniform"},
          when=ON_INTERVAL, elsewhere="finite laws are specified by weights"),
    Field("law.family.name", choice(sp.FAMILIES)),
    *(Field(f"law.family.{key}", _NUMBER, when=(name,), elsewhere=IGNORED)
      for name, keys in sp.FAMILIES.items() for key in keys),
    Field("class", rule(
        lambda c: isinstance(c, dict), "must be a mapping",
        lambda c: ("members" in c) != ("random_lookup" in c),
        "give exactly one of members or random_lookup"), REQUIRED),
    Field("class.members", list_of("must be a non-empty list"), OPTIONAL),
    Field("class.members[]", _MAPPING),
    Field("class.members[].type", choice(MEMBER_TYPES)),
    Field("class.members[].label", default=REQUIRED, convert=str),
    Field("class.members[].table", rule(
        lambda t: isinstance(t, dict), "must map support labels to values",
        lambda t: all(map(is_num, t.values())), "values must be numbers"),
          when=("lookup",), convert=lambda t: {str(k): v for k, v in t.items()}),
    Field("class.members[].theta", rule(is_num, "required number"), when=("threshold",), convert=float),
    Field("class.members[].width", _NUMBER, when=("threshold",), convert=float),
    Field("class.members[].slope", _NUMBER, when=("affine",), convert=float),
    Field("class.members[].intercept", _NUMBER, when=("affine",), convert=float),
    Field("class.members[].value", _NUMBER, when=("constant",), convert=float),
    Field("class.random_lookup", _MAPPING, OPTIONAL),
    Field("class.random_lookup.count", _INT),
    Field("statistic", _MAPPING, REQUIRED),
    Field("statistic.name", choice(
        STATISTICS, lambda v: f"unknown statistic {v!r}; supported: {list(STATISTICS)}")),
    Field("statistic.kernel", of_type(dict, "u-statistic needs a kernel mapping"),
          when=("u-statistic",), elsewhere="only u-statistic takes a kernel"),
    Field("statistic.kernel.name", choice(
        KERNELS, lambda v: f"unknown kernel {v!r}; supported: {list(KERNELS)}")),
    Field("statistic.kernel.order", _INT, lambda name: _FIXED_ORDER.get(name, fx.DEFAULT_KERNEL_ORDER)),
    Field("statistic.kernel.sharpness", _NUMBER, fx.DEFAULT_SHARPNESS,
          when=("smoothed-min",), elsewhere=IGNORED),
    Field("statistic.kernel.value", _NUMBER, 1.0, when=("constant",), elsewhere=IGNORED),
    Field("statistic.group_sizes",
          list_of("must be a non-empty list of integers", is_int),
          when=("class-separation",), elsewhere="only class-separation takes group sizes"),
    Field("constants", _MAPPING, {}),
    Field("constants.route", choice((db.CLOSED_FORM, db.DERIVED_BOUND, db.NUMERIC)),
          db.CLOSED_FORM),
    Field("constants.probes", _INT, db.DEFAULT_PROBES),
    Field("constants.fd_step", _NUMBER, db.DEFAULT_FD_STEP, float),
    Field("c", _NUMBER, 1.0, float),
    Field("delta", _NUMBER, OPTIONAL, float),
    Field("replications", _INT, OPTIONAL),
    Field("draws", _INT, 100_000),
    Field("gaussian_draws", _INT, DEFAULT_GAUSSIAN_DRAWS),
    Field("tail_replicas", _INT, 100_000),
    Field("probe_pairs", at_least(1), 3),
    Field("out", of_type(str, "must be a path string"), "results"),
    Field("override_numeric_constants", of_type(bool, "must be a boolean"), False),
    Field("oracle", _MAPPING, {}),
    Field("oracle.method", choice(ORACLE_METHODS), DEFAULT_ORACLE_METHOD),
    Field("oracle.replicas", _INT, DEFAULT_ORACLE_REPLICAS),
    *_grid_fields("t_grid"),
    *_grid_fields("s_grid"),
    Field("member", of_type(str, "must be a member label string"), OPTIONAL),
)
# Where each section's selector value lives, under the section's first key.
SCHEMA = Schema(FIELDS, {
    "law": "space.kind", "law.space": "kind", "law.family": "name",
    "class.members[]": "type", "statistic": "name", "statistic.kernel": "name",
})


# The keys whose range a library function states, each with that function's
# check; a draw count's check names the count by its key.
RANGES = (
    ("seed", check_seed), ("n", sp.check_coordinates), ("c", check_c), ("delta", check_delta),
    ("constants.probes", db.check_probes), ("constants.fd_step", db.check_fd_step),
    *((key, lambda count, name=key.rpartition(".")[2]: check_draws(count, name)) for key in
      ("replications", "draws", "gaussian_draws", "tail_replicas", "oracle.replicas")),
    *((key, lambda grid, name=key: threshold_grid(grid, name)) for key in ("t_grid", "s_grid")),
    ("probe_pairs", lambda count: fx.check_enumeration(count, "probe pairs")),
)


def _intact(out: list, *paths: str) -> bool:
    """Whether no violation so far lies at or under any of the key paths."""
    return not any(v.startswith(p) and v[len(p)] in ".[:" for p in paths for v in out)


def _build(out: list, path: str, build):
    """``build()``, or None once the library's refusal of it is recorded at ``path``."""
    try:
        return build()
    except UniboundError as exc:
        out.append(f"{path}: {exc}")


def _coordinates(law: dict, space: sp.SampleSpace, n: int | None, out: list) -> list | None:
    """The coordinate laws of a law section: one, or one per coordinate."""
    if space.kind == sp.INTERVAL:
        name = law["family"]["name"]
        params = tuple(float(law["family"][key]) for key in sp.FAMILIES[name])
        return [_build(out, "law.family",
                       lambda: sp.CoordinateDistribution(space, family=name, params=params))]
    weights = law["weights"]
    if weights is None:
        return [sp.uniform_on(space)]
    if not isinstance(weights[0], list):
        return [_build(out, "law.weights", lambda: sp.finite_weights(space, weights))]
    if n is not None and len(weights) != n:
        out.append(f"law.weights: need one row per coordinate ({n})")
    return [_build(out, f"law.weights[{j}]", lambda row=row: sp.finite_weights(space, row))
            for j, row in enumerate(weights)]


def _function_class(spec: dict, space: sp.SampleSpace, seed: int, out: list) -> cls.FunctionClass | None:
    if spec["random_lookup"]:
        count = spec["random_lookup"]["count"]
        return _build(out, "class.random_lookup",
                      lambda: cls.random_lookup_class(space, count, stream(seed, "class")))
    members = [_build(out, f"class.members[{i}]", lambda m=m: MEMBER_TYPES[m["type"]](m, space))
               for i, m in enumerate(spec["members"])]
    if _intact(out, "class"):
        return _build(out, "class.members", lambda: cls.FunctionClass(space, tuple(members)))


def _in_range(v: dict, out: list) -> None:
    """Put each given value of RANGES to its check; a refused value is
    cleared, as the schema clears a value of the wrong type."""
    for path, check in RANGES:
        section, _, key = path.rpartition(".")
        values = dig(v, section) if section else v
        if isinstance(values, dict) and values[key] is not None:
            try:
                check(values[key])
            except UniboundError as exc:
                out.append(f"{path}: {exc}")
                values[key] = None


def _check(v: dict, raw: dict, out: list) -> dict:
    """The rules beyond each key's own test; returns the objects built on
    the way, for ``resolve``. A rule that a library function states is that
    function's refusal, at its key path. A rule whose inputs were refused
    is not checked, and nothing that grows with n beyond the document's own
    weight rows is built.
    """
    _in_range(v, out)
    n, law, stat_spec = v["n"], v["law"], v["statistic"]
    space = coordinates = fc = kernel = stat = None
    if _intact(out, "law"):
        support = law["space"]["support"]
        space = sp.interval_space() if support is None else _build(
            out, "law.space.support", lambda: sp.finite_space([(p["label"], p["value"]) for p in support]))
    if space is not None:
        coordinates = _coordinates(law, space, n, out)
        fc = _function_class(v["class"], space, v["seed"], out) if _intact(out, "class", "seed") else None

    if _intact(out, "statistic") and stat_spec["kernel"]:
        k = stat_spec["kernel"]
        kernel = _build(out, "statistic.kernel", lambda: KERNELS[k["name"]](k))
        if kernel is not None and kernel.order != k["order"]:    # a kernel of fixed arity
            arguments = {1: "one", 2: "two"}[kernel.order]
            out.append(f"statistic.kernel.order: {k['name']} is a {arguments}-argument kernel")
    groups = _intact(out, "statistic", "n") and stat_spec["group_sizes"]
    if groups and sum(groups) != n:
        out.append(f"statistic.group_sizes: must sum to n = {n}")
    if _intact(out, "statistic", "n"):
        path = "statistic.kernel.order" if kernel else "statistic.group_sizes" if groups else "statistic"
        stat = _build(out, path, lambda: STATISTICS[stat_spec["name"]](stat_spec, n, kernel))

    route = dig(v, "constants.route")
    if route == db.CLOSED_FORM and stat is not None:
        _build(out, "constants.route", lambda: db.closed_form_constants(stat))
    elif route == db.DERIVED_BOUND and dig(stat_spec, "name") not in (None, "u-statistic"):
        out.append("constants.route: derived-bound applies to u-statistics only")
    elif route == db.NUMERIC and n is not None:
        _build(out, "constants.route", lambda: db.check_coordinate_pairs(n))
    if dig(v, "oracle.method") == EXACT and space is not None and n is not None:
        _build(out, "oracle.method", lambda: lattice_points(space, n))
    if v["member"] is not None and fc is not None and v["member"] not in fc.labels:
        out.append(f"member: unknown label {v['member']!r}; class members: {list(fc.labels)}")

    kind, stages = v["kind"], _stages(v)
    out.extend(f"{key}: required for kind {kind}"
               for stage in KINDS.get(kind, ((), ()))[0] for key in STAGES[stage] if key not in raw)
    # The deviation stage assembles the bound.
    if "deviation" in stages and route == db.NUMERIC and not raw.get("override_numeric_constants"):
        out.append("constants.route: numeric constants are lower bounds; bound assembly "
                   "refuses them unless override_numeric_constants is true")
    if "probe" in stages and fc is not None and len(fc) < 2:
        out.append("class: the probe needs at least two members")
    if "tail" in stages and space is not None:
        _build(out, "law.space.kind", lambda: check_swing_space(space))
    return {"coordinates": coordinates, "fc": fc, "kernel": kernel, "stat": stat}


def _stages(v: dict) -> tuple[str, ...]:
    """The stages a configuration's kind runs, given its normalised values."""
    always, if_given = KINDS.get(v["kind"], ((), ()))
    return always + tuple(s for s in if_given if all(v[key] is not None for key in STAGES[s]))


def _parse(raw) -> tuple[list[str], dict | None, dict | None]:
    """(violations, normalised values, built objects) of a configuration document."""
    if not isinstance(raw, dict):
        return ["configuration must be a key-value document"], None, None
    out, values = SCHEMA.check(raw)
    return out, values, _check(values, raw, out)


def validate_config(raw: dict) -> list[str]:
    """All violations of a configuration, without running anything."""
    return _parse(raw)[0]


# ---------------------------------------------------------------------------
# Building runtime objects

@dataclass(frozen=True, eq=False)
class Experiment:
    """A fully resolved experiment: the built objects, the stages to run,
    and ``settings``, the normalised values of ``SCHEMA.check`` with every
    default filled in and each section nested as in the document.
    """

    n: int
    law: sp.ProductLaw
    fc: cls.FunctionClass
    stat: fx.Statistic
    kernel: fx.Kernel | None
    stages: tuple[str, ...]   # from KINDS; derived, neither a key nor echoed
    settings: dict
    echo: dict = field(repr=False, default_factory=dict)


def resolve(raw: dict) -> Experiment:
    """Build the experiment; the configuration must already be valid."""
    violations, settings, built = _parse(raw)
    if violations:
        raise ConfigError("; ".join(violations))
    n, coordinates = settings["n"], built.pop("coordinates")
    law = sp.ProductLaw(tuple(coordinates)) if len(coordinates) > 1 else sp.iid_law(coordinates[0], n)
    merged = {**SCHEMA.defaults(), **raw}
    return Experiment(n=n, law=law, stages=_stages(settings), settings=settings,
                      echo={k: merged[k] for k in sorted(merged)}, **built)
