"""Declarative checking of nested key-value documents.

A schema is a table of ``Field`` entries, one per key path. ``Schema.check``
walks a document against it in one pass: it reports every violation with
its path, unknown keys included, fills in the defaults, and returns the
normalised values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

REQUIRED = "<required>"  # default of a key that must be given
OPTIONAL = "<optional>"  # default of a key that may be left out (its value is None)
IGNORED = "<ignored>"    # ``elsewhere`` of a key that is allowed but unused there


# ---------------------------------------------------------------------------
# Value tests: each returns None for an accepted value, else the violation.

def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_num(v) -> bool:
    """A finite float, or an int that a float holds."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:    # an int past the largest float
        return False


def rule(*pairs):
    """Test from (predicate, message) pairs, tried in order; a message may
    be a function of the value."""
    def test(v):
        for ok, message in zip(pairs[::2], pairs[1::2]):
            if not ok(v):
                return message(v) if callable(message) else message
    return test


def at_least(low, message=None):
    return rule(lambda v: is_int(v) and v >= low, message or f"must be an integer >= {low}")


def choice(options, message=None):
    return rule(lambda v: isinstance(v, str) and v in options,
                message or f"must be one of {list(options)}")


def of_type(kind, message):
    return rule(lambda v: isinstance(v, kind), message)


def list_of(message, ok=lambda item: True):
    return rule(lambda v: isinstance(v, list) and len(v) > 0 and all(map(ok, v)), message)


@dataclass(frozen=True)
class Field:
    """One key of a schema.

    ``path`` is dotted, ``[]`` standing for the items of a list. ``test``
    vets the value. An absent key takes ``default`` (a function of the
    section's selector value when callable) and is vetted like a given one,
    so a default of None fails with the test's message; REQUIRED reports
    the key as required and OPTIONAL leaves it None. A mapping under a key
    with fields of its own is walked; ``convert`` maps the result. ``when``
    lists the selector values the key applies to; elsewhere it is refused
    with the ``elsewhere`` message, IGNORED, or an unknown key (None).
    """

    path: str
    test: Callable = rule()
    default: object = None
    convert: Callable | None = None
    when: tuple = ()
    elsewhere: str | None = None

    @property
    def key(self) -> str:
        return self.path.rpartition(".")[2]


def dig(values, path: str):
    """The value at a dotted path of nested mappings, or None."""
    for key in path.split("."):
        values = values.get(key) if isinstance(values, dict) else None
    return values


class Schema:
    """A field table plus, per section, the path of its selector value.

    A selector lives under the section's first key; the section's ``when``
    keys apply by its value, and an invalid selector leaves the keys after
    it unchecked.
    """

    def __init__(self, fields, selectors: dict[str, str]):
        self.fields = {f.path: f for f in fields}
        self.selectors = selectors
        self.sections: dict[str, list[Field]] = {}
        for f in fields:
            if not f.path.endswith("[]"):  # list items are reached through their list
                self.sections.setdefault(f.path.rpartition(".")[0], []).append(f)

    def defaults(self) -> dict:
        """The defaults of the top-level keys that are not sections."""
        return {f.key: f.default for f in self.sections[""] if f.path not in self.sections
                and f.default not in (None, REQUIRED, OPTIONAL)}

    def check(self, node: dict) -> tuple[list[str], dict]:
        """(violations, normalised values) of a document."""
        out: list[str] = []
        return out, self._walk(node, "", "", out)

    def _walk(self, node: dict, section: str, path: str, out: list) -> dict:
        prefix = path + "." if path else ""
        fields = self.sections[section]
        values = dict.fromkeys(f.key for f in fields)
        allowed = set(values)
        selector = self.selectors.get(section)
        for i, f in enumerate(fields):
            select = dig(values, selector) if selector else None
            if i and selector and select is None:
                break
            applies = not f.when or select in f.when
            if not (applies or f.elsewhere):
                allowed.discard(f.key)
            if f.key in node and applies:
                values[f.key] = self._take(f, node[f.key], prefix + f.key, out)
            elif f.key in node and f.elsewhere not in (None, IGNORED):
                out.append(f"{prefix}{f.key}: {f.elsewhere}")
            elif f.key not in node and applies and f.default == REQUIRED:
                out.append(f"{prefix}{f.key}: required")
            elif f.key not in node and applies and f.default != OPTIONAL:
                default = f.default(select) if callable(f.default) else f.default
                values[f.key] = self._take(f, default, prefix + f.key, out)
        out.extend(f"{prefix}{key}: unknown key (allowed: {sorted(allowed)})"
                   for key in node if key not in allowed)
        return values

    def _take(self, f: Field, value, path: str, out: list):
        """``value`` of field ``f`` normalised, or None after a violation."""
        problem = f.test(value)
        if problem:
            out.append(f"{path}: {problem}")
            return None
        if isinstance(value, dict) and f.path in self.sections:
            value = self._walk(value, f.path, path, out)
        elif isinstance(value, list) and f.path + "[]" in self.fields:
            item = self.fields[f.path + "[]"]
            value = [self._take(item, v, f"{path}[{i}]", out) for i, v in enumerate(value)]
        return f.convert(value) if f.convert else value
