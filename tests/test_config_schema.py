"""The README's configuration schema block against the field table, and
the README's and the cli docstring's command lines against the parser."""

import re
from pathlib import Path

import pytest
import yaml

from unibound import cli, config
from unibound.complexity import MIN_DRAWS
from unibound.config import FIELDS, KINDS, validate_config
from unibound.errors import DomainError
from unibound.schema import OPTIONAL, REQUIRED, dig

from test_config_cli import small_deviate_config

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_block() -> str:
    text = README.read_text()
    return re.search(r"### Configuration schema\s+```yaml\n(.*?)```", text, re.S).group(1)


def _readme_paths(node, sections, prefix=""):
    """Key paths of the README block, entering only the table's sections."""
    for key, value in node.items():
        path = prefix + key
        yield path
        if isinstance(value, dict) and path in sections:
            yield from _readme_paths(value, sections, path + ".")
        elif isinstance(value, list) and path + "[]" in sections:
            for item in value:
                yield from _readme_paths(item, sections, path + "[].")


def test_readme_schema_keys_match_the_field_table():
    table = {f.path for f in FIELDS if not f.path.endswith("[]")}
    sections = {p.rpartition(".")[0] for p in table} - {""}
    assert set(_readme_paths(yaml.safe_load(_readme_block()), sections)) == table


def test_readme_schema_values_are_the_table_defaults():
    readme = yaml.safe_load(_readme_block())
    plain = [f for f in FIELDS if not callable(f.default) and not isinstance(f.default, dict)
             and f.default not in (None, REQUIRED, OPTIONAL)]
    assert {f.path for f in plain} == {
        "statistic.kernel.sharpness", "statistic.kernel.value", "constants.route",
        "constants.probes", "constants.fd_step", "c", "draws", "gaussian_draws",
        "tail_replicas", "probe_pairs", "out", "override_numeric_constants",
        "oracle.method", "oracle.replicas",
    }
    for f in plain:
        assert dig(readme, f.path) == f.default, f.path


def test_readme_states_the_draw_floor(monkeypatch):
    # The keys validate sends to the draw check, read off a check that refuses all.
    def refuse(count, name):
        raise DomainError("floor")

    monkeypatch.setattr(config, "check_draws", refuse)
    violations = validate_config(small_deviate_config("results"))
    floors = [v.removesuffix(": floor") for v in violations if v.endswith(": floor")]
    assert set(floors) == {"replications", "draws", "gaussian_draws", "tail_replicas",
                           "oracle.replicas"}
    lines = _readme_block().splitlines()
    for path in floors:
        key = path.rpartition(".")[2]
        (line,) = [line for line in lines if re.search(rf"(^|[\s{{,]){key}:", line)]
        assert f">= {MIN_DRAWS}" in line, path


def test_readme_lists_the_kinds_table():
    kinds = re.search(r"Experiment kinds: (.*?)\.", README.read_text(), re.S).group(1)
    assert re.findall(r"`([^`]+)`", kinds) == list(KINDS)
    comment = re.search(r"^kind: \S+ +# (.*)$", _readme_block(), re.M).group(1)
    assert comment.split(" | ") == list(KINDS)


def _synopsis_flags(text):
    """The flags of each ``unibound <command>`` line of a synopsis, its
    continuation lines included."""
    flags, command = {}, None
    for line in text.splitlines():
        head = re.match(r"\s*unibound (\w+)", line)
        if head:
            command = head.group(1)
            flags[command] = set()
        elif not line.strip():
            command = None
        if command:
            flags[command] |= set(re.findall(r"--[\w-]+", line))
    return flags


def _help_usage(capsys, *argv):
    with pytest.raises(SystemExit):
        cli._build_parser().parse_args([*argv, "--help"])
    return capsys.readouterr().out.split("\n\n")[0]


def test_readme_and_docstring_command_lines_match_the_parser(capsys):
    commands = re.search(r"\{(.*?)\}", _help_usage(capsys)).group(1).split(",")
    # The long options --help shows; -h and suppressed options are left out.
    shown = {c: set(re.findall(r"--[\w-]+", _help_usage(capsys, c))) for c in commands}
    readme = re.search(r"## Batch runner\s+```\n(.*?)```", README.read_text(), re.S).group(1)
    assert _synopsis_flags(readme) == shown
    assert _synopsis_flags(cli.__doc__) == shown
