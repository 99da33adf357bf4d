"""README's reference material is checked against the code it describes: a
renamed metric or CLI flag fails here instead of drifting in the docs."""

import itertools
import os
import re

import pytest

import repro.interp.codegen  # noqa: F401  (registers the module-cache counters)
import repro.pisa.pipeline  # noqa: F401  (registers the plan-cache counters)
from repro.obs import REGISTRY
from repro.scenarios.__main__ import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _expand(pattern):
    """``a_{b,c}_d{label=}`` -> ``["a_b_d", "a_c_d"]``: brace lists expand,
    label braces (``{name=}``) are dropped."""
    parts = re.split(r"\{([^{}]*)\}", pattern)
    choices = [
        [text] if index % 2 == 0 else ([""] if "=" in text else text.split(","))
        for index, text in enumerate(parts)
    ]
    return ["".join(combo) for combo in itertools.product(*choices)]


def _options(capsys, command):
    """The option strings ``python -m repro.scenarios COMMAND`` defines, read
    off the invocation column of its ``--help``."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = capsys.readouterr().out
    return {flag for line in re.findall(r"^  (-.*?)(?:\s{2,}|$)", text, re.M)
            for flag in re.findall(r"--[\w-]+", line)}


def test_readme_metric_table_and_cli_flags_match_the_code(capsys):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()

    documented = {}
    for pattern, kind in re.findall(r"^\| `(repro_[^`]+)` \| (\w+) \|", text, re.M):
        for name in _expand(pattern):
            documented[name] = kind
    assert sorted(documented) == REGISTRY.names()
    for name, kind in documented.items():
        assert REGISTRY.get(name).kind == kind, name

    commands = re.findall(r"python -m repro\.scenarios (\w+)((?:[^\n#]*\\\n)*[^\n#]*)", text)
    assert {command for command, _ in commands} >= {"list", "run", "serve", "soak"}
    options = {}
    for command, args in commands:
        if command not in options:
            options[command] = _options(capsys, command)
        for flag in re.findall(r"(?<!\S)--[\w-]+", args):
            assert flag in options[command], f"README passes {flag} to {command}"
