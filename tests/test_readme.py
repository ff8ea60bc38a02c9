"""The README's library example runs as written, and its CLI section names
exactly the flags the parser has."""

import argparse
import re
from pathlib import Path

import pytest

from cbmap.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Quick start (library)\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["result"].embedding.shape == (1000, 2)
    assert scope["projected"].shape == (200, 2)
    assert 0.0 < scope["gs"] <= 1.0 and 0.0 <= scope["acc"] <= 1.0
    assert scope["model"].sigma_low == scope["result"].model.sigma_low
    assert (tmp_path / "roll.model.json").exists()


def _cli_section_flags() -> set:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Quick start (CLI)\n", 1)[1].split("\n## ", 1)[0]
    # "--max-iter" and "-o", not the dashes of "k-means", "-1" or a list item
    return set(re.findall(r"(?<![\w-])(--[a-z](?:[a-z-]*[a-z])?|-[a-z])(?![\w-])", section))


def _subcommand_options() -> dict:
    """Each subcommand's options other than help, as tuples of their flags."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: [tuple(action.option_strings) for action in parser._actions
                   if action.option_strings and "-h" not in action.option_strings]
            for name, parser in sub.choices.items()}


def test_every_flag_the_cli_section_names_exists():
    known = {flag for options in _subcommand_options().values()
             for option in options for flag in option}
    assert _cli_section_flags() - known == set()


@pytest.mark.parametrize("command", sorted(_subcommand_options()))
def test_the_cli_section_names_every_flag(command):
    named = _cli_section_flags()
    assert [option for option in _subcommand_options()[command]
            if not named.intersection(option)] == []
