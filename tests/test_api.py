"""The package's public names and the commands the README documents."""

import re
from pathlib import Path

import degenrd
from degenrd.cli import build_parser

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert [n for n in degenrd.__all__ if not hasattr(degenrd, n)] == []


def test_readme_command_block_matches_the_parser():
    """Every `degenrd <cmd>` of the README's "Command line" block is a
    subcommand, and every subcommand appears there."""
    text = _README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```", text,
                      re.S | re.M).group(1)
    documented = set(re.findall(r"^degenrd (\S+)", block, re.M))
    usage = re.search(r"\{(.*?)\}", build_parser().format_usage()).group(1)
    assert documented == set(usage.split(","))
