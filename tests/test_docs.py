"""The README's listings of the public API and the CLI flags match the code."""

import argparse
import ast
import re
from pathlib import Path

from harmonode.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent


def test_readme_lists_the_package_exports():
    tree = ast.parse((ROOT / "src" / "harmonode" / "__init__.py").read_text())
    exported = {
        node.module: {alias.name for alias in node.names}
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
    }
    readme = (ROOT / "README.md").read_text()
    listing = readme.split("The package exports these names", 1)[1].split("\n\n")[1]
    listed = {
        module: set(re.findall(r"`(\w+)`", names))
        for module, names in re.findall(r"^- `(\w+)`: (.+(?:\n  .+)*)", listing, re.MULTILINE)
    }
    assert listed == exported


def test_readme_names_every_cli_flag_and_no_other():
    parser = _build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    defined = {
        option
        for subcommand in subcommands.values()
        for action in subcommand._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section)) == defined
