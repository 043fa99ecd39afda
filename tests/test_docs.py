"""The README's listing of the public API matches the package's exports."""

import ast
import re
from pathlib import Path

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
