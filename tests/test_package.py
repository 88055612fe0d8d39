"""Package layout."""

import ast
from pathlib import Path

import fraudformer

SRC = Path(fraudformer.__file__).parent


def test_src_imports_its_own_modules_relatively():
    """No module of the package imports ``fraudformer`` by name. An A/B timing
    in one process loads two trees of it under two package names (ROADMAP
    item 5); a module that imported ``fraudformer`` by name would bind the
    other tree's code, and the comparison would time one tree against
    itself."""
    absolute = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            absolute += [f"{path.relative_to(SRC)}:{node.lineno}: {name}" for name in names
                         if name == "fraudformer" or name.startswith("fraudformer.")]
    assert not absolute, f"absolute imports of the package: {absolute}"
