"""The lower layers never import the graph or verification modules, not
even through a deferred import inside a function."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "partlat"
LOWER = ("counting", "series", "schemes", "oracle")
UPPER = {"lattices", "verify"}


def imported_modules(path: Path) -> set[str]:
    """The partlat modules ``path`` imports anywhere in its body."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("partlat."))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level:
                if parts[0] != "partlat":
                    continue
                parts = parts[1:]
            found.update(parts[:1] if parts and parts[0] else (a.name for a in node.names))
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.stem)
def test_lower_layers_do_not_import_upper(path):
    if path.stem in LOWER:
        assert not imported_modules(path) & UPPER


def test_import_scan_sees_relative_and_deferred_imports(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("from . import oracle\nfrom .series import x\n"
                      "def f():\n    from partlat import lattices\n    import partlat.verify\n")
    assert imported_modules(source) == {"oracle", "series", "lattices", "verify"}
    assert "lattices" in imported_modules(SOURCE / "cli.py")
