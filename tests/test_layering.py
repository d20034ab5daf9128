"""The lower layers never import the graph or verification modules, not
even through a deferred import inside a function."""

import ast
from collections import Counter
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


# Public definitions in src/ that no program calls, each with the reason it
# stays: the paper's vector view of a partition.
KEEP = {
    "Partition.norm_squared": "the paper's vector length of a partition",
    "MultiplicityVector.dimension": "the paper's vector dimension of a count pattern",
}


def public_definitions(module: ast.Module):
    """(qualified name, def node) for each public module-level function and
    class, and each public method or property of a module-level class."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def references(tree: ast.AST) -> Counter:
    """How often ``tree`` names each name, attribute, import alias and
    string constant: string constants count because registries look
    functions up by name."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name.rpartition(".")[2], node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def unreferenced(root: Path) -> set[str]:
    """The public definitions under ``root/src/partlat`` that nothing in
    ``root``'s src/, demos/ or perfbench/ refers to outside their own def,
    less ``partlat.__all__``."""
    programs = [root / d for d in ("src", "demos", "perfbench")]
    trees = {p: ast.parse(p.read_text()) for d in programs for p in sorted(d.rglob("*.py"))}
    init = trees[root / "src" / "partlat" / "__init__.py"]
    exported = next(ast.literal_eval(n.value) for n in init.body
                    if isinstance(n, ast.Assign) and n.targets[0].id == "__all__")
    everywhere = sum(map(references, trees.values()), Counter())
    found = set()
    for path in sorted((root / "src" / "partlat").glob("*.py")):
        for qualified, node in public_definitions(trees[path]):
            name = qualified.rpartition(".")[2]
            if name not in exported and everywhere[name] == references(node)[name]:
                found.add(qualified)
    return found


def test_no_test_only_code_in_src():
    assert unreferenced(SOURCE.parent.parent) == set(KEEP)


def test_reference_scan_skips_only_the_own_def(tmp_path):
    package = tmp_path / "src" / "partlat"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('__all__ = ["exported"]\n')
    (package / "m.py").write_text(
        "def exported(): pass\n"
        "def recursive(): return recursive()\n"
        "def called(): pass\n"
        "def by_string(): pass\n"
        "class C:\n    def method(self): return self.method()\n    def used(self): pass\n"
        "x = called() + C().used()\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "registry.py").write_text('NAMES = ("by_string",)\n')
    assert unreferenced(tmp_path) == {"recursive", "C.method"}
