"""The lower layers never import the graph or verification modules, not
even through a deferred import inside a function, and the oracle imports
no counting formula."""

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


def test_oracle_imports_no_counting_formula():
    """The ground truth stays independent of what it checks: of partlat, the
    oracle imports only the partition type."""
    assert imported_modules(SOURCE / "oracle.py") <= {"partitions"}


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


# One mechanism refuses arguments: partitions.require_ints.  These raises
# keep their own text because it carries the value that failed.
BOUND_TEXTS = ("must be >=", "must be between", "must be an integer")
OWN_BOUND_MESSAGES = {
    ("capped_product", "f'part value {k} must be >= 1'"),
    ("capped_product", "f'cap {c} must be >= 0'"),
}


def raises(node: ast.AST, func: str = ""):
    """(innermost enclosing function name, raise node) for each raise
    under ``node``; "" at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            yield func, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from raises(child, inner)


def hand_written_bound_checks(root: Path) -> set[tuple[str, str, str]]:
    """(module, enclosing function, message source) for each ``raise
    ValueError(...)`` under ``root`` whose message states an integer or a
    bound, outside ``require_ints`` and the exempt messages."""
    found = set()
    for path in sorted(root.glob("*.py")):
        for func, node in raises(ast.parse(path.read_text())):
            exc = node.exc
            if (func != "require_ints" and isinstance(exc, ast.Call) and exc.args
                    and isinstance(exc.func, ast.Name) and exc.func.id == "ValueError"):
                text = ast.unparse(exc.args[0])
                if any(t in text for t in BOUND_TEXTS) and (func, text) not in OWN_BOUND_MESSAGES:
                    found.add((path.stem, func, text))
    return found


def test_every_argument_bound_goes_through_require_ints():
    assert hand_written_bound_checks(SOURCE) == set()


def test_bound_scan_sees_nested_raises_and_skips_the_helper(tmp_path):
    (tmp_path / "m.py").write_text(
        "def require_ints(name, *v):\n    raise ValueError(f'{name} must be an integer')\n"
        "def f(n):\n    if n < 1:\n        raise ValueError('n must be >= 1')\n"
        "class C:\n    def g(self, x):\n        for _ in x:\n"
        "            raise ValueError(f'x must be between 0 and {len(x)}')\n"
        "def capped_product(k):\n    raise ValueError(f'part value {k} must be >= 1')\n"
        "def other(k):\n    raise ValueError(f'part value {k} must be >= 1')\n"
        "def h():\n    def inner():\n        raise ValueError('y must be >= 0')\n"
        "    raise ValueError('unknown variant')\n"
        "if True:\n    raise ValueError('z must be an integer')\n")
    assert hand_written_bound_checks(tmp_path) == {
        ("m", "f", "'n must be >= 1'"),
        ("m", "inner", "'y must be >= 0'"),
        ("m", "", "'z must be an integer'"),
        ("m", "g", "f'x must be between 0 and {len(x)}'"),
        ("m", "other", "f'part value {k} must be >= 1'"),
    }


KERNEL_MOVES = {"_times_binomial", "_divide_one_minus"}


def naming(root: Path, names: set[str]) -> set[tuple[str, str]]:
    """(module, function) for each function under ``root`` that names one
    of ``names``."""
    found = set()
    for path in sorted(root.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    references(func).keys() & names):
                found.add((path.stem, func.name))
    return found


def test_one_box_kernel_sweep():
    """Outside :mod:`partlat.series`, which defines the two box-kernel
    moves, one function names them."""
    found = naming(SOURCE, KERNEL_MOVES)
    assert {f for f in found if f[0] != "series"} == {("counting", "_box_columns")}


PACKING = {"_Slots", "_slot_width", "_peak"}


def packing_definitions(root: Path) -> set[tuple[str, str]]:
    """(module, name) for each def or class of the packed-integer kernel."""
    return {(path.stem, node.name) for path in sorted(root.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in PACKING}


def test_one_packed_product():
    """:mod:`partlat.series` defines the packed-integer kernel once and its
    series product uses it; outside it, only the two matrix kernels do."""
    assert packing_definitions(SOURCE) == {("series", name) for name in PACKING}
    found = naming(SOURCE, {"_Slots"})
    assert ("series", "__mul__") in found
    assert {f for f in found if f[0] != "series"} == {("intmatrix", "multiply"),
                                                       ("intmatrix", "_invert_lower")}


def label_of_calls(root: Path) -> dict[tuple[str, int], bool]:
    """{(module, line): whether the call passes a width} for each call of
    ``label_of`` under ``root``, by name or as an attribute."""
    found = {}
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "label_of" in (getattr(node.func, "id", None),
                                                              getattr(node.func, "attr", None)):
                found[path.stem, node.lineno] = (len(node.args) > 1
                                                 or any(k.arg == "width" for k in node.keywords))
    return found


def test_one_labelling_rule():
    """:func:`partlat.partitions.label_of` is the one place a label gains its
    zero slots: every call of it in src/ passes the width to pad to."""
    calls = label_of_calls(SOURCE)
    assert {module for module, _ in calls} == {"cli", "lattices", "partitions"}
    assert [call for call, padded in calls.items() if not padded] == []
