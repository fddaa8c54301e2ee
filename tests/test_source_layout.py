"""The package source read as syntax trees: which modules build dataclasses,
and that every top-level definition in ``src/springerrep`` serves the package."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "springerrep"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}

# no package caller: only the benchmark harness uses it (its oracle test writes the
# expected reduce output through it, and its tracer names it); it goes when they stop
BENCH_ONLY = {("jsonio", "matching_sum_to_obj")}


def imported_modules(tree):
    """Every module a tree imports, relative names resolved in springerrep."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield ("springerrep." if node.level else "") + (node.module or "")
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def dataclasses_defined(tree):
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)
            and any("dataclass" in ast.unparse(decorator) for decorator in node.decorator_list)]


def test_only_the_object_modules_and_verify_import_dataclasses():
    # the per-degree tables in snaction and verify's check results are plain classes
    users = {name for name, tree in TREES.items() if "dataclasses" in imported_modules(tree)}
    assert users == {"matchings", "perms", "verify"}


def test_verify_defines_exactly_one_dataclass():
    # Task, which the benchmark harness rebuilds with dataclasses.replace
    assert dataclasses_defined(TREES["verify"]) == ["Task"]
    assert sum(len(dataclasses_defined(tree)) for tree in TREES.values()) == 6


def test_standard_tableaux_is_a_test_helper():
    assert not any(getattr(node, "name", None) == "standard_tableaux" for tree in TREES.values() for node in tree.body)
    helpers = ast.parse((ROOT / "tests" / "bruteforce.py").read_text(encoding="utf-8"))
    assert any(isinstance(node, ast.FunctionDef) and node.name == "standard_tableaux" for node in helpers.body)


def uses(tree, module):
    """The names a tree imports from the package module ``module``, or reads as
    attributes of it."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module == module:
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == module:
            out.add(node.attr)
    return out


def test_every_top_level_definition_has_a_package_use():
    # used by another module, by its own module beyond its definition, or exported
    unused = []
    for module, tree in TREES.items():
        if module == "__init__":
            continue
        elsewhere = set().union(*(uses(other, module) for name, other in TREES.items() if name != module))
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            read = {node.id for top in tree.body if top is not definition for node in ast.walk(top)
                    if isinstance(node, ast.Name)}
            if definition.name not in elsewhere | read and (module, definition.name) not in BENCH_ONLY:
                unused.append(f"{module}.{definition.name}")
    assert unused == []
