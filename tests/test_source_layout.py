"""The package source read as syntax trees: which modules build dataclasses,
that every top-level definition in ``src/springerrep`` serves the package, and
that no kernel imports the object layer when it is loaded."""

import ast
from pathlib import Path

import springerrep

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "springerrep"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}

# no package caller: only the benchmark harness uses it (its oracle test writes the
# expected reduce output through it, and its tracer names it); it goes when they stop
BENCH_ONLY = {("jsonio", "matching_sum_to_obj")}
# (module, name) of each name the package exports, from the table it resolves them by
EXPORTED = {(module, name) for name, module in springerrep._EXPORTS.items()}


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
            if definition.name not in elsewhere | read and (module, definition.name) not in BENCH_ONLY | EXPORTED:
                unused.append(f"{module}.{definition.name}")
    assert unused == []


# the kernels, which run on codes and masks, and what none of them may import when loaded
KERNELS = ("codes", "linediagrams", "rewriting", "snaction", "specht", "jsonio")
OBJECT_LAYER = {"springerrep.matchings", "springerrep.formal", "springerrep.perms", "dataclasses"}
# the object-level names the benchmark harness imports from their kernels: each reaches the
# object layer through one import inside itself, until that pin goes (ROADMAP item 2)
PINNED = {("rewriting", "reduce_to_standard"), ("jsonio", "matching_sum_to_obj")}


def object_imports(node):
    """The statements under ``node`` that import the object layer, ``from . import
    matchings`` included, as source text."""
    for child in ast.walk(node):
        if isinstance(child, ast.ImportFrom):
            package = (("springerrep." if child.level else "") + (child.module or "")).rstrip(".")
            names = {package, *(f"{package}.{alias.name}" for alias in child.names)}
        elif isinstance(child, ast.Import):
            names = {alias.name for alias in child.names}
        else:
            continue
        if names & OBJECT_LAYER:
            yield ast.unparse(child)


def test_kernels_import_the_object_layer_only_inside_the_pinned_functions():
    found = {(module, getattr(top, "name", None), statement) for module in KERNELS
             for top in TREES[module].body for statement in object_imports(top)}
    assert {(module, name) for module, name, _ in found} == PINNED, sorted(found)
    assert len(found) == len(PINNED)  # one import statement each
    # and the code module imports nothing of the package at all
    assert not [name for name in imported_modules(TREES["codes"]) if name.startswith("springerrep")]


def test_the_rewriting_kernel_imports_only_the_code_rules():
    # E, the expansion times its sign, lives with the expansion in linediagrams, so the
    # kernel that reduce and act run loads no expansion; reduce_to_standard's one import
    # of the object layer, inside it, is the pin the test above allows
    loaded = {name for top in TREES["rewriting"].body if isinstance(top, (ast.Import, ast.ImportFrom))
              for name in imported_modules(top) if name.startswith("springerrep")}
    assert loaded == {"springerrep.codes", "springerrep.errors"}
