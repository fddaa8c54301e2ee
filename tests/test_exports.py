"""The package's exports, which resolve on first use, and the verify constants it holds."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import springerrep
from springerrep import verify

SRC = Path(__file__).resolve().parents[1] / "src"

# the modules the package binds by name, and every name it exports, as `from springerrep import *` binds them
SUBMODULES = {"errors", "formal", "linediagrams", "matchings", "perms", "rewriting", "snaction", "specht"}
EXPORTS = {
    "VerificationError", "FormalSum", "DottedMatching", "NoncrossingMatching", "Tabloid", "TwoRowTableau",
    "catalan", "enumerate_noncrossing", "enumerate_standard", "is_standard", "kostka_two_row", "partitions_of",
    "phi", "springer_dimension", "syt_count", "theta", "echelon_certificate", "expand", "Permutation",
    "parse_permutation", "reduce_to_standard", "act_permutation", "act_simple", "character", "character_table",
    "chart_diagram_consistency", "irreducibility_check", "rep_matrix", "verify_coxeter", "emit_top_degree_basis",
    "graded_decomposition", "matching_generator", "polytabloid", "verify_module_equality",
}


def test_star_import_binds_every_export_and_submodule():
    namespace = {}
    exec("from springerrep import *", namespace)
    del namespace["__builtins__"]
    assert len(EXPORTS) == 34 and namespace.keys() == EXPORTS | SUBMODULES
    for name in SUBMODULES:
        assert namespace[name] is sys.modules[f"springerrep.{name}"]


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_each_export_is_its_module_attribute(name):
    module = importlib.import_module(f"springerrep.{springerrep._EXPORTS[name]}")
    assert getattr(springerrep, name) is getattr(module, name)


def test_the_table_names_each_export_once_and_only_defined_names():
    # a typo in the table fails here, not on a user's first access
    assert springerrep._EXPORTS.keys() == EXPORTS and set(springerrep._EXPORTS.values()) == SUBMODULES
    assert sorted(springerrep.__all__) == sorted(EXPORTS | SUBMODULES)
    for name, module in springerrep._EXPORTS.items():
        assert name in vars(importlib.import_module(f"springerrep.{module}")), (module, name)


def test_dir_lists_the_exports():
    assert EXPORTS | SUBMODULES | {"MAX_VERIFY_N", "SUITE_NAMES"} <= set(dir(springerrep))


def test_an_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'springerrep' has no attribute 'no_such_name'"):
        springerrep.no_such_name
    assert not hasattr(springerrep, "verify_everything")


def test_a_submodule_and_an_export_resolve_without_an_explicit_import():
    code = ("import sys, springerrep\n"
            "assert not [m for m in sys.modules if m.startswith('springerrep.')]\n"
            "assert springerrep.snaction is sys.modules['springerrep.snaction']\n"
            "assert springerrep.snaction.act_simple is springerrep.act_simple\n"
            "assert springerrep.theta is sys.modules['springerrep.matchings'].theta\n"
            "assert 'springerrep.specht' not in sys.modules\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_the_verify_constants_have_one_home():
    # the CLI parser reads them from the package; verify's table keeps their order
    assert tuple(verify.SUITES) == springerrep.SUITE_NAMES
    assert verify.SUITE_NAMES is springerrep.SUITE_NAMES and verify.MAX_VERIFY_N == springerrep.MAX_VERIFY_N
