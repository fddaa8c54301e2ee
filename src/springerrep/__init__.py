"""Exact combinatorics of the two-row Springer fiber.

Standard dotted noncrossing matchings index the homology basis in each
degree; this package enumerates them, rewrites arbitrary dotted matchings
into the basis, expands them into signed line diagrams, realizes the
symmetric-group action, and certifies in exact arithmetic that the action
is the irreducible Springer representation degree by degree.

Each exported name, and each module that exports one, is imported on first
use, so ``import springerrep`` (and the CLI's start) loads no kernel.
"""

# Largest n of the verify suites, a size bound.  Budget: all of ``verify --suite
# all --max-n 12`` (252 checks) takes 0.6-1.1 s on 2 vCPUs as host load varies
# (Python 3.11, fresh bytecode, 8 fresh processes: 0.84-1.03 s, median 0.96 s;
# 0.64-1.02 s, median 0.90 s, under -O), and must stay under 15 s.
MAX_VERIFY_N = 12
# The verify suites in report order, the one spelling of it: ``verify.SUITES`` zips these
# names with their checks.  Both constants live here so that the CLI parser imports no kernel.
SUITE_NAMES = ("counting", "bijection", "rewriting", "echelon", "coxeter", "consistency",
               "irreducibility", "module-equality", "multiplicity", "dimension", "linearity")

# module -> the names the package exports from it
_MODULES = {
    "errors": "VerificationError",
    "formal": "FormalSum",
    "matchings": "DottedMatching NoncrossingMatching Tabloid TwoRowTableau catalan enumerate_noncrossing "
                 "enumerate_standard is_standard kostka_two_row partitions_of phi springer_dimension syt_count theta",
    "linediagrams": "echelon_certificate expand",
    "perms": "Permutation parse_permutation",
    "rewriting": "reduce_to_standard",
    "snaction": "act_permutation act_simple character character_table chart_diagram_consistency "
                "irreducibility_check rep_matrix verify_coxeter",
    "specht": "emit_top_degree_basis graded_decomposition matching_generator polytabloid verify_module_equality",
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = [*_EXPORTS, *_MODULES]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import an export's module on first access (PEP 562) and keep the name bound."""
    module = _EXPORTS.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f".{module}", __name__)  # binds the module's own name here
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
