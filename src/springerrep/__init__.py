"""Exact combinatorics of the two-row Springer fiber.

Standard dotted noncrossing matchings index the homology basis in each
degree; this package enumerates them, rewrites arbitrary dotted matchings
into the basis, expands them into signed line diagrams, realizes the
symmetric-group action, and certifies in exact arithmetic that the action
is the irreducible Springer representation degree by degree.
"""

from .errors import VerificationError
from .formal import FormalSum
from .matchings import (
    DottedMatching,
    NoncrossingMatching,
    Tabloid,
    TwoRowTableau,
    catalan,
    enumerate_noncrossing,
    enumerate_standard,
    is_standard,
    kostka_two_row,
    partitions_of,
    phi,
    springer_dimension,
    syt_count,
    theta,
)
from .linediagrams import (
    echelon_certificate,
    expand,
)
from .perms import Permutation, parse_permutation
from .rewriting import reduce_to_standard
from .snaction import (
    act_permutation,
    act_simple,
    character,
    character_table,
    chart_diagram_consistency,
    irreducibility_check,
    rep_matrix,
    verify_coxeter,
)
from .specht import (
    emit_top_degree_basis,
    graded_decomposition,
    matching_generator,
    polytabloid,
    verify_module_equality,
)

__version__ = "0.1.0"
