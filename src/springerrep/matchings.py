"""Dotted noncrossing matchings, two-row tableaux and tabloids as objects.

This is the package's one object layer: every kernel runs on the
``(opens, dots)`` codes and subset masks of :mod:`springerrep.codes`, and
only this module turns codes into objects and back.  :func:`encode` and
:func:`code_matching` are that edge for a matching, :func:`encode_sum` and
:func:`matching_sum` for a sum of them, and :func:`tabloid_sum` decodes a
{subset mask: coef} vector.  The classes check their input with the rules
of :mod:`springerrep.codes`, which the wire decoder applies too.

The public functions that take or return objects are wrappers, each an
encode, a kernel and a decode: the enumerators and theta decode
:func:`~springerrep.codes.standard_codes`, so the ``counting`` suite counts
the very basis the action suites run on; :func:`is_standard` reads the
nesting measure; :func:`expand`, the action (:func:`act_word` and its two
callers) and the Specht generators import their kernel when called, so
importing this module loads none.  Objects are built only here, by the
functions documented to return them, and no cache holds one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import codes
from .formal import FormalSum

if TYPE_CHECKING:
    from .perms import Permutation


@dataclass(frozen=True)
class Tabloid:
    """A two-row tabloid, identified by its bottom-row set; equally a line
    diagram on n strands, identified by its undot set (the relabelling psi)."""

    n: int
    bottom: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bottom", tuple(sorted(self.bottom)))
        codes.check_integers("vertex count", [self.n])
        codes.check_integers("bottom-row entry", self.bottom)
        if len(set(self.bottom)) != len(self.bottom):
            raise ValueError(f"repeated entry in bottom row {self.bottom}")
        if any(v < 1 or v > self.n for v in self.bottom):
            raise ValueError(f"entry out of range 1..{self.n} in {self.bottom}")
        if 2 * len(self.bottom) > self.n:
            raise ValueError(f"bottom row {self.bottom} longer than half of {self.n}")

    @property
    def k(self) -> int:
        return len(self.bottom)

    @property
    def top(self) -> tuple[int, ...]:
        bottom = set(self.bottom)
        return tuple(v for v in range(1, self.n + 1) if v not in bottom)

    def sort_key(self):
        return (self.n, self.k, codes.subset_mask(self.bottom))


@dataclass(frozen=True)
class TwoRowTableau(Tabloid):
    """A standard tableau of shape (n-k, k): a tabloid on an even number of
    vertices whose rows pass the column condition."""

    def __post_init__(self):
        codes._check_even(self.n)
        super().__post_init__()
        if not codes.column_condition(self.bottom):
            raise ValueError(f"tableau with bottom row {self.bottom} is not standard")


def tabloid_sum(n: int, masks: dict[int, int]) -> FormalSum:
    """A {subset mask: coef} vector decoded to a sum of :class:`Tabloid`."""
    return FormalSum((Tabloid(n, codes.subset_members(mask)), coef) for mask, coef in masks.items())


@dataclass(frozen=True)
class NoncrossingMatching:
    """A perfect noncrossing matching of {1..n}, arcs stored as (left, right)."""

    n: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "arcs", codes.noncrossing_arcs(self.n, self.arcs))


@dataclass(frozen=True)
class DottedMatching(NoncrossingMatching):
    """A noncrossing matching together with a set of dotted arcs."""

    dotted: frozenset[tuple[int, int]]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "dotted", codes.dotted_arcs(self.arcs, self.dotted))

    @classmethod
    def make(cls, n: int, arcs, dotted=()) -> DottedMatching:
        return cls(n, arcs, dotted)

    @property
    def k(self) -> int:
        """Number of undotted arcs (the homological degree is 2k)."""
        return len(self.arcs) - len(self.dotted)

    @property
    def undotted_arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(a for a in self.arcs if a not in self.dotted)

    def right_undotted(self) -> tuple[int, ...]:
        """Right endpoints of the undotted arcs, sorted (the set U_M)."""
        return tuple(sorted(j for _, j in self.undotted_arcs))

    def sort_key(self):
        flags = tuple(a in self.dotted for a in self.arcs)
        return (self.n, self.k, codes.subset_mask(self.right_undotted()), self.arcs, flags)


def encode(m: DottedMatching) -> tuple[int, int]:
    """The ``(opens, dots)`` code of a matching object."""
    return codes.opens_mask(m.arcs), codes.opens_mask(m.dotted)


def code_matching(opens: int, dots: int) -> DottedMatching:
    """The matching object of a code: the inverse of :func:`encode`."""
    return DottedMatching.make(**codes.decode(opens, dots))


def encode_sum(v: FormalSum) -> FormalSum:
    """A sum of matching objects as the same sum of their ``(opens, dots)`` codes."""
    return FormalSum((encode(m), coef) for m, coef in v)


def matching_sum(terms) -> FormalSum:
    """``((opens, dots), coef)`` terms decoded to a sum of matching objects."""
    return FormalSum((code_matching(*code), coef) for code, coef in terms)


def enumerate_noncrossing(n: int) -> tuple[NoncrossingMatching, ...]:
    """All noncrossing perfect matchings of {1..n} as new objects, in
    :func:`~springerrep.codes.dyck_words` order: only the words are cached."""
    return tuple(NoncrossingMatching(n, codes.decode_word(opens)[0]) for opens in codes.dyck_words(n))


def is_standard(m: DottedMatching) -> bool:
    """True when no dotted arc of ``m`` is nested below another arc: its
    nesting measure is 0."""
    return codes.nesting(*encode(m)) == 0


def enumerate_standard(n: int, k: int) -> tuple[DottedMatching, ...]:
    """All standard dotted matchings on n vertices with exactly k undotted
    arcs: the cached :func:`~springerrep.codes.standard_codes` of the degree,
    decoded into new objects at each call.

    Canonical order: increasing in the undot set U_M (right endpoints of the
    undotted arcs) in the undot-set order, that is by
    :func:`~springerrep.codes.subset_mask`.
    """
    return tuple(code_matching(*code) for code in codes.standard_codes(n, k))


def phi(m: DottedMatching) -> TwoRowTableau:
    """Tableau whose bottom row is the right endpoints of the undotted arcs."""
    return TwoRowTableau(m.n, m.right_undotted())


def theta(t: TwoRowTableau) -> DottedMatching:
    """Standard dotted matching associated to a standard two-row tableau:
    :func:`~springerrep.codes.theta_code` of its bottom row, decoded."""
    return code_matching(*codes.theta_code(t.n, t.bottom))


def expand(m: DottedMatching) -> FormalSum:
    """The signed expansion L_M, a sum of 2^k undot sets with coefficients ±1,
    each a :class:`Tabloid` whose bottom row is the undot set: the kernel
    :func:`~springerrep.linediagrams.expand_code`, decoded."""
    from .linediagrams import expand_code

    return tabloid_sum(m.n, expand_code(*encode(m)))


def act_simple(i: int, m: DottedMatching) -> FormalSum:
    """Action of the simple transposition s_i on the class of a matching."""
    return act_word((i,), FormalSum({m: 1}))


def act_word(word: tuple[int, ...], v: FormalSum) -> FormalSum:
    """Apply a word in the simple transpositions, rightmost letter first.

    ``v`` may be any sum of dotted matchings; each degree is rewritten into
    the standard basis once and the result is expressed in that basis: the
    kernel :func:`~springerrep.snaction.act_codes`, decoded.
    """
    from .rewriting import _by_degree
    from .snaction import act_codes

    return matching_sum(act_codes(word, _by_degree(encode_sum(v))).items())


def act_permutation(w: Permutation, v: FormalSum) -> FormalSum:
    """Linear action of an arbitrary permutation, via a reduced word; every
    term of ``v`` must be a matching on the w.n points w permutes."""
    for m, _ in v:
        if m.n != w.n:
            raise ValueError(f"a permutation of {w.n} points cannot act on a matching on {m.n} vertices")
    return act_word(w.reduced_word(), v)


def polytabloid(t: TwoRowTableau) -> FormalSum:
    """e_T as a sum of tabloids, decoded from :func:`~springerrep.specht.polytabloid_masks`."""
    from .specht import polytabloid_masks

    return tabloid_sum(t.n, polytabloid_masks(t.n, t.bottom))


def matching_generator(m: DottedMatching) -> FormalSum:
    """e_M as a sum of tabloids, decoded from :func:`~springerrep.specht.code_generator_masks`."""
    from .specht import code_generator_masks

    return tabloid_sum(m.n, code_generator_masks(*encode(m)))


def emit_top_degree_basis(n: int) -> list[FormalSum]:
    """The e_M for the fully undotted matchings, in canonical order.

    The paper identifies this top-degree basis of the irreducible module for
    (n/2, n/2) with the Kazhdan-Lusztig basis.  That identification is not
    certified here (ROADMAP item 1): no canonical-basis computation happens,
    and the vectors are emitted for outside comparison.
    """
    from .specht import code_generator_masks

    return [tabloid_sum(n, code_generator_masks(*code)) for code in codes.standard_codes(n, n // 2)]
