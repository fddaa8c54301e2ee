"""JSON wire formats and plain-text renderings.

Matchings travel as ``{"n":6,"arcs":[[1,6],[2,3],[4,5]],"dotted":[[2,3]]}``
with arcs sorted by left endpoint; tableaux as ``{"n":6,"bottom":[3,6]}``.
Formal sums carry a ``terms`` list whose order follows the canonical basis
order, so identical values always serialize to identical bytes.

Plain text writes a matching as ``(1,6)* (2,3) (4,5)`` (``*`` marks a dot)
and a tabloid or tableau as its two rows, ``1 2 4 5|3 6``.

A formal sum, the input of ``reduce`` and ``act``, decodes and merges in one
pass to ``{(opens, dots): coef}`` (:func:`matching_codes_from_obj`, the one
copy of the wire matching rules; ``expand`` reads a matching as a one-term
sum), each distinct arc list checked once per call.  No writer takes an
object: a matching is its ``(opens, dots)`` code, which names its own size,
and :func:`standard_terms` orders standard survivors off their masks; a
tableau, tabloid or line diagram is its bottom-row or undot-set mask, and a
sum of them its ``(mask, coef)`` terms in mask order.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any

from .formal import FormalSum
from .matchings import decode_word, dotted_arcs, encode, noncrossing_arcs, opens_mask, subset_members, undot_mask


def dumps(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------- encoding

def matching_to_obj(code: tuple[int, int | None]) -> dict:
    """The matching of an ``(opens, dots)`` code, the one writer of a matching (object
    callers pass ``encode(m)``); ``dots`` None writes no ``dotted`` key."""
    opens, dots = code
    arcs, partner = decode_word(opens)
    obj = {"n": len(partner), "arcs": [list(a) for a in arcs]}
    if dots is not None:
        obj["dotted"] = [[i, j] for i, j in arcs if dots >> (i - 1) & 1]
    return obj


def tableau_to_obj(n: int, bottom: int) -> dict:
    """The tableau on n vertices with bottom-row mask ``bottom``."""
    return {"n": n, "bottom": subset_members(bottom)}


def standard_terms(codes: dict[tuple[int, int], int]) -> list[tuple[tuple[int, int], int]]:
    """Standard ``{(opens, dots): coef}`` as terms in :meth:`DottedMatching.sort_key` order, by
    (n, k, U_M) off the masks: distinct standard M of one degree have distinct U_M, so the later
    keys never decide (L6, ``tests/test_local_lemmas.py::test_lead_key_is_the_undot_set``)."""
    return sorted(codes.items(), key=lambda term: (term[0][0].bit_count(), -term[0][1].bit_count(),
                                                   undot_mask(*term[0])))


def sum_to_obj(terms) -> dict:
    """``((opens, dots), coef)`` terms, in order, as a wire formal sum."""
    return {"terms": [{"coef": coef, "matching": matching_to_obj(code)} for code, coef in terms]}


def matching_sum_to_obj(v: FormalSum) -> dict:
    return sum_to_obj((encode(m), coef) for m, coef in v.sorted_terms())


def subset_sum_to_obj(head: dict, key: str, terms) -> dict:
    """``(mask, coef)`` terms, in order, after ``head``, each subset under ``key``: ``"bottom"`` or ``"undot"``."""
    return {**head, "terms": [{"coef": coef, key: subset_members(mask)} for mask, coef in terms]}


# ---------------------------------------------------------------- decoding

# Integers are checked with ``type(x) is int``: JSON true/false decode to
# bool, which is a subclass of int.

def _pair_list(value: Any, context: str) -> list[list[int]]:
    if not isinstance(value, list):
        raise ValueError(f"{context}: expected a list of [left,right] integer pairs")
    for p in value:
        if not (isinstance(p, list) and len(p) == 2 and type(p[0]) is int and type(p[1]) is int):
            raise ValueError(f"{context}: expected a list of [left,right] integer pairs")
    return value


def matching_codes_from_obj(obj: Any) -> dict[tuple[int, int], int]:
    """A wire formal sum decoded in one pass into ``{(opens, dots): coef}``: each
    matching is checked by the wire rules, which are written only here, but no
    object is built; coefficients are summed into one dict as they are read,
    dropping a code whose sum is 0 as :class:`FormalSum` does.  The arc rules run
    once per distinct ``(n, arcs as given)``, keyed only after :func:`_pair_list`
    has seen two ints in every pair (``2.0`` hashes as ``2``)."""
    if not isinstance(obj, dict) or "terms" not in obj:
        raise ValueError("formal sum: missing key 'terms'")
    if not isinstance(terms := obj["terms"], list):
        raise ValueError("formal sum: terms must be a list")
    shapes: dict[tuple[int, ...], tuple[int, dict[tuple[int, int], int]]] = {}
    merged: dict[tuple[int, int], int] = {}
    for entry in terms:
        if not isinstance(entry, dict) or "coef" not in entry:
            raise ValueError("formal sum term: missing key 'coef'")
        if type(coef := entry["coef"]) is not int:
            raise ValueError("formal sum: coef must be an integer")
        if "matching" not in entry:
            raise ValueError("formal sum term: missing key 'matching'")
        if not isinstance(m := entry["matching"], dict) or "n" not in m:
            raise ValueError("matching: missing key 'n'")
        if type(n := m["n"]) is not int:
            raise ValueError("matching: n must be an integer")
        if "arcs" not in m:
            raise ValueError("matching: missing key 'arcs'")
        arcs = _pair_list(m["arcs"], "matching arcs")
        dotted = _pair_list(m.get("dotted", []), "matching dotted")
        key = (n, *chain.from_iterable(arcs))
        if (shape := shapes.get(key)) is None:
            arcs = noncrossing_arcs(n, arcs)
            shape = shapes[key] = (opens_mask(arcs), {arc: 1 << (arc[0] - 1) for arc in arcs})
        opens, bits = shape
        dots = 0
        for a, b in dotted:
            if (bit := bits.get((a, b) if a < b else (b, a))) is None:
                dotted_arcs(tuple(bits), dotted)  # not an arc: raises the rule's own error
            dots |= bit
        code = (opens, dots)
        if total := merged.get(code, 0) + coef:
            merged[code] = total
        elif code in merged:
            del merged[code]
    return merged


# ------------------------------------------------------------- plain text

def matching_plain(code: tuple[int, int | None]) -> str:
    """The matching of an ``(opens, dots)`` code as text, the one plain writer of a
    matching; ``dots`` None is an undotted matching."""
    opens, dots = code
    return " ".join(f"({i},{j})*" if (dots or 0) >> (i - 1) & 1 else f"({i},{j})"
                    for i, j in decode_word(opens)[0]) or "(empty)"


def subset_plain(mask: int) -> str:
    """A subset mask as its members, space separated."""
    return " ".join(map(str, subset_members(mask)))


def rows_plain(n: int, bottom: int) -> str:
    """The tabloid or tableau on n vertices with bottom-row mask ``bottom`` as its two rows, top first."""
    return subset_plain((1 << n) - 1 & ~bottom) + "|" + subset_plain(bottom)


def undot_plain(mask: int) -> str:
    """A line diagram as its undot set."""
    return "{" + ",".join(map(str, subset_members(mask))) + "}"


def formal_plain(terms, render) -> str:
    """(element, coef) terms, in order, as signed text; ``0`` when there are none."""
    return "  ".join(f"{'+' if coef > 0 else '-'}{abs(coef)} {render(element)}" for element, coef in terms) or "0"
