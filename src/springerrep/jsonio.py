"""JSON wire formats and plain-text renderings.

Matchings travel as ``{"n":6,"arcs":[[1,6],[2,3],[4,5]],"dotted":[[2,3]]}``
with arcs sorted by left endpoint; tableaux as ``{"n":6,"bottom":[3,6]}``.
Formal sums carry a ``terms`` list whose order follows the canonical basis
order, so identical values always serialize to identical bytes.

Plain text writes a matching as ``(1,6)* (2,3) (4,5)`` (``*`` marks a dot)
and a tabloid or tableau as its two rows, ``1 2 4 5|3 6``.

A formal sum, the input of ``reduce`` and ``act``, decodes and merges in one
pass straight to the per-degree ``(opens, dots)`` codes the rewriting kernel
works on (:func:`matching_codes_from_obj`), with the rules and errors of
:func:`matching_from_obj` but no matching object, each distinct arc list
checked once per call.  Output goes the other way from codes: one writer per
format (:func:`matching_to_obj`, :func:`matching_plain`), and
:func:`standard_terms` orders standard survivors off their masks.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any

from .formal import FormalSum
from .matchings import (DottedMatching, Tabloid, TwoRowTableau, decode_word, dotted_arcs, encode,
                        noncrossing_arcs, opens_mask, undot_mask)
from .rewriting import Degrees, _by_degree


def dumps(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------- encoding

def matching_to_obj(code: tuple[int, int, int | None]) -> dict:
    """The matching of an ``(n, opens, dots)`` code, the one writer of a matching
    (object callers pass ``(m.n, *encode(m))``); ``dots`` None writes no ``dotted`` key."""
    n, opens, dots = code
    arcs = decode_word(n, opens)[0]
    obj = {"n": n, "arcs": [list(a) for a in arcs]}
    if dots is not None:
        obj["dotted"] = [[i, j] for i, j in arcs if dots >> (i - 1) & 1]
    return obj


def tableau_to_obj(t: TwoRowTableau) -> dict:
    return {"n": t.n, "bottom": list(t.bottom)}


def standard_terms(codes: dict[tuple[int, int, int], int]) -> list[tuple[tuple[int, int, int], int]]:
    """Standard ``{(n, opens, dots): coef}`` as terms in :meth:`DottedMatching.sort_key` order, by
    (n, k, U_M) off the masks: distinct standard M of one degree have distinct U_M, so the later
    keys never decide (L6, ``tests/test_local_lemmas.py::test_lead_key_is_the_undot_set``)."""
    return sorted(codes.items(), key=lambda term: (term[0][0], -term[0][2].bit_count(), undot_mask(*term[0])))


def sum_to_obj(terms) -> dict:
    """``((n, opens, dots), coef)`` terms, in order, as a wire formal sum."""
    return {"terms": [{"coef": coef, "matching": matching_to_obj(code)} for code, coef in terms]}


def matching_sum_to_obj(v: FormalSum) -> dict:
    return sum_to_obj(((m.n, *encode(m)), coef) for m, coef in v.sorted_terms())


def diagram_sum_to_obj(v: FormalSum, n: int) -> dict:
    return {
        "n": n,
        "terms": [{"coef": coef, "undot": list(u.bottom)} for u, coef in v.sorted_terms()],
    }


def tabloid_sum_to_obj(v: FormalSum, n: int, k: int) -> dict:
    return {
        "n": n,
        "k": k,
        "terms": [{"coef": coef, "bottom": list(t.bottom)} for t, coef in v.sorted_terms()],
    }


# ---------------------------------------------------------------- decoding

def _expect(obj: Any, key: str, context: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{context}: missing key {key!r}")
    return obj[key]


# Integers are checked with ``type(x) is int``: JSON true/false decode to
# bool, which is a subclass of int.

def _pair_list(value: Any, context: str) -> list[list[int]]:
    if not isinstance(value, list):
        raise ValueError(f"{context}: expected a list of [left,right] integer pairs")
    for p in value:
        if not (isinstance(p, list) and len(p) == 2 and type(p[0]) is int and type(p[1]) is int):
            raise ValueError(f"{context}: expected a list of [left,right] integer pairs")
    return value


def matching_from_obj(obj: Any) -> DottedMatching:
    n = _expect(obj, "n", "matching")
    if type(n) is not int:
        raise ValueError("matching: n must be an integer")
    arcs = _pair_list(_expect(obj, "arcs", "matching"), "matching arcs")
    return DottedMatching.make(n, arcs, _pair_list(obj.get("dotted", []), "matching dotted"))


def matching_codes_from_obj(obj: Any) -> Degrees:
    """A wire formal sum decoded in one pass into what :func:`springerrep.rewriting._merge`
    makes of its terms: each matching is checked by the rules of
    :func:`matching_from_obj`, in order and with its errors, but no object is built;
    coefficients are summed into one dict as they are read, dropping a code whose
    sum is 0 as :class:`FormalSum` does, and the dict is split per degree.  The arc
    rules run once per distinct ``(n, arcs as given)``, keyed only after
    :func:`_pair_list` has seen two ints in every pair (``2.0`` hashes as ``2``)."""
    terms = _expect(obj, "terms", "formal sum")
    if not isinstance(terms, list):
        raise ValueError("formal sum: terms must be a list")
    shapes: dict[tuple[int, ...], tuple[int, dict[tuple[int, int], int]]] = {}
    merged: dict[tuple[int, int, int], int] = {}
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
        code = (n, opens, dots)
        if total := merged.get(code, 0) + coef:
            merged[code] = total
        elif code in merged:
            del merged[code]
    return _by_degree(merged.items())


# ------------------------------------------------------------- plain text

def matching_plain(code: tuple[int, int, int | None]) -> str:
    """The matching of an ``(n, opens, dots)`` code as text, the one plain writer of a
    matching; ``dots`` None is an undotted matching."""
    n, opens, dots = code
    return " ".join(f"({i},{j})*" if (dots or 0) >> (i - 1) & 1 else f"({i},{j})"
                    for i, j in decode_word(n, opens)[0]) or "(empty)"


def rows_plain(t: Tabloid) -> str:
    """A tabloid or tableau as its two rows, top first."""
    return " ".join(map(str, t.top)) + "|" + " ".join(map(str, t.bottom))


def undot_plain(u: Tabloid) -> str:
    """A line diagram as its undot set."""
    return "{" + ",".join(map(str, u.bottom)) + "}"


def formal_plain(terms, render) -> str:
    """(element, coef) terms, in order, as signed text; ``0`` when there are none."""
    return "  ".join(f"{'+' if coef > 0 else '-'}{abs(coef)} {render(element)}" for element, coef in terms) or "0"
