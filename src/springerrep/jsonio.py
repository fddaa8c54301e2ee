"""JSON wire formats and plain-text renderings.

Matchings travel as ``{"n":6,"arcs":[[1,6],[2,3],[4,5]],"dotted":[[2,3]]}``
with arcs sorted by left endpoint; tableaux as ``{"n":6,"bottom":[3,6]}``.
Formal sums carry a ``terms`` list whose order follows the canonical basis
order, so identical values always serialize to identical bytes.

Plain text writes a matching as ``(1,6)* (2,3) (4,5)`` (``*`` marks a dot)
and a tabloid or tableau as its two rows, ``1 2 4 5|3 6``.

A formal sum, the input of ``reduce`` and ``act``, decodes straight to
``(n, opens, dots)`` codes, the integer masks the rewriting kernel works on
(:func:`matching_codes_from_obj`).  It applies the rules of a single
matching (:func:`matching_from_obj`) with the same errors, but builds no
matching object and checks each distinct arc list once per call, so a sum
over few matching shapes pays the arc rules once per shape.
"""

from __future__ import annotations

import json
from typing import Any

from .formal import FormalSum
from .matchings import (DottedMatching, NoncrossingMatching, Tabloid, TwoRowTableau, dotted_arcs,
                        noncrossing_arcs, opens_mask)


def dumps(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------- encoding

def matching_to_obj(m: NoncrossingMatching) -> dict:
    obj = {"n": m.n, "arcs": [list(a) for a in m.arcs]}
    if isinstance(m, DottedMatching):
        obj["dotted"] = [list(a) for a in sorted(m.dotted)]
    return obj


def tableau_to_obj(t: TwoRowTableau) -> dict:
    return {"n": t.n, "bottom": list(t.bottom)}


def matching_sum_to_obj(v: FormalSum) -> dict:
    return {
        "terms": [
            {"coef": coef, "matching": matching_to_obj(m)} for m, coef in v.sorted_terms()
        ]
    }


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


def _matching_fields(obj: Any) -> tuple[int, list, list]:
    n = _expect(obj, "n", "matching")
    if type(n) is not int:
        raise ValueError("matching: n must be an integer")
    arcs = _pair_list(_expect(obj, "arcs", "matching"), "matching arcs")
    dotted = _pair_list(obj.get("dotted", []), "matching dotted")
    return n, arcs, dotted


def matching_from_obj(obj: Any) -> DottedMatching:
    return DottedMatching.make(*_matching_fields(obj))


def matching_codes_from_obj(obj: Any) -> list[tuple[tuple[int, int, int], int]]:
    """A wire formal sum as ``((n, opens, dots), coef)`` terms, in input order
    and not merged; each matching is checked by the rules of
    :func:`matching_from_obj`, with its errors, but no object is built.

    Each distinct ``(n, arcs as given)`` is checked by the matching rules once
    per call; its Dyck word and ``{arc: bit}`` map serve every later term with
    those arcs.  The key is built only after :func:`_pair_list` has checked
    that every pair is two ints, since ``2.0`` and ``True`` hash as ``2`` and
    ``1`` do."""
    terms = _expect(obj, "terms", "formal sum")
    if not isinstance(terms, list):
        raise ValueError("formal sum: terms must be a list")
    shapes: dict[tuple[int, tuple], tuple[int, dict[tuple[int, int], int]]] = {}
    parsed = []
    for entry in terms:
        coef = _expect(entry, "coef", "formal sum term")
        if type(coef) is not int:
            raise ValueError("formal sum: coef must be an integer")
        n, arcs, dotted = _matching_fields(_expect(entry, "matching", "formal sum term"))
        key = (n, tuple(map(tuple, arcs)))
        shape = shapes.get(key)
        if shape is None:
            arcs = noncrossing_arcs(n, arcs)
            shape = shapes[key] = (opens_mask(arcs), {arc: 1 << (arc[0] - 1) for arc in arcs})
        opens, bits = shape
        dots = 0
        for a, b in dotted:
            bit = bits.get((a, b) if a < b else (b, a))
            if bit is None:
                dotted_arcs(tuple(bits), dotted)  # not an arc: raises the rule's own error
            dots |= bit
        parsed.append(((n, opens, dots), coef))
    return parsed


# ------------------------------------------------------------- plain text

def matching_plain(m: NoncrossingMatching) -> str:
    dotted = m.dotted if isinstance(m, DottedMatching) else ()
    return " ".join(f"({i},{j})*" if (i, j) in dotted else f"({i},{j})" for i, j in m.arcs) or "(empty)"


def rows_plain(t: Tabloid) -> str:
    """A tabloid or tableau as its two rows, top first."""
    return " ".join(map(str, t.top)) + "|" + " ".join(map(str, t.bottom))


def undot_plain(u: Tabloid) -> str:
    """A line diagram as its undot set."""
    return "{" + ",".join(map(str, u.bottom)) + "}"


def formal_plain(v: FormalSum, render) -> str:
    if not v:
        return "0"
    parts = []
    for element, coef in v.sorted_terms():
        sign = "+" if coef > 0 else "-"
        parts.append(f"{sign}{abs(coef)} {render(element)}")
    return "  ".join(parts)
