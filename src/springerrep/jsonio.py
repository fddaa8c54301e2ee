"""JSON wire formats and plain-text renderings.

Matchings travel as ``{"n":6,"arcs":[[1,6],[2,3],[4,5]],"dotted":[[2,3]]}``
with arcs sorted by left endpoint; tableaux as ``{"n":6,"bottom":[3,6]}``.
Formal sums carry a ``terms`` list whose order follows the canonical basis
order, so identical values always serialize to identical bytes.

Plain text writes a matching as ``(1,6)* (2,3) (4,5)`` (``*`` marks a dot)
and a tabloid or tableau as its two rows, ``1 2 4 5|3 6``.
"""

from __future__ import annotations

import json
from typing import Any

from .formal import FormalSum
from .linediagrams import UndotSet
from .matchings import DottedMatching, NoncrossingMatching, TwoRowTableau
from .specht import Tabloid


def dumps(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------- encoding

def matching_to_obj(m: DottedMatching | NoncrossingMatching) -> dict:
    if isinstance(m, NoncrossingMatching):
        return {"n": m.n, "arcs": [list(a) for a in m.arcs]}
    return {
        "n": m.n,
        "arcs": [list(a) for a in m.arcs],
        "dotted": [list(a) for a in sorted(m.dotted)],
    }


def tableau_to_obj(t: TwoRowTableau) -> dict:
    return {"n": t.n, "bottom": list(t.bottom)}


def matching_sum_to_obj(v: FormalSum) -> dict:
    return {
        "terms": [
            {"coef": coef, "matching": matching_to_obj(m)} for m, coef in v.sorted_terms()
        ]
    }


def diagram_sum_to_obj(v: FormalSum, n: int | None = None) -> dict:
    sizes = {u.n for u, _ in v}
    if n is None:
        if len(sizes) != 1:
            raise ValueError("cannot infer strand count from an empty or mixed sum")
        n = sizes.pop()
    return {
        "n": n,
        "terms": [{"coef": coef, "undot": list(u.members)} for u, coef in v.sorted_terms()],
    }


def tabloid_sum_to_obj(v: FormalSum, n: int | None = None, k: int | None = None) -> dict:
    degrees = {(t.n, len(t.bottom)) for t, _ in v}
    if n is None or k is None:
        if len(degrees) != 1:
            raise ValueError("cannot infer shape from an empty or mixed sum")
        n, k = degrees.pop()
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

def _pair_list(value: Any, context: str) -> list[tuple[int, int]]:
    if not isinstance(value, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p) for p in value
    ):
        raise ValueError(f"{context}: expected a list of [left,right] integer pairs")
    return [tuple(p) for p in value]


def matching_from_obj(obj: Any) -> DottedMatching:
    n = _expect(obj, "n", "matching")
    if type(n) is not int:
        raise ValueError("matching: n must be an integer")
    arcs = _pair_list(_expect(obj, "arcs", "matching"), "matching arcs")
    dotted = _pair_list(obj.get("dotted", []), "matching dotted")
    return DottedMatching.make(n, arcs, dotted)


def matching_sum_from_obj(obj: Any) -> FormalSum:
    terms = _expect(obj, "terms", "formal sum")
    if not isinstance(terms, list):
        raise ValueError("formal sum: terms must be a list")
    parsed = []
    for entry in terms:
        coef = _expect(entry, "coef", "formal sum term")
        if type(coef) is not int:
            raise ValueError("formal sum: coef must be an integer")
        parsed.append((matching_from_obj(_expect(entry, "matching", "formal sum term")), coef))
    return FormalSum(parsed)


# ------------------------------------------------------------- plain text

def matching_plain(m: DottedMatching | NoncrossingMatching) -> str:
    if isinstance(m, NoncrossingMatching):
        return " ".join(f"({i},{j})" for i, j in m.arcs) or "(empty)"
    return " ".join(
        f"({i},{j})*" if m.is_dotted((i, j)) else f"({i},{j})" for i, j in m.arcs
    ) or "(empty)"


def rows_plain(n: int, bottom: tuple[int, ...]) -> str:
    top = [v for v in range(1, n + 1) if v not in set(bottom)]
    return " ".join(map(str, top)) + "|" + " ".join(map(str, bottom))


def tableau_plain(t: TwoRowTableau) -> str:
    return rows_plain(t.n, t.bottom)


def tabloid_plain(t: Tabloid) -> str:
    return rows_plain(t.n, t.bottom)


def undot_plain(u: UndotSet) -> str:
    return "{" + ",".join(map(str, u.members)) + "}"


def formal_plain(v: FormalSum, render) -> str:
    if not v:
        return "0"
    parts = []
    for element, coef in v.sorted_terms():
        sign = "+" if coef > 0 else "-"
        parts.append(f"{sign}{abs(coef)} {render(element)}")
    return "  ".join(parts)
