"""Integer formal sums over an arbitrary hashable basis.

Everything downstream (matchings, line diagrams, tabloids) is manipulated as
a :class:`FormalSum`; all coefficients stay in ``int`` so there is never any
rounding to worry about.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import Any


def _default_key(element: Any):
    key = getattr(element, "sort_key", None)
    return key() if callable(key) else element


class FormalSum:
    """An integer linear combination of hashable basis elements.

    Terms with coefficient zero are never stored, so two sums are equal
    exactly when their term dictionaries are equal.  Instances are treated
    as immutable: all arithmetic returns fresh sums.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Any, int] | Iterable[tuple[Any, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Any, int] = {}
        for element, coef in items:
            if not isinstance(coef, int):
                raise TypeError(f"coefficients must be int, got {type(coef).__name__}")
            new = acc.get(element, 0) + coef
            if new:
                acc[element] = new
            elif element in acc:
                del acc[element]
        self._terms = acc

    @classmethod
    def single(cls, element: Any, coef: int = 1) -> FormalSum:
        return cls({element: coef})

    @classmethod
    def zero(cls) -> FormalSum:
        return cls()

    def coefficient(self, element: Any) -> int:
        return self._terms.get(element, 0)

    def items(self) -> Iterator[tuple[Any, int]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[Any, int]]:
        """Terms in a deterministic order, independent of computation history."""
        return sorted(self._terms.items(), key=lambda item: _default_key(item[0]))

    def __add__(self, other: FormalSum) -> FormalSum:
        if not isinstance(other, FormalSum):
            return NotImplemented
        acc = dict(self._terms)
        for element, coef in other._terms.items():
            new = acc.get(element, 0) + coef
            if new:
                acc[element] = new
            elif element in acc:
                del acc[element]
        result = FormalSum.zero()
        result._terms = acc
        return result

    def __sub__(self, other: FormalSum) -> FormalSum:
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> FormalSum:
        result = FormalSum.zero()
        result._terms = {element: -coef for element, coef in self._terms.items()}
        return result

    def __rmul__(self, scalar: int) -> FormalSum:
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return FormalSum.zero()
        result = FormalSum.zero()
        result._terms = {element: scalar * coef for element, coef in self._terms.items()}
        return result

    __mul__ = __rmul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Any, int]]:
        return iter(self._terms.items())

    def __repr__(self) -> str:
        if not self._terms:
            return "FormalSum(0)"
        parts = []
        for element, coef in self.sorted_terms():
            sign = "+" if coef >= 0 else "-"
            mag = abs(coef)
            head = f"{sign} " if parts else ("-" if sign == "-" else "")
            factor = "" if mag == 1 else f"{mag}*"
            parts.append(f"{head}{factor}{element!r}")
        return "FormalSum(" + " ".join(parts) + ")"

    __hash__ = None  # mutable-dict backed; not usable as a key
