"""Permutations of {1..n} in one-line notation, plus reduced words.

Composition is function composition: ``(u * v)(x) = u(v(x))``.  A reduced
word ``(i1, ..., im)`` stands for ``s_i1 ∘ s_i2 ∘ ... ∘ s_im``, so when a
word acts on something the rightmost letter is applied first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Permutation:
    """images[x-1] is the image of x, values 1-based."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"{self.images} is not a permutation of 1..{len(self.images)}")

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def simple(cls, n: int, i: int) -> Permutation:
        """The adjacent transposition s_i = (i, i+1) in S_n."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"simple transposition index {i} out of range for n={n}")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.images[y - 1] for y in other.images))

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its smallest element."""
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word in the simple transpositions, by insertion sort.

        Moving each entry of the one-line notation left into place, swap by
        swap, right-multiplies by the s_i of each swap, always at the leftmost
        descent; reversing the multipliers gives the word.
        """
        images = list(self.images)
        collected = []
        for i in range(1, len(images)):
            while i and images[i - 1] > images[i]:
                images[i - 1], images[i] = images[i], images[i - 1]
                collected.append(i)
                i -= 1
        return tuple(reversed(collected))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Parse cycle notation '(1 2)(3 4 5)' or one-line notation '2 1 4 5 3'.

    For cycle notation, n defaults to the largest vertex mentioned; missing
    vertices are fixed points.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    if not re.fullmatch(r"[\d\s,()]*", text, re.ASCII):
        raise ValueError("a permutation is cycle notation such as '(1 2)(3 4 5)' or one-line notation "
                         f"such as '2 1 4 5 3', with positive integer entries; got {text!r}")
    if "(" in text:
        body = _CYCLE_RE.sub("", text).strip()
        if body:
            raise ValueError(f"malformed cycle notation: {text!r}")
        cycles = []
        for group in _CYCLE_RE.findall(text):
            entries = [int(v) for v in re.split(r"[,\s]+", group.strip()) if v]
            if entries:
                cycles.append(entries)
        flat = [v for c in cycles for v in c]
        if len(flat) != len(set(flat)):
            raise ValueError(f"repeated vertex in cycles: {text!r}")
        size = n if n is not None else max(flat, default=1)
        if any(v < 1 or v > size for v in flat):
            raise ValueError(f"vertex out of range 1..{size} in {text!r}")
        images = list(range(1, size + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return Permutation(tuple(images))
    images = tuple(int(v) for v in re.split(r"[,\s]+", text) if v)
    if n is not None and len(images) != n:
        raise ValueError(f"one-line notation {text!r} has length {len(images)}, expected {n}")
    return Permutation(images)
