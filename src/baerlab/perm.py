"""Permutations of {0..n-1} with a fixed apply-left-first composition order."""

from __future__ import annotations

import math
import re


class Permutation:
    """A bijection of ``{0..degree-1}`` stored as its tuple of images.

    Composition order is fixed once for the whole package: ``p * q`` applies
    ``p`` first and ``q`` second, i.e. ``(p * q)(i) == q(p(i))``.  Conjugation
    ``x ** g`` is ``g^-1 * x * g`` in that order, so ``(x ** g) ** h == x ** (g * h)``.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for v in images:
            if not isinstance(v, int) or not 0 <= v < n or seen[v]:
                raise ValueError(f"not a bijection of 0..{n - 1}: {images!r}")
            seen[v] = True
        self.images = images
        self._hash = hash(images)

    @classmethod
    def _make(cls, images: tuple) -> "Permutation":
        # Internal fast path for results that are bijections by construction.
        p = object.__new__(cls)
        p.images = images
        p._hash = hash(images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch in composition")
        o = other.images
        return Permutation._make(tuple(o[v] for v in self.images))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self, g: "Permutation") -> "Permutation":
        """Return ``g^-1 * self * g``."""
        return g.inverse() * self * g

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation._make(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def cycles(self) -> list:
        """Disjoint cycles of length > 1, each from its minimal point, sorted by start."""
        out = []
        seen = [False] * self.degree
        for start in range(self.degree):
            if seen[start]:
                continue
            cur, cyc = start, []
            while not seen[cur]:
                seen[cur] = True
                cyc.append(cur)
                cur = self.images[cur]
            if len(cyc) > 1:
                out.append(cyc)
        return out

    def order(self) -> int:
        return math.lcm(*map(len, self.cycles()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __le__(self, other: "Permutation") -> bool:
        return self.images <= other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"parse_cycles({format_cycles(self)!r}, degree={self.degree})"

    def __str__(self) -> str:
        return format_cycles(self)


def identity(degree: int) -> Permutation:
    return Permutation._make(tuple(range(degree)))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_CYCLES_FULL_RE = re.compile(r"(?:\([\d\s,]*\)\s*)+")


def parse_cycles(text: str, degree: int | None = None) -> Permutation:
    """Parse cycle notation like ``"(0 1 2)(3 4)"`` into a permutation.

    Points are 0-based, whitespace-insensitive; ``"()"`` is the identity.
    Without an explicit ``degree`` the largest mentioned point fixes it.
    """
    stripped = text.strip()
    if not stripped or not _CYCLES_FULL_RE.fullmatch(stripped):
        raise ValueError(f"malformed cycle notation: {text!r}")
    cycles = []
    maxpt = -1
    for m in _CYCLE_RE.finditer(stripped):
        inner = m.group(1).replace(",", " ").split()
        if not inner:
            continue
        pts = [int(tok) for tok in inner]
        cycles.append(pts)
        maxpt = max(maxpt, max(pts))
    if degree is None:
        degree = maxpt + 1 if maxpt >= 0 else 0
    if maxpt >= degree:
        raise ValueError(f"point {maxpt} out of range for degree {degree}")
    images = list(range(degree))
    touched = set()
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if a in touched:
                raise ValueError(f"point {a} repeated in cycle notation: {text!r}")
            touched.add(a)
            images[a] = b
    return Permutation(images)


def format_cycles(p: Permutation) -> str:
    """Inverse of :func:`parse_cycles`; the identity prints as ``"()"``."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(pt) for pt in cyc) + ")" for cyc in cycles)
