"""Permutations in one-line notation and the length-3 pattern machinery.

Conventions used throughout the package live here: entries are 1-based,
the canonical text form is a compact digit string ("132"), and pattern
sets are kept sorted so that equal sets compare equal.  Everything is a
pure function on immutable values and safe for concurrent use.
"""

from __future__ import annotations

import itertools
import numbers
from functools import partial
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "ALL_PATTERNS",
    "PatternSet",
    "Permutation",
    "SYMMETRIES",
    "apply_symmetry",
    "fixed_points",
    "standardize",
]


class Permutation(tuple):
    """A permutation of {1..n} in one-line notation; n = 0 is allowed.

    Instances are immutable, hashable and order lexicographically, like
    the plain tuples they are.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int] = ()) -> "Permutation":
        entries = tuple(int(v) for v in entries)
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValueError(f"not a permutation of 1..{len(entries)}: {entries!r}")
        return tuple.__new__(cls, entries)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse compact digits ("132") or a comma list ("1,3,2")."""
        text = text.strip()
        if not text:
            return cls(())
        if "," in text:
            return cls(int(part) for part in text.split(","))
        if not text.isdigit():
            raise ValueError(f"cannot parse a permutation from {text!r}")
        return cls(int(ch) for ch in text)

    def compact(self) -> str:
        """Canonical text form; digits up to size 9, commas beyond."""
        return ("" if len(self) <= 9 else ",").join(map(str, self))

    def __repr__(self) -> str:
        return f"Permutation({self.compact()!r})"

    @property
    def size(self) -> int:
        return len(self)

    def fixed_point_count(self) -> int:
        """Number of positions i (1-based) with p(i) = i."""
        return sum(1 for i, v in enumerate(self, start=1) if v == i)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, v in enumerate(self, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def reverse(self) -> "Permutation":
        return Permutation(self[::-1])

    def complement(self) -> "Permutation":
        n = len(self)
        return Permutation(n + 1 - v for v in self)

    def reverse_complement(self) -> "Permutation":
        n = len(self)
        return Permutation(n + 1 - v for v in self[::-1])

    def contains(self, pattern: Iterable[int]) -> bool:
        """True when some subsequence has the same relative order as
        ``pattern``.

        Defined directly by the subsequence test; callers that need bulk
        throughput should go through :mod:`patfix.oracle` instead.
        """
        pat = tuple(pattern)
        m = len(pat)
        if m == 0:
            return True
        if m > len(self):
            return False
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        orders = [pat[i] < pat[j] for i, j in pairs]
        for combo in itertools.combinations(self, m):
            if all((combo[i] < combo[j]) == o for (i, j), o in zip(pairs, orders)):
                return True
        return False

    def avoids_all(self, patterns: Iterable[Iterable[int]]) -> bool:
        return not any(self.contains(q) for q in patterns)


def _from_rows(rows: np.ndarray) -> Iterator[Permutation]:
    """The rows of an integer array as permutations, a row holding a
    member in 0-based values (entry v is v - 1).  Every row is checked
    here at once, sorted against 0..n-1, so no member is checked again
    on its own."""
    if not (np.sort(rows, axis=1) == np.arange(rows.shape[1])).all():
        raise ValueError(f"not every row is a permutation of 0..{rows.shape[1] - 1}")
    return map(partial(tuple.__new__, Permutation), (rows + 1).tolist())


def fixed_points(rows: np.ndarray) -> np.ndarray:
    """Per row of 0-based entries, the number of fixed points (entry j at
    column j), as ``np.min_scalar_type(n)`` for rows of size n: the
    smallest unsigned type that holds n.  One comparison with 0..n-1,
    the fixed-point counter of the generator audit and the generators'
    refined histograms."""
    n = rows.shape[1]
    return (rows == np.arange(n, dtype=rows.dtype)).sum(axis=1, dtype=np.min_scalar_type(n))


def standardize(values: Iterable[int]) -> Permutation:
    """Replace a sequence of distinct values by their ranks.

    >>> standardize([4, 7, 5]).compact()
    '132'
    """
    vals = [int(v) for v in values]
    if len(set(vals)) != len(vals):
        raise ValueError(f"entries must be distinct: {vals!r}")
    rank = {v: i for i, v in enumerate(sorted(vals), start=1)}
    return Permutation(rank[v] for v in vals)


SYMMETRIES = ("I", "R", "C", "RC")


def apply_symmetry(p: Permutation, op: str) -> Permutation:
    """Apply one of the classical symmetries.

    ``I`` is the group inverse, ``R`` reverses the entry order, ``C``
    maps each entry v to n+1-v, and ``RC`` composes the last two (in
    either order; they commute).  ``I`` and ``RC`` preserve the number
    of fixed points; ``R`` and ``C`` alone do not.
    """
    if op == "I":
        return p.inverse()
    if op == "R":
        return p.reverse()
    if op == "C":
        return p.complement()
    if op == "RC":
        return p.reverse_complement()
    raise ValueError(f"unknown symmetry {op!r}; expected one of {SYMMETRIES}")


#: The six length-3 patterns in lexicographic order.  Bit i of every
#: containment mask in the package refers to ALL_PATTERNS[i].
ALL_PATTERNS: tuple[Permutation, ...] = tuple(
    Permutation(c) for c in itertools.permutations((1, 2, 3))
)

#: Each pattern's bit in a containment mask.
_PATTERN_BIT = {p: 1 << i for i, p in enumerate(ALL_PATTERNS)}


class PatternSet(tuple):
    """Between one and six distinct length-3 patterns, sorted.

    The text form is a comma-separated list of compact patterns, e.g.
    ``"123,132"``; parsing and printing round-trip.  Any argument that
    is already a pattern set is returned as it is, so functions taking
    text or patterns coerce with a plain ``PatternSet(patterns)``.
    """

    __slots__ = ()

    def __new__(cls, patterns) -> "PatternSet":
        if type(patterns) is PatternSet:
            return patterns
        if isinstance(patterns, str):
            patterns = [part for part in patterns.split(",") if part.strip()]
        pats = set()
        for p in patterns:
            if isinstance(p, numbers.Integral):
                raise ValueError('a pattern set is text like "132,231" or an iterable '
                                 f"of patterns, not a pattern's entries; got {p!r}")
            if isinstance(p, str):
                p = Permutation.parse(p)
            elif not isinstance(p, Permutation):
                p = Permutation(p)
            pats.add(p)
        if not pats:
            raise ValueError("a pattern set needs at least one pattern")
        if any(len(p) != 3 for p in pats):
            raise ValueError("only length-3 patterns are supported here")
        return tuple.__new__(cls, sorted(pats))

    @classmethod
    def parse(cls, text: str) -> "PatternSet":
        return cls(text)

    def canonical(self) -> str:
        return ",".join(p.compact() for p in self)

    def __repr__(self) -> str:
        return f"PatternSet({self.canonical()!r})"

    @property
    def mask(self) -> int:
        """Bitmask over :data:`ALL_PATTERNS`."""
        return sum(map(_PATTERN_BIT.__getitem__, self))

    def apply(self, op: str) -> "PatternSet":
        """Apply a symmetry to every member; cardinality is preserved."""
        return PatternSet(apply_symmetry(p, op) for p in self)
