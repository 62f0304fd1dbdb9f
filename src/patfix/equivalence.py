"""Symmetry orbits of pattern sets and empirical refined equivalence.

Two symmetries preserve the number of fixed points: the inverse and the
reverse-complement.  Acting elementwise on pattern sets they partition
the sets into orbits, and any two sets in an orbit have identical
refined count tables.  Refined ("Super-Wilf") equivalence is the finer
question of equal tables regardless of symmetry; it is checked here
empirically, up to a stated size.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from .oracle import check_size, refined_count
from .perms import ALL_PATTERNS, PatternSet, Permutation

__all__ = [
    "OrbitClass",
    "SuperWilfClass",
    "divergence_witness",
    "orbit",
    "super_wilf_classes",
    "symmetry_classes",
]


class _Members:
    """len() of a class of pattern sets is its member count.  namedtuple's
    _make, and so _replace, checks its field count by len(), so it goes
    through the constructor instead."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.members)

    @classmethod
    def _make(cls, iterable: Iterable):
        return cls(*iterable)


class _Orbit(NamedTuple):
    representative: PatternSet
    members: tuple[PatternSet, ...]


class OrbitClass(_Members, _Orbit):
    """One orbit: the lexicographically least member represents it."""

    __slots__ = ()


def orbit(patterns) -> OrbitClass:
    """Images of {patterns} under elementwise inverse and
    reverse-complement.  The two are commuting involutions, so the orbit
    is {T, I(T), RC(T), RC(I(T))}."""
    ps = PatternSet(patterns)
    inverse = ps.apply("I")
    members = tuple(sorted({ps, inverse, ps.apply("RC"), inverse.apply("RC")}))
    return OrbitClass(members[0], members)


_P123 = Permutation.parse("123")
_P132 = Permutation.parse("132")
_P213 = Permutation.parse("213")
_P321 = Permutation.parse("321")


def _split_mixed_pairs(classes: list[OrbitClass]) -> list[OrbitClass]:
    """Case layout for pairs: the four sets that combine one of
    {132, 213} with one of {231, 312} form a single orbit, but they are
    conventionally listed as two pairs keyed by the shared 132 or 213
    member."""
    out: list[OrbitClass] = []
    for cls in classes:
        members = cls.members
        if len(members) == 4 and all(_P132 in m or _P213 in m for m in members):
            with_132 = tuple(sorted(m for m in members if _P132 in m))
            with_213 = tuple(sorted(m for m in members if _P213 in m))
            out.append(OrbitClass(with_132[0], with_132))
            out.append(OrbitClass(with_213[0], with_213))
        else:
            out.append(cls)
    return out


def _merge_both_monotone(classes: list[OrbitClass]) -> list[OrbitClass]:
    """Case layout for triples: every superset of {123, 321} is listed
    as one case.  Such classes have no avoiders at all from size 5 on,
    so they behave as a single degenerate family."""
    dead = [c for c in classes if all(_P123 in m and _P321 in m for m in c.members)]
    if len(dead) <= 1:
        return classes
    rest = [c for c in classes if c not in dead]
    members = tuple(sorted(m for c in dead for m in c.members))
    return rest + [OrbitClass(members[0], members)]


def symmetry_classes(cardinality: int) -> list[OrbitClass]:
    """Partition of all pattern sets of the given cardinality.

    Cardinalities 2 and 3 follow the conventional case layout (see the
    helpers above); other cardinalities are raw orbits.  Classes are
    ordered by representative.
    """
    if not 1 <= cardinality <= 6:
        raise ValueError("cardinality must be between 1 and 6")
    classes: list[OrbitClass] = []
    seen: set[PatternSet] = set()
    for combo in itertools.combinations(ALL_PATTERNS, cardinality):
        ps = PatternSet(combo)
        if ps in seen:
            continue
        orb = orbit(ps)
        seen.update(orb.members)
        classes.append(orb)
    if cardinality == 2:
        classes = _split_mixed_pairs(classes)
    elif cardinality == 3:
        classes = _merge_both_monotone(classes)
    return sorted(classes, key=lambda c: c.representative)


class _Grouping(NamedTuple):
    members: tuple[PatternSet, ...]
    n_max: int


class SuperWilfClass(_Members, _Grouping):
    """Pattern sets with identical refined tables for all n <= n_max.

    Equality at n_max is evidence, not proof: the grouping is empirical.
    """

    __slots__ = ()


def _table_key(ps: PatternSet, n_max: int, cap: int | None) -> tuple:
    return tuple(tuple(refined_count(n, ps, cap=cap)) for n in range(n_max + 1))


def super_wilf_classes(candidates, n_max: int, *, cap: int | None = None) -> list[SuperWilfClass]:
    """Partition candidates by exact equality of their full refined
    tables for n = 0..n_max; an oversized n_max is refused before any
    table is counted."""
    check_size(n_max, cap)
    groups: dict[tuple, set[PatternSet]] = {}
    for candidate in candidates:
        ps = PatternSet(candidate)
        groups.setdefault(_table_key(ps, n_max, cap), set()).add(ps)
    classes = [SuperWilfClass(tuple(sorted(g)), n_max) for g in groups.values()]
    return sorted(classes, key=lambda c: c.members[0])


def divergence_witness(a, b, n_max: int, *, cap: int | None = None) -> tuple[int, int] | None:
    """First (n, k) at which the refined tables of a and b differ, or
    None when they agree up to n_max; an oversized n_max is refused first."""
    check_size(n_max, cap)
    pa, pb = PatternSet(a), PatternSet(b)
    for n in range(n_max + 1):
        ra = refined_count(n, pa, cap=cap)
        rb = refined_count(n, pb, cap=cap)
        for k in range(n + 1):
            if ra[k] != rb[k]:
                return (n, k)
    return None
