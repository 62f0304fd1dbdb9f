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

from .oracle import check_size, refined_count
from .perms import ALL_PATTERNS, PatternSet, Permutation

__all__ = [
    "divergence_witness",
    "orbit",
    "super_wilf_classes",
    "symmetry_classes",
]


def orbit(patterns) -> tuple[PatternSet, ...]:
    """Images of {patterns} under elementwise inverse and
    reverse-complement, as a sorted tuple.  The two are commuting
    involutions, so the orbit is {T, I(T), RC(T), RC(I(T))}."""
    ps = PatternSet(patterns)
    inverse = PatternSet(p.inverse() for p in ps)
    rc = PatternSet(p.reverse_complement() for p in ps)
    rc_inverse = PatternSet(p.reverse_complement() for p in inverse)
    return tuple(sorted({ps, inverse, rc, rc_inverse}))


_P123 = Permutation.parse("123")
_P132 = Permutation.parse("132")
_P213 = Permutation.parse("213")
_P321 = Permutation.parse("321")


def _split_mixed_pairs(classes: list[tuple]) -> list[tuple]:
    """Case layout for pairs: the four sets that combine one of
    {132, 213} with one of {231, 312} form a single orbit, but they are
    conventionally listed as two pairs keyed by the shared 132 or 213
    member."""
    out = []
    for members in classes:
        if len(members) == 4 and all(_P132 in m or _P213 in m for m in members):
            out.append(tuple(m for m in members if _P132 in m))
            out.append(tuple(m for m in members if _P213 in m))
        else:
            out.append(members)
    return out


def _merge_both_monotone(classes: list[tuple]) -> list[tuple]:
    """Case layout for triples: every superset of {123, 321} is listed
    as one case.  Such classes have no avoiders at all from size 5 on,
    so they behave as a single degenerate family."""
    dead = [c for c in classes if all(_P123 in m and _P321 in m for m in c)]
    if len(dead) <= 1:
        return classes
    rest = [c for c in classes if c not in dead]
    return rest + [tuple(sorted(m for c in dead for m in c))]


def symmetry_classes(cardinality: int) -> list[tuple[PatternSet, ...]]:
    """Partition of all pattern sets of the given cardinality, each
    class the sorted tuple of its members, the classes sorted.

    Cardinalities 2 and 3 follow the conventional case layout (see the
    helpers above); other cardinalities are raw orbits.
    """
    if not 1 <= cardinality <= 6:
        raise ValueError("cardinality must be between 1 and 6")
    classes = []
    seen: set[PatternSet] = set()
    for combo in itertools.combinations(ALL_PATTERNS, cardinality):
        ps = PatternSet(combo)
        if ps in seen:
            continue
        orb = orbit(ps)
        seen.update(orb)
        classes.append(orb)
    if cardinality == 2:
        classes = _split_mixed_pairs(classes)
    elif cardinality == 3:
        classes = _merge_both_monotone(classes)
    return sorted(classes)


def _table_key(ps: PatternSet, n_max: int, cap: int | None) -> tuple:
    return tuple(tuple(refined_count(n, ps, cap=cap)) for n in range(n_max + 1))


def super_wilf_classes(candidates, n_max: int, *,
                       cap: int | None = None) -> list[tuple[PatternSet, ...]]:
    """Partition candidates by exact equality of their full refined
    tables for n = 0..n_max, each class the sorted tuple of its members,
    the classes sorted; an oversized n_max is refused before any table
    is counted.  Equal tables up to n_max are evidence, not proof: the
    grouping is empirical."""
    check_size(n_max, cap)
    groups: dict[tuple, set[PatternSet]] = {}
    for candidate in candidates:
        ps = PatternSet(candidate)
        groups.setdefault(_table_key(ps, n_max, cap), set()).add(ps)
    return sorted(tuple(sorted(g)) for g in groups.values())


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
