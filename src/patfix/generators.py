"""Direct structural construction of avoidance classes, bypassing brute
force.

Each supported pattern set has a construction that builds exactly its
avoiders (block decompositions, one-parameter families, or recursions on
where the extreme values sit).  Constructions are transcribed as
printed in their sources; where a printed family provably misses
members, the generator keeps the printed form and the audit records the
divergence from the oracle (see DISCREPANCIES.md for the one known
case).

Generators scale past the oracle: the default cap is 14, since every
class here grows at most like 2^n.  A recursive family builds every
size up to n within one call, each from the sizes below it, so the
module keeps no state between calls.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .oracle import CapExceeded
from .perms import PatternSet, Permutation

__all__ = [
    "GENERATOR_CAP",
    "StructuralFamily",
    "UnsupportedFamily",
    "check_size",
    "family_for",
    "generate",
    "generate_refined",
    "supported_families",
]

GENERATOR_CAP = 14

OnelineTuple = tuple[int, ...]
Members = set[OnelineTuple]


class UnsupportedFamily(ValueError):
    """No structural construction is known for the pattern set."""

    def __init__(self, patterns: PatternSet):
        self.patterns = patterns
        super().__init__(
            f"no structural generator for {{{patterns.canonical()}}}; "
            "use the brute-force oracle instead"
        )


def _desc(hi: int, lo: int) -> OnelineTuple:
    """Values hi, hi-1, ..., lo (empty when hi < lo)."""
    return tuple(range(hi, lo - 1, -1))


def _asc(lo: int, hi: int) -> OnelineTuple:
    """Values lo, lo+1, ..., hi (empty when lo > hi)."""
    return tuple(range(lo, hi + 1))


def _grow(n: int, step: Callable[[int, list[Members]], Members]) -> Members:
    """Size n of a recursive family.  Sizes 0..n are built in turn within
    this call, size m as ``step(m, below)`` from the list ``below`` of
    sizes 0..m-1; nothing outlives the call."""
    below: list[Members] = [{()}]
    for m in range(1, n + 1):
        below.append(step(m, below))
    return below[n]


# ---------------------------------------------------------------------------
# block decompositions (two-pattern classes)
# ---------------------------------------------------------------------------


def _step_123_132(n: int, below: list[Members]) -> Members:
    """Blocks with decreasing value ranges, each written as a descending
    run followed by its maximum: a first block on t+1..n, then a member
    of size t."""
    out: Members = set()
    for t in range(n):
        head = _desc(n - 1, t + 1) + (n,)
        out.update(head + p for p in below[t])
    return out


def _step_213_132(n: int, below: list[Members]) -> Members:
    """Blocks with decreasing value ranges, each an ascending run of
    consecutive values: a first block t+1..n, then a member of size t."""
    out: Members = set()
    for t in range(n):
        head = _asc(t + 1, n)
        out.update(head + p for p in below[t])
    return out


def _gen_123_231(n: int) -> set[OnelineTuple]:
    """Either the maximum sits at position i >= 2 inside a double
    descent, or the permutation starts at the maximum and consists of
    three descending runs parametrized by (x, y)."""
    if n == 0:
        return {()}
    out: set[OnelineTuple] = {_desc(n, 1)}
    for i in range(2, n + 1):
        out.add(_desc(i - 1, 1) + (n,) + _desc(n - 1, i))
    for x in range(1, n - 1):
        for y in range(1, n - x):
            out.add(_desc(n, n - x + 1) + _desc(y, 1) + _desc(n - x, y + 1))
    return out


# ---------------------------------------------------------------------------
# recursions on the position of an extreme value
# ---------------------------------------------------------------------------


def _step_132_231(n: int, below: list[Members]) -> Members:
    """The maximum is first or last; when first, the rest is a
    descending block, the value 1, then an ascending block.  Members
    that start with n come from those of size n-1 that start with n-1
    (for n = 2, from the single member 1): n-1 goes right after n, into
    the descending block, or last, into the ascending one."""
    out = {p + (n,) for p in below[n - 1]}
    rests = [q[1:] for q in below[n - 1] if q[:1] == (n - 1,)]
    out.update((n, n - 1) + r for r in rests)
    out.update((n,) + r + (n - 1,) for r in rests)
    return out


def _step_132_321(n: int, below: list[Members]) -> Members:
    """The maximum is last, or the values rotate: j+1, ..., n, 1, ..., j."""
    out = {p + (n,) for p in below[n - 1]}
    out.update(_asc(j + 1, n) + _asc(1, j) for j in range(1, n))
    return out


def _step_231_312(n: int, below: list[Members]) -> Members:
    """A prefix on the low values followed by the descending tail
    n, n-1, ..., j."""
    out: Members = set()
    for j in range(1, n + 1):
        tail = _desc(n, j)
        out.update(p + tail for p in below[j - 1])
    return out


def _step_231_321(n: int, below: list[Members]) -> Members:
    """A prefix on the low values followed by the maximum and then an
    ascending run just below it."""
    out: Members = set()
    for j in range(1, n + 1):
        tail = (n,) + _asc(n - j + 1, n - 1)
        out.update(p + tail for p in below[n - j])
    return out


def _step_231_312_321(n: int, below: list[Members]) -> Members:
    """Starts with 1 or with 2,1; the remainder is shifted up."""
    out = {(1,) + tuple(v + 1 for v in p) for p in below[n - 1]}
    if n >= 2:
        out.update((2, 1) + tuple(v + 2 for v in p) for p in below[n - 2])
    return out


# ---------------------------------------------------------------------------
# one-parameter families (three-pattern classes)
# ---------------------------------------------------------------------------


def _gen_123_132_231(n: int) -> set[OnelineTuple]:
    """j top values descending, the rest descending, then n-j last."""
    if n == 0:
        return {()}
    return {
        _desc(n, n - j + 1) + _desc(n - j - 1, 1) + (n - j,)
        for j in range(n)
    }


def _gen_123_231_312(n: int) -> set[OnelineTuple]:
    """j, j-1, ..., 1 followed by n, n-1, ..., j+1."""
    if n == 0:
        return {()}
    return {_desc(j, 1) + _desc(n, j + 1) for j in range(1, n + 1)}


def _gen_132_213_231(n: int) -> set[OnelineTuple]:
    """j top values descending, then 1, 2, ..., n-j ascending.

    The printed parameter range is 1..n, which repeats the full descent
    and never produces the identity; kept verbatim, flagged by the
    audit.
    """
    if n == 0:
        return {()}
    return {_desc(n, n - j + 1) + _asc(1, n - j) for j in range(1, n + 1)}


def _gen_132_213_321(n: int) -> set[OnelineTuple]:
    """Cyclic rotations j, j+1, ..., n, 1, 2, ..., j-1."""
    if n == 0:
        return {()}
    return {_asc(j, n) + _asc(1, j - 1) for j in range(1, n + 1)}


def _gen_132_231_312(n: int) -> set[OnelineTuple]:
    """j, j-1, ..., 1 followed by j+1, j+2, ..., n."""
    if n == 0:
        return {()}
    return {_desc(j, 1) + _asc(j + 1, n) for j in range(1, n + 1)}


def _gen_132_231_321(n: int) -> set[OnelineTuple]:
    """j first, then 1..j-1 ascending, then j+1..n ascending."""
    if n == 0:
        return {()}
    return {(j,) + _asc(1, j - 1) + _asc(j + 1, n) for j in range(1, n + 1)}


# ---------------------------------------------------------------------------
# registry and public API
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructuralFamily:
    patterns: PatternSet
    kind: str
    build: Callable[[int], Members]


_FAMILIES: dict[PatternSet, StructuralFamily] = {}


def _register(patterns: str, kind: str, build) -> None:
    ps = PatternSet.parse(patterns)
    _FAMILIES[ps] = StructuralFamily(ps, kind, build)


_register("123,132", "block-desc", partial(_grow, step=_step_123_132))
_register("213,132", "block-asc", partial(_grow, step=_step_213_132))
_register("123,231", "wedge", _gen_123_231)
_register("132,231", "max-first-recursive", partial(_grow, step=_step_132_231))
_register("132,321", "max-last-recursive", partial(_grow, step=_step_132_321))
_register("231,312", "tail-desc-recursive", partial(_grow, step=_step_231_312))
_register("231,321", "head-max-recursive", partial(_grow, step=_step_231_321))
_register("123,132,231", "one-param", _gen_123_132_231)
_register("123,231,312", "one-param", _gen_123_231_312)
_register("132,213,231", "one-param", _gen_132_213_231)
_register("132,213,321", "one-param", _gen_132_213_321)
_register("132,231,312", "one-param", _gen_132_231_312)
_register("132,231,321", "one-param", _gen_132_231_321)
_register("231,312,321", "prefix-12-recursive", partial(_grow, step=_step_231_312_321))


def supported_families() -> tuple[StructuralFamily, ...]:
    """Registered families, in registration order."""
    return tuple(_FAMILIES.values())


def family_for(patterns) -> StructuralFamily | None:
    ps = PatternSet(patterns)
    return _FAMILIES.get(ps)


def check_size(n: int, cap: int | None = None) -> int:
    """Refuse structural generation at size n before any work is done;
    returns the effective cap (``cap``, else :data:`GENERATOR_CAP`)."""
    if n < 0:
        raise ValueError("permutation size must be nonnegative")
    limit = GENERATOR_CAP if cap is None else cap
    if n > limit:
        raise CapExceeded(n, limit, subject="structural generation")
    return limit


def _build(patterns, n: int, cap: int | None) -> Members:
    """The distinct members of size n, in no particular order."""
    ps = PatternSet(patterns)
    fam = _FAMILIES.get(ps)
    if fam is None:
        raise UnsupportedFamily(ps)
    check_size(n, cap)
    return fam.build(n)


def generate(patterns, n: int, *, cap: int | None = None) -> list[Permutation]:
    """Build the avoidance class directly; deduplicated, lexicographic."""
    return [Permutation(p) for p in sorted(_build(patterns, n, cap))]


def generate_refined(patterns, n: int, *, cap: int | None = None) -> list[int]:
    """Fixed-point histogram of :func:`generate`, indexed k = 0..n."""
    out = [0] * (n + 1)
    positions = range(1, n + 1)
    for p in _build(patterns, n, cap):
        out[sum(map(operator.eq, p, positions))] += 1
    return out
