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
class here grows at most like 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

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


def _threshold_chains(n: int) -> Iterator[list[int]]:
    """All chains n = t_0 > t_1 > ... > t_m = 0 (compositions of n)."""
    inner = list(range(n - 1, 0, -1))
    for bits in range(1 << (n - 1)):
        chain = [n]
        for idx, t in enumerate(inner):
            if bits >> idx & 1:
                chain.append(t)
        chain.append(0)
        yield chain


# ---------------------------------------------------------------------------
# block decompositions (two-pattern classes)
# ---------------------------------------------------------------------------


def _gen_123_132(n: int) -> set[OnelineTuple]:
    """Blocks with decreasing value ranges, each written as a descending
    run followed by its maximum."""
    if n == 0:
        return {()}
    out: set[OnelineTuple] = set()
    for chain in _threshold_chains(n):
        perm: list[int] = []
        for hi, lo in zip(chain, chain[1:]):
            perm.extend(_desc(hi - 1, lo + 1))
            perm.append(hi)
        out.add(tuple(perm))
    return out


def _gen_213_132(n: int) -> set[OnelineTuple]:
    """Blocks with decreasing value ranges, each an ascending run of
    consecutive values."""
    if n == 0:
        return {()}
    out: set[OnelineTuple] = set()
    for chain in _threshold_chains(n):
        perm: list[int] = []
        for hi, lo in zip(chain, chain[1:]):
            perm.extend(_asc(lo + 1, hi))
        out.add(tuple(perm))
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


@lru_cache(maxsize=None)
def _gen_132_231(n: int) -> tuple[OnelineTuple, ...]:
    """The maximum is first or last; when first, the rest is a
    descending block, the value 1, then an ascending block."""
    if n == 0:
        return ((),)
    out: set[OnelineTuple] = {p + (n,) for p in _gen_132_231(n - 1)}
    if n >= 2:
        mids = list(range(2, n))
        for bits in range(1 << len(mids)):
            chosen = [mids[i] for i in range(len(mids)) if bits >> i & 1]
            rest = [v for v in mids if v not in chosen]
            out.add((n,) + tuple(sorted(chosen, reverse=True)) + (1,) + tuple(rest))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _gen_132_321(n: int) -> tuple[OnelineTuple, ...]:
    """The maximum is last, or the values rotate: j+1, ..., n, 1, ..., j."""
    if n == 0:
        return ((),)
    out: set[OnelineTuple] = {p + (n,) for p in _gen_132_321(n - 1)}
    for j in range(1, n):
        out.add(_asc(j + 1, n) + _asc(1, j))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _gen_231_312(n: int) -> tuple[OnelineTuple, ...]:
    """A prefix on the low values followed by the descending tail
    n, n-1, ..., j."""
    if n == 0:
        return ((),)
    out: set[OnelineTuple] = set()
    for j in range(1, n + 1):
        tail = _desc(n, j)
        for p in _gen_231_312(j - 1):
            out.add(p + tail)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _gen_231_321(n: int) -> tuple[OnelineTuple, ...]:
    """A prefix on the low values followed by the maximum and then an
    ascending run just below it."""
    if n == 0:
        return ((),)
    out: set[OnelineTuple] = set()
    for j in range(1, n + 1):
        tail = (n,) + _asc(n - j + 1, n - 1)
        for p in _gen_231_321(n - j):
            out.add(p + tail)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _gen_231_312_321(n: int) -> tuple[OnelineTuple, ...]:
    """Starts with 1 or with 2,1; the remainder is shifted up."""
    if n == 0:
        return ((),)
    if n == 1:
        return ((1,),)
    out: set[OnelineTuple] = set()
    for p in _gen_231_312_321(n - 1):
        out.add((1,) + tuple(v + 1 for v in p))
    for p in _gen_231_312_321(n - 2):
        out.add((2, 1) + tuple(v + 2 for v in p))
    return tuple(sorted(out))


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
    build: Callable[[int], "set[OnelineTuple] | tuple[OnelineTuple, ...]"]


_FAMILIES: dict[PatternSet, StructuralFamily] = {}


def _register(patterns: str, kind: str, build) -> None:
    ps = PatternSet.parse(patterns)
    _FAMILIES[ps] = StructuralFamily(ps, kind, build)


_register("123,132", "block-desc", _gen_123_132)
_register("213,132", "block-asc", _gen_213_132)
_register("123,231", "wedge", _gen_123_231)
_register("132,231", "max-first-recursive", _gen_132_231)
_register("132,321", "max-last-recursive", _gen_132_321)
_register("231,312", "tail-desc-recursive", _gen_231_312)
_register("231,321", "head-max-recursive", _gen_231_321)
_register("123,132,231", "one-param", _gen_123_132_231)
_register("123,231,312", "one-param", _gen_123_231_312)
_register("132,213,231", "one-param", _gen_132_213_231)
_register("132,213,321", "one-param", _gen_132_213_321)
_register("132,231,312", "one-param", _gen_132_231_312)
_register("132,231,321", "one-param", _gen_132_231_321)
_register("231,312,321", "prefix-12-recursive", _gen_231_312_321)


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


def _build(patterns, n: int, cap: int | None) -> list[OnelineTuple]:
    ps = PatternSet(patterns)
    fam = _FAMILIES.get(ps)
    if fam is None:
        raise UnsupportedFamily(ps)
    check_size(n, cap)
    return sorted(set(fam.build(n)))


def generate(patterns, n: int, *, cap: int | None = None) -> list[Permutation]:
    """Build the avoidance class directly; deduplicated, lexicographic."""
    return [Permutation(p) for p in _build(patterns, n, cap)]


def generate_refined(patterns, n: int, *, cap: int | None = None) -> list[int]:
    """Fixed-point histogram of :func:`generate`, indexed k = 0..n."""
    out = [0] * (n + 1)
    for p in _build(patterns, n, cap):
        out[sum(1 for i, v in enumerate(p, start=1) if v == i)] += 1
    return out
