"""Direct structural construction of avoidance classes, bypassing brute
force.

Each supported pattern set has a construction that builds exactly its
avoiders (block decompositions, one-parameter families, or recursions on
where the extreme values sit).  Constructions are transcribed as
printed in their sources; where a printed family provably misses
members, the generator keeps the printed form and the audit records the
divergence from the oracle (see DISCREPANCIES.md for the one known
case).

The members of size n are one column-major integer array with a
member per row, holding 0-based values as the oracle's rows do: entry v
of a member is v - 1 in its row.  Docstrings give the constructions in 1-based values,
as printed.  A recursive step writes each size's rows in blocks: a
constant head or tail is broadcast across a block, and a smaller size's
rows are copied in, raised by a constant where the step shifts values.
The one-parameter and wedge families write one row per parameter value
through the same block writer.  Every family's rows then go through one
pipeline: each row is packed into a key of int64 words, and sorting and
deduplicating the keys gives the members' indices.  The fixed-point
histogram counts the rows as built, with the oracle's counter, at those
indices.  Rows are gathered only when members are asked for.

Generators scale past the oracle: the default cap is 14, since every
class here grows at most like 2^n.  A recursive family builds each size
from the sizes below it.  The module keeps one memo: the sizes of the
recursive family grown last, so that a table walking one family through
n = 0, 1, 2, ... builds each size once.  Asking for another family
replaces it.  Each size's key weights, one small array, are kept too.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from .oracle import CapExceeded
from .perms import PatternSet, Permutation, _from_rows, fixed_points

__all__ = [
    "GENERATOR_CAP",
    "StructuralFamily",
    "UnsupportedFamily",
    "check_size",
    "family_for",
    "generate",
    "generate_refined",
    "generate_rows",
    "supported_families",
]

GENERATOR_CAP = 14

# Row entries; int8 would wrap for members longer than 128, which an
# explicit cap allows.
_ROW = np.int16


class UnsupportedFamily(ValueError):
    """No structural construction is known for the pattern set."""

    def __init__(self, patterns: PatternSet):
        self.patterns = patterns
        super().__init__(
            f"no structural generator for {{{patterns.canonical()}}}; "
            "use the brute-force oracle instead"
        )


def _desc(hi: int, lo: int) -> tuple[int, ...]:
    """Values hi, hi-1, ..., lo (empty when hi < lo)."""
    return tuple(range(hi, lo - 1, -1))


def _asc(lo: int, hi: int) -> tuple[int, ...]:
    """Values lo, lo+1, ..., hi (empty when lo > hi)."""
    return tuple(range(lo, hi + 1))


def _stack(n: int, blocks) -> np.ndarray:
    """Rows of size n, block after block.  A block is a sequence of
    pieces placed left to right: an array of rows gives each of the
    block's rows its own entries, and a tuple of values gives every row
    the same ones.  A block of tuples alone is one row; those rows are
    written at once, after the others.  The array is column-major, so
    that a piece's columns are written down the block's rows."""
    shared, fixed = [], []
    for pieces in blocks:
        (shared if np.ndarray in map(type, pieces) else fixed).append(pieces)
    counts = [next(len(p) for p in pieces if type(p) is np.ndarray) for pieces in shared]
    out = np.empty((sum(counts) + len(fixed), n), dtype=_ROW, order="F")
    top = 0
    for pieces, count in zip(shared, counts):
        left = 0
        for piece in pieces:
            width = piece.shape[1] if type(piece) is np.ndarray else len(piece)
            out[top:top + count, left:left + width] = piece
            left += width
        top += count
    if fixed:
        values = chain.from_iterable(chain.from_iterable(fixed))
        out[top:] = np.fromiter(values, _ROW, len(fixed) * n).reshape(len(fixed), n)
    return out


# The recursive family grown last: its step and its sizes 0..m, as a
# tuple of read-only arrays.  The pair is only ever replaced whole, so a
# reader in any thread sees an old or a new pair and needs no lock.
_grown: tuple[Callable | None, tuple[np.ndarray, ...]] = (None, ())


def _grow(n: int, step: Callable[[int, list[np.ndarray]], np.ndarray]) -> np.ndarray:
    """Size n of a recursive family, size m being ``step(m, below)`` for
    the list ``below`` of sizes 0..m-1.  The sizes of the family grown
    last are kept, so a call for the same step only builds the sizes
    past them; walking a family through n = 0, 1, 2, ... builds each
    size once."""
    global _grown
    last, sizes = _grown
    below = list(sizes) if last is step else [np.zeros((1, 0), dtype=_ROW)]
    if n < len(below):
        return below[n]
    for m in range(len(below), n + 1):
        below.append(step(m, below))
    for rows in below:
        rows.flags.writeable = False
    _grown = (step, tuple(below))
    return below[n]


# ---------------------------------------------------------------------------
# block decompositions (two-pattern classes)
# ---------------------------------------------------------------------------


def _step_123_132(n: int, below: list[np.ndarray]) -> np.ndarray:
    """Blocks with decreasing value ranges, each written as a descending
    run followed by its maximum: a first block on t+1..n, then a member
    of size t."""
    return _stack(n, ((_desc(n - 2, t), (n - 1,), below[t]) for t in range(n)))


def _step_213_132(n: int, below: list[np.ndarray]) -> np.ndarray:
    """Blocks with decreasing value ranges, each an ascending run of
    consecutive values: a first block t+1..n, then a member of size t."""
    return _stack(n, ((_asc(t, n - 1), below[t]) for t in range(n)))


def _gen_123_231(n: int) -> np.ndarray:
    """Either the maximum sits at position i >= 2 inside a double
    descent, or the permutation starts at the maximum and consists of
    three descending runs parametrized by (x, y)."""
    blocks = [(_desc(n - 1, 0),)]
    blocks += [(_desc(i - 2, 0), (n - 1,), _desc(n - 2, i - 1)) for i in range(2, n + 1)]
    blocks += [
        (_desc(n - 1, n - x), _desc(y - 1, 0), _desc(n - x - 1, y))
        for x in range(1, n - 1)
        for y in range(1, n - x)
    ]
    return _stack(n, blocks)


# ---------------------------------------------------------------------------
# recursions on the position of an extreme value
# ---------------------------------------------------------------------------


def _step_132_231(n: int, below: list[np.ndarray]) -> np.ndarray:
    """The maximum is first or last; when first, the rest is a
    descending block, the value 1, then an ascending block.  Members
    that start with n come from those of size n-1 that start with n-1
    (for n = 2, from the single member 1): n-1 goes right after n, into
    the descending block, or last, into the ascending one."""
    prev = below[n - 1]
    blocks = [(prev, (n - 1,))]
    if n >= 2:
        rests = prev[prev[:, 0] == n - 2, 1:]
        blocks.append(((n - 1, n - 2), rests))
        if n > 2:  # at n = 2 both placements give 2,1
            blocks.append(((n - 1,), rests, (n - 2,)))
    return _stack(n, blocks)


def _step_132_321(n: int, below: list[np.ndarray]) -> np.ndarray:
    """The maximum is last, or the values rotate: j+1, ..., n, 1, ..., j."""
    rotations = (np.arange(1, n)[:, None] + np.arange(n)) % n
    return _stack(n, [(below[n - 1], (n - 1,)), (rotations,)])


def _step_231_312(n: int, below: list[np.ndarray]) -> np.ndarray:
    """A prefix on the low values followed by the descending tail
    n, n-1, ..., j."""
    return _stack(n, ((below[j], _desc(n - 1, j)) for j in range(n)))


def _step_231_321(n: int, below: list[np.ndarray]) -> np.ndarray:
    """A prefix on the low values followed by the maximum and then an
    ascending run just below it."""
    return _stack(n, ((below[t], (n - 1,), _asc(t, n - 2)) for t in range(n)))


def _step_231_312_321(n: int, below: list[np.ndarray]) -> np.ndarray:
    """Starts with 1 or with 2,1; the remainder is shifted up."""
    blocks = [((0,), below[n - 1] + 1)]
    if n >= 2:
        blocks.append(((1, 0), below[n - 2] + 2))
    return _stack(n, blocks)


# ---------------------------------------------------------------------------
# one-parameter families (three-pattern classes)
# ---------------------------------------------------------------------------


def _gen_123_132_231(n: int) -> np.ndarray:
    """j top values descending, the rest descending, then n-j last."""
    return _stack(n, ((_desc(n - 1, n - j), _desc(n - j - 2, 0), (n - j - 1,)) for j in range(n)))


def _gen_123_231_312(n: int) -> np.ndarray:
    """j, j-1, ..., 1 followed by n, n-1, ..., j+1."""
    return _stack(n, ((_desc(j - 1, 0), _desc(n - 1, j)) for j in range(1, n + 1)))


def _gen_132_213_231(n: int) -> np.ndarray:
    """j top values descending, then 1, 2, ..., n-j ascending.

    The printed parameter range is 1..n, which repeats the full descent
    and never produces the identity; kept verbatim, flagged by the
    audit.
    """
    return _stack(n, ((_desc(n - 1, n - j), _asc(0, n - j - 1)) for j in range(1, n + 1)))


def _gen_132_213_321(n: int) -> np.ndarray:
    """Cyclic rotations j, j+1, ..., n, 1, 2, ..., j-1."""
    return _stack(n, ((_asc(j - 1, n - 1), _asc(0, j - 2)) for j in range(1, n + 1)))


def _gen_132_231_312(n: int) -> np.ndarray:
    """j, j-1, ..., 1 followed by j+1, j+2, ..., n."""
    return _stack(n, ((_desc(j - 1, 0), _asc(j, n - 1)) for j in range(1, n + 1)))


def _gen_132_231_321(n: int) -> np.ndarray:
    """j first, then 1..j-1 ascending, then j+1..n ascending."""
    return _stack(n, (((j - 1,), _asc(0, j - 2), _asc(j, n - 1)) for j in range(1, n + 1)))


# ---------------------------------------------------------------------------
# registry and public API
# ---------------------------------------------------------------------------


class StructuralFamily(NamedTuple):
    patterns: PatternSet
    kind: str
    build: Callable[[int], np.ndarray]


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


def check_size(n: int, cap: int | None = None) -> None:
    """Refuse structural generation at size n before any work is done,
    under ``cap``, else :data:`GENERATOR_CAP`.  A negative size or cap is
    a bad argument, not a refusal."""
    limit = GENERATOR_CAP if cap is None else cap
    if min(n, limit) < 0:
        raise ValueError(f"size {n} and cap {limit} must be nonnegative")
    if n > limit:
        raise CapExceeded(n, limit, subject="structural generation")


@cache
def _weights(n: int) -> np.ndarray:
    """How rows of size n pack into int64 keys, ``weights @ rows.T``:
    ``max(1, (n-1).bit_length())`` bits an entry and ``63 // bits``
    entries a word, a word's first entry highest, so keys sort as rows.
    One row of weights a word; a vector where one word holds a row
    (n <= 15), so that each key is one int64."""
    bits = max(1, (n - 1).bit_length())
    per_word = 63 // bits
    weights = np.zeros((max(1, -(-n // per_word)), n), dtype=np.int64)
    for j in range(n):
        weights[j // per_word, j] = 1 << bits * (per_word - 1 - j % per_word)
    if len(weights) == 1:
        weights = weights[0]
    weights.flags.writeable = False
    return weights


def _distinct(rows: np.ndarray) -> np.ndarray:
    """The indices of the distinct rows, in lexicographic order, found by
    sorting their keys: one int64 each by a stable argsort, several words
    by ``np.lexsort``.  1,024 rows to a product bounds the product's
    int64 copy, and it reads the column-major rows down their columns."""
    weights = _weights(rows.shape[1])
    keys = np.empty((*weights.shape[:-1], len(rows)), dtype=np.int64)
    for top in range(0, len(rows), 1024):
        np.matmul(weights, rows[top:top + 1024].T, out=keys[..., top:top + 1024])
    order = keys.argsort(kind="stable") if keys.ndim == 1 else np.lexsort(keys[::-1])
    keys = keys[..., order]
    differs = keys[..., 1:] != keys[..., :-1]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = differs if keys.ndim == 1 else differs.any(axis=0)
    return order[keep]


def _built(patterns, n: int, cap: int | None) -> np.ndarray:
    """A family's rows of size n as built: unsorted, maybe repeated."""
    ps = PatternSet(patterns)
    fam = _FAMILIES.get(ps)
    if fam is None:
        raise UnsupportedFamily(ps)
    check_size(n, cap)
    return fam.build(n) if n else np.zeros((1, 0), dtype=_ROW)


def generate_rows(patterns, n: int, *, cap: int | None = None) -> np.ndarray:
    """The members of size n as 0-based rows, distinct and in
    lexicographic order, like the oracle's avoider rows."""
    rows = _built(patterns, n, cap)
    return rows[_distinct(rows)]


def generate(patterns, n: int, *, cap: int | None = None) -> list[Permutation]:
    """Build the avoidance class directly; deduplicated, lexicographic."""
    return list(_from_rows(generate_rows(patterns, n, cap=cap)))


def generate_refined(patterns, n: int, *, cap: int | None = None) -> list[int]:
    """Fixed-point histogram of :func:`generate`, indexed k = 0..n: the
    fixed points of the rows as built, picked out at the members'
    indices, so no member row is gathered."""
    rows = _built(patterns, n, cap)
    return np.bincount(fixed_points(rows)[_distinct(rows)], minlength=n + 1).tolist()
