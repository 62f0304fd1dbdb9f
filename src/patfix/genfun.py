"""Integer polynomials and rational generating functions, all exact.

The one family this package needs in closed form is the {231,321}
avoiders refined by fixed points: for each k the counts are generated by
x^k (1-x)^(k+1) / (1-x-x^2)^(k+1).  Series expansion runs the linear
recurrence induced by the denominator, never floating point.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "RationalGF",
    "gf_for_k",
    "poly_mul",
    "poly_pow",
    "poly_text",
    "series_coefficients",
    "sum_over_k",
]


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_mul(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def poly_pow(p: Sequence[int], e: int) -> tuple[int, ...]:
    """p^e by J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7).

    With p = x^s q and q_0 != 0, the coefficients of q^e are a_0 = q_0^e
    and a_j = sum_{i=1..min(j,d)} ((e+1) i - j) q_i a_{j-i} / (j q_0),
    where d = deg q.  The division is exact, so it runs in integers, and
    the cost is O(e d^2) rather than the O(e^2 d) of repeated products.
    """
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if e == 0:
        return (1,)
    q = _trim(p)
    if not q:
        return ()
    s = 0
    while q[s] == 0:
        s += 1
    q = q[s:]
    d, q0 = len(q) - 1, q[0]
    a = [q0**e]
    for j in range(1, e * d + 1):
        acc = 0
        for i in range(1, min(j, d) + 1):
            acc += ((e + 1) * i - j) * q[i] * a[j - i]
        a.append(acc // (j * q0))
    return (0,) * (s * e) + tuple(a)


def poly_text(coeffs: Sequence[int]) -> str:
    """Render "1 - x - x^2" style."""
    terms: list[str] = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            x = "x" if i == 1 else f"x^{i}"
            body = x if mag == 1 else f"{mag}{x}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(("+ " if c > 0 else "- ") + body)
    return " ".join(terms) if terms else "0"


class _Ratio(NamedTuple):
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]


class RationalGF(_Ratio):
    """Ratio of two integer polynomials (coefficient index = power of x).

    The denominator's constant term must be nonzero so that a power
    series expansion exists.
    """

    __slots__ = ()

    def __new__(cls, numerator: Iterable[int], denominator: Iterable[int]) -> RationalGF:
        denominator = _trim(denominator)
        if not denominator or denominator[0] == 0:
            raise ValueError("denominator needs a nonzero constant term")
        return super().__new__(cls, _trim(numerator), denominator)

    @classmethod
    def _make(cls, iterable: Iterable) -> RationalGF:
        # namedtuple's _make, and so _replace, would skip __new__.
        return cls(*iterable)

    def __str__(self) -> str:
        return f"({poly_text(self.numerator)}) / ({poly_text(self.denominator)})"


@lru_cache(maxsize=None)
def gf_for_k(k: int) -> RationalGF:
    """Generating function of the {231,321} avoiders with exactly k
    fixed points: x^k (1-x)^(k+1) / (1-x-x^2)^(k+1), fully expanded."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    xk = (0,) * k + (1,)
    num = poly_mul(xk, poly_pow((1, -1), k + 1))
    den = poly_pow((1, -1, -1), k + 1)
    return RationalGF(num, den)


def series_coefficients(gf: RationalGF, m: int) -> list[int]:
    """First m+1 Maclaurin coefficients of ``gf`` by exact long division.

    It runs in integers from the numerator's lowest term on; a step that
    leaves a remainder yields a non-integer coefficient and raises, which
    cannot happen when the denominator's constant term is +-1.

    >>> series_coefficients(gf_for_k(2), 9)
    [0, 0, 1, 0, 3, 3, 9, 15, 31, 57]
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    num, den = gf.numerator, gf.denominator
    d0 = den[0]
    low = next((i for i, c in enumerate(num) if c), m + 1)
    series = [0] * min(low, m + 1)
    for i in range(len(series), m + 1):
        acc = num[i] if i < len(num) else 0
        for j in range(1, min(i - low, len(den) - 1) + 1):
            acc -= den[j] * series[i - j]
        coeff, rem = divmod(acc, d0)
        if rem:
            raise ValueError(
                "series has non-integer coefficients; the denominator's "
                "constant term is not +-1"
            )
        series.append(coeff)
    return series


def sum_over_k(k_max: int, m: int) -> list[int]:
    """Coefficientwise sum of the series of gf_for_k(0..k_max), through x^m.

    Requires k_max >= m: gf_for_k(k) has no terms below x^k, so every
    omitted k > k_max contributes nothing up to x^m and the truncation
    is exact.  The result is the expansion of (1-x)/(1-2x).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k_max < m:
        raise ValueError(f"k_max ({k_max}) must be at least m ({m}) for an exact truncation")
    total = [0] * (m + 1)
    for k in range(k_max + 1):
        for i, c in enumerate(series_coefficients(gf_for_k(k), m)):
            total[i] += c
    return total
