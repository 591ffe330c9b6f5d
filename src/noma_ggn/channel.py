"""Ordered Rayleigh fading: order-statistics density and sorted-gain sampling.

Users are ranked by channel gain, so the l-th user's envelope is the l-th
smallest of L i.i.d. Rayleigh draws with per-draw density w * exp(-w^2 / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError

__all__ = ["OrderStatsTerm", "order_terms", "ordered_pdf", "sample_ordered_gains"]

# rows of Rayleigh draws sample_ordered_gains takes from the stream at once
_DRAW_ROWS = 8192


@dataclass(frozen=True)
class OrderStatsTerm:
    """One term of the order-statistics expansion for user l of L.

    a_l = L! / [(l-1)! (L-l)!] is shared by all terms of a user; the i-th
    term carries exponent coefficient delta = L - l + 1 + i and sign (-1)^i
    (the sign is applied by the caller).
    """

    l: int
    i: int
    a_l: float
    delta: int


def _check_indices(L: int, l: int) -> None:
    if L < 1:
        raise DomainError(f"user count must be >= 1, got {L!r}")
    if not 1 <= l <= L:
        raise DomainError(f"user index must be in 1..{L}, got {l!r}")


def _order_coeff(L: int, l: int) -> float:
    """A_l = L! / [(l-1)! (L-l)!] of the l-th of L ordered gains."""
    _check_indices(L, l)
    return math.factorial(L) / (math.factorial(l - 1) * math.factorial(L - l))


def order_terms(L: int, l: int) -> list[OrderStatsTerm]:
    """The l expansion terms (i = 0 .. l-1) for the l-th of L ordered gains."""
    a_l = _order_coeff(L, l)
    return [OrderStatsTerm(l=l, i=i, a_l=a_l, delta=L - l + 1 + i) for i in range(l)]


def ordered_pdf(L: int, l: int, w):
    """Density of the l-th smallest of L Rayleigh gains at w >= 0.

    Equals A_l * w * sum_i C(l-1, i) (-1)^i exp(-delta_{l,i} w^2 / 2);
    evaluated in the equivalent product form
    A_l * w * exp(-(L-l+1) w^2 / 2) * (1 - exp(-w^2 / 2))^(l-1),
    which stays accurate at small w where the alternating sum cancels.
    A Python float w is evaluated with math; anything else goes through
    numpy, and an array gives an array.
    """
    a_l = _order_coeff(L, l)
    if type(w) is float:
        half_w2 = 0.5 * w * w
        return a_l * w * math.exp(-(L - l + 1) * half_w2) * (-math.expm1(-half_w2)) ** (l - 1)
    w = np.asarray(w, dtype=float)
    half_w2 = 0.5 * w * w
    out = (
        a_l
        * w
        * np.exp(-(L - l + 1) * half_w2)
        * (-np.expm1(-half_w2)) ** (l - 1)
    )
    return out if out.ndim else float(out)


def sample_ordered_gains(L: int, rng: np.random.Generator, size=None, out=None):
    """Ascending vector(s) of L gains: draw L i.i.d. Rayleigh, sort.

    With size=None returns shape (L,); with integer size returns (size, L),
    rows sorted ascending. The sort is an insertion network of compare-swaps
    (minimum and maximum, so the values are those np.sort gives) over whole
    columns: column k of the result is one contiguous array of the k-th
    smallest gains, and no row needs a sort call of its own. With out (a
    float64 array of shape (L, size)) the columns are written to its rows
    and out.T is returned.
    """
    _check_indices(L, 1)
    n = 1 if size is None else size
    rows = np.empty((L, n)) if out is None else out
    # the draws come _DRAW_ROWS rows at a time, in stream order, so the
    # unsorted copy never holds more than that many rows
    for start in range(0, n, _DRAW_ROWS):
        draws = rng.rayleigh(scale=1.0, size=(min(_DRAW_ROWS, n - start), L))
        part = rows[:, start : start + len(draws)]
        part[0] = draws[:, 0]
        for i in range(1, L):
            # sift draw i down through the i sorted rows, carried in its column
            carry = draws[:, i]
            for j in range(i, 0, -1):
                np.maximum(part[j - 1], carry, out=part[j])
                np.minimum(part[j - 1], carry, out=carry)
            part[0] = carry
    return rows.T[0] if size is None else rows.T
