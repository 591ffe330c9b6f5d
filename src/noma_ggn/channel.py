"""Ordered Rayleigh fading: order-statistics density and sorted-gain sampling.

Users are ranked by channel gain, so the l-th user's envelope is the l-th
smallest of L i.i.d. Rayleigh draws with per-draw density w * exp(-w^2 / 2).
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import DomainError

__all__ = ["ordered_pdf", "sample_ordered_gains"]

# rows of Rayleigh draws sample_ordered_gains takes from the stream at once
_DRAW_ROWS = 8192


def _check_indices(L: int, l: int) -> None:
    if L < 1:
        raise DomainError(f"user count must be >= 1, got {L!r}")
    if not 1 <= l <= L:
        raise DomainError(f"user index must be in 1..{L}, got {l!r}")


def _order_coeff(L: int, l: int) -> float:
    """A_l = L! / [(l-1)! (L-l)!] = L C(L-1, l-1) of the l-th of L gains."""
    _check_indices(L, l)
    return float(L * math.comb(L - 1, l - 1))


def ordered_pdf(L: int, l: int, w: float) -> float:
    """Density of the l-th smallest of L Rayleigh gains at the float w >= 0.

    Equals A_l * w * sum_i C(l-1, i) (-1)^i exp(-delta_{l,i} w^2 / 2) with
    delta_{l,i} = L - l + 1 + i; evaluated with math in the equivalent
    product form A_l * w * exp(-(L-l+1) w^2 / 2) * (1 - exp(-w^2 / 2))^(l-1),
    which stays accurate at small w where the alternating sum cancels.
    """
    half_w2 = 0.5 * w * w
    decay = math.exp(-(L - l + 1) * half_w2)
    return _order_coeff(L, l) * w * decay * (-math.expm1(-half_w2)) ** (l - 1)


def sample_ordered_gains(L: int, rng: np.random.Generator, size: int, out=None):
    """size ascending vectors of L gains: draw L i.i.d. Rayleigh, sort.

    Returns shape (size, L), rows sorted ascending. The sort is an insertion
    network of compare-swaps (minimum and maximum, so the values are those
    np.sort gives) over whole columns: column k of the result is one
    contiguous array of the k-th smallest gains, and no row needs a sort
    call of its own. With out (a float64 array of shape (L, size)) the
    columns are written to its rows and out.T is returned.
    """
    _check_indices(L, 1)
    rows = np.empty((L, size)) if out is None else out
    # the draws come _DRAW_ROWS rows at a time, in stream order, so the
    # unsorted copy never holds more than that many rows
    for start in range(0, size, _DRAW_ROWS):
        draws = rng.rayleigh(scale=1.0, size=(min(_DRAW_ROWS, size - start), L))
        part = rows[:, start : start + len(draws)]
        part[0] = draws[:, 0]
        for i in range(1, L):
            # sift draw i down through the i sorted rows, carried in its column
            carry = draws[:, i]
            for j in range(i, 0, -1):
                np.maximum(part[j - 1], carry, out=part[j])
                np.minimum(part[j - 1], carry, out=carry)
            part[0] = carry
    return rows.T
