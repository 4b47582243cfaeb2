"""Scalar reference for ``kinematics.smooth_savgol``, solved another way.

The engine solves the normal equations of the least-squares fit. Here
the same hat matrix comes from the discrete orthogonal (Gram)
polynomials of the offsets 0..window-1, built by Gram-Schmidt in exact
rationals: ``H[p][q] = sum_k P_k(p) P_k(q) / <P_k, P_k>``. Both are exact,
so every weight must round to the same float.

``savgol_reference`` applies the rounded weights one output at a time in
Python floats, in the documented order: ``w[0] * x[0] + w[1] * x[1] +
...`` added left to right over the output's window. ``savgol_exact`` is
the unrounded result, for error bounds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import numpy as np


@cache
def gram_hat_matrix(window: int, poly_order: int) -> tuple[tuple[Fraction, ...], ...]:
    """The exact (window, window) hat matrix of the degree ``poly_order``
    fit on the offsets 0..window-1, from Gram polynomials."""
    points = range(window)
    basis: list[list[Fraction]] = []  # P_k at each point
    for k in range(poly_order + 1):
        column = [Fraction(x) ** k for x in points]
        for prev in basis:
            scale = sum(a * b for a, b in zip(column, prev)) / sum(b * b for b in prev)
            column = [a - scale * b for a, b in zip(column, prev)]
        basis.append(column)
    norms = [sum(b * b for b in column) for column in basis]
    return tuple(
        tuple(sum(column[p] * column[q] / norm for column, norm in zip(basis, norms))
              for q in points)
        for p in points
    )


def _windows(n: int, window: int):
    """(row of the hat matrix, first sample of its window) per output."""
    half = window // 2
    for i in range(n):
        if i < half:
            yield i, 0
        elif i < n - half:
            yield half, i - half
        else:
            yield i - (n - window), n - window


def savgol_reference(values, window: int, poly_order: int) -> np.ndarray:
    """The filter along the last axis, one output at a time in floats."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    weights = [[float(w) for w in row] for row in gram_hat_matrix(window, poly_order)]
    out = []
    for row in values.reshape(-1, n).tolist():
        for p, start in _windows(n, window):
            total = weights[p][0] * row[start]
            for j in range(1, window):
                total = total + weights[p][j] * row[start + j]
            out.append(total)
    return np.array(out).reshape(values.shape)


def savgol_exact(values, window: int, poly_order: int) -> list[list[Fraction]]:
    """The exact filter output of each row of ``values``, in rationals."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    hat = gram_hat_matrix(window, poly_order)
    rows = [[Fraction(x) for x in row] for row in values.reshape(-1, n).tolist()]
    return [
        [sum(h * x for h, x in zip(hat[p], row[start:start + window]))
         for p, start in _windows(n, window)]
        for row in rows
    ]
