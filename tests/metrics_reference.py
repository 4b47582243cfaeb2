"""Plain formulas for the scores of one confusion table, the reference
for ``metrics._rates``.

``counts`` is a question's (k, k + 1) table: truth rows in answer-space
order, the unparsed column last. Each metric is a loop or a mean over
the classes it keeps, with no masking, so these share no code with the
stacked scorer; the scorer must still give the same floats.
"""

from __future__ import annotations

import numpy as np


def ref_accuracy(counts):
    k = counts.shape[0]
    return float(np.trace(counts[:, :k]) / int(counts.sum()))


def ref_balanced_accuracy(counts):
    k = counts.shape[0]
    row_sums = counts.sum(axis=1)
    present = row_sums > 0
    return float((np.diag(counts[:, :k])[present] / row_sums[present]).mean())


def ref_macro_f1(counts):
    k = counts.shape[0]
    matrix = counts[:, :k]
    row_sums, col_sums = counts.sum(axis=1), matrix.sum(axis=0)
    scores = [2.0 * matrix[c, c] / (row_sums[c] + col_sums[c])
              for c in range(k) if row_sums[c] or col_sums[c]]
    return float(np.mean(scores))
