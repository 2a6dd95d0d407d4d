"""Element-wise numeric kernels shared across layers.

Lives at the substrate layer so the recurrent trainer (``repro.ml``), the
compiled LSTM forecaster (``repro.perf``) and SRR's share link
(``repro.core``) all call one implementation.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """Overflow-free logistic function, ``exp(min(x, 0)) / (1 + exp(-|x|))``.

    Bitwise equal to the classic two-branch form — ``1 / (1 + exp(-x))``
    for ``x >= 0`` and ``exp(x) / (1 + exp(x))`` otherwise — because each
    branch is the same expression with ``exp(0) == 1`` in the numerator,
    but it needs no boolean mask, gather or scatter: a handful of
    full-array ufunc calls regardless of the sign pattern. Element-local,
    so the result for an element never depends on the array it sits in.
    ``out`` may alias ``x``.
    """
    num = np.minimum(x, 0.0)
    np.exp(num, out=num)
    den = np.abs(x)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    return np.divide(num, den, out=out)
