"""Small shared numeric helpers (stable softmax, sigmoid)."""

from __future__ import annotations

import numpy as np


def stable_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with max subtraction so large logits cannot overflow."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def sigmoid(x: float | np.ndarray) -> float | np.ndarray:
    # Split on sign so exp never sees a large positive argument.
    return np.where(
        np.asarray(x) >= 0,
        1.0 / (1.0 + np.exp(-np.abs(x))),
        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
    )
