"""Imbalance-aware MSE losses with analytic gradients.

Both losses accumulate in 64-bit regardless of input dtype so the analytic
gradients verify cleanly against central finite differences.
"""

from __future__ import annotations

import numpy as np


def _as64(p, y):
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {y.shape}")
    return p, y


def loss_weighted_mse(p, y, alpha: float = 0.1) -> tuple[float, np.ndarray]:
    """mean((p - y)^2 * (y + alpha)); the target itself weights each residual.

    Returns (loss, dloss/dp).
    """
    p, y = _as64(p, y)
    n = p.size
    resid = p - y
    weight = y + alpha
    loss = float(np.mean(resid * resid * weight))
    grad = 2.0 * resid * weight / n
    return loss, grad


def loss_balanced_mse(p, y, epsilon: float = 1e-6) -> tuple[float, np.ndarray]:
    """Sum of separately normalized positive- and negative-region MSE terms.

    L_pos = sum((p-y)^2 * y) / (sum(y) + eps)
    L_neg = sum((p-y)^2 * (1-y)) / (sum(1-y) + eps)

    The denominators depend only on the target, so the gradient in p is the
    quotient of the numerator gradients. Returns (loss, dloss/dp).
    """
    p, y = _as64(p, y)
    resid = p - y
    sq = resid * resid
    pos_den = float(np.sum(y)) + epsilon
    neg_den = float(np.sum(1.0 - y)) + epsilon
    l_pos = float(np.sum(sq * y)) / pos_den
    l_neg = float(np.sum(sq * (1.0 - y))) / neg_den
    grad = 2.0 * resid * (y / pos_den + (1.0 - y) / neg_den)
    return l_pos + l_neg, grad


LOSSES = {
    "weighted": loss_weighted_mse,
    "balanced": loss_balanced_mse,
}
