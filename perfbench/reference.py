"""NumPy references for the benchmark's outputs.

Each function restates the algorithm the workload runs, on the same
generated inputs, with plain NumPy.  Nothing here imports ``repro``: a
result is checked against arithmetic the system under test never
touched, not against another configuration of that system.
"""

from __future__ import annotations

import numpy as np

#: tolerance for outputs whose summation order differs from NumPy's
#: (block-partitioned matmuls on the Spark simulator, fused chains).
RTOL = 1e-6
ATOL = 1e-9

_EPS = 1e-8  # PNMF's divide guard


def l2svm_step(X: np.ndarray, y: np.ndarray, w: np.ndarray,
               reg: float) -> np.ndarray:
    """One squared-hinge L2-SVM gradient step from ``w``."""
    margin = y * (X @ w)
    residual = (margin - 1.0) * (margin < 1.0)
    grad = ((residual * y).T @ X).T + w * reg
    return w + grad * (-1.0 / (reg + X.shape[0]))


def pnmf(X: np.ndarray, W: np.ndarray, H: np.ndarray,
         iterations: int) -> tuple[list[np.ndarray], np.ndarray, float]:
    """Multiplicative PNMF updates: (H after each iteration, W, loss)."""
    hs = []
    for _ in range(iterations):
        ratio = X / (W @ H + _EPS)
        H = H * (W.T @ ratio) / (W.sum(axis=0)[:, None] + _EPS)
        ratio = X / (W @ H + _EPS)
        W = W * (ratio @ H.T) / (H.sum(axis=1)[None, :] + _EPS)
        hs.append(H)
    WH = W @ H + _EPS
    loss = float((WH - X * np.log(WH)).sum())
    return hs, W, loss


def mlp_top_score(x: np.ndarray, weights: list[np.ndarray],
                  biases: list[np.ndarray]) -> float:
    """Largest softmax probability of a ReLU MLP on one input row."""
    h = x
    for W, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ W + b, 0.0)
    z = h @ weights[-1] + biases[-1]
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return float((e / e.sum(axis=1, keepdims=True)).max())


def ridge(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Ridge-regression coefficients by the normal equations."""
    return np.linalg.solve(X.T @ X + lam * np.eye(X.shape[1]), X.T @ y)


def close(actual, expected) -> bool:
    """Whether an output matches its reference within the tolerance."""
    return bool(np.allclose(actual, expected, rtol=RTOL, atol=ATOL))
