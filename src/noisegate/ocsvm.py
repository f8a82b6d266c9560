"""One-class SVM: dual QP solved by pairwise coordinate descent.

The training boundary is the minimizer of 0.5 * a^T K a over the feasible
set {0 <= a_i <= 1/(nu*n), sum(a) = 1}. Decision scores are
sum_i a_i k(x_i, x) - rho; negative scores mark anomalies.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

KERNEL_KINDS = ("rbf", "linear")


class ConvergenceWarning(UserWarning):
    pass


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf":
            if self.gamma is None or not 0.0 < self.gamma < math.inf:
                raise ValueError("rbf kernel requires a finite gamma > 0")
        elif self.gamma is not None:
            raise ValueError("gamma is only meaningful for the rbf kernel")


def check_nu(nu: float) -> None:
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must be in (0, 1], got {nu}")


def default_kernel(d: int) -> KernelSpec:
    return KernelSpec("rbf", 1.0 / max(d, 1))


def _matrix_sq_norms(X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", X, X)


def _cross_kernel(spec: KernelSpec, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Full kernel block k(X_i, Z_j) as a dense (n, m) array."""
    dots = X @ Z.T
    if spec.kind == "linear":
        return dots
    d2 = _matrix_sq_norms(X)[:, None] + _matrix_sq_norms(Z)[None, :] - 2.0 * dots
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-spec.gamma * d2)


class KernelRowCache:
    """LRU cache of gram-matrix rows under a byte budget."""

    def __init__(self, X: np.ndarray, spec: KernelSpec, budget_bytes: int):
        self._X = X
        self._spec = spec
        self._sqn = _matrix_sq_norms(X) if spec.kind == "rbf" else None
        self._budget = budget_bytes
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._bytes = 0

    def row(self, i: int) -> np.ndarray:
        cached = self._rows.get(i)
        if cached is not None:
            self._rows.move_to_end(i)
            return cached
        dots = self._X @ self._X[i]
        if self._spec.kind == "linear":
            r = dots
        else:
            d2 = self._sqn + self._sqn[i] - 2.0 * dots
            np.maximum(d2, 0.0, out=d2)
            r = np.exp(-self._spec.gamma * d2)
        self._rows[i] = r
        self._bytes += r.nbytes
        while self._bytes > self._budget and len(self._rows) > 1:
            _, old = self._rows.popitem(last=False)
            self._bytes -= old.nbytes
        return r


@dataclass
class OcSvmModel:
    """Trained boundary: dual coefficients paired with support vectors.

    Only strictly positive coefficients are retained; they sum to 1 and are
    each bounded by 1/(nu * n_train).

    ``train_scores`` holds the decision value of each training row, in row
    order, as train_ocsvm leaves it: the solver's final gradient K @ alpha
    minus rho. It equals ``decision_values(model, X_train)`` up to rounding
    (about 1e-15), without a second kernel pass. It is None on a model built
    by hand.
    """

    support_vectors: np.ndarray
    alphas: np.ndarray
    rho: float
    nu: float
    kernel: KernelSpec
    support_indices: np.ndarray | None = None
    n_train: int | None = None
    converged: bool = True
    residual: float = 0.0
    n_iter: int = 0
    train_scores: np.ndarray | None = None


def train_ocsvm(
    X,
    nu: float = 0.5,
    kernel: KernelSpec | None = None,
    tol: float = 1e-3,
    max_iter: int | None = None,
    cache_bytes: int = 256 << 20,
) -> OcSvmModel:
    """Fit the boundary on unlabeled rows X.

    The solver repeatedly picks the pair of coordinates with the largest
    mutual optimality violation and solves the two-variable subproblem
    analytically, preserving the simplex constraint at every step. If the
    iteration budget runs out first, the model is returned with
    ``converged=False`` and the remaining violation in ``residual``
    alongside a warning. Either way the rows' decision values are returned
    in ``train_scores``.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n < 2:
        raise ValueError("training requires at least 2 rows")
    check_nu(nu)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    # a NaN or inf would make every gradient NaN, and the solver spin to max_iter
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"row {int(bad[0])} holds a non-finite value")
    if kernel is None:
        kernel = default_kernel(d)
    if max_iter is None:
        max_iter = max(100_000, 10 * n * d)

    C = 1.0 / (nu * n)
    alpha = np.zeros(n)
    n_at_bound = int(np.floor(nu * n))
    alpha[:n_at_bound] = C
    if n_at_bound < n:
        alpha[n_at_bound] = (nu * n - n_at_bound) * C

    cache = KernelRowCache(X, kernel, cache_bytes)
    g = np.zeros(n)
    for j in np.flatnonzero(alpha > 0):
        g += alpha[j] * cache.row(j)

    # up holds g where a row may rise and +inf where it sits at C; down holds
    # g where a row may fall and -inf where it sits at 0. argmin/argmax over
    # a whole buffer then take the first index of the extreme, as a search
    # over just the movable rows would.
    up = np.where(alpha < C, g, np.inf)
    down = np.where(alpha > 0, g, -np.inf)
    converged = False
    residual = 0.0
    it = 0
    for it in range(1, max_iter + 1):
        i = int(np.argmin(up))
        j = int(np.argmax(down))
        if up[i] == np.inf or down[j] == -np.inf:
            converged = True
            break
        residual = g[j] - g[i]
        if residual < tol:
            converged = True
            residual = max(residual, 0.0)
            break
        ki = cache.row(i)
        kj = cache.row(j)
        curv = max(ki[i] + kj[j] - 2.0 * ki[j], 1e-12)
        t = min(residual / curv, C - alpha[i], alpha[j])
        cap_i = C - alpha[i]
        cap_j = alpha[j]
        alpha[i] += t
        alpha[j] -= t
        if t == cap_i:
            alpha[i] = C
        if t == cap_j:
            alpha[j] = 0.0
        step = t * (ki - kj)
        g += step
        up += step
        down += step
        for k in (i, j):
            up[k] = g[k] if alpha[k] < C else np.inf
            down[k] = g[k] if alpha[k] > 0 else -np.inf

    if not converged:
        warnings.warn(
            f"stopped after {max_iter} iterations with optimality gap "
            f"{residual:.3g} (tol {tol:.3g})",
            ConvergenceWarning,
            stacklevel=2,
        )

    free = (alpha > 0) & (alpha < C)
    at_bound = alpha == C
    at_zero = alpha == 0
    if free.any():
        rho = float(g[free].mean())
    elif at_zero.any():
        rho = float((g[at_bound].max() + g[at_zero].min()) / 2.0)
    else:
        rho = float(g[at_bound].max())

    keep = np.flatnonzero(alpha > 0)
    return OcSvmModel(
        support_vectors=X[keep],
        alphas=alpha[keep].copy(),
        rho=rho,
        nu=nu,
        kernel=kernel,
        support_indices=keep,
        n_train=n,
        converged=converged,
        residual=float(residual),
        n_iter=it,
        train_scores=g - rho,
    )


def decision_values(model: OcSvmModel, X) -> np.ndarray:
    """Scores for a batch of rows; larger means more inlier-like."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.support_vectors.shape[1]:
        raise ValueError("query dimension does not match support vectors")
    cross = _cross_kernel(model.kernel, X, model.support_vectors)
    return cross @ model.alphas - model.rho


def kkt_residual(model: OcSvmModel, X) -> float:
    """Maximum optimality violation of the model over its training rows.

    Requires either ``support_indices`` (set by train_ocsvm) or a model
    whose coefficients correspond 1:1 with the rows of X.
    """
    n = X.shape[0]
    alpha = np.zeros(n)
    if model.support_indices is not None:
        alpha[model.support_indices] = model.alphas
    elif model.alphas.shape[0] == n:
        alpha[:] = model.alphas
    else:
        raise ValueError("cannot align coefficients with training rows")
    C = 1.0 / (model.nu * n)
    g = decision_values(model, X) + model.rho
    box = max(0.0, float(-alpha.min()), float(alpha.max() - C))
    simplex = abs(float(alpha.sum()) - 1.0)
    can_up = alpha < C
    can_down = alpha > 0
    pair = 0.0
    if can_up.any() and can_down.any():
        pair = max(0.0, float(g[can_down].max() - g[can_up].min()))
    return max(box, simplex, pair)
