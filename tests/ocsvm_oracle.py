"""Frozen reference for the one-class SVM solver's iteration order.

``train_ocsvm_reference`` is the pairwise coordinate-descent solver as it
stood before working-pair selection moved to masked ``argmin``/``argmax``
over preallocated buffers: each iteration gathers the rows that may rise
and the rows that may fall with ``flatnonzero`` and takes the first index of
the extreme gradient in each. The package's solver must reproduce its
coefficients, rho, iteration count, residual and convergence flag bit for
bit. It shares only the kernel-row cache and the parameter checks with the
package; keep the loop below unchanged.
"""

from __future__ import annotations

import warnings

import numpy as np

from noisegate.ocsvm import (
    ConvergenceWarning,
    KernelRowCache,
    KernelSpec,
    OcSvmModel,
    check_nu,
    default_kernel,
)


def train_ocsvm_reference(
    X,
    nu: float = 0.5,
    kernel: KernelSpec | None = None,
    tol: float = 1e-3,
    max_iter: int | None = None,
    cache_bytes: int = 256 << 20,
) -> OcSvmModel:
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n < 2:
        raise ValueError("training requires at least 2 rows")
    check_nu(nu)
    if tol <= 0:
        raise ValueError("tol must be positive")
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

    converged = False
    residual = 0.0
    it = 0
    for it in range(1, max_iter + 1):
        can_up = np.flatnonzero(alpha < C)
        can_down = np.flatnonzero(alpha > 0)
        if can_up.size == 0 or can_down.size == 0:
            converged = True
            break
        i = can_up[np.argmin(g[can_up])]
        j = can_down[np.argmax(g[can_down])]
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
        g += t * (ki - kj)

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
        converged=converged,
        residual=float(residual),
        n_iter=it,
    )
