"""Small dense linear algebra: the thin SVD behind the camera reduction.

Matrices are plain 2-D numpy arrays, row-major, float32 by default with a
float64 mode for high-precision checks.  The SVD is a one-sided Jacobi
iteration, adequate for the small classifier matrices this package factors
(tens of rows, a few hundred columns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Convergence of the Jacobi sweeps: a column pair counts as orthogonal once
# |g_p . g_q| <= JACOBI_TOL * ||g_p|| * ||g_q||.
JACOBI_TOL = 1e-10
JACOBI_MAX_SWEEPS = 60


@dataclass(frozen=True)
class SvdResult:
    """Thin factorization w = u @ diag(sigma) @ vt with r = min(m, n)."""

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray


def _require_matrix(w) -> np.ndarray:
    a = np.asarray(w)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix contains non-finite entries")
    return a


def _jacobi_tall(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD of a with m >= n, computed in float64.

    Rotates column pairs of g = a @ v until all pairs are mutually orthogonal;
    the column norms are then the singular values.
    """
    m, n = a.shape
    g = a.astype(np.float64, copy=True)
    v = np.eye(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        worst = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                gp = g[:, p]
                gq = g[:, q]
                alpha = float(gp @ gp)
                beta = float(gq @ gq)
                gamma = float(gp @ gq)
                denom = np.sqrt(alpha * beta)
                if denom == 0.0:
                    continue
                ratio = abs(gamma) / denom
                worst = max(worst, ratio)
                if ratio <= JACOBI_TOL:
                    continue
                # Angle that zeroes the (p, q) inner product.
                theta = 0.5 * np.arctan2(2.0 * gamma, beta - alpha)
                c = np.cos(theta)
                s = np.sin(theta)
                gp_new = c * gp - s * gq
                gq_new = s * gp + c * gq
                g[:, p] = gp_new
                g[:, q] = gq_new
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
        if worst <= JACOBI_TOL:
            break

    sigma = np.sqrt(np.sum(g * g, axis=0))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    g = g[:, order]
    v = v[:, order]

    u = np.zeros((m, n))
    cutoff = sigma[0] * 1e-13 if sigma.size and sigma[0] > 0 else 0.0
    filled = []
    for j in range(n):
        if sigma[j] > cutoff:
            u[:, j] = g[:, j] / sigma[j]
            filled.append(j)
        else:
            sigma[j] = 0.0
    # Rank-deficient columns: complete u to an orthonormal set from the
    # canonical basis so the output is deterministic.
    for j in range(n):
        if sigma[j] > cutoff:
            continue
        for k in range(m):
            cand = np.zeros(m)
            cand[k] = 1.0
            for f in filled:
                cand -= (u[:, f] @ cand) * u[:, f]
            norm = np.linalg.norm(cand)
            if norm > 1e-8:
                u[:, j] = cand / norm
                filled.append(j)
                break
    return u, sigma, v.T


def svd_thin(w) -> SvdResult:
    """Thin SVD with singular values sorted descending.

    Returns u (m x r), sigma (r,), vt (r x n) with r = min(m, n).  Columns of
    u and rows of vt are orthonormal even when w is rank deficient.  Output
    dtype follows the input (float32 stays float32); the iteration itself
    runs in float64.
    """
    a = _require_matrix(w)
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise InvalidInputError("cannot factor an empty matrix")
    out_dtype = a.dtype if a.dtype in (np.float32, np.float64) else np.float64
    if a.shape[0] >= a.shape[1]:
        u, sigma, vt = _jacobi_tall(a)
    else:
        ut, sigma, vtt = _jacobi_tall(a.T)
        u = vtt.T
        vt = ut.T
    return SvdResult(
        u=u.astype(out_dtype, copy=False),
        sigma=sigma.astype(out_dtype, copy=False),
        vt=vt.astype(out_dtype, copy=False),
    )
