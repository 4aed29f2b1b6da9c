"""Camera components reduction: delete camera-predictive embedding directions.

A bias-free linear softmax classifier W (cameras x embedding dim) is fit on
frozen embeddings.  Its rows are centered by their mean, the centered matrix
is factored with numpy's thin SVD, and the top-k right singular vectors V
span the camera-discriminative subspace.  The reducer

    f_reduced = (I - V V^T) f

removes that subspace.  With k equal to the number of cameras, every
centered classifier logit of a projected embedding collapses to zero and the
softmax over cameras becomes uniform: the reduced embedding carries no
linearly decodable camera information.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CameraClassifier:
    weight: np.ndarray  # m x n, one row per camera, no bias
    holdout_accuracy: float


@dataclass(frozen=True)
class CcrProjector:
    v: np.ndarray  # n x k, orthonormal columns
    centering: np.ndarray  # mean classifier row, length n
    k: int
    m: int
    n: int


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - m)
    return ex / ex.sum(axis=1, keepdims=True)


def fit_camera_classifier(
    embeddings: np.ndarray,
    camera_labels: np.ndarray,
    epochs: int = 30,
    lr: float = 0.5,
    batch_size: int = 512,
    holdout_frac: float = 0.1,
    seed: int = 0,
) -> CameraClassifier:
    """Fit the linear camera head with mini-batch SGD on cross-entropy.

    Labels must be 0..m-1 with every camera present.  A seeded slice is held
    out to report accuracy; the returned weight is trained on the rest.
    Floating-point embeddings are read in their own dtype and widened to
    float64 a batch at a time, for training and for the hold-out score;
    widening is exact, so float32 embeddings give the same weight bits and
    accuracy as their float64 copy.
    """
    x = np.asarray(embeddings)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    y = np.asarray(camera_labels, dtype=np.int64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise InvalidInputError("embeddings and camera labels do not align")
    if x.shape[0] < 2:
        raise InvalidInputError("need at least 2 samples")
    m = int(y.max()) + 1 if y.size else 0
    if m < 2:
        raise InvalidInputError("need at least 2 cameras")
    counts = np.bincount(y, minlength=m)
    if np.any(counts == 0) or np.any(y < 0):
        raise InvalidInputError("camera labels must cover 0..m-1 with every camera present")
    n = x.shape[1]
    if m > n:
        raise InvalidInputError("more cameras than embedding dimensions")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 515])))
    perm = rng.permutation(x.shape[0])
    n_hold = int(round(holdout_frac * x.shape[0]))
    n_hold = min(max(n_hold, 1), x.shape[0] - 1)
    hold, train = perm[:n_hold], perm[n_hold:]

    w = 0.01 * rng.standard_normal((m, n))
    onehot = np.eye(m)
    # No row set is copied out of ``x``: each batch of training or hold-out
    # rows is gathered into a buffer of x's dtype and widened into a float64
    # one.  Both buffers serve every batch, since a fresh batch_size x n array
    # per step would be mapped and faulted in anew each time it is past
    # malloc's mmap threshold.
    rows = min(batch_size, len(train))
    batch = np.empty((rows, n))
    gathered = batch if x.dtype == batch.dtype else np.empty((rows, n), dtype=x.dtype)

    def widened(idx: np.ndarray) -> np.ndarray:
        k = len(idx)
        # mode="clip" lets take write into ``out`` unbuffered; idx holds row
        # numbers of x, so no index is ever clipped.
        np.take(x, idx, axis=0, out=gathered[:k], mode="clip")
        if gathered is not batch:
            np.copyto(batch[:k], gathered[:k])
        return batch[:k]

    for _ in range(epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(train), batch_size):
            idx = train[order[start : start + batch_size]]
            xb = widened(idx)
            probs = _softmax_rows(xb @ w.T)
            grad = (probs - onehot[y[idx]]).T @ xb / len(idx)
            w -= lr * grad

    batches = (hold[s : s + rows] for s in range(0, n_hold, rows))
    acc = sum(int(((widened(idx) @ w.T).argmax(axis=1) == y[idx]).sum()) for idx in batches) / n_hold
    log.info("camera classifier held-out accuracy: %.3f", acc)
    return CameraClassifier(weight=w, holdout_accuracy=acc)


def build_projector(weight: np.ndarray, k: int | None = None) -> CcrProjector:
    """Span of the centered classifier weight's top-k right singular vectors.

    Defaults to k = m, which nulls every centered logit exactly.  The
    centered matrix has rank at most m-1, so its first m-1 right singular
    vectors already span its rows; the m-th is LAPACK's orthonormal
    completion of a zero singular value, an arbitrary direction that carries
    no camera signal.
    """
    w = np.asarray(weight)
    if w.ndim != 2:
        raise InvalidInputError("classifier weight must be a matrix")
    if not np.all(np.isfinite(w)):
        raise InvalidInputError("classifier weight contains non-finite entries")
    m, n = w.shape
    if m < 2 or m > n:
        raise InvalidInputError("classifier must have 2 <= cameras <= embedding dim")
    if k is None:
        k = m
    if not 1 <= k <= m:
        raise InvalidInputError(f"k must lie in [1, {m}]")
    centering = w.mean(axis=0)
    centered = w - centering
    _, _, vt = np.linalg.svd(centered.astype(np.float64), full_matrices=False)
    v = vt[:k].T
    return CcrProjector(v=v, centering=centering.astype(np.float64), k=k, m=m, n=n)


def apply_ccr(projector: CcrProjector, embeddings: np.ndarray) -> np.ndarray:
    """Remove the camera subspace from each row: f - V (V^T f)."""
    a = np.asarray(embeddings)
    if a.ndim != 2 or a.shape[1] != projector.n:
        raise InvalidInputError(f"embeddings of shape {a.shape} are not rows of width {projector.n}")
    v = projector.v.astype(a.dtype, copy=False)
    return a - (a @ v) @ v.T


def nullification_check(weight: np.ndarray, projector: CcrProjector, embeddings: np.ndarray) -> tuple[float, float]:
    """Residual camera signal after reduction.

    Returns the largest |centered logit| over all samples and cameras, and
    the largest deviation of the camera softmax from uniform 1/m.  Both are
    ~0 when the projector was built with k = m; with k < m the residuals are
    reported as-is.
    """
    centered = np.asarray(weight) - projector.centering
    logits = apply_ccr(projector, embeddings) @ centered.T
    probs = _softmax_rows(logits)
    max_logit = float(np.abs(logits).max()) if logits.size else 0.0
    max_dev = float(np.abs(probs - 1.0 / projector.m).max()) if probs.size else 0.0
    return max_logit, max_dev
