"""Camera-subspace reduction: projector algebra and logit nullification."""

import tracemalloc

import numpy as np
import pytest

from camreid import ccr
from camreid.errors import InvalidInputError


def test_build_projector_axis_aligned_hand_case():
    # Rows +-e3 center to zero, so the centered matrix is the rows
    # themselves; the camera direction is e3 and k=1 removes exactly it:
    # P (1,2,3) = (1,2,0).
    w = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    proj = ccr.build_projector(w, k=1)
    assert np.allclose(proj.centering, 0.0, atol=1e-12)
    assert np.allclose(np.abs(proj.v[:, 0]), [0.0, 0.0, 1.0], atol=1e-10)
    out = ccr.apply_ccr(proj, np.array([[1.0, 2.0, 3.0]]))
    assert np.allclose(out, [[1.0, 2.0, 0.0]], atol=1e-10)


def test_apply_ccr_leaves_orthogonal_directions_alone():
    w = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    proj = ccr.build_projector(w, k=1)
    x = np.array([[0.3, -0.7, 0.0], [1.0, 0.0, 0.0]])
    assert np.allclose(ccr.apply_ccr(proj, x), x, atol=1e-12)


def test_projector_symmetric_and_idempotent():
    rng = np.random.default_rng(31)
    for _ in range(50):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(m, 40))
        proj = ccr.build_projector(rng.standard_normal((m, n)), k=m)
        p = np.eye(n) - proj.v @ proj.v.T
        assert np.allclose(p, p.T, atol=1e-10)
        assert np.allclose(p @ p, p, atol=1e-10)


def test_nullification_with_k_equal_m():
    rng = np.random.default_rng(32)
    w = rng.standard_normal((5, 24))
    proj = ccr.build_projector(w, k=5)
    emb = rng.standard_normal((200, 24))
    max_logit, max_dev = ccr.nullification_check(w, proj, emb)
    assert max_logit < 1e-10
    assert max_dev < 1e-10


def test_partial_reduction_leaves_residual():
    # k below m keeps some camera signal; the check reports it honestly.
    rng = np.random.default_rng(33)
    w = rng.standard_normal((6, 16))
    proj_full = ccr.build_projector(w, k=6)
    proj_part = ccr.build_projector(w, k=1)
    emb = rng.standard_normal((100, 16))
    full_logit, _ = ccr.nullification_check(w, proj_full, emb)
    part_logit, _ = ccr.nullification_check(w, proj_part, emb)
    assert full_logit < 1e-10
    assert part_logit > 1e-3


def test_apply_ccr_rejects_a_vector_and_a_wrong_width():
    proj = ccr.build_projector(np.random.default_rng(34).standard_normal((3, 8)))
    assert ccr.apply_ccr(proj, np.zeros((2, 8))).shape == (2, 8)
    for bad in (np.zeros(8), np.zeros(9), np.zeros((2, 9))):
        with pytest.raises(InvalidInputError, match="width 8"):
            ccr.apply_ccr(proj, bad)


def test_build_projector_validation():
    with pytest.raises(InvalidInputError):
        ccr.build_projector(np.zeros((1, 4)))  # one camera
    with pytest.raises(InvalidInputError):
        ccr.build_projector(np.zeros((5, 4)))  # more cameras than dims
    with pytest.raises(InvalidInputError):
        ccr.build_projector(np.zeros((3, 4)), k=0)
    with pytest.raises(InvalidInputError):
        ccr.build_projector(np.zeros((3, 4)), k=4)
    for bad in (np.nan, np.inf):
        w = np.zeros((3, 4))
        w[1, 2] = bad
        with pytest.raises(InvalidInputError):
            ccr.build_projector(w)


def test_first_m_minus_1_directions_carry_the_camera_signal():
    # The centered classifier has rank m-1, so k = m-1 already nulls every
    # centered logit and V's first m-1 columns span the centered rows: the
    # m-th direction of the default k = m carries no camera signal.
    rng = np.random.default_rng(38)
    m, n = 6, 40
    w = rng.standard_normal((m, n))
    proj = ccr.build_projector(w, k=m - 1)
    max_logit, max_dev = ccr.nullification_check(w, proj, rng.standard_normal((300, n)))
    assert max_logit < 1e-10
    assert max_dev < 1e-10
    centered = w - w.mean(axis=0)
    assert np.allclose(centered @ proj.v @ proj.v.T, centered, atol=1e-10)


def _clustered(rng, n, dim, m):
    """Embeddings with a strong per-camera offset, linearly separable."""
    cams = rng.integers(0, m, size=n)
    centers = 3.0 * rng.standard_normal((m, dim))
    emb = centers[cams] + 0.3 * rng.standard_normal((n, dim))
    return emb, cams


def test_fit_camera_classifier_separable_clusters():
    rng = np.random.default_rng(35)
    emb, cams = _clustered(rng, 600, 12, 4)
    clf = ccr.fit_camera_classifier(emb, cams, seed=1)
    assert clf.weight.shape == (4, 12)
    assert clf.holdout_accuracy > 0.9


def test_fit_camera_classifier_then_reduce_kills_signal():
    # After reduction with k=m the very classifier that was fit can no
    # longer separate its projected training data beyond logit noise.
    rng = np.random.default_rng(36)
    emb, cams = _clustered(rng, 500, 10, 3)
    clf = ccr.fit_camera_classifier(emb, cams, seed=2)
    proj = ccr.build_projector(clf.weight, k=3)
    max_logit, max_dev = ccr.nullification_check(clf.weight, proj, emb)
    assert max_logit < 1e-8
    assert max_dev < 1e-8


def test_fit_camera_classifier_float32_matches_its_float64_copy():
    # Widening float32 to float64 is exact, so reading the embeddings in
    # their own dtype must give the same weight bits and hold-out accuracy.
    rng = np.random.default_rng(37)
    emb, cams = _clustered(rng, 1500, 16, 5)
    emb32 = emb.astype(np.float32)
    narrow = ccr.fit_camera_classifier(emb32, cams, epochs=4, batch_size=128, seed=3)
    wide = ccr.fit_camera_classifier(emb32.astype(np.float64), cams, epochs=4, batch_size=128, seed=3)
    assert narrow.weight.dtype == np.float64
    assert narrow.weight.tobytes() == wide.weight.tobytes()
    assert narrow.holdout_accuracy == wide.holdout_accuracy


def test_fit_camera_classifier_holds_no_float64_copy_of_the_embeddings():
    rng = np.random.default_rng(38)
    emb, cams = _clustered(rng, 20000, 128, 6)
    emb = emb.astype(np.float32)
    tracemalloc.start()
    try:
        ccr.fit_camera_classifier(emb, cams, epochs=1, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < emb.size * 8 / 2


def _parent_formula_fit(x, y, epochs, lr, batch_size, holdout_frac, seed):
    """The classifier as written before batching: float64 copies of the training and hold-out rows."""
    x = np.asarray(x, dtype=np.float64)
    m = int(y.max()) + 1
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 515])))
    perm = rng.permutation(x.shape[0])
    n_hold = min(max(int(round(holdout_frac * x.shape[0])), 1), x.shape[0] - 1)
    hold, train = perm[:n_hold], perm[n_hold:]
    xt, yt = x[train], y[train]
    w = 0.01 * rng.standard_normal((m, x.shape[1]))
    onehot = np.eye(m)
    for _ in range(epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(train), batch_size):
            idx = order[start : start + batch_size]
            xb = xt[idx]
            probs = ccr._softmax_rows(xb @ w.T)
            w -= lr * ((probs - onehot[yt[idx]]).T @ xb / len(idx))
    return w, float(((x[hold] @ w.T).argmax(axis=1) == y[hold]).mean())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_camera_classifier_matches_the_unbatched_formula(dtype, seed):
    # 6011 rows hold out 601, not a multiple of the 512-row batch, so the
    # hold-out is scored in a full and a short batch.  Overlapping clusters
    # keep the accuracy below 1, so a miscounted batch would show.
    rng = np.random.default_rng(40 + seed)
    emb, cams = _clustered(rng, 6011, 16, 5)
    emb = (emb + 6.0 * rng.standard_normal(emb.shape)).astype(dtype)
    got = ccr.fit_camera_classifier(emb, cams, epochs=2, seed=seed)
    w, acc = _parent_formula_fit(emb, cams, epochs=2, lr=0.5, batch_size=512, holdout_frac=0.1, seed=seed)
    assert got.weight.tobytes() == w.tobytes()
    assert got.holdout_accuracy == acc
    assert 0.2 < acc < 1.0


def test_fit_camera_classifier_scores_the_holdout_without_a_float64_copy():
    # 20011 rows hold out 2001 (not a multiple of 512); scoring them a batch
    # at a time through the training buffers stays below one float64 copy
    # of the hold-out rows, which the unbatched score made on top of the
    # float32 rows it gathered.
    rng = np.random.default_rng(39)
    emb, cams = _clustered(rng, 20011, 128, 6)
    emb = emb.astype(np.float32)
    holdout_f64 = 2001 * 128 * 8
    tracemalloc.start()
    try:
        clf = ccr.fit_camera_classifier(emb, cams, epochs=1, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert clf.holdout_accuracy > 0.9
    assert peak < holdout_f64


def test_fit_camera_classifier_validation():
    rng = np.random.default_rng(37)
    x = rng.standard_normal((10, 4))
    with pytest.raises(InvalidInputError):
        ccr.fit_camera_classifier(x, np.zeros(9, dtype=int))
    with pytest.raises(InvalidInputError):
        ccr.fit_camera_classifier(x, np.zeros(10, dtype=int))  # single camera
    labels = np.array([0, 2] * 5)  # camera 1 missing
    with pytest.raises(InvalidInputError):
        ccr.fit_camera_classifier(x, labels)
    with pytest.raises(InvalidInputError):
        ccr.fit_camera_classifier(np.zeros((6, 2)), np.arange(3).repeat(2))  # m > n
