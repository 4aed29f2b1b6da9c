"""Encoder forward/backward, optimizer arithmetic, and schedule tests."""

import numpy as np
import pytest

from camreid import encoder as enc
from camreid.errors import InvalidInputError, TrainingDivergenceError


def _loss_through_encoder(params, batch, target):
    """Scalar probe loss: sum of embeddings weighted by a fixed target."""
    out = enc.forward(params, batch)
    return float(np.sum(out * target))


def test_forward_rows_are_unit_norm():
    pair = enc.init_encoder((5, 7, 3), seed=0, dtype=np.float64)
    rng = np.random.default_rng(0)
    out = enc.forward(pair.query, rng.standard_normal((11, 5)))
    assert out.shape == (11, 3)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_forward_shape_validation():
    pair = enc.init_encoder((5, 4), seed=0)
    with pytest.raises(InvalidInputError):
        enc.forward(pair.query, np.zeros((2, 6)))
    with pytest.raises(InvalidInputError):
        enc.forward(pair.query, np.array([[1.0, np.nan, 0, 0, 0]]))


def test_init_encoder_deterministic_and_key_equal():
    a = enc.init_encoder((6, 8, 4), seed=3, dtype=np.float64)
    b = enc.init_encoder((6, 8, 4), seed=3, dtype=np.float64)
    for wa, wb in zip(a.query.weights, b.query.weights):
        assert np.array_equal(wa, wb)
    for wq, wk in zip(a.query.weights, a.key.weights):
        assert np.array_equal(wq, wk)
        assert wq is not wk
    c = enc.init_encoder((6, 8, 4), seed=4, dtype=np.float64)
    assert not np.array_equal(a.query.weights[0], c.query.weights[0])


def test_backward_matches_finite_differences():
    # Linear probe loss sum(out * t) has upstream gradient t; central
    # differences through the full network, normalization included.
    rng = np.random.default_rng(7)
    for trial in range(20):
        dims = (int(rng.integers(2, 6)), int(rng.integers(2, 7)), int(rng.integers(2, 5)))
        pair = enc.init_encoder(dims, seed=trial, dtype=np.float64)
        params = pair.query
        batch = rng.standard_normal((3, dims[0]))
        target = rng.standard_normal((3, dims[-1]))
        grads = enc.backward(params, enc.forward_cached(params, batch), target)
        h = 1e-6
        for li in range(len(params.weights)):
            w = params.weights[li]
            for pos in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                orig = w[pos]
                w[pos] = orig + h
                up = _loss_through_encoder(params, batch, target)
                w[pos] = orig - h
                down = _loss_through_encoder(params, batch, target)
                w[pos] = orig
                fd = (up - down) / (2 * h)
                assert grads.weights[li][pos] == pytest.approx(fd, rel=1e-5, abs=1e-7)
            b = params.biases[li]
            orig = b[0]
            b[0] = orig + h
            up = _loss_through_encoder(params, batch, target)
            b[0] = orig - h
            down = _loss_through_encoder(params, batch, target)
            b[0] = orig
            fd = (up - down) / (2 * h)
            assert grads.biases[li][0] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def _plain_forward_backward(params, x, g):
    """Embeddings and gradients by the plain formulas, with fresh arrays."""
    acts = [x]
    h = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.maximum(h @ w + b, 0)
        acts.append(h)
    z = h @ params.weights[-1] + params.biases[-1]
    norms = np.maximum(np.sqrt(np.sum(z * z, axis=1, keepdims=True)), 1e-30)
    out = z / norms
    dz = (g - out * np.sum(out * g, axis=1, keepdims=True)) / norms
    grads = [None] * (2 * len(params.weights))
    for i in range(len(params.weights) - 1, -1, -1):
        grads[i] = acts[i].T @ dz
        grads[len(params.weights) + i] = dz.sum(axis=0)
        if i > 0:
            dh = dz @ params.weights[i].T
            dh[acts[i] <= 0] = 0
            dz = dh
    return out, grads


def test_forward_and_backward_match_plain_formulas():
    # The in-place layers must compute what the formulas compute with fresh
    # arrays, bit for bit, at the default float32 shapes.
    pair = enc.init_encoder((64, 256, 128), seed=1)
    params = pair.query
    rng = np.random.default_rng(1)
    x = rng.standard_normal((256, 64)).astype(np.float32)
    g = rng.standard_normal((256, 128)).astype(np.float32)
    out, want = _plain_forward_backward(params, x, g)

    cache = enc.forward_cached(params, x)
    assert np.array_equal(cache.out, out)
    assert np.array_equal(enc.forward(params, x), out)
    grads = enc.backward(params, cache, g)
    for got, w in zip(grads.weights + grads.biases, want):
        assert got.dtype == w.dtype
        assert np.array_equal(got, w)
    # Written into caller buffers, the gradients are the same bits.
    out = enc.EncoderGrads(
        weights=[np.full_like(w, np.nan) for w in params.weights],
        biases=[np.full_like(b, np.nan) for b in params.biases],
    )
    assert enc.backward(params, cache, g, out=out) is out
    for got, w in zip(out.weights + out.biases, want):
        assert np.array_equal(got, w)


def _nan_cache(params, rows):
    cache = enc.ForwardCache.for_rows(params, rows)
    for a in (*cache.hidden, cache.z, cache.norms, cache.unit, *cache.deltas):
        a.fill(np.nan)
    return cache


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_reused_forward_cache_matches_plain_formulas(dtype):
    # One NaN-filled cache, larger than either batch, serves two different
    # batches in turn, as an epoch's workspace does; every embedding and
    # gradient must be the bits that fresh arrays give.  Three layers, so
    # backward passes through two rectified hidden layers.
    params = enc.init_encoder((24, 48, 40, 16), seed=5, dtype=dtype).query
    rng = np.random.default_rng(5)
    cache = _nan_cache(params, 70)
    for n in (64, 37):
        x = rng.standard_normal((n, 24)).astype(dtype)
        g = rng.standard_normal((n, 16)).astype(dtype)
        want_out, want_grads = _plain_forward_backward(params, x, g)
        assert enc.forward_cached(params, x, cache) is cache
        assert cache.out.shape == (n, 16)
        assert np.array_equal(cache.out, want_out)
        assert np.array_equal(enc.forward(params, x, cache), want_out)
        grads = enc.backward(params, cache, g)
        for got, want in zip(grads.weights + grads.biases, want_grads):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        # Into a caller's slice, the unit rows are the same bits.
        result = np.full((n + 3, 16), np.nan, dtype=dtype)
        view = result[2 : n + 2]
        assert enc.forward(params, x, cache, out=view) is view
        assert np.array_equal(view, want_out)
        assert np.isnan(result[:2]).all() and np.isnan(result[n + 2 :]).all()


def test_forward_rejects_a_cache_or_out_that_does_not_fit():
    params = enc.init_encoder((5, 7, 3), seed=0, dtype=np.float64).query
    x = np.zeros((4, 5))
    with pytest.raises(InvalidInputError):
        enc.forward(params, x, enc.ForwardCache.for_rows(params, 3))
    other = enc.init_encoder((5, 7, 3), seed=0, dtype=np.float32).query
    with pytest.raises(InvalidInputError):
        enc.forward(params, x, enc.ForwardCache.for_rows(other, 4))
    with pytest.raises(InvalidInputError):
        enc.forward(params, x, out=np.empty((4, 3), dtype=np.float32))
    with pytest.raises(InvalidInputError):
        enc.forward(params, x, out=np.empty((5, 3)))
    with pytest.raises(InvalidInputError):
        enc.forward(params, np.array([[1.0, 2.0, np.inf, 0.0, 0.0]]))


def test_backward_rejects_mismatched_gradient():
    pair = enc.init_encoder((4, 3), seed=0)
    with pytest.raises(InvalidInputError):
        enc.backward(pair.query, enc.forward_cached(pair.query, np.zeros((2, 4))), np.zeros((3, 3)))


def test_sgd_step_hand_arithmetic():
    # One scalar-ish parameter, worked by hand:
    #   v1 = 0.9*0 + g + wd*p = 2.0 + 0.01*1.0 = 2.01 ; p1 = 1.0 - 0.1*2.01 = 0.799
    #   v2 = 0.9*2.01 + 2.0 + 0.01*0.799 = 3.81699 ; p2 = 0.799 - 0.381699 = 0.417301
    params = enc.EncoderParams(
        dims=(1, 1),
        weights=[np.array([[1.0]])],
        biases=[np.array([0.0])],
    )
    optim = enc.OptimState.for_params(params, momentum=0.9, weight_decay=0.01)
    grads = enc.EncoderGrads(weights=[np.array([[2.0]])], biases=[np.array([0.0])])
    enc.sgd_step(params, grads, optim, lr=0.1)
    assert params.weights[0][0, 0] == pytest.approx(0.799, abs=1e-12)
    enc.sgd_step(params, grads, optim, lr=0.1)
    assert params.weights[0][0, 0] == pytest.approx(0.417301, abs=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sgd_step_and_momentum_update_match_plain_formulas(dtype):
    # The in-place updates must round every product and sum as the plain
    # expressions do, so a run's weights stay bit-identical.
    pair = enc.init_encoder((64, 256, 128), seed=3, dtype=dtype, momentum=0.99)
    optim = enc.OptimState.for_params(pair.query, momentum=0.9, weight_decay=1e-4)
    rng = np.random.default_rng(5)
    ref = [p.copy() for p in pair.query.weights + pair.query.biases]
    ref_v = [np.zeros_like(p) for p in ref]
    ref_k = [p.copy() for p in pair.key.weights + pair.key.biases]
    for step in range(3):
        grads = enc.EncoderGrads(
            weights=[rng.standard_normal(w.shape).astype(dtype) for w in pair.query.weights],
            biases=[rng.standard_normal(b.shape).astype(dtype) for b in pair.query.biases],
        )
        lr = 0.03 / (step + 1)
        for p, g, v in zip(ref, grads.weights + grads.biases, ref_v):
            v *= optim.momentum
            v += g + optim.weight_decay * p
            p -= dtype(lr) * v
        m, one_minus = dtype(pair.momentum), dtype(1.0 - pair.momentum)
        for k, q in zip(ref_k, ref):
            k *= m
            k += one_minus * q
        enc.sgd_step(pair.query, grads, optim, lr)
        enc.momentum_update(pair, optim.scratch if step % 2 else None)
    got = pair.query.weights + pair.query.biases
    for a, b in zip(got + optim.velocity_w + optim.velocity_b, ref + ref_v):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    for a, b in zip(pair.key.weights + pair.key.biases, ref_k):
        assert np.array_equal(a, b)


def test_sgd_step_rejects_nonfinite_gradient():
    params = enc.EncoderParams(
        dims=(1, 1), weights=[np.array([[1.0]])], biases=[np.array([0.0])]
    )
    optim = enc.OptimState.for_params(params)
    grads = enc.EncoderGrads(weights=[np.array([[np.nan]])], biases=[np.array([0.0])])
    with pytest.raises(TrainingDivergenceError):
        enc.sgd_step(params, grads, optim, lr=0.1)


def test_sgd_step_negative_lr_rejected():
    params = enc.EncoderParams(
        dims=(1, 1), weights=[np.array([[1.0]])], biases=[np.array([0.0])]
    )
    optim = enc.OptimState.for_params(params)
    grads = enc.EncoderGrads(weights=[np.array([[0.0]])], biases=[np.array([0.0])])
    with pytest.raises(InvalidInputError):
        enc.sgd_step(params, grads, optim, lr=-1.0)


def test_cosine_lr_endpoints_and_midpoint():
    assert enc.cosine_lr(0, 10, 0.03) == pytest.approx(0.03, abs=1e-15)
    assert enc.cosine_lr(10, 10, 0.03) == pytest.approx(0.0, abs=1e-15)
    assert enc.cosine_lr(5, 10, 0.03) == pytest.approx(0.015, abs=1e-15)
    values = [enc.cosine_lr(e, 50, 1.0) for e in range(51)]
    assert all(b < a for a, b in zip(values[:-1], values[1:]))


def test_cosine_lr_validation():
    with pytest.raises(InvalidInputError):
        enc.cosine_lr(1, 0, 0.1)
    with pytest.raises(InvalidInputError):
        enc.cosine_lr(11, 10, 0.1)


def test_momentum_update_hand_case():
    pair = enc.init_encoder((2, 2), seed=0, dtype=np.float64, momentum=0.75)
    pair.query.weights[0][:] = 4.0
    pair.key.weights[0][:] = 0.0
    pair.query.biases[0][:] = 8.0
    pair.key.biases[0][:] = 0.0
    enc.momentum_update(pair)
    # k <- 0.75*0 + 0.25*4 = 1 for weights, 2 for biases.
    assert np.allclose(pair.key.weights[0], 1.0, atol=1e-12)
    assert np.allclose(pair.key.biases[0], 2.0, atol=1e-12)
    enc.momentum_update(pair)
    assert np.allclose(pair.key.weights[0], 1.75, atol=1e-12)


def test_momentum_one_freezes_key():
    pair = enc.init_encoder((3, 2), seed=1, dtype=np.float64, momentum=1.0)
    before = [w.copy() for w in pair.key.weights]
    pair.query.weights[0][:] += 5.0
    enc.momentum_update(pair)
    for b, k in zip(before, pair.key.weights):
        assert np.array_equal(b, k)


def test_init_encoder_validation():
    with pytest.raises(InvalidInputError):
        enc.init_encoder((4,), seed=0)
    with pytest.raises(InvalidInputError):
        enc.init_encoder((4, 0), seed=0)
    with pytest.raises(InvalidInputError):
        enc.init_encoder((4, 2), seed=0, momentum=1.5)
