"""Contrastive loss oracles, memory bank semantics, and epoch plumbing.

Loss values below are worked out by hand from the definition
loss = -log(exp(s+/t) / sum_j exp(s_j/t)) before being frozen as constants.
"""

import collections
import copy
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camreid import contrastive as ctr
from camreid import encoder as enc
from camreid import synth
from camreid.errors import InvalidInputError, TrainingDivergenceError


def _info_nce(q, k_pos, negatives, temperature):
    """Loss and q-gradient of one float64 query, through the training step's InfoNCE."""
    negs = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    logits = np.empty((1, len(negs) + 1))
    loss, grad_q = ctr._batch_info_nce(q[None, :], k_pos[None, :], negs, temperature, logits)
    return loss, grad_q[0]


def test_info_nce_one_orthogonal_negative():
    # q = k+ (similarity 1), one orthogonal negative (similarity 0), t = 1:
    # loss = -log(e / (e + 1)) = log(1 + e^-1) = 0.31326168751822286
    q = np.array([1.0, 0.0])
    loss, _ = _info_nce(q, q, [[0.0, 1.0]], temperature=1.0)
    assert loss == pytest.approx(0.31326168751822286, abs=1e-12)


def test_info_nce_uniform_logits_gives_log_n_plus_one():
    # Positive and N negatives all orthogonal to q: every logit is 0, so the
    # softmax is uniform over N+1 entries and loss = log(N+1) at any t.
    d = 8
    q = np.zeros(d)
    q[0] = 1.0
    k = np.zeros(d)
    k[1] = 1.0
    for n_neg, temperature in ((1, 0.07), (5, 0.5), (31, 1.0)):
        negs = np.zeros((n_neg, d))
        for i in range(n_neg):
            negs[i, 2 + (i % (d - 2))] = 1.0
        loss, _ = _info_nce(q, k, negs, temperature)
        assert loss == pytest.approx(np.log(n_neg + 1), abs=1e-12)


def test_info_nce_bank_of_positive_copies():
    # K negatives identical to k+ make K+1 equal logits: loss = log(K+1),
    # independent of temperature.
    q = np.array([1.0, 0.0, 0.0])
    k = np.array([0.0, 1.0, 0.0])
    for kk in (1, 4, 16):
        loss, _ = _info_nce(q, k, np.tile(k, (kk, 1)), temperature=0.07)
        assert loss == pytest.approx(np.log(kk + 1), abs=1e-10)


def test_info_nce_gradients_match_finite_differences():
    # Keys come from the momentum encoder and take no gradient, so only the
    # gradient with respect to q is checked.
    rng = np.random.default_rng(5)
    for trial in range(30):
        d = int(rng.integers(2, 9))
        n_neg = int(rng.integers(1, 17))
        q = rng.standard_normal(d)
        q /= np.linalg.norm(q)
        k = rng.standard_normal(d)
        k /= np.linalg.norm(k)
        negs = rng.standard_normal((n_neg, d))
        negs /= np.linalg.norm(negs, axis=1, keepdims=True)
        t = float(rng.uniform(0.05, 1.0))
        loss, grad_q = _info_nce(q, k, negs, t)

        # The loss extends off the unit sphere smoothly; finite differences
        # probe the same raw dot-product expression the gradient assumes.
        def raw_loss(qv):
            l_pos = qv @ k / t
            l_neg = negs @ qv / t
            logits = np.concatenate([[l_pos], l_neg])
            m = logits.max()
            return float(-(l_pos - m) + np.log(np.exp(logits - m).sum()))

        assert loss == pytest.approx(raw_loss(q), rel=1e-12)
        h = 1e-7
        for i in range(d):
            dq = np.zeros(d)
            dq[i] = h
            fd = (raw_loss(q + dq) - raw_loss(q - dq)) / (2 * h)
            assert grad_q[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_info_nce_negative_order_irrelevant():
    rng = np.random.default_rng(9)
    d, n = 6, 12
    q = rng.standard_normal(d)
    q /= np.linalg.norm(q)
    k = rng.standard_normal(d)
    k /= np.linalg.norm(k)
    negs = rng.standard_normal((n, d))
    negs /= np.linalg.norm(negs, axis=1, keepdims=True)
    loss_a, _ = _info_nce(q, k, negs, 0.2)
    loss_b, _ = _info_nce(q, k, negs[::-1], 0.2)
    assert loss_a == pytest.approx(loss_b, abs=1e-12)


def test_info_nce_monotone_in_positive_similarity():
    # Rotating k+ toward q strictly lowers the loss.
    d = 4
    q = np.zeros(d)
    q[0] = 1.0
    negs = np.eye(d)[2:]
    last = None
    for angle in (0.9, 0.6, 0.3, 0.0):
        k = np.array([np.cos(angle), np.sin(angle), 0.0, 0.0])
        loss, _ = _info_nce(q, k, negs, 0.07)
        if last is not None:
            assert loss < last
        last = loss


def test_info_nce_input_validation():
    q = np.array([1.0, 0.0])
    with pytest.raises(InvalidInputError):
        _info_nce(q, q, np.zeros((0, 2)), 0.07)  # an empty bank
    with pytest.raises(InvalidInputError):
        _info_nce(q, q, [[0.0, 1.0]], 0.0)


@given(
    st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=100, deadline=None)
def test_memory_bank_matches_deque_oracle(chunk_sizes, capacity):
    # The ring buffer must agree with a bounded deque on contents and order.
    dim = 3
    bank = ctr.MemoryBank(capacity, dim)
    oracle = collections.deque(maxlen=capacity)
    counter = 0
    for size in chunk_sizes:
        rows = np.zeros((size, dim), dtype=np.float32)
        for r in range(size):
            rows[r, counter % dim] = 1.0  # unit rows
            counter += 1
        tags = np.arange(counter - size, counter)
        bank.enqueue(rows)
        for tag, row in zip(tags, rows):
            oracle.append((tag, row))
        got = bank.contents()
        want = np.stack([row for _, row in oracle]) if oracle else np.zeros((0, dim))
        assert got.shape == want.shape
        assert np.array_equal(got, want.astype(np.float32))
        assert len(bank) == len(oracle)


def test_memory_bank_overflow_keeps_latest():
    bank = ctr.MemoryBank(3, 2)
    rows = np.array([[1.0, 0.0]] * 5, dtype=np.float32)
    rows[3] = [0.0, 1.0]
    rows[4] = [-1.0, 0.0]
    bank.enqueue(rows)
    got = bank.contents()
    assert np.array_equal(got, rows[2:])


def test_memory_bank_rejects_bad_keys():
    bank = ctr.MemoryBank(4, 3)
    with pytest.raises(InvalidInputError):
        bank.enqueue(np.array([[2.0, 0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        bank.enqueue(np.array([[1.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        ctr.MemoryBank(0, 3)


def _pairs_of(segments, seg_idx, rng):
    rows = np.concatenate(segments)
    lengths = np.array([len(s) for s in segments], dtype=np.int64)
    return ctr.sample_tsd_pairs(rows, np.cumsum(lengths) - lengths, lengths, np.asarray(seg_idx), rng)


def test_sample_tsd_pair_distinct_and_covers_all():
    rng = np.random.default_rng(2)
    rows = np.array([10, 20, 30], dtype=np.int64)
    anchors, positives = _pairs_of([rows], np.zeros(500, dtype=np.int64), rng)
    assert np.all(anchors != positives)
    assert np.all(np.isin(anchors, rows)) and np.all(np.isin(positives, rows))
    # All 6 ordered pairs of 3 elements appear under uniform sampling.
    assert len(set(zip(anchors.tolist(), positives.tolist()))) == 6


def test_sample_tsd_pair_needs_two():
    with pytest.raises(InvalidInputError):
        _pairs_of([np.array([1])], [0], np.random.default_rng(0))
    with pytest.raises(InvalidInputError):
        _pairs_of([np.array([1, 2]), np.array([3])], [0, 1], np.random.default_rng(0))


def test_sample_tsd_pairs_draws_as_the_scalar_loop():
    # One interleaved integers() call must draw what one call per bound
    # draws, pair by pair, and leave the generator in the same state.
    segments = [np.arange(s, s + n, dtype=np.int64) for s, n in ((0, 2), (10, 5), (20, 2), (30, 9), (50, 3))]
    for seed in range(20):
        draw = np.random.default_rng(seed)
        seg_idx = draw.integers(len(segments), size=257)
        rng = np.random.default_rng(seed + 100)
        ref_rng = np.random.default_rng(seed + 100)
        anchors, positives = _pairs_of(segments, seg_idx, rng)
        want = []
        for s in seg_idx:
            seg = segments[int(s)]
            i = int(ref_rng.integers(len(seg)))
            j = int(ref_rng.integers(len(seg) - 1))
            if j >= i:
                j += 1
            want.append((int(seg[i]), int(seg[j])))
        assert list(zip(anchors.tolist(), positives.tolist())) == want
        assert rng.random() == ref_rng.random()


def _plain_batch_info_nce(q, k_pos, negatives, temperature):
    # The formula written out with fresh arrays, as a reference for the
    # workspace version.
    b = q.shape[0]
    l_pos = np.sum(q * k_pos, axis=1, keepdims=True) / temperature
    l_neg = q @ negatives.T / temperature
    logits = np.concatenate([l_pos, l_neg], axis=1)
    m = logits.max(axis=1, keepdims=True)
    p = np.exp(logits - m)
    z = p.sum(axis=1, keepdims=True)
    losses = -(l_pos - m) + np.log(z)
    p = p / z
    grad_q = ((p[:, :1] - 1.0) * k_pos + p[:, 1:] @ negatives) / (temperature * b)
    return float(losses.mean()), grad_q


def _unit_rows(rng, n, d, dtype=np.float32):
    x = rng.standard_normal((n, d))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(dtype)


@pytest.mark.parametrize("n_keys", [1, 1000, 4096])
def test_batch_info_nce_workspace_matches_plain_formula(n_keys):
    # A bank that is filling (n < K, n not a multiple of B) and a full one,
    # at the default step shapes B=256, K=4096, D=128.  The NaN-filled
    # logits, gradient and scratch buffers have more rows than the batch and
    # serve two different batches in turn, as an epoch's workspace does.
    rng = np.random.default_rng(n_keys)
    k, d = 4096, 128
    logits = np.full((300, k + 1), np.nan, dtype=np.float32)
    grad_buf = np.full((300, d), np.nan, dtype=np.float32)
    scratch = np.full((300, d), np.nan, dtype=np.float32)
    negatives = _unit_rows(rng, n_keys, d)
    for b in (256, 97):
        q, k_pos = _unit_rows(rng, b, d), _unit_rows(rng, b, d)
        loss, grad_q = ctr._batch_info_nce(q, k_pos, negatives, 0.07, logits, grad_buf, scratch)
        want_loss, want_grad = _plain_batch_info_nce(q, k_pos, negatives, 0.07)
        assert loss == want_loss
        assert grad_q.base is grad_buf
        assert grad_q.dtype == want_grad.dtype
        assert np.array_equal(grad_q, want_grad)


def _default_step_setup(seed=0):
    # The default encoder (64-256-128) and step shapes, with a full bank.
    b, k = 256, 4096
    pair = enc.init_encoder((64, 256, 128), seed=seed)
    optim = enc.OptimState.for_params(pair.query)
    bank = ctr.MemoryBank(k, 128)
    rng = np.random.default_rng(seed)
    bank.enqueue(_unit_rows(rng, k, 128))
    views = [rng.standard_normal((b, 64)).astype(np.float32) for _ in range(4)]
    return pair, optim, bank, ctr.StepWorkspace.for_epoch(pair, bank, b, 64), views


def test_training_step_matches_step_with_recomputed_forward():
    # _run_batch backpropagates from the query pass's cache; the reference
    # step below embeds afresh for the backward pass, as a step did before
    # the cache was kept.  Every parameter, velocity and bank key must agree
    # bit for bit.
    pair, optim, bank, workspace, (a, b, _, _) = _default_step_setup()
    ref_pair, ref_optim, ref_bank = copy.deepcopy((pair, optim, bank))

    loss = ctr._run_batch(pair, bank, optim, a, b, 0.07, 0.03, workspace)

    q = enc.forward(ref_pair.query, a)
    k = enc.forward(ref_pair.key, b)
    ref_loss, grad_q = _plain_batch_info_nce(q, k, ref_bank.negatives(), 0.07)
    grads = enc.backward(ref_pair.query, enc.forward_cached(ref_pair.query, a), grad_q)
    enc.sgd_step(ref_pair.query, grads, ref_optim, 0.03)
    enc.momentum_update(ref_pair)
    ref_bank.enqueue(k)

    assert loss == ref_loss
    for got, want in (
        (pair.query.weights + pair.query.biases, ref_pair.query.weights + ref_pair.query.biases),
        (pair.key.weights + pair.key.biases, ref_pair.key.weights + ref_pair.key.biases),
        (optim.velocity_w + optim.velocity_b, ref_optim.velocity_w + ref_optim.velocity_b),
    ):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    assert np.array_equal(bank.contents(), ref_bank.contents())


def test_steady_state_step_allocates_less_than_one_logits_buffer():
    # Guard against per-step churn: once the epoch's workspace exists, a step
    # at B=256, K=4096 must not allocate a B x (K+1) float32 buffer (4 MiB).
    pair, optim, bank, workspace, (a, b, c, d) = _default_step_setup()
    ctr._run_batch(pair, bank, optim, a, b, 0.07, 0.03, workspace)
    tracemalloc.start()
    try:
        ctr._run_batch(pair, bank, optim, c, d, 0.07, 0.03, workspace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < workspace.nbytes


def _tiny_setup(n_obs=80, d_obs=6, d_emb=4, batch=16, bank=32):
    config = ctr.ContrastiveConfig(
        batch_size=batch, bank_size=bank, epochs_cid=1, epochs_tsd=4, aug_strength=0.3
    )
    pair = enc.init_encoder((d_obs, 8, d_emb), seed=0, dtype=np.float64)
    membank = ctr.MemoryBank(bank, d_emb, dtype=np.float64)
    optim = enc.OptimState.for_params(pair.query)
    rng = np.random.default_rng(4)
    obs = rng.standard_normal((n_obs, d_obs))
    return config, pair, membank, optim, rng, obs


def test_cid_epoch_runs_and_fills_bank():
    config, pair, bank, optim, rng, obs = _tiny_setup()
    stats = ctr.cid_epoch(pair, bank, obs, config, optim, rng, epoch=0)
    assert np.isfinite(stats.mean_loss)
    assert stats.bank_occupancy == 32  # 5 batches of 16 keys, capacity 32
    assert stats.lr == config.base_lr


def test_cid_epoch_rejects_short_input():
    config, pair, bank, optim, rng, obs = _tiny_setup()
    with pytest.raises(InvalidInputError):
        ctr.cid_epoch(pair, bank, obs[:10], config, optim, rng)


def test_tsd_epoch_uses_cosine_schedule_and_trains():
    config, pair, bank, optim, rng, obs = _tiny_setup()
    rows, lengths = np.arange(80), np.full(10, 8)  # ten segments of 8 rows
    stats0 = ctr.tsd_epoch(pair, bank, rows, lengths, obs, config, optim, rng, epoch=0)
    stats2 = ctr.tsd_epoch(pair, bank, rows, lengths, obs, config, optim, rng, epoch=2)
    assert stats0.lr == pytest.approx(config.base_lr)
    assert stats2.lr < stats0.lr
    assert np.isfinite(stats2.mean_loss)


def test_tsd_epoch_skips_singleton_segments():
    config, pair, bank, optim, rng, obs = _tiny_setup()
    with pytest.raises(InvalidInputError):
        ctr.tsd_epoch(pair, bank, np.array([0, 1]), np.array([1, 1]), obs, config, optim, rng, epoch=0)
    # Singletons between the segments change nothing: the epoch draws as without them.
    trained = []
    for rows, lengths in (
        (np.arange(80), np.full(10, 8)),
        (np.insert(np.arange(80), [0, 8, 80], [9, 3, 70]), np.insert(np.full(10, 8), [0, 1, 10], 1)),
    ):
        config, pair, bank, optim, rng, obs = _tiny_setup()
        ctr.tsd_epoch(pair, bank, rows, lengths, obs, config, optim, rng, epoch=0)
        trained.append(pair.query.weights + [bank.contents()])
    for want, got in zip(*trained):
        assert np.array_equal(want, got)


def test_contrastive_config_validation():
    with pytest.raises(InvalidInputError):
        ctr.ContrastiveConfig(temperature=0.0).validate()
    with pytest.raises(InvalidInputError):
        ctr.ContrastiveConfig(bank_size=100, batch_size=64).validate()
    with pytest.raises(InvalidInputError):
        ctr.ContrastiveConfig(key_momentum=1.5).validate()
    ctr.ContrastiveConfig().validate()


def test_steady_state_step_stays_below_the_mmap_threshold():
    # Every batch-sized array of a step at B=256, K=4096 lives in the
    # epoch's workspace; what a step still allocates must stay below
    # malloc's 128 KiB mmap threshold, so that no step maps and faults in
    # fresh pages.
    pair, optim, bank, workspace, (a, b, c, d) = _default_step_setup()
    ctr._run_batch(pair, bank, optim, a, b, 0.07, 0.03, workspace)
    tracemalloc.start()
    try:
        ctr._run_batch(pair, bank, optim, c, d, 0.07, 0.03, workspace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 << 10


# ---------------------------------------------------------------- two step threads


def _in_a_process_at_one_blas_thread(monkeypatch, fn, *args):
    """``fn(*args)`` in a fresh process whose BLAS runs one thread.

    A step splits its rows only then, and OpenBLAS reads its thread count
    once, when it loads.
    """
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(fn, *args).result(timeout=300)


def _on_one_and_two_threads(run, *args):
    # run(*args) with the step on one thread, then on two; each result comes
    # with the number of times the step worker was used.
    results = []
    step_worker = ctr._step_worker
    for n in (1, 2):
        handed = []
        ctr._step_workers = lambda *shape, n=n: n
        ctr._step_worker = lambda: handed.append(1) or step_worker()
        result = run(*args)
        results.append((len(handed), result))
    return results


def _one_step(dtype, b, n_keys):
    rng = np.random.default_rng(b + n_keys)
    q, k_pos, negatives = (_unit_rows(rng, n, 128, dtype) for n in (b, b, n_keys))
    logits = np.full((256, 4097), np.nan, dtype=dtype)
    grad_buf, scratch = np.full((2, 256, 128), np.nan, dtype=dtype)
    loss, grad_q = ctr._batch_info_nce(q, k_pos, negatives, 0.07, logits, grad_buf, scratch)
    return loss, grad_q, logits[:b, : n_keys + 1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b, n_keys", [(255, 4096), (256, 1500)])
def test_split_rows_give_the_bits_of_the_serial_step(monkeypatch, dtype, b, n_keys):
    # An odd batch, and a bank of capacity 4096 that is only partly full.
    # Loss, gradient and the probabilities left in the logits agree bit for bit.
    (serial_handed, serial), (split_handed, split) = _in_a_process_at_one_blas_thread(
        monkeypatch, _on_one_and_two_threads, _one_step, dtype, b, n_keys
    )
    assert (serial_handed, split_handed) == (0, 1)
    assert serial[0] == split[0]
    assert np.array_equal(serial[1], split[1])
    assert np.array_equal(serial[2], split[2])


def _four_epochs():
    # One CID epoch and three TSD epochs against a full bank, so that every
    # step on two threads splits its rows (24 of the 128 go to the worker).
    rng = np.random.default_rng(7)
    pair = enc.init_encoder((32, 64, 128), seed=1)
    optim = enc.OptimState.for_params(pair.query)
    bank = ctr.MemoryBank(2048, 128)
    bank.enqueue(_unit_rows(rng, 2048, 128))
    obs = rng.standard_normal((2048, 32)).astype(np.float32)
    config = ctr.ContrastiveConfig(batch_size=128, bank_size=2048, epochs_tsd=3)
    rows, lengths = np.arange(2048), np.full(256, 8)  # 256 segments of 8 rows
    workspace = ctr.StepWorkspace.for_epoch(pair, bank, 128, 32)
    stats = [ctr.cid_epoch(pair, bank, obs, config, optim, rng, workspace=workspace)]
    stats += [ctr.tsd_epoch(pair, bank, rows, lengths, obs, config, optim, rng, e, workspace) for e in range(3)]
    arrays = pair.query.weights + pair.query.biases + pair.key.weights + pair.key.biases
    arrays += optim.velocity_w + optim.velocity_b + [bank.contents()]
    return [s.mean_loss for s in stats], rng.bit_generator.state, arrays


def test_epochs_on_two_threads_end_with_the_bits_of_serial_epochs(monkeypatch):
    (serial_handed, serial), (split_handed, split) = _in_a_process_at_one_blas_thread(
        monkeypatch, _on_one_and_two_threads, _four_epochs
    )
    assert serial_handed == 0
    # 16 steps an epoch: each splits its rows, and all but the first draw ahead.
    assert split_handed == 4 * (16 + 15)
    assert serial[:2] == split[:2]
    assert len(serial[2]) == len(split[2]) == 13
    for want, got in zip(serial[2], split[2]):
        assert np.array_equal(want, got)


def test_a_step_error_waits_for_the_draw_in_flight(monkeypatch):
    # The first step diverges while the worker draws the second batch
    # (slowed down here); the error reaches the caller once that draw is done.
    monkeypatch.setattr(ctr, "_step_workers", lambda *shape: 2)
    events = []
    augment_batch = synth.augment_batch

    def slow_augment(*args):
        events.append("start")
        time.sleep(0.05)
        out = augment_batch(*args)
        events.append("end")
        return out

    def diverge(*args):
        raise TrainingDivergenceError("non-finite contrastive loss nan")

    monkeypatch.setattr(synth, "augment_batch", slow_augment)
    monkeypatch.setattr(ctr, "_run_batch", diverge)
    config, pair, bank, optim, rng, obs = _tiny_setup()
    with pytest.raises(TrainingDivergenceError):
        ctr.tsd_epoch(pair, bank, np.arange(80), np.full(10, 8), obs, config, optim, rng, epoch=0)
    # Two views for the first batch, drawn here, and two for the second.
    assert events == ["start", "end"] * 4


@pytest.mark.parametrize("blas, want", [(None, 1), ("2", 1), ("", 1), ("abc", 1), ("1", 2)])
def test_a_step_uses_two_threads_only_beside_one_blas_thread(monkeypatch, blas, want):
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    if blas is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert ctr._step_workers(256, 4096, 128) == want
    # The small-batch shape, B=64 and K=1024, stays serial.
    assert ctr._step_workers(64, 1024, 128) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert ctr._step_workers(256, 4096, 128) == 1


def test_blas_threads_are_read_as_openblas_reads_them(monkeypatch):
    # A variable without a positive count leaves the choice to the next one.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")
    monkeypatch.delenv("GOTO_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert ctr._step_workers(256, 4096, 128) == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert ctr._step_workers(256, 4096, 128) == 1


def test_the_serial_path_starts_no_thread(monkeypatch):
    # Two BLAS threads: a default-shape step and a whole epoch run serially.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setattr(ctr, "_step_worker", lambda: pytest.fail("the serial path used the step worker"))
    before = threading.active_count()
    pair, optim, bank, workspace, (a, b, _, _) = _default_step_setup()
    ctr._run_batch(pair, bank, optim, a, b, 0.07, 0.03, workspace)
    config, pair, bank, optim, rng, obs = _tiny_setup()
    ctr.cid_epoch(pair, bank, obs, config, optim, rng)
    assert threading.active_count() == before


def test_importing_camreid_leaves_the_thread_pool_unloaded():
    code = "import sys, camreid.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_its_own_step_worker(monkeypatch):
    monkeypatch.setattr(ctr, "_step_workers", lambda *shape: 2)
    rng = np.random.default_rng(3)
    q, k_pos, negatives = (_unit_rows(rng, n, 128) for n in (64, 64, 1024))
    logits = np.empty((64, 1025), dtype=np.float32)
    want = ctr._batch_info_nce(q, k_pos, negatives, 0.07, logits)[0]  # starts the parent's worker
    pid = os.fork()
    if pid == 0:
        # A child that handed work to the parent's thread would wait forever.
        signal.alarm(30)
        try:
            os._exit(0 if ctr._batch_info_nce(q, k_pos, negatives, 0.07, logits)[0] == want else 1)
        finally:
            os._exit(2)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
