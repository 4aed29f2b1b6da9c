"""Contrastive training: instance discrimination and segment discrimination.

Both stages minimize the same temperature-scaled classification loss.  For a
query q, its positive key k+ and a bank of negative keys {k-}:

    loss = -log( exp(s(q, k+)/t) / (exp(s(q, k+)/t) + sum_j exp(s(q, k-_j)/t)) )

with s the cosine similarity; all embeddings arrive unit-normalized, so the
similarities are plain dot products.  Gradients flow to q only: k+ comes
from the momentum key encoder, and bank entries are constants.  cid_epoch
draws positives as two augmentations of one observation, tsd_epoch draws
them as two distinct detections of one tracklet segment.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from . import synth
from .errors import InvalidInputError, TrainingDivergenceError

_UNIT_TOL = 1e-3
_SPLIT_MIN_PRODUCTS = 1 << 25  # multiply-adds in a step's bank product from which a split pays
_worker = None  # (pid, executor) of the process's one step worker, see `_step_worker`


@dataclass(frozen=True)
class ContrastiveConfig:
    temperature: float = 0.07
    batch_size: int = 256
    bank_size: int = 4096
    key_momentum: float = 0.999
    epochs_cid: int = 10
    epochs_tsd: int = 50
    base_lr: float = 0.03
    sgd_momentum: float = 0.9
    weight_decay: float = 1e-4
    aug_strength: float = 0.6

    def __post_init__(self) -> None:
        if not self.temperature > 0:
            raise InvalidInputError("temperature must be > 0")
        if self.batch_size < 1 or self.bank_size < 1:
            raise InvalidInputError("batch_size and bank_size must be >= 1")
        if self.bank_size % self.batch_size != 0:
            raise InvalidInputError("bank_size must be divisible by batch_size")
        if not 0.0 <= self.key_momentum <= 1.0:
            raise InvalidInputError("key_momentum must lie in [0, 1]")
        if self.epochs_cid < 0 or self.epochs_tsd < 0:
            raise InvalidInputError("epoch counts must be >= 0")
        if not (self.base_lr >= 0 and self.aug_strength >= 0 and self.weight_decay >= 0):
            raise InvalidInputError("base_lr, aug_strength and weight_decay must be >= 0")
        if not 0.0 <= self.sgd_momentum < 1.0:
            raise InvalidInputError("sgd_momentum must lie in [0, 1)")


@dataclass
class TrainStats:
    epoch: int
    mean_loss: float
    lr: float
    bank_occupancy: int
    wall_time: float


class MemoryBank:
    """Fixed-capacity FIFO ring of unit-norm key embeddings."""

    def __init__(self, capacity: int, dim: int, dtype=np.float32):
        if capacity < 1 or dim < 1:
            raise InvalidInputError("capacity and dim must be >= 1")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self._buf = np.zeros((capacity, dim), dtype=dtype)
        self._cursor = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def negatives(self) -> np.ndarray:
        """Stored keys in buffer order (order is irrelevant to the loss)."""
        return self._buf[: self._size]

    def contents(self) -> np.ndarray:
        """Stored keys in insertion order, oldest first."""
        if self._size < self.capacity:
            return self._buf[: self._size].copy()
        return np.concatenate([self._buf[self._cursor :], self._buf[: self._cursor]])

    def enqueue(self, keys: np.ndarray) -> None:
        """Append key rows, evicting the oldest once capacity is reached."""
        k = np.atleast_2d(np.asarray(keys, dtype=self._buf.dtype))
        if k.shape[0] == 0:
            return
        if k.shape[1] != self.dim:
            raise InvalidInputError(f"key dim {k.shape[1]} != bank dim {self.dim}")
        norms = np.sqrt(np.einsum("ij,ij->i", k, k))
        if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
            raise InvalidInputError("bank keys must be unit-norm")
        if k.shape[0] > self.capacity:
            k = k[-self.capacity :]
        idx = (self._cursor + np.arange(k.shape[0])) % self.capacity
        self._buf[idx] = k
        self._cursor = int((self._cursor + k.shape[0]) % self.capacity)
        self._size = min(self._size + k.shape[0], self.capacity)


@dataclass
class StepWorkspace:
    """Every batch-sized buffer of a training step, allocated once per stage.

    A fresh array of 128 KiB or more is mapped and faulted in anew by
    malloc, so a step that made its B x (K+1) logits, activations and
    gradients afresh would pay for the page faults on every step, more than
    for the arithmetic at the default shapes.  Every step writes a buffer
    before reading it, so one workspace serves all epochs; an epoch given
    none makes its own.
    """

    logits: np.ndarray  # B x (K+1), for `_batch_info_nce`
    augment: np.ndarray  # float64 2 x B x d, for `synth.augment_batch`
    query: enc.ForwardCache
    key: enc.ForwardCache
    grad_q: np.ndarray  # B x D
    scratch: np.ndarray  # B x D, for `_batch_info_nce`

    @staticmethod
    def for_epoch(pair: enc.EncoderPair, bank: MemoryBank, batch_size: int, obs_dim: int) -> "StepWorkspace":
        dtype = np.result_type(pair.query.dtype, bank.negatives().dtype)
        return StepWorkspace(
            logits=np.empty((batch_size, bank.capacity + 1), dtype=dtype),
            augment=np.empty((2, batch_size, obs_dim)),
            query=enc.ForwardCache.for_rows(pair.query, batch_size),
            key=enc.ForwardCache.for_rows(pair.key, batch_size),
            grad_q=np.empty((batch_size, bank.dim), dtype=dtype),
            scratch=np.empty((batch_size, bank.dim), dtype=pair.query.dtype),
        )

    @property
    def nbytes(self) -> int:
        arrays = (self.logits, self.augment, self.grad_q, self.scratch)
        return sum(a.nbytes for a in arrays) + self.query.nbytes + self.key.nbytes


def _step_workers(rows: int, keys: int, dim: int) -> int:
    """Threads a step of ``rows`` queries against ``keys`` bank keys of ``dim`` uses: 1 or 2.

    Two when the process has two CPUs, BLAS one thread (read as OpenBLAS
    reads it), and the step is big enough for the worker's share to pay for
    the hand-off; a smaller share may take another BLAS kernel, other bits.
    """
    if rows < 72 or rows * keys * dim < _SPLIT_MIN_PRODUCTS:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        lead = re.match(r"\s*\+?(\d+)", os.environ.get(var, ""))
        if lead and int(lead[1]) > 0:
            return 2 if int(lead[1]) == 1 and cpus > 1 else 1
    return 1


def _step_worker():
    """The process's one step worker thread, made on first use and again in a forked child."""
    global _worker
    if _worker is None or _worker[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        _worker = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="camreid-step"))
    return _worker[1]


def _batch_info_nce(
    q: np.ndarray,
    k_pos: np.ndarray,
    negatives: np.ndarray,
    temperature: float,
    logits: np.ndarray,
    grad_q: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
):
    """Mean loss over the batch and its gradient w.r.t. q.

    The B x (K+1) logits are built and turned into softmax probabilities
    inside ``logits`` (at least B rows and K+1 columns), positive first; the
    probabilities are left there.  ``grad_q`` and ``scratch`` (at least B
    rows of q's width, allocated when not given) take the gradient and the
    products of q and k+ rows; the gradient is returned as B rows of
    ``grad_q``.  Each row's results depend on that row alone, so with two
    `_step_workers` the step worker, which also draws the next batch, takes
    about a third of the rows, down to a multiple of 24: OpenBLAS's float64
    AVX-512 kernel works in blocks of 24 rows, and a split between blocks
    leaves every row its bits.
    """
    b = q.shape[0]
    scratch = np.empty(q.shape, dtype=np.result_type(q, k_pos)) if scratch is None else scratch[:b]
    grad_q = np.empty(q.shape, dtype=np.result_type(logits, negatives)) if grad_q is None else grad_q[:b]
    logits = logits[:b, : negatives.shape[0] + 1]
    losses = np.empty((b, 1), dtype=np.result_type(scratch, logits))

    def rows(lo: int, hi: int) -> None:
        s, p = scratch[lo:hi], logits[lo:hi]
        np.multiply(q[lo:hi], k_pos[lo:hi], out=s)
        l_pos = np.sum(s, axis=1, keepdims=True) / temperature
        p[:, :1] = l_pos
        np.matmul(q[lo:hi], negatives.T, out=p[:, 1:])
        p[:, 1:] /= temperature
        m = p.max(axis=1, keepdims=True)
        p -= m
        np.exp(p, out=p)
        z = p.sum(axis=1, keepdims=True)
        np.add(-(l_pos - m), np.log(z), out=losses[lo:hi])
        p /= z
        # d(mean loss)/dq_i = ((p_pos - 1) k+_i + sum_j p_ij k-_j) / (t B)
        np.matmul(p[:, 1:], negatives, out=grad_q[lo:hi])
        np.multiply(p[:, :1] - 1.0, k_pos[lo:hi], out=s)
        grad_q[lo:hi] += s
        grad_q[lo:hi] /= temperature * b

    if _step_workers(b, *negatives.shape) == 2:
        cut = b // 3 // 24 * 24
        share = _step_worker().submit(rows, 0, cut)
        try:
            rows(cut, b)
        finally:
            share.result()
    else:
        rows(0, b)
    return float(losses.mean()), grad_q


def _run_batch(pair, bank, optim, obs_a, obs_b, temperature, lr, workspace):
    """One training step: embed two views, take the loss, update all parties.

    Every batch-sized array the step makes lives in ``workspace``.
    """
    cache = enc.forward_cached(pair.query, obs_a, workspace.query)
    k = enc.forward(pair.key, obs_b, workspace.key)
    if not np.isfinite(cache.norms[: len(k)].max() + workspace.key.norms[: len(k)].max()):  # carries any NaN or inf
        raise TrainingDivergenceError("encoder output overflowed: an embedding's norm is not finite")
    if len(bank) == 0:
        # Nothing to contrast against yet; prime the bank and move on.
        bank.enqueue(k)
        return None
    loss, grad_q = _batch_info_nce(
        cache.out, k, bank.negatives(), temperature, workspace.logits, workspace.grad_q, workspace.scratch
    )
    if not np.isfinite(loss):
        raise TrainingDivergenceError(f"non-finite contrastive loss {loss}")
    grads = enc.backward(pair.query, cache, grad_q, out=optim.grads)
    enc.sgd_step(pair.query, grads, optim, lr)
    enc.momentum_update(pair, optim.scratch)
    bank.enqueue(k)
    return loss


def _train(draw, n_steps, pair, bank, optim, config, lr, workspace, epoch, t0) -> TrainStats:
    """Train ``n_steps`` steps on the views ``draw`` gives, and sum up the epoch.

    With two `_step_workers`, the step worker draws batch i+1 while batch i
    trains; the draws still run in order, so the generator gives the same
    numbers.  An error from a step goes on once the draw in flight is done.
    """
    draw_ahead = _step_workers(config.batch_size, bank.capacity, bank.dim) == 2
    losses, pending = [], None
    try:
        for i in range(n_steps):
            view_a, view_b = draw() if pending is None else pending.result()
            pending = _step_worker().submit(draw) if draw_ahead and i + 1 < n_steps else None
            loss = _run_batch(pair, bank, optim, view_a, view_b, config.temperature, lr, workspace)
            if loss is not None:
                losses.append(loss)
    finally:
        if pending is not None:
            pending.exception()
    mean_loss = float(np.mean(losses)) if losses else float("nan")
    return TrainStats(epoch, mean_loss, lr, bank_occupancy=len(bank), wall_time=time.perf_counter() - t0)


def cid_epoch(
    pair: enc.EncoderPair,
    bank: MemoryBank,
    observations: np.ndarray,
    config: ContrastiveConfig,
    optim: enc.OptimState,
    rng: np.random.Generator,
    epoch: int = 0,
    workspace: StepWorkspace | None = None,
) -> TrainStats:
    """One instance-discrimination epoch over shuffled observations.

    Each sampled observation is augmented twice; the first view feeds the
    query network, the second the key network.  Trailing detections that do
    not fill a batch are skipped.
    """
    x = np.asarray(observations)
    if x.ndim != 2:
        raise InvalidInputError("observations must be a 2-D matrix")
    if x.shape[0] < config.batch_size:
        raise InvalidInputError(
            f"need at least batch_size={config.batch_size} detections, got {x.shape[0]}"
        )
    t0 = time.perf_counter()
    perm = rng.permutation(x.shape[0])
    if workspace is None:
        workspace = StepWorkspace.for_epoch(pair, bank, config.batch_size, x.shape[1])
    n_steps = x.shape[0] // config.batch_size
    batches = iter(perm[: n_steps * config.batch_size].reshape(n_steps, config.batch_size))

    def draw():
        obs = x[next(batches)]
        view_a = synth.augment_batch(obs, rng, config.aug_strength, workspace.augment)
        return view_a, synth.augment_batch(obs, rng, config.aug_strength, workspace.augment)

    return _train(draw, n_steps, pair, bank, optim, config, config.base_lr, workspace, epoch, t0)


def sample_tsd_pairs(
    rows: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    seg_idx: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Two distinct detection rows drawn uniformly from each chosen segment.

    Segment s holds ``rows[starts[s] : starts[s] + lengths[s]]``; one
    (anchor, positive) pair is drawn for each entry of ``seg_idx``.  For a
    segment of n rows the anchor offset is drawn from [0, n) and the
    positive's from [0, n-1), skipping the anchor.  Both bounds go to one
    ``integers`` call, interleaved pair by pair, which draws the same numbers
    as one call per bound in that order.
    """
    n = lengths[seg_idx]
    if n.size and n.min() < 2:
        raise InvalidInputError("segment must hold at least 2 detections")
    high = np.empty(2 * n.size, dtype=np.int64)
    high[0::2] = n
    high[1::2] = n - 1
    draws = rng.integers(high)
    i = draws[0::2]
    j = draws[1::2]
    j += j >= i
    first = starts[seg_idx]
    return rows[first + i], rows[first + j]


def tsd_epoch(
    pair: enc.EncoderPair,
    bank: MemoryBank,
    rows: np.ndarray,
    lengths: np.ndarray,
    observations: np.ndarray,
    config: ContrastiveConfig,
    optim: enc.OptimState,
    rng: np.random.Generator,
    epoch: int,
    workspace: StepWorkspace | None = None,
) -> TrainStats:
    """One segment-discrimination epoch with a cosine-decayed learning rate.

    ``rows`` holds the observation rows of each segment in turn, ``lengths``
    their counts; segments of fewer than 2 rows are left out.  Batches
    sample segments with probability proportional to segment length, then
    one anchor/positive detection pair per sampled segment; both sides are
    augmented independently.  An epoch covers as many batches as the total
    segment detection count supports.
    """
    usable = lengths >= 2
    if not usable.any():
        raise InvalidInputError("no segment with >= 2 detections to sample pairs from")
    x = np.asarray(observations)
    t0 = time.perf_counter()
    rows = rows[np.repeat(usable, lengths)]
    lengths = lengths[usable]
    starts = np.cumsum(lengths) - lengths
    probs = lengths / lengths.sum()
    n_batches = max(int(lengths.sum()) // config.batch_size, 1)
    step_lr = enc.cosine_lr(epoch, config.epochs_tsd, config.base_lr)
    if workspace is None:
        workspace = StepWorkspace.for_epoch(pair, bank, config.batch_size, x.shape[1])

    def draw():
        seg_idx = rng.choice(len(lengths), size=config.batch_size, p=probs)
        anchors, positives = sample_tsd_pairs(rows, starts, lengths, seg_idx, rng)
        view_a = synth.augment_batch(x[anchors], rng, config.aug_strength, workspace.augment)
        return view_a, synth.augment_batch(x[positives], rng, config.aug_strength, workspace.augment)

    return _train(draw, n_batches, pair, bank, optim, config, step_lr, workspace, epoch, t0)
