"""Contrastive training: instance discrimination and segment discrimination.

Both stages minimize the same temperature-scaled classification loss.  For a
query q, its positive key k+ and a bank of negative keys {k-}:

    loss = -log( exp(s(q, k+)/t) / (exp(s(q, k+)/t) + sum_j exp(s(q, k-_j)/t)) )

with s the cosine similarity; all embeddings arrive unit-normalized, so the
similarities are plain dot products.  Gradients flow to q and k+ only; bank
entries are constants.  cid_epoch draws positives as two augmentations of
one observation, tsd_epoch draws them as two distinct detections of one
tracklet segment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from . import synth
from .errors import InvalidInputError, TrainingDivergenceError

_UNIT_TOL = 1e-3


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

    def validate(self) -> None:
        if self.temperature <= 0:
            raise InvalidInputError("temperature must be > 0")
        if self.batch_size < 1 or self.bank_size < 1:
            raise InvalidInputError("batch_size and bank_size must be >= 1")
        if self.bank_size % self.batch_size != 0:
            raise InvalidInputError("bank_size must be divisible by batch_size")
        if not 0.0 <= self.key_momentum <= 1.0:
            raise InvalidInputError("key_momentum must lie in [0, 1]")
        if self.epochs_cid < 0 or self.epochs_tsd < 0:
            raise InvalidInputError("epoch counts must be >= 0")


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
    """Every batch-sized buffer of a training step, allocated once per epoch.

    A fresh array of 128 KiB or more is mapped and faulted in anew by
    malloc, so a step that made its B x (K+1) logits, activations and
    gradients afresh would pay for the page faults on every step, more than
    for the arithmetic at the default shapes.
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
    ``grad_q``.
    """
    if temperature <= 0:
        raise InvalidInputError("temperature must be > 0")
    if negatives.shape[0] == 0:
        raise InvalidInputError("negative bank is empty")
    b = q.shape[0]
    scratch = np.empty(q.shape, dtype=np.result_type(q, k_pos)) if scratch is None else scratch[:b]
    grad_q = np.empty(q.shape, dtype=np.result_type(logits, negatives)) if grad_q is None else grad_q[:b]
    np.multiply(q, k_pos, out=scratch)
    l_pos = np.sum(scratch, axis=1, keepdims=True) / temperature
    logits = logits[:b, : negatives.shape[0] + 1]
    logits[:, :1] = l_pos
    np.matmul(q, negatives.T, out=logits[:, 1:])
    logits[:, 1:] /= temperature
    m = logits.max(axis=1, keepdims=True)
    logits -= m
    p = np.exp(logits, out=logits)
    z = p.sum(axis=1, keepdims=True)
    losses = -(l_pos - m) + np.log(z)
    p /= z
    # d(mean loss)/dq_i = ((p_pos - 1) k+_i + sum_j p_ij k-_j) / (t B)
    np.matmul(p[:, 1:], negatives, out=grad_q)
    np.multiply(p[:, :1] - 1.0, k_pos, out=scratch)
    grad_q += scratch
    grad_q /= temperature * b
    return float(losses.mean()), grad_q


def info_nce(q: np.ndarray, k_pos: np.ndarray, bank: MemoryBank, temperature: float):
    """Loss and analytic gradients w.r.t. q and k+ for one query against the bank."""
    qv = np.asarray(q, dtype=np.float64)
    kv = np.asarray(k_pos, dtype=np.float64)
    if qv.ndim != 1 or kv.ndim != 1 or qv.shape != kv.shape:
        raise InvalidInputError("q and k_pos must be vectors of equal length")
    if len(bank) == 0:
        raise InvalidInputError("bank must be non-empty")
    for name, v in (("q", qv), ("k_pos", kv)):
        if abs(np.linalg.norm(v) - 1.0) > _UNIT_TOL:
            raise InvalidInputError(f"{name} must be unit-norm")
    workspace = np.empty((1, len(bank) + 1))
    temperature = float(temperature)
    loss, gq = _batch_info_nce(
        qv[None, :], kv[None, :], bank.negatives().astype(np.float64), temperature, workspace
    )
    # d loss/dk+ = (p_pos - 1) q / t
    gk = (workspace[0, 0] - 1.0) * qv / temperature
    return loss, gq[0], gk


def _run_batch(pair, bank, optim, obs_a, obs_b, temperature, lr, workspace):
    """One training step: embed two views, take the loss, update all parties.

    Every batch-sized array the step makes lives in ``workspace``.
    """
    cache = enc.forward_cached(pair.query, obs_a, workspace.query)
    k = enc.forward(pair.key, obs_b, workspace.key)
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


def cid_epoch(
    pair: enc.EncoderPair,
    bank: MemoryBank,
    observations: np.ndarray,
    config: ContrastiveConfig,
    optim: enc.OptimState,
    rng: np.random.Generator,
    epoch: int = 0,
    lr: float | None = None,
) -> TrainStats:
    """One instance-discrimination epoch over shuffled observations.

    Each sampled observation is augmented twice; the first view feeds the
    query network, the second the key network.  Trailing detections that do
    not fill a batch are skipped.
    """
    config.validate()
    x = np.asarray(observations)
    if x.ndim != 2:
        raise InvalidInputError("observations must be a 2-D matrix")
    if x.shape[0] < config.batch_size:
        raise InvalidInputError(
            f"need at least batch_size={config.batch_size} detections, got {x.shape[0]}"
        )
    t0 = time.perf_counter()
    step_lr = config.base_lr if lr is None else lr
    perm = rng.permutation(x.shape[0])
    workspace = StepWorkspace.for_epoch(pair, bank, config.batch_size, x.shape[1])
    losses = []
    for start in range(0, x.shape[0] - config.batch_size + 1, config.batch_size):
        idx = perm[start : start + config.batch_size]
        obs = x[idx]
        view_a = synth.augment_batch(obs, rng, config.aug_strength, workspace.augment)
        view_b = synth.augment_batch(obs, rng, config.aug_strength, workspace.augment)
        loss = _run_batch(
            pair, bank, optim, view_a, view_b, config.temperature, step_lr, workspace
        )
        if loss is not None:
            losses.append(loss)
    return TrainStats(
        epoch=epoch,
        mean_loss=float(np.mean(losses)) if losses else float("nan"),
        lr=step_lr,
        bank_occupancy=len(bank),
        wall_time=time.perf_counter() - t0,
    )


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
    segment_rows: list[np.ndarray],
    observations: np.ndarray,
    config: ContrastiveConfig,
    optim: enc.OptimState,
    rng: np.random.Generator,
    epoch: int,
) -> TrainStats:
    """One segment-discrimination epoch with a cosine-decayed learning rate.

    Batches sample segments with probability proportional to segment length,
    then one anchor/positive detection pair per sampled segment; both sides
    are augmented independently.  An epoch covers as many batches as the
    total segment detection count supports.
    """
    config.validate()
    usable = [np.asarray(s, dtype=np.int64) for s in segment_rows if len(s) >= 2]
    if not usable:
        raise InvalidInputError("no segment with >= 2 detections to sample pairs from")
    x = np.asarray(observations)
    t0 = time.perf_counter()
    rows = np.concatenate(usable)
    lengths = np.array([len(s) for s in usable], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    probs = lengths / lengths.sum()
    n_batches = max(int(lengths.sum()) // config.batch_size, 1)
    step_lr = enc.cosine_lr(epoch, config.epochs_tsd, config.base_lr)
    workspace = StepWorkspace.for_epoch(pair, bank, config.batch_size, x.shape[1])
    losses = []
    for _ in range(n_batches):
        seg_idx = rng.choice(len(usable), size=config.batch_size, p=probs)
        anchors, positives = sample_tsd_pairs(rows, starts, lengths, seg_idx, rng)
        view_a = synth.augment_batch(x[anchors], rng, config.aug_strength, workspace.augment)
        view_b = synth.augment_batch(x[positives], rng, config.aug_strength, workspace.augment)
        loss = _run_batch(
            pair, bank, optim, view_a, view_b, config.temperature, step_lr, workspace
        )
        if loss is not None:
            losses.append(loss)
    return TrainStats(
        epoch=epoch,
        mean_loss=float(np.mean(losses)) if losses else float("nan"),
        lr=step_lr,
        bank_occupancy=len(bank),
        wall_time=time.perf_counter() - t0,
    )
