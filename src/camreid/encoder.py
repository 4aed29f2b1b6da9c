"""Fully-connected embedding network with hand-written backpropagation.

The network maps observation vectors through rectified hidden layers to an
embedding that is L2-normalized row-wise inside the model, so every consumer
sees unit vectors.  Gradients are computed analytically, including the
Jacobian of the final normalization.  Two copies train together: the query
network receives gradient steps, the key network trails it through a
momentum (exponential moving average) update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, TrainingDivergenceError

_NORM_FLOOR = 1e-30


@dataclass
class EncoderParams:
    """Per-layer weights/biases; weights[i] has shape (dims[i], dims[i+1])."""

    dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def dtype(self):
        return self.weights[0].dtype

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            dims=self.dims,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


@dataclass
class EncoderGrads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class EncoderPair:
    query: EncoderParams
    key: EncoderParams
    momentum: float = 0.999


def _buffers_like(params: EncoderParams) -> EncoderGrads:
    return EncoderGrads(
        weights=[np.empty_like(w) for w in params.weights],
        biases=[np.empty_like(b) for b in params.biases],
    )


@dataclass
class OptimState:
    """SGD with classical momentum and L2 weight decay folded into the velocity.

    ``grads`` and ``scratch`` are parameter-shaped buffers that every
    training step reuses, for `backward`'s output and for the update
    arithmetic.  A fresh array the size of a 256 x 128 float32 layer is at
    malloc's 128 KiB mmap threshold, and would be mapped and faulted in
    anew on every step.
    """

    velocity_w: list[np.ndarray]
    velocity_b: list[np.ndarray]
    grads: EncoderGrads = field(repr=False)
    scratch: EncoderGrads = field(repr=False)
    momentum: float = 0.9
    weight_decay: float = 1e-4

    @staticmethod
    def for_params(params: EncoderParams, momentum: float = 0.9, weight_decay: float = 1e-4) -> "OptimState":
        return OptimState(
            velocity_w=[np.zeros_like(w) for w in params.weights],
            velocity_b=[np.zeros_like(b) for b in params.biases],
            momentum=momentum,
            weight_decay=weight_decay,
            grads=_buffers_like(params),
            scratch=_buffers_like(params),
        )


def init_encoder(dims, seed: int, dtype=np.float32, momentum: float = 0.999) -> EncoderPair:
    """Build a query/key pair with fan-in scaled uniform init; key starts equal."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise InvalidInputError(f"invalid layer dims {dims}")
    if not 0.0 <= momentum <= 1.0:
        raise InvalidInputError("momentum must lie in [0, 1]")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 777])))
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype))
        biases.append(rng.uniform(-bound, bound, size=fan_out).astype(dtype))
    query = EncoderParams(dims=dims, weights=weights, biases=biases)
    return EncoderPair(query=query, key=query.copy(), momentum=momentum)


@dataclass
class ForwardCache:
    """Buffers for a forward pass of up to ``len(z)`` rows and its `backward`.

    Built once by `for_rows` and filled by every pass that is given it, so a
    training stage or an embedding loop maps its activations once instead of
    once per batch; `backward` adds its ``deltas`` on its first call, so a
    cache that only embeds never holds them.  After a pass of n rows,
    ``inputs`` and ``out`` describe that pass: ``inputs[0]`` is the batch
    itself and ``out`` holds its unit rows, in the cache's own buffer or in
    the slice the caller gave.  Each buffer is filled by the call that made
    a fresh array before, with ``out=``, so the results are the same bits.
    """

    hidden: list[np.ndarray]  # each hidden layer's rectified output
    z: np.ndarray  # the last layer's output, before normalization
    norms: np.ndarray  # row norms of z, floored
    unit: np.ndarray  # unit-norm embeddings, unless the caller gives ``out``
    deltas: list[np.ndarray] = field(default_factory=list)  # `backward`'s gradient w.r.t. each layer's output
    inputs: list[np.ndarray] = field(default_factory=list)  # the input of each layer
    out: np.ndarray | None = None

    @staticmethod
    def for_rows(params: EncoderParams, rows: int) -> "ForwardCache":
        dims, dtype = params.dims, params.dtype
        return ForwardCache(
            hidden=[np.empty((rows, d), dtype=dtype) for d in dims[1:-1]],
            z=np.empty((rows, dims[-1]), dtype=dtype),
            norms=np.empty((rows, 1), dtype=dtype),
            unit=np.empty((rows, dims[-1]), dtype=dtype),
        )

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (*self.hidden, self.z, self.norms, self.unit, *self.deltas))


def forward_cached(
    params: EncoderParams, batch: np.ndarray, cache: ForwardCache | None = None, out: np.ndarray | None = None
) -> ForwardCache:
    """Embed a batch and keep the layer inputs and norms for `backward`.

    The pass fills ``cache`` (one for the batch's rows is made when it is not
    given) and writes the unit rows into ``out`` when it is given.
    """
    x = np.asarray(batch)
    if x.ndim != 2 or x.shape[1] != params.dims[0]:
        raise InvalidInputError(
            f"batch shape {x.shape} does not match input dim {params.dims[0]}"
        )
    # min and max carry any NaN or infinity, without a temporary the batch's size.
    if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise InvalidInputError("batch contains non-finite entries")
    x = x.astype(params.dtype, copy=False)
    n = x.shape[0]
    if cache is None:
        cache = ForwardCache.for_rows(params, n)
    elif len(cache.z) < n or cache.z.shape[1] != params.dims[-1] or cache.z.dtype != params.dtype:
        raise InvalidInputError(f"forward cache for {len(cache.z)} rows does not fit this batch and encoder")
    if out is None:
        out = cache.unit[:n]
    elif out.shape != (n, params.dims[-1]) or out.dtype != params.dtype:
        raise InvalidInputError(f"out must be a {params.dtype} array of shape {(n, params.dims[-1])}")
    inputs = [x]
    h = x
    for w, b, buf in zip(params.weights[:-1], params.biases[:-1], cache.hidden):
        h = np.matmul(h, w, out=buf[:n])
        h += b
        np.maximum(h, 0, out=h)
        inputs.append(h)
    z_out = np.matmul(h, params.weights[-1], out=cache.z[:n])
    z_out += params.biases[-1]
    np.multiply(z_out, z_out, out=out)
    norms = np.sum(out, axis=1, keepdims=True, out=cache.norms[:n])
    np.sqrt(norms, out=norms)
    np.maximum(norms, _NORM_FLOOR, out=norms)
    np.divide(z_out, norms, out=out)
    cache.inputs, cache.out = inputs, out
    return cache


def forward(
    params: EncoderParams, batch: np.ndarray, cache: ForwardCache | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Embed a batch (rows are observations) into unit-norm rows.

    ``cache`` and ``out`` are as for `forward_cached`; the result is ``out``
    when it is given, and otherwise rows of the cache's buffer, which the
    next pass through that cache overwrites.
    """
    return forward_cached(params, batch, cache, out).out


def backward(
    params: EncoderParams, cache: ForwardCache, grad_embeddings: np.ndarray, out: EncoderGrads | None = None
) -> EncoderGrads:
    """Analytic parameter gradients for the given upstream embedding gradient.

    ``cache`` is the forward pass, by the same parameters, that produced the
    embeddings; its ``deltas`` take the gradients w.r.t. each layer's
    output.  The normalization layer's Jacobian is applied first: for
    y = z/|z|, dz = (g - y (y.g)) / |z|.  The gradients are written into
    ``out`` when it is given, and returned.
    """
    y = cache.out
    n = len(y)
    g = np.asarray(grad_embeddings, dtype=params.dtype)
    if g.shape != y.shape:
        raise InvalidInputError("grad_embeddings shape does not match embeddings")
    if not cache.deltas:
        cache.deltas = [np.empty((len(cache.z), d), dtype=params.dtype) for d in params.dims[1:]]
    dz = np.multiply(y, g, out=cache.deltas[-1][:n])
    inner = np.sum(dz, axis=1, keepdims=True)
    np.multiply(y, inner, out=dz)
    np.subtract(g, dz, out=dz)
    dz /= cache.norms[:n]

    if out is None:
        out = _buffers_like(params)
    for i in range(len(params.weights) - 1, -1, -1):
        h_in = cache.inputs[i]
        np.matmul(h_in.T, dz, out=out.weights[i])
        np.sum(dz, axis=0, out=out.biases[i])
        if i > 0:
            dh = np.matmul(dz, params.weights[i].T, out=cache.deltas[i - 1][:n])
            dh[h_in <= 0] = 0
            dz = dh
    return out


def sgd_step(params: EncoderParams, grads: EncoderGrads, optim: OptimState, lr: float) -> EncoderParams:
    """In-place momentum SGD update: v <- m v + g + wd p; p <- p - lr v."""
    for g in grads.weights + grads.biases:
        if not np.all(np.isfinite(g)):
            raise TrainingDivergenceError("non-finite gradient in sgd_step")
    lr_t = params.dtype.type(lr)
    for p, g, v, s in zip(
        params.weights + params.biases,
        grads.weights + grads.biases,
        optim.velocity_w + optim.velocity_b,
        optim.scratch.weights + optim.scratch.biases,
    ):
        # v += g + wd p; p -= lr v, each product and sum rounded as written.
        v *= optim.momentum
        np.multiply(optim.weight_decay, p, out=s)
        np.add(g, s, out=s)
        v += s
        np.multiply(lr_t, v, out=s)
        p -= s
    return params


def cosine_lr(epoch: int, total_epochs: int, base_lr: float) -> float:
    """Half-cosine decay from base_lr at epoch 0 to 0 at epoch == total_epochs."""
    if total_epochs < 1:
        raise InvalidInputError("total_epochs must be >= 1")
    if not 0 <= epoch <= total_epochs:
        raise InvalidInputError("epoch must lie in [0, total_epochs]")
    return 0.5 * base_lr * (1.0 + np.cos(np.pi * epoch / total_epochs))


def momentum_update(pair: EncoderPair, scratch: EncoderGrads | None = None) -> None:
    """Move the key network toward the query network: k <- m k + (1 - m) q.

    ``scratch`` holds parameter-shaped buffers for (1 - m) q; without it they
    are allocated per call.
    """
    if scratch is None:
        scratch = _buffers_like(pair.query)
    m = pair.key.dtype.type(pair.momentum)
    one_minus = pair.key.dtype.type(1.0 - pair.momentum)
    for k, q, s in zip(
        pair.key.weights + pair.key.biases,
        pair.query.weights + pair.query.biases,
        scratch.weights + scratch.biases,
    ):
        k *= m
        np.multiply(one_minus, q, out=s)
        k += s
