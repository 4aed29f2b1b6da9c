"""Synthetic multi-camera detection streams with hidden identity labels.

A world holds a pool of identities (unit appearance vectors) and a set of
cameras (linear observation models).  Walkers enter a camera, dwell for a few
frames, and emit one observation per frame:

    obs = camera.transform @ (appearance + pose) + camera.bias + noise

where pose is a per-walker state that performs a slow random walk inside a
fixed low-rank latent subspace shared by the whole world.  Consecutive
frames of one walker differ only slightly, but over a full pass the pose
wanders across its stationary spread, the analog of articulation and
viewpoint change, while identity information lives mostly in the orthogonal
complement.

Each detection also carries a photometric flicker: a random shift along the
uniform brightness direction, fresh per frame, modeling exposure variation
between crops.  Tracking-style noise enters three more ways.  Per-frame
dropout deletes detections.  Crossing events (off by default) swap the
observation-generating identity between two concurrent walkers for a single
frame.  Ghost events emit a short-lived extra detection whose appearance
blends two concurrent walkers, the analog of a spurious box covering two
people; each ghost is labeled with whichever walker dominates the blend,
so a ghost chain usually mixes ground-truth labels.  Ground truth and the
ghost flag are evaluation-only channels, stripped before anything downstream
of the simulator and the evaluator sees them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from .errors import DegenerateInputError, InvalidInputError

log = logging.getLogger(__name__)

GT_HIDDEN = -1

# Salts for deriving independent per-purpose RNG streams from the world seed.
_SALT_IDENTITIES = 101
_SALT_CAMERAS = 202
_SALT_STREAM = 303
_SALT_SPLIT = 404
_SALT_POSE = 505

# Identity appearances are sampled with a minimum angular separation so that
# no two people are near-duplicates; candidates too close to an accepted
# appearance are rejected and redrawn.
_APPEARANCE_MAX_COS = 0.45
_APPEARANCE_MAX_TRIES = 1000


@dataclass(frozen=True)
class StreamConfig:
    """Generation parameters for one synthetic benchmark stream."""

    duration_frames: int = 2000
    entry_rate: float = 0.10
    dwell_mean: float = 15.0
    crossing_prob: float = 0.0
    ghost_rate: float = 0.08
    dropout_prob: float = 0.05
    d_latent: int = 32
    d_obs: int = 64
    pose_dim: int = 6
    pose_sigma: float = 1.1
    pose_persistence: float = 0.8
    flicker_sigma: float = 1.3
    noise_sigma: float = 0.06
    warp_scale: float = 0.05
    bias_scale: float = 0.6
    residual_bias_scale: float = 0.05

    def validate(self) -> None:
        if self.duration_frames < 1:
            raise InvalidInputError("duration_frames must be >= 1")
        if self.entry_rate < 0 or self.dwell_mean < 1:
            raise InvalidInputError("entry_rate must be >= 0 and dwell_mean >= 1")
        for name in ("crossing_prob", "ghost_rate", "dropout_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise InvalidInputError(f"{name} must lie in [0, 1]")
        if self.d_latent < 1 or self.d_obs < self.d_latent:
            raise InvalidInputError("need d_obs >= d_latent >= 1")
        if not 1 <= self.pose_dim <= self.d_latent:
            raise InvalidInputError("pose_dim must lie in [1, d_latent]")
        if not 0.0 <= self.pose_persistence < 1.0:
            raise InvalidInputError("pose_persistence must lie in [0, 1)")
        scales = (
            self.pose_sigma,
            self.flicker_sigma,
            self.noise_sigma,
            self.warp_scale,
            self.bias_scale,
            self.residual_bias_scale,
        )
        if min(scales) < 0:
            raise InvalidInputError("noise and camera perturbation scales must be >= 0")


@dataclass(frozen=True)
class IdentityLatent:
    identity_id: int
    appearance: np.ndarray  # unit vector, d_latent


@dataclass(frozen=True)
class CameraModel:
    camera_id: int
    transform: np.ndarray  # d_obs x d_latent, full column rank
    bias: np.ndarray  # d_obs
    noise_sigma: float


@dataclass(frozen=True)
class SyntheticWorld:
    config: StreamConfig
    identities: tuple[IdentityLatent, ...]
    cameras: tuple[CameraModel, ...]
    pose_basis: np.ndarray  # d_latent x pose_dim, orthonormal columns
    seed: int


def _rng(*entropy: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


def generate_world(config: StreamConfig, n_identities: int, n_cameras: int, seed: int) -> SyntheticWorld:
    """Draw identity appearances and camera models for a fixed seed."""
    config.validate()
    if n_identities < 2:
        raise InvalidInputError("need at least 2 identities")
    if n_cameras < 1:
        raise InvalidInputError("need at least 1 camera")

    rng_id = _rng(seed, _SALT_IDENTITIES)
    apps = np.zeros((n_identities, config.d_latent))
    placed = 0
    tries = 0
    while placed < n_identities:
        cand = rng_id.standard_normal(config.d_latent)
        cand /= np.linalg.norm(cand)
        if placed and float(np.max(apps[:placed] @ cand)) > _APPEARANCE_MAX_COS:
            tries += 1
            if tries > _APPEARANCE_MAX_TRIES:
                raise DegenerateInputError(
                    "cannot place %d identities in %d latent dims with pairwise "
                    "cosine below %.2f" % (n_identities, config.d_latent, _APPEARANCE_MAX_COS)
                )
            continue
        apps[placed] = cand
        placed += 1
        tries = 0
    identities = tuple(
        IdentityLatent(identity_id=i, appearance=apps[i]) for i in range(n_identities)
    )

    rng_pose = _rng(seed, _SALT_POSE)
    pose_basis, _ = np.linalg.qr(rng_pose.standard_normal((config.d_latent, config.pose_dim)))

    # Shared lift embeds the latent space into observation space; each camera
    # adds a small warp plus a bias.  The bias is mostly a brightness offset
    # along the uniform direction (the photometric family the augmentations
    # also span) with a small dense residual that no augmentation mimics.
    lift = np.zeros((config.d_obs, config.d_latent))
    lift[: config.d_latent, : config.d_latent] = np.eye(config.d_latent)
    uniform_dir = np.ones(config.d_obs) / np.sqrt(config.d_obs)
    rng_cam = _rng(seed, _SALT_CAMERAS)
    cameras = []
    for c in range(n_cameras):
        warp = config.warp_scale * rng_cam.standard_normal((config.d_obs, config.d_latent))
        brightness = config.bias_scale * rng_cam.standard_normal()
        residual = config.residual_bias_scale * rng_cam.standard_normal(config.d_obs)
        cameras.append(
            CameraModel(
                camera_id=c,
                transform=lift + warp,
                bias=brightness * uniform_dir + residual,
                noise_sigma=config.noise_sigma,
            )
        )
    return SyntheticWorld(
        config=config,
        identities=identities,
        cameras=tuple(cameras),
        pose_basis=pose_basis,
        seed=seed,
    )


@dataclass(eq=False)
class _Walker:
    # eq=False: membership checks mean "this exact walker object", and the
    # same identity may walk through one camera twice at once.
    identity: int
    end_frame: int
    pose_state: np.ndarray  # pose_dim coefficients, stationary AR(1)


@dataclass
class _Ghost:
    a: _Walker
    b: _Walker
    weight: float  # share of walker a in the blend
    offset: np.ndarray  # event-specific latent shift away from both people
    frames_left: int


# Ghost blend weights start near an even split and drift a little each frame,
# so consecutive ghost detections look alike while the dominant contributor,
# and with it the ground-truth label, can flip mid-event.  The fixed offset
# models occluder and background content in the double box: it keeps the
# event's detections mutually similar yet unlike either real appearance.
_GHOST_W_LO, _GHOST_W_HI = 0.35, 0.65
_GHOST_W_CLIP_LO, _GHOST_W_CLIP_HI = 0.3, 0.7
_GHOST_W_DRIFT = 0.15
_GHOST_OFFSET_SCALE = 1.0
_GHOST_EXTRA_FRAMES = 1.5


def _observe(
    world: SyntheticWorld,
    cam: CameraModel,
    bases: list[np.ndarray],
    states: list[np.ndarray],
    flickers: list[float],
    noises: list[np.ndarray],
) -> np.ndarray:
    """One camera's observations from what its detections' draws gave.

    Row i is ``transform @ (bases[i] + pose_basis @ states[i]) + bias
    + flickers[i] * bright_dir + noise_sigma * noises[i]``, summed in that
    order.  Each matrix-vector product is one slice of a stacked matmul,
    which makes the BLAS call a lone ``matrix @ vector`` makes, so the rows
    are bit-equal to computing them one at a time.

    The block is built in the returned n x d_obs array and one scratch array
    of the same shape: the stacked inputs, the pose products and the latent
    vectors each occupy the front of one of them until the next step
    overwrites it, and every sum and product is taken in place or through
    ``out=``.
    """
    cfg = world.config
    n = len(bases)
    obs = np.empty((n, cfg.d_obs))
    scratch = np.empty((n, cfg.d_obs))

    def front(buf: np.ndarray, cols: int) -> np.ndarray:
        """The first n * cols items of ``buf`` as a C-contiguous n x cols x 1 array."""
        return buf.reshape(-1)[: n * cols].reshape(n, cols, 1)

    states_3d = front(scratch, cfg.pose_dim)
    np.stack(states, out=states_3d[..., 0])
    pose = np.matmul(world.pose_basis, states_3d, out=front(obs, cfg.d_latent))
    latent = front(scratch, cfg.d_latent)
    np.stack(bases, out=latent[..., 0])
    latent += pose
    np.matmul(cam.transform, latent, out=obs.reshape(n, cfg.d_obs, 1))
    obs += cam.bias
    obs += np.multiply.outer(np.array(flickers), np.ones(cfg.d_obs) / np.sqrt(cfg.d_obs), out=scratch)
    noise = np.stack(noises, out=scratch)
    noise *= cam.noise_sigma
    obs += noise
    return obs


def simulate_stream(world: SyntheticWorld, dtype=np.float64) -> DetectionTable:
    """Roll the world forward, one independent RNG stream per camera.

    Returns the detection table, gt labels and ghost flags included, with
    rows ordered by (camera_id, frame) and det_ids 0..n-1 assigned in that
    order; an empty stream gives a 0-row table with d_obs columns.  Dropout
    removes single detections; crossing events swap which identity generates
    the observation for one frame while gt labels stay with their walkers;
    ghost events add transient blended detections on top of the real ones.

    The frame loop makes every RNG draw and records what each detection's
    draws gave; a camera's observations are computed in float64 from those
    records once its stream ends (see ``_observe``).  They are stored as
    ``dtype``: each camera's block is cast as soon as it is made and only
    the cast blocks are joined, so the result is the float64 stream cast
    afterwards, bit for bit, without the whole stream ever held in float64.
    """
    cfg = world.config
    n_ids = len(world.identities)
    apps = np.stack([ident.appearance for ident in world.identities])
    pose_scale = cfg.pose_sigma / np.sqrt(cfg.pose_dim)
    rho = cfg.pose_persistence
    innov = np.sqrt(1.0 - rho * rho)

    rows: list[tuple[int, int, int, int]] = []  # (frame, camera_id, gt_id, ghost) per detection
    obs_parts: list[np.ndarray] = []
    for cam in world.cameras:
        rng = _rng(world.seed, _SALT_STREAM, cam.camera_id)
        walkers: list[_Walker] = []
        ghost: _Ghost | None = None
        # Per detection: latent appearance (or ghost blend), pose state, flicker, noise.
        bases: list[np.ndarray] = []
        states: list[np.ndarray] = []
        flickers: list[float] = []
        noises: list[np.ndarray] = []
        for f in range(cfg.duration_frames):
            walkers = [w for w in walkers if w.end_frame > f]
            n_new = rng.poisson(cfg.entry_rate)
            for _ in range(n_new):
                ident = int(rng.integers(n_ids))
                dwell = 1 + int(rng.poisson(max(cfg.dwell_mean - 1.0, 0.0)))
                state = pose_scale * rng.standard_normal(cfg.pose_dim)
                walkers.append(_Walker(identity=ident, end_frame=f + dwell, pose_state=state))

            if ghost is not None and (
                ghost.frames_left <= 0 or ghost.a not in walkers or ghost.b not in walkers
            ):
                ghost = None
            if ghost is None and len(walkers) >= 2 and rng.random() < cfg.ghost_rate:
                i, j = rng.choice(len(walkers), size=2, replace=False)
                shift = rng.standard_normal(cfg.d_latent)
                shift *= _GHOST_OFFSET_SCALE / np.linalg.norm(shift)
                ghost = _Ghost(
                    a=walkers[int(i)],
                    b=walkers[int(j)],
                    weight=float(rng.uniform(_GHOST_W_LO, _GHOST_W_HI)),
                    offset=shift,
                    frames_left=1 + int(rng.poisson(_GHOST_EXTRA_FRAMES)),
                )

            # Observation source per walker; a crossing event swaps two.
            source = [w.identity for w in walkers]
            if len(walkers) >= 2 and rng.random() < cfg.crossing_prob:
                i, j = rng.choice(len(walkers), size=2, replace=False)
                source[i], source[j] = source[j], source[i]

            for w, src in zip(walkers, source):
                # The pose walk advances every frame, observed or not.
                w.pose_state = rho * w.pose_state + innov * (
                    pose_scale * rng.standard_normal(cfg.pose_dim)
                )
                if rng.random() < cfg.dropout_prob:
                    continue
                rows.append((f, cam.camera_id, w.identity, 0))
                bases.append(apps[src])
                states.append(w.pose_state)
                flickers.append(cfg.flicker_sigma * rng.standard_normal())
                noises.append(rng.standard_normal(cfg.d_obs))
            if ghost is not None:
                wgt = ghost.weight
                label = ghost.a.identity if wgt >= 0.5 else ghost.b.identity
                rows.append((f, cam.camera_id, label, 1))
                bases.append(
                    wgt * apps[ghost.a.identity]
                    + (1.0 - wgt) * apps[ghost.b.identity]
                    + ghost.offset
                )
                states.append(wgt * ghost.a.pose_state + (1.0 - wgt) * ghost.b.pose_state)
                flickers.append(cfg.flicker_sigma * rng.standard_normal())
                noises.append(rng.standard_normal(cfg.d_obs))
                ghost.weight = float(
                    np.clip(
                        wgt + _GHOST_W_DRIFT * rng.standard_normal(),
                        _GHOST_W_CLIP_LO,
                        _GHOST_W_CLIP_HI,
                    )
                )
                ghost.frames_left -= 1
        if bases:
            obs_parts.append(_observe(world, cam, bases, states, flickers, noises).astype(dtype, copy=False))

    frame, camera_id, gt_id, ghost = zip(*rows) if rows else ((),) * 4
    return DetectionTable(
        det_id=np.arange(len(rows)),
        frame=frame,
        camera_id=camera_id,
        gt_id=gt_id,
        observations=np.concatenate(obs_parts) if obs_parts else np.zeros((0, cfg.d_obs), dtype=dtype),
        ghost=ghost,
    )


def augment_batch(
    x: np.ndarray, rng: np.random.Generator, strength: float, workspace: np.ndarray | None = None
) -> np.ndarray:
    """Stochastic observation-space augmentation, applied row-wise.

    Composes per-coordinate Gaussian jitter, a random brightness shift along
    the uniform direction, a random per-row gain, and random coordinate
    dropout.  Every component scales with ``strength`` and strength 0 is the
    identity.  The brightness and gain components span the photometric
    family along which cameras typically differ.

    ``workspace`` is a float64 2 x n x d buffer for the jitter (which then
    accumulates the result) and the dropout mask, so that a training epoch
    allocates them once; without it they are allocated per call.  The
    result is a fresh array of ``x``'s dtype.
    """
    if strength < 0:
        raise InvalidInputError("augmentation strength must be >= 0")
    a = np.atleast_2d(np.asarray(x))
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("observations contain non-finite entries")
    if strength == 0.0:
        return a.copy()
    if workspace is None:
        workspace = np.empty((2, *a.shape))
    elif workspace.shape != (2, *a.shape) or workspace.dtype != np.float64:
        raise InvalidInputError("augmentation workspace must be a float64 2 x n x d array")
    out, keep = workspace
    d = a.shape[1]
    rng.standard_normal(out=out)
    out *= 0.15 * strength  # the jitter
    brightness = 1.5 * strength * rng.standard_normal((a.shape[0], 1)) * (1.0 / np.sqrt(d))
    gain = 1.0 + 0.5 * strength * rng.uniform(-1.0, 1.0, size=(a.shape[0], 1))
    rng.random(out=keep)
    np.greater_equal(keep, 0.25 * strength, out=keep)  # 1.0 keeps a coordinate, 0.0 drops it
    np.add(a, out, out=out)
    out += brightness
    np.multiply(gain, out, out=out)
    out *= keep
    return out.astype(a.dtype)


@dataclass(eq=False)
class DetectionTable:
    """Column-oriented detection set for bulk numpy work.

    The fields are the columns: one int64 array per integer column (see
    ``INT_COLUMNS``) and an n x d observation matrix.  ``ghost`` defaults
    to all zeros.
    """

    det_id: np.ndarray
    frame: np.ndarray
    camera_id: np.ndarray
    gt_id: np.ndarray
    observations: np.ndarray
    ghost: np.ndarray | None = None

    # Every field but the observations, in field order; set below.
    INT_COLUMNS: ClassVar[tuple[str, ...]]

    def __post_init__(self) -> None:
        n = len(self.det_id)
        if self.ghost is None:
            self.ghost = np.zeros(n, dtype=np.int64)
        for name in self.INT_COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        self.observations = np.asarray(self.observations)
        if any(len(getattr(self, name)) != n for name in self.INT_COLUMNS):
            raise InvalidInputError("detection table columns disagree on length")
        if self.observations.ndim != 2 or self.observations.shape[0] != n:
            raise InvalidInputError("observation matrix does not match table length")

    def __len__(self) -> int:
        return len(self.det_id)

    def select(self, mask_or_idx) -> "DetectionTable":
        return DetectionTable(**{f.name: getattr(self, f.name)[mask_or_idx] for f in fields(self)})

    def without_gt(self) -> "DetectionTable":
        """Copy with the evaluation-only channels (gt, ghost flag) cleared."""
        return replace(self, gt_id=np.full(len(self), GT_HIDDEN, dtype=np.int64), ghost=None)

    def astype(self, dtype) -> "DetectionTable":
        return replace(self, observations=self.observations.astype(dtype, copy=False))


DetectionTable.INT_COLUMNS = tuple(f.name for f in fields(DetectionTable) if f.name != "observations")


def split_eval(
    world: SyntheticWorld,
    table: DetectionTable,
    query_frac: float,
    eval_window_frac: float = 0.15,
) -> tuple[DetectionTable, DetectionTable]:
    """Carve a query/gallery evaluation split out of the tail of a stream's table.

    The final ``eval_window_frac`` of frames is reserved for evaluation;
    everything earlier is training data (see :func:`training_table`).  Within
    the window, identities seen by at least two cameras are query-eligible,
    and per (identity, camera) group roughly ``query_frac`` of detections
    move to the query set, always leaving at least one in the gallery so
    every query keeps a cross-camera match.
    """
    if not 0.0 < query_frac < 1.0:
        raise InvalidInputError("query_frac must lie strictly between 0 and 1")
    if not 0.0 < eval_window_frac < 1.0:
        raise InvalidInputError("eval_window_frac must lie strictly between 0 and 1")
    if len(table) == 0:
        raise DegenerateInputError("stream holds no detections to split")
    start = eval_window_start(world.config, eval_window_frac)
    # Ghost detections stay in the training stream but are junk crops, so
    # they are excluded from the curated evaluation sets.
    pool = table.select((table.frame >= start) & (table.ghost == 0))
    if len(pool) == 0:
        raise DegenerateInputError("evaluation window holds no detections")

    cams_per_id: dict[int, set[int]] = {}
    for gt, cam in zip(pool.gt_id, pool.camera_id):
        cams_per_id.setdefault(int(gt), set()).add(int(cam))
    eligible = {gt for gt, cams in cams_per_id.items() if len(cams) >= 2}
    skipped = len(cams_per_id) - len(eligible)
    if skipped:
        log.warning(
            "split_eval: %d identities appear under a single camera and are gallery-only",
            skipped,
        )
    if not eligible:
        raise DegenerateInputError("no identity appears under two cameras in the window")

    rng = _rng(world.seed, _SALT_SPLIT)
    query_mask = np.zeros(len(pool), dtype=bool)
    order = np.lexsort((pool.det_id, pool.camera_id, pool.gt_id))
    groups: dict[tuple[int, int], list[int]] = {}
    for pos in order:
        gt = int(pool.gt_id[pos])
        if gt not in eligible:
            continue
        groups.setdefault((gt, int(pool.camera_id[pos])), []).append(int(pos))
    for key in sorted(groups):
        members = groups[key]
        n = len(members)
        take = min(max(int(round(query_frac * n)), 1), n - 1)
        if take <= 0:
            continue
        picked = rng.choice(n, size=take, replace=False)
        for p in picked:
            query_mask[members[int(p)]] = True

    query = pool.select(query_mask)
    gallery = pool.select(~query_mask)
    if len(query) == 0:
        raise DegenerateInputError("query split is empty; raise query_frac or traffic")
    return query, gallery


def eval_window_start(config: StreamConfig, eval_window_frac: float) -> int:
    """First frame index of the held-out evaluation window."""
    return config.duration_frames - max(int(round(eval_window_frac * config.duration_frames)), 1)


def training_table(
    config: StreamConfig, table: DetectionTable, eval_window_frac: float = 0.15
) -> DetectionTable:
    """Detections before the evaluation window, with gt labels stripped."""
    start = eval_window_start(config, eval_window_frac)
    return table.select(table.frame < start).without_gt()
