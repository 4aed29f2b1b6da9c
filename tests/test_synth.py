"""Simulator determinism, augmentation behavior, and split guarantees."""

import dataclasses

import numpy as np
import pytest

from camreid import synth
from camreid.errors import DegenerateInputError, InvalidInputError

SMALL = synth.StreamConfig(duration_frames=300, entry_rate=0.15)


def _world(seed=0, config=SMALL, n_identities=20, n_cameras=3):
    return synth.generate_world(config, n_identities, n_cameras, seed)


def test_same_seed_reproduces_stream_bit_for_bit():
    a = synth.simulate_stream(_world(seed=5))
    b = synth.simulate_stream(_world(seed=5))
    assert np.array_equal(a.det_id, b.det_id)
    assert np.array_equal(a.gt_id, b.gt_id)
    assert np.array_equal(a.ghost, b.ghost)
    assert np.array_equal(a.observations, b.observations)


def test_different_seeds_differ():
    a = synth.simulate_stream(_world(seed=1))
    b = synth.simulate_stream(_world(seed=2))
    assert len(a) != len(b) or not np.array_equal(a.observations, b.observations)


def _per_detection_stream(world):
    """The simulator as one loop that computes each observation when drawn."""
    cfg = world.config
    apps = np.stack([ident.appearance for ident in world.identities])
    pose_scale = cfg.pose_sigma / np.sqrt(cfg.pose_dim)
    rho = cfg.pose_persistence
    innov = np.sqrt(1.0 - rho * rho)
    bright_dir = np.ones(cfg.d_obs) / np.sqrt(cfg.d_obs)
    rows = []
    for cam in world.cameras:
        rng = synth._rng(world.seed, synth._SALT_STREAM, cam.camera_id)
        walkers, ghost = [], None
        for f in range(cfg.duration_frames):
            walkers = [w for w in walkers if w.end_frame > f]
            for _ in range(rng.poisson(cfg.entry_rate)):
                ident = int(rng.integers(len(apps)))
                dwell = 1 + int(rng.poisson(max(cfg.dwell_mean - 1.0, 0.0)))
                state = pose_scale * rng.standard_normal(cfg.pose_dim)
                walkers.append(synth._Walker(identity=ident, end_frame=f + dwell, pose_state=state))
            if ghost is not None and (
                ghost.frames_left <= 0 or ghost.a not in walkers or ghost.b not in walkers
            ):
                ghost = None
            if ghost is None and len(walkers) >= 2 and rng.random() < cfg.ghost_rate:
                i, j = rng.choice(len(walkers), size=2, replace=False)
                shift = rng.standard_normal(cfg.d_latent)
                shift *= synth._GHOST_OFFSET_SCALE / np.linalg.norm(shift)
                ghost = synth._Ghost(
                    a=walkers[int(i)],
                    b=walkers[int(j)],
                    weight=float(rng.uniform(synth._GHOST_W_LO, synth._GHOST_W_HI)),
                    offset=shift,
                    frames_left=1 + int(rng.poisson(synth._GHOST_EXTRA_FRAMES)),
                )
            source = {id(w): w.identity for w in walkers}
            if len(walkers) >= 2 and rng.random() < cfg.crossing_prob:
                i, j = rng.choice(len(walkers), size=2, replace=False)
                wi, wj = walkers[int(i)], walkers[int(j)]
                source[id(wi)], source[id(wj)] = source[id(wj)], source[id(wi)]
            for w in walkers:
                w.pose_state = rho * w.pose_state + innov * (
                    pose_scale * rng.standard_normal(cfg.pose_dim)
                )
                if rng.random() < cfg.dropout_prob:
                    continue
                pose = world.pose_basis @ w.pose_state
                flicker = cfg.flicker_sigma * rng.standard_normal()
                obs = (
                    cam.transform @ (apps[source[id(w)]] + pose)
                    + cam.bias
                    + flicker * bright_dir
                    + cam.noise_sigma * rng.standard_normal(cfg.d_obs)
                )
                rows.append((f, cam.camera_id, w.identity, 0, obs))
            if ghost is not None:
                wgt = ghost.weight
                blend = wgt * apps[ghost.a.identity] + (1.0 - wgt) * apps[ghost.b.identity] + ghost.offset
                pose_mix = world.pose_basis @ (wgt * ghost.a.pose_state + (1.0 - wgt) * ghost.b.pose_state)
                flicker = cfg.flicker_sigma * rng.standard_normal()
                obs = (
                    cam.transform @ (blend + pose_mix)
                    + cam.bias
                    + flicker * bright_dir
                    + cam.noise_sigma * rng.standard_normal(cfg.d_obs)
                )
                rows.append((f, cam.camera_id, ghost.a.identity if wgt >= 0.5 else ghost.b.identity, 1, obs))
                ghost.weight = float(
                    np.clip(
                        wgt + synth._GHOST_W_DRIFT * rng.standard_normal(),
                        synth._GHOST_W_CLIP_LO,
                        synth._GHOST_W_CLIP_HI,
                    )
                )
                ghost.frames_left -= 1
    frame, camera_id, gt_id, ghost_flag, obs = zip(*rows)
    return frame, camera_id, gt_id, ghost_flag, np.stack(obs)


def test_simulate_stream_matches_per_detection_reference():
    # Crossings and ghosts on, so every branch of the frame loop draws.
    cfg = dataclasses.replace(SMALL, crossing_prob=0.3, ghost_rate=0.3, entry_rate=0.3)
    world = _world(seed=4, config=cfg, n_identities=30)
    table = synth.simulate_stream(world)
    frame, camera_id, gt_id, ghost, obs = _per_detection_stream(world)
    assert table.ghost.sum() > 0
    assert np.array_equal(table.det_id, np.arange(len(frame)))
    for name, want in (("frame", frame), ("camera_id", camera_id), ("gt_id", gt_id), ("ghost", ghost)):
        assert np.array_equal(getattr(table, name), want), name
    assert table.observations.dtype == obs.dtype
    assert table.observations.tobytes() == obs.tobytes()


@pytest.mark.parametrize("seed", [0, 4])
def test_simulate_stream_in_float32_is_the_cast_float64_stream(seed):
    cfg = dataclasses.replace(SMALL, crossing_prob=0.3, ghost_rate=0.3)
    world = _world(seed=seed, config=cfg)
    wide = synth.simulate_stream(world)
    narrow = synth.simulate_stream(world, np.float32)
    assert wide.observations.dtype == np.float64
    assert narrow.observations.dtype == np.float32
    assert narrow.observations.tobytes() == wide.observations.astype(np.float32).tobytes()
    for name in synth.DetectionTable.INT_COLUMNS:
        assert np.array_equal(getattr(narrow, name), getattr(wide, name)), name


def test_world_shapes_and_normalization():
    world = _world()
    assert len(world.identities) == 20
    assert len(world.cameras) == 3
    for ident in world.identities:
        assert np.isclose(np.linalg.norm(ident.appearance), 1.0, atol=1e-12)
    for cam in world.cameras:
        assert cam.transform.shape == (SMALL.d_obs, SMALL.d_latent)
    basis = world.pose_basis
    assert basis.shape == (SMALL.d_latent, SMALL.pose_dim)
    assert np.allclose(basis.T @ basis, np.eye(SMALL.pose_dim), atol=1e-10)


def test_full_dropout_yields_no_real_detections():
    cfg = dataclasses.replace(SMALL, dropout_prob=1.0, ghost_rate=0.0)
    table = synth.simulate_stream(_world(config=cfg))
    assert len(table) == 0


def test_zero_entry_rate_stream_is_an_empty_table():
    cfg = dataclasses.replace(SMALL, entry_rate=0.0)
    table = synth.simulate_stream(_world(config=cfg))
    assert len(table) == 0
    assert table.observations.shape == (0, SMALL.d_obs)
    assert all(getattr(table, c).dtype == np.int64 for c in synth.DetectionTable.INT_COLUMNS)
    assert synth.simulate_stream(_world(config=cfg), np.float32).observations.dtype == np.float32


def test_stream_detections_are_well_formed():
    world = _world(seed=3)
    table = synth.simulate_stream(world)
    assert len(table) > 0
    # det_ids unique and ordered by (camera, frame) construction.
    assert len(np.unique(table.det_id)) == len(table)
    assert table.gt_id.min() >= 0
    assert table.gt_id.max() < len(world.identities)
    assert np.all(np.isfinite(table.observations))
    assert table.observations.shape[1] == SMALL.d_obs
    order = np.lexsort((table.frame, table.camera_id))
    assert np.array_equal(table.det_id, table.det_id[order])


def test_ghost_rate_zero_means_no_ghosts():
    cfg = dataclasses.replace(SMALL, ghost_rate=0.0)
    table = synth.simulate_stream(_world(config=cfg))
    assert table.ghost.sum() == 0


def test_ghosts_appear_and_carry_valid_labels():
    cfg = dataclasses.replace(SMALL, ghost_rate=0.5, entry_rate=0.4)
    world = _world(config=cfg, n_identities=30)
    table = synth.simulate_stream(world)
    ghosts = table.select(table.ghost == 1)
    assert len(ghosts) > 0
    assert ghosts.gt_id.min() >= 0
    assert ghosts.gt_id.max() < 30
    # At most one ghost per camera-frame.
    keys = list(zip(ghosts.camera_id.tolist(), ghosts.frame.tolist()))
    assert len(keys) == len(set(keys))


def test_pose_walk_moves_single_walker_observations():
    # One identity, no noise channels: consecutive observations of a walker
    # still differ (pose advances) but stay within the pose subspace budget,
    # while remaining closer to each other than to a typical later frame.
    cfg = dataclasses.replace(
        SMALL,
        entry_rate=0.0,
        dwell_mean=1.0,
        dropout_prob=0.0,
        ghost_rate=0.0,
        flicker_sigma=0.0,
        noise_sigma=0.0,
    )
    # entry_rate 0 gives an empty stream; hand-roll the walk instead.
    world = _world(config=cfg, n_identities=2)
    rho = cfg.pose_persistence
    scale = cfg.pose_sigma / np.sqrt(cfg.pose_dim)
    rng = np.random.default_rng(0)
    state = scale * rng.standard_normal(cfg.pose_dim)
    steps = [state.copy()]
    for _ in range(400):
        state = rho * state + np.sqrt(1 - rho * rho) * (
            scale * rng.standard_normal(cfg.pose_dim)
        )
        steps.append(state.copy())
    steps = np.stack(steps)
    # Stationarity: long-run scatter per coordinate close to the target.
    assert np.std(steps) == pytest.approx(scale, rel=0.15)
    # Adjacent steps are much closer than the scatter of distant pairs.
    adjacent = np.linalg.norm(np.diff(steps, axis=0), axis=1).mean()
    distant = np.linalg.norm(steps[:-40] - steps[40:], axis=1).mean()
    assert adjacent < 0.75 * distant


def test_augment_strength_zero_is_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 8))
    out = synth.augment_batch(x, rng, 0.0)
    assert np.array_equal(out, x)
    assert out is not x


def test_augment_preserves_shape_and_dtype():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 10)).astype(np.float32)
    out = synth.augment_batch(x, rng, 0.6)
    assert out.shape == x.shape
    assert out.dtype == np.float32
    assert np.all(np.isfinite(out))
    assert not np.array_equal(out, x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_augment_batch_matches_plain_formula(dtype):
    # The buffered version must draw and round exactly as the plain
    # expression it replaced, with or without a caller's workspace.
    x = np.random.default_rng(3).standard_normal((5, 7)).astype(dtype)
    strength = 0.6
    rng = np.random.default_rng(9)
    jitter = 0.15 * strength * rng.standard_normal(x.shape)
    brightness = (
        1.5 * strength * rng.standard_normal((x.shape[0], 1)) * (1.0 / np.sqrt(x.shape[1]))
    ) * np.ones((1, x.shape[1]))
    gain = 1.0 + 0.5 * strength * rng.uniform(-1.0, 1.0, size=(x.shape[0], 1))
    keep = rng.random(x.shape) >= 0.25 * strength
    want = (gain * (x + jitter + brightness) * keep).astype(dtype)
    for workspace in (None, np.full((2, *x.shape), np.nan)):
        got = synth.augment_batch(x, np.random.default_rng(9), strength, workspace)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()
    with pytest.raises(InvalidInputError):
        synth.augment_batch(x, rng, strength, np.empty((2, 4, 7)))


def test_augment_validation():
    rng = np.random.default_rng(4)
    with pytest.raises(InvalidInputError):
        synth.augment_batch(np.array([[np.inf, 0.0]]), rng, 0.5)


def test_stream_config_validation():
    # Checked when built, by the constructor and by every dataclasses.replace.
    bad = [
        {"dropout_prob": 1.5},
        {"d_obs": 8, "d_latent": 16},
        {"pose_dim": 0},
        {"pose_persistence": 1.0},
        {"bias_scale": -0.1},
        {"noise_sigma": float("nan")},
        {"duration_frames": 0},
        {"entry_rate": -0.1},
        {"dwell_mean": 0.5},
    ]
    for fields in bad:
        with pytest.raises(InvalidInputError):
            synth.StreamConfig(**fields)
        with pytest.raises(InvalidInputError):
            dataclasses.replace(SMALL, **fields)


def test_stream_config_takes_every_poisson_mean_numpy_draws():
    # The stream draws entries from Poisson(entry_rate) and dwell times from
    # 1 + Poisson(dwell_mean - 1); a mean numpy refuses is refused when the
    # config is built, and the largest one it draws is kept.
    rng = np.random.default_rng(0)
    top = synth._POISSON_LAM_MAX
    above = np.nextafter(top, np.inf)
    rng.poisson(top)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(above)
    synth.StreamConfig(entry_rate=top, dwell_mean=top + 1.0)
    for fields in ({"entry_rate": above}, {"entry_rate": 1e30}, {"dwell_mean": above + 1.0}, {"dwell_mean": 1e30}):
        with pytest.raises(InvalidInputError):
            synth.StreamConfig(**fields)


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
def test_simulated_observations_that_overflow_the_dtype_are_refused():
    # Each scale is finite, but their product overflows float32 in the cast;
    # the stream stops there rather than hand infinities to training.
    world = _world(config=dataclasses.replace(SMALL, warp_scale=1e30, pose_sigma=1e30))
    with pytest.raises(DegenerateInputError, match="overflow float32"):
        synth.simulate_stream(world, np.float32)
    assert np.isfinite(synth.simulate_stream(world, np.float64).observations).all()


def test_generate_world_validation():
    with pytest.raises(InvalidInputError):
        synth.generate_world(SMALL, 1, 3, 0)
    with pytest.raises(InvalidInputError):
        synth.generate_world(SMALL, 5, 0, 0)


def test_split_eval_partitions_the_window():
    world = _world(seed=7, config=dataclasses.replace(SMALL, duration_frames=600))
    table = synth.simulate_stream(world)
    query, gallery = synth.split_eval(world, table, query_frac=0.33)
    start = synth.eval_window_start(world.config, 0.15)
    assert len(query) > 0 and len(gallery) > 0
    assert query.frame.min() >= start and gallery.frame.min() >= start
    assert not set(query.det_id.tolist()) & set(gallery.det_id.tolist())
    # Ghost detections never appear in the curated evaluation sets.
    assert query.ghost.sum() == 0 and gallery.ghost.sum() == 0


def test_split_eval_every_query_has_cross_camera_match():
    world = _world(seed=8, config=dataclasses.replace(SMALL, duration_frames=600))
    table = synth.simulate_stream(world)
    query, gallery = synth.split_eval(world, table, query_frac=0.33)
    for gt, cam in zip(query.gt_id, query.camera_id):
        other = (gallery.gt_id == gt) & (gallery.camera_id != cam)
        assert other.any()


def test_split_eval_deterministic():
    world = _world(seed=9, config=dataclasses.replace(SMALL, duration_frames=600))
    table = synth.simulate_stream(world)
    q1, g1 = synth.split_eval(world, table, 0.33)
    q2, g2 = synth.split_eval(world, table, 0.33)
    assert np.array_equal(q1.det_id, q2.det_id)
    assert np.array_equal(g1.det_id, g2.det_id)


def test_split_eval_validation():
    world = _world(seed=7)
    table = synth.simulate_stream(world)
    with pytest.raises(InvalidInputError):
        synth.split_eval(world, table, query_frac=0.0)
    with pytest.raises(InvalidInputError):
        synth.split_eval(world, table, 0.3, eval_window_frac=1.0)
    with pytest.raises(DegenerateInputError):
        synth.split_eval(world, table.select(np.zeros(0, dtype=np.int64)), 0.3)


def test_training_table_hides_evaluation_channels():
    world = _world(seed=10, config=dataclasses.replace(SMALL, duration_frames=600))
    table = synth.simulate_stream(world)
    train = synth.training_table(world.config, table, eval_window_frac=0.15)
    start = synth.eval_window_start(world.config, 0.15)
    assert train.frame.max() < start
    assert np.all(train.gt_id == synth.GT_HIDDEN)
    assert train.ghost.sum() == 0


def test_eval_window_start_arithmetic():
    cfg = dataclasses.replace(SMALL, duration_frames=2000)
    assert synth.eval_window_start(cfg, 0.15) == 1700
    assert synth.eval_window_start(cfg, 0.001) == 1998  # at least one frame


def test_detection_table_select_and_astype():
    world = _world(seed=11)
    table = synth.simulate_stream(world)
    sub = table.select(table.camera_id == 0)
    assert np.all(sub.camera_id == 0)
    f32 = table.astype(np.float32)
    assert f32.observations.dtype == np.float32
    assert np.array_equal(f32.ghost, table.ghost)
    assert len(f32) == len(table)


def test_detection_table_without_gt_clears_both_channels():
    table = synth.DetectionTable(
        det_id=[0, 1],
        frame=[0, 0],
        camera_id=[0, 1],
        gt_id=[5, 6],
        observations=np.zeros((2, 4)),
        ghost=[0, 1],
    )
    stripped = table.without_gt()
    assert np.all(stripped.gt_id == synth.GT_HIDDEN)
    assert stripped.ghost.sum() == 0


def test_detection_table_validation():
    with pytest.raises(InvalidInputError):
        synth.DetectionTable(
            det_id=[0, 1],
            frame=[0],
            camera_id=[0, 1],
            gt_id=[0, 0],
            observations=np.zeros((2, 3)),
        )
    with pytest.raises(InvalidInputError):
        synth.DetectionTable(
            det_id=[0],
            frame=[0],
            camera_id=[0],
            gt_id=[0],
            observations=np.zeros(3),
        )
