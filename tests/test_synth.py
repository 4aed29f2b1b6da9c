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


def test_augment_validation():
    rng = np.random.default_rng(4)
    with pytest.raises(InvalidInputError):
        synth.augment_batch(np.zeros((2, 3)), rng, -0.1)
    with pytest.raises(InvalidInputError):
        synth.augment_batch(np.array([[np.inf, 0.0]]), rng, 0.5)


def test_stream_config_validation():
    with pytest.raises(InvalidInputError):
        dataclasses.replace(SMALL, dropout_prob=1.5).validate()
    with pytest.raises(InvalidInputError):
        dataclasses.replace(SMALL, d_obs=8, d_latent=16).validate()
    with pytest.raises(InvalidInputError):
        dataclasses.replace(SMALL, pose_dim=0).validate()
    with pytest.raises(InvalidInputError):
        dataclasses.replace(SMALL, pose_persistence=1.0).validate()
    with pytest.raises(InvalidInputError):
        dataclasses.replace(SMALL, bias_scale=-0.1).validate()
    SMALL.validate()


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
