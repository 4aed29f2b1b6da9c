"""Mutual-match semantics, segment assembly, and purity accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camreid import tracklet as trk
from camreid.errors import InvalidInputError
from camreid.synth import DetectionTable


def brute_force_mutual(aff, min_affinity=None):
    """Independent enumeration: a cell wins when it strictly beats its row
    and column, checked pair by pair."""
    a = np.atleast_2d(np.asarray(aff))
    out = set()
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            v = a[i, j]
            row_ok = all(v > a[i, jj] for jj in range(a.shape[1]) if jj != j)
            col_ok = all(v > a[ii, j] for ii in range(a.shape[0]) if ii != i)
            if row_ok and col_ok and (min_affinity is None or v >= min_affinity):
                out.add((i, j))
    return out


def test_mutual_matches_hand_case():
    aff = np.array([[0.9, 0.2, 0.1], [0.3, 0.8, 0.4]])
    got = {(m.row, m.col) for m in trk.mutual_matches(aff)}
    assert got == {(0, 0), (1, 1)}


def test_mutual_matches_single_cell_is_forced():
    got = trk.mutual_matches(np.array([[0.05]]))
    assert [(m.row, m.col) for m in got] == [(0, 0)]


def test_mutual_matches_tie_produces_no_match():
    aff = np.array([[0.5, 0.5], [0.1, 0.2]])
    got = {(m.row, m.col) for m in trk.mutual_matches(aff)}
    assert (0, 0) not in got and (0, 1) not in got
    # Column tie kills the match too.
    aff = np.array([[0.7], [0.7]])
    assert trk.mutual_matches(aff) == []


def test_mutual_matches_min_affinity_floor():
    aff = np.array([[0.4, 0.1], [0.0, 0.9]])
    assert {(m.row, m.col) for m in trk.mutual_matches(aff)} == {(0, 0), (1, 1)}
    got = {(m.row, m.col) for m in trk.mutual_matches(aff, min_affinity=0.5)}
    assert got == {(1, 1)}


def test_mutual_matches_empty_inputs():
    assert trk.mutual_matches(np.zeros((0, 3))) == []
    assert trk.mutual_matches(np.zeros((3, 0))) == []


def test_mutual_matches_equals_brute_force_on_random():
    rng = np.random.default_rng(21)
    for _ in range(300):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        # Quantized values make ties common enough to exercise that path.
        aff = rng.integers(0, 6, size=(rows, cols)) / 5.0
        floor = None if rng.random() < 0.5 else float(rng.uniform(0, 1))
        got = {(m.row, m.col) for m in trk.mutual_matches(aff, min_affinity=floor)}
        assert got == brute_force_mutual(aff, floor)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_mutual_matches_at_most_one_per_row_and_column(seed):
    rng = np.random.default_rng(seed)
    aff = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
    matches = trk.mutual_matches(aff)
    rows = [m.row for m in matches]
    cols = [m.col for m in matches]
    assert len(rows) == len(set(rows))
    assert len(cols) == len(set(cols))


def _table(frames, cams, d=3):
    n = len(frames)
    return DetectionTable(
        det_id=np.arange(n, dtype=np.int64),
        frame=np.asarray(frames, dtype=np.int64),
        camera_id=np.asarray(cams, dtype=np.int64),
        gt_id=np.zeros(n, dtype=np.int64),
        observations=np.zeros((n, d)),
    )


def test_assemble_segments_chains_adjacent_frames():
    # Two identities in one camera across three adjacent frames, embedded on
    # orthogonal axes, chain into two length-3 segments.
    table = _table(frames=[0, 0, 1, 1, 2, 2], cams=[0] * 6)
    e = np.eye(3)
    emb = np.stack([e[0], e[1], e[0], e[1], e[0], e[1]])
    segs = trk.assemble_segments(table, emb)
    assert sorted(tuple(s.det_ids) for s in segs) == [(0, 2, 4), (1, 3, 5)]
    assert all(s.first_frame == 0 for s in segs)


def test_assemble_segments_frame_gap_breaks_chain():
    table = _table(frames=[0, 2], cams=[0, 0])
    emb = np.stack([np.array([1.0, 0, 0])] * 2)
    segs = trk.assemble_segments(table, emb)
    assert sorted(tuple(s.det_ids) for s in segs) == [(0,), (1,)]


def test_assemble_segments_cameras_never_mix():
    table = _table(frames=[0, 1, 0, 1], cams=[0, 0, 1, 1])
    emb = np.tile(np.array([1.0, 0, 0]), (4, 1))
    segs = trk.assemble_segments(table, emb)
    assert sorted(tuple(s.det_ids) for s in segs) == [(0, 1), (2, 3)]
    cams = {tuple(s.det_ids): s.camera_id for s in segs}
    assert cams[(0, 1)] == 0 and cams[(2, 3)] == 1


def test_assemble_segments_is_a_partition():
    # Every detection lands in exactly one segment, whatever the embeddings.
    rng = np.random.default_rng(3)
    n = 120
    frames = rng.integers(0, 25, size=n)
    cams = rng.integers(0, 3, size=n)
    table = _table(frames=frames.tolist(), cams=cams.tolist(), d=5)
    emb = rng.standard_normal((n, 5))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    segs = trk.assemble_segments(table, emb)
    seen = [d for s in segs for d in s.det_ids]
    assert sorted(seen) == list(range(n))
    # Ids are dense and ordered by (camera, first_frame).
    assert [s.segment_id for s in segs] == list(range(len(segs)))
    keys = [(s.camera_id, s.first_frame) for s in segs]
    assert keys == sorted(keys)


def test_assemble_segments_min_affinity_splits_weak_links():
    table = _table(frames=[0, 1], cams=[0, 0])
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([np.cos(1.2), np.sin(1.2), 0.0])  # similarity ~0.36
    segs = trk.assemble_segments(table, np.stack([a, b]))
    assert len(segs) == 1
    segs = trk.assemble_segments(table, np.stack([a, b]), min_affinity=0.5)
    assert len(segs) == 2


def test_assemble_segments_alignment_validation():
    table = _table(frames=[0, 1], cams=[0, 0])
    with pytest.raises(InvalidInputError):
        trk.assemble_segments(table, np.zeros((3, 3)))


def _pairwise_segments(table, emb, min_affinity):
    """Mining as one `a @ b.T` and one per-row mutual test per frame pair."""

    def matches(a):
        row_best = a.argmax(axis=1)
        col_best = a.argmax(axis=0)
        row_tied = (a == a.max(axis=1, keepdims=True)).sum(axis=1) > 1
        col_tied = (a == a.max(axis=0, keepdims=True)).sum(axis=0) > 1
        out = {}
        for i in range(a.shape[0]):
            j = int(row_best[i])
            if row_tied[i] or col_tied[j] or int(col_best[j]) != i:
                continue
            if min_affinity is not None and a[i, j] < min_affinity:
                continue
            out[j] = i
        return out

    raw = []
    for cam in np.unique(table.camera_id):
        by_frame = {}
        for r in np.flatnonzero(table.camera_id == cam):
            by_frame.setdefault(int(table.frame[r]), []).append(int(r))
        open_segs, prev_frame, prev_rows = {}, None, []
        for f in sorted(by_frame):
            rows_f = by_frame[f]
            matched = {}
            if prev_frame is not None and f == prev_frame + 1:
                matched = matches(emb[prev_rows] @ emb[rows_f].T)
            next_open = {}
            for col, r in enumerate(rows_f):
                if col in matched:
                    seg = open_segs[matched[col]]
                    seg.append(r)
                else:
                    seg = [r]
                    raw.append((int(cam), f, seg))
                next_open[col] = seg
            open_segs, prev_frame, prev_rows = next_open, f, rows_f
    raw.sort(key=lambda item: (item[0], item[1], table.det_id[item[2][0]]))
    return [
        trk.TrackletSegment(i, cam, tuple(int(table.det_id[r]) for r in rows), f)
        for i, (cam, f, rows) in enumerate(raw)
    ]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("min_affinity", [None, 0.55])
def test_assemble_segments_matches_pairwise_reference(dtype, min_affinity):
    rng = np.random.default_rng(11)
    frames, cams, ids = [], [], []
    for cam in range(3):
        frame = 0
        for _ in range(40):
            frame += int(rng.choice([1, 1, 1, 2, 4]))  # gaps break chains
            k = int(rng.choice([1, 1, 2, 3, 5]))  # many single-detection frames
            frames += [frame] * k
            cams += [cam] * k
            ids += rng.choice(6, size=k, replace=False).tolist()
    n = len(frames)
    protos = rng.standard_normal((6, 8))
    emb = protos[ids] + 0.4 * rng.standard_normal((n, 8))
    # Exact duplicates inside a frame and across adjacent frames make ties.
    for r in range(1, n):
        if rng.random() < 0.25 and cams[r] == cams[r - 1] and frames[r] - frames[r - 1] <= 1:
            emb[r] = emb[r - 1]
    emb = (emb / np.linalg.norm(emb, axis=1, keepdims=True)).astype(dtype)
    # Rows out of (camera, frame) order and det_ids out of row order.
    perm = rng.permutation(n)
    table = DetectionTable(
        det_id=rng.permutation(10 * n)[:n],
        frame=np.asarray(frames)[perm],
        camera_id=np.asarray(cams)[perm],
        gt_id=np.zeros(n, dtype=np.int64),
        observations=np.zeros((n, 1)),
    )
    emb = emb[perm]
    want = _pairwise_segments(table, emb, min_affinity)
    assert trk.assemble_segments(table, emb, min_affinity=min_affinity) == want
    assert any(len(s) >= 3 for s in want)
    empty = table.select(np.zeros(0, dtype=np.int64))
    assert trk.assemble_segments(empty, emb[:0], min_affinity=min_affinity) == []


def test_filter_segments_threshold():
    segs = [
        trk.TrackletSegment(0, 0, (1,), 0),
        trk.TrackletSegment(1, 0, (2, 3), 0),
        trk.TrackletSegment(2, 0, (4, 5, 6), 0),
    ]
    assert [len(s) for s in trk.filter_segments(segs, 1)] == [1, 2, 3]
    assert [len(s) for s in trk.filter_segments(segs, 2)] == [2, 3]
    assert trk.filter_segments(segs, 4) == []
    with pytest.raises(InvalidInputError):
        trk.filter_segments(segs, 0)


def test_segment_stats_purity_hand_cases():
    gt = {1: 7, 2: 7, 3: 8, 4: 7, 5: 9}
    segs = [
        trk.TrackletSegment(0, 0, (1, 2), 0),  # pure: both gt 7
        trk.TrackletSegment(1, 0, (3,), 0),  # singleton: pure by definition
        trk.TrackletSegment(2, 0, (4, 5), 0),  # mixed: gt 7 and 9
    ]
    stats = trk.segment_stats(segs)
    assert stats.n_segments == 3
    assert trk.segment_purity(segs, gt) == pytest.approx(2.0 / 3.0)
    assert stats.length_hist == {1: 1, 2: 2}
    assert stats.per_camera == {0: 3}


def test_segment_stats_single_flip_poisons_whole_segment():
    # One wrong label inside a long chain makes that segment impure; purity
    # counts whole segments, not detections.
    gt = {i: 0 for i in range(10)}
    gt[9] = 1
    segs = [trk.TrackletSegment(0, 0, tuple(range(10)), 0)]
    assert trk.segment_purity(segs, gt) == 0.0


def test_segment_stats_empty():
    stats = trk.segment_stats([])
    assert (stats.n_segments, stats.length_hist, stats.per_camera) == (0, {}, {})
    assert np.isnan(trk.segment_purity([], {}))


def test_segments_to_rows_maps_det_ids():
    segs = [trk.TrackletSegment(0, 0, (30, 10), 0)]
    rows = trk.segments_to_rows(segs, {10: 0, 20: 1, 30: 2})
    assert len(rows) == 1
    assert rows[0].tolist() == [2, 0]
