"""Mutual-match semantics, segment assembly, and purity accounting."""

import dataclasses
from collections import Counter

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


def _matches(aff, min_affinity=None):
    """The (row, col) cells of one affinity block that the miner's mutual test keeps, in row order."""
    best = trk._mutual_best(np.asarray(aff)[None], min_affinity)[0]
    return [(i, int(j)) for i, j in enumerate(best) if j >= 0]


def test_mutual_matches_hand_case():
    aff = np.array([[0.9, 0.2, 0.1], [0.3, 0.8, 0.4]])
    assert _matches(aff) == [(0, 0), (1, 1)]


def test_mutual_matches_single_cell_is_forced():
    assert _matches(np.array([[0.05]])) == [(0, 0)]


def test_mutual_matches_tie_produces_no_match():
    aff = np.array([[0.5, 0.5], [0.1, 0.2]])
    got = set(_matches(aff))
    assert (0, 0) not in got and (0, 1) not in got
    # Column tie kills the match too.
    aff = np.array([[0.7], [0.7]])
    assert _matches(aff) == []


def test_mutual_matches_min_affinity_floor():
    aff = np.array([[0.4, 0.1], [0.0, 0.9]])
    assert _matches(aff) == [(0, 0), (1, 1)]
    assert _matches(aff, min_affinity=0.5) == [(1, 1)]


def test_mutual_matches_equals_brute_force_on_random():
    rng = np.random.default_rng(21)
    for _ in range(300):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        # Quantized values make ties common enough to exercise that path.
        aff = rng.integers(0, 6, size=(rows, cols)) / 5.0
        floor = None if rng.random() < 0.5 else float(rng.uniform(0, 1))
        assert set(_matches(aff, min_affinity=floor)) == brute_force_mutual(aff, floor)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_mutual_matches_at_most_one_per_row_and_column(seed):
    rng = np.random.default_rng(seed)
    aff = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
    matches = _matches(aff)
    rows = [i for i, _ in matches]
    cols = [j for _, j in matches]
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


def _segments(*det_ids):
    """A table of segments with the given det ids, in camera 0 from frame 0, with ids 0, 1, ..."""
    n = len(det_ids)
    return trk.SegmentTable(
        segment_id=np.arange(n),
        camera_id=np.zeros(n, dtype=np.int64),
        first_frame=np.zeros(n, dtype=np.int64),
        length=np.array([len(ids) for ids in det_ids], dtype=np.int64),
        det_id=np.array([d for ids in det_ids for d in ids], dtype=np.int64),
    )


def _members(segments):
    """Each segment's det ids, as a tuple."""
    assert segments.length.sum() == len(segments.det_id)
    return [tuple(segments.det_id[s : s + n].tolist()) for s, n in zip(segments.start, segments.length)]


def test_assemble_segments_chains_adjacent_frames():
    # Two identities in one camera across three adjacent frames, embedded on
    # orthogonal axes, chain into two length-3 segments.
    table = _table(frames=[0, 0, 1, 1, 2, 2], cams=[0] * 6)
    e = np.eye(3)
    emb = np.stack([e[0], e[1], e[0], e[1], e[0], e[1]])
    segs = trk.assemble_segments(table, emb)
    assert sorted(_members(segs)) == [(0, 2, 4), (1, 3, 5)]
    assert segs.first_frame.tolist() == [0, 0]


def test_assemble_segments_frame_gap_breaks_chain():
    table = _table(frames=[0, 2], cams=[0, 0])
    emb = np.stack([np.array([1.0, 0, 0])] * 2)
    segs = trk.assemble_segments(table, emb)
    assert sorted(_members(segs)) == [(0,), (1,)]


def test_assemble_segments_cameras_never_mix():
    table = _table(frames=[0, 1, 0, 1], cams=[0, 0, 1, 1])
    emb = np.tile(np.array([1.0, 0, 0]), (4, 1))
    segs = trk.assemble_segments(table, emb)
    assert sorted(_members(segs)) == [(0, 1), (2, 3)]
    cams = dict(zip(_members(segs), segs.camera_id.tolist()))
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
    assert sorted(d for ids in _members(segs) for d in ids) == list(range(n))
    # Ids are dense and ordered by (camera, first_frame).
    assert segs.segment_id.tolist() == list(range(len(segs)))
    keys = list(zip(segs.camera_id.tolist(), segs.first_frame.tolist()))
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
    return {
        "segment_id": list(range(len(raw))),
        "camera_id": [cam for cam, _, _ in raw],
        "first_frame": [f for _, f, _ in raw],
        "length": [len(rows) for _, _, rows in raw],
        "det_id": [int(table.det_id[r]) for _, _, rows in raw for r in rows],
    }


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
    got = trk.assemble_segments(table, emb, min_affinity=min_affinity)
    assert {name: getattr(got, name).tolist() for name in want} == want
    assert max(want["length"]) >= 3
    empty = table.select(np.zeros(0, dtype=np.int64))
    got = trk.assemble_segments(empty, emb[:0], min_affinity=min_affinity)
    assert {name: getattr(got, name).tolist() for name in want} == dict.fromkeys(want, [])


def test_filter_segments_threshold():
    segs = _segments((1,), (2, 3), (4, 5, 6))
    assert trk.filter_segments(segs, 1).length.tolist() == [1, 2, 3]
    kept = trk.filter_segments(segs, 2)
    assert _members(kept) == [(2, 3), (4, 5, 6)]
    assert kept.segment_id.tolist() == [1, 2]  # a kept segment keeps its id
    assert len(trk.filter_segments(segs, 4)) == 0
    with pytest.raises(InvalidInputError):
        trk.filter_segments(segs, 0)


def test_segment_stats_purity_hand_cases():
    gt = np.array([-1, 7, 7, 8, 7, 9])  # gt[d] is the identity of det id d
    segs = _segments(
        (1, 2),  # pure: both gt 7
        (3,),  # singleton: pure by definition
        (4, 5),  # mixed: gt 7 and 9
    )
    stats = trk.segment_stats(segs)
    assert stats.n_segments == 3
    assert trk.segment_purity(segs, gt) == pytest.approx(2.0 / 3.0)
    assert stats.length_hist == {1: 1, 2: 2}
    assert stats.per_camera == {0: 3}


def test_segment_stats_and_purity_match_per_segment_counts():
    rng = np.random.default_rng(5)
    lengths = rng.integers(1, 6, size=40)
    ids = rng.permutation(300)[: lengths.sum()]
    gt = rng.integers(0, 2, size=300)
    segs = _segments(*np.split(ids, np.cumsum(lengths)[:-1]))
    segs = dataclasses.replace(segs, camera_id=rng.integers(0, 4, size=40))
    members = _members(segs)
    want = sum(len({int(gt[d]) for d in m}) == 1 for m in members) / len(members)
    assert trk.segment_purity(segs, gt) == want
    stats = trk.segment_stats(segs)
    assert stats.length_hist == dict(sorted(Counter(len(m) for m in members).items()))
    assert stats.per_camera == dict(sorted(Counter(segs.camera_id.tolist()).items()))


def test_segment_stats_single_flip_poisons_whole_segment():
    # One wrong label inside a long chain makes that segment impure; purity
    # counts whole segments, not detections.
    gt = np.zeros(10, dtype=np.int64)
    gt[9] = 1
    assert trk.segment_purity(_segments(tuple(range(10))), gt) == 0.0


def test_segment_stats_empty():
    stats = trk.segment_stats(_segments())
    assert (stats.n_segments, stats.length_hist, stats.per_camera) == (0, {}, {})
    assert np.isnan(trk.segment_purity(_segments(), np.zeros(0, dtype=np.int64)))
