"""Tracklet mining by mutual nearest neighbors between adjacent frames.

Within one camera, detections in frame f and frame f+1 are compared through
the dot product of their unit-norm embeddings.  An affinity cell is a match
when it is the strict maximum of both its row and its column.  Matches chain
detections into segments; an unmatched detection ends or starts a segment.
Only adjacent frame indices are ever compared, so a frame with no detections
closes every open segment in that camera.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .synth import DetectionTable

@dataclass(frozen=True)
class Match:
    row: int
    col: int


@dataclass(frozen=True)
class TrackletSegment:
    segment_id: int
    camera_id: int
    det_ids: tuple[int, ...]
    first_frame: int

    def __len__(self) -> int:
        return len(self.det_ids)


def _mutual_best(aff: np.ndarray, min_affinity: float | None) -> np.ndarray:
    """Each row's mutual-match column in a stack of g affinity blocks, or -1.

    ``aff`` is g x r x c.  A row matches the column of its maximum when no
    other cell of its row or of that column equals that maximum, the row is
    the column's maximum, and (with a floor) the cell is not below
    ``min_affinity``.  Only comparisons are made, so a block's result does
    not depend on which other blocks share the stack.
    """
    row_best = aff.argmax(axis=2)
    col_best = aff.argmax(axis=1)
    row_tied = (aff == aff.max(axis=2, keepdims=True)).sum(axis=2) > 1
    col_tied = (aff == aff.max(axis=1, keepdims=True)).sum(axis=1) > 1
    ok = ~row_tied
    ok &= ~np.take_along_axis(col_tied, row_best, axis=1)
    ok &= np.take_along_axis(col_best, row_best, axis=1) == np.arange(aff.shape[1])
    if min_affinity is not None:
        ok &= ~(np.take_along_axis(aff, row_best[..., None], axis=2)[..., 0] < min_affinity)
    return np.where(ok, row_best, -1)


def mutual_matches(aff: np.ndarray, min_affinity: float | None = None) -> list[Match]:
    """Cells that are the strict maximum of both their row and their column.

    Ties produce no match.  With ``min_affinity`` set, matches below the
    floor are discarded after the mutual test.
    """
    a = np.atleast_2d(np.asarray(aff))
    if a.shape[0] == 0 or a.shape[1] == 0:
        return []
    best = _mutual_best(a[None], min_affinity)[0].tolist()
    return [Match(row=i, col=j) for i, j in enumerate(best) if j >= 0]


# Bytes of gathered embeddings and affinities that one stacked block pass
# may hold at once.
_CHUNK_BYTES = 4 << 20


def assemble_segments(
    table: DetectionTable,
    embeddings: np.ndarray,
    min_affinity: float | None = None,
) -> list[TrackletSegment]:
    """Chain detections of each camera into segments via adjacent-frame matches.

    ``embeddings`` rows align with ``table`` rows.  Every detection lands in
    exactly one segment.  Segment ids are assigned after all cameras finish,
    ordered by (camera_id, first frame, first det_id).

    The rows of one camera-frame form a block.  Pairs of adjacent-frame
    blocks are grouped by their shape and scored a group at a time with one
    stacked matmul, which gives each pair the BLAS call that ``a @ b.T``
    gives it alone, so affinities, ties and matches are those of the pair.
    """
    emb = np.asarray(embeddings)
    if emb.ndim != 2 or emb.shape[0] != len(table):
        raise InvalidInputError("embeddings do not align with the detection table")

    # Positions 0..n-1 walk the rows in (camera, frame, row) order.
    order = np.lexsort((table.frame, table.camera_id))
    cam = table.camera_id[order]
    frame = table.frame[order]
    n = len(order)
    new_block = np.ones(n, dtype=bool)
    new_block[1:] = (cam[1:] != cam[:-1]) | (frame[1:] != frame[:-1])
    starts = np.flatnonzero(new_block)
    sizes = np.diff(starts, append=n)
    # Block k links to block k+1 when that is the same camera's next frame.
    linked = np.flatnonzero(
        (cam[starts[1:]] == cam[starts[:-1]]) & (frame[starts[1:]] == frame[starts[:-1]] + 1)
    )

    nxt = np.full(n, -1, dtype=np.int64)  # position -> matched position one frame on
    r_of, c_of = sizes[linked], sizes[linked + 1]
    for r, c in sorted(set(zip(r_of.tolist(), c_of.tolist()))):
        group = linked[(r_of == r) & (c_of == c)]
        per_pair = (r + c) * emb.shape[1] * emb.itemsize + r * c * (emb.itemsize + 1)
        step = max(_CHUNK_BYTES // max(per_pair, 1), 1)
        for lo in range(0, len(group), step):
            blocks = group[lo : lo + step]
            src = starts[blocks][:, None] + np.arange(r)
            dst = starts[blocks + 1][:, None]
            aff = np.matmul(emb[order[src]], emb[order[dst + np.arange(c)]].transpose(0, 2, 1))
            best = _mutual_best(aff, min_affinity)
            hit = best >= 0
            nxt[src[hit]] = (dst + best)[hit]

    # head[p] starts as p's predecessor in its chain (p itself at a chain's
    # head); each jump halves the distance left, until every position points
    # at its chain's head.
    linked_from = np.flatnonzero(nxt >= 0)
    head = np.arange(n)
    head[nxt[linked_from]] = linked_from
    while True:
        hop = head[head]
        if np.array_equal(hop, head):
            break
        head = hop
    heads = np.flatnonzero(head == np.arange(n))
    det_id = table.det_id[order]
    # lexsort is stable, so segments that tie on all three keep position order.
    heads = heads[np.lexsort((det_id[heads], frame[heads], cam[heads]))]
    seg_of = np.empty(n, dtype=np.int64)
    seg_of[heads] = np.arange(len(heads))
    seg_of = seg_of[head]
    # A chain only moves forward in frame, so position order is chain order.
    members = det_id[np.argsort(seg_of, kind="stable")].tolist()
    lengths = np.bincount(seg_of, minlength=len(heads))
    ends = np.cumsum(lengths)
    bounds = zip((ends - lengths).tolist(), ends.tolist())
    return [
        TrackletSegment(segment_id=i, camera_id=c, det_ids=tuple(members[lo:hi]), first_frame=f)
        for i, (c, f, (lo, hi)) in enumerate(zip(cam[heads].tolist(), frame[heads].tolist(), bounds))
    ]


def filter_segments(segments: Sequence[TrackletSegment], min_len: int) -> list[TrackletSegment]:
    """Keep segments with at least ``min_len`` detections."""
    if min_len < 1:
        raise InvalidInputError("min_len must be >= 1")
    return [s for s in segments if len(s) >= min_len]


@dataclass(frozen=True)
class SegmentStats:
    n_segments: int
    length_hist: dict[int, int]  # segment length -> count, by length
    per_camera: dict[int, int]  # camera id -> count, by camera


def segment_stats(segments: Sequence[TrackletSegment]) -> SegmentStats:
    """Label-free counts over mined segments, by length and by camera."""
    lengths = Counter(len(s) for s in segments)
    cameras = Counter(s.camera_id for s in segments)
    return SegmentStats(
        n_segments=len(segments),
        length_hist=dict(sorted(lengths.items())),
        per_camera=dict(sorted(cameras.items())),
    )


def segment_purity(segments: Sequence[TrackletSegment], gt_by_det: dict[int, int]) -> float:
    """Fraction of segments whose detections all carry one ground-truth identity.

    Diagnostics only: it needs ground-truth access.  Single-detection
    segments are pure by definition; no segments give NaN.
    """
    if not segments:
        return float("nan")
    return sum(len({gt_by_det[d] for d in s.det_ids}) == 1 for s in segments) / len(segments)


def segments_to_rows(segments: Sequence[TrackletSegment], det_index: dict[int, int]) -> list[np.ndarray]:
    """Translate segment det_ids into observation-matrix row arrays."""
    return [
        np.array([det_index[d] for d in s.det_ids], dtype=np.int64) for s in segments
    ]
