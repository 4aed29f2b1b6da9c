"""Tracklet mining by mutual nearest neighbors between adjacent frames.

Within one camera, detections in frame f and frame f+1 are compared through
the dot product of their unit-norm embeddings.  An affinity cell is a match
when it is the strict maximum of both its row and its column.  Matches chain
detections into segments; an unmatched detection ends or starts a segment.
Only adjacent frame indices are ever compared, so a frame with no detections
closes every open segment in that camera.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidInputError
from .synth import DetectionTable


@dataclass(frozen=True, eq=False)
class SegmentTable:
    """Mined segments as columns; segment s holds ``det_id[start[s] : start[s] + length[s]]``, in frame order."""

    segment_id: np.ndarray
    camera_id: np.ndarray
    first_frame: np.ndarray
    length: np.ndarray
    det_id: np.ndarray  # every segment's detections, segment after segment

    def __len__(self) -> int:
        return len(self.length)

    @property
    def start(self) -> np.ndarray:
        return np.cumsum(self.length) - self.length


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


# Bytes of gathered embeddings and affinities that one stacked block pass
# may hold at once.
_CHUNK_BYTES = 4 << 20


def assemble_segments(
    table: DetectionTable,
    embeddings: np.ndarray,
    min_affinity: float | None = None,
) -> SegmentTable:
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
    return SegmentTable(
        segment_id=np.arange(len(heads)),
        camera_id=cam[heads],
        first_frame=frame[heads],
        length=np.bincount(seg_of, minlength=len(heads)),
        det_id=det_id[np.argsort(seg_of, kind="stable")],
    )


def filter_segments(segments: SegmentTable, min_len: int) -> SegmentTable:
    """Keep segments with at least ``min_len`` detections, under their own ids."""
    if min_len < 1:
        raise InvalidInputError("min_len must be >= 1")
    keep = segments.length >= min_len
    columns = {f.name: getattr(segments, f.name)[keep] for f in fields(SegmentTable) if f.name != "det_id"}
    return SegmentTable(**columns, det_id=segments.det_id[np.repeat(keep, segments.length)])


@dataclass(frozen=True)
class SegmentStats:
    n_segments: int
    length_hist: dict[int, int]  # segment length -> count, by length
    per_camera: dict[int, int]  # camera id -> count, by camera


def segment_stats(segments: SegmentTable) -> SegmentStats:
    """Label-free counts over mined segments, by length and by camera."""
    lengths, per_length = np.unique(segments.length, return_counts=True)
    cameras, per_camera = np.unique(segments.camera_id, return_counts=True)
    return SegmentStats(
        n_segments=len(segments),
        length_hist=dict(zip(lengths.tolist(), per_length.tolist())),
        per_camera=dict(zip(cameras.tolist(), per_camera.tolist())),
    )


def segment_purity(segments: SegmentTable, gt_of_det: np.ndarray) -> float:
    """Fraction of segments whose detections all carry one ground-truth identity.

    ``gt_of_det[d]`` is the identity of det id d.  Diagnostics only: it
    needs ground-truth access.  Single-detection segments are pure by
    definition; no segments give NaN.
    """
    if not len(segments):
        return float("nan")
    gt = gt_of_det[segments.det_id]
    start = segments.start
    pure = np.minimum.reduceat(gt, start) == np.maximum.reduceat(gt, start)
    return int(pure.sum()) / len(segments)
