"""Tracklet mining by mutual nearest neighbors between adjacent frames.

Within one camera, detections in frame f and frame f+1 are compared through
the dot product of their unit-norm embeddings.  An affinity cell is a match
when it is the strict maximum of both its row and its column.  Matches chain
detections into segments; an unmatched detection ends or starts a segment.
Only adjacent frame indices are ever compared, so a frame with no detections
closes every open segment in that camera.
"""

from __future__ import annotations

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


def affinity(feats_a: np.ndarray, feats_b: np.ndarray) -> np.ndarray:
    """Pairwise similarity of two unit-norm embedding sets (rows x rows)."""
    a = np.atleast_2d(np.asarray(feats_a))
    b = np.atleast_2d(np.asarray(feats_b))
    if a.shape[-1] != b.shape[-1]:
        raise InvalidInputError("embedding dims disagree")
    return a @ b.T


def mutual_matches(aff: np.ndarray, min_affinity: float | None = None) -> list[Match]:
    """Cells that are the strict maximum of both their row and their column.

    Ties produce no match.  With ``min_affinity`` set, matches below the
    floor are discarded after the mutual test.
    """
    a = np.atleast_2d(np.asarray(aff))
    if a.shape[0] == 0 or a.shape[1] == 0:
        return []
    row_best = a.argmax(axis=1)
    col_best = a.argmax(axis=0)
    row_tied = (a == a.max(axis=1, keepdims=True)).sum(axis=1) > 1
    col_tied = (a == a.max(axis=0, keepdims=True)).sum(axis=0) > 1
    out = []
    for i in range(a.shape[0]):
        j = int(row_best[i])
        if row_tied[i] or col_tied[j]:
            continue
        if int(col_best[j]) != i:
            continue
        if min_affinity is not None and a[i, j] < min_affinity:
            continue
        out.append(Match(row=i, col=j))
    return out


def assemble_segments(
    table: DetectionTable,
    embeddings: np.ndarray,
    min_affinity: float | None = None,
) -> list[TrackletSegment]:
    """Chain detections of each camera into segments via adjacent-frame matches.

    ``embeddings`` rows align with ``table`` rows.  Every detection lands in
    exactly one segment.  Segment ids are assigned after all cameras finish,
    ordered by (camera_id, first frame, first det_id).
    """
    emb = np.asarray(embeddings)
    if emb.ndim != 2 or emb.shape[0] != len(table):
        raise InvalidInputError("embeddings do not align with the detection table")

    raw: list[tuple[int, int, list[int]]] = []  # (camera, first_frame, rows)
    for cam in np.unique(table.camera_id):
        cam_rows = np.flatnonzero(table.camera_id == cam)
        by_frame: dict[int, list[int]] = {}
        for r in cam_rows:
            by_frame.setdefault(int(table.frame[r]), []).append(int(r))
        open_segs: dict[int, list[int]] = {}  # position in prev frame -> row list
        prev_frame = None
        prev_rows: list[int] = []
        for f in sorted(by_frame):
            rows_f = by_frame[f]
            if prev_frame is not None and f == prev_frame + 1 and prev_rows:
                aff = affinity(emb[prev_rows], emb[rows_f])
                matched_cols = {}
                for m in mutual_matches(aff, min_affinity=min_affinity):
                    matched_cols[m.col] = m.row
                next_open: dict[int, list[int]] = {}
                for col, row_pos in matched_cols.items():
                    seg = open_segs[row_pos]
                    seg.append(rows_f[col])
                    next_open[col] = seg
                for col, r in enumerate(rows_f):
                    if col not in matched_cols:
                        seg = [r]
                        raw.append((int(cam), f, seg))
                        next_open[col] = seg
                open_segs = next_open
            else:
                open_segs = {}
                for col, r in enumerate(rows_f):
                    seg = [r]
                    raw.append((int(cam), f, seg))
                    open_segs[col] = seg
            prev_frame = f
            prev_rows = rows_f

    raw.sort(key=lambda item: (item[0], item[1], table.det_id[item[2][0]]))
    segments = []
    for seg_id, (cam, first_frame, rows) in enumerate(raw):
        segments.append(
            TrackletSegment(
                segment_id=seg_id,
                camera_id=cam,
                det_ids=tuple(int(table.det_id[r]) for r in rows),
                first_frame=first_frame,
            )
        )
    return segments


def filter_segments(segments: Sequence[TrackletSegment], min_len: int) -> list[TrackletSegment]:
    """Keep segments with at least ``min_len`` detections."""
    if min_len < 1:
        raise InvalidInputError("min_len must be >= 1")
    return [s for s in segments if len(s) >= min_len]


@dataclass(frozen=True)
class SegmentStats:
    n_segments: int
    length_hist: dict[int, int]
    per_camera: dict[int, int]
    purity: float


def segment_stats(segments: Sequence[TrackletSegment], gt_by_det: dict[int, int]) -> SegmentStats:
    """Diagnostics over mined segments; needs ground-truth access.

    Purity is the fraction of segments whose detections all carry the same
    ground-truth identity (single-detection segments are pure by definition).
    """
    if not segments:
        return SegmentStats(n_segments=0, length_hist={}, per_camera={}, purity=float("nan"))
    length_hist: dict[int, int] = {}
    per_camera: dict[int, int] = {}
    pure = 0
    for s in segments:
        length_hist[len(s)] = length_hist.get(len(s), 0) + 1
        per_camera[s.camera_id] = per_camera.get(s.camera_id, 0) + 1
        gts = {gt_by_det[d] for d in s.det_ids}
        if len(gts) == 1:
            pure += 1
    return SegmentStats(
        n_segments=len(segments),
        length_hist=dict(sorted(length_hist.items())),
        per_camera=dict(sorted(per_camera.items())),
        purity=pure / len(segments),
    )


def segments_to_rows(segments: Sequence[TrackletSegment], det_index: dict[int, int]) -> list[np.ndarray]:
    """Translate segment det_ids into observation-matrix row arrays."""
    return [
        np.array([det_index[d] for d in s.det_ids], dtype=np.int64) for s in segments
    ]
