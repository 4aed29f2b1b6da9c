"""Retrieval evaluation: CMC and mean average precision over a query/gallery split.

Gallery detections are ranked per query by ascending squared Euclidean
distance in embedding space, ties broken by gallery index.  With the
cross-camera filter on (the default), gallery detections sharing both
identity and camera with the query are excluded, so a match must come from
another camera; these are the "junk" items of the Market-1501 protocol
(Zheng et al., ICCV 2015).  Queries with no remaining relevant gallery
detection are skipped.

CMC and AP need only the rank of each relevant item: one plus the number of
kept items with a smaller squared distance, or an equal one at a lower
gallery index.  Ranks follow the exact distance: the per-row ``g - q``
difference summed by ``einsum`` in the embeddings' dtype.  Computing that
for the whole gallery is the cost, so a
float64 screen, ``|q|^2 + |g|^2 - 2 q.g`` from one GEMM per block of
queries, settles most comparisons instead.  Each screened value comes with
a bound on its distance from the exact one.  The bound covers the working
dtype's rounding of the per-row formula, at most ``gamma(D + 2) d^2`` with
``gamma(n) = n u / (1 - n u)`` for unit roundoff u, plus an underflow term,
and the screen's own float64 rounding, at most ``(2D + 8) u64 (|q|^2 +
|g|^2)``.  It is doubled for margin.  A gallery item whose screened value
lies within that bound of a relevant item's exact distance is scored
exactly.  The ranks, and so the report, are those of a full stable sort of
the exact distances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .synth import DetectionTable

_SCREEN_BLOCK_BYTES = 4 << 20  # float64 screen rows held at once, in one reused buffer
_U64 = 2.0**-53  # float64 unit roundoff


@dataclass(frozen=True)
class EvalProtocol:
    query: DetectionTable
    gallery: DetectionTable
    cross_camera_filter: bool = True
    cmc_ranks: tuple[int, ...] = (1, 5, 10)


@dataclass
class EvalReport:
    cmc: dict[int, float]
    mean_ap: float
    n_queries: int
    n_skipped: int
    per_query_ap: list[float]
    fingerprint: str = ""

    @property
    def rank1(self) -> float:
        return self.cmc[1]

    def to_json(self) -> str:
        payload = {
            "cmc": {str(k): repr(v) for k, v in self.cmc.items()},
            "mean_ap": repr(self.mean_ap),
            "n_queries": self.n_queries,
            "n_skipped": self.n_skipped,
            "per_query_ap": [repr(a) for a in self.per_query_ap],
            "fingerprint": self.fingerprint,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"queries evaluated: {self.n_queries} (skipped {self.n_skipped})"]
        for k, v in sorted(self.cmc.items()):
            lines.append(f"cmc@{k:<3d} {v:.4f}")
        lines.append(f"mAP     {self.mean_ap:.4f}")
        return "\n".join(lines)


def _sq_dists(query: np.ndarray, gallery: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Exact squared distances from one query to some gallery rows."""
    diff = gallery[rows] - query
    return np.einsum("ij,ij->i", diff, diff)


def _rows_by_identity(gt: np.ndarray) -> dict[int, np.ndarray]:
    """Gallery row indices of each identity, ascending."""
    order = np.argsort(gt, kind="stable")
    ids, starts = np.unique(gt[order], return_index=True)
    return dict(zip(ids.tolist(), np.split(order, starts[1:])))


def _relevant_ranks(
    query: np.ndarray,
    gallery: np.ndarray,
    gallery_gt: np.ndarray,
    query_gt: int,
    relevant: np.ndarray,
    screen: np.ndarray,
    bound_abs: float,
    bound_rel: float,
) -> np.ndarray:
    """1-based ranks of a query's relevant gallery rows, ascending.

    ``screen`` holds the query's screened squared distance to every gallery
    row; each lies within ``bound_abs + bound_rel * max(screen, 0)`` of the
    row's exact distance.
    """
    d2 = _sq_dists(query, gallery, relevant)
    order = np.argsort(d2, kind="stable")
    d2, relevant = d2[order], relevant[order]
    # A row screened below lo[k] is surely nearer than relevant item k, one
    # above hi[k] surely farther; in between, its exact distance decides.
    lo = np.where(d2 >= bound_abs, (d2 - bound_abs) / (1.0 + bound_rel), d2 - bound_abs)
    hi = (d2 + bound_abs) / (1.0 - bound_rel)
    near = np.flatnonzero(screen <= hi[-1])
    near_d2 = screen[near]
    # Surely nearer than items first_after.. onwards.
    first_after = np.searchsorted(lo, near_d2, side="right")
    # The query's own identity is ranked exactly (relevant) or not at all (junk).
    other = gallery_gt[near] != query_gt
    unsure = other & (near_d2 <= np.concatenate(([-np.inf], hi))[first_after])
    m = len(relevant)
    before = np.cumsum(np.bincount(first_after[other & ~unsure], minlength=m + 1)[:m])
    rows = near[unsure]
    if len(rows):
        rows_d2 = _sq_dists(query, gallery, rows)
        col = d2[:, None]
        before += np.count_nonzero(
            (rows_d2 < col) | ((rows_d2 == col) & (rows < relevant[:, None])), axis=1
        )
    return before + np.arange(1, m + 1)


def evaluate(
    query_emb: np.ndarray,
    gallery_emb: np.ndarray,
    protocol: EvalProtocol,
    fingerprint: str = "",
) -> EvalReport:
    """Score the split from embeddings whose rows align with its tables.

    Embeddings must be finite.  Any dtype but float32 and float64 is ranked
    in float64.
    """
    if len(protocol.query) == 0 or len(protocol.gallery) == 0:
        raise DegenerateInputError("empty query or gallery")
    if len(query_emb) != len(protocol.query) or len(gallery_emb) != len(protocol.gallery):
        raise InvalidInputError("embeddings do not align with the query/gallery tables")
    if any(r < 1 for r in protocol.cmc_ranks):
        raise InvalidInputError("ranks must be >= 1")
    dtype = np.result_type(query_emb, gallery_emb)
    if dtype not in (np.float32, np.float64):
        dtype = np.dtype(np.float64)
    queries = np.asarray(query_emb, dtype=dtype)
    gallery = np.asarray(gallery_emb, dtype=dtype)
    if queries.ndim != 2 or gallery.ndim != 2 or queries.shape[1] != gallery.shape[1]:
        raise InvalidInputError("query/gallery embedding shapes disagree")
    dim = gallery.shape[1]
    gallery64 = np.asarray(gallery, dtype=np.float64)
    gallery_sq = np.einsum("ij,ij->i", gallery64, gallery64)
    query_sq = np.einsum("ij,ij->i", queries, queries, dtype=np.float64)
    limit = np.finfo(dtype).max / 4
    if not query_sq.max() + gallery_sq.max() < limit:
        raise InvalidInputError(f"embeddings must be finite with squared norms below {limit:.3g}")

    # Error bounds, doubled for margin (see the module docstring).
    n = dim + 2
    u = np.finfo(dtype).eps / 2
    gamma = n * u / (1.0 - n * u)
    underflow = dim * (np.finfo(dtype).smallest_subnormal + np.finfo(np.float64).smallest_subnormal)
    screen_rel = (2 * dim + 8) * _U64
    bound_rel = 2.0 * gamma
    bound_abs = 2.0 * ((1.0 + gamma) * screen_rel * (query_sq + gallery_sq.max()) + underflow)

    rows_of = _rows_by_identity(protocol.gallery.gt_id)
    no_rows = np.zeros(0, dtype=np.int64)
    q_gt, q_cam = protocol.query.gt_id, protocol.query.camera_id
    g_gt, g_cam = protocol.gallery.gt_id, protocol.gallery.camera_id
    block = max(1, _SCREEN_BLOCK_BYTES // (8 * len(gallery)))
    screens = np.empty((min(block, len(queries)), len(gallery)))  # every block's screen
    aps, first_ranks, skipped = [], [], 0
    for start in range(0, len(queries), block):
        stop = min(start + block, len(queries))
        block_q = np.asarray(queries[start:stop], dtype=np.float64)
        screen = np.matmul(block_q, gallery64.T, out=screens[: stop - start])
        screen *= -2.0
        screen += gallery_sq
        screen += query_sq[start:stop, None]
        for qi in range(start, stop):
            same_id = rows_of.get(int(q_gt[qi]), no_rows)
            relevant = same_id[g_cam[same_id] != q_cam[qi]] if protocol.cross_camera_filter else same_id
            if len(relevant) == 0:
                skipped += 1
                continue
            ranks = _relevant_ranks(
                queries[qi], gallery, g_gt, q_gt[qi], relevant,
                screen[qi - start], bound_abs[qi], bound_rel,
            )
            aps.append(math.fsum((np.arange(1, len(ranks) + 1) / ranks).tolist()) / float(len(ranks)))
            first_ranks.append(int(ranks[0]))
    if not aps:
        raise DegenerateInputError("every query was skipped; split is unusable")
    return EvalReport(
        cmc={r: sum(1 for f in first_ranks if f <= r) / len(aps) for r in protocol.cmc_ranks},
        mean_ap=math.fsum(aps) / len(aps),
        n_queries=len(aps),
        n_skipped=skipped,
        per_query_ap=aps,
        fingerprint=fingerprint,
    )
