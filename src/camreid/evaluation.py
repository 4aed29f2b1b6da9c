"""Retrieval evaluation: CMC and mean average precision over a query/gallery split.

Gallery detections are ranked per query by ascending Euclidean distance in
embedding space, ties broken by gallery index.  With the cross-camera filter
on (the default), gallery detections sharing both identity and camera with
the query are excluded before ranking, so a match must come from another
camera.  Queries with no remaining relevant gallery detection are skipped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .synth import DetectionTable


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


def rank_gallery(
    query_emb: np.ndarray,
    gallery_emb: np.ndarray,
    query_gt: int,
    query_cam: int,
    gallery_gt: np.ndarray,
    gallery_cam: np.ndarray,
    cross_camera_filter: bool = True,
) -> np.ndarray:
    """Gallery indices sorted by ascending distance to one query.

    Filtered (same identity, same camera) indices are absent from the
    result.  Ties keep gallery-index order via a stable sort on squared
    distances, which order identically to distances.
    """
    q = np.asarray(query_emb)
    g = np.asarray(gallery_emb)
    if q.ndim != 1 or g.ndim != 2 or g.shape[1] != q.shape[0]:
        raise InvalidInputError("query/gallery embedding shapes disagree")
    diff = g - q[None, :]
    d2 = np.einsum("ij,ij->i", diff, diff)
    if cross_camera_filter:
        keep = ~((np.asarray(gallery_gt) == query_gt) & (np.asarray(gallery_cam) == query_cam))
        idx = np.flatnonzero(keep)
    else:
        idx = np.arange(g.shape[0])
    order = np.argsort(d2[idx], kind="stable")
    return idx[order]


def cmc_curve(match_lists: list[np.ndarray], ranks: tuple[int, ...] = (1, 5, 10)) -> dict[int, float]:
    """Fraction of queries with a relevant hit at or before each rank."""
    if not match_lists:
        raise DegenerateInputError("no queries to score")
    if any(r < 1 for r in ranks):
        raise InvalidInputError("ranks must be >= 1")
    out = {}
    for r in ranks:
        hits = sum(1 for m in match_lists if m[:r].any())
        out[r] = hits / len(match_lists)
    return out


def average_precision(matches: np.ndarray) -> float:
    """Precision averaged over the ranks of the relevant items.

    The terms are combined with an exactly-rounded sum, so the result does
    not depend on accumulation order and an independent reference that sums
    the same precision values reproduces it bit for bit.
    """
    rel = np.asarray(matches, dtype=np.float64)
    n_rel = rel.sum()
    if n_rel == 0:
        raise DegenerateInputError("query has no relevant gallery item")
    cum = np.cumsum(rel)
    ranks = np.arange(1, len(rel) + 1, dtype=np.float64)
    prec = cum / ranks
    return math.fsum(prec[rel > 0]) / float(n_rel)


def mean_ap(match_lists: list[np.ndarray]) -> float:
    if not match_lists:
        raise DegenerateInputError("no queries to score")
    aps = [average_precision(m) for m in match_lists]
    return math.fsum(aps) / len(aps)


def _match_lists(protocol: EvalProtocol, query_emb: np.ndarray, gallery_emb: np.ndarray):
    """Ranked binary relevance per query; queries without a match are dropped."""
    kept, skipped = [], 0
    for qi in range(len(protocol.query)):
        ranked = rank_gallery(
            query_emb[qi],
            gallery_emb,
            int(protocol.query.gt_id[qi]),
            int(protocol.query.camera_id[qi]),
            protocol.gallery.gt_id,
            protocol.gallery.camera_id,
            cross_camera_filter=protocol.cross_camera_filter,
        )
        rel = protocol.gallery.gt_id[ranked] == protocol.query.gt_id[qi]
        if not rel.any():
            skipped += 1
            continue
        kept.append(rel)
    return kept, skipped


def evaluate(
    query_emb: np.ndarray,
    gallery_emb: np.ndarray,
    protocol: EvalProtocol,
    fingerprint: str = "",
) -> EvalReport:
    """Score the split from embeddings whose rows align with its tables."""
    if len(protocol.query) == 0 or len(protocol.gallery) == 0:
        raise DegenerateInputError("empty query or gallery")
    if len(query_emb) != len(protocol.query) or len(gallery_emb) != len(protocol.gallery):
        raise InvalidInputError("embeddings do not align with the query/gallery tables")
    kept, skipped = _match_lists(protocol, query_emb, gallery_emb)
    if not kept:
        raise DegenerateInputError("every query was skipped; split is unusable")
    cmc = cmc_curve(kept, protocol.cmc_ranks)
    aps = [average_precision(m) for m in kept]
    return EvalReport(
        cmc=cmc,
        mean_ap=math.fsum(aps) / len(aps),
        n_queries=len(kept),
        n_skipped=skipped,
        per_query_ap=aps,
        fingerprint=fingerprint,
    )
