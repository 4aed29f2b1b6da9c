"""Retrieval metric oracles: hand-worked cases and brute-force agreement."""

import math

import numpy as np
import pytest

from camreid import evaluation as ev
from camreid.errors import DegenerateInputError, InvalidInputError
from camreid.synth import DetectionTable


def test_average_precision_hand_cases():
    # Single relevant item at rank 1: AP = 1.
    assert ev.average_precision(np.array([1, 0, 0])) == 1.0
    # Relevant at ranks 2 and 4: AP = (1/2 + 2/4) / 2 = 0.5.
    assert ev.average_precision(np.array([0, 1, 0, 1])) == pytest.approx(0.5, abs=1e-15)
    # Relevant at ranks 1 and 3: AP = (1 + 2/3) / 2 = 5/6.
    assert ev.average_precision(np.array([1, 0, 1])) == pytest.approx(5.0 / 6.0, abs=1e-15)
    # All relevant: every prefix precision is 1.
    assert ev.average_precision(np.ones(7)) == 1.0


def test_average_precision_no_relevant_raises():
    with pytest.raises(DegenerateInputError):
        ev.average_precision(np.zeros(4))


def test_cmc_curve_hand_case():
    lists = [
        np.array([1, 0, 0]),  # hit at rank 1
        np.array([0, 0, 1]),  # hit at rank 3
        np.array([0, 0, 0, 1]),  # hit at rank 4
    ]
    cmc = ev.cmc_curve(lists, ranks=(1, 3, 5))
    assert cmc[1] == pytest.approx(1.0 / 3.0)
    assert cmc[3] == pytest.approx(2.0 / 3.0)
    assert cmc[5] == pytest.approx(1.0)


def test_cmc_curve_validation():
    with pytest.raises(DegenerateInputError):
        ev.cmc_curve([])
    with pytest.raises(InvalidInputError):
        ev.cmc_curve([np.array([1])], ranks=(0,))


def test_mean_ap_hand_case():
    lists = [np.array([1, 0]), np.array([0, 1])]
    # APs are 1 and 1/2.
    assert ev.mean_ap(lists) == pytest.approx(0.75, abs=1e-15)


def test_rank_gallery_orders_by_distance():
    q = np.array([0.0, 0.0])
    g = np.array([[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    ranked = ev.rank_gallery(
        q, g, query_gt=0, query_cam=0,
        gallery_gt=np.array([1, 1, 1]), gallery_cam=np.array([1, 1, 1]),
    )
    assert ranked.tolist() == [1, 2, 0]


def test_rank_gallery_tie_breaks_by_gallery_index():
    q = np.zeros(2)
    g = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.0]])
    ranked = ev.rank_gallery(
        q, g, 0, 0, np.array([1, 1, 1]), np.array([1, 1, 1])
    )
    assert ranked.tolist() == [2, 0, 1]


def test_rank_gallery_cross_camera_filter():
    # Same-identity same-camera rows disappear; same-camera other-identity
    # rows stay.
    q = np.zeros(2)
    g = np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])
    gt = np.array([7, 7, 8])
    cam = np.array([0, 1, 0])
    ranked = ev.rank_gallery(q, g, query_gt=7, query_cam=0, gallery_gt=gt, gallery_cam=cam)
    assert 0 not in ranked.tolist()
    assert set(ranked.tolist()) == {1, 2}
    unfiltered = ev.rank_gallery(
        q, g, 7, 0, gt, cam, cross_camera_filter=False
    )
    assert unfiltered.tolist() == [0, 1, 2]


def _brute_reference(q_emb, g_emb, q_gt, q_cam, g_gt, g_cam, ranks=(1, 5, 10)):
    """Loop-based CMC and mAP, written independently of the package path."""
    per_query = []
    for i in range(len(q_emb)):
        scored = []
        for j in range(len(g_emb)):
            if g_gt[j] == q_gt[i] and g_cam[j] == q_cam[i]:
                continue
            d = float(np.sum((g_emb[j] - q_emb[i]) ** 2))
            scored.append((d, j))
        scored.sort(key=lambda t: (t[0], t[1]))
        rel = [1 if g_gt[j] == q_gt[i] else 0 for _, j in scored]
        if sum(rel) == 0:
            continue
        per_query.append(rel)
    cmc = {r: sum(1 for rel in per_query if any(rel[:r])) / len(per_query) for r in ranks}
    aps = []
    for rel in per_query:
        hits = 0
        precs = []
        for k, r in enumerate(rel, start=1):
            if r:
                hits += 1
                precs.append(hits / k)
        aps.append(math.fsum(precs) / hits)
    return cmc, math.fsum(aps) / len(aps), len(per_query)


def _package_metrics(q_emb, g_emb, q_gt, q_cam, g_gt, g_cam, ranks=(1, 5, 10)):
    kept = []
    for i in range(len(q_emb)):
        ranked = ev.rank_gallery(q_emb[i], g_emb, int(q_gt[i]), int(q_cam[i]), g_gt, g_cam)
        rel = g_gt[ranked] == q_gt[i]
        if rel.any():
            kept.append(rel)
    cmc = ev.cmc_curve(kept, ranks)
    return cmc, ev.mean_ap(kept), len(kept)


def test_metrics_match_brute_force_exactly():
    rng = np.random.default_rng(17)
    for _ in range(25):
        nq = int(rng.integers(2, 20))
        ng = int(rng.integers(10, 80))
        d = int(rng.integers(2, 6))
        q_emb = rng.standard_normal((nq, d))
        g_emb = rng.standard_normal((ng, d))
        q_gt = rng.integers(0, 6, size=nq)
        g_gt = rng.integers(0, 6, size=ng)
        q_cam = rng.integers(0, 3, size=nq)
        g_cam = rng.integers(0, 3, size=ng)
        got_cmc, got_map, got_n = _package_metrics(q_emb, g_emb, q_gt, q_cam, g_gt, g_cam)
        want_cmc, want_map, want_n = _brute_reference(q_emb, g_emb, q_gt, q_cam, g_gt, g_cam)
        assert got_n == want_n
        assert got_cmc == want_cmc
        assert got_map == want_map  # bit-exact by construction


def _protocol():
    # Two identities, two cameras.  Query 0 ranks its gallery as
    # [match, match, miss]: AP = 1, hit at rank 1.  Query 1 sees a closer
    # wrong-identity row first: [miss, match, miss], AP = 1/2, first hit at
    # rank 2.  So CMC@1 = 1/2, CMC@2 = 1, mAP = 3/4.
    query = DetectionTable(
        det_id=[0, 1],
        frame=[0, 0],
        camera_id=[0, 0],
        gt_id=[0, 1],
        observations=np.array([[0.0, 0.0], [10.0, 10.0]]),
    )
    gallery = DetectionTable(
        det_id=[2, 3, 4],
        frame=[0, 0, 0],
        camera_id=[1, 1, 1],
        gt_id=[0, 1, 0],
        observations=np.array([[0.5, 0.0], [12.0, 10.0], [10.5, 10.0]]),
    )
    return ev.EvalProtocol(query=query, gallery=gallery, cmc_ranks=(1, 2))


def _evaluate_raw(protocol: ev.EvalProtocol) -> ev.EvalReport:
    """Score the split with the observations themselves as embeddings."""
    return ev.evaluate(protocol.query.observations, protocol.gallery.observations, protocol)


def test_evaluate_with_identity_embedding():
    report = _evaluate_raw(_protocol())
    assert report.n_queries == 2
    assert report.cmc[1] == pytest.approx(0.5)
    assert report.cmc[2] == pytest.approx(1.0)
    assert report.mean_ap == pytest.approx(0.75, abs=1e-15)
    assert "mean_ap" in report.to_json()
    assert "cmc@1" in report.to_text()


def test_evaluate_skips_matchless_queries():
    # Identity 1 appears in the gallery only under the query's own camera,
    # so the cross-camera filter leaves it matchless and it is skipped.
    query = DetectionTable(
        det_id=[0, 1],
        frame=[0, 0],
        camera_id=[0, 0],
        gt_id=[0, 1],
        observations=np.zeros((2, 2)),
    )
    gallery = DetectionTable(
        det_id=[2, 3],
        frame=[0, 0],
        camera_id=[1, 0],
        gt_id=[0, 1],
        observations=np.ones((2, 2)),
    )
    report = _evaluate_raw(ev.EvalProtocol(query=query, gallery=gallery))
    assert report.n_queries == 1
    assert report.n_skipped == 1


def test_evaluate_empty_split_raises():
    empty = DetectionTable(det_id=[], frame=[], camera_id=[], gt_id=[], observations=np.zeros((0, 2)))
    with pytest.raises(DegenerateInputError):
        _evaluate_raw(ev.EvalProtocol(query=empty, gallery=empty))


def test_evaluate_rejects_misaligned_embeddings():
    protocol = _protocol()
    with pytest.raises(InvalidInputError):
        ev.evaluate(protocol.query.observations[:1], protocol.gallery.observations, protocol)
