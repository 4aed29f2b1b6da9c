"""Retrieval metric oracles: hand-worked cases, brute-force agreement and
near-ties that only the exact per-row distance can order."""

import math
import tracemalloc

import numpy as np
import pytest

from camreid import evaluation as ev
from camreid.errors import DegenerateInputError, InvalidInputError
from camreid.synth import DetectionTable


def _table(gt, cam, emb) -> DetectionTable:
    n = len(gt)
    return DetectionTable(det_id=np.arange(n), frame=np.zeros(n), camera_id=cam, gt_id=gt, observations=emb)


def _split(q_emb, g_emb, q_gt, q_cam, g_gt, g_cam, **kwargs) -> ev.EvalProtocol:
    """A protocol whose tables carry the embeddings as their observations."""
    return ev.EvalProtocol(query=_table(q_gt, q_cam, q_emb), gallery=_table(g_gt, g_cam, g_emb), **kwargs)


def _ranked_split(match_lists, **kwargs) -> ev.EvalProtocol:
    """Query i, at 1000 i on a line, sees its own gallery rows at 1000 i + 1,
    + 2, ... and they match it where ``match_lists[i]`` holds a 1.  Every
    other query's rows lie farther away, so its ranking is the list."""
    q_pos, g_pos, g_gt = [], [], []
    for i, rel in enumerate(match_lists):
        q_pos.append(1000.0 * i)
        for k, hit in enumerate(rel):
            g_pos.append(1000.0 * i + k + 1)
            g_gt.append(i if hit else -1)
    n_q, n_g = len(q_pos), len(g_pos)
    return _split(
        np.array(q_pos)[:, None], np.array(g_pos)[:, None],
        np.arange(n_q), np.zeros(n_q), np.array(g_gt), np.ones(n_g), **kwargs,
    )


def test_average_precision_hand_cases():
    report = _evaluate_raw(_ranked_split([[1, 0, 0], [0, 1, 0, 1], [1, 0, 1], [1] * 7]))
    ap = report.per_query_ap
    # Single relevant item at rank 1: AP = 1.
    assert ap[0] == 1.0
    # Relevant at ranks 2 and 4: AP = (1/2 + 2/4) / 2 = 0.5.
    assert ap[1] == pytest.approx(0.5, abs=1e-15)
    # Relevant at ranks 1 and 3: AP = (1 + 2/3) / 2 = 5/6.
    assert ap[2] == pytest.approx(5.0 / 6.0, abs=1e-15)
    # All relevant: every prefix precision is 1.
    assert ap[3] == 1.0


def test_average_precision_no_relevant_raises():
    with pytest.raises(DegenerateInputError):
        _evaluate_raw(_ranked_split([[0, 0, 0, 0]]))


def test_cmc_curve_hand_case():
    lists = [
        [1, 0, 0],  # hit at rank 1
        [0, 0, 1],  # hit at rank 3
        [0, 0, 0, 1],  # hit at rank 4
    ]
    cmc = _evaluate_raw(_ranked_split(lists, cmc_ranks=(1, 3, 5))).cmc
    assert cmc[1] == pytest.approx(1.0 / 3.0)
    assert cmc[3] == pytest.approx(2.0 / 3.0)
    assert cmc[5] == pytest.approx(1.0)


def test_cmc_curve_validation():
    with pytest.raises(DegenerateInputError):
        _evaluate_raw(_ranked_split([[0]]))
    with pytest.raises(InvalidInputError):
        _evaluate_raw(_ranked_split([[1]], cmc_ranks=(0,)))


def test_mean_ap_hand_case():
    # APs are 1 and 1/2.
    assert _evaluate_raw(_ranked_split([[1, 0], [0, 1]])).mean_ap == pytest.approx(0.75, abs=1e-15)


def test_evaluate_orders_by_distance():
    # One query per gallery row, each matching only that row; a lone match
    # at rank r has AP 1/r.  Distances 3, 1, 2 give ranks 3, 1, 2.
    protocol = _split(
        np.zeros((3, 2)), np.array([[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        q_gt=[0, 1, 2], q_cam=[0, 0, 0], g_gt=[0, 1, 2], g_cam=[1, 1, 1],
    )
    assert _evaluate_raw(protocol).per_query_ap == [1 / 3, 1.0, 1 / 2]


def test_evaluate_tie_breaks_by_gallery_index():
    # Rows 0 and 1 tie at distance 1 behind row 2: ranks 2, 3, 1.
    protocol = _split(
        np.zeros((3, 2)), np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.0]]),
        q_gt=[0, 1, 2], q_cam=[0, 0, 0], g_gt=[0, 1, 2], g_cam=[1, 1, 1],
    )
    assert _evaluate_raw(protocol).per_query_ap == [1 / 2, 1 / 3, 1.0]


def test_evaluate_cross_camera_filter():
    # The query (identity 7, camera 0) sees row 0 (7, camera 0), row 1
    # (8, camera 0) and row 2 (7, camera 1), in that order.  The filter drops
    # row 0 but keeps the same-camera row of another identity, so row 2 is
    # the only match, at rank 2.  Unfiltered, rows 0 and 2 match at ranks 1, 3.
    args = (np.zeros((1, 2)), np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]), [7], [0], [7, 8, 7], [0, 0, 1])
    filtered = _evaluate_raw(_split(*args))
    assert filtered.per_query_ap == [0.5] and filtered.cmc[1] == 0.0
    unfiltered = _evaluate_raw(_split(*args, cross_camera_filter=False))
    assert unfiltered.per_query_ap == [(1 + 2 / 3) / 2] and unfiltered.cmc[1] == 1.0


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
    report = ev.evaluate(q_emb, g_emb, _split(q_emb, g_emb, q_gt, q_cam, g_gt, g_cam, cmc_ranks=ranks))
    return report.cmc, report.mean_ap, report.n_queries


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



@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
def test_evaluate_rejects_non_finite_embeddings(bad):
    # The screen's error bound assumes finite distances that cannot overflow.
    protocol = _protocol()
    gallery = protocol.gallery.observations.copy()
    gallery[1, 0] = bad
    with pytest.raises(InvalidInputError):
        ev.evaluate(protocol.query.observations, gallery, protocol)

def _full_sort_reference(q_emb, g_emb, q_gt, q_cam, g_gt, g_cam, cross, ranks):
    """Per query: the exact g - q / einsum distance to every gallery row, one
    stable argsort, then AP and the first hit from the ranked relevance."""
    aps, first_hits, skipped = [], [], 0
    for i in range(len(q_emb)):
        diff = g_emb - q_emb[i][None, :]
        d2 = np.einsum("ij,ij->i", diff, diff)
        junk = (g_gt == q_gt[i]) & (g_cam == q_cam[i]) if cross else np.zeros(len(g_emb), bool)
        kept = np.flatnonzero(~junk)
        rel = g_gt[kept[np.argsort(d2[kept], kind="stable")]] == q_gt[i]
        if not rel.any():
            skipped += 1
            continue
        hit_ranks = np.flatnonzero(rel) + 1
        aps.append(math.fsum(np.arange(1, len(hit_ranks) + 1) / hit_ranks) / float(len(hit_ranks)))
        first_hits.append(int(hit_ranks[0]))
    cmc = {r: sum(1 for f in first_hits if f <= r) / len(aps) for r in ranks}
    return cmc, math.fsum(aps) / len(aps), aps, skipped


def _near_tie_split(dtype, rng):
    """Queries whose nearest gallery rows tie exactly or differ by 1-4 ulps.

    Each query gets a cluster of rows around one point: the point itself
    several times over, the point moved by 1 to 4 ulps per coordinate, and
    the query itself.  Half of the queries have norms near 1e4, so their
    clusters sit at a squared distance far below the cancellation error of
    |q|^2 + |g|^2 - 2 q.g.  Rows are shuffled and labelled at random, so
    matches and non-matches interleave inside every tie.
    """
    dim, n_q = 24, 10
    centers = rng.standard_normal((n_q, dim))
    centers[n_q // 2 :] *= 1e4
    queries = centers.astype(dtype)
    rows = []
    for q in queries:
        point = (q + rng.standard_normal(dim) * 1e-3 * np.abs(q).max()).astype(dtype)
        rows += [point] * 3 + [q]
        for steps in (1, 1, 2, 3, 4):
            toward = np.where(rng.random(dim) < 0.5, np.inf, -np.inf).astype(dtype)
            moved = point
            for _ in range(steps):
                moved = np.nextafter(moved, toward)
            rows.append(moved)
    gallery = np.stack(rows)[rng.permutation(len(rows))]
    gallery = np.concatenate([gallery, rng.standard_normal((20, dim)).astype(dtype)])
    n_g = len(gallery)
    return (
        queries, gallery,
        rng.integers(0, 3, size=n_q), rng.integers(0, 2, size=n_q),
        rng.integers(0, 3, size=n_g), rng.integers(0, 2, size=n_g),
    )


@pytest.mark.parametrize("cross", [True, False], ids=["filtered", "unfiltered"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_screened_ranking_matches_full_sort_on_near_ties(dtype, cross):
    rng = np.random.default_rng(31)
    for _ in range(5):
        q_emb, g_emb, q_gt, q_cam, g_gt, g_cam = _near_tie_split(dtype, rng)
        protocol = _split(q_emb, g_emb, q_gt, q_cam, g_gt, g_cam, cross_camera_filter=cross)
        report = ev.evaluate(q_emb, g_emb, protocol)
        cmc, mean_ap, aps, skipped = _full_sort_reference(
            q_emb, g_emb, q_gt, q_cam, g_gt, g_cam, cross, protocol.cmc_ranks
        )
        assert report.per_query_ap == aps
        assert report.cmc == cmc
        assert report.mean_ap == mean_ap
        assert (report.n_queries, report.n_skipped) == (len(aps), skipped)


def test_evaluate_reuses_one_screen_buffer_for_every_block():
    # Nine blocks of queries share one screen buffer (about 4 MiB here).
    # Beyond it the peak may hold the report and a few vectors per query
    # and gallery row, well below a second screen.
    rng = np.random.default_rng(2)
    n_q, n_g, dim = 1400, 3000, 32
    protocol = _split(
        rng.standard_normal((n_q, dim)), rng.standard_normal((n_g, dim)),
        rng.integers(0, 300, n_q), rng.integers(0, 4, n_q), rng.integers(0, 300, n_g), rng.integers(0, 4, n_g),
    )
    q_emb, g_emb = protocol.query.observations, protocol.gallery.observations
    block = ev._SCREEN_BLOCK_BYTES // (8 * n_g)
    assert n_q > 8 * block
    ev.evaluate(q_emb, g_emb, protocol)
    tracemalloc.start()
    try:
        ev.evaluate(q_emb, g_emb, protocol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    screen = 8 * block * n_g
    assert peak <= screen + 128 * (n_q + n_g) + (128 << 10)
