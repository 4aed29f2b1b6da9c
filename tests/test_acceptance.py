"""Acceptance gate: every release-blocking check, one printed verdict each.

The checks pin numerical tolerances (gradients, projector algebra, metric
equality against brute-force references) and end-to-end behavior (stage
contributions, data scaling, segment-length sweep, determinism, runtime).
Each check prints one verdict line with capture suspended, so the pass/fail
summary is visible in the runner output without -s.
"""

import json
import math
import time

import numpy as np
import pytest

from camreid import ccr as ccr_mod
from camreid import cli
from camreid import contrastive as ctr
from camreid import encoder as enc
from camreid import evaluation as ev
from camreid import pipeline as pl
from camreid import tracklet as trk
from camreid.synth import DetectionTable


def _verdict(capsys, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# -------------------------------------------------------------- 01 gradients


def test_01_encoder_loss_gradients_match_finite_differences(capsys):
    """Analytic gradients of the contrastive loss through the encoder,
    against central differences in float64, over 100 random configurations."""
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        depth = int(rng.integers(2, 4))
        dims = [int(rng.integers(3, 9))]
        for _ in range(depth - 1):
            dims.append(int(rng.integers(3, 13)))
        dims.append(int(rng.integers(2, 9)))  # embedding width up to 8
        pair = enc.init_encoder(tuple(dims), seed=int(rng.integers(2**31)), dtype=np.float64)
        params = pair.query
        x = rng.standard_normal((1, dims[0]))
        temperature = float(rng.uniform(0.05, 0.3))
        n_neg = int(rng.integers(1, 17))
        negs = rng.standard_normal((n_neg, dims[-1]))
        negs /= np.linalg.norm(negs, axis=1, keepdims=True)
        k_pos = rng.standard_normal((1, dims[-1]))
        k_pos /= np.linalg.norm(k_pos)
        logits = np.empty((1, n_neg + 1))

        # The training step's InfoNCE on a one-row float64 batch.
        def loss_at(p):
            return ctr._batch_info_nce(enc.forward(p, x), k_pos, negs, temperature, logits)[0]

        cache = enc.forward_cached(params, x)
        _, gq = ctr._batch_info_nce(cache.out, k_pos, negs, temperature, logits)
        grads = enc.backward(params, cache, gq)

        for kind, analytic in (("weights", grads.weights), ("biases", grads.biases)):
            tensors = getattr(params, kind)
            for li, tensor in enumerate(tensors):
                flat = tensor.reshape(-1)
                a_flat = analytic[li].reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    h = 1e-6 * max(1.0, abs(orig))
                    flat[idx] = orig + h
                    up = loss_at(params)
                    flat[idx] = orig - h
                    down = loss_at(params)
                    flat[idx] = orig
                    fd = (up - down) / (2 * h)
                    rel = abs(a_flat[idx] - fd) / max(abs(fd), 1.0)
                    worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    _verdict(
        capsys,
        "01 encoder loss gradients",
        ok,
        f"max rel err {worst:.3e} (< 1e-6) over 100 configs in {elapsed:.1f}s (< 60s)",
    )


# -------------------------------------------------------- 02 nullification


def test_02_full_rank_reduction_nullifies_camera_signal(capsys):
    """With k equal to the camera count, reduced embeddings carry no usable
    camera evidence: centered logits vanish and the softmax is uniform."""
    rng = np.random.default_rng(777)
    m, n, n_samples = 6, 128, 12000
    centers = 3.0 * rng.standard_normal((m, n))
    labels = rng.integers(0, m, size=n_samples)
    emb = centers[labels] + rng.standard_normal((n_samples, n))
    emb = (emb / np.linalg.norm(emb, axis=1, keepdims=True)).astype(np.float32)
    clf = ccr_mod.fit_camera_classifier(emb, labels, seed=4)
    proj = ccr_mod.build_projector(clf.weight, k=m)
    max_logit, max_dev = ccr_mod.nullification_check(clf.weight, proj, emb)
    ok = max_logit < 1e-4 and max_dev < 1e-4
    _verdict(
        capsys,
        "02 camera signal nullification",
        ok,
        f"max |centered logit| {max_logit:.3e}, max softmax dev {max_dev:.3e} "
        f"(both < 1e-4) over {n_samples} float32 samples",
    )


# ---------------------------------------------------------- 03 projector


def test_03_projector_is_symmetric_and_idempotent(capsys):
    rng = np.random.default_rng(31)
    worst_sym, worst_idem = 0.0, 0.0
    for _ in range(100):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(m, 41))
        k = int(rng.integers(1, m + 1))
        w = rng.standard_normal((m, n))
        proj = ccr_mod.build_projector(w, k=k)
        p = np.eye(n) - proj.v @ proj.v.T
        worst_sym = max(worst_sym, float(np.abs(p - p.T).max()))
        worst_idem = max(worst_idem, float(np.abs(p @ p - p).max()))
    ok = worst_sym < 1e-5 and worst_idem < 1e-5
    _verdict(
        capsys,
        "03 projector algebra",
        ok,
        f"max asymmetry {worst_sym:.3e}, max idempotence defect {worst_idem:.3e} "
        f"(both < 1e-5) over 100 random classifiers",
    )


# ------------------------------------------------------------- 04 matching


def _mutual_brute(aff: np.ndarray, floor: float | None) -> set:
    n_r, n_c = aff.shape
    out = set()
    for i in range(n_r):
        for j in range(n_c):
            v = aff[i, j]
            row_best = all(v > aff[i, jj] for jj in range(n_c) if jj != j)
            col_best = all(v > aff[ii, j] for ii in range(n_r) if ii != i)
            if row_best and col_best and (floor is None or v >= floor):
                out.add((i, j))
    return out


def test_04_mutual_matching_equals_brute_force(capsys):
    """The miner scores stacks of same-shape blocks at once; every block of a
    stack must get the cells that brute force finds in that block alone."""
    rng = np.random.default_rng(404)
    checked = 0
    for trial in range(1000):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        if trial % 2 == 0:
            aff = rng.integers(0, 5, size=shape) / 4.0  # tie-rich
            floor = float(rng.integers(0, 5) / 4.0)  # on the grid, so some cells sit on it
        else:
            aff = rng.uniform(-1.0, 1.0, size=shape)
            floor = float(rng.uniform(-1.0, 1.0))
        floor = None if trial % 4 < 2 else floor
        best = trk._mutual_best(aff, floor)
        for b, block in enumerate(aff):
            got = {(i, int(j)) for i, j in enumerate(best[b]) if j >= 0}
            want = _mutual_brute(block, floor)
            assert got == want, f"trial {trial} block {b}: {got} != {want}"
            checked += 1
    _verdict(
        capsys,
        "04 mutual matching",
        checked >= 1000,
        f"exact set equality with brute force on {checked} blocks up to 8x8, "
        "in 1000 stacks of 1-4 same-shape blocks, half of them with a floor",
    )


# -------------------------------------------------------------- 05 metrics


def _reference_metrics(q_emb, q_gt, q_cam, g_emb, g_gt, g_cam, ranks=(1, 5, 10)):
    """Loop-based CMC and mAP: per-element distance sums, (distance, index)
    sorting, and exactly-rounded precision sums."""
    match_lists = []
    for qi in range(len(q_gt)):
        cand = []
        for gj in range(len(g_gt)):
            if g_gt[gj] == q_gt[qi] and g_cam[gj] == q_cam[qi]:
                continue
            d2 = math.fsum((float(g_emb[gj][d]) - float(q_emb[qi][d])) ** 2
                           for d in range(q_emb.shape[1]))
            cand.append((d2, gj))
        cand.sort()
        rel = [1 if g_gt[gj] == q_gt[qi] else 0 for _, gj in cand]
        if not any(rel):
            continue
        match_lists.append(rel)
    cmc = {}
    for r in ranks:
        cmc[r] = sum(1 for rel in match_lists if any(rel[:r])) / len(match_lists)
    aps = []
    for rel in match_lists:
        hits = 0
        prec = []
        for rank0, flag in enumerate(rel):
            if flag:
                hits += 1
                prec.append(hits / (rank0 + 1))
        aps.append(math.fsum(prec) / hits)
    return cmc, math.fsum(aps) / len(aps)


def _table(gt, cam, emb) -> DetectionTable:
    n = len(gt)
    return DetectionTable(det_id=np.arange(n), frame=np.zeros(n), camera_id=cam, gt_id=gt, observations=emb)


def test_05_retrieval_metrics_equal_brute_force(capsys):
    rng = np.random.default_rng(55)
    for trial in range(100):
        n_q = int(rng.integers(2, 51))
        n_g = int(rng.integers(max(n_q, 5), 201))
        dim = int(rng.integers(2, 17))
        n_ids = int(rng.integers(2, 12))
        q_gt = rng.integers(0, n_ids, size=n_q)
        q_cam = rng.integers(0, 4, size=n_q)
        g_gt = rng.integers(0, n_ids, size=n_g)
        g_cam = rng.integers(0, 4, size=n_g)
        # plant one cross-camera positive per query, in distinct slots, so
        # nothing is skipped on either side
        plant = rng.permutation(n_g)[:n_q]
        for qi, gj in enumerate(plant):
            g_gt[gj] = q_gt[qi]
            g_cam[gj] = (q_cam[qi] + 1) % 4
        q_emb = rng.standard_normal((n_q, dim))
        g_emb = rng.standard_normal((n_g, dim))

        protocol = ev.EvalProtocol(
            query=_table(q_gt, q_cam, q_emb), gallery=_table(g_gt, g_cam, g_emb), cmc_ranks=(1, 5, 10)
        )
        report = ev.evaluate(q_emb, g_emb, protocol)
        got_cmc, got_map = report.cmc, report.mean_ap

        want_cmc, want_map = _reference_metrics(q_emb, q_gt, q_cam, g_emb, g_gt, g_cam)
        assert got_cmc == want_cmc, f"trial {trial}: cmc {got_cmc} != {want_cmc}"
        assert got_map == want_map, f"trial {trial}: map {got_map!r} != {want_map!r}"
    _verdict(
        capsys,
        "05 retrieval metrics",
        True,
        "cmc@{1,5,10} and mAP equal the brute-force reference exactly on 100 instances",
    )


# ------------------------------------------------------ 06 stage contributions


def test_06_each_stage_contributes(tmp_path, capsys):
    t0 = time.perf_counter()
    rc = cli.main(["ablate", "--axis", "steps", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert rc == 0, capsys.readouterr().err
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["steps"] for row in rows] == list(pl.STEP_ARMS)
    r1 = {row["steps"]: row["rank1"] for row in rows}
    maps = {row["steps"]: row["mean_ap"] for row in rows}
    gaps_ok = (
        r1["cid"] + 0.02 <= r1["tsd"]
        and r1["tsd"] + 0.02 <= r1["cid+tsd"]
        and r1["cid+tsd"] + 0.02 <= r1["cid+tsd+ccr"]
    )
    map_ok = maps["cid+tsd"] < maps["cid+tsd+ccr"]
    ok = gaps_ok and map_ok and elapsed <= 600.0
    _verdict(
        capsys,
        "06 stage contributions",
        ok,
        "rank1 " + " < ".join(f"{arm} {r1[arm]:.4f}" for arm in pl.STEP_ARMS)
        + f" (gaps >= 0.02), mAP {maps['cid+tsd']:.4f} -> {maps['cid+tsd+ccr']:.4f}, "
        + f"{elapsed:.0f}s (<= 600s)",
    )


# ----------------------------------------------------------- 07 data scaling


def test_07_accuracy_grows_with_training_data(tmp_path, capsys):
    t0 = time.perf_counter()
    rc = cli.main(["ablate", "--axis", "data_fraction", "--values", "[0.01, 0.1, 1.0]", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert rc == 0, capsys.readouterr().err
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    r1 = [row["rank1"] for row in rows]
    ok = r1[0] < r1[1] < r1[2] and elapsed <= 900.0
    _verdict(
        capsys,
        "07 data scaling",
        ok,
        "rank1 " + " < ".join(f"{row['data_fraction']:.0%} {row['rank1']:.4f}" for row in rows)
        + f", {elapsed:.0f}s (<= 900s)",
    )


# ------------------------------------------------------ 08 segment length sweep


def test_08_min_len_trades_purity_for_coverage(tmp_path, capsys):
    seeds = (0, 1, 2)
    details = []
    all_ok = True
    for seed in seeds:
        rc = cli.main(["ablate", "--axis", "min_len", "--seed", str(seed), "--out", str(tmp_path / str(seed))])
        assert rc == 0, capsys.readouterr().err
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        purities = [row["purity"] for row in rows]
        r1s = [row["rank1"] for row in rows]
        monotone = all(b >= a for a, b in zip(purities[:-1], purities[1:]))
        not_shortest = max(r1s[1:]) >= r1s[0]
        all_ok = all_ok and monotone and not_shortest
        details.append(
            f"seed {seed} purity " + "->".join(f"{p:.4f}" for p in purities)
            + f" mono={monotone} best_len={rows[int(np.argmax(r1s))]['min_len']}"
        )
    _verdict(capsys, "08 segment length sweep", all_ok, "; ".join(details))


# ------------------------------------------------------------ 09/10 full runs


@pytest.fixture(scope="module")
def timed_full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run_a")
    t0 = time.perf_counter()
    rc = cli.main(["run", "--out", str(out)])
    return out, rc, time.perf_counter() - t0


def test_09_deterministic_reruns_are_bit_identical(timed_full_run, tmp_path, capsys):
    out_a, rc_a, _ = timed_full_run
    rc_b = cli.main(["run", "--out", str(tmp_path / "run_b")])
    report_a = (out_a / "eval" / "report.json").read_bytes()
    report_b = (tmp_path / "run_b" / "eval" / "report.json").read_bytes()
    ok = rc_a == 0 and rc_b == 0 and report_a == report_b
    _verdict(
        capsys,
        "09 deterministic reruns",
        ok,
        f"two same-seed runs wrote identical reports ({len(report_a)} bytes)",
    )


def test_10_default_run_fits_the_time_budget(timed_full_run, capsys):
    _, rc, elapsed = timed_full_run
    ok = rc == 0 and elapsed <= 600.0
    _verdict(
        capsys,
        "10 runtime budget",
        ok,
        f"default end-to-end run finished in {elapsed:.0f}s (<= 600s)",
    )
