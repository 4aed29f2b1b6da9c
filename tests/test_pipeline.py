"""Config payloads, seed derivation, and the file-backed stage chain.

The stage tests run a miniature world end to end in a temporary directory,
so they exercise persistence, manifest skip logic, and conflict handling
rather than retrieval quality.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from camreid import contrastive as ctr
from camreid import encoder as enc
from camreid import pipeline as pl
from camreid import storage, synth
from camreid.errors import InvalidInputError, ManifestError
from camreid.synth import GT_HIDDEN


@pytest.fixture(scope="module")
def tiny_cfg():
    stream = synth.StreamConfig(
        duration_frames=240, entry_rate=0.12, d_latent=12, d_obs=24, pose_dim=4
    )
    cc = ctr.ContrastiveConfig(batch_size=16, bank_size=64, epochs_cid=2, epochs_tsd=3)
    return pl.PipelineConfig(
        stream=stream,
        contrastive=cc,
        n_identities=10,
        n_cameras=3,
        encoder_dims=(24, 32, 16),
        min_len=2,
        min_affinity=0.2,
        eval_window_frac=0.2,
        seed=11,
    )


@pytest.fixture(scope="module")
def tiny_sim(tiny_cfg):
    """The full simulated table, the query and the gallery, in memory."""
    return pl._simulate(tiny_cfg)


# ---------------------------------------------------------------- config


def test_payload_roundtrip(tiny_cfg):
    back = pl.PipelineConfig.from_payload(tiny_cfg.to_payload())
    assert back == tiny_cfg
    assert back.encoder_dims == (24, 32, 16)


def test_payload_roundtrip_survives_json(tiny_cfg):
    text = json.dumps(tiny_cfg.to_payload())
    assert pl.PipelineConfig.from_payload(json.loads(text)) == tiny_cfg


def test_payload_rejects_unknown_field(tiny_cfg):
    payload = tiny_cfg.to_payload()
    payload["detector"] = "yolo"
    with pytest.raises(InvalidInputError):
        pl.PipelineConfig.from_payload(payload)


def test_payload_rejects_wrong_schema(tiny_cfg):
    payload = tiny_cfg.to_payload()
    payload["schema_version"] = 999
    with pytest.raises(InvalidInputError):
        pl.PipelineConfig.from_payload(payload)


def test_fingerprint_tracks_config(tiny_cfg):
    assert tiny_cfg.fingerprint() == tiny_cfg.fingerprint()
    other = dataclasses.replace(tiny_cfg, seed=12)
    assert other.fingerprint() != tiny_cfg.fingerprint()


def test_config_validation_catches_bad_fields(tiny_cfg):
    # Checked when built: every dataclasses.replace of a config checks it, as
    # its constructor does.
    for fields in (
        {"encoder_dims": (32, 16)},  # d_obs mismatch
        {"min_len": 0},
        {"ccr_k": 7},  # > n_cameras
        {"precision": "f16"},
        {"seed": -1},
        {"query_frac": float("nan")},
    ):
        with pytest.raises(InvalidInputError):
            dataclasses.replace(tiny_cfg, **fields)
    with pytest.raises(InvalidInputError):
        pl.PipelineConfig(n_cameras=1)
    with pytest.raises(InvalidInputError):
        pl.PipelineConfig(stream=tiny_cfg.stream)  # d_obs 24 against the default encoder_dims' 64


def test_derive_seed_is_stable():
    a = pl.derive_seed(3, 21)
    assert a == pl.derive_seed(3, 21)
    assert a != pl.derive_seed(3, 22)
    assert 0 <= a < 2**32


# ---------------------------------------------------------------- benchmark


def test_benchmark_hides_gt_from_training(staged_root, tiny_cfg):
    # What the stage loaders hand a training stage carries no identity; the
    # evaluation split does.
    train = pl.load_train_table(staged_root, tiny_cfg)
    assert np.all(train.gt_id == GT_HIDDEN)
    assert np.all(train.ghost == 0)
    for table in pl.load_eval_split(staged_root, tiny_cfg):
        assert np.all(table.gt_id >= 0)


def test_benchmark_dtype_and_coverage(tiny_cfg, tiny_sim, staged_root):
    # A det id is its row number in the simulated table, so the table's gt
    # column is the identity of each det id, as the min_len ablation reads it.
    full = tiny_sim[0]
    np.testing.assert_array_equal(full.det_id, np.arange(len(full)))
    train = pl.load_train_table(staged_root, tiny_cfg)
    assert train.observations.dtype == tiny_cfg.dtype
    assert train.det_id.max() < len(full)
    for table in pl.load_eval_split(staged_root, tiny_cfg):
        np.testing.assert_array_equal(full.gt_id[table.det_id], table.gt_id)


def _training_window(config, full):
    return synth.training_table(config.stream, full, config.eval_window_frac)


def test_slice_fraction_prefix(tiny_cfg, tiny_sim):
    window = synth.eval_window_start(tiny_cfg.stream, tiny_cfg.eval_window_frac)
    train = _training_window(tiny_cfg, tiny_sim[0])
    full = pl.slice_fraction(tiny_cfg, train, 1.0)
    assert len(full) == len(train)
    half = pl.slice_fraction(tiny_cfg, train, 0.5)
    assert 0 < len(half) < len(full)
    assert half.frame.max() < int(np.ceil(0.5 * window))
    tenth = pl.slice_fraction(tiny_cfg, train, 0.1)
    assert len(tenth) <= len(half)


def test_slice_fraction_keeps_the_evaluation_window(tiny_cfg, tiny_sim):
    # Sliced whole, the simulated table loses only training rows: what a
    # data_fraction arm's sim/ holds trains on the slice and keeps the split.
    window = synth.eval_window_start(tiny_cfg.stream, tiny_cfg.eval_window_frac)
    full = tiny_sim[0]
    sliced = pl.slice_fraction(tiny_cfg, full, 0.5)
    half = pl.slice_fraction(tiny_cfg, _training_window(tiny_cfg, full), 0.5)
    np.testing.assert_array_equal(_training_window(tiny_cfg, sliced).det_id, half.det_id)
    np.testing.assert_array_equal(sliced.det_id[sliced.frame >= window], full.det_id[full.frame >= window])
    assert len(pl.slice_fraction(tiny_cfg, full, 1.0)) == len(full)


def test_slice_fraction_rejects_bad_fraction(tiny_cfg, tiny_sim):
    for frac in (0.0, -0.5, 1.5):
        with pytest.raises(InvalidInputError):
            pl.slice_fraction(tiny_cfg, tiny_sim[0], frac)


def test_stage_ablate_rejects_bad_grids_before_writing(tiny_cfg, tmp_path):
    # An unknown axis, values for the fixed steps arms, and values that are
    # not a non-empty list are refused before ablation/ is made.
    for axis, values in (("optimizer", None), ("steps", [123]), ("min_len", []), ("min_len", 5)):
        with pytest.raises(InvalidInputError):
            pl.stage_ablate(tmp_path, tiny_cfg, axis, values)
    assert not (tmp_path / "ablation").exists()


# ---------------------------------------------------------------- stages


@pytest.fixture(scope="module")
def staged_root(tiny_cfg, tmp_path_factory):
    """Full stage chain run once in a module-scoped directory."""
    root = tmp_path_factory.mktemp("stages")
    pl.write_config(root, tiny_cfg)
    assert pl.stage_simulate(root, tiny_cfg)
    assert pl.stage_train_cid(root, tiny_cfg)
    assert pl.stage_extract(root, tiny_cfg)
    assert pl.stage_trackletize(root, tiny_cfg)
    assert pl.stage_train_tsd(root, tiny_cfg)
    assert pl.stage_fit_ccr(root, tiny_cfg)
    assert pl.stage_evaluate(root, tiny_cfg)
    return root


def test_stage_chain_outputs_exist(staged_root):
    for rel in (
        "sim/detections.jsonl",
        "sim/observations.rctr",
        "cid/checkpoint.rctr",
        "embed/embeddings.rctr",
        "segments/segments.jsonl",
        "segments/stats.json",
        "tsd/checkpoint.rctr",
        "ccr/projector.rctr",
        "eval/report.json",
        "eval/report.txt",
    ):
        assert (staged_root / rel).exists(), rel


def test_stage_chain_skips_when_done(staged_root, tiny_cfg):
    # Every stage sees a matching manifest and reports that it did nothing.
    assert not pl.stage_simulate(staged_root, tiny_cfg)
    assert not pl.stage_train_cid(staged_root, tiny_cfg)
    assert not pl.stage_extract(staged_root, tiny_cfg)
    assert not pl.stage_trackletize(staged_root, tiny_cfg)
    assert not pl.stage_train_tsd(staged_root, tiny_cfg)
    assert not pl.stage_fit_ccr(staged_root, tiny_cfg)
    assert not pl.stage_evaluate(staged_root, tiny_cfg)


def test_report_is_sane(staged_root):
    # Metric values are serialized via repr so reports compare bit for bit.
    report = json.loads((staged_root / "eval" / "report.json").read_text())
    assert 0.0 <= float(report["cmc"]["1"]) <= 1.0
    assert 0.0 <= float(report["mean_ap"]) <= 1.0
    assert report["n_queries"] > 0
    text = (staged_root / "eval" / "report.txt").read_text()
    assert "mAP" in text and "cmc@1" in text


def _read_config(root):
    return pl.PipelineConfig.from_payload(json.loads((root / "config.json").read_text()))


def test_config_json_roundtrip(staged_root, tiny_cfg):
    assert _read_config(staged_root) == tiny_cfg


def test_write_config_conflict(staged_root, tiny_cfg, tmp_path):
    other = dataclasses.replace(tiny_cfg, seed=99)
    with pytest.raises(ManifestError):
        pl.write_config(staged_root, other)
    # force writes; run in a scratch dir so the module root stays intact
    pl.write_config(tmp_path, tiny_cfg)
    pl.write_config(tmp_path, other, force=True)
    assert _read_config(tmp_path) == other


def test_load_train_table_strips_gt(staged_root, tiny_cfg):
    train = pl.load_train_table(staged_root, tiny_cfg)
    assert np.all(train.gt_id == GT_HIDDEN)
    assert np.all(train.ghost == 0)
    window = synth.eval_window_start(tiny_cfg.stream, tiny_cfg.eval_window_frac)
    assert train.frame.max() < window


def test_load_train_table_is_held_once(staged_root, tiny_cfg):
    # A second reader in the process gets the cached, read-only arrays, not
    # a copy; they are the training window of the full simulated table.
    sim = pl.stage_paths(staged_root, "simulate")
    digests = storage.validate_inputs({name: sim[name] for name in ("detections", "observations")})
    first = pl.load_train_table(staged_root, tiny_cfg, digests)
    tracemalloc.start()
    try:
        second = pl.load_train_table(staged_root, tiny_cfg, digests)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
    want = synth.training_table(tiny_cfg.stream, pl._simulate(tiny_cfg)[0], tiny_cfg.eval_window_frac)
    for f in dataclasses.fields(synth.DetectionTable):
        got = getattr(second, f.name)
        assert np.shares_memory(got, getattr(first, f.name))
        assert not got.flags.writeable
        assert got.dtype == getattr(want, f.name).dtype
        assert np.array_equal(got, getattr(want, f.name))


def test_load_eval_split_matches_benchmark(staged_root, tiny_cfg, tiny_sim):
    query, gallery = pl.load_eval_split(staged_root, tiny_cfg)
    np.testing.assert_array_equal(query.det_id, tiny_sim[1].det_id)
    np.testing.assert_array_equal(gallery.det_id, tiny_sim[2].det_id)
    np.testing.assert_array_equal(query.gt_id, tiny_sim[1].gt_id)


def test_checkpoint_roundtrip(staged_root):
    pair = pl.load_checkpoint(staged_root, "train-cid")
    assert pair.query.dims == (24, 32, 16)
    assert pair.momentum == pytest.approx(0.999)
    for w_q, w_k in zip(pair.query.weights, pair.key.weights):
        assert w_q.shape == w_k.shape
    again = pl.load_checkpoint(staged_root, "train-cid")
    for a, b in zip(pair.query.weights, again.query.weights):
        np.testing.assert_array_equal(a, b)


def test_load_checkpoint_missing_meta(tmp_path):
    with pytest.raises(ManifestError):
        pl.load_checkpoint(tmp_path, "train-cid")


def test_load_segments_roundtrip(staged_root, tiny_cfg):
    # What trackletize wrote reads back as the segments it mined.
    train = pl.load_train_table(staged_root, tiny_cfg)
    embeddings = storage.read_tensors(staged_root / "embed" / "embeddings.rctr")["embeddings"]
    mined = pl.mine_segments(tiny_cfg, train, embeddings)
    segments = pl.load_segments(staged_root)
    assert len(segments) > 0
    for f in dataclasses.fields(segments):
        got = getattr(segments, f.name)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, getattr(mined, f.name))
    stats = json.loads((staged_root / "segments" / "stats.json").read_text())
    assert stats["n_segments"] == len(segments)
    assert segments.length.min() >= 2  # min_len from the tiny config


def test_conflicting_rerun_needs_force(tiny_cfg, tmp_path):
    other = dataclasses.replace(tiny_cfg, seed=7)
    assert pl.stage_simulate(tmp_path, tiny_cfg)
    with pytest.raises(ManifestError):
        pl.stage_simulate(tmp_path, other)
    assert pl.stage_simulate(tmp_path, other, force=True)
    assert not pl.stage_simulate(tmp_path, other)  # now a manifest hit


def test_evaluate_refuses_mismatched_eval_dir(staged_root, tiny_cfg):
    # The eval stage holds a ccr-based report; asking for a cid-only report
    # in the same directory must refuse rather than silently overwrite.
    with pytest.raises(ManifestError):
        pl.stage_evaluate(staged_root, tiny_cfg, checkpoint="cid", use_ccr=False)


def test_stage_manifests_record_their_counts(tiny_cfg, tmp_path, monkeypatch):
    # Each stage's manifest `extra` carries its counts; the optimizer steps
    # are counted here at `sgd_step`, and a stage of no epochs takes none.
    # `extra` is not part of the match, so a manifest whose counts were
    # edited is still a hit.
    calls = []
    sgd_step = enc.sgd_step
    monkeypatch.setattr(enc, "sgd_step", lambda *a: calls.append(1) or sgd_step(*a))
    no_epochs = dataclasses.replace(tiny_cfg.contrastive, epochs_cid=0, epochs_tsd=0)
    for config in (tiny_cfg, dataclasses.replace(tiny_cfg, contrastive=no_epochs)):
        root = tmp_path / str(config.contrastive.epochs_cid)
        steps = {}
        for name in pl.STAGES:
            before = len(calls)
            assert getattr(pl, "stage_" + name.replace("-", "_"))(root, config)
            steps[name] = len(calls) - before
        extra = {m.parent.name: json.loads(m.read_text()).get("extra") for m in root.glob("*/manifest.json")}
        train = pl.load_train_table(root, config)
        segments = pl.load_segments(root)
        query, gallery = pl.load_eval_split(root, config)
        assert extra == {
            "sim": {"n_detections": len((root / "sim" / "detections.jsonl").read_text().splitlines())},
            "cid": {"rows": len(train), "steps": steps["train-cid"]},
            "embed": {"rows": len(train)},
            "segments": {"segments": len(segments)},
            "tsd": {"rows": int(segments.length.sum()), "steps": steps["train-tsd"]},
            "ccr": {"rows": len(train)},
            "eval": {"checkpoint": "tsd", "use_ccr": True, "queries": len(query), "gallery": len(gallery)},
        }
        trained = config.contrastive.epochs_cid > 0
        assert (steps["train-cid"] > 0, steps["train-tsd"] > 0) == (trained, trained)
    manifest = tmp_path / "2" / "eval" / "manifest.json"
    edited = json.loads(manifest.read_text())
    edited["extra"]["queries"] += 1
    manifest.write_text(json.dumps(edited))
    assert not pl.stage_evaluate(tmp_path / "2", tiny_cfg)


def test_full_table_alignment_check(tiny_cfg, tmp_path):
    pl.stage_simulate(tmp_path, tiny_cfg)
    tens = storage.read_tensors(tmp_path / "sim" / "observations.rctr")
    tens["det_ids"] = tens["det_ids"][::-1].copy()
    storage.write_tensors(tmp_path / "sim" / "observations.rctr", tens)
    with pytest.raises(ManifestError):
        pl.load_train_table(tmp_path, tiny_cfg)


def test_changed_detections_rerun_extract(tiny_cfg, tmp_path):
    # extract reads the detection table, so a change to detections.jsonl
    # alone makes its old results stale.
    assert pl.stage_simulate(tmp_path, tiny_cfg)
    assert pl.stage_train_cid(tmp_path, tiny_cfg)
    assert pl.stage_extract(tmp_path, tiny_cfg)
    detections = tmp_path / "sim" / "detections.jsonl"
    detections.write_text(detections.read_text() + "\n")  # same records, new digest
    with pytest.raises(ManifestError):
        pl.stage_extract(tmp_path, tiny_cfg)
    assert pl.stage_extract(tmp_path, tiny_cfg, force=True)


def test_corrupt_detection_line_is_named(tiny_cfg, tmp_path):
    assert pl.stage_simulate(tmp_path, tiny_cfg)
    detections = tmp_path / "sim" / "detections.jsonl"
    lines = detections.read_text().splitlines(keepends=True)
    lines[4] = lines[4].replace('"frame": ', '"frame": 0.5 + ')
    detections.write_text("".join(lines))
    with pytest.raises(ManifestError, match=r"detections\.jsonl:5:"):
        pl.stage_train_cid(tmp_path, tiny_cfg)


def test_stage_dying_before_its_manifest_is_rerun(tiny_cfg, tmp_path, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("killed before the manifest")

    assert pl.stage_simulate(tmp_path, tiny_cfg)
    write_manifest = storage.write_manifest
    monkeypatch.setattr(storage, "write_manifest", crash)
    with pytest.raises(RuntimeError):
        pl.stage_train_cid(tmp_path, tiny_cfg)
    assert (tmp_path / "cid" / "checkpoint.rctr").exists()
    monkeypatch.setattr(storage, "write_manifest", write_manifest)
    assert pl.stage_train_cid(tmp_path, tiny_cfg)
    # The same holds when a forced rerun with another config dies over
    # finished results: they are no longer taken as done.
    other = dataclasses.replace(tiny_cfg, seed=12)
    monkeypatch.setattr(storage, "write_manifest", crash)
    with pytest.raises(RuntimeError):
        pl.stage_train_cid(tmp_path, other, force=True)
    monkeypatch.setattr(storage, "write_manifest", write_manifest)
    assert pl.stage_train_cid(tmp_path, tiny_cfg)
    assert not pl.stage_train_cid(tmp_path, tiny_cfg)


def test_training_manifests_record_their_step_workers(tiny_cfg, tmp_path, monkeypatch):
    pl.stage_run(tmp_path, tiny_cfg)
    # The tiny steps are too small to split; other stages record no count.
    workers = {d: storage.read_manifest(tmp_path / d)["resources"].get("step_workers") for d in ("cid", "tsd", "sim")}
    assert workers == {"cid": 1, "tsd": 1, "sim": None}
    monkeypatch.setattr(ctr, "_step_workers", lambda *shape: 2)
    # What a run used is not compared: the finished stage is still a hit.
    assert not pl.stage_train_cid(tmp_path, tiny_cfg)
    (tmp_path / "cid" / "manifest.json").unlink()
    assert pl.stage_train_cid(tmp_path, tiny_cfg)
    assert storage.read_manifest(tmp_path / "cid")["resources"]["step_workers"] == 2


def _files(root):
    """Every file under root with its bytes, inode and modification time."""
    files = (p for p in sorted(root.rglob("*")) if p.is_file())
    return {p: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in files}


def test_stage_ablate_min_len(tiny_cfg, tmp_path, monkeypatch):
    assert pl.stage_ablate(tmp_path, tiny_cfg, "min_len", values=[2, 3])
    stage_dir = tmp_path / "ablation" / "min_len"
    rows = storage.read_records(stage_dir / "rows.jsonl")
    assert [r["min_len"] for r in rows] == [2, 3]
    assert all(0.0 <= r["purity"] <= 1.0 for r in rows)
    assert rows[0]["n_segments"] >= rows[1]["n_segments"]
    series = (stage_dir / "rows.series").read_text().splitlines()
    assert series[0] == "# min_len\tn_segments\tpurity\trank1\tmean_ap"
    assert len(series) == 3
    manifest = storage.read_manifest(stage_dir)
    assert manifest["stage"] == "ablate"
    assert manifest["outputs"] == {
        name: storage.sha256_file(stage_dir / name) for name in ("rows.jsonl", "rows.series")
    }

    # An identical rerun is a manifest hit: no arm runs and no file is written.
    def no_arms(*args, **kwargs):
        pytest.fail("an identical rerun ran the grid again")

    before = _files(tmp_path)
    monkeypatch.setitem(pl.ABLATIONS, "min_len", no_arms)
    assert not pl.stage_ablate(tmp_path, tiny_cfg, "min_len", values=[2, 3])
    # Other values, or another config, are another run's results.
    with pytest.raises(ManifestError):
        pl.stage_ablate(tmp_path, tiny_cfg, "min_len", values=[3])
    with pytest.raises(ManifestError):
        pl.stage_ablate(tmp_path, dataclasses.replace(tiny_cfg, seed=12), "min_len", values=[2, 3])
    assert _files(tmp_path) == before
    monkeypatch.undo()
    assert pl.stage_ablate(tmp_path, tiny_cfg, "min_len", values=[3], force=True)
    assert storage.read_records(stage_dir / "rows.jsonl") == rows[1:]
    assert not pl.stage_ablate(tmp_path, tiny_cfg, "min_len", values=[3])


def test_fit_ccr_handles_missing_cameras(tiny_cfg, staged_root):
    # A short time slice may never see some cameras; the camera head is
    # then fit over the ones that appear.
    train = pl.load_train_table(staged_root, tiny_cfg)
    partial = train.select(train.camera_id != 0)
    assert len(np.unique(partial.camera_id)) == tiny_cfg.n_cameras - 1
    pair = pl.random_pair(tiny_cfg)
    classifier, projector = pl.fit_ccr(tiny_cfg, pair.query, partial)
    assert projector.m == tiny_cfg.n_cameras - 1
    assert projector.k == tiny_cfg.n_cameras - 1
    emb = pl.embed_all(pair.query, partial.observations)
    from camreid import ccr as ccr_mod

    max_logit, _ = ccr_mod.nullification_check(classifier.weight, projector, emb)
    assert max_logit < 1e-3


def test_model_size_ablation(tiny_cfg, tmp_path):
    # n_params counts each arm's trained query encoder, weights and biases.
    assert pl.stage_ablate(tmp_path, tiny_cfg, "model_size", values=[[24, 16, 8], [24, 32, 16]])
    rows = storage.read_records(tmp_path / "ablation" / "model_size" / "rows.jsonl")
    assert [r["encoder_dims"] for r in rows] == ["24x16x8", "24x32x16"]
    assert rows[0]["n_params"] < rows[1]["n_params"]
    assert rows[0]["n_params"] == 24 * 16 + 16 + 16 * 8 + 8
    for r in rows:
        assert 0.0 <= r["rank1"] <= 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_rows", [0, 1, 100, 256, 301])
def test_embed_all_matches_concatenated_forward_passes(dtype, n_rows):
    # One cache and one result array give the bits of one fresh forward
    # pass per batch, concatenated, with a short last batch.
    params = enc.init_encoder((24, 32, 16), seed=3, dtype=dtype).query
    obs = np.random.default_rng(n_rows).standard_normal((n_rows, 24)).astype(dtype)
    got = pl.embed_all(params, obs, batch_size=100)
    parts = [enc.forward(params, obs[s : s + 100]) for s in range(0, n_rows, 100)]
    want = np.concatenate(parts, axis=0) if parts else np.zeros((0, 16), dtype=dtype)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_embed_all_allocates_the_result_and_one_batch_of_buffers(monkeypatch):
    # Twelve batches must not cost twelve batches of activations, nor a
    # second copy of the result, nor `backward`'s deltas; one batch of
    # forward activations is the hidden layer, z, its norms and the unit
    # rows.  64 KiB covers the small objects.
    params = enc.init_encoder((64, 256, 128), seed=0).query
    obs = np.random.default_rng(0).standard_normal((12 * 512, 64)).astype(np.float32)
    one_batch = 512 * (256 + 128 + 1 + 128) * 4
    caches = []
    forward = enc.forward
    monkeypatch.setattr(enc, "forward", lambda p, x, cache, out: caches.append(cache) or forward(p, x, cache, out))
    pl.embed_all(params, obs, batch_size=512)
    tracemalloc.start()
    try:
        result = pl.embed_all(params, obs, batch_size=512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= result.nbytes + one_batch + (64 << 10)
    assert len(caches) == 24 and all(cache.deltas == [] for cache in caches)
