"""Command-line behavior: stage wiring, exit codes, and error records."""

import json

import pytest

from camreid import cli
from camreid import contrastive as ctr
from camreid import pipeline as pl
from camreid import synth


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    """A miniature config on disk, as a user would pass with --config."""
    stream = synth.StreamConfig(
        duration_frames=240, entry_rate=0.12, d_latent=12, d_obs=24, pose_dim=4
    )
    cc = ctr.ContrastiveConfig(batch_size=16, bank_size=64, epochs_cid=2, epochs_tsd=3)
    config = pl.PipelineConfig(
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
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(config.to_payload()))
    return path


def _run(*argv):
    return cli.main([str(a) for a in argv])


def test_stagewise_chain(cfg_file, tmp_path, capsys):
    out = tmp_path / "exp"
    for command in ("simulate", "train-cid", "extract", "trackletize", "train-tsd", "fit-ccr"):
        assert _run(command, "--config", cfg_file, "--out", out) == 0
    assert _run("evaluate", "--config", cfg_file, "--out", out) == 0
    shown = capsys.readouterr().out
    assert "cmc@1" in shown and "mAP" in shown
    assert (out / "eval" / "report.json").exists()


def test_run_command_and_skip(cfg_file, tmp_path, capsys):
    out = tmp_path / "exp"
    assert _run("run", "--config", cfg_file, "--out", out) == 0
    first = capsys.readouterr().out
    assert "mAP" in first
    manifests = sorted(out.glob("*/manifest.json"))
    assert [m.parent.name for m in manifests] == ["ccr", "cid", "embed", "eval", "segments", "sim", "tsd"]
    for m in manifests:
        resources = json.loads(m.read_text())["resources"]
        training = {"step_workers"} if m.parent.name in ("cid", "tsd") else set()
        assert set(resources) == {"wall_s", "cpu_s", "minflt", "max_rss_mib"} | training
        assert resources["max_rss_mib"] > 0

    def stage_files():
        paths = [out / "config.json", *out.glob("*/*")]
        return {p: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in paths}

    before = stage_files()
    # a second invocation hits every manifest, so it rewrites no file: not
    # config.json, whose payload is unchanged, nor any stage file (manifests
    # and their resources included); and it reprints the same report
    assert _run("run", "--config", cfg_file, "--out", out) == 0
    assert capsys.readouterr().out == first
    assert stage_files() == before


def test_missing_config_exits_3(tmp_path, capsys):
    rc = _run("simulate", "--config", tmp_path / "absent.json", "--out", tmp_path / "o")
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ManifestError"


def test_unparsable_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc = _run("simulate", "--config", bad, "--out", tmp_path / "o")
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "InvalidInputError"


def test_unknown_config_field_exits_2(cfg_file, tmp_path, capsys):
    payload = json.loads(cfg_file.read_text())
    payload["detector"] = "yolo"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc = _run("simulate", "--config", bad, "--out", tmp_path / "o")
    assert rc == 2
    capsys.readouterr()


def test_stage_before_inputs_exits_3(cfg_file, tmp_path, capsys):
    rc = _run("train-cid", "--config", cfg_file, "--out", tmp_path / "o")
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert "missing input" in record["message"]


def test_conflicting_rerun_and_force(cfg_file, tmp_path, capsys):
    out = tmp_path / "exp"
    assert _run("simulate", "--config", cfg_file, "--out", out) == 0
    rc = _run("simulate", "--config", cfg_file, "--seed", 3, "--out", out)
    assert rc == 3
    capsys.readouterr()
    assert _run("simulate", "--config", cfg_file, "--seed", 3, "--out", out, "--force") == 0
    written = json.loads((out / "config.json").read_text())
    assert written["seed"] == 3


def test_ablate_prints_rows(cfg_file, tmp_path, capsys):
    out = tmp_path / "exp"
    argv = ("ablate", "--config", cfg_file, "--out", out, "--axis", "min_len", "--values")
    assert _run(*argv, "[2, 3]") == 0
    shown = capsys.readouterr().out
    assert [json.loads(line)["min_len"] for line in shown.splitlines()] == [2, 3]
    assert shown == (out / "ablation" / "min_len" / "rows.jsonl").read_text()
    assert (out / "ablation" / "min_len" / "rows.series").exists()
    # An identical rerun is a manifest hit and prints the same rows; another
    # grid over the same directory needs --force.
    assert _run(*argv, "[2, 3]") == 0
    assert capsys.readouterr().out == shown
    assert _run(*argv, "[3]") == 3
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ManifestError"


@pytest.mark.parametrize("values", ["[1", "5", "[]"])
def test_ablate_rejects_bad_values(cfg_file, tmp_path, capsys, values):
    # Malformed JSON, a non-list and an empty list are bad input, never the
    # axis defaults.
    rc = _run(
        "ablate", "--config", cfg_file, "--out", tmp_path / "o", "--axis", "min_len", "--values", values
    )
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "InvalidInputError"


def test_ablate_steps_rejects_values(cfg_file, tmp_path, capsys):
    # The steps axis runs fixed arms; values given to it are an error, not
    # silently dropped.
    rc = _run("ablate", "--config", cfg_file, "--out", tmp_path / "o", "--axis", "steps", "--values", "[123]")
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "InvalidInputError"
    assert not (tmp_path / "o" / "ablation").exists()


def test_ablate_data_fraction_names_the_slice_too_small_to_train(cfg_file, tmp_path, monkeypatch, capsys):
    # The default grid's 1 % slice of this scene holds fewer detections than
    # the grid's batch of 64; the whole grid is refused before any arm trains.
    def no_training(*args, **kwargs):
        pytest.fail("an arm trained before every slice was checked")

    monkeypatch.setattr(pl, "train_cid", no_training)
    rc = _run("ablate", "--config", cfg_file, "--out", tmp_path / "o", "--axis", "data_fraction")
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "InvalidInputError"
    assert "0.01" in record["message"] and "64" in record["message"]


def test_ablate_model_size_names_dims_that_miss_d_obs(cfg_file, tmp_path, monkeypatch, capsys):
    # The default model-size grid starts every arm at 64, but this scene's
    # observations have 24 dims; the grid is refused before the benchmark
    # is simulated, naming both.
    def no_benchmark(*args, **kwargs):
        pytest.fail("the benchmark was built before every arm's dims were checked")

    monkeypatch.setattr(pl, "build_benchmark", no_benchmark)
    rc = _run("ablate", "--config", cfg_file, "--out", tmp_path / "o", "--axis", "model_size")
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "InvalidInputError"
    assert "64" in record["message"] and "24" in record["message"]
    # An arm that is not a list of widths is bad input too.
    rc = _run("ablate", "--config", cfg_file, "--out", tmp_path / "o", "--axis", "model_size", "--values", "[5]")
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "InvalidInputError"


def test_train_tsd_without_a_usable_segment_exits_2(cfg_file, tmp_path, capsys):
    # A min_len above every segment's length leaves nothing to draw positive
    # pairs from: train-tsd exits 2 with a JSON record, never a traceback.
    payload = json.loads(cfg_file.read_text())
    payload["min_len"] = payload["stream"]["duration_frames"] + 1
    config = tmp_path / "long_min_len.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "exp"
    for command in ("simulate", "train-cid", "extract", "trackletize"):
        assert _run(command, "--config", config, "--out", out) == 0
    capsys.readouterr()
    assert _run("train-tsd", "--config", config, "--out", out) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "InvalidInputError", "message": "no segment with >= 2 detections to sample pairs from"}


def test_removed_knobs_are_rejected(cfg_file, tmp_path, capsys):
    # --workers and --deterministic changed nothing and are gone, as are the
    # config fields behind them and the never-set renormalize_after_ccr.
    for flag in (["--workers", 4], ["--deterministic"]):
        with pytest.raises(SystemExit) as exc:
            _run("simulate", "--config", cfg_file, "--out", tmp_path / "o", *flag)
        assert exc.value.code == 2
    capsys.readouterr()
    for field, value in (("workers", 1), ("deterministic", True), ("renormalize_after_ccr", True)):
        payload = json.loads(cfg_file.read_text())
        payload[field] = value
        bad = tmp_path / f"{field}.json"
        bad.write_text(json.dumps(payload))
        assert _run("simulate", "--config", bad, "--out", tmp_path / "o") == 2
        assert field in json.loads(capsys.readouterr().err.strip())["message"]


def test_run_calls_each_stage_through_the_pipeline_module(cfg_file, tmp_path, monkeypatch, capsys):
    # The benchmark times set-up by replacing pipeline.stage_simulate and
    # attributes spans by the names pipeline.stage_<stage>, so `run` must look
    # every stage up on the module when it calls it.
    stages = ("simulate", "train_cid", "extract", "trackletize", "train_tsd", "fit_ccr", "evaluate")
    called = []
    for name in stages:
        def recording(*args, _name=name, _stage=getattr(pl, "stage_" + name), **kwargs):
            called.append(_name)
            return _stage(*args, **kwargs)

        monkeypatch.setattr(pl, "stage_" + name, recording)
    assert _run("run", "--config", cfg_file, "--out", tmp_path / "exp") == 0
    capsys.readouterr()
    assert called == list(stages)


def test_argparse_rejects_unknown_command(capsys):
    with pytest.raises(SystemExit):
        cli.main(["transmogrify", "--out", "x"])
    capsys.readouterr()


def test_evaluate_without_ccr(cfg_file, tmp_path, capsys):
    out = tmp_path / "exp"
    for command in ("simulate", "train-cid", "extract", "trackletize", "train-tsd"):
        assert _run(command, "--config", cfg_file, "--out", out) == 0
    rc = _run("evaluate", "--config", cfg_file, "--out", out, "--checkpoint", "tsd", "--no-ccr")
    assert rc == 0
    assert "mAP" in capsys.readouterr().out
    manifest = json.loads((out / "eval" / "manifest.json").read_text())
    assert manifest["extra"]["use_ccr"] is False


def _name_unknown_query(path):
    path.write_text(json.dumps({"det_id": 987654321}) + "\n")


def _name_training_window_query(path):
    # det_id 0 is camera 0's first frame, a training detection
    path.write_text(json.dumps({"det_id": 0}) + "\n")


def _name_one_past_the_table(path):
    n_detections = len((path.parent / "detections.jsonl").read_text().splitlines())
    path.write_text(path.read_text() + json.dumps({"det_id": n_detections}) + "\n")


def _set_first_segment_member(path, det_id):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[0]["det_ids"][0] = det_id
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _name_unknown_segment_member(path):
    _set_first_segment_member(path, 987654321)


def _name_evaluation_window_segment_member(path):
    query_ids = path.parent.parent / "sim" / "query_ids.jsonl"
    _set_first_segment_member(path, json.loads(query_ids.read_text().splitlines()[0])["det_id"])


def _cut_in_half(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _cut_first_record(path):
    text = path.read_text()
    path.write_text(text[: text.index("\n") // 2])


def _drop_key(key):
    def corrupt(path):
        meta = json.loads(path.read_text())
        del meta[key]
        path.write_text(json.dumps(meta))

    return corrupt


_CHAIN = ("simulate", "train-cid", "extract", "trackletize", "train-tsd", "fit-ccr", "evaluate")


@pytest.mark.parametrize(
    "target, corrupt, command, named",
    [
        ("sim/query_ids.jsonl", _name_unknown_query, "evaluate", "987654321"),
        ("sim/query_ids.jsonl", _name_training_window_query, "evaluate", "det_id 0, which is not in the evaluation"),
        ("sim/gallery_ids.jsonl", _name_one_past_the_table, "evaluate", "gallery_ids.jsonl names det_id"),
        ("segments/segments.jsonl", _name_unknown_segment_member, "train-tsd", "987654321"),
        ("segments/segments.jsonl", _name_evaluation_window_segment_member, "train-tsd", "not in the training table"),
        ("cid/checkpoint.rctr", _cut_in_half, "extract", "checkpoint.rctr"),
        ("segments/segments.jsonl", _cut_first_record, "train-tsd", "segments.jsonl"),
        ("cid/checkpoint.json", _cut_in_half, "extract", "checkpoint.json"),
        ("ccr/projector.json", _cut_in_half, "evaluate", "projector.json"),
        ("config.json", _cut_in_half, "train-cid", "config.json"),
        ("cid/checkpoint.json", _drop_key("key_momentum"), "extract", "lacks the keys ['key_momentum']"),
        ("ccr/projector.json", _drop_key("m"), "evaluate", "lacks the keys ['m']"),
    ],
    ids=[
        "unknown-query-id",
        "training-window-query-id",
        "past-the-table-gallery-id",
        "unknown-segment-id",
        "evaluation-window-segment-id",
        "truncated-checkpoint",
        "truncated-segments",
        "truncated-checkpoint-metadata",
        "truncated-projector-metadata",
        "truncated-config",
        "checkpoint-without-key-momentum",
        "projector-without-m",
    ],
)
def test_corrupt_stage_input_exits_3(cfg_file, tmp_path, capsys, target, corrupt, command, named):
    # A stage input that was damaged after its stage wrote it is a manifest
    # fault: exit 3 with a JSON record naming what is wrong, never a traceback.
    out = tmp_path / "exp"
    for step in _CHAIN[: _CHAIN.index(command)]:
        assert _run(step, "--config", cfg_file, "--out", out) == 0
    capsys.readouterr()
    corrupt(out / target)
    assert _run(command, "--config", cfg_file, "--out", out) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ManifestError"
    assert named in record["message"]
