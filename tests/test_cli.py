"""Command-line behavior: stage wiring, exit codes, and error records."""

import ast
import collections
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from camreid import cli
from camreid import contrastive as ctr
from camreid import pipeline as pl
from camreid import storage, synth


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


@pytest.mark.parametrize("name", ["absent.json", "a-directory"], ids=["missing", "a-directory"])
def test_missing_config_exits_3(tmp_path, capsys, name):
    (tmp_path / "a-directory").mkdir()
    rc = _run("simulate", "--config", tmp_path / name, "--out", tmp_path / "o")
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ManifestError"


def test_unparsable_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for content in (b"{nope", b"\xff\xfe\x00{", b"\x80{}"):  # cut JSON, and bytes that hold no JSON text
        bad.write_bytes(content)
        rc = _run("simulate", "--config", bad, "--out", tmp_path / "o")
        assert rc == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "InvalidInputError"


@pytest.mark.parametrize(
    "edit, flags",
    [
        pytest.param(lambda p: {**p, "detector": "yolo"}, {}, id="unknown-field"),
        pytest.param(lambda p: [p], {}, id="a-list"),
        pytest.param(lambda p: {**p, "stream": {"nope": 1}}, {}, id="unknown-stream-field"),
        pytest.param(lambda p: {**p, "stream": 3}, {}, id="stream-not-an-object"),
        pytest.param(lambda p: {**p, "encoder_dims": 5}, {}, id="int-encoder-dims"),
        pytest.param(lambda p: {**p, "encoder_dims": [24.0, 32, 16]}, {}, id="float-encoder-dims"),
        pytest.param(lambda p: {**p, "seed": "x"}, {}, id="text-seed"),
        pytest.param(lambda p: {**p, "contrastive": {**p["contrastive"], "batch_size": "64"}}, {}, id="text-batch-size"),
        pytest.param(lambda p: {**p, "min_affinity": "high"}, {}, id="text-min-affinity"),
        pytest.param(lambda p: {**p, "n_cameras": 2.5}, {}, id="fractional-n-cameras"),
        pytest.param(lambda p: {**p, "query_frac": True}, {}, id="bool-query-frac"),
        pytest.param(lambda p: {**p, "cross_camera_filter": 1}, {}, id="int-cross-camera-filter"),
        pytest.param(
            lambda p: {**p, "contrastive": {**p["contrastive"], "temperature": float("nan")}}, {}, id="nan-temperature"
        ),
        pytest.param(
            lambda p: {**p, "stream": {**p["stream"], "entry_rate": float("inf")}}, {}, id="infinite-entry-rate"
        ),
        pytest.param(lambda p: {**p, "encoder_dims": [24, 0, 16]}, {}, id="zero-width"),
        pytest.param(lambda p: {**p, "n_cameras": 20, "encoder_dims": [24, 32, 8]}, {}, id="more-cameras-than-widths"),
        pytest.param(lambda p: {**p, "stream": {**p["stream"], "fps": 2.0}}, {}, id="removed-fps"),
        pytest.param(lambda p: p, {"--seed": -1}, id="negative-seed"),
        pytest.param(lambda p: p, {"--out": "bad.json"}, id="out-is-a-file"),
    ],
)
def test_unknown_config_field_exits_2(cfg_file, tmp_path, monkeypatch, capsys, edit, flags):
    # A config or flag the program cannot run with exits 2 with a JSON
    # record, never a traceback, and writes nothing.
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text(json.dumps(edit(json.loads(cfg_file.read_text()))))
    args = {"--config": "bad.json", "--out": "o", **flags}
    rc = _run("simulate", *(a for flag in args.items() for a in flag))
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "InvalidInputError"
    assert not Path("o").exists()


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


@pytest.mark.parametrize(
    "axis, values",
    [
        pytest.param("min_len", "[1", id="[1"),
        pytest.param("min_len", "5", id="5"),
        pytest.param("min_len", "[]", id="[]"),
        pytest.param("min_len", '["a"]', id="min_len-text"),
        pytest.param("min_len", "[null]", id="min_len-null"),
        pytest.param("min_len", "[1.5]", id="min_len-fraction"),
        pytest.param("min_len", "[2, 0]", id="min_len-zero"),
        pytest.param("min_len", "[true]", id="min_len-bool"),
        pytest.param("data_fraction", '["a"]', id="data_fraction-text"),
        pytest.param("data_fraction", "[null]", id="data_fraction-null"),
        pytest.param("data_fraction", "[0]", id="data_fraction-zero"),
        pytest.param("data_fraction", "[0.5, 1.5]", id="data_fraction-above-one"),
        pytest.param("data_fraction", "[true]", id="data_fraction-bool"),
        pytest.param("model_size", "[5]", id="model_size-int"),
        pytest.param("model_size", "[[24.7, 32, 16]]", id="model_size-fractional-width"),
        pytest.param("model_size", "[[24, true, 16]]", id="model_size-bool-width"),
        pytest.param("model_size", '["24x32x16"]', id="model_size-text"),
    ],
)
def test_ablate_rejects_bad_values(cfg_file, tmp_path, monkeypatch, capsys, axis, values):
    # Malformed JSON, a non-list, an empty list and an item the axis cannot
    # take are bad input, never the axis defaults, refused before any arm runs.
    def no_simulation(*args, **kwargs):
        pytest.fail("an arm ran before every value was checked")

    monkeypatch.setattr(pl, "stage_simulate", no_simulation)
    rc = _run("ablate", "--config", cfg_file, "--out", tmp_path / "o", "--axis", axis, "--values", values)
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "InvalidInputError"
    assert not (tmp_path / "o" / "ablation").exists()


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
    def no_simulation(*args, **kwargs):
        pytest.fail("the benchmark was simulated before every arm's dims were checked")

    monkeypatch.setattr(pl, "stage_simulate", no_simulation)
    rc = _run("ablate", "--config", cfg_file, "--out", tmp_path / "o", "--axis", "model_size")
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "InvalidInputError"
    assert "64" in record["message"] and "24" in record["message"]
    # An arm that is not a list of widths is bad input too, as is one whose
    # embedding is narrower than the scene's 3 cameras.
    rc = _run("ablate", "--config", cfg_file, "--out", tmp_path / "o", "--axis", "model_size", "--values", "[5]")
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "InvalidInputError"
    values = "[[24, 32, 16], [24, 32, 2]]"
    rc = _run("ablate", "--config", cfg_file, "--out", tmp_path / "o", "--axis", "model_size", "--values", values)
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "InvalidInputError"
    assert "n_cameras 3" in record["message"]


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


def _bench_stages():
    """The STAGES tuple of the benchmark's bench/spans.py, read without running the file."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "spans.py").read_text())
    assigns = [node for node in tree.body if isinstance(node, ast.Assign)]
    return next(ast.literal_eval(a.value) for a in assigns if [ast.unparse(t) for t in a.targets] == ["STAGES"])


def test_run_calls_each_stage_through_the_pipeline_module(cfg_file, tmp_path, monkeypatch, capsys):
    # The benchmark times set-up by replacing pipeline.stage_simulate and
    # wraps the plain functions pipeline.stage_<stage> in spans it names its
    # stage metrics after, so each must be a function under the name the
    # benchmark lists, and every command must look its stage up on the module
    # when it runs.
    stages = [name.replace("-", "_") for name in pl.STAGES]
    assert list(_bench_stages()) == stages
    assert all(inspect.isfunction(getattr(pl, "stage_" + name)) for name in [*stages, "run", "ablate"])
    called = []
    for name in stages:
        def recording(*args, _name=name, _stage=getattr(pl, "stage_" + name), **kwargs):
            called.append(_name)
            return _stage(*args, **kwargs)

        monkeypatch.setattr(pl, "stage_" + name, recording)
    out = tmp_path / "exp"
    for command, name in zip(pl.STAGES, stages):
        assert _run(command, "--config", cfg_file, "--out", out) == 0
        assert called == [name]
        called.clear()
    assert _run("run", "--config", cfg_file, "--out", out) == 0
    capsys.readouterr()
    assert called == stages


def test_stage_directories_hold_exactly_their_rows_files(cfg_file, tmp_path, capsys):
    # pl.STAGES names every file a stage writes: after `run` and `ablate`
    # each stage directory, in the output root and in each arm, holds its
    # row's files and a manifest that lists exactly those, and the output
    # root, the axis directory and each arm hold nothing else.
    out = tmp_path / "exp"
    assert _run("run", "--config", cfg_file, "--out", out) == 0
    for axis, values in (("min_len", "[2]"), ("model_size", "[[24, 16, 8]]"), ("data_fraction", "[0.5]")):
        assert _run("ablate", "--config", cfg_file, "--out", out, "--axis", axis, "--values", values) == 0
    capsys.readouterr()
    rows = {out / row.dir: row.files for row in pl.STAGES.values()}
    assert sorted(out.iterdir()) == sorted([out / "config.json", out / pl.ABLATE.dir, *rows])
    axes = {"min_len": "2", "model_size": "24x16x8", "data_fraction": "0.5"}
    assert sorted((out / pl.ABLATE.dir).iterdir()) == sorted(out / pl.ABLATE.dir / axis for axis in axes)
    for axis, label in axes.items():
        axis_dir, arm = out / pl.ABLATE.dir / axis, out / pl.ABLATE.dir / axis / label
        files = [*pl.ABLATE.files.values(), "manifest.json"]
        assert sorted(axis_dir.iterdir()) == sorted([arm, *(axis_dir / f for f in files)])
        rows[axis_dir] = pl.ABLATE.files
        # a min_len arm is scored without the camera reduction, so it fits none
        stages = [row for name, row in pl.STAGES.items() if not (axis == "min_len" and name == "fit-ccr")]
        assert sorted(arm.iterdir()) == sorted(arm / row.dir for row in stages)
        rows.update({arm / row.dir: row.files for row in stages})
    for stage_dir, files in rows.items():
        assert sorted(p.name for p in stage_dir.iterdir() if p.is_file()) == sorted([*files.values(), "manifest.json"])
        assert sorted(storage.read_manifest(stage_dir)["outputs"]) == sorted(files.values())


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


def test_evaluate_cid_with_ccr_exits_2(cfg_file, tmp_path, capsys):
    # The camera reduction is fit on the tsd encoder's embeddings, so it
    # scores no model on the cid one: refused before anything is written.
    out = tmp_path / "exp"
    assert _run("evaluate", "--config", cfg_file, "--out", out, "--checkpoint", "cid") == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "InvalidInputError" and "--no-ccr" in record["message"]
    assert not out.exists()


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


def _replace_first_segment(replace):
    def corrupt(path):
        lines = path.read_text().splitlines()
        lines[0] = json.dumps(replace(json.loads(lines[0])))
        path.write_text("".join(line + "\n" for line in lines))

    return corrupt


def _without_det_ids(record):
    return {k: v for k, v in record.items() if k != "det_ids"}


def _as_a_list(record):
    return record["det_ids"]


def _text_det_ids(record):
    return {**record, "det_ids": "abc"}


def _drop_tensor(name):
    def corrupt(path):
        tensors = storage.read_tensors(path)
        del tensors[name]
        storage.write_tensors(path, tensors)

    return corrupt


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
        ("embed/embeddings.rctr", _drop_tensor("det_ids"), "trackletize", "lacks the tensors ['det_ids']"),
        ("cid/checkpoint.rctr", _drop_tensor("query.w1"), "extract", "lacks the tensors ['query.w1']"),
        ("segments/segments.jsonl", _replace_first_segment(_without_det_ids), "train-tsd", "record 1 is not an object"),
        ("segments/segments.jsonl", _replace_first_segment(_as_a_list), "train-tsd", "record 1 is not an object"),
        ("segments/segments.jsonl", _replace_first_segment(_text_det_ids), "train-tsd", "record 1 is not an object"),
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
        "embeddings-without-det-ids",
        "checkpoint-without-a-weight",
        "segment-without-det-ids",
        "segment-that-is-a-list",
        "segment-with-text-det-ids",
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


# Runs `camreid` with its arguments after the first, which names where the process kills itself:
# `stage_<name>` on entry to that stage, `stage_<name>:<n>` on the n-th entry to it, or a file name
# inside that file's write, once the temp file is written and before it replaces the target.
_KILLED_RUN = """
import contextlib, os, signal, sys
from camreid import cli, storage
from camreid import pipeline as pl

def kill(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)

where, _, nth = sys.argv[1].partition(":")
if where.startswith("stage_"):
    stage, entries = getattr(pl, where), []

    def entering(*args, **kwargs):
        entries.append(where)
        if len(entries) == int(nth or 1):
            kill()
        return stage(*args, **kwargs)

    setattr(pl, where, entering)
else:
    replacing = storage._replacing

    @contextlib.contextmanager
    def killing(path, mode):
        with replacing(path, mode) as fh:
            yield fh
            if path.name == where:
                fh.flush()
                kill()

    storage._replacing = killing
sys.exit(cli.main(sys.argv[2:]))
"""


def _artifacts(root):
    """Every file under root but the manifests and training curves, whose times vary, with its bytes."""
    files = (p for p in sorted(root.rglob("*")) if p.is_file())
    return {p.relative_to(root): p.read_bytes() for p in files if p.name not in ("manifest.json", "curves.jsonl")}


@pytest.fixture(scope="module")
def uninterrupted(cfg_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("uninterrupted")
    assert _run("run", "--config", cfg_file, "--out", out) == 0
    return _artifacts(out)


def _killed(where, *args):
    """The exit status of `camreid` run with ``args`` in a child that kills itself at ``where``."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, "-c", _KILLED_RUN, where, *map(str, args)]
    return subprocess.run(argv, env=env, capture_output=True).returncode


@pytest.mark.parametrize(
    "where, left_behind",
    [pytest.param("stage_" + name.replace("-", "_"), None, id=f"entering-{name}") for name in pl.STAGES]
    + [pytest.param("segments.jsonl", "segments/.segments.jsonl.*.tmp", id="writing-segments")]
    + [pytest.param("config.json", ".config.json.*.tmp", id="writing-config")],
)
def test_killed_run_is_finished_by_a_rerun(cfg_file, tmp_path, capsys, uninterrupted, where, left_behind):
    # A run killed at a stage boundary, or inside a write, is finished by a
    # plain rerun: the same bytes as an uninterrupted run, and no temp file.
    out = tmp_path / "exp"
    assert _killed(where, "run", "--config", cfg_file, "--out", out) == -9
    if left_behind:
        assert len(list(out.glob(left_behind))) == 1
    assert _run("run", "--config", cfg_file, "--out", out) == 0
    capsys.readouterr()
    assert _artifacts(out) == uninterrupted
    assert len(list(out.rglob("manifest.json"))) == len(pl.STAGES)
    assert not list(out.rglob("*.tmp"))


def test_killed_ablation_is_finished_by_a_rerun(cfg_file, tmp_path, capsys):
    # An ablation killed on entering its third arm is finished by a plain
    # rerun, which runs no stage of the first two arms again and writes the
    # rows of an uninterrupted ablation byte for byte.
    argv = ["ablate", "--config", cfg_file, "--axis", "min_len", "--values", "[1, 2, 3]"]
    assert _run(*argv, "--out", tmp_path / "whole") == 0
    out = tmp_path / "exp"
    assert _killed("stage_trackletize:3", *argv, "--out", out) == -9
    arms = out / pl.ABLATE.dir / "min_len"
    assert not (arms / "manifest.json").exists()

    def finished():
        """Every file of the first two arms, with its bytes, inode and modification time."""
        files = [p for arm in ("1", "2") for p in sorted((arms / arm).rglob("*")) if p.is_file()]
        return {p: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in files}

    before = finished()
    assert len([p for p in before if p.name == "manifest.json"]) == 2 * 6  # sim, cid, embed, segments, tsd, eval
    assert _run(*argv, "--out", out) == 0
    capsys.readouterr()
    assert finished() == before
    for name in pl.ABLATE.files.values():
        assert (arms / name).read_bytes() == (tmp_path / "whole" / pl.ABLATE.dir / "min_len" / name).read_bytes()


def _count_training(monkeypatch):
    """How often pl.train_cid and pl.train_tsd are called from now on, by name."""
    calls = collections.Counter()
    for name in ("train_cid", "train_tsd"):
        def counting(*args, _name=name, _train=getattr(pl, name)):
            calls[_name] += 1
            return _train(*args)

        monkeypatch.setattr(pl, name, counting)
    return calls


def test_ablate_steps_after_run_reuses_it(cfg_file, tmp_path, monkeypatch, capsys):
    # The steps axis's last arm is `run` itself: after a run into the same
    # directory, ablate rewrites none of its files, never trains CID and
    # trains TSD once, for the arm that starts from an untrained encoder.
    out = tmp_path / "exp"
    assert _run("run", "--config", cfg_file, "--out", out) == 0
    before = _artifacts(out)
    stage_files = {p: (p.stat().st_ino, p.stat().st_mtime_ns) for p in out.glob("*/*")}
    calls = _count_training(monkeypatch)
    capsys.readouterr()
    assert _run("ablate", "--config", cfg_file, "--out", out, "--axis", "steps") == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert calls == {"train_tsd": 1}
    assert {p: (p.stat().st_ino, p.stat().st_mtime_ns) for p in stage_files} == stage_files
    report = json.loads(before[Path("eval") / "report.json"])
    assert rows[-1] == {"steps": "cid+tsd+ccr", "rank1": float(report["cmc"]["1"]), "mean_ap": float(report["mean_ap"])}


@pytest.mark.parametrize(
    "axis, values, equal_arm, trained",
    [
        ("min_len", "[1, 2, 3]", "2", {"train_tsd": 2}),
        ("model_size", "[[24, 16, 8], [24, 32, 16]]", "24x32x16", {"train_cid": 1, "train_tsd": 1}),
    ],
    ids=["min_len", "model_size"],
)
def test_ablate_after_run_trains_only_the_arms_that_differ(
    cfg_file, tmp_path, monkeypatch, capsys, axis, values, equal_arm, trained
):
    # An arm whose config is the root's links the run's stages and trains
    # nothing; the rows are those of the same ablation into a fresh directory.
    argv = ("ablate", "--config", cfg_file, "--axis", axis, "--values", values)
    assert _run(*argv, "--out", tmp_path / "fresh") == 0
    out = tmp_path / "exp"
    assert _run("run", "--config", cfg_file, "--out", out) == 0
    calls = _count_training(monkeypatch)
    assert _run(*argv, "--out", out) == 0
    capsys.readouterr()
    assert calls == trained
    for name, path in pl.stage_paths(out, "ablate", axis).items():
        assert path.read_bytes() == pl.stage_paths(tmp_path / "fresh", "ablate", axis)[name].read_bytes()
    checkpoint = Path("tsd") / "checkpoint.rctr"
    arm = out / pl.ABLATE.dir / axis / equal_arm
    assert (arm / checkpoint).stat().st_ino == (out / checkpoint).stat().st_ino


def test_killed_steps_ablation_is_finished_by_a_rerun(cfg_file, ablated, tmp_path, capsys):
    # The steps axis killed on entering the tsd arm's train-tsd (the run's is
    # the first) is finished by a plain rerun, which runs no finished stage
    # again and writes the arms and rows of an uninterrupted ablation.
    argv = ["ablate", "--config", cfg_file, "--axis", "steps", "--out", tmp_path]
    assert _killed("stage_train_tsd:2", *argv) == -9
    steps = tmp_path / pl.ABLATE.dir / "steps"
    assert not (steps / "manifest.json").exists()

    def finished():
        """Every stage manifest, with its inode and modification time."""
        return {p: (p.stat().st_ino, p.stat().st_mtime_ns) for p in sorted(tmp_path.rglob("manifest.json"))}

    before = finished()
    assert len(before) == 7 + 3 + 4  # the run; the cid arm's sim, cid, eval; the tsd arm's sim, cid, embed, segments
    assert _run(*argv) == 0
    capsys.readouterr()
    after = finished()
    assert {p: after.get(p) for p in before} == before
    assert _artifacts(steps) == _artifacts(ablated / pl.ABLATE.dir / "steps")


@pytest.fixture(scope="module")
def ablated(cfg_file, tmp_path_factory):
    """One output root that holds all four ablation axes of the miniature config."""
    out = tmp_path_factory.mktemp("ablated")
    grids = {"steps": [], "min_len": ["--values", "[1, 3]"], "model_size": ["--values", "[[24, 16, 8]]"]}
    grids["data_fraction"] = ["--values", "[0.5, 1.0]"]
    for axis, values in grids.items():
        assert _run("ablate", "--config", cfg_file, "--out", out, "--axis", axis, *values) == 0
    return out


def test_ablation_arms_equal_fresh_stage_runs(cfg_file, ablated, tmp_path, capsys):
    # An arm writes what a fresh directory of the arm's config writes through
    # the same commands, every file but the manifests and training curves.
    def fresh(name, edit, *commands):
        payload = json.loads(cfg_file.read_text())
        edit(payload)
        config, out = tmp_path / f"{name}.json", tmp_path / name
        config.write_text(json.dumps(payload))
        for command in commands:
            assert _run(*command.split(), "--config", config, "--out", out) == 0
        files = _artifacts(out)
        del files[Path("config.json")]
        return files

    arms = ablated / pl.ABLATE.dir
    chain = ("simulate", "train-cid", "extract", "trackletize", "train-tsd", "evaluate --no-ccr")
    assert _artifacts(arms / "min_len" / "3") == fresh("min_len", lambda p: p.update(min_len=3), *chain)
    widths = fresh("model_size", lambda p: p.update(encoder_dims=[24, 16, 8]), "run")
    assert _artifacts(arms / "model_size" / "24x16x8") == widths
    small = fresh("data_fraction", lambda p: p["contrastive"].update(batch_size=64, bank_size=1024), "run")
    assert _artifacts(arms / "data_fraction" / "1.0") == small
    cid = fresh("cid", lambda p: None, "simulate", "train-cid", "evaluate --checkpoint cid --no-ccr")
    assert _artifacts(arms / "steps" / "cid") == cid
    assert _artifacts(arms / "steps" / "cid+tsd") == fresh("cid+tsd", lambda p: None, *chain)
    # The steps rows of the three chained arms are the scores that evaluate
    # reports on a run of the same config.
    rows = {row["steps"]: row for row in storage.read_records(arms / "steps" / "rows.jsonl")}
    out = tmp_path / "steps"
    assert _run("run", "--config", cfg_file, "--out", out) == 0
    evaluations = {"cid+tsd+ccr": "", "cid+tsd": "--no-ccr --force", "cid": "--checkpoint cid --no-ccr --force"}
    for arm, flags in evaluations.items():
        assert _run("evaluate", "--config", cfg_file, "--out", out, *flags.split()) == 0
        report = json.loads((out / "eval" / "report.json").read_text())
        assert rows[arm] == {"steps": arm, "rank1": float(report["cmc"]["1"]), "mean_ap": float(report["mean_ap"])}
    capsys.readouterr()
