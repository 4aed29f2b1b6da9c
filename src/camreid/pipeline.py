"""End-to-end pipeline: simulate, train, mine, retrain, reduce, evaluate.

The chain runs as file-backed stages, one stage_* function each: it names the
files of earlier stages it reads and a body that calls the in-memory steps
here and writes its own files.  ``STAGES`` is the one place that names each
stage's directory and files, in the order of the data flow:

    simulate -> train-cid -> extract -> trackletize -> train-tsd -> fit-ccr -> evaluate

One private helper, ``_run_stage``, digests the inputs, skips the stage when
its manifest already records them, refuses to replace another run's results
without ``force``, runs the body and writes the manifest, with the time,
faults and peak memory the stage took.  ``stage_ablate`` sweeps one ablation
axis into ``ablation/<axis>/`` the same way, and each arm is a run of the
stages: those it shares with `run`, and its own too when its config is the
root's, run in the output root, where a `run` leaves them, and are linked
into ``ablation/<axis>/<arm>/``, where the rest run.  The detection table is
parsed at most once per process for each pair of digests of its two files,
and held once, split into the training and evaluation windows.

Ground-truth identity labels exist only in the simulator's output and the
evaluation split; every table handed to a training stage has them stripped.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ccr as ccr_mod
from . import contrastive as ctr
from . import encoder as enc
from . import evaluation as ev
from . import storage
from . import synth
from . import tracklet as trk
from .errors import InvalidInputError, ManifestError

log = logging.getLogger(__name__)

# Seed salts so each stage draws from an independent stream.
_SALT_CID_INIT = 21
_SALT_CID_RNG = 22
_SALT_TSD_RNG = 23
_SALT_RANDOM_INIT = 24
_SALT_CCR = 25

STEP_ARMS = ("cid", "tsd", "cid+tsd", "cid+tsd+ccr")
DATA_FRACTIONS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)
MIN_LEN_VALUES = (1, 3, 5, 9)
MODEL_SIZES = ((64, 128, 64), (64, 256, 128), (64, 512, 256, 128))

SCHEMA_VERSION = 1


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint32)[0])


@dataclass(frozen=True)
class PipelineConfig:
    stream: synth.StreamConfig = field(default_factory=synth.StreamConfig)
    contrastive: ctr.ContrastiveConfig = field(default_factory=ctr.ContrastiveConfig)
    n_identities: int = 200
    n_cameras: int = 6
    encoder_dims: tuple[int, ...] = (64, 256, 128)
    min_len: int = 5
    min_affinity: float | None = 0.55
    ccr_k: int | None = None
    query_frac: float = 0.33
    eval_window_frac: float = 0.15
    cross_camera_filter: bool = True
    seed: int = 0
    precision: str = "f32"

    def __post_init__(self) -> None:
        if self.n_identities < 2 or self.n_cameras < 2:
            raise InvalidInputError("need >= 2 identities and >= 2 cameras")
        if len(self.encoder_dims) < 2 or self.encoder_dims[0] != self.stream.d_obs or min(self.encoder_dims) < 1:
            raise InvalidInputError(
                f"encoder_dims {list(self.encoder_dims)} must start at d_obs {self.stream.d_obs} "
                "and have >= 2 layers of width >= 1"
            )
        if self.n_cameras > self.encoder_dims[-1]:  # the camera classifier needs m <= n
            raise InvalidInputError(f"n_cameras {self.n_cameras} exceeds the embedding width {self.encoder_dims[-1]}")
        if self.min_len < 1:
            raise InvalidInputError("min_len must be >= 1")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")
        if self.min_affinity is not None and not -1.0 <= self.min_affinity <= 1.0:
            raise InvalidInputError("min_affinity must lie in [-1, 1] or be None")
        if self.ccr_k is not None and not 1 <= self.ccr_k <= self.n_cameras:
            raise InvalidInputError("ccr_k must lie in [1, n_cameras]")
        if not 0.0 < self.query_frac < 1.0 or not 0.0 < self.eval_window_frac < 1.0:
            raise InvalidInputError("query_frac and eval_window_frac must lie in (0, 1)")
        if self.precision not in ("f32", "f64"):
            raise InvalidInputError("precision must be 'f32' or 'f64'")

    @property
    def dtype(self):
        return np.float32 if self.precision == "f32" else np.float64

    def to_payload(self) -> dict:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "stream": dataclasses.asdict(self.stream),
            "contrastive": dataclasses.asdict(self.contrastive),
        }
        for f in dataclasses.fields(self):
            if f.name in ("stream", "contrastive"):
                continue
            value = getattr(self, f.name)
            payload[f.name] = list(value) if isinstance(value, tuple) else value
        return payload

    @staticmethod
    def from_payload(payload: dict) -> "PipelineConfig":
        version = payload.get("schema_version") if isinstance(payload, dict) else None
        if version != SCHEMA_VERSION:
            raise InvalidInputError(f"a config must be a JSON object with schema_version {SCHEMA_VERSION}")
        return _checked(PipelineConfig, {k: v for k, v in payload.items() if k != "schema_version"}, "config")

    def fingerprint(self) -> str:
        return storage.fingerprint_payload(self.to_payload())


# Whether a JSON value fits a config field of each declared type; a bool is not a number.
_FITS = {
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) in (int, float) and abs(v) < float("inf"),  # not NaN, not infinite
    "bool": lambda v: type(v) is bool,
    "str": lambda v: type(v) is str,
    "tuple[int, ...]": lambda v: type(v) is list and all(type(d) is int for d in v),
}


def _checked(cls, payload, where: str):
    """``cls`` from ``payload``, a JSON object of its fields with values of their types; nested configs alike."""
    if not isinstance(payload, dict):
        raise InvalidInputError(f"{where} must be a JSON object, got {payload!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(payload) - set(fields)
    if unknown:
        raise InvalidInputError(f"unknown fields in {where}: {sorted(unknown)}")
    kwargs = {}
    for name, value in payload.items():
        f = fields[name]
        kind = f.type.removesuffix(" | None")  # a field that may be null declares its type "T | None"
        if f.default_factory is not dataclasses.MISSING:  # a nested config
            value = _checked(f.default_factory, value, f"{where}.{name}")
        elif not (_FITS[kind](value) or value is None and kind != f.type):
            raise InvalidInputError(f"{where}.{name} must be {f.type}, got {value!r}")
        kwargs[name] = tuple(value) if kind.startswith("tuple") else value
    return cls(**kwargs)


def _simulate(config: PipelineConfig) -> tuple[synth.DetectionTable, synth.DetectionTable, synth.DetectionTable]:
    """Generate world and stream in the working dtype; the full table, query and gallery."""
    world = synth.generate_world(config.stream, config.n_identities, config.n_cameras, config.seed)
    full = synth.simulate_stream(world, config.dtype)
    return (full, *synth.split_eval(world, full, config.query_frac, config.eval_window_frac))


def embed_all(params: enc.EncoderParams, observations: np.ndarray, batch_size: int = 2048) -> np.ndarray:
    """Unit embeddings of every row, by batches that share one forward cache."""
    obs = np.asarray(observations).astype(params.dtype, copy=False)
    result = np.empty((obs.shape[0], params.dims[-1]), dtype=params.dtype)
    cache = enc.ForwardCache.for_rows(params, min(batch_size, obs.shape[0]))
    for s in range(0, obs.shape[0], batch_size):
        enc.forward(params, obs[s : s + batch_size], cache, out=result[s : s + batch_size])
    return result


def _init_pair(config: PipelineConfig, salt: int) -> enc.EncoderPair:
    return enc.init_encoder(
        config.encoder_dims,
        seed=derive_seed(config.seed, salt),
        dtype=config.dtype,
        momentum=config.contrastive.key_momentum,
    )


def _train(config: PipelineConfig, pair: enc.EncoderPair, salt: int, epochs: int, epoch_fn, *data):
    """Train ``pair`` for ``epochs`` epochs of ``epoch_fn``; the pair and each epoch's stats.

    Each epoch is ``epoch_fn(pair, bank, *data, config, optim, rng, epoch,
    workspace)``, with ``data`` ending in the observations.  The epochs share
    a fresh bank, optimizer and step workspace and the generator of ``salt``.
    """
    cc = config.contrastive
    bank = ctr.MemoryBank(cc.bank_size, config.encoder_dims[-1], dtype=config.dtype)
    optim = enc.OptimState.for_params(pair.query, cc.sgd_momentum, cc.weight_decay)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, salt])))
    workspace = ctr.StepWorkspace.for_epoch(pair, bank, cc.batch_size, data[-1].shape[1])
    return pair, [epoch_fn(pair, bank, *data, cc, optim, rng, epoch, workspace) for epoch in range(epochs)]


def train_cid(config: PipelineConfig, observations: np.ndarray) -> tuple[enc.EncoderPair, list[ctr.TrainStats]]:
    """Instance-discrimination stage from a fresh encoder and empty bank."""
    pair = _init_pair(config, _SALT_CID_INIT)
    return _train(config, pair, _SALT_CID_RNG, config.contrastive.epochs_cid, ctr.cid_epoch, observations)


def mine_segments(config: PipelineConfig, train: synth.DetectionTable, embeddings: np.ndarray) -> trk.SegmentTable:
    segments = trk.assemble_segments(train, embeddings, min_affinity=config.min_affinity)
    return trk.filter_segments(segments, config.min_len)


def train_tsd(
    config: PipelineConfig,
    init_pair: enc.EncoderPair,
    segments: trk.SegmentTable,
    train: synth.DetectionTable,
) -> tuple[enc.EncoderPair, list[ctr.TrainStats]]:
    """Segment-discrimination stage; starts from the given weights, fresh bank."""
    rows = _rows_of(train.det_id, segments.det_id, "the segment table", "the training table")
    pair = enc.EncoderPair(
        query=init_pair.query.copy(), key=init_pair.query.copy(), momentum=config.contrastive.key_momentum
    )
    epochs = config.contrastive.epochs_tsd
    return _train(config, pair, _SALT_TSD_RNG, epochs, ctr.tsd_epoch, rows, segments.length, train.observations)


def fit_ccr(
    config: PipelineConfig, params: enc.EncoderParams, train: synth.DetectionTable
) -> tuple[ccr_mod.CameraClassifier, ccr_mod.CcrProjector]:
    """Fit the camera head on frozen embeddings of the training detections.

    Only cameras that appear in the table get a classifier row (labels are
    remapped to a dense range first); a small time slice may not cover all
    of them.  The reduction can only suppress evidence for cameras it has
    seen, so k is capped at that count.
    """
    embeddings = embed_all(params, train.observations)
    present = np.unique(np.asarray(train.camera_id))
    dense_labels = np.searchsorted(present, np.asarray(train.camera_id))
    classifier = ccr_mod.fit_camera_classifier(
        embeddings,
        dense_labels,
        seed=derive_seed(config.seed, _SALT_CCR),
    )
    k = min(config.ccr_k or len(present), len(present))
    if config.ccr_k is not None and k != config.ccr_k:
        log.info("ccr_k capped at %d: only %d cameras present", k, len(present))
    projector = ccr_mod.build_projector(classifier.weight, k=k)
    return classifier, projector


def random_pair(config: PipelineConfig) -> enc.EncoderPair:
    """Untrained encoder used for the segment-only training arm."""
    return _init_pair(config, _SALT_RANDOM_INIT)


# ---------------------------------------------------------------------------
# File-backed stages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    help: str  # the command's help text
    dir: str  # under the output root
    files: dict[str, str]  # the name later stages digest and load each file by -> its file name


# Files that more than one stage writes or reads, under the names stages read them by.
_SIM = {"detections": "detections.jsonl", "observations": "observations.rctr"}  # the detection table
_IDS = {"query_ids": "query_ids.jsonl", "gallery_ids": "gallery_ids.jsonl"}
_WEIGHTS = {"checkpoint": "checkpoint.rctr", "checkpoint_meta": "checkpoint.json"}

# The stages of `run`, in run order, and the files each writes: its manifest lists exactly these.  Saved
# runs and the benchmark's checker read the files by path, and manifests record them under their names,
# so neither may change.
STAGES = {
    "simulate": Stage("generate the synthetic stream and evaluation split", "sim", {**_SIM, **_IDS}),
    "train-cid": Stage("instance-discrimination training stage", "cid", {**_WEIGHTS, "curves": "curves.jsonl"}),
    "extract": Stage("embed training detections with a trained checkpoint", "embed", {"embeddings": "embeddings.rctr"}),
    "trackletize": Stage("mine tracklet segments from extracted embeddings", "segments",
                         {"segments": "segments.jsonl", "stats": "stats.json"}),
    "train-tsd": Stage("segment-discrimination training stage", "tsd", {**_WEIGHTS, "curves": "curves.jsonl"}),
    "fit-ccr": Stage("fit the camera classifier and build the reducer", "ccr",
                     {"projector": "projector.rctr", "projector_meta": "projector.json"}),
    "evaluate": Stage("rank the evaluation split and report CMC / mAP", "eval",
                      {"report": "report.json", "text": "report.txt"}),
}
# `ablate` writes under ablation/<axis>/.
ABLATE = Stage("sweep one ablation axis", "ablation", {"rows": "rows.jsonl", "series": "rows.series"})


def stage_paths(root: Path, stage: str, axis: str = "") -> dict[str, Path]:
    """The files of ``stage`` under ``root``, by name; an ablation's lie under its ``axis``."""
    row = ABLATE if stage == "ablate" else STAGES[stage]
    return {name: root / row.dir / axis / file for name, file in row.files.items()}


def _run_stage(root: Path, fingerprint: str, force: bool, stage: str, reads: dict, body,
               step_workers: int = 0, axis: str = "", reads_root: Path | None = None) -> bool:
    """Digest the files ``reads`` names, then skip ``stage``, refuse, or run ``body`` and record it.

    ``reads`` maps earlier stages to the names of their files that this one
    reads, the names their digests go under; they lie under ``reads_root`` if
    given, else ``root``.  Returns False when the stage's directory holds a
    manifest with these digests, this fingerprint and intact outputs.  A
    manifest from another run needs ``force``.  Otherwise the old manifest
    goes first, so a stage that dies before its new one is written is run
    again, never taken as done, and the temp files of a write it died in go
    too; then ``body(outputs, digests)`` writes the stage's files, given by
    name, and returns the manifest's extra fields.  The manifest also records
    what the stage used, from the digests to the body's return (see
    ``_resources``), and a training stage's ``step_workers``: the threads its
    steps ran on.
    """
    wall0, usage0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    outputs = stage_paths(root, stage, axis)
    stage_dir = next(iter(outputs.values())).parent
    src = reads_root or root
    digests = storage.validate_inputs({n: stage_paths(src, s)[n] for s, names in reads.items() for n in names})
    if storage.manifest_matches(stage_dir, digests, fingerprint):
        log.info("skipping %s (manifest hit)", stage_dir.relative_to(root))
        return False
    manifest = stage_dir / "manifest.json"
    if manifest.exists() and not force:
        raise ManifestError(f"{stage_dir} holds results from a different run; pass --force to overwrite")
    stage_dir.mkdir(parents=True, exist_ok=True)
    manifest.unlink(missing_ok=True)
    for tmp in stage_dir.glob(".*.tmp"):
        tmp.unlink()
    extra = body(outputs, digests)
    resources = _resources(wall0, usage0)
    if step_workers:
        resources["step_workers"] = step_workers
    storage.write_manifest(stage_dir, stage, digests, outputs.values(), fingerprint, extra=extra, resources=resources)
    return True


def _resources(wall0: float, usage0: resource.struct_rusage) -> dict:
    """Wall and CPU seconds and minor faults since ``wall0``/``usage0``, and the peak RSS so far.

    ``max_rss_mib`` is the process's high-water mark, so within one ``run``
    it covers every stage before this one too; a stage run alone in its own
    process reports its own peak.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "wall_s": round(time.perf_counter() - wall0, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime - usage0.ru_utime - usage0.ru_stime, 3),
        "minflt": usage.ru_minflt - usage0.ru_minflt,
        "max_rss_mib": round(usage.ru_maxrss / 1024, 1),
    }


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def write_config(root: Path, config: PipelineConfig, force: bool = False) -> None:
    root.mkdir(parents=True, exist_ok=True)
    path = root / "config.json"
    for tmp in root.glob(f".{path.name}.*.tmp"):  # left by a write that a kill cut short
        tmp.unlink()
    payload = config.to_payload()
    if path.exists():
        if storage.read_json(path) == payload:
            return
        if not force:
            raise ManifestError(f"{path} disagrees with the requested config; pass --force")
    storage.write_text(path, _json(payload))


def _write_sim(out: dict[str, Path], full, query, gallery) -> dict:
    """The detection table ``full`` and the det ids of the ``query`` and ``gallery`` tables, into simulate's files."""
    storage.write_int_records(out["detections"], {c: getattr(full, c) for c in full.INT_COLUMNS})
    storage.write_tensors(out["observations"], {"det_ids": full.det_id, "observations": full.observations})
    storage.write_int_records(out["query_ids"], {"det_id": query.det_id})
    storage.write_int_records(out["gallery_ids"], {"det_id": gallery.det_id})
    return {"n_detections": len(full)}


def stage_simulate(root: Path, config: PipelineConfig, force: bool = False) -> bool:
    def body(out, digests):
        return _write_sim(out, *_simulate(config))

    return _run_stage(root, config.fingerprint(), force, "simulate", {}, body)


def _read_table(root: Path) -> synth.DetectionTable:
    """The whole detection table that simulate wrote under ``root``, with gt."""
    paths = stage_paths(root, "simulate")
    columns = storage.read_int_records(paths["detections"], synth.DetectionTable.INT_COLUMNS)
    tens = storage.read_tensors(paths["observations"], ("det_ids", "observations"))
    if not np.array_equal(columns["det_id"], tens["det_ids"]):
        raise ManifestError(f"{paths['detections']} and {paths['observations']} disagree on det_ids")
    return synth.DetectionTable(observations=tens["observations"], **columns)


# The sim/ files of the last pair of digests seen, parsed once and split into the training window
# (gt stripped) and the evaluation window; the whole table is not kept.  Process-wide, so the stages
# of one `run` share one parse and one copy; keyed by file content and split point, it never serves
# a stale table, and its columns are read-only, so no caller can change what the next one gets.
_split_cache: dict[tuple, tuple[synth.DetectionTable, synth.DetectionTable]] = {}


def _load_split(root: Path, config: PipelineConfig, digests: dict[str, str] | None) -> tuple[synth.DetectionTable, ...]:
    """The training and evaluation windows of the detection table, cached.

    ``digests`` are those of the two files the table is read from (see
    ``_SIM``); they are taken here when the caller does not have them.
    """
    if digests is None:
        paths = stage_paths(root, "simulate")
        digests = storage.validate_inputs({name: paths[name] for name in _SIM})
    start = synth.eval_window_start(config.stream, config.eval_window_frac)
    key = (digests["detections"], digests["observations"], start)
    if key not in _split_cache:
        full = _read_table(root)
        split = (synth.training_table(config.stream, full, config.eval_window_frac), full.select(full.frame >= start))
        for table in split:
            for f in dataclasses.fields(table):
                getattr(table, f.name).flags.writeable = False
        _split_cache.clear()
        _split_cache[key] = split
    return _split_cache[key]


def _rows_of(det_id: np.ndarray, ids: np.ndarray, source: str, table: str) -> np.ndarray:
    """Rows of the increasing ``det_id`` column that hold ``ids``; every id must be there."""
    rows = np.searchsorted(det_id, ids)
    missing = rows == len(det_id)
    missing[~missing] = det_id[rows[~missing]] != ids[~missing]
    if missing.any():
        raise ManifestError(f"{source} names det_id {ids[missing][0]}, which is not in {table}")
    return rows


def load_train_table(
    root: Path, config: PipelineConfig, digests: dict[str, str] | None = None
) -> synth.DetectionTable:
    """Training-window detections with gt stripped, as the cached read-only arrays; the training stages' reader."""
    return _load_split(root, config, digests)[0].astype(config.dtype)


def load_eval_split(
    root: Path, config: PipelineConfig, digests: dict[str, str] | None = None
) -> tuple[synth.DetectionTable, synth.DetectionTable]:
    """Query and gallery, with gt, selected from the evaluation window by the simulated id lists."""
    window = _load_split(root, config, digests)[1]

    def select(path: Path) -> synth.DetectionTable:
        ids = storage.read_int_records(path, ["det_id"])["det_id"]
        return window.select(_rows_of(window.det_id, ids, str(path), "the evaluation window")).astype(config.dtype)

    paths = stage_paths(root, "simulate")
    return select(paths["query_ids"]), select(paths["gallery_ids"])


def save_checkpoint(
    out: dict[str, Path], pair: enc.EncoderPair, stats: list[ctr.TrainStats], config: PipelineConfig, stage: str
) -> None:
    """Weights, their metadata, and one training-curve record per epoch, into a training stage's files."""
    tensors = {}
    for side, params in (("query", pair.query), ("key", pair.key)):
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            tensors[f"{side}.w{i}"] = w
            tensors[f"{side}.b{i}"] = b
    storage.write_tensors(out["checkpoint"], tensors)
    meta = {
        "dims": list(pair.query.dims),
        "dtype": config.precision,
        "key_momentum": pair.momentum,
        "seed": config.seed,
        "stage": stage,
    }
    storage.write_text(out["checkpoint_meta"], _json(meta))
    storage.write_records(out["curves"], (dataclasses.asdict(s) for s in stats))


def load_checkpoint(root: Path, stage: str) -> enc.EncoderPair:
    """The encoder pair that the training stage ``stage`` saved under ``root``."""
    paths = stage_paths(root, stage)
    meta = storage.read_json(paths["checkpoint_meta"], ("dims", "key_momentum"))
    dims = tuple(meta["dims"])
    layers = range(len(dims) - 1)
    names = [f"{side}.{p}{i}" for side in ("query", "key") for i in layers for p in "wb"]
    tensors = storage.read_tensors(paths["checkpoint"], names)
    sides = {}
    for side in ("query", "key"):
        weights = [tensors[f"{side}.w{i}"] for i in layers]
        biases = [tensors[f"{side}.b{i}"] for i in layers]
        sides[side] = enc.EncoderParams(dims=dims, weights=weights, biases=biases)
    return enc.EncoderPair(query=sides["query"], key=sides["key"], momentum=meta["key_momentum"])


def _step_workers(config: PipelineConfig) -> int:
    cc = config.contrastive
    return ctr._step_workers(cc.batch_size, cc.bank_size, config.encoder_dims[-1])


def stage_train_cid(root: Path, config: PipelineConfig, force: bool = False) -> bool:
    def body(out, digests):
        obs = load_train_table(root, config, digests).observations
        pair, stats = train_cid(config, obs)
        save_checkpoint(out, pair, stats, config, "cid")
        # cid_epoch's batches; every one steps the optimizer but the first, which fills the fresh bank
        steps = max(config.contrastive.epochs_cid * (len(obs) // config.contrastive.batch_size) - 1, 0)
        return {"rows": len(obs), "steps": steps}

    return _run_stage(root, config.fingerprint(), force, "train-cid", {"simulate": _SIM}, body, _step_workers(config))


def stage_extract(root: Path, config: PipelineConfig, force: bool = False) -> bool:
    def body(out, digests):
        train = load_train_table(root, config, digests)
        emb = embed_all(load_checkpoint(root, "train-cid").query, train.observations)
        storage.write_tensors(out["embeddings"], {"det_ids": train.det_id, "embeddings": emb})
        return {"rows": len(emb)}

    return _run_stage(root, config.fingerprint(), force, "extract", {"simulate": _SIM, "train-cid": _WEIGHTS}, body)


def stage_trackletize(root: Path, config: PipelineConfig, force: bool = False) -> bool:
    def body(out, digests):
        train = load_train_table(root, config, digests)
        tens = storage.read_tensors(stage_paths(root, "extract")["embeddings"], ("det_ids", "embeddings"))
        if not np.array_equal(tens["det_ids"], train.det_id):
            raise ManifestError("embeddings do not align with the training detections")
        segments = mine_segments(config, train, tens["embeddings"])
        det_ids = np.split(segments.det_id, segments.start[1:])
        columns = (segments.segment_id, segments.camera_id, segments.first_frame)
        rows = zip(*(col.tolist() for col in columns), det_ids)
        records = ({"segment_id": s, "camera_id": c, "first_frame": f, "det_ids": d.tolist()} for s, c, f, d in rows)
        storage.write_records(out["segments"], records)
        stats = trk.segment_stats(segments)
        summary = {
            "n_segments": stats.n_segments,
            "length_hist": {str(k): v for k, v in stats.length_hist.items()},
            "per_camera": {str(k): v for k, v in stats.per_camera.items()},
            "min_len": config.min_len,
        }
        storage.write_text(out["stats"], _json(summary))
        return {"segments": len(segments)}

    reads = {"simulate": _SIM, "extract": ("embeddings",)}
    return _run_stage(root, config.fingerprint(), force, "trackletize", reads, body)


def load_segments(root: Path) -> trk.SegmentTable:
    """The segments that trackletize wrote; a record that is not a whole segment raises ManifestError."""
    path = stage_paths(root, "trackletize")["segments"]
    records = storage.read_records(path)
    columns = ("segment_id", "camera_id", "first_frame")
    for i, r in enumerate(records, 1):
        ids = r.get("det_ids") if isinstance(r, dict) else None
        values = [*ids, *(r.get(c) for c in columns)] if isinstance(ids, list) and ids else [None]
        if not all(type(v) is int and abs(v) < 2**63 for v in values):  # a missing key reads as None
            raise ManifestError(f"{path}: record {i} is not an object with integer {', '.join(columns)} and det_ids")
    return trk.SegmentTable(
        **{c: np.array([r[c] for r in records], dtype=np.int64) for c in columns},
        length=np.array([len(r["det_ids"]) for r in records], dtype=np.int64),
        det_id=np.array([d for r in records for d in r["det_ids"]], dtype=np.int64),
    )


def stage_train_tsd(root: Path, config: PipelineConfig, force: bool = False) -> bool:
    def body(out, digests):
        train = load_train_table(root, config, digests)
        segments = load_segments(root)
        pair, stats = train_tsd(config, load_checkpoint(root, "train-cid"), segments, train)
        save_checkpoint(out, pair, stats, config, "tsd")
        # tsd_epoch's batches, from the rows of segments it can draw a pair from; the first fills the bank
        rows = int(segments.length[segments.length >= 2].sum())
        steps = max(config.contrastive.epochs_tsd * max(rows // config.contrastive.batch_size, 1) - 1, 0)
        return {"rows": rows, "steps": steps}

    reads = {"simulate": _SIM, "trackletize": ("segments",), "train-cid": _WEIGHTS}
    return _run_stage(root, config.fingerprint(), force, "train-tsd", reads, body, _step_workers(config))


def stage_fit_ccr(root: Path, config: PipelineConfig, force: bool = False) -> bool:
    def body(out, digests):
        train = load_train_table(root, config, digests)
        classifier, projector = fit_ccr(config, load_checkpoint(root, "train-tsd").query, train)
        tensors = {"v": projector.v, "centering": projector.centering, "classifier_w": classifier.weight}
        storage.write_tensors(out["projector"], tensors)
        meta = {"k": projector.k, "m": projector.m, "n": projector.n, "holdout_accuracy": classifier.holdout_accuracy}
        storage.write_text(out["projector_meta"], _json(meta))
        return {"rows": len(train)}

    return _run_stage(root, config.fingerprint(), force, "fit-ccr", {"simulate": _SIM, "train-tsd": _WEIGHTS}, body)


def load_projector(root: Path) -> ccr_mod.CcrProjector:
    paths = stage_paths(root, "fit-ccr")
    tens = storage.read_tensors(paths["projector"], ("v", "centering"))
    meta = storage.read_json(paths["projector_meta"], ("k", "m", "n"))
    return ccr_mod.CcrProjector(v=tens["v"], centering=tens["centering"], k=meta["k"], m=meta["m"], n=meta["n"])


def check_evaluate(checkpoint: str, use_ccr: bool) -> None:
    """Refuse the camera reduction on the cid checkpoint: it is fit on the tsd encoder's embeddings."""
    if checkpoint == "cid" and use_ccr:
        raise InvalidInputError("--checkpoint cid needs --no-ccr: the camera reduction is fit on the tsd encoder")


def stage_evaluate(
    root: Path, config: PipelineConfig, force: bool = False, checkpoint: str = "tsd", use_ccr: bool = True
) -> bool:
    check_evaluate(checkpoint, use_ccr)

    def body(out, digests):
        query, gallery = load_eval_split(root, config, digests)
        projector = load_projector(root) if use_ccr else None
        params = load_checkpoint(root, "train-" + checkpoint).query
        embeddings = [embed_all(params, table.observations) for table in (query, gallery)]
        if use_ccr:
            embeddings = [ccr_mod.apply_ccr(projector, emb) for emb in embeddings]
        protocol = ev.EvalProtocol(query=query, gallery=gallery, cross_camera_filter=config.cross_camera_filter)
        run = {"config": config.to_payload(), "arm": checkpoint, "use_ccr": use_ccr}
        report = ev.evaluate(*embeddings, protocol, fingerprint=storage.fingerprint_payload(run))
        storage.write_text(out["report"], report.to_json())
        storage.write_text(out["text"], report.to_text() + "\n")
        return {"checkpoint": checkpoint, "use_ccr": use_ccr, "queries": len(query), "gallery": len(gallery)}

    reads = {"simulate": {**_SIM, **_IDS}, "train-" + checkpoint: _WEIGHTS}
    if use_ccr:
        reads["fit-ccr"] = ("projector", "projector_meta")
    return _run_stage(root, config.fingerprint(), force, "evaluate", reads, body)


def _chain(root: Path, config: PipelineConfig, force: bool, names, **evaluate) -> None:
    """The stages ``names`` in order, each looked up on the module when it is called, evaluate with ``evaluate``."""
    for name in names:
        globals()["stage_" + name.replace("-", "_")](root, config, force, **(evaluate if name == "evaluate" else {}))


def stage_run(root: Path, config: PipelineConfig, force: bool = False) -> None:
    """Every stage in ``STAGES`` order, each looked up on the module when it is called."""
    _chain(root, config, force, STAGES)


def _arm(root: Path, axis: str, label, shared=()) -> Path:
    """``ablation/<axis>/<label>/``, holding hard links to the files of ``root``'s stages ``shared``.

    A link costs no disk space.  A stage that runs again in ``root`` replaces its files, never writing into them.
    """
    arm = stage_paths(root, "ablate", axis)["rows"].parent / str(label)
    for name in shared:
        shutil.rmtree(arm / STAGES[name].dir, ignore_errors=True)
        shutil.copytree(root / STAGES[name].dir, arm / STAGES[name].dir, copy_function=os.link)
    return arm


def _arm_run(root: Path, config: PipelineConfig, force: bool, axis: str, label, arm_config, shared, own) -> Path:
    """The arm after ``own`` ran for ``arm_config`` over ``shared``; in ``root``, and linked, if that is ``config``."""
    if arm_config == config:
        _chain(root, config, force, own)
        return _arm(root, axis, label, (*shared, *own))
    arm = _arm(root, axis, label, shared)
    _chain(arm, arm_config, force, own)
    return arm


def _scores(root: Path) -> dict:
    """The rank-1 and mAP of the report that evaluate wrote under ``root``; its repr floats read back exactly."""
    report = storage.read_json(stage_paths(root, "evaluate")["report"], ("cmc", "mean_ap"))
    return {"rank1": float(report["cmc"]["1"]), "mean_ap": float(report["mean_ap"])}


def ablation_steps(root: Path, config: PipelineConfig, force: bool) -> list[dict]:
    """Score the four pipeline arms; 'cid+tsd+ccr' is `run` in ``root``, the others evaluate without CCR.

    'tsd' trains from a train-cid stage that saves the untrained encoder, fingerprinted so no run takes it for CID.
    """
    stage_run(root, config, force)
    cid = _arm(root, "steps", "cid", ("simulate", "train-cid"))
    stage_evaluate(cid, config, force, checkpoint="cid", use_ccr=False)
    tsd = _arm(root, "steps", "tsd", ("simulate",))

    def untrained(out, digests):
        save_checkpoint(out, random_pair(config), [], config, "untrained")
        return {"rows": 0, "steps": 0}

    fingerprint = storage.fingerprint_payload({"config": config.to_payload(), "steps": "tsd"})
    _run_stage(tsd, fingerprint, force, "train-cid", {}, untrained)
    _chain(tsd, config, force, ("extract", "trackletize", "train-tsd", "evaluate"), use_ccr=False)
    cid_tsd = _arm(root, "steps", "cid+tsd", ("simulate", "train-cid", "extract", "trackletize", "train-tsd"))
    stage_evaluate(cid_tsd, config, force, use_ccr=False)
    return [{"steps": arm, **_scores(path)} for arm, path in zip(STEP_ARMS, (cid, tsd, cid_tsd, root))]


def ablation_min_len(root: Path, config: PipelineConfig, force: bool, values=MIN_LEN_VALUES) -> list[dict]:
    """Sweep the segment length threshold over one CID stage; reports purity and retrieval without CCR."""
    shared = ("simulate", "train-cid", "extract")
    _chain(root, config, force, shared)
    gt_of_det = _read_table(root).gt_id  # diagnostics only: a det id is its row number
    rows = []
    for min_len in values:
        arm_config = dataclasses.replace(config, min_len=min_len)
        arm = _arm_run(root, config, force, "min_len", min_len, arm_config, shared, ("trackletize", "train-tsd"))
        stage_evaluate(arm, arm_config, force, use_ccr=False)
        segments = load_segments(arm)
        purity = trk.segment_purity(segments, gt_of_det)
        rows.append({"min_len": int(min_len), "n_segments": len(segments), "purity": purity, **_scores(arm)})
    return rows


def slice_fraction(config: PipelineConfig, table: synth.DetectionTable, fraction: float) -> synth.DetectionTable:
    """``table`` without the training rows at or past ``fraction``'s cutoff: a leading time slice of them."""
    if not 0.0 < fraction <= 1.0:
        raise InvalidInputError("fraction must lie in (0, 1]")
    window = synth.eval_window_start(config.stream, config.eval_window_frac)
    cutoff = max(int(np.ceil(fraction * window)), 1)
    return table.select((table.frame < cutoff) | (table.frame >= window))


def ablation_data_fraction(root: Path, config: PipelineConfig, force: bool, values=DATA_FRACTIONS) -> list[dict]:
    """Sweep contiguous time slices of the training window, each an arm's sim/, scored on the unchanged split.

    The whole grid runs with a reduced batch and bank so the smallest slice
    can still form full batches, and every slice is checked before any arm trains.
    """
    stage_simulate(root, config, force)
    small = dataclasses.replace(config.contrastive, batch_size=64, bank_size=1024)
    config = dataclasses.replace(config, contrastive=small)
    train = load_train_table(root, config)
    sizes = [len(slice_fraction(config, train, fraction)) for fraction in values]
    for fraction, n in zip(values, sizes):
        if n < small.batch_size:
            raise InvalidInputError(
                f"data_fraction {fraction} leaves {n} training detections, fewer than the batch size {small.batch_size}"
            )
    rows = []
    for fraction, n_train in zip(map(float, values), sizes):
        arm = _arm(root, "data_fraction", fraction)

        def body(out, digests):
            split = load_eval_split(root, config, digests)
            return _write_sim(out, slice_fraction(config, _read_table(root), fraction), *split)

        fingerprint = storage.fingerprint_payload({"config": config.to_payload(), "data_fraction": fraction})
        _run_stage(arm, fingerprint, force, "simulate", {"simulate": STAGES["simulate"].files}, body, reads_root=root)
        _chain(arm, config, force, tuple(STAGES)[1:])
        rows.append({"data_fraction": fraction, "n_train": n_train, **_scores(arm)})
    return rows


def ablation_model_size(root: Path, config: PipelineConfig, force: bool, values=MODEL_SIZES) -> list[dict]:
    """Sweep the encoder widths; every arm's dims are checked before anything is simulated."""
    configs = [dataclasses.replace(config, encoder_dims=tuple(dims)) for dims in values]
    stage_simulate(root, config, force)
    rows = []
    for arm_config in configs:
        label = "x".join(str(d) for d in arm_config.encoder_dims)
        arm = _arm_run(root, config, force, "model_size", label, arm_config, ("simulate",), tuple(STAGES)[1:])
        params = load_checkpoint(arm, "train-tsd").query
        n_params = sum(a.size for a in (*params.weights, *params.biases))
        rows.append({"encoder_dims": label, "n_params": n_params, **_scores(arm)})
    return rows


ABLATIONS = {
    "steps": ablation_steps,
    "min_len": ablation_min_len,
    "data_fraction": ablation_data_fraction,
    "model_size": ablation_model_size,
}
# Each axis's rule for its values, as words and as a test; a bool is not a number.  Steps takes none.
_VALUE_RULES = {
    "min_len": ("ints >= 1", lambda v: type(v) is int and v >= 1),
    "data_fraction": ("numbers in (0, 1]", lambda v: type(v) in (int, float) and 0 < v <= 1),
    "model_size": ("lists of int layer widths", lambda v: type(v) in (list, tuple) and all(type(d) is int for d in v)),
}


def stage_ablate(root: Path, config: PipelineConfig, axis: str, values=None, force: bool = False) -> bool:
    """Sweep one ablation axis into ``ablation/<axis>/``: ``rows.jsonl``, ``rows.series`` and a directory per arm.

    ``values=None`` uses the axis defaults; the steps axis has fixed arms and
    takes no values.  Both are checked before anything is written.  The
    fingerprint covers the config, the axis and ``values`` as given, so an
    identical rerun is skipped and another grid needs ``force``.
    """
    if axis not in ABLATIONS:
        raise InvalidInputError(f"unknown ablation axis '{axis}'")
    if values is not None:
        if not isinstance(values, (list, tuple)) or not values:
            raise InvalidInputError(f"ablation values must be a non-empty list, got {values!r}")
        if axis == "steps":
            raise InvalidInputError(f"the steps axis has fixed arms {list(STEP_ARMS)} and takes no values")
        kind, fits = _VALUE_RULES[axis]
        bad = [v for v in values if not fits(v)]
        if bad:
            raise InvalidInputError(f"{axis} values must be {kind}, got {bad[0]!r}")

    def body(out, digests):
        run_axis = ABLATIONS[axis]
        rows = run_axis(root, config, force) if values is None else run_axis(root, config, force, values)
        storage.write_records(out["rows"], rows)
        cols = list(rows[0])
        lines = ["# " + "\t".join(cols), *("\t".join(str(row[c]) for c in cols) for row in rows)]
        storage.write_text(out["series"], "\n".join(lines) + "\n")

    fingerprint = storage.fingerprint_payload({"config": config.to_payload(), "axis": axis, "values": values})
    return _run_stage(root, fingerprint, force, "ablate", {}, body, axis=axis)
