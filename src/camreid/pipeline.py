"""End-to-end pipeline: simulate, train, mine, retrain, reduce, evaluate.

The in-memory functions here are the single source of truth.  Each stage_*
function adds persistence on top for the command line: it names its input
files and a body that calls the in-memory functions and writes its outputs,
and one private helper, ``_run_stage``, digests the inputs, skips the stage
when its manifest already records them, refuses to replace another run's
results without ``force``, runs the body and writes the manifest, with the
time, faults and peak memory the stage took.  ``STAGES`` lists the stages of ``run`` in the order of the data flow:

    simulate -> train-cid -> extract -> trackletize -> train-tsd -> fit-ccr -> evaluate

``stage_ablate`` runs one ablation axis the same way into ``ablation/<axis>/``,
keyed by the config, the axis and the values as given.

Every stage that reads the detection table declares both sim/ files as
inputs.  The table is parsed at most once per process for each pair of their
digests and held once, split into the training and evaluation windows.

Ground-truth identity labels exist only in the simulator's output and the
evaluation split; every table handed to a training stage has them stripped.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import resource
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

    def validate(self) -> None:
        self.stream.validate()
        self.contrastive.validate()
        if self.n_identities < 2 or self.n_cameras < 2:
            raise InvalidInputError("need >= 2 identities and >= 2 cameras")
        if len(self.encoder_dims) < 2 or self.encoder_dims[0] != self.stream.d_obs:
            raise InvalidInputError(
                f"encoder_dims {list(self.encoder_dims)} must start at d_obs {self.stream.d_obs} "
                "and have >= 2 layers"
            )
        if self.min_len < 1:
            raise InvalidInputError("min_len must be >= 1")
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
        payload = dict(payload)
        version = payload.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise InvalidInputError(f"unsupported config schema_version {version}")
        known = {f.name for f in dataclasses.fields(PipelineConfig)}
        unknown = set(payload) - known
        if unknown:
            raise InvalidInputError(f"unknown config fields: {sorted(unknown)}")
        kwargs = {}
        if "stream" in payload:
            kwargs["stream"] = synth.StreamConfig(**payload.pop("stream"))
        if "contrastive" in payload:
            kwargs["contrastive"] = ctr.ContrastiveConfig(**payload.pop("contrastive"))
        for name, value in payload.items():
            if name == "encoder_dims":
                value = tuple(value)
            kwargs[name] = value
        config = PipelineConfig(**kwargs)
        config.validate()
        return config

    def fingerprint(self) -> str:
        return storage.fingerprint_payload(self.to_payload())

    def with_overrides(self, **kwargs) -> "PipelineConfig":
        return dataclasses.replace(self, **kwargs)


@dataclass
class Benchmark:
    train: synth.DetectionTable  # gt stripped
    query: synth.DetectionTable
    gallery: synth.DetectionTable
    gt_by_det: dict[int, int]  # diagnostics and evaluation only


@dataclass
class PipelineResult:
    pair_cid: enc.EncoderPair
    pair_tsd: enc.EncoderPair
    report: ev.EvalReport


def _simulate(config: PipelineConfig) -> tuple[synth.DetectionTable, synth.DetectionTable, synth.DetectionTable]:
    """Generate world and stream in the working dtype; the full table, query and gallery."""
    config.validate()
    world = synth.generate_world(config.stream, config.n_identities, config.n_cameras, config.seed)
    full = synth.simulate_stream(world, config.dtype)
    return (full, *synth.split_eval(world, full, config.query_frac, config.eval_window_frac))


def build_benchmark(config: PipelineConfig) -> Benchmark:
    """Generate world and stream, then carve the fixed evaluation split."""
    full, query, gallery = _simulate(config)
    return Benchmark(
        train=synth.training_table(config.stream, full, config.eval_window_frac),
        query=query,
        gallery=gallery,
        gt_by_det={int(d): int(g) for d, g in zip(full.det_id, full.gt_id)},
    )


def embed_all(params: enc.EncoderParams, observations: np.ndarray, batch_size: int = 2048) -> np.ndarray:
    """Unit embeddings of every row, by batches that share one forward cache."""
    obs = np.asarray(observations).astype(params.dtype, copy=False)
    result = np.empty((obs.shape[0], params.dims[-1]), dtype=params.dtype)
    cache = enc.ForwardCache.for_rows(params, min(batch_size, obs.shape[0]))
    for s in range(0, obs.shape[0], batch_size):
        enc.forward(params, obs[s : s + batch_size], cache, out=result[s : s + batch_size])
    return result


def train_cid(config: PipelineConfig, observations: np.ndarray) -> tuple[enc.EncoderPair, list[ctr.TrainStats]]:
    """Instance-discrimination stage from a fresh encoder and empty bank."""
    cc = config.contrastive
    pair = enc.init_encoder(
        config.encoder_dims,
        seed=derive_seed(config.seed, _SALT_CID_INIT),
        dtype=config.dtype,
        momentum=cc.key_momentum,
    )
    bank = ctr.MemoryBank(cc.bank_size, config.encoder_dims[-1], dtype=config.dtype)
    optim = enc.OptimState.for_params(pair.query, cc.base_lr, cc.sgd_momentum, cc.weight_decay)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, _SALT_CID_RNG])))
    workspace = ctr.StepWorkspace.for_epoch(pair, bank, cc.batch_size, observations.shape[1])
    stats = []
    for epoch in range(cc.epochs_cid):
        stats.append(ctr.cid_epoch(pair, bank, observations, cc, optim, rng, epoch=epoch, workspace=workspace))
    return pair, stats


def mine_segments(
    config: PipelineConfig,
    train: synth.DetectionTable,
    embeddings: np.ndarray,
    min_len: int | None = None,
) -> list[trk.TrackletSegment]:
    segments = trk.assemble_segments(train, embeddings, min_affinity=config.min_affinity)
    return trk.filter_segments(segments, config.min_len if min_len is None else min_len)


def train_tsd(
    config: PipelineConfig,
    init_pair: enc.EncoderPair,
    segments: list[trk.TrackletSegment],
    train: synth.DetectionTable,
) -> tuple[enc.EncoderPair, list[ctr.TrainStats]]:
    """Segment-discrimination stage; starts from the given weights, fresh bank."""
    cc = config.contrastive
    rows = trk.segments_to_rows(segments, train.det_id)
    pair = enc.EncoderPair(
        query=init_pair.query.copy(), key=init_pair.query.copy(), momentum=cc.key_momentum
    )
    bank = ctr.MemoryBank(cc.bank_size, config.encoder_dims[-1], dtype=config.dtype)
    optim = enc.OptimState.for_params(pair.query, cc.base_lr, cc.sgd_momentum, cc.weight_decay)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, _SALT_TSD_RNG])))
    workspace = ctr.StepWorkspace.for_epoch(pair, bank, cc.batch_size, train.observations.shape[1])
    stats = []
    for epoch in range(cc.epochs_tsd):
        stats.append(
            ctr.tsd_epoch(pair, bank, rows, train.observations, cc, optim, rng, epoch, workspace)
        )
    return pair, stats


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
    projector = ccr_mod.build_projector(classifier, k=k)
    return classifier, projector


def eval_report(
    config: PipelineConfig,
    query: synth.DetectionTable,
    gallery: synth.DetectionTable,
    params: enc.EncoderParams,
    projector: ccr_mod.CcrProjector | None,
    arm: str,
) -> ev.EvalReport:
    """Embed the split, remove the camera subspace when a projector is given, score."""
    embeddings = [embed_all(params, table.observations) for table in (query, gallery)]
    if projector is not None:
        embeddings = [ccr_mod.apply_ccr(projector, emb) for emb in embeddings]
    protocol = ev.EvalProtocol(
        query=query, gallery=gallery, cross_camera_filter=config.cross_camera_filter
    )
    fingerprint = storage.fingerprint_payload(
        {"config": config.to_payload(), "arm": arm, "use_ccr": projector is not None}
    )
    return ev.evaluate(*embeddings, protocol, fingerprint=fingerprint)


def random_pair(config: PipelineConfig) -> enc.EncoderPair:
    """Untrained encoder used for the segment-only training arm."""
    return enc.init_encoder(
        config.encoder_dims,
        seed=derive_seed(config.seed, _SALT_RANDOM_INIT),
        dtype=config.dtype,
        momentum=config.contrastive.key_momentum,
    )


def run_pipeline(config: PipelineConfig, bench: Benchmark | None = None) -> PipelineResult:
    """Default full run: instance stage, mining, segment stage, reduction, eval."""
    if bench is None:
        bench = build_benchmark(config)
    pair_cid, _ = train_cid(config, bench.train.observations)
    embeddings = embed_all(pair_cid.query, bench.train.observations)
    segments = mine_segments(config, bench.train, embeddings)
    pair_tsd, _ = train_tsd(config, pair_cid, segments, bench.train)
    _, projector = fit_ccr(config, pair_tsd.query, bench.train)
    report = eval_report(config, bench.query, bench.gallery, pair_tsd.query, projector, arm="cid+tsd+ccr")
    return PipelineResult(pair_cid=pair_cid, pair_tsd=pair_tsd, report=report)


def run_steps_ablation(config: PipelineConfig) -> dict[str, ev.EvalReport]:
    """Evaluate the four pipeline arms, sharing work where the arms overlap.

    'cid' evaluates the instance stage alone; 'tsd' mines segments with an
    untrained encoder and trains the segment stage from scratch; 'cid+tsd'
    chains the stages; 'cid+tsd+ccr' adds the camera reduction.  The three
    chained arms are scored from one `run_pipeline` call.
    """
    bench = build_benchmark(config)
    split = (bench.query, bench.gallery)
    chained = run_pipeline(config, bench)

    rnd = random_pair(config)
    seg_rnd = mine_segments(config, bench.train, embed_all(rnd.query, bench.train.observations))
    pair_tsd_only, _ = train_tsd(config, rnd, seg_rnd, bench.train)
    return {
        "cid": eval_report(config, *split, chained.pair_cid.query, None, arm="cid"),
        "tsd": eval_report(config, *split, pair_tsd_only.query, None, arm="tsd"),
        "cid+tsd": eval_report(config, *split, chained.pair_tsd.query, None, arm="cid+tsd"),
        "cid+tsd+ccr": chained.report,
    }


def slice_fraction(config: PipelineConfig, train: synth.DetectionTable, fraction: float) -> synth.DetectionTable:
    """Contiguous leading time slice of the training window."""
    if not 0.0 < fraction <= 1.0:
        raise InvalidInputError("fraction must lie in (0, 1]")
    window = synth.eval_window_start(config.stream, config.eval_window_frac)
    cutoff = max(int(np.ceil(fraction * window)), 1)
    return train.select(train.frame < cutoff)


def ablation_min_len(config: PipelineConfig, values=MIN_LEN_VALUES) -> list[dict]:
    """Sweep the segment length threshold; reports purity and retrieval."""
    bench = build_benchmark(config)
    pair_cid, _ = train_cid(config, bench.train.observations)
    embeddings = embed_all(pair_cid.query, bench.train.observations)
    raw = trk.assemble_segments(bench.train, embeddings, min_affinity=config.min_affinity)
    rows = []
    for min_len in values:
        kept = trk.filter_segments(raw, min_len)
        pair_tsd, _ = train_tsd(config, pair_cid, kept, bench.train)
        report = eval_report(config, bench.query, bench.gallery, pair_tsd.query, None, arm=f"min_len={min_len}")
        rows.append(
            {
                "min_len": int(min_len),
                "n_segments": trk.segment_stats(kept).n_segments,
                "purity": trk.segment_purity(kept, bench.gt_by_det),
                "rank1": report.rank1,
                "mean_ap": report.mean_ap,
            }
        )
    return rows


def ablation_data_fraction(config: PipelineConfig, values=DATA_FRACTIONS) -> list[dict]:
    """Sweep contiguous time slices of the training window.

    Each arm runs the full pipeline on its slice and is scored on the
    unchanged split.  The whole grid runs with a reduced batch and bank so
    the smallest slice can still form full batches; the override is uniform
    across fractions to keep the points comparable.  Every slice is checked
    before any arm trains.
    """
    bench = build_benchmark(config)
    small = dataclasses.replace(config.contrastive, batch_size=64, bank_size=1024)
    config = config.with_overrides(contrastive=small)
    slices = [slice_fraction(config, bench.train, fraction) for fraction in values]
    for fraction, sliced in zip(values, slices):
        if len(sliced) < small.batch_size:
            raise InvalidInputError(
                f"data_fraction {fraction} leaves {len(sliced)} training detections, "
                f"fewer than the batch size {small.batch_size}"
            )
    rows = []
    for fraction, sliced in zip(values, slices):
        report = run_pipeline(config, dataclasses.replace(bench, train=sliced)).report
        rows.append(
            {
                "data_fraction": float(fraction),
                "n_train": len(sliced),
                "rank1": report.rank1,
                "mean_ap": report.mean_ap,
            }
        )
    return rows


def ablation_steps(config: PipelineConfig) -> list[dict]:
    reports = run_steps_ablation(config)
    return [
        {"steps": arm, "rank1": reports[arm].rank1, "mean_ap": reports[arm].mean_ap}
        for arm in STEP_ARMS
    ]


def ablation_model_size(config: PipelineConfig, values=MODEL_SIZES) -> list[dict]:
    """Sweep the encoder widths; every arm's dims are checked before anything is built."""
    try:
        configs = [config.with_overrides(encoder_dims=tuple(int(d) for d in dims)) for dims in values]
    except (TypeError, ValueError) as e:
        raise InvalidInputError(f"model_size values must be lists of layer widths, got {values!r}") from e
    for cfg in configs:
        cfg.validate()
    bench = build_benchmark(config)
    rows = []
    for dims, cfg in zip(values, configs):
        result = run_pipeline(cfg, bench=bench)
        rows.append(
            {
                "encoder_dims": "x".join(str(d) for d in dims),
                "n_params": int(
                    sum(w.size for w in result.pair_tsd.query.weights)
                    + sum(b.size for b in result.pair_tsd.query.biases)
                ),
                "rank1": result.report.rank1,
                "mean_ap": result.report.mean_ap,
            }
        )
    return rows


ABLATIONS = {
    "steps": ablation_steps,
    "min_len": ablation_min_len,
    "data_fraction": ablation_data_fraction,
    "model_size": ablation_model_size,
}


# ---------------------------------------------------------------------------
# File-backed stages
# ---------------------------------------------------------------------------

# The stages of `run`, in run order, with their commands' help text.
STAGES = {
    "simulate": "generate the synthetic stream and evaluation split",
    "train-cid": "instance-discrimination training stage",
    "extract": "embed training detections with a trained checkpoint",
    "trackletize": "mine tracklet segments from extracted embeddings",
    "train-tsd": "segment-discrimination training stage",
    "fit-ccr": "fit the camera classifier and build the reducer",
    "evaluate": "rank the evaluation split and report CMC / mAP",
}


def _run_stage(
    root: Path, fingerprint: str, force: bool, stage: str, dirname: str, inputs: dict, body, step_workers: int = 0
) -> bool:
    """Digest ``inputs``, then skip the stage, refuse, or run ``body`` and record it.

    Returns False when ``root/dirname`` holds a manifest with these input
    digests, this fingerprint and intact outputs.  A manifest from another run
    needs ``force``.  Otherwise the old manifest goes first, so a stage that
    dies before its new one is written is run again, never taken as done;
    then ``body(stage_dir, digests)`` writes the outputs and returns them with
    the manifest's extra fields.  The manifest also records what the stage
    used, from the digests to the body's return (see ``_resources``), and a
    training stage's ``step_workers``: the threads its steps ran on.
    """
    wall0, usage0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    stage_dir = root / dirname
    digests = storage.validate_inputs(inputs)
    if storage.manifest_matches(stage_dir, digests, fingerprint):
        log.info("skipping %s (manifest hit)", dirname)
        return False
    manifest = stage_dir / "manifest.json"
    if manifest.exists() and not force:
        raise ManifestError(f"{stage_dir} holds results from a different run; pass --force to overwrite")
    stage_dir.mkdir(parents=True, exist_ok=True)
    manifest.unlink(missing_ok=True)
    outputs, extra = body(stage_dir, digests)
    resources = _resources(wall0, usage0)
    if step_workers:
        resources["step_workers"] = step_workers
    storage.write_manifest(stage_dir, stage, digests, outputs, fingerprint, extra=extra, resources=resources)
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
    payload = config.to_payload()
    if path.exists():
        if storage.read_json(path) == payload:
            return
        if not force:
            raise ManifestError(f"{path} disagrees with the requested config; pass --force")
    storage.write_text(path, _json(payload))


def _sim_inputs(root: Path) -> dict[str, Path]:
    """The two files the detection table is read from."""
    sim = root / "sim"
    return {"detections": sim / "detections.jsonl", "observations": sim / "observations.rctr"}


def _checkpoint_inputs(root: Path, name: str) -> dict[str, Path]:
    return {"checkpoint": root / name / "checkpoint.rctr", "checkpoint_meta": root / name / "checkpoint.json"}


def stage_simulate(root: Path, config: PipelineConfig, force: bool = False) -> bool:
    def body(stage_dir, digests):
        full, query, gallery = _simulate(config)
        outputs = [
            stage_dir / name
            for name in ("detections.jsonl", "observations.rctr", "query_ids.jsonl", "gallery_ids.jsonl")
        ]
        storage.write_int_records(outputs[0], {c: getattr(full, c) for c in full.INT_COLUMNS})
        storage.write_tensors(outputs[1], {"det_ids": full.det_id, "observations": full.observations})
        storage.write_int_records(outputs[2], {"det_id": query.det_id})
        storage.write_int_records(outputs[3], {"det_id": gallery.det_id})
        return outputs, {"n_detections": len(full)}

    return _run_stage(root, config.fingerprint(), force, "simulate", "sim", {}, body)


# The sim/ files of the last pair of digests seen, parsed once and split into the training window
# (gt stripped) and the evaluation window; the whole table is not kept.  Process-wide, so the stages
# of one `run` share one parse and one copy; keyed by file content and split point, it never serves
# a stale table, and its columns are read-only, so no caller can change what the next one gets.
_split_cache: dict[tuple, tuple[synth.DetectionTable, synth.DetectionTable]] = {}


def _load_split(root: Path, config: PipelineConfig, digests: dict[str, str] | None) -> tuple[synth.DetectionTable, ...]:
    """The training and evaluation windows of the detection table, cached.

    ``digests`` are those of the two sim/ files (see ``_sim_inputs``); they
    are taken here when the caller does not have them.
    """
    if digests is None:
        digests = storage.validate_inputs(_sim_inputs(root))
    start = synth.eval_window_start(config.stream, config.eval_window_frac)
    key = (digests["detections"], digests["observations"], start)
    if key not in _split_cache:
        columns = storage.read_int_records(root / "sim" / "detections.jsonl", synth.DetectionTable.INT_COLUMNS)
        tens = storage.read_tensors(root / "sim" / "observations.rctr")
        if not np.array_equal(columns["det_id"], tens["det_ids"]):
            raise ManifestError("detections.jsonl and observations.rctr disagree on det_ids")
        full = synth.DetectionTable(observations=tens["observations"], **columns)
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
    """Query and gallery, with gt, selected from the evaluation window by sim/'s id lists."""
    window = _load_split(root, config, digests)[1]

    def select(name: str) -> synth.DetectionTable:
        ids = storage.read_int_records(root / "sim" / name, ["det_id"])["det_id"]
        return window.select(_rows_of(window.det_id, ids, f"sim/{name}", "the evaluation window")).astype(config.dtype)

    return select("query_ids.jsonl"), select("gallery_ids.jsonl")


def save_checkpoint(
    stage_dir: Path, pair: enc.EncoderPair, stats: list[ctr.TrainStats], config: PipelineConfig, stage: str
) -> list[Path]:
    """Weights, their metadata, and one training-curve record per epoch."""
    tensors = {}
    for side, params in (("query", pair.query), ("key", pair.key)):
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            tensors[f"{side}.w{i}"] = w
            tensors[f"{side}.b{i}"] = b
    outputs = [stage_dir / "checkpoint.rctr", stage_dir / "checkpoint.json", stage_dir / "curves.jsonl"]
    storage.write_tensors(outputs[0], tensors)
    meta = {
        "dims": list(pair.query.dims),
        "dtype": config.precision,
        "key_momentum": pair.momentum,
        "seed": config.seed,
        "stage": stage,
    }
    storage.write_text(outputs[1], _json(meta))
    storage.write_records(outputs[2], (dataclasses.asdict(s) for s in stats))
    return outputs


def load_checkpoint(stage_dir: Path) -> enc.EncoderPair:
    meta = storage.read_json(stage_dir / "checkpoint.json", ("dims", "key_momentum"))
    tensors = storage.read_tensors(stage_dir / "checkpoint.rctr")
    dims = tuple(meta["dims"])
    sides = {}
    for side in ("query", "key"):
        weights = [tensors[f"{side}.w{i}"] for i in range(len(dims) - 1)]
        biases = [tensors[f"{side}.b{i}"] for i in range(len(dims) - 1)]
        sides[side] = enc.EncoderParams(dims=dims, weights=weights, biases=biases)
    return enc.EncoderPair(query=sides["query"], key=sides["key"], momentum=meta["key_momentum"])


def _step_workers(config: PipelineConfig) -> int:
    cc = config.contrastive
    return ctr._step_workers(cc.batch_size, cc.bank_size, config.encoder_dims[-1])


def stage_train_cid(root: Path, config: PipelineConfig, force: bool = False) -> bool:
    def body(stage_dir, digests):
        obs = load_train_table(root, config, digests).observations
        pair, stats = train_cid(config, obs)
        # cid_epoch's batches; every one steps the optimizer but the first, which fills the fresh bank
        steps = config.contrastive.epochs_cid * (len(obs) // config.contrastive.batch_size) - 1
        return save_checkpoint(stage_dir, pair, stats, config, "cid"), {"rows": len(obs), "steps": steps}

    return _run_stage(
        root, config.fingerprint(), force, "train-cid", "cid", _sim_inputs(root), body, _step_workers(config)
    )


def stage_extract(root: Path, config: PipelineConfig, force: bool = False, checkpoint: str = "cid") -> bool:
    def body(stage_dir, digests):
        train = load_train_table(root, config, digests)
        emb = embed_all(load_checkpoint(root / checkpoint).query, train.observations)
        path = stage_dir / "embeddings.rctr"
        storage.write_tensors(path, {"det_ids": train.det_id, "embeddings": emb})
        return [path], {"rows": len(emb)}

    inputs = {**_sim_inputs(root), **_checkpoint_inputs(root, checkpoint)}
    return _run_stage(root, config.fingerprint(), force, "extract", "embed", inputs, body)


def stage_trackletize(root: Path, config: PipelineConfig, force: bool = False) -> bool:
    def body(stage_dir, digests):
        train = load_train_table(root, config, digests)
        tens = storage.read_tensors(root / "embed" / "embeddings.rctr")
        if not np.array_equal(tens["det_ids"], train.det_id):
            raise ManifestError("embeddings do not align with the training detections")
        segments = mine_segments(config, train, tens["embeddings"])
        outputs = [stage_dir / "segments.jsonl", stage_dir / "stats.json"]
        storage.write_records(
            outputs[0],
            (
                {
                    "segment_id": s.segment_id,
                    "camera_id": s.camera_id,
                    "first_frame": s.first_frame,
                    "det_ids": list(s.det_ids),
                }
                for s in segments
            ),
        )
        stats = trk.segment_stats(segments)
        summary = {
            "n_segments": stats.n_segments,
            "length_hist": {str(k): v for k, v in stats.length_hist.items()},
            "per_camera": {str(k): v for k, v in stats.per_camera.items()},
            "min_len": config.min_len,
        }
        storage.write_text(outputs[1], _json(summary))
        return outputs, {"segments": len(segments)}

    inputs = {**_sim_inputs(root), "embeddings": root / "embed" / "embeddings.rctr"}
    return _run_stage(root, config.fingerprint(), force, "trackletize", "segments", inputs, body)


def load_segments(root: Path) -> list[trk.TrackletSegment]:
    recs = storage.read_records(root / "segments" / "segments.jsonl")
    return [
        trk.TrackletSegment(
            segment_id=r["segment_id"],
            camera_id=r["camera_id"],
            det_ids=tuple(r["det_ids"]),
            first_frame=r["first_frame"],
        )
        for r in recs
    ]


def stage_train_tsd(root: Path, config: PipelineConfig, force: bool = False) -> bool:
    def body(stage_dir, digests):
        train = load_train_table(root, config, digests)
        segments = load_segments(root)
        ids = np.array([d for s in segments for d in s.det_ids], dtype=np.int64)
        _rows_of(train.det_id, ids, "segments/segments.jsonl", "the training table")
        pair, stats = train_tsd(config, load_checkpoint(root / "cid"), segments, train)
        # tsd_epoch's batches, from the rows of segments it can draw a pair from; the first fills the bank
        rows = sum(len(s.det_ids) for s in segments if len(s.det_ids) >= 2)
        steps = config.contrastive.epochs_tsd * max(rows // config.contrastive.batch_size, 1) - 1
        return save_checkpoint(stage_dir, pair, stats, config, "tsd"), {"rows": rows, "steps": steps}

    inputs = {
        **_sim_inputs(root),
        "segments": root / "segments" / "segments.jsonl",
        **_checkpoint_inputs(root, "cid"),
    }
    return _run_stage(root, config.fingerprint(), force, "train-tsd", "tsd", inputs, body, _step_workers(config))


def stage_fit_ccr(root: Path, config: PipelineConfig, force: bool = False) -> bool:
    def body(stage_dir, digests):
        train = load_train_table(root, config, digests)
        classifier, projector = fit_ccr(config, load_checkpoint(root / "tsd").query, train)
        outputs = [stage_dir / "projector.rctr", stage_dir / "projector.json"]
        storage.write_tensors(
            outputs[0],
            {"v": projector.v, "centering": projector.centering, "classifier_w": classifier.weight},
        )
        meta = {
            "k": projector.k,
            "m": projector.m,
            "n": projector.n,
            "holdout_accuracy": classifier.holdout_accuracy,
        }
        storage.write_text(outputs[1], _json(meta))
        return outputs, {"rows": len(train)}

    inputs = {**_sim_inputs(root), **_checkpoint_inputs(root, "tsd")}
    return _run_stage(root, config.fingerprint(), force, "fit-ccr", "ccr", inputs, body)


def load_projector(root: Path) -> ccr_mod.CcrProjector:
    tens = storage.read_tensors(root / "ccr" / "projector.rctr")
    meta = storage.read_json(root / "ccr" / "projector.json", ("k", "m", "n"))
    return ccr_mod.CcrProjector(
        v=tens["v"], centering=tens["centering"], k=meta["k"], m=meta["m"], n=meta["n"]
    )


def stage_evaluate(
    root: Path,
    config: PipelineConfig,
    force: bool = False,
    checkpoint: str = "tsd",
    use_ccr: bool = True,
) -> bool:
    def body(stage_dir, digests):
        query, gallery = load_eval_split(root, config, digests)
        projector = load_projector(root) if use_ccr else None
        params = load_checkpoint(root / checkpoint).query
        report = eval_report(config, query, gallery, params, projector, arm=checkpoint)
        outputs = [stage_dir / "report.json", stage_dir / "report.txt"]
        storage.write_text(outputs[0], report.to_json())
        storage.write_text(outputs[1], report.to_text() + "\n")
        return outputs, {"checkpoint": checkpoint, "use_ccr": use_ccr, "queries": len(query), "gallery": len(gallery)}

    inputs = {
        **_sim_inputs(root),
        "query_ids": root / "sim" / "query_ids.jsonl",
        "gallery_ids": root / "sim" / "gallery_ids.jsonl",
        **_checkpoint_inputs(root, checkpoint),
    }
    if use_ccr:
        inputs.update(projector=root / "ccr" / "projector.rctr", projector_meta=root / "ccr" / "projector.json")
    return _run_stage(root, config.fingerprint(), force, "evaluate", "eval", inputs, body)


def stage_run(root: Path, config: PipelineConfig, force: bool = False) -> None:
    """Every stage in ``STAGES`` order, each looked up on the module when it is called."""
    for name in STAGES:
        globals()["stage_" + name.replace("-", "_")](root, config, force)


def stage_ablate(root: Path, config: PipelineConfig, axis: str, values=None, force: bool = False) -> bool:
    """Sweep one ablation axis into ``ablation/<axis>/rows.jsonl`` and ``rows.series``.

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

    def body(stage_dir, digests):
        rows = ABLATIONS[axis](config) if values is None else ABLATIONS[axis](config, values)
        outputs = [stage_dir / "rows.jsonl", stage_dir / "rows.series"]
        storage.write_records(outputs[0], rows)
        cols = list(rows[0])
        lines = ["# " + "\t".join(cols), *("\t".join(str(row[c]) for c in cols) for row in rows)]
        storage.write_text(outputs[1], "\n".join(lines) + "\n")
        return outputs, None

    fingerprint = storage.fingerprint_payload({"config": config.to_payload(), "axis": axis, "values": values})
    return _run_stage(root, fingerprint, force, "ablate", f"ablation/{axis}", {}, body)
