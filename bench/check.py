"""Independent output checker for one finished `camreid run` directory.

Nothing here imports camreid.  The checker reads the run's files with its
own parsers, re-embeds the evaluation split with its own float64 MLP
forward pass, applies the stored camera reducer, ranks the gallery by brute
force and recomputes CMC and mAP.  Every check appends human-readable
failures to a list; an empty list means the run is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import subprocess
from pathlib import Path

import numpy as np

_RCTR_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i8")}

# Two gallery items whose squared distances to a query differ by less than
# this may legitimately swap places between the program's float32 ranking
# and the checker's float64 one; queries with such a relevant/irrelevant
# near-tie are exempt from the exact per-query comparison.  The float32
# distances of the default and large-scene runs sit within 7.3e-7 of the
# float64 ones, so a swap needs a gap below 1.5e-6.
NEAR_TIE_D2 = 4e-6
# With k = m every centered camera logit of a reduced embedding must vanish.
NULL_LOGIT_TOL = 1e-6
ORTHONORMAL_TOL = 1e-8


class CheckError(Exception):
    """An artifact is missing or cannot be parsed."""


def read_rctr(path: Path) -> dict[str, np.ndarray]:
    """Parse the little-endian RCTR tensor container."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"RCTR":
        raise CheckError(f"{path}: bad magic")
    version, count = struct.unpack_from("<II", raw, 4)
    if version != 1:
        raise CheckError(f"{path}: unknown container version {version}")
    off = 12
    out = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, off)
        name = raw[off + 2 : off + 2 + name_len].decode("utf-8")
        off += 2 + name_len
        tag, ndim = struct.unpack_from("<BB", raw, off)
        off += 2
        shape = struct.unpack_from(f"<{ndim}Q", raw, off)
        off += 8 * ndim
        dtype = _RCTR_DTYPES[tag]
        nbytes = dtype.itemsize * math.prod(shape)
        if off + nbytes > len(raw):
            raise CheckError(f"{path}: truncated tensor {name}")
        out[name] = np.frombuffer(raw, dtype=dtype, count=math.prod(shape), offset=off).reshape(shape)
        off += nbytes
    if off != len(raw):
        raise CheckError(f"{path}: {len(raw) - off} trailing bytes")
    return out


def read_jsonl(path: Path) -> list[dict]:
    with Path(path).open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Run:
    """Lazily parsed artifacts of one run directory."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.config = json.loads((self.root / "config.json").read_text())
        self._cache: dict[str, object] = {}

    def _get(self, key, load):
        if key not in self._cache:
            self._cache[key] = load()
        return self._cache[key]

    @property
    def detections(self) -> dict[str, np.ndarray]:
        def load():
            recs = read_jsonl(self.root / "sim" / "detections.jsonl")
            cols = {k: np.array([r[k] for r in recs], dtype=np.int64) for k in ("det_id", "frame", "camera_id", "gt_id")}
            tens = read_rctr(self.root / "sim" / "observations.rctr")
            if not np.array_equal(tens["det_ids"], cols["det_id"]):
                raise CheckError("detections.jsonl and observations.rctr disagree on det_ids")
            cols["observations"] = tens["observations"]
            return cols

        return self._get("detections", load)

    @property
    def row_of(self) -> dict[int, int]:
        return self._get("row_of", lambda: {int(d): i for i, d in enumerate(self.detections["det_id"])})

    @property
    def eval_start(self) -> int:
        duration = self.config["stream"]["duration_frames"]
        return duration - max(int(round(self.config["eval_window_frac"] * duration)), 1)

    @property
    def n_train(self) -> int:
        return int(np.count_nonzero(self.detections["frame"] < self.eval_start))

    @property
    def segments(self) -> list[dict]:
        return self._get("segments", lambda: read_jsonl(self.root / "segments" / "segments.jsonl"))

    def curves(self, stage: str) -> list[dict]:
        return self._get(f"curves.{stage}", lambda: read_jsonl(self.root / stage / "curves.jsonl"))

    def optimizer_steps(self) -> dict[str, int]:
        """Steps that updated the query encoder, per training stage.

        Each stage starts from an empty bank, and its first batch only
        primes the bank, so it takes no step.
        """
        b = self.config["contrastive"]["batch_size"]
        seg_rows = sum(len(s["det_ids"]) for s in self.segments if len(s["det_ids"]) >= 2)
        per_epoch = {"cid": self.n_train // b, "tsd": max(seg_rows // b, 1)}
        epochs = {"cid": self.config["contrastive"]["epochs_cid"], "tsd": self.config["contrastive"]["epochs_tsd"]}
        return {k: max(per_epoch[k] * epochs[k] - 1, 0) for k in per_epoch}

    def train_rows_per_s(self) -> float:
        """Query rows that took an optimizer step, per second of epoch wall time."""
        rows = self.config["contrastive"]["batch_size"] * sum(self.optimizer_steps().values())
        seconds = sum(c["wall_time"] for stage in ("cid", "tsd") for c in self.curves(stage))
        return rows / seconds

    def report(self) -> dict:
        return self._get("report", lambda: json.loads((self.root / "eval" / "report.json").read_text()))


def embed(checkpoint: dict[str, np.ndarray], observations: np.ndarray) -> np.ndarray:
    """Query-network MLP in float64: ReLU hidden layers, then L2 normalization."""
    n_layers = sum(1 for k in checkpoint if k.startswith("query.w"))
    h = observations.astype(np.float64)
    for i in range(n_layers):
        h = h @ checkpoint[f"query.w{i}"].astype(np.float64) + checkpoint[f"query.b{i}"].astype(np.float64)
        if i < n_layers - 1:
            h = np.maximum(h, 0.0)
    return h / np.linalg.norm(h, axis=1, keepdims=True)


def reduce(v: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """Apply I - V V^T row-wise."""
    v = v.astype(np.float64)
    return emb - (emb @ v) @ v.T


def eval_embeddings(run: Run) -> dict[str, np.ndarray]:
    """Reduced query and gallery embeddings plus their labels."""

    def load():
        det, row_of = run.detections, run.row_of
        ckpt = read_rctr(run.root / "tsd" / "checkpoint.rctr")
        proj = read_rctr(run.root / "ccr" / "projector.rctr")
        out = {}
        for side in ("query", "gallery"):
            ids = [r["det_id"] for r in read_jsonl(run.root / "sim" / f"{side}_ids.jsonl")]
            rows = np.array([row_of[i] for i in ids], dtype=np.int64)
            emb = reduce(proj["v"], embed(ckpt, det["observations"][rows]))
            if run.config.get("renormalize_after_ccr"):
                emb = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-30)
            out[f"{side}_emb"] = emb
            out[f"{side}_gt"] = det["gt_id"][rows]
            out[f"{side}_cam"] = det["camera_id"][rows]
        return out

    return run._get("eval_embeddings", load)


def average_precision(rel: np.ndarray) -> float:
    ranks = np.flatnonzero(rel) + 1
    hits = np.arange(1, len(ranks) + 1, dtype=np.float64)
    return math.fsum(hits / ranks) / len(ranks)


CMC_RANKS = (1, 5, 10)
RANK_CHUNK = 256


def rank_all(run: Run) -> dict:
    """Brute-force ranking of every query; near-ties are flagged, not resolved."""
    e = eval_embeddings(run)
    q, g = e["query_emb"], e["gallery_emb"]
    g_sq = np.einsum("ij,ij->i", g, g)
    cross = run.config.get("cross_camera_filter", True)
    aps, hits, ambiguous, skipped = [], {k: [] for k in CMC_RANKS}, [], 0
    for s in range(0, len(q), RANK_CHUNK):
        qc = q[s : s + RANK_CHUNK]
        d2 = np.einsum("ij,ij->i", qc, qc)[:, None] + g_sq[None, :] - 2.0 * (qc @ g.T)
        for j in range(len(qc)):
            qi = s + j
            same_id = e["gallery_gt"] == e["query_gt"][qi]
            keep = ~(same_id & (e["gallery_cam"] == e["query_cam"][qi])) if cross else np.ones(len(g), bool)
            idx = np.flatnonzero(keep)
            order = idx[np.argsort(d2[j, idx], kind="stable")]
            rel = same_id[order]
            if not rel.any():
                skipped += 1
                continue
            gaps = np.diff(d2[j, order])
            boundary = rel[1:] != rel[:-1]
            ambiguous.append(bool(np.any(boundary & (gaps < NEAR_TIE_D2))))
            aps.append(average_precision(rel))
            for k in CMC_RANKS:
                hits[k].append(bool(rel[:k].any()))
    return {"aps": aps, "hits": hits, "ambiguous": ambiguous, "skipped": skipped}


def check_manifests(run: Run, failures: list[str]) -> None:
    manifests = sorted(run.root.glob("*/manifest.json"))
    if len(manifests) != 7:
        failures.append(f"manifests: expected 7 stage manifests, found {len(manifests)}")
    for path in manifests:
        outputs = json.loads(path.read_text()).get("outputs", {})
        if not outputs:
            failures.append(f"manifests: {path.parent.name} lists no outputs")
        for name, digest in outputs.items():
            out = path.parent / name
            if not out.is_file():
                failures.append(f"manifests: {path.parent.name}/{name} is missing")
            elif sha256_of(out) != digest:
                failures.append(f"manifests: {path.parent.name}/{name} does not match its digest")


def check_curves(run: Run, failures: list[str]) -> None:
    for stage, key in (("cid", "epochs_cid"), ("tsd", "epochs_tsd")):
        curves = run.curves(stage)
        if len(curves) != run.config["contrastive"][key]:
            failures.append(f"curves: {stage} has {len(curves)} epochs, config asks {run.config['contrastive'][key]}")
        for c in curves:
            if not math.isfinite(c["mean_loss"]):
                failures.append(f"curves: {stage} epoch {c['epoch']} loss {c['mean_loss']}")
            if not (math.isfinite(c["wall_time"]) and c["wall_time"] > 0):
                failures.append(f"curves: {stage} epoch {c['epoch']} wall_time {c['wall_time']}")


def check_segments(run: Run, failures: list[str]) -> None:
    det, row_of = run.detections, run.row_of
    min_len = run.config["min_len"]
    seen: set[int] = set()
    for s in run.segments:
        ids = s["det_ids"]
        sid = s["segment_id"]
        if len(ids) < min_len:
            failures.append(f"segments: {sid} has {len(ids)} detections < min_len {min_len}")
        if any(i not in row_of for i in ids):
            failures.append(f"segments: {sid} names an unknown detection")
            continue
        rows = [row_of[i] for i in ids]
        cams = set(det["camera_id"][rows].tolist())
        if cams != {s["camera_id"]}:
            failures.append(f"segments: {sid} spans cameras {sorted(cams)}")
        frames = det["frame"][rows]
        if frames[0] != s["first_frame"] or np.any(np.diff(frames) != 1):
            failures.append(f"segments: {sid} frames are not consecutive from first_frame")
        if frames[-1] >= run.eval_start:
            failures.append(f"segments: {sid} reaches into the evaluation window")
        dup = seen.intersection(ids)
        if dup or len(set(ids)) != len(ids):
            failures.append(f"segments: {sid} reuses detections {sorted(dup)[:3]}")
        seen.update(ids)
    if not run.segments:
        failures.append("segments: none kept")


def check_ccr(run: Run, failures: list[str]) -> None:
    proj = read_rctr(run.root / "ccr" / "projector.rctr")
    meta = json.loads((run.root / "ccr" / "projector.json").read_text())
    v = proj["v"].astype(np.float64)
    w = proj["classifier_w"].astype(np.float64)
    m, n = w.shape
    if (meta["m"], meta["n"]) != (m, n):
        failures.append(f"ccr: projector.json says m={meta['m']} n={meta['n']}, classifier is {m}x{n}")
    if v.shape != (n, meta["k"]):
        failures.append(f"ccr: V has shape {v.shape}, expected ({n}, {meta['k']})")
        return
    if np.abs(v.T @ v - np.eye(v.shape[1])).max() > ORTHONORMAL_TOL:
        failures.append("ccr: V columns are not orthonormal")
    centering = w.mean(axis=0)
    if np.abs(proj["centering"] - centering).max() > 1e-12:
        failures.append("ccr: centering is not the mean classifier row")
    if meta["k"] == m:
        e = eval_embeddings(run)
        reduced = np.concatenate([e["query_emb"], e["gallery_emb"]])
        worst = float(np.abs(reduced @ (w - centering).T).max())
        if worst > NULL_LOGIT_TOL:
            failures.append(f"ccr: centered camera logit {worst:.3e} survives the k=m reduction")


def check_report(run: Run, failures: list[str]) -> None:
    rep = run.report()
    ranked = rank_all(run)
    mine = np.array(ranked["aps"])
    theirs = np.array([float(a) for a in rep["per_query_ap"]])
    amb = np.array(ranked["ambiguous"])
    n = len(mine)
    if (rep["n_queries"], rep["n_skipped"]) != (n, ranked["skipped"]):
        failures.append(
            f"report: {rep['n_queries']} queries / {rep['n_skipped']} skipped, "
            f"checker finds {n} / {ranked['skipped']}"
        )
        return
    if len(theirs) != n:
        failures.append(f"report: {len(theirs)} per-query APs for {n} queries")
        return
    bad = np.flatnonzero(~amb & (np.abs(mine - theirs) > 1e-9))
    if len(bad):
        failures.append(f"report: AP of {len(bad)} queries differs, first {bad[:5].tolist()}")
    if abs(float(rep["mean_ap"]) - math.fsum(theirs) / n) > 1e-12:
        failures.append("report: mean_ap is not the mean of per_query_ap")
    slack = amb.sum() / n + 1e-12
    if abs(float(rep["mean_ap"]) - mine.mean()) > slack:
        failures.append(f"report: mAP {rep['mean_ap']} vs checker {mine.mean()!r}")
    for k, h in ranked["hits"].items():
        if abs(float(rep["cmc"][str(k)]) - np.mean(h)) > slack:
            failures.append(f"report: cmc@{k} {rep['cmc'][str(k)]} vs checker {np.mean(h)!r}")


CHECKS = (check_manifests, check_curves, check_segments, check_ccr, check_report)


def check_run(root: Path) -> list[str]:
    """Every failure found in one finished run directory."""
    failures: list[str] = []
    try:
        run = Run(root)
    except (OSError, ValueError) as e:
        return [f"config: {e}"]
    for check in CHECKS:
        try:
            check(run, failures)
        except (OSError, ValueError, KeyError, IndexError, CheckError, struct.error) as e:
            failures.append(f"{check.__name__}: {type(e).__name__}: {e}")
    return failures


def snapshot(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): sha256_of(p) for p in sorted(Path(root).rglob("*")) if p.is_file()}


def check_resume(root: Path, argv: list[str], env: dict) -> list[str]:
    """A second run of `argv` on the finished directory exits 0 and changes no file."""
    before = snapshot(root)
    rc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120).returncode
    if rc != 0:
        return [f"resume: rerun exited {rc}"]
    after = snapshot(root)
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    return [f"resume: rerun changed {changed[:5]}"] if changed else []


def check_same_reports(roots: list[Path]) -> list[str]:
    """report.json must be byte-identical across runs of one workload and seed."""
    blobs = {(Path(r) / "eval" / "report.json").read_bytes() for r in roots}
    return [] if len(blobs) <= 1 else [f"reports: {len(blobs)} distinct report.json across {len(roots)} runs"]

