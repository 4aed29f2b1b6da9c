"""On-disk formats: binary tensor container, JSONL records, stage manifests.

The tensor container is a little-endian binary file:

    magic "RCTR" | u32 version | u32 tensor count
    per tensor: u16 name length | name utf-8 | u8 dtype tag | u8 ndim
                | u64 per dimension | raw row-major payload

Dtype tags: 0 = float32, 1 = float64, 2 = int64.  Metadata (detections,
segments, curves) travels as one JSON object per line.  Each pipeline stage
writes a manifest with sha256 digests of its inputs and outputs plus the
config fingerprint, which later runs use to validate inputs and to skip
work that is already done.

Every write goes to a temp file beside its target and then replaces the
target with ``os.replace``, so a process that dies mid-write leaves the
previous file, not a torn one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ManifestError

MAGIC = b"RCTR"
FORMAT_VERSION = 1

_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i8")}
_TAG_FOR_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.int64): 2}


@contextlib.contextmanager
def _replacing(path: Path, mode: str):
    """Handle on a temp file beside ``path`` that replaces it on a clean exit."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open(mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_text(path: Path | str, text: str) -> None:
    with _replacing(Path(path), "w") as fh:
        fh.write(text)


def write_tensors(path: Path | str, tensors: dict[str, np.ndarray]) -> None:
    path = Path(path)
    chunks = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(tensors))]
    for name, arr in tensors.items():
        a = np.ascontiguousarray(arr)
        if a.dtype not in _TAG_FOR_KIND:
            if np.issubdtype(a.dtype, np.integer):
                a = a.astype(np.int64)
            else:
                a = a.astype(np.float64)
        tag = _TAG_FOR_KIND[a.dtype]
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<BB", tag, a.ndim))
        chunks.append(struct.pack(f"<{a.ndim}Q", *a.shape))
        chunks.append(a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes(order="C"))
    with _replacing(path, "wb") as fh:
        fh.writelines(chunks)


def read_tensors(path: Path | str) -> dict[str, np.ndarray]:
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"missing tensor file {path}")
    raw = path.read_bytes()
    try:
        if raw[:4] != MAGIC:
            raise ManifestError(f"{path} is not a tensor container (bad magic)")
        version, count = struct.unpack_from("<II", raw, 4)
        if version != FORMAT_VERSION:
            raise ManifestError(f"{path}: unsupported container version {version}")
        off = 12
        out = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, off)
            off += 2
            name = raw[off : off + name_len].decode("utf-8")
            off += name_len
            tag, ndim = struct.unpack_from("<BB", raw, off)
            off += 2
            if tag not in _DTYPE_TAGS:
                raise ManifestError(f"{path}: unknown dtype tag {tag}")
            shape = struct.unpack_from(f"<{ndim}Q", raw, off)
            off += 8 * ndim
            dtype = _DTYPE_TAGS[tag]
            nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if ndim else dtype.itemsize
            payload = raw[off : off + nbytes]
            if len(payload) != nbytes:
                raise ManifestError(f"{path}: truncated payload for tensor '{name}'")
            off += nbytes
            out[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
        return out
    except (struct.error, UnicodeDecodeError, ValueError) as e:
        raise ManifestError(f"{path}: corrupt tensor container ({e})") from e


def write_records(path: Path | str, records: Iterable[dict]) -> None:
    with _replacing(Path(path), "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def write_int_records(path: Path | str, columns: Mapping[str, Sequence[int]]) -> None:
    """Flat integer records, one per row of ``columns``, as ``write_records`` writes them.

    Row i is the record ``{name: columns[name][i]}``: the same keys in the
    same sorted order, with the same separators, rendered by one format
    string instead of a ``json.dumps`` call per row.
    """
    names = sorted(columns)
    line = "{" + ", ".join(json.dumps(k).replace("%", "%%") + ": %d" for k in names) + "}\n"
    rows = zip(*(np.asarray(columns[k]).tolist() for k in names), strict=True)
    with _replacing(Path(path), "w") as fh:
        fh.writelines(line % row for row in rows)


def read_records(path: Path | str) -> list[dict]:
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"missing record file {path}")
    out = []
    with path.open() as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise ManifestError(f"{path}:{line_no}: corrupt record ({e})") from e
    return out


def sha256_file(path: Path | str) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fingerprint_payload(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def write_manifest(
    stage_dir: Path | str,
    stage: str,
    inputs: dict[str, str],
    outputs: list[Path | str],
    config_fingerprint: str,
    extra: dict | None = None,
) -> Path:
    stage_dir = Path(stage_dir)
    manifest = {
        "stage": stage,
        "schema_version": 1,
        "config_fingerprint": config_fingerprint,
        "inputs": inputs,
        "outputs": {Path(p).name: sha256_file(p) for p in outputs},
    }
    if extra:
        manifest["extra"] = extra
    path = stage_dir / "manifest.json"
    with _replacing(path, "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def read_manifest(stage_dir: Path | str) -> dict:
    path = Path(stage_dir) / "manifest.json"
    if not path.exists():
        raise ManifestError(f"missing manifest {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ManifestError(f"{path}: corrupt manifest ({e})") from e


def manifest_matches(stage_dir: Path | str, inputs: dict[str, str], config_fingerprint: str) -> bool:
    """True when a prior run of this stage used identical inputs and config."""
    stage_dir = Path(stage_dir)
    try:
        manifest = read_manifest(stage_dir)
    except ManifestError:
        return False
    if manifest.get("config_fingerprint") != config_fingerprint:
        return False
    if manifest.get("inputs") != inputs:
        return False
    for name, digest in manifest.get("outputs", {}).items():
        out_path = stage_dir / name
        if not out_path.exists() or sha256_file(out_path) != digest:
            return False
    return True


def validate_inputs(paths: dict[str, Path | str]) -> dict[str, str]:
    """Digest named input files, raising if any is missing."""
    digests = {}
    for name, p in sorted(paths.items()):
        p = Path(p)
        if not p.exists():
            raise ManifestError(f"missing input file {p} for '{name}'")
        digests[name] = sha256_file(p)
    return digests
