"""On-disk formats: binary tensor container, JSONL records, stage manifests.

The tensor container is a little-endian binary file:

    magic "RCTR" | u32 version | u32 tensor count
    per tensor: u16 name length | name utf-8 | u8 dtype tag | u8 ndim
                | u64 per dimension | raw row-major payload

Dtype tags: 0 = float32, 1 = float64, 2 = int64.  Metadata (detections,
segments, curves) travels as one JSON object per line.  Each pipeline stage
writes a manifest with sha256 digests of its inputs and outputs plus the
config fingerprint, which later runs use to validate inputs and to skip
work that is already done, and a ``resources`` record of the time, minor
faults and peak memory that the stage took.

Every write goes to a temp file beside its target and then replaces the
target with ``os.replace``, so a process that dies mid-write leaves the
previous file, not a torn one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
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
        # The array's own C-order buffer, written without a copy.
        chunks.append(a.astype(a.dtype.newbyteorder("<"), copy=False).reshape(-1).view(np.uint8))
    with _replacing(path, "wb") as fh:
        fh.writelines(chunks)


def _read_exactly(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise struct.error(f"unexpected end of file, {len(data)} of {n} bytes")
    return data


def read_tensors(path: Path | str) -> dict[str, np.ndarray]:
    """The tensors of a container, each payload read straight into its array."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"missing tensor file {path}")
    try:
        with path.open("rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if fh.read(4) != MAGIC:
                raise ManifestError(f"{path} is not a tensor container (bad magic)")
            version, count = struct.unpack("<II", _read_exactly(fh, 8))
            if version != FORMAT_VERSION:
                raise ManifestError(f"{path}: unsupported container version {version}")
            out = {}
            for _ in range(count):
                (name_len,) = struct.unpack("<H", _read_exactly(fh, 2))
                name = _read_exactly(fh, name_len).decode("utf-8")
                tag, ndim = struct.unpack("<BB", _read_exactly(fh, 2))
                if tag not in _DTYPE_TAGS:
                    raise ManifestError(f"{path}: unknown dtype tag {tag}")
                shape = struct.unpack(f"<{ndim}Q", _read_exactly(fh, 8 * ndim))
                dtype = _DTYPE_TAGS[tag]
                nbytes = math.prod(shape) * dtype.itemsize
                if nbytes > size - fh.tell():
                    raise ManifestError(f"{path}: truncated payload for tensor '{name}'")
                arr = np.empty(shape, dtype=dtype)
                if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                    raise ManifestError(f"{path}: truncated payload for tensor '{name}'")
                out[name] = arr
            return out
    except (struct.error, UnicodeDecodeError, ValueError) as e:
        raise ManifestError(f"{path}: corrupt tensor container ({e})") from e


def write_records(path: Path | str, records: Iterable[dict]) -> None:
    with _replacing(Path(path), "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def _int_record_pieces(names: Sequence[str]) -> list[str]:
    """The literal text around the integers of a record with these sorted keys."""
    keys = [json.dumps(k) + ": " for k in names]
    return ["{" + keys[0], *(", " + k for k in keys[1:]), "}\n"]


def _int_record_format(names: Sequence[str]) -> str:
    """One record line with these sorted keys, as a ``%`` format of its integers."""
    return "%d".join(p.replace("%", "%%") for p in _int_record_pieces(names))


def write_int_records(path: Path | str, columns: Mapping[str, Sequence[int]]) -> None:
    """Flat integer records, one per row of ``columns``, as ``write_records`` writes them.

    Row i is the record ``{name: columns[name][i]}``: the same keys in the
    same sorted order, with the same separators, rendered by one format
    string instead of a ``json.dumps`` call per row.
    """
    names = sorted(columns)
    line = _int_record_format(names)
    rows = zip(*(np.asarray(columns[k]).tolist() for k in names), strict=True)
    with _replacing(Path(path), "w") as fh:
        fh.writelines(line % row for row in rows)


def read_int_records(path: Path | str, names: Iterable[str]) -> dict[str, np.ndarray]:
    """The int64 columns of a file that `write_int_records` wrote with these names.

    The key text is stripped and every integer parsed in one pass (one out
    of int64's range saturates, and so fails the check).  The parsed rows
    are then rendered with the writer's format string, and every line but a
    blank one must match that text exactly, so a cut, reordered,
    non-integer or extra-key line raises `ManifestError` naming the first
    such line.
    """
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"missing record file {path}")
    names = sorted(names)
    pieces = _int_record_pieces(names)
    line = _int_record_format(names)

    def parse(text: str) -> np.ndarray | None:
        """The integers of ``text`` if it is whole records, exactly as written."""
        fields = text
        for piece in pieces:
            fields = fields.replace(piece, " ")
        try:
            values = np.fromstring(fields, dtype=np.int64, sep=" ")
        except ValueError:
            return None
        n_rows, rest = divmod(len(values), len(names))
        return values if not rest and line * n_rows % tuple(values.tolist()) == text else None

    text = path.read_text()
    values = parse(text)
    if values is None:
        # Blank lines are skipped, as `read_records` skips them; every other
        # line must be a record.
        lines = [(i, got) for i, got in enumerate(text.splitlines(keepends=True), 1) if got.strip()]
        bad = next((i for i, got in lines if parse(got) is None), None)
        if bad is not None:
            raise ManifestError(f"{path}:{bad}: not a record of the integer keys {names}")
        values = parse("".join(got for _, got in lines))
    table = values.reshape(-1, len(names))
    return {name: table[:, i].copy() for i, name in enumerate(names)}


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
    """Hex digest of a file, read in blocks of up to 1 MiB into one buffer."""
    h = hashlib.sha256()
    with Path(path).open("rb", buffering=0) as fh:
        buf = memoryview(bytearray(min(max(os.fstat(fh.fileno()).st_size, 1), 1 << 20)))
        while n := fh.readinto(buf):
            h.update(buf[:n])
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
    resources: dict | None = None,
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
    if resources:
        manifest["resources"] = resources
    path = stage_dir / "manifest.json"
    with _replacing(path, "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def read_json(path: Path | str, keys: tuple[str, ...] = ()) -> dict:
    """The JSON object in ``path``, which must hold each of ``keys``.

    A missing or damaged file, a value that is not an object and a missing
    key raise `ManifestError`.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise ManifestError(f"unreadable metadata {path} ({e})") from e
    if not isinstance(payload, dict):
        raise ManifestError(f"{path} does not hold a JSON object")
    if missing := [k for k in keys if k not in payload]:
        raise ManifestError(f"{path} lacks the keys {missing}")
    return payload


def read_manifest(stage_dir: Path | str) -> dict:
    return read_json(Path(stage_dir) / "manifest.json")


def manifest_matches(stage_dir: Path | str, inputs: dict[str, str], config_fingerprint: str) -> bool:
    """True when a prior run of this stage used identical inputs and config.

    Only the fingerprint, the input digests and the output digests count;
    ``extra`` and ``resources`` describe that run and are not compared.
    """
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
