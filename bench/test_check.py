"""Tests for the independent output checker.

    python3 -m pytest bench/test_check.py

One small `camreid run` is made once; the checker must pass it as written
and reject copies with one altered result.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402

BENCH = Path(__file__).resolve().parent
TINY = {
    "schema_version": 1,
    "n_identities": 40,
    "n_cameras": 3,
    "stream": {"duration_frames": 300},
    "contrastive": {"batch_size": 64, "bank_size": 256, "epochs_cid": 1, "epochs_tsd": 2},
}
_TAGS = {np.dtype("<f4"): 0, np.dtype("<f8"): 1, np.dtype("<i8"): 2}


def write_rctr(path: Path, tensors: dict[str, np.ndarray]) -> None:
    chunks = [b"RCTR", struct.pack("<II", 1, len(tensors))]
    for name, a in tensors.items():
        a = np.ascontiguousarray(a)
        chunks += [
            struct.pack("<H", len(name)), name.encode(),
            struct.pack("<BB", _TAGS[a.dtype], a.ndim), struct.pack(f"<{a.ndim}Q", *a.shape), a.tobytes(),
        ]
    path.write_bytes(b"".join(chunks))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    config = work / "tiny.json"
    config.write_text(json.dumps(TINY))
    argv = [sys.executable, str(BENCH / "launch.py"), "--", "run", "--config", str(config), "--seed", "3",
            "--out", str(work / "run")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=300)
    return work / "run", argv, env


def copy_of(run: Path, tmp_path: Path) -> Path:
    return Path(shutil.copytree(run, tmp_path / "copy"))


def test_written_run_passes_every_check(tiny_run):
    run, argv, env = tiny_run
    assert check.check_run(run) == []
    assert check.check_resume(run, argv, env) == []
    assert check.check_same_reports([run, run]) == []


def test_report_with_one_altered_ap_is_rejected(tiny_run, tmp_path):
    run = copy_of(tiny_run[0], tmp_path)
    path = run / "eval" / "report.json"
    report = json.loads(path.read_text())
    ap = float(report["per_query_ap"][0])
    report["per_query_ap"][0] = repr(ap - 0.01 if ap > 0.5 else ap + 0.01)
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    failures = check.check_run(run)
    assert any(f.startswith("report: AP of 1 queries differs, first [0]") for f in failures), failures
    assert check.check_same_reports([tiny_run[0], run]) != []


def test_projector_with_one_dropped_column_is_rejected(tiny_run, tmp_path):
    run = copy_of(tiny_run[0], tmp_path)
    path = run / "ccr" / "projector.rctr"
    tensors = dict(check.read_rctr(path))
    tensors["v"] = tensors["v"][:, :-1]
    write_rctr(path, tensors)
    failures = check.check_run(run)
    assert any(f.startswith("ccr: V has shape") for f in failures), failures
    assert any(f.startswith("report:") for f in failures), failures
    assert any(f.startswith("manifests: ccr/projector.rctr") for f in failures), failures
