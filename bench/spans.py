"""Spans around calls into camreid's public functions, and the per-layer
metrics computed from them.

`Tracer.install` replaces every public function of every loaded camreid
module, and every public method of the classes they define, with a wrapper
that records one span per call: name, start, end and the span that was
open when the call began.  A function imported by name into another module
(`ccr` does `from .linalg import svd_thin`) is replaced there too, so each
caller's own lookup finds the wrapper.  Spans stay in memory and are written
out once, by `Tracer.dump`, when the run ends.

`layer_metrics` reads such a file and turns it into the per-layer metrics
that BENCHMARK.json lists.  From the command line,

    python3 bench/spans.py SPANS.json [ROOT_SPAN]

prints calls, total and self time per span name, over the whole run or
under the spans named ROOT_SPAN (for example pipeline.stage_train_tsd).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# Counts recorded at the same boundaries as the spans:
# span name -> (count name, value of one call from its args and result).
_COUNTERS = {
    "encoder.forward": ("encoder.forward_rows", lambda args, result: len(result)),
    "storage.sha256_file": ("storage.sha256_bytes", lambda args, result: os.path.getsize(args[0])),
    "storage.write_tensors": ("storage.written_bytes", lambda args, result: os.path.getsize(args[0])),
    "storage.write_records": ("storage.written_bytes", lambda args, result: os.path.getsize(args[0])),
    "storage.write_manifest": ("storage.written_bytes", lambda args, result: os.path.getsize(result)),
    "tracklet.filter_segments": ("tracklet.segments_kept", lambda args, result: len(result)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ix = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def wrap(self, name: str, fn):
        ix = len(self.names)
        self.names.append(name)
        counter = _COUNTERS.get(name)
        name_ix, start, end, parent, stack = self.name_ix, self.start, self.end, self.parent, self._stack
        counts = self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(start)
            name_ix.append(ix)
            parent.append(stack[-1])
            end.append(0)
            stack.append(me)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[me] = clock()
                stack.pop()
            if counter is not None:
                counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self, package: str = "camreid") -> None:
        """Wrap every public function and method of the loaded package."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        wrappers: dict[int, object] = {}

        def wrapped(fn):
            if id(fn) not in wrappers:
                short = fn.__module__.rsplit(".", 1)[-1]
                wrappers[id(fn)] = self.wrap(f"{short}.{fn.__qualname__}", fn)
            return wrappers[id(fn)]

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith(package):
                    setattr(mod, attr, wrapped(obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        if isinstance(raw, staticmethod):
                            setattr(obj, meth, staticmethod(wrapped(raw.__func__)))
                        elif inspect.isfunction(raw):
                            setattr(obj, meth, wrapped(raw))

    def dump(self, path: Path) -> None:
        Path(path).write_text(
            json.dumps(
                {
                    "names": self.names,
                    "name": self.name_ix.tolist(),
                    "start_ns": self.start.tolist(),
                    "end_ns": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "counts": dict(self.counts),
                }
            )
        )


STAGES = ("simulate", "train_cid", "extract", "trackletize", "train_tsd", "fit_ccr", "evaluate")
# Children of a stage span that do the stage's work; the rest of the stage's
# time (loading, digests, manifests, writes) is glue.
_STAGE_WORK = {
    "pipeline.build_benchmark",
    "synth.simulate_stream",
    "pipeline.train_cid",
    "pipeline.embed_all",
    "pipeline.mine_segments",
    "pipeline.train_tsd",
    "pipeline.fit_ccr",
    "evaluation.evaluate",
}
# metric suffix -> span name, reported as <span module>.<suffix>
_TIMES = {
    "encoder.forward_s": "encoder.forward",
    "encoder.backward_s": "encoder.backward",
    "encoder.sgd_step_s": "encoder.sgd_step",
    "encoder.momentum_update_s": "encoder.momentum_update",
    "contrastive.sample_pair_s": "contrastive.sample_tsd_pair",
    "contrastive.bank_enqueue_s": "contrastive.MemoryBank.enqueue",
    "synth.augment_batch_s": "synth.augment_batch",
    "synth.simulate_stream_s": "synth.simulate_stream",
    "tracklet.assemble_s": "tracklet.assemble_segments",
    "ccr.fit_classifier_s": "ccr.fit_camera_classifier",
    "ccr.build_projector_s": "ccr.build_projector",
    "ccr.apply_s": "ccr.apply_ccr",
    "evaluation.evaluate_s": "evaluation.evaluate",
    "evaluation.rank_gallery_s": "evaluation.rank_gallery",
    "linalg.svd_thin_s": "linalg.svd_thin",
    "storage.sha256_s": "storage.sha256_file",
    "storage.read_records_s": "storage.read_records",
    "storage.read_tensors_s": "storage.read_tensors",
}
_CALLS = {
    "contrastive.steps": "encoder.sgd_step",
    "encoder.forward_calls": "encoder.forward",
    "encoder.backward_calls": "encoder.backward",
    "contrastive.sample_pair_calls": "contrastive.sample_tsd_pair",
    "synth.augment_batch_calls": "synth.augment_batch",
    "synth.simulate_stream_calls": "synth.simulate_stream",
    "tracklet.mutual_matches_calls": "tracklet.mutual_matches",
    "evaluation.rank_gallery_calls": "evaluation.rank_gallery",
    "storage.sha256_calls": "storage.sha256_file",
    "storage.read_records_calls": "storage.read_records",
}
_COUNTS = ("encoder.forward_rows", "tracklet.segments_kept", "storage.sha256_bytes", "storage.written_bytes")
_WRITES = ("storage.write_tensors", "storage.write_records", "storage.write_manifest")


def load(path: Path):
    """Span names, name index, duration, self time and parent of every span."""
    raw = json.loads(Path(path).read_text())
    ix = np.array(raw["name"], dtype=np.int64)
    dur = (np.array(raw["end_ns"], dtype=np.int64) - np.array(raw["start_ns"], dtype=np.int64)) / 1e9
    parent = np.array(raw["parent"], dtype=np.int64)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return raw, ix, dur, dur - child_time, parent


def layer_metrics(path: Path) -> dict[str, float]:
    """Per-layer metrics from a span file written by `Tracer.dump`."""
    raw, ix, dur, self_time, parent = load(path)
    names = raw["names"]
    has_parent = parent >= 0
    span_of = {n: i for i, n in enumerate(names)}

    def spans(name):
        return ix == span_of.get(name, -1)

    out: dict[str, float] = {}
    stage_mask = np.zeros(len(dur), dtype=bool)
    for stage in STAGES:
        mask = spans(f"pipeline.stage_{stage}")
        stage_mask |= mask
        out[f"pipeline.{stage}_s"] = float(dur[mask].sum())
    work = np.isin(ix, [span_of[n] for n in _STAGE_WORK if n in span_of])
    under_stage = has_parent & stage_mask[np.where(has_parent, parent, 0)]
    out["pipeline.glue_s"] = float(dur[stage_mask].sum() - dur[under_stage & work].sum())
    epochs = spans("contrastive.cid_epoch") | spans("contrastive.tsd_epoch")
    out["contrastive.epoch_self_s"] = float(self_time[epochs].sum())
    for metric, name in _TIMES.items():
        out[metric] = float(dur[spans(name)].sum())
    for metric, name in _CALLS.items():
        out[metric] = int(spans(name).sum())
    for name in _COUNTS:
        out[name] = int(raw["counts"].get(name, 0))
    out["storage.write_s"] = float(sum(self_time[spans(n)].sum() for n in _WRITES))
    out["trace.spans"] = int(len(dur))
    return out


def self_time_table(path: Path, root: str | None = None) -> list[tuple[str, int, float, float]]:
    """(name, calls, total s, self s) per span name, largest self time first."""
    raw, ix, dur, self_time, parent = load(path)
    names = raw["names"]
    keep = np.ones(len(dur), dtype=bool)
    if root is not None:
        # Spans are stored in start order, so a parent precedes its children.
        keep = ix == names.index(root)
        for i in np.flatnonzero(parent >= 0):
            keep[i] |= keep[parent[i]]
    rows = []
    for n in np.unique(ix[keep]):
        m = keep & (ix == n)
        rows.append((names[n], int(m.sum()), float(dur[m].sum()), float(self_time[m].sum())))
    return sorted(rows, key=lambda r: -r[3])


if __name__ == "__main__":
    table = self_time_table(Path(sys.argv[1]), sys.argv[2] if len(sys.argv) > 2 else None)
    print(f"| span | calls | total s | self s |\n|---|---|---|---|")
    for name, calls, total, own in table:
        print(f"| {name} | {calls} | {total:.3f} | {own:.3f} |")
