"""Benchmark of `camreid run`, end to end, one process per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts `camreid run` (through launch.py, from this checkout's
src/) into a fresh directory with OpenBLAS, OpenMP and MKL pinned to one
thread and glibc's mmap threshold held at its starting value (see
CHILD_ENV).  Runs repeat until the next one would end after S seconds;
there is always at least one.
Set-up time is also sampled by a few processes that stop where the first
stage would begin.  After the timed region every run directory goes through
the independent checker (check.py), a second `run` on it must change
nothing, and all runs must write the same report.json.

With --trace 0 the last stdout line holds the end-to-end metrics (medians
over the runs); with --trace 1 one extra run is traced (spans.py) and the
line holds the per-layer metrics, plus the tracing overhead against the
untraced runs of the same invocation; the spans are kept in results/.
Workload configs are the JSON files in workloads/; --seed overrides their
seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 15
# The benchmark measures the program's own single-threaded speed.  With
# OpenBLAS on both cores of a small machine, wall and CPU times move with
# whatever else the machine runs.  glibc's malloc starts with a 128 KiB mmap
# threshold and raises it as it frees mapped blocks; whether a default-short
# run then keeps a training step's multi-MiB temporaries in the heap or faults
# them in afresh every step depends on the run's allocation history, down to
# the seed and the lengths of the paths it is given, and the two paths differ
# by a quarter of the run time (see the README).  Holding the threshold at
# glibc's own starting value turns that adjustment off, so every run takes
# the faulting path that most seeds take by default and the cost shows in
# full.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(128 << 10),
}


def log(msg: str) -> None:
    print(f"[bench] {msg}", file=sys.stderr, flush=True)


class Workload:
    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.work = work
        self.config = BENCH / "workloads" / f"{name}.json"
        self.env = {**os.environ, **CHILD_ENV}

    def argv(self, out: Path, *launch_flags: str) -> list[str]:
        return [
            sys.executable, str(BENCH / "launch.py"), *launch_flags, "--",
            "run", "--config", str(self.config), "--seed", str(self.seed), "--out", str(out),
        ]

    def launch(self, tag: str, *flags: str) -> dict:
        """One `camreid run` process; wall, CPU and peak RSS come from wait4."""
        out = self.work / tag
        probe = self.work / f"{tag}.probe.json"
        t0 = time.monotonic()
        proc = subprocess.Popen(self.argv(out, "--probe", str(probe), *flags), env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        first_stage = json.loads(probe.read_text())["first_stage"] if probe.exists() else None
        return {
            "tag": tag,
            "dir": out,
            "ok": proc.returncode == 0 and first_stage is not None,
            "rc": proc.returncode,
            "run_s": t1 - t0,
            "setup_s": None if first_stage is None else first_stage - t0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "minor_faults": usage.ru_minflt,
        }


def verify(wl: Workload, runs: list[dict]) -> list[str]:
    failures = []
    for r in runs:
        for f in check.check_run(r["dir"]):
            failures.append(f"{r['tag']}: {f}")
        for f in check.check_resume(r["dir"], wl.argv(r["dir"]), wl.env):
            failures.append(f"{r['tag']}: {f}")
    failures += check.check_same_reports([r["dir"] for r in runs])
    return failures


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(wl: Workload, seconds: float, trace: bool) -> dict:
    # Half the set-up probes go before the timed runs and half after, so
    # that setup_s samples the machine over the whole invocation.
    setups = [wl.launch(f"setup{i}", "--setup-only") for i in range(SETUP_PROBES // 2)]
    t_start = time.monotonic()
    traced = wl.launch("traced", "--trace", str(wl.work / "spans.json")) if trace else None
    runs: list[dict] = []
    while True:
        runs.append(wl.launch(f"run{len(runs)}"))
        log(f"{wl.name} seed {wl.seed}: run {len(runs)} took {runs[-1]['run_s']:.2f} s, "
            f"{runs[-1]['minor_faults']} minor faults (rc {runs[-1]['rc']})")
        elapsed = time.monotonic() - t_start
        if elapsed + statistics.median(r["run_s"] for r in runs) > seconds:
            break
    setups += [wl.launch(f"setup{i}", "--setup-only") for i in range(SETUP_PROBES // 2, SETUP_PROBES)]

    attempts = setups + runs + ([traced] if traced else [])
    done = [r for r in runs if r["ok"]]
    checked = done + ([traced] if traced and traced["ok"] else [])
    failures = verify(wl, checked)
    for f in failures:
        log(f"check failed: {f}")
    if not done:
        raise RuntimeError(f"every run of {wl.name} failed: exit codes {[r['rc'] for r in runs]}")

    def median(key, rows=done):
        return statistics.median(r[key] for r in rows)

    if trace:
        if not traced["ok"]:
            raise RuntimeError(f"the traced run of {wl.name} exited {traced['rc']}")
        kept = RESULTS / f"{wl.name}-s{wl.seed}-spans.json"
        shutil.copyfile(wl.work / "spans.json", kept)
        values = spans.layer_metrics(kept)
        values["trace.run_s"] = traced["run_s"]
        values["trace.overhead_s"] = traced["run_s"] - median("run_s")
        expected = sum(check.Run(traced["dir"]).optimizer_steps().values())
        if values["contrastive.steps"] != expected:
            failures.append(f"traced: {values['contrastive.steps']} optimizer steps, artifacts imply {expected}")
    else:
        report = check.Run(done[0]["dir"]).report()
        values = {
            "run_s": median("run_s"),
            "setup_s": median("setup_s", [r for r in setups + done if r["ok"]]),
            "cpu_s": median("cpu_s"),
            "peak_rss_mb": median("peak_rss_mb"),
            "train_rows_per_s": statistics.median(check.Run(r["dir"]).train_rows_per_s() for r in done),
            "rank1": float(report["cmc"]["1"]),
            "map": float(report["mean_ap"]),
        }
    units = metric_units(trace)
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    return {
        "correct": not failures,
        "attempted": len(attempts),
        "failed": sum(1 for r in attempts if not r["ok"]),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "camreid" / "cli.py").is_file():
        log(f"no camreid sources under {ROOT / 'src'}")
        return 2
    if not (BENCH / "workloads" / f"{args.workload}.json").is_file():
        log(f"unknown workload {args.workload!r}")
        return 2
    work = BENCH / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        result = measure(Workload(args.workload, args.seed, work), args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = json.dumps(result)
    (RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
