"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 bench/steady.py                     # run both sets, then summarize
    python3 bench/steady.py --summarize FILE    # reprint the tables of a finished pair

Runs bench/run.py --trace 0 once per seed and workload of BENCHMARK.json:
set 0 uses seeds 1-10 and set 1 seeds 11-20.  Every result line is appended
to results/steady-<time>.jsonl as it arrives.  It then prints, for each
end-to-end metric and workload, each set's median and quartiles, the spread
(q3 - q1) / median of each set, and how far set 1's median moved from set
0's, in either direction.  A row passes when both spreads and the move stay
within the metric's bound from BENCHMARK.json; a spread above a third of the
bound is starred.  The share of failed operations must be the same in both
sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
SETS = 2


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(out: Path) -> None:
    seconds = str(spec()["run_seconds"])
    for k in range(SETS):
        for w in spec()["workloads"]:
            for seed in range(k * RUNS + 1, k * RUNS + RUNS + 1):
                t0 = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", w["name"], "--seed", str(seed),
                     "--seconds", seconds, "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900,
                )
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                row = {"set": k, "workload": w["name"], "seed": seed, "rc": proc.returncode,
                       "wall_s": time.monotonic() - t0, "result": result}
                with out.open("a") as fh:
                    fh.write(json.dumps(row) + "\n")
                print(f"set {k} {w['name']} seed {seed}: rc {proc.returncode} in {row['wall_s']:.1f} s", flush=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(out: Path) -> bool:
    rows = [json.loads(line) for line in out.read_text().splitlines() if line.strip()]
    metrics = spec()["end_to_end"]
    workloads = list(dict.fromkeys(r["workload"] for r in rows))
    sets = range(SETS)
    steady = True
    for name in workloads:
        mine = [r for r in rows if r["workload"] == name]
        bad = [r for r in mine if r["result"] is None or not r["result"]["correct"]]
        if bad:
            steady = False
            print(f"{name}: {len(bad)} runs exited non-zero or failed a check: seeds {[r['seed'] for r in bad]}")
        shares = {
            k: sorted({r["result"]["failed"] / r["result"]["attempted"] for r in mine if r["set"] == k and r["result"]})
            for k in sets
        }
        if len({tuple(v) for v in shares.values()}) > 1:
            steady = False
        print(f"\n## {name}: runs per set {[sum(1 for r in mine if r['set'] == k) for k in sets]}, "
              f"failed shares {shares}")
        print("| metric | bound | " + " | ".join(f"set {k} median [q1, q3] (spread)" for k in sets)
              + " | median moved | ok |")
        print("|---|---|" + "---|" * len(sets) + "---|---|")
        for m in metrics:
            values = [[r["result"]["metrics"][m["name"]]["value"] for r in mine if r["set"] == k and r["result"]]
                      for k in sets]
            if min(len(v) for v in values) < 2:
                steady = False
                print(f"| {m['name']} | {m['bound']:.0%} | fewer than two results in a set | NO |")
                continue
            cells, ok = [], True
            for q1, med, q3 in map(quartiles, values):
                spread = (q3 - q1) / med
                ok &= spread <= m["bound"]
                wide = "*" if spread > m["bound"] / 3 else ""
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] ({spread:.1%}{wide})")
            first, last = statistics.median(values[0]), statistics.median(values[-1])
            moved = (last - first) / first
            ok &= abs(moved) <= m["bound"]
            steady &= ok
            print(f"| {m['name']} | {m['bound']:.0%} | " + " | ".join(cells)
                  + f" | {moved:+.1%} | {'yes' if ok else 'NO'} |")
    print("\n(*: spread above a third of the bound)")
    print(f"steady: {'yes' if steady else 'NO'}")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summarize", type=Path, default=None, metavar="FILE")
    args = parser.parse_args(argv)
    out = args.summarize
    if out is None:
        out = BENCH / "results" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
        out.parent.mkdir(parents=True, exist_ok=True)
        collect(out)
    return 0 if summarize(out) else 1


if __name__ == "__main__":
    sys.exit(main())
