"""Run the benchmark over several seeds and summarise it as one trajectory
point.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/baseline.json

For every workload of BENCHMARK.json, at its run_seconds: one untraced run
per seed, each end-to-end metric reported as median, quartiles
(statistics.quantiles, n=4) and spread (IQR over median); then two traced
runs on the first seed, whose per-layer metrics are recorded together with
whether the named counts repeated exactly.  Runs are sequential, one
process at a time.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEAT_COUNTS = ("halfline.eig_cache_misses", "histories.evolutions_per_row",
                 "arrival.widen_rounds", "arrival.useful_sample_ratio",
                 "arrival.phase_entries")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["notes"] = lines[:-1]
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    names = [m["name"] for m in bench["end_to_end"]]

    record = {"seeds": seeds, "run_seconds": seconds,
              "python": platform.python_version(), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [one_run(workload, s, seconds, 0) for s in seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "run_wall_s": [round(r["wall_s"], 2) for r in runs],
                 "notes_first_seed": runs[0]["notes"],
                 "end_to_end": {}}
        for name in names:
            entry["end_to_end"][name] = summary(
                [r["metrics"][name]["value"] for r in runs])
        traced = [one_run(workload, seeds[0], seconds, 1) for _ in range(2)]
        a, b = (t["metrics"] for t in traced)
        entry["per_layer"] = {k: v["value"] for k, v in a.items()}
        entry["per_layer_second_run"] = {k: v["value"] for k, v in b.items()}
        entry["counts_repeat_exactly"] = {
            k: a[k]["value"] == b[k]["value"] for k in REPEAT_COUNTS}
        entry["traced_correct"] = all(t["correct"] for t in traced)
        record["workloads"][workload] = entry
        print(f"{workload}: " + ", ".join(
            f"{k} {v['median']:.4g} (spread {v['spread'] or 0:.3f})"
            for k, v in entry["end_to_end"].items()), flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
