#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 --out bench/baseline.json

Runs bench/run.py on every workload of BENCHMARK.json at its
run_seconds, once per seed, one run at a time, plus one traced run per
workload on the first seed. For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median, and flags a
spread that is not below a third of the metric's bound. It does the
same for the unscaled figures each run reports on its "info unscaled"
line. --out writes the same figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    info = {}
    for line in lines[:-1]:
        if line.startswith("info "):
            _, key, value = line.split(" ", 2)
            info[key] = json.loads(value)
    return json.loads(lines[-1]), info


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def show(name: str, stats: dict, bound: float) -> None:
    flag = "" if stats["spread"] < bound / 3 else "  <-- spread >= bound/3"
    print(f"  {name:29s} median {stats['median']:12.6g} q1 {stats['q1']:12.6g} "
          f"q3 {stats['q3']:12.6g} spread {stats['spread']:.4f} bound {bound}{flag}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        summary["machine"] = runs[0][1]["machine"]
        entry = {
            "correct": all(r["correct"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "latency": [info["latency"] for _, info in runs],
            "scale": [info["scale"] for _, info in runs],
            "metrics": {},
            "unscaled": {},
        }
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}")
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r, _ in runs])
            stats["unit"] = runs[0][0]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
            show(name, stats, bound)
        for name in runs[0][1]["unscaled"]:
            stats = summarise([info["unscaled"][name] for _, info in runs])
            entry["unscaled"][name] = stats
            show(f"unscaled {name}", stats, bounds[name])
        traced, _ = run_once(workload, seeds[0], seconds, 1)
        entry["traced_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        for name, value in entry["per_layer"].items():
            print(f"  {name:26s} {value:12.6g} {traced['metrics'][name]['unit']}")
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
