#!/usr/bin/env python3
"""Run perfbench/run.py over several seeds and summarise each metric.

Usage, from the repository root:

    python3 perfbench/collect.py [--seeds 1-10] [--workload s2-sparse ...]
        [--out perfbench/baseline.json]

Runs are sequential, one process at a time, for --seconds as in
BENCHMARK.json.  For every workload and end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the bound in BENCHMARK.json.  With --out it
also makes one traced run per workload at the first seed and writes
medians, quartiles, spreads and the traced per-layer metrics as JSON
(the format of perfbench/baseline.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          + " ".join(f"{k}={v:.4g}" for k, v in values.items() if not trace), flush=True)
    return values


def machine() -> str:
    versions = ", ".join(f"{pkg} {metadata.version(pkg)}" for pkg in ("numpy", "scipy"))
    return (f"{platform.platform()}, {os.cpu_count()} CPUs, "
            f"Python {platform.python_version()}, {versions}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seeds = seed_list(args.seeds)
    if len(seeds) < 2:
        ap.error("--seeds needs at least two seeds for quartiles")
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    end_to_end = {}
    for wl in args.workload:
        per_metric: dict[str, list[float]] = {}
        for seed in seeds:
            for name, value in run_once(wl, seed, seconds, 0).items():
                per_metric.setdefault(name, []).append(value)
        end_to_end[wl] = {name: summarise(vals) for name, vals in per_metric.items()}
        for name, s in end_to_end[wl].items():
            bound = bounds[name]
            flag = "  OVER" if s["spread"] > bound else (
                "  over a third" if s["spread"] > bound / 3 else "")
            print(f"  {name:20} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f}  bound {bound:.2f}{flag}",
                  flush=True)
    if args.out:
        traced = {wl: run_once(wl, seeds[0], seconds, 1) for wl in args.workload}
        report = {
            "about": "perfbench/collect.py --seeds " + args.seeds + ": end_to_end "
                     "holds the median, quartiles (statistics.quantiles, n=4) and "
                     "spread (q3 - q1) / median of each --trace 0 metric over the "
                     "seeds; traced holds the per-layer metrics of one --trace 1 "
                     "run per workload at traced_seed.",
            "machine": machine(),
            "run_seconds": seconds,
            "seeds": seeds,
            "end_to_end": end_to_end,
            "traced_seed": seeds[0],
            "traced": traced,
        }
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
