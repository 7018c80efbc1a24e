#!/usr/bin/env python3
"""Repeat benchmark runs over several seeds and summarise their spread.

    python3 benchmarks/steadiness.py --seeds 1-10 [--workloads a,b] [--seconds 30]
                                     [--traced-seed 1] [--out FILE]

Runs ``run.py`` once per workload and seed, sequentially, and prints for
every end-to-end metric the median, the quartiles (``statistics.quantiles``
with n=4) and the spread (interquartile distance over the median), next to
the metric's bound from ``BENCHMARK.json``.  With ``--traced-seed`` one
traced run per workload is added.  ``--out`` writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    record = {"run_seconds": args.seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs, kernels = [], []
        for seed in record["seeds"]:
            result, lines = run_once(workload, seed, args.seconds, 0)
            kernels += [float(m) for m in re.findall(r"kernel median ([0-9.]+) s", "\n".join(lines))]
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: INCORRECT ({result['failed']} failed)")
            runs.append(result)
        summary = {"attempted": summarise([r["attempted"] for r in runs]),
                   "kernel_median_s": summarise(kernels), "metrics": {}}
        print(f"\n{workload}: {len(runs)} runs, items per run "
              f"{summary['attempted']['median']:.0f} (q1 {summary['attempted']['q1']:.0f}), "
              f"kernel median {summary['kernel_median_s']['median']:.5f} s")
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = bound["unit"]
            summary["metrics"][name] = s
            ok = name == "setup_s" or s["spread"] < bound["bound"] / 3
            steady &= ok
            print(f"  {name:<12} median {s['median']:.5g} {bound['unit']:<8} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.3f} "
                  f"(bound {bound['bound']}){'' if ok else '  <-- above a third of the bound'}")
        if args.traced_seed is not None:
            traced, lines = run_once(workload, args.traced_seed, args.seconds, 1)
            summary["traced"] = {"seed": args.traced_seed, "correct": traced["correct"],
                                 "attempted": traced["attempted"],
                                 "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
                                 "diagnostics": lines}
            print("\n".join(f"  {line}" for line in lines if line.startswith(("stress", "calls", "traced"))))
        record["workloads"][workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
