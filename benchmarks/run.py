#!/usr/bin/env python3
"""laminal benchmark: three seeded workloads driven through laminal's entry points.

One run measures one workload in its own process:

    python3 benchmarks/run.py --workload search-mixture --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first repeats the
untraced run in a child process, then runs the same items again with every
traced boundary wrapped and prints the per-layer metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

    python3 benchmarks/run.py --all [--seed N] [--seconds S]

runs every workload (each in its own process) and prints a table.

    python3 benchmarks/run.py --record-reference --items N [--workload W]

records the answer digests of the first N items of each workload (or of W)
on the default seed into ``reference.json``.

The benchmark imports laminal from ``src/`` next to this directory and
writes only under ``.bench_work/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

from lambench import checks, kernel  # noqa: E402
from lambench.generator import WORKLOADS, InputStream  # noqa: E402
from lambench.measure import Runner, end_to_end, layer_metrics, tail_percentile  # noqa: E402
from lambench.tracer import Tracer  # noqa: E402

DEFAULT_SEED = 1
MIN_ITEMS = 10  # also the length of the prefix the run digest covers
SETUP_PROBES = 9
WALL_CAP_S = 75.0  # a traced pass stops here even if untraced items remain
#: Items each workload completes in a 30 s run on the baseline machine (any
#: count from 40 to 99 gives p75); the tail percentile is fixed from these,
#: so it is the same on every run.
BUILDER_ITEMS = {"search-mixture": 45, "lattice-dense": 60, "audit-corpus": 50}
UNITS = {"setup_s": "s", "item_p50_s": "s", "item_tail_s": "s", "items_per_s": "items/s",
         "peak_rss_mb": "MB"}


def import_laminal():
    """Import laminal from this checkout's sources, or exit with an error."""
    if not (SRC / "laminal" / "__init__.py").is_file():
        sys.exit(f"error: laminal sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import laminal
    import laminal.cli  # noqa: F401

    if Path(laminal.__file__).resolve().parent != (SRC / "laminal").resolve():
        sys.exit(f"error: imported laminal from {laminal.__file__}, not from {SRC}")
    return laminal


def reference_digests(workload: str, seed: int) -> list[str]:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return []
    return json.loads(REFERENCE.read_text())["digests"].get(workload, [])


def setup_probe(workload: str, seed: int) -> None:
    """Do what a run does before its first timed item; print how long it took.

    The clock starts just before laminal is imported, so the interpreter's
    start-up and the benchmark's own imports are left out.
    """
    t0 = time.perf_counter()
    laminal = import_laminal()
    WORK.mkdir(exist_ok=True)
    runner = Runner(laminal, workload, seed, WORK)
    runner.model_path = WORK / f"{workload}.probe.model"
    runner.prepare(next(runner.stream))
    print(time.perf_counter() - t0)


class SetupProbes:
    """Set-up timed in fresh processes, spread through the run.

    One probe runs after every PROBE_EVERY-th item (outside the timed
    region), so the median covers the machine's state over the whole run
    rather than over one burst; probes still missing when the loop ends run
    then.  The median is normalised by the run's median kernel time: single
    adjacent kernel runs were too noisy for probes this short.
    """

    PROBE_EVERY = 4

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)]
        self.times: list[float] = []

    def probe(self) -> None:
        out = subprocess.run(self.cmd, check=True, timeout=60, capture_output=True, text=True)
        self.times.append(float(out.stdout.split()[-1]))

    def __call__(self, done: int) -> bool:
        if done % self.PROBE_EVERY == 1 and len(self.times) < SETUP_PROBES:
            self.probe()
            return True
        return False

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def describe(results, stream: InputStream, workload: str, seed: int) -> None:
    digests = [r.digest for r in results]
    print(f"workload {workload} seed {seed}: {len(results)} items "
          f"({', '.join(f'{k} {sum(r.kind == k for r in results)}' for k in sorted({r.kind for r in results}))})")
    print(f"input hash {stream.input_hash()}")
    print(f"run digest (first {MIN_ITEMS} items) {checks.combined_digest(digests[:MIN_ITEMS])}")
    print(f"run digest (all {len(results)} items) {checks.combined_digest(digests)}")
    for r in results:
        for p in r.problems:
            print(f"FAILED item {r.index} ({r.kind}): {p}")


def run_untraced(args) -> int:
    laminal = import_laminal()
    WORK.mkdir(exist_ok=True)
    probes = SetupProbes(args.workload, args.seed)
    runner = Runner(laminal, args.workload, args.seed, WORK,
                    reference_digests(args.workload, args.seed))
    gc.collect()
    gc.freeze()
    results = runner.loop(args.seconds, MIN_ITEMS, between=probes)
    setup_s = probes.median() * kernel.C_REF / statistics.median(runner.kernel_times)
    tail_p = tail_percentile(BUILDER_ITEMS[args.workload])
    e2e = end_to_end(results, tail_p)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sum(1 for r in results if r.problems)
    if args.items_out:
        Path(args.items_out).write_text(json.dumps(
            [{"index": r.index, "kind": r.kind, "digest": r.digest, "raw_s": r.raw_s,
              "norm_s": r.norm_s, "kernel_after_s": k}
             for r, k in zip(results, runner.kernel_times)]))
    describe(results, runner.stream, args.workload, args.seed)
    print(f"item_tail_s is p{tail_p} over {len(results)} items; "
          f"raw item p50 {e2e['raw_item_p50_s']:.4f} s; "
          f"kernel median {statistics.median(runner.kernel_times):.5f} s; "
          f"failed_share {e2e['failed_share']:.4f} ratio")
    metrics = {"setup_s": setup_s, "item_p50_s": e2e["item_p50_s"],
               "item_tail_s": e2e["item_tail_s"], "items_per_s": e2e["items_per_s"],
               "peak_rss_mb": peak_mb}
    print(result_line(failed == 0, len(results), failed, metrics, UNITS))
    return 0


def run_traced(args) -> int:
    laminal = import_laminal()
    WORK.mkdir(exist_ok=True)
    items_file = WORK / f"untraced-{args.workload}.json"
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--items-out", str(items_file)],
        capture_output=True, text=True, timeout=90)
    if child.returncode != 0:
        sys.stderr.write(child.stdout + child.stderr)
        sys.exit("error: untraced pass failed")
    untraced = json.loads(items_file.read_text())
    runner = Runner(laminal, args.workload, args.seed, WORK,
                    reference_digests(args.workload, args.seed))
    tracer = Tracer()
    gc.collect()
    gc.freeze()
    with tracer:
        results = runner.loop(WALL_CAP_S, min(MIN_ITEMS, len(untraced)),
                              max_items=len(untraced), tracer=tracer)
    metrics, shares, kind_calls = layer_metrics(tracer, results)
    base = untraced[:len(results)]
    for r, u in zip(results, base):
        if r.digest != u["digest"]:
            r.problems.append("traced answer differs from the untraced answer")
    metrics["trace.overhead_share"] = \
        sum(r.norm_s for r in results) / sum(u["norm_s"] for u in base) - 1
    tracer.write(WORK / f"spans-{args.workload}.bin")
    describe(results, runner.stream, args.workload, args.seed)
    print(f"traced {len(results)} of {len(untraced)} untraced items; "
          f"{tracer.calls()} spans; absent boundaries: {', '.join(tracer.absent) or 'none'}")
    print("stress shares of item time: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    for kind, counts in sorted(kind_calls.items()):
        print(f"calls per {kind} item: " + ", ".join(f"{k} {v:.1f}" for k, v in counts.items()))
    units = {k: ("calls/item" if k.endswith(".calls") else "s/item" if k.endswith(".self_s")
                 else "parts/item" if k.endswith(".items") else "ratio") for k in metrics}
    failed = sum(1 for r in results if r.problems)
    print(result_line(failed == 0, len(results), failed, metrics, units))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table of the end-to-end metrics."""
    ok = True
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        rows.append((workload, result))
        for line in lines[:-1]:
            print(line)
    print()
    print(f"{'workload':<16} {'metric':<14} {'value':>12}  unit")
    for workload, result in rows:
        metrics = dict(result["metrics"])
        metrics["failed_share"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        for name in (*UNITS, "failed_share"):
            m = metrics[name]
            print(f"{workload:<16} {name:<14} {m['value']:>12.4f}  {m['unit']}")
    return 0 if ok else 1


def record_reference(args) -> int:
    laminal = import_laminal()
    WORK.mkdir(exist_ok=True)
    digests = json.loads(REFERENCE.read_text())["digests"] if REFERENCE.is_file() else {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        runner = Runner(laminal, workload, DEFAULT_SEED, WORK)
        results = runner.loop(float("inf"), args.items, max_items=args.items)
        bad = [r for r in results if r.problems]
        if bad:
            sys.exit(f"error: {workload} item {bad[0].index} failed: {bad[0].problems}")
        digests[workload] = [r.digest for r in results]
        print(f"{workload}: {len(results)} digests, run digest "
              f"{checks.combined_digest(digests[workload][:MIN_ITEMS])}")
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--items", type=int, default=100)
    parser.add_argument("--items-out", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.record_reference:
        return record_reference(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    return run_traced(args) if args.trace else run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
