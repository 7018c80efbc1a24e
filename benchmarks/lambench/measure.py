"""Closed-loop measurement of one workload, untraced or traced.

One client on one thread: each item starts when the previous one returned.
Generating and preparing an item, garbage collection and answer checks
happen outside the timed region; the reference kernel runs after every
item, so each item has a kernel run on both sides for normalisation.
"""

from __future__ import annotations

import contextlib
import gc
import io
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import checks
from .generator import CYCLE, InputStream, Item
from .kernel import normalise, time_kernel
from .tracer import SPANS, Tracer

#: Percentiles the tail metric may use; it takes the highest that leaves at
#: least TAIL_MIN_BEYOND items beyond it.
TAIL_GRID = (75, 90, 95, 99)
TAIL_MIN_BEYOND = 10


def tail_percentile(n_items: int) -> int:
    """Highest grid percentile leaving at least TAIL_MIN_BEYOND items beyond it."""
    fits = [p for p in TAIL_GRID if n_items * (100 - p) / 100 >= TAIL_MIN_BEYOND]
    if not fits:
        raise ValueError(f"{n_items} items leave fewer than {TAIL_MIN_BEYOND} beyond p{TAIL_GRID[0]}")
    return max(fits)


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


@dataclass
class ItemResult:
    index: int
    kind: str
    digest: str
    raw_s: float
    norm_s: float
    problems: list[str] = field(default_factory=list)


class Runner:
    """Runs the items of one workload stream through laminal's entry points."""

    def __init__(self, laminal, workload: str, seed: int, work_dir: Path,
                 reference: list[str] | None = None):
        self.laminal = laminal
        self.workload = workload
        self.stream = InputStream(workload, seed)
        self.model_path = work_dir / f"{workload}.model"
        self.reference = reference or []
        self.kernel_times: list[float] = []

    def prepare(self, item: Item):
        """Untimed input preparation: the model file, or the parsed corpus."""
        if item.kind == "corpus":
            lam = self.laminal
            return [lam.InferenceBase(lam.parse_model(t), o)
                    for t, o in zip(item.texts, item.observed)]
        self.model_path.write_text(item.texts[0])
        return ["analyze", str(self.model_path), *item.flags]

    def execute(self, item: Item, prepared) -> tuple[float, object]:
        """Time one item; returns (seconds, answer)."""
        if item.kind == "corpus":
            audit = self.laminal.audit_relation
            t0 = time.perf_counter()
            report = audit(prepared, "sc")
            return time.perf_counter() - t0, report
        out, err = io.StringIO(), io.StringIO()
        main = self.laminal.cli.main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = main(prepared)
            elapsed = time.perf_counter() - t0
        return elapsed, (code, out.getvalue())

    def check(self, item: Item, answer) -> tuple[str, list[str]]:
        if item.kind == "corpus":
            digest, problems = checks.audit_digest(answer), checks.check_audit(item, answer)
        else:
            code, stdout = answer
            digest, problems = checks.analyze_digest(code, stdout), checks.check_analyze(item, code, stdout)
        if item.index < len(self.reference) and digest != self.reference[item.index]:
            problems.append("answer digest differs from the recorded reference")
        return digest, problems

    def loop(self, seconds: float, min_items: int, max_items: int | None = None,
             tracer: Tracer | None = None, between=None) -> list[ItemResult]:
        """Run items until ``seconds`` have passed and ``min_items`` are done,
        or until ``max_items`` are done; a time-bounded run ends only after
        a whole cycle of the stream's item kinds.

        ``between(done)``, when given, runs after each item outside the
        timed region and outside the ``seconds`` budget; when it returns
        True the kernel is run again before the next item.
        """
        results: list[ItemResult] = []
        cycle = CYCLE[self.workload]
        t_start = time.perf_counter()
        excluded = 0.0  # time spent in ``between``
        before = time_kernel()
        while True:
            elapsed = time.perf_counter() - t_start - excluded
            done = len(results)
            if max_items is not None and done >= max_items:
                break
            if done >= min_items and elapsed >= seconds and done % cycle == 0:
                break
            item = next(self.stream)
            prepared = self.prepare(item)
            gc.collect()
            if tracer is not None:
                tracer.item = item.index
            try:
                raw, answer = self.execute(item, prepared)
                error = None
            except Exception as exc:  # an item that raises is a failed item
                raw, answer, error = 0.0, None, f"{type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.item = -1
            after = time_kernel()
            self.kernel_times.append(after)
            if error is None:
                digest, problems = self.check(item, answer)
            else:
                digest, problems = "", [error]
            results.append(ItemResult(item.index, item.kind, digest, raw,
                                      normalise(raw, before, after), problems))
            before = after
            if between is not None:
                t0 = time.perf_counter()
                if between(len(results)):
                    before = time_kernel()
                excluded += time.perf_counter() - t0
        return results


def end_to_end(results: list[ItemResult], tail_p: int) -> dict[str, float]:
    times = [r.norm_s for r in results]
    return {
        "item_p50_s": statistics.median(times),
        "item_tail_s": percentile(times, tail_p),
        "items_per_s": len(times) / sum(times),
        "raw_item_p50_s": statistics.median(r.raw_s for r in results),
        "failed_share": sum(1 for r in results if r.problems) / len(results),
    }


def layer_metrics(tracer: Tracer, results: list[ItemResult]):
    """Per-layer metrics, the stress shares and per-kind call counts.

    Returns (metrics, shares, kind_calls): ``metrics`` holds per-item calls
    and normalised self time of every span plus the ratios; ``shares`` the
    shares of item time behind each workload's stress check; ``kind_calls``
    the mean calls per item of each item kind.
    """
    factor = {r.index: (r.norm_s / r.raw_s if r.raw_s else 0.0) for r in results}
    kind_of = {r.index: r.kind for r in results}
    n = len(results)
    total = sum(r.norm_s for r in results)
    calls = [0] * len(SPANS)
    self_s = [0.0] * len(SPANS)
    top_s = [0.0] * len(SPANS)
    classify = SPANS.index("ancillary.classify")
    in_ancillary = [name.startswith("ancillary.") for name in SPANS]
    classify_callees = 0.0  # ancillary-layer calls made directly by classify
    per_kind: dict[str, list[int]] = {}
    for idx, parent, item, t0, t1, own, top in zip(
            tracer.name, tracer.parent, tracer.item_of, tracer.start, tracer.end,
            tracer.self_time, tracer.top_time):
        f = factor.get(item, 0.0)
        calls[idx] += 1
        self_s[idx] += own * f
        top_s[idx] += top * f
        if parent >= 0 and in_ancillary[idx] and tracer.name[parent] == classify:
            classify_callees += (t1 - t0) * f
        per_kind.setdefault(kind_of.get(item, "?"), [0] * len(SPANS))[idx] += 1
    out: dict[str, float] = {}
    for idx, name in enumerate(SPANS):
        out[f"{name}.calls"] = calls[idx] / n
        out[f"{name}.self_s"] = self_s[idx] / n
        out[f"{name}.self_share"] = self_s[idx] / total
    by_name = dict(zip(SPANS, calls))
    out["partitions.enumerate_partitions.items"] = tracer.counts["enumerated"] / n
    tests = by_name["model.ancillary_distribution"]
    out["model.ancillary_distribution.hit_ratio"] = \
        tracer.counts["distribution_free"] / tests if tests else 0.0
    mixes = by_name["model.mixture_model"]
    out["ancillary.instability_witness.hit_ratio"] = \
        tracer.counts["witnesses"] / mixes if mixes else 0.0

    incl = {name: top_s[idx] / total for idx, name in enumerate(SPANS)}
    own = {name: self_s[idx] / total for idx, name in enumerate(SPANS)}
    filters = sum(incl[f"ancillary.{f}"] for f in
                  ("instability_witness", "maximal_ancillaries", "minimal_ancillaries"))
    shares = {
        "ancillaries+gamma0 inclusive": incl["ancillary.ancillaries"] + incl["ancillary.gamma0"],
        "classify self+witness+maximal+minimal": own["ancillary.classify"] + filters,
        "stability sweep+witness+maximal+minimal":
            incl["ancillary.classify"] - classify_callees / total + filters,
        "sufficiency+evidence self": sum(v for k, v in own.items()
                                         if k.startswith(("sufficiency.", "evidence."))),
        "classify calls per item": by_name["ancillary.classify"] / n,
    }
    kinds = {k: sum(1 for r in results if r.kind == k) for k in kind_of.values()}
    kind_calls = {k: {name: c / kinds[k] for name, c in zip(SPANS, counts) if c}
                  for k, counts in per_kind.items() if k in kinds}
    return out, shares, kind_calls
