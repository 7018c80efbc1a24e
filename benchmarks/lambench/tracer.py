"""Outside-in layer tracer for laminal's public functions.

``Tracer.install`` replaces each traced function object in every
``laminal.*`` module that binds it (laminal modules import each other's
functions by name), and ``Tracer.restore`` puts every original back.  A
function that the program no longer has is listed in ``absent`` instead of
failing the run.

Each call made while an item is active becomes a span: name, start, end,
parent span and item id, kept in flat arrays and written out when the run
ends.  A span's self time is its duration minus the time its child spans
cover.  ``enumerate_partitions`` returns a generator, so its span is timed
while the generator produces items, piece by piece.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import zlib
from array import array
from time import perf_counter

#: Traced boundaries, as ``<module>.<function>`` under the laminal package.
SPANS = (
    "cli.main",
    "report.ReportDocument.render",
    "model.parse_model",
    "model.ancillary_distribution",
    "model.condition_on_event",
    "model.mixture_model",
    "partitions.enumerate_partitions",
    "partitions.is_coarsening",
    "partitions.join",
    "ancillary.classify",
    "ancillary.ancillaries",
    "ancillary.maximal_ancillaries",
    "ancillary.minimal_ancillaries",
    "ancillary.laminal",
    "ancillary.gamma0",
    "ancillary.ancillary_events",
    "ancillary.instability_witness",
    "sufficiency.mss_partition",
    "sufficiency.model_of_statistic",
    "sufficiency.ev_ms",
    "sufficiency.s_equivalent",
    "evidence.audit_relation",
    "evidence.sc_equivalent",
)
_GENERATORS = {"partitions.enumerate_partitions"}
# Boundaries whose non-None results are counted, for the hit ratios.
_COUNT_RESULTS = {"model.ancillary_distribution": "distribution_free",
                  "ancillary.instability_witness": "witnesses"}


class Tracer:
    """Spans at laminal's module boundaries, recorded only inside items."""

    def __init__(self, names=SPANS):
        self.names = tuple(names)
        self.absent: list[str] = []
        self._bindings: list[tuple[object, str, object]] = []
        self.item = -1
        self._stack: list[list] = []  # [span id, start, child time, name index]
        self._depth = [0] * len(self.names)
        self.name = array("i")
        self.parent = array("q")
        self.item_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.top_time = array("d")  # time not already inside a span of the same name
        self.counts = {"enumerated": 0, "distribution_free": 0, "witnesses": 0}

    # -- installing and restoring ----------------------------------------

    def install(self) -> None:
        laminal_modules = [m for k, m in sys.modules.items()
                           if k == "laminal" or k.startswith("laminal.")]
        for idx, full in enumerate(self.names):
            module_name, _, qual = full.partition(".")
            try:
                module = importlib.import_module(f"laminal.{module_name}")
                owner_path, _, attr = qual.rpartition(".")
                owner = functools.reduce(getattr, owner_path.split("."), module) \
                    if owner_path else module
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(full)
                continue
            wrapper = self._wrap(idx, full, original)
            if owner_path:
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in laminal_modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._bindings.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original binding back and check that it is back."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        for owner, attr, original in self._bindings:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"binding {attr} was not restored")
        self._bindings.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- recording ---------------------------------------------------------

    def _open(self, idx: int) -> int:
        sid = len(self.start)
        self.name.append(idx)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.item_of.append(self.item)
        now = perf_counter()
        self.start.append(now)
        self.end.append(now)
        self.self_time.append(0.0)
        self.top_time.append(0.0)
        self._enter(sid, idx, now)
        return sid

    def _enter(self, sid: int, idx: int, now: float) -> None:
        self._depth[idx] += 1
        self._stack.append([sid, now, 0.0, idx])

    def _close(self) -> None:
        sid, t0, child, idx = self._stack.pop()
        now = perf_counter()
        dur = now - t0
        self.end[sid] = now
        self.self_time[sid] += dur - child
        self._depth[idx] -= 1
        if self._depth[idx] == 0:
            self.top_time[sid] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def _wrap(self, idx: int, full: str, fn):
        tracer = self
        counter = _COUNT_RESULTS.get(full)

        if full in _GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if tracer.item < 0:
                    return fn(*args, **kwargs)
                sid = tracer._open(idx)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    tracer._close()
                return tracer._pieces(it, sid, idx)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.item < 0:
                return fn(*args, **kwargs)
            tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if counter is not None and result is not None:
                tracer.counts[counter] += 1
            return result
        return wrapper

    def _pieces(self, it, sid: int, idx: int):
        while True:
            self._enter(sid, idx, perf_counter())
            try:
                value = next(it)
            except StopIteration:
                self._close()
                return
            except BaseException:
                self._close()
                raise
            self._close()
            self.counts["enumerated"] += 1
            yield value

    # -- output ------------------------------------------------------------

    def calls(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """Write all spans: a JSON header line, then the zlib-packed arrays."""
        arrays = {"name:i": self.name, "parent:q": self.parent, "item:q": self.item_of,
                  "start:d": self.start, "end:d": self.end, "self:d": self.self_time}
        blobs = [zlib.compress(arr.tobytes(), 1) for arr in arrays.values()]
        header = {"names": self.names, "absent": self.absent, "spans": self.calls(),
                  "arrays": list(arrays), "bytes": [len(b) for b in blobs]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for blob in blobs:
                fh.write(blob)
