"""In-memory span tracer and the per-layer instrumentation it installs.

The benchmark measures each layer of the serving stack from outside:
:func:`instrument` swaps public callables of ``repro`` modules for
timing wrappers for the duration of one traced repetition and restores
the originals afterwards, so nothing under ``src/`` knows it is being
traced and untraced runs pay nothing.

Every wrapper records one span (name, start, duration) on a shared
stack.  A span's *self time* is its duration minus the time its child
spans cover, so the self times of every span nested under a
``decode.run`` span add up to that span's duration exactly; the
benchmark checks that as its reconciliation.  Spans are kept in memory
(up to :data:`MAX_EVENTS`) and written once, at the end, in the Chrome
Trace Event format that Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: Spans kept for the Chrome trace file; later spans are still timed
#: and counted, only their individual events are dropped.
MAX_EVENTS = 100_000

#: The span that roots the reconciliation.
RUN_SPAN = "decode.run"


class Tracer:
    """Span stack with per-name totals and a bounded event list."""

    def __init__(self) -> None:
        # frame = [child_seconds, inside_run]
        self._stack: list[list[Any]] = []
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list[float]] = {}
        #: name -> summed count observed at that boundary
        self.counts: dict[str, float] = {}
        #: self seconds of every span at or under a ``decode.run`` span
        self.run_tree_self = 0.0
        self.events: list[tuple[str, float, float, int]] = []
        self.dropped_events = 0

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def self_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[2])

    def total_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[1])

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        observe: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span; ``observe(tracer, args, result)``
        records counts from the call's arguments and result."""
        stack = self._stack
        clock = time.perf_counter
        events = self.events
        totals = self.totals
        is_run = name == RUN_SPAN

        def traced(*args: Any, **kwargs: Any) -> Any:
            inside = is_run or bool(stack and stack[-1][1])
            frame = [0.0, inside]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += own
                if inside:
                    self.run_tree_self += own
                if len(events) < MAX_EVENTS:
                    events.append((name, start, duration, len(stack)))
                else:
                    self.dropped_events += 1
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def write_chrome_trace(self, path: Path, metadata: dict[str, Any]) -> None:
        """Write the kept spans as Chrome Trace Event JSON (µs units)."""
        origin = min((e[1] for e in self.events), default=0.0)
        trace_events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"depth": depth},
            }
            for name, start, duration, depth in self.events
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata, dropped_events=self.dropped_events),
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Boundary observers: counts taken where the work happens.
# ----------------------------------------------------------------------


def _count_stream(tracer: Tracer, args: tuple, result: Any) -> None:
    # run_stream(self, xs): every lane of every batch, padding included
    tracer.count("vector_unit.lanes", args[1].size)


def _count_packed(tracer: Tracer, args: tuple, result: Any) -> None:
    # pack_lane_stream(flat, shape): the real (unpadded) queries
    tracer.count("vector_unit.queries", len(args[0]))


def _count_gather(tracer: Tracer, args: tuple, result: Any) -> None:
    # table_gather_mac(self, table, xs) -> (outputs, idx)
    outputs, idx = result
    tracer.count(
        "kernels.bytes", args[2].nbytes + outputs.nbytes + idx.nbytes
    )


def _count_tag_match(tracer: Tracer, args: tuple, result: Any) -> None:
    # tag_match_totals(self, addresses, n_beats) -> per-router totals
    tracer.count("kernels.bytes", args[1].nbytes + result.nbytes)


def _count_softmax_rows(tracer: Tracer, args: tuple, result: Any) -> None:
    scores = args[0]
    tracer.count("host.softmax_rows", scores.size // scores.shape[-1])
    tracer.count("host.softmax_calls")


def _count_allocated(tracer: Tracer, args: tuple, result: Any) -> None:
    # only allocations that returned a block (a dry pool raises)
    tracer.count("paging.blocks_allocated")


def _count_verify(tracer: Tracer, args: tuple, result: Any) -> None:
    _, verify = result
    tracer.count("spec.drafted", verify.drafted)
    tracer.count("spec.accepted", verify.accepted)
    tracer.count("spec.rolled_back", verify.rolled_back)
    tracer.count("spec.committed", verify.committed)


def _targets() -> list[tuple[Any, str, str, Any]]:
    """``(owner, attribute, span name, observer)`` for every boundary."""
    import repro.core.batched_attention as batched_attention
    import repro.core.decode as decode
    import repro.serving.frontdoor as frontdoor
    from repro.approx.quantize import QuantizedPwl
    from repro.core.decode import ContinuousBatchScheduler, NovaDecodeEngine
    from repro.core.kernels import BACKENDS
    from repro.core.mapper import NovaMapper
    from repro.core.paging import BlockPool, PagedKVCache
    from repro.core.speculative import (
        SpeculativeDecodeEngine,
        TruncatedTableDraft,
    )
    from repro.core.vector_unit import NovaVectorUnit
    from repro.noc.stats import EventCounters

    targets: list[tuple[Any, str, str, Any]] = [
        (EventCounters, "add", "accounting.counter", None),
        (EventCounters, "merge", "accounting.counter", None),
        (QuantizedPwl, "segment_index", "accounting.segment_index", None),
        (NovaMapper, "schedule", "accounting.schedule", None),
        (NovaVectorUnit, "retarget", "vector_unit.retarget", None),
        (NovaVectorUnit, "run_stream", "vector_unit.stream", _count_stream),
        (batched_attention, "pack_lane_stream", "vector_unit.pack",
         _count_packed),
        (decode, "project_token", "host.project", None),
        (decode, "scores_for_query", "host.scores", None),
        (decode, "context_for_query", "host.context", None),
        (decode, "softmax_reduction", "host.softmax", _count_softmax_rows),
        (decode, "assemble_probabilities", "host.softmax", None),
        (PagedKVCache, "append", "paging.append", None),
        (PagedKVCache, "keys", "paging.read", None),
        (PagedKVCache, "values", "paging.read", None),
        (PagedKVCache, "values_snapshot", "paging.read", None),
        (PagedKVCache, "fork", "paging.fork", None),
        (PagedKVCache, "truncate", "paging.truncate", None),
        (PagedKVCache, "adopt_prefix", "paging.adopt_prefix", None),
        (BlockPool, "allocate", "paging.allocate", _count_allocated),
        (BlockPool, "pool_info", "paging.pool_info", None),
        (SpeculativeDecodeEngine, "plan_with_fallback", "spec.plan", None),
        (SpeculativeDecodeEngine, "finish_verify_pass", "spec.finish",
         _count_verify),
        (TruncatedTableDraft, "propose", "spec.draft", None),
        (TruncatedTableDraft, "propose_candidates", "spec.draft", None),
        (TruncatedTableDraft, "observe", "spec.draft", None),
        (frontdoor, "build_report", "serving.report", None),
        (ContinuousBatchScheduler, "run", RUN_SPAN, None),
        (NovaDecodeEngine, "start", "decode.start", None),
    ]
    for cls in BACKENDS.values():
        targets.append(
            (cls, "table_gather_mac", "kernels.gather_mac", _count_gather)
        )
        targets.append(
            (cls, "tag_match_totals", "kernels.tag_match", _count_tag_match)
        )
    return targets


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install span wrappers on every layer boundary; restore on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, name, observe in _targets():
            original = vars(owner)[attr]
            if isinstance(original, property):
                assert original.fget is not None
                replacement: Any = property(
                    tracer.wrap(name, original.fget, observe)
                )
            else:
                replacement = tracer.wrap(name, original, observe)
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
