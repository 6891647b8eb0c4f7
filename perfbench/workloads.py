"""The benchmark's three workloads, their inputs, checks and virtual metrics.

Every workload is a list of *units* — independent request sets built
from the benchmark seed — that the timed loop serves round-robin; one
*pass* serves every unit once.  The virtual pass (the first one) also
checks every request against solo ``generate`` and computes the
virtual-clock metrics, which are deterministic functions of the seed.
See ``perfbench/README.md`` for why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import statistics
import time
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.decode import (
    ContinuousBatchResult,
    ContinuousBatchScheduler,
    DecodeRequest,
    NovaDecodeEngine,
)
from repro.core.speculative import (
    SpeculativeDecodeEngine,
    SpeculativeGenerateResult,
    TruncatedTableDraft,
)
from repro.serving import (
    FrontDoor,
    ServingReport,
    ServingRequest,
    build_policy,
    build_trace,
    estimate_cycles_per_token,
    percentile,
)
from repro.utils.rng import derive_seed, make_rng
from repro.workloads.bert import decode_batch
from repro.workloads.transformer import TransformerConfig

GEOMETRY = "jetson-nx"


class TimedPolicy:
    """A scheduling policy wrapped to time scheduler iterations.

    The scheduler calls ``step_order`` exactly once per loop iteration,
    so the gaps between those calls are the host time of each
    iteration.  With a ``tracer`` every policy call is also a
    ``serving.policy`` span.
    """

    def __init__(self, policy: Any, tracer: Any = None) -> None:
        self.inner = build_policy(policy)
        self.name = self.inner.name
        self.marks: list[float] = []
        calls = {
            attr: getattr(self.inner, attr)
            for attr in ("step_order", "admit_next", "preemptions",
                         "select_victim")
        }
        if tracer is not None:
            calls = {
                attr: tracer.wrap("serving.policy", fn)
                for attr, fn in calls.items()
            }
        self._calls = calls

    def step_order(self, active: Sequence[Any], now: float) -> Sequence[Any]:
        self.marks.append(time.perf_counter())
        return self._calls["step_order"](active, now)

    def admit_next(self, waiting: Sequence[Any], in_flight: Sequence[Any],
                   now: float) -> Any:
        return self._calls["admit_next"](waiting, in_flight, now)

    def preemptions(self, waiting: Sequence[Any], active: Sequence[Any],
                    now: float, free_slots: int) -> Sequence[Any]:
        return self._calls["preemptions"](waiting, active, now, free_slots)

    def select_victim(self, active: Sequence[Any], now: float) -> Any:
        return self._calls["select_victim"](active, now)

    def iteration_seconds(self, end: float) -> list[float]:
        """Per-iteration host seconds; the last iteration ends at ``end``."""
        bounds = self.marks + [end]
        return [b - a for a, b in zip(bounds, bounds[1:])]


@dataclasses.dataclass
class Served:
    """One serve of one unit."""

    result: ContinuousBatchResult
    report: ServingReport | None
    #: :func:`batch_digest`, compared between repetitions of one run
    digest: str
    #: :func:`accounting_digest`, compared with ``digests.json``
    accounting: str
    #: request id -> per-request result (front-door serves only)
    by_id: dict[int, Any] = dataclasses.field(default_factory=dict)


def accounting_digest(result: ContinuousBatchResult) -> str:
    """The run's integer accounting: per-request vector cycles and
    counters, packed cycles and virtual first-token/finish times.

    This is what ``digests.json`` pins across machines; generated
    tokens are floats whose last bits may follow the platform's BLAS
    (the goldens' policy too), so they are pinned per machine instead,
    against solo ``generate``.
    """
    h = hashlib.sha256()
    for request in result.results:
        h.update(repr((request.vector_cycles,
                       sorted(request.counters.as_dict().items()))).encode())
    h.update(repr((result.packed_vector_cycles, result.first_token_times,
                   result.finish_times)).encode())
    return h.hexdigest()[:16]


def batch_digest(result: ContinuousBatchResult) -> str:
    """The accounting digest plus every request's generated tokens."""
    h = hashlib.sha256(accounting_digest(result).encode())
    for request in result.results:
        h.update(np.ascontiguousarray(request.generated).tobytes())
    return h.hexdigest()[:16]


def same_as_solo(got: Any, ref: Any) -> bool:
    return bool(
        np.array_equal(got.generated, ref.generated)
        and got.vector_cycles == ref.vector_cycles
        and got.counters.as_dict() == ref.counters.as_dict()
    )


@dataclasses.dataclass
class Pass:
    """The virtual pass: timed-unit serves, metrics, every serve's digest."""

    served: list[Served | None]
    metrics: dict[str, float]
    #: (label, requests, accounting digest or None if the serve raised)
    records: list[tuple[str, int, str | None]]
    notes: list[str] = dataclasses.field(default_factory=list)


class Check:
    """Counts requests attempted and failed, and collects problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        self.problems.append(message)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


class Workload:
    """Base: units, serving, and the virtual pass."""

    name = ""
    policy_name = "fcfs"
    model: TransformerConfig
    prompt_len = 16

    def __init__(self, engine: NovaDecodeEngine, seed: int) -> None:
        self.engine = engine
        self.seed = seed
        self.units: list[Any] = []

    @classmethod
    def warmup_request(cls, seed: int) -> DecodeRequest:
        """A single small request at the workload's model shape."""
        return decode_batch(
            cls.model, 1, prompt_len=cls.prompt_len, max_new_tokens=4,
            seed=derive_seed(seed, "warmup"),
        )[0]

    def serve(self, index: int, policy: TimedPolicy) -> Served:
        raise NotImplementedError

    def unit_requests(self, index: int) -> int:
        return len(self.units[index])

    def virtual_pass(self, check: Check) -> Pass:
        """Serve every unit once, check it, and compute virtual metrics."""
        raise NotImplementedError

    def _serve_all(self, check: Check) -> list[Served | None]:
        served: list[Served | None] = []
        for index in range(len(self.units)):
            check.attempted += self.unit_requests(index)
            try:
                served.append(
                    self.serve(index, TimedPolicy(self.policy_name))
                )
            except Exception as err:  # counted, reported, run continues
                check.fail(self.unit_requests(index),
                           f"unit {index} raised {type(err).__name__}: {err}")
                served.append(None)
        return served

    def _records(self, served: list[Served | None]) -> list[
            tuple[str, int, str | None]]:
        return [
            (f"unit {index}", self.unit_requests(index),
             None if serve is None else serve.accounting)
            for index, serve in enumerate(served)
        ]


# ----------------------------------------------------------------------
# Offline closed batches: decode-long and spec-tree.
# ----------------------------------------------------------------------

#: Deadline slack for the closed batches, in multiples of a request's
#: fair share of the unit: batch size x its own solo generate cycles.
#: Loose on purpose: every request meets it today (the slowest finishes
#: at about 9.2x its solo cycles in a batch of 8), so a drop in
#: slo_attainment flags a modelled-cycle regression.
CLOSED_SLACK = 1.5


class ClosedBatch(Workload):
    """Batches of causal requests, all present at cycle 0."""

    batch_size = 8
    max_new_tokens = 0
    n_units = 1

    def __init__(self, engine: NovaDecodeEngine, seed: int) -> None:
        super().__init__(engine, seed)
        self.units = [
            decode_batch(
                self.model, self.batch_size, prompt_len=self.prompt_len,
                max_new_tokens=self.max_new_tokens,
                seed=derive_seed(seed, self.name, k),
            )
            for k in range(self.n_units)
        ]

    def scheduler(self, index: int,
                  policy: TimedPolicy) -> ContinuousBatchScheduler:
        return ContinuousBatchScheduler(
            self.engine, max_active=self.batch_size, policy=policy
        )

    def serve(self, index: int, policy: TimedPolicy) -> Served:
        result = self.scheduler(index, policy).run(self.units[index])
        return Served(result, None, batch_digest(result),
                      accounting_digest(result))

    def check_unit(self, index: int, result: ContinuousBatchResult,
                   check: Check) -> list[int]:
        """Check every request against solo generate; return the solo
        vector cycles."""
        solo_cycles = []
        for i, (request, got) in enumerate(
            zip(self.units[index], result.results)
        ):
            solo = self.engine.generate(request)
            solo_cycles.append(solo.vector_cycles)
            if not same_as_solo(got, solo):
                check.fail(1, f"unit {index} request {i} diverged from "
                              "solo generate")
        return solo_cycles

    def virtual_pass(self, check: Check) -> Pass:
        served = self._serve_all(check)
        # (result, solo vector cycles per request) of every serve that ran
        checked = [
            (serve.result, self.check_unit(index, serve.result, check))
            for index, serve in enumerate(served) if serve is not None
        ]
        metrics: dict[str, float] = {}
        if checked:
            done = [r for r, _ in checked]
            tokens = sum(r.total_generated_tokens for r in done)
            makespan = sum(max(r.finish_times) for r in done)
            ttft = [t for r in done for t in r.first_token_times]
            met = [
                (got, finish <= CLOSED_SLACK * self.batch_size * solo)
                for r, solo_cycles in checked
                for got, finish, solo in zip(
                    r.results, r.finish_times, solo_cycles)
            ]
            good = sum(got.n_generated for got, ok in met if ok)
            metrics = {
                "cycles_per_token":
                    sum(r.packed_vector_cycles for r in done) / tokens,
                "ttft_p50_cycles": percentile(ttft, 50.0),
                "ttft_p90_cycles": percentile(ttft, 90.0),
                "slo_attainment": sum(ok for _, ok in met) / len(met),
                "goodput_tok_per_kcycle": 1000.0 * good / makespan,
                "max_rate_per_kcycle": 1000.0 * len(met) / makespan,
                "peak_kv_slots": statistics.median(
                    r.peak_kv_slots for r in done),
            }
            self.self_checks(done, check)
        notes = [
            f"closed batch: {sum(len(u) for u in self.units)} requests "
            "present at cycle 0; TTFT percentiles over that many samples; "
            "max_rate_per_kcycle is the saturation throughput (requests "
            "completed per kcycle of makespan)"
        ]
        return Pass(served, metrics, self._records(served), notes)

    def self_checks(self, done: list[ContinuousBatchResult],
                    check: Check) -> None:
        pass


class DecodeLong(ClosedBatch):
    """8 x GPT-nano, 16-token prompts, 192 new tokens, contiguous KV."""

    name = "decode-long"
    model = TransformerConfig(
        "GPT-nano", layers=2, hidden=128, heads=4, intermediate=512,
        seq_len=2048, causal=True,
    )
    max_new_tokens = 192

    def self_checks(self, done: list[ContinuousBatchResult],
                    check: Check) -> None:
        check.require(
            all(r.paging is None for r in done),
            "decode-long must not touch the paged KV layer",
        )
        check.require(
            not any(isinstance(g, SpeculativeGenerateResult)
                    for r in done for g in r.results),
            "decode-long must not speculate",
        )


class SpecTree(ClosedBatch):
    """8 x gpt2-mini per unit, paged draft-tree speculation."""

    name = "spec-tree"
    model = TransformerConfig(
        "gpt2-mini", layers=1, hidden=64, heads=4, intermediate=256,
        seq_len=256, causal=True,
    )
    max_new_tokens = 64
    n_units = 4
    tree = "4x1,2x1,1x1"
    fidelity = 0.45

    def draft_seed(self, index: int, admission: int) -> int:
        return derive_seed(self.seed, "draft", index) + admission

    def scheduler(self, index: int,
                  policy: TimedPolicy) -> ContinuousBatchScheduler:
        # Every request of a unit is admitted in step 0 in input order,
        # so the k-th draft built belongs to request k.
        admissions = itertools.count()
        cfg = self.engine.config
        return ContinuousBatchScheduler(
            self.engine, max_active=self.batch_size, paged=True,
            speculative=True, spec_tree=self.tree, pool_blocks=1024,
            policy=policy,
            draft_factory=lambda: TruncatedTableDraft(
                cfg, fidelity=self.fidelity,
                seed=self.draft_seed(index, next(admissions)),
            ),
        )

    def check_unit(self, index: int, result: ContinuousBatchResult,
                   check: Check) -> list[int]:
        speculator = SpeculativeDecodeEngine(self.engine, tree=self.tree)
        cfg = self.engine.config
        solo_cycles = []
        for i, (request, got) in enumerate(
            zip(self.units[index], result.results)
        ):
            plain = self.engine.generate(request)
            solo = speculator.generate(
                request,
                draft=TruncatedTableDraft(
                    cfg, fidelity=self.fidelity,
                    seed=self.draft_seed(index, i),
                ),
            )
            solo_cycles.append(solo.vector_cycles)
            if not (
                np.array_equal(got.generated, plain.generated)
                and same_as_solo(got, solo)
                and got.sequential_vector_cycles == plain.vector_cycles
            ):
                check.fail(1, f"unit {index} request {i} diverged from "
                              "solo generate")
        return solo_cycles

    def self_checks(self, done: list[ContinuousBatchResult],
                    check: Check) -> None:
        results = [g for r in done for g in r.results]
        drafted = sum(g.drafted_tokens for g in results)
        accepted = sum(g.accepted_tokens for g in results)
        check.require(
            sum(g.rolled_back_tokens for g in results) > 0,
            "spec-tree must roll back provisional tokens",
        )
        check.require(
            drafted > 0 and accepted < drafted,
            "spec-tree acceptance must be below 1",
        )


# ----------------------------------------------------------------------
# Open loop on the virtual clock: serve-bursty.
# ----------------------------------------------------------------------


class ServeBursty(Workload):
    """Bursty two-tenant traffic with a shared system prompt."""

    name = "serve-bursty"
    policy_name = "slo-aware"
    hidden = 32
    heads = 4
    #: Two full KV blocks (kv_block_size 16) shared by every prompt.
    system_prompt = 32
    suffix_range = (2, 32)
    tokens_range = (2, 16)
    max_burst = 3
    requests_per_unit = 300
    n_units = 4
    max_active = 8
    #: Scarce on purpose: 10 blocks of 16 slots, so the top rate defers.
    pool_blocks = 10
    #: Tokens of the reference request whose solo service time sets
    #: the rate scale and the TTFT limit.
    reference_tokens = 48
    #: Offered load as multiples of 1 / (solo service time of the
    #: reference request): low, nominal, top.
    rate_multiples = (0.2, 0.4, 1.6)
    deadline_slack = 4.0
    ttft_limit_services = 4.0
    #: (makespan - last arrival) / last arrival above this is a backlog
    #: that grew during the trace instead of draining with it.
    backlog_ratio = 0.1

    def __init__(self, engine: NovaDecodeEngine, seed: int) -> None:
        super().__init__(engine, seed)
        self.cpt = estimate_cycles_per_token(
            engine, hidden=self.hidden, n_heads=self.heads
        )
        self.service = self.cpt * self.reference_tokens
        self.ttft_limit = self.ttft_limit_services * self.service
        rng = make_rng(derive_seed(seed, "system-prompt"))
        self.prefix = rng.normal(
            0.0, 1.0 / np.sqrt(self.hidden),
            size=(self.system_prompt, self.hidden),
        )
        self.base = [
            self._base_trace(derive_seed(seed, self.name, k))
            for k in range(self.n_units)
        ]
        nominal = self.rate_multiples[1]
        self.units = [self.at_rate(base, nominal) for base in self.base]

    @classmethod
    def warmup_request(cls, seed: int) -> DecodeRequest:
        return build_trace(
            1, hidden=cls.hidden, n_heads=cls.heads,
            seed=derive_seed(seed, "warmup"),
        )[0].request

    def _base_trace(self, seed: int) -> list[ServingRequest]:
        """build_trace's bursty Pareto trace, system prompt prepended."""
        trace = build_trace(
            self.requests_per_unit, hidden=self.hidden, n_heads=self.heads,
            process="bursty", mean_gap=self.service,
            prompt_range=self.suffix_range, tokens_range=self.tokens_range,
            tail_alpha=1.1, max_burst=self.max_burst, priorities=(0, 1),
            seed=seed,
        )
        return [
            dataclasses.replace(
                t,
                request=dataclasses.replace(
                    t.request, x=np.concatenate([self.prefix, t.request.x])
                ),
            )
            for t in trace
        ]

    def rate_per_kcycle(self, multiple: float) -> float:
        return 1000.0 * multiple / self.service

    def at_rate(self, base: list[ServingRequest],
                multiple: float) -> list[ServingRequest]:
        """The trace re-timed so its mean rate is exactly the fixed rate.

        Arrival gaps keep build_trace's bursty shape; deadlines are set
        here, from the final (prefixed) prompt length.
        """
        span = len(base) * 1000.0 / self.rate_per_kcycle(multiple)
        scale = span / base[-1].arrival
        out = []
        for t in base:
            arrival = t.arrival * scale
            service = self.cpt * (t.request.seq + t.request.max_new_tokens)
            out.append(dataclasses.replace(
                t, arrival=arrival,
                deadline=arrival + self.deadline_slack * service,
            ))
        return out

    def _serve_trace(self, trace: list[ServingRequest],
                     policy: TimedPolicy) -> Served:
        door = FrontDoor(
            self.engine, policy=policy, max_active=self.max_active,
            paged=True, prefix_caching=True, pool_blocks=self.pool_blocks,
        )
        report = door.serve(trace)
        assert door.last_result is not None
        result = door.last_result
        return Served(result, report, batch_digest(result),
                      accounting_digest(result), door.last_results())

    def serve(self, index: int, policy: TimedPolicy) -> Served:
        return self._serve_trace(self.units[index], policy)

    def check_serve(self, base: list[ServingRequest], serve: Served,
                    solo: dict[int, Any], label: str, check: Check) -> None:
        requests = {t.request_id: t.request for t in base}
        for rid, got in serve.by_id.items():
            if rid not in solo:
                solo[rid] = self.engine.generate(requests[rid])
            if not same_as_solo(got, solo[rid]):
                check.fail(1, f"{label} request {rid} diverged from solo "
                              "generate")

    @staticmethod
    def _backlog(report: ServingReport) -> float:
        last = max(r.arrival for r in report.requests)
        return (report.makespan_cycles - last) / last

    def virtual_pass(self, check: Check) -> Pass:
        served = self._serve_all(check)
        solos: list[dict[int, Any]] = [{} for _ in self.base]
        for index, serve in enumerate(served):
            if serve is not None:
                self.check_serve(self.base[index], serve, solos[index],
                                 f"nominal unit {index}", check)
        records = self._records(served)
        # The low and top rates replay unit 0's requests, re-timed.
        rate_serves: dict[float, Served] = {}
        for multiple in (self.rate_multiples[0], self.rate_multiples[2]):
            trace = self.at_rate(self.base[0], multiple)
            label = f"rate x{multiple}"
            check.attempted += len(trace)
            try:
                serve = self._serve_trace(
                    trace, TimedPolicy(self.policy_name)
                )
            except Exception as err:  # counted, reported, run continues
                check.fail(len(trace),
                           f"{label} raised {type(err).__name__}: {err}")
                records.append((label, len(trace), None))
                continue
            self.check_serve(self.base[0], serve, solos[0], label, check)
            rate_serves[multiple] = serve
            records.append((label, len(trace), serve.accounting))

        reports = [s.report for s in served if s is not None and s.report]
        if not reports:
            return Pass(served, {}, records)
        requests = [r for rep in reports for r in rep.requests]
        ttft = [r.ttft for r in requests]
        tokens = sum(rep.total_tokens for rep in reports)
        good = sum(r.tokens for r in requests if r.met_deadline)
        makespan = sum(rep.makespan_cycles for rep in reports)
        metrics = {
            "cycles_per_token": sum(
                rep.packed_vector_cycles for rep in reports) / tokens,
            "ttft_p50_cycles": percentile(ttft, 50.0),
            "ttft_p90_cycles": percentile(ttft, 90.0),
            "slo_attainment":
                sum(r.met_deadline for r in requests) / len(requests),
            "goodput_tok_per_kcycle": 1000.0 * good / makespan,
            "peak_kv_slots": statistics.median(
                s.result.peak_kv_slots for s in served if s is not None
            ),
        }
        # rate multiple -> (p90 TTFT, backlog ratio)
        levels = {
            self.rate_multiples[1]: (
                percentile(ttft, 90.0),
                max(self._backlog(rep) for rep in reports),
            ),
        }
        for multiple, serve in rate_serves.items():
            assert serve.report is not None
            levels[multiple] = (
                percentile([r.ttft for r in serve.report.requests], 90.0),
                self._backlog(serve.report),
            )
        meeting = [
            m for m, (p90, backlog) in levels.items()
            if p90 <= self.ttft_limit and backlog <= self.backlog_ratio
        ]
        metrics["max_rate_per_kcycle"] = (
            self.rate_per_kcycle(max(meeting)) if meeting else 0.0
        )
        notes = [
            f"rate {self.rate_per_kcycle(m):.3f}/kcycle (x{m}): p90 TTFT "
            f"{p90:.0f} cycles (limit {self.ttft_limit:.0f}), backlog "
            f"ratio {backlog:.3f} (limit {self.backlog_ratio})"
            for m, (p90, backlog) in sorted(levels.items())
        ]
        notes.append(
            "TTFT is timed from each request's due arrival; on the "
            "virtual clock the generator is never late (lateness 0 cycles)"
        )
        check.require(
            sum(rep.prefix_hits for rep in reports) > 0,
            "serve-bursty must hit the prefix cache",
        )
        check.require(
            0.0 < metrics["slo_attainment"] < 1.0,
            "serve-bursty slo_attainment at the nominal rate must be "
            f"strictly between 0 and 1, got {metrics['slo_attainment']}",
        )
        top = rate_serves.get(self.rate_multiples[2])
        check.require(
            top is not None and top.result.deferrals > 0,
            "serve-bursty must defer at least once at the top rate",
        )
        return Pass(served, metrics, records, notes)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (DecodeLong, ServeBursty, SpecTree)
}
