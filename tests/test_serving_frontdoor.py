"""Tests for the async front door, metrics and workload generator.

The headline contracts:

* the virtual clock is real: arrivals gate admission, idle gaps jump
  to the next arrival, per-request TTFT/latency are measured from
  arrival on the same clock the cycle counters drive;
* the per-request step timing satellite: ``first_token_steps`` /
  ``finish_steps`` / ``step_cycles`` on
  :class:`~repro.core.decode.ContinuousBatchResult` are populated and
  self-consistent (``sum(step_cycles) == packed_vector_cycles``);
* the report is honest arithmetic (nearest-rank percentiles, deadline
  accounting, goodput) and round-trips through JSON;
* traces from :mod:`repro.serving.arrivals` are pure functions of
  their seed, heavy-tailed within bounds, and strict-typing-friendly;
* ``NovaSession.serve_async`` is the same machinery end to end.
"""

import json

import numpy as np
import pytest

from repro.core.config import NovaConfig
from repro.core.decode import ContinuousBatchScheduler, NovaDecodeEngine
from repro.core.session import NovaSession
from repro.serving import (
    FrontDoor,
    ServingRequest,
    bounded_pareto,
    build_trace,
    bursty_arrivals,
    estimate_cycles_per_token,
    percentile,
    poisson_arrivals,
)
from repro.utils.rng import make_rng
from repro.workloads.transformer import TransformerConfig, decode_request

#: Small geometry for fast unit-level checks.
SMALL = NovaConfig(n_routers=2, neurons_per_router=8)


def toy_model(hidden=16, heads=2, seq_len=64):
    return TransformerConfig(
        "toy", layers=1, hidden=hidden, heads=heads,
        intermediate=4 * hidden, seq_len=seq_len, causal=True,
    )


def toy_request(prompt_len=4, max_new_tokens=3, seed=0):
    return decode_request(
        toy_model(), prompt_len=prompt_len,
        max_new_tokens=max_new_tokens, seed=seed,
    )


# ----------------------------------------------------------------------
# Per-request step timing on ContinuousBatchResult (the satellite).
# ----------------------------------------------------------------------


class TestStepTiming:
    def test_step_timing_populated_and_consistent(self):
        engine = NovaDecodeEngine(SMALL)
        requests = [toy_request(seed=i) for i in range(3)]
        result = ContinuousBatchScheduler(engine, max_active=2).run(requests)
        n = len(requests)
        assert len(result.first_token_steps) == n
        assert len(result.finish_steps) == n
        assert len(result.first_token_times) == n
        assert len(result.finish_times) == n
        assert len(result.step_cycles) == result.scheduler_steps
        assert sum(result.step_cycles) == result.packed_vector_cycles
        for i in range(n):
            assert 0 <= result.first_token_steps[i] <= result.finish_steps[i]
            assert result.finish_steps[i] < result.scheduler_steps
            assert 0.0 < result.first_token_times[i] <= (
                result.finish_times[i]
            )

    def test_virtual_clock_gates_arrivals_and_skips_idle(self):
        engine = NovaDecodeEngine(SMALL)
        door = FrontDoor(engine, max_active=2)
        door.submit(toy_request(seed=0), arrival=0.0)
        door.submit(toy_request(seed=1), arrival=1000.0)  # far future
        report = door.serve()
        first, second = report.requests
        # The second request cannot start before it arrives; the idle
        # gap between the first finishing and the second arriving is
        # jumped, not busy-waited (its TTFT stays small).
        assert second.arrival == 1000.0
        assert second.first_token_step > first.finish_step
        assert second.ttft < 1000.0
        result = door.last_result
        assert result is not None
        assert max(result.finish_times) == report.makespan_cycles

    def test_ttft_measured_from_arrival(self):
        engine = NovaDecodeEngine(SMALL)
        door = FrontDoor(engine, max_active=1)
        door.submit(toy_request(seed=0), arrival=50.0)
        report = door.serve()
        result = door.last_result
        assert result is not None
        r = report.requests[0]
        assert r.ttft == result.first_token_times[0] - 50.0
        assert r.latency == result.finish_times[0] - 50.0
        assert r.ttft > 0.0
        assert r.latency >= r.ttft


# ----------------------------------------------------------------------
# FrontDoor submission and serving.
# ----------------------------------------------------------------------


class TestFrontDoor:
    def test_submit_assigns_sequential_ids_and_drains(self):
        engine = NovaDecodeEngine(SMALL)
        door = FrontDoor(engine)
        a = door.submit(toy_request(seed=0))
        b = door.submit(toy_request(seed=1), arrival=5.0, tenant="t")
        assert (a.request_id, b.request_id) == (0, 1)
        assert len(door.pending) == 2
        report = door.serve()
        assert door.pending == ()
        assert [r.request_id for r in report.requests] == [0, 1]
        with pytest.raises(ValueError, match="no requests"):
            door.serve()

    def test_explicit_trace_leaves_pending_untouched(self):
        engine = NovaDecodeEngine(SMALL)
        door = FrontDoor(engine)
        door.submit(toy_request(seed=0))
        trace = [
            ServingRequest(request=toy_request(seed=1), request_id=7)
        ]
        report = door.serve(trace)
        assert [r.request_id for r in report.requests] == [7]
        assert len(door.pending) == 1

    def test_duplicate_request_ids_rejected(self):
        engine = NovaDecodeEngine(SMALL)
        door = FrontDoor(engine)
        trace = [
            ServingRequest(request=toy_request(seed=i), request_id=3)
            for i in range(2)
        ]
        with pytest.raises(ValueError, match="unique"):
            door.serve(trace)

    def test_report_requests_in_submission_order(self):
        # Arrival order differs from submission order: the report must
        # come back keyed and sorted by submission id regardless.
        engine = NovaDecodeEngine(SMALL)
        door = FrontDoor(engine, max_active=1)
        door.submit(toy_request(seed=0), arrival=90.0)
        door.submit(toy_request(seed=1), arrival=10.0)
        report = door.serve()
        assert [r.request_id for r in report.requests] == [0, 1]
        assert report.requests[1].first_token_step < (
            report.requests[0].first_token_step
        )

    def test_last_results_maps_back_to_submission_ids(self):
        engine = NovaDecodeEngine(SMALL)
        door = FrontDoor(engine, max_active=1)
        door.submit(toy_request(seed=0), arrival=90.0)
        door.submit(toy_request(seed=1), arrival=10.0)
        door.serve()
        outputs = door.last_results()
        assert set(outputs) == {0, 1}
        for i, seed in enumerate(range(2)):
            ref = engine.generate(toy_request(seed=seed))
            assert np.array_equal(outputs[i].generated, ref.generated)

    def test_last_results_before_any_serve_raises(self):
        door = FrontDoor(NovaDecodeEngine(SMALL))
        with pytest.raises(RuntimeError, match="no serve"):
            door.last_results()

    def test_serving_request_validation(self):
        with pytest.raises(ValueError, match="arrival"):
            ServingRequest(request=toy_request(), arrival=-1.0)
        with pytest.raises(ValueError, match="deadline"):
            ServingRequest(request=toy_request(), arrival=5.0, deadline=5.0)

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("arrival", dict(arrival=float("nan"))),
            ("arrival", dict(arrival=float("inf"))),
            ("arrival", dict(arrival=np.float64("nan"))),
            ("deadline", dict(deadline=float("nan"))),
            ("deadline", dict(arrival=3.0, deadline=float("nan"))),
        ],
    )
    def test_non_finite_times_are_rejected(self, field, kwargs):
        """A NaN/inf arrival or a NaN deadline raises ValueError naming
        the field, at the envelope and at the front door, instead of
        reaching the scheduler (NaN wedged it; inf poisoned the report
        with infinite TTFTs)."""
        with pytest.raises(ValueError, match=field):
            ServingRequest(request=toy_request(), **kwargs)
        door = FrontDoor(NovaDecodeEngine(SMALL))
        with pytest.raises(ValueError, match=field):
            door.submit(toy_request(), **kwargs)
        assert door.pending == ()

    def test_infinite_deadline_is_accepted(self):
        """inf is a well-ordered 'never expires' deadline; only NaN is
        rejected."""
        door = FrontDoor(NovaDecodeEngine(SMALL))
        door.submit(toy_request(), arrival=2.0, deadline=float("inf"))
        report = door.serve()
        assert report.n_requests == 1

    def test_unknown_policy_name_raises_at_construction(self):
        with pytest.raises(KeyError, match="available"):
            FrontDoor(NovaDecodeEngine(SMALL), policy="lifo")


# ----------------------------------------------------------------------
# Metrics arithmetic.
# ----------------------------------------------------------------------


class TestMetrics:
    def test_percentile_is_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0.0) == 10.0
        assert percentile(values, 25.0) == 10.0
        assert percentile(values, 50.0) == 20.0
        assert percentile(values, 75.0) == 30.0
        assert percentile(values, 99.0) == 40.0
        assert percentile(values, 100.0) == 40.0
        assert percentile([7.0], 99.0) == 7.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)
        with pytest.raises(ValueError, match="pct"):
            percentile([1.0], 101.0)

    def test_deadline_accounting_and_goodput(self):
        engine = NovaDecodeEngine(SMALL)
        door = FrontDoor(engine, max_active=2)
        door.submit(toy_request(seed=0), deadline=10_000.0)  # loose: met
        door.submit(toy_request(seed=1), deadline=1e-9 + 0.0)  # never
        report = door.serve()
        met, missed = report.requests
        assert met.met_deadline and not missed.met_deadline
        assert report.slo_attainment == 0.5
        good = met.tokens * 1000.0 / report.makespan_cycles
        assert report.goodput_tokens_per_kcycle == pytest.approx(good)
        assert report.throughput_tokens_per_kcycle > (
            report.goodput_tokens_per_kcycle
        )

    def test_no_deadline_always_counts_as_met(self):
        engine = NovaDecodeEngine(SMALL)
        door = FrontDoor(engine)
        door.submit(toy_request(seed=0))
        report = door.serve()
        assert report.slo_attainment == 1.0
        assert report.requests[0].deadline is None

    def test_report_round_trips_through_json(self):
        engine = NovaDecodeEngine(SMALL)
        door = FrontDoor(engine, policy="slo-aware")
        door.submit(toy_request(seed=0), tenant="a", deadline=9000.0)
        door.submit(toy_request(seed=1), tenant="b")
        report = door.serve()
        doc = json.loads(report.to_json())
        assert doc["policy"] == "slo-aware"
        assert doc["n_requests"] == 2
        assert doc["p99_ttft"] == report.p99_ttft
        assert doc["goodput_tokens_per_kcycle"] == (
            report.goodput_tokens_per_kcycle
        )
        assert [r["request_id"] for r in doc["requests"]] == [0, 1]
        assert doc["tenant_tokens"] == {"a": 3, "b": 3}
        assert doc["total_tokens"] == report.total_tokens


# ----------------------------------------------------------------------
# Workload generator.
# ----------------------------------------------------------------------


class TestArrivals:
    def test_bounded_pareto_respects_bounds_and_tail(self):
        rng = make_rng(0)
        draws = bounded_pareto(rng, 500, alpha=1.05, lo=2, hi=48)
        assert len(draws) == 500
        assert all(2 <= d <= 48 for d in draws)
        # Heavy tail: mass at the bottom, but the top of the range is
        # actually reached.
        assert sorted(draws)[len(draws) // 2] <= 6
        assert max(draws) >= 40

    def test_bounded_pareto_degenerate_and_invalid(self):
        rng = make_rng(0)
        assert bounded_pareto(rng, 3, alpha=1.0, lo=5, hi=5) == [5, 5, 5]
        with pytest.raises(ValueError, match="alpha"):
            bounded_pareto(rng, 1, alpha=0.0, lo=1, hi=2)
        with pytest.raises(ValueError, match="lo"):
            bounded_pareto(rng, 1, alpha=1.0, lo=4, hi=2)

    def test_arrival_processes_are_sorted_and_sized(self):
        rng = make_rng(1)
        times = poisson_arrivals(rng, 50, mean_gap=10.0)
        assert len(times) == 50
        assert times == sorted(times)
        assert all(t > 0.0 for t in times)
        rng = make_rng(1)
        times = bursty_arrivals(rng, 50, mean_gap=10.0, max_burst=8)
        assert len(times) == 50
        assert times == sorted(times)
        # Bursts share arrival instants; a Poisson stream never does.
        assert len(set(times)) < 50

    def test_build_trace_is_deterministic_and_shares_weights(self):
        a = build_trace(8, hidden=16, n_heads=2, seed=3)
        b = build_trace(8, hidden=16, n_heads=2, seed=3)
        assert [t.request_id for t in a] == list(range(8))
        for x, y in zip(a, b):
            assert x.arrival == y.arrival
            assert np.array_equal(x.request.x, y.request.x)
        # One model serves every request: weights are shared.
        for t in a[1:]:
            assert np.array_equal(t.request.wq, a[0].request.wq)
        # Different seeds give a different trace.
        c = build_trace(8, hidden=16, n_heads=2, seed=4)
        assert any(
            not np.array_equal(x.request.x, y.request.x)
            for x, y in zip(a, c)
        )

    def test_build_trace_deadlines_scale_with_size(self):
        trace = build_trace(
            6, hidden=16, n_heads=2, deadline_slack=2.0,
            cycles_per_token=3.0, seed=0,
        )
        for t in trace:
            size = len(t.request.x) + t.request.max_new_tokens
            assert t.deadline == pytest.approx(t.arrival + 2.0 * 3.0 * size)

    def test_build_trace_validation(self):
        with pytest.raises(ValueError, match="process"):
            build_trace(2, process="uniform")
        with pytest.raises(ValueError, match="tenant"):
            build_trace(2, tenants=())
        with pytest.raises(ValueError, match="cycles_per_token"):
            build_trace(2, deadline_slack=2.0)
        with pytest.raises(ValueError, match="n_requests"):
            build_trace(0)

    def test_estimate_cycles_per_token_is_deterministic(self):
        engine = NovaDecodeEngine(SMALL)
        a = estimate_cycles_per_token(engine, hidden=16, n_heads=2)
        b = estimate_cycles_per_token(engine, hidden=16, n_heads=2)
        assert a == b
        assert a > 0.0


# ----------------------------------------------------------------------
# Session wiring.
# ----------------------------------------------------------------------


class TestServeAsync:
    def test_session_serve_async_end_to_end(self):
        session = NovaSession(SMALL)
        trace = build_trace(
            5, hidden=16, n_heads=2, mean_gap=20.0, seed=2,
            priorities=(0, 1),
        )
        report = session.serve_async(trace, policy="slo-aware", max_active=2)
        assert report.policy == "slo-aware"
        assert report.n_requests == 5
        assert report.total_tokens == sum(
            t.request.max_new_tokens for t in trace
        )
        for r in report.requests:
            assert r.ttft > 0.0
            assert r.latency >= r.ttft

    def test_serve_async_matches_frontdoor(self):
        session = NovaSession(SMALL)
        trace = build_trace(4, hidden=16, n_heads=2, seed=5)
        via_session = session.serve_async(trace, max_active=2)
        door = FrontDoor(session.decoder, max_active=2)
        via_door = door.serve(trace)
        assert via_session.to_json() == via_door.to_json()
