"""Tests for the KV-cached decode subsystem (repro.core.decode).

The headline contracts:

* token-by-token decode over the KV cache is **bit-exact** against the
  packed causal prefill for the same sequence, on every Table II preset;
* continuous batching is bit-, cycle- and counter-exact against
  one-at-a-time ``generate``;
* per-step sequential-equivalent counters equal what the beat-level
  simulation charges for the same stream;
* decode never recompiles shared tables across steps (the table-cache
  miss count stays flat);
* the error paths (cache overflow, eviction, empty batches, over-long
  requests, non-causal configs) fail loudly.
"""

import numpy as np
import pytest

from repro.core.config import PRESETS, NovaConfig
from repro.core.decode import (
    ContinuousBatchScheduler,
    DecodeRequest,
    KVCache,
    KVCacheOverflow,
    NovaDecodeEngine,
)
from repro.core.session import NovaSession
from repro.workloads.bert import decode_batch, serving_config
from repro.workloads.transformer import TransformerConfig, decode_request

#: Small geometry for fast unit-level checks.
SMALL = NovaConfig(n_routers=2, neurons_per_router=8)


def toy_model(hidden=16, heads=2, seq_len=64, causal=True):
    return TransformerConfig(
        "toy", layers=1, hidden=hidden, heads=heads,
        intermediate=4 * hidden, seq_len=seq_len, causal=causal,
    )


def toy_request(prompt_len=5, max_new_tokens=3, **model_kwargs):
    return decode_request(
        toy_model(**model_kwargs), prompt_len=prompt_len,
        max_new_tokens=max_new_tokens, seed=0,
    )


# ----------------------------------------------------------------------
# KVCache.
# ----------------------------------------------------------------------


class TestKVCache:
    def test_append_and_views(self):
        cache = KVCache(2, 4, capacity=3)
        for i in range(3):
            cache.append(np.full((2, 4), i), np.full((2, 4), 10 + i))
            assert cache.length == i + 1
        assert cache.keys.shape == (2, 3, 4)
        assert np.array_equal(cache.keys[0, :, 0], [0.0, 1.0, 2.0])
        assert np.array_equal(cache.values[1, :, 2], [10.0, 11.0, 12.0])

    def test_overflow_raises_without_window(self):
        cache = KVCache(1, 2, capacity=2)
        for i in range(2):
            cache.append(np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(KVCacheOverflow, match="full at capacity 2"):
            cache.append(np.zeros((1, 2)), np.zeros((1, 2)))

    def test_window_evicts_oldest(self):
        cache = KVCache(1, 1, capacity=4, window=2)
        for i in range(5):
            cache.append(np.full((1, 1), i), np.full((1, 1), i))
        assert cache.length == 2
        assert cache.start_position == 3
        assert cache.evictions == 3
        assert np.array_equal(cache.keys[0, :, 0], [3.0, 4.0])

    def test_explicit_evict(self):
        cache = KVCache(1, 1, capacity=4)
        for i in range(4):
            cache.append(np.full((1, 1), i), np.full((1, 1), i))
        cache.evict(3)
        assert cache.length == 1
        assert cache.start_position == 3
        assert np.array_equal(cache.keys[0, :, 0], [3.0])
        with pytest.raises(ValueError, match="cannot evict"):
            cache.evict(2)

    def test_reset_recycles_the_page(self):
        cache = KVCache(1, 1, capacity=2, window=2)
        cache.append(np.ones((1, 1)), np.ones((1, 1)))
        buffer = cache._k
        cache.reset()
        assert cache.length == 0 and cache.start_position == 0
        assert cache.evictions == 0
        assert cache._k is buffer  # same allocation, no realloc

    def test_shape_and_argument_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            KVCache(1, 1, capacity=0)
        with pytest.raises(ValueError, match="window"):
            KVCache(1, 1, capacity=2, window=3)
        with pytest.raises(ValueError, match="window"):
            KVCache(1, 1, capacity=2, window=0)
        cache = KVCache(2, 4, capacity=2)
        with pytest.raises(ValueError, match="shape"):
            cache.append(np.zeros((2, 3)), np.zeros((2, 4)))


# ----------------------------------------------------------------------
# DecodeRequest validation.
# ----------------------------------------------------------------------


class TestDecodeRequest:
    def test_capacity_defaults_to_prompt_plus_budget(self):
        req = toy_request(prompt_len=5, max_new_tokens=3)
        assert req.max_seq_len == 64  # the model's context window
        assert req.capacity == 64
        bare = DecodeRequest(
            x=req.x, wq=req.wq, wk=req.wk, wv=req.wv, wo=req.wo,
            n_heads=req.n_heads, max_new_tokens=3,
        )
        assert bare.capacity == 8
        assert bare.total_tokens == 8

    def test_window_bounds_capacity(self):
        req = toy_request()
        windowed = DecodeRequest(
            x=req.x, wq=req.wq, wk=req.wk, wv=req.wv, wo=req.wo,
            n_heads=req.n_heads, max_new_tokens=3, window=4,
        )
        assert windowed.capacity == 4

    def test_field_validation(self):
        req = toy_request()
        kwargs = dict(
            x=req.x, wq=req.wq, wk=req.wk, wv=req.wv, wo=req.wo,
            n_heads=req.n_heads,
        )
        with pytest.raises(ValueError, match="max_new_tokens"):
            DecodeRequest(**kwargs, max_new_tokens=-1)
        with pytest.raises(ValueError, match="max_seq_len"):
            DecodeRequest(**kwargs, max_seq_len=0)
        with pytest.raises(ValueError, match="window"):
            DecodeRequest(**kwargs, window=0)
        with pytest.raises(ValueError, match="window"):
            DecodeRequest(**kwargs, max_seq_len=4, window=8)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_new_tokens", 2.5),
            ("max_new_tokens", True),
            ("max_new_tokens", 3.0),
            ("max_new_tokens", "3"),
            ("max_seq_len", 16.0),
            ("max_seq_len", False),
            ("window", 4.5),
            ("window", True),
        ],
    )
    def test_non_integral_budgets_raise_type_error(self, field, value):
        """A bool or non-integral budget fails at construction with a
        TypeError naming the field (2.5 used to fail late inside
        generate; True was silently served as 1)."""
        req = toy_request()
        kwargs = dict(
            x=req.x, wq=req.wq, wk=req.wk, wv=req.wv, wo=req.wo,
            n_heads=req.n_heads, max_new_tokens=3,
        )
        kwargs[field] = value
        with pytest.raises(TypeError, match=field):
            DecodeRequest(**kwargs)

    def test_numpy_integer_budgets_are_accepted(self):
        req = toy_request()
        bare = DecodeRequest(
            x=req.x, wq=req.wq, wk=req.wk, wv=req.wv, wo=req.wo,
            n_heads=req.n_heads, max_new_tokens=np.int64(3),
            max_seq_len=np.int32(16), window=np.uint8(6),
        )
        assert bare.capacity == 6
        plain = DecodeRequest(
            x=req.x, wq=req.wq, wk=req.wk, wv=req.wv, wo=req.wo,
            n_heads=req.n_heads, max_new_tokens=3, max_seq_len=16, window=6,
        )
        engine = NovaDecodeEngine(SMALL)
        assert np.array_equal(
            engine.generate(bare).generated, engine.generate(plain).generated
        )

    def test_decode_request_needs_a_causal_model(self):
        with pytest.raises(ValueError, match="causal"):
            decode_request(toy_model(causal=False))


# ----------------------------------------------------------------------
# Decode vs prefill bit-exactness.
# ----------------------------------------------------------------------


class TestDecodePrefillEquivalence:
    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    def test_bit_exact_on_every_preset(self, preset_name):
        request = toy_request(prompt_len=6, max_new_tokens=0)
        session = NovaSession(preset_name)
        decoded = session.decode(request)
        prefill = session.decoder.prefill(session.decoder.start(request))

        assert np.array_equal(decoded.outputs, prefill.outputs)
        for t, step in enumerate(decoded.steps):
            assert step.position == t
            assert step.kv_length == t + 1
            assert np.array_equal(
                step.probabilities, prefill.probabilities[:, t, : t + 1]
            )
        # upper triangle stays exactly zero (causality)
        upper = np.triu_indices(request.seq, k=1)
        assert not prefill.probabilities[:, upper[0], upper[1]].any()

    def test_query_accounting(self):
        request = toy_request(prompt_len=4, max_new_tokens=0)
        engine = NovaDecodeEngine(SMALL)
        decoded = engine.decode(request)
        heads = request.n_heads
        for t, step in enumerate(decoded.steps):
            assert step.nonlinear_queries == heads * (t + 1) + heads
        prefill = engine.prefill(engine.start(request))
        assert prefill.nonlinear_queries == sum(
            s.nonlinear_queries for s in decoded.steps
        )

    def test_prefill_requires_a_fresh_state(self):
        engine = NovaDecodeEngine(SMALL)
        request = toy_request()
        state = engine.start(request)
        engine.prefill(state)
        with pytest.raises(RuntimeError, match="fresh DecodeState"):
            engine.prefill(state)

    def test_windowed_decode_matches_windowed_prefill(self):
        model = toy_model()
        request = decode_request(
            model, prompt_len=7, max_new_tokens=0, seed=3, window=3
        )
        engine = NovaDecodeEngine(SMALL)
        decoded = engine.decode(request)
        prefill = engine.prefill(engine.start(request))
        assert np.array_equal(decoded.outputs, prefill.outputs)
        # after warmup each step attends to exactly `window` entries
        assert decoded.steps[-1].kv_length == 3


# ----------------------------------------------------------------------
# Counter exactness and cache discipline.
# ----------------------------------------------------------------------


class TestDecodeAccounting:
    def test_step_counters_match_beat_level_simulation(self):
        """The closed-form sequential-equivalent counters of one decode
        step equal what the cycle-level NoC simulation accumulates for
        the same padded lane stream."""
        from repro.core.attention import pack_lane_stream
        from repro.core.vector_unit import NovaVectorUnit

        request = toy_request(prompt_len=3, max_new_tokens=2)
        engine = NovaDecodeEngine(SMALL)
        gen = engine.generate(request)
        step = gen.steps[-1]

        # replay the step's two streams on a fresh unit, beat by beat
        state = engine.start(request)
        engine.prefill(state)
        replay_inputs = []
        x_t = gen.prefill.outputs[-1]
        for done in gen.steps:
            plan = engine._plan_token(state, x_t)
            replay_inputs.append((plan.shifted.copy(), plan))
            x_t = done.output
        shifted, plan = replay_inputs[-1]

        unit = NovaVectorUnit(engine.tables["exp"], SMALL)
        batches, _ = pack_lane_stream(shifted.reshape(-1), SMALL.lane_shape)
        before = unit._lifetime_counters()
        exp_stream = unit.run_stream(batches, simulate=True)
        from repro.core.attention import softmax_reduction

        raw = exp_stream.outputs.reshape(-1)[: shifted.size].reshape(
            shifted.shape
        )
        _, mantissa, _ = softmax_reduction(raw)
        unit.retarget(engine.tables["reciprocal"])
        batches, _ = pack_lane_stream(
            mantissa.reshape(-1), SMALL.lane_shape
        )
        unit.run_stream(batches, simulate=True)
        simulated = unit._lifetime_counters().diff(before)
        assert step.counters.as_dict() == simulated.as_dict()

    def test_no_table_recompilation_across_steps(self):
        """Decode steps retarget the shared unit; they must never hit the
        table compiler again (cache_info misses stay flat)."""
        session = NovaSession(SMALL)
        request = toy_request(prompt_len=2, max_new_tokens=6)
        session.generate(request)  # builds the engine, compiles tables
        before = session.cache_info()["tables"]
        state = session.decoder.start(request)
        session.decoder.prefill(state)
        x_t = np.zeros(request.hidden)
        for _ in range(4):
            x_t = session.decoder.decode_step(state, x_t).output
        after = session.cache_info()["tables"]
        assert after["misses"] == before["misses"]
        assert after["entries"] == before["entries"]

    def test_decode_result_counters_are_per_call(self):
        engine = NovaDecodeEngine(SMALL)
        request = toy_request(prompt_len=3, max_new_tokens=0)
        first = engine.decode(request)
        second = engine.decode(request)
        assert first.counters.as_dict() == second.counters.as_dict()
        merged = None
        for step in second.steps:
            merged = step.counters if merged is None else merged.merge(
                step.counters
            )
        assert merged.as_dict() == second.counters.as_dict()


# ----------------------------------------------------------------------
# Engine admission errors.
# ----------------------------------------------------------------------


class TestEngineAdmission:
    def test_rejects_non_causal_request(self):
        request = toy_request()
        non_causal = DecodeRequest(
            x=request.x, wq=request.wq, wk=request.wk, wv=request.wv,
            wo=request.wo, n_heads=request.n_heads, causal=False,
        )
        engine = NovaDecodeEngine(SMALL)
        with pytest.raises(ValueError, match="causal"):
            engine.start(non_causal)

    def test_session_rejects_non_causal_request(self):
        request = toy_request()
        non_causal = DecodeRequest(
            x=request.x, wq=request.wq, wk=request.wk, wv=request.wv,
            wo=request.wo, n_heads=request.n_heads, causal=False,
        )
        session = NovaSession(SMALL)
        with pytest.raises(ValueError, match="causal"):
            session.decode(non_causal)
        with pytest.raises(ValueError, match="causal"):
            session.generate(non_causal)

    def test_rejects_plain_attention_requests(self):
        from repro.core.batched_attention import AttentionRequest

        request = toy_request()
        plain = AttentionRequest(
            x=request.x, wq=request.wq, wk=request.wk, wv=request.wv,
            wo=request.wo, n_heads=request.n_heads,
        )
        with pytest.raises(TypeError, match="DecodeRequest"):
            NovaDecodeEngine(SMALL).start(plain)

    def test_rejects_request_longer_than_context(self):
        """Prompt + budget beyond the model's seq_len fails at admission."""
        model = toy_model(seq_len=8)
        request = decode_request(model, prompt_len=6, max_new_tokens=6)
        engine = NovaDecodeEngine(SMALL)
        with pytest.raises(KVCacheOverflow, match="12 cache slots"):
            engine.start(request)
        # ...unless a sliding window absorbs the overflow
        windowed = decode_request(
            model, prompt_len=6, max_new_tokens=6, window=8
        )
        assert engine.generate(windowed).n_generated == 6

    def test_generate_override_validated_at_admission(self):
        """An over-budget max_new_tokens override fails up front, before
        any hardware events are charged — not mid-generation."""
        model = toy_model(seq_len=8)
        request = decode_request(model, prompt_len=4, max_new_tokens=2)
        engine = NovaDecodeEngine(SMALL)
        before = engine.unit._lifetime_counters()
        with pytest.raises(KVCacheOverflow, match="cache slots"):
            engine.generate(request, max_new_tokens=40)
        assert engine.unit._lifetime_counters().as_dict() == before.as_dict()
        with pytest.raises(ValueError, match="max_new_tokens"):
            engine.generate(request, max_new_tokens=-1)

    def test_rejects_mismatched_recycled_page(self):
        engine = NovaDecodeEngine(SMALL)
        request = toy_request()
        wrong = KVCache(request.n_heads + 1, request.head_dim, 4)
        with pytest.raises(ValueError, match="does not match"):
            engine.start(request, cache=wrong)


# ----------------------------------------------------------------------
# Continuous batching.
# ----------------------------------------------------------------------


class TestContinuousBatching:
    def test_bit_cycle_counter_exact_vs_one_at_a_time(self):
        model = toy_model()
        requests = decode_batch(model, 5, prompt_len=3, max_new_tokens=4,
                                seed=0)
        engine = NovaDecodeEngine(SMALL)
        solo = [engine.generate(r) for r in requests]
        batch = ContinuousBatchScheduler(engine, max_active=2).run(requests)
        assert batch.n_requests == len(requests)
        for ref, got in zip(solo, batch.results):
            assert np.array_equal(ref.generated, got.generated)
            assert np.array_equal(ref.prefill.outputs, got.prefill.outputs)
            assert ref.vector_cycles == got.vector_cycles
            assert ref.counters.as_dict() == got.counters.as_dict()
            for a, b in zip(ref.steps, got.steps):
                assert a.vector_cycles == b.vector_cycles
                assert np.array_equal(a.output, b.output)

    def test_mixed_lengths_and_budgets(self):
        model = toy_model()
        requests = [
            decode_request(model, prompt_len=2 + i, max_new_tokens=i,
                           seed=i)
            for i in range(4)  # includes a prefill-only request (0 new)
        ]
        engine = NovaDecodeEngine(SMALL)
        batch = ContinuousBatchScheduler(engine, max_active=3).run(requests)
        assert batch.results[0].n_generated == 0
        assert [r.n_generated for r in batch.results] == [0, 1, 2, 3]
        assert batch.total_generated_tokens == 6

    def test_packing_saves_cycles(self):
        model = toy_model()
        requests = decode_batch(model, 6, prompt_len=4, max_new_tokens=4,
                                seed=0)
        batch = ContinuousBatchScheduler(
            NovaDecodeEngine(SMALL), max_active=6
        ).run(requests)
        assert batch.packed_vector_cycles < batch.sequential_vector_cycles
        assert batch.packing_speedup > 1.0

    def test_cache_pages_recycled_across_admissions(self):
        model = toy_model()
        requests = decode_batch(model, 6, prompt_len=3, max_new_tokens=2,
                                seed=0)
        scheduler = ContinuousBatchScheduler(
            NovaDecodeEngine(SMALL), max_active=2
        )
        batch = scheduler.run(requests)
        assert batch.pages_allocated == 2
        assert batch.pages_recycled == 4
        assert batch.pages_allocated + batch.pages_recycled == len(requests)
        # page stats are per run: a reused scheduler reports deltas, and
        # the second run recycles every page the first one pooled
        again = scheduler.run(requests)
        assert again.pages_allocated == 0
        assert again.pages_recycled == len(requests)

    def test_empty_batch_rejected(self):
        scheduler = ContinuousBatchScheduler(NovaDecodeEngine(SMALL))
        with pytest.raises(ValueError, match="at least one"):
            scheduler.run([])

    def test_over_long_request_rejected_before_any_work(self):
        model = toy_model(seq_len=8)
        good = decode_request(model, prompt_len=2, max_new_tokens=2, seed=0)
        bad = decode_request(model, prompt_len=7, max_new_tokens=7, seed=1)
        engine = NovaDecodeEngine(SMALL)
        scheduler = ContinuousBatchScheduler(engine, max_active=2)
        before = engine.unit._lifetime_counters()
        with pytest.raises(KVCacheOverflow):
            scheduler.run([good, bad])
        # validation is up-front: no hardware events were charged
        after = engine.unit._lifetime_counters()
        assert after.as_dict() == before.as_dict()

    def test_max_active_validation(self):
        with pytest.raises(ValueError, match="max_active"):
            ContinuousBatchScheduler(NovaDecodeEngine(SMALL), max_active=0)

    def test_session_serve_decode(self):
        model = toy_model()
        requests = decode_batch(model, 3, prompt_len=3, max_new_tokens=2,
                                seed=0)
        session = NovaSession(SMALL)
        batch = session.serve_decode(requests, max_active=2)
        solo = session.generate(requests[1])
        assert np.array_equal(batch.results[1].generated, solo.generated)


# ----------------------------------------------------------------------
# Workload builders.
# ----------------------------------------------------------------------


class TestDecodeWorkloads:
    def test_gpt2_small_is_a_causal_serving_model(self):
        config = serving_config("GPT-2-small")
        assert config.causal
        assert (config.hidden, config.heads, config.layers) == (768, 12, 12)
        assert config.seq_len == 1024

    def test_decode_request_defaults(self):
        config = serving_config("GPT-2-small")
        request = decode_request(config, max_new_tokens=4, seed=1)
        assert request.seq == config.seq_len // 4
        assert request.max_seq_len == config.seq_len
        assert request.causal

    def test_decode_batch_shares_weights(self):
        model = toy_model()
        shared = decode_batch(model, 3, prompt_len=2, max_new_tokens=1)
        assert shared[1].wq is shared[0].wq
        assert shared[2].wo is shared[0].wo
        assert not np.array_equal(shared[1].x, shared[0].x)
        independent = decode_batch(
            model, 3, prompt_len=2, max_new_tokens=1, shared_weights=False
        )
        assert independent[1].wq is not independent[0].wq

    def test_decode_batch_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            decode_batch(toy_model(), 0)

    def test_mixed_decode_batch_varies_lengths(self):
        from repro.workloads.bert import mixed_decode_batch

        model = toy_model(seq_len=64)
        requests = mixed_decode_batch(
            model, 5, prompt_lens=(2, 4), new_tokens=(1, 2, 3), seed=0
        )
        assert [r.seq for r in requests] == [2, 4, 2, 4, 2]
        assert [r.max_new_tokens for r in requests] == [1, 2, 3, 1, 2]
        # every request still declares the model's worst case
        assert all(r.max_seq_len == 64 for r in requests)
        # shared weights, independent prompts
        assert requests[1].wq is requests[0].wq
        assert not np.array_equal(requests[2].x, requests[0].x)

    def test_mixed_decode_batch_validation(self):
        from repro.workloads.bert import mixed_decode_batch

        with pytest.raises(ValueError, match="batch_size"):
            mixed_decode_batch(toy_model(), 0)
        with pytest.raises(ValueError, match="non-empty"):
            mixed_decode_batch(toy_model(), 2, prompt_lens=())

    def test_decode_serving_experiment_rejects_zero_budget(self):
        from repro.eval.experiments import decode_serving_throughput

        with pytest.raises(ValueError, match="max_new_tokens"):
            decode_serving_throughput(
                model_name=toy_model(), batch_size=1, prompt_len=2,
                max_new_tokens=0, config=SMALL, warmup=False,
            )

    def test_decode_serving_experiment_smoke(self):
        from repro.eval.experiments import decode_serving_throughput

        result = decode_serving_throughput(
            model_name=toy_model(), batch_size=3, prompt_len=3,
            max_new_tokens=3, config=SMALL, warmup=False,
        )
        assert len(result.rows) == 2
        tokens_per_s = result.column("Tokens/s")
        assert all(v > 0 for v in tokens_per_s)
