"""Tests for the batched serving engine and the compile-time caches.

The contract under test: batching changes *when* work happens (packed
lane streams, shared tables, one overlay) but never *what* is computed —
outputs bit-identical, per-request cycle counts and event counters equal
to the sequential reference engine.
"""

import dataclasses

import numpy as np
import pytest

from repro.approx.quantize import beat_of_address
from repro.approx.table_cache import (
    clear_table_cache,
    compiled_table,
    table_cache_info,
)
from repro.core.attention import NovaAttentionEngine, pack_lane_stream
from repro.core.batched_attention import (
    AttentionRequest,
    BatchedNovaAttentionEngine,
)
from repro.core.config import PRESETS, NovaConfig
from repro.core.mapper import NovaMapper
from repro.core.vector_unit import NovaVectorUnit
from repro.workloads.bert import bert_attention_batch
from repro.workloads.transformer import (
    TransformerConfig,
    attention_request,
    decode_request,
)

GEOMETRY = NovaConfig(
    n_routers=2, neurons_per_router=16, pe_frequency_ghz=1.4, hop_mm=0.5,
    seed=0,
)


@pytest.fixture(scope="module")
def engines():
    return (
        NovaAttentionEngine(GEOMETRY),
        BatchedNovaAttentionEngine(GEOMETRY),
    )


@pytest.fixture(scope="module")
def mixed_batch():
    # variable sequence lengths, including ones that leave a partially
    # filled final lane batch
    return bert_attention_batch("BERT-tiny", 4, seq_len=[8, 5, 12, 7], seed=3)


@pytest.fixture(scope="module")
def batch_result(engines, mixed_batch):
    _, batched = engines
    return batched.attention_batch(mixed_batch)


class TestBatchedEqualsSequential:
    def test_outputs_bit_identical(self, engines, mixed_batch, batch_result):
        sequential, _ = engines
        for req, got in zip(mixed_batch, batch_result.results):
            ref = sequential.attention_layer(
                req.x, req.wq, req.wk, req.wv, req.wo, n_heads=req.n_heads
            )
            assert np.array_equal(got.outputs, ref.outputs)
            assert np.array_equal(got.probabilities, ref.probabilities)

    def test_per_request_cycles_match_sequential(
        self, engines, mixed_batch, batch_result
    ):
        sequential, _ = engines
        for req, got in zip(mixed_batch, batch_result.results):
            ref = sequential.attention_layer(
                req.x, req.wq, req.wk, req.wv, req.wo, n_heads=req.n_heads
            )
            assert got.vector_cycles == ref.vector_cycles
            assert got.nonlinear_queries == ref.nonlinear_queries

    def test_per_request_counters_match_sequential(
        self, engines, mixed_batch, batch_result
    ):
        sequential, _ = engines
        for req, got in zip(mixed_batch, batch_result.results):
            ref = sequential.attention_layer(
                req.x, req.wq, req.wk, req.wv, req.wo, n_heads=req.n_heads
            )
            assert got.counters.as_dict() == ref.counters.as_dict()

    def test_packing_never_slower_than_sequential(self, batch_result):
        assert batch_result.packed_vector_cycles <= (
            batch_result.sequential_vector_cycles
        )
        assert batch_result.packing_speedup >= 1.0

    def test_batch_counters_are_the_shared_overlay_events(
        self, engines, mixed_batch, batch_result
    ):
        # lane-local events on the shared overlay equal the packed lane
        # count exactly: packed cycles x lanes, with only the phase tails
        # padded (not each request's tail)
        _, batched = engines
        packed_lanes = batch_result.packed_vector_cycles * batched.n_lanes
        for event in ("comparator_eval", "mac_op", "pair_capture"):
            assert batch_result.counters.get(event) == packed_lanes
            assert batch_result.counters.get(event) <= sum(
                r.counters.get(event) for r in batch_result.results
            )

    def test_empty_batch_rejected(self, engines):
        _, batched = engines
        with pytest.raises(ValueError):
            batched.attention_batch([])


class TestTableCache:
    def test_same_key_returns_same_object(self):
        a = compiled_table("exp", n_segments=16, seed=0)
        b = compiled_table("exp", n_segments=16, seed=0)
        assert a is b

    def test_distinct_seeds_distinct_objects(self):
        a = compiled_table("exp", n_segments=16, seed=0)
        b = compiled_table("exp", n_segments=16, seed=7)
        assert a is not b

    def test_distinct_segment_counts_distinct_objects(self):
        a = compiled_table("gelu", n_segments=16, seed=0)
        b = compiled_table("gelu", n_segments=8, seed=0)
        assert a is not b
        assert a.n_segments == 16 and b.n_segments == 8

    def test_engines_share_table_objects(self, engines):
        sequential, batched = engines
        for name in ("exp", "reciprocal", "gelu"):
            assert sequential.tables[name] is batched.tables[name]

    def test_cache_info_counts_hits(self):
        compiled_table("exp", n_segments=16, seed=0)  # prime (hit or miss)
        info0 = table_cache_info()
        compiled_table("exp", n_segments=16, seed=0)
        info1 = table_cache_info()
        assert info1["hits"] == info0["hits"] + 1
        assert info1["entries"] == info0["entries"]

    def test_clear_and_rebuild(self):
        before = compiled_table("reciprocal", n_segments=8, seed=1)
        clear_table_cache()
        assert table_cache_info()["entries"] == 0
        after = compiled_table("reciprocal", n_segments=8, seed=1)
        assert after is not before
        # retraining with the same seed is bit-identical
        assert np.array_equal(
            after.quantized_pwl.slopes, before.quantized_pwl.slopes
        )
        assert np.array_equal(after.quantized_pwl.cuts, before.quantized_pwl.cuts)

    def test_unknown_function_rejected(self):
        with pytest.raises(KeyError):
            compiled_table("definitely_not_a_function")


class TestScheduleCache:
    def test_identical_geometries_share_schedule(self):
        a = NovaMapper().schedule(
            n_routers=3, pe_frequency_ghz=1.1, n_pairs=16, hop_mm=0.5
        )
        b = NovaMapper().schedule(
            n_routers=3, pe_frequency_ghz=1.1, n_pairs=16, hop_mm=0.5
        )
        assert a is b

    def test_distinct_geometries_distinct_schedules(self):
        a = NovaMapper().schedule(
            n_routers=3, pe_frequency_ghz=1.1, n_pairs=16, hop_mm=0.5
        )
        b = NovaMapper().schedule(
            n_routers=4, pe_frequency_ghz=1.1, n_pairs=16, hop_mm=0.5
        )
        assert a is not b

    def test_units_of_both_engines_share_schedules(self, engines):
        sequential, batched = engines
        batched.unit.retarget(batched.tables["exp"])
        assert sequential.units["exp"].schedule is batched.unit.schedule


#: Every Table II preset plus a line too long for one NoC cycle, so the
#: per-batch events include non-zero ``register_write`` charges.
ACCOUNTING_GEOMETRIES = [PRESETS[name] for name in sorted(PRESETS)] + [
    NovaConfig(n_routers=25, neurons_per_router=2, pe_frequency_ghz=0.75)
]


@pytest.fixture(scope="module", params=ACCOUNTING_GEOMETRIES,
                ids=lambda cfg: f"{cfg.n_routers}x{cfg.neurons_per_router}")
def geometry_engine(request):
    return BatchedNovaAttentionEngine(request.param)


class TestPerTableAccounting:
    """The per-table constants computed once at construction."""

    def test_phase_costs_equal_a_fresh_recompute(self, geometry_engine):
        engine = geometry_engine
        cfg = engine.config
        for name, table in engine.tables.items():
            schedule = NovaMapper().schedule(
                n_routers=cfg.n_routers,
                pe_frequency_ghz=cfg.pe_frequency_ghz,
                n_pairs=table.n_segments,
                hop_mm=cfg.hop_mm,
            )
            phase = engine._phases[name]
            assert phase.n_beats == schedule.n_beats
            assert phase.pad_beat == beat_of_address(
                int(table.segment_index(0.0)), schedule.n_beats
            )
            assert dict(phase.per_batch) == {
                event: count
                for event, count in schedule.broadcast_event_counts(1).items()
                if count
            }

    def test_exp_pads_select_a_non_zero_beat(self, geometry_engine):
        # a zero-padded exp lane addresses the table's top segment, so
        # the padding's tag_match term is exercised, not multiplied by 0
        assert geometry_engine._phases["exp"].pad_beat > 0

    def test_closed_form_equals_dedicated_padded_streams(
        self, geometry_engine
    ):
        engine = geometry_engine
        lanes = engine.n_lanes
        rng = np.random.default_rng(4)
        inputs = {
            "exp": -rng.exponential(2.0, 2 * lanes + 3),
            "reciprocal": rng.uniform(1.0, 2.0, lanes - 1),
        }
        streams, expected = {}, None
        for name, values in inputs.items():
            assert len(values) % lanes  # the last lane batch is padded
            unit = NovaVectorUnit(engine.tables[name], engine.config)
            batches, _ = pack_lane_stream(values, engine._shape)
            dedicated = unit.run_stream(batches, simulate=True)
            real = dedicated.addresses.reshape(-1)[: len(values)]
            tag_sum = int(
                beat_of_address(real, engine._phases[name].n_beats).sum()
            )
            streams[name] = (len(values), tag_sum)
            assert (
                engine._sequential_request_counters(
                    {name: streams[name]}
                ).as_dict()
                == dedicated.counters.as_dict()
            )
            expected = (
                dedicated.counters
                if expected is None
                else expected.merge(dedicated.counters)
            )
        assert expected is not None
        assert (
            engine._sequential_request_counters(streams).as_dict()
            == expected.as_dict()
        )


class TestAttentionRequest:
    def test_builder_produces_valid_request(self):
        config = TransformerConfig(
            "toy", layers=1, hidden=16, heads=2, intermediate=32, seq_len=8
        )
        req = attention_request(config, seed=5)
        assert req.seq == 8 and req.hidden == 16 and req.n_heads == 2

    def test_builder_is_deterministic(self):
        config = TransformerConfig(
            "toy", layers=1, hidden=16, heads=2, intermediate=32, seq_len=8
        )
        a = attention_request(config, seed=5)
        b = attention_request(config, seed=5)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.wq, b.wq)

    def test_bad_shapes_rejected(self):
        good = np.zeros((4, 8))
        w = np.zeros((8, 8))
        with pytest.raises(ValueError):
            AttentionRequest(x=np.zeros(4), wq=w, wk=w, wv=w, wo=w, n_heads=2)
        with pytest.raises(ValueError):
            AttentionRequest(
                x=good, wq=np.zeros((8, 4)), wk=w, wv=w, wo=w, n_heads=2
            )
        with pytest.raises(ValueError):
            AttentionRequest(x=good, wq=w, wk=w, wv=w, wo=w, n_heads=3)
        with pytest.raises(ValueError):
            AttentionRequest(x=good, wq=w, wk=w, wv=w, wo=w, n_heads=0)

    def test_nan_in_x_rejected(self):
        w = np.zeros((8, 8))
        x = np.zeros((4, 8))
        x[2, 5] = np.nan
        with pytest.raises(ValueError, match="x must be finite"):
            AttentionRequest(x=x, wq=w, wk=w, wv=w, wo=w, n_heads=2)

    def test_inf_in_weight_rejected(self):
        w = np.zeros((8, 8))
        wq = w.copy()
        wq[0, 0] = np.inf
        with pytest.raises(ValueError, match="wq must be finite"):
            AttentionRequest(x=np.zeros((4, 8)), wq=wq, wk=w, wv=w, wo=w,
                             n_heads=2)

    def test_replace_injecting_nan_rejected(self):
        # validation runs on every construction path, including the
        # frozen-dataclass copy DecodeRequest inherits
        req = decode_request(
            TransformerConfig("toy", layers=1, hidden=8, heads=2,
                              intermediate=16, seq_len=8, causal=True),
            prompt_len=4, max_new_tokens=2, seed=0,
        )
        x = req.x.copy()
        x[-1, 0] = np.nan
        with pytest.raises(ValueError, match="x must be finite"):
            dataclasses.replace(req, x=x)
        wo = req.wo.copy()
        wo[1, 1] = -np.inf
        with pytest.raises(ValueError, match="wo must be finite"):
            dataclasses.replace(req, wo=wo)

    def test_batch_builder_validates(self):
        with pytest.raises(ValueError):
            bert_attention_batch("BERT-tiny", 0)
        with pytest.raises(ValueError):
            bert_attention_batch("BERT-tiny", 3, seq_len=[8, 8])
        with pytest.raises(KeyError):
            bert_attention_batch("no-such-model", 2)
