"""Unit + equivalence tests for the NOVA vector unit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.approx.functions import get_function
from repro.approx.nnlut_mlp import train_nnlut_mlp
from repro.approx.pwl import PiecewiseLinear
from repro.approx.quantize import QuantizedPwl, pack_beats
from repro.core.config import NovaConfig
from repro.core.vector_unit import NovaVectorUnit


def make_unit(n_routers=4, neurons=8, n_segments=16, pe_ghz=1.0, name="gelu",
              hop_mm=1.0):
    spec = get_function(name)
    table = QuantizedPwl(PiecewiseLinear.fit(spec.fn, spec.domain, n_segments))
    return NovaVectorUnit(
        table,
        NovaConfig(n_routers=n_routers, neurons_per_router=neurons,
                   pe_frequency_ghz=pe_ghz, hop_mm=hop_mm),
    )


class TestFunctionalVerification:
    """Stands in for the paper's Synopsys VCS verification (§V-A)."""

    def test_bit_exact_vs_golden(self):
        unit = make_unit()
        x = np.random.default_rng(0).normal(0, 3, size=(4, 8))
        assert np.array_equal(unit.approximate(x).outputs, unit.golden_reference(x))

    def test_bit_exact_with_8_segment_table(self):
        unit = make_unit(n_segments=8)
        x = np.random.default_rng(1).normal(0, 3, size=(4, 8))
        assert np.array_equal(unit.approximate(x).outputs, unit.golden_reference(x))

    def test_bit_exact_multi_cycle_traversal(self):
        unit = make_unit(n_routers=25, neurons=2, pe_ghz=0.75)
        assert unit.schedule.traversal_segments > 1
        x = np.random.default_rng(2).normal(0, 3, size=(25, 2))
        assert np.array_equal(unit.approximate(x).outputs, unit.golden_reference(x))

    def test_out_of_domain_inputs_clamped(self):
        unit = make_unit()
        x = np.array([[100.0, -100.0] + [0.0] * 6] * 4)
        out = unit.approximate(x).outputs
        assert np.array_equal(out, unit.golden_reference(x))


class TestTiming:
    def test_latency_two_pe_cycles_at_paper_operating_point(self):
        unit = make_unit(n_routers=8, neurons=128, pe_ghz=1.4, hop_mm=0.5)
        result = unit.approximate(np.zeros((8, 128)))
        assert result.latency_pe_cycles == 2
        assert result.noc_cycles == 2  # 2 beats, single NoC cycle each

    def test_stream_pipeline_cycles(self):
        unit = make_unit()
        xs = np.random.default_rng(3).normal(size=(10, 4, 8))
        stream = unit.run_stream(xs)
        # 10 batches through a 2-stage pipeline: 11 PE cycles
        assert stream.total_pe_cycles == 11

    def test_stream_outputs_match_golden(self):
        unit = make_unit()
        xs = np.random.default_rng(4).normal(size=(5, 4, 8))
        stream = unit.run_stream(xs)
        for t in range(5):
            assert np.array_equal(stream.outputs[t], unit.golden_reference(xs[t]))


class TestEventCounting:
    def test_per_batch_counts(self):
        unit = make_unit(n_routers=4, neurons=8)
        result = unit.approximate(np.zeros((4, 8)))
        c = result.counters
        assert c.get("comparator_eval") == 32
        assert c.get("mac_op") == 32
        assert c.get("pair_capture") == 32
        assert c.get("wire_hop") == 2 * 4  # 2 beats x 4 routers
        assert c.get("beat_launch") == 2

    def test_stream_counters_scale_linearly(self):
        unit = make_unit()
        xs = np.zeros((3, 4, 8))
        stream = unit.run_stream(xs)
        assert stream.counters.get("mac_op") == 3 * 32
        assert stream.counters.get("beat_launch") == 6


class TestValidation:
    def test_input_shape(self):
        unit = make_unit()
        with pytest.raises(ValueError):
            unit.approximate(np.zeros((3, 8)))

    def test_stream_dims(self):
        unit = make_unit()
        with pytest.raises(ValueError):
            unit.run_stream(np.zeros((4, 8)))
        with pytest.raises(ValueError):
            unit.run_stream(np.zeros((0, 4, 8)))

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            NovaConfig(n_routers=4, neurons_per_router=0,
                       pe_frequency_ghz=1.0)

    def test_bad_router_count(self):
        # regression: a zero/negative router count must fail fast in the
        # constructor, not deep inside the mapper or topology
        for n_routers in (0, -1):
            with pytest.raises(ValueError, match="n_routers"):
                NovaConfig(n_routers=n_routers, neurons_per_router=8,
                           pe_frequency_ghz=1.0)

    def test_stream_batch_shape_checked(self):
        unit = make_unit()
        with pytest.raises(ValueError):
            unit.run_stream(np.zeros((2, 3, 8)))


class TestVectorizedStream:
    """The fast path must be indistinguishable from the cycle sim."""

    @pytest.mark.parametrize(
        "n_routers,neurons,n_segments,pe_ghz",
        [(4, 8, 16, 1.0), (25, 2, 16, 0.75), (3, 5, 8, 0.5)],
    )
    def test_matches_simulated_path(self, n_routers, neurons, n_segments, pe_ghz):
        xs = np.random.default_rng(7).normal(
            0, 3, size=(6, n_routers, neurons)
        )
        fast = make_unit(n_routers, neurons, n_segments, pe_ghz)
        slow = make_unit(n_routers, neurons, n_segments, pe_ghz)
        a = fast.run_stream(xs)
        b = slow.run_stream(xs, simulate=True)
        assert np.array_equal(a.outputs, b.outputs)
        assert a.total_pe_cycles == b.total_pe_cycles
        assert a.batch_latency_pe_cycles == b.batch_latency_pe_cycles
        # exact counter parity, including the address-dependent tag_match
        assert a.counters.as_dict() == b.counters.as_dict()

    def test_addresses_reported_on_fast_path(self):
        unit = make_unit()
        xs = np.random.default_rng(8).normal(0, 3, size=(3, 4, 8))
        stream = unit.run_stream(xs)
        assert stream.addresses is not None
        assert np.array_equal(stream.addresses, unit.table.segment_index(xs))

    def test_lifetime_counters_consistent_across_modes(self):
        # interleaving fast streams with per-batch approximate() must keep
        # one monotonic lifetime ledger
        unit = make_unit()
        xs = np.random.default_rng(9).normal(0, 3, size=(2, 4, 8))
        before = unit._lifetime_counters()
        unit.run_stream(xs)
        unit.approximate(xs[0])
        unit.run_stream(xs, simulate=True)
        delta = unit._lifetime_counters().diff(before)
        assert delta.get("mac_op") == 5 * 32  # 2 + 1 + 2 batches of 32 lanes
        assert delta.get("beat_launch") == 5 * 2


class TestRetarget:
    def test_retarget_switches_function_in_place(self):
        gelu = make_unit()
        spec = get_function("exp")
        exp_table = QuantizedPwl(PiecewiseLinear.fit(spec.fn, spec.domain, 16))
        x = np.random.default_rng(10).normal(0, 2, size=(4, 8))
        gelu.retarget(exp_table)
        assert np.array_equal(
            gelu.approximate(x).outputs, exp_table.evaluate(x)
        )

    def test_retarget_across_segment_counts_reschedules(self):
        unit = make_unit(n_segments=16)
        assert unit.schedule.n_beats == 2
        spec = get_function("exp")
        t8 = QuantizedPwl(PiecewiseLinear.fit(spec.fn, spec.domain, 8))
        unit.retarget(t8)
        assert unit.schedule.n_beats == 1
        x = np.random.default_rng(11).normal(0, 2, size=(4, 8))
        assert np.array_equal(unit.approximate(x).outputs, t8.evaluate(x))

    def test_round_trip_restores_the_serialised_beats(self):
        unit = make_unit()
        gelu = unit.table
        spec = get_function("exp")
        exp8 = QuantizedPwl(PiecewiseLinear.fit(spec.fn, spec.domain, 8))
        unit.retarget(exp8)
        assert unit.beats == pack_beats(exp8)
        unit.retarget(gelu)
        assert unit.beats == pack_beats(gelu)
        assert unit.schedule.n_beats == len(unit.beats) == 2

    def test_fresh_table_never_reuses_old_beats(self):
        # memoised per table object: a new table with the same segment
        # count (even one that reuses a dropped table's id) is serialised
        # from its own coefficients
        unit = make_unit()
        for name in ("exp", "tanh", "sigmoid", "exp"):
            spec = get_function(name)
            fresh = QuantizedPwl(PiecewiseLinear.fit(spec.fn, spec.domain, 16))
            unit.retarget(fresh)
            assert unit.table is fresh
            assert unit.beats == pack_beats(fresh)
            del fresh

    def test_retarget_to_current_table_is_a_no_op(self):
        unit = make_unit()
        state = (unit.table, unit.config, unit.schedule, unit.beats)
        unit.retarget(unit.table)
        after = (unit.table, unit.config, unit.schedule, unit.beats)
        assert all(a is b for a, b in zip(after, state))

    def test_config_rebuilt_only_when_segment_count_changes(self):
        unit = make_unit(n_segments=16)
        config = unit.config
        spec = get_function("exp")
        unit.retarget(QuantizedPwl(PiecewiseLinear.fit(spec.fn, spec.domain, 16)))
        assert unit.config is config
        unit.retarget(QuantizedPwl(PiecewiseLinear.fit(spec.fn, spec.domain, 8)))
        assert unit.config.n_segments == 8
        assert unit.config == config.replace(n_segments=8)

    def test_memoised_beats_cannot_be_mutated_through_the_unit(self):
        unit = make_unit()
        table = unit.table
        pristine = pack_beats(table)
        unit.beats[0] = unit.beats[1]
        unit.beats.append(unit.beats[0])
        assert list(table.packed_beats) == pristine
        with pytest.raises(TypeError):
            table.packed_beats[0] = pristine[1]
        other = NovaVectorUnit(table, unit.config)
        assert other.beats == pristine

    def test_retarget_preserves_counters(self):
        unit = make_unit()
        unit.run_stream(np.zeros((2, 4, 8)))
        lifetime = unit._lifetime_counters()
        spec = get_function("exp")
        unit.retarget(QuantizedPwl(PiecewiseLinear.fit(spec.fn, spec.domain, 16)))
        assert unit._lifetime_counters().as_dict() == lifetime.as_dict()


@settings(max_examples=25, deadline=None)
@given(
    x=hnp.arrays(
        dtype=np.float64,
        shape=(3, 5),
        elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
    ),
)
def test_hardware_equals_golden_property(x):
    """The cycle-accurate pipeline is bit-exact for any input whatsoever."""
    spec = get_function("tanh")
    table = QuantizedPwl(PiecewiseLinear.fit(spec.fn, spec.domain, 16))
    unit = NovaVectorUnit(table, NovaConfig(
        n_routers=3, neurons_per_router=5, pe_frequency_ghz=0.5, hop_mm=1.0))
    assert np.array_equal(unit.approximate(x).outputs, unit.golden_reference(x))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_mlp_trained_tables_also_exact(seed):
    spec = get_function("exp")
    mlp = train_nnlut_mlp(spec, n_segments=16, seed=seed, epochs=40)
    table = QuantizedPwl(mlp.to_piecewise_linear(n_segments=16))
    unit = NovaVectorUnit(table, NovaConfig(
        n_routers=2, neurons_per_router=4, pe_frequency_ghz=1.0, hop_mm=1.0))
    x = np.random.default_rng(seed).uniform(-20, 4, size=(2, 4))
    assert np.array_equal(unit.approximate(x).outputs, unit.golden_reference(x))
