"""Tests for the experiment harness (table/figure regeneration)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.eval import paper_data
from repro.eval.experiments import (
    ExperimentResult,
    fig6_area_scaling,
    fig7_power_scaling,
    fig8_energy,
    nvdla_duty_cycle_estimate,
    scalability_sweep,
    table2_configs,
    table3_overhead,
    table4_related_work,
)
from repro.eval.report import render_experiment


def ratios(column):
    """Parse '3.34x'-style cells into floats."""
    return [float(str(c).rstrip("x")) for c in column]


class TestTable2:
    def test_rows_match_paper_configs(self):
        result = table2_configs()
        assert len(result.rows) == 4
        assert result.column("Accelerator") == [
            "REACT", "TPU v3-like", "TPU v4-like", "Jetson Xavier NX",
        ]

    def test_all_configs_single_cycle(self):
        # §V-A: "all the above NOVA configurations ... having <=10 routers
        # can complete a broadcast traversal within a cycle"
        assert all(table2_configs().column("Single-cycle"))

    def test_two_beats_at_16_breakpoints(self):
        result = table2_configs()
        assert all(b == 2 for b in result.column("Beats"))
        for freq, noc in zip(result.column("Freq (MHz)"),
                             result.column("NoC clock (MHz)")):
            assert noc == 2 * freq  # "2x the frequency of the base"


class TestTable3:
    def test_covers_all_paper_cells(self):
        result = table3_overhead()
        assert len(result.rows) == len(paper_data.TABLE3_OVERHEAD)

    def test_nova_always_smallest(self):
        result = table3_overhead()
        by_acc = {}
        for row in result.rows:
            by_acc.setdefault(row[0], {})[row[1]] = (row[2], row[4])
        for acc, units in by_acc.items():
            nova_area, nova_power = units["nova"]
            for unit, (area, power) in units.items():
                if unit == "nova":
                    continue
                assert nova_area < area, (acc, unit)
                assert nova_power < power, (acc, unit)

    def test_react_area_savings_in_paper_band(self):
        result = table3_overhead()
        cells = {(r[0], r[1]): r[2] for r in result.rows}
        saving_pn = cells[("REACT", "per_neuron_lut")] / cells[("REACT", "nova")]
        saving_pc = cells[("REACT", "per_core_lut")] / cells[("REACT", "nova")]
        # paper: 3.34x and 1.78x — require the right ballpark and ordering
        assert 2.0 < saving_pn < 5.0
        assert 1.2 < saving_pc < 3.5
        assert saving_pn > saving_pc

    def test_tpu_power_savings_exceed_3x(self):
        result = table3_overhead()
        cells = {(r[0], r[1]): r[4] for r in result.rows}
        for acc in ("TPU v3-like", "TPU v4-like"):
            ratio = cells[(acc, "per_core_lut")] / cells[(acc, "nova")]
            assert ratio > 3.0  # paper: >9.4x with their per-core number

    def test_nvdla_power_saving_large(self):
        result = table3_overhead()
        cells = {(r[0], r[1]): r[4] for r in result.rows}
        ratio = (cells[("Jetson Xavier NX", "nvdla_sdp")]
                 / cells[("Jetson Xavier NX", "nova")])
        assert ratio > 10.0  # paper: 37.8x

    def test_raw_mode_differs_from_calibrated(self):
        raw = table3_overhead(calibrated=False)
        cal = table3_overhead(calibrated=True)
        assert raw.rows != cal.rows


class TestFigs67:
    def test_fig6_nova_flattest(self):
        result = fig6_area_scaling()
        nova = result.column("NOVA router")
        pn = result.column("Per-neuron LUT")
        growth_nova = nova[-1] / nova[0]
        growth_pn = pn[-1] / pn[0]
        assert growth_nova < 0.5 * growth_pn

    def test_fig6_savings_grow_with_neurons(self):
        savings = ratios(fig6_area_scaling().column("NOVA saving vs per-neuron"))
        assert savings == sorted(savings)
        assert savings[-1] > 3.0  # paper: avg 3.23x

    def test_fig7_per_core_crossover(self):
        # per-core wins at few neurons, NOVA wins big at many (paper §V-B:
        # NOVA "scales better with neuron count")
        savings = ratios(fig7_power_scaling().column("NOVA saving vs per-core"))
        assert savings[0] < 1.0
        assert savings[-1] > 5.0

    def test_fig7_monotone_curves(self):
        result = fig7_power_scaling()
        for column in ("NOVA router", "Per-neuron LUT", "Per-core LUT"):
            values = result.column(column)
            assert values == sorted(values), column


class TestFig8:
    def test_covers_all_benchmarks_and_hosts(self):
        result = fig8_energy()
        assert len(result.rows) == 3 * 5  # 3 hosts x 5 benchmarks

    def test_seq_lens_follow_paper(self):
        result = fig8_energy()
        for acc, seq in zip(result.column("Accelerator"),
                            result.column("Seq len")):
            assert seq == paper_data.FIG8_SEQ_LEN[acc]

    def test_nova_always_lowest_energy(self):
        result = fig8_energy()
        for row in result.rows:
            nova, pn, pc = row[3], row[4], row[5]
            assert nova < pn and nova < pc

    def test_paper_method_ratios_match_power_ratios(self):
        # under the paper's method the energy ratio equals the Table III
        # power ratio — TPU-v4 rows must exceed 3x (per-neuron) and 5x
        # (per-core)
        result = fig8_energy()
        for row in result.rows:
            if row[0] != "TPU v4-like":
                continue
            pn_ratio = float(str(row[8]).rstrip("x"))
            pc_ratio = float(str(row[9]).rstrip("x"))
            assert pn_ratio > 3.0
            assert pc_ratio > 5.0

    def test_tpu_overhead_percent_small(self):
        # paper §V-F: NOVA's energy overhead on TPU-v4 is ~0.5%
        result = fig8_energy()
        for row in result.rows:
            if row[0].startswith("TPU"):
                assert row[10] < 5.0


class TestOthers:
    def test_scalability_paper_point(self):
        result = scalability_sweep()
        cells = {row[0]: row[1] for row in result.rows}
        assert cells[1.5] == 10  # the §V-A claim

    def test_scalability_monotone(self):
        reach = scalability_sweep().column("Max routers in one cycle")
        assert reach == sorted(reach, reverse=True)

    def test_table4_nova_lane_smaller_than_ibert(self):
        result = table4_related_work()
        cells = {row[0]: row for row in result.rows}
        nova_area = cells["NOVA"][2]
        assert nova_area < cells["I-BERT"][3]  # our lane < I-BERT's paper area
        assert nova_area < cells["NACU"][3]

    def test_nvdla_duty_estimate_low(self):
        assert nvdla_duty_cycle_estimate() < 0.1

    def test_batched_serving_throughput_rows(self):
        from repro.eval.experiments import batched_serving_throughput

        result = batched_serving_throughput(
            model_name="BERT-tiny", batch_size=2, seq_len=16,
            config="jetson-nx",
        )
        assert result.column("Path") == [
            "sequential (cycle-accurate)", "batched (lane-packed)",
        ]
        # the experiment asserts output/cycle equality internally; the
        # table itself must carry positive throughput on both rows
        assert all(r > 0 for r in result.column("Requests/s"))

    def test_paged_decode_utilization_rows(self):
        from repro.eval.experiments import paged_decode_utilization
        from repro.workloads.transformer import TransformerConfig

        model = TransformerConfig(
            "paged-smoke", layers=1, hidden=16, heads=2, intermediate=64,
            seq_len=32, causal=True,
        )
        result = paged_decode_utilization(
            model_name=model, batch_size=4, config="jetson-nx",
            pool_pages=2, block_size=4, prompt_lens=(2, 3),
            new_tokens=(1, 2), warmup=False,
        )
        assert result.column("Memory model") == [
            "contiguous pages", "paged KV blocks",
        ]
        contiguous, paged = result.column("Peak concurrent")
        # the experiment asserts bit-exactness internally; the table
        # must show the admission-capacity win at the same byte budget
        assert contiguous == 2
        assert paged > contiguous
        assert result.column("Admission gain")[0] == "1.00x"

    def test_paged_decode_utilization_validation(self):
        from repro.eval.experiments import paged_decode_utilization

        with pytest.raises(ValueError, match="pool_pages"):
            paged_decode_utilization(pool_pages=0)

    def test_prefix_caching_residency_rows(self):
        from repro.eval.experiments import prefix_caching_residency
        from repro.workloads.transformer import TransformerConfig

        model = TransformerConfig(
            "prefix-smoke", layers=1, hidden=8, heads=2, intermediate=32,
            seq_len=64, causal=True,
        )
        result = prefix_caching_residency(
            model_name=model, batch_size=4, prefix_tokens=8,
            suffix_tokens=1, max_new_tokens=2, config="jetson-nx",
            block_size=4, warmup=False,
        )
        assert result.column("Memory model") == [
            "paged, no sharing", "paged + prefix cache",
        ]
        plain_peak, cached_peak = result.column("Peak KV slots")
        # bit-exactness is asserted inside the experiment; the table
        # must show the residency win and the sharing counters
        assert cached_peak < plain_peak
        assert result.column("Prefix hits") == [0, 3 * 2]
        assert result.column("Blocks shared")[1] >= 6
        assert result.column("Residency")[0] == "1.00x"
        assert result.column("Residency")[1].endswith("x")

    def test_prefix_caching_residency_validation(self):
        from repro.eval.experiments import prefix_caching_residency

        with pytest.raises(ValueError, match="batch_size"):
            prefix_caching_residency(batch_size=1)
        with pytest.raises(ValueError, match="full block"):
            prefix_caching_residency(prefix_tokens=4, block_size=8)

    def test_render_experiment(self):
        text = render_experiment(table2_configs())
        assert "Table II" in text
        assert "REACT" in text
        assert "Notes:" in text

    def test_column_accessor(self):
        result = ExperimentResult("X", "t", ["a", "b"], [[1, 2], [3, 4]])
        assert result.column("b") == [2, 4]
        with pytest.raises(KeyError):
            result.column("c")


class TestCli:
    def test_cli_runs_fast_experiments(self, capsys):
        from repro.eval.cli import main

        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_cli_all_without_table1(self, capsys):
        from repro.eval.cli import main

        assert main(["all"]) == 0
        out = capsys.readouterr().out
        assert "Fig 8" in out and "Table I:" not in out


# ----------------------------------------------------------------------
# The serving experiments' shared solo-equivalence check.
# ----------------------------------------------------------------------


def _nudged(array):
    out = np.array(array, copy=True)
    out.flat[0] = np.nextafter(out.flat[0], np.inf)
    return out


def _bumped(counters):
    out = counters.snapshot()
    out.add("mac_op")
    return out


#: One perturbation per field the check compares.
PERTURB = {
    "generated": lambda r: replace(r, generated=_nudged(r.generated)),
    "prefill.outputs": lambda r: replace(
        r, prefill=replace(r.prefill, outputs=_nudged(r.prefill.outputs))
    ),
    "outputs": lambda r: replace(r, outputs=_nudged(r.outputs)),
    "vector_cycles": lambda r: replace(r, vector_cycles=r.vector_cycles + 1),
    "counters": lambda r: replace(r, counters=_bumped(r.counters)),
    "sequential_vector_cycles": lambda r: replace(
        r, sequential_vector_cycles=r.sequential_vector_cycles + 1
    ),
}


@pytest.fixture(scope="module")
def solo_pairs():
    """(references, results) per result kind, two requests each: plain
    and speculative decode against plain generate, batched attention
    against the sequential engine."""
    from repro.core.config import NovaConfig
    from repro.core.session import NovaSession
    from repro.core.speculative import (
        SpeculativeDecodeEngine,
        TruncatedTableDraft,
    )
    from repro.workloads.bert import bert_attention_batch
    from repro.workloads.transformer import TransformerConfig, decode_request

    cfg = NovaConfig(n_routers=2, neurons_per_router=8)
    session = NovaSession(cfg)
    model = TransformerConfig(
        "toy", layers=1, hidden=16, heads=2, intermediate=64, seq_len=32,
        causal=True,
    )
    requests = [
        decode_request(model, prompt_len=4, max_new_tokens=4, seed=seed)
        for seed in (0, 1)
    ]
    plain = [session.decoder.generate(r) for r in requests]
    speculator = SpeculativeDecodeEngine(session.decoder, spec_k=2)
    speculative = [
        speculator.generate(
            r, draft=TruncatedTableDraft(cfg, fidelity=0.5, seed=3)
        )
        for r in requests
    ]
    attention = bert_attention_batch("BERT-tiny", 2, seq_len=[5, 7], seed=2)
    sequential = [
        session.reference.attention_layer(
            r.x, r.wq, r.wk, r.wv, r.wo, n_heads=r.n_heads
        )
        for r in attention
    ]
    return {
        "plain": (plain, [session.decoder.generate(r) for r in requests]),
        "speculative": (plain, speculative),
        "attention": (
            sequential, session.server.attention_batch(attention).results
        ),
    }


@pytest.mark.parametrize("container", ["sequence", "mapping"])
@pytest.mark.parametrize(
    "kind, field",
    [
        ("plain", None),
        ("plain", "generated"),
        ("plain", "prefill.outputs"),
        ("plain", "vector_cycles"),
        ("plain", "counters"),
        ("speculative", None),
        ("speculative", "generated"),
        ("speculative", "prefill.outputs"),
        ("speculative", "sequential_vector_cycles"),
        ("attention", None),
        ("attention", "outputs"),
        ("attention", "vector_cycles"),
        ("attention", "counters"),
    ],
)
def test_solo_equivalence_check(solo_pairs, kind, field, container):
    from repro.eval.experiments import _check_solo_equivalence

    refs, results = solo_pairs[kind]
    results = list(results)
    if field is not None:
        results[1] = PERTURB[field](results[1])
    if container == "mapping":
        # keyed by request id, as the front door reports results
        refs = {10 + i: ref for i, ref in enumerate(refs)}
        results = {10 + i: got for i, got in enumerate(results)}
        index = 11
    else:
        index = 1
    if field is None:
        _check_solo_equivalence("the path", "its reference", refs, results)
        return
    with pytest.raises(
        RuntimeError,
        match=rf"^the path diverged from its reference on request {index}:",
    ):
        _check_solo_equivalence("the path", "its reference", refs, results)
