"""One entry point per paper table/figure.

Each experiment returns an :class:`ExperimentResult` whose rows place the
model's output next to the paper's published value, so the benchmark
harness and EXPERIMENTS.md can always show both.  Shapes (who wins, by
what factor) come from the physical models; the per-unit-type calibration
of :mod:`repro.hw.calibration` sets the absolute gauge.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, TypeVar

import numpy as np

from repro.accelerators import build_accelerator
from repro.accelerators.nvdla import NvdlaAccelerator
from repro.core.config import NovaConfig, as_config
from repro.eval import paper_data
from repro.hw.calibration import calibrated_cost
from repro.hw.costs import unit_cost
from repro.noc.link import RepeatedWire
from repro.workloads.bert import BERT_MODELS, bert_graph, serving_config
from repro.workloads.transformer import TransformerConfig

__all__ = [
    "ExperimentResult",
    "table1_accuracy",
    "table2_configs",
    "table3_overhead",
    "table4_related_work",
    "fig6_area_scaling",
    "fig7_power_scaling",
    "fig8_energy",
    "scalability_sweep",
    "nvdla_duty_cycle_estimate",
    "batched_serving_throughput",
    "decode_serving_throughput",
    "kernel_backend_throughput",
    "paged_decode_utilization",
    "prefix_caching_residency",
    "speculative_decode_speedup",
    "tree_speculation_speedup",
    "serving_slo_comparison",
]


@dataclass
class ExperimentResult:
    """A rendered-ready experiment outcome."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: str = ""

    def column(self, header: str) -> list[object]:
        """Extract one column by header name (for assertions in tests)."""
        try:
            idx = self.headers.index(header)
        except ValueError:
            raise KeyError(
                f"no column {header!r}; available: {self.headers}"
            ) from None
        return [row[idx] for row in self.rows]


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------

def table1_accuracy(max_models: int | None = None) -> ExperimentResult:
    """Exact vs PWL-softmax accuracy across the model zoo.

    ``max_models`` limits the zoo for quick runs (the full six models
    train in about a minute).
    """
    from repro.ml.approx_inference import accuracy_with_softmax, table1_model_zoo

    paper_rows = {
        (model, dataset): (exact, approx, bp)
        for model, dataset, exact, approx, bp in paper_data.TABLE1_ACCURACY
    }
    result = ExperimentResult(
        experiment_id="Table I",
        title="Post-approximation accuracy (exact vs approx softmax)",
        headers=[
            "Model", "Dataset", "Breakpoints",
            "Paper exact %", "Paper approx %",
            "Ours exact %", "Ours approx %", "Ours delta",
            "Ours approx (softmax+GeLU) %",
        ],
        notes=(
            "Synthetic-dataset substitution (DESIGN.md): same architectural "
            "families, same breakpoint budgets, accuracy bands tuned to the "
            "paper's. The reproduced claim is the ~zero exact-to-approx "
            "delta; the final column additionally approximates GeLU (our "
            "stricter extension beyond Table I's softmax-only setting)."
        ),
    )
    zoo = table1_model_zoo()
    if max_models is not None:
        zoo = zoo[:max_models]
    for entry in zoo:
        ours = accuracy_with_softmax(entry)
        p_exact, p_approx, p_bp = paper_rows[(entry.model_name, entry.dataset_name)]
        result.rows.append(
            [
                entry.model_name,
                entry.dataset_name,
                entry.breakpoints,
                p_exact,
                p_approx,
                round(ours["exact"], 2),
                round(ours["approx"], 2),
                round(ours["approx"] - ours["exact"], 2),
                round(ours["approx_all"], 2),
            ]
        )
    return result


# ----------------------------------------------------------------------
# Table II
# ----------------------------------------------------------------------

def table2_configs() -> ExperimentResult:
    """Accelerator parameters plus the mapper's derived broadcast plan."""
    result = ExperimentResult(
        experiment_id="Table II",
        title="Accelerator parameters integrated with NOVA",
        headers=[
            "Accelerator", "NOVA routers", "Neurons/router", "Memory (kB)",
            "Freq (MHz)", "Beats", "NoC clock (MHz)", "Single-cycle",
        ],
        notes=(
            "Beats / NoC clock / single-cycle traversal are derived by the "
            "NOVA mapper (16 breakpoints => 2 beats => 2x clock, paper §IV)."
        ),
    )
    for cfg in paper_data.TABLE2_CONFIGS.values():
        schedule = NovaConfig.from_accelerator(cfg).schedule()
        result.rows.append(
            [
                cfg.name,
                cfg.n_routers,
                cfg.neurons_per_router,
                cfg.onchip_memory_kb,
                cfg.frequency_mhz,
                schedule.n_beats,
                round(schedule.noc_frequency_ghz * 1000.0),
                schedule.single_cycle_broadcast,
            ]
        )
    return result


# ----------------------------------------------------------------------
# Table III
# ----------------------------------------------------------------------

def _units_for(accelerator: str) -> list[str]:
    if accelerator == "Jetson Xavier NX":
        return ["nvdla_sdp", "nova"]
    return ["per_neuron_lut", "per_core_lut", "nova"]


def table3_overhead(calibrated: bool = True) -> ExperimentResult:
    """Area/power overhead of every approximator on every accelerator."""
    cost_fn = calibrated_cost if calibrated else unit_cost
    result = ExperimentResult(
        experiment_id="Table III",
        title="Hardware overhead of NOVA vs LUT-based approximators",
        headers=[
            "Accelerator", "Approximator",
            "Area mm2 (model)", "Area mm2 (paper)",
            "Power mW (model)", "Power mW (paper)",
        ],
        notes=(
            "Model values from the component-level 22nm cost model"
            + (" with per-unit-type calibration" if calibrated else " (raw)")
            + "; NOVA power uses each accelerator's vector-unit duty cycle "
            "(NVDLA's conv cores emit activations rarely)."
        ),
    )
    for cfg in paper_data.TABLE2_CONFIGS.values():
        for unit in _units_for(cfg.name):
            cost = cost_fn(
                unit,
                cfg.neurons_per_router,
                n_segments=16,
                pe_frequency_ghz=cfg.frequency_ghz,
                hop_mm=cfg.hop_mm,
            )
            utilization = cfg.utilization if unit == "nova" else 1.0
            area = cost.area_mm2 * cfg.n_routers
            power = cost.power_mw(utilization) * cfg.n_routers
            p_area, p_power = paper_data.TABLE3_OVERHEAD[(cfg.name, unit)]
            result.rows.append(
                [cfg.name, unit, round(area, 4), p_area, round(power, 2), p_power]
            )
    return result


# ----------------------------------------------------------------------
# Table IV
# ----------------------------------------------------------------------

def table4_related_work() -> ExperimentResult:
    """NOVA lane vs NACU / I-BERT (single approximator lane).

    The I-BERT row is *computed*: its integer-only exp kernel
    (:mod:`repro.approx.ibert`) is implemented and measured for accuracy,
    and its datapath (two integer multipliers, adders, a barrel shifter)
    is priced with the same component model as NOVA.  NACU carries its
    published numbers only (its internal microarchitecture is not
    specified to reproducible depth).
    """
    from repro.approx.functions import get_function
    from repro.approx.ibert import ibert_exp
    from repro.approx.nnlut_mlp import train_nnlut_mlp
    from repro.hw.costs import ibert_lane_cost

    # One NOVA lane: the per-neuron slice plus a 1/128 share of the fixed
    # router (the TPU-like sharing ratio the paper's Table IV uses).
    neurons = 128
    cost = calibrated_cost(
        "nova", neurons, n_segments=16, pe_frequency_ghz=1.4, hop_mm=0.5
    )
    lane_area = cost.area_um2 / neurons
    lane_power = cost.power_mw(1.0) / neurons

    ibert = ibert_lane_cost(pe_frequency_ghz=1.4)

    # measured exp error of both implemented approximators
    spec = get_function("exp")
    xs = np.linspace(*spec.domain, 4096)
    nova_table = train_nnlut_mlp(spec, n_segments=16, seed=0)
    nova_err = float(
        np.max(np.abs(nova_table.to_piecewise_linear(16).evaluate(xs)
                      - spec.fn(xs)))
    )
    ibert_err = float(np.max(np.abs(ibert_exp(xs) - spec.fn(xs))))

    result = ExperimentResult(
        experiment_id="Table IV",
        title="Hardware overhead of NOVA vs related approximators (per lane)",
        headers=[
            "Approximator", "Tech node", "Area um2 (model)",
            "Area um2 (paper)", "Power mW (model)", "Power mW (paper)",
            "exp max err (measured)",
        ],
        notes=(
            "I-BERT's integer-only kernels are implemented "
            "(repro.approx.ibert) and its lane priced with our component "
            "model; NACU carries its published numbers. NOVA lane at the "
            "TPU sharing ratio."
        ),
    )
    for row in paper_data.TABLE4_RELATED:
        if row["name"] == "NOVA":
            result.rows.append(
                [
                    "NOVA", "22 nm", round(lane_area, 1),
                    row["area_um2"], round(lane_power, 4), row["power_mw"],
                    round(nova_err, 5),
                ]
            )
        elif row["name"] == "I-BERT":
            result.rows.append(
                [
                    "I-BERT", "22 nm", round(ibert.area_um2, 1),
                    row["area_um2"],
                    round(ibert.power_mw(1.0), 4),
                    row["power_mw"],
                    round(ibert_err, 5),
                ]
            )
        else:
            power = row["power_mw"]
            if isinstance(power, dict):
                power = max(power.values())
            result.rows.append(
                [
                    row["name"], f"{row['tech_nm']} nm", "-",
                    row["area_um2"], "-", power, "-",
                ]
            )
    return result


# ----------------------------------------------------------------------
# Figs 6 and 7
# ----------------------------------------------------------------------

NEURON_SWEEP = (16, 32, 64, 128, 256)


def fig6_area_scaling(calibrated: bool = True) -> ExperimentResult:
    """Router/unit area vs neurons mapped per router."""
    cost_fn = calibrated_cost if calibrated else unit_cost
    result = ExperimentResult(
        experiment_id="Fig 6",
        title="Router area vs neurons mapped per router (um2)",
        headers=[
            "Neurons", "NOVA router", "Per-neuron LUT", "Per-core LUT",
            "NOVA saving vs per-neuron",
        ],
        notes="16 breakpoints, 22 nm, 1 mm hop; areas per router/core.",
    )
    for neurons in NEURON_SWEEP:
        nova = cost_fn("nova", neurons, pe_frequency_ghz=1.0, hop_mm=1.0)
        pn = cost_fn("per_neuron_lut", neurons, pe_frequency_ghz=1.0)
        pc = cost_fn("per_core_lut", neurons, pe_frequency_ghz=1.0)
        result.rows.append(
            [
                neurons,
                round(nova.area_um2),
                round(pn.area_um2),
                round(pc.area_um2),
                f"{pn.area_um2 / nova.area_um2:.2f}x",
            ]
        )
    return result


def fig7_power_scaling(
    frequency_ghz: float = 1.0, calibrated: bool = True
) -> ExperimentResult:
    """Router/unit power vs neurons mapped per router."""
    cost_fn = calibrated_cost if calibrated else unit_cost
    result = ExperimentResult(
        experiment_id="Fig 7",
        title=f"Router power vs neurons per router (mW @ {frequency_ghz} GHz)",
        headers=[
            "Neurons", "NOVA router", "Per-neuron LUT", "Per-core LUT",
            "NOVA saving vs per-core",
        ],
        notes=(
            "Full utilisation; the per-core curve's multi-ported reads make "
            "it the most power-hungry at scale (paper §V-B)."
        ),
    )
    for neurons in NEURON_SWEEP:
        nova = cost_fn("nova", neurons, pe_frequency_ghz=frequency_ghz, hop_mm=1.0)
        pn = cost_fn("per_neuron_lut", neurons, pe_frequency_ghz=frequency_ghz)
        pc = cost_fn("per_core_lut", neurons, pe_frequency_ghz=frequency_ghz)
        result.rows.append(
            [
                neurons,
                round(nova.power_mw(), 3),
                round(pn.power_mw(), 3),
                round(pc.power_mw(), 3),
                f"{pc.power_mw() / nova.power_mw():.2f}x",
            ]
        )
    return result


# ----------------------------------------------------------------------
# Fig 8
# ----------------------------------------------------------------------

#: Host-side energy constants for the overhead-percent metric: one MAC in
#: the tensor array and one 16-bit word of SRAM traffic.
HOST_MAC_PJ = 0.04
HOST_SRAM_WORD_PJ = 0.2


def _inference_energy_mj(
    unit: str,
    cfg: paper_data.AcceleratorConfig,
    total_cycles: int,
    busy_cycles: int,
) -> float:
    """Per-inference energy of one approximator variant (mJ)."""
    cost = calibrated_cost(
        unit,
        cfg.neurons_per_router,
        n_segments=16,
        pe_frequency_ghz=cfg.frequency_ghz,
        hop_mm=cfg.hop_mm,
    )
    time_s = total_cycles / (cfg.frequency_ghz * 1e9)
    busy = min(busy_cycles, total_cycles)
    dynamic_pj = cfg.n_routers * (
        cost.clocked_energy_pj * total_cycles + cost.active_energy_pj * busy
    )
    leak_mj = cost.leakage_power_mw() * cfg.n_routers * time_s
    return dynamic_pj * 1e-9 + leak_mj


def _paper_method_energy_mj(
    unit: str, cfg: paper_data.AcceleratorConfig, total_cycles: int
) -> float:
    """Energy the way the paper computes it: synthesis power x runtime.

    '"The energy consumption numbers are calculated using the respective
    power consumption number from the synthesis results" (§V-F) — i.e.
    full-activity power held for the whole inference, which makes the
    energy ratio equal the Table III power ratio.
    """
    cost = calibrated_cost(
        unit,
        cfg.neurons_per_router,
        n_segments=16,
        pe_frequency_ghz=cfg.frequency_ghz,
        hop_mm=cfg.hop_mm,
    )
    time_s = total_cycles / (cfg.frequency_ghz * 1e9)
    utilization = cfg.utilization if unit == "nova" else 1.0
    return cost.power_mw(utilization) * cfg.n_routers * time_s


def fig8_energy() -> ExperimentResult:
    """Per-inference approximator energy for the 5 BERT-family models.

    Two accountings per row: *paper-method* (synthesis power x runtime,
    reproducing the paper's 4.14x / 9.3x TPU-v4 ratios exactly, since
    under that method energy ratios equal power ratios) and our finer
    *activity-aware* model (clocked energy every cycle, active energy only
    on busy cycles), which narrows the gap but preserves the ordering.
    """
    result = ExperimentResult(
        experiment_id="Fig 8",
        title="Energy per inference for different approximator hardware",
        headers=[
            "Accelerator", "Benchmark", "Seq len",
            "NOVA (mJ)", "Per-neuron LUT (mJ)", "Per-core LUT (mJ)",
            "PN/NOVA", "PC/NOVA",
            "PN/NOVA (paper method)", "PC/NOVA (paper method)",
            "NOVA overhead %",
        ],
        notes=(
            "Activity-aware columns: LUT baselines keep paying their "
            "clocked energy during tensor phases; NOVA's wires only toggle "
            "on queries. Paper-method columns hold full synthesis power for "
            "the whole runtime, as §V-F does. Overhead % is vs the host's "
            "MAC+SRAM energy for the same inference."
        ),
    )
    units = ("nova", "per_neuron_lut", "per_core_lut")
    for acc_name, seq_len in paper_data.FIG8_SEQ_LEN.items():
        cfg = paper_data.TABLE2_CONFIGS[acc_name]
        host = build_accelerator(acc_name)
        for model_name in BERT_MODELS:
            graph = bert_graph(model_name, seq_len=seq_len)
            report = host.run(graph)
            host_energy_mj = (
                report.total_macs * HOST_MAC_PJ
                + (report.sram_reads + report.sram_writes) * HOST_SRAM_WORD_PJ
            ) * 1e-9
            energies = {
                unit: _inference_energy_mj(
                    unit, cfg, report.total_cycles, report.nonlinear_cycles
                )
                for unit in units
            }
            paper_energies = {
                unit: _paper_method_energy_mj(unit, cfg, report.total_cycles)
                for unit in units
            }
            result.rows.append(
                [
                    acc_name,
                    model_name,
                    seq_len,
                    round(energies["nova"], 5),
                    round(energies["per_neuron_lut"], 5),
                    round(energies["per_core_lut"], 5),
                    f"{energies['per_neuron_lut'] / energies['nova']:.2f}x",
                    f"{energies['per_core_lut'] / energies['nova']:.2f}x",
                    f"{paper_energies['per_neuron_lut'] / paper_energies['nova']:.2f}x",
                    f"{paper_energies['per_core_lut'] / paper_energies['nova']:.2f}x",
                    round(100.0 * energies["nova"] / host_energy_mj, 3),
                ]
            )
    return result


# ----------------------------------------------------------------------
# §V-A scalability
# ----------------------------------------------------------------------

def scalability_sweep() -> ExperimentResult:
    """Max single-cycle line length vs NoC clock (the 10 @ 1.5 GHz claim)."""
    wire = RepeatedWire()
    result = ExperimentResult(
        experiment_id="Scalability",
        title="Single-cycle multi-hop reach vs NoC clock (1 mm hops)",
        headers=["NoC clock (GHz)", "Max routers in one cycle", "Paper point"],
        notes=(
            "Paper §V-A: 10 routers at 1 mm pitch traversable at 1.5 GHz; "
            "beyond that the mapper falls back to multi-cycle traversal."
        ),
    )
    for freq in (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.8):
        reach = wire.max_hops_per_cycle(freq, hop_mm=1.0)
        marker = ""
        if freq == paper_data.SCALABILITY["noc_clock_ghz"]:
            marker = f"paper: {int(paper_data.SCALABILITY['max_routers_single_cycle'])}"
        result.rows.append([freq, reach, marker])
    return result


# ----------------------------------------------------------------------
# Serving experiments: one copy of the config, model, timing and
# solo-equivalence code they share
# ----------------------------------------------------------------------

#: GPT-2 family shape scaled down, the default model of the memory and
#: speculation studies: at full width numpy GEMVs dominate every path
#: and a harness would measure numpy, not the serving machinery.  The
#: real 256-token context makes worst-case pages 10-60x the tokens a
#: mixed request actually caches.
_GPT2_MINI = TransformerConfig(
    "gpt2-mini", layers=1, hidden=64, heads=4, intermediate=256,
    seq_len=256, causal=True,
)

_T = TypeVar("_T")


def _config_and_seed(
    config: "NovaConfig | str", seed: int | None
) -> tuple[NovaConfig, int]:
    """Resolve a config; ``seed`` defaults to the config's own seed (so
    ``--override seed=N`` on the CLI takes effect), and an explicit one
    replaces it."""
    cfg = as_config(config)
    if seed is None:
        return cfg, cfg.seed
    if cfg.seed != seed:
        cfg = cfg.replace(seed=seed)
    return cfg, seed


def _serving_model(
    model_name: "str | TransformerConfig | None",
) -> TransformerConfig:
    """A causal :data:`repro.workloads.bert.SERVING_MODELS` key, a
    :class:`TransformerConfig` itself, or ``None`` for the scaled-down
    GPT-2 shape."""
    if model_name is None:
        return _GPT2_MINI
    if isinstance(model_name, TransformerConfig):
        return model_name
    return serving_config(model_name)


def _require_tokens(experiment: str, max_new_tokens: int) -> None:
    if max_new_tokens < 1:
        raise ValueError(
            f"{experiment} measures tokens/sec over generated tokens, so "
            f"max_new_tokens must be >= 1 (got {max_new_tokens})"
        )


def _timed(run: Callable[[], _T]) -> tuple[_T, float]:
    """``run()`` and the wall-clock seconds it took."""
    t0 = time.perf_counter()
    out = run()
    return out, time.perf_counter() - t0


def _check_solo_equivalence(
    path: str,
    reference: str,
    refs: "Sequence[Any] | Mapping[Any, Any]",
    results: "Sequence[Any] | Mapping[Any, Any]",
) -> None:
    """Raise ``RuntimeError`` naming ``path`` and the request unless
    every result is identical to its reference.

    ``results`` is a sequence (request ``i`` is checked against
    ``refs[i]``) or a mapping from request id to result (checked against
    ``refs[id]``).  Compared: the generated tokens and prefill outputs
    (an attention result's outputs), then the vector cycles and event
    counters — or, for a speculative result, whose own cycles include
    rolled-back work, its closed-form ``sequential_vector_cycles``
    against the reference's ``vector_cycles``.
    """
    items = (
        results.items() if isinstance(results, Mapping) else enumerate(results)
    )
    for i, got in items:
        ref = refs[i]
        if hasattr(got, "generated"):
            arrays = [
                (got.generated, ref.generated),
                (got.prefill.outputs, ref.prefill.outputs),
            ]
        else:
            arrays = [(got.outputs, ref.outputs)]
        same = all(np.array_equal(a, b) for a, b in arrays)
        if hasattr(got, "sequential_vector_cycles"):
            same = same and got.sequential_vector_cycles == ref.vector_cycles
        else:
            same = (
                same
                and got.vector_cycles == ref.vector_cycles
                and got.counters.as_dict() == ref.counters.as_dict()
            )
        if not same:
            raise RuntimeError(
                f"{path} diverged from {reference} on request {i}: the "
                "bit-exact/cycle-exact contract is broken"
            )


def batched_serving_throughput(
    model_name: str = "BERT-tiny",
    batch_size: int = 8,
    seq_len: int = 32,
    config: "NovaConfig | str" = "jetson-nx",
    seed: int | None = None,
    warmup: bool = True,
) -> ExperimentResult:
    """Sequential vs batched attention serving on one overlay geometry.

    Not a paper figure — this is the ROADMAP's serving direction: the
    same batch of attention requests is run once through the
    cycle-accurate single-request engine (looped) and once through the
    batched serving engine (lane-packed, vectorised), and the table
    reports wall-clock throughput, per-request vector cycles and the
    packing win.  ``config`` is a :class:`repro.core.config.NovaConfig`
    or preset name (default: the Jetson-like Table II geometry); ``seed``
    seeds both the synthetic requests and the engines' compile-time
    tables and defaults to the config's own seed (so ``--override
    seed=N`` on the CLI takes effect).  Before the table is built,
    outputs, per-request cycle
    counts and per-request event counters are checked identical between
    the two paths (``RuntimeError`` on divergence).  ``warmup`` runs
    each path once first so the timings are steady-state (first-call
    allocator growth and table/schedule cache population excluded);
    this is also the single harness behind
    ``benchmarks/bench_batched_serving.py``.
    """
    from repro.core.session import NovaSession
    from repro.workloads.bert import bert_attention_batch

    cfg, seed = _config_and_seed(config, seed)
    requests = bert_attention_batch(
        model_name, batch_size, seq_len=seq_len, seed=seed
    )
    session = NovaSession(cfg)
    sequential = session.reference
    batched = session.server

    if warmup:
        first = requests[0]
        sequential.attention_layer(
            first.x, first.wq, first.wk, first.wv, first.wo,
            n_heads=first.n_heads,
        )
        batched.attention_batch(requests)

    seq_results, t_sequential = _timed(lambda: [
        sequential.attention_layer(
            r.x, r.wq, r.wk, r.wv, r.wo, n_heads=r.n_heads
        )
        for r in requests
    ])
    batch, t_batched = _timed(lambda: batched.attention_batch(requests))
    _check_solo_equivalence(
        "batched serving", "the sequential engine", seq_results,
        batch.results,
    )
    seq_cycles = sum(r.vector_cycles for r in seq_results)

    result = ExperimentResult(
        experiment_id="Serving",
        title=(
            f"Batched attention serving: {batch_size} x {model_name} "
            f"(seq {seq_len}) on {cfg.n_routers}x{cfg.neurons_per_router} "
            "lanes"
        ),
        headers=[
            "Path", "Wall s", "Requests/s", "Vector cycles",
            "Cycles/request", "Speedup",
        ],
        notes=(
            "Outputs bit-identical, per-request vector_cycles and event "
            "counters identical across both paths (checked). Sequential "
            "drives every query through the beat-level NoC simulation; "
            "batched packs all requests' queries into one lane stream on "
            "a single shared overlay with cached tables and schedules. "
            "Packing saves "
            f"{batch.sequential_vector_cycles - batch.packed_vector_cycles} "
            "vector cycles of per-request tail padding across the batch."
        ),
    )
    result.rows.append(
        [
            "sequential (cycle-accurate)",
            round(t_sequential, 4),
            round(batch_size / t_sequential, 2),
            seq_cycles,
            round(seq_cycles / batch_size, 1),
            "1.00x",
        ]
    )
    result.rows.append(
        [
            "batched (lane-packed)",
            round(t_batched, 4),
            round(batch_size / t_batched, 2),
            batch.packed_vector_cycles,
            round(batch.packed_vector_cycles / batch_size, 1),
            f"{t_sequential / t_batched:.2f}x",
        ]
    )
    return result


def decode_serving_throughput(
    model_name="GPT-2-small",
    batch_size: int = 8,
    prompt_len: int = 16,
    max_new_tokens: int = 16,
    config: "NovaConfig | str" = "jetson-nx",
    seed: int | None = None,
    max_active: int = 8,
    warmup: bool = True,
) -> ExperimentResult:
    """One-at-a-time vs continuously batched autoregressive decode.

    The decode-side companion of :func:`batched_serving_throughput`: the
    same batch of causal decode requests (prompt + ``max_new_tokens``
    generation budget each) is served once by looping
    :meth:`repro.core.decode.NovaDecodeEngine.generate` per request and
    once through the :class:`repro.core.decode.ContinuousBatchScheduler`
    (prefill and decode rows of different requests fused into shared
    lane streams each scheduler step), and the table reports wall-clock
    tokens/sec, vector cycles/token and the packing win.  Before the
    table is built, every request's generated tokens, per-step
    sequential-equivalent cycles and event counters are checked
    identical between the two paths (``RuntimeError`` on divergence).
    ``model_name`` is a causal :data:`repro.workloads.bert.SERVING_MODELS`
    key or a :class:`repro.workloads.transformer.TransformerConfig`
    directly; ``seed`` defaults to the config's own seed; ``warmup``
    runs each path once first so the timings are steady-state.  This is
    also the single harness behind
    ``benchmarks/bench_decode_serving.py``.
    """
    from repro.core.decode import ContinuousBatchScheduler
    from repro.core.session import NovaSession
    from repro.workloads.bert import decode_batch

    _require_tokens("decode_serving_throughput", max_new_tokens)
    cfg, seed = _config_and_seed(config, seed)
    model = _serving_model(model_name)
    requests = decode_batch(
        model, batch_size, prompt_len=prompt_len,
        max_new_tokens=max_new_tokens, seed=seed,
    )
    session = NovaSession(cfg)
    engine = session.decoder

    if warmup:
        engine.generate(requests[0])
        ContinuousBatchScheduler(engine, max_active=max_active).run(requests)

    solo, t_solo = _timed(lambda: [engine.generate(r) for r in requests])
    scheduler = ContinuousBatchScheduler(engine, max_active=max_active)
    batch, t_batched = _timed(lambda: scheduler.run(requests))
    _check_solo_equivalence(
        "continuous batching", "one-at-a-time decode", solo, batch.results
    )

    tokens = batch.total_generated_tokens
    solo_cycles = sum(r.vector_cycles for r in solo)
    result = ExperimentResult(
        experiment_id="Decode serving",
        title=(
            f"Continuous-batching decode: {batch_size} x {model.name} "
            f"(prompt {prompt_len} + {max_new_tokens} new) on "
            f"{cfg.n_routers}x{cfg.neurons_per_router} lanes"
        ),
        headers=[
            "Path", "Wall s", "Tokens/s", "Vector cycles",
            "Cycles/token", "Speedup",
        ],
        notes=(
            "Generated tokens, per-step vector_cycles and event counters "
            "identical across both paths (checked). One-at-a-time runs "
            "prefill + every decode step as its own hardware stream; "
            "continuous batching fuses all in-flight requests' rows into "
            "one stream per scheduler step on the shared overlay. "
            f"Packing saves {batch.sequential_vector_cycles - batch.packed_vector_cycles} "
            f"vector cycles; {batch.pages_recycled} cache pages recycled "
            f"across {batch.scheduler_steps} scheduler steps."
        ),
    )
    result.rows.append(
        [
            "one-at-a-time (KV-cached)",
            round(t_solo, 4),
            round(tokens / t_solo, 2),
            solo_cycles,
            round(solo_cycles / tokens, 2),
            "1.00x",
        ]
    )
    result.rows.append(
        [
            "continuous batching",
            round(t_batched, 4),
            round(tokens / t_batched, 2),
            batch.packed_vector_cycles,
            round(batch.packed_vector_cycles / tokens, 2),
            f"{t_solo / t_batched:.2f}x",
        ]
    )
    return result


def kernel_backend_throughput(
    model_name="GPT-2-small",
    batch_size: int = 6,
    prompt_len: int = 8,
    max_new_tokens: int = 64,
    config: "NovaConfig | str" = "jetson-nx",
    seed: int | None = None,
    max_active: int = 8,
    backends: "tuple[str, ...] | list[str] | None" = None,
    warmup: bool = True,
) -> ExperimentResult:
    """Kernel backends racing the pinned per-token loopback reference.

    The same long-decode continuous-batch sweep (``batch_size`` causal
    requests, ``prompt_len`` + ``max_new_tokens`` tokens each, served
    through the :class:`~repro.core.decode.ContinuousBatchScheduler`)
    runs once per kernel backend, and the table reports wall-clock
    tokens/sec plus the speedup over the first row.  ``backends``
    defaults to ``loopback`` (the pre-kernel per-token execution,
    pinned as the denominator) followed by every other backend
    installed in this process (:func:`repro.core.kernels.
    available_backends`); the first entry is always the baseline.

    Before the table is built, every backend's results are checked
    bit/cycle/counter-identical to the baseline's (``RuntimeError`` on
    divergence) — backends are an execution-speed lever only, and this
    harness enforces it before reporting any speedup.  This is also the
    single harness behind ``benchmarks/bench_kernel_backends.py``.
    """
    from repro.core.decode import ContinuousBatchScheduler
    from repro.core.kernels import available_backends, kernel_cache_info
    from repro.core.session import NovaSession
    from repro.workloads.bert import decode_batch

    _require_tokens("kernel_backend_throughput", max_new_tokens)
    cfg, seed = _config_and_seed(config, seed)
    if backends is None:
        names = ["loopback"] + [
            name for name in available_backends() if name != "loopback"
        ]
    else:
        names = list(backends)
    if not names:
        raise ValueError("kernel_backend_throughput needs >= 1 backend")
    model = _serving_model(model_name)
    requests = decode_batch(
        model, batch_size, prompt_len=prompt_len,
        max_new_tokens=max_new_tokens, seed=seed,
    )

    runs = []
    for name in names:
        # cfg validation rejects unknown names; missing optional deps
        # fall back to numpy inside resolve_backend (with a warning)
        session = NovaSession(cfg.replace(kernel_backend=name))
        engine = session.decoder
        scheduler = ContinuousBatchScheduler(engine, max_active=max_active)
        if warmup:
            scheduler.run(requests)
            scheduler = ContinuousBatchScheduler(
                engine, max_active=max_active
            )
        resolved = engine.unit.backend.name
        before = (
            kernel_cache_info()["backends"]
            .get(resolved, {})
            .get("launches", 0)
        )
        batch, wall = _timed(lambda: scheduler.run(requests))
        launches = (
            kernel_cache_info()["backends"][resolved]["launches"] - before
        )
        runs.append((name, resolved, wall, batch, launches))

    _, _, _, reference, _ = runs[0]
    for name, _, _, batch, _ in runs[1:]:
        _check_solo_equivalence(
            f"kernel backend {name!r}", repr(runs[0][0]),
            reference.results, batch.results,
        )

    tokens = reference.total_generated_tokens
    base_wall = runs[0][2]
    result = ExperimentResult(
        experiment_id="Kernel backends",
        title=(
            f"Kernel backends: {batch_size} x {model.name} (prompt "
            f"{prompt_len} + {max_new_tokens} new) continuously batched "
            f"on {cfg.n_routers}x{cfg.neurons_per_router} lanes"
        ),
        headers=[
            "Backend", "Wall s", "Tokens/s", "Vector cycles",
            "Kernel launches", "Speedup",
        ],
        notes=(
            "Generated tokens, per-step vector_cycles and event counters "
            "identical across every backend (checked against the first "
            "row before reporting). The loopback backend pins the "
            "pre-kernel per-token execution as the wall-clock "
            "denominator; accelerated rows differ only in how the "
            "whole-batch gather/MAC primitives execute. "
            f"{reference.scheduler_steps} scheduler steps per run."
        ),
    )
    for name, resolved, wall, batch, launches in runs:
        label = name if name == resolved else f"{name} (-> {resolved})"
        result.rows.append(
            [
                label,
                round(wall, 4),
                round(tokens / wall, 2),
                batch.packed_vector_cycles,
                launches,
                f"{base_wall / wall:.2f}x",
            ]
        )
    return result


def paged_decode_utilization(
    model_name=None,
    batch_size: int = 16,
    config: "NovaConfig | str" = "jetson-nx",
    pool_pages: int = 4,
    block_size: int | None = None,
    prompt_lens=(4, 8, 12, 16),
    new_tokens=(4, 8, 12),
    seed: int | None = None,
    warmup: bool = True,
) -> ExperimentResult:
    """Contiguous pages vs paged KV blocks at one fixed pool byte budget.

    The memory-utilization experiment behind ``nova-repro serve-decode
    --paged`` and ``benchmarks/bench_paged_admission.py``: a
    *mixed-length* batch of causal decode requests (every request
    declares the model's full ``max_seq_len`` worst case but actually
    uses only a short prompt + budget) is served twice through
    :class:`repro.core.decode.ContinuousBatchScheduler` under the same
    pool byte budget — once with contiguous worst-case pages (admission
    reserves a whole page; ``pool_pages`` of them fit) and once with
    the paged KV cache (fixed ``block_size``-token blocks allocated
    lazily from one shared :class:`repro.core.paging.BlockPool`;
    admission needs only the first block).  The table compares **max
    concurrent requests** (the admission-capacity win), peak reserved
    KV slots, fragmentation (reserved-but-unused slots) and wall-clock
    throughput.  Both paths are checked bit-identical to one-at-a-time
    :meth:`~repro.core.decode.NovaDecodeEngine.generate` before the
    table is built (``RuntimeError`` on divergence).  ``block_size``
    defaults to the config's ``kv_block_size``.
    """
    from repro.core.decode import ContinuousBatchScheduler
    from repro.core.session import NovaSession
    from repro.workloads.bert import mixed_decode_batch

    if pool_pages < 1:
        raise ValueError(f"pool_pages must be >= 1, got {pool_pages}")
    cfg, seed = _config_and_seed(config, seed)
    model = _serving_model(model_name)
    requests = mixed_decode_batch(
        model, batch_size, prompt_lens=prompt_lens, new_tokens=new_tokens,
        seed=seed,
    )
    session = NovaSession(cfg)
    engine = session.decoder
    bs = cfg.kv_block_size if block_size is None else block_size

    head_dim = model.hidden // model.heads
    page_bytes = 2 * 8 * model.heads * head_dim * model.seq_len
    pool_bytes = pool_pages * page_bytes

    def run_path(paged: bool):
        scheduler = ContinuousBatchScheduler(
            engine, max_active=batch_size, paged=paged,
            block_size=bs if paged else None, pool_bytes=pool_bytes,
        )
        return _timed(lambda: scheduler.run(requests))

    if warmup:
        engine.generate(requests[0])
        run_path(False)
        run_path(True)

    solo = [engine.generate(r) for r in requests]
    contiguous, t_contiguous = run_path(False)
    paged, t_paged = run_path(True)

    for label, batch in (("contiguous", contiguous), ("paged", paged)):
        _check_solo_equivalence(
            f"{label} scheduling", "one-at-a-time decode", solo,
            batch.results,
        )

    tokens = contiguous.total_generated_tokens
    result = ExperimentResult(
        experiment_id="Paged KV",
        title=(
            f"KV admission capacity at a fixed {pool_bytes // 1024} KiB "
            f"pool: {batch_size} mixed-length x {model.name} on "
            f"{cfg.n_routers}x{cfg.neurons_per_router} lanes"
        ),
        headers=[
            "Memory model", "Peak concurrent", "Peak KV slots",
            "Peak fragmentation", "Steps", "Wall s", "Tokens/s",
            "Admission gain",
        ],
        notes=(
            "Same pool byte budget both rows; outputs, per-step cycles "
            "and counters bit-identical to one-at-a-time generate on "
            "both paths (checked). Contiguous reserves a whole "
            f"{model.seq_len}-slot worst-case page per request "
            f"({page_bytes} B; {pool_pages} fit); paged allocates "
            f"{bs}-token blocks lazily from one shared pool "
            f"({paged.paging['n_blocks']} blocks), admitting any request "
            "whose first block fits. Fragmentation is "
            "reserved-but-unused token slots at the worst step. Paged "
            f"run: {paged.deferrals} deferrals, {paged.preemptions} "
            "preemptions."
        ),
    )
    for label, batch, wall in (
        ("contiguous pages", contiguous, t_contiguous),
        ("paged KV blocks", paged, t_paged),
    ):
        result.rows.append(
            [
                label,
                batch.peak_active,
                batch.peak_kv_slots,
                batch.peak_fragmentation_slots,
                batch.scheduler_steps,
                round(wall, 4),
                round(tokens / wall, 2),
                f"{batch.peak_active / contiguous.peak_active:.2f}x",
            ]
        )
    return result


def prefix_caching_residency(
    model_name=None,
    batch_size: int = 8,
    prefix_tokens: int = 64,
    suffix_tokens: int = 2,
    max_new_tokens: int = 4,
    config: "NovaConfig | str" = "jetson-nx",
    block_size: int | None = None,
    seed: int | None = None,
    warmup: bool = True,
) -> ExperimentResult:
    """Shared-prefix pool residency, with and without prefix caching.

    The memory-deduplication experiment behind ``nova-repro
    serve-decode --prefix-caching`` and
    ``benchmarks/bench_prefix_caching.py``: ``batch_size`` causal decode
    requests whose prompts share the same ``prefix_tokens``-token
    preamble (a system prompt; each request appends its own
    ``suffix_tokens`` rows) are served twice through the paged
    :class:`repro.core.decode.ContinuousBatchScheduler` — once with the
    prefix index off, once on.  With caching on, the first request's
    prefill publishes the prefix blocks and every later arrival adopts
    them under a refcount, so the batch pays roughly **one** prefix's
    pool residency instead of ``batch_size``; the table compares peak
    reserved KV slots and reports the hit/share/copy-on-write counters.
    Both paths are checked bit-identical to one-at-a-time
    :meth:`~repro.core.decode.NovaDecodeEngine.generate` before the
    table is built (``RuntimeError`` on divergence) — prefix caching is
    a pure residency win with zero numeric or accounting drift.
    ``block_size`` defaults to the config's ``kv_block_size``; siblings
    arrive one cycle after the leader so adoption happens against a
    published prefix rather than racing the leader's prefill.
    """
    from repro.core.decode import ContinuousBatchScheduler, SequenceMeta
    from repro.core.session import NovaSession
    from repro.workloads.bert import shared_prefix_decode_batch

    if batch_size < 2:
        raise ValueError(
            f"batch_size must be >= 2 (nothing shares below that), "
            f"got {batch_size}"
        )
    cfg, seed = _config_and_seed(config, seed)
    bs = cfg.kv_block_size if block_size is None else block_size
    if prefix_tokens < bs:
        raise ValueError(
            f"prefix_tokens must span at least one {bs}-token block "
            f"(nothing below a full block is shareable), got "
            f"{prefix_tokens}"
        )
    model = _serving_model(model_name)
    requests = shared_prefix_decode_batch(
        model, batch_size, prefix_len=prefix_tokens,
        suffix_len=suffix_tokens, max_new_tokens=max_new_tokens, seed=seed,
    )
    # The leader arrives at cycle 0; every sibling one cycle later, so
    # its admission sees the leader's published prefix blocks.
    metas = [SequenceMeta(arrival=0.0)] + [
        SequenceMeta(arrival=1.0) for _ in requests[1:]
    ]
    session = NovaSession(cfg)
    engine = session.decoder

    def run_path(prefix: bool):
        scheduler = ContinuousBatchScheduler(
            engine, max_active=batch_size, paged=True, block_size=bs,
            prefix_caching=prefix,
        )
        return _timed(lambda: scheduler.run(requests, meta=metas))

    if warmup:
        engine.generate(requests[0])
        run_path(False)
        run_path(True)

    solo = [engine.generate(r) for r in requests]
    plain, t_plain = run_path(False)
    cached, t_cached = run_path(True)

    for label, batch in (("uncached", plain), ("prefix-cached", cached)):
        _check_solo_equivalence(
            f"{label} scheduling", "one-at-a-time decode", solo,
            batch.results,
        )
    paging = cached.paging
    assert paging is not None and plain.paging is not None
    if paging["prefix_hits"] == 0:
        raise RuntimeError(
            "the trace never hit the prefix index: check that "
            "prefix_tokens spans a full block and that arrivals are "
            "staggered past the leader's prefill"
        )
    for label, batch in (("uncached", plain), ("prefix-cached", cached)):
        info = batch.paging
        assert info is not None
        if info["in_use"] != 0 or info["blocks_allocated"] != info[
            "blocks_freed"
        ]:
            raise RuntimeError(
                f"{label} run leaked blocks: block conservation is broken"
            )

    result = ExperimentResult(
        experiment_id="Prefix caching",
        title=(
            f"KV residency with a shared {prefix_tokens}-token prefix: "
            f"{batch_size} x {model.name} on "
            f"{cfg.n_routers}x{cfg.neurons_per_router} lanes"
        ),
        headers=[
            "Memory model", "Peak KV slots", "Blocks allocated",
            "Prefix hits", "Blocks shared", "CoW copies", "Wall s",
            "Residency",
        ],
        notes=(
            f"All {batch_size} prompts share the first {prefix_tokens} "
            f"tokens ({prefix_tokens // bs} x {bs}-token blocks) and "
            f"append {suffix_tokens} private tokens + {max_new_tokens} "
            "generated. Outputs, per-step cycles and counters "
            "bit-identical to one-at-a-time generate on both rows "
            "(checked); both pools drain to zero live blocks. With the "
            "prefix index on, the leader's prefill publishes the shared "
            "blocks and every sibling adopts them under a refcount — "
            "the win is pure pool residency, never tokens or cycles. "
            f"Cached run: {paging['prefix_misses']} prefix miss(es), "
            f"{paging['shared_frees']} shared frees."
        ),
    )
    for label, batch, wall in (
        ("paged, no sharing", plain, t_plain),
        ("paged + prefix cache", cached, t_cached),
    ):
        info = batch.paging
        assert info is not None
        result.rows.append(
            [
                label,
                batch.peak_kv_slots,
                info["blocks_allocated"],
                info["prefix_hits"],
                info["blocks_shared"],
                info["cow_copies"],
                round(wall, 4),
                f"{plain.peak_kv_slots / batch.peak_kv_slots:.2f}x",
            ]
        )
    return result


def speculative_decode_speedup(
    model_name=None,
    batch_size: int = 8,
    prompt_len: int = 16,
    max_new_tokens: int = 32,
    config: "NovaConfig | str" = "jetson-nx",
    spec_k: int | None = None,
    acceptance_rate: float = 0.9,
    seed: int | None = None,
    max_active: int = 8,
    warmup: bool = True,
) -> ExperimentResult:
    """Plain vs speculative draft-and-verify decode, solo and batched.

    The speculative-serving study behind ``nova-repro serve-decode
    --speculative`` and ``benchmarks/bench_speculative.py``: one batch
    of causal decode requests is served three ways — plain one-at-a-time
    :meth:`~repro.core.decode.NovaDecodeEngine.generate`, speculative
    one-at-a-time :meth:`~repro.core.speculative.SpeculativeDecodeEngine.
    generate` (``spec_k`` drafts per packed verification pass, drafted
    by a :class:`~repro.core.speculative.TruncatedTableDraft` whose
    fidelity is solved from ``acceptance_rate`` by
    :func:`repro.workloads.bert.fidelity_for_acceptance`), and
    speculative **continuous batching**
    (:class:`~repro.core.decode.ContinuousBatchScheduler` with
    ``speculative=True``, verification passes of different requests
    fused into shared lane streams).  Before the table is built, every
    speculative path's generated tokens are checked bit-identical to the
    plain path and each speculative result's closed-form
    ``sequential_vector_cycles`` is checked equal to the plain run's
    ``vector_cycles`` (``RuntimeError`` on divergence) — rollback can
    waste cycles, never change tokens.  The table reports wall-clock
    tokens/sec, overlay cycles/token, the measured acceptance rate and
    committed tokens per pass.
    """
    from repro.core.decode import ContinuousBatchScheduler
    from repro.core.session import NovaSession
    from repro.core.speculative import SpeculativeDecodeEngine
    from repro.workloads.bert import speculative_decode_batch

    _require_tokens("speculative_decode_speedup", max_new_tokens)
    cfg, seed = _config_and_seed(config, seed)
    if spec_k is None:
        spec_k = cfg.spec_k
    model = _serving_model(model_name)
    requests, draft_factory = speculative_decode_batch(
        model, batch_size, acceptance_rate=acceptance_rate,
        prompt_len=prompt_len, max_new_tokens=max_new_tokens, seed=seed,
        config=cfg, spec_k=spec_k,
    )
    session = NovaSession(cfg)
    engine = session.decoder
    speculator = SpeculativeDecodeEngine(engine, spec_k=spec_k)

    def run_scheduler():
        scheduler = ContinuousBatchScheduler(
            engine, max_active=max_active, speculative=True,
            spec_k=spec_k, draft_factory=draft_factory,
        )
        return _timed(lambda: scheduler.run(requests))

    if warmup:
        engine.generate(requests[0])
        speculator.generate(requests[0], draft=draft_factory())
        run_scheduler()

    plain, t_plain = _timed(lambda: [engine.generate(r) for r in requests])
    solo, t_solo = _timed(lambda: [
        speculator.generate(r, draft=draft_factory()) for r in requests
    ])
    batch, t_batched = run_scheduler()

    for label, results in (("solo", solo), ("batched", batch.results)):
        _check_solo_equivalence(
            f"speculative decode ({label})", "plain generate", plain,
            results,
        )

    tokens = sum(r.n_generated for r in plain)
    plain_cycles = sum(r.vector_cycles for r in plain)
    drafted = sum(r.drafted_tokens for r in solo)
    accepted = sum(r.accepted_tokens for r in solo)
    rolled_back = sum(r.rolled_back_tokens for r in solo)
    measured_acceptance = accepted / drafted if drafted else 0.0
    result = ExperimentResult(
        experiment_id="Speculative decode",
        title=(
            f"Draft-and-verify decode: {batch_size} x {model.name} "
            f"(prompt {prompt_len} + {max_new_tokens} new, spec_k={spec_k}, "
            f"target acceptance {acceptance_rate:g}) on "
            f"{cfg.n_routers}x{cfg.neurons_per_router} lanes"
        ),
        headers=[
            "Path", "Wall s", "Tokens/s", "Vector cycles",
            "Cycles/token", "Acceptance", "Tokens/pass", "Speedup",
        ],
        notes=(
            "Generated tokens bit-identical across all three paths and "
            "each speculative result's closed-form sequential-equivalent "
            "cycles equal the plain run's (checked): a rejected draft "
            "costs rolled-back work, never correctness. One verification "
            f"pass scores up to spec_k+1={spec_k + 1} positions in a "
            "single overlay traversal instead of one traversal per "
            f"token. Solo speculative: {drafted} drafted, {accepted} "
            f"accepted, {rolled_back} rolled back "
            f"({measured_acceptance:.0%} measured acceptance)."
        ),
    )
    result.rows.append(
        [
            "plain (KV-cached)",
            round(t_plain, 4),
            round(tokens / t_plain, 2),
            plain_cycles,
            round(plain_cycles / tokens, 2),
            "-",
            "1.00",
            "1.00x",
        ]
    )
    solo_cycles = sum(r.vector_cycles for r in solo)
    solo_passes = sum(r.verify_passes for r in solo)
    result.rows.append(
        [
            "speculative (draft-and-verify)",
            round(t_solo, 4),
            round(tokens / t_solo, 2),
            solo_cycles,
            round(solo_cycles / tokens, 2),
            f"{measured_acceptance:.2f}",
            round(tokens / solo_passes, 2),
            f"{t_plain / t_solo:.2f}x",
        ]
    )
    batch_drafted = sum(r.drafted_tokens for r in batch.results)
    batch_accepted = sum(r.accepted_tokens for r in batch.results)
    batch_passes = sum(r.verify_passes for r in batch.results)
    result.rows.append(
        [
            "speculative + continuous batching",
            round(t_batched, 4),
            round(tokens / t_batched, 2),
            batch.packed_vector_cycles,
            round(batch.packed_vector_cycles / tokens, 2),
            f"{batch_accepted / batch_drafted if batch_drafted else 0.0:.2f}",
            round(tokens / batch_passes, 2),
            f"{t_plain / t_batched:.2f}x",
        ]
    )
    return result


def tree_speculation_speedup(
    model_name=None,
    batch_size: int = 8,
    prompt_len: int = 16,
    max_new_tokens: int = 32,
    config: "NovaConfig | str" = "jetson-nx",
    spec_tree: str | None = None,
    fidelity: float = 0.45,
    seed: int | None = None,
    max_active: int = 8,
    warmup: bool = True,
) -> ExperimentResult:
    """Linear chain vs draft tree at the same verification budget.

    The tree-speculation study behind ``nova-repro serve-decode
    --speculative-tree`` and ``benchmarks/bench_tree_speculation.py``:
    one batch of causal decode requests is decoded plain once (the
    bit-exact reference) and then served two ways through the paged
    :class:`~repro.core.decode.ContinuousBatchScheduler` — a
    **linear** draft chain and a **draft tree** (``spec_tree``, e.g.
    ``"4x1,2x1,1x1"``) — where the linear
    chain's depth is pinned to the tree's node count, so both
    speculative paths stake the *same number of provisional tokens per
    verification pass* and differ only in how the budget is shaped.
    Every draft candidate flips the same per-position fidelity coin
    (one :class:`~repro.core.speculative.TruncatedTableDraft` per
    request at the given ``fidelity``), which is the regime trees are
    for: when a single draft is often wrong, a deep chain dies at its
    first miss while a wide first level usually has *some* branch
    survive, so the tree commits more tokens per pass from the same
    budget.

    Before the table is built, both speculative paths' generated
    tokens are checked bit-identical to plain solo
    :meth:`~repro.core.decode.NovaDecodeEngine.generate`
    (``RuntimeError`` on divergence) — branching changes which work
    rolls back, never the tokens.  The table reports wall-clock
    tokens/sec, packed cycles/token, measured acceptance, committed
    tokens per pass, and each speculative path's speedup over the
    linear chain.
    """
    import itertools

    from repro.core.decode import ContinuousBatchScheduler
    from repro.core.session import NovaSession
    from repro.core.speculative import DraftTree, TruncatedTableDraft
    from repro.workloads.bert import decode_batch

    _require_tokens("tree_speculation_speedup", max_new_tokens)
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must be in [0, 1], got {fidelity}")
    cfg, seed = _config_and_seed(config, seed)
    if spec_tree is None:
        spec_tree = cfg.spec_tree if cfg.spec_tree is not None else "4x1,2x1,1x1"
    tree = DraftTree.parse(spec_tree)
    # the linear baseline stakes exactly as many provisional tokens per
    # pass as the tree has nodes: same budget, different shape
    spec_k = tree.max_nodes
    model = _serving_model(model_name)
    requests = decode_batch(
        model, batch_size, prompt_len=prompt_len,
        max_new_tokens=max_new_tokens, seed=seed,
    )
    session = NovaSession(cfg)
    engine = session.decoder
    plain = [engine.generate(r) for r in requests]

    def run_scheduler(shape: str | None):
        # successive drafts draw successive seeds, same rationale as
        # speculative_decode_batch: one coin sequence per request
        draft_seeds = itertools.count(seed)
        # pool sized so provisional branches never hit the fallback
        # path: the study measures budget shape, not memory pressure
        scheduler = ContinuousBatchScheduler(
            engine, max_active=max_active, paged=True, speculative=True,
            spec_k=spec_k, spec_tree=shape, pool_blocks=1024,
            draft_factory=lambda: TruncatedTableDraft(
                cfg, fidelity=fidelity, seed=next(draft_seeds)
            ),
        )
        return _timed(lambda: scheduler.run(requests))

    if warmup:
        run_scheduler(None)
        run_scheduler(spec_tree)

    linear, t_linear = run_scheduler(None)
    treed, t_tree = run_scheduler(spec_tree)

    for label, batch in (("linear", linear), ("tree", treed)):
        _check_solo_equivalence(
            f"speculative decode ({label})", "plain generate", plain,
            batch.results,
        )

    tokens = sum(r.n_generated for r in plain)
    result = ExperimentResult(
        experiment_id="Tree speculation",
        title=(
            f"Draft tree vs linear chain: {batch_size} x {model.name} "
            f"(prompt {prompt_len} + {max_new_tokens} new, tree "
            f"{tree.spec} = {spec_k} nodes, candidate fidelity "
            f"{fidelity:g}) on {cfg.n_routers}x{cfg.neurons_per_router} "
            "lanes"
        ),
        headers=[
            "Path", "Wall s", "Tokens/s", "Packed cycles",
            "Cycles/token", "Acceptance", "Tokens/pass", "vs linear",
        ],
        notes=(
            "Both speculative paths stake the same provisional-token "
            f"budget per verification pass ({spec_k} drafts) and both "
            "are bit-identical to plain generate (checked). At low "
            "candidate fidelity the linear chain dies at its first "
            "rejected draft; the tree's wide first level usually keeps "
            "one branch alive, so the same budget commits more tokens "
            "per pass."
        ),
    )
    for label, batch, dt, base in (
        ("linear chain (spec_k)", linear, t_linear, None),
        (f"draft tree ({tree.spec})", treed, t_tree, t_linear),
    ):
        drafted = sum(r.drafted_tokens for r in batch.results)
        accepted = sum(r.accepted_tokens for r in batch.results)
        passes = sum(r.verify_passes for r in batch.results)
        result.rows.append(
            [
                label,
                round(dt, 4),
                round(tokens / dt, 2),
                batch.packed_vector_cycles,
                round(batch.packed_vector_cycles / tokens, 2),
                f"{accepted / drafted if drafted else 0.0:.2f}",
                round(tokens / passes, 2),
                "1.00x" if base is None else f"{base / dt:.2f}x",
            ]
        )
    return result


def serving_slo_comparison(
    n_requests: int = 48,
    config: "NovaConfig | str" = "jetson-nx",
    seed: int = 4,
    max_active: int = 2,
    paged: bool = False,
    pool_blocks: int | None = None,
    deadline_slack: float = 2.0,
    policies=("fcfs", "priority-preemptive", "slo-aware", "tenant-fair"),
) -> ExperimentResult:
    """Scheduling policies head-to-head on one heavy-tailed trace.

    The experiment behind ``nova-repro serve-async`` and
    ``benchmarks/bench_frontdoor.py``: one seeded bursty heavy-tailed
    trace (:func:`repro.serving.arrivals.build_trace` — Pareto prompt
    lengths and token budgets, flash-crowd arrivals, two tenants, two
    priority levels, per-request deadlines at ``deadline_slack``x the
    fair solo service time) is served through the async front door
    (:class:`repro.serving.frontdoor.FrontDoor`) once per policy, at
    the same ``max_active`` slot budget and memory mode.  Every time
    is virtual cycles on the scheduler's deterministic clock, so the
    whole table is reproducible byte-for-byte.

    Before the table is built, every policy's per-request outputs,
    cycles and counters are checked bit-identical to solo
    :meth:`repro.core.decode.NovaDecodeEngine.generate`
    (``RuntimeError`` on divergence): policies may only move *when*
    work happens.  The headline contrast is FCFS vs SLO-aware — under
    a heavy tail, earliest-deadline-first admission stops one giant
    request from head-of-line-blocking a crowd of short ones, which
    collapses p50/p99 TTFT and raises goodput at the same slot budget.
    """
    from repro.core.session import NovaSession
    from repro.serving.arrivals import (
        build_trace,
        estimate_cycles_per_token,
    )
    from repro.serving.frontdoor import FrontDoor

    cfg = as_config(config)
    session = NovaSession(cfg)
    engine = session.decoder

    hidden, n_heads = 16, 2
    cpt = estimate_cycles_per_token(
        engine, hidden=hidden, n_heads=n_heads, seed=seed
    )
    trace = build_trace(
        n_requests,
        hidden=hidden,
        n_heads=n_heads,
        process="bursty",
        mean_gap=cpt * 2,
        prompt_range=(2, 10),
        tokens_range=(2, 48),
        tail_alpha=1.05,
        max_burst=12,
        priorities=(0, 1),
        deadline_slack=deadline_slack,
        cycles_per_token=cpt,
        seed=seed,
    )
    solo = {t.request_id: engine.generate(t.request) for t in trace}

    result = ExperimentResult(
        experiment_id="Async serving SLOs",
        title=(
            f"Front-door policies on a bursty heavy-tailed trace: "
            f"{n_requests} requests, {max_active} slots, "
            f"{'paged' if paged else 'contiguous'} KV on "
            f"{cfg.n_routers}x{cfg.neurons_per_router} lanes"
        ),
        headers=[
            "Policy", "p50 TTFT", "p99 TTFT", "p99 latency",
            "Goodput tok/kcyc", "SLO attain", "Defer", "Preempt",
        ],
        notes=(
            "All times in virtual cycles (deterministic clock; no "
            "wall-clock anywhere in repro.serving). Per-request outputs, "
            "cycles and counters checked bit-identical to solo generate "
            "under every policy. Goodput counts only tokens of requests "
            f"that met their deadline (slack {deadline_slack}x fair solo "
            "service time); the heavy tail is what separates FCFS from "
            "SLO-aware admission."
        ),
    )
    for name in policies:
        door = FrontDoor(
            engine,
            policy=name,
            max_active=max_active,
            paged=paged,
            pool_blocks=pool_blocks,
        )
        report = door.serve(trace)
        _check_solo_equivalence(
            f"policy {name!r}", "solo generate", solo, door.last_results()
        )
        result.rows.append(
            [
                report.policy,
                round(report.p50_ttft, 1),
                round(report.p99_ttft, 1),
                round(report.p99_latency, 1),
                round(report.goodput_tokens_per_kcycle, 3),
                f"{report.slo_attainment:.2f}",
                report.deferrals,
                report.preemptions,
            ]
        )
    return result


def nvdla_duty_cycle_estimate() -> float:
    """Vector-unit duty cycle of the NVDLA host on its native workload.

    Justifies the Jetson configuration's ``utilization`` field: an
    ImageNet-scale convolution accumulates ``K = C_in * k * k`` products
    (hundreds to thousands) per output, so the conv cores emit one
    16-wide activation vector only once per many MAC cycles and the
    approximator idles in between.  The emission duty is ~``2048 / K``.
    """
    from repro.workloads.ops import MatMulOp, OpGraph

    host = NvdlaAccelerator()
    graph = OpGraph("imagenet-conv-stage")
    # A representative mid-network layer: 256 -> 256 channels, 3x3 kernel,
    # 14x14 feature map (K = 256 * 9 = 2304).
    graph.add(MatMulOp("conv", m=14 * 14, k=256 * 9, n=256))
    return host.activation_duty_cycle(graph)
