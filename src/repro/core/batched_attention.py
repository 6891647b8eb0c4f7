"""Batched attention serving: many requests through one shared overlay.

:class:`NovaAttentionEngine` is the cycle-accurate reference — one
request at a time, every query driven beat-by-beat through the NoC
model.  This module is the *serving* path the ROADMAP's north star asks
for: a batch of independent attention requests (variable sequence
length, shared overlay geometry) executed through **one** physical
:class:`~repro.core.vector_unit.NovaVectorUnit`, exactly as the paper
describes the hardware — a single overlay whose mapper feeds it
different tables per phase (table switching is free on NOVA; the table
lives on the wires).

Serving model
-------------
Three mechanisms make the batched path fast without changing a single
output bit or cycle count:

* **Lane packing.**  All requests' queries for one function are
  concatenated into a single lane stream, so the tail of request ``i``
  and the head of request ``i + 1`` share a PE cycle instead of each
  request padding its final batch with idle lanes.  The vector unit
  stays full between requests; only the final batch of the whole phase
  is padded.
* **Compiled-table cache.**  Tables come from the process-wide
  :mod:`repro.approx.table_cache`, keyed on
  ``(function, n_segments, seed)`` — training happens once per process,
  and every engine with the same key shares the same table object, which
  is what makes batched-vs-sequential comparisons bit-exact by
  construction.
* **Vectorised streaming.**  The packed stream goes through the vector
  unit's whole-stream gather path (one NumPy segment-index gather per
  phase), which is output- and counter-exact against the beat-level
  simulation.

The recommended way to reach this engine is
:meth:`repro.core.session.NovaSession.serve`, with the geometry
expressed as a typed :class:`repro.core.config.NovaConfig` (or a Table
II preset name such as ``"jetson-nx"``).

Accounting semantics
--------------------
* Each per-request :class:`~repro.core.attention.AttentionLayerResult`
  reports the **sequential-equivalent** cost: ``vector_cycles`` and
  event counters identical to what a dedicated single-request
  :class:`NovaAttentionEngine` would charge that request (including its
  own tail padding).  Those are the numbers a per-request SLA or energy
  bill is written against.
* The batch-level ``counters`` are the events the shared overlay
  actually produced.  Packing eliminates per-request tail padding and
  shares broadcasts across requests, so for the lane-local events
  (``comparator_eval`` / ``mac_op`` / ``pair_capture``) the batch total
  is at most the sum of the per-request totals — equal exactly when
  every request fills its final batch.  The gap *is* the packing win,
  surfaced as :attr:`BatchedAttentionResult.packing_speedup` on the
  cycle side.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from repro.approx.quantize import QuantizedPwl, beat_of_address
from repro.approx.table_cache import compiled_table
from repro.core.config import NovaConfig, as_config
from repro.core.attention import (
    ATTENTION_FUNCTIONS,
    AttentionLayerResult,
    assemble_probabilities,
    finish_attention_layer,
    host_attention_scores,
    pack_lane_stream,
    shift_scores,
    softmax_reduction,
)
from repro.core.vector_unit import NovaVectorUnit
from repro.noc.stats import EventCounters

__all__ = [
    "AttentionRequest",
    "BatchedAttentionResult",
    "BatchedNovaAttentionEngine",
]


def _check_finite(name: str, values: np.ndarray) -> None:
    """Reject NaN/inf request data before it reaches the fixed-point casts."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = finite.size - int(np.count_nonzero(finite))
        raise ValueError(f"{name} must be finite, got {bad} NaN/inf entries")


@dataclass(frozen=True)
class AttentionRequest:
    """One independent multi-head self-attention request.

    ``x`` is ``(seq, hidden)``; the four weight matrices are
    ``(hidden, hidden)``.  Requests in a batch may differ in sequence
    length (and even hidden size) — the packed lane stream is flat.
    Every entry of ``x`` and the weights must be finite: a NaN or inf
    raises ``ValueError`` naming the field.
    """

    x: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    n_heads: int

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        object.__setattr__(self, "x", x)
        if x.ndim != 2:
            raise ValueError(f"x must be (seq, hidden), got shape {x.shape}")
        seq, hidden = x.shape
        if seq < 1:
            raise ValueError(
                "request must contain at least one token (got an empty "
                f"sequence: x has shape {x.shape})"
            )
        if hidden < 1:
            raise ValueError(
                "request must have a hidden width >= 1 (got zero-width "
                f"x of shape {x.shape})"
            )
        _check_finite("x", x)
        if self.n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {self.n_heads}")
        if hidden % self.n_heads != 0:
            raise ValueError(
                f"hidden ({hidden}) must divide by n_heads ({self.n_heads})"
            )
        for name in ("wq", "wk", "wv", "wo"):
            w = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, w)
            if w.shape != (hidden, hidden):
                raise ValueError(
                    f"{name} must have shape ({hidden}, {hidden}), got {w.shape}"
                )
            _check_finite(name, w)

    @property
    def seq(self) -> int:
        """Sequence length of this request."""
        return self.x.shape[0]

    @property
    def hidden(self) -> int:
        """Hidden width of this request."""
        return self.x.shape[1]


@dataclass(frozen=True)
class _PhaseCosts:
    """Per-table constants of the sequential-equivalent accounting.

    ``n_beats`` is the table's broadcast beat count, ``pad_beat`` the
    beat a zero-padded lane selects (its address is the table's segment
    index of 0.0) and ``per_batch`` the non-zero address-independent
    NoC events of one lane batch's broadcast.
    """

    n_beats: int
    pad_beat: int
    per_batch: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class BatchedAttentionResult:
    """Outcome of one batch through the shared overlay.

    ``results[i]`` is the full per-request result, identical (outputs,
    probabilities, cycles, counters) to running request ``i`` alone on a
    sequential engine with the same tables.  ``packed_vector_cycles`` is
    what the shared overlay actually spent; ``sequential_vector_cycles``
    is the sum of the per-request costs.  ``counters`` are the events
    the shared overlay actually produced for the whole batch.
    """

    results: tuple[AttentionLayerResult, ...]
    packed_vector_cycles: int
    sequential_vector_cycles: int
    counters: EventCounters

    @property
    def n_requests(self) -> int:
        """Requests served in this batch."""
        return len(self.results)

    @property
    def packing_speedup(self) -> float:
        """Sequential vector cycles per packed vector cycle (>= 1)."""
        if self.packed_vector_cycles == 0:
            return 1.0
        return self.sequential_vector_cycles / self.packed_vector_cycles


class BatchedNovaAttentionEngine:
    """One shared NOVA overlay serving batches of attention requests.

    The constructor takes a :class:`~repro.core.config.NovaConfig` (or
    a Table II preset name), mirroring :class:`NovaAttentionEngine`.
    The crucial difference from the reference engine is that a *single*
    :class:`NovaVectorUnit` serves every non-linear function by table
    switching (``retarget``), as the paper's overlay does, instead of
    one instance per function.
    """

    def __init__(self, config: NovaConfig | str | None = None) -> None:
        self.config = as_config(config)
        cfg = self.config
        self.tables = {
            name: compiled_table(name, n_segments=cfg.n_segments, seed=cfg.seed)
            for name in ATTENTION_FUNCTIONS
        }
        self.unit = NovaVectorUnit(self.tables["exp"], cfg)
        self.n_routers = cfg.n_routers
        self.neurons_per_router = cfg.neurons_per_router
        self.pe_frequency_ghz = cfg.pe_frequency_ghz
        self.hop_mm = cfg.hop_mm
        self.n_lanes = cfg.n_lanes
        self._shape = cfg.lane_shape
        self._phases = {
            name: self._phase_costs(table)
            for name, table in self.tables.items()
        }

    # ------------------------------------------------------------------
    # Packed elementwise execution.
    # ------------------------------------------------------------------

    def _run_packed(
        self, function: str, flat: np.ndarray
    ) -> tuple[np.ndarray, int, np.ndarray]:
        """One packed lane stream through the shared overlay.

        Returns ``(outputs, packed_vector_cycles, addresses)``, with
        ``addresses`` the flat per-query segment indices (a free
        by-product of the vectorised stream, reused for per-request
        event accounting); only the stream's final batch is padded.
        """
        self.unit.retarget(self.tables[function])
        batches, n_batches = pack_lane_stream(flat, self._shape)
        stream = self.unit.run_stream(batches)
        return (
            stream.outputs.reshape(-1)[: len(flat)],
            n_batches,
            stream.addresses.reshape(-1)[: len(flat)],
        )

    def _phase_costs(self, table: QuantizedPwl) -> _PhaseCosts:
        """The per-table constants of :meth:`_sequential_request_counters`."""
        schedule = self.unit.mapper.schedule(
            n_routers=self.n_routers,
            pe_frequency_ghz=self.pe_frequency_ghz,
            n_pairs=table.n_segments,
            hop_mm=self.hop_mm,
        )
        return _PhaseCosts(
            n_beats=schedule.n_beats,
            pad_beat=beat_of_address(
                int(table.segment_index(0.0)), schedule.n_beats
            ),
            per_batch=tuple(
                (event, count)
                for event, count in schedule.broadcast_event_counts(1).items()
                if count
            ),
        )

    def _sequential_request_counters(
        self, streams: dict[str, tuple[int, int]]
    ) -> EventCounters:
        """Events a dedicated single-request engine would charge.

        ``streams`` maps function name to ``(n_queries, tag_sum)`` where
        ``tag_sum`` is the sum of ``address & (n_beats - 1)`` over the
        request's real (un-padded) queries, sliced from the packed
        stream's addresses.  The closed form reproduces the sequential
        engine's accounting exactly, including the zero-padding of each
        request's final lane batch and the address-dependent
        ``tag_match`` count.

        Everything that depends only on the function's table — the beat
        a zero-padded lane selects and the per-batch broadcast events —
        is computed once per table at construction (:class:`_PhaseCosts`),
        so each call is integer arithmetic building one counts dict.
        """
        counts: dict[str, int] = {}
        lanes = self.n_lanes
        for function, (n_queries, tag_sum) in streams.items():
            phase = self._phases[function]
            n_batches = -(-n_queries // lanes)
            padded = n_batches * lanes
            for event, count in (
                ("comparator_eval", padded),
                ("mac_op", padded),
                ("pair_capture", padded),
                (
                    "tag_match",
                    tag_sum + (padded - n_queries) * phase.pad_beat + padded,
                ),
            ):
                counts[event] = counts.get(event, 0) + count
            if n_batches:
                for event, count in phase.per_batch:
                    counts[event] = counts.get(event, 0) + count * n_batches
        return EventCounters(counts=counts)

    # ------------------------------------------------------------------
    # Batched attention.
    # ------------------------------------------------------------------

    def attention_batch(
        self, requests: Sequence[AttentionRequest] | Iterable[AttentionRequest]
    ) -> BatchedAttentionResult:
        """Serve a batch of independent attention requests.

        Host GEMMs (projections, scores, context) run per request in
        plain numpy, as on the sequential engine; the non-linear phases
        (softmax exp, normaliser reciprocal) run packed across the whole
        batch through the shared overlay.  Outputs are bit-identical to
        per-request sequential execution and each per-request result
        carries its sequential-equivalent cycle and event cost.
        """
        requests = tuple(requests)
        if not requests:
            raise ValueError("need at least one request")
        before = self.unit._lifetime_counters()

        # Host phase: per-request projections and score matrices (the
        # exact helpers the sequential engine uses — see the "host-side
        # numerics" section of repro.core.attention).
        states = []
        for req in requests:
            scores, v = host_attention_scores(
                req.x, req.wq, req.wk, req.wv, req.n_heads
            )
            states.append({"req": req, "v": v, "shifted": shift_scores(scores)})

        # Packed phase 1: every request's exponentials in one stream.
        # The shifted scores are consumed here — only their shape/size
        # survive, so the batch holds one packed copy, not one per stage.
        exp_flat = np.concatenate([s["shifted"].reshape(-1) for s in states])
        for s in states:
            s["scores_shape"] = s["shifted"].shape
            s["n_exp"] = s["shifted"].size
            del s["shifted"]
        exp_out, exp_packed_batches, exp_addr = self._run_packed("exp", exp_flat)
        exp_n_beats = self._phases["exp"].n_beats
        offset = 0
        for s in states:
            size = s["n_exp"]
            raw_numer = exp_out[offset:offset + size].reshape(s["scores_shape"])
            s["exp_tag_sum"] = int(
                beat_of_address(exp_addr[offset:offset + size], exp_n_beats).sum()
            )
            offset += size
            # Host reductions: clamp, row sums, power-of-two reduction.
            s["numer"], s["mantissa"], s["exponent"] = softmax_reduction(
                raw_numer
            )

        # Packed phase 2: every request's reciprocals in one stream.
        recip_flat = np.concatenate([s["mantissa"].reshape(-1) for s in states])
        recip_out, recip_packed_batches, recip_addr = self._run_packed(
            "reciprocal", recip_flat
        )
        recip_n_beats = self._phases["reciprocal"].n_beats
        offset = 0
        for s in states:
            size = s["mantissa"].size
            s["inv"] = recip_out[offset:offset + size].reshape(s["mantissa"].shape)
            s["recip_tag_sum"] = int(
                beat_of_address(
                    recip_addr[offset:offset + size], recip_n_beats
                ).sum()
            )
            offset += size

        # Host phase: assemble probabilities, context and outputs.
        lanes = self.n_lanes
        results = []
        sequential_cycles = 0
        for s in states:
            req = s["req"]
            seq = req.seq
            probs = assemble_probabilities(s["numer"], s["inv"], s["exponent"])
            outputs = finish_attention_layer(probs, s["v"], req.wo)
            exp_batches = -(-s["n_exp"] // lanes)
            recip_batches = -(-s["mantissa"].size // lanes)
            vector_cycles = exp_batches + recip_batches
            sequential_cycles += vector_cycles
            results.append(
                AttentionLayerResult(
                    outputs=outputs,
                    probabilities=probs,
                    vector_cycles=vector_cycles,
                    nonlinear_queries=int(
                        req.n_heads * seq * seq + np.prod(probs.shape[:-1])
                    ),
                    counters=self._sequential_request_counters(
                        {
                            "exp": (s["n_exp"], s["exp_tag_sum"]),
                            "reciprocal": (s["mantissa"].size, s["recip_tag_sum"]),
                        }
                    ),
                )
            )

        return BatchedAttentionResult(
            results=tuple(results),
            packed_vector_cycles=exp_packed_batches + recip_packed_batches,
            sequential_vector_cycles=sequential_cycles,
            counters=self.unit._lifetime_counters().diff(before),
        )
