"""Attention layers on the NOVA overlay — the paper's title, end to end.

:class:`NovaAttentionEngine` executes a complete multi-head self-attention
layer where **every non-linear operation runs through the cycle-accurate
NOVA hardware model**: the softmax's exponential, the normaliser's
reciprocal (with power-of-two range reduction) and, for a full encoder
block, the FFN's GeLU.  The host's tensor ops (the GEMMs) run as plain
numpy — they belong to the MXUs/cores, not the vector unit.

The engine demonstrates the three things the paper asserts but never
shows together:

1. the same physical overlay serves all of a layer's non-linear functions
   via the mapper's table switching (free on NOVA — tables live on the
   wires, see :mod:`repro.core.table_scheduler`),
2. attention outputs stay numerically faithful to the exact layer,
3. the vector-unit cycle count per layer is exactly the op graph's query
   count divided by the lane count (one query per lane per PE cycle).

Serving model
-------------
This engine is the *cycle-accurate reference*: every non-linear query is
driven beat-by-beat through the NoC simulation, one request at a time.
Production-style serving lives in
:class:`repro.core.batched_attention.BatchedNovaAttentionEngine`, which
packs many requests through one shared overlay and is validated
bit-exact and cycle-exact against this engine.

The recommended entry point to both engines (and to raw vector-unit
access) is :class:`repro.core.session.NovaSession`, driven by a typed
:class:`repro.core.config.NovaConfig` geometry — construct engines
directly only when you need to hold the engine object itself.  The two
engines share compile-time state rather than rebuilding it:

* **table cache** — PWL tables come from the process-wide
  :mod:`repro.approx.table_cache`, keyed on
  ``(function, n_segments, seed)``; constructing N engines trains each
  table once, not N times, and every engine with the same key holds the
  *same* table object (so cross-engine output comparisons are exact by
  construction);
* **schedule cache** — :class:`repro.core.mapper.NovaMapper` shares one
  frozen ``BroadcastSchedule`` per ``(n_routers, freq, n_pairs, hop_mm)``
  geometry across all units in the process.

Per-call results report only the events of that call: the engine
snapshots its units' lifetime counters around each layer, so invoking
:meth:`NovaAttentionEngine.attention_layer` repeatedly yields counters
that sum to the lifetime totals instead of double-counting earlier calls.
The same discipline holds across the whole engine family — the batched
engine's per-request closed-form counters and the decode engine's
per-step counters (:mod:`repro.core.decode`) sum to their unit's
lifetime totals, and compile-time work is never re-counted: tables are
compiled once at construction through the process-wide cache, so a
decode loop of any length adds zero table-cache misses (pinned by
``tests/test_decode.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.approx.quantize import QuantizedPwl
from repro.approx.table_cache import compiled_table
from repro.core.config import NovaConfig, as_config
from repro.core.table_scheduler import TableScheduler
from repro.core.vector_unit import NovaVectorUnit
from repro.noc.stats import EventCounters

__all__ = ["NovaAttentionEngine", "AttentionLayerResult"]

#: The non-linear functions an encoder layer schedules onto the overlay.
ATTENTION_FUNCTIONS = ("exp", "reciprocal", "gelu")


@dataclass(frozen=True)
class AttentionLayerResult:
    """Output of one attention layer on the overlay."""

    outputs: np.ndarray           # (seq, hidden)
    probabilities: np.ndarray     # (heads, seq, seq)
    vector_cycles: int            # PE cycles the vector unit was busy
    nonlinear_queries: int
    counters: EventCounters


# ----------------------------------------------------------------------
# Host-side numerics shared by the sequential and batched engines.
#
# These are the numerically sensitive steps between the hardware calls;
# both engines MUST use these exact helpers — the batched engine's
# bit-exactness contract against this engine holds by construction only
# because there is a single copy of each step.
# ----------------------------------------------------------------------


def pack_lane_stream(
    flat: np.ndarray, shape: tuple[int, int]
) -> tuple[np.ndarray, int]:
    """Pack a flat query stream into whole lane batches, zero-padding
    the tail.

    ``shape`` is the lane grid ``(n_routers, n_neurons)``; returns
    ``(batches, n_batches)`` with ``batches`` shaped
    ``(n_batches, n_routers, n_neurons)``.  The pad value (0.0) is part
    of the accounting contract: padded lanes look up the table's
    zero-address, which the serving engine's per-request closed form
    reproduces.
    """
    lanes = shape[0] * shape[1]
    n_batches = -(-len(flat) // lanes)
    padded = np.zeros(n_batches * lanes)
    padded[: len(flat)] = flat
    return padded.reshape(n_batches, *shape), n_batches


def host_attention_scores(
    x: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    n_heads: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Projections and scaled attention scores (the host's GEMMs).

    Returns ``(scores, v)`` with ``scores`` of shape
    ``(heads, seq, seq)`` and ``v`` of shape ``(heads, seq, head_dim)``.
    """
    seq, hidden = x.shape
    head_dim = hidden // n_heads

    def split(m: np.ndarray) -> np.ndarray:
        return m.reshape(seq, n_heads, head_dim).transpose(1, 0, 2)

    q, k, v = split(x @ wq), split(x @ wk), split(x @ wv)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(head_dim)
    return scores, v


def shift_scores(scores: np.ndarray) -> np.ndarray:
    """Max-subtraction for numerical stability (host row max)."""
    return scores - scores.max(axis=-1, keepdims=True)


def softmax_reduction(
    raw_numer: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Post-exp host stage: clamp, row sums, power-of-two reduction.

    Returns ``(numer, mantissa, exponent)``: the clamped numerators, the
    normalised mantissas in ``[1, 2)`` to feed the reciprocal table, and
    the exponents to undo afterwards.
    """
    numer = np.maximum(raw_numer, 0.0)
    denom = numer.sum(axis=-1, keepdims=True)
    denom = np.where(denom <= 0, 1.0, denom)
    mantissa, exponent = np.frexp(denom)
    return numer, mantissa * 2.0, exponent - 1


def assemble_probabilities(
    numer: np.ndarray, inv: np.ndarray, exponent: np.ndarray
) -> np.ndarray:
    """Scale numerators by the hardware reciprocal and renormalise.

    The final renormalisation is the host's output scale stage; it keeps
    rows summing to one exactly despite residual reciprocal error.
    """
    probs = numer * inv * np.ldexp(1.0, -exponent)
    return probs / probs.sum(axis=-1, keepdims=True)


def finish_attention_layer(
    probs: np.ndarray, v: np.ndarray, wo: np.ndarray
) -> np.ndarray:
    """Context GEMM, head merge and output projection."""
    heads, seq, head_dim = v.shape
    context = probs @ v
    merged = context.transpose(1, 0, 2).reshape(seq, heads * head_dim)
    return merged @ wo


class NovaAttentionEngine:
    """One NOVA overlay executing attention non-linearities.

    The constructor takes a :class:`~repro.core.config.NovaConfig` (or
    a Table II preset name such as ``"jetson-nx"``; ``None`` means the
    default config)::

        NovaAttentionEngine(NovaConfig(n_routers=2, neurons_per_router=16))
        NovaAttentionEngine("tpu-v4")

    Tables for exp / reciprocal / gelu are compiled once at construction (the paper's compile-time MLP
    flow, via the process-wide table cache) and broadcast on demand.
    """

    def __init__(self, config: NovaConfig | str | None = None) -> None:
        self.config = as_config(config)
        cfg = self.config
        self.tables = {
            name: compiled_table(name, n_segments=cfg.n_segments, seed=cfg.seed)
            for name in ATTENTION_FUNCTIONS
        }
        # one physical unit per function table (same geometry — in
        # hardware it is literally the same unit fed different beats;
        # separate instances keep per-function event counters apart)
        self.units = {
            name: NovaVectorUnit(table, cfg)
            for name, table in self.tables.items()
        }
        self.n_lanes = cfg.n_lanes
        self.scheduler = TableScheduler(
            self.tables, n_lanes=self.n_lanes, unit_kind="nova"
        )
        self._shape = cfg.lane_shape

    # ------------------------------------------------------------------
    # Elementwise ops through the hardware (batched over the lane grid).
    # ------------------------------------------------------------------

    def _elementwise(self, function: str, values: np.ndarray) -> tuple[np.ndarray, int]:
        """Run a flat value stream through the unit, padding the tail.

        Returns (results, vector_cycles).
        """
        unit = self.units[function]
        flat = np.asarray(values, dtype=np.float64).reshape(-1)
        batches, n_batches = pack_lane_stream(flat, self._shape)
        # simulate=True: this engine is the cycle-accurate reference the
        # batched serving engine is validated against, so its queries go
        # through the beat-level NoC model rather than the vectorised path.
        stream = unit.run_stream(batches, simulate=True)
        out = stream.outputs.reshape(-1)[: len(flat)]
        return out.reshape(np.asarray(values).shape), n_batches

    def softmax(self, scores: np.ndarray) -> tuple[np.ndarray, int]:
        """Hardware softmax over the last axis.

        exp runs on the overlay; the row max/sum reductions belong to the
        host's accumulators; 1/sum runs on the overlay through the
        reciprocal table with power-of-two range reduction.
        """
        scores = np.asarray(scores, dtype=np.float64)
        shifted = shift_scores(scores)
        raw_numer, exp_cycles = self._elementwise("exp", shifted)
        numer, mantissa, exponent = softmax_reduction(raw_numer)
        inv, recip_cycles = self._elementwise("reciprocal", mantissa)
        probs = assemble_probabilities(numer, inv, exponent)
        return probs, exp_cycles + recip_cycles

    def gelu(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        """Hardware GeLU (FFN activation)."""
        return self._elementwise("gelu", values)

    # ------------------------------------------------------------------
    # Full attention layer.
    # ------------------------------------------------------------------

    def attention_layer(
        self,
        x: np.ndarray,
        wq: np.ndarray,
        wk: np.ndarray,
        wv: np.ndarray,
        wo: np.ndarray,
        n_heads: int,
    ) -> AttentionLayerResult:
        """Multi-head self-attention with hardware non-linearities.

        ``x`` is ``(seq, hidden)``; the four weight matrices are
        ``(hidden, hidden)``.
        """
        x = np.asarray(x, dtype=np.float64)
        seq, hidden = x.shape
        if hidden % n_heads != 0:
            raise ValueError(
                f"hidden ({hidden}) must divide by n_heads ({n_heads})"
            )
        # Snapshot every unit's lifetime counters so the result carries
        # exactly this layer's events; merging raw lifetime counters would
        # re-count every earlier call on the same engine.
        before = {
            name: unit._lifetime_counters() for name, unit in self.units.items()
        }
        scores, v = host_attention_scores(x, wq, wk, wv, n_heads)
        probs, vector_cycles = self.softmax(scores)
        outputs = finish_attention_layer(probs, v, wo)

        counters = EventCounters()
        for name, unit in self.units.items():
            counters = counters.merge(
                unit._lifetime_counters().diff(before[name])
            )
        return AttentionLayerResult(
            outputs=outputs,
            probabilities=probs,
            vector_cycles=vector_cycles,
            nonlinear_queries=int(n_heads * seq * seq + np.prod(probs.shape[:-1])),
            counters=counters,
        )

    def exact_attention_layer(
        self,
        x: np.ndarray,
        wq: np.ndarray,
        wk: np.ndarray,
        wv: np.ndarray,
        wo: np.ndarray,
        n_heads: int,
    ) -> np.ndarray:
        """The float reference of :meth:`attention_layer`."""
        from repro.approx.softmax import exact_softmax

        x = np.asarray(x, dtype=np.float64)
        seq, hidden = x.shape
        head_dim = hidden // n_heads

        def split(m: np.ndarray) -> np.ndarray:
            return m.reshape(seq, n_heads, head_dim).transpose(1, 0, 2)

        q, k, v = split(x @ wq), split(x @ wk), split(x @ wv)
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(head_dim)
        probs = exact_softmax(scores, axis=-1)
        context = probs @ v
        return context.transpose(1, 0, 2).reshape(seq, hidden) @ wo
