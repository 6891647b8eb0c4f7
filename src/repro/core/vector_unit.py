"""The NOVA vector unit: comparators + line NoC + MAC lanes.

This is the unit that overlays an accelerator (one router per core /
MXU / convolution engine, ``n`` neurons per router) and replaces its
LUT-based vector unit for non-linear operations.

Two APIs:

* :meth:`NovaVectorUnit.approximate` — one lookup across all routers,
  cycle-accurate through the NoC, returning outputs **bit-exact** against
  the :class:`~repro.approx.quantize.QuantizedPwl` golden model (this is
  the property the functional-verification tests pin down, standing in
  for the paper's Synopsys VCS verification).
* :meth:`NovaVectorUnit.run_stream` — a pipelined stream of lookups (one
  batch of PE outputs per PE cycle), reporting total PE cycles, per-batch
  latency and the event counters the energy model consumes.  Fault-free
  streams are evaluated by a whole-stream vectorised gather whose outputs
  and counter totals are exact against the beat-level simulation
  (``simulate=True`` forces the cycle-by-cycle path).

Throughput: one approximation per neuron per PE cycle once the 2-stage
pipeline (fetch, MAC) is full — identical to the LUT baseline, which is
why the paper compares the two at equal latency and puts the entire
difference in area/power.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.approx.quantize import QuantizedPwl
from repro.core.comparator import ComparatorBank
from repro.core.config import NovaConfig, preset
from repro.core.kernels import KernelBackend, resolve_backend
from repro.core.mac import MacLane
from repro.core.mapper import BroadcastSchedule, NovaMapper
from repro.core.noc import NovaNoc
from repro.noc.link import RepeatedWire
from repro.noc.stats import EventCounters
from repro.noc.topology import LineTopology

if TYPE_CHECKING:
    from repro.noc.faults import LinkFault

__all__ = ["NovaVectorUnit", "ApproximationResult", "StreamResult"]


@dataclass(frozen=True)
class ApproximationResult:
    """One batch through the unit.

    ``outputs`` has shape ``(n_routers, n_neurons)``; latency is in PE
    cycles (fetch + MAC); ``noc_cycles`` is the broadcast duration.
    """

    outputs: np.ndarray
    latency_pe_cycles: int
    noc_cycles: int
    counters: EventCounters


@dataclass(frozen=True)
class FaultedResult:
    """Outcome of a fault-injected batch.

    ``corrupted_lanes`` marks every lane whose output differs from the
    fault-free golden model (including uncaptured lanes).
    """

    outputs: np.ndarray
    captured: np.ndarray
    corrupted_lanes: np.ndarray
    golden: np.ndarray

    @property
    def n_corrupted(self) -> int:
        """Number of lanes the fault actually disturbed."""
        return int(np.count_nonzero(self.corrupted_lanes))


@dataclass(frozen=True)
class StreamResult:
    """A pipelined stream of ``n_batches`` batches.

    ``total_pe_cycles`` counts from the first batch entering the
    comparators to the last MAC retiring; at the paper's operating point
    it equals ``n_batches + 1`` (two-stage pipeline).
    """

    outputs: np.ndarray  # (n_batches, n_routers, n_neurons)
    total_pe_cycles: int
    batch_latency_pe_cycles: int
    counters: EventCounters
    #: Per-lane lookup addresses (segment indices), same shape as
    #: ``outputs``.  Filled on both paths: the vectorised kernel returns
    #: them as a free by-product of the whole-stream gather, and the
    #: cycle-simulated path re-derives them through the pure golden
    #: table (bit-identical, no extra counter charges) so consumers and
    #: the backend-equivalence tests never have to branch on the path.
    addresses: np.ndarray | None = None


class NovaVectorUnit:
    """A configured NOVA overlay instance.

    The constructor takes a table plus a
    :class:`~repro.core.config.NovaConfig` (or a preset name)::

        NovaVectorUnit(table, NovaConfig(n_routers=8, neurons_per_router=128))
        NovaVectorUnit(table, "tpu-v4")

    The unit only consumes the config's geometry: the table itself fixes
    the segment count, so ``config.n_segments``/``config.seed`` are
    recorded on :attr:`config` for provenance, not re-derived.
    """

    def __init__(
        self,
        table: QuantizedPwl,
        config: NovaConfig | str | None = None,
        *,
        wire: RepeatedWire | None = None,
        grid_shape: tuple[int, int] | None = None,
    ) -> None:
        if isinstance(config, str):
            config = preset(config)
        if not isinstance(config, NovaConfig):
            raise TypeError(
                "NovaVectorUnit needs a NovaConfig or a preset name, got "
                f"{type(config).__name__}"
            )
        config = dataclasses.replace(config, n_segments=table.n_segments)
        self.config = config
        self.table = table
        self.neurons_per_router = config.neurons_per_router
        self.pe_frequency_ghz = config.pe_frequency_ghz
        self.hop_mm = config.hop_mm
        self.mapper = NovaMapper(wire=wire)
        self.schedule: BroadcastSchedule = self.mapper.schedule(
            n_routers=config.n_routers,
            pe_frequency_ghz=config.pe_frequency_ghz,
            n_pairs=table.n_segments,
            hop_mm=config.hop_mm,
        )
        self.topology = LineTopology(
            n_routers=config.n_routers,
            hop_mm=config.hop_mm,
            grid_shape=grid_shape,
        )
        self.noc = NovaNoc(
            topology=self.topology,
            schedule=self.schedule,
            neurons_per_router=config.neurons_per_router,
        )
        self.comparators = [
            ComparatorBank(table=table, n_neurons=config.neurons_per_router)
            for _ in range(config.n_routers)
        ]
        self.macs = [
            MacLane(
                n_neurons=config.neurons_per_router,
                output_format=table.output_format,
            )
            for _ in range(config.n_routers)
        ]
        self.beats = list(table.packed_beats)
        self.backend: KernelBackend = resolve_backend(config.kernel_backend)

    @property
    def n_routers(self) -> int:
        """Routers (= accelerator cores) served by this unit."""
        return self.topology.n_routers

    def retarget(self, table: QuantizedPwl) -> None:
        """Switch the active function table in place.

        On NOVA the table is broadcast content, not stored state — the
        paper's table switching is free — so retargeting the overlay to a
        different function only swaps what the mapper feeds onto the
        wires: the serialised beats, the comparator cut points and the
        MAC output format.  The physical unit (routers, repeaters,
        comparator banks, MAC lanes) and all lifetime event counters are
        untouched; if the new table's segment count changes the beat
        count, the broadcast schedule is re-derived and the buffering
        switches are re-programmed, exactly as the runtime mapper would.

        Each table is serialised once (:attr:`QuantizedPwl.packed_beats`
        memoises :func:`~repro.approx.quantize.pack_beats` on the frozen
        table), so a retarget is a swap of references: the config is
        rebuilt only when the segment count changes, and retargeting to
        the current table does nothing.  :attr:`beats` is a fresh list,
        so editing it cannot reach the table's memoised beats.
        """
        if table is self.table:
            return
        if table.n_segments != self.table.n_segments:
            schedule = self.mapper.schedule(
                n_routers=self.n_routers,
                pe_frequency_ghz=self.pe_frequency_ghz,
                n_pairs=table.n_segments,
                hop_mm=self.hop_mm,
            )
            self.schedule = schedule
            self.noc.schedule = schedule
            buffering = set(schedule.buffering_routers)
            for router in self.noc.routers:
                router.set_buffering(router.router_id in buffering)
            self.config = dataclasses.replace(
                self.config, n_segments=table.n_segments
            )
        self.table = table
        self.beats = list(table.packed_beats)
        for bank in self.comparators:
            bank.table = table
        for mac in self.macs:
            mac.output_format = table.output_format

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        expected = (self.n_routers, self.neurons_per_router)
        if x.shape != expected:
            raise ValueError(f"expected input shape {expected}, got {x.shape}")
        return x

    def approximate(self, x: np.ndarray) -> ApproximationResult:
        """Run one batch of PE outputs through the full pipeline."""
        x = self._check_input(x)
        addresses = np.stack(
            [
                self.comparators[r].lookup_addresses(x[r])
                for r in range(self.n_routers)
            ]
        )
        result = self.noc.broadcast(self.beats, addresses)
        coeff_scale = self.table.coeff_format.scale
        xq = self.table.input_format.quantize(
            self.table.quantized_pwl.clamp(x)
        )
        outputs = np.stack(
            [
                self.macs[r].approximate(
                    result.slopes_raw[r] * coeff_scale,
                    xq[r],
                    result.biases_raw[r] * coeff_scale,
                )
                for r in range(self.n_routers)
            ]
        )
        lanes = self.n_routers * self.neurons_per_router
        counters = result.counters.merge(
            EventCounters(counts={"comparator_eval": lanes, "mac_op": lanes})
        )
        return ApproximationResult(
            outputs=outputs,
            latency_pe_cycles=self.schedule.total_latency_pe_cycles,
            noc_cycles=result.noc_cycles,
            counters=counters,
        )

    def run_stream(self, xs: np.ndarray, simulate: bool = False) -> StreamResult:
        """Run a pipelined stream of batches (one per PE cycle).

        ``xs`` has shape ``(n_batches, n_routers, n_neurons)``.  The fetch
        of batch ``t + 1`` overlaps the MAC of batch ``t``, so total time
        is ``n_batches - 1 + total_latency_pe_cycles`` PE cycles.

        By default the stream takes the vectorised path: one whole-stream
        segment-index gather through the golden table computes every
        output at once, and event counters are charged in closed form.
        Both are exact — the outputs are bit-identical to the beat-level
        simulation (the property the functional-verification tests pin
        down) and the counter totals equal what per-cycle simulation
        accumulates, including the address-dependent ``tag_match`` count.
        The returned ``counters`` on this path are the very totals the
        stream charged to the unit's component bags, built once per
        launch rather than diffed from two lifetime snapshots.
        Pass ``simulate=True`` to drive every batch through the
        cycle-level NoC model instead (the reference path, and the one
        the fault-injection machinery extends); its ``counters`` are the
        lifetime diff across the simulation.
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 3:
            raise ValueError(
                f"expected (n_batches, n_routers, n_neurons), got shape {xs.shape}"
            )
        n_batches = xs.shape[0]
        if n_batches < 1:
            raise ValueError("need at least one batch")
        expected = (self.n_routers, self.neurons_per_router)
        if xs.shape[1:] != expected:
            raise ValueError(
                f"expected batch shape {expected}, got {xs.shape[1:]}"
            )
        if simulate:
            before = self._lifetime_counters()
            outputs = np.zeros_like(xs)
            for t in range(n_batches):
                outputs[t] = self.approximate(xs[t]).outputs
            # Re-derive the addresses through the pure golden table:
            # bit-identical to what the comparators computed beat by
            # beat, with no extra counter charges (the simulation above
            # already accounted every comparator_eval).
            addresses = self.table.segment_index(xs)
            counters = self._lifetime_counters().diff(before)
        else:
            outputs, addresses, counters = self._stream_vectorized(xs)
        latency = self.schedule.total_latency_pe_cycles
        return StreamResult(
            outputs=outputs,
            total_pe_cycles=n_batches - 1 + latency,
            batch_latency_pe_cycles=latency,
            counters=counters,
            addresses=addresses,
        )

    def _stream_vectorized(
        self, xs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, EventCounters]:
        """Whole-stream gather with closed-form event accounting.

        Per lookup, a lane whose address selects beat ``b`` performs one
        tag comparison on each of beats ``0..b`` (it stays pending until
        its beat arrives, and beats arrive in tag order), so its exact
        ``tag_match`` contribution is ``(address & (n_beats - 1)) + 1``.
        Everything else is address-independent per broadcast.

        The gather/MAC itself and the tag-match reduction run on the
        configured :class:`~repro.core.kernels.KernelBackend`; counter
        charging stays here with the unit that owns the counters
        (NV006/NV009) — backends are pure array transformers.  Returns
        ``(outputs, addresses, counters)``, where ``counters`` totals
        every event charged to the component bags by this launch.
        """
        n_batches, n_routers, n_neurons = xs.shape
        outputs, idx = self.backend.table_gather_mac(self.table, xs)
        per_router = n_batches * n_neurons
        for bank in self.comparators:
            bank.counters.add("comparator_eval", per_router)
        for mac in self.macs:
            mac.counters.add("mac_op", per_router)
        tag_matches = np.asarray(
            self.backend.tag_match_totals(idx, self.schedule.n_beats)
        )
        pair_captures = np.full(n_routers, per_router, dtype=np.int64)
        counters = self.noc.charge_broadcasts(
            n_batches, tag_matches, pair_captures
        )
        lanes = n_routers * per_router
        counters.counts["comparator_eval"] = lanes
        counters.counts["mac_op"] = lanes
        return outputs, idx, counters

    def golden_reference(self, x: np.ndarray) -> np.ndarray:
        """The bit-exact functional model the hardware must match."""
        x = self._check_input(x)
        return self.table.evaluate(x)

    def approximate_with_fault(
        self, x: np.ndarray, fault: "LinkFault"
    ) -> "FaultedResult":
        """One batch with a single-bit link fault injected.

        ``fault`` is a :class:`repro.noc.faults.LinkFault`.  Returns the
        (possibly corrupted) outputs plus the mask of lanes whose tag
        match fired; uncaptured lanes carry a zero coefficient (slope 0,
        bias 0 -> output 0), the natural hardware default.
        """
        x = self._check_input(x)
        addresses = np.stack(
            [
                self.comparators[r].lookup_addresses(x[r])
                for r in range(self.n_routers)
            ]
        )
        result = self.noc.broadcast(self.beats, addresses, fault=fault)
        coeff_scale = self.table.coeff_format.scale
        xq = self.table.input_format.quantize(
            self.table.quantized_pwl.clamp(x)
        )
        outputs = np.stack(
            [
                self.macs[r].approximate(
                    result.slopes_raw[r] * coeff_scale,
                    xq[r],
                    result.biases_raw[r] * coeff_scale,
                )
                for r in range(self.n_routers)
            ]
        )
        captured = (
            result.captured
            if result.captured is not None
            else np.ones_like(outputs, dtype=bool)
        )
        golden = self.table.evaluate(x)
        corrupted = (outputs != golden) | ~captured
        return FaultedResult(
            outputs=outputs,
            captured=captured,
            corrupted_lanes=corrupted,
            golden=golden,
        )

    def _lifetime_counters(self) -> EventCounters:
        merged = self.noc.merged_counters()
        for bank in self.comparators:
            merged = merged.merge(bank.counters)
        for mac in self.macs:
            merged = merged.merge(mac.counters)
        return merged
