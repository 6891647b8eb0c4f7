"""The NOVA line NoC: cycle-accurate broadcast of slope/bias beats.

One *broadcast* distributes a full PWL table (``n_beats`` beats) from the
head of the line to every router.  Beats launch back-to-back, one per NoC
cycle; each beat ripples through up to ``max_hops_per_cycle`` routers per
cycle via the clockless repeaters and is latched at segment boundaries
when the line is longer than that (multi-cycle traversal).

Event accounting per beat:

* ``beat_launch`` — once, at injection;
* ``wire_hop`` — one per router traversed (257 bits over ``hop_mm`` of
  repeated wire each);
* ``register_write`` — one per buffering router crossed (the segment
  boundary latch); single-cycle configurations have none.

Tag-match and pair-capture events are counted inside
:class:`~repro.core.router.NovaRouter`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.approx.quantize import LinkBeat
from repro.core.mapper import BroadcastSchedule
from repro.core.router import NovaRouter
from repro.noc.stats import EventCounters
from repro.noc.topology import LineTopology

__all__ = ["NovaNoc", "BroadcastResult"]


@dataclass(frozen=True)
class BroadcastResult:
    """Outcome of one table broadcast across the line.

    ``slopes_raw`` / ``biases_raw`` have shape ``(n_routers, n_neurons)``
    and hold the raw fixed-point codes each router captured.
    ``noc_cycles`` is the number of NoC cycles from first launch until the
    tail router captured the final beat.  ``captured`` is True where the
    lane's tag match fired; it is all-True except under an injected tag
    fault (lanes whose beat never matched).
    """

    slopes_raw: np.ndarray
    biases_raw: np.ndarray
    noc_cycles: int
    counters: EventCounters
    captured: np.ndarray | None = None

    @property
    def all_captured(self) -> bool:
        """True when every lane captured a pair."""
        return self.captured is None or bool(np.all(self.captured))


class NovaNoc:
    """A line of :class:`NovaRouter` driven by a broadcast schedule."""

    def __init__(
        self,
        topology: LineTopology,
        schedule: BroadcastSchedule,
        neurons_per_router: int,
    ) -> None:
        if topology.n_routers != schedule.n_routers:
            raise ValueError(
                f"topology has {topology.n_routers} routers but the schedule "
                f"was built for {schedule.n_routers}"
            )
        self.topology = topology
        self.schedule = schedule
        self.neurons_per_router = neurons_per_router
        self.routers = [
            NovaRouter(router_id=i, n_neurons=neurons_per_router)
            for i in range(topology.n_routers)
        ]
        buffering = set(schedule.buffering_routers)
        for router in self.routers:
            router.set_buffering(router.router_id in buffering)
        self.counters = EventCounters()
        self._next_broadcast_id = 0

    @property
    def n_routers(self) -> int:
        """Routers on the line."""
        return len(self.routers)

    def arrival_cycle(self, router_id: int) -> int:
        """NoC cycles after launch at which a beat reaches ``router_id``.

        0 for every router within the first repeater segment (single-cycle
        multi-hop), incrementing at each buffering router.
        """
        if not 0 <= router_id < self.n_routers:
            raise ValueError(
                f"router_id must be in [0, {self.n_routers}), got {router_id}"
            )
        return router_id // self.schedule.max_hops_per_cycle

    def broadcast(
        self,
        beats: list[LinkBeat],
        addresses: np.ndarray,
        fault: "LinkFault | None" = None,
    ) -> BroadcastResult:
        """Run one full table broadcast, cycle by cycle.

        Parameters
        ----------
        beats:
            The serialised table (from
            :func:`repro.approx.quantize.pack_beats`); its length must
            equal the schedule's beat count.
        addresses:
            Lookup addresses, shape ``(n_routers, n_neurons)``.
        fault:
            Optional single-bit link fault
            (:class:`repro.noc.faults.LinkFault`): routers at or past
            ``fault.from_router`` observe the corrupted image of beat
            ``fault.beat_index``.
        """
        schedule = self.schedule
        if len(beats) != schedule.n_beats:
            raise ValueError(
                f"expected {schedule.n_beats} beats, got {len(beats)}"
            )
        addresses = np.asarray(addresses, dtype=np.int64)
        expected_shape = (self.n_routers, self.neurons_per_router)
        if addresses.shape != expected_shape:
            raise ValueError(
                f"addresses must have shape {expected_shape}, got {addresses.shape}"
            )

        before = self.merged_counters()
        broadcast_id = self._next_broadcast_id
        self._next_broadcast_id += 1
        for router in self.routers:
            router.begin_lookup(
                broadcast_id, addresses[router.router_id], schedule.n_beats
            )

        # Pre-compute the corrupted image a fault victim observes.
        faulted_beat = None
        if fault is not None:
            from repro.noc.faults import apply_fault

            if not 0 <= fault.beat_index < len(beats):
                raise ValueError(
                    f"fault targets beat {fault.beat_index} but the "
                    f"broadcast has {len(beats)} beats"
                )
            faulted_beat = apply_fault(beats[fault.beat_index], fault)

        # Beat b launches at NoC cycle b and reaches router r at cycle
        # b + arrival_cycle(r).  Simulate cycle by cycle so multi-cycle
        # traversals interleave exactly as the hardware would.
        last_cycle = schedule.n_beats - 1 + self.arrival_cycle(self.n_routers - 1)
        buffering = set(schedule.buffering_routers)
        for cycle in range(last_cycle + 1):
            for beat_index, beat in enumerate(beats):
                if cycle < beat_index:
                    continue
                progress = cycle - beat_index  # segments completed so far
                start = progress * schedule.max_hops_per_cycle
                if start >= self.n_routers:
                    continue  # beat already retired
                end = min(start + schedule.max_hops_per_cycle, self.n_routers)
                if progress == 0:
                    self.counters.add("beat_launch")
                for router_id in range(start, end):
                    observed = beat
                    if (
                        faulted_beat is not None
                        and beat_index == fault.beat_index
                        and router_id >= fault.from_router
                    ):
                        observed = faulted_beat
                    self.routers[router_id].observe_beat(broadcast_id, observed)
                self.counters.add("wire_hop", end - start)
                if end < self.n_routers and end in buffering:
                    self.counters.add("register_write")

        slopes = np.zeros(expected_shape, dtype=np.int64)
        biases = np.zeros(expected_shape, dtype=np.int64)
        captured = None
        if fault is None:
            for router in self.routers:
                if not router.lookup_complete(broadcast_id):
                    raise RuntimeError(
                        f"router {router.router_id} did not complete lookup "
                        f"{broadcast_id}; broadcast schedule is inconsistent"
                    )
                s, b = router.pop_pairs(broadcast_id)
                slopes[router.router_id] = s
                biases[router.router_id] = b
        else:
            # Under an injected fault, lanes whose match never fired are
            # retired incomplete and reported through the captured mask.
            captured = np.zeros(expected_shape, dtype=bool)
            for router in self.routers:
                s, b, mask = router.pop_pairs_forced(broadcast_id)
                slopes[router.router_id] = s
                biases[router.router_id] = b
                captured[router.router_id] = mask

        return BroadcastResult(
            slopes_raw=slopes,
            biases_raw=biases,
            noc_cycles=last_cycle + 1,
            counters=self.merged_counters().diff(before),
            captured=captured,
        )

    def charge_broadcasts(
        self,
        n_broadcasts: int,
        tag_matches: np.ndarray,
        pair_captures: np.ndarray,
    ) -> EventCounters:
        """Closed-form event accounting for fault-free broadcasts.

        The vectorised stream path computes outputs by whole-batch table
        gather instead of driving :meth:`broadcast` per PE cycle, but the
        energy model still needs the events the hardware would have
        produced.  For a fault-free broadcast those are fully determined
        by the schedule (``beat_launch``, ``wire_hop``, ``register_write``
        per broadcast) and by the per-router address mix (``tag_match``,
        ``pair_capture``), so this method charges them in O(n_routers)
        instead of O(cycles).  Totals are *exactly* what ``n_broadcasts``
        calls of :meth:`broadcast` would have accumulated.

        Parameters
        ----------
        n_broadcasts:
            Number of table broadcasts being accounted (one per PE cycle
            of the stream).
        tag_matches, pair_captures:
            Per-router event totals across all ``n_broadcasts`` lookups,
            shape ``(n_routers,)``.

        Returns the non-zero totals charged (NoC plus every router),
        equal to the :meth:`merged_counters` delta across the call.
        """
        if n_broadcasts < 0:
            raise ValueError(f"n_broadcasts must be >= 0, got {n_broadcasts}")
        tag_matches = np.asarray(tag_matches, dtype=np.int64)
        pair_captures = np.asarray(pair_captures, dtype=np.int64)
        for arr, name in ((tag_matches, "tag_matches"),
                          (pair_captures, "pair_captures")):
            if arr.shape != (self.n_routers,):
                raise ValueError(
                    f"{name} must have shape ({self.n_routers},), got {arr.shape}"
                )
        charged = EventCounters()
        for event, count in self.schedule.broadcast_event_counts(
            n_broadcasts
        ).items():
            if count:
                self.counters.add(event, count)
                charged.counts[event] = count
        for router in self.routers:
            router.counters.add("tag_match", int(tag_matches[router.router_id]))
            router.counters.add(
                "pair_capture", int(pair_captures[router.router_id])
            )
        for event, totals in (("tag_match", tag_matches),
                              ("pair_capture", pair_captures)):
            total = int(totals.sum())
            if total:
                charged.counts[event] = total
        self._next_broadcast_id += n_broadcasts
        return charged

    def merged_counters(self) -> EventCounters:
        """Lifetime counters: NoC-level events plus every router's."""
        merged = self.counters.snapshot()
        for router in self.routers:
            merged = merged.merge(router.counters)
        return merged
