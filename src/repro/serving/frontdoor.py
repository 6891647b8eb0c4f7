"""The async serving front door: request router over the batch scheduler.

:class:`FrontDoor` is the boundary between *streaming requests* —
each carrying an arrival time, priority, tenant and optional deadline
— and the iteration-level scheduler
(:class:`~repro.core.decode.ContinuousBatchScheduler`).  Requests are
submitted (or handed over as a prebuilt trace), ordered on the
**virtual clock**, and served to completion under a pluggable
:class:`~repro.serving.policies.SchedulingPolicy`; the outcome is a
JSON-serializable :class:`~repro.serving.metrics.ServingReport`.

Time is virtual throughout: the clock starts at cycle 0 and advances
by the packed vector cycles each fused scheduler step actually costs
(idle gaps jump to the next arrival).  Nothing reads the host clock —
two runs of the same trace are byte-identical, and novalint NV008
holds for this package.  And because policies only reorder *when*
work happens, every request's outputs, cycles and counters stay
bit-identical to solo
:meth:`~repro.core.decode.NovaDecodeEngine.generate` under every
policy — the serving benchmark gate re-checks this before any SLO
number is reported.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.decode import (
    ContinuousBatchResult,
    ContinuousBatchScheduler,
    DecodeRequest,
    NovaDecodeEngine,
    SequenceMeta,
)
from repro.serving.metrics import ServingReport, build_report
from repro.serving.policies import SchedulingPolicy, build_policy

if TYPE_CHECKING:
    from repro.core.speculative import DraftModel

__all__ = ["FrontDoor", "ServingRequest"]


@dataclass(frozen=True)
class ServingRequest:
    """One streaming request at the front door.

    ``request_id`` is the submission identity the report keys on —
    the front door assigns it on :meth:`FrontDoor.submit` (traces
    built by :mod:`repro.serving.arrivals` number themselves).
    ``arrival``/``deadline`` are virtual cycles; validation matches
    :class:`~repro.core.decode.SequenceMeta` (finite, non-negative
    arrival; a non-NaN deadline strictly after it).
    """

    request: DecodeRequest
    arrival: float = 0.0
    priority: int = 0
    tenant: str = "default"
    deadline: float | None = None
    request_id: int = 0

    def __post_init__(self) -> None:
        self.meta()  # SequenceMeta validates arrival/deadline.

    def meta(self) -> SequenceMeta:
        """This request's scheduler-facing metadata."""
        return SequenceMeta(
            arrival=self.arrival,
            priority=self.priority,
            tenant=self.tenant,
            deadline=self.deadline,
        )


@dataclass
class FrontDoor:
    """Routes streaming requests into one continuous-batching run.

    Construction fixes the engine, the scheduling ``policy`` (a name
    from :data:`~repro.serving.policies.POLICIES` or a policy object)
    and the scheduler's capacity/memory/speculation knobs; each
    :meth:`serve` call then builds a *fresh*
    :class:`~repro.core.decode.ContinuousBatchScheduler` so pool
    statistics and counters are per run.

    Requests enter either through :meth:`submit` (queued until the
    next :meth:`serve`) or as a prebuilt trace passed to
    :meth:`serve` directly.  The front door orders the batch by
    arrival (stable, so simultaneous arrivals keep submission order —
    exactly the queue order :class:`~repro.serving.policies.FCFS`
    pins), attaches per-request
    :class:`~repro.core.decode.SequenceMeta`, and folds the scheduler
    result into a :class:`~repro.serving.metrics.ServingReport` whose
    requests are back in submission-id order.

    After a serve, :attr:`last_result` holds the raw scheduler result
    and :meth:`last_results` maps per-request outputs back to
    submission ids — the hook the exactness checks use.
    """

    engine: NovaDecodeEngine
    policy: str | SchedulingPolicy = "fcfs"
    max_active: int = 8
    paged: bool = False
    block_size: int | None = None
    pool_blocks: int | None = None
    pool_bytes: int | None = None
    prefix_caching: bool | None = None
    speculative: bool = False
    spec_k: int | None = None
    spec_tree: str | None = None
    draft_kind: str | None = None
    draft_factory: "Callable[[], DraftModel] | None" = None
    _pending: list[ServingRequest] = field(default_factory=list, repr=False)
    last_result: ContinuousBatchResult | None = field(
        default=None, repr=False
    )
    last_trace: tuple[ServingRequest, ...] = field(
        default=(), repr=False
    )

    def __post_init__(self) -> None:
        self.policy = build_policy(self.policy)

    @property
    def policy_name(self) -> str:
        """The resolved policy's registry name."""
        return build_policy(self.policy).name

    def submit(
        self,
        request: DecodeRequest,
        *,
        arrival: float = 0.0,
        priority: int = 0,
        tenant: str = "default",
        deadline: float | None = None,
    ) -> ServingRequest:
        """Queue one streaming request for the next :meth:`serve`.

        Returns the :class:`ServingRequest` envelope (its
        ``request_id`` is the submission index — the key the report
        uses).
        """
        serving = ServingRequest(
            request=request,
            arrival=arrival,
            priority=priority,
            tenant=tenant,
            deadline=deadline,
            request_id=len(self._pending),
        )
        self._pending.append(serving)
        return serving

    @property
    def pending(self) -> tuple[ServingRequest, ...]:
        """Requests queued for the next :meth:`serve`."""
        return tuple(self._pending)

    def serve(
        self, trace: Sequence[ServingRequest] | None = None
    ) -> ServingReport:
        """Serve a batch of streaming requests to completion.

        With ``trace`` the given requests are served (their
        ``request_id`` must be unique — arrivals-built traces are);
        without it the :meth:`submit` queue is drained.  The batch is
        stably ordered by arrival, run through a fresh scheduler under
        this front door's policy, and folded into a
        :class:`~repro.serving.metrics.ServingReport`.
        """
        if trace is None:
            batch = tuple(self._pending)
            self._pending = []
        else:
            batch = tuple(trace)
        if not batch:
            raise ValueError("no requests to serve")
        ids = [serving.request_id for serving in batch]
        if len(set(ids)) != len(ids):
            raise ValueError("trace request_ids must be unique")
        ordered = sorted(batch, key=lambda serving: serving.arrival)
        scheduler = ContinuousBatchScheduler(
            self.engine,
            max_active=self.max_active,
            paged=self.paged,
            block_size=self.block_size,
            pool_blocks=self.pool_blocks,
            pool_bytes=self.pool_bytes,
            prefix_caching=self.prefix_caching,
            speculative=self.speculative,
            spec_k=self.spec_k,
            spec_tree=self.spec_tree,
            draft_kind=self.draft_kind,
            draft_factory=self.draft_factory,
            policy=build_policy(self.policy),
        )
        result = scheduler.run(
            [serving.request for serving in ordered],
            meta=[serving.meta() for serving in ordered],
        )
        self.last_result = result
        self.last_trace = tuple(ordered)
        return build_report(ordered, result, self.policy_name)

    def last_results(self) -> dict[int, object]:
        """Per-request outputs of the last serve, keyed by request id.

        Values are the scheduler's per-request results
        (:class:`~repro.core.decode.GenerateResult` or
        :class:`~repro.core.speculative.SpeculativeGenerateResult`) —
        each bit-identical to solo ``generate`` of the same request.
        """
        if self.last_result is None:
            raise RuntimeError("no serve has completed yet")
        return {
            serving.request_id: result
            for serving, result in zip(
                self.last_trace, self.last_result.results
            )
        }
