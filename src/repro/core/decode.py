"""Autoregressive decode on the NOVA overlay: KV cache + continuous batching.

The paper motivates NOVA with attention-heavy inference, and the serving
regime that dominates such traffic is not full-prefill attention but
token-by-token *decode* over a KV cache: each new token attends to every
cached key/value pair, so the softmax runs over exactly one row per head
per step.  This module opens that workload on the same cycle/event-exact
hardware model the prefill engines use:

* :class:`KVCache` — a per-request key/value cache with append, optional
  sliding-window eviction, and page recycling (``reset``).
* :class:`NovaDecodeEngine` — incremental single-token attention
  (``decode_step``) plus a causal packed prefill (``prefill``) and a
  self-feeding ``generate`` loop, built directly on top of
  :class:`~repro.core.batched_attention.BatchedNovaAttentionEngine`'s
  shared-table machinery: one physical
  :class:`~repro.core.vector_unit.NovaVectorUnit` serves the softmax
  exponential and the normaliser reciprocal by table retargeting, and
  per-request costs come from the same closed-form sequential-equivalent
  accounting the batched engine uses.
* :class:`ContinuousBatchScheduler` — Orca-style continuous batching:
  every scheduler step packs the prefill rows of newly admitted requests
  *and* the decode rows of in-flight requests into a single lane stream
  through the shared overlay; requests join and leave the batch between
  steps.  With ``speculative=True`` each in-flight decode row becomes a
  whole draft-and-verify pass (:mod:`repro.core.speculative`): drafted
  tokens ride the same fused streams and rejected suffixes roll back by
  cache truncation, with results still bit-identical per request.  Two memory models back it: contiguous per-request pages
  recycled through a best-fit pool (any page with ``capacity >=
  requested`` serves), or — with ``paged=True`` — a vLLM-style
  :class:`~repro.core.paging.BlockPool` of fixed-size blocks shared by
  every request, with lazy block allocation, first-block-fit admission
  and a deferral/preemption policy under memory pressure.

Bit-exactness contract
----------------------
Token-by-token decode, the packed causal prefill and the continuous
batcher all produce **bit-identical** probabilities and outputs for the
same causal sequence.  This holds by construction, for the same reason
the batched engine matches the sequential engine: there is a single copy
of every numerically sensitive step.  Per token, every path runs

1. :func:`project_token` — the token's q/k/v projections as one
   vector-matrix product per row.  The prefill projects its whole
   prompt in one call on an ``(n, hidden)`` stack; a decode step is the
   same call with ``n = 1``.  Both run ``np.matmul(x[:, None, :], w)``,
   a stack of singleton-row products that numpy executes as the same
   per-row GEMV as ``x_t @ w`` (never an ``(n, hidden) @ w`` GEMM,
   whose blocked kernel rounds differently),
2. :func:`scores_for_query` — scaled dot-products against the cached
   keys (every path presents each head's keys as an ``(L, head_dim)``
   matrix with row stride ``head_dim``, hence the same BLAS call),
3. the hardware exponential (elementwise through the shared table — the
   output of each query is independent of how queries are packed into
   lane batches),
4. :func:`~repro.core.attention.softmax_reduction` /
   :func:`~repro.core.attention.assemble_probabilities` on the token's
   own ``(heads, kv_len)`` row (batched only with rows of the same
   length — never zero-padded to a common one), and
5. :func:`context_for_query` — the context GEMV over the token's
   ``(heads, kv_len, head_dim)`` values, again with row stride
   ``head_dim`` per head: a decode step reads a snapshot of its cache,
   while the prefill reads views of its own projected rows (the rows
   the cache stores are float64 copies of exactly those rows, and
   adopted prefix blocks hold bit-identical ones by content key).

Cycle/counter accounting mirrors the batched engine: each
prefill/decode *job* reports the sequential-equivalent cost a dedicated
engine invocation would charge (closed form, including tail padding and
the address-dependent ``tag_match`` count), while batch-level results
additionally report what the shared overlay actually spent — the gap is
the continuous-batching win.

Tables are compiled once at engine construction through the process-wide
:mod:`repro.approx.table_cache`; decode steps only *retarget* the unit
(free on NOVA — the table lives on the wires), so running any number of
steps performs zero additional table compilations
(:func:`repro.approx.table_cache.table_cache_info` is pinned flat across
steps by the test suite).
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, TypeAlias

import numpy as np

from repro.approx.quantize import beat_of_address
from repro.core.attention import (
    assemble_probabilities,
    shift_scores,
    softmax_reduction,
)
from repro.core.batched_attention import (
    AttentionRequest,
    BatchedNovaAttentionEngine,
)
from repro.noc.stats import EventCounters

if TYPE_CHECKING:
    from repro.core.paging import BlockPool, PagedKVCache
    from repro.core.speculative import (
        DraftModel,
        SpeculativeDecodeEngine,
        SpeculativeGenerateResult,
        VerifyPassResult,
        _SpecPass,
    )
    from repro.serving.policies import SchedulingPolicy

    #: The cache duck type every decode path accepts: the contiguous
    #: per-request page or the block-pool-backed paged cache.  Both
    #: expose the same append/evict/truncate/snapshot surface.
    KVCacheLike: TypeAlias = "KVCache | PagedKVCache"

__all__ = [
    "KVCache",
    "KVCacheOverflow",
    "DecodeRequest",
    "DecodeState",
    "DecodeStepResult",
    "CausalPrefillResult",
    "DecodeResult",
    "GenerateResult",
    "NovaDecodeEngine",
    "ContinuousBatchScheduler",
    "ContinuousBatchResult",
    "SequenceMeta",
    "project_token",
    "scores_for_query",
    "context_for_query",
]


@dataclass(frozen=True)
class SequenceMeta:
    """Serving metadata for one request in a continuously batched run.

    The front door (:mod:`repro.serving`) attaches one of these per
    request; plain callers never see it (the scheduler defaults every
    field).  All times are **virtual cycles** on the scheduler's
    deterministic clock — the clock starts at 0, advances by the packed
    vector cycles of each executed step, and jumps forward over idle
    gaps to the next arrival; no wall-clock is ever read (NV008).

    * ``arrival`` — the cycle the request becomes visible to admission
      (a request cannot be admitted before it arrives),
    * ``priority`` — larger is more urgent (policy-interpreted),
    * ``tenant`` — fairness/rate-limit bucket,
    * ``deadline`` — absolute virtual-cycle deadline for the *finish*
      of the request (policy- and metrics-interpreted), or ``None``.

    ``arrival`` must be finite and ``deadline`` must not be NaN (an
    infinite deadline never expires); either raises ``ValueError``
    naming the field.
    """

    arrival: float = 0.0
    priority: int = 0
    tenant: str = "default"
    deadline: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival):
            raise ValueError(
                f"arrival must be a finite virtual cycle, got {self.arrival}"
            )
        if self.deadline is not None and math.isnan(self.deadline):
            raise ValueError("deadline must be a virtual cycle, got nan")
        if self.arrival < 0.0:
            raise ValueError(f"arrival must be >= 0, got {self.arrival}")
        if self.deadline is not None and self.deadline <= self.arrival:
            raise ValueError(
                f"deadline ({self.deadline}) must fall after arrival "
                f"({self.arrival})"
            )


class KVCacheOverflow(RuntimeError):
    """Appending to a full :class:`KVCache` that has no eviction window."""


class KVCache:
    """Per-request key/value cache for autoregressive decode.

    Storage is preallocated at ``(n_heads, capacity, head_dim)`` so an
    append is a row write, never a reallocation — the software analogue
    of a fixed cache page.  ``window=None`` (the default) makes the
    capacity hard: appending to a full cache raises
    :class:`KVCacheOverflow`.  ``window=w`` caps the cache at the last
    ``w`` tokens instead (sliding-window attention): the oldest entry is
    evicted to make room and ``start_position`` advances, so the cache
    always holds positions ``[start_position, start_position + length)``.

    ``reset()`` returns the page to its empty state without touching the
    allocation, which is what lets
    :class:`ContinuousBatchScheduler` recycle pages across requests.
    """

    def __init__(
        self,
        n_heads: int,
        head_dim: int,
        capacity: int,
        window: int | None = None,
    ) -> None:
        if n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {n_heads}")
        if head_dim < 1:
            raise ValueError(f"head_dim must be >= 1, got {head_dim}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if window is not None:
            if window < 1:
                raise ValueError(f"window must be >= 1, got {window}")
            if window > capacity:
                raise ValueError(
                    f"window ({window}) cannot exceed capacity ({capacity})"
                )
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.capacity = capacity
        self.window = window
        self._k = np.zeros((n_heads, capacity, head_dim))
        self._v = np.zeros((n_heads, capacity, head_dim))
        self.length = 0
        self.start_position = 0
        self.evictions = 0

    @property
    def limit(self) -> int:
        """Maximum entries held at once (``window`` if set, else capacity)."""
        return self.capacity if self.window is None else self.window

    @property
    def keys(self) -> np.ndarray:
        """View of the valid cached keys, ``(n_heads, length, head_dim)``."""
        return self._k[:, : self.length]

    @property
    def values(self) -> np.ndarray:
        """View of the valid cached values, ``(n_heads, length, head_dim)``."""
        return self._v[:, : self.length]

    def append(self, k_t: np.ndarray, v_t: np.ndarray) -> None:
        """Append one token's per-head key/value rows.

        ``k_t``/``v_t`` have shape ``(n_heads, head_dim)``.  A full
        windowed cache evicts its oldest entry first; a full hard-capacity
        cache raises :class:`KVCacheOverflow`.  Atomic: a raising
        append leaves the cache byte-identical (no partial evict, no
        length change), so callers can defer the token and retry.
        """
        expected = (self.n_heads, self.head_dim)
        k_t = np.asarray(k_t, dtype=np.float64)
        v_t = np.asarray(v_t, dtype=np.float64)
        if k_t.shape != expected or v_t.shape != expected:
            raise ValueError(
                f"expected per-token k/v of shape {expected}, got "
                f"{k_t.shape} / {v_t.shape}"
            )
        if self.length == self.limit:
            if self.window is None:
                raise KVCacheOverflow(
                    f"KV cache full at capacity {self.capacity} "
                    f"(position {self.start_position + self.length}); "
                    "set a window for sliding eviction or raise "
                    "max_seq_len"
                )
            self.evict(1)
        self._k[:, self.length] = k_t
        self._v[:, self.length] = v_t
        self.length += 1

    def evict(self, n: int) -> None:
        """Drop the ``n`` oldest cached tokens (advances ``start_position``).

        Atomic: an out-of-range ``n`` raises before any state changes.
        """
        if not 0 <= n <= self.length:
            raise ValueError(
                f"cannot evict {n} of {self.length} cached tokens"
            )
        if n == 0:
            return
        keep = self.length - n
        self._k[:, :keep] = self._k[:, n : self.length]
        self._v[:, :keep] = self._v[:, n : self.length]
        self.length = keep
        self.start_position += n
        self.evictions += n

    def truncate(self, n: int) -> None:
        """Drop the ``n`` *newest* cached tokens (speculative rollback).

        The tail-side complement of :meth:`evict`: rolling back
        rejected draft tokens just shortens the live span
        (``start_position`` is untouched) — the next append overwrites
        the rolled-back rows.  Atomic: an out-of-range ``n`` raises
        before the length changes.
        """
        if not 0 <= n <= self.length:
            raise ValueError(
                f"cannot truncate {n} of {self.length} cached tokens"
            )
        self.length -= n

    def values_snapshot(self, kv_len: int) -> np.ndarray:
        """Contiguous copy of the first ``kv_len`` cached values.

        The deferred-snapshot hook shared with
        :class:`~repro.core.paging.PagedKVCache` (which gathers through
        its block table): both return byte-identical
        ``(n_heads, kv_len, head_dim)`` arrays for the same appended
        tokens, which is what keeps the paged and contiguous decode
        paths bit-exact.
        """
        return self._v[:, :kv_len].copy()

    def fork(self) -> "KVCache":
        """An independent private copy of this cache's live state.

        The contiguous counterpart of
        :meth:`~repro.core.paging.PagedKVCache.fork`: the twin presents
        the same live span and history but owns its own storage, so
        appends on either side never show through.  (No blocks to
        share here — the contiguous layout pays a real copy where the
        paged layout pays refcounts; tree speculation forks at most a
        handful of branch caches per pass.)
        """
        twin = KVCache(
            self.n_heads, self.head_dim, self.capacity, window=self.window
        )
        twin._adopt_span(self)
        return twin

    def _adopt_span(self, source: "KVCache") -> None:
        """Copy ``source``'s live rows, span and eviction history into
        this cache — :meth:`fork`'s accounting step, on the owner so
        the eviction counter is only ever written by its own object."""
        self._k[:, : source.length] = source._k[:, : source.length]
        self._v[:, : source.length] = source._v[:, : source.length]
        self.length = source.length
        self.start_position = source.start_position
        self.evictions = source.evictions

    def reset(self) -> None:
        """Empty the cache in place (page recycling; allocation kept)."""
        self.length = 0
        self.start_position = 0
        self.evictions = 0

    @property
    def fragmentation_slots(self) -> int:
        """Reserved-but-unused token slots (the contiguous layout's
        stranded memory: a whole worst-case page minus the live span)."""
        return self.capacity - self.length

    def can_serve(self, n_heads: int, head_dim: int, capacity: int) -> bool:
        """Whether this page can hold a request of the given geometry.

        Capacity is a *lower bound*, not an exact match: a recycled
        2048-token page serves a 512-token request fine (the request's
        ``window``/overflow limits are enforced logically, against its
        own capacity, by the engine).
        """
        return (
            self.n_heads == n_heads
            and self.head_dim == head_dim
            and self.capacity >= capacity
        )

    def __repr__(self) -> str:
        return (
            f"KVCache({self.n_heads} heads x {self.capacity} x "
            f"{self.head_dim}, length={self.length}"
            + (f", window={self.window}" if self.window is not None else "")
            + ")"
        )


@dataclass(frozen=True)
class DecodeRequest(AttentionRequest):
    """One autoregressive decode request: a prompt plus a token budget.

    Extends :class:`~repro.core.batched_attention.AttentionRequest` (its
    ``x`` is the prompt embedding matrix) with the decode contract:

    * ``max_new_tokens`` — tokens to generate after the prompt,
    * ``max_seq_len`` — KV-cache capacity (defaults to
      ``prompt + max_new_tokens``); a request that cannot fit raises at
      :meth:`NovaDecodeEngine.start`,
    * ``window`` — optional sliding-window attention span (evicts the
      oldest cache entry instead of overflowing),
    * ``causal`` — decode is only defined for causal attention; the
      engines reject ``causal=False`` requests.

    The three budgets must be integers (numpy integers included): a
    ``bool`` or a non-integral value raises ``TypeError`` naming the
    field.
    """

    max_new_tokens: int = 0
    max_seq_len: int | None = None
    window: int | None = None
    causal: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("max_new_tokens", "max_seq_len", "window"):
            value = getattr(self, name)
            if value is None and name != "max_new_tokens":
                continue
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral
            ):
                raise TypeError(
                    f"{name} must be an integer, got "
                    f"{type(value).__name__} {value!r}"
                )
        if self.max_new_tokens < 0:
            raise ValueError(
                f"max_new_tokens must be >= 0, got {self.max_new_tokens}"
            )
        if self.max_seq_len is not None and self.max_seq_len < 1:
            raise ValueError(
                f"max_seq_len must be >= 1, got {self.max_seq_len}"
            )
        if self.window is not None:
            if self.window < 1:
                raise ValueError(f"window must be >= 1, got {self.window}")
            if self.max_seq_len is not None and self.window > self.max_seq_len:
                raise ValueError(
                    f"window ({self.window}) cannot exceed max_seq_len "
                    f"({self.max_seq_len})"
                )

    @property
    def head_dim(self) -> int:
        """Per-head projection width."""
        return self.hidden // self.n_heads

    @property
    def total_tokens(self) -> int:
        """Prompt tokens plus the generation budget."""
        return self.seq + self.max_new_tokens

    @property
    def capacity(self) -> int:
        """KV-cache capacity this request needs."""
        if self.window is not None:
            return self.window
        if self.max_seq_len is not None:
            return self.max_seq_len
        return self.total_tokens


# ----------------------------------------------------------------------
# Per-token host numerics shared by every decode path.
#
# As in repro.core.attention: the decode-vs-prefill (and one-at-a-time
# vs continuously-batched) bit-exactness contract holds by construction
# only because there is a single copy of each step, and every path hands
# it operands of the same per-row layout.  Two forms of batching keep
# that layout and are allowed: a stack of singleton-row matmuls
# (``np.matmul(x[:, None, :], w)`` runs one GEMV per row, like
# ``x_t @ w``), and strided views whose per-head matrices have the same
# row stride as a contiguous snapshot.  Two are not: an
# ``(n, hidden) @ w`` GEMM, and zero-padding ragged rows to one length;
# both change the last bits.
# ----------------------------------------------------------------------


def project_token(
    x: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    n_heads: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """q/k/v projections of one token or a stack of tokens, split by head.

    ``x`` is one token ``(hidden,)`` or a stack ``(n, hidden)``; returns
    ``(q, k, v)`` each of shape ``(n_heads, head_dim)`` or
    ``(n, n_heads, head_dim)``.  Every row is its own vector-matrix
    product (``np.matmul`` over singleton rows), so a stacked call is
    bit-identical to ``n`` single-token calls: the causal prefill
    projects its prompt in one call and a decode step projects one
    token, through the same arithmetic.
    """
    hidden = x.shape[-1]
    rows = x.reshape(-1, 1, hidden)
    shape = (*x.shape[:-1], n_heads, hidden // n_heads)
    q = np.matmul(rows, wq).reshape(shape)
    k = np.matmul(rows, wk).reshape(shape)
    v = np.matmul(rows, wv).reshape(shape)
    return q, k, v


def scores_for_query(q: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Scaled attention scores of one query against the cached keys.

    ``q`` is ``(n_heads, head_dim)``, ``keys`` is
    ``(n_heads, kv_len, head_dim)``; returns ``(n_heads, kv_len)``.
    """
    head_dim = q.shape[-1]
    return (keys @ q[:, :, None])[:, :, 0] / np.sqrt(head_dim)


def context_for_query(probs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Merged per-token attention context.

    ``probs`` is ``(n_heads, kv_len)``, ``values`` a *contiguous*
    ``(n_heads, kv_len, head_dim)`` snapshot; returns the head-merged
    ``(n_heads * head_dim,)`` context row.
    """
    context = (probs[:, None, :] @ values)[:, 0, :]
    return context.reshape(-1)


# ----------------------------------------------------------------------
# Results.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DecodeStepResult:
    """One decoded token through the overlay.

    ``probabilities`` spans the KV cache at this step
    (``(n_heads, kv_length)``); ``position`` is the token's absolute
    index in the sequence.  ``vector_cycles`` / ``counters`` are the
    sequential-equivalent cost a dedicated engine invocation would
    charge for exactly this step (tail padding included).
    """

    output: np.ndarray            # (hidden,)
    probabilities: np.ndarray     # (n_heads, kv_length)
    position: int
    kv_length: int
    vector_cycles: int
    nonlinear_queries: int
    counters: EventCounters


@dataclass(frozen=True)
class CausalPrefillResult:
    """The packed causal prefill of one prompt.

    ``probabilities[h, t, :]`` holds row ``t``'s attention weights over
    the cached span, zero elsewhere (upper triangle and, under a sliding
    window, evicted columns).  ``vector_cycles`` is the packed cost of
    the whole prefill — one exp stream and one reciprocal stream.
    """

    outputs: np.ndarray           # (prompt_len, hidden)
    probabilities: np.ndarray     # (n_heads, prompt_len, prompt_len)
    vector_cycles: int
    nonlinear_queries: int
    counters: EventCounters


@dataclass(frozen=True)
class DecodeResult:
    """A sequence decoded token by token (the pure decode regime)."""

    steps: tuple[DecodeStepResult, ...]
    outputs: np.ndarray           # (n_tokens, hidden)
    vector_cycles: int
    counters: EventCounters

    @property
    def n_tokens(self) -> int:
        """Tokens decoded."""
        return len(self.steps)

    @property
    def cycles_per_token(self) -> float:
        """Mean vector cycles per decoded token."""
        return self.vector_cycles / max(1, self.n_tokens)


@dataclass(frozen=True)
class GenerateResult:
    """Prefill plus autoregressive generation for one request."""

    prefill: CausalPrefillResult
    steps: tuple[DecodeStepResult, ...]
    generated: np.ndarray         # (n_generated, hidden)
    vector_cycles: int            # prefill + every decode step
    counters: EventCounters

    @property
    def n_generated(self) -> int:
        """Tokens generated after the prompt."""
        return len(self.steps)

    @property
    def decode_vector_cycles(self) -> int:
        """Vector cycles spent in decode steps only."""
        return self.vector_cycles - self.prefill.vector_cycles

    @property
    def cycles_per_token(self) -> float:
        """Mean decode vector cycles per generated token."""
        return self.decode_vector_cycles / max(1, self.n_generated)


class DecodeState:
    """In-flight decode of one request: its cache and position."""

    def __init__(self, request: DecodeRequest, cache: KVCacheLike) -> None:
        self.request = request
        self.cache = cache
        self.position = 0          # absolute index of the next token

    def __repr__(self) -> str:
        return (
            f"DecodeState(position={self.position}, cache={self.cache!r})"
        )


# ----------------------------------------------------------------------
# Job planning/execution internals.
# ----------------------------------------------------------------------


class _TokenPlan:
    """Host-side state of one planned token, awaiting the hardware exp."""

    __slots__ = (
        "position", "span_start", "shifted", "n_exp",
        "numer", "exponent", "_values", "_cache", "_kv_len",
    )

    # ``shifted``/``numer``/``_values``/``_cache`` are ``Any`` rather
    # than Optional ndarrays: ``release()`` nulls them after execution,
    # and the planning/execution code touches them without narrowing.
    position: int
    span_start: int
    shifted: Any
    n_exp: int
    numer: Any
    exponent: int
    _values: Any
    _cache: Any
    _kv_len: int | None

    def __init__(
        self,
        position: int,
        span_start: int,
        shifted: np.ndarray,
        *,
        values: np.ndarray | None = None,
        cache: KVCacheLike | None = None,
        kv_len: int | None = None,
    ) -> None:
        self.position = position
        self.span_start = span_start
        self.shifted = shifted      # (heads, kv_len), max-subtracted scores
        self.n_exp = shifted.size
        self._values = values       # eager contiguous snapshot (windowed)
        self._cache = cache         # deferred snapshot source (append-only)
        self._kv_len = kv_len

    def take_values(self) -> np.ndarray:
        """The ``(heads, kv_len, head_dim)`` values this token attends to.

        Whatever the source, each head's ``(kv_len, head_dim)`` matrix
        has row stride ``head_dim``, so the context GEMV is the same
        BLAS call in every path.  Three sources, by how the cache can
        change between planning and execution:

        * a prefill token holds a view of its prompt's projected values
          (never mutated; the rows the cache stores are float64 copies
          of them, and adopted prefix blocks hold bit-identical rows);
        * a windowed decode token holds an eager snapshot copied at plan
          time, because a later append may evict and shift rows;
        * an append-only decode token defers the copy to use: rows
          ``< kv_len`` never change between planning and execution (jobs
          always execute in the step they were planned), so only one
          ``O(kv_len)`` snapshot is live at a time.

        Snapshots come from ``values_snapshot`` on either the contiguous
        or the paged cache; both return byte-identical arrays.
        """
        if self._values is not None:
            return self._values
        return self._cache.values_snapshot(self._kv_len)

    def release(self) -> None:
        self.numer = self.shifted = None
        self._values = self._cache = None


def _gather_ranges(
    flat: np.ndarray, starts: np.ndarray, members: list[int], size: int
) -> np.ndarray:
    """``flat[starts[i] : starts[i] + size]`` for every ``i`` in
    ``members``, concatenated (a lone member's range is a plain slice)."""
    if len(members) == 1:
        start = int(starts[members[0]])
        return flat[start : start + size]
    return flat[starts[members][:, None] + np.arange(size)]


class _Job:
    """One engine-invocation-equivalent unit of work (prefill or step)."""

    __slots__ = ("state", "kind", "tokens")

    def __init__(self, state: DecodeState, kind: str,
                 tokens: list[_TokenPlan]) -> None:
        self.state = state
        self.kind = kind            # "prefill" | "step"
        self.tokens = tokens


class _JobResult:
    """Per-job outcome: one entry per token plus sequential-equivalent cost."""

    __slots__ = (
        "job", "probabilities", "outputs", "vector_cycles",
        "nonlinear_queries", "counters",
    )

    def __init__(
        self,
        job: _Job,
        probabilities: list[np.ndarray],
        outputs: np.ndarray,
        vector_cycles: int,
        nonlinear_queries: int,
        counters: EventCounters,
    ) -> None:
        self.job = job
        self.probabilities = probabilities  # list[(heads, kv_len)]
        self.outputs = outputs              # (n_tokens, hidden)
        self.vector_cycles = vector_cycles
        self.nonlinear_queries = nonlinear_queries
        self.counters = counters


class NovaDecodeEngine(BatchedNovaAttentionEngine):
    """KV-cached autoregressive decode on one shared NOVA overlay.

    Built directly on the batched engine's machinery: a single
    :class:`~repro.core.vector_unit.NovaVectorUnit` serves the softmax
    exponential and the normaliser reciprocal by table retargeting, the
    tables come from the process-wide compiled-table cache, and
    per-request cost accounting reuses the closed-form
    sequential-equivalent counters.  Constructor interface matches the
    other engines (a :class:`~repro.core.config.NovaConfig` or a Table II
    preset name).

    Three entry points, all bit-exact against one another:

    * :meth:`prefill` — the whole prompt, packed into one exp stream and
      one reciprocal stream (the efficient way in);
    * :meth:`decode_step` — one token against the KV cache;
    * :meth:`generate` — prefill then a self-feeding decode loop (the
      attention output of the last position is the next token's
      embedding; with a single attention layer and no vocabulary this is
      the serving-shaped closed loop the benchmarks measure).
    """

    # ------------------------------------------------------------------
    # Request lifecycle.
    # ------------------------------------------------------------------

    def validate_request(self, request: DecodeRequest) -> None:
        """Reject requests the decode path cannot serve.

        Raises ``TypeError`` for non-:class:`DecodeRequest` inputs,
        ``ValueError`` for non-causal requests and
        :class:`KVCacheOverflow` for a request whose prompt + budget
        cannot fit its cache capacity (and that has no sliding window).
        """
        if not isinstance(request, DecodeRequest):
            raise TypeError(
                "decode needs a DecodeRequest (see "
                "repro.workloads.decode_request); got "
                f"{type(request).__name__}"
            )
        if not request.causal:
            raise ValueError(
                "the decode path is causal by definition: token t can only "
                "attend to the KV cache of tokens <= t; got a request with "
                "causal=False (build it from a TransformerConfig with "
                "causal=True)"
            )
        if request.window is None and request.total_tokens > request.capacity:
            raise KVCacheOverflow(
                f"request needs {request.total_tokens} cache slots "
                f"({request.seq} prompt + {request.max_new_tokens} new) but "
                f"max_seq_len is {request.capacity}; shorten the request, "
                "raise max_seq_len, or set a sliding window"
            )

    def start(
        self,
        request: DecodeRequest,
        cache: KVCacheLike | None = None,
        pool: BlockPool | None = None,
        prefix: bool = False,
    ) -> DecodeState:
        """Open a decode state for ``request``.

        ``cache`` optionally recycles an existing page that
        :meth:`KVCache.can_serve` the request — any page with matching
        head geometry and ``capacity >= request.capacity`` (it is reset
        and adopts the request's sliding window).  ``pool`` instead
        opens a :class:`~repro.core.paging.PagedKVCache` drawing blocks
        lazily from the given :class:`~repro.core.paging.BlockPool`.
        By default a fresh contiguous :class:`KVCache` of
        ``request.capacity`` entries is allocated.  Admission is
        atomic: every validation raise fires before any engine or
        cache state changes.

        ``prefix=True`` (paged only) additionally adopts the longest
        already-cached run of the prompt's block keys from the pool's
        prefix index (:meth:`~repro.core.paging.PagedKVCache.
        adopt_prefix`): prefill still computes every prompt row — same
        cycles, same counters, bit-identical outputs — but adopted
        blocks are shared rather than re-written, so the request's pool
        residency charges only its unshared blocks.  Windowed requests
        never adopt (their sliding window evicts the certified prefix).
        """
        self.validate_request(request)
        if cache is not None and pool is not None:
            raise ValueError(
                "pass either a recycled cache page or a block pool, not both"
            )
        if prefix and pool is None:
            raise ValueError(
                "prefix caching needs a block pool (pass pool=...)"
            )
        if pool is not None:
            if (pool.n_heads, pool.head_dim) != (
                request.n_heads, request.head_dim,
            ):
                raise ValueError(
                    f"block pool geometry ({pool.n_heads} heads x "
                    f"{pool.head_dim}) does not match the request "
                    f"({request.n_heads} heads x {request.head_dim})"
                )
            from repro.core.paging import PagedKVCache, prefix_block_keys

            cache = PagedKVCache(
                pool, request.capacity, window=request.window
            )
            if prefix and request.window is None:
                cache.adopt_prefix(
                    prefix_block_keys(
                        request.x, request.wk, request.wv,
                        request.n_heads, pool.block_size,
                    )
                )
        elif cache is None:
            cache = KVCache(
                request.n_heads, request.head_dim, request.capacity,
                window=request.window,
            )
        else:
            if not cache.can_serve(
                request.n_heads, request.head_dim, request.capacity
            ):
                raise ValueError(
                    f"recycled cache page {cache!r} does not match the "
                    f"request geometry ({request.n_heads} heads x "
                    f">={request.capacity} x {request.head_dim})"
                )
            cache.reset()
            cache.window = request.window
        return DecodeState(request=request, cache=cache)

    # ------------------------------------------------------------------
    # Planning: host math up to (and excluding) the hardware exp.
    # ------------------------------------------------------------------

    def _plan_token(self, state: DecodeState, x_t: np.ndarray) -> _TokenPlan:
        """Project one token, append to the cache, stage its softmax row."""
        req = state.request
        x_t = np.asarray(x_t, dtype=np.float64).reshape(-1)
        if x_t.shape[0] != req.hidden:
            raise ValueError(
                f"token embedding must have hidden width {req.hidden}, "
                f"got {x_t.shape[0]}"
            )
        q, k, v = project_token(x_t, req.wq, req.wk, req.wv, req.n_heads)
        state.cache.append(k, v)
        scores = scores_for_query(q, state.cache.keys)
        # The context GEMV runs on a contiguous snapshot of the cached
        # values (copying pins both the values and the exact memory
        # layout every path sees); see _TokenPlan.take_values for when
        # that copy is eager vs deferred.
        if state.cache.window is None:
            snapshot = dict(cache=state.cache, kv_len=state.cache.length)
        else:
            snapshot = dict(
                values=state.cache.values_snapshot(state.cache.length)
            )
        plan = _TokenPlan(
            position=state.position,
            span_start=state.cache.start_position,
            shifted=shift_scores(scores),
            **snapshot,
        )
        state.position += 1
        return plan

    def _plan_prefill(self, state: DecodeState) -> _Job:
        """Stage the whole prompt as one job (packed hardware streams).

        The prompt is planned at once rather than token by token: one
        stacked :func:`project_token` call, then one pass over the rows
        in prompt order.  Each row is appended to the cache, so a dry
        block pool raises :class:`~repro.core.paging.BlockPoolExhausted`
        at the same row, with the same pool state, as a row-by-row plan,
        and windowed eviction moves the span exactly as it does for
        decode steps.  The row then scores and attends over views of the
        projected keys and values covering the cache's live span instead
        of gathering that span back out of the cache: the cache holds
        bit-identical rows, and the views have the same per-head row
        stride as a gathered copy (see the module docstring).
        """
        cache = state.cache
        if state.position != 0 or cache.length != 0:
            raise RuntimeError(
                "prefill must run on a fresh DecodeState (position "
                f"{state.position}, {cache.length} cached tokens)"
            )
        req = state.request
        q, k, v = project_token(req.x, req.wq, req.wk, req.wv, req.n_heads)
        # (heads, prompt_len, head_dim), contiguous: row t of head h is
        # the row the cache stores for token t.
        keys = np.ascontiguousarray(k.transpose(1, 0, 2))
        values = np.ascontiguousarray(v.transpose(1, 0, 2))
        tokens: list[_TokenPlan] = []
        for t in range(req.seq):
            cache.append(k[t], v[t])
            lo = t + 1 - cache.length
            tokens.append(
                _TokenPlan(
                    position=state.position,
                    span_start=cache.start_position,
                    shifted=shift_scores(
                        scores_for_query(q[t], keys[:, lo : t + 1])
                    ),
                    values=values[:, lo : t + 1],
                )
            )
            state.position += 1
        return _Job(state, "prefill", tokens)

    def _plan_step(self, state: DecodeState, x_t: np.ndarray) -> _Job:
        """Stage one decode token as its own job."""
        return _Job(state, "step", [self._plan_token(state, x_t)])

    # ------------------------------------------------------------------
    # Execution: the two packed hardware phases plus host assembly.
    # ------------------------------------------------------------------

    def _execute(self, jobs: Sequence[_Job]) -> tuple[list[_JobResult], int]:
        """Run staged jobs through the shared overlay.

        All jobs' exponentials form one packed lane stream, then all
        jobs' reciprocals form another — this is the fusion that lets
        the continuous batcher interleave prefill and decode rows across
        lanes.  Returns ``(results, packed_vector_cycles)``; per-job
        costs are sequential-equivalent (closed form).

        The step costs two kernel launches (one
        :meth:`~repro.core.vector_unit.NovaVectorUnit.run_stream` per
        phase, inside ``_run_packed``) plus vectorised host reductions:
        per-job ``tag_match`` sums come from one ``np.add.reduceat``
        over the job boundaries (integer sums — order-insensitive, so
        exactly the per-slice sums the per-job loop computed), and the
        softmax reductions run batched over every group of tokens with
        the same ``(heads, kv_len)`` score shape.  Batching the float
        phases by shape group is what keeps them bit-exact: the
        reductions in :func:`softmax_reduction` /
        :func:`assemble_probabilities` are along the last axis, whose
        pairwise summation order per row is independent of any leading
        batch dimension.
        """
        if not jobs:
            return [], 0
        lanes = self.n_lanes
        tokens = [t for j in jobs for t in j.tokens]
        job_counts = np.array([len(j.tokens) for j in jobs], dtype=np.int64)
        first_token = np.concatenate(([0], np.cumsum(job_counts)[:-1]))
        # Group tokens by score shape before phase 1 mutates the slots;
        # every group batches through softmax_reduction (then
        # assemble_probabilities) as one (group, heads, kv_len) call.
        shape_groups: dict[tuple[int, ...], list[int]] = {}
        for i, token in enumerate(tokens):
            shape_groups.setdefault(token.shifted.shape, []).append(i)

        # Phase 1: every job's exponentials in one stream.
        exp_sizes = np.array([t.n_exp for t in tokens], dtype=np.int64)
        exp_starts = np.concatenate(([0], np.cumsum(exp_sizes)[:-1]))
        exp_flat = np.concatenate([t.shifted.reshape(-1) for t in tokens])
        exp_out, exp_batches, exp_addr = self._run_packed("exp", exp_flat)
        exp_n_beats = self._phases["exp"].n_beats
        job_elem_starts = exp_starts[first_token]
        job_exp_sizes = np.add.reduceat(exp_sizes, first_token)
        job_exp_tags = np.add.reduceat(
            beat_of_address(exp_addr, exp_n_beats), job_elem_starts
        )

        # group id -> (token indices, batched numerators, exponents)
        group_states: list[tuple[list[int], np.ndarray, np.ndarray]] = []
        for shape, members in shape_groups.items():
            gathered = _gather_ranges(
                exp_out, exp_starts, members, math.prod(shape)
            ).reshape(len(members), *shape)
            numer, mantissa, exponent = softmax_reduction(gathered)
            for pos, i in enumerate(members):
                tokens[i].shifted = mantissa[pos]  # reuse: the mantissas
            group_states.append((members, numer, exponent))

        # Phase 2: every job's normaliser reciprocals in one stream.
        recip_sizes = np.array(
            [t.shifted.size for t in tokens], dtype=np.int64
        )
        recip_starts = np.concatenate(([0], np.cumsum(recip_sizes)[:-1]))
        recip_flat = np.concatenate([t.shifted.reshape(-1) for t in tokens])
        recip_out, recip_batches, recip_addr = self._run_packed(
            "reciprocal", recip_flat
        )
        recip_n_beats = self._phases["reciprocal"].n_beats
        job_recip_sizes = np.add.reduceat(recip_sizes, first_token)
        job_recip_tags = np.add.reduceat(
            beat_of_address(recip_addr, recip_n_beats),
            recip_starts[first_token],
        )

        token_probs: list[np.ndarray | None] = [None] * len(tokens)
        for members, numer, exponent in group_states:
            inv = _gather_ranges(
                recip_out, recip_starts, members,
                int(recip_sizes[members[0]]),
            ).reshape(exponent.shape)
            probs = assemble_probabilities(numer, inv, exponent)
            for pos, i in enumerate(members):
                token_probs[i] = probs[pos]

        # Host assembly: the context GEMVs stay per token (each attends
        # to its own values); the output projection is one stacked
        # singleton-row matmul per job.
        results: list[_JobResult] = []
        for jnum, job in enumerate(jobs):
            request = job.state.request
            first = int(first_token[jnum])
            probabilities: list[np.ndarray] = []
            contexts = np.empty((len(job.tokens), 1, request.hidden))
            for knum, token in enumerate(job.tokens):
                probs = token_probs[first + knum]
                assert probs is not None
                probabilities.append(probs)
                contexts[knum, 0] = context_for_query(
                    probs, token.take_values()
                )
                token.release()
            outputs = np.matmul(contexts, request.wo)[:, 0]
            n_exp = int(job_exp_sizes[jnum])
            n_recip = int(job_recip_sizes[jnum])
            results.append(
                _JobResult(
                    job=job,
                    probabilities=probabilities,
                    outputs=outputs,
                    vector_cycles=(
                        -(-n_exp // lanes) + -(-n_recip // lanes)
                    ),
                    nonlinear_queries=n_exp + n_recip,
                    counters=self._sequential_request_counters(
                        {
                            "exp": (n_exp, int(job_exp_tags[jnum])),
                            "reciprocal": (
                                n_recip, int(job_recip_tags[jnum])
                            ),
                        }
                    ),
                )
            )
        return results, exp_batches + recip_batches

    # ------------------------------------------------------------------
    # Result wrapping.
    # ------------------------------------------------------------------

    @staticmethod
    def _wrap_prefill(result: _JobResult) -> CausalPrefillResult:
        job = result.job
        req = job.state.request
        prompt_len = len(job.tokens)
        probabilities = np.zeros((req.n_heads, prompt_len, prompt_len))
        for token, probs in zip(job.tokens, result.probabilities):
            span = probs.shape[-1]
            start = token.span_start
            probabilities[:, token.position, start : start + span] = probs
        return CausalPrefillResult(
            outputs=result.outputs,
            probabilities=probabilities,
            vector_cycles=result.vector_cycles,
            nonlinear_queries=result.nonlinear_queries,
            counters=result.counters,
        )

    @staticmethod
    def _wrap_step(result: _JobResult) -> DecodeStepResult:
        (token,) = result.job.tokens
        (probs,) = result.probabilities
        (output,) = result.outputs
        return DecodeStepResult(
            output=output,
            probabilities=probs,
            position=token.position,
            kv_length=probs.shape[-1],
            vector_cycles=result.vector_cycles,
            nonlinear_queries=result.nonlinear_queries,
            counters=result.counters,
        )

    # ------------------------------------------------------------------
    # Public execution modes.
    # ------------------------------------------------------------------

    def prefill(self, state: DecodeState) -> CausalPrefillResult:
        """Run the prompt through the cache as one packed causal job."""
        (result,), _ = self._execute([self._plan_prefill(state)])
        return self._wrap_prefill(result)

    def decode_step(
        self, state: DecodeState, x_t: np.ndarray
    ) -> DecodeStepResult:
        """Decode one token: append to the cache, attend, project out."""
        (result,), _ = self._execute([self._plan_step(state, x_t)])
        return self._wrap_step(result)

    def decode(self, request: DecodeRequest) -> DecodeResult:
        """Decode the prompt token by token (the pure decode regime).

        Every prompt token goes through :meth:`decode_step` with its own
        per-step hardware streams — the path the golden equivalence test
        compares bit-for-bit against :meth:`prefill`.
        """
        state = self.start(request)
        before = self.unit._lifetime_counters()
        steps = [self.decode_step(state, row) for row in request.x]
        return DecodeResult(
            steps=tuple(steps),
            outputs=np.stack([s.output for s in steps]),
            vector_cycles=sum(s.vector_cycles for s in steps),
            counters=self.unit._lifetime_counters().diff(before),
        )

    def generate(
        self,
        request: DecodeRequest,
        max_new_tokens: int | None = None,
        state: DecodeState | None = None,
    ) -> GenerateResult:
        """Prefill the prompt, then generate autoregressively.

        The attention output at the last position feeds back as the next
        token's embedding (deterministic closed loop — there is no
        vocabulary at the attention-layer level).  ``max_new_tokens``
        defaults to the request's budget; ``state`` optionally supplies
        a pre-opened state (e.g. with a recycled cache page).
        """
        new_tokens = (
            request.max_new_tokens
            if max_new_tokens is None
            else max_new_tokens
        )
        if new_tokens < 0:
            raise ValueError(
                f"max_new_tokens must be >= 0, got {new_tokens}"
            )
        # An override larger than the request's own budget must fail at
        # admission like any other over-long request, not mid-generation.
        if request.window is None and request.seq + new_tokens > request.capacity:
            raise KVCacheOverflow(
                f"generate needs {request.seq + new_tokens} cache slots "
                f"({request.seq} prompt + {new_tokens} new) but the "
                f"request's capacity is {request.capacity}; shorten "
                "max_new_tokens, raise max_seq_len, or set a sliding "
                "window"
            )
        if state is None:
            state = self.start(request)
        before = self.unit._lifetime_counters()
        pre = self.prefill(state)
        steps: list[DecodeStepResult] = []
        x_t = pre.outputs[-1]
        for _ in range(new_tokens):
            step = self.decode_step(state, x_t)
            steps.append(step)
            x_t = step.output
        generated = (
            np.stack([s.output for s in steps])
            if steps
            else np.zeros((0, request.hidden))
        )
        return GenerateResult(
            prefill=pre,
            steps=tuple(steps),
            generated=generated,
            vector_cycles=pre.vector_cycles
            + sum(s.vector_cycles for s in steps),
            counters=self.unit._lifetime_counters().diff(before),
        )


# ----------------------------------------------------------------------
# Continuous batching.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuousBatchResult:
    """Outcome of a continuously batched decode run.

    ``results[i]`` is bit-identical (outputs, probabilities, per-step
    sequential-equivalent cycles and counters) to
    ``engine.generate(requests[i])`` run alone.  ``packed_vector_cycles``
    is what the shared overlay actually spent across all fused scheduler
    steps; ``sequential_vector_cycles`` is the sum of the per-request
    costs — the ratio is the continuous-batching win on the cycle side.
    ``pages_allocated`` / ``pages_recycled`` are this run's cache-page
    pool activity (per-run deltas: a reused scheduler still reports
    ``pages_allocated + pages_recycled == n_requests``; both are zero
    in paged mode, where the block pool replaces whole-page recycling).

    Memory-side accounting: ``peak_active`` is the most requests ever
    in flight at once (the admission-capacity metric the paged-vs-
    contiguous benchmark compares at a fixed pool byte budget);
    ``peak_kv_slots`` the most KV token slots reserved at once (whole
    worst-case pages in contiguous mode, allocated blocks in paged
    mode); ``peak_fragmentation_slots`` the worst reserved-but-unused
    slot count observed; ``deferrals`` / ``preemptions`` the paged
    scheduler's out-of-memory actions (always zero in contiguous mode);
    ``paging`` the final :meth:`~repro.core.paging.BlockPool.pool_info`
    snapshot (``None`` in contiguous mode).

    Per-request step timing (the serving layer's raw material):
    ``first_token_steps[i]`` / ``finish_steps[i]`` are the 0-based
    scheduler-step indices at which request ``i``'s prefill landed (its
    first visible token) and at which it completed; ``step_cycles[k]``
    is the packed vector cycles step ``k`` spent, so
    ``sum(step_cycles) == packed_vector_cycles``.
    ``first_token_times[i]`` / ``finish_times[i]`` are the same two
    events on the scheduler's **virtual clock** (cycles; idle gaps
    between arrivals included), which is what turns step indices into
    TTFT and latency.  A preempted-then-recomputed request keeps its
    *first* prefill landing (recomputation regenerates bit-identical
    tokens, so the user-visible first token never moves).
    """

    results: tuple[GenerateResult | SpeculativeGenerateResult, ...]
    packed_vector_cycles: int
    sequential_vector_cycles: int
    scheduler_steps: int
    counters: EventCounters
    pages_allocated: int
    pages_recycled: int
    peak_active: int = 0
    peak_kv_slots: int = 0
    peak_fragmentation_slots: int = 0
    deferrals: int = 0
    preemptions: int = 0
    paging: dict[str, int] | None = None
    first_token_steps: tuple[int, ...] = ()
    finish_steps: tuple[int, ...] = ()
    first_token_times: tuple[float, ...] = ()
    finish_times: tuple[float, ...] = ()
    step_cycles: tuple[int, ...] = ()

    @property
    def n_requests(self) -> int:
        """Requests served."""
        return len(self.results)

    @property
    def total_generated_tokens(self) -> int:
        """Tokens generated across every request (prompts excluded)."""
        return sum(r.n_generated for r in self.results)

    @property
    def packing_speedup(self) -> float:
        """Sequential vector cycles per packed vector cycle (>= 1)."""
        if self.packed_vector_cycles == 0:
            return 1.0
        return self.sequential_vector_cycles / self.packed_vector_cycles


class _Sequence:
    """Scheduler bookkeeping for one in-flight request.

    Structurally satisfies
    :class:`repro.serving.policies.SequenceView` — the read-only
    surface scheduling policies see.
    """

    __slots__ = (
        "index", "request", "state", "remaining", "next_x",
        "prefill_result", "steps", "admitted_at",
        "draft", "passes", "pending_pass",
        "arrival", "priority", "tenant", "deadline",
        "first_token_step", "finish_step",
        "first_token_time", "finish_time",
    )

    def __init__(
        self,
        index: int,
        request: DecodeRequest,
        meta: SequenceMeta | None = None,
    ) -> None:
        self.index = index
        self.request = request
        self.state: DecodeState | None = None
        self.remaining = request.max_new_tokens
        self.next_x: np.ndarray | None = None
        self.prefill_result: CausalPrefillResult | None = None
        self.steps: list[DecodeStepResult] = []
        self.admitted_at = -1
        # Speculative-mode state: the per-sequence draft model, the
        # completed verification passes, and the pass staged this step.
        self.draft: DraftModel | None = None
        self.passes: list[VerifyPassResult] = []
        self.pending_pass: _SpecPass | None = None
        # Serving metadata (virtual-clock times; defaults for plain
        # callers) and the step-timing record the metrics layer reads.
        meta = SequenceMeta() if meta is None else meta
        self.arrival = meta.arrival
        self.priority = meta.priority
        self.tenant = meta.tenant
        self.deadline = meta.deadline
        self.first_token_step = -1
        self.finish_step = -1
        self.first_token_time = -1.0
        self.finish_time = -1.0

    @property
    def live_state(self) -> DecodeState:
        """The admitted sequence's decode state (set at admission)."""
        assert self.state is not None
        return self.state

    @property
    def step_input(self) -> np.ndarray:
        """The next token embedding (set once the prefill lands)."""
        assert self.next_x is not None
        return self.next_x

    @property
    def finished_prefill(self) -> CausalPrefillResult:
        """The prefill result (set after the sequence's first step)."""
        assert self.prefill_result is not None
        return self.prefill_result

    def reset_progress(self) -> None:
        """Forget all progress (preemption by recomputation): the
        sequence restarts from its prompt when readmitted, reproducing
        bit-identical results because every step is deterministic.
        ``first_token_step``/``first_token_time`` survive on purpose:
        recomputation regenerates the same tokens, so the user-visible
        first token stays where it first landed."""
        self.state = None
        self.remaining = self.request.max_new_tokens
        self.next_x = None
        self.prefill_result = None
        self.steps = []
        self.admitted_at = -1
        self.passes = []
        self.pending_pass = None
        if self.draft is not None:
            self.draft.reset()


class ContinuousBatchScheduler:
    """Orca-style continuous batching over one :class:`NovaDecodeEngine`.

    Per scheduler step, the prefill rows of newly admitted requests and
    the decode rows of every in-flight request are fused into a single
    exp stream and a single reciprocal stream through the shared overlay
    (:meth:`NovaDecodeEngine._execute`), so lanes that one request would
    leave as tail padding carry another request's queries.  Requests
    join as slots free up (``max_active``) and leave the moment their
    budget is exhausted.

    Two memory models govern admission:

    * **Contiguous (default)** — every request gets a whole
      :class:`KVCache` page sized for its worst case; retired pages go
      to a pool keyed on head geometry and any page with
      ``capacity >= requested`` is recycled (best fit).  An optional
      ``pool_bytes`` budget caps total page bytes: admission defers
      until a page frees when the budget is exhausted.
    * **Paged** (``paged=True``) — all KV storage is fixed-size blocks
      (``block_size`` tokens, default
      ``engine.config.kv_block_size``) in one
      :class:`~repro.core.paging.BlockPool` shared by every request.
      Admission needs only the request's *first* block to fit; later
      blocks allocate lazily on append.  When the pool runs dry
      mid-step, the starved sequences **defer** (skip the step, retry
      after other sequences free blocks), and if *no* sequence can make
      progress the most recently admitted one is **preempted**: its
      blocks are freed and it restarts from its prompt later
      (recomputation is deterministic, so its final results are still
      bit-identical; the wasted work shows up only in
      ``packed_vector_cycles``).  The pool is sized from
      ``pool_blocks``, ``pool_bytes`` or — by default — large enough
      that no request ever defers.  ``prefix_caching=True`` (or the
      engine config's ``enable_prefix_caching``) additionally shares
      already-cached prompt blocks between requests: admission charges
      only *unshared* blocks (a request whose prefix is resident can
      enter a dry pool), prefills adopt shared blocks instead of
      re-writing them, and the first divergent append copies on write —
      N requests sharing a prefix prefill once and pay ~1/N the pool
      residency, with bit/cycle/counter-exact outputs.

    Outputs are bit-identical to running each request alone through
    :meth:`NovaDecodeEngine.generate` in **both** modes (checked by the
    serving experiments before any throughput is reported): paging and
    preemption change where K/V rows live and when work happens, never
    the numerics.

    ``speculative=True`` composes with either memory model: each active
    sequence's step becomes one draft-and-verify pass
    (:class:`~repro.core.speculative.SpeculativeDecodeEngine`, at the
    engine config's ``spec_k``/``spec_tree``/``draft_kind`` unless
    overridden — a ``spec_tree`` scores a whole draft tree per pass;
    one draft model per sequence via ``draft_factory``).  Verification
    passes of different requests fuse into the shared lane streams
    exactly like decode rows; a pass that cannot get provisional blocks
    degrades to draft-free before it defers, and per-request results
    (:class:`~repro.core.speculative.SpeculativeGenerateResult`) stay
    identical to solo speculative generation.

    Scheduling decisions — which waiting request to admit next, which
    active sequences run a step, and who is preempted — are delegated
    to a pluggable ``policy``
    (:class:`repro.serving.policies.SchedulingPolicy`).  The default,
    :class:`repro.serving.policies.FCFS`, pins the scheduler's
    historical behavior exactly: admission in queue order (input
    order; a preempted request rejoins at the *front* of the queue),
    every active sequence steps every scheduler step, and the
    forced-preemption victim is the most recently admitted sequence.
    Whatever the policy decides, each request's outputs, per-step
    sequential-equivalent cycles and event counters stay bit-identical
    to solo :meth:`NovaDecodeEngine.generate` — policies reorder *when*
    work happens, never what it computes.
    """

    def __init__(
        self,
        engine: NovaDecodeEngine,
        max_active: int = 8,
        *,
        paged: bool = False,
        block_size: int | None = None,
        pool_blocks: int | None = None,
        pool_bytes: int | None = None,
        prefix_caching: bool | None = None,
        speculative: bool = False,
        spec_k: int | None = None,
        spec_tree: str | None = None,
        draft_kind: str | None = None,
        draft_factory: Callable[[], DraftModel] | None = None,
        policy: SchedulingPolicy | None = None,
    ) -> None:
        if max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {max_active}")
        if not paged:
            if block_size is not None or pool_blocks is not None:
                raise ValueError(
                    "block_size/pool_blocks only apply to the paged "
                    "scheduler (pass paged=True)"
                )
            if prefix_caching:
                raise ValueError(
                    "prefix_caching requires the paged scheduler "
                    "(pass paged=True)"
                )
        if pool_blocks is not None and pool_bytes is not None:
            raise ValueError("pass pool_blocks or pool_bytes, not both")
        if not speculative and (
            spec_k is not None
            or spec_tree is not None
            or draft_kind is not None
            or draft_factory is not None
        ):
            raise ValueError(
                "spec_k/spec_tree/draft_kind/draft_factory only apply to "
                "the speculative scheduler (pass speculative=True)"
            )
        self.engine = engine
        self.speculative = bool(speculative)
        self._speculator: SpeculativeDecodeEngine | None = None
        if self.speculative:
            from repro.core.speculative import (
                SpeculativeDecodeEngine,
                build_draft,
            )

            self._speculator = SpeculativeDecodeEngine(
                engine, spec_k=spec_k, tree=spec_tree
            )
            kind = (
                engine.config.draft_kind if draft_kind is None else draft_kind
            )
            #: One draft model per admitted sequence (drafts are
            #: stateful; sharing one across interleaved requests would
            #: break the solo-equivalence contract).
            self.draft_factory: Callable[[], DraftModel] = (
                (lambda: build_draft(kind, engine.config))
                if draft_factory is None
                else draft_factory
            )
        self.max_active = max_active
        self.paged = bool(paged)
        #: Prefix caching (paged only): ``None`` defers to the engine
        #: config's ``enable_prefix_caching`` knob; it only ever takes
        #: effect in paged mode (blocks are the sharing granularity).
        resolved_prefix = (
            engine.config.enable_prefix_caching
            if prefix_caching is None
            else bool(prefix_caching)
        )
        self.prefix_caching = bool(resolved_prefix and self.paged)
        self.block_size = (
            engine.config.kv_block_size if block_size is None else block_size
        )
        if self.block_size < 1:
            raise ValueError(
                f"block_size must be >= 1, got {self.block_size}"
            )
        self.pool_blocks = pool_blocks
        self.pool_bytes = pool_bytes
        if policy is None:
            # Imported lazily: repro.serving sits above repro.core in
            # the layering (it imports core at module scope), so the
            # default policy can only be pulled in at construction time.
            from repro.serving.policies import FCFS

            policy = FCFS()
        self.policy: SchedulingPolicy = policy
        #: The paged run's block pool (the last one, when reused).
        self.block_pool: BlockPool | None = None
        self._pool: dict[tuple[int, int], list[KVCache]] = {}
        self._page_bytes_allocated = 0
        self.pages_allocated = 0
        self.pages_recycled = 0
        self.deferrals = 0
        self.preemptions = 0

    def _require_speculator(self) -> SpeculativeDecodeEngine:
        """The speculative engine (constructed iff ``speculative=True``)."""
        assert self._speculator is not None
        return self._speculator

    # -- contiguous cache-page pool -------------------------------------

    @staticmethod
    def _page_bytes(n_heads: int, head_dim: int, tokens: int) -> int:
        """Bytes of one contiguous K+V page (float64)."""
        return 2 * 8 * n_heads * head_dim * tokens

    def _acquire_page(self, request: DecodeRequest) -> KVCache | None:
        """The best-fitting recycled page for ``request``, or None.

        Any pooled page with matching head geometry and
        ``capacity >= request.capacity`` can serve (the smallest such
        page is chosen) — exact-capacity keying stranded every page
        whose geometry didn't match the next request precisely.
        """
        pages = self._pool.get((request.n_heads, request.head_dim))
        if pages:
            fits = [
                i for i, page in enumerate(pages)
                if page.capacity >= request.capacity
            ]
            if fits:
                best = min(fits, key=lambda i: pages[i].capacity)
                self.pages_recycled += 1
                return pages.pop(best)
        return None

    def _release_page(self, cache: KVCacheLike) -> None:
        # Only the contiguous scheduler retires pages here; paged-mode
        # caches hand their blocks back through ``reset()`` instead.
        assert isinstance(cache, KVCache)
        cache.reset()
        self._pool.setdefault(
            (cache.n_heads, cache.head_dim), []
        ).append(cache)

    def _reclaim_page_bytes(self, need: int) -> None:
        """Deallocate idle pooled pages until ``need`` more bytes fit.

        A recycled page only serves a request its capacity covers, so a
        pool full of too-small (or wrong-geometry) pages would strand
        budget bytes forever; under pressure those idle pages are
        simply freed — their bytes return to the budget, exactly as a
        real allocator would release cached pages.  Smallest pages go
        first (they are the least likely to serve a future request).
        """
        budget = self.pool_bytes
        assert budget is not None  # only called under a byte budget
        idle = [
            (page.capacity, key, page)
            for key, pages in self._pool.items()
            for page in pages
        ]
        idle.sort(key=lambda entry: entry[0])
        for _, key, page in idle:
            if self._page_bytes_allocated + need <= budget:
                return
            self._pool[key].remove(page)
            self._page_bytes_allocated -= self._page_bytes(
                page.n_heads, page.head_dim, page.capacity
            )

    def _open_contiguous(self, request: DecodeRequest) -> DecodeState | None:
        """Admit one request in contiguous mode (None = defer: the page
        budget is exhausted until an in-flight request retires)."""
        page = self._acquire_page(request)
        if page is not None:
            return self.engine.start(request, cache=page)
        need = self._page_bytes(
            request.n_heads, request.head_dim, request.capacity
        )
        if self.pool_bytes is not None:
            if self._page_bytes_allocated + need > self.pool_bytes:
                self._reclaim_page_bytes(need)
            if self._page_bytes_allocated + need > self.pool_bytes:
                return None
        self._page_bytes_allocated += need
        self.pages_allocated += 1
        return self.engine.start(request)

    # -- the scheduling loop --------------------------------------------

    def _build_pool(self, requests: Sequence[DecodeRequest]) -> BlockPool:
        """The paged run's :class:`~repro.core.paging.BlockPool`."""
        from repro.core.paging import (
            BlockPool,
            BlockPoolExhausted,
            worst_case_blocks,
        )

        n_heads = requests[0].n_heads
        head_dim = requests[0].head_dim
        for request in requests:
            if (request.n_heads, request.head_dim) != (n_heads, head_dim):
                raise ValueError(
                    "paged serving shares one block pool, so every request "
                    f"must agree on head geometry; got {n_heads}x{head_dim} "
                    f"and {request.n_heads}x{request.head_dim}"
                )
        bs = self.block_size
        worst = [
            worst_case_blocks(r.total_tokens, r.window, bs)
            for r in requests
        ]
        if self.pool_blocks is not None:
            pool = BlockPool(n_heads, head_dim, bs, self.pool_blocks)
        elif self.pool_bytes is not None:
            pool = BlockPool.from_bytes(
                n_heads, head_dim, bs, self.pool_bytes
            )
        else:
            # Auto-size: room for every request's worst case at once, so
            # the default path never defers or preempts.
            pool = BlockPool(n_heads, head_dim, bs, sum(worst))
        for request, need in zip(requests, worst):
            if need > pool.n_blocks:
                raise BlockPoolExhausted(
                    f"request needs {need} blocks of {bs} tokens even "
                    f"running alone, but the pool only has "
                    f"{pool.n_blocks}; raise pool_blocks/pool_bytes or "
                    "the block size"
                )
        return pool

    def _prefix_cached_blocks(
        self, request: DecodeRequest, pool: BlockPool
    ) -> int:
        """Leading prompt blocks the pool already caches (read-only).

        The admission estimate of what
        :meth:`~repro.core.paging.PagedKVCache.adopt_prefix` would
        adopt: no counters move and no references are taken.  Windowed
        requests never adopt, so they always report 0.
        """
        if request.window is not None:
            return 0
        from repro.core.paging import prefix_block_keys

        return pool.probe_prefix(
            prefix_block_keys(
                request.x, request.wk, request.wv,
                request.n_heads, pool.block_size,
            )
        )

    def _preempt(self, victim: _Sequence) -> None:
        """Evict one in-flight sequence (preemption by recomputation).

        Its cache memory is returned — blocks to the shared pool in
        paged mode, the whole page to the recycle pool in contiguous
        mode — and all progress is forgotten; when readmitted it
        replays from its prompt, deterministically reproducing
        bit-identical results.
        """
        cache = victim.live_state.cache
        if self.paged:
            cache.reset()  # blocks straight back to the shared pool
        else:
            self._release_page(cache)
        victim.reset_progress()
        self.preemptions += 1

    def run(
        self,
        requests: Iterable[DecodeRequest],
        meta: Sequence[SequenceMeta] | None = None,
    ) -> ContinuousBatchResult:
        """Serve every request to completion, continuously batched.

        ``meta`` optionally attaches one :class:`SequenceMeta` per
        request (arrival time on the virtual clock, priority, tenant,
        deadline) — the front door's interface.  Without it every
        request is present at cycle 0 with default metadata, and the
        virtual clock is invisible: the run is step-for-step identical
        to the pre-metadata scheduler.
        """
        from repro.core.paging import BlockPoolExhausted

        request_list = tuple(requests)
        if not request_list:
            raise ValueError("need at least one decode request")
        if meta is None:
            metas: tuple[SequenceMeta, ...] = tuple(
                SequenceMeta() for _ in request_list
            )
        else:
            metas = tuple(meta)
            if len(metas) != len(request_list):
                raise ValueError(
                    f"got {len(metas)} SequenceMeta entries for "
                    f"{len(request_list)} requests"
                )
        for request in request_list:
            self.engine.validate_request(request)

        engine = self.engine
        paged = self.paged
        pool: BlockPool | None = None
        if paged:
            pool = self._build_pool(request_list)
            self.block_pool = pool
        elif self.pool_bytes is not None:
            for request in request_list:
                need = self._page_bytes(
                    request.n_heads, request.head_dim, request.capacity
                )
                if need > self.pool_bytes:
                    raise BlockPoolExhausted(
                        f"request needs a {need}-byte page even running "
                        f"alone, but pool_bytes is {self.pool_bytes}"
                    )

        before = engine.unit._lifetime_counters()
        pages_allocated_before = self.pages_allocated
        pages_recycled_before = self.pages_recycled
        deferrals_before = self.deferrals
        preemptions_before = self.preemptions
        sequences = tuple(
            _Sequence(i, request, meta=m)
            for i, (request, m) in enumerate(zip(request_list, metas))
        )
        waiting = deque(sequences)
        active: list[_Sequence] = []
        slots: list[GenerateResult | SpeculativeGenerateResult | None] = (
            [None] * len(request_list)
        )
        policy = self.policy
        packed_cycles = 0
        scheduler_steps = 0
        admission_clock = 0
        peak_active = 0
        peak_kv_slots = 0
        peak_fragmentation = 0
        #: The run's virtual clock, in cycles: advances by each step's
        #: packed vector cycles and jumps over idle gaps to the next
        #: arrival.  Fully determined by the workload and the engine's
        #: cycle accounting — never by the host (NV008).
        now = 0.0
        step_cycles: list[int] = []

        while waiting or active:
            arrived = [s for s in waiting if s.arrival <= now]
            # Policy-initiated (voluntary) preemption, e.g. a
            # higher-priority arrival displacing a low-priority
            # sequence when every slot is taken.  The victim's memory
            # frees immediately; it rejoins the front of the queue.
            if active and arrived:
                free_slots = self.max_active - len(active)
                victims = list(
                    policy.preemptions(arrived, active, now, free_slots)
                )
                for victim in victims:
                    if victim not in active:
                        raise ValueError(
                            f"policy {policy.name!r} named a preemption "
                            "victim that is not an active sequence"
                        )
                    active.remove(victim)
                    self._preempt(victim)
                    waiting.appendleft(victim)

            jobs: list[_Job] = []
            joining: list[_Sequence] = []
            stepping: list[_Sequence] = []
            # Decode first: running sequences have priority over
            # admission for whatever blocks are free (otherwise a
            # preempted-then-readmitted request could steal the very
            # blocks its preemption freed and starve older sequences —
            # a livelock).  A dry pool defers the starved sequence to
            # the next step.  In speculative mode an in-flight
            # sequence's "step" is a whole verification pass (drafts
            # appended provisionally, planned atomically); it degrades
            # to a draft-free pass before it defers.  The policy picks
            # which active sequences run this step (normally all).
            scheduled = list(policy.step_order(active, now))
            for seq in scheduled:
                if seq not in active:
                    raise ValueError(
                        f"policy {policy.name!r} scheduled a sequence "
                        "that is not active"
                    )
            for seq in scheduled:
                if self.speculative:
                    try:
                        pending = self._require_speculator().plan_with_fallback(
                            seq.live_state, seq.step_input, seq.remaining,
                            draft=seq.draft,
                        )
                    except BlockPoolExhausted:
                        self.deferrals += 1
                        continue
                    seq.pending_pass = pending
                    job = pending.job
                elif paged:
                    try:
                        job = engine._plan_step(seq.live_state, seq.step_input)
                    except BlockPoolExhausted:
                        self.deferrals += 1
                        continue
                else:
                    job = engine._plan_step(seq.live_state, seq.step_input)
                jobs.append(job)
                stepping.append(seq)
            # Admission: fill the remaining slots with waiting requests'
            # prefills.  The policy picks the next candidate from the
            # *arrived* waiting requests (queue order preserved); the
            # first candidate that cannot get memory ends admission for
            # this step (deferral).  Paged mode admits whenever the
            # request's first block fits (free blocks >= 1) and rolls
            # the prefill back — deferring the request — if the pool
            # runs dry mid-prompt.
            while waiting and len(active) + len(joining) < self.max_active:
                arrived = [s for s in waiting if s.arrival <= now]
                if not arrived:
                    break
                seq = policy.admit_next(arrived, active + joining, now)
                if seq is None:
                    break
                if seq not in arrived:
                    raise ValueError(
                        f"policy {policy.name!r} admitted a sequence that "
                        "is not waiting-and-arrived"
                    )
                if pool is not None:
                    # Admission charges only *unshared* blocks: a
                    # request whose leading prompt blocks are already
                    # cached can enter a dry pool — its prefill adopts
                    # those blocks instead of allocating, and if the
                    # unshared remainder runs the pool dry mid-prompt
                    # the ordinary rollback-and-defer path below
                    # applies.
                    if pool.free_blocks < 1 and not (
                        self.prefix_caching
                        and self._prefix_cached_blocks(seq.request, pool)
                    ):
                        break
                    state = engine.start(
                        seq.request, pool=pool, prefix=self.prefix_caching
                    )
                else:
                    state = self._open_contiguous(seq.request)
                    if state is None:
                        break
                waiting.remove(seq)
                seq.state = state
                if self.speculative and seq.draft is None:
                    seq.draft = self.draft_factory()
                admission_clock += 1
                seq.admitted_at = admission_clock
                if paged:
                    try:
                        job = engine._plan_prefill(state)
                    except BlockPoolExhausted:
                        state.cache.reset()
                        seq.reset_progress()
                        self.deferrals += 1
                        waiting.appendleft(seq)
                        break
                else:
                    job = engine._plan_prefill(state)
                jobs.append(job)
                joining.append(seq)

            if not jobs:
                if active:
                    # Every in-flight sequence is starved: the policy
                    # picks a preemption victim (FCFS: the most
                    # recently admitted — recomputation frees its
                    # blocks now, it restarts from the prompt).
                    victim = policy.select_victim(active, now)
                    if victim not in active:
                        raise ValueError(
                            f"policy {policy.name!r} named a preemption "
                            "victim that is not an active sequence"
                        )
                    active.remove(victim)
                    self._preempt(victim)
                    waiting.appendleft(victim)
                    continue
                if all(s.arrival > now for s in waiting):
                    # Idle: nothing in flight and nothing has arrived
                    # yet — jump the virtual clock to the next arrival.
                    now = min(s.arrival for s in waiting)
                    continue
                raise BlockPoolExhausted(
                    "scheduler wedged: no request fits the memory budget "
                    "even with nothing in flight"
                )

            scheduler_steps += 1
            in_flight = joining + active
            peak_active = max(peak_active, len(in_flight))
            if pool is not None:
                peak_kv_slots = max(
                    peak_kv_slots, pool.in_use * pool.block_size
                )
                peak_fragmentation = max(
                    peak_fragmentation, pool.fragmentation_slots
                )
            else:
                peak_kv_slots = max(
                    peak_kv_slots,
                    sum(s.live_state.cache.capacity for s in in_flight),
                )
                peak_fragmentation = max(
                    peak_fragmentation,
                    sum(s.live_state.cache.fragmentation_slots
                        for s in in_flight),
                )

            results, cycles = engine._execute(jobs)
            packed_cycles += cycles
            step_cycles.append(cycles)
            now += float(cycles)
            step_index = scheduler_steps - 1

            for seq, result in zip(stepping + joining, results):
                if seq.prefill_result is None:
                    prefill = engine._wrap_prefill(result)
                    seq.prefill_result = prefill
                    seq.next_x = prefill.outputs[-1]
                    if seq.first_token_step < 0:
                        # The prefill's last output is the request's
                        # first visible token; preserved across
                        # preemption (recomputation replays the same
                        # token), so TTFT is the first landing.
                        seq.first_token_step = step_index
                        seq.first_token_time = now
                    if self.speculative:
                        draft = seq.draft
                        assert draft is not None  # built at admission
                        # Seed the draft with the prompt trajectory, in
                        # the exact order solo speculative generate does.
                        for position, (x_row, out_row) in enumerate(
                            zip(seq.request.x, prefill.outputs)
                        ):
                            draft.observe(x_row, out_row, position)
                elif self.speculative:
                    staged = seq.pending_pass
                    assert staged is not None  # planned this very step
                    new_steps, pass_result = (
                        self._require_speculator().finish_verify_pass(
                            staged, result, draft=seq.draft
                        )
                    )
                    seq.pending_pass = None
                    seq.steps.extend(new_steps)
                    seq.passes.append(pass_result)
                    seq.next_x = new_steps[-1].output
                    seq.remaining -= len(new_steps)
                else:
                    step = engine._wrap_step(result)
                    seq.steps.append(step)
                    seq.next_x = step.output
                    seq.remaining -= 1

            survivors: list[_Sequence] = []
            for seq in joining + active:
                if seq.remaining > 0:
                    survivors.append(seq)
                    continue
                seq.finish_step = step_index
                seq.finish_time = now
                if paged:
                    seq.live_state.cache.reset()  # blocks back to the pool
                else:
                    self._release_page(seq.live_state.cache)
                generated = (
                    np.stack([s.output for s in seq.steps])
                    if seq.steps
                    else np.zeros((0, seq.request.hidden))
                )
                if self.speculative:
                    from repro.core.speculative import (
                        SpeculativeGenerateResult,
                    )

                    counters = seq.finished_prefill.counters
                    for pass_result in seq.passes:
                        counters = counters.merge(pass_result.counters)
                    slots[seq.index] = SpeculativeGenerateResult(
                        prefill=seq.finished_prefill,
                        steps=tuple(seq.steps),
                        passes=tuple(seq.passes),
                        generated=generated,
                        vector_cycles=seq.finished_prefill.vector_cycles
                        + sum(p.vector_cycles for p in seq.passes),
                        sequential_vector_cycles=(
                            seq.finished_prefill.vector_cycles
                            + sum(s.vector_cycles for s in seq.steps)
                        ),
                        counters=counters,
                    )
                    continue
                counters = seq.finished_prefill.counters
                for step in seq.steps:
                    counters = counters.merge(step.counters)
                slots[seq.index] = GenerateResult(
                    prefill=seq.finished_prefill,
                    steps=tuple(seq.steps),
                    generated=generated,
                    vector_cycles=seq.finished_prefill.vector_cycles
                    + sum(s.vector_cycles for s in seq.steps),
                    counters=counters,
                )
            active = survivors

        finished: list[GenerateResult | SpeculativeGenerateResult] = []
        for slot in slots:
            assert slot is not None  # the loop only exits once every slot fills
            finished.append(slot)
        sequential_cycles = sum(r.vector_cycles for r in finished)
        return ContinuousBatchResult(
            results=tuple(finished),
            packed_vector_cycles=packed_cycles,
            sequential_vector_cycles=sequential_cycles,
            scheduler_steps=scheduler_steps,
            counters=engine.unit._lifetime_counters().diff(before),
            pages_allocated=self.pages_allocated - pages_allocated_before,
            pages_recycled=self.pages_recycled - pages_recycled_before,
            peak_active=peak_active,
            peak_kv_slots=peak_kv_slots,
            peak_fragmentation_slots=peak_fragmentation,
            deferrals=self.deferrals - deferrals_before,
            preemptions=self.preemptions - preemptions_before,
            paging=pool.pool_info() if pool is not None else None,
            first_token_steps=tuple(s.first_token_step for s in sequences),
            finish_steps=tuple(s.finish_step for s in sequences),
            first_token_times=tuple(s.first_token_time for s in sequences),
            finish_times=tuple(s.finish_time for s in sequences),
            step_cycles=tuple(step_cycles),
        )
