"""Paged KV cache: a global block pool plus per-request block tables.

PR 3's decode memory model was "one contiguous page per request, sized
for the worst case": admission reserved ``max_seq_len`` slots up front,
so short requests stranded memory and heterogeneous batches could not
share the pool.  This module replaces that with the vLLM-style layout
the ROADMAP names:

* :class:`BlockPool` — owns **all** KV storage as fixed-size blocks of
  ``block_size`` token slots (``NovaConfig.kv_block_size`` sets the
  default).  Blocks are allocated and freed by id; the pool never
  reallocates, so an append is always a row write into a live block.
* :class:`BlockTable` — one per request: the ordered list of physical
  block ids holding the request's logical token positions, plus the
  offset of the first live token inside the first block (sliding-window
  eviction advances the offset and frees whole head blocks).
* :class:`PagedKVCache` — presents the exact
  :class:`~repro.core.decode.KVCache` API (``append`` / ``evict`` /
  ``truncate`` / ``keys`` / ``values`` / ``values_snapshot`` /
  ``reset``) on top of the block-table indirection, so the decode
  engines run unchanged on either cache.  ``truncate`` is the
  speculative-decode rollback path: rejected draft tokens free whole
  tail blocks back to the pool.

Prefix caching
--------------
Blocks are reference counted, so block tables of different requests may
point at the **same** physical block.  A cached K/V row is a pure
function of the prompt rows and the key/value projections — never of
``wq``/``wo`` — so requests sharing a prompt prefix hold bit-identical
storage in their leading full blocks.  :func:`prefix_block_keys` turns
that into content keys (one chained digest per full prompt block); the
pool keeps a key → block index (:meth:`BlockPool.register_prefix` /
:meth:`BlockPool.lookup_prefix` / :meth:`BlockPool.probe_prefix`), and
:meth:`PagedKVCache.adopt_prefix` lets a fresh cache take shared
references on the longest cached run before prefill.  Adopted slots
skip the storage write on append (the rows are already there,
bit-identical by key construction) while every cycle/counter stays
exactly what uncached prefill produces.  The first write into a block
someone else references copies it first (:meth:`PagedKVCache.fork`
creates whole copy-on-write twins), so sharing is never observable in
the numerics — only in pool residency.

Numerics contract
-----------------
Paging changes **where** K/V rows live, never their values: ``keys`` /
``values`` / ``values_snapshot`` gather the live span into a fresh
contiguous array holding bit-identical floats in the same order a
contiguous :class:`~repro.core.decode.KVCache` would present, so every
downstream GEMV (scores, context) is bit-exact between the two layouts.
The equivalence gate in ``tests/test_paging.py`` pins this per Table II
preset, and the golden traces prove the cycle/counter accounting is
untouched.

Accounting
----------
The pool tracks cumulative ``blocks_allocated`` / ``blocks_freed``,
current ``in_use`` / ``free``, ``peak_in_use`` and the fragmentation
metric (allocated-but-unused token slots: block slots held by live
caches that no cached token occupies).  Sharing adds ``blocks_shared``
/ ``shared_frees`` (references taken and dropped without moving a
physical block), ``cow_copies``, and the prefix-index counters
(``prefix_hits`` / ``prefix_misses`` / ``prefix_index_size``).
``live_tokens`` stays *logical* — an adopted slot counts for every
cache presenting it — so under sharing ``fragmentation_slots`` can go
negative: that deficit **is** the deduplication win (tokens served
minus slots resident).  :meth:`BlockPool.pool_info` reports them all,
:func:`pool_cache_info` aggregates across every live pool in the
process (surfaced through
:meth:`repro.core.session.NovaSession.cache_info`), and the invariants
``n_blocks == in_use + free`` and
``blocks_allocated - blocks_freed == in_use`` are pinned by the suite.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections.abc import Callable, Sequence

import numpy as np

__all__ = [
    "BlockPool",
    "BlockPoolExhausted",
    "BlockTable",
    "PagedKVCache",
    "blocks_needed",
    "prefix_block_keys",
    "worst_case_blocks",
    "pool_cache_info",
]


class BlockPoolExhausted(RuntimeError):
    """Allocating from a :class:`BlockPool` with no free blocks."""


#: Every live pool in the process, for :func:`pool_cache_info`.
_LIVE_POOLS: "weakref.WeakSet[BlockPool]" = weakref.WeakSet()
_POOLS_LOCK = threading.Lock()
_POOLS_CREATED = 0


def blocks_needed(tokens: int, block_size: int) -> int:
    """Blocks required to hold ``tokens`` consecutive token slots."""
    return -(-tokens // block_size)


def worst_case_blocks(
    total_tokens: int, window: int | None, block_size: int
) -> int:
    """Most blocks one request can hold at once over its lifetime.

    Windowless requests keep every appended token.  Windowed requests
    keep at most ``window`` tokens, which can straddle one extra block
    while the head offset walks through the first block — but never
    more than the unwindowed bound.

    The windowless bound needs no such straddle block because no engine
    path evicts a windowless cache: the only eviction is a windowed
    append sliding its window.  A caller that does call ``evict`` on a
    windowless :class:`PagedKVCache` (it is allowed) walks the head
    offset exactly as a window does and may then hold one block more.
    """
    if window is None or total_tokens <= window:
        return blocks_needed(total_tokens, block_size)
    return min(
        blocks_needed(window, block_size) + 1,
        blocks_needed(total_tokens, block_size),
    )


def prefix_block_keys(
    x: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    n_heads: int,
    block_size: int,
) -> tuple[bytes, ...]:
    """Content keys of a prompt's full KV blocks, for prefix sharing.

    A cached K/V row is ``x @ wk`` / ``x @ wv`` split into ``n_heads``
    heads — ``wq`` and ``wo`` shape queries and outputs, never cached
    rows — so two requests agreeing on the projections and their first
    ``i * block_size`` prompt rows hold bit-identical storage in their
    first ``i`` blocks.  Key ``i`` chains the digest of block ``i``'s
    prompt rows onto key ``i - 1`` (seeded with the geometry and the
    projection bytes), so equal keys certify equal *whole prefixes*,
    not merely equal blocks.  Only full blocks get keys: a partial tail
    block also receives divergent suffix and generated rows and is
    never shareable.
    """
    if n_heads < 1:
        raise ValueError(f"n_heads must be >= 1, got {n_heads}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    x64 = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    wk64 = np.ascontiguousarray(np.asarray(wk, dtype=np.float64))
    wv64 = np.ascontiguousarray(np.asarray(wv, dtype=np.float64))
    seed = hashlib.sha256()
    # The hidden width (not the prompt length!) is part of the seed so
    # a longer request sharing the same leading rows produces the same
    # leading keys.
    seed.update(
        repr(
            (n_heads, block_size, x64.shape[1:], wk64.shape, wv64.shape)
        ).encode()
    )
    seed.update(wk64.tobytes())
    seed.update(wv64.tobytes())
    digest = seed.digest()
    keys: list[bytes] = []
    for i in range(x64.shape[0] // block_size):
        chained = hashlib.sha256(digest)
        chained.update(x64[i * block_size : (i + 1) * block_size].tobytes())
        digest = chained.digest()
        keys.append(digest)
    return tuple(keys)


class BlockPool:
    """All KV storage for one geometry, as fixed-size blocks.

    Storage is two preallocated ``(n_blocks, n_heads, block_size,
    head_dim)`` float64 arrays (keys and values); a block id indexes the
    leading axis.  :meth:`allocate` pops a free id (raising
    :class:`BlockPoolExhausted` when the pool is dry — the caller's
    deferral/preemption policy decides what happens next), :meth:`free`
    returns it (double-free raises ``ValueError``).

    Blocks carry a reference count: :meth:`allocate` hands out count 1,
    :meth:`share` takes one more reference on a live block, and
    :meth:`free` only returns the block physically once the last
    reference drops (earlier frees just decrement).  The prefix index
    (:meth:`register_prefix` / :meth:`lookup_prefix` /
    :meth:`probe_prefix` / :meth:`forget_prefix`) maps content keys to
    live blocks so later requests can find and share an already-filled
    prefix block; an entry disappears with the physical free of its
    block or on the first write that changes the block's content.

    ``live_tokens`` is maintained by the :class:`PagedKVCache` instances
    drawing from the pool; ``fragmentation_slots`` — the paged analogue
    of the contiguous layout's stranded worst-case pages — is the gap
    between the slots held (``in_use * block_size``) and the tokens
    logically cached (negative under sharing: the dedup win).
    """

    def __init__(
        self, n_heads: int, head_dim: int, block_size: int, n_blocks: int
    ) -> None:
        if n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {n_heads}")
        if head_dim < 1:
            raise ValueError(f"head_dim must be >= 1, got {head_dim}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.block_size = block_size
        self.n_blocks = n_blocks
        self._k = np.zeros((n_blocks, n_heads, block_size, head_dim))
        self._v = np.zeros((n_blocks, n_heads, block_size, head_dim))
        self._free: list[int] = list(range(n_blocks - 1, -1, -1))
        self._live = np.zeros(n_blocks, dtype=bool)
        self._refcount: list[int] = [0] * n_blocks
        self._prefix_index: dict[bytes, int] = {}
        self._block_keys: dict[int, bytes] = {}
        self.blocks_allocated = 0
        self.blocks_freed = 0
        self.blocks_shared = 0
        self.shared_frees = 0
        self.cow_copies = 0
        self.prefix_hits = 0
        self.prefix_misses = 0
        self.peak_in_use = 0
        self.live_tokens = 0
        global _POOLS_CREATED
        with _POOLS_LOCK:
            _POOLS_CREATED += 1
            _LIVE_POOLS.add(self)

    # -- geometry -------------------------------------------------------

    @property
    def block_bytes(self) -> int:
        """Bytes one block occupies (keys plus values, float64)."""
        return 2 * 8 * self.n_heads * self.block_size * self.head_dim

    @classmethod
    def from_bytes(
        cls, n_heads: int, head_dim: int, block_size: int, pool_bytes: int
    ) -> "BlockPool":
        """The largest pool fitting a byte budget (>= 1 block required)."""
        block_bytes = 2 * 8 * n_heads * block_size * head_dim
        n_blocks = pool_bytes // block_bytes
        if n_blocks < 1:
            raise ValueError(
                f"pool_bytes ({pool_bytes}) smaller than one "
                f"{block_size}-token block ({block_bytes} bytes)"
            )
        return cls(n_heads, head_dim, block_size, n_blocks)

    # -- allocation -----------------------------------------------------

    @property
    def free_blocks(self) -> int:
        """Blocks available for allocation right now."""
        return len(self._free)

    @property
    def in_use(self) -> int:
        """Blocks currently held by block tables."""
        return self.n_blocks - len(self._free)

    def allocate(self) -> int:
        """Pop a free block id; raises :class:`BlockPoolExhausted` dry."""
        if not self._free:
            raise BlockPoolExhausted(
                f"block pool dry: all {self.n_blocks} blocks of "
                f"{self.block_size} tokens are in use (defer the request "
                "or preempt a sequence to free blocks)"
            )
        block = self._free.pop()
        self._live[block] = True
        self._refcount[block] = 1
        self.blocks_allocated += 1
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        return block

    def share(self, block: int) -> int:
        """Take one more reference on a live block (prefix sharing).

        The physical block stays where it is; a later :meth:`free`
        through any holder just drops the reference until the last one
        returns the block for real.  Sharing a freed block raises
        ``ValueError``.
        """
        if not 0 <= block < self.n_blocks:
            raise ValueError(
                f"block id {block} outside pool of {self.n_blocks} blocks"
            )
        if not self._live[block]:
            raise ValueError(
                f"cannot share freed block {block}: only live blocks can "
                "gain references"
            )
        self._refcount[block] += 1
        self.blocks_shared += 1
        return block

    def refcount(self, block: int) -> int:
        """Current references on a block (0 for a free block)."""
        if not 0 <= block < self.n_blocks:
            raise ValueError(
                f"block id {block} outside pool of {self.n_blocks} blocks"
            )
        return self._refcount[block]

    def free(self, block: int) -> None:
        """Drop one reference; the last one returns the block physically.

        Freeing an already-free block raises ``ValueError`` (the
        classic double free); a shared block just decrements and counts
        a ``shared_free``.  The physical free also retires the block's
        prefix-index entry, so the index never points at free storage.
        """
        if not 0 <= block < self.n_blocks:
            raise ValueError(
                f"block id {block} outside pool of {self.n_blocks} blocks"
            )
        if not self._live[block]:
            raise ValueError(
                f"double free of block {block}: it is already in the free "
                "list"
            )
        if self._refcount[block] > 1:
            self._refcount[block] -= 1
            self.shared_frees += 1
            return
        self.forget_prefix(block)
        self._refcount[block] = 0
        self._live[block] = False
        self._free.append(block)
        self.blocks_freed += 1

    # -- prefix index ---------------------------------------------------

    def register_prefix(self, key: bytes, block: int) -> None:
        """Publish a live block as the holder of a prefix content key.

        First registration wins: a key already in the index (another
        request filled the same prefix block first) and a block already
        published under some key are both left untouched — the index is
        an accelerator, never an obligation.
        """
        if not 0 <= block < self.n_blocks or not self._live[block]:
            raise ValueError(
                f"cannot register a prefix on non-live block {block}"
            )
        if key in self._prefix_index or block in self._block_keys:
            return
        self._prefix_index[key] = block
        self._block_keys[block] = key

    def forget_prefix(self, block: int) -> None:
        """Retire the index entry published for a block, if any.

        Called on physical free and before the first content-changing
        write into a registered block; a no-op for unpublished blocks.
        """
        key = self._block_keys.pop(block, None)
        if key is not None:
            del self._prefix_index[key]

    def lookup_prefix(self, key: bytes) -> int | None:
        """The live block published under ``key``, counting hit/miss.

        The adoption-path lookup: every call moves ``prefix_hits`` or
        ``prefix_misses``.  Side-effect-free callers (admission
        estimates) should use :meth:`probe_prefix` instead.
        """
        block = self._prefix_index.get(key)
        if block is None:
            self.prefix_misses += 1
        else:
            self.prefix_hits += 1
        return block

    def probe_prefix(self, keys: Sequence[bytes]) -> int:
        """How many *leading* keys are cached right now (read-only).

        No counters move and no references are taken — this is the
        scheduler's admission estimate of what
        :meth:`PagedKVCache.adopt_prefix` would adopt.
        """
        count = 0
        for key in keys:
            if key not in self._prefix_index:
                break
            count += 1
        return count

    # -- storage views --------------------------------------------------

    def keys_of(self, block: int) -> np.ndarray:
        """Key storage of one live block, ``(n_heads, block_size, head_dim)``."""
        return self._k[block]

    def values_of(self, block: int) -> np.ndarray:
        """Value storage of one live block, same shape as :meth:`keys_of`."""
        return self._v[block]

    # -- accounting -----------------------------------------------------

    @property
    def fragmentation_slots(self) -> int:
        """Allocated-but-unused token slots across all live block tables.

        Negative under prefix sharing: more tokens are logically served
        than slots are resident, and the deficit is the dedup win.
        """
        return self.in_use * self.block_size - self.live_tokens

    @property
    def shared_block_refs(self) -> int:
        """Extra references held on live blocks beyond their first.

        Zero without sharing; each adopted prefix block or forked block
        contributes its reference count minus one.
        """
        return sum(c - 1 for c in self._refcount if c > 1)

    @property
    def prefix_index_size(self) -> int:
        """Content keys currently published in the prefix index."""
        return len(self._prefix_index)

    def pool_info(self) -> dict[str, int]:
        """Every accounting counter, as one plain dict.

        Invariants (pinned by the suite): ``n_blocks == in_use + free``
        and ``blocks_allocated - blocks_freed == in_use`` — sharing
        never disturbs them, because :meth:`share` / shared
        :meth:`free` move only the reference count.
        """
        return {
            "block_size": self.block_size,
            "block_bytes": self.block_bytes,
            "n_blocks": self.n_blocks,
            "in_use": self.in_use,
            "free": self.free_blocks,
            "blocks_allocated": self.blocks_allocated,
            "blocks_freed": self.blocks_freed,
            "blocks_shared": self.blocks_shared,
            "shared_frees": self.shared_frees,
            "cow_copies": self.cow_copies,
            "prefix_hits": self.prefix_hits,
            "prefix_misses": self.prefix_misses,
            "prefix_index_size": self.prefix_index_size,
            "shared_block_refs": self.shared_block_refs,
            "peak_in_use": self.peak_in_use,
            "live_tokens": self.live_tokens,
            "fragmentation_slots": self.fragmentation_slots,
        }

    def __repr__(self) -> str:
        return (
            f"BlockPool({self.n_blocks} x {self.block_size} tokens, "
            f"{self.n_heads} heads x {self.head_dim}, "
            f"{self.in_use} in use)"
        )


def pool_cache_info() -> dict[str, int]:
    """Process-wide block-pool statistics (every live pool aggregated).

    The paging analogue of
    :func:`repro.approx.table_cache.table_cache_info`, surfaced through
    :meth:`repro.core.session.NovaSession.cache_info`.
    """
    with _POOLS_LOCK:
        pools = list(_LIVE_POOLS)
    return {
        "pools_created": _POOLS_CREATED,
        "live_pools": len(pools),
        "n_blocks": sum(p.n_blocks for p in pools),
        "in_use": sum(p.in_use for p in pools),
        "free": sum(p.free_blocks for p in pools),
        # Cumulative totals.  Every free path — window eviction
        # (:meth:`PagedKVCache.evict`), speculative rollback
        # (:meth:`PagedKVCache.truncate`) and page recycling
        # (:meth:`PagedKVCache.reset`) — goes through
        # :meth:`BlockPool.free`, so ``blocks_freed`` counts them
        # identically (the suite pins ``blocks_allocated - blocks_freed
        # == in_use`` across all three).
        "blocks_allocated": sum(p.blocks_allocated for p in pools),
        "blocks_freed": sum(p.blocks_freed for p in pools),
        "blocks_shared": sum(p.blocks_shared for p in pools),
        "shared_frees": sum(p.shared_frees for p in pools),
        "cow_copies": sum(p.cow_copies for p in pools),
        "prefix_hits": sum(p.prefix_hits for p in pools),
        "prefix_misses": sum(p.prefix_misses for p in pools),
        "prefix_index_size": sum(p.prefix_index_size for p in pools),
        "shared_block_refs": sum(p.shared_block_refs for p in pools),
        "peak_in_use": sum(p.peak_in_use for p in pools),
        "live_tokens": sum(p.live_tokens for p in pools),
        "fragmentation_slots": sum(p.fragmentation_slots for p in pools),
    }


class BlockTable:
    """Logical-to-physical mapping of one request's cached tokens.

    ``blocks[i]`` is the physical block holding logical slots
    ``[i * block_size, (i + 1) * block_size)`` of the table's own slot
    space; ``first_offset`` is the slot index of the oldest live token
    (sliding-window eviction advances it instead of shifting rows).
    """

    __slots__ = ("blocks", "first_offset")

    def __init__(self) -> None:
        self.blocks: list[int] = []
        self.first_offset = 0

    @property
    def n_blocks(self) -> int:
        """Physical blocks currently mapped."""
        return len(self.blocks)

    def physical(self, slot: int, block_size: int) -> tuple[int, int]:
        """``(block_id, offset)`` of one absolute table slot."""
        return self.blocks[slot // block_size], slot % block_size

    def __repr__(self) -> str:
        return (
            f"BlockTable({self.n_blocks} blocks, "
            f"first_offset={self.first_offset})"
        )


class PagedKVCache:
    """The :class:`~repro.core.decode.KVCache` API over a block table.

    Drop-in for the contiguous cache: same constructor-equivalent fields
    (``n_heads`` / ``head_dim`` come from the pool), same ``append`` /
    ``evict`` / ``reset`` semantics, same ``keys`` / ``values`` /
    ``values_snapshot`` shapes and values.  The differences are all on
    the memory side:

    * storage is borrowed from the shared :class:`BlockPool`, one block
      at a time, **lazily on append** — an idle request holds zero
      blocks, a short request holds ``ceil(tokens / block_size)``, never
      a worst-case page;
    * a full pool makes ``append`` raise
      :class:`BlockPoolExhausted` *before any state changes*, so the
      scheduler can defer the token and retry the same step later;
    * sliding-window eviction advances ``first_offset`` and frees whole
      head blocks back to the pool instead of shifting arrays;
    * ``reset`` frees every block (page recycling is the pool itself);
    * blocks may be *shared* with other tables: :meth:`adopt_prefix`
      takes references on already-cached prompt blocks before prefill
      (appends below ``prefix_len`` then skip the redundant storage
      write), :meth:`fork` twins the whole table, and the first write
      into any block someone else still references copies it first
      (copy-on-write), so sharing never changes a single gathered row.
    """

    def __init__(
        self,
        pool: BlockPool,
        capacity: int,
        window: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if window is not None:
            if window < 1:
                raise ValueError(f"window must be >= 1, got {window}")
            if window > capacity:
                raise ValueError(
                    f"window ({window}) cannot exceed capacity ({capacity})"
                )
        self.pool = pool
        self.capacity = capacity
        self.window = window
        self.table = BlockTable()
        self.length = 0
        self.start_position = 0
        self.evictions = 0
        #: Slots below this index are adopted shared-prefix slots: the
        #: block already holds their exact rows, so ``append`` skips
        #: the storage write.
        self.prefix_len = 0
        #: Content keys of prompt blocks this cache is still filling,
        #: by block ordinal — published to the pool's prefix index as
        #: each block completes.
        self._pending_keys: dict[int, bytes] = {}

    # -- KVCache-compatible geometry -----------------------------------

    @property
    def n_heads(self) -> int:
        """Per-token head count (the pool's)."""
        return self.pool.n_heads

    @property
    def head_dim(self) -> int:
        """Per-head width (the pool's)."""
        return self.pool.head_dim

    @property
    def block_size(self) -> int:
        """Tokens per block (the pool's)."""
        return self.pool.block_size

    @property
    def limit(self) -> int:
        """Maximum entries held at once (``window`` if set, else capacity)."""
        return self.capacity if self.window is None else self.window

    @property
    def blocks_in_use(self) -> int:
        """Physical blocks this cache currently holds."""
        return self.table.n_blocks

    @property
    def fragmentation_slots(self) -> int:
        """Slots this cache holds that no live token occupies."""
        return self.table.n_blocks * self.block_size - self.length

    def can_serve(self, n_heads: int, head_dim: int, capacity: int) -> bool:
        """Whether this cache can hold a request of the given geometry."""
        return (
            self.n_heads == n_heads
            and self.head_dim == head_dim
            and self.capacity >= capacity
        )

    # -- gathered views -------------------------------------------------

    def _gather(
        self, storage_of: Callable[[int], np.ndarray], kv_len: int
    ) -> np.ndarray:
        """First ``kv_len`` live rows as one fresh contiguous array."""
        out = np.empty((self.n_heads, kv_len, self.head_dim))
        bs = self.block_size
        start = self.table.first_offset
        stop = start + kv_len
        for i, block in enumerate(self.table.blocks):
            lo = max(start, i * bs)
            hi = min(stop, (i + 1) * bs)
            if lo >= hi:
                continue
            out[:, lo - start : hi - start] = storage_of(block)[
                :, lo - i * bs : hi - i * bs
            ]
        return out

    @property
    def keys(self) -> np.ndarray:
        """The live cached keys, ``(n_heads, length, head_dim)``
        (gathered copy — bit-identical to the contiguous layout's view)."""
        return self._gather(self.pool.keys_of, self.length)

    @property
    def values(self) -> np.ndarray:
        """The live cached values, ``(n_heads, length, head_dim)``."""
        return self._gather(self.pool.values_of, self.length)

    def values_snapshot(self, kv_len: int) -> np.ndarray:
        """Contiguous copy of the first ``kv_len`` live values (the
        decode engines' deferred-snapshot hook; see
        ``KVCache.values_snapshot``)."""
        return self._gather(self.pool.values_of, kv_len)

    # -- prefix sharing -------------------------------------------------

    def adopt_prefix(self, keys: Sequence[bytes]) -> int:
        """Adopt the longest cached run of prompt blocks before prefill.

        ``keys`` are the prompt's :func:`prefix_block_keys`.  Leading
        keys found in the pool's index are taken as shared references
        (no storage moves, no rows copied) and ``prefix_len`` rises to
        cover their slots; the remaining keys are remembered so the
        blocks this request's prefill fills get published for the next
        request.  Returns the adopted token count.

        Prefill then still computes and appends every prompt row — the
        cycle and counter accounting of an uncached prefill, exactly —
        but appends below ``prefix_len`` skip the storage write: the
        adopted block already holds bit-identical rows, by key
        construction.  Only a fresh, windowless cache can adopt
        (a sliding window evicts the prefix the keys certify).
        """
        if self.length != 0 or self.table.n_blocks != 0:
            raise ValueError(
                "adopt_prefix needs a fresh cache: nothing appended, no "
                "blocks held"
            )
        if self.window is not None:
            raise ValueError(
                "adopt_prefix does not apply to windowed caches (the "
                "sliding window evicts the certified prefix)"
            )
        bs = self.block_size
        self._pending_keys.clear()
        adopted = 0
        for i, key in enumerate(keys):
            block = self.pool.lookup_prefix(key)
            if block is None:
                for j in range(i, len(keys)):
                    self._pending_keys[j] = keys[j]
                break
            self.pool.share(block)
            self.table.blocks.append(block)
            adopted += bs
        self.prefix_len = adopted
        return adopted

    def fork(self) -> "PagedKVCache":
        """A copy-on-write twin sharing every block of this cache.

        The twin presents the same live span (same ``length`` /
        ``start_position`` / eviction history) through references to
        the *same* physical blocks; the first append either side makes
        into a still-shared block copies it first, so neither twin ever
        observes the other's writes.  The twin adopts nothing
        (``prefix_len`` 0): every one of its writes goes through the
        copy-on-write check.
        """
        twin = PagedKVCache(self.pool, self.capacity, window=self.window)
        for block in self.table.blocks:
            self.pool.share(block)
            twin.table.blocks.append(block)
        twin.table.first_offset = self.table.first_offset
        twin.length = self.length
        twin.start_position = self.start_position
        twin.evictions = self.evictions
        self.pool.live_tokens += self.length
        return twin

    def _copy_on_write(self, index: int) -> int:
        """Replace a shared block with a private copy before a write.

        The allocation comes first, so a dry pool raises
        :class:`BlockPoolExhausted` with the table untouched (the
        enclosing append stays atomic); the shared original only loses
        this table's reference.
        """
        old = self.table.blocks[index]
        new = self.pool.allocate()
        self.pool.keys_of(new)[...] = self.pool.keys_of(old)
        self.pool.values_of(new)[...] = self.pool.values_of(old)
        self.table.blocks[index] = new
        self.pool.free(old)
        self.pool.cow_copies += 1
        return new

    # -- mutation -------------------------------------------------------

    def append(self, k_t: np.ndarray, v_t: np.ndarray) -> None:
        """Append one token's per-head key/value rows.

        Identical contract to ``KVCache.append`` plus the pool
        dimension: a new block is allocated lazily when the tail slot
        crosses a block boundary, and :class:`BlockPoolExhausted`
        propagates *before any cache state changes* (no partial evict,
        no length change) — the append is atomic — so a scheduler can
        treat it as "defer this token and retry after blocks free up".

        Sharing adds three refinements, none visible to the engines:
        a slot below ``prefix_len`` (an adopted prompt slot) skips the
        storage write but still counts in ``length`` / ``live_tokens``;
        a write targeting a block other tables still reference copies
        it first (:meth:`_copy_on_write`); and filling the last slot of
        a block whose content key is pending publishes the block in the
        pool's prefix index.
        """
        from repro.core.decode import KVCacheOverflow

        expected = (self.n_heads, self.head_dim)
        k_t = np.asarray(k_t, dtype=np.float64)
        v_t = np.asarray(v_t, dtype=np.float64)
        if k_t.shape != expected or v_t.shape != expected:
            raise ValueError(
                f"expected per-token k/v of shape {expected}, got "
                f"{k_t.shape} / {v_t.shape}"
            )
        bs = self.block_size
        if self.length == self.limit:
            if self.window is None:
                raise KVCacheOverflow(
                    f"KV cache full at capacity {self.capacity} "
                    f"(position {self.start_position + self.length}); "
                    "set a window for sliding eviction or raise "
                    "max_seq_len"
                )
            # Atomicity pre-check, sharing-aware: eviction only frees a
            # *physical* block when this table holds its last reference
            # (a shared free just decrements), and the evicting append
            # needs an allocation when the tail sits on the block grid,
            # when eviction empties the table, or when the target block
            # is shared (copy-on-write).  Check the pool before
            # mutating so exhaustion leaves the cache untouched.
            tail = self.table.first_offset + self.length
            needs_block = tail == self.table.n_blocks * bs
            if self.length == 1:
                freed = sum(
                    1
                    for b in self.table.blocks
                    if self.pool.refcount(b) == 1
                )
                need_alloc = True  # the emptied table re-fills slot 0
            elif needs_block:
                head = self.table.blocks[0]
                freed = (
                    1
                    if (
                        self.table.first_offset + 1 == bs
                        and self.pool.refcount(head) == 1
                    )
                    else 0
                )
                need_alloc = True
            else:
                head = self.table.blocks[0]
                freed = (
                    1
                    if (
                        self.table.first_offset + 1 == bs
                        and self.pool.refcount(head) == 1
                    )
                    else 0
                )
                need_alloc = (
                    self.pool.refcount(self.table.blocks[tail // bs]) > 1
                )
            if need_alloc and self.pool.free_blocks + freed < 1:
                raise BlockPoolExhausted(
                    f"block pool dry: windowed append needs a block but "
                    f"all {self.pool.n_blocks} blocks are in use"
                )
            self.evict(1)
        slot = self.table.first_offset + self.length
        if slot < self.prefix_len:
            # Adopted prompt slot: the shared block already holds these
            # exact rows (equal content keys), so only the logical
            # accounting moves — bit-for-bit what an uncached append
            # would have stored.
            self.length += 1
            self.pool.live_tokens += 1
            return
        if slot == self.table.n_blocks * bs:
            self.table.blocks.append(self.pool.allocate())
        block, offset = self.table.physical(slot, bs)
        if self.pool.refcount(block) > 1:
            block = self._copy_on_write(slot // bs)
        self.pool.forget_prefix(block)
        self.pool.keys_of(block)[:, offset] = k_t
        self.pool.values_of(block)[:, offset] = v_t
        self.length += 1
        self.pool.live_tokens += 1
        if self._pending_keys and (slot + 1) % bs == 0:
            key = self._pending_keys.pop(slot // bs, None)
            if key is not None:
                self.pool.register_prefix(key, block)

    def evict(self, n: int) -> None:
        """Drop the ``n`` oldest cached tokens, freeing whole head
        blocks back to the pool (``start_position`` advances exactly as
        in the contiguous cache; no rows are shifted).  A shared head
        block only loses this table's reference.  Atomic: an
        out-of-range ``n`` raises before any state changes."""
        if not 0 <= n <= self.length:
            raise ValueError(
                f"cannot evict {n} of {self.length} cached tokens"
            )
        if n == 0:
            return
        bs = self.block_size
        self.table.first_offset += n
        self.length -= n
        self.start_position += n
        self.evictions += n
        self.pool.live_tokens -= n
        while self.table.first_offset >= bs and self.table.blocks:
            self.pool.free(self.table.blocks.pop(0))
            self.table.first_offset -= bs
            self.prefix_len = max(0, self.prefix_len - bs)
        if self.length == 0:
            # nothing live: release the (dead-slot-only) tail block too
            for block in self.table.blocks:
                self.pool.free(block)
            self.table.blocks.clear()
            self.table.first_offset = 0
            self.prefix_len = 0
        # Eviction moves the slot grid under the pending ordinals;
        # publishing is best-effort, so drop them rather than remap.
        self._pending_keys.clear()

    def truncate(self, n: int) -> None:
        """Drop the ``n`` *newest* cached tokens (speculative rollback).

        The tail-side complement of :meth:`evict`: rejected draft
        tokens are rolled back by truncating the live span and freeing
        whole tail blocks — through the same :meth:`BlockPool.free`
        path window eviction uses, so ``blocks_freed`` / ``live_tokens``
        accounting cannot drift between the two.  A shared tail block
        only loses this table's reference (the other holder keeps its
        rows).  ``start_position`` (the head side) is untouched; an
        append after a truncate writes over the rolled-back slots
        exactly as the contiguous cache does — copying first if the
        target block is still shared, and retiring the block's
        published prefix key since its content diverges.  Atomic: an
        out-of-range ``n`` raises before any state changes.
        """
        if not 0 <= n <= self.length:
            raise ValueError(
                f"cannot truncate {n} of {self.length} cached tokens"
            )
        if n == 0:
            return
        bs = self.block_size
        self.length -= n
        self.pool.live_tokens -= n
        self._pending_keys.clear()
        if self.length == 0:
            # nothing live: release every block (as evict-to-empty does)
            for block in self.table.blocks:
                self.pool.free(block)
            self.table.blocks.clear()
            self.table.first_offset = 0
            self.prefix_len = 0
            return
        keep = blocks_needed(self.table.first_offset + self.length, bs)
        while self.table.n_blocks > keep:
            self.pool.free(self.table.blocks.pop())
        self.prefix_len = min(
            self.prefix_len, self.table.first_offset + self.length
        )

    def reset(self) -> None:
        """Empty the cache and return every block (reference) to the pool."""
        for block in self.table.blocks:
            self.pool.free(block)
        self.table.blocks.clear()
        self.table.first_offset = 0
        self.pool.live_tokens -= self.length
        self.length = 0
        self.start_position = 0
        self.evictions = 0
        self.prefix_len = 0
        self._pending_keys.clear()

    def __repr__(self) -> str:
        return (
            f"PagedKVCache({self.n_heads} heads x {self.capacity} x "
            f"{self.head_dim}, length={self.length}, "
            f"blocks={self.table.n_blocks} x {self.block_size}"
            + (f", window={self.window}" if self.window is not None else "")
            + ")"
        )
