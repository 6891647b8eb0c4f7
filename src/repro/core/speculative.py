"""Speculative decode on the NOVA overlay: draft-and-verify over paged KV.

Every output token of the plain decode path costs one full pass through
the overlay — one exp stream, one reciprocal stream, one table retarget
each — even though a single decode row rarely fills the lane grid.
Speculative decode amortises that per-step overhead the same way the
prefill path amortises a whole prompt: a cheap **draft model** proposes
the next ``k`` token embeddings, the engine appends them to the KV cache
as *provisional* tokens, and one **packed verification pass** scores all
``k + 1`` positions in a single overlay traversal (the fold-small-ops-
into-one-pass idea the ROADMAP names).  Accepted drafts commit; the
rejected suffix rolls back atomically by truncating the cache — on a
:class:`~repro.core.paging.PagedKVCache` that frees whole tail blocks
back to the shared pool.

Why this is bit-exact by construction
-------------------------------------
The decode loop is deterministic: the next token's embedding *is* the
attention output at the last position.  A verification pass feeds the
chain ``u_0 = x_t, u_1 = d_1, ..., u_k = d_k`` (``d_i`` drafted) through
the exact per-token numerics of :class:`~repro.core.decode.
NovaDecodeEngine` and obtains the true outputs ``o_0 ... o_k``.  Draft
``d_i`` is **accepted only when it equals ``o_{i-1}`` bit for bit** — in
which case position ``i``'s input was exactly what plain decode would
have fed, so ``o_i`` is exactly what plain decode would have produced.
The first mismatch truncates: positions past it attended to a wrong
input, so their cache rows and outputs are discarded.  Committed outputs
are therefore *always* the plain-decode outputs, for **any** draft model
— a bad draft costs cycles (rolled-back work), never correctness.  The
property suite pins this under arbitrary accept/reject programs
(:class:`ScheduledDraft`), and ``u_0`` guarantees at least one committed
token per pass.

Draft models
------------
:class:`TruncatedTableDraft` re-runs the per-token host numerics through
the *same compiled LUT objects* the engine holds (``QuantizedPwl.
evaluate`` is the golden model the hardware is bit-exact against), so at
``fidelity=1.0`` every proposal verifies bit-identically with zero
overlay cost.  ``fidelity < 1.0`` drafts a seeded, per-position fraction
of tokens through the same LUTs at *reduced output precision* instead —
those proposals disagree and are rejected, making ``fidelity`` the
long-run acceptance-rate knob the serving studies sweep (the simulator
stand-in for draft-model quality).  :class:`NGramDraft` is the
model-free alternative: it replays the output last seen after a
matching (reduced-precision-keyed) input, which starts paying off once
a self-fed trajectory revisits states.  :class:`ScheduledDraft` follows
an explicit accept/reject program — the test and golden-trace
instrument.

The table drafts propose a whole tree level per parent in one shared
host step: the alternatives of one parent differ only in the final
rounding of the two LUT outputs, so the q projection, the key gather,
the scores and the exp LUT run once per parent, and the softmax tail,
the reciprocal LUT, the value gather and the context and output
products run once over the distinct roundings stacked on a leading
axis.  That is exact by the batching rules of
:mod:`repro.core.decode`: the LUTs and the rounding are elementwise,
every stacked row has the same length (so its reductions sum in the
same order), and the matmuls are stacks of singleton-row products — so
each alternative is bit-identical to its own
:func:`host_step_output` call.  The fidelity coins are memoised per
position: every node of a level drafts at the same absolute position,
so each ``(position, alternative)`` coin is drawn once per level.
Rounding to as many fraction bits as the tables output (Q5.10: 10) is
a no-op, so ``reduced_bits`` must stay below that, and an inexact
alternative whose ``reduced_bits + j`` would reach it is not proposed.

Tree speculation
----------------
A linear chain stops paying at the first miss: one wrong draft wastes
the whole suffix.  A :class:`DraftTree` (``spec_tree="2x2,1x4"`` style
specs, :func:`repro.core.config.parse_tree_spec`) proposes several
*alternative* drafts per depth instead and scores the whole tree in the
same single packed pass.  Every tree node appends as a provisional
token under its own branch cache — an only child extends its parent's
branch in place, siblings each get a ``fork()`` of the parent cache (on
the paged layer a copy-on-write :class:`~repro.core.paging.BlockTable`
fork: shared prefixes stay at refcount, not copy) — so each node's
gathered KV span is exactly its ancestor chain.  That *is* the
tree-causal attention mask, realised structurally rather than
arithmetically (:func:`tree_causal_mask` materialises it); one
whole-batch ``table_gather_mac`` launch per phase scores every branch
at once.  The commit step walks the tree accepting, per depth, the
child drafted bit-identical to its parent's true output, keeps that
longest-accepted branch, and rolls every other branch back through the
existing truncate/release path — zero leaked pool blocks for any
accept pattern (a pinned property).  A width-1 tree plans no forks at
all and degenerates to exactly the linear ``spec_k`` chain, which pins
backward compatibility bit-for-bit.

Accounting
----------
Each verification pass is charged what the overlay actually spends (the
packed closed form over *all* pass tokens, rolled-back ones included);
:class:`SpeculativeGenerateResult` additionally reports the closed-form
**sequential-equivalent** cycles — exactly what plain ``generate`` would
have charged for the same committed tokens (a pinned invariant) — plus
drafted / accepted / rolled-back token counts per pass and in total.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np

from repro.core.attention import (
    assemble_probabilities,
    shift_scores,
    softmax_reduction,
)
from repro.core.config import (
    DRAFT_KINDS,
    NovaConfig,
    as_config,
    parse_tree_spec,
)
from repro.core.decode import (
    CausalPrefillResult,
    DecodeRequest,
    DecodeState,
    KVCacheOverflow,
    NovaDecodeEngine,
    _Job,
    project_token,
    scores_for_query,
)
from repro.noc.stats import EventCounters

if TYPE_CHECKING:
    from repro.approx.quantize import QuantizedPwl
    from repro.core.decode import KVCacheLike, _JobResult, _TokenPlan
    from repro.core.paging import BlockPool
    from repro.core.vector_unit import NovaVectorUnit

__all__ = [
    "DraftModel",
    "DraftTree",
    "NGramDraft",
    "TruncatedTableDraft",
    "ScheduledDraft",
    "build_draft",
    "host_step_output",
    "tree_causal_mask",
    "SpeculativeStepResult",
    "VerifyPassResult",
    "SpeculativeGenerateResult",
    "SpeculativeDecodeEngine",
]


# ----------------------------------------------------------------------
# The exact per-token step on the host (the draft models' substrate).
# ----------------------------------------------------------------------


def host_step_output(
    request: DecodeRequest,
    cache: KVCacheLike,
    x_t: np.ndarray,
    exp_table: QuantizedPwl,
    recip_table: QuantizedPwl,
    drop_to_bits: int | None = None,
) -> np.ndarray:
    """One decode step's attention output, computed entirely on the host.

    ``cache`` must already hold ``x_t``'s k/v row (the engine appends
    before asking for a proposal).  With the engine's own compiled
    tables and ``drop_to_bits=None`` this reproduces the verification
    pass **bit for bit**: the helpers are the single shared copies the
    engine executes (:func:`~repro.core.decode.scores_for_query`,
    :func:`~repro.core.attention.softmax_reduction`, ...) and
    ``QuantizedPwl.evaluate`` is the golden model the overlay is
    bit-exact against.  ``drop_to_bits=b`` rounds both non-linear
    results to ``b`` fraction bits — the same LUTs at reduced
    precision, which is how :class:`TruncatedTableDraft` models a
    lower-fidelity draft.  This is the one-setting case of the drafts'
    shared step, :func:`_host_step_outputs`.
    """
    return _host_step_outputs(
        request, cache, x_t, exp_table, recip_table, [drop_to_bits]
    )[0]


def _host_step_outputs(
    request: DecodeRequest,
    cache: KVCacheLike,
    x_t: np.ndarray,
    exp_table: QuantizedPwl,
    recip_table: QuantizedPwl,
    drops: Sequence[int | None],
) -> list[np.ndarray]:
    """:func:`host_step_output` once per entry of ``drops``, sharing work.

    Everything up to the first rounding is computed once: the q
    projection (k/v are never needed — the cache already holds them),
    one key gather, the scores and the exp LUT.  The tail then runs
    once over the *distinct* settings stacked on a leading axis: one
    :func:`softmax_reduction`, one reciprocal LUT call, one
    :func:`assemble_probabilities`, and stacked singleton-row context
    and output matmuls.  Each entry is bit-identical to a lone call,
    by the exactness rules of :mod:`repro.core.decode`: the q GEMV is
    ``project_token``'s own singleton-row matmul, the LUTs and the
    rounding are elementwise, every setting's rows have the same
    length (so each row's reductions sum in the same order), and the
    context and output products are stacks of singleton-row matmuls.
    Returns one owned array per entry of ``drops``.
    """
    x_t = np.asarray(x_t, dtype=np.float64).reshape(-1)
    settings = list(dict.fromkeys(drops))
    bits = np.array(
        [-1 if b is None else b for b in settings], dtype=np.int64
    ).reshape(-1, 1, 1)
    q = np.matmul(x_t.reshape(1, 1, -1), request.wq).reshape(
        request.n_heads, -1
    )
    raw = exp_table.evaluate(shift_scores(scores_for_query(q, cache.keys)))
    numer, mantissa, exponent = softmax_reduction(_drop_bits(raw[None], bits))
    inv = _drop_bits(recip_table.evaluate(mantissa), bits)
    probs = assemble_probabilities(numer, inv, exponent)
    context = np.matmul(
        probs[:, :, None, :], cache.values_snapshot(cache.length)
    )
    outputs = np.matmul(
        context.reshape(len(settings), 1, request.hidden), request.wo
    )[:, 0]
    row = {b: i for i, b in enumerate(settings)}
    return [outputs[row[b]].copy() for b in drops]


def _drop_bits(values: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """``values`` rounded to ``bits[i]`` fraction bits per leading row
    ``i``; a negative entry keeps its row exact (``values`` broadcasts
    along the leading axis)."""
    exact = bits < 0
    if exact.all():
        return values
    rounded = np.ldexp(np.round(np.ldexp(values, bits)), -bits)
    return rounded if not exact.any() else np.where(exact, values, rounded)


def _require_integer(name: str, value: object) -> None:
    """Reject a bool or non-integral knob (numpy integers pass)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(
            f"{name} must be an integer, got "
            f"{type(value).__name__} {value!r}"
        )


# ----------------------------------------------------------------------
# Draft trees.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DraftTree:
    """The branching plan of one tree-speculative verification pass.

    ``widths[i]`` is how many alternative drafts every surviving branch
    proposes at depth ``i + 1`` (the root ``u_0`` is depth 0 and always
    a single true token).  ``DraftTree.linear(k)`` — all widths 1 — is
    the degenerate tree: it plans the exact linear ``spec_k`` chain,
    fork-free.  Identical sibling proposals are deduplicated at plan
    time, so a draft that cannot produce ``widths[i]`` distinct
    alternatives simply grows a narrower level — the tree is a budget,
    not a quota.
    """

    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        for w in self.widths:
            _require_integer("draft-tree width", w)
        widths = tuple(int(w) for w in self.widths)
        object.__setattr__(self, "widths", widths)
        if not widths:
            raise ValueError("a draft tree needs at least one level")
        if any(w < 1 for w in widths):
            raise ValueError(
                f"draft-tree widths must be >= 1, got {widths}"
            )
        # Reuse the spec parser's node cap (it validates the same sum).
        parse_tree_spec(self.spec)

    @classmethod
    def parse(cls, spec: str) -> DraftTree:
        """Build from a ``"2x2,1x4"``-style spec string
        (:func:`repro.core.config.parse_tree_spec`)."""
        return cls(parse_tree_spec(spec))

    @classmethod
    def linear(cls, k: int) -> DraftTree:
        """The degenerate width-1 tree: a linear chain of ``k`` drafts."""
        _require_integer("k", k)
        if k < 1:
            raise ValueError(f"a linear chain needs k >= 1, got {k}")
        return cls((1,) * k)

    @property
    def depth(self) -> int:
        """Draft levels planned below the root."""
        return len(self.widths)

    @property
    def max_nodes(self) -> int:
        """Draft nodes a full (no-dedup, no-limit) tree would plan."""
        nodes = 0
        level = 1
        for width in self.widths:
            level *= width
            nodes += level
        return nodes

    @property
    def is_linear(self) -> bool:
        """Whether this is the degenerate (fork-free) chain."""
        return all(w == 1 for w in self.widths)

    @property
    def spec(self) -> str:
        """The canonical ``WIDTHxCOUNT`` spec string (run-length form)."""
        segments: list[str] = []
        for width in self.widths:
            prior = segments[-1] if segments else None
            if prior is not None and prior.startswith(f"{width}x"):
                count = int(prior.split("x")[1]) + 1
                segments[-1] = f"{width}x{count}"
            else:
                segments.append(f"{width}x1")
        return ",".join(segments)

    def __str__(self) -> str:
        return self.spec

    def __repr__(self) -> str:
        return f"DraftTree({self.spec!r})"


# ----------------------------------------------------------------------
# Draft models.
# ----------------------------------------------------------------------


@runtime_checkable
class DraftModel(Protocol):
    """What the speculative engine needs from a draft.

    ``propose(request, cache, x_t, position)`` predicts the attention
    output of token ``x_t`` at absolute ``position`` (the cache already
    holds ``x_t``'s k/v row); the prediction becomes the next drafted
    input.  ``observe(x_t, output, position)`` feeds back every
    *committed* (input, true output) pair so stateful drafts can learn
    the trajectory; ``reset()`` clears per-request state.  Proposals
    must be deterministic in ``(cache state, x_t, position)`` — the
    continuous batcher relies on that to stay result-identical to
    one-at-a-time speculative decode.

    Drafts may additionally implement the optional tree extension
    ``propose_candidates(request, cache, x_t, position, width)``
    returning up to ``width`` alternative proposals for one
    :class:`DraftTree` level (the in-tree drafts all do).  It is not
    part of the protocol: a plain linear draft works under any tree —
    wide levels just degrade to its single :meth:`propose` answer.
    """

    def propose(
        self,
        request: DecodeRequest,
        cache: KVCacheLike,
        x_t: np.ndarray,
        position: int,
    ) -> np.ndarray: ...

    def observe(
        self, x_t: np.ndarray, output: np.ndarray, position: int
    ) -> None: ...

    def reset(self) -> None: ...


class _HostTableDraft:
    """Shared base of the drafts that re-run the engine's LUTs on the host.

    Holds the compiled exp/reciprocal tables and the reduced precision.
    Rounding to ``b`` fraction bits changes nothing once ``b`` reaches
    the tables' output fraction bits (Q5.10 outputs on every preset:
    10), so ``reduced_bits`` must stay below that limit, and an inexact
    alternative whose ``reduced_bits + j`` reaches it is not proposed
    at all — it would silently be the exact answer.
    """

    def __init__(
        self, config: NovaConfig | str | None, reduced_bits: int
    ) -> None:
        _require_integer("reduced_bits", reduced_bits)
        if reduced_bits < 0:
            raise ValueError(
                f"reduced_bits must be >= 0, got {reduced_bits}"
            )
        cfg = as_config(config)
        self._exp = cfg.table("exp")
        self._recip = cfg.table("reciprocal")
        self._bits_limit = max(
            self._exp.output_format.fraction_bits,
            self._recip.output_format.fraction_bits,
        )
        if reduced_bits >= self._bits_limit:
            raise ValueError(
                f"reduced_bits must be < {self._bits_limit}, the tables' "
                f"output fraction bits (rounding to {reduced_bits} bits "
                f"would draft the exact answer), got {reduced_bits}"
            )
        self.reduced_bits = int(reduced_bits)

    def _proposals(
        self,
        request: DecodeRequest,
        cache: KVCacheLike,
        x_t: np.ndarray,
        exact: Iterable[bool],
    ) -> list[np.ndarray]:
        """Alternative ``j`` of ``exact``: the exact step, or the step
        rounded to ``reduced_bits + j`` fraction bits (skipped once that
        reaches the tables' output precision).  One shared host step
        serves them all."""
        drops: list[int | None] = []
        for j, is_exact in enumerate(exact):
            if is_exact:
                drops.append(None)
            elif self.reduced_bits + j < self._bits_limit:
                drops.append(self.reduced_bits + j)
        return _host_step_outputs(
            request, cache, x_t, self._exp, self._recip, drops
        )


class TruncatedTableDraft(_HostTableDraft):
    """Draft by re-running the engine's compiled LUTs on the host.

    At ``fidelity=1.0`` (the default) every proposal runs the exact
    per-token numerics through the very table objects the engine
    compiled — bit-identical to the verification output, so every draft
    is accepted: the draft pays host arithmetic, the overlay pays one
    packed pass per ``spec_k + 1`` tokens.  At ``fidelity < 1.0`` a
    seeded per-position coin drafts the complementary fraction through
    the same LUTs truncated to ``reduced_bits`` output fraction bits;
    those proposals miss verification, so ``fidelity`` is the long-run
    acceptance rate of a uniformly-mixed workload — the knob standing
    in for draft-model quality in the serving studies.  The coin is
    keyed on ``(seed, absolute position)``, never on pass boundaries,
    so acceptance decisions are identical no matter how steps are
    grouped into passes or scheduler steps.
    """

    def __init__(
        self,
        config: NovaConfig | str | None = None,
        fidelity: float = 1.0,
        seed: int = 0,
        reduced_bits: int = 4,
    ) -> None:
        if not 0.0 <= fidelity <= 1.0:
            raise ValueError(f"fidelity must be in [0, 1], got {fidelity}")
        _require_integer("seed", seed)
        super().__init__(config, reduced_bits)
        self.fidelity = float(fidelity)
        self.seed = int(seed)
        # The coin draws of one position, by alternative: every node of
        # a tree level drafts at the same position, so each (position,
        # alternative) coin is drawn once per level, not once per node.
        self._coin_key: tuple[int, int] | None = None
        self._coins: dict[int, float] = {}

    def _exact(self, position: int, alternative: int = 0) -> bool:
        if self.fidelity >= 1.0:
            return True
        if self.fidelity <= 0.0:
            return False
        if self._coin_key != (self.seed, position):
            self._coin_key = (self.seed, position)
            self._coins = {}
        draw = self._coins.get(alternative)
        if draw is None:
            # Alternative 0 keeps the historical (seed, position) key so
            # a width-1 tree draws the exact coins the linear chain
            # always has; siblings flip independent coins.
            key = (
                (self.seed, position)
                if alternative == 0
                else (self.seed, position, alternative)
            )
            draw = np.random.default_rng(key).random()
            self._coins[alternative] = draw
        return bool(draw < self.fidelity)

    def propose(
        self,
        request: DecodeRequest,
        cache: KVCacheLike,
        x_t: np.ndarray,
        position: int,
    ) -> np.ndarray:
        return self._proposals(
            request, cache, x_t, [self._exact(position)]
        )[0]

    def propose_candidates(
        self,
        request: DecodeRequest,
        cache: KVCacheLike,
        x_t: np.ndarray,
        position: int,
        width: int,
    ) -> list[np.ndarray]:
        """Up to ``width`` alternative proposals for one tree level.

        Alternative ``j`` flips its own fidelity coin (independent per
        sibling, still keyed on absolute position only, so acceptance is
        pass-grouping invariant) and, when inexact, truncates to
        ``reduced_bits + j`` fraction bits — distinct wrong siblings
        rather than ``width`` copies of the same miss.  An inexact
        alternative whose ``reduced_bits + j`` reaches the tables'
        output fraction bits is left out.  Alternative 0 is
        bit-identical to :meth:`propose`.
        """
        return self._proposals(
            request, cache, x_t,
            [self._exact(position, j) for j in range(width)],
        )

    def observe(
        self, x_t: np.ndarray, output: np.ndarray, position: int
    ) -> None:
        pass

    def reset(self) -> None:
        self._coin_key = None
        self._coins = {}

    def __repr__(self) -> str:
        return (
            f"TruncatedTableDraft(fidelity={self.fidelity:g}, "
            f"seed={self.seed}, reduced_bits={self.reduced_bits})"
        )


class NGramDraft:
    """Model-free draft: replay the output last seen after this input.

    Committed ``(input, output)`` pairs are memoised under a
    reduced-precision key of the input embedding
    (``round(x * 2**key_bits)``); a proposal is the stored follower of
    the matching key, falling back to persistence (propose ``x_t``
    itself) on a miss.  Deterministic and overlay-free; it starts
    earning acceptances when a self-fed trajectory converges or revisits
    states bit-exactly — otherwise every pass still commits its one
    guaranteed token and the engine degrades gracefully toward plain
    decode (plus the rolled-back draft work).
    """

    def __init__(self, key_bits: int = 10, max_history: int = 65536) -> None:
        _require_integer("key_bits", key_bits)
        _require_integer("max_history", max_history)
        if key_bits < 0:
            raise ValueError(f"key_bits must be >= 0, got {key_bits}")
        if max_history < 1:
            raise ValueError(f"max_history must be >= 1, got {max_history}")
        self.key_bits = int(key_bits)
        self.max_history = int(max_history)
        self._history: dict[bytes, np.ndarray] = {}

    def _key(self, x: np.ndarray) -> bytes:
        return (
            np.round(np.ldexp(np.asarray(x, dtype=np.float64), self.key_bits))
            .astype(np.int64)
            .tobytes()
        )

    def propose(
        self,
        request: DecodeRequest,
        cache: KVCacheLike,
        x_t: np.ndarray,
        position: int,
    ) -> np.ndarray:
        hit = self._history.get(self._key(x_t))
        return np.array(x_t if hit is None else hit, dtype=np.float64)

    def propose_candidates(
        self,
        request: DecodeRequest,
        cache: KVCacheLike,
        x_t: np.ndarray,
        position: int,
        width: int,
    ) -> list[np.ndarray]:
        """Up to two alternatives: the learned follower, then persistence.

        An n-gram table has exactly one follower per key, so the only
        extra hedge a tree buys it is proposing ``x_t`` itself alongside
        a history hit (on a miss the two coincide).  Narrower than
        ``width`` is fine — the tree prunes.
        """
        hit = self._history.get(self._key(x_t))
        candidates = [np.array(x_t if hit is None else hit, dtype=np.float64)]
        if hit is not None and width > 1:
            candidates.append(np.array(x_t, dtype=np.float64))
        return candidates

    def observe(
        self, x_t: np.ndarray, output: np.ndarray, position: int
    ) -> None:
        key = self._key(x_t)
        if key not in self._history and len(self._history) >= self.max_history:
            # Evict the single oldest entry (dict insertion order), not
            # the whole history: a full wipe cratered acceptance to zero
            # every time a long generation crossed the max_history
            # boundary.
            del self._history[next(iter(self._history))]
        self._history[key] = np.array(output, dtype=np.float64)

    def reset(self) -> None:
        self._history.clear()

    def __repr__(self) -> str:
        return (
            f"NGramDraft(key_bits={self.key_bits}, "
            f"history={len(self._history)})"
        )


class ScheduledDraft(_HostTableDraft):
    """Follow an explicit accept/reject program (test/golden instrument).

    Entry ``i`` of ``program`` decides draft ``i`` of the run (cycling):
    ``True`` proposes through the exact host numerics (bit-identical —
    accepted at verification), ``False`` through the reduced-precision
    path (rejected).  This turns "arbitrary accept/reject/rollback
    sequences" into data the property suite can draw with hypothesis and
    the golden fixtures can pin per preset.
    """

    def __init__(
        self,
        config: NovaConfig | str | None,
        program: Iterable[object],
        reduced_bits: int = 4,
    ) -> None:
        super().__init__(config, reduced_bits)
        self.program = tuple(bool(p) for p in program)
        if not self.program:
            raise ValueError("program must contain at least one decision")
        self._cursor = 0

    def _decisions(self, n: int) -> list[bool]:
        decisions = [
            self.program[(self._cursor + i) % len(self.program)]
            for i in range(n)
        ]
        self._cursor += n
        return decisions

    def propose(
        self,
        request: DecodeRequest,
        cache: KVCacheLike,
        x_t: np.ndarray,
        position: int,
    ) -> np.ndarray:
        return self._proposals(request, cache, x_t, self._decisions(1))[0]

    def propose_candidates(
        self,
        request: DecodeRequest,
        cache: KVCacheLike,
        x_t: np.ndarray,
        position: int,
        width: int,
    ) -> list[np.ndarray]:
        """Up to ``width`` alternatives, each consuming one program
        decision.

        Trees visit nodes level by level in planning order, so the
        program maps onto tree nodes deterministically — which is what
        lets the golden fixtures pin an exact acceptance trace per
        preset.  Inexact alternatives truncate to ``reduced_bits + j``
        so two ``False`` decisions yield two *distinct* wrong siblings;
        duplicate ``True`` decisions dedup to one accepted child.  An
        inexact alternative whose ``reduced_bits + j`` reaches the
        tables' output fraction bits still consumes its decision but
        proposes nothing.
        """
        return self._proposals(request, cache, x_t, self._decisions(width))

    def observe(
        self, x_t: np.ndarray, output: np.ndarray, position: int
    ) -> None:
        pass

    def reset(self) -> None:
        self._cursor = 0

    def __repr__(self) -> str:
        bits = "".join("1" if p else "0" for p in self.program)
        return f"ScheduledDraft(program={bits}, cursor={self._cursor})"


def build_draft(
    kind: str,
    config: NovaConfig | str | None = None,
    **kwargs: Any,
) -> DraftModel:
    """Construct one of the named :data:`~repro.core.config.DRAFT_KINDS`.

    ``"truncated-table"`` forwards ``config`` plus any
    :class:`TruncatedTableDraft` kwargs (``fidelity`` / ``seed`` /
    ``reduced_bits``); ``"ngram"`` takes :class:`NGramDraft` kwargs.
    """
    if kind == "truncated-table":
        return TruncatedTableDraft(config, **kwargs)
    if kind == "ngram":
        return NGramDraft(**kwargs)
    raise ValueError(
        f"unknown draft kind {kind!r}; known: {sorted(DRAFT_KINDS)}"
    )


# ----------------------------------------------------------------------
# Results.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpeculativeStepResult:
    """One *committed* token of a speculative run.

    ``vector_cycles`` / ``nonlinear_queries`` are the closed-form
    sequential equivalent — exactly what a dedicated
    :meth:`~repro.core.decode.NovaDecodeEngine.decode_step` would have
    charged for this token (the overlay's real spend lives on the pass,
    see :class:`VerifyPassResult`).  ``drafted`` marks tokens whose
    *input* came from an accepted draft rather than the previous
    committed output directly.
    """

    output: np.ndarray            # (hidden,)
    probabilities: np.ndarray     # (n_heads, kv_length)
    position: int
    kv_length: int
    drafted: bool
    vector_cycles: int
    nonlinear_queries: int


@dataclass(frozen=True)
class VerifyPassResult:
    """One draft-and-verify round trip through the overlay.

    ``tokens`` positions went through the packed pass (``drafted`` of
    them provisional); ``committed = accepted + 1`` survived (``u_0`` is
    always committed), ``rolled_back`` were truncated from the cache.
    ``vector_cycles`` / ``counters`` are what the overlay actually
    charged for the whole pass, rolled-back work included.
    """

    tokens: int
    drafted: int
    accepted: int
    committed: int
    rolled_back: int
    vector_cycles: int
    nonlinear_queries: int
    counters: EventCounters


@dataclass(frozen=True)
class SpeculativeGenerateResult:
    """Prefill plus speculative draft-and-verify generation.

    ``generated`` is **bit-identical** to plain
    :meth:`~repro.core.decode.NovaDecodeEngine.generate` of the same
    request — for any draft model.  ``vector_cycles`` is the overlay's
    real spend (prefill + every packed verification pass, rolled-back
    work included); ``sequential_vector_cycles`` the closed-form cost
    plain generate would have charged for the same tokens (a pinned
    invariant: it equals the plain run's ``vector_cycles`` exactly), so
    ``cycle_speedup`` isolates the speculation win on the cycle side.
    """

    prefill: CausalPrefillResult
    steps: tuple[SpeculativeStepResult, ...]
    passes: tuple[VerifyPassResult, ...]
    generated: np.ndarray         # (n_generated, hidden)
    vector_cycles: int
    sequential_vector_cycles: int
    counters: EventCounters

    @property
    def n_generated(self) -> int:
        """Tokens generated after the prompt."""
        return len(self.steps)

    @property
    def verify_passes(self) -> int:
        """Verification passes run."""
        return len(self.passes)

    @property
    def drafted_tokens(self) -> int:
        """Draft proposals made across every pass."""
        return sum(p.drafted for p in self.passes)

    @property
    def accepted_tokens(self) -> int:
        """Draft proposals that verified bit-exactly."""
        return sum(p.accepted for p in self.passes)

    @property
    def rolled_back_tokens(self) -> int:
        """Provisional tokens truncated from the cache."""
        return sum(p.rolled_back for p in self.passes)

    @property
    def acceptance_rate(self) -> float:
        """Accepted fraction of drafted tokens (0.0 with no drafts)."""
        drafted = self.drafted_tokens
        return self.accepted_tokens / drafted if drafted else 0.0

    @property
    def tokens_per_pass(self) -> float:
        """Mean committed tokens per verification pass (>= 1)."""
        return self.n_generated / max(1, self.verify_passes)

    @property
    def decode_vector_cycles(self) -> int:
        """Overlay cycles spent in verification passes only."""
        return self.vector_cycles - self.prefill.vector_cycles

    @property
    def cycle_speedup(self) -> float:
        """Sequential-equivalent cycles per actually-charged cycle."""
        if self.vector_cycles == 0:
            return 1.0
        return self.sequential_vector_cycles / self.vector_cycles


def _draft_candidates(
    draft: DraftModel,
    request: DecodeRequest,
    cache: KVCacheLike,
    x_t: np.ndarray,
    position: int,
    width: int,
) -> list[np.ndarray]:
    """One tree level's deduplicated draft proposals for one branch.

    Width-1 levels call :meth:`DraftModel.propose` directly — the exact
    call the linear chain has always made, which is what keeps the
    degenerate tree bit-and-accounting-identical to ``spec_k``
    speculation.  Wider levels use the draft's optional
    ``propose_candidates(request, cache, x_t, position, width)``
    extension when it has one (every in-tree draft does), falling back
    to the single :meth:`~DraftModel.propose` answer otherwise — a
    plain linear draft still works under any tree, it just never fills
    the extra width.  Bit-identical siblings collapse to one child:
    they would verify identically, so planning both buys nothing.
    """
    if width == 1:
        raw = [draft.propose(request, cache, x_t, position)]
    else:
        proposer = getattr(draft, "propose_candidates", None)
        if proposer is None:
            raw = [draft.propose(request, cache, x_t, position)]
        else:
            raw = list(proposer(request, cache, x_t, position, width))[:width]
    candidates: list[np.ndarray] = []
    seen: set[bytes] = set()
    for proposal in raw:
        d = np.asarray(proposal, dtype=np.float64).reshape(-1)
        key = d.tobytes()
        if key not in seen:
            seen.add(key)
            candidates.append(d)
    return candidates


class _TreeNode:
    """One planned pass token: the root ``u_0`` or a provisional draft.

    ``state`` is the branch this node's k/v row was appended through —
    the request's live :class:`~repro.core.decode.DecodeState` for the
    root and every only-child below it (``in_state``), a shadow state
    over a cache fork for every sibling branch.
    """

    __slots__ = (
        "parent", "embedding", "token_index", "state", "in_state",
        "children",
    )

    def __init__(
        self,
        parent: _TreeNode | None,
        embedding: np.ndarray,
        token_index: int,
        state: DecodeState,
        in_state: bool,
    ) -> None:
        self.parent = parent
        self.embedding = embedding
        self.token_index = token_index
        self.state = state
        self.in_state = in_state
        self.children: list[_TreeNode] = []


def tree_causal_mask(spec_pass: _SpecPass) -> np.ndarray:
    """The pass's tree-causal attention mask over its planned tokens.

    ``mask[i, j]`` is True exactly when pass token ``i`` attends to
    pass token ``j`` — i.e. when ``j`` is ``i`` or one of its tree
    ancestors (every token also attends to the whole committed prefix,
    which is shared by construction).  The packed verification launch
    realises this mask *structurally*: each branch's forked block table
    gathers only that branch's ancestor rows, so the single
    whole-batch ``table_gather_mac`` call per phase scores every branch
    with no masking arithmetic.  Exposed for tests and docs; the
    engine never materialises it.
    """
    n = len(spec_pass.nodes)
    mask = np.zeros((n, n), dtype=bool)
    for node in spec_pass.nodes:
        cursor: _TreeNode | None = node
        while cursor is not None:
            mask[node.token_index, cursor.token_index] = True
            cursor = cursor.parent
    return mask


class _SpecPass:
    """One planned verification pass (a draft tree) awaiting execution.

    ``nodes`` is every planned token in job order (the root first,
    then level by level); ``drafts`` the draft embeddings in the same
    order (the linear chain's historical view of the pass); ``forks``
    the branch caches to release at finish; ``in_state_tokens`` how
    many pass tokens were appended to the live state's own cache.
    """

    __slots__ = (
        "job", "x0", "drafts", "state", "root", "nodes", "forks",
        "in_state_tokens",
    )

    def __init__(
        self,
        job: _Job,
        x0: np.ndarray,
        root: _TreeNode,
        nodes: list[_TreeNode],
        forks: list[KVCacheLike],
        in_state_tokens: int,
    ) -> None:
        self.job = job
        self.x0 = x0
        self.root = root
        self.nodes = nodes
        self.forks = forks
        self.in_state_tokens = in_state_tokens
        self.drafts = [node.embedding for node in nodes[1:]]
        self.state = job.state


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------


class SpeculativeDecodeEngine:
    """Draft-and-verify decode wrapping one :class:`NovaDecodeEngine`.

    ``engine`` is an existing decode engine (shared with the plain
    paths — same unit, same tables, same caches) or anything its
    constructor accepts (a :class:`~repro.core.config.NovaConfig`, a
    preset name, ``None``).  ``spec_k`` / ``draft`` default from the
    engine's config (``config.spec_k`` drafts through
    :func:`build_draft`'s ``config.draft_kind``).  ``tree`` switches a
    pass from the linear chain to a :class:`DraftTree` (a tree object
    or a ``"2x2,1x4"`` spec string; defaults to ``config.spec_tree``,
    and to the degenerate ``DraftTree.linear(spec_k)`` chain when that
    is ``None`` too).

    The primitive pair :meth:`plan_verify_pass` /
    :meth:`finish_verify_pass` is what the continuous batcher fuses
    with in-flight plain decodes; :meth:`generate` is the solo loop.
    """

    def __init__(
        self,
        engine: NovaDecodeEngine | NovaConfig | str | None = None,
        draft: DraftModel | None = None,
        spec_k: int | None = None,
        tree: DraftTree | str | None = None,
    ) -> None:
        if not isinstance(engine, NovaDecodeEngine):
            engine = NovaDecodeEngine(engine)
        self.engine = engine
        cfg = engine.config
        if spec_k is not None:
            _require_integer("spec_k", spec_k)
        self.spec_k = cfg.spec_k if spec_k is None else int(spec_k)
        if self.spec_k < 1:
            raise ValueError(
                f"spec_k must be >= 1 (a pass of one draft), got "
                f"{self.spec_k}; use the plain decode engine for "
                "non-speculative serving"
            )
        if tree is None:
            tree = cfg.spec_tree
        if tree is None:
            self.tree = DraftTree.linear(self.spec_k)
        elif isinstance(tree, str):
            self.tree = DraftTree.parse(tree)
        else:
            self.tree = tree
        self._draft = draft

    @property
    def draft(self) -> DraftModel:
        """The engine's default draft model.

        Built lazily from ``config.draft_kind`` when none was passed:
        callers that supply their own draft on every call (the
        continuous batcher holds one per sequence) never construct the
        default.
        """
        if self._draft is None:
            cfg = self.engine.config
            self._draft = build_draft(cfg.draft_kind, cfg)
        return self._draft

    @property
    def config(self) -> NovaConfig:
        """The wrapped engine's geometry."""
        return self.engine.config

    @property
    def unit(self) -> NovaVectorUnit:
        """The wrapped engine's shared vector unit."""
        return self.engine.unit

    def start(
        self,
        request: DecodeRequest,
        cache: KVCacheLike | None = None,
        pool: BlockPool | None = None,
        prefix: bool = False,
    ) -> DecodeState:
        """Open a decode state (delegates to the wrapped engine).

        ``prefix=True`` adopts cached prompt blocks exactly as the
        plain engine does; speculative rollback composes with sharing
        because :meth:`~repro.core.paging.PagedKVCache.truncate` only
        drops this request's *references* on shared tail blocks.
        """
        return self.engine.start(request, cache=cache, pool=pool,
                                 prefix=prefix)

    # ------------------------------------------------------------------
    # The draft-and-verify primitives.
    # ------------------------------------------------------------------

    @staticmethod
    def _rollback(state: DecodeState, n: int) -> None:
        if n:
            state.cache.truncate(n)
            state.position -= n

    def plan_verify_pass(
        self,
        state: DecodeState,
        x_t: np.ndarray,
        budget: int,
        draft: DraftModel | None = None,
        max_drafts: int | None = None,
    ) -> _SpecPass:
        """Stage one verification pass: ``x_t`` plus the draft tree's
        provisional tokens, all appended as cached k/v rows.

        The tree grows level by level.  An only child extends its
        parent's branch cache in place; siblings each append under a
        ``fork()`` of the parent cache (copy-on-write block sharing on
        the paged layer), so every node's gathered KV span is exactly
        its ancestor chain — the tree-causal mask, structurally
        (:func:`tree_causal_mask`).  All planned tokens form **one**
        job: the engine's packed execute scores the whole tree in a
        single ``table_gather_mac`` launch per phase.  A width-1 tree
        takes the historical linear path exactly (same proposal calls,
        no forks).

        ``budget`` caps the pass at the tokens still owed (a pass never
        commits more than ``budget``, so the tree is clipped to
        ``budget - 1`` levels; ``max_drafts`` clips levels the same
        way — ``0`` plans just ``u_0``).  A branch stops growing at its
        cache's window limit — provisional tokens must never evict,
        because eviction cannot be rolled back.  The plan is
        **atomic**: any failure (draft shape mismatch,
        ``BlockPoolExhausted`` on a provisional block or fork, a
        raising draft model) releases every fork and rolls the cache,
        the pool and the position back to their pre-pass state before
        the exception propagates.
        """
        draft = self.draft if draft is None else draft
        if budget < 1:
            raise ValueError(f"pass budget must be >= 1, got {budget}")
        engine = self.engine
        request = state.request
        x_t = np.asarray(x_t, dtype=np.float64).reshape(-1)
        # Shape-checked before any state change (the engine's own check
        # inside _plan_token would fire too, but only after reshaping).
        if x_t.shape[0] != request.hidden:
            raise ValueError(
                f"token embedding must have hidden width {request.hidden}, "
                f"got {x_t.shape[0]}"
            )
        widths = self.tree.widths
        if max_drafts is not None:
            widths = widths[: max(0, max_drafts)]
        widths = widths[: budget - 1]
        tokens: list[_TokenPlan] = []
        nodes: list[_TreeNode] = []
        forks: list[KVCacheLike] = []
        in_state = 0
        try:
            tokens.append(engine._plan_token(state, x_t))
            in_state = 1
            root = _TreeNode(None, x_t, 0, state, True)
            nodes.append(root)
            frontier = [root]
            for width in widths:
                next_frontier: list[_TreeNode] = []
                for node in frontier:
                    cache = node.state.cache
                    if cache.length >= cache.limit:
                        # Branch at its window limit: one more
                        # provisional append would evict.
                        continue
                    candidates = _draft_candidates(
                        draft, request, cache, node.embedding,
                        node.state.position - 1, width,
                    )
                    for d in candidates:
                        if d.shape[0] != request.hidden:
                            raise ValueError(
                                f"draft proposed an embedding of width "
                                f"{d.shape[0]}, expected {request.hidden}"
                            )
                    if len(candidates) == 1:
                        # An only child extends the branch in place.
                        child_states = [node.state]
                    else:
                        child_states = []
                        for _ in candidates:
                            fork = cache.fork()
                            forks.append(fork)
                            shadow = DecodeState(request, fork)
                            shadow.position = node.state.position
                            child_states.append(shadow)
                    for d, child_state in zip(candidates, child_states):
                        tokens.append(engine._plan_token(child_state, d))
                        child = _TreeNode(
                            node, d, len(tokens) - 1, child_state,
                            child_state is state,
                        )
                        if child.in_state:
                            in_state += 1
                        nodes.append(child)
                        node.children.append(child)
                        next_frontier.append(child)
                frontier = next_frontier
                if not frontier:
                    break
        except BaseException:
            # Atomic rollback: forks release their block references,
            # then the in-place appends truncate.  Only u_0's append
            # can have evicted (and only when the cache sat exactly at
            # its window limit, in which case no level ever grew, so
            # nothing can raise after it), so this restores cache, pool
            # and position exactly.
            for fork in forks:
                fork.reset()
            self._rollback(state, in_state)
            raise
        return _SpecPass(
            _Job(state, "verify", tokens), x_t, root, nodes, forks, in_state
        )

    def finish_verify_pass(
        self,
        spec_pass: _SpecPass,
        result: _JobResult,
        draft: DraftModel | None = None,
    ) -> tuple[list[SpeculativeStepResult], VerifyPassResult]:
        """Commit the longest-accepted branch, roll back every other.

        ``result`` is the pass's ``_JobResult`` from
        :meth:`NovaDecodeEngine._execute`.  The walk starts at the root
        and, at each depth, descends into the child whose drafted
        embedding equals the parent's true output bit for bit (siblings
        are deduplicated at plan time, so at most one can match); the
        walked path is the longest accepted branch.  Returns its
        committed steps (at least one — ``u_0``'s input is the true
        previous output by construction) and the pass accounting.
        Before returning, every branch fork releases its block
        references, the live cache truncates the in-place tokens the
        path does not cover, and the path's fork-resident rows are
        re-appended to the live cache (recomputing the k/v projection
        is deterministic, hence bit-identical to the rows the released
        fork held) — zero pool blocks leak for any accept pattern.
        """
        draft = self.draft if draft is None else draft
        state = spec_pass.state
        tokens = spec_pass.job.tokens
        outputs = result.outputs
        path = [spec_pass.root]
        node = spec_pass.root
        while True:
            out = outputs[node.token_index]
            match = None
            for child in node.children:
                if np.array_equal(child.embedding, out):
                    match = child
                    break
            if match is None:
                break
            path.append(match)
            node = match
        accepted = len(path) - 1
        committed = accepted + 1
        rolled_back = len(tokens) - committed
        # Forks first (shared tail blocks drop to their surviving
        # refcounts), then the in-place suffix beyond the accepted
        # in-place prefix truncates — the accepted path can only leave
        # the live cache for a fork, never come back, so the in-place
        # tokens it covers are exactly a prefix.
        for fork in spec_pass.forks:
            fork.reset()
        kept_in_state = sum(1 for n in path if n.in_state)
        self._rollback(state, spec_pass.in_state_tokens - kept_in_state)
        request = state.request
        for n in path:
            if not n.in_state:
                _, k_t, v_t = project_token(
                    n.embedding, request.wq, request.wk, request.wv,
                    request.n_heads,
                )
                state.cache.append(k_t, v_t)
                state.position += 1
        lanes = self.engine.n_lanes
        heads = request.n_heads
        steps: list[SpeculativeStepResult] = []
        for i, n in enumerate(path):
            probs = result.probabilities[n.token_index]
            kv_len = probs.shape[-1]
            n_exp = heads * kv_len
            steps.append(
                SpeculativeStepResult(
                    # a copy: a row view would keep the whole pass's
                    # output matrix alive for the life of the result
                    output=outputs[n.token_index].copy(),
                    probabilities=probs,
                    position=tokens[n.token_index].position,
                    kv_length=kv_len,
                    drafted=i > 0,
                    vector_cycles=-(-n_exp // lanes) + -(-heads // lanes),
                    nonlinear_queries=n_exp + heads,
                )
            )
            draft.observe(
                n.embedding, outputs[n.token_index],
                tokens[n.token_index].position,
            )
        return steps, VerifyPassResult(
            tokens=len(tokens),
            drafted=len(spec_pass.drafts),
            accepted=accepted,
            committed=committed,
            rolled_back=rolled_back,
            vector_cycles=result.vector_cycles,
            nonlinear_queries=result.nonlinear_queries,
            counters=result.counters,
        )

    def plan_with_fallback(
        self,
        state: DecodeState,
        x_t: np.ndarray,
        budget: int,
        draft: DraftModel | None = None,
    ) -> _SpecPass:
        """Plan a pass, degrading to draft-free on pool exhaustion.

        Speculation is opportunistic: when the block pool cannot hold
        the provisional tokens, a pass of just ``u_0`` (one plain decode
        step's worth of memory) still makes progress.  Only when even
        that cannot allocate does :class:`~repro.core.paging.
        BlockPoolExhausted` propagate (with cache and pool untouched) —
        the scheduler's cue to defer or preempt.
        """
        from repro.core.paging import BlockPoolExhausted

        try:
            return self.plan_verify_pass(state, x_t, budget, draft=draft)
        except BlockPoolExhausted:
            return self.plan_verify_pass(
                state, x_t, budget, draft=draft, max_drafts=0
            )

    # ------------------------------------------------------------------
    # The solo loop.
    # ------------------------------------------------------------------

    def generate(
        self,
        request: DecodeRequest,
        max_new_tokens: int | None = None,
        state: DecodeState | None = None,
        draft: DraftModel | None = None,
    ) -> SpeculativeGenerateResult:
        """Prefill, then generate speculatively until the budget is met.

        Bit-identical outputs to the wrapped engine's
        :meth:`~repro.core.decode.NovaDecodeEngine.generate` for the
        same request, with the same admission-time validation.
        """
        engine = self.engine
        new_tokens = (
            request.max_new_tokens
            if max_new_tokens is None
            else max_new_tokens
        )
        if new_tokens < 0:
            raise ValueError(
                f"max_new_tokens must be >= 0, got {new_tokens}"
            )
        if request.window is None and request.seq + new_tokens > request.capacity:
            raise KVCacheOverflow(
                f"generate needs {request.seq + new_tokens} cache slots "
                f"({request.seq} prompt + {new_tokens} new) but the "
                f"request's capacity is {request.capacity}; shorten "
                "max_new_tokens, raise max_seq_len, or set a sliding "
                "window"
            )
        draft = self.draft if draft is None else draft
        draft.reset()
        if state is None:
            state = engine.start(request)
        before = engine.unit._lifetime_counters()
        pre = engine.prefill(state)
        # Seed stateful drafts with the prompt's own (input, output)
        # trajectory, exactly as the committed steps will extend it.
        for position, (x_row, out_row) in enumerate(
            zip(request.x, pre.outputs)
        ):
            draft.observe(x_row, out_row, position)
        steps: list[SpeculativeStepResult] = []
        passes: list[VerifyPassResult] = []
        x_t = pre.outputs[-1]
        actual_cycles = pre.vector_cycles
        sequential_cycles = pre.vector_cycles
        while len(steps) < new_tokens:
            spec_pass = self.plan_with_fallback(
                state, x_t, new_tokens - len(steps), draft=draft
            )
            (result,), _ = engine._execute([spec_pass.job])
            new_steps, pass_result = self.finish_verify_pass(
                spec_pass, result, draft=draft
            )
            steps.extend(new_steps)
            passes.append(pass_result)
            x_t = new_steps[-1].output
            actual_cycles += pass_result.vector_cycles
            sequential_cycles += sum(s.vector_cycles for s in new_steps)
        generated = (
            np.stack([s.output for s in steps])
            if steps
            else np.zeros((0, request.hidden))
        )
        return SpeculativeGenerateResult(
            prefill=pre,
            steps=tuple(steps),
            passes=tuple(passes),
            generated=generated,
            vector_cycles=actual_cycles,
            sequential_vector_cycles=sequential_cycles,
            counters=engine.unit._lifetime_counters().diff(before),
        )
