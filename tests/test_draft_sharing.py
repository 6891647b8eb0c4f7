"""Per-parent draft sharing, pinned against per-alternative host steps.

A tree level drafts every alternative of one parent through one shared
host step (:func:`repro.core.speculative._host_step_outputs`): the q
projection, the key gather, the scores and the exp LUT run once, and the
tail runs once over the distinct output roundings stacked on a leading
axis.  These tests pin that, byte for byte, to one
:func:`~repro.core.speculative.host_step_output` call per alternative
and to an independent copy of the per-alternative step, on contiguous,
windowed, paged and forked-paged caches.  Around it: the order in which
:class:`ScheduledDraft` consumes its program, the fidelity-coin memo,
the constant-folded ``QuantizedPwl.evaluate``, the per-call read
counts, the reduced-precision limit and the typed rejection of draft
and tree knobs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.approx.pwl import PiecewiseLinear
from repro.approx.quantize import QuantizedPwl
from repro.core.attention import (
    ATTENTION_FUNCTIONS,
    assemble_probabilities,
    shift_scores,
    softmax_reduction,
)
from repro.core.config import PRESETS, NovaConfig
from repro.core.decode import (
    DecodeRequest,
    NovaDecodeEngine,
    context_for_query,
    project_token,
    scores_for_query,
)
from repro.core.paging import BlockPool, PagedKVCache
from repro.core.speculative import (
    DraftTree,
    NGramDraft,
    ScheduledDraft,
    SpeculativeDecodeEngine,
    TruncatedTableDraft,
    host_step_output,
)
from repro.utils.fixed_point import Q5_10, Q7_8, FixedPointFormat

SMALL = NovaConfig(n_routers=2, neurons_per_router=8)
ENGINE = NovaDecodeEngine(SMALL)
#: Rounding to this many fraction bits leaves both LUT outputs unchanged.
LIMIT = max(
    SMALL.table(f).output_format.fraction_bits for f in ("exp", "reciprocal")
)


def _tables():
    """The compiled exp/reciprocal tables, fetched at use: other suites
    clear the process-wide table cache, and a draft built afterwards
    holds the recompiled objects."""
    return SMALL.table("exp"), SMALL.table("reciprocal")

CACHE_KINDS = ("contiguous", "windowed", "paged", "forked-paged")


def _reference_step(request, cache, x_t, drop_to_bits):
    """One alternative's host step on its own: a full q/k/v projection,
    its own key and value gathers, both LUTs and the whole tail."""
    exp, recip = _tables()
    q, _, _ = project_token(
        x_t, request.wq, request.wk, request.wv, request.n_heads
    )
    raw = exp.evaluate(shift_scores(scores_for_query(q, cache.keys)))
    if drop_to_bits is not None:
        raw = np.ldexp(np.round(np.ldexp(raw, drop_to_bits)), -drop_to_bits)
    numer, mantissa, exponent = softmax_reduction(raw)
    inv = recip.evaluate(mantissa)
    if drop_to_bits is not None:
        inv = np.ldexp(np.round(np.ldexp(inv, drop_to_bits)), -drop_to_bits)
    probs = assemble_probabilities(numer, inv, exponent)
    context = context_for_query(probs, cache.values_snapshot(cache.length))
    return context @ request.wo


def _coin(seed, position, alternative, fidelity):
    if fidelity >= 1.0:
        return True
    if fidelity <= 0.0:
        return False
    key = (
        (seed, position) if alternative == 0
        else (seed, position, alternative)
    )
    return bool(np.random.default_rng(key).random() < fidelity)


def _drafting_cache(kind, n_heads, head_dim, prompt_len, window, block_size,
                    seed):
    """A request and a cache holding its prompt plus one appended token
    ``x_t`` (the engine appends before it asks for a proposal)."""
    hidden = n_heads * head_dim
    rng = np.random.default_rng(seed)
    wq, wk, wv, wo = (
        rng.normal(size=(hidden, hidden)) / np.sqrt(hidden) for _ in range(4)
    )
    request = DecodeRequest(
        x=rng.normal(size=(prompt_len, hidden)), wq=wq, wk=wk, wv=wv, wo=wo,
        n_heads=n_heads, window=window if kind == "windowed" else None,
        max_new_tokens=4,
    )
    if kind in ("contiguous", "windowed"):
        state = ENGINE.start(request)
    else:
        pool = BlockPool(n_heads, head_dim, block_size, 2 * prompt_len + 8)
        state = ENGINE.start(request, pool=pool)
    ENGINE.prefill(state)
    cache = state.cache
    if kind == "forked-paged":
        cache = cache.fork()
    x_t = rng.normal(size=hidden)
    _, k, v = project_token(x_t, wq, wk, wv, n_heads)
    cache.append(k, v)
    return request, cache, x_t


@st.composite
def draft_scenarios(draw):
    n_heads = draw(st.sampled_from([1, 2, 4]))
    head_dim = draw(st.sampled_from([2, 4, 8]))
    prompt_len = draw(st.integers(min_value=1, max_value=12))
    kind = draw(st.sampled_from(CACHE_KINDS))
    window = draw(st.integers(min_value=1, max_value=prompt_len + 1))
    block_size = draw(st.integers(min_value=1, max_value=6))
    width = draw(st.integers(min_value=1, max_value=6))
    fidelity = draw(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    )
    reduced_bits = draw(st.integers(min_value=0, max_value=LIMIT - 1))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    position = draw(st.integers(min_value=0, max_value=64))
    return (n_heads, head_dim, prompt_len, kind, window, block_size, width,
            fidelity, reduced_bits, seed, position)


class TestSharedHostStep:
    @given(scenario=draft_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_candidates_equal_one_host_step_per_alternative(self, scenario):
        (n_heads, head_dim, prompt_len, kind, window, block_size, width,
         fidelity, reduced_bits, seed, position) = scenario
        request, cache, x_t = _drafting_cache(
            kind, n_heads, head_dim, prompt_len, window, block_size, seed
        )
        if kind == "forked-paged":
            assert isinstance(cache, PagedKVCache)
        draft = TruncatedTableDraft(
            SMALL, fidelity=fidelity, seed=seed, reduced_bits=reduced_bits
        )
        got = draft.propose_candidates(request, cache, x_t, position, width)
        exp, recip = _tables()
        drops = []
        for j in range(width):
            if _coin(seed, position, j, fidelity):
                drops.append(None)
            elif reduced_bits + j < LIMIT:
                drops.append(reduced_bits + j)
        assert len(got) == len(drops)
        for proposal, drop in zip(got, drops):
            assert proposal.flags.owndata
            one = host_step_output(request, cache, x_t, exp, recip, drop)
            assert proposal.tobytes() == one.tobytes()
            ref = _reference_step(request, cache, x_t, drop)
            assert proposal.tobytes() == ref.tobytes()
        alone = draft.propose(request, cache, x_t, position)
        assert alone.tobytes() == got[0].tobytes()

    def test_one_key_read_one_value_read_one_exp_lut_per_call(
        self, monkeypatch
    ):
        request, cache, x_t = _drafting_cache(
            "forked-paged", 2, 4, 9, None, 3, seed=5
        )
        exp, _ = _tables()
        calls = {"keys": 0, "values_snapshot": 0, "exp": 0, "reciprocal": 0}
        keys = PagedKVCache.keys.fget
        values_snapshot = PagedKVCache.values_snapshot
        evaluate = QuantizedPwl.evaluate

        def counted_keys(self):
            calls["keys"] += 1
            return keys(self)

        def counted_values(self, kv_len):
            calls["values_snapshot"] += 1
            return values_snapshot(self, kv_len)

        def counted_evaluate(self, x):
            calls["exp" if self is exp else "reciprocal"] += 1
            return evaluate(self, x)

        monkeypatch.setattr(PagedKVCache, "keys", property(counted_keys))
        monkeypatch.setattr(PagedKVCache, "values_snapshot", counted_values)
        monkeypatch.setattr(QuantizedPwl, "evaluate", counted_evaluate)
        draft = TruncatedTableDraft(SMALL, fidelity=0.5, seed=3)
        proposals = draft.propose_candidates(request, cache, x_t, 9, 5)
        assert len(proposals) == 5
        assert calls == {
            "keys": 1, "values_snapshot": 1, "exp": 1, "reciprocal": 1,
        }


class TestScheduledDraftOrder:
    @given(
        program=st.lists(st.booleans(), min_size=1, max_size=9),
        widths=st.lists(st.integers(1, 6), min_size=1, max_size=5),
        reduced_bits=st.integers(min_value=0, max_value=LIMIT - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_program_decisions_are_consumed_in_order(
        self, program, widths, reduced_bits
    ):
        request, cache, x_t = _drafting_cache(
            "paged", 2, 2, 5, None, 2, seed=len(program)
        )
        draft = ScheduledDraft(SMALL, program, reduced_bits=reduced_bits)
        exp, recip = _tables()
        cursor = 0
        for width in widths:
            decisions = [
                program[(cursor + j) % len(program)] for j in range(width)
            ]
            if width == 1:
                got = [draft.propose(request, cache, x_t, 0)]
            else:
                got = draft.propose_candidates(request, cache, x_t, 0, width)
            cursor += width
            expected = [
                host_step_output(
                    request, cache, x_t, exp, recip,
                    None if exact else reduced_bits + j,
                )
                for j, exact in enumerate(decisions)
                if exact or reduced_bits + j < LIMIT
            ]
            assert [g.tobytes() for g in got] == [
                e.tobytes() for e in expected
            ]
            assert draft._cursor == cursor
        draft.reset()
        assert draft._cursor == 0


class TestCoinMemo:
    def test_memo_returns_the_keyed_coin_and_holds_one_position(self):
        for fidelity in (0.2, 0.45, 0.8):
            draft = TruncatedTableDraft(SMALL, fidelity=fidelity, seed=11)
            for position in (3, 3, 4, 4, 3, 9, 9):
                for alternative in (0, 2, 1, 2, 0, 5):
                    assert draft._exact(position, alternative) == _coin(
                        11, position, alternative, fidelity
                    )
                    assert draft._coin_key == (11, position)
                    assert set(draft._coins) <= {0, 1, 2, 5}

    def test_memo_follows_a_changed_fidelity_or_seed(self):
        draft = TruncatedTableDraft(SMALL, fidelity=0.5, seed=2)
        draft._exact(7, 1)
        draft.fidelity = 0.9
        assert draft._exact(7, 1) == _coin(2, 7, 1, 0.9)
        draft.seed = 3
        assert draft._exact(7, 1) == _coin(3, 7, 1, 0.9)
        draft.reset()
        assert draft._coins == {} and draft._coin_key is None

    def test_a_tree_pass_draws_one_coin_per_level_alternative(
        self, monkeypatch
    ):
        draws = []
        default_rng = np.random.default_rng

        def counted(key):
            draws.append(key)
            return default_rng(key)

        request, _, _ = _drafting_cache("paged", 2, 4, 6, None, 4, seed=1)
        speculator = SpeculativeDecodeEngine(ENGINE, tree="4x1,2x1,1x1")
        pool = BlockPool(2, 4, 4, 64)
        state = speculator.start(request, pool=pool)
        x_t = ENGINE.prefill(state).outputs[-1]
        draft = TruncatedTableDraft(SMALL, fidelity=0.45, seed=4)
        monkeypatch.setattr(np.random, "default_rng", counted)
        spec_pass = speculator.plan_verify_pass(state, x_t, 8, draft=draft)
        assert len(spec_pass.nodes) > 8          # several parents per level
        assert len(draws) <= 4 + 2 + 1
        assert len(draws) == len(set(draws))


def _saturating_tables():
    """Hand-built tables that reach the fold's edge cases: a domain
    running past the input format on either side (or both), a domain
    wholly outside it, and outputs that saturate the output format."""
    def table(cuts, domain, fmt=Q5_10, slope=1.0, bias=0.0):
        n = len(cuts) + 1
        return QuantizedPwl(
            PiecewiseLinear(
                cuts=np.array(cuts), slopes=np.linspace(-slope, slope, n),
                biases=np.linspace(bias, -bias, n), domain=domain,
            ),
            input_format=fmt, coeff_format=Q7_8, output_format=Q5_10,
        )

    return [
        table([-10.0, -5.0, -1.0], (-40.0, 0.5)),
        table([-3.0, 0.25, 2.5], (-16.0, 16.0), fmt=FixedPointFormat(2, 10)),
        table([1.0], (-50.0, 70.0), slope=100.0, bias=60.0),
        table([], (40.0, 50.0)),
        table([], (-50.0, -40.0), slope=2.0),
    ]


class TestFoldedEvaluate:
    @staticmethod
    def _inputs(table, rng):
        q = table.quantized_pwl
        low, high = q.domain
        fin = table.input_format
        return np.concatenate([
            rng.uniform(low - 50.0, high + 50.0, 4000),
            rng.uniform(low, high, 4000),
            q.cuts,
            np.nextafter(q.cuts, np.inf),
            np.nextafter(q.cuts, -np.inf),
            [low, high, np.nextafter(low, -np.inf), np.nextafter(high, np.inf),
             0.0, -0.0, fin.min_value, fin.max_value,
             fin.min_value - fin.scale, fin.max_value + fin.scale,
             1e308, -1e308, 5e-324, -5e-324, np.inf, -np.inf, np.nan],
        ])

    def test_evaluate_is_lookup_plus_mac_for_every_table(self):
        """Every table of every preset, plus the saturating hand-built
        ones: ``lookup`` equals the unfolded quantise-and-compare and
        ``evaluate`` equals ``lookup`` + ``output_format.mac``."""
        rng = np.random.default_rng(0)
        tables = [
            cfg.table(function)
            for cfg in PRESETS.values() for function in ATTENTION_FUNCTIONS
        ] + _saturating_tables()
        for n, table in enumerate(tables):
            q = table.quantized_pwl
            xs = self._inputs(table, rng)
            with np.errstate(invalid="ignore"):
                xq_ref = table.input_format.quantize(q.clamp(xs))
                idx_ref = q.segment_index(xq_ref)
                xq, idx = table.lookup(xs)
                out = table.evaluate(xs)
                mac = table.output_format.mac(
                    q.slopes[idx], xq, q.biases[idx]
                )
                segments = table.segment_index(xs)
            assert xq.tobytes() == xq_ref.tobytes(), n
            assert idx.dtype == np.int64
            assert idx.tobytes() == idx_ref.tobytes(), n
            assert out.tobytes() == mac.tobytes(), n
            assert np.array_equal(segments, idx)
            for scalar in (0.0, -0.0, float(q.domain[1]) + 3.0):
                assert float(table.evaluate(scalar)) == float(
                    table.evaluate(np.array([scalar]))[0]
                )


class TestReducedPrecisionLimit:
    def test_limit_is_the_tables_output_fraction_bits(self):
        request, cache, x_t = _drafting_cache("contiguous", 2, 4, 6, None, 1,
                                              seed=2)
        exp, recip = _tables()
        exact = host_step_output(request, cache, x_t, exp, recip)
        at_limit = host_step_output(request, cache, x_t, exp, recip, LIMIT)
        assert at_limit.tobytes() == exact.tobytes()

    @pytest.mark.parametrize("make", [
        lambda bits: TruncatedTableDraft(SMALL, reduced_bits=bits),
        lambda bits: ScheduledDraft(SMALL, [False], reduced_bits=bits),
    ])
    def test_construction_rejects_a_no_op_rounding(self, make):
        with pytest.raises(ValueError, match=f"< {LIMIT}"):
            make(LIMIT)
        with pytest.raises(ValueError, match=f"< {LIMIT}"):
            make(LIMIT + 3)
        assert make(LIMIT - 1).reduced_bits == LIMIT - 1

    def test_inexact_alternatives_past_the_limit_are_left_out(self):
        request, cache, x_t = _drafting_cache("paged", 2, 4, 6, None, 2,
                                              seed=3)
        exact = host_step_output(request, cache, x_t, *_tables())
        draft = TruncatedTableDraft(SMALL, fidelity=0.0,
                                    reduced_bits=LIMIT - 2)
        got = draft.propose_candidates(request, cache, x_t, 4, 5)
        assert len(got) == 2
        assert all(g.tobytes() != exact.tobytes() for g in got)
        scheduled = ScheduledDraft(SMALL, [False], reduced_bits=LIMIT - 2)
        assert len(scheduled.propose_candidates(request, cache, x_t, 4, 5)) == 2
        assert scheduled._cursor == 5


class TestTypedKnobs:
    BAD = (2.7, True, "3")

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("field, make", [
        ("width", lambda v: DraftTree((2, v))),
        ("spec_k", lambda v: SpeculativeDecodeEngine(ENGINE, spec_k=v)),
        ("reduced_bits",
         lambda v: TruncatedTableDraft(SMALL, reduced_bits=v)),
        ("seed", lambda v: TruncatedTableDraft(SMALL, seed=v)),
        ("reduced_bits",
         lambda v: ScheduledDraft(SMALL, [True], reduced_bits=v)),
        ("key_bits", lambda v: NGramDraft(key_bits=v)),
        ("max_history", lambda v: NGramDraft(max_history=v)),
    ])
    def test_bool_or_non_integral_raises_type_error(self, field, make, value):
        with pytest.raises(TypeError, match=field):
            make(value)

    def test_numpy_integers_are_accepted(self):
        tree = DraftTree((np.int64(2), np.int32(1)))
        assert tree.widths == (2, 1)
        assert all(type(w) is int for w in tree.widths)
        assert SpeculativeDecodeEngine(ENGINE, spec_k=np.int64(3)).spec_k == 3
        draft = TruncatedTableDraft(
            SMALL, seed=np.uint32(7), reduced_bits=np.int16(3)
        )
        assert (draft.seed, draft.reduced_bits) == (7, 3)
        assert ScheduledDraft(
            SMALL, [True], reduced_bits=np.int8(2)
        ).reduced_bits == 2
        ngram = NGramDraft(key_bits=np.int64(8), max_history=np.int64(4))
        assert (ngram.key_bits, ngram.max_history) == (8, 4)

    def test_scheduled_draft_rejects_negative_reduced_bits(self):
        with pytest.raises(ValueError, match="reduced_bits"):
            ScheduledDraft(SMALL, [True], reduced_bits=-3)
