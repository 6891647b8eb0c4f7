"""Whole-prompt prefill planning against the row-by-row reference.

:meth:`NovaDecodeEngine._plan_prefill` plans a prompt at once: one
stacked :func:`~repro.core.decode.project_token` call, per-row cache
appends in prompt order, and scores/contexts over views of the
projected keys and values instead of per-row gathers from the cache.
These properties pin it, bit for bit, to

* token-by-token :meth:`NovaDecodeEngine.decode`, and
* the row-by-row plan (one ``_plan_token`` per prompt row, the way the
  prefill used to be planned),

on contiguous, windowed (window shorter than the prompt), paged and
prefix-adopted caches: outputs, probabilities, vector cycles, query
counts and event counters.  A pool that runs dry mid-prompt must leave
the pool exactly as the row-by-row plan leaves it once the scheduler
has rolled the prefill back.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.core.decode as decode
from repro.core.config import NovaConfig
from repro.core.decode import (
    CausalPrefillResult,
    DecodeRequest,
    NovaDecodeEngine,
    _Job,
    project_token,
)
from repro.core.paging import BlockPool, BlockPoolExhausted, PagedKVCache

#: Small geometry (module scope: tables compile once, each example only
#: runs data).
SMALL = NovaConfig(n_routers=2, neurons_per_router=8)
ENGINE = NovaDecodeEngine(SMALL)

CACHE_KINDS = ("contiguous", "windowed", "paged", "paged-windowed", "prefix")


def _weights(rng, hidden):
    return [rng.normal(size=(hidden, hidden)) / np.sqrt(hidden)
            for _ in range(4)]


def _request(x, weights, n_heads, window=None):
    wq, wk, wv, wo = weights
    return DecodeRequest(
        x=x, wq=wq, wk=wk, wv=wv, wo=wo, n_heads=n_heads, window=window,
    )


def _row_by_row_prefill(engine, state):
    """The reference plan: one ``_plan_token`` per prompt row."""
    job = _Job(
        state, "prefill",
        [engine._plan_token(state, row) for row in state.request.x],
    )
    (result,), _ = engine._execute([job])
    return engine._wrap_prefill(result)


def _assert_prefills_equal(a: CausalPrefillResult, b: CausalPrefillResult):
    assert np.array_equal(a.outputs, b.outputs)
    assert np.array_equal(a.probabilities, b.probabilities)
    assert a.vector_cycles == b.vector_cycles
    assert a.nonlinear_queries == b.nonlinear_queries
    assert a.counters.as_dict() == b.counters.as_dict()


@st.composite
def prefill_scenarios(draw):
    """A prompt, its weights, a cache kind and the pool geometry."""
    n_heads = draw(st.sampled_from([1, 2, 4]))
    head_dim = draw(st.sampled_from([2, 4, 8]))
    prompt_len = draw(st.integers(min_value=1, max_value=20))
    kind = draw(st.sampled_from(CACHE_KINDS))
    window = None
    if kind in ("windowed", "paged-windowed"):
        window = draw(st.integers(min_value=1, max_value=prompt_len))
    block_size = draw(st.integers(min_value=1, max_value=8))
    shared = draw(st.integers(min_value=0, max_value=prompt_len))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return n_heads, head_dim, prompt_len, kind, window, block_size, shared, seed


def _open_state(engine, request, kind, pool, seed_request):
    """A fresh state of the requested cache kind.

    ``prefix``: a seeding request sharing the first rows of the prompt
    prefills first and stays resident, so the state adopts its blocks.
    """
    if kind in ("contiguous", "windowed"):
        return engine.start(request)
    if kind == "prefix":
        seeding = engine.start(seed_request, pool=pool, prefix=True)
        engine.prefill(seeding)
        return engine.start(request, pool=pool, prefix=True)
    return engine.start(request, pool=pool)


class TestWholePromptPrefill:
    @given(scenario=prefill_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_matches_row_by_row_plan_and_decode(self, scenario):
        (n_heads, head_dim, prompt_len, kind, window, block_size, shared,
         seed) = scenario
        hidden = n_heads * head_dim
        rng = np.random.default_rng(seed)
        weights = _weights(rng, hidden)
        x = rng.normal(size=(prompt_len, hidden))
        request = _request(x, weights, n_heads, window=window)
        seed_x = np.concatenate(
            [x[:shared], rng.normal(size=(prompt_len - shared + 1, hidden))]
        )
        seed_request = _request(seed_x, weights, n_heads)

        def pool():
            return BlockPool(n_heads, head_dim, block_size, 2 * prompt_len + 4)

        whole_pool, rows_pool = pool(), pool()
        whole_state = _open_state(
            ENGINE, request, kind, whole_pool, seed_request
        )
        rows_state = _open_state(ENGINE, request, kind, rows_pool, seed_request)
        if kind == "prefix":
            assert isinstance(whole_state.cache, PagedKVCache)
            assert whole_state.cache.prefix_len == (
                shared // block_size * block_size
            )

        whole = ENGINE.prefill(whole_state)
        rows = _row_by_row_prefill(ENGINE, rows_state)
        _assert_prefills_equal(whole, rows)
        assert whole_state.position == rows_state.position == prompt_len
        whole_cache, rows_cache = whole_state.cache, rows_state.cache
        assert whole_cache.length == rows_cache.length
        assert whole_cache.start_position == rows_cache.start_position
        assert np.array_equal(whole_cache.keys, rows_cache.keys)
        assert np.array_equal(
            whole_cache.values_snapshot(whole_cache.length),
            rows_cache.values_snapshot(rows_cache.length),
        )
        if kind.startswith("paged") or kind == "prefix":
            assert whole_pool.pool_info() == rows_pool.pool_info()

        # Token-by-token decode packs each row into its own streams, so
        # only its numerics and query counts compare with the prefill's.
        decoded = ENGINE.decode(request)
        assert np.array_equal(decoded.outputs, whole.outputs)
        assert whole.nonlinear_queries == sum(
            s.nonlinear_queries for s in decoded.steps
        )
        for t, step in enumerate(decoded.steps):
            start = t + 1 - step.kv_length
            assert np.array_equal(
                step.probabilities, whole.probabilities[:, t, start : t + 1]
            )

    @given(scenario=prefill_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_generate_continues_bit_exactly_after_the_prefill(self, scenario):
        """Decode steps after a whole-prompt prefill read the cache it
        filled: generate equals prefill-by-decode-steps throughout."""
        n_heads, head_dim, prompt_len, _, window, _, _, seed = scenario
        hidden = n_heads * head_dim
        rng = np.random.default_rng(seed)
        wq, wk, wv, wo = _weights(rng, hidden)
        x = rng.normal(size=(prompt_len, hidden))
        request = DecodeRequest(
            x=x, wq=wq, wk=wk, wv=wv, wo=wo, n_heads=n_heads,
            max_new_tokens=3, window=window,
        )
        gen = ENGINE.generate(request)
        state = ENGINE.start(request)
        x_t = None
        for row in x:
            x_t = ENGINE.decode_step(state, row).output
        for step in gen.steps:
            ref = ENGINE.decode_step(state, x_t)
            assert np.array_equal(ref.output, step.output)
            assert np.array_equal(ref.probabilities, step.probabilities)
            assert ref.counters.as_dict() == step.counters.as_dict()
            x_t = ref.output


class TestStackedProjection:
    @given(
        n=st.integers(min_value=1, max_value=24),
        n_heads=st.sampled_from([1, 2, 3, 4]),
        head_dim=st.sampled_from([1, 2, 4, 8, 16]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_stack_equals_single_row_calls(self, n, n_heads, head_dim, seed):
        hidden = n_heads * head_dim
        rng = np.random.default_rng(seed)
        wq, wk, wv, _ = _weights(rng, hidden)
        x = rng.normal(size=(n, hidden))
        stacked = project_token(x, wq, wk, wv, n_heads)
        for part in stacked:
            assert part.shape == (n, n_heads, head_dim)
        for t in range(n):
            single = project_token(x[t], wq, wk, wv, n_heads)
            for s_part, one, w in zip(stacked, single, (wq, wk, wv)):
                assert one.shape == (n_heads, head_dim)
                assert np.array_equal(s_part[t], one)
                # the plain vector-matrix product, bit for bit
                assert np.array_equal(
                    one, (x[t] @ w).reshape(n_heads, head_dim)
                )


@st.composite
def dry_pool_scenarios(draw):
    n_heads = draw(st.sampled_from([1, 2]))
    head_dim = draw(st.sampled_from([2, 4]))
    block_size = draw(st.integers(min_value=1, max_value=4))
    prompt_len = draw(st.integers(min_value=2, max_value=16))
    shared = draw(st.integers(min_value=0, max_value=prompt_len))
    windowed = draw(st.booleans())
    window = (
        draw(st.integers(min_value=1, max_value=prompt_len))
        if windowed else None
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return n_heads, head_dim, block_size, prompt_len, shared, window, seed


class TestDryPoolMidPrompt:
    @given(scenario=dry_pool_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_rollback_leaves_the_row_by_row_pool_state(self, scenario):
        """A prefill that runs the pool dry raises at the same row as
        the row-by-row plan, and after the scheduler's rollback
        (``cache.reset()``) the pool is in the same state: allocation
        counters, free blocks, live tokens and the prefix index."""
        (n_heads, head_dim, block_size, prompt_len, shared, window,
         seed) = scenario
        hidden = n_heads * head_dim
        rng = np.random.default_rng(seed)
        weights = _weights(rng, hidden)
        x = rng.normal(size=(prompt_len, hidden))
        request = _request(x, weights, n_heads, window=window)
        seed_x = np.concatenate(
            [x[:shared], rng.normal(size=(1, hidden))]
        )
        seed_request = _request(seed_x, weights, n_heads)
        seed_blocks = -(-(shared + 1) // block_size)
        # Room for the resident seeding request plus one block: every
        # windowless prompt that needs two blocks of its own runs dry.
        n_blocks = seed_blocks + 1
        prefix = window is None

        def run(plan):
            pool = BlockPool(n_heads, head_dim, block_size, n_blocks)
            seeding = ENGINE.start(seed_request, pool=pool, prefix=True)
            ENGINE.prefill(seeding)
            state = ENGINE.start(request, pool=pool, prefix=prefix)
            try:
                plan(state)
                raised = False
            except BlockPoolExhausted:
                raised = True
            seen = (raised, state.position, state.cache.length)
            state.cache.reset()
            return seen, pool.pool_info(), dict(pool._prefix_index)

        def whole(state):
            ENGINE._plan_prefill(state)

        def rows(state):
            for row in state.request.x:
                ENGINE._plan_token(state, row)

        assert run(whole) == run(rows)


class TestPrefillCallCounts:
    def test_one_projection_and_no_cache_reads_per_prefill(self, monkeypatch):
        """The prefill projects its prompt in one call and never reads
        the K/V span back out of the (paged) cache."""
        calls = {"project": 0, "read": 0}
        real_project = decode.project_token

        def counting_project(*args, **kwargs):
            calls["project"] += 1
            return real_project(*args, **kwargs)

        def counting_read(name):
            real = vars(PagedKVCache)[name]
            getter = real.fget if isinstance(real, property) else real

            def read(*args, **kwargs):
                calls["read"] += 1
                return getter(*args, **kwargs)

            return property(read) if isinstance(real, property) else read

        monkeypatch.setattr(decode, "project_token", counting_project)
        for name in ("keys", "values", "values_snapshot"):
            monkeypatch.setattr(PagedKVCache, name, counting_read(name))
        rng = np.random.default_rng(0)
        weights = _weights(rng, 8)
        request = _request(rng.normal(size=(12, 8)), weights, 2)
        pool = BlockPool(2, 4, 4, 8)
        ENGINE.prefill(ENGINE.start(request, pool=pool))
        assert calls == {"project": 1, "read": 0}

