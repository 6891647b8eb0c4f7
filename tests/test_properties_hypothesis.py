"""Property-based tests (hypothesis) for the datapath and the decode path.

Six families of invariants, each over randomly drawn inputs rather
than hand-picked cases:

* fixed-point encode/decode round trips (``utils/fixed_point.py``),
* softmax row-stochasticity and permutation equivariance — for the
  exact reference *and* the hardware softmax through the overlay,
* :class:`NovaConfig` ``with_overrides`` / JSON round-trip identity,
* decode-vs-prefill bit-exact equivalence over random shapes, seeds
  and sliding windows,
* paged-vs-contiguous :class:`KVCache` equivalence over random
  append/evict/truncate/reset sequences, block sizes and window
  lengths (including block sizes that do not divide the window),
* speculative-vs-plain generate equivalence under **arbitrary
  accept/reject/rollback programs** (a :class:`ScheduledDraft` driven
  by a random boolean program): bit-identical output tokens, identical
  final KV state, identical closed-form sequential-equivalent cycles,
  and a block pool that leaks nothing after rollback.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.approx.softmax import exact_softmax
from repro.core.config import NovaConfig
from repro.core.decode import DecodeRequest, KVCache, NovaDecodeEngine
from repro.core.paging import BlockPool, PagedKVCache, blocks_needed
from repro.core.session import NovaSession
from repro.core.speculative import ScheduledDraft, SpeculativeDecodeEngine
from repro.utils.fixed_point import FixedPointFormat

#: Small geometry shared by the hardware-backed properties (module
#: scope: tables/schedules compile once, each example only runs data).
SMALL = NovaConfig(n_routers=2, neurons_per_router=8)
SESSION = NovaSession(SMALL)
DECODER = NovaDecodeEngine(SMALL)


formats = st.builds(
    FixedPointFormat,
    integer_bits=st.integers(min_value=0, max_value=7),
    fraction_bits=st.integers(min_value=0, max_value=12),
)


# ----------------------------------------------------------------------
# Fixed-point round trips.
# ----------------------------------------------------------------------


class TestFixedPointProperties:
    @given(fmt=formats, data=st.data())
    @settings(max_examples=60)
    def test_raw_code_round_trip_is_identity(self, fmt, data):
        """from_raw then to_raw reproduces every representable code."""
        raw = data.draw(
            st.integers(min_value=fmt.min_raw, max_value=fmt.max_raw)
        )
        assert fmt.to_raw(fmt.from_raw(raw)) == raw

    @given(fmt=formats, value=st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=60)
    def test_quantize_is_idempotent(self, fmt, value):
        """A quantised value is exactly representable: re-quantising it
        (and round-tripping it through raw codes) changes nothing."""
        q = fmt.quantize(value)
        assert np.array_equal(fmt.quantize(q), q)
        assert np.array_equal(fmt.from_raw(fmt.to_raw(q)), q)

    @given(fmt=formats, data=st.data())
    @settings(max_examples=60)
    def test_in_range_error_is_at_most_half_an_lsb(self, fmt, data):
        value = data.draw(
            st.floats(
                min_value=fmt.min_value, max_value=fmt.max_value,
                allow_nan=False,
            )
        )
        q = float(fmt.quantize(value))
        assert abs(q - value) <= fmt.scale / 2 + 1e-15
        assert fmt.min_value <= q <= fmt.max_value

    @given(fmt=formats, data=st.data())
    @settings(max_examples=40)
    def test_saturation_clamps_to_the_range_ends(self, fmt, data):
        value = data.draw(
            st.one_of(
                st.floats(fmt.max_value + fmt.scale, 1e9, allow_nan=False),
                st.floats(-1e9, fmt.min_value - fmt.scale, allow_nan=False),
            )
        )
        q = float(fmt.quantize(value))
        assert q in (fmt.min_value, fmt.max_value)
        assert bool(fmt.saturates(value))


# ----------------------------------------------------------------------
# Softmax: row-stochastic, permutation-equivariant.
# ----------------------------------------------------------------------


scores_arrays = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.lists(
        st.floats(min_value=-12.0, max_value=8.0, allow_nan=False),
        min_size=2 * n, max_size=2 * n,
    ).map(lambda vals: np.asarray(vals).reshape(2, n))
)


class TestSoftmaxProperties:
    @given(scores=scores_arrays)
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one(self, scores):
        exact = exact_softmax(scores, axis=-1)
        assert np.allclose(exact.sum(axis=-1), 1.0, atol=1e-12)
        hardware, _ = SESSION.softmax(scores)
        assert np.allclose(hardware.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(hardware >= 0.0)

    @given(scores=scores_arrays, seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_permutation_equivariance(self, scores, seed):
        """softmax(x[perm]) == softmax(x)[perm] along the softmax axis
        (up to summation-order float noise in the row normaliser)."""
        perm = np.random.default_rng(seed).permutation(scores.shape[-1])
        exact = exact_softmax(scores, axis=-1)
        assert np.allclose(
            exact_softmax(scores[:, perm], axis=-1), exact[:, perm],
            rtol=1e-9, atol=1e-12,
        )
        hardware, _ = SESSION.softmax(scores)
        permuted, _ = SESSION.softmax(scores[:, perm])
        assert np.allclose(
            permuted, hardware[:, perm], rtol=1e-9, atol=1e-12
        )


# ----------------------------------------------------------------------
# NovaConfig round trips.
# ----------------------------------------------------------------------


configs = st.builds(
    NovaConfig,
    n_routers=st.integers(min_value=1, max_value=16),
    neurons_per_router=st.integers(min_value=1, max_value=64),
    pe_frequency_ghz=st.floats(
        min_value=0.01, max_value=4.0, allow_nan=False, allow_subnormal=False
    ),
    hop_mm=st.floats(
        min_value=0.05, max_value=4.0, allow_nan=False, allow_subnormal=False
    ),
    n_segments=st.sampled_from([2, 4, 8, 16, 32]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    host=st.sampled_from([None, "Jetson Xavier NX", "REACT", "TPU v4-like"]),
)


class TestNovaConfigProperties:
    @given(cfg=configs)
    @settings(max_examples=60)
    def test_json_round_trip_is_identity(self, cfg):
        assert NovaConfig.from_json(cfg.to_json()) == cfg
        assert NovaConfig.from_dict(cfg.to_dict()) == cfg

    @given(base=configs, target=configs)
    @settings(max_examples=60)
    def test_with_overrides_reaches_any_config(self, base, target):
        """Overriding every field as the CLI would (`field=value`
        strings) turns any config into any other config exactly."""
        overrides = [
            f"{name}={'none' if value is None else value}"
            for name, value in target.to_dict().items()
        ]
        assert base.with_overrides(overrides) == target

    @given(cfg=configs)
    @settings(max_examples=30)
    def test_empty_overrides_are_identity(self, cfg):
        assert cfg.with_overrides([]) == cfg
        assert cfg.with_overrides({}) == cfg


# ----------------------------------------------------------------------
# Decode-vs-prefill equivalence over random shapes.
# ----------------------------------------------------------------------


@st.composite
def random_decode_requests(draw):
    n_heads = draw(st.integers(min_value=1, max_value=3))
    head_dim = draw(st.integers(min_value=1, max_value=4))
    prompt_len = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    window = draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=prompt_len))
    )
    hidden = n_heads * head_dim
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(hidden)
    return DecodeRequest(
        x=rng.normal(0.0, 1.0, size=(prompt_len, hidden)),
        wq=rng.normal(0.0, scale, size=(hidden, hidden)),
        wk=rng.normal(0.0, scale, size=(hidden, hidden)),
        wv=rng.normal(0.0, scale, size=(hidden, hidden)),
        wo=rng.normal(0.0, scale, size=(hidden, hidden)),
        n_heads=n_heads,
        window=window,
    )


# ----------------------------------------------------------------------
# Paged vs contiguous KV cache over random operation sequences.
# ----------------------------------------------------------------------


@st.composite
def cache_scenarios(draw):
    """A cache geometry plus a random append/evict/truncate/reset
    program (truncate is the speculative rollback path)."""
    n_heads = draw(st.integers(min_value=1, max_value=3))
    head_dim = draw(st.integers(min_value=1, max_value=4))
    capacity = draw(st.integers(min_value=1, max_value=12))
    window = draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=capacity))
    )
    # block sizes deliberately include values that do not divide the
    # window (or the capacity) so partial tail/head blocks are exercised
    block_size = draw(st.integers(min_value=1, max_value=7))
    ops = draw(
        st.lists(
            st.one_of(
                st.just(("append",)),
                st.tuples(st.just("evict"), st.integers(0, 4)),
                st.tuples(st.just("truncate"), st.integers(0, 4)),
                st.just(("reset",)),
            ),
            min_size=1, max_size=30,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**20))
    return n_heads, head_dim, capacity, window, block_size, ops, seed


class TestPagedCacheEquivalenceProperties:
    @given(scenario=cache_scenarios())
    @example(
        scenario=(
            1, 1, 2, None, 2,
            [("append",), ("append",), ("evict", 1), ("append",)], 0,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_paged_cache_mirrors_contiguous_cache(self, scenario):
        """Any program of appends, evictions and resets leaves the paged
        and contiguous caches with identical observable state, and the
        paged cache never holds more than its worst-case block count."""
        n_heads, head_dim, capacity, window, block_size, ops, seed = scenario
        rng = np.random.default_rng(seed)
        ref = KVCache(n_heads, head_dim, capacity, window=window)
        # Size the pool for the true worst case: at most capacity (or
        # window) tokens are live, and once the program has evicted
        # from the head — windowless caches may evict too — they can
        # straddle one extra block while the head offset walks through
        # the first block.
        live = capacity if window is None else window
        bound = blocks_needed(live, block_size) + 1
        pool = BlockPool(n_heads, head_dim, block_size, n_blocks=bound)
        paged = PagedKVCache(pool, capacity, window=window)
        from repro.core.decode import KVCacheOverflow

        for op in ops:
            if op[0] == "append":
                k = rng.normal(size=(n_heads, head_dim))
                v = rng.normal(size=(n_heads, head_dim))
                try:
                    ref.append(k, v)
                    ref_overflow = False
                except KVCacheOverflow:
                    ref_overflow = True
                try:
                    paged.append(k, v)
                    paged_overflow = False
                except KVCacheOverflow:
                    paged_overflow = True
                assert ref_overflow == paged_overflow
            elif op[0] == "evict":
                n = min(op[1], ref.length)
                ref.evict(n)
                paged.evict(n)
            elif op[0] == "truncate":
                n = min(op[1], ref.length)
                ref.truncate(n)
                paged.truncate(n)
            else:
                ref.reset()
                paged.reset()
            assert ref.length == paged.length
            assert ref.start_position == paged.start_position
            assert ref.evictions == paged.evictions
            assert np.array_equal(ref.keys, paged.keys)
            assert np.array_equal(ref.values, paged.values)
            if ref.length:
                assert np.array_equal(
                    ref.values_snapshot(ref.length),
                    paged.values_snapshot(paged.length),
                )
            assert paged.blocks_in_use <= bound
            assert pool.in_use == paged.blocks_in_use
            assert (
                pool.blocks_allocated - pool.blocks_freed == pool.in_use
            )


# ----------------------------------------------------------------------
# Speculative vs plain generate under arbitrary accept/reject programs.
# ----------------------------------------------------------------------


@st.composite
def speculative_scenarios(draw):
    """A decode request, a draft depth and an accept/reject program."""
    n_heads = draw(st.integers(min_value=1, max_value=3))
    head_dim = draw(st.integers(min_value=1, max_value=4))
    prompt_len = draw(st.integers(min_value=1, max_value=5))
    new_tokens = draw(st.integers(min_value=0, max_value=6))
    window = draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=prompt_len))
    )
    spec_k = draw(st.integers(min_value=1, max_value=4))
    program = draw(
        st.lists(st.booleans(), min_size=1, max_size=16)
    )
    seed = draw(st.integers(min_value=0, max_value=2**20))
    hidden = n_heads * head_dim
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(hidden)
    request = DecodeRequest(
        x=rng.normal(0.0, 1.0, size=(prompt_len, hidden)),
        wq=rng.normal(0.0, scale, size=(hidden, hidden)),
        wk=rng.normal(0.0, scale, size=(hidden, hidden)),
        wv=rng.normal(0.0, scale, size=(hidden, hidden)),
        wo=rng.normal(0.0, scale, size=(hidden, hidden)),
        n_heads=n_heads,
        max_new_tokens=new_tokens,
        window=window,
    )
    return request, spec_k, program


class TestSpeculativeEquivalenceProperties:
    @given(scenario=speculative_scenarios())
    @settings(max_examples=25, deadline=None)
    def test_speculative_equals_plain_under_any_program(self, scenario):
        """Any accept/reject/rollback program yields bit-identical
        generated tokens, an identical final KV state, the plain run's
        exact closed-form cycle bill, and a drained block pool."""
        from repro.core.paging import worst_case_blocks

        request, spec_k, program = scenario
        plain_state = DECODER.start(request)
        plain = DECODER.generate(request, state=plain_state)

        speculator = SpeculativeDecodeEngine(DECODER, spec_k=spec_k)
        pool = BlockPool(
            request.n_heads, request.head_dim, 3,
            n_blocks=worst_case_blocks(
                request.total_tokens + spec_k, request.window, 3
            ),
        )
        spec_state = speculator.start(request, pool=pool)
        spec = speculator.generate(
            request, state=spec_state, draft=ScheduledDraft(SMALL, program)
        )

        assert np.array_equal(spec.generated, plain.generated)
        assert spec.sequential_vector_cycles == plain.vector_cycles

        # Final KV state bit-exact: same span, same rows, no leftover
        # provisional tokens after the last rollback.
        assert spec_state.cache.length == plain_state.cache.length
        assert (
            spec_state.cache.start_position
            == plain_state.cache.start_position
        )
        assert np.array_equal(spec_state.cache.keys, plain_state.cache.keys)
        assert np.array_equal(
            spec_state.cache.values, plain_state.cache.values
        )

        # Acceptance bookkeeping balances.
        assert spec.n_generated == request.max_new_tokens
        assert spec.verify_passes + spec.accepted_tokens == spec.n_generated
        assert (
            spec.drafted_tokens
            == spec.accepted_tokens + spec.rolled_back_tokens
        )

        # Pool accounting: rollback freed every rejected block; what
        # remains in use is exactly the live cache, and resetting
        # returns the pool to baseline (no leaked blocks).
        assert pool.in_use == spec_state.cache.blocks_in_use
        assert pool.blocks_allocated - pool.blocks_freed == pool.in_use
        assert pool.live_tokens == spec_state.cache.length
        spec_state.cache.reset()
        assert pool.in_use == 0
        assert pool.live_tokens == 0
        assert pool.blocks_allocated == pool.blocks_freed


class TestDecodeEquivalenceProperties:
    @given(request=random_decode_requests())
    @settings(max_examples=25, deadline=None)
    def test_tokenwise_decode_equals_packed_prefill(self, request):
        decoded = DECODER.decode(request)
        prefill = DECODER.prefill(DECODER.start(request))
        assert np.array_equal(decoded.outputs, prefill.outputs)
        for t, step in enumerate(decoded.steps):
            span = step.probabilities.shape[-1]
            start = t + 1 - span
            assert np.array_equal(
                step.probabilities,
                prefill.probabilities[:, t, start : t + 1],
            )
            # each probability row is itself a distribution
            assert np.allclose(
                step.probabilities.sum(axis=-1), 1.0, atol=1e-12
            )
