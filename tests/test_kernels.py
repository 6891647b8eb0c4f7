"""Kernel backends: registry, equivalence, and the serving surface.

The pluggable backends (:mod:`repro.core.kernels`) are an execution
strategy, never a numerics choice: every backend must produce
bit-identical outputs, addresses and event-counter totals to the
beat-level simulation, on every preset geometry, under every serving
mode.  Four test families pin that contract:

* whole-stream equivalence — ``run_stream`` through each installed
  backend vs ``simulate=True`` on every preset, exact in outputs,
  addresses and counters, plus a hypothesis property sweeping random
  stream shapes and out-of-domain values,
* scheduler-step equivalence — contiguous, paged, prefix-cached and
  speculative decode runs bit/cycle/counter-identical across backends,
* the registry — unknown names fail fast with the known list, missing
  optional dependencies degrade to numpy with a ``RuntimeWarning``,
  and the config/registry name sets never drift apart,
* the surface — ``NovaConfig`` validation, ``--override`` parsing, and
  the launch tallies in ``NovaSession.cache_info()["kernels"]``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.core.kernels as kernels
from repro.approx.functions import get_function
from repro.approx.pwl import PiecewiseLinear
from repro.approx.quantize import QuantizedPwl
from repro.core.config import KERNEL_BACKENDS, PRESETS, NovaConfig
from repro.core.decode import (
    ContinuousBatchScheduler,
    DecodeRequest,
    NovaDecodeEngine,
)
from repro.core.kernels import (
    BACKENDS,
    available_backends,
    kernel_cache_info,
    resolve_backend,
)
from repro.core.session import NovaSession
from repro.core.speculative import ScheduledDraft
from repro.core.vector_unit import NovaVectorUnit

INSTALLED = available_backends()

#: Small geometry for the data-heavy tests (tables compile once).
SMALL = NovaConfig(n_routers=2, neurons_per_router=8)

_UNIT_CACHE: dict = {}


def make_unit(cfg: NovaConfig, n_segments: int = 16) -> NovaVectorUnit:
    key = (cfg.n_routers, cfg.neurons_per_router, cfg.pe_frequency_ghz,
           cfg.hop_mm, cfg.kernel_backend, n_segments)
    if key not in _UNIT_CACHE:
        spec = get_function("gelu")
        table = QuantizedPwl(
            PiecewiseLinear.fit(spec.fn, spec.domain, n_segments)
        )
        _UNIT_CACHE[key] = NovaVectorUnit(table, cfg)
    return _UNIT_CACHE[key]


def toy_requests(
    n: int = 2,
    prompt_len: int = 6,
    new_tokens: int = 4,
    hidden: int = 4,
    n_heads: int = 2,
    seed: int = 0,
) -> list[DecodeRequest]:
    """Small causal decode requests sharing one set of weights."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(hidden)
    weights = {
        name: rng.normal(0.0, scale, size=(hidden, hidden))
        for name in ("wq", "wk", "wv", "wo")
    }
    return [
        DecodeRequest(
            x=rng.normal(0.0, 1.0, size=(prompt_len, hidden)),
            n_heads=n_heads,
            max_new_tokens=new_tokens,
            max_seq_len=prompt_len + new_tokens + 2,
            **weights,
        )
        for _ in range(n)
    ]


# ----------------------------------------------------------------------
# Whole-stream equivalence: every backend vs the beat-level simulation.
# ----------------------------------------------------------------------


class TestStreamEquivalence:
    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    @pytest.mark.parametrize("backend", INSTALLED)
    def test_run_stream_matches_simulation(self, backend, preset_name):
        cfg = PRESETS[preset_name].replace(kernel_backend=backend)
        unit = make_unit(cfg)
        xs = np.random.default_rng(7).normal(
            0.0, 3.0, size=(4, cfg.n_routers, cfg.neurons_per_router)
        )
        vec = unit.run_stream(xs)
        sim = unit.run_stream(xs, simulate=True)
        assert np.array_equal(vec.outputs, sim.outputs)
        assert vec.addresses is not None and sim.addresses is not None
        assert np.array_equal(vec.addresses, sim.addresses)
        assert vec.counters.as_dict() == sim.counters.as_dict()
        assert vec.total_pe_cycles == sim.total_pe_cycles

    @pytest.mark.parametrize("backend", INSTALLED)
    def test_out_of_domain_values_clamp_identically(self, backend):
        unit = make_unit(SMALL.replace(kernel_backend=backend))
        xs = np.array(
            [[[1e9, -1e9, 0.0, 1e-300, -1e-300, 2.5, -2.5, 0.1]] * 2]
        )
        vec = unit.run_stream(xs)
        sim = unit.run_stream(xs, simulate=True)
        assert np.array_equal(vec.outputs, sim.outputs)
        assert np.array_equal(vec.addresses, sim.addresses)

    @pytest.mark.parametrize("backend", INSTALLED)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_property_vectorised_equals_simulated(self, backend, data):
        n_batches = data.draw(st.integers(1, 4), label="n_batches")
        xs = data.draw(
            hnp.arrays(
                np.float64,
                (n_batches, 2, 8),
                elements=st.floats(
                    -100.0, 100.0, allow_nan=False, allow_infinity=False
                ),
            ),
            label="xs",
        )
        unit = make_unit(SMALL.replace(kernel_backend=backend))
        vec = unit.run_stream(xs)
        sim = unit.run_stream(xs, simulate=True)
        assert np.array_equal(vec.outputs, sim.outputs)
        assert np.array_equal(vec.addresses, sim.addresses)
        assert vec.counters.as_dict() == sim.counters.as_dict()

    @pytest.mark.parametrize("backend", ["numpy", "loopback"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_property_stream_counters_equal_lifetime_delta(
        self, backend, data
    ):
        # the vectorised path reports the totals it charged instead of
        # diffing two lifetime snapshots; both must agree exactly
        cfg = data.draw(
            st.sampled_from([
                SMALL,
                NovaConfig(n_routers=3, neurons_per_router=5,
                           pe_frequency_ghz=0.5),
                NovaConfig(n_routers=25, neurons_per_router=2,
                           pe_frequency_ghz=0.75),
            ]),
            label="geometry",
        ).replace(kernel_backend=backend)
        n_segments = data.draw(st.sampled_from([8, 16, 32]), label="segs")
        n_batches = data.draw(st.integers(1, 5), label="n_batches")
        xs = data.draw(
            hnp.arrays(
                np.float64,
                (n_batches, cfg.n_routers, cfg.neurons_per_router),
                elements=st.floats(
                    -20.0, 20.0, allow_nan=False, allow_infinity=False
                ),
            ),
            label="xs",
        )
        unit = make_unit(cfg, n_segments)
        before = unit._lifetime_counters()
        stream = unit.run_stream(xs)
        assert (
            stream.counters.as_dict()
            == unit._lifetime_counters().diff(before).as_dict()
        )

    def test_simulate_path_populates_addresses(self):
        # Satellite regression: the cycle-simulated path used to leave
        # StreamResult.addresses as None, forcing consumers to branch.
        unit = make_unit(SMALL)
        xs = np.random.default_rng(11).normal(size=(3, 2, 8))
        sim = unit.run_stream(xs, simulate=True)
        assert sim.addresses is not None
        assert np.array_equal(sim.addresses, unit.table.segment_index(xs))


# ----------------------------------------------------------------------
# Scheduler-step equivalence across backends, under every serving mode.
# ----------------------------------------------------------------------


def _run_mode(cfg: NovaConfig, mode: str):
    engine = NovaDecodeEngine(cfg)
    requests = toy_requests()
    if mode == "contiguous":
        sched = ContinuousBatchScheduler(engine)
    elif mode == "paged":
        sched = ContinuousBatchScheduler(engine, paged=True, block_size=4)
    elif mode == "prefix-cached":
        sched = ContinuousBatchScheduler(
            engine, paged=True, block_size=4, prefix_caching=True
        )
    else:
        raise AssertionError(mode)
    return sched.run(requests)


@pytest.mark.parametrize("mode", ["contiguous", "paged", "prefix-cached"])
@pytest.mark.parametrize(
    "backend", [name for name in INSTALLED if name != "numpy"]
)
def test_scheduler_steps_bit_exact_across_backends(backend, mode):
    want = _run_mode(SMALL.replace(kernel_backend="numpy"), mode)
    got = _run_mode(SMALL.replace(kernel_backend=backend), mode)
    for ref, out in zip(want.results, got.results):
        assert np.array_equal(out.generated, ref.generated)
        assert np.array_equal(out.prefill.outputs, ref.prefill.outputs)
        assert out.vector_cycles == ref.vector_cycles
        assert out.counters.as_dict() == ref.counters.as_dict()
    assert got.packed_vector_cycles == want.packed_vector_cycles


@pytest.mark.parametrize(
    "backend", [name for name in INSTALLED if name != "numpy"]
)
def test_speculative_decode_bit_exact_across_backends(backend):
    request = toy_requests(n=1)[0]

    def run(name):
        cfg = SMALL.replace(kernel_backend=name)
        session = NovaSession(cfg)
        return session.generate(
            request,
            speculative=True,
            draft=ScheduledDraft(cfg, (True, False, True)),
        )

    want, got = run("numpy"), run(backend)
    assert np.array_equal(got.generated, want.generated)
    assert got.vector_cycles == want.vector_cycles
    assert got.counters.as_dict() == want.counters.as_dict()


# ----------------------------------------------------------------------
# The registry: names, fallback, and the config pin.
# ----------------------------------------------------------------------


class TestRegistry:
    def test_registry_and_config_names_never_drift(self):
        assert set(BACKENDS) == set(KERNEL_BACKENDS)

    def test_unknown_backend_lists_the_registry(self):
        with pytest.raises(ValueError, match="loopback.*numba.*numpy"):
            resolve_backend("bogus")

    def test_numpy_and_loopback_always_available(self):
        assert {"numpy", "loopback"} <= set(INSTALLED)

    def test_available_backends_is_a_registry_subset(self):
        assert set(INSTALLED) <= set(BACKENDS)

    def test_resolved_instances_are_memoised(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")

    @pytest.mark.parametrize("missing", ["numba"])
    def test_missing_optional_dep_degrades_to_numpy(self, missing):
        if missing in INSTALLED:
            pytest.skip(f"{missing} is installed in this process")
        kernels._INSTANCES.pop(missing, None)
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = resolve_backend(missing)
        assert backend.name == "numpy"
        # the fallback is memoised too: the warning fires once
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend(missing).name == "numpy"
        kernels._INSTANCES.pop(missing, None)

    def test_fallback_instances_do_not_count_as_available(self):
        for name in BACKENDS:
            cached = kernels._INSTANCES.get(name)
            if cached is not None and cached.name != name:
                assert name not in available_backends()


# ----------------------------------------------------------------------
# The surface: config validation, overrides, session cache_info.
# ----------------------------------------------------------------------


class TestSurface:
    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="kernel_backend"):
            NovaConfig(n_routers=2, neurons_per_router=8,
                       kernel_backend="bogus")

    def test_config_rejects_retired_jax_backend(self):
        with pytest.raises(
            ValueError, match=r"'jax'.*\['loopback', 'numba', 'numpy'\]"
        ):
            NovaConfig(n_routers=2, neurons_per_router=8,
                       kernel_backend="jax")

    def test_config_rejects_non_string_backend(self):
        with pytest.raises(TypeError):
            NovaConfig(n_routers=2, neurons_per_router=8, kernel_backend=3)

    def test_override_parses_the_knob(self):
        cfg = SMALL.with_overrides(["kernel_backend=loopback"])
        assert cfg.kernel_backend == "loopback"
        with pytest.raises(ValueError):
            SMALL.with_overrides(["kernel_backend=bogus"])

    def test_unit_resolves_the_configured_backend(self):
        unit = make_unit(SMALL.replace(kernel_backend="loopback"))
        assert unit.backend.name == "loopback"

    def test_unavailable_backend_resolves_to_numpy_on_the_unit(self):
        if "numba" in INSTALLED:
            pytest.skip("numba is installed in this process")
        kernels._INSTANCES.pop("numba", None)
        with pytest.warns(RuntimeWarning, match="falling back"):
            unit = make_unit(SMALL.replace(kernel_backend="numba"))
        assert unit.backend.name == "numpy"
        kernels._INSTANCES.pop("numba", None)

    def test_session_cache_info_surfaces_kernel_stats(self):
        session = NovaSession(SMALL)
        info = session.cache_info()["kernels"]
        assert info["registered"] == sorted(BACKENDS)
        assert set(info["available"]) == set(INSTALLED)
        before = info["backends"].get("numpy", {}).get("launches", 0)
        session.generate(toy_requests(n=1)[0])
        after = session.cache_info()["kernels"]["backends"]["numpy"]
        assert after["launches"] > before
        assert after["elements"] > 0

    def test_kernel_cache_info_stats_are_copies(self):
        resolve_backend("numpy")
        info = kernel_cache_info()
        for stats in info["backends"].values():
            stats["launches"] = -1
        fresh = kernel_cache_info()
        assert all(
            stats["launches"] >= 0 for stats in fresh["backends"].values()
        )
