"""Tests for the typed front door: NovaConfig, PRESETS and NovaSession.

The headline contract: a geometry is a validated :class:`NovaConfig`
(or a preset name); engines take nothing else, and a
:class:`NovaSession` runs the same engines, bit-, cycle- and
counter-exact against constructing them directly.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.core.attention import NovaAttentionEngine
from repro.core.batched_attention import (
    AttentionRequest,
    BatchedNovaAttentionEngine,
)
from repro.core.config import (
    ENGINE_FIELDS,
    GEOMETRY_FIELDS,
    NovaConfig,
    PRESETS,
    as_config,
    preset,
)
from repro.core.session import NovaSession
from repro.core.vector_unit import NovaVectorUnit
from repro.eval.paper_data import TABLE2_CONFIGS
from repro.workloads.bert import bert_attention_batch


class TestNovaConfigValidation:
    def test_defaults_are_the_tpu_v4_geometry(self):
        cfg = NovaConfig()
        tpu = preset("tpu-v4")
        for name in ENGINE_FIELDS:
            assert getattr(cfg, name) == getattr(tpu, name)

    @pytest.mark.parametrize("field", ["n_routers", "neurons_per_router",
                                       "n_segments"])
    def test_nonpositive_counts_rejected(self, field):
        for bad in (0, -1):
            with pytest.raises(ValueError, match=field):
                NovaConfig(**{field: bad})

    @pytest.mark.parametrize("field", ["pe_frequency_ghz", "hop_mm"])
    def test_nonpositive_reals_rejected(self, field):
        for bad in (0.0, -0.5):
            with pytest.raises(ValueError, match=field):
                NovaConfig(**{field: bad})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            NovaConfig(seed=-1)

    def test_wrong_types_rejected(self):
        with pytest.raises(TypeError):
            NovaConfig(n_routers=2.5)
        with pytest.raises(TypeError):
            NovaConfig(n_routers=True)
        with pytest.raises(TypeError):
            NovaConfig(pe_frequency_ghz="fast")
        with pytest.raises(TypeError):
            NovaConfig(host=7)

    def test_numpy_scalars_coerced(self):
        cfg = NovaConfig(n_routers=np.int64(3),
                         pe_frequency_ghz=np.float64(1.1))
        assert cfg.n_routers == 3 and isinstance(cfg.n_routers, int)
        assert cfg.pe_frequency_ghz == 1.1
        assert isinstance(cfg.pe_frequency_ghz, float)

    def test_derived_geometry(self):
        cfg = NovaConfig(n_routers=3, neurons_per_router=7)
        assert cfg.n_lanes == 21
        assert cfg.lane_shape == (3, 7)


class TestNovaConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = NovaConfig(n_routers=5, neurons_per_router=32,
                         pe_frequency_ghz=0.9, hop_mm=2.0, n_segments=8,
                         seed=3, host="REACT")
        assert NovaConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip(self):
        for name, cfg in PRESETS.items():
            assert NovaConfig.from_json(cfg.to_json()) == cfg, name

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="n_rooters"):
            NovaConfig.from_dict({"n_rooters": 4})

    def test_replace_revalidates(self):
        cfg = NovaConfig()
        assert cfg.replace(n_routers=2).n_routers == 2
        with pytest.raises(ValueError):
            cfg.replace(n_routers=0)

    def test_with_overrides_strings(self):
        cfg = NovaConfig().with_overrides(
            ["n_routers=16", "hop_mm=1.0", "host=none"]
        )
        assert cfg.n_routers == 16
        assert cfg.hop_mm == 1.0
        assert cfg.host is None

    def test_with_overrides_errors(self):
        with pytest.raises(ValueError, match="FIELD=VALUE"):
            NovaConfig().with_overrides(["n_routers"])
        with pytest.raises(ValueError, match="unknown"):
            NovaConfig().with_overrides(["lanes=4"])
        with pytest.raises(ValueError, match="bad value"):
            NovaConfig().with_overrides(["n_routers=four"])


class TestPresets:
    def test_registry_names(self):
        assert set(PRESETS) == {"jetson-nx", "react", "tpu-v3", "tpu-v4"}

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError, match="available"):
            preset("jetson")

    def test_presets_match_table2(self):
        # every preset's geometry must agree with the paper_data
        # transcription of Table II for its host accelerator
        for name, cfg in PRESETS.items():
            acc = TABLE2_CONFIGS[cfg.host]
            assert cfg.n_routers == acc.n_routers, name
            assert cfg.neurons_per_router == acc.neurons_per_router, name
            assert cfg.pe_frequency_ghz == acc.frequency_ghz, name
            assert cfg.hop_mm == acc.hop_mm, name

    def test_presets_build_their_hosts(self):
        for name, cfg in PRESETS.items():
            host = cfg.build_host()
            assert host is not None, name

    def test_hostless_config_refuses_build_host(self):
        with pytest.raises(ValueError, match="host"):
            NovaConfig().build_host()

    def test_as_config_coercions(self):
        assert as_config(None) == NovaConfig()
        cfg = preset("react")
        assert as_config(cfg) is cfg
        assert as_config("react") is cfg
        assert as_config(cfg.to_dict()) == cfg
        with pytest.raises(TypeError):
            as_config(42)


class TestEngineShim:
    """Engines take a NovaConfig or a preset name, nothing looser."""

    def test_geometry_kwargs_rejected(self):
        with pytest.raises(TypeError, match="n_routers"):
            NovaAttentionEngine(n_routers=2)
        with pytest.raises(TypeError, match="seed"):
            BatchedNovaAttentionEngine(seed=1)

    def test_config_plus_kwargs_rejected(self):
        with pytest.raises(TypeError, match="n_routers"):
            NovaAttentionEngine("jetson-nx", n_routers=2)
        with pytest.raises(TypeError, match="seed"):
            BatchedNovaAttentionEngine(NovaConfig(), seed=1)
        table = NovaConfig(n_segments=8).table("gelu")
        with pytest.raises(TypeError, match="n_routers"):
            NovaVectorUnit(table, NovaConfig(), n_routers=2)

    def test_vector_unit_rejects_positional_geometry(self):
        table = NovaConfig().table("gelu")
        with pytest.raises(TypeError, match="NovaConfig"):
            NovaVectorUnit(table, 2)

    def test_vector_unit_preset_name(self):
        table = NovaConfig().table("exp")
        unit = NovaVectorUnit(table, "jetson-nx")
        assert unit.n_routers == 2 and unit.neurons_per_router == 16

    def test_vector_unit_requires_geometry(self):
        table = NovaConfig().table("exp")
        with pytest.raises(TypeError, match="NovaConfig"):
            NovaVectorUnit(table)


class TestNovaSession:
    @pytest.fixture(scope="class")
    def session(self):
        return NovaSession("jetson-nx")

    def test_engines_lazy_and_cached(self, session):
        assert session.reference is session.reference
        assert session.server is session.server
        assert session.unit("exp") is session.unit("exp")

    def test_session_shares_compiled_tables_with_engines(self, session):
        assert session.unit("exp").table is session.reference.tables["exp"]
        assert session.unit("exp").table is session.server.tables["exp"]

    def test_attention_layer_matches_direct_engine(self, session):
        rng = np.random.default_rng(3)
        hidden = 16
        x = rng.normal(0, 1, size=(4, hidden))
        w = {
            name: rng.normal(0, 1 / np.sqrt(hidden), size=(hidden, hidden))
            for name in ("wq", "wk", "wv", "wo")
        }
        direct = NovaAttentionEngine(session.config)
        a = session.attention_layer(x, n_heads=2, **w)
        b = direct.attention_layer(x, n_heads=2, **w)
        assert np.array_equal(a.outputs, b.outputs)
        assert a.counters.as_dict() == b.counters.as_dict()
        exact = session.exact_attention_layer(x, n_heads=2, **w)
        assert exact.shape == (4, hidden)

    def test_serve_matches_reference(self, session):
        batch = bert_attention_batch("BERT-tiny", 2, seq_len=[5, 8], seed=4)
        result = session.serve(batch)
        for req, got in zip(batch, result.results):
            ref = session.attention_layer(
                req.x, req.wq, req.wk, req.wv, req.wo, n_heads=req.n_heads
            )
            assert np.array_equal(got.outputs, ref.outputs)
            assert got.vector_cycles == ref.vector_cycles
            assert got.counters.as_dict() == ref.counters.as_dict()

    def test_unit_unknown_function_rejected(self, session):
        with pytest.raises(KeyError):
            session.unit("definitely_not_a_function")

    def test_cache_info_shape(self, session):
        session.unit("gelu")
        info = session.cache_info()
        assert info["tables"]["entries"] >= 1
        assert info["schedules"] >= 1

    def test_session_accepts_config_and_none(self):
        assert NovaSession().config == NovaConfig()
        cfg = NovaConfig(n_routers=2, neurons_per_router=4)
        assert NovaSession(cfg).config is cfg
        assert NovaSession(cfg.to_dict()).config == cfg

    def test_repr_mentions_geometry(self, session):
        text = repr(session)
        assert "2x16" in text
        assert "1.4 GHz" in text


class TestAttentionRequestValidation:
    def test_empty_sequence_rejected(self):
        w = np.zeros((8, 8))
        with pytest.raises(ValueError, match="empty sequence"):
            AttentionRequest(
                x=np.zeros((0, 8)), wq=w, wk=w, wv=w, wo=w, n_heads=2
            )

    def test_zero_hidden_rejected(self):
        w = np.zeros((0, 0))
        with pytest.raises(ValueError, match="hidden width"):
            AttentionRequest(
                x=np.zeros((4, 0)), wq=w, wk=w, wv=w, wo=w, n_heads=1
            )

    def test_mismatched_hidden_rejected(self):
        w = np.zeros((8, 8))
        with pytest.raises(ValueError, match="wk"):
            AttentionRequest(
                x=np.zeros((4, 8)), wq=w, wk=np.zeros((4, 8)), wv=w, wo=w,
                n_heads=2,
            )
