"""NOVA: the NoC-based vector unit (the paper's contribution).

The pipeline (paper Figs. 3 and 4):

1. A PE produces one output value per neuron per PE cycle.
2. The **comparator bank** compares each value against the PWL cut points
   and emits a *lookup address* (segment index).
3. The **NOVA NoC** — a 1-D line of routers with SMART-style clockless
   repeaters — broadcasts the table's slope/bias pairs, 8 pairs per
   257-bit beat, one beat per NoC cycle, reaching every router in a single
   NoC cycle (for <= 10 routers at 1 mm pitch).
4. Each router **tag-matches** the low address bits against the beat tag
   and captures the (slope, bias) pair at slot ``address >> k``.
5. The **MAC lane** computes ``slope * x + bias`` the next PE cycle.

With a 16-entry table the NoC runs at 2x the PE clock so both beats land
within one PE cycle, keeping end-to-end latency identical to the 2-cycle
LUT baseline (fetch, then MAC).

The :class:`NovaVectorUnit` offers a functional API (bit-exact against the
:class:`~repro.approx.quantize.QuantizedPwl` golden model) and a
cycle-accurate streaming API used by the energy evaluation.
"""

from repro.core.config import (
    NovaConfig,
    PRESETS,
    KERNEL_BACKENDS,
    preset,
    as_config,
)
from repro.core.comparator import ComparatorBank
from repro.core.kernels import (
    KernelBackend,
    NumpyBackend,
    LoopbackBackend,
    NumbaBackend,
    BACKENDS,
    resolve_backend,
    available_backends,
    kernel_cache_info,
)
from repro.core.mac import MacLane
from repro.core.router import NovaRouter
from repro.core.noc import NovaNoc, BroadcastResult
from repro.core.mapper import NovaMapper, BroadcastSchedule
from repro.core.vector_unit import (
    NovaVectorUnit,
    ApproximationResult,
    FaultedResult,
    StreamResult,
)
from repro.core.overlay import (
    OverlayAttachment,
    ReactOverlay,
    SystolicOverlay,
    NvdlaOverlay,
)
from repro.core.table_scheduler import (
    TableScheduler,
    ScheduleReport,
    reconfiguration_cycles,
)
from repro.core.attention import NovaAttentionEngine, AttentionLayerResult
from repro.core.batched_attention import (
    AttentionRequest,
    BatchedAttentionResult,
    BatchedNovaAttentionEngine,
)
from repro.core.paging import (
    BlockPool,
    BlockPoolExhausted,
    BlockTable,
    PagedKVCache,
    pool_cache_info,
)
from repro.core.decode import (
    KVCache,
    KVCacheOverflow,
    DecodeRequest,
    DecodeState,
    DecodeStepResult,
    CausalPrefillResult,
    DecodeResult,
    GenerateResult,
    NovaDecodeEngine,
    ContinuousBatchScheduler,
    ContinuousBatchResult,
)
from repro.core.speculative import (
    DraftModel,
    NGramDraft,
    TruncatedTableDraft,
    ScheduledDraft,
    build_draft,
    SpeculativeDecodeEngine,
    SpeculativeGenerateResult,
)
from repro.core.session import NovaSession
from repro.core.streaming import StreamingLine, ObservationLog

__all__ = [
    "NovaConfig",
    "PRESETS",
    "KERNEL_BACKENDS",
    "preset",
    "as_config",
    "NovaSession",
    "KernelBackend",
    "NumpyBackend",
    "LoopbackBackend",
    "NumbaBackend",
    "BACKENDS",
    "resolve_backend",
    "available_backends",
    "kernel_cache_info",
    "ComparatorBank",
    "MacLane",
    "NovaRouter",
    "NovaNoc",
    "BroadcastResult",
    "NovaMapper",
    "BroadcastSchedule",
    "NovaVectorUnit",
    "ApproximationResult",
    "FaultedResult",
    "StreamResult",
    "OverlayAttachment",
    "ReactOverlay",
    "SystolicOverlay",
    "NvdlaOverlay",
    "TableScheduler",
    "ScheduleReport",
    "reconfiguration_cycles",
    "NovaAttentionEngine",
    "AttentionLayerResult",
    "AttentionRequest",
    "BatchedAttentionResult",
    "BatchedNovaAttentionEngine",
    "BlockPool",
    "BlockPoolExhausted",
    "BlockTable",
    "PagedKVCache",
    "pool_cache_info",
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
    "DraftModel",
    "NGramDraft",
    "TruncatedTableDraft",
    "ScheduledDraft",
    "build_draft",
    "SpeculativeDecodeEngine",
    "SpeculativeGenerateResult",
    "StreamingLine",
    "ObservationLog",
]
