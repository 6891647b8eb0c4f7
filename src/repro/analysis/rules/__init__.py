"""The novalint rule set.

One module per rule, ``NVnnn``-prefixed; :data:`ALL_RULES` is the
registry the engine and CLI consume, ordered by rule id.  Adding a rule
is: write the module (subclass :class:`~repro.analysis.engine.Rule`,
set ``rule_id``/``title``/``severity``, implement ``check``), import it
here, append an instance to :data:`ALL_RULES`, and add the good/bad
fixture pair in ``tests/test_novalint.py``.
"""

from __future__ import annotations

from repro.analysis.engine import Rule
from repro.analysis.rules.nv001_rng import UnseededRngRule
from repro.analysis.rules.nv002_paging import BlockPoolAccessRule
from repro.analysis.rules.nv003_float_eq import FloatEqualityRule
from repro.analysis.rules.nv004_frozen_config import FrozenConfigRule
from repro.analysis.rules.nv006_counters import CounterOwnershipRule
from repro.analysis.rules.nv007_atomicity import AtomicityRule
from repro.analysis.rules.nv008_wallclock import WallClockRule
from repro.analysis.rules.nv009_kernel_purity import KernelPurityRule

__all__ = [
    "ALL_RULES",
    "UnseededRngRule",
    "BlockPoolAccessRule",
    "FloatEqualityRule",
    "FrozenConfigRule",
    "CounterOwnershipRule",
    "AtomicityRule",
    "WallClockRule",
    "KernelPurityRule",
]

ALL_RULES: tuple[Rule, ...] = (
    UnseededRngRule(),
    BlockPoolAccessRule(),
    FloatEqualityRule(),
    FrozenConfigRule(),
    CounterOwnershipRule(),
    AtomicityRule(),
    WallClockRule(),
    KernelPurityRule(),
)
