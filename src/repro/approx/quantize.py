"""Fixed-point PWL tables and NOVA link-beat packing.

The NOVA link is 257 bits: 16 16-bit words (8 slope/bias pairs) plus one
tag bit (paper, Fig. 3).  With ``B`` slope/bias pairs and 8 pairs per beat
the mapper serialises the table into ``ceil(B / 8)`` beats.  The paper's
tag-matching rule (§III-A.1) is:

    "the LSB of each lookup address is used to match against the tag bit of
    the incoming packet.  The remaining bits are used to retrieve the slope
    and bias values"

i.e. for a 16-entry table, beat 0 carries the pairs for even addresses and
beat 1 the pairs for odd addresses; a router with address ``a`` grabs slot
``a >> 1`` from the beat whose tag equals ``a & 1``.  For an 8-entry table
there is a single beat (tag 0) and the full address selects the slot.  The
generalisation to ``2^k`` beats uses the low ``k`` address bits as the tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.approx.pwl import PiecewiseLinear
from repro.utils.fixed_point import FixedPointFormat, Q5_10

__all__ = [
    "QuantizedPwl",
    "LinkBeat",
    "pack_beats",
    "unpack_beats",
    "beat_of_address",
    "slot_of_address",
    "PAIRS_PER_BEAT",
]

#: Pairs broadcast per NoC beat — fixed by the 257-bit link width.
PAIRS_PER_BEAT = 8


class _FoldedTable(NamedTuple):
    """A :class:`QuantizedPwl`'s evaluation constants, derived once."""

    in_low: float
    in_high: float
    in_scale: float
    cuts: np.ndarray
    slopes: np.ndarray
    biases: np.ndarray
    out_scale: float
    out_min_raw: float
    out_max_raw: float


@dataclass(frozen=True)
class QuantizedPwl:
    """A PWL table with all coefficients held in fixed point.

    ``cuts``, ``slopes`` and ``biases`` are stored as the *representable
    values* (floats that are exact multiples of the respective format's
    LSB) so functional evaluation stays in plain numpy while matching the
    bit-level behaviour; raw integer codes are available via the format's
    ``to_raw``.
    """

    pwl: PiecewiseLinear
    input_format: FixedPointFormat = Q5_10
    coeff_format: FixedPointFormat = Q5_10
    output_format: FixedPointFormat = Q5_10

    def __post_init__(self) -> None:
        cuts = np.asarray(self.pwl.cuts, dtype=np.float64)
        fmt = self.input_format
        if len(cuts) and (
            cuts.min() <= fmt.min_value or cuts.max() >= fmt.max_value
        ):
            raise ValueError(
                f"input format {fmt} (range [{fmt.min_value}, "
                f"{fmt.max_value}]) saturates the table's cut points "
                f"({cuts.min():.4g}..{cuts.max():.4g}); choose a format "
                "with more integer bits"
            )
        try:
            quantized = PiecewiseLinear(
                cuts=fmt.quantize(cuts),
                slopes=self.coeff_format.quantize(self.pwl.slopes),
                biases=self.coeff_format.quantize(self.pwl.biases),
                domain=self.pwl.domain,
                name=self.pwl.name,
            )
        except ValueError as err:
            raise ValueError(
                f"input format {fmt} cannot resolve adjacent cut points "
                f"of table {self.pwl.name!r} (LSB {fmt.scale:.3g}); "
                "increase fraction bits or reduce the segment count"
            ) from err
        object.__setattr__(self, "_quantized", quantized)

    @property
    def quantized_pwl(self) -> PiecewiseLinear:
        """The table after coefficient quantisation (cuts/slopes/biases)."""
        return self._quantized

    @property
    def n_segments(self) -> int:
        """Number of slope/bias pairs."""
        return self.pwl.n_segments

    @property
    def n_beats(self) -> int:
        """NoC beats needed to broadcast the full table."""
        return -(-self.n_segments // PAIRS_PER_BEAT)

    def segment_index(self, x: np.ndarray | float) -> np.ndarray:
        """Comparator model on the quantised input and cuts."""
        return self.lookup(x)[1]

    @cached_property
    def _folded(self) -> _FoldedTable:
        """The constants :meth:`lookup` and :meth:`evaluate` run on.

        The table is frozen, so the formats' LSBs and raw bounds and the
        coefficient arrays are derived once, and the input format's
        saturation is folded into the domain clamp: clamping ``x`` to
        the domain bounds *each saturated to the input format's range*
        leaves ``rint(x / lsb)`` inside the raw range, and equals the
        raw code that clamping to the domain and then saturating gives
        (``rint(x / lsb)`` is monotone; ``±inf`` and NaN included).
        """
        low, high = self._quantized.domain
        fin, fout = self.input_format, self.output_format

        def saturated(value: float) -> float:
            return float(min(max(value, fin.min_value), fin.max_value))

        return _FoldedTable(
            in_low=saturated(low),
            in_high=saturated(high),
            in_scale=fin.scale,
            cuts=self._quantized.cuts,
            slopes=self._quantized.slopes,
            biases=self._quantized.biases,
            out_scale=fout.scale,
            out_min_raw=float(fout.min_raw),
            out_max_raw=float(fout.max_raw),
        )

    def lookup(self, x: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
        """Quantise and address the whole input in one vectorised pass.

        Returns ``(xq, idx)``: the quantised (clamped, representable)
        inputs and their segment indices, for any input shape.  This is
        the hot path of the batched serving engine — one ``searchsorted``
        gather over an entire request batch replaces per-PE-cycle Python
        iteration — and it is shared with :meth:`evaluate` so the fast
        path cannot drift from the golden model.

        The values are exactly ``input_format.quantize(quantized_pwl.
        clamp(x))`` and ``quantized_pwl.segment_index(xq)``, computed
        with plain ufuncs on the :attr:`_folded` constants.  The integer
        round trip of ``to_raw`` stays (``-0.0`` quantises to ``+0.0``,
        NaN to the same raw code).  The comparator's own domain clamp is
        dropped: every cut lies strictly inside the domain
        (:class:`~repro.approx.pwl.PiecewiseLinear` enforces it), so
        clamping ``xq`` moves no value across a cut.
        """
        k = self._folded
        clamped = np.minimum(
            np.maximum(np.asarray(x, dtype=np.float64), k.in_low), k.in_high
        )
        xq = np.rint(clamped / k.in_scale).astype(np.int64) * k.in_scale
        idx = np.searchsorted(k.cuts, xq, side="right")
        return xq, idx.astype(np.int64, copy=False)

    def evaluate(self, x: np.ndarray | float) -> np.ndarray:
        """Bit-accurate functional evaluation: quantise, look up, MAC.

        This is the golden model that both the cycle-accurate NOVA pipeline
        and the LUT baselines must match exactly.  The MAC is
        ``output_format.mac`` (full-precision ``slope * x + bias``, then
        round-half-to-even and saturate) on the folded constants.
        """
        k = self._folded
        xq, idx = self.lookup(x)
        total = k.slopes[idx] * xq + k.biases[idx]
        raw = np.minimum(
            np.maximum(np.rint(total / k.out_scale), k.out_min_raw),
            k.out_max_raw,
        )
        return raw.astype(np.int64) * k.out_scale

    __call__ = evaluate

    def coefficient_words(self) -> np.ndarray:
        """Raw (slope, bias) integer codes, shape ``(n_segments, 2)``."""
        slope_raw = self.coeff_format.to_raw(self._quantized.slopes)
        bias_raw = self.coeff_format.to_raw(self._quantized.biases)
        return np.stack([slope_raw, bias_raw], axis=1)

    @cached_property
    def packed_beats(self) -> tuple[LinkBeat, ...]:
        """This table's link beats, serialised by :func:`pack_beats` once.

        The table is frozen, so its serialisation never changes; the
        tuple (of frozen beats) is shared by every overlay that
        broadcasts this table and cannot be mutated through any of them.
        """
        return tuple(pack_beats(self))


@dataclass(frozen=True)
class LinkBeat:
    """One beat on the NOVA link: 8 slope/bias raw pairs plus a tag.

    ``pairs[slot] = (slope_raw, bias_raw)``.  Unused slots in the final
    beat of a short table are zero-filled, as unused wires would idle.
    """

    tag: int
    pairs: tuple[tuple[int, int], ...]
    word_bits: int = 16

    def __post_init__(self) -> None:
        if len(self.pairs) != PAIRS_PER_BEAT:
            raise ValueError(
                f"a beat carries exactly {PAIRS_PER_BEAT} pairs, got {len(self.pairs)}"
            )
        if self.tag < 0:
            raise ValueError(f"tag must be non-negative, got {self.tag}")

    @property
    def bit_width(self) -> int:
        """Payload width: 16 words plus tag bits (257 for 16-bit words)."""
        tag_bits = max(1, (max(self.tag, 1)).bit_length()) if self.tag else 1
        return 2 * PAIRS_PER_BEAT * self.word_bits + tag_bits

    def pair_for_slot(self, slot: int) -> tuple[int, int]:
        """Return the (slope_raw, bias_raw) pair at ``slot``."""
        return self.pairs[slot]


def beat_of_address(address: int, n_beats: int) -> int:
    """Which beat carries the pair for ``address`` (low address bits)."""
    if n_beats < 1:
        raise ValueError(f"n_beats must be >= 1, got {n_beats}")
    if n_beats & (n_beats - 1):
        raise ValueError(f"n_beats must be a power of two, got {n_beats}")
    return address & (n_beats - 1)


def slot_of_address(address: int, n_beats: int) -> int:
    """Which slot within the beat carries the pair for ``address``."""
    if n_beats < 1:
        raise ValueError(f"n_beats must be >= 1, got {n_beats}")
    if n_beats & (n_beats - 1):
        raise ValueError(f"n_beats must be a power of two, got {n_beats}")
    return address >> (n_beats - 1).bit_length()


def pack_beats(qpwl: QuantizedPwl) -> list[LinkBeat]:
    """Serialise a quantised table into link beats (the mapper's job).

    Beat ``t`` carries the pairs for every address ``a`` with
    ``a % n_beats == t``, at slot ``a // n_beats`` — the address-LSB
    tag-matching layout of §III-A.1.
    """
    words = qpwl.coefficient_words()
    n_beats_padded = 1
    while n_beats_padded * PAIRS_PER_BEAT < qpwl.n_segments:
        n_beats_padded *= 2
    beats = []
    for tag in range(n_beats_padded):
        pairs = []
        for slot in range(PAIRS_PER_BEAT):
            address = slot * n_beats_padded + tag
            if address < qpwl.n_segments:
                pairs.append((int(words[address, 0]), int(words[address, 1])))
            else:
                pairs.append((0, 0))
        beats.append(
            LinkBeat(tag=tag, pairs=tuple(pairs), word_bits=qpwl.coeff_format.word_bits)
        )
    return beats


def unpack_beats(beats: list[LinkBeat], n_segments: int) -> np.ndarray:
    """Reassemble (slope_raw, bias_raw) per address from link beats.

    Inverse of :func:`pack_beats`; used by tests to prove the serialisation
    is lossless.
    """
    n_beats = len(beats)
    if n_beats & (n_beats - 1):
        raise ValueError(f"number of beats must be a power of two, got {n_beats}")
    words = np.zeros((n_segments, 2), dtype=np.int64)
    for address in range(n_segments):
        beat = beats[beat_of_address(address, n_beats)]
        slot = slot_of_address(address, n_beats)
        slope_raw, bias_raw = beat.pair_for_slot(slot)
        words[address, 0] = slope_raw
        words[address, 1] = bias_raw
    return words
