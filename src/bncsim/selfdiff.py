"""Self-differencing single-APD receiver and its blinding monitor.

The detector subtracts a one-gate-delayed copy of the APD output from the
live output, which removes the periodic gate transient and, with it, any
avalanche that repeats in consecutive gates.  The monitor taps the raw
signal with one comparator (Comp A, strong avalanches only) and the two
difference polarities with two more (Comp B: delayed dominant, Comp C:
current dominant).

As in :mod:`bncsim.balanced`, the differencing node sees rail-saturated
amplitudes, so a strong avalanche following another strong avalanche
cancels exactly: Comp A fires with nothing on B or C, the signature of a
blinded detector.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import InconsistentWord
from .signal_model import DetectorParams


class SdGateEvent(int, Enum):
    """Monitor event of one gate; the value is its code in :func:`sd_word_codes`."""

    NO_EVENT = 0
    STRONG_RISE = 1
    DELAYED_FALL = 2
    WEAK_RISE = 3
    BLINDING_DETECTED = 4


# Truth table over (a<<2 | b<<1 | c).  b and c are exclusive, and a raw
# click rails the current signal so the delayed copy can never dominate
# it: words with both a and b are unreachable.
_WORD_TABLE = np.full(8, -1, dtype=np.int8)
_WORD_TABLE[0b000] = SdGateEvent.NO_EVENT
_WORD_TABLE[0b101] = SdGateEvent.STRONG_RISE
_WORD_TABLE[0b010] = SdGateEvent.DELAYED_FALL
_WORD_TABLE[0b001] = SdGateEvent.WEAK_RISE
_WORD_TABLE[0b100] = SdGateEvent.BLINDING_DETECTED


def sd_word_codes(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Classify each gate's comparator word into a :class:`SdGateEvent` code.

    Unreachable words raise :class:`InconsistentWord`.
    """
    idx = (a.astype(np.int8) << 2) | (b.astype(np.int8) << 1) | c.astype(np.int8)
    codes = _WORD_TABLE[idx]
    if (codes < 0).any():
        bad = int(idx[codes < 0][0])
        raise InconsistentWord(f"unreachable comparator word index {bad:#05b}")
    return codes


def sd_event_codes(
    amplitudes: np.ndarray, params: DetectorParams, register: float = 0.0
) -> np.ndarray:
    """Event stream for a gate-amplitude sequence.

    The three monitor comparators read the live amplitude and the delay
    register, which holds the previous gate's railed level.  The register
    starts at ``register``, the amplitude of the gate before the sequence
    (0.0, the default, is a cold start); entry ``t`` compares amplitude
    ``t`` against amplitude ``t - 1``.  A stream cut anywhere thus gives
    the same codes as one call when each part starts from the last
    amplitude of the part before.
    """
    amps = np.asarray(amplitudes, dtype=float)
    v = np.minimum(amps, params.t_strong)
    v_del = np.concatenate(([min(register, params.t_strong)], v[:-1])) if amps.size else v
    a = amps >= params.t_strong
    b = (v_del - v) >= params.t_diff
    c = (v - v_del) >= params.t_diff
    return sd_word_codes(a, b, c)
