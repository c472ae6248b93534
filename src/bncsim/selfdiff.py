"""Self-differencing single-APD receiver and its blinding monitor.

The detector subtracts a one-gate-delayed copy of the APD output from the
live output, which removes the periodic gate transient and, with it, any
avalanche that repeats in consecutive gates.  The monitor taps the raw
signal with one comparator (Comp A, strong avalanches only) and the two
difference polarities with two more (rise: current dominant, fall:
delayed dominant).

This is the balanced monitor of :mod:`bncsim.balanced` with the delayed
copy as the second input: the word (A, fall, rise) is the balanced word
(A, B = 0, C = rise, D = fall), since the delayed copy has no raw
comparator, and it is classified by the same table.  As there, the
differencing node sees rail-saturated amplitudes, so a strong avalanche
following another strong avalanche cancels exactly: Comp A fires with a
silent difference output, the signature of a blinded detector.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .balanced import GateEvent, comparator_arrays, event_codes
from .signal_model import DetectorParams


class SdGateEvent(int, Enum):
    """Monitor event of one gate; the value is the :class:`GateEvent` code
    :func:`sd_event_codes` gives it."""

    NO_EVENT = GateEvent.NO_EVENT.value
    STRONG_RISE = GateEvent.STRONG_1.value
    WEAK_RISE = GateEvent.WEAK_1.value
    DELAYED_FALL = GateEvent.WEAK_2.value
    BLINDING_DETECTED = GateEvent.BLINDING_DETECTED.value


def sd_event_codes(
    amplitudes: np.ndarray, params: DetectorParams, register: float = 0.0
) -> np.ndarray:
    """Event stream for a gate-amplitude sequence, as :class:`SdGateEvent` codes.

    The three monitor comparators read the live amplitude and the delay
    register, which holds the previous gate's railed level.  The register
    starts at ``register``, the amplitude of the gate before the sequence
    (0.0, the default, is a cold start); entry ``t`` compares amplitude
    ``t`` against amplitude ``t - 1``.  A stream cut anywhere thus gives
    the same codes as one call when each part starts from the last
    amplitude of the part before.
    """
    amps = np.asarray(amplitudes, dtype=float)
    delayed = np.concatenate(([register], amps[:-1]))
    # the delayed copy has no raw comparator, so the B bit is dropped
    a, _, rise, fall = comparator_arrays(amps, delayed, params)
    return event_codes(a, np.False_, rise, fall)
