"""Balanced twin-APD receiver: noise-cancelling readout and its blinding monitor.

Two readouts share the same physical gate:

* the baseline readout is the plain noise-cancelling detector (one
  differential amplifier, one comparator per polarity).  Its output is a
  click on the arm whose avalanche dominates, and nothing when the arms
  cancel; and
* the monitor adds a raw-path comparator per arm (Comp A / Comp B) next to
  the difference-path pair (Comp C / Comp D) and classifies the four-bit
  word per gate, flagging simultaneous strong avalanches that the baseline
  readout silently swallows.

Rail saturation is what makes cancellation work: each arm's contribution
to the differencing node is ``min(amplitude, t_strong)``, because a
Geiger-mode avalanche above the strong threshold rails the front end and
all railed avalanches look alike.  Two strong avalanches therefore cancel
exactly regardless of their ideal amplitudes, while the common-mode gate
transient adds equally to both inputs and drops out of the difference.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import InconsistentWord
from .signal_model import DetectorParams


class GateEvent(int, Enum):
    """Monitor event of one gate; the value is its code in :func:`event_codes`."""

    NO_EVENT = 0
    STRONG_1 = 1
    STRONG_2 = 2
    WEAK_1 = 3
    WEAK_2 = 4
    BLINDING_DETECTED = 5


# Truth table over the word index (a<<3 | b<<2 | c<<1 | d).  -1 marks words
# that cannot arise from rail-saturated amplitudes: the c/d pair is
# exclusive, a raw click forces its arm's railed level so it can never be
# out-dominated, and a difference click toward a railed arm is impossible.
# Words with a raw click but no difference click mean the avalanche was
# cancelled by the opposite arm, which is exactly a blinding signature;
# that covers both-strong pairs and the strong-versus-nearly-strong edge.
_WORD_TABLE = np.full(16, -1, dtype=np.int8)
_WORD_TABLE[0b0000] = GateEvent.NO_EVENT
_WORD_TABLE[0b1010] = GateEvent.STRONG_1
_WORD_TABLE[0b0101] = GateEvent.STRONG_2
_WORD_TABLE[0b0010] = GateEvent.WEAK_1
_WORD_TABLE[0b0001] = GateEvent.WEAK_2
_WORD_TABLE[0b1100] = GateEvent.BLINDING_DETECTED
_WORD_TABLE[0b1000] = GateEvent.BLINDING_DETECTED
_WORD_TABLE[0b0100] = GateEvent.BLINDING_DETECTED


def comparator_arrays(
    amp1: np.ndarray, amp2: np.ndarray, params: DetectorParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Monitor comparator bank over gate arrays; returns (a, b, c, d).

    A/B compare each arm's raw amplitude with ``t_strong``; C/D compare
    the difference of the railed levels with ``t_diff`` in each polarity.
    C and D are also the baseline readout's clicks on APD 1 and APD 2.
    The difference is formed once, in place (v2 - v1 is exactly
    -(v1 - v2)), so the bank holds one float array beside its inputs.
    """
    diff = np.minimum(amp1, params.t_strong)
    diff -= np.minimum(amp2, params.t_strong)
    a = amp1 >= params.t_strong
    b = amp2 >= params.t_strong
    c = diff >= params.t_diff
    d = diff <= -params.t_diff
    return a, b, c, d


def event_codes(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Classify each gate's comparator word into a :class:`GateEvent` code.

    Words outside the reachable set raise :class:`InconsistentWord`; they
    cannot be produced by :func:`comparator_arrays` and always indicate a
    modeling bug rather than a physical outcome.
    """
    idx = (
        (a.astype(np.int8) << 3)
        | (b.astype(np.int8) << 2)
        | (c.astype(np.int8) << 1)
        | d.astype(np.int8)
    )
    codes = _WORD_TABLE[idx]
    if (codes < 0).any():
        bad = int(idx[codes < 0][0])
        raise InconsistentWord(f"unreachable comparator word index {bad:#06b}")
    return codes
