"""Per-gate reference for the readout and sifting rules.

The package classifies whole gate arrays through lookup tables, and
draws the self-differencing point without drawing its gates.  This
module restates the same rules one gate at a time, in plain Python, and
draws a self-differencing point gate by gate, with numpy arrays, from
the circuit description rather than from those tables (it imports
nothing from ``bncsim``), so tests can use it as an independent oracle.
"""

from __future__ import annotations

import numpy as np


def comparators(amp1, amp2, t_strong, t_diff, common_mode=0.0):
    """Monitor bits (a, b, c, d) of one balanced gate.

    Each arm rails at ``t_strong`` before the differencing node; a common
    offset such as the gate transient reaches both inputs of that node.
    """
    v1 = min(amp1, t_strong) + common_mode
    v2 = min(amp2, t_strong) + common_mode
    return amp1 >= t_strong, amp2 >= t_strong, v1 - v2 >= t_diff, v2 - v1 >= t_diff


def gate_event(a, b, c, d):
    """Event name of one balanced comparator word, or None if unreachable.

    C and D are exclusive; a raw click rails its arm, so it can neither be
    out-dominated nor sit beside a difference click when both arms rail.
    A raw click with a silent difference path is a cancelled avalanche.
    """
    if (c and d) or (a and d) or (b and c) or (a and b and (c or d)):
        return None
    if a and c:
        return "STRONG_1"
    if b and d:
        return "STRONG_2"
    if c:
        return "WEAK_1"
    if d:
        return "WEAK_2"
    if a or b:
        return "BLINDING_DETECTED"
    return "NO_EVENT"


def two_apd_click(fired1, fired2):
    """Click of one gate on the plain two-APD readout: the APD (1 or 2)
    that fired alone, else 0; a double click is discarded."""
    if fired1 and not fired2:
        return 1
    if fired2 and not fired1:
        return 2
    return 0


def sd_word(current, delayed, t_strong, t_diff):
    """Self-differencing bits (a, b, c) against the delay register."""
    v_cur = min(current, t_strong)
    v_del = min(delayed, t_strong)
    return current >= t_strong, v_del - v_cur >= t_diff, v_cur - v_del >= t_diff


def sd_event(a, b, c):
    """Event name of one self-differencing word, or None if unreachable."""
    if (b and c) or (a and b):
        return None
    if a and c:
        return "STRONG_RISE"
    if b:
        return "DELAYED_FALL"
    if c:
        return "WEAK_RISE"
    if a:
        return "BLINDING_DETECTED"
    return "NO_EVENT"


def sd_stream(amplitudes, t_strong, t_diff, register=0.0):
    """Event names of a gate stream; the delay register starts at
    ``register``, the amplitude of the gate before the stream (zero for a
    cold start)."""
    events = []
    for amp in amplitudes:
        events.append(sd_event(*sd_word(amp, register, t_strong, t_diff)))
        register = amp
    return events


def sd_point_dense(n, lam, dcp, gain_mean, t_strong, t_diff, rng):
    """Counters (click1, click2, blind, fired1, strong, pe1) of ``n``
    self-differencing gates from a cold start, drawn and read gate by
    gate with numpy arrays.

    A gate's carriers are a Poisson(``lam``) signal count k plus a dark
    ignition with probability ``dcp``; its amplitude is ``gain_mean``
    times a Gamma(carriers) draw, and 0 without carriers.  ``rng`` is a
    numpy ``Generator``.  The comparators of :func:`sd_word` read every
    gate against the one before: a rise is click1, a delayed fall click2,
    and a raw click with neither is a blinding flag; ``strong`` counts
    the raw clicks and ``pe1`` the signal photons.
    """
    k = rng.poisson(lam, n)
    carriers = k + (rng.random(n) < dcp)
    fired = carriers > 0
    amps = np.zeros(n)
    amps[fired] = gain_mean * rng.standard_gamma(carriers[fired])
    level = np.minimum(amps, t_strong)
    delayed = np.concatenate(([0.0], level[:-1]))
    raw, rise, fall = amps >= t_strong, level - delayed >= t_diff, delayed - level >= t_diff
    return (
        int(rise.sum()),
        int(fall.sum()),
        int((raw & ~rise).sum()),
        int(fired.sum()),
        int(raw.sum()),
        int(k.sum()),
    )


def sift(alice_phase, bob_basis, click):
    """(kept, error) of one gate.

    ``alice_phase`` counts quarter turns: basis ``phase % 2``, bit
    ``phase // 2``.  ``click`` is 0 (none), 1 (APD 1) or 2 (APD 2).  A
    gate is kept when the bases agree and it clicked; APD 1 decodes to
    bit 0, APD 2 to bit 1.
    """
    kept = alice_phase % 2 == bob_basis and click != 0
    return kept, kept and (click - 1) != alice_phase // 2


def sift_ledger(gates):
    """(sifted, errors) over (alice_phase, bob_basis, click) gates."""
    sifted = errors = 0
    for gate in gates:
        kept, error = sift(*gate)
        sifted += kept
        errors += error
    return sifted, errors
