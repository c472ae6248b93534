"""Per-gate reference for the readout and sifting rules, in plain Python.

The package classifies whole gate arrays through lookup tables.  This
module restates the same rules one gate at a time, from the circuit
description rather than from those tables (it imports nothing from
``bncsim``), so tests can use it as an independent oracle.
"""

from __future__ import annotations


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
