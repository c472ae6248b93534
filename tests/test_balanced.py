import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bncsim.attack import DetectorKind, GateTally, arm_means, detect_pair
from bncsim.balanced import GateEvent, comparator_arrays, event_codes
from bncsim.errors import InconsistentWord
from bncsim.signal_model import DetectorParams, PhaseSymbol
from reference import comparators, gate_event

amplitudes = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
#: Multiples of 2**-12 over the same ranges: sums and differences of these
#: with dyadic thresholds are exact in binary floating point.
DYADIC = 2.0**-12
dyadic_amplitudes = st.integers(0, 20 * 2**12).map(lambda i: i * DYADIC)
dyadic_offsets = st.integers(0, 5 * 2**12).map(lambda i: i * DYADIC)


def word(amp1, amp2, params):
    """Comparator bits (a, b, c, d) of one gate."""
    return tuple(bool(x[0]) for x in comparator_arrays(np.array([amp1]), np.array([amp2]), params))


def event(bits):
    """GateEvent of one comparator word."""
    return GateEvent(event_codes(*(np.array([bool(x)]) for x in bits))[0])


class TestComparatorBank:
    def test_strong_apd1_alone(self, params):
        assert word(2 * params.t_strong, 0.0, params) == (True, False, True, False)

    def test_silent_gate(self, params):
        assert word(0.0, 0.0, params) == (False, False, False, False)

    def test_equal_strong_blinding_word(self, params):
        assert word(2 * params.t_strong, 2 * params.t_strong, params) == (True, True, False, False)

    def test_unequal_strong_still_cancels(self, params):
        # the rail makes all strong avalanches identical to the diff node
        assert word(1.1 * params.t_strong, 50 * params.t_strong, params) == (
            True,
            True,
            False,
            False,
        )

    @given(amp1=dyadic_amplitudes, amp2=dyadic_amplitudes, offset=dyadic_offsets)
    @example(amp1=0.0, amp2=2**-7, offset=2.0)  # difference exactly at t_diff
    def test_common_mode_cancels(self, amp1, amp2, offset):
        """A gate transient on both differencing inputs leaves every bit as is.

        Dyadic thresholds and amplitudes make the arithmetic exact, so a
        difference that sits on ``t_diff`` stays on it after the offset.
        """
        params = replace(DetectorParams.default(), t_diff=2**-7, t_strong=2**-3)
        shifted = comparators(amp1, amp2, params.t_strong, params.t_diff, common_mode=offset)
        assert word(amp1, amp2, params) == shifted


class TestClassify:
    @pytest.mark.parametrize(
        "bits,expected",
        [
            ((1, 0, 1, 0), GateEvent.STRONG_1),
            ((0, 1, 0, 1), GateEvent.STRONG_2),
            ((0, 0, 1, 0), GateEvent.WEAK_1),
            ((0, 0, 0, 1), GateEvent.WEAK_2),
            ((1, 1, 0, 0), GateEvent.BLINDING_DETECTED),
            ((0, 0, 0, 0), GateEvent.NO_EVENT),
            # cancelled strong-vs-nearly-strong edges are blinding signatures
            ((1, 0, 0, 0), GateEvent.BLINDING_DETECTED),
            ((0, 1, 0, 0), GateEvent.BLINDING_DETECTED),
        ],
    )
    def test_truth_table(self, bits, expected):
        assert event(bits) is expected
        assert gate_event(*bits) == expected.name

    @pytest.mark.parametrize(
        "bits",
        [
            (1, 0, 0, 1),  # raw click out-dominated: impossible
            (0, 1, 1, 0),
            (0, 0, 1, 1),  # both diff polarities at once
            (1, 1, 1, 0),  # railed arms cannot show a difference
            (1, 1, 0, 1),
            (1, 1, 1, 1),
            (1, 0, 1, 1),
            (0, 1, 1, 1),
        ],
    )
    def test_unreachable_words_raise(self, bits):
        assert gate_event(*bits) is None
        with pytest.raises(InconsistentWord):
            event(bits)


class TestBaselineClick:
    """The baseline readout clicks on difference comparator C (APD 1) or D."""

    def test_strong_apd1(self, params):
        assert word(5.0, 0.0, params)[2:] == (True, False)

    def test_equal_strong_cancel(self, params):
        assert word(5.0, 5.0, params)[2:] == (False, False)

    def test_silent(self, params):
        assert word(0.0, 0.0, params)[2:] == (False, False)


GRID = np.linspace(0.0, 3.0, 61)  # includes sub- and super-threshold values


def test_blinding_completeness_exhaustive(params):
    """Every both-arms-strong pair cancels in the baseline and is flagged."""
    strong = GRID[GRID >= params.t_strong]
    amp1, amp2 = (x.ravel() for x in np.meshgrid(strong, strong))
    a, b, c, d = comparator_arrays(amp1, amp2, params)
    assert not (c | d).any()
    assert (event_codes(a, b, c, d) == GateEvent.BLINDING_DETECTED).all()


def test_weak_coincidence_blind_spot(params):
    """Equal sub-threshold avalanches vanish without any event: the designed
    limitation that makes low-flux blinding invisible to the monitor."""
    weak = GRID[(GRID > 0.0) & (GRID < params.t_strong)]
    a, b, c, d = comparator_arrays(weak, weak, params)
    assert not (c | d).any()
    assert (event_codes(a, b, c, d) == GateEvent.NO_EVENT).all()


@given(amp1=amplitudes, amp2=amplitudes)
def test_classify_total_on_physical_pairs(amp1, amp2):
    params = DetectorParams.default()
    assert isinstance(event(word(amp1, amp2, params)), GateEvent)  # must never raise


@given(
    amps=st.lists(st.tuples(amplitudes, amplitudes), min_size=1, max_size=50),
)
def test_vectorized_matches_scalar(amps):
    """The array bank and classifier agree with the per-gate reference."""
    params = DetectorParams.default()
    amp1 = np.array([x for x, _ in amps])
    amp2 = np.array([y for _, y in amps])
    a, b, c, d = comparator_arrays(amp1, amp2, params)
    codes = event_codes(a, b, c, d)
    for i, (x, y) in enumerate(amps):
        bits = comparators(x, y, params.t_strong, params.t_diff)
        assert bits == (a[i], b[i], c[i], d[i])
        assert GateEvent(codes[i]).name == gate_event(*bits)


def balanced_tally(send, mu, params, n, seed):
    """GateTally of ``n`` balanced-readout gates, receiver at phase 0."""
    lam1, lam2 = arm_means(mu, params.qe, send.value)
    return detect_pair(lam1, lam2, n, DetectorKind.BALANCED_BNC, params, np.random.default_rng(seed))


class TestSimulateGate:
    def test_vacuum_dark_free_gate(self, params):
        quiet = replace(params, dcp_apd1=0.0, dcp_apd2=0.0)
        tally = balanced_tally(PhaseSymbol.ZERO, 0.0, quiet, 1000, 1)
        assert tally == GateTally(gates=1000)

    def test_bright_conjugate_basis_blinds(self, params):
        n = 10_000
        tally = balanced_tally(PhaseSymbol.HALF_PI, 500.0, params, n, 2)
        assert tally.blind >= 0.999 * n
        # each gate reads out one event: a flagged gate never clicks
        assert tally.click1 + tally.click2 <= n - tally.blind

    def test_bright_matched_basis_controls(self, params):
        n = 10_000
        tally = balanced_tally(PhaseSymbol.ZERO, 500.0, params, n, 3)
        # comparator C with A on a railed APD 1: STRONG_1
        assert tally.click1 >= 0.999 * n and tally.strong >= 0.999 * n
        # blinding needs a dark fire in APD 2 on top of the strong pulse
        assert tally.blind <= 3
