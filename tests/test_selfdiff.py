from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bncsim.attack import detect_arm, railed_amplitudes
from bncsim.balanced import event_codes
from bncsim.errors import InconsistentWord
from bncsim.selfdiff import SdGateEvent, sd_event_codes
from bncsim.signal_model import DetectorParams
from reference import sd_event, sd_stream, sd_word


def quiet_params():
    return replace(DetectorParams.default(), dcp_apd1=0.0, dcp_apd2=0.0)


def stream(bright, rng, mu=500.0):
    """Events of a gate stream whose ``bright`` gates carry a pulse of ``mu``;
    without dark counts the other gates stay empty."""
    p = quiet_params()
    k = np.zeros(bright.size, dtype=np.int64)
    k[bright] = detect_arm(mu * p.qe, int(bright.sum()), p.dcp_apd1, rng).k
    codes = sd_event_codes(railed_amplitudes(k, p, rng), p)
    return [SdGateEvent(code) for code in codes]


def second_gate(delayed, current, params):
    """Event of a gate whose delay register holds ``delayed``."""
    return SdGateEvent(sd_event_codes(np.array([delayed, current]), params)[1])


class TestComparators:
    def test_strong_arrival(self, params):
        assert sd_word(2 * params.t_strong, 0.0, params.t_strong, params.t_diff) == (
            True,
            False,
            True,
        )
        assert second_gate(0.0, 2 * params.t_strong, params) is SdGateEvent.STRONG_RISE

    def test_delayed_echo(self, params):
        assert sd_word(0.0, 2 * params.t_strong, params.t_strong, params.t_diff) == (
            False,
            True,
            False,
        )
        assert second_gate(2 * params.t_strong, 0.0, params) is SdGateEvent.DELAYED_FALL

    def test_silent(self, params):
        assert second_gate(0.0, 0.0, params) is SdGateEvent.NO_EVENT

    def test_consecutive_strong_cancel(self, params):
        # different ideal charges, same railed level: the subtraction nulls
        assert second_gate(9 * params.t_strong, 1.2 * params.t_strong, params) is (
            SdGateEvent.BLINDING_DETECTED
        )


def word_event(bits):
    """Event of the word (A, fall, rise): the balanced word (A, 0, rise, fall)."""
    a, fall, rise = (np.array([bool(x)]) for x in bits)
    return SdGateEvent(event_codes(a, np.False_, rise, fall)[0])


class TestClassify:
    @pytest.mark.parametrize(
        "bits,expected",
        [
            ((1, 0, 1), SdGateEvent.STRONG_RISE),
            ((0, 1, 0), SdGateEvent.DELAYED_FALL),
            ((0, 0, 1), SdGateEvent.WEAK_RISE),
            ((1, 0, 0), SdGateEvent.BLINDING_DETECTED),
            ((0, 0, 0), SdGateEvent.NO_EVENT),
        ],
    )
    def test_truth_table(self, bits, expected):
        assert word_event(bits) is expected
        assert sd_event(*bits) == expected.name

    @pytest.mark.parametrize("bits", [(1, 1, 0), (0, 1, 1), (1, 1, 1)])
    def test_unreachable_words_raise(self, bits):
        assert sd_event(*bits) is None
        with pytest.raises(InconsistentWord):
            word_event(bits)


def test_isolated_avalanche_grid(params):
    """Any lone avalanche above t_diff yields one rise then one fall."""
    for amp in np.linspace(params.t_diff, 10.0, 200):
        codes = sd_event_codes(np.array([0.0, amp, 0.0]), params)
        assert codes[1] in (SdGateEvent.STRONG_RISE, SdGateEvent.WEAK_RISE)
        assert codes[2] == SdGateEvent.DELAYED_FALL


class TestStream:
    def test_empty_stream(self, params):
        assert sd_event_codes(np.array([]), params).size == 0

    def test_isolated_avalanche_events(self, rng):
        events = stream(np.array([0, 0, 1, 0, 0], dtype=bool), rng)
        assert events == [
            SdGateEvent.NO_EVENT,
            SdGateEvent.NO_EVENT,
            SdGateEvent.STRONG_RISE,
            SdGateEvent.DELAYED_FALL,
            SdGateEvent.NO_EVENT,
        ]

    def test_blinding_train(self, rng):
        events = stream(np.ones(200, dtype=bool), rng)
        assert events[0] is SdGateEvent.STRONG_RISE
        assert all(e is SdGateEvent.BLINDING_DETECTED for e in events[1:])

    @given(shift=st.integers(min_value=1, max_value=20), seed=st.integers(0, 2**32 - 1))
    def test_shift_equivariance(self, shift, seed):
        """Prepending empty gates shifts the event stream unchanged."""
        p = quiet_params()
        rng = np.random.default_rng(seed)
        amps = rng.exponential(1.0, 30) * (rng.random(30) < 0.4)
        base = sd_event_codes(amps, p)
        shifted = sd_event_codes(np.concatenate([np.zeros(shift), amps]), p)
        assert (shifted[:shift] == 0).all()
        assert (shifted[shift:] == base).all()


def test_stream_matches_vectorized_classifier(params):
    """The array classifier agrees with the per-gate delay-register reference."""
    rng = np.random.default_rng(9)
    amps = np.abs(rng.normal(0.0, 0.5, 500))
    codes = sd_event_codes(amps, params)
    expected = sd_stream(amps, params.t_strong, params.t_diff)
    assert [SdGateEvent(code).name for code in codes] == expected


@given(
    amps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.3)), max_size=40),
    cut=st.integers(0, 40),
    register=st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
)
def test_cut_stream_carries_register(amps, cut, register):
    """A stream cut at any gate, the second part starting from the last
    amplitude of the first, gives the codes of one call, and both match
    the per-gate delay-register reference."""
    p = quiet_params()
    amps = np.array(amps)
    cut = min(cut, amps.size)
    whole = sd_event_codes(amps, p, register)
    carried = amps[cut - 1] if cut else register
    parts = np.concatenate(
        [sd_event_codes(amps[:cut], p, register), sd_event_codes(amps[cut:], p, carried)]
    )
    assert (parts == whole).all()
    expected = sd_stream(amps, p.t_strong, p.t_diff, register)
    assert [SdGateEvent(code).name for code in whole] == expected
