"""The honest two-basis protocol: phase choices, bit recovery and sifting.

The bit convention is APD 1 -> bit 0, APD 2 -> bit 1 (see
:func:`bncsim.attack.sift_counts`); :mod:`reference` restates it per gate.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from bncsim.attack import AttackConfig, GateTally, Scenario, run_attack, sift_counts, simulate_block
from bncsim.signal_model import PhaseSymbol
from reference import sift_ledger


def sift_gates(gates):
    """sift_counts over (alice_phase, bob_basis, click) gates."""
    phase, bob_basis, click = (np.array(col) for col in zip(*gates))
    return sift_counts(phase % 2, phase // 2, bob_basis, click == 1, click == 2)


def quiet(params):
    return replace(params, dcp_apd1=0.0, dcp_apd2=0.0)


class TestPhaseChoices:
    def test_alice_basis_marginal(self, params):
        # a bright dark-free pulse clicks every gate, so sifting keeps the
        # gates whose sender basis matches the receiver's: half of them
        n = 100_000
        cfg = AttackConfig(n_pulses=n, resend_mu=500.0, scenario=Scenario.HONEST)
        tally = simulate_block(cfg, quiet(params), np.random.default_rng(2))
        assert abs(tally.sifted / n - 0.5) < 0.01
        assert tally.errors == 0

    def test_bob_uniform(self, params):
        # the resender guesses the receiver's basis half of the time
        n = 200_000
        tally = simulate_block(AttackConfig(n_pulses=n, resend_mu=1.0), params, np.random.default_rng(3))
        assert abs(tally.casec_gates / n - 0.5) < 0.01

    def test_bob_seed_reproducibility(self, params):
        cfg = AttackConfig(n_pulses=1000, resend_mu=1.0)
        runs = [simulate_block(cfg, params, np.random.default_rng(8)) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_seed_reproducibility(self, params):
        cfg = AttackConfig(n_pulses=1000, resend_mu=1.0, scenario=Scenario.HONEST)
        runs = [simulate_block(cfg, params, np.random.default_rng(9)) for _ in range(2)]
        assert runs[0] == runs[1]


class TestClickToBit:
    def test_click1_zero_phase(self):
        assert sift_gates([(PhaseSymbol.ZERO, 0, 1)]) == (1, 0)

    def test_click2_pi_phase(self):
        assert sift_gates([(PhaseSymbol.PI, 0, 2)]) == (1, 0)

    def test_click2_zero_phase_is_error(self):
        assert sift_gates([(PhaseSymbol.ZERO, 0, 2)]) == (1, 1)

    def test_basis_1_mapping(self):
        assert sift_gates([(PhaseSymbol.HALF_PI, 1, 1)]) == (1, 0)
        assert sift_gates([(PhaseSymbol.THREE_HALF_PI, 1, 2)]) == (1, 0)

    def test_mismatched_bases_not_siftable(self):
        assert sift_gates([(PhaseSymbol.ZERO, 1, 1), (PhaseSymbol.HALF_PI, 0, 2)]) == (0, 0)

    def test_no_click_rejected(self):
        assert sift_gates([(PhaseSymbol.ZERO, 0, 0), (PhaseSymbol.HALF_PI, 1, 0)]) == (0, 0)


class TestSifting:
    def test_all_bases_differ_is_empty(self):
        gates = [(PhaseSymbol.HALF_PI, 0, 1)] * 50
        sifted, errors = sift_gates(gates)
        assert (sifted, errors) == (0, 0)
        assert math.isnan(GateTally(sifted=sifted, errors=errors).qber)

    def test_counts(self):
        gates = [
            (PhaseSymbol.ZERO, 0, 1),
            (PhaseSymbol.PI, 0, 1),
            (PhaseSymbol.ZERO, 0, 0),
            (PhaseSymbol.HALF_PI, 0, 2),
        ]
        assert sift_gates(gates) == (2, 1)
        assert GateTally(sifted=2, errors=1).qber == 0.5

    @given(seed=st.integers(0, 2**32 - 1))
    def test_qber_invariant_under_permutation(self, seed):
        rng = np.random.default_rng(seed)
        gates = [
            (int(rng.integers(0, 4)), int(rng.integers(0, 2)), int(rng.integers(0, 3)))
            for _ in range(100)
        ]
        base = sift_gates(gates)
        assert base == sift_ledger(gates)
        shuffled = list(gates)
        rng.shuffle(shuffled)
        assert sift_gates(shuffled) == base


class TestHonestOperation:
    @pytest.mark.parametrize("mu", [0.1, 0.5, 5.0, 100.0])
    def test_qber_exactly_zero_without_darks(self, params, mu):
        cfg = AttackConfig(n_pulses=100_000, resend_mu=mu, scenario=Scenario.HONEST)
        tally = run_attack(cfg, quiet(params), np.random.SeedSequence(4))
        assert tally.sifted > 0
        assert tally.errors == 0
        assert tally.qber == 0.0

    def test_sifting_symmetry(self, params):
        # kept fraction is the click probability times the 1/2 basis match;
        # the balanced readout clicks when a lone avalanche reaches t_diff
        mu, n = 1.0, 400_000
        lam = mu * params.qe
        k = np.arange(1, 40)
        p_click = float(
            (special.gammaincc(k, params.t_diff / params.gain_mean) * np.exp(-lam) * lam**k
             / special.factorial(k)).sum()
        )
        cfg = AttackConfig(n_pulses=n, resend_mu=mu, scenario=Scenario.HONEST)
        tally = run_attack(cfg, quiet(params), np.random.SeedSequence(5))
        p_kept = 0.5 * p_click
        assert abs(tally.sifted / n - p_kept) < 4 * math.sqrt(p_kept * (1 - p_kept) / n)
