import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from bncsim.analytics import (
    E_PHOTON_1550_NM,
    ClickProbabilities,
    LinkBudget,
    attack_qber,
    attenuation_db_for_target_flux,
    click_probabilities,
    flux_after_attenuation,
    ideal_click_rate_diff_phase,
    ideal_click_rate_same_phase,
    oracle_cm_success,
    photons_per_pulse_from_power,
    weak_avalanche_fraction,
)
from bncsim.attack import DetectorKind, Scenario
from bncsim.errors import NonPhysical, UndefinedQuantity
from bncsim.harness import SweepSpec, run_sweep
from bncsim.signal_model import DetectorParams

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestIdealRates:
    def test_operating_point(self):
        assert ideal_click_rate_same_phase(1.0, 0.1, 2e6) == pytest.approx(2e5)
        assert ideal_click_rate_diff_phase(1.0, 0.1, 2e6) == pytest.approx(1e5)

    def test_zero_flux(self):
        assert ideal_click_rate_same_phase(0.0, 0.1, 2e6) == 0.0
        assert ideal_click_rate_diff_phase(0.0, 0.1, 2e6) == 0.0

    def test_no_warning_outside_linear_range(self):
        # the rates are pure; the report's oracle_regime column and the
        # CLI's warning line flag a point past the linear regime
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = ideal_click_rate_same_phase(10.0, 0.1, 2e6)
        assert value == pytest.approx(2e6)

    @given(
        mu=st.floats(0.0, 3.0, allow_nan=False),
        qe=probs,
        f=st.floats(0.0, 1e7, allow_nan=False),
    )
    def test_diff_is_half_of_same(self, mu, qe, f):
        assert ideal_click_rate_diff_phase(mu, qe, f) == pytest.approx(
            ideal_click_rate_same_phase(mu, qe, f) / 2.0
        )


class TestLinkBudget:
    def test_flux_after_attenuation(self):
        assert flux_after_attenuation(1e6, 60.0) == pytest.approx(1.0)
        assert flux_after_attenuation(1e6, 0.0) == pytest.approx(1e6)
        assert flux_after_attenuation(3.9e6, 40.0) == pytest.approx(390.0)

    def test_photons_per_pulse(self):
        n = photons_per_pulse_from_power(1e-6, 2e6)
        assert n == pytest.approx(3.90e6, rel=1e-3)
        assert photons_per_pulse_from_power(0.0, 2e6) == 0.0

    def test_photon_energy_constant(self):
        # 0.7999 eV in joules
        assert E_PHOTON_1550_NM == pytest.approx(1.28158e-19, rel=1e-5)

    @given(p=st.floats(1e-9, 1e-3, allow_nan=False))
    def test_photons_linear_in_power(self, p):
        one = photons_per_pulse_from_power(p, 2e6)
        two = photons_per_pulse_from_power(2 * p, 2e6)
        assert two == pytest.approx(2 * one)

    def test_attenuation_for_target(self):
        assert attenuation_db_for_target_flux(1e6, 100.0) == pytest.approx(40.0)
        assert attenuation_db_for_target_flux(123.0, 123.0) == pytest.approx(0.0)

    def test_gain_is_nonphysical(self):
        with pytest.raises(NonPhysical):
            attenuation_db_for_target_flux(100.0, 1e6)

    def test_budget_chain(self):
        budget = LinkBudget(p_ave_w=1e-6, rep_rate_hz=2e6, att_bob_db=3.0, mu_eve_alice=100.0)
        assert budget.n_photons == pytest.approx(3.9014e6, rel=1e-3)
        assert budget.att_total_db == pytest.approx(budget.att_path_db + 3.0)
        assert budget.mu_apd == pytest.approx(
            flux_after_attenuation(budget.n_photons, budget.att_total_db)
        )
        # the receiver attenuation halves the flux relative to the resender
        assert budget.mu_apd == pytest.approx(100.0 / 10 ** 0.3)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["p_ave_w", "rep_rate_hz", "att_bob_db", "mu_eve_alice"])
    def test_budget_rejects_non_finite(self, name, value):
        values = {"p_ave_w": 1e-6, "rep_rate_hz": 2e6, "att_bob_db": 3.0, "mu_eve_alice": 100.0}
        with pytest.raises(ValueError, match="budget values must be finite"):
            LinkBudget(**{**values, name: value})


class TestClickProbabilities:
    def test_zero_flux(self):
        p = click_probabilities(0.0, 0.1)
        assert (p.p1, p.p2, p.p_s) == (0.0, 0.0, 0.0)

    def test_high_flux_values(self):
        p = click_probabilities(100.0, 0.1)
        assert p.p2 == pytest.approx(0.9866, abs=1e-4)
        assert p.p1 == pytest.approx(0.01334, abs=1e-4)
        assert p.p_s == pytest.approx(0.99995, abs=1e-5)

    def test_double_clicks_vanish_at_low_flux(self):
        p = click_probabilities(1e-4, 0.1)
        assert p.p2 / p.p1 < 1e-4

    @given(mu=st.floats(0.0, 1000.0, allow_nan=False), qe=probs)
    def test_any_click_identity(self, mu, qe):
        p = click_probabilities(mu, qe)
        assert p.p1 + p.p2 == pytest.approx(-math.expm1(-mu * qe), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            click_probabilities(-1.0, 0.1)
        with pytest.raises(ValueError):
            ClickProbabilities(0.9, 0.9, 0.1)


class TestAttackQber:
    @given(p=st.floats(1e-9, 1.0, allow_nan=False))
    def test_equal_probabilities_give_quarter(self, p):
        assert attack_qber(p, p) == pytest.approx(0.25)

    def test_fully_controlled_link(self):
        assert attack_qber(0.0, 1.0) == 0.0

    def test_high_flux_point(self):
        assert attack_qber(0.01334, 0.99995) == pytest.approx(0.0065825, abs=1e-6)
        # matches the coarse expectation of ~0.66%
        assert attack_qber(0.01334, 0.99995) == pytest.approx(0.0066, abs=1e-4)

    def test_undefined_when_silent(self):
        with pytest.raises(UndefinedQuantity):
            attack_qber(0.0, 0.0)


class TestWeakFraction:
    def test_low_flux_limit_is_single_carrier(self, params):
        assert weak_avalanche_fraction(0.0, params) == pytest.approx(0.1)
        assert weak_avalanche_fraction(1e-6, params) == pytest.approx(0.1, abs=1e-4)

    def test_matches_monte_carlo(self, params):
        # oracle vs sampler at nu = 0.5 detected carriers per gate
        nu = 0.5
        rng = np.random.default_rng(17)
        k = rng.poisson(nu, 400_000)
        fired = k > 0
        amps = params.gain_mean * rng.standard_gamma(k)
        mc = (amps[fired] < params.t_strong).mean()
        oracle = weak_avalanche_fraction(nu, params)
        sigma = math.sqrt(oracle * (1 - oracle) / fired.sum())
        assert abs(mc - oracle) < 4 * sigma

    def test_vanishes_at_high_flux(self, params):
        assert weak_avalanche_fraction(25.0, params) < 1e-9
        assert weak_avalanche_fraction(1e6, params) == 0.0

    def test_continuous_across_nu_1e4(self, params):
        # a rail of 1e5 single-carrier gains: an avalanche of ~1e4 carriers is weak
        p = replace(params, gain_mean=1e-5, t_strong=1.0)
        for nu in (9000.0, 9999.0, 10001.0, 15000.0):
            assert weak_avalanche_fraction(nu, p) == pytest.approx(1.0), nu
        # a rail of 1e4 gains: the weak share passes 1/2 near nu = 1e4
        p = replace(params, gain_mean=1e-4, t_strong=1.0)
        below, above = (weak_avalanche_fraction(nu, p) for nu in (9999.0, 10001.0))
        assert 0.49 < above < below < 0.51

    @pytest.mark.parametrize("gain_mean,mu", [(1e-5, 150_000.0), (1e-4, 100_010.0)])
    def test_oracle_cm_success_matches_monte_carlo_past_nu_1e4(self, params, gain_mean, mu):
        p = replace(params, gain_mean=gain_mean, t_strong=1.0)
        spec = SweepSpec(
            (mu,), 10_000, Scenario.BLINDING_ONLY, DetectorKind.SELF_DIFFERENCING, seed=3
        )
        row = run_sweep(spec, p).rows[0]
        avalanches = row.apd1_rate / p.f_gate * row.gates
        strong = row.oracle_cm_success / 100.0
        sigma = 100.0 * math.sqrt(strong * (1.0 - strong) / avalanches)
        assert abs(row.cm_success - row.oracle_cm_success) <= max(4.0 * sigma, 1e-9)

    def test_oracle_cm_success_at_single_photon(self, params):
        # mixed-basis traffic at mu=1 keeps roughly 10% weak avalanches
        value = oracle_cm_success(1.0, params, 0.5)
        assert 88.0 < value < 92.0

    @pytest.mark.parametrize("mu", [0.1, 1.0, 30.0])
    def test_oracle_cm_success_pure_gate_mixes(self, params, mu):
        # no split gates: one arm at the full flux; all split: two arms at half
        nu = mu * params.qe
        one_arm = 100.0 * (1.0 - weak_avalanche_fraction(nu, params))
        split = 100.0 * (1.0 - weak_avalanche_fraction(nu / 2.0, params))
        assert oracle_cm_success(mu, params, 0.0) == pytest.approx(one_arm, rel=1e-12)
        assert oracle_cm_success(mu, params, 1.0) == pytest.approx(split, rel=1e-12)
        mixed = oracle_cm_success(mu, params, 0.5)
        assert min(one_arm, split) <= mixed <= max(one_arm, split)

    def test_oracle_cm_success_validation(self, params):
        for share in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                oracle_cm_success(1.0, params, share)


class TestWeakTableCache:
    """The P(k) table behind the sampler and the oracle is built once per
    parameter set."""

    def test_second_call_evaluates_no_gammainc(self, params, monkeypatch):
        import bncsim.signal_model as signal_model

        fresh = replace(params, gain_mean=0.987654321)  # built by no other test
        calls = []
        poisson_tail = signal_model.poisson_tail

        def counted(*args):
            calls.append(args)
            return poisson_tail(*args)

        monkeypatch.setattr(signal_model, "poisson_tail", counted)
        first = weak_avalanche_fraction(1e4, fresh)
        built = len(calls)
        assert built > 0
        assert weak_avalanche_fraction(1e4, fresh) == first
        oracle_cm_success(30.0, fresh, 0.5)
        assert len(calls) == built
        table = signal_model.weak_probabilities(fresh)
        assert not table.flags.writeable and len(calls) == built

    def test_oracle_values_unchanged(self, params):
        # values of the numpy-built P(k) table and log-factorial, pinned; all
        # but the wide table's nu = 1e5 equal the pins of the scipy-built
        # table (gammainc, gammaln) before them
        wide = replace(params, gain_mean=1e-5, t_strong=1.0)  # a 131,073-entry table
        assert {mu: oracle_cm_success(mu, params, 0.5) for mu in (0.1, 1.0, 30.0, 500.0, 1e6)} == {
            0.1: 90.0355002138997,
            1.0: 90.34973253137285,
            30.0: 96.57661720252678,
            500.0: 99.99999999567434,
            1e6: 100.0,
        }
        fractions = {nu: weak_avalanche_fraction(nu, wide) for nu in (0.0, 1.0, 1e5, 1e6)}
        assert fractions == {
            0.0: 1.0,
            1.0: 1.0,
            1e5: 0.5004460313175833,
            1e6: 0.0,
        }
        # at nu = x = 1e5 both sums carry the ~1e-10 relative rounding of a
        # log-factorial near 1e6, so they differ by 3.9e-11; the fraction is
        # then P(N' >= N) for i.i.d. Poisson(x) N, N', which is
        # 1/2 + exp(-2x) I0(2x) / 2, and the new value is the nearer to it
        exact = 0.5 + special.i0e(2e5) / 2.0
        scipy_built = 0.5004460313370731
        assert abs(fractions[1e5] - exact) < abs(scipy_built - exact) < 1e-10
