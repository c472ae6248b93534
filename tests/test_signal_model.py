import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from bncsim.attack import AttackConfig, arm_means, detect_arm, railed_amplitudes
from bncsim.errors import ConfigError
from bncsim.signal_model import (
    WEAK_TABLE_MAX,
    DetectorParams,
    PhaseSymbol,
    weak_probabilities,
)

ALL = list(PhaseSymbol)


def test_phase_basis_partition():
    assert PhaseSymbol.ZERO.basis == 0
    assert PhaseSymbol.PI.basis == 0
    assert PhaseSymbol.HALF_PI.basis == 1
    assert PhaseSymbol.THREE_HALF_PI.basis == 1


def test_phase_bits_within_basis():
    assert [p.bit for p in ALL] == [0, 0, 1, 1]
    assert PhaseSymbol.PI.bit == 1 and PhaseSymbol.ZERO.bit == 0


def test_phase_minus_exhaustive():
    for a in ALL:
        for b in ALL:
            diff = a.minus(b)
            assert isinstance(diff, PhaseSymbol)
            # quarter turns: adding the difference back to b lands on a
            assert 0 <= diff.value < 4
            assert (b.value + diff.value) % 4 == a.value


def test_params_validation():
    good = DetectorParams.default()
    with pytest.raises(ValueError):
        replace(good, qe=1.5)
    with pytest.raises(ValueError):
        replace(good, dcp_apd1=-0.1)
    with pytest.raises(ValueError):
        replace(good, t_diff=good.t_strong)  # must be strictly below
    for field in fields(DetectorParams):
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="must be finite"):
                replace(good, **{field.name: bad})


def arms(mu, delta, n, params, seed, dcp=0.0):
    """Both arms of the gate kernel at flux ``mu`` and phase difference ``delta``."""
    rng = np.random.default_rng(seed)
    return tuple(detect_arm(lam, n, dcp, rng) for lam in arm_means(mu, params.qe, delta))


class TestRoutePhotons:
    """Interference routing: the share of the pulse each arm receives."""

    def test_matched_phase_all_to_apd1(self, params):
        one, two = arms(5.0, PhaseSymbol.ZERO, 10_000, params, 1)
        assert one.pe > 0 and two.pe == 0

    def test_pi_all_to_apd2(self, params):
        one, two = arms(7.0, PhaseSymbol.PI, 10_000, params, 2)
        assert one.pe == 0 and two.pe > 0

    def test_empty_pulse(self, params):
        one, two = arms(0.0, PhaseSymbol.HALF_PI, 10_000, params, 3)
        assert one.pe == two.pe == 0

    def test_split_converges_to_half(self, params):
        one, two = arms(10.0, PhaseSymbol.HALF_PI, 1_000_000, params, 4)
        # about 1e6 detected photons: 0.5 within 0.002 is a 4 sigma band
        assert abs(one.pe / (one.pe + two.pe) - 0.5) < 0.002

    @given(
        mu=st.floats(min_value=0.0, max_value=1000.0),
        delta=st.sampled_from(ALL),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_photon_conservation(self, mu, delta, seed):
        params = DetectorParams.default()
        lam1, lam2 = arm_means(mu, params.qe, delta)
        assert lam1 >= 0.0 and lam2 >= 0.0
        assert lam1 + lam2 == pytest.approx(mu * params.qe)
        for arm in arms(mu, delta, 50, params, seed, dcp=0.5):
            assert int(arm.k.sum()) == arm.pe + arm.dark


class TestDetect:
    """Quantum-efficiency thinning, folded into the kernel's Poisson mean."""

    def test_no_photons(self, params):
        one, two = arms(0.0, PhaseSymbol.ZERO, 1000, params, 5)
        assert not one.k.any() and not two.k.any()

    def test_single_photon_rate(self, params):
        n = 100_000
        one, _ = arms(1.0, PhaseSymbol.ZERO, n, params, 6)
        assert abs(one.pe / n - 0.10) < 0.01

    def test_binomial_mean(self, params):
        one, _ = arms(100.0, PhaseSymbol.ZERO, 10_000, params, 7)
        assert abs(one.pe / 10_000 - 10.0) < 0.3

    def test_mean_monotone_in_photons(self, params):
        means = [arms(mu, PhaseSymbol.ZERO, 4000, params, 11)[0].pe for mu in (10, 50, 100, 400)]
        assert means == sorted(means)


class TestAvalancheAmplitude:
    """The railed law min(gain_mean * Gamma(k), t_strong) of :func:`railed_amplitudes`.

    The oracles are ``scipy.stats.gamma`` distributions, independent of
    the sampler's inverse-CDF table.
    """

    def test_silent_gate(self, params, rng):
        assert railed_amplitudes(np.zeros(10, dtype=np.int64), params, rng).max() == 0.0

    def test_dark_only_gate_fires(self, params, rng):
        arm = detect_arm(0.0, 1000, 1.0, rng)
        assert (arm.k == 1).all()
        assert (railed_amplitudes(arm.k, params, rng) > 0.0).all()

    def test_never_above_rail(self, params, rng):
        amps = railed_amplitudes(rng.poisson(2.0, 100_000), params, rng)
        assert amps.max() == params.t_strong

    def test_single_carrier_weak_fraction(self, params, rng):
        # t_strong = gain_mean * ln(10/9) puts exactly 10% of single-carrier
        # avalanches below threshold
        amps = railed_amplitudes(np.ones(100_000, dtype=np.int64), params, rng)
        weak = (amps < params.t_strong).mean()
        assert abs(weak - 0.10) < 0.02

    def test_ten_carrier_weak_probability(self, params, rng):
        # independent oracle: Gamma(10) CDF at the threshold
        oracle = stats.gamma(a=10, scale=params.gain_mean).cdf(params.t_strong)
        assert oracle < 1e-6
        amps = railed_amplitudes(np.full(100_000, 10), params, rng)
        assert (amps < params.t_strong).sum() == 0

    def test_probability_table_sized_by_parameters(self, params, rng):
        # P(k) falls with k and underflows to 0 a little past the rail, so
        # the table stops there however many carriers an avalanche holds
        table = weak_probabilities(10**11, params)
        assert table.size <= 1025 and table[-1] == 0.0
        ks = np.arange(1, 11)
        oracle = stats.gamma(a=ks, scale=params.gain_mean).cdf(params.t_strong)
        np.testing.assert_allclose(table[1:11], oracle, rtol=1e-10)
        assert weak_probabilities(5, params).size == 6
        amps = railed_amplitudes(np.full(1000, 10**11), params, rng)
        assert (amps == params.t_strong).all()

    def test_largest_accepted_ratio_bounds_the_table(self, params):
        # bisect t_strong / gain_mean down to adjacent floats: the largest
        # ratio DetectorParams accepts builds a table of WEAK_TABLE_MAX entries
        # at any carrier count, and the next float up is rejected
        def accepted(ratio):
            try:
                return replace(params, gain_mean=1.0, t_strong=ratio)
            except ConfigError:
                return None

        lo, hi = 1.0, 1e8
        assert accepted(lo) and not accepted(hi)
        while np.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        table = weak_probabilities(10**11, accepted(lo))
        assert table.size == WEAK_TABLE_MAX and table[-1] == 0.0
        with pytest.raises(ConfigError, match="t_strong / gain_mean"):
            replace(params, gain_mean=1.0, t_strong=hi)

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_strong_share(self, params, k):
        n = 200_000
        amps = railed_amplitudes(np.full(n, k), params, np.random.default_rng(100 + k))
        p = 1.0 - stats.gamma(a=k, scale=params.gain_mean).cdf(params.t_strong)
        share = (amps == params.t_strong).mean()
        assert abs(share - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)

    @pytest.mark.parametrize("t_strong,n", [(math.log(10.0 / 9.0), 3_000_000), (3.0, 20_000)])
    def test_below_rail_law(self, params, t_strong, n):
        # the weak amplitudes follow Gamma(3) truncated at the rail; at the
        # default rail only 1.8e-4 of them are weak, in the far lower tail
        railed = replace(params, t_strong=t_strong)
        gamma3 = stats.gamma(a=3, scale=params.gain_mean)
        amps = railed_amplitudes(np.full(n, 3), railed, np.random.default_rng(78))
        weak = amps[amps < t_strong]
        assert weak.size > 300
        truncated = lambda x: gamma3.cdf(x) / gamma3.cdf(t_strong)  # noqa: E731
        assert stats.kstest(weak, truncated).pvalue > 1e-3

    def test_additivity_of_carriers(self, params):
        # min(a + b + c, t) = min(min(a, t) + min(b, t) + min(c, t), t), so
        # railed(3) has the law of the railed sum of three railed(1); the
        # rail at 3 gain means keeps most of both samples below it
        railed = replace(params, t_strong=3.0)
        rng = np.random.default_rng(77)
        k, n = 3, 20_000
        direct = railed_amplitudes(np.full(n, k), railed, rng)
        singles = railed_amplitudes(np.ones(k * n, dtype=np.int64), railed, rng)
        summed = np.minimum(singles.reshape(k, n).sum(axis=0), railed.t_strong)
        assert stats.ks_2samp(direct, summed).pvalue > 1e-3


class TestDarkFire:
    """Dark ignitions: one Bernoulli(dcp) carrier per gate."""

    def test_zero_probability(self, rng):
        assert detect_arm(0.0, 10_000, 0.0, rng).dark == 0

    def test_certain_fire(self, rng):
        assert detect_arm(0.0, 100, 1.0, rng).dark == 100

    def test_rate_at_operating_point(self, params):
        # dcp 4e-5 over 1e7 gates: 400 expected, 3 sigma Poisson band is 60
        fires = detect_arm(0.0, 10_000_000, params.dcp_apd1, np.random.default_rng(123)).dark
        assert abs(fires - 400) < 60


class TestOpticalPulse:
    """The pulse's Poisson photon number: at unit QE every photon is detected."""

    def test_sampled_mean_matches(self, params):
        mu, n = 3.0, 50_000
        one, _ = arms(mu, PhaseSymbol.ZERO, n, replace(params, qe=1.0), 8)
        assert abs(one.pe - mu * n) < 4 * math.sqrt(mu * n)

    def test_zero_flux(self, params):
        one, two = arms(0.0, PhaseSymbol.PI, 1000, replace(params, qe=1.0), 9)
        assert one.pe == two.pe == 0

    def test_validation(self):
        for mu in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                AttackConfig(n_pulses=10, resend_mu=mu)
