import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from bncsim.attack import (
    EMPTY,
    RAILED,
    WEAK,
    AttackConfig,
    DetectorKind,
    _below_rail,
    arm_law,
    arm_levels,
    arm_means,
    detect_pair,
)
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


READOUTS = (DetectorKind.BASELINE_TWO_APD, DetectorKind.BALANCED_BNC)


def pair(mu, delta, n, params, seed, detector=DetectorKind.BASELINE_TWO_APD, dcp=0.0):
    """Counters of the gate kernel over ``n`` gates at flux ``mu`` and
    phase difference ``delta``, both arms at dark probability ``dcp``."""
    dark = replace(params, dcp_apd1=dcp, dcp_apd2=dcp)
    lam1, lam2 = arm_means(mu, params.qe, delta)
    return detect_pair(lam1, lam2, n, detector, dark, np.random.default_rng(seed))


class TestRoutePhotons:
    """Interference routing: the share of the pulse each arm receives."""

    def test_matched_phase_all_to_apd1(self, params):
        for detector in READOUTS:
            t = pair(5.0, PhaseSymbol.ZERO, 10_000, params, 1, detector)
            assert t.pe1 > 0 and t.pe2 == t.fired2 == 0

    def test_pi_all_to_apd2(self, params):
        for detector in READOUTS:
            t = pair(7.0, PhaseSymbol.PI, 10_000, params, 2, detector)
            assert t.pe1 == t.fired1 == 0 and t.pe2 > 0

    def test_empty_pulse(self, params):
        for detector in READOUTS:
            t = pair(0.0, PhaseSymbol.HALF_PI, 10_000, params, 3, detector)
            assert t.pe1 == t.pe2 == 0

    def test_split_converges_to_half(self, params):
        for detector in READOUTS:
            t = pair(10.0, PhaseSymbol.HALF_PI, 1_000_000, params, 4, detector)
            # about 1e6 detected photons: 0.5 within 0.002 is a 4 sigma band
            assert abs(t.pe1 / (t.pe1 + t.pe2) - 0.5) < 0.002

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
        for detector in READOUTS:
            t = pair(mu, delta, 50, params, seed, detector, dcp=0.5)
            # an arm the pulse misses fires on dark ignitions only
            for lam, pe, fired in ((lam1, t.pe1, t.fired1), (lam2, t.pe2, t.fired2)):
                assert 0 <= fired <= 50 and pe >= 0 and (lam > 0.0 or pe == 0)


class TestDetect:
    """Quantum-efficiency thinning, folded into the kernel's Poisson mean."""

    def test_no_photons(self, params):
        t = pair(0.0, PhaseSymbol.ZERO, 1000, params, 5)
        assert t.pe1 == t.pe2 == t.fired1 == t.fired2 == 0

    def test_single_photon_rate(self, params):
        n = 100_000
        t = pair(1.0, PhaseSymbol.ZERO, n, params, 6)
        assert abs(t.pe1 / n - 0.10) < 0.01

    def test_binomial_mean(self, params):
        t = pair(100.0, PhaseSymbol.ZERO, 10_000, params, 7)
        assert abs(t.pe1 / 10_000 - 10.0) < 0.3

    def test_mean_monotone_in_photons(self, params):
        means = [pair(mu, PhaseSymbol.ZERO, 4000, params, 11).pe1 for mu in (10, 50, 100, 400)]
        assert means == sorted(means)


def carrier_levels(k, n, params, rng):
    """Railed levels of ``n`` avalanches of ``k`` carriers each: one
    uniform u per avalanche, weak at amplitude :func:`_below_rail` when
    u < P[k], railed at ``t_strong`` otherwise."""
    u = rng.random(n)
    weak = u < weak_probabilities(k, params).take(k, mode="clip")
    levels = np.full(n, params.t_strong)
    levels[weak] = _below_rail(np.full(np.count_nonzero(weak), k), u[weak], params)
    return levels


def carrier_mixture(lam, dcp, params):
    """Signal count k, carrier count K = k + d and weight P(k) P(d) of each
    (d, k) with K > 0, for k ~ Poisson(lam) and a Bernoulli(dcp) dark
    ignition d, with the Gamma(K) avalanche's probability of staying
    below the rail; all from ``scipy.stats``."""
    k = np.arange(int(lam + 40 * math.sqrt(lam) + 60))
    pk = stats.poisson.pmf(k, lam)
    k, carriers = np.concatenate([k, k]), np.concatenate([k, k + 1])
    weight = np.concatenate([(1.0 - dcp) * pk, dcp * pk])
    k, carriers, weight = k[carriers > 0], carriers[carriers > 0], weight[carriers > 0]
    below = stats.gamma(a=carriers, scale=params.gain_mean).cdf(params.t_strong)
    return k, carriers, weight, below


class TestAvalancheAmplitude:
    """The railed law min(gain_mean * Gamma(K), t_strong) of K carriers:
    :func:`_below_rail` at fixed K, and :func:`arm_levels` and the gate
    kernel's census over the K of an arm law.

    The oracles are ``scipy.stats`` gamma and Poisson distributions,
    independent of the sampler's inverse-CDF table.
    """

    def test_silent_gate(self, params, rng):
        law = arm_law(2.0, params.dcp_apd1, params)
        photons, levels = arm_levels(law, np.full(10, EMPTY), 0, params, rng)
        assert photons == 0 and levels.max() == 0.0

    def test_dark_only_gate_fires(self, params, rng):
        law = arm_law(0.0, 1.0, params)
        assert law.state[EMPTY] == 0.0
        state = rng.choice(3, 1000, p=law.state)
        photons, levels = arm_levels(law, state, int((state == RAILED).sum()), params, rng)
        assert photons == 0 and (levels > 0.0).all()

    def test_never_above_rail(self, params, rng):
        law = arm_law(2.0, params.dcp_apd1, params)
        state = rng.choice(3, 100_000, p=law.state)
        _, levels = arm_levels(law, state, int((state == RAILED).sum()), params, rng)
        assert levels.max() == params.t_strong
        assert (levels[state == WEAK] < params.t_strong).all()

    def test_single_carrier_weak_fraction(self, params):
        # t_strong = gain_mean * ln(10/9) puts exactly 10% of single-carrier
        # avalanches below threshold; a dark ignition alone is one carrier
        n = 100_000
        dark = replace(params, dcp_apd1=1.0, dcp_apd2=0.0)
        t = detect_pair(0.0, 0.0, n, DetectorKind.BALANCED_BNC, dark, np.random.default_rng(12))
        assert t.fired1 == n and t.fired2 == 0
        assert abs(t.weak / n - 0.10) < 0.02

    def test_ten_carrier_weak_probability(self, params, rng):
        # independent oracle: Gamma(10) CDF at the threshold
        oracle = stats.gamma(a=10, scale=params.gain_mean).cdf(params.t_strong)
        assert oracle < 1e-6
        assert weak_probabilities(10, params)[10] == pytest.approx(oracle, rel=1e-10)
        levels = carrier_levels(10, 100_000, params, rng)
        assert (levels == params.t_strong).all()

    def test_probability_table_sized_by_parameters(self, params, rng):
        # P(k) falls with k and underflows to 0 a little past the rail, so
        # the table stops there however many carriers an avalanche holds
        table = weak_probabilities(10**11, params)
        assert table.size <= 1025 and table[-1] == 0.0
        ks = np.arange(1, 11)
        oracle = stats.gamma(a=ks, scale=params.gain_mean).cdf(params.t_strong)
        np.testing.assert_allclose(table[1:11], oracle, rtol=1e-10)
        assert weak_probabilities(5, params).size == 6
        law = arm_law(1e11, params.dcp_apd1, params)
        assert law.state.tolist() == [0.0, 0.0, 1.0]
        _, levels = arm_levels(law, np.full(1000, RAILED), 1000, params, rng)
        assert (levels == params.t_strong).all()

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
        """The railed avalanches of the gate kernel's census at a mean of
        ``k`` carriers per gate, against the Poisson mixture of Gamma(K)
        tails."""
        n = 200_000
        _, _, weight, below = carrier_mixture(k, 0.0, params)
        p = float(weight @ (1.0 - below))
        t = pair(k / params.qe, PhaseSymbol.ZERO, n, params, 100 + k, DetectorKind.BALANCED_BNC)
        assert t.fired2 == 0
        assert abs(t.strong - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p))

    @pytest.mark.parametrize("t_strong,n", [(math.log(10.0 / 9.0), 3_000_000), (3.0, 20_000)])
    def test_below_rail_law(self, params, t_strong, n):
        # the weak amplitudes follow Gamma(3) truncated at the rail; at the
        # default rail only 1.8e-4 of them are weak, in the far lower tail
        railed = replace(params, t_strong=t_strong)
        gamma3 = stats.gamma(a=3, scale=params.gain_mean)
        rng = np.random.default_rng(78)
        p3 = weak_probabilities(3, railed)[3]
        m = rng.binomial(n, p3)
        weak = _below_rail(np.full(m, 3), p3 * rng.random(m), railed)
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
        direct = carrier_levels(k, n, railed, rng)
        singles = carrier_levels(1, k * n, railed, rng)
        summed = np.minimum(singles.reshape(k, n).sum(axis=0), railed.t_strong)
        assert stats.ks_2samp(direct, summed).pvalue > 1e-3

    @pytest.mark.parametrize("t_strong", [math.log(10.0 / 9.0), 3.0])
    def test_weak_levels_follow_the_mixture(self, params, t_strong):
        """Weak gates' levels and photons against the Gamma/Poisson mixture
        of the arm's (d, k): the level's law by a KS test, its mean and
        the photons' within 5 sigma."""
        railed = replace(params, t_strong=t_strong)
        lam, dcp, n = 2.0, 0.3, 200_000
        k, carriers, weight, below = carrier_mixture(lam, dcp, railed)
        weak = weight * below / (weight @ below)
        law = arm_law(lam, dcp, railed)
        photons, levels = arm_levels(law, np.full(n, WEAK), 0, railed, np.random.default_rng(8))

        def cdf(x):
            # the (d, k) of weight below 1e-9 do not move the CDF
            on = weak > 1e-9
            gammas = stats.gamma(a=carriers[on, None], scale=railed.gain_mean)
            return weak[on] @ (gammas.cdf(np.minimum(x, t_strong)) / below[on, None])

        assert stats.kstest(levels[:50_000], cdf).pvalue > 1e-3
        # E[X; X < t] = K gain_mean P(Gamma(K + 1) < t) for X ~ gain_mean Gamma(K)
        below_next = stats.gamma(a=carriers + 1, scale=railed.gain_mean).cdf(t_strong)
        mean = weak @ (carriers * railed.gain_mean * below_next / below)
        assert abs(levels.mean() - mean) <= 5.0 * levels.std() / math.sqrt(n)
        k_mean, k_var = weak @ k, weak @ k**2 - (weak @ k) ** 2
        assert abs(photons - n * k_mean) <= 5.0 * math.sqrt(n * k_var)

    def test_railed_photons_follow_the_mixture(self, params):
        lam, dcp, n = 2.0, 0.3, 200_000
        k, _, weight, below = carrier_mixture(lam, dcp, params)
        rails = weight * (1.0 - below) / (weight @ (1.0 - below))
        law = arm_law(lam, dcp, params)
        photons, levels = arm_levels(law, np.full(n, RAILED), n, params, np.random.default_rng(9))
        assert (levels == params.t_strong).all()
        k_mean, k_var = rails @ k, rails @ k**2 - (rails @ k) ** 2
        assert abs(photons - n * k_mean) <= 5.0 * math.sqrt(n * k_var)


class TestDarkFire:
    """Dark ignitions: one Bernoulli(dcp) carrier per gate."""

    def test_zero_probability(self, params):
        t = pair(0.0, PhaseSymbol.ZERO, 10_000, params, 13, dcp=0.0)
        assert t.fired1 == t.fired2 == 0

    def test_certain_fire(self, params):
        t = pair(0.0, PhaseSymbol.ZERO, 100, params, 14, dcp=1.0)
        assert t.fired1 == t.fired2 == t.doubles == 100 and t.pe1 == t.pe2 == 0

    def test_rate_at_operating_point(self, params):
        # dcp 4e-5 over 1e7 gates: 400 expected, 3 sigma Poisson band is 60
        t = pair(0.0, PhaseSymbol.ZERO, 10_000_000, params, 123, dcp=params.dcp_apd1)
        assert abs(t.fired1 - 400) < 60 and abs(t.fired2 - 400) < 60


class TestOpticalPulse:
    """The pulse's Poisson photon number: at unit QE every photon is detected."""

    def test_sampled_mean_matches(self, params):
        mu, n = 3.0, 50_000
        t = pair(mu, PhaseSymbol.ZERO, n, replace(params, qe=1.0), 8)
        assert abs(t.pe1 - mu * n) < 4 * math.sqrt(mu * n)

    def test_zero_flux(self, params):
        t = pair(0.0, PhaseSymbol.PI, 1000, replace(params, qe=1.0), 9)
        assert t.pe1 == t.pe2 == 0

    def test_validation(self):
        for mu in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                AttackConfig(n_pulses=10, resend_mu=mu)
