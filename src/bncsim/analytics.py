"""Closed-form oracles for count rates, link budgets, error rate, and monitor yield.

Everything here is a pure function of the configuration, independent of
the Monte Carlo sampler, and is used to cross-check simulated output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPhysical, UndefinedQuantity
from .signal_model import DetectorParams, poisson_log_pmf, weak_probabilities

#: Energy of a single 1550 nm photon (0.7999 eV), in joules.
E_PHOTON_1550_NM = 0.7999 * 1.602176634e-19

#: The linear count-rate formulas ignore gate saturation; beyond this
#: detected-carriers-per-gate level (mu_apd*qe) they overestimate the
#: click rate.  The rates do not check it: the report's ``oracle_regime``
#: column and ``bncsim oracle``'s warning line do.
LINEAR_REGIME_MAX = 0.3


def ideal_click_rate_same_phase(mu_apd: float, qe: float, f_gate: float) -> float:
    """Ideal count rate when interference sends every photon to one APD."""
    if mu_apd < 0.0 or qe < 0.0 or f_gate < 0.0:
        raise ValueError("arguments must be non-negative")
    return mu_apd * qe * f_gate


def ideal_click_rate_diff_phase(mu_apd: float, qe: float, f_gate: float) -> float:
    """Ideal per-APD count rate when the photons split evenly between arms."""
    if mu_apd < 0.0 or qe < 0.0 or f_gate < 0.0:
        raise ValueError("arguments must be non-negative")
    return mu_apd * qe * f_gate / 2.0


@dataclass(frozen=True)
class LinkBudget:
    """Optical power budget from the pulse source down to the receiver.

    ``att_total_db`` is the attenuation from source to APD: the path
    attenuation that sets the resender's flux plus the receiver's internal
    attenuation.
    """

    p_ave_w: float
    rep_rate_hz: float
    att_bob_db: float
    mu_eve_alice: float

    def __post_init__(self) -> None:
        if min(self.p_ave_w, self.att_bob_db, self.mu_eve_alice) < 0.0:
            raise ValueError("budget values must be non-negative")
        if self.rep_rate_hz <= 0.0:
            raise ValueError("rep_rate_hz must be positive")

    @property
    def n_photons(self) -> float:
        return photons_per_pulse_from_power(self.p_ave_w, self.rep_rate_hz)

    @property
    def att_path_db(self) -> float:
        return attenuation_db_for_target_flux(self.n_photons, self.mu_eve_alice)

    @property
    def att_total_db(self) -> float:
        return self.att_path_db + self.att_bob_db

    @property
    def mu_apd(self) -> float:
        return flux_after_attenuation(self.n_photons, self.att_total_db)


def photons_per_pulse_from_power(p_ave_w: float, rep_rate_hz: float) -> float:
    """Photons per pulse from average power: (P/R) / E_photon at 1550 nm."""
    if p_ave_w < 0.0:
        raise ValueError("average power must be non-negative")
    if rep_rate_hz <= 0.0:
        raise ValueError("rep_rate_hz must be positive")
    return (p_ave_w / rep_rate_hz) / E_PHOTON_1550_NM


def flux_after_attenuation(n_photons: float, att_db: float) -> float:
    """Photons per pulse surviving ``att_db`` decibels of attenuation."""
    if n_photons < 0.0:
        raise ValueError("photon number must be non-negative")
    return n_photons / (10.0 ** (att_db / 10.0))


def attenuation_db_for_target_flux(n_photons: float, target_mu: float) -> float:
    """Attenuation (dB) that brings ``n_photons`` down to ``target_mu``."""
    if n_photons <= 0.0 or target_mu <= 0.0:
        raise ValueError("photon numbers must be positive")
    if target_mu > n_photons:
        raise NonPhysical(
            f"target flux {target_mu} exceeds source flux {n_photons}; "
            "attenuation cannot amplify"
        )
    return 10.0 * math.log10(n_photons / target_mu)


@dataclass(frozen=True)
class ClickProbabilities:
    """Per-gate click probabilities under Poisson photon statistics.

    ``p1``/``p2``: single- and double-arm click probabilities when the
    photons split evenly between the arms (conjugate-basis gate).
    ``p_s``: click probability when every photon lands on one arm
    (matched-basis, controlled gate).
    """

    p1: float
    p2: float
    p_s: float

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "p_s"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability, got {v}")
        if self.p1 + self.p2 > 1.0 + 1e-12:
            raise ValueError("p1 + p2 cannot exceed 1")


def click_probabilities(mu: float, qe: float) -> ClickProbabilities:
    """Closed-form click probabilities at flux ``mu`` and efficiency ``qe``.

    Splitting a Poisson pulse 50/50 gives two independent Poisson arms of
    mean ``mu*qe/2`` detected carriers each, hence
    ``p2 = (1 - exp(-mu*qe/2))**2``, ``p1 = 2*exp(-mu*qe/2)*(1 - exp(-mu*qe/2))``,
    and the matched-basis single arm clicks with ``p_s = 1 - exp(-mu*qe)``.
    """
    if mu < 0.0 or not 0.0 <= qe <= 1.0:
        raise ValueError("need mu >= 0 and qe in [0, 1]")
    x = math.exp(-mu * qe / 2.0)
    miss = -math.expm1(-mu * qe / 2.0)  # 1 - x, numerically stable
    return ClickProbabilities(
        p1=2.0 * x * miss,
        p2=miss * miss,
        p_s=-math.expm1(-mu * qe),
    )


def attack_qber(p1: float, p_s: float) -> float:
    """Expected sifted error rate of the intercept-and-resend attack.

    Half the gates are basis-matched and click with ``p_s`` (no error);
    the other half split and click singly with ``p1``, erring half the
    time.  The pulse count cancels, leaving (p1/2) / (p_s + p1).
    """
    for name, v in (("p1", p1), ("p_s", p_s)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be a probability, got {v}")
    denom = p_s + p1
    if denom == 0.0:
        raise UndefinedQuantity("no clicks at all: error rate undefined")
    return (p1 / 2.0) / denom


def weak_avalanche_fraction(nu: float, params: DetectorParams) -> float:
    """P(avalanche stays below t_strong | an avalanche fired) at mean
    detected carriers ``nu`` per gate.

    Conditioning Poisson(nu) on at least one carrier and summing the
    Gamma(k) amplitude CDF at the threshold, read from the same P(k)
    table the sampler uses (:func:`~bncsim.signal_model.weak_probabilities`).
    The nu -> 0 limit is the single-carrier value.
    """
    if nu < 0.0:
        raise ValueError("nu must be non-negative")
    if nu == 0.0:
        return float(weak_probabilities(params)[1])
    # k past nu + 12 sqrt(nu) carries no Poisson mass; the table may stop
    # earlier, where P underflows to 0, and it is bounded by WEAK_TABLE_MAX
    # entries whatever nu is, so the terms are only those of its entries
    k_max = max(20, int(nu + 12.0 * math.sqrt(nu) + 12))
    cdf = weak_probabilities(params)[1 : k_max + 1]
    ks = np.arange(1, cdf.size + 1)
    pmf = np.exp(poisson_log_pmf(ks, nu))
    fired = -math.expm1(-nu)
    # at nu ~ 1e4 the rounding of log_pmf can lift the sum past 1 by ~1e-11
    return min(float((pmf * cdf).sum() / fired), 1.0)


def oracle_cm_success(mu: float, params: DetectorParams, split_share: float) -> float:
    """Analytic monitor yield (percent) for a run at flux ``mu``.

    ``split_share`` is the share of gates whose flux splits evenly between
    two arms (mu*qe/2 detected carriers each); every other gate puts the
    whole flux on one arm.  The protocol's basis statistics give 1/2, a
    blinding-only or case-C run 1, and a case-A/B run or the
    self-differencing APD 0.  The yield is the strong share of all
    avalanches, pooled over both kinds of gate.
    """
    if mu < 0.0:
        raise ValueError("mu must be non-negative")
    if not 0.0 <= split_share <= 1.0:
        raise ValueError(f"split_share must be in [0, 1], got {split_share}")
    nu = mu * params.qe
    weak = avalanches = 0.0
    # (avalanching arms per gate, detected carriers per arm)
    for arms, nu_arm in ((1.0 - split_share, nu), (2.0 * split_share, nu / 2.0)):
        if arms:
            fired = arms * -math.expm1(-nu_arm)
            avalanches += fired
            weak += fired * weak_avalanche_fraction(nu_arm, params)
    if avalanches == 0.0:
        raise UndefinedQuantity("no avalanches expected at mu = 0")
    return 100.0 * (1.0 - weak / avalanches)
