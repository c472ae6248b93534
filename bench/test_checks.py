"""Each closed-form check passes on a result drawn from its own law and
fails on a deliberately perturbed one.

    python3 -m pytest bench/test_checks.py

Results are drawn here with numpy's binomial sampler at the gate counts
the workloads use, so the tests need neither the simulator nor a stored
copy of its output.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import (  # noqa: E402
    OPERATING_POINT,
    SIGMA_BOUND,
    TABLE_PRINT_SLACK,
    Check,
    attack_arm_fired,
    case_row_check,
    expected_outcome,
    frequency_check,
    sd_fired,
    single_carrier_weak_fraction,
    split_arm_fired,
    two_apd_attack_qber,
)

GATES = 1_000_000
QE = OPERATING_POINT["qe"]
DCP1 = OPERATING_POINT["dcp_apd1"]


def draw(p: float, trials: int, seed: int = 7) -> float:
    return np.random.default_rng(seed).binomial(trials, p) / trials


@pytest.mark.parametrize("mu", [0.1, 1.0, 10.0, 30.0])
@pytest.mark.parametrize(
    "law", [attack_arm_fired, split_arm_fired, sd_fired], ids=lambda f: f.__name__
)
def test_fired_rate_checks(law, mu):
    expected = law(mu, QE, DCP1)
    assert frequency_check("ok", draw(expected, GATES), expected, GATES).passed
    # the same receiver with 10% more quantum efficiency than stated
    perturbed = law(mu, 1.1 * QE, DCP1)
    assert not frequency_check("qe+10%", draw(perturbed, GATES), expected, GATES).passed


def test_attack_fired_rate_sees_routing():
    # the resender's guess basis matching 60% of the time instead of half
    mu = 500.0
    expected = attack_arm_fired(mu, QE, DCP1)
    miss = 0.3 * math.exp(-mu * QE) + 0.3 + 0.4 * math.exp(-mu * QE / 2)
    perturbed = 1.0 - (1.0 - DCP1) * miss
    assert frequency_check("ok", draw(expected, GATES), expected, GATES).passed
    assert not frequency_check("routing", draw(perturbed, GATES), expected, GATES).passed


def test_two_apd_attack_qber():
    qber, sifted_per_gate = two_apd_attack_qber(1.0, QE)
    assert qber == pytest.approx(0.2468, abs=1e-4)
    sifted = int(sifted_per_gate * GATES)
    assert frequency_check("ok", draw(qber, sifted), qber, sifted).passed
    # the resender guessing the sender's basis 60% of the time, not half
    x = math.exp(-QE / 2)
    p1, p_s = 2 * x * (1 - x), 1 - math.exp(-QE)
    perturbed = (0.4 * p1 / 2) / (0.6 * p_s + 0.4 * p1)
    assert not frequency_check("guess", draw(perturbed, sifted), qber, sifted).passed


def test_single_carrier_weak_fraction():
    weak = single_carrier_weak_fraction(OPERATING_POINT["t_strong"], OPERATING_POINT["gain_mean"])
    assert weak == pytest.approx(0.1, rel=1e-12)
    avalanches = 10_000  # about what 1M gates give at 0.1 photons/pulse
    assert frequency_check("ok", draw(weak, avalanches), weak, avalanches).passed
    # strong threshold set for a 13% weak fraction
    perturbed = single_carrier_weak_fraction(math.log(1 / 0.87), 1.0)
    assert not frequency_check("t_strong", draw(perturbed, avalanches), weak, avalanches).passed


@pytest.mark.parametrize(
    "case,delta,mu,gates,perturbed",
    [
        ("A", 0, 500.0, 200_000, 0.9990),  # one gate in 1000 lands on the wrong arm
        ("A", 2, 500.0, 200_000, 0.9990),
        ("B", 0, 1.0, 200_000, math.exp(-0.11)),  # qe 10% high
        ("C", 1, 0.1, 4_000_000, 0.52),  # interferometer splitting 52/48
        ("C", 3, 0.1, 4_000_000, 0.48),
    ],
)
def test_case_rows(case, delta, mu, gates, perturbed):
    exact = case_row_check("exact", case, delta, mu, gates, 0.0)
    observed = round(exact.expected, 4)  # as the table prints it
    assert case_row_check("ok", case, delta, mu, gates, observed).passed
    assert not case_row_check("perturbed", case, delta, mu, gates, perturbed).passed


def test_expected_outcome_by_phase_difference():
    assert [expected_outcome(d) for d in range(-1, 4)] == [
        "split_50_50",
        "deterministic_apd1",
        "split_50_50",
        "deterministic_apd2",
        "split_50_50",
    ]


def test_slack_absorbs_print_rounding_only():
    inside = Check("r", 0.99995 + TABLE_PRINT_SLACK / 2, 0.99995, 1e-6, TABLE_PRINT_SLACK)
    assert inside.z == 0.0 and inside.passed
    beyond = Check("r", 0.99995 - TABLE_PRINT_SLACK - 6e-6, 0.99995, 1e-6, TABLE_PRINT_SLACK)
    assert beyond.z == pytest.approx(-6.0) and not beyond.passed
    assert SIGMA_BOUND == 5.0
