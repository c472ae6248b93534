"""Closed-form expectations for the benchmark's correctness checks.

Everything here is plain ``math`` on the benchmark's own statement of the
operating point; nothing imports ``bncsim``, so a fault in the simulator's
oracles cannot hide a fault in its Monte Carlo.  Each check compares an
observed frequency with its expectation in units of the binomial standard
error of that frequency and passes within ``SIGMA_BOUND`` of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Checks pass within this many binomial sigma.  A run makes about 20
#: checks; at 5 sigma a correct program fails one of them in roughly one
#: run of 10^5.
SIGMA_BOUND = 5.0

#: Operating point handed to the simulator through the benchmark's own
#: config file: 10% QE at 2 MHz gating, dark count probabilities 4e-5 and
#: 2e-5 per gate, and the strong threshold that makes a single-carrier
#: (exponential) avalanche weak with probability exactly 1/10.
OPERATING_POINT = {
    "qe": 0.1,
    "dcp_apd1": 4e-5,
    "dcp_apd2": 2e-5,
    "f_gate": 2e6,
    "gain_mean": 1.0,
    "t_strong": math.log(10.0 / 9.0),
}


@dataclass(frozen=True)
class Check:
    """One observed frequency against its closed-form expectation.

    ``slack`` widens the band for values the program prints rounded.
    """

    name: str
    observed: float
    expected: float
    sigma: float
    slack: float = 0.0

    @property
    def z(self) -> float:
        """Distance from the expectation beyond ``slack``, in sigma."""
        diff = self.observed - self.expected
        excess = max(0.0, abs(diff) - self.slack)
        if self.sigma > 0.0:
            return math.copysign(excess / self.sigma, diff)
        return math.copysign(math.inf, diff) if excess else 0.0

    @property
    def passed(self) -> bool:
        return abs(self.z) <= SIGMA_BOUND

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "observed": self.observed,
            "expected": self.expected,
            "z": round(self.z, 3) if math.isfinite(self.z) else str(self.z),
            "passed": self.passed,
        }


def frequency_check(
    name: str, observed: float, p: float, trials: float, slack: float = 0.0
) -> Check:
    """Observed frequency over ``trials`` Bernoulli(p) trials."""
    if trials <= 0:
        raise ValueError(f"{name}: no trials")
    return Check(name, observed, p, math.sqrt(p * (1.0 - p) / trials), slack)


def attack_arm_fired(mu: float, qe: float, dcp: float) -> float:
    """Per-arm fired probability under intercept-and-resend.

    The guess basis matches the receiver's half the time, and then the
    whole pulse lands on this arm or on the other one with equal odds; the
    other half of the gates split the pulse evenly.
    """
    miss = 0.25 * math.exp(-mu * qe) + 0.25 + 0.5 * math.exp(-mu * qe / 2.0)
    return 1.0 - (1.0 - dcp) * miss


def split_arm_fired(mu: float, qe: float, dcp: float) -> float:
    """Per-arm fired probability when every gate splits the pulse evenly."""
    return 1.0 - (1.0 - dcp) * math.exp(-mu * qe / 2.0)


def sd_fired(mu: float, qe: float, dcp: float) -> float:
    """Fired probability of the self-differencing APD under full flux."""
    return 1.0 - (1.0 - dcp) * math.exp(-mu * qe)


def two_apd_attack_qber(mu: float, qe: float) -> tuple[float, float]:
    """(sifted error rate, sifted gates per gate) of the attack on the
    conventional two-APD receiver, dark counts neglected.

    Basis-matched guesses click the right arm with ``p_s``; the other half
    of the sifted gates split and click a single arm with ``p1``, wrong
    half the time: ``(p1/2) / (p_s + p1)``.  Sifting keeps half the gates
    (sender and receiver bases agree), hence ``(p_s + p1) / 4`` sifted
    gates per gate.
    """
    x = math.exp(-mu * qe / 2.0)
    p1 = 2.0 * x * (1.0 - x)
    p_s = 1.0 - math.exp(-mu * qe)
    return (p1 / 2.0) / (p_s + p1), (p_s + p1) / 4.0


def single_carrier_weak_fraction(t_strong: float, gain_mean: float) -> float:
    """P(exponential avalanche < t_strong): 1/10 at t_strong = ln(10/9)."""
    return -math.expm1(-t_strong / gain_mean)


def expected_outcome(delta_quarters: int) -> str:
    """Routing of a pulse whose phase leads the receiver's by
    ``delta_quarters`` quarter turns: all to APD 1 at zero, all to APD 2 at
    pi, an even split in the conjugate basis."""
    return ("deterministic_apd1", "split_50_50", "deterministic_apd2", "split_50_50")[
        delta_quarters % 4
    ]


def fixed_phase_fired(
    delta_quarters: int, mu: float, qe: float, dcp1: float, dcp2: float
) -> tuple[float, float]:
    """Per-arm fired probabilities of a gate with both modulators pinned."""
    share1 = (1.0, 0.5, 0.0, 0.5)[delta_quarters % 4]
    p1 = 1.0 - (1.0 - dcp1) * math.exp(-mu * qe * share1)
    p2 = 1.0 - (1.0 - dcp2) * math.exp(-mu * qe * (1.0 - share1))
    return p1, p2


#: ``bncsim table1`` prints observed fractions with four decimals.
TABLE_PRINT_SLACK = 5e-5


def case_row_check(
    name: str,
    case_label: str,
    delta_quarters: int,
    mu: float,
    gates: int,
    observed: float,
    point: dict[str, float] = OPERATING_POINT,
) -> Check:
    """Check one printed row of the sifting-case table.

    Case A reports the expected arm's share of clicking gates (doubles
    included), case B the fraction of gates without a single click, case C
    the APD 1 share of single clicks.
    """
    p1, p2 = fixed_phase_fired(
        delta_quarters, mu, point["qe"], point["dcp_apd1"], point["dcp_apd2"]
    )
    single1, single2, double = p1 * (1.0 - p2), p2 * (1.0 - p1), p1 * p2
    if case_label == "A":
        lit = single1 if delta_quarters % 4 == 0 else single2
        clicks = single1 + single2 + double
        return frequency_check(name, observed, lit / clicks, gates * clicks, TABLE_PRINT_SLACK)
    if case_label == "B":
        quiet = (1.0 - p1) * (1.0 - p2) + double
        return frequency_check(name, observed, quiet, gates, TABLE_PRINT_SLACK)
    if case_label == "C":
        singles = single1 + single2
        return frequency_check(
            name, observed, single1 / singles, gates * singles, TABLE_PRINT_SLACK
        )
    raise ValueError(f"{name}: unknown case label {case_label!r}")
