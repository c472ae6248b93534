"""Modulator phases and the operating point of the gated APD pair.

Avalanche amplitudes follow a one-parameter law: every detected photon
(and every dark ignition) contributes an independent exponential draw with
mean ``gain_mean``, so a k-carrier avalanche is Gamma(k) distributed.  A
gated APD front end rails once the avalanche exceeds ``t_strong``, so the
comparator stages in :mod:`bncsim.balanced` / :mod:`bncsim.selfdiff` only
ever see ``min(amplitude, t_strong)``; :func:`bncsim.attack.railed_amplitudes`
draws that railed level directly, and :func:`weak_probabilities` gives the
chance that a k-carrier avalanche stays below the rail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np
from scipy import special

from .errors import ConfigError


class PhaseSymbol(IntEnum):
    """One of the four modulator phases, in quarter-turn units.

    The integer value is the multiple of pi/2, so phase arithmetic is exact
    and never compares floats.  Phases {0, pi} form basis 0 and
    {pi/2, 3pi/2} form basis 1.
    """

    ZERO = 0
    HALF_PI = 1
    PI = 2
    THREE_HALF_PI = 3

    @property
    def basis(self) -> int:
        return self.value % 2

    @property
    def bit(self) -> int:
        """Key bit encoded by this phase within its basis (0 or 1)."""
        return self.value // 2

    @property
    def label(self) -> str:
        return ("0", "pi/2", "pi", "3pi/2")[self.value]

    def minus(self, other: "PhaseSymbol") -> "PhaseSymbol":
        """Phase difference (self - other) mod 2*pi, as a symbol."""
        return PhaseSymbol((self.value - other.value) % 4)


#: Phases available to the measuring side (basis selectors).
RECEIVER_PHASES = (PhaseSymbol.ZERO, PhaseSymbol.HALF_PI)

#: Most entries the P(k) table of :func:`weak_probabilities` may hold, 16 MB
#: of float64.  The table grows as t_strong / gain_mean, so
#: :class:`DetectorParams` rejects a ratio that would need a larger one.
WEAK_TABLE_MAX = 2**21 + 1


@dataclass(frozen=True)
class DetectorParams:
    """Operating point of one gated APD pair.

    Attributes:
        qe: detection probability per incident photon.
        dcp_apd1: dark count probability per gate, APD 1.
        dcp_apd2: dark count probability per gate, APD 2.
        f_gate: gate repetition frequency in Hz.
        gain_mean: mean amplitude contributed by one avalanche carrier.
        t_strong: raw-path comparator threshold; also the level at which
            the front end rails, so every amplitude at or above it looks
            identical to the differencing stage.
        t_diff: difference-path comparator threshold.

    The common-mode gate transient is not a parameter: it enters both
    inputs of the differencing stage identically and cancels there.
    """

    qe: float
    dcp_apd1: float
    dcp_apd2: float
    f_gate: float
    gain_mean: float
    t_strong: float
    t_diff: float

    def __post_init__(self) -> None:
        # `nan <= 0` is false, so the range checks alone would let nan pass
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite, got {v}")
        if not 0.0 <= self.qe <= 1.0:
            raise ConfigError(f"qe must be in [0, 1], got {self.qe}")
        for name in ("dcp_apd1", "dcp_apd2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.f_gate <= 0.0:
            raise ConfigError("f_gate must be positive")
        if self.gain_mean <= 0.0:
            raise ConfigError("gain_mean must be positive")
        if not 0.0 < self.t_diff < self.t_strong:
            raise ConfigError("thresholds must satisfy 0 < t_diff < t_strong")
        # the table stops at the first power of two k where P(k) underflows
        # to 0, so it stays within WEAK_TABLE_MAX entries iff P(2**21) is 0
        ratio = self.t_strong / self.gain_mean
        if special.gammainc(WEAK_TABLE_MAX - 1, ratio) > 0.0:
            raise ConfigError(
                f"t_strong / gain_mean = {ratio:.6g} is too large: its weak-avalanche "
                f"table would exceed {WEAK_TABLE_MAX} entries"
            )

    @classmethod
    def default(cls) -> "DetectorParams":
        """Measured operating point: 10% QE at 2 MHz gating, dark count
        probabilities 4e-5 and 2e-5 per gate.

        ``t_strong = gain_mean * ln(10/9)`` calibrates the single-carrier
        weak-avalanche probability to exactly 10%.
        """
        return cls(
            qe=0.1,
            dcp_apd1=4e-5,
            dcp_apd2=2e-5,
            f_gate=2e6,
            gain_mean=1.0,
            t_strong=math.log(10.0 / 9.0),
            t_diff=0.01,
        )


def weak_probabilities(k_max: int, params: DetectorParams) -> np.ndarray:
    """P[k] = P(gain_mean * Gamma(k) < t_strong) for k = 0 .. k_max.

    The regularized lower incomplete gamma function at the rail,
    ``gammainc(k, t_strong / gain_mean)``; the empty avalanche (k = 0)
    stays below it with certainty.  P falls with k, so the table stops
    early at the first power of two ``k_rail`` where P underflows to 0:
    every avalanche of ``k >= k_rail`` carriers is railed, and the table's
    size is set by the parameters, not by ``k_max``.  Read it at
    ``min(k, len - 1)``.
    """
    x = params.t_strong / params.gain_mean
    k_rail = 1
    while k_rail < k_max and special.gammainc(k_rail, x) > 0.0:
        k_rail *= 2
    return special.gammainc(np.arange(min(k_max, k_rail) + 1), x)
