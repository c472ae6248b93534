"""Modulator phases and the operating point of the gated APD pair.

Avalanche amplitudes follow a one-parameter law: every detected photon
(and every dark ignition) contributes an independent exponential draw with
mean ``gain_mean``, so a k-carrier avalanche is Gamma(k) distributed (see
:func:`bncsim.attack.avalanche_amplitudes`).  A gated APD front end rails
once the avalanche exceeds ``t_strong``; the comparator stages in
:mod:`bncsim.balanced` / :mod:`bncsim.selfdiff` apply the rail where the
circuit does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum


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
    def radians(self) -> float:
        return self.value * math.pi / 2.0

    @property
    def label(self) -> str:
        return ("0", "pi/2", "pi", "3pi/2")[self.value]

    def minus(self, other: "PhaseSymbol") -> "PhaseSymbol":
        """Phase difference (self - other) mod 2*pi, as a symbol."""
        return PhaseSymbol((self.value - other.value) % 4)


#: Phases available to the measuring side (basis selectors).
RECEIVER_PHASES = (PhaseSymbol.ZERO, PhaseSymbol.HALF_PI)


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
        if not 0.0 <= self.qe <= 1.0:
            raise ValueError(f"qe must be in [0, 1], got {self.qe}")
        for name in ("dcp_apd1", "dcp_apd2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.f_gate <= 0.0:
            raise ValueError("f_gate must be positive")
        if self.gain_mean <= 0.0:
            raise ValueError("gain_mean must be positive")
        if not 0.0 < self.t_diff < self.t_strong:
            raise ValueError("thresholds must satisfy 0 < t_diff < t_strong")

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
