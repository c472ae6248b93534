"""Modulator phases and the operating point of the gated APD pair.

Avalanche amplitudes follow a one-parameter law: every detected photon
(and every dark ignition) contributes an independent exponential draw with
mean ``gain_mean``, so a k-carrier avalanche is Gamma(k) distributed.  A
gated APD front end rails once the avalanche exceeds ``t_strong``, so the
comparator stages in :mod:`bncsim.balanced` / :mod:`bncsim.selfdiff` only
ever see ``min(amplitude, t_strong)``; the engine draws that railed level
directly, and :func:`weak_probabilities` gives the chance that a
k-carrier avalanche stays below the rail.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

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


def check_real(value: object, name: str) -> float:
    """``value`` as a Python float: any real number, numpy's included, but
    not a bool, which would pass for 0 or 1.  An int past the float range
    counts as infinite."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
        # stored as floats, so an int writes the digest of the equal float;
        # `nan <= 0` is false, so the range checks alone would let nan pass
        for f in fields(self):
            v = check_real(getattr(self, f.name), f.name)
            if not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite, got {v}")
            object.__setattr__(self, f.name, v)
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
        # to 0, so it stays within WEAK_TABLE_MAX entries iff P(2**21) is 0;
        # P grows with the ratio, and at a ratio of 2**20 P(2**21) is below
        # exp(-4e5) (Bennett's inequality), so only larger ratios are read
        ratio = self.t_strong / self.gain_mean
        if ratio > (WEAK_TABLE_MAX - 1) / 2 and (
            ratio == math.inf or poisson_tail(ratio, WEAK_TABLE_MAX - 1, WEAK_TABLE_MAX)[0] > 0.0
        ):
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


#: :func:`log_factorial` reads k below this bound from a table of
#: ``math.lgamma`` values, built on first use at the power of two that
#: holds the k asked for; larger k, such as the one k up to 2**21 of a
#: :func:`poisson_tail` window above its mean, call ``math.lgamma`` each.
LOG_FACTORIAL_TABLE_MAX = 4096


@functools.cache
def _log_factorial_table(size: int) -> np.ndarray:
    return np.array([math.lgamma(k + 1.0) for k in range(size)])


def log_factorial(k: np.ndarray) -> np.ndarray:
    """ln k! of each non-negative integer in ``k``, by ``math.lgamma``."""
    top = int(k.max()) if k.size else 0
    if top >= LOG_FACTORIAL_TABLE_MAX:
        return np.array([math.lgamma(v + 1.0) for v in k.tolist()])
    # the default laws read k < 264: a table of 512, not all 4096
    return _log_factorial_table(1 << top.bit_length()).take(k)


def poisson_log_pmf(k: np.ndarray, lam: float) -> np.ndarray:
    """ln P(N = k) for N ~ Poisson(lam) at each integer in ``k``, with
    0 ln 0 = 0, so that lam = 0 puts all the mass on k = 0."""
    if lam > 0.0:
        log_power = k * math.log(lam)
    else:
        log_power = np.where(k > 0, -math.inf, 0.0)
    return log_power - lam - log_factorial(k)


def poisson_tail(x: float, start: int, stop: int) -> np.ndarray:
    """P(N >= k) for N ~ Poisson(x), at k = start .. stop - 1.

    This is the regularized lower incomplete gamma function at integer
    shape, ``gammainc(k, x)`` (DLMF 8.4.10), and 1 at k = 0.  The Poisson
    pmf, by the recurrence p(j + 1) = p(j) x / (j + 1), is summed over a
    window holding all but 1e-30 of the mass that counts.  An entry above
    the mean sums its upper tail, from the top of the window down; an
    entry at or below it is the complement of the mass below it, summed
    from the bottom of the distribution, and entries below that bottom
    are 1.  Every entry thus lies in [0, 1], and the entries fall with k.

    A window that reaches the mean starts the recurrence at the mode and
    is normalised by its sum, which keeps ~1e-12 relative accuracy at
    x = 1e5, where ``math.lgamma`` alone carries ~1e-10.  One wholly above
    the mean starts from :func:`poisson_log_pmf` at ``start``.
    """
    bottom = max(0, math.floor(x - 12.0 * math.sqrt(x) - 24.0))
    if stop <= bottom:
        return np.ones(stop - start)
    mode = math.floor(x)
    top = max(stop - 1, mode)
    # past top the pmf falls by at least x / (top + 1) per step, and by
    # exp(-i**2 / 2 (top + i)) after i steps
    span = 12.0 * math.sqrt(top) + 24.0
    if 0.0 < x < top + 1:
        span = min(span, 70.0 / (math.log(top + 1) - math.log(x)))
    hi = top + 2 + math.ceil(span)
    if start > x:
        first = math.exp(poisson_log_pmf(np.array([start]), x)[0])
        pmf = np.cumprod(np.concatenate(([first], x / np.arange(start + 1, hi))))
        return np.cumsum(pmf[::-1])[::-1][: stop - start]
    down = np.cumprod(np.arange(mode, bottom, -1) / x)[::-1]
    pmf = np.concatenate((down, [1.0], np.cumprod(x / np.arange(mode + 1, hi))))
    pmf /= pmf.sum()
    upper = np.cumsum(pmf[::-1])[::-1]
    tail = np.where(np.arange(bottom, hi) > x, upper, 1.0 - (np.cumsum(pmf) - pmf))
    below_bottom = np.ones(max(bottom - start, 0))
    return np.concatenate((below_bottom, tail[max(start - bottom, 0) :]))[: stop - start]


@functools.lru_cache(maxsize=8)
def weak_probabilities(params: DetectorParams) -> np.ndarray:
    """P[k] = P(gain_mean * Gamma(k) < t_strong) for k = 0 .. k_rail.

    A Gamma(k) amplitude stays below the rail iff a unit Poisson process
    has its k-th arrival before x = t_strong / gain_mean, so P[k] is the
    Poisson tail P(N >= k), N ~ Poisson(x) (:func:`poisson_tail`); the
    empty avalanche (k = 0) stays below it with certainty.  P falls with
    k, so the table stops at the first power of two ``k_rail`` where P
    underflows to 0: every avalanche of ``k >= k_rail`` carriers is
    railed, so read the table at ``min(k, len - 1)``.
    :class:`DetectorParams` bounds k_rail by ``WEAK_TABLE_MAX - 1``, so
    the table holds at most 16 MB.  It is built once per parameter set
    and returned read-only.
    """
    x = params.t_strong / params.gain_mean
    # P is above 1e-60 up to 12 standard deviations past the mean, so the
    # search starts at the first power of two beyond them
    k_rail = 1 << int(x + 12.0 * math.sqrt(x) + 24.0).bit_length()
    while poisson_tail(x, k_rail, k_rail + 1)[0] > 0.0:
        k_rail *= 2
    # the last entry is the 0 the loop stopped at
    table = np.append(poisson_tail(x, 0, k_rail), 0.0)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=16)
def below_probabilities(params: DetectorParams, threshold: float) -> np.ndarray:
    """P_t[k] = P(gain_mean * Gamma(k) < t) at a threshold t = ``threshold``
    below the rail, on the k of :func:`weak_probabilities`.

    It is the Poisson tail at t / gain_mean (:func:`poisson_tail`),
    capped by the table at the rail: the exact P_t[k] is below P[k], and
    the cap keeps rounding from crossing it.  The balanced readout reads
    it at its two comparator thresholds, so it is built on first use,
    once per (parameter set, threshold), and returned read-only.
    """
    weak = weak_probabilities(params)
    table = np.minimum(poisson_tail(threshold / params.gain_mean, 0, weak.size), weak)
    table.flags.writeable = False
    return table
