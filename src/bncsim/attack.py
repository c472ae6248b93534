"""Intercept-and-resend attack with detector blinding, and the honest twin.

The resender measures the sender's phase with her own receiver, then fires
a bright pulse carrying the guessed phase at the legitimate receiver.
When her guess basis matches the receiver's basis she controls the click;
when the bases differ the bright pulse splits between the arms and, on a
noise-cancelling detector, the simultaneous avalanches cancel and the
gate goes silent instead of producing the 50/50 error clicks that would
raise the sifted error rate.

A gate's readout depends only on its arm law, the shares of the pulse
its protocol class sends to each arm, and the classes have only three.
The engine therefore draws a shard's counts per arm law and runs the
gate kernel (:func:`detect_pair`) once per law, then splits each law's
outcomes over its classes by their weights.  Under one law each arm of
a gate is empty, weak (its avalanche stays below the rail) or railed,
independently of the other arm, and a gate's readout is fixed by that
pair of states unless an arm is weak; with one weak arm it is fixed by
the side of one threshold its amplitude falls on.  The kernel therefore
draws the law's counts of the nine (arm 1, arm 2) state cells, splits
each one-weak cell's count by side, and counts one weighted word per
cell or side plus one word per gate with two weak arms.  The words of
the cells and sides depend only on the parameters, so their readout
rows are read once per parameter set; a kernel call reads only its
gates with two weak arms.  A block costs O(arm laws + classes +
weak-weak gates), not O(gates).  Shard results
merge by plain field-wise addition, making the aggregate independent of
how shards are grouped over workers.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Optional, TypeVar

import numpy as np
import numpy.random  # noqa: F401  # loaded with the package, not inside the first timed draw

from .balanced import GateEvent, comparator_arrays, event_codes
from .errors import ConfigError
from .signal_model import (
    RECEIVER_PHASES,
    DetectorParams,
    PhaseSymbol,
    below_probabilities,
    poisson_log_pmf,
    weak_probabilities,
)


class Scenario(str, Enum):
    HONEST = "honest"
    ATTACK_NO_CM = "attack_no_cm"
    ATTACK_CM = "attack_cm"
    BLINDING_ONLY = "blinding_only"


class DetectorKind(str, Enum):
    BASELINE_TWO_APD = "baseline_two_apd"
    BALANCED_BNC = "balanced_bnc"
    SELF_DIFFERENCING = "self_differencing"


class CaseLabel(str, Enum):
    A = "A"  # matched guess basis, controlled click
    B = "B"  # matched guess basis, click lost to finite efficiency
    C = "C"  # mismatched guess basis, 50/50 split


class ExpectedOutcome(str, Enum):
    DETERMINISTIC_1 = "deterministic_apd1"
    DETERMINISTIC_2 = "deterministic_apd2"
    SPLIT_50 = "split_50_50"


#: Share w of the pulse that reaches APD 1 (row 0) and APD 2 (row 1), by
#: phase difference between the pulse and the receiver's modulator in
#: quarter turns: 0 routes all of it to APD 1, pi to APD 2, and the two
#: conjugate-basis differences split it evenly.
ARM_WEIGHTS = np.array([[1.0, 0.5, 0.0, 0.5], [0.0, 0.5, 1.0, 0.5]])


def _protocol_tuples(
    scenario: Scenario,
) -> Iterator[tuple[PhaseSymbol, PhaseSymbol, int, int, PhaseSymbol, bool]]:
    """The 32 equally likely protocol tuples (sender phase, receiver
    phase, guess basis, coin) of a scenario with a key channel, in that
    iteration order, each followed by the phase that reaches the
    receiver and whether the tuple is case C.

    The resender resends the sender's phase when her guess basis matches
    the sender's, and a coin-flip phase in her own basis when it does
    not; case C is a guess basis that differs from the receiver's.
    ``honest`` has no resender: its guess basis counts as the sender's,
    so the sender's phase goes through.
    """
    for alice, bob, eve_basis, coin in itertools.product(
        PhaseSymbol, RECEIVER_PHASES, (0, 1), (0, 1)
    ):
        if scenario is Scenario.HONEST:
            eve_basis = alice.basis
        send = alice if eve_basis == alice.basis else PhaseSymbol(eve_basis + 2 * coin)
        yield alice, bob, eve_basis, coin, send, eve_basis != bob.basis


@dataclass(frozen=True)
class AttackCaseRow:
    """One row of the sifting-case enumeration."""

    alice_phase: PhaseSymbol
    evealice_phase: PhaseSymbol  # the phase the resender sends
    bob_phase: PhaseSymbol
    case_label: CaseLabel

    @property
    def evebob_basis(self) -> int:
        """The resender's guess basis, the basis of the phase she sends."""
        return self.evealice_phase.basis

    @property
    def eve_apd(self) -> int:
        """The resender's APD that clicked: 1 for bit 0, 2 for bit 1."""
        return 1 + self.evealice_phase.bit

    @property
    def expected_outcome(self) -> ExpectedOutcome:
        """The receiver's outcome, by the arm shares ARM_WEIGHTS gives the resent pulse."""
        w1, w2 = ARM_WEIGHTS[:, self.evealice_phase.minus(self.bob_phase).value]
        if w1 == w2:
            return ExpectedOutcome.SPLIT_50
        return ExpectedOutcome.DETERMINISTIC_1 if w1 > w2 else ExpectedOutcome.DETERMINISTIC_2


def enumerate_cases() -> list[AttackCaseRow]:
    """The 16 sifting-relevant protocol tuples of the attack, with the
    receiver in the sender's basis (the others are discarded in sifting).

    A matched guess basis resends the sender's phase whatever the coin,
    so its two tuples give the controlled row (case A) and its
    detection-loss twin (case B); a mismatched one gives one 50/50 row
    per coin, eight case-C rows in all.
    """
    return [
        AttackCaseRow(alice, send, bob, CaseLabel.C if casec else (CaseLabel.A, CaseLabel.B)[coin])
        for alice, bob, _, coin, send, casec in _protocol_tuples(Scenario.ATTACK_CM)
        if alice.basis == bob.basis
    ]


@dataclass
class GateTally:
    """Aggregate counters of one run (or one shard); merge with ``+``."""

    gates: int = 0
    pe1: int = 0  # detected signal photons per arm
    pe2: int = 0
    fired1: int = 0  # gates whose arm avalanched (photon or dark)
    fired2: int = 0
    # readout clicks: arm fired alone (two-APD), comparator C/D (balanced),
    # rise/fall of the difference signal (self-differencing, one arm)
    click1: int = 0
    click2: int = 0
    doubles: int = 0  # both arms fired; the two-APD readout discards these
    blind: int = 0  # monitor blinding flags (noise-cancelling receivers only)
    weak: int = 0  # avalanche amplitude census, arms pooled (noise-cancelling only)
    strong: int = 0
    weak_coinc: int = 0  # both arms fired yet no event: cancelled weak pair
    casec_gates: int = 0  # gates with guess basis != receiver basis
    casec_click1: int = 0  # readout clicks and monitor flags on those gates
    casec_click2: int = 0
    casec_blind: int = 0
    sifted: int = 0
    errors: int = 0

    def __add__(self, other: "GateTally") -> "GateTally":
        return GateTally(*[getattr(self, name) + getattr(other, name) for name in _TALLY_FIELDS])

    @property
    def no_click(self) -> int:
        """Gates without a readout click; each readout clicks at most one arm."""
        return self.gates - self.click1 - self.click2

    @property
    def qber(self) -> float:
        return self.errors / self.sifted if self.sifted else math.nan


# read once: each dataclasses.fields() call builds a new tuple
_TALLY_FIELDS = tuple(f.name for f in fields(GateTally))


def check_int(value: object, name: str) -> int:
    """``value`` as a Python int: any integer, numpy's included, but not a
    bool, which would pass for 0 or 1."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def check_flux(value: object, name: str) -> float:
    """``value`` as a flux, a Python float: any real number, numpy's
    included, but not a bool, which would pass for 0 or 1; finite and
    non-negative.  An int past the float range counts as infinite."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        mu = float(value)
    except OverflowError:
        mu = math.inf if value > 0 else -math.inf
    if not 0.0 <= mu < math.inf:
        raise ConfigError(f"{name} must be finite and non-negative, got {mu}")
    return mu


_Member = TypeVar("_Member", bound=Enum)


def check_enum(kind: type[_Member], value: object, name: str) -> _Member:
    """``value`` as a member of ``kind``: a member, or its value by name."""
    try:
        return kind(value)
    except ValueError:
        names = ", ".join(member.value for member in kind)
        raise ConfigError(f"{name} must be one of {names}, got {value!r}") from None


@dataclass(frozen=True)
class AttackConfig:
    """One run of the gate pipeline, over every protocol class of its scenario."""

    n_pulses: int
    resend_mu: float
    scenario: Scenario = Scenario.ATTACK_CM
    detector: DetectorKind = DetectorKind.BALANCED_BNC

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_pulses", check_int(self.n_pulses, "n_pulses"))
        object.__setattr__(self, "resend_mu", check_flux(self.resend_mu, "resend_mu"))
        object.__setattr__(self, "scenario", check_enum(Scenario, self.scenario, "scenario"))
        object.__setattr__(self, "detector", check_enum(DetectorKind, self.detector, "detector"))
        if self.n_pulses <= 0:
            raise ConfigError("n_pulses must be positive")
        if self.detector is DetectorKind.SELF_DIFFERENCING:
            raise ConfigError(
                "the self-differencing receiver is not wired into the gate "
                "pipeline; use the harness stream runner"
            )
        if self.scenario is Scenario.ATTACK_NO_CM:
            # the monitor only reads the gates; attack_no_cm is a report setting
            raise ConfigError("the engine runs attack_no_cm as attack_cm; use attack_cm")


class GateClasses(NamedTuple):
    """Protocol classes of a gate.  Gates are i.i.d. given their class."""

    weight: np.ndarray  # probability of the class; the weights sum to 1
    delta: np.ndarray  # phase difference at the receiver, in quarter turns
    casec: np.ndarray  # guess basis != receiver basis
    sift: np.ndarray  # sender basis == receiver basis
    bit: np.ndarray  # the sender's bit


def _class_table(rows: list[tuple[int, bool, bool, int]]) -> GateClasses:
    """Collapse equally likely (delta, casec, sift, bit) rows into classes,
    in sorted order (the order the engine draws them in); the arrays are
    read-only, since tables are cached and shared."""
    counts = Counter(rows)
    keys = sorted(counts)
    delta, casec, sift, bit = (np.array(column) for column in zip(*keys))
    weight = np.array([counts[key] for key in keys]) / len(rows)
    table = GateClasses(weight, delta, casec, sift, bit)
    for column in table:
        column.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def protocol_classes(scenario: Scenario) -> GateClasses:
    """The class table of a scenario, collapsed from its 32 equally likely
    protocol tuples (see :func:`_protocol_tuples`).

    ``blinding_only`` is one class, conjugate-basis flux every gate, all
    case C, no key channel.  The case breakdown of a run is its case-C
    counters, not a subset of the classes.
    """
    if scenario is Scenario.BLINDING_ONLY:
        return _class_table([(1, True, False, 0)])
    return _class_table([
        (send.minus(bob).value, casec, alice.basis == bob.basis, alice.bit)
        for alice, bob, _, _, send, casec in _protocol_tuples(scenario)
    ])


class ArmGroups(NamedTuple):
    """A scenario's protocol classes grouped by arm law, the column of
    :data:`ARM_WEIGHTS` at the class's ``delta``.  Given its arm law, a
    gate's outcome is independent of its class."""

    delta: np.ndarray  # a phase difference of each group's law
    weight: np.ndarray  # probability of the group, the sum of its classes' weights
    members: tuple[np.ndarray, ...]  # each group's classes, in class order
    share: tuple[np.ndarray, ...]  # the members' weights within the group

    @property
    def even_split(self) -> np.ndarray:
        """Whether each group's law splits the pulse evenly between the arms."""
        w1, w2 = ARM_WEIGHTS[:, self.delta]
        return w1 == w2


@functools.lru_cache(maxsize=None)
def arm_groups(scenario: Scenario) -> ArmGroups:
    """The :class:`ArmGroups` of a scenario's :func:`protocol_classes`, in
    the order their laws first appear among the classes; the arrays are
    read-only, since groupings are cached and shared."""
    classes = protocol_classes(scenario)
    laws = [tuple(law) for law in ARM_WEIGHTS[:, classes.delta].T.tolist()]
    members = tuple(
        np.flatnonzero([law == key for law in laws]) for key in dict.fromkeys(laws)
    )
    delta = np.array([classes.delta[m[0]] for m in members])
    weight = np.array([classes.weight[m].sum() for m in members])
    share = tuple(classes.weight[m] / w for m, w in zip(members, weight))
    for column in (delta, weight, *members, *share):
        column.flags.writeable = False
    return ArmGroups(delta, weight, members, share)


def sift_counts(sift, bit, click1, click2) -> tuple[int, int]:
    """Sifting reduction over classes (or single gates) and their clicks
    on APD 1 and 2: (kept gates, error gates).  A click is kept when the
    class sifts, and errs when the decoded bit (APD 1 -> 0, APD 2 -> 1)
    disagrees with the class's bit.
    """
    kept1 = np.where(sift, click1, 0)
    kept2 = np.where(sift, click2, 0)
    return int(kept1.sum() + kept2.sum()), int(np.where(bit, kept1, kept2).sum())


#: Fewest gates per shard of :func:`_run_sharded`.  A point of at most
#: this many gates runs as one shard on shard 0's seed.
SHARD_GATES = 1_000_000

#: Expected per-gate entries (:func:`gate_work`) of one shard.  A shard's
#: memory and time grow with them, not with its gates.  At the high-rail
#: point (t_strong = 3, t_diff = 1, other parameters default), where weak
#: avalanches are common, a gate holds up to 0.19 weak-weak gates in
#: ``attack_cm`` (at mu = 37), 0.39 in ``blinding_only`` and 0.62 weak
#: gates on the self-differencing APD (at mu = 18): 190k to 620k entries
#: in a ``SHARD_GATES`` shard.  2**16 stays below all of them, so no
#: shard holds more entries than a 1M-gate shard there.
SHARD_WORK = 2**16

#: Most gates per shard.  numpy's ``hypergeometric`` and
#: ``multivariate_hypergeometric``, which draw a self-differencing shard's
#: skeleton, need every population below 1e9.  At 2**29 gates a photon
#: histogram's total (counts times signal counts below 2**22, the largest
#: P(k) table plus its window) stays below 2**51, inside int64, and the
#: float64 weighted ``bincount`` of :func:`count_events` stays exact.
SHARD_GATES_MAX = 2**29

#: numpy's largest Poisson mean: ``Generator.poisson`` raises above it.
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max))

#: Poisson chunks :func:`_signal_photons` draws per call, so that its
#: memory stays bounded however many chunks a total needs.
POISSON_BATCH = 4096


def check_poisson_mean(mu: float, params: DetectorParams) -> None:
    """Reject a :func:`check_flux` flux whose detected mean mu*qe numpy
    cannot draw, before any gate is drawn."""
    if mu * params.qe > POISSON_LAM_MAX:
        raise ConfigError(
            f"flux {mu:g} at qe {params.qe:g} exceeds the largest "
            f"Poisson mean numpy can draw ({POISSON_LAM_MAX:.6g} detected photons/pulse)"
        )


def arm_means(mu: float, qe: float, delta_q: int) -> tuple[float, float]:
    """Mean detected signal carriers per gate on APD 1 and APD 2, mu*qe*w,
    at phase difference ``delta_q``."""
    w1, w2 = ARM_WEIGHTS[:, delta_q].tolist()
    return mu * qe * w1, mu * qe * w2


#: Avalanche state of one arm in one gate, the row and column of
#: :func:`detect_pair`'s cells.
EMPTY, WEAK, RAILED = range(3)


class ArmLaw(NamedTuple):
    """One arm's per-gate law, by avalanche state.

    A gate's carrier count is K = k + d, with k ~ Poisson(lam) detected
    signal photons and d ~ Bernoulli(dcp) a dark ignition.  The arm is
    EMPTY when K = 0, WEAK when its Gamma(K) avalanche stays below the
    rail (probability P[K] of
    :func:`~bncsim.signal_model.weak_probabilities`) and RAILED otherwise.
    The law is tabulated over a window of signal counts, lam +- (12
    sqrt(lam) + 24), and normalised over it; the Poisson mass outside is
    below 1e-30.  A window at or past the end of the P(k) table, where
    every avalanche rails and no gate is empty, is not tabulated: ``k`` is
    empty and ``state`` is (0, 0, 1).  The arrays are read-only, since laws
    are cached and shared.
    """

    lam: float  # the law's mean
    dcp: float  # and dark probability
    state: np.ndarray  # P(EMPTY), P(WEAK), P(RAILED)
    k: np.ndarray  # the window's signal counts
    weak: np.ndarray  # P(d, k, WEAK), row d = 0, 1, over the window
    railed: np.ndarray  # P(k, RAILED) over the window, both d pooled
    dk: np.ndarray  # P(d, k), row d = 0, 1, over the window, any state


def _window(lam: float) -> tuple[int, int]:
    """First and last signal count of an :class:`ArmLaw`'s window at mean ``lam``."""
    spread = 12.0 * math.sqrt(lam) + 24.0
    return max(0, math.floor(lam - spread)), math.ceil(lam + spread)


@functools.lru_cache(maxsize=128)
def _poisson_window(lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The counts k of a :func:`_window` and their Poisson(lam) pmf,
    read-only and shared by the laws of both dark probabilities."""
    lo, hi = _window(lam)
    k = np.arange(lo, hi + 1)
    poisson = np.exp(poisson_log_pmf(k, lam))
    k.flags.writeable = poisson.flags.writeable = False
    return k, poisson


#: The dark ignitions d of an arm's (d, k) rows.
_DARK = np.arange(2)[:, None]


@functools.lru_cache(maxsize=256)
def arm_law(lam: float, dcp: float, params: DetectorParams) -> ArmLaw:
    """The :class:`ArmLaw` of an arm at mean ``lam`` and dark probability ``dcp``."""
    lo = _window(lam)[0]
    p = weak_probabilities(params)
    if lo >= p.size - 1:
        rails = np.array([0.0, 0.0, 1.0])
        no_window = np.zeros((2, 0))
        law = ArmLaw(lam, dcp, rails, np.zeros(0, np.int64), no_window, np.zeros(0), no_window)
    else:
        k, poisson = _poisson_window(lam)
        dk = np.multiply.outer((1.0 - dcp, dcp), poisson)
        # read P at min(K, len - 1) for K = k + d
        p_dk = p.take(k + _DARK, mode="clip")
        weak = dk * p_dk
        if lo == 0:
            weak[0, 0] = 0.0  # no carrier: empty, not weak
        railed = (dk * (1.0 - p_dk)).sum(0)
        state = np.array([dk[0, 0] if lo == 0 else 0.0, weak.sum(), railed.sum()])
        total = state.sum()
        law = ArmLaw(lam, dcp, state / total, k, weak / total, railed / total, dk / total)
    for table in law[2:]:
        table.flags.writeable = False
    return law


@functools.lru_cache(maxsize=512)
def side_law(
    lam: float, dcp: float, params: DetectorParams, thresholds: tuple[float, ...]
) -> np.ndarray:
    """P(bin, d, k) of a weak arm of :func:`arm_law`, flattened: the
    sorted, distinct ``thresholds`` cut the weak amplitudes into bins,
    bin 0 below the first, bin i at or above threshold i and below the
    next (the last bin reaching the rail).

    A weak arm of K = d + k carriers falls below t with probability
    P_t[K] / P[K] (:func:`~bncsim.signal_model.below_probabilities`), so
    the mass below each threshold is P(d, k) P_t[K], with no ratio, and
    each bin the difference between its two ends.  The mass below a
    threshold is capped by the weak entry, which also zeroes the empty
    avalanche (K = 0), and by the mass below the next threshold, so that
    rounding keeps every bin non-negative.  The entries are normalised
    over the weak arms; the array is read-only, since bin laws are
    cached and shared.
    """
    law = arm_law(lam, dcp, params)
    carriers = law.k + _DARK
    bins = np.empty((len(thresholds) + 1, *law.weak.shape))
    upper = law.weak
    for i in range(len(thresholds), 0, -1):
        below_t = below_probabilities(params, thresholds[i - 1]).take(carriers, mode="clip")
        lower = np.minimum(law.dk * below_t, upper)
        np.subtract(upper, lower, out=bins[i])
        upper = lower
    bins[0] = upper
    bins = bins.ravel()
    bins /= bins.sum()
    bins.flags.writeable = False
    return bins


def side_cuts(params: DetectorParams) -> tuple[tuple[float, float], tuple[float, float]]:
    """The levels of an EMPTY and a RAILED gate, 0 and ``t_strong``, and
    the cut a weak amplitude beside each reads by, in the same order.

    Beside an empty gate a weak amplitude differs from it by t_diff or
    more at or above ``t_diff``; beside a railed one, at or below
    ``t_strong - t_diff``.  So every weak amplitude on one side of its
    cut reads alike.
    """
    return (0.0, params.t_strong), (params.t_diff, params.t_strong - params.t_diff)


def bin_levels(thresholds: tuple[float, ...], params: DetectorParams) -> list[float]:
    """A level inside each bin of :func:`side_law`, at its midpoint, so the
    comparators decide on it as on any amplitude of the bin."""
    edges = [0.0, *thresholds, params.t_strong]
    return [(lo + hi) / 2.0 for lo, hi in zip(edges, edges[1:])]


def _signal_photons(law: ArmLaw, pmf: np.ndarray, n: int, rng: np.random.Generator) -> int:
    """Detected signal photons of ``n`` gates whose signal count k follows
    ``pmf`` (up to a factor) over ``law.k``: one histogram multinomial.

    Without a window every gate is railed and k ~ Poisson(lam), so the
    total is Poisson(n*lam), drawn in equal chunks no larger than
    :data:`POISSON_LAM_MAX` and summed as Python ints.  The chunks are
    drawn :data:`POISSON_BATCH` at a time, the variates of one draw of
    them all.
    """
    if not n:
        return 0
    if not law.k.size:
        chunks = int(n * law.lam // POISSON_LAM_MAX) + 1
        lam = n * law.lam / chunks
        return sum(
            sum(rng.poisson(lam, min(POISSON_BATCH, chunks - start)).tolist())
            for start in range(0, chunks, POISSON_BATCH)
        )
    return int(rng.multinomial(n, pmf / pmf.sum()) @ law.k)


def _weak_amplitudes(
    carriers: np.ndarray, u: np.ndarray, params: DetectorParams, rng: np.random.Generator
) -> np.ndarray:
    """Amplitudes of weak avalanches of K ``carriers``, at uniforms u < P[K].

    With x = t_strong / gain_mean, a Gamma(K) amplitude below the rail is
    gain_mean times the K-th arrival of a unit Poisson process on [0, x]
    given N >= K arrivals there (P[K] = P(N >= K), see
    :func:`~bncsim.signal_model.weak_probabilities`).  The largest j with
    P[j] > u is such an N: u is uniform below P[K], so N = j with
    probability P(N = j) / P[K] for every j >= K.  Given N, the arrivals
    are N uniform points on [0, x], whose K-th sits at x * Beta(K, N - K +
    1) (order statistics; Devroye, *Non-Uniform Random Variate
    Generation*, 1986, ch. V).  An amplitude that rounds up to the rail
    reads as railed.
    """
    table = weak_probabilities(params)
    # the table falls with j, so the j with P[j] > u are 0 .. N
    arrivals = table.size - 1 - np.searchsorted(table[::-1], u, side="right")
    return np.minimum(params.t_strong * rng.beta(carriers, arrivals - carriers + 1), params.t_strong)


@functools.lru_cache(maxsize=256)
def weak_cdf(lam: float, dcp: float, params: DetectorParams) -> np.ndarray:
    """CDF of a weak arm's cell over the flattened ``weak`` table of
    :func:`arm_law`, scaled to end at 1 as ``Generator.choice`` scales
    its ``p``'s; read-only, since CDFs are cached and shared."""
    law = arm_law(lam, dcp, params)
    cdf = (law.weak.ravel() / law.state[WEAK]).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def _weak_gates(
    law: ArmLaw, m: int, params: DetectorParams, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Detected signal photons and amplitudes of ``m`` weak arms.

    Each arm draws its (d, k) from the weak law, independently of the
    others, by inverting :func:`weak_cdf` at a uniform, numpy's algorithm
    for ``rng.choice`` with the weak law as ``p`` (same variates, same
    cells), then a Gamma(K) amplitude truncated below the rail
    (:func:`_weak_amplitudes` at u ~ U(0, P[K])).
    """
    if not m:
        return 0, np.zeros(0)
    cell = weak_cdf(law.lam, law.dcp, params).searchsorted(rng.random(m), side="right")
    d, i = np.divmod(cell, law.k.size)
    k = law.k[i]
    carriers = k + d
    u = weak_probabilities(params)[carriers] * rng.random(m)
    return int(k.sum()), _weak_amplitudes(carriers, u, params, rng)


def _weak_sides(
    law: ArmLaw,
    thresholds: tuple[float, ...],
    n: int,
    params: DetectorParams,
    rng: np.random.Generator,
) -> tuple[int, np.ndarray]:
    """Detected signal photons of ``n`` weak arms of ``law`` and the arms'
    counts in each bin of ``thresholds``: one multinomial over the arms'
    :func:`side_law`."""
    if not n:
        return 0, np.zeros(len(thresholds) + 1, np.int64)
    law_bins = side_law(law.lam, law.dcp, params, thresholds)
    counts = rng.multinomial(n, law_bins).reshape(len(thresholds) + 1, 2, -1)
    return int(counts.sum((0, 1)) @ law.k), counts.sum((1, 2))


class PairReadout(NamedTuple):
    """The balanced readout's 12 fixed rows: one per cell without a weak
    arm, in the order of ``cells``, then the 2 sides of each cell with one,
    in the order of ``sides``."""

    cells: tuple[tuple[int, int], ...]  # (arm 1 state, arm 2 state) of each cell without a weak arm
    sides: tuple[tuple[int, int, tuple[float]], ...]  # (weak arm, other arm's state, its threshold)
    codes: np.ndarray  # each row's event code
    raw_both: np.ndarray  # whether both raw comparators fired
    cancelled: np.ndarray  # whether both arms fired and the word is no event


@functools.lru_cache(maxsize=8)
def _pair_readout(params: DetectorParams) -> PairReadout:
    """The :class:`PairReadout` of ``params``, built once per parameter set
    and returned read-only.

    The non-weak arms read at their :func:`side_cuts` levels, and each
    side of a weak arm beside one, split at its :func:`side_cuts` cut,
    at its :func:`bin_levels` midpoint.  The rows go through
    :func:`~bncsim.balanced.comparator_arrays` and
    :func:`~bncsim.balanced.event_codes`, which check every word.
    """
    levels, cuts = side_cuts(params)
    level = dict(zip((EMPTY, RAILED), levels))
    cells = tuple(itertools.product(level, level))
    sides = tuple(
        (arm, other, (cut,)) for arm, (other, cut) in itertools.product((0, 1), zip(level, cuts))
    )
    rows = [(level[s1], level[s2]) for s1, s2 in cells]
    for arm, other, cut in sides:
        for side in bin_levels(cut, params):
            rows.append((side, level[other]) if arm == 0 else (level[other], side))
    level1, level2 = (np.array(column) for column in zip(*rows))
    a, b, c, d = comparator_arrays(level1, level2, params)
    codes = event_codes(a, b, c, d)
    # no level but an empty arm's is 0
    cancelled = (level1 > 0.0) & (level2 > 0.0) & (codes == GateEvent.NO_EVENT)
    raw_both = a & b
    for table in (codes, raw_both, cancelled):
        table.flags.writeable = False
    return PairReadout(cells, sides, codes, raw_both, cancelled)


def count_events(
    tally: GateTally, codes: np.ndarray, weights: np.ndarray, both_raw: int = 0
) -> GateTally:
    """Count a noise-cancelling monitor's :class:`GateEvent` codes into
    ``tally``, whose fired counters are set, and return it.

    Clicks are the strong and weak events of each difference polarity
    (comparator C or D), blinding flags the ``BLINDING_DETECTED`` events.
    A raw comparator fires only on a railed avalanche, and its word is a
    strong click or a blinding flag; ``both_raw`` counts the flagged gates
    where both raw comparators fired, two strong avalanches each (the
    self-differencing monitor has one raw comparator, so none).  Every
    other fired arm is weak.  ``weights`` holds the number of gates each
    code stands for.
    """
    events = np.bincount(codes, weights, minlength=len(GateEvent)).astype(np.int64).tolist()
    tally.click1 = events[GateEvent.STRONG_1] + events[GateEvent.WEAK_1]
    tally.click2 = events[GateEvent.STRONG_2] + events[GateEvent.WEAK_2]
    tally.blind = events[GateEvent.BLINDING_DETECTED]
    tally.strong = events[GateEvent.STRONG_1] + events[GateEvent.STRONG_2] + tally.blind + both_raw
    tally.weak = tally.fired1 + tally.fired2 - tally.strong
    return tally


def detect_pair(
    lam1: float,
    lam2: float,
    n: int,
    detector: DetectorKind,
    params: DetectorParams,
    rng: np.random.Generator,
) -> GateTally:
    """Draw both arms over ``n`` gates and count their readout.

    The arms are independent, and each arm's state (EMPTY, WEAK or
    RAILED, see :class:`ArmLaw`) follows its :func:`arm_law`, so one
    multinomial over the (arm 1 state, arm 2 state) cells gives every
    gate's pair of states.  The two-APD readout needs only whether each
    arm fired: two states per arm, four cells, and it clicks on an arm
    that fired alone.  Each arm's detected signal photons come from one
    histogram multinomial over its fired (two-APD) or railed (balanced)
    gates.

    A gate's balanced monitor word is fixed by its cell unless an arm is
    weak.  Beside an EMPTY or RAILED arm it depends only on which side of
    one threshold the weak amplitude falls, so such a cell draws its
    weak arms' photons and side counts in one multinomial
    (:func:`_weak_sides`).  Only the gates of the WEAK-WEAK cell draw a
    (d, k) and an amplitude per arm (:func:`_weak_gates`).  The words of
    the cells without a weak arm and of the sides of the cells with one
    are read once per parameter set (:func:`_pair_readout`); a call
    reads only its WEAK-WEAK gates through
    :func:`~bncsim.balanced.comparator_arrays` and
    :func:`~bncsim.balanced.event_codes`, which also check every word
    for reachability, and only when it has any.  :func:`count_events`
    counts the fixed words, weighted by their cell and side counts, and
    the call's own, one gate each.  The case-C and sifting counters are
    left to the caller.
    """
    laws = arm_law(lam1, params.dcp_apd1, params), arm_law(lam2, params.dcp_apd2, params)
    balanced = detector is DetectorKind.BALANCED_BNC
    states = [law.state for law in laws]
    if not balanced:
        # the two-APD readout needs only EMPTY against fired (WEAK or RAILED)
        states = [np.array([s[EMPTY], 1.0 - s[EMPTY]]) for s in states]
    cells = rng.multinomial(n, np.multiply.outer(*states).ravel()).reshape(len(states[0]), -1)
    grid = cells.tolist()
    by_arm = [sum(row) for row in grid], [sum(column) for column in zip(*grid)]
    tally = GateTally(gates=n, doubles=sum(sum(row[1:]) for row in grid[1:]))
    tally.fired1, tally.fired2 = (n - count[EMPTY] for count in by_arm)
    if not balanced:
        tally.pe1, tally.pe2 = (
            _signal_photons(law, law.weak.sum(0) + law.railed, count[1], rng)
            for law, count in zip(laws, by_arm)
        )
        tally.click1 = tally.fired1 - tally.doubles
        tally.click2 = tally.fired2 - tally.doubles
        return tally

    readout = _pair_readout(params)
    pe = [_signal_photons(law, law.railed, count[RAILED], rng) for law, count in zip(laws, by_arm)]
    # the gates of the readout's fixed rows: the cells without a weak arm,
    # then the sides of each cell with one
    counts = [[grid[s1][s2] for s1, s2 in readout.cells]]
    for arm, other, cut in readout.sides:
        n_cell = grid[WEAK][other] if arm == 0 else grid[other][WEAK]
        photons, side_counts = _weak_sides(laws[arm], cut, n_cell, params, rng)
        pe[arm] += photons
        counts.append(side_counts)
    weak_weak = grid[WEAK][WEAK]
    amps = []
    for arm, law in enumerate(laws):
        photons, amp = _weak_gates(law, weak_weak, params, rng)
        pe[arm] += photons
        amps.append(amp)
    tally.pe1, tally.pe2 = pe
    weights = np.concatenate([*counts, np.ones(weak_weak, np.int64)])
    codes, raw_both, cancelled = readout.codes, readout.raw_both, readout.cancelled
    if weak_weak:
        a, b, c, d = comparator_arrays(amps[0], amps[1], params)
        weak_codes = event_codes(a, b, c, d)
        codes = np.concatenate([codes, weak_codes])
        raw_both = np.concatenate([raw_both, a & b])
        # both arms of a weak-weak gate fired
        cancelled = np.concatenate([cancelled, weak_codes == GateEvent.NO_EVENT])
    count_events(tally, codes, weights, int(weights[raw_both].sum()))
    tally.weak_coinc = int(weights[cancelled].sum())
    return tally


def simulate_block(
    config: AttackConfig, params: DetectorParams, rng: np.random.Generator
) -> GateTally:
    """Simulate ``config.n_pulses`` gates of the config's
    :func:`protocol_classes` in one vectorized block.

    One multinomial draw of the counts of the classes' :func:`arm_groups`
    has the law of a group drawn per gate (a one-group table draws no
    variate).  The gate kernel (:func:`detect_pair`) then runs once per
    group drawn, in group order, at the group's scalar arm means.  A
    group's gate outcomes are independent of their classes, so each of
    its outcome categories (``click1``, ``click2``, ``blind`` and the
    rest, exclusive on both readouts) splits over its classes by their
    shares: one multinomial per category, none for a one-class group.  The
    case-C classes' rows of the split make the case-C counters, and one
    :func:`sift_counts` call sifts the per-class clicks.
    """
    classes = protocol_classes(config.scenario)
    groups = arm_groups(config.scenario)
    counts = rng.multinomial(config.n_pulses, groups.weight)
    tally = GateTally()
    # per class: click1, click2, blind and the rest
    split = np.zeros((classes.weight.size, 4), dtype=np.int64)
    for g in np.flatnonzero(counts).tolist():
        lam1, lam2 = arm_means(config.resend_mu, params.qe, int(groups.delta[g]))
        part = detect_pair(lam1, lam2, int(counts[g]), config.detector, params, rng)
        tally += part
        outcomes = [part.click1, part.click2, part.blind, part.no_click - part.blind]
        members, share = groups.members[g], groups.share[g]
        # a draw per outcome gives the variates of one draw with the
        # outcomes as n, through numpy's faster scalar-n path
        split[members] = (
            outcomes
            if members.size == 1
            else np.array([rng.multinomial(count, share) for count in outcomes]).T
        )
    casec = split[classes.casec]
    tally.casec_click1, tally.casec_click2, tally.casec_blind, _ = casec.sum(0).tolist()
    tally.casec_gates = int(casec.sum())
    tally.sifted, tally.errors = sift_counts(classes.sift, classes.bit, split[:, 0], split[:, 1])
    return tally


@functools.lru_cache(maxsize=256)
def gate_work(
    mu: float, params: DetectorParams, scenario: Optional[Scenario], detector: DetectorKind
) -> float:
    """Expected per-gate entries a gate adds to its shard at flux ``mu``.

    A balanced block draws an amplitude per arm, and reads a row, only
    for its weak-weak gates: the sum over the scenario's
    :func:`arm_groups` of weight x P(WEAK) arm 1 x P(WEAK) arm 2.  A
    self-differencing shard's skeleton joins its weak gates among their
    slots (``rng.choice``, O(weak gates)): P(WEAK) at mu*qe.  The two-APD
    pair draws no per-gate array: 0.  Neither of those two reads the
    scenario, so ``scenario`` may be None there.  It is computed once
    per point, since the report reads it again.
    """
    if detector is DetectorKind.BASELINE_TWO_APD:
        return 0.0
    if detector is DetectorKind.SELF_DIFFERENCING:
        return float(arm_law(mu * params.qe, params.dcp_apd1, params).state[WEAK])
    groups = arm_groups(scenario)
    work = 0.0
    for delta, weight in zip(groups.delta.tolist(), groups.weight.tolist()):
        lam1, lam2 = arm_means(mu, params.qe, delta)
        weak1 = arm_law(lam1, params.dcp_apd1, params).state[WEAK]
        weak2 = arm_law(lam2, params.dcp_apd2, params).state[WEAK]
        work += weight * weak1 * weak2
    return work


def shard_size(
    mu: float, params: DetectorParams, scenario: Optional[Scenario], detector: DetectorKind
) -> int:
    """Gates per shard of a point: :data:`SHARD_WORK` over its
    :func:`gate_work`, within :data:`SHARD_GATES` and
    :data:`SHARD_GATES_MAX`.

    It reads only (flux, parameters, scenario, detector), so a point's
    result still depends only on (seed, flux, configuration).
    """
    work = gate_work(mu, params, scenario, detector)
    size = SHARD_WORK / work if work * SHARD_GATES_MAX > SHARD_WORK else SHARD_GATES_MAX
    return min(max(int(size), SHARD_GATES), SHARD_GATES_MAX)


def _run_sharded(
    n_gates: int,
    shard_gates: int,
    seed_seq: np.random.SeedSequence,
    block: Callable[[int, np.random.Generator], GateTally],
) -> GateTally:
    """Run ``block(gates, rng)`` over shards of ``shard_gates`` gates, the
    last one taking the remainder, in order, and merge the counters with
    ``+``.

    Shard ``i`` draws from the child ``seed_seq.spawn`` would give first
    (spawn key extended by ``i``), derived without spawning so that
    ``seed_seq`` is left unchanged.  The result thus depends only on the
    seed and the shard size, not on earlier uses of ``seed_seq``.  The
    gate-pipeline shards are independent and could run on any worker; a
    self-differencing shard starts its delay register from the previous
    shard's last gate level (its last weak amplitude, or the level of its
    last empty or railed gate), so those shards must run in order.
    Memory is bounded by one shard.
    """
    total = GateTally()
    for i in range(-(-n_gates // shard_gates)):
        size = min(shard_gates, n_gates - i * shard_gates)
        child = np.random.SeedSequence(
            seed_seq.entropy, spawn_key=(*seed_seq.spawn_key, i), pool_size=seed_seq.pool_size
        )
        # no shard's tally outlives its merge
        total += block(size, np.random.Generator(np.random.PCG64(child)))
    return total


def run_attack(
    config: AttackConfig, params: DetectorParams, seed_seq: np.random.SeedSequence
) -> GateTally:
    """Run the gate pipeline in :func:`shard_size` shards of :func:`simulate_block`."""
    check_poisson_mean(config.resend_mu, params)
    return _run_sharded(
        config.n_pulses,
        shard_size(config.resend_mu, params, config.scenario, config.detector),
        seed_seq,
        lambda n, rng: simulate_block(replace(config, n_pulses=n), params, rng),
    )


def run_fixed(
    send_phase: PhaseSymbol,
    bob_phase: PhaseSymbol,
    mu: float,
    n_gates: int,
    params: DetectorParams,
    seed_seq: np.random.SeedSequence,
) -> GateTally:
    """Run gates with both modulators pinned to fixed phases on the two-APD pair.

    This is table 1's calibration-style measurement: one phase difference,
    one flux, count the clicks.  The pinned difference gives each arm a
    fixed share w of the pulse, so every gate draws its arms as
    Poisson(mu*qe*w): the gate kernel (:func:`detect_pair`) at those
    means, in :func:`shard_size` shards.  No gate is sifted or case C.
    """
    n_gates = check_int(n_gates, "n_gates")
    if n_gates < 1:
        raise ConfigError(f"n_gates must be at least 1, got {n_gates}")
    mu = check_flux(mu, "mu")
    check_poisson_mean(mu, params)
    lam1, lam2 = arm_means(mu, params.qe, send_phase.minus(bob_phase).value)
    return _run_sharded(
        n_gates,
        shard_size(mu, params, None, DetectorKind.BASELINE_TWO_APD),
        seed_seq,
        lambda n, rng: detect_pair(lam1, lam2, n, DetectorKind.BASELINE_TWO_APD, params, rng),
    )


@dataclass(frozen=True)
class CaseRowResult:
    row: AttackCaseRow
    mu: float
    observed: float
    matched: bool


# Per-kind check fluxes: controlled rows at saturating flux, loss rows at
# single-photon flux, split rows in the linear regime.
CASE_A_MU = 500.0
CASE_B_MU = 1.0
CASE_C_MU = 0.1
CASE_A_GATES = 200_000
CASE_B_GATES = 200_000
CASE_C_GATES = 4_000_000
_CASE_RUNS = {
    CaseLabel.A: (CASE_A_MU, CASE_A_GATES),
    CaseLabel.B: (CASE_B_MU, CASE_B_GATES),
    CaseLabel.C: (CASE_C_MU, CASE_C_GATES),
}


def evaluate_case_row(
    row: AttackCaseRow,
    params: DetectorParams,
    seed_seq: np.random.SeedSequence,
    gates: Optional[int] = None,
) -> CaseRowResult:
    """Simulate one enumeration row and check it against its expectation.

    Case A: at mu=500 at least 99.9% of clicking gates land on the
    expected APD alone.  Case B: at mu=1 the no-click fraction matches
    exp(-mu*qe) within four binomial sigma.  Case C: at mu=0.1 each side
    takes 0.50 +/- 0.01 of the single clicks.
    """
    mu, default_gates = _CASE_RUNS[row.case_label]
    n = default_gates if gates is None else gates
    stats = run_fixed(row.evealice_phase, row.bob_phase, mu, n, params, seed_seq)

    if row.case_label is CaseLabel.A:
        on_apd1 = row.expected_outcome is ExpectedOutcome.DETERMINISTIC_1
        total = stats.click1 + stats.click2 + stats.doubles
        frac = (stats.click1 if on_apd1 else stats.click2) / total if total else 0.0
        return CaseRowResult(row, mu, frac, frac >= 0.999)
    if row.case_label is CaseLabel.B:
        p_none = math.exp(-mu * params.qe)
        frac = stats.no_click / stats.gates
        sigma = math.sqrt(p_none * (1.0 - p_none) / stats.gates)
        return CaseRowResult(row, mu, frac, abs(frac - p_none) <= 4.0 * sigma)
    singles = stats.click1 + stats.click2
    frac = stats.click1 / singles if singles else 0.0
    return CaseRowResult(row, mu, frac, abs(frac - 0.5) <= 0.01)
