"""Intercept-and-resend attack with detector blinding, and the honest twin.

The resender measures the sender's phase with her own receiver, then fires
a bright pulse carrying the guessed phase at the legitimate receiver.
When her guess basis matches the receiver's basis she controls the click;
when the bases differ the bright pulse splits between the arms and, on a
noise-cancelling detector, the simultaneous avalanches cancel and the
gate goes silent instead of producing the 50/50 error clicks that would
raise the sifted error rate.

A gate's fate depends only on its protocol class, so the engine draws a
shard's class counts and runs the gate kernel (:func:`detect_pair`) once
per class.  Within a class each arm of a gate is empty, weak (its
avalanche stays below the rail) or railed, independently of the other
arm, and a gate's readout is fixed by that pair of states unless an arm
is weak.  The kernel therefore draws the class's counts of the nine
(arm 1, arm 2) state cells and reads out only the gates with a weak arm,
plus one row per other cell weighted by its count: a block costs
O(classes + weak gates), not O(gates).  Shard results merge by plain
field-wise addition, making the aggregate independent of how shards are
grouped over workers.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np
from scipy import special

from .balanced import GateEvent, comparator_arrays, event_codes
from .errors import ConfigError
from .signal_model import RECEIVER_PHASES, DetectorParams, PhaseSymbol, weak_probabilities


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


@dataclass(frozen=True)
class AttackConfig:
    """One run of the gate pipeline.

    ``case_filter`` keeps the protocol classes of the case labels it
    names (see :func:`protocol_classes`).
    """

    n_pulses: int
    resend_mu: float
    scenario: Scenario = Scenario.ATTACK_CM
    detector: DetectorKind = DetectorKind.BALANCED_BNC
    case_filter: Optional[frozenset[str]] = None

    def __post_init__(self) -> None:
        if self.n_pulses <= 0:
            raise ConfigError("n_pulses must be positive")
        if not 0.0 <= self.resend_mu < math.inf:
            raise ConfigError("resend_mu must be finite and non-negative")
        if self.detector is DetectorKind.SELF_DIFFERENCING:
            raise ConfigError(
                "the self-differencing receiver is not wired into the gate "
                "pipeline; use the harness stream runner"
            )
        protocol_classes(self.scenario, self.case_filter)  # rejects a filter it cannot apply


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


def pinned_class(delta: int) -> GateClasses:
    """One class: every gate at phase difference ``delta``, nothing sifted."""
    return _class_table([(delta, False, False, 0)])


@functools.lru_cache(maxsize=None)
def protocol_classes(
    scenario: Scenario, case_filter: Optional[frozenset[str]] = None
) -> GateClasses:
    """The class table of a scenario, collapsed from its 32 equally likely
    protocol tuples (see :func:`_protocol_tuples`).

    ``case_filter`` keeps the tuples of the labels it names: C, or A and
    B, which share the matched-basis tuples (B is their detection-loss
    branch).  ``blinding_only`` is one
    class, conjugate-basis flux every gate, all case C, no key channel;
    it takes no filter.  A filter it cannot apply is a ConfigError.
    """
    if case_filter is not None and not case_filter <= set("ABC"):
        raise ConfigError(f"unknown case labels in filter: {sorted(case_filter - set('ABC'))}")
    if scenario is Scenario.BLINDING_ONLY:
        if case_filter is not None:
            raise ConfigError("blinding_only ignores case filters")
        return _class_table([(1, True, False, 0)])
    return _class_table([
        (send.minus(bob).value, casec, alice.basis == bob.basis, alice.bit)
        for alice, bob, _, _, send, casec in _protocol_tuples(scenario)
        if not case_filter or case_filter & set("C" if casec else "AB")
    ])


def sift_counts(sift, bit, click1, click2) -> tuple[int, int]:
    """Sifting reduction over classes (or single gates) and their clicks
    on APD 1 and 2: (kept gates, error gates).  A click is kept when the
    class sifts, and errs when the decoded bit (APD 1 -> 0, APD 2 -> 1)
    disagrees with the class's bit.
    """
    kept1 = np.where(sift, click1, 0)
    kept2 = np.where(sift, click2, 0)
    return int(kept1.sum() + kept2.sum()), int(np.where(bit, kept1, kept2).sum())


#: Gates per shard of :func:`run_attack` and :func:`run_fixed`.  Results
#: depend on it (each shard owns a generator), so sweeps record it.
SHARD_GATES = 1_000_000

#: numpy's largest Poisson mean: ``Generator.poisson`` raises above it.
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max))


def check_flux(mu: float, params: DetectorParams) -> None:
    """Reject a flux whose detected mean mu*qe numpy cannot draw, before any gate is drawn."""
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


def _below_rail(carriers: np.ndarray, u: np.ndarray, params: DetectorParams) -> np.ndarray:
    """Amplitudes gain_mean * gammaincinv(K, u) of weak avalanches of K
    carriers at uniforms u < P[K]; one that rounds up to the rail reads
    as railed."""
    return np.minimum(params.gain_mean * special.gammaincinv(carriers, u), params.t_strong)


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

    lam: float
    state: np.ndarray  # P(EMPTY), P(WEAK), P(RAILED)
    k: np.ndarray  # the window's signal counts
    weak: np.ndarray  # P(d, k, WEAK), row d = 0, 1, over the window
    railed: np.ndarray  # P(k, RAILED) over the window, both d pooled


@functools.lru_cache(maxsize=256)
def arm_law(lam: float, dcp: float, params: DetectorParams) -> ArmLaw:
    """The :class:`ArmLaw` of an arm at mean ``lam`` and dark probability ``dcp``."""
    spread = 12.0 * math.sqrt(lam) + 24.0
    lo, hi = max(0, math.floor(lam - spread)), math.ceil(lam + spread)
    p = weak_probabilities(hi + 1, params)
    if lo >= p.size - 1:
        rails = np.array([0.0, 0.0, 1.0])
        law = ArmLaw(lam, rails, np.zeros(0, np.int64), np.zeros((2, 0)), np.zeros(0))
    else:
        k = np.arange(lo, hi + 1)
        poisson = np.exp(special.xlogy(k, lam) - lam - special.gammaln(k + 1))
        # read P at min(k, len - 1); k = 0 without a dark ignition is empty, not weak
        p_k, p_dark = p.take(k, mode="clip"), p.take(k + 1, mode="clip")
        no_dark, dark = (1.0 - dcp) * poisson, dcp * poisson
        weak = np.stack([np.where(k > 0, no_dark * p_k, 0.0), dark * p_dark])
        railed = no_dark * (1.0 - p_k) + dark * (1.0 - p_dark)
        state = np.array([no_dark[0] if lo == 0 else 0.0, weak.sum(), railed.sum()])
        total = state.sum()
        law = ArmLaw(lam, state / total, k, weak / total, railed / total)
    for table in law[1:]:
        table.flags.writeable = False
    return law


def _signal_photons(law: ArmLaw, pmf: np.ndarray, n: int, rng: np.random.Generator) -> int:
    """Detected signal photons of ``n`` gates whose signal count k follows
    ``pmf`` (up to a factor) over ``law.k``: one histogram multinomial.

    Without a window every gate is railed and k ~ Poisson(lam), so the
    total is Poisson(n*lam), drawn in equal chunks no larger than
    :data:`POISSON_LAM_MAX` and summed as Python ints.
    """
    if not n:
        return 0
    if not law.k.size:
        chunks = int(n * law.lam // POISSON_LAM_MAX) + 1
        return sum(rng.poisson(n * law.lam / chunks, chunks).tolist())
    return int(rng.multinomial(n, pmf / pmf.sum()) @ law.k)


def _weak_gates(
    law: ArmLaw, m: int, params: DetectorParams, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Detected signal photons and amplitudes of ``m`` weak arms.

    Each arm draws its (d, k) from the weak law, independently of the
    others, then a Gamma(K) amplitude truncated below the rail, by
    inverse CDF at u ~ U(0, P[K]).
    """
    if not m:
        return 0, np.zeros(0)
    cell = rng.choice(law.weak.size, m, p=law.weak.ravel() / law.state[WEAK])
    d, i = np.divmod(cell, law.k.size)
    k = law.k[i]
    carriers = k + d
    u = weak_probabilities(int(carriers.max()), params)[carriers] * rng.random(m)
    return int(k.sum()), _below_rail(carriers, u, params)


def arm_levels(
    law: ArmLaw, state: np.ndarray, railed: int, params: DetectorParams, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Detected signal photons and railed levels of an arm's gates.

    ``state`` holds each gate's avalanche state under ``law``: an EMPTY
    gate reads 0, a RAILED one ``t_strong`` and a WEAK one its amplitude
    (:func:`_weak_gates`).  The photons are the weak gates' plus those of
    ``railed`` railed gates, which may outnumber the RAILED entries when
    an entry stands for several gates.
    """
    weak = np.flatnonzero(state == WEAK)
    photons, weak_amp = _weak_gates(law, weak.size, params, rng)
    levels = (state == RAILED) * params.t_strong
    levels[weak] = weak_amp
    return photons + _signal_photons(law, law.railed, railed, rng), levels


def count_events(
    tally: GateTally, codes: np.ndarray, both_raw: int = 0, weights: Optional[np.ndarray] = None
) -> GateTally:
    """Count a noise-cancelling monitor's :class:`GateEvent` codes into
    ``tally``, whose fired counters are set, and return it.

    Clicks are the strong and weak events of each difference polarity
    (comparator C or D), blinding flags the ``BLINDING_DETECTED`` events.
    A raw comparator fires only on a railed avalanche, and its word is a
    strong click or a blinding flag; ``both_raw`` counts the flagged gates
    where both raw comparators fired, two strong avalanches each (the
    self-differencing monitor has one raw comparator, so none).  Every
    other fired arm is weak.  ``weights``, when given, holds the number of
    gates each code stands for; by default each code is one gate.
    """
    events = np.bincount(codes, weights, minlength=len(GateEvent)).astype(np.int64).tolist()
    tally.click1 = events[GateEvent.STRONG_1] + events[GateEvent.WEAK_1]
    tally.click2 = events[GateEvent.STRONG_2] + events[GateEvent.WEAK_2]
    tally.blind = events[GateEvent.BLINDING_DETECTED]
    tally.strong = events[GateEvent.STRONG_1] + events[GateEvent.STRONG_2] + tally.blind + both_raw
    tally.weak = tally.fired1 + tally.fired2 - tally.strong
    return tally


#: State of each arm in the nine (arm 1, arm 2) cells of the balanced readout.
_CELL_STATES = np.divmod(np.arange(9), 3)


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
    weak.  Only the weak arms draw a (d, k) and an amplitude
    (:func:`arm_levels`), and :func:`~bncsim.balanced.comparator_arrays`
    reads one row per gate of a cell with a weak arm, plus one row per
    other cell weighted by the cell's count.  Its
    :func:`~bncsim.balanced.event_codes`, which also check every word for
    reachability, are counted by :func:`count_events`.  The case-C and
    sifting counters are left to the caller.
    """
    laws = arm_law(lam1, params.dcp_apd1, params), arm_law(lam2, params.dcp_apd2, params)
    balanced = detector is DetectorKind.BALANCED_BNC
    states = [law.state for law in laws]
    if not balanced:
        # the two-APD readout needs only EMPTY against fired (WEAK or RAILED)
        states = [np.array([s[EMPTY], 1.0 - s[EMPTY]]) for s in states]
    cells = rng.multinomial(n, np.outer(*states).ravel()).reshape(len(states[0]), -1)
    by_arm = cells.sum(1), cells.sum(0)
    tally = GateTally(gates=n, doubles=int(cells[1:, 1:].sum()))
    tally.fired1, tally.fired2 = (n - int(count[EMPTY]) for count in by_arm)
    if not balanced:
        tally.pe1, tally.pe2 = (
            _signal_photons(law, law.weak.sum(0) + law.railed, int(count[1]), rng)
            for law, count in zip(laws, by_arm)
        )
        tally.click1 = tally.fired1 - tally.doubles
        tally.click2 = tally.fired2 - tally.doubles
        return tally

    has_weak = (_CELL_STATES[0] == WEAK) | (_CELL_STATES[1] == WEAK)
    rows = np.where(has_weak, cells.ravel(), 1)
    weights = np.repeat(np.where(has_weak, 1, cells.ravel()), rows)
    row_states = [np.repeat(s, rows) for s in _CELL_STATES]
    (tally.pe1, amp1), (tally.pe2, amp2) = (
        arm_levels(law, state, int(count[RAILED]), params, rng)
        for law, state, count in zip(laws, row_states, by_arm)
    )
    a, b, c, d = comparator_arrays(amp1, amp2, params)
    codes = event_codes(a, b, c, d)
    count_events(tally, codes, int(weights[a & b].sum()), weights)
    both = (row_states[0] != EMPTY) & (row_states[1] != EMPTY)
    tally.weak_coinc = int(weights[both & (codes == GateEvent.NO_EVENT)].sum())
    return tally


def simulate_block(
    config: AttackConfig,
    params: DetectorParams,
    rng: np.random.Generator,
    classes: Optional[GateClasses] = None,
) -> GateTally:
    """Simulate ``config.n_pulses`` gates in one vectorized block.

    ``classes`` defaults to the config's :func:`protocol_classes`;
    :func:`run_fixed` passes a :func:`pinned_class`.  One multinomial
    draw of class counts has the law of a class drawn per gate (a
    one-class table draws no variate).  The gate kernel
    (:func:`detect_pair`) then runs once per class drawn, in class order,
    at the class's scalar arm means.  Case-C classes add their counts to
    the case-C counters, and one :func:`sift_counts` call sifts the
    per-class clicks.
    """
    if classes is None:
        classes = protocol_classes(config.scenario, config.case_filter)
    counts = rng.multinomial(config.n_pulses, classes.weight)
    tally = GateTally()
    clicks = np.zeros((2, counts.size), dtype=np.int64)
    for j in np.flatnonzero(counts).tolist():
        lam1, lam2 = arm_means(config.resend_mu, params.qe, int(classes.delta[j]))
        part = detect_pair(lam1, lam2, int(counts[j]), config.detector, params, rng)
        clicks[:, j] = part.click1, part.click2
        if classes.casec[j]:
            part.casec_gates, part.casec_click1 = part.gates, part.click1
            part.casec_click2, part.casec_blind = part.click2, part.blind
        tally += part
    tally.sifted, tally.errors = sift_counts(classes.sift, classes.bit, clicks[0], clicks[1])
    return tally


def _run_sharded(
    n_gates: int,
    seed_seq: np.random.SeedSequence,
    shard_gates: int,
    block: Callable[[int, np.random.Generator], GateTally],
) -> GateTally:
    """Run ``block(gates, rng)`` over shards, in order, and merge the
    counters with ``+``.

    Shard ``i`` draws from the child ``seed_seq.spawn`` would give first
    (spawn key extended by ``i``), derived without spawning so that
    ``seed_seq`` is left unchanged.  The result thus depends only on the
    seed and the shard size, not on earlier uses of ``seed_seq``.  The
    gate-pipeline shards are independent and could run on any worker; a
    self-differencing shard starts its delay register from the previous
    shard's last amplitude, so those shards must run in order.  Memory is
    bounded by one shard.
    """
    if shard_gates <= 0:
        raise ConfigError("shard_gates must be positive")
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
    config: AttackConfig,
    params: DetectorParams,
    seed_seq: np.random.SeedSequence,
    classes: Optional[GateClasses] = None,
) -> GateTally:
    """Run the gate pipeline in shards of :func:`simulate_block`."""
    check_flux(config.resend_mu, params)
    return _run_sharded(
        config.n_pulses,
        seed_seq,
        SHARD_GATES,
        lambda n, rng: simulate_block(replace(config, n_pulses=n), params, rng, classes),
    )


def run_fixed(
    send_phase: PhaseSymbol,
    bob_phase: PhaseSymbol,
    mu: float,
    n_gates: int,
    params: DetectorParams,
    seed_seq: np.random.SeedSequence,
    detector: DetectorKind = DetectorKind.BASELINE_TWO_APD,
) -> GateTally:
    """Run gates with both modulators pinned to fixed phases.

    This is the calibration-style measurement: one configuration, one
    flux, count what each readout reports.  The pinned phase difference
    gives each arm a fixed share w of the pulse, so every gate draws its
    arms as Poisson(mu*qe*w): :func:`run_attack` with one pinned class.
    """
    config = AttackConfig(n_pulses=n_gates, resend_mu=mu, detector=detector)
    return run_attack(config, params, seed_seq, pinned_class(send_phase.minus(bob_phase).value))


@dataclass(frozen=True)
class CaseRowResult:
    row: AttackCaseRow
    mu: float
    gates: int
    observed: float
    expected: str
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
        return CaseRowResult(row, mu, n, frac, "single-sided fraction >= 0.999", frac >= 0.999)
    if row.case_label is CaseLabel.B:
        p_none = math.exp(-mu * params.qe)
        frac = stats.no_click / stats.gates
        sigma = math.sqrt(p_none * (1.0 - p_none) / stats.gates)
        expected = f"no-click fraction {p_none:.4f} +/- 4 sigma"
        return CaseRowResult(row, mu, n, frac, expected, abs(frac - p_none) <= 4.0 * sigma)
    singles = stats.click1 + stats.click2
    frac = stats.click1 / singles if singles else 0.0
    return CaseRowResult(
        row, mu, n, frac, "APD1 share of singles in 0.50 +/- 0.01", abs(frac - 0.5) <= 0.01
    )
