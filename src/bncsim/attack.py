"""Intercept-and-resend attack with detector blinding, and the honest twin.

The resender measures the sender's phase with her own receiver, then fires
a bright pulse carrying the guessed phase at the legitimate receiver.
When her guess basis matches the receiver's basis she controls the click;
when the bases differ the bright pulse splits between the arms and, on a
noise-cancelling detector, the simultaneous avalanches cancel and the
gate goes silent instead of producing the 50/50 error clicks that would
raise the sifted error rate.

The per-gate pipeline is embarrassingly parallel, so the engine runs on
numpy arrays in shards; shard results merge by plain field-wise addition,
making the aggregate independent of how shards are grouped over workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy import special

from .balanced import comparator_arrays, event_codes
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


@dataclass(frozen=True)
class AttackCaseRow:
    """One row of the sifting-case enumeration."""

    alice_phase: PhaseSymbol
    evebob_basis: int
    eve_apd: int
    evealice_phase: PhaseSymbol
    bob_phase: PhaseSymbol
    expected_outcome: ExpectedOutcome
    case_label: CaseLabel


def enumerate_cases() -> list[AttackCaseRow]:
    """All 16 sifting-relevant combinations of sender phase, guess basis,
    and receiver basis.

    The receiver's basis is pinned to the sender's (other combinations
    are discarded in sifting).  Matched guess bases contribute a
    controlled row (case A) and its detection-loss twin (case B);
    mismatched bases contribute one 50/50 row per resender click, giving
    eight case-C rows.
    """
    rows: list[AttackCaseRow] = []
    for alice in PhaseSymbol:
        bob = RECEIVER_PHASES[alice.basis]
        for eve_basis in (0, 1):
            if alice.basis == eve_basis:
                outcome = (
                    ExpectedOutcome.DETERMINISTIC_1
                    if alice.minus(bob) == PhaseSymbol.ZERO
                    else ExpectedOutcome.DETERMINISTIC_2
                )
                for label in (CaseLabel.A, CaseLabel.B):
                    rows.append(
                        AttackCaseRow(
                            alice_phase=alice,
                            evebob_basis=eve_basis,
                            eve_apd=1 + alice.bit,
                            evealice_phase=alice,
                            bob_phase=bob,
                            expected_outcome=outcome,
                            case_label=label,
                        )
                    )
            else:
                for coin in (0, 1):
                    rows.append(
                        AttackCaseRow(
                            alice_phase=alice,
                            evebob_basis=eve_basis,
                            eve_apd=1 + coin,
                            evealice_phase=PhaseSymbol(eve_basis + 2 * coin),
                            bob_phase=bob,
                            expected_outcome=ExpectedOutcome.SPLIT_50,
                            case_label=CaseLabel.C,
                        )
                    )
    return rows


@dataclass
class GateTally:
    """Aggregate counters of one run (or one shard); merge with ``+``."""

    gates: int = 0
    pe1: int = 0  # detected signal photons per arm
    pe2: int = 0
    fired1: int = 0  # gates whose arm avalanched (photon or dark)
    fired2: int = 0
    dark1: int = 0
    dark2: int = 0
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
    casec_click1: int = 0
    casec_click2: int = 0
    casec_blind: int = 0
    sifted: int = 0
    errors: int = 0

    def __add__(self, other: "GateTally") -> "GateTally":
        return GateTally(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )

    @property
    def no_click(self) -> int:
        """Gates without a readout click; each readout clicks at most one arm."""
        return self.gates - self.click1 - self.click2

    @property
    def qber(self) -> float:
        return self.errors / self.sifted if self.sifted else math.nan


@dataclass(frozen=True)
class AttackConfig:
    """One run of the gate pipeline.

    ``case_filter`` conditions the guess-basis draw: ``{"C"}`` forces a
    basis mismatch every gate, ``{"A"}``/``{"B"}``/``{"A","B"}`` force a
    match (A and B share configurations; B is the detection-loss branch).
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
        if self.case_filter is not None:
            bad = set(self.case_filter) - {"A", "B", "C"}
            if bad:
                raise ConfigError(f"unknown case labels in filter: {sorted(bad)}")
            if self.scenario is Scenario.BLINDING_ONLY:
                raise ConfigError("blinding_only ignores case filters")


def _forced_mismatch(case_filter: Optional[frozenset[str]]) -> Optional[bool]:
    """None: unconstrained; True: force basis mismatch; False: force match."""
    if not case_filter:
        return None
    has_c = "C" in case_filter
    has_ab = bool(set(case_filter) & {"A", "B"})
    if has_c and has_ab:
        return None
    return has_c


def sift_counts(
    alice_basis: np.ndarray,
    alice_bit: np.ndarray,
    bob_basis: np.ndarray,
    click1: np.ndarray,
    click2: np.ndarray,
) -> tuple[int, int]:
    """Array-level sifting reduction: (kept gates, error gates).

    Same contract as building per-gate records and scoring them: a gate is
    kept when the bases agree and it clicked, and errs when the decoded
    bit (APD 1 -> 0, APD 2 -> 1) disagrees with the sender's bit.
    """
    kept = (alice_basis == bob_basis) & (click1 | click2)
    errors = kept & (click2.astype(np.int64) != alice_bit)
    return int(kept.sum()), int(errors.sum())


#: Gates per shard of :func:`run_attack` and :func:`run_fixed`.  Results
#: depend on it (each shard owns a generator), so sweeps record it.
SHARD_GATES = 1_000_000

#: numpy's largest Poisson mean: ``Generator.poisson`` raises above it.
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max))

#: Share w of the pulse that reaches APD 1 (row 0) and APD 2 (row 1), by
#: phase difference between the pulse and the receiver's modulator in
#: quarter turns: 0 routes all of it to APD 1, pi to APD 2, and the two
#: conjugate-basis differences split it evenly.
ARM_WEIGHTS = np.array([[1.0, 0.5, 0.0, 0.5], [0.0, 0.5, 1.0, 0.5]])


def arm_means(mu: float, qe: float, delta_q):
    """Mean detected signal carriers per gate on APD 1 and APD 2, mu*qe*w.

    ``delta_q`` is one phase difference or an array of them, one per gate.
    """
    scaled = mu * qe * ARM_WEIGHTS
    return np.take(scaled[0], delta_q), np.take(scaled[1], delta_q)


class Arm(NamedTuple):
    """One APD's draws over a block of gates."""

    k: np.ndarray  # avalanche carriers per gate: detected photons plus dark ignition
    pe: int  # detected signal photoelectrons, summed over the block
    dark: int  # gates with a dark ignition


#: Largest mean at which :func:`detect_arm` draws carriers sparsely.  Near
#: 1 the sparse draw with per-gate thinning costs as much as one Poisson
#: variate per gate (scalar means break even near 4).  Results depend on
#: it, since the two paths consume the generator differently.
SPARSE_LAM_MAX = 1.0


def detect_arm(lam, n: int, dcp: float, rng: np.random.Generator) -> Arm:
    """The gate kernel: draw one APD's avalanche carriers over ``n`` gates.

    ``lam`` is the arm's mean detected signal carriers per gate (see
    :func:`arm_means`), one value or one per gate.  Drawing the detected
    count directly as Poisson(lam) is exact, not an approximation: a
    Poisson(mu) pulse whose photons are routed independently to an arm
    with probability w and then detected with probability qe gives each
    arm an independent Poisson(mu*qe*w) count.  One draw per arm thus
    replaces the photon number, the interference split and the two
    quantum-efficiency thinnings.

    At low means the draw costs O(carriers), not O(gates).  When
    lam_max = max(lam) is at most :data:`SPARSE_LAM_MAX`, the block's
    carrier total is drawn as Poisson(n*lam_max) and scattered over
    uniform gate positions, which gives every gate an independent
    Poisson(lam_max) count.  With per-gate means each carrier is then kept
    with probability lam/lam_max at its gate; independent thinning leaves
    independent Poisson(lam) counts.  Above the threshold every gate draws
    its own Poisson variate.

    A dark ignition adds one carrier with probability ``dcp`` per gate.
    The dark gates are drawn as a Binomial(n, dcp) count of distinct,
    uniformly chosen positions, which has the law of ``n`` independent
    Bernoulli(dcp) gates.
    """
    lam_max = float(np.max(lam))
    if lam_max <= SPARSE_LAM_MAX:
        pos = rng.integers(0, n, rng.poisson(n * lam_max))
        if np.ndim(lam):
            pos = pos[rng.random(pos.size) < np.take(lam, pos) / lam_max]
        k = np.bincount(pos, minlength=n)
        pe = pos.size
    else:
        k = rng.poisson(lam, n)
        pe = int(k.sum())
    dark = rng.choice(n, rng.binomial(n, dcp), replace=False, shuffle=False)
    k[dark] += 1
    return Arm(k, pe, dark.size)


def railed_amplitudes(
    k: np.ndarray, params: DetectorParams, rng: np.random.Generator
) -> np.ndarray:
    """Railed avalanche amplitude per entry: min(gain_mean * Gamma(k), t_strong).

    The front end rails at ``t_strong``, so this is all any comparator
    reads.  Each entry with ``k > 0`` draws one uniform u and inverts the
    Gamma(k) CDF: the avalanche stays below the rail iff u < P[k] (see
    :func:`~bncsim.signal_model.weak_probabilities`), and then has
    amplitude gain_mean * gammaincinv(k, u).  This is the exact inverse
    CDF, and the amplitude itself is computed only for the weak entries.
    A weak draw that rounds up to the rail reads as railed.  Entries with
    ``k = 0`` are 0 and draw nothing.
    """
    amp = np.zeros(np.shape(k))
    fired = np.flatnonzero(k)
    if not fired.size:
        return amp
    kf = k[fired]
    u = rng.random(fired.size)
    # the table may stop before kf.max(); its last entry, 0, covers the rest
    weak = u < weak_probabilities(int(kf.max()), params).take(kf, mode="clip")
    amp[fired] = params.t_strong
    x = special.gammaincinv(kf[weak], u[weak])
    amp[fired[weak]] = np.minimum(params.gain_mean * x, params.t_strong)
    return amp


class PairReadout(NamedTuple):
    """Both arms of a two-APD receiver over a block, through its readout.

    Every array is gathered at ``idx``, the gates where either arm fired;
    every other gate is ``NO_EVENT`` on both readouts.
    """

    arm1: Arm
    arm2: Arm
    idx: np.ndarray
    fired1: np.ndarray
    fired2: np.ndarray
    click1: np.ndarray  # the readout's click on APD 1 (bit 0)
    click2: np.ndarray
    raw1: Optional[np.ndarray]  # monitor comparators A/B, balanced receiver only
    raw2: Optional[np.ndarray]


def detect_pair(
    lam1,
    lam2,
    n: int,
    detector: DetectorKind,
    params: DetectorParams,
    rng: np.random.Generator,
) -> PairReadout:
    """Draw both arms and read out the gates where either fired.

    A gate where neither arm fired has no avalanche, hence no click and
    no comparator bit, on either readout; it adds to the gate count only.
    The readout therefore runs on the fired gates alone.  The two-APD
    readout clicks on an arm that fired alone.  The balanced readout
    clicks on the difference comparators C/D and adds the raw comparators
    A/B; every comparator word is checked for reachability.
    """
    arm1 = detect_arm(lam1, n, params.dcp_apd1, rng)
    arm2 = detect_arm(lam2, n, params.dcp_apd2, rng)
    idx = np.flatnonzero((arm1.k > 0) | (arm2.k > 0))
    k1, k2 = arm1.k[idx], arm2.k[idx]
    fired1 = k1 > 0
    fired2 = k2 > 0
    if detector is DetectorKind.BASELINE_TWO_APD:
        return PairReadout(
            arm1, arm2, idx, fired1, fired2, fired1 & ~fired2, fired2 & ~fired1, None, None
        )
    amp1 = railed_amplitudes(k1, params, rng)
    amp2 = railed_amplitudes(k2, params, rng)
    a, b, c, d = comparator_arrays(amp1, amp2, params)
    event_codes(a, b, c, d)  # raises on any unreachable word
    return PairReadout(arm1, arm2, idx, fired1, fired2, c, d, a, b)


def _count_readout(
    gates: PairReadout, n: int, casec: Optional[np.ndarray] = None
) -> GateTally:
    """Count one block of ``n`` gates from its fired-gate readout:
    detections, clicks and doubles on both receivers; blinding flags and
    the amplitude census on the balanced one.

    ``casec`` marks, over all ``n`` gates, those whose guess basis
    differs from the receiver's; the balanced receiver's clicks and flags
    on them are also counted apart.
    """
    fired1, fired2 = gates.fired1, gates.fired2
    both = fired1 & fired2
    tally = GateTally(
        gates=n,
        pe1=gates.arm1.pe,
        pe2=gates.arm2.pe,
        fired1=int(fired1.sum()),
        fired2=int(fired2.sum()),
        dark1=gates.arm1.dark,
        dark2=gates.arm2.dark,
        click1=int(gates.click1.sum()),
        click2=int(gates.click2.sum()),
        doubles=int(both.sum()),
    )
    if casec is not None:
        tally.casec_gates = int(casec.sum())
        casec = casec[gates.idx]
    if gates.raw1 is None:
        return tally
    a, b, c, d = gates.raw1, gates.raw2, gates.click1, gates.click2
    raw = a | b
    silent = ~(c | d)
    blind = raw & silent
    tally.blind = int(blind.sum())
    tally.weak = int((fired1 & ~a).sum() + (fired2 & ~b).sum())
    tally.strong = int(a.sum() + b.sum())
    tally.weak_coinc = int((both & silent & ~raw).sum())
    if casec is not None:
        tally.casec_click1 = int((c & casec).sum())
        tally.casec_click2 = int((d & casec).sum())
        tally.casec_blind = int((blind & casec).sum())
    return tally


def simulate_block(
    config: AttackConfig, params: DetectorParams, rng: np.random.Generator
) -> GateTally:
    """Simulate ``config.n_pulses`` gates in one vectorized block.

    The protocol draws (bases, bits, the resender's guesses) fix each
    gate's phase difference at the receiver, and with it the share w of
    the pulse on each arm.  The gate kernel then draws each arm's
    detected carriers as an independent Poisson(mu*qe*w) count
    (:func:`detect_arm`), which is exact for a Poisson pulse split by
    interference and thinned by the quantum efficiency.
    """
    n = config.n_pulses
    scenario = config.scenario

    if scenario is Scenario.BLINDING_ONLY:
        # pure blinding characterization: conjugate-basis flux every gate
        delta_q = 1
        eve_mismatch = np.ones(n, dtype=bool)
    else:
        mismatch = _forced_mismatch(config.case_filter)
        bob_basis = rng.integers(0, 2, n, dtype=np.int8)
        alice_bit = rng.integers(0, 2, n, dtype=np.int8)
        if scenario is Scenario.HONEST:
            if mismatch is None:
                alice_basis = rng.integers(0, 2, n, dtype=np.int8)
            else:
                alice_basis = bob_basis ^ 1 if mismatch else bob_basis.copy()
            send_q = alice_basis + 2 * alice_bit
            eve_mismatch = alice_basis != bob_basis
        else:
            alice_basis = rng.integers(0, 2, n, dtype=np.int8)
            if mismatch is None:
                eve_basis = rng.integers(0, 2, n, dtype=np.int8)
            else:
                eve_basis = bob_basis ^ 1 if mismatch else bob_basis.copy()
            alice_q = alice_basis + 2 * alice_bit
            coin = rng.integers(0, 2, n, dtype=np.int8)
            same = alice_basis == eve_basis
            send_q = np.where(same, alice_q, eve_basis + 2 * coin)
            eve_mismatch = eve_basis != bob_basis
        delta_q = (send_q - bob_basis) & 3  # mod 4, also for negative differences

    lam1, lam2 = arm_means(config.resend_mu, params.qe, delta_q)
    gates = detect_pair(lam1, lam2, n, config.detector, params, rng)
    tally = _count_readout(gates, n, eve_mismatch)
    if scenario is not Scenario.BLINDING_ONLY:
        # only a fired gate can click, so only fired gates can sift
        idx = gates.idx
        tally.sifted, tally.errors = sift_counts(
            alice_basis[idx], alice_bit[idx], bob_basis[idx], gates.click1, gates.click2
        )
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
    total = None
    for i in range(-(-n_gates // shard_gates)):
        size = min(shard_gates, n_gates - i * shard_gates)
        child = np.random.SeedSequence(
            seed_seq.entropy, spawn_key=(*seed_seq.spawn_key, i), pool_size=seed_seq.pool_size
        )
        part = block(size, np.random.Generator(np.random.PCG64(child)))
        total = part if total is None else total + part
    return total


def run_attack(
    config: AttackConfig, params: DetectorParams, seed_seq: np.random.SeedSequence
) -> GateTally:
    """Run the gate pipeline in shards of :func:`simulate_block`."""
    return _run_sharded(
        config.n_pulses,
        seed_seq,
        SHARD_GATES,
        lambda n, rng: simulate_block(replace(config, n_pulses=n), params, rng),
    )


def fixed_block(
    send_phase: PhaseSymbol,
    bob_phase: PhaseSymbol,
    mu: float,
    n_gates: int,
    params: DetectorParams,
    rng: np.random.Generator,
    detector: DetectorKind = DetectorKind.BASELINE_TWO_APD,
) -> GateTally:
    """One shard of :func:`run_fixed`: the gate kernel at scalar arm means."""
    lam1, lam2 = arm_means(mu, params.qe, send_phase.minus(bob_phase).value)
    return _count_readout(detect_pair(lam1, lam2, n_gates, detector, params, rng), n_gates)


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
    arms as Poisson(mu*qe*w) through the same kernel and shard loop as
    :func:`run_attack`.
    """
    if n_gates <= 0:
        raise ConfigError("n_gates must be positive")
    if detector is DetectorKind.SELF_DIFFERENCING:
        raise ConfigError("fixed-phase runner supports the two-arm receivers only")
    return _run_sharded(
        n_gates,
        seed_seq,
        SHARD_GATES,
        lambda n, rng: fixed_block(send_phase, bob_phase, mu, n, params, rng, detector),
    )


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
    if row.case_label is CaseLabel.A:
        mu, n = CASE_A_MU, gates or CASE_A_GATES
    elif row.case_label is CaseLabel.B:
        mu, n = CASE_B_MU, gates or CASE_B_GATES
    else:
        mu, n = CASE_C_MU, gates or CASE_C_GATES
    stats = run_fixed(row.evealice_phase, row.bob_phase, mu, n, params, seed_seq)

    if row.case_label is CaseLabel.A:
        expected_clicks = (
            stats.click1
            if row.expected_outcome is ExpectedOutcome.DETERMINISTIC_1
            else stats.click2
        )
        total = stats.click1 + stats.click2 + stats.doubles
        frac = expected_clicks / total if total else 0.0
        return CaseRowResult(
            row, mu, n, frac, "single-sided fraction >= 0.999", frac >= 0.999
        )
    if row.case_label is CaseLabel.B:
        p_none = math.exp(-mu * params.qe)
        frac = stats.no_click / stats.gates
        sigma = math.sqrt(p_none * (1.0 - p_none) / stats.gates)
        ok = abs(frac - p_none) <= 4.0 * sigma
        return CaseRowResult(
            row, mu, n, frac, f"no-click fraction {p_none:.4f} +/- 4 sigma", ok
        )
    singles = stats.click1 + stats.click2
    frac = stats.click1 / singles if singles else 0.0
    return CaseRowResult(
        row, mu, n, frac, "APD1 share of singles in 0.50 +/- 0.01", abs(frac - 0.5) <= 0.01
    )
