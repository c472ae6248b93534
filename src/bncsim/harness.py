"""Sweep runner and report machinery.

A sweep runs one scenario over a flux grid and emits a delimited table
with one row per flux point, Monte Carlo columns next to the analytic
oracle columns, plus a manifest recording the resolved configuration
exactly, its digest and a digest of the table.  Identical seed and
configuration give byte-identical files.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import platform
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .analytics import (
    LINEAR_REGIME_MAX,
    attack_qber,
    click_probabilities,
    ideal_click_rate_diff_phase,
    ideal_click_rate_same_phase,
    oracle_cm_success,
)
from .attack import (
    AttackConfig,
    DetectorKind,
    GateTally,
    Scenario,
    _run_sharded,
    _signal_photons,
    _weak_gates,
    _weak_sides,
    arm_groups,
    arm_law,
    bin_levels,
    check_enum,
    check_flux,
    check_int,
    check_poisson_mean,
    count_events,
    run_attack,
    shard_size,
    side_cuts,
)
from .errors import ConfigError, MissingFluxPoint
from .selfdiff import sd_event_codes
from .signal_model import DetectorParams

DEFAULT_FLUX_GRID: tuple[float, ...] = tuple(
    float(x) for x in np.geomspace(0.1, 500.0, 13)
)
#: Flux points the landmark checks need.
LANDMARK_FLUX_GRID: tuple[float, ...] = (0.1, 1.0, 10.0, 30.0, 100.0, 500.0)


@dataclass(frozen=True)
class SweepSpec:
    """Configuration of one sweep."""

    flux_grid: tuple[float, ...]
    n_gates_per_point: int
    scenario: Scenario = Scenario.ATTACK_CM
    detector: DetectorKind = DetectorKind.BALANCED_BNC
    seed: int = 0

    def __post_init__(self) -> None:
        try:
            fluxes = iter(self.flux_grid)
        except TypeError:
            fluxes = iter(())
        # + 0.0 turns -0.0 into 0.0, so equal fluxes share one seed
        grid = tuple(check_flux(x, "flux") + 0.0 for x in fluxes)
        if not grid:
            raise ConfigError(f"flux grid must list at least one flux, got {self.flux_grid!r}")
        object.__setattr__(self, "flux_grid", grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("flux grid must be strictly increasing")
        for name in ("n_gates_per_point", "seed"):
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        object.__setattr__(self, "scenario", check_enum(Scenario, self.scenario, "scenario"))
        object.__setattr__(self, "detector", check_enum(DetectorKind, self.detector, "detector"))
        if self.n_gates_per_point < 10_000:
            raise ConfigError("n_gates_per_point must be at least 10000")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        detector, scenario = self.detector, self.scenario
        if detector is DetectorKind.SELF_DIFFERENCING and scenario is not Scenario.BLINDING_ONLY:
            raise ConfigError(
                "the self-differencing receiver never reads the protocol: its one "
                "scenario is blinding_only (honest would write the same report)"
            )
        if detector is DetectorKind.BASELINE_TWO_APD and scenario is Scenario.ATTACK_CM:
            raise ConfigError(
                "the two-APD pair has no monitor, so attack_cm writes the same "
                "report as attack_no_cm; use attack_no_cm"
            )


@dataclass
class ReportRow:
    flux: float
    gates: int
    apd1_rate: float
    apd2_rate: float
    diff1_rate: float
    diff2_rate: float
    weak_ratio: float
    strong_ratio: float
    cm_rate: float
    qber: float
    cm_success: float
    casec_diff1_rate: float
    casec_diff2_rate: float
    casec_cm_frac: float
    weak_coinc_rate: float
    oracle_rate_same_phase: float
    oracle_rate_diff_phase: float
    oracle_qber: float
    oracle_cm_success: float
    oracle_regime: str


#: Report header: the fields of :class:`ReportRow`, in order.
REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


@dataclass
class RunReport:
    spec: SweepSpec
    params: DetectorParams
    rows: list[ReportRow] = field(default_factory=list)


def _fmt(value: float | int | str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "nan"
    return f"{value:.10g}"


def _ratio(num: float, den: float) -> float:
    return num / den if den else math.nan


def _oracle_columns(
    mu: float, params: DetectorParams, split_share: float
) -> tuple[float, float, float, float, str]:
    same = ideal_click_rate_same_phase(mu, params.qe, params.f_gate)
    diff = ideal_click_rate_diff_phase(mu, params.qe, params.f_gate)
    probs = click_probabilities(mu, params.qe)
    qber = attack_qber(probs.p1, probs.p_s) if (probs.p1 + probs.p_s) > 0 else math.nan
    cm = oracle_cm_success(mu, params, split_share) if mu * params.qe > 0 else math.nan
    regime = "ok" if mu * params.qe <= LINEAR_REGIME_MAX else "extrapolated"
    return same, diff, qber, cm, regime


def _split_share(spec: SweepSpec) -> float:
    """Share of a sweep's gates whose flux splits evenly between two arms:
    the weight of the engine's even-split arm group.  The
    self-differencing APD sees every pulse whole."""
    if spec.detector is DetectorKind.SELF_DIFFERENCING:
        return 0.0
    groups = arm_groups(spec.scenario)
    return float(groups.weight[groups.even_split].sum())


def _row_from_tally(
    mu: float, tally: GateTally, spec: SweepSpec, params: DetectorParams
) -> ReportRow:
    f = params.f_gate
    per_gate = lambda count: count / tally.gates * f  # noqa: E731
    has_monitor = spec.detector is not DetectorKind.BASELINE_TWO_APD
    # the self-differencing receiver has one APD and no guess basis to
    # split its gates by
    two_arms = spec.detector is not DetectorKind.SELF_DIFFERENCING
    pair_monitor = has_monitor and two_arms
    cm_on = has_monitor and spec.scenario is not Scenario.ATTACK_NO_CM
    avalanches = tally.weak + tally.strong
    same, diff, oq, ocm, regime = _oracle_columns(mu, params, _split_share(spec))
    return ReportRow(
        flux=mu,
        gates=tally.gates,
        apd1_rate=per_gate(tally.fired1),
        apd2_rate=per_gate(tally.fired2) if two_arms else math.nan,
        diff1_rate=per_gate(tally.click1) if has_monitor else math.nan,
        diff2_rate=per_gate(tally.click2) if has_monitor else math.nan,
        weak_ratio=_ratio(tally.weak, avalanches) if has_monitor else math.nan,
        strong_ratio=_ratio(tally.strong, avalanches) if has_monitor else math.nan,
        cm_rate=per_gate(tally.blind) if cm_on else math.nan,
        qber=tally.qber,
        cm_success=(
            100.0 * _ratio(tally.strong, avalanches) if cm_on else math.nan
        ),
        casec_diff1_rate=per_gate(tally.casec_click1) if pair_monitor else math.nan,
        casec_diff2_rate=per_gate(tally.casec_click2) if pair_monitor else math.nan,
        casec_cm_frac=(
            _ratio(tally.casec_blind, tally.casec_gates) if cm_on and two_arms else math.nan
        ),
        weak_coinc_rate=per_gate(tally.weak_coinc) if pair_monitor else math.nan,
        oracle_rate_same_phase=same,
        oracle_rate_diff_phase=diff,
        oracle_qber=oq,
        oracle_cm_success=ocm,
        oracle_regime=regime,
    )


def _run_law(length: int, q: float, rng: np.random.Generator) -> tuple[int, int, int, int]:
    """Draw a run of ``length`` i.i.d. gates, each EMPTY with probability
    ``q`` and RAILED otherwise, without drawing its gates.

    Returns its EMPTY count m ~ Binomial(L, q), its number r of runs of
    EMPTY gates, and whether it starts and whether it ends RAILED (0 or
    1); an empty run has m = r = 0 and neither end RAILED.  Given m, the
    arrangements are equally likely, so r has the runs law (Mood, "The
    distribution theory of runs", *Ann. Math. Statist.* 11, 1940): r - 1
    ~ Hypergeometric(m - 1, s + 1, s) for the s = L - m RAILED gates,
    drawn only where m >= 2 and s >= 1 (else r is min(m, 1)).  The RAILED
    gates then form r - 1 + a + b runs, where a and b say whether the run
    starts and ends RAILED, in C(s - 1, r - 2 + a + b) ways each; (a, b)
    takes one uniform over those weights, scaled to integers that vanish
    where a case cannot occur, and compared with them as float64.
    """
    m = rng.binomial(length, q)
    s = length - m
    r = min(m, 1)
    if m >= 2 and s >= 1:
        r += rng.hypergeometric(m - 1, s + 1, s)
    # C(s - 1, r - 2 + a + b) times r (r - 1) / C(s - 1, r - 2)
    both = (s - r + 1) * (s - r)
    one = r * (s - r + 1)
    none = r * (r - 1)
    x = rng.random() * float(both + 2 * one + none)
    first = x < float(both + one)
    last = x < float(both) or float(both + one) <= x < float(both + 2 * one)
    return m, r, int(first), int(last)


def _pair_totals(length: int, m: int, r: int, first: int, last: int) -> list[list[int]]:
    """Counts of adjacent (gate, successor) pairs in states (p, c), 0
    EMPTY and 1 RAILED, of one run drawn by :func:`_run_law`:
    [[EE, ER], [RE, RR]].

    A run of m EMPTY gates in r runs has m - r EE pairs.  Each of its
    EMPTY runs is followed by a RAILED gate unless it ends the run, which
    gives r - 1 + b ER pairs (b = 1 when the run ends RAILED), and each
    of its r - 1 + a + b RAILED runs by an EMPTY gate unless it ends the
    run: r - 1 + a RE pairs.  The rest of its L - 1 pairs are RR.  An
    empty run has none.
    """
    filled = int(length > 0)
    ee = m - r
    er = r - filled + last
    re = r - filled + first
    return [[ee, er], [re, length - filled - ee - er - re]]


class SdSkeleton(NamedTuple):
    """Structure of a self-differencing shard: its gates' states without
    their positions, and the weak amplitudes that need drawing.

    The non-weak (EMPTY or RAILED) gates in order, with the weak gates
    taken out, form the contracted sequence; its first and last gates
    have levels ``first`` and ``last`` (0 EMPTY, 1 RAILED).  The shard
    starts with ``head`` weak gates (all of them when no gate is
    non-weak) and ends with ``tail`` more after the last non-weak gate.
    Each other run of weak gates breaks an adjacent (x, y) pair of the
    contracted sequence, by type in the order EE, ER, RE, RR: ``lone``
    counts the one-gate runs of each type, and the longer runs have
    sizes ``runs`` and types ``run_types``.  ``pairs`` counts, by type,
    the contracted pairs no weak run breaks: the adjacent non-weak gates.
    """

    empty: int
    railed: int
    first: int
    last: int
    head: int
    tail: int
    pairs: np.ndarray
    lone: np.ndarray
    runs: np.ndarray
    run_types: np.ndarray

    @property
    def explicit(self) -> int:
        """Weak gates whose amplitudes the readout needs: the head, the
        tail and the runs of two or more."""
        return self.head + self.tail + int(self.runs.sum())


def _sd_skeleton(n: int, p_weak: float, q: float, rng: np.random.Generator) -> SdSkeleton:
    """Draw the :class:`SdSkeleton` of ``n`` i.i.d. gates, each WEAK with
    probability ``p_weak`` and otherwise EMPTY with probability ``q``.

    :func:`_run_law` over the weak/non-weak sequence gives the non-weak
    count n', its r runs and whether the shard starts and ends weak (a,
    b), so the weak gates form r - 1 + a + b runs.  Given those, the
    arrangements are equally likely: the weak runs' sizes are a uniform
    composition of the W weak gates, drawn as W - r_W joins among their
    W - 1 slots, and the r - 1 internal weak runs break a uniform subset
    of the contracted sequence's n' - 1 pairs.  The contracted sequence is
    i.i.d. EMPTY/RAILED, independent of those positions, so a second
    :func:`_run_law` and :func:`_pair_totals` give its pair counts, one
    multivariate hypergeometric the types of the broken pairs, and a
    second one which of them hold the one-gate runs.  The sizes of the
    longer internal runs are exchangeable, so they take their types in
    type order.  Every step is O(1) array calls; only the joins' draw
    (``rng.choice`` over the W - 1 slots) can cost O(W).  numpy's
    hypergeometric draws need each population below 1e9, which bounds
    the shard size.
    """
    nonweak, runs, starts_weak, ends_weak = _run_law(n, 1.0 - p_weak, rng)
    weak = n - nonweak
    weak_runs = runs - 1 + starts_weak + ends_weak
    head, tail = starts_weak, ends_weak * (nonweak > 0)
    sizes = np.zeros(0, np.int64)
    if weak > weak_runs:
        joins = np.sort(rng.choice(weak - 1, weak - weak_runs, replace=False, shuffle=False))
        # each block of consecutive joins makes one run of (block length + 1) gates
        breaks = np.flatnonzero(np.diff(joins) != 1)
        sizes = np.diff(np.concatenate(([-1], breaks, [joins.size - 1]))) + 1
        if head and joins[0] == 0:
            head, sizes = int(sizes[0]), sizes[1:]
        if tail and joins[-1] == weak - 2:
            tail, sizes = int(sizes[-1]), sizes[:-1]
    empty, empty_runs, first, last = _run_law(nonweak, q, rng)
    contracted = np.ravel(_pair_totals(nonweak, empty, empty_runs, first, last))
    internal = max(runs - 1, 0)
    broken = lone = np.zeros(4, np.int64)
    if internal:
        broken = rng.multivariate_hypergeometric(contracted, internal)
        lone = rng.multivariate_hypergeometric(broken, internal - sizes.size) if sizes.size else broken
    run_types = np.repeat(np.arange(4), broken - lone)
    return SdSkeleton(
        empty, nonweak - empty, first, last, head, tail, contracted - broken, lone, sizes, run_types
    )


class SdReadout(NamedTuple):
    """Per-parameter constants of the self-differencing readout."""

    levels: np.ndarray  # railed level of an EMPTY and a RAILED gate
    cuts: tuple[tuple[float, ...], ...]  # bin thresholds of a lone weak gate, by pair type
    fixed: np.ndarray  # the pair walks x y, then each bin's lone walk x bin y, by type
    source: np.ndarray  # each fixed entry's count: 0 none, then the pairs, then the bins


@functools.lru_cache(maxsize=8)
def _sd_readout(params: DetectorParams) -> SdReadout:
    """The :class:`SdReadout` of ``params``, built once per parameter set
    and returned read-only.

    A lone weak gate between levels x and y reads the same everywhere
    inside a bin of the :func:`~bncsim.attack.side_cuts` cuts of x and y,
    sorted and deduplicated, since t_diff may reach t_strong - t_diff.  It
    reads at the bin's :func:`~bncsim.attack.bin_levels` midpoint.
    """
    levels, cut = side_cuts(params)
    levels = np.array(levels)
    types = list(itertools.product((0, 1), (0, 1)))
    cuts = tuple(tuple(sorted({cut[x], cut[y]})) for x, y in types)
    entries = []
    for count, (x, y) in enumerate(types, start=1):
        entries += [(levels[x], 0), (levels[y], count)]
    count = len(types)
    for (x, y), c in zip(types, cuts):
        for mid in bin_levels(c, params):
            count += 1
            entries += [(levels[x], 0), (mid, count), (levels[y], count)]
    fixed, source = (np.array(column) for column in zip(*entries))
    for table in (levels, fixed, source):
        table.flags.writeable = False
    return SdReadout(levels, cuts, fixed, source)


def _sd_walks(
    sk: SdSkeleton,
    amps: np.ndarray,
    lone_bins: list[np.ndarray],
    readout: SdReadout,
    register: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Levels of a self-differencing shard as weighted walks, each walk's
    entries counting the gates they stand for, and the shard's last level.

    A gate's word depends on its own level and its predecessor's, so the
    stream is a set of walks, each led by its first gate's predecessor at
    weight 0.  The explicit ``amps``, in the order head, ``runs``, tail,
    walk from the register through the head to the first non-weak level,
    from x through each longer run to y, and from the last non-weak level
    through the tail.  Each adjacent non-weak pair of type (x, y) is a
    walk x y weighted by its count, and each bin of the lone weak gates
    of type (x, y) a walk x bin y weighted by the bin's count in
    ``lone_bins``.  A shard thus costs at most 2 entries per explicit
    amplitude, plus a constant.
    """
    levels = readout.levels
    nonweak = sk.empty + sk.railed > 0
    x, y = np.divmod(sk.run_types, 2)
    tail = [sk.tail] if sk.tail else []
    sizes = np.concatenate(([sk.head], sk.runs, tail)).astype(np.int64)
    lead = np.concatenate(([register], levels[x], levels[[sk.last] * len(tail)]))
    exits = np.concatenate(([levels[sk.first]] if nonweak else [], levels[y]))
    # every walk but the tail's ends on a non-weak gate, the head's when there is one
    closed = np.ones(sizes.size, bool)
    closed[0] = nonweak
    closed[sizes.size - len(tail) :] = False
    stop = np.cumsum(1 + sizes + closed)
    start = stop - 1 - sizes - closed
    stream = np.empty(stop[-1])
    weights = np.ones(stop[-1], np.int64)
    is_amp = np.ones(stop[-1], bool)
    is_amp[start] = is_amp[stop[closed] - 1] = False
    stream[start], weights[start] = lead, 0
    stream[stop[closed] - 1] = exits
    stream[is_amp] = amps
    counts = np.concatenate(([0], sk.pairs, *lone_bins))
    last = amps[-1] if sk.tail or not nonweak else levels[sk.last]
    return (
        np.concatenate([stream, readout.fixed]),
        np.concatenate([weights, counts[readout.source]]),
        float(last),
    )


def _run_sd_point(
    mu: float, n_gates: int, params: DetectorParams, seed_seq: np.random.SeedSequence
) -> GateTally:
    """Signal-level sweep point for the self-differencing receiver.

    One APD sees the whole pulse, so each gate's state (EMPTY, WEAK or
    RAILED) follows the :func:`~bncsim.attack.arm_law` at mean mu*qe,
    independently of the others.  A shard draws its :class:`SdSkeleton`
    (:func:`_sd_skeleton`), not its gates.  A weak gate whose neighbours
    are both non-weak reads only by the bin of its amplitude among the
    cuts of those neighbours, so each type of lone weak gate draws its
    bin counts in one multinomial (:func:`~bncsim.attack._weak_sides`);
    only the head, the tail and the runs of two or more weak gates draw
    amplitudes (:func:`~bncsim.attack._weak_gates`).  The shard's
    detected signal photons are one Poisson draw
    (:func:`~bncsim.attack._signal_photons`).  One :func:`sd_event_codes`
    call per shard codes the weighted walks of :func:`_sd_walks`.  Each
    shard starts the delay register from the previous shard's last gate
    level, so the event stream is the one a single block would give.  The
    shards are :func:`~bncsim.attack.shard_size` gates long.  The events
    count like the balanced monitor's: rises as ``click1``, delayed falls
    as ``click2``.
    """
    lam = mu * params.qe
    law = arm_law(lam, params.dcp_apd1, params)
    p_empty, p_weak, p_railed = law.state.tolist()
    # when every gate is weak, no gate is EMPTY or RAILED at any q
    q = p_empty / (p_empty + p_railed) if p_empty + p_railed > 0.0 else 0.0
    readout = _sd_readout(params)
    register = 0.0

    def block(n: int, rng: np.random.Generator) -> GateTally:
        nonlocal register
        sk = _sd_skeleton(n, p_weak, q, rng)
        amps = _weak_gates(law, sk.explicit, params, rng)
        lone_bins = [
            _weak_sides(law, cuts, count, params, rng)
            for count, cuts in zip(sk.lone.tolist(), readout.cuts)
        ]
        stream, weights, register = _sd_walks(sk, amps, lone_bins, readout, register)
        tally = GateTally(gates=n, pe1=_signal_photons(lam, n, rng), fired1=n - sk.empty)
        return count_events(tally, sd_event_codes(stream, params), weights)

    shard = shard_size(mu, params, Scenario.BLINDING_ONLY, DetectorKind.SELF_DIFFERENCING)
    return _run_sharded(n_gates, shard, seed_seq, block)


def point_seed(seed: int, mu: float) -> np.random.SeedSequence:
    """Seed of the sweep point at flux ``mu``.

    The spawn key holds the IEEE-754 bits of ``mu``, so a point's result
    depends on (seed, flux, configuration) and not on the rest of the grid.
    """
    return np.random.SeedSequence(seed, spawn_key=(0, int(np.float64(mu).view(np.uint64))))


def run_sweep(spec: SweepSpec, params: DetectorParams) -> RunReport:
    """Run the sweep; deterministic for a given (spec, params)."""
    check_poisson_mean(spec.flux_grid[-1], params)
    # the monitor only reads the gates: attack_no_cm runs as attack_cm,
    # and _row_from_tally masks the monitor columns
    scenario = Scenario.ATTACK_CM if spec.scenario is Scenario.ATTACK_NO_CM else spec.scenario
    report = RunReport(spec=spec, params=params)
    for mu in spec.flux_grid:
        seed_seq = point_seed(spec.seed, mu)
        if spec.detector is DetectorKind.SELF_DIFFERENCING:
            tally = _run_sd_point(mu, spec.n_gates_per_point, params, seed_seq)
        else:
            config = AttackConfig(
                n_pulses=spec.n_gates_per_point,
                resend_mu=mu,
                scenario=scenario,
                detector=spec.detector,
            )
            tally = run_attack(config, params, seed_seq)
        report.rows.append(_row_from_tally(mu, tally, spec, params))
    return report


def report_to_csv(report: RunReport) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    for row in report.rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in REPORT_COLUMNS))
    return "\n".join(lines) + "\n"


def config_lines(spec: SweepSpec, params: DetectorParams) -> list[str]:
    """The resolved configuration as sorted key=value lines, each float
    in its shortest round-trip form: a config file that re-runs the sweep."""
    values = {
        **{key: getattr(params, key) for key in _PARAM_KEYS},
        "scenario": spec.scenario.value,
        "detector": spec.detector.value,
        "gates": spec.n_gates_per_point,
        "flux": ",".join(map(str, spec.flux_grid)),
        "seed": spec.seed,
    }
    return [f"{k}={v}" for k, v in sorted(values.items())]


def _replace_file(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    over ``path``: the file is either the old one or the new one, whole."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def manifest_path(path: str | Path) -> Path:
    """The manifest written beside the report at ``path``."""
    return Path(f"{path}.manifest")


def emit_report(report: RunReport, path: str | Path) -> Path:
    """Write the data table and its manifest; returns the data path.

    The manifest holds the :func:`config_lines`, a config file that
    re-runs the sweep, then their SHA-256, the table's SHA-256, checked
    when the table is read back, the package versions and each point's
    :func:`~bncsim.attack.shard_size`.  Each file replaces any earlier
    one atomically.
    """
    path = Path(path)
    spec, params = report.spec, report.params
    shards = [shard_size(mu, params, spec.scenario, spec.detector) for mu in spec.flux_grid]
    table = report_to_csv(report)
    _replace_file(path, table)
    config = config_lines(spec, params)
    manifest = [
        *config,
        "config_sha256=" + hashlib.sha256("\n".join(config).encode()).hexdigest(),
        f"table_sha256={hashlib.sha256(table.encode()).hexdigest()}",
        f"package=bncsim-{__version__}",
        f"python={platform.python_version()}",
        f"numpy={np.__version__}",
        "shard_gates=" + ",".join(str(shard) for shard in shards),
    ]
    _replace_file(manifest_path(path), "\n".join(manifest) + "\n")
    return path


def load_report_rows(path: str | Path) -> list[dict[str, float | str]]:
    """Parse a report file back into per-row column dictionaries.

    When the report's manifest sits beside it, the table must have the
    SHA-256 the manifest records; a mismatch is a :class:`ConfigError`.
    A manifest that records no digest (one written before the digest was
    added) is not checked.  A file that is not UTF-8 text, or a numeric
    cell that does not parse, is a :class:`ConfigError` too.
    """
    path = Path(path)
    data = path.read_bytes()
    manifest = manifest_path(path)
    if manifest.exists():
        text = _decode(manifest.read_bytes(), manifest)
        entries = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
        recorded = entries.get("table_sha256")
        if recorded is not None and recorded != hashlib.sha256(data).hexdigest():
            raise ConfigError(
                f"{path} does not match the table_sha256 of {manifest.name} ({recorded})"
            )
    lines = _decode(data, path).strip().splitlines()
    if not lines or tuple(lines[0].split(",")) != REPORT_COLUMNS:
        raise ConfigError(f"{path} is not a sweep report (bad header)")
    rows: list[dict[str, float | str]] = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(REPORT_COLUMNS):
            raise ConfigError(f"malformed report line: {line!r}")
        row: dict[str, float | str] = {}
        for col, part in zip(REPORT_COLUMNS, parts):
            try:
                row[col] = part if col == "oracle_regime" else float(part)
            except ValueError as exc:
                raise ConfigError(f"{path}: column {col} is not a number: {part!r}") from exc
        rows.append(row)
    return rows


def _decode(data: bytes, path: str | Path) -> str:
    """``data``, read from ``path``, as UTF-8 text; any other bytes are a
    :class:`ConfigError`."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc


@dataclass(frozen=True)
class LandmarkResult:
    name: str
    detail: str
    passed: bool


def _find_row(
    rows: Sequence[dict[str, float | str]], mu: float
) -> dict[str, float | str]:
    for row in rows:
        if math.isclose(float(row["flux"]), mu, rel_tol=1e-9, abs_tol=1e-12):
            return row
    raise MissingFluxPoint(f"report has no flux point {mu}")


def verify_landmarks(
    rows: Sequence[dict[str, float | str]],
) -> list[LandmarkResult]:
    """Check the sweep landmarks at their pinned tolerances.

    Expects an attack sweep with the monitor enabled, covering
    the flux points 0.1, 1, 10, 30, 100, 500.  High-flux claims are
    evaluated at the 500 photons/pulse point.
    """
    r = {mu: _find_row(rows, mu) for mu in LANDMARK_FLUX_GRID}

    def casec_clicks(mu: float) -> float:
        return float(r[mu]["casec_diff1_rate"]) + float(r[mu]["casec_diff2_rate"])

    results = []

    def check(name: str, passed: bool, detail: str) -> None:
        results.append(LandmarkResult(name, detail, bool(passed)))

    q1 = float(r[1.0]["qber"])
    check(
        "single_photon_qber",
        0.23 <= q1 <= 0.27,
        f"qber(1) = {q1:.4f}, band [0.23, 0.27]",
    )
    # at exactly 100 the model sits on the 0.01 boundary (~0.0098); the
    # collapse claim is "above 100 photons/pulse", checked at the 500 point
    q100, q500 = float(r[100.0]["qber"]), float(r[500.0]["qber"])
    check(
        "high_flux_qber",
        q500 < 0.01,
        f"qber(500) = {q500:.4g} < 0.01 (qber(100) = {q100:.4g} for reference)",
    )
    collapse = casec_clicks(500.0)
    peak = casec_clicks(10.0)
    check(
        "blinded_click_collapse",
        collapse < 0.02 * peak,
        f"case-C clicks/s: 500 -> {collapse:.4g} vs 2% of mu=10 ({0.02 * peak:.4g})",
    )
    for arm, idx in ((1, "casec_diff1_rate"), (2, "casec_diff2_rate")):
        lo, mid, hi = (float(r[m][idx]) for m in (0.1, 30.0, 500.0))
        check(
            f"diff_hump_apd{arm}",
            mid > 3.0 * lo and hi < 0.05 * mid,
            f"{idx}: 0.1 -> {lo:.4g}, 30 -> {mid:.4g}, 500 -> {hi:.4g}",
        )
    cmf = float(r[500.0]["casec_cm_frac"])
    check(
        "cm_saturation",
        cmf >= 0.999,
        f"monitor flags {cmf:.5f} of case-C gates at mu=500, need >= 0.999",
    )
    cms = float(r[1.0]["cm_success"])
    check(
        "cm_single_photon",
        83.0 <= cms <= 92.0,
        f"cm_success(1) = {cms:.2f}%, band [83, 92]",
    )
    w01, w1 = float(r[0.1]["weak_ratio"]), float(r[1.0]["weak_ratio"])
    check(
        "weak_ratio_low_flux",
        0.08 <= w01 <= 0.12 and 0.08 <= w1 <= 0.12,
        f"weak_ratio: 0.1 -> {w01:.4f}, 1 -> {w1:.4f}, band [0.08, 0.12]",
    )
    w500 = float(r[500.0]["weak_ratio"])
    check(
        "weak_ratio_high_flux",
        w500 < 1e-3,
        f"weak_ratio(500) = {w500:.2e}, bound 1e-3",
    )
    return results


# --- configuration files ---------------------------------------------------

_PARAM_KEYS = {f.name: float for f in fields(DetectorParams)}
_SWEEP_KEYS = {
    "seed": int,
    "gates": int,
    "scenario": str,
    "detector": str,
    "flux": str,
    "out": str,
}


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Read a flat key=value file; '#' starts a comment.  Each value is cast
    by its key's type; ``flux`` stays the text :func:`resolve_config` parses.
    A key given twice is a :class:`ConfigError`."""
    values: dict[str, object] = {}
    first_lines: dict[str, int] = {}
    for lineno, raw in enumerate(_decode(Path(path).read_bytes(), path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        caster = _PARAM_KEYS.get(key) or _SWEEP_KEYS.get(key)
        if caster is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        first = first_lines.setdefault(key, lineno)
        if first != lineno:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} (first on line {first})")
        try:
            values[key] = caster(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return values


def resolve_config(
    file_values: Optional[dict[str, object]] = None,
    overrides: Optional[dict[str, object]] = None,
) -> tuple[SweepSpec, DetectorParams, dict[str, object]]:
    """Merge defaults, config-file values, and overrides that are not None
    (highest wins).  Values pass on as given: :class:`DetectorParams` and
    :class:`SweepSpec` check them and hold the other defaults."""
    merged: dict[str, object] = {"gates": 100_000, "flux": "", "out": "report.csv"}
    merged.update(file_values or {})
    merged.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    params = replace(
        DetectorParams.default(), **{key: merged[key] for key in _PARAM_KEYS if key in merged}
    )
    flux = merged["flux"]
    try:
        grid = tuple(float(x) for x in flux.split(",")) if flux.strip() else DEFAULT_FLUX_GRID
    except (AttributeError, ValueError) as exc:
        raise ConfigError(f"bad flux list: {flux!r}") from exc
    spec = SweepSpec(
        flux_grid=grid,
        n_gates_per_point=merged["gates"],
        **{key: merged[key] for key in ("scenario", "detector", "seed") if key in merged},
    )
    return spec, params, merged
