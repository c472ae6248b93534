"""Sweep runner and report machinery.

A sweep runs one scenario over a flux grid and emits a delimited table
with one row per flux point, Monte Carlo columns next to the analytic
oracle columns, plus a manifest recording the seed, a digest of the
resolved configuration and a digest of the table.  Identical seed and
configuration give byte-identical files.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analytics import (
    LINEAR_REGIME_MAX,
    RegimeWarning,
    attack_qber,
    click_probabilities,
    ideal_click_rate_diff_phase,
    ideal_click_rate_same_phase,
    oracle_cm_success,
)
from .attack import (
    EMPTY,
    RAILED,
    SHARD_GATES,
    WEAK,
    AttackConfig,
    DetectorKind,
    GateTally,
    Scenario,
    _run_sharded,
    arm_law,
    arm_levels,
    check_flux,
    count_events,
    protocol_classes,
    run_attack,
)
from .balanced import GateEvent
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
    case_filter: Optional[frozenset[str]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.flux_grid:
            object.__setattr__(self, "flux_grid", ())
        # + 0.0 turns -0.0 into 0.0, so equal fluxes share one seed
        grid = tuple(float(x) + 0.0 for x in self.flux_grid)
        object.__setattr__(self, "flux_grid", grid)
        if not all(math.isfinite(x) for x in grid):
            raise ConfigError(f"flux values must be finite, got {grid}")
        if any(x < 0.0 for x in grid):
            raise ConfigError("flux values must be non-negative")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("flux grid must be strictly increasing")
        if self.n_gates_per_point < 10_000:
            raise ConfigError("n_gates_per_point must be at least 10000")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        if self.detector is not DetectorKind.SELF_DIFFERENCING:
            protocol_classes(self.scenario, self.case_filter)  # rejects a filter it cannot apply
        elif self.scenario in (Scenario.ATTACK_NO_CM, Scenario.ATTACK_CM):
            raise ConfigError(
                "the self-differencing receiver runs at the signal level only "
                "(scenarios: honest, blinding_only)"
            )
        elif self.case_filter is not None:
            raise ConfigError("the self-differencing receiver has no guess basis to filter on")

    @property
    def cm_enabled(self) -> bool:
        """The blinding monitor runs: a noise-cancelling receiver, not
        under ``attack_no_cm``."""
        return (
            self.detector is not DetectorKind.BASELINE_TWO_APD
            and self.scenario is not Scenario.ATTACK_NO_CM
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        same = ideal_click_rate_same_phase(mu, params.qe, params.f_gate)
        diff = ideal_click_rate_diff_phase(mu, params.qe, params.f_gate)
    probs = click_probabilities(mu, params.qe)
    qber = attack_qber(probs.p1, probs.p_s) if (probs.p1 + probs.p_s) > 0 else math.nan
    cm = oracle_cm_success(mu, params, split_share) if mu * params.qe > 0 else math.nan
    regime = "ok" if mu * params.qe <= LINEAR_REGIME_MAX else "extrapolated"
    return same, diff, qber, cm, regime


def _split_share(spec: SweepSpec) -> float:
    """Share of a sweep's gates whose flux splits evenly between two arms:
    the protocol classes at a conjugate-basis phase difference.  The
    self-differencing APD sees every pulse whole."""
    if spec.detector is DetectorKind.SELF_DIFFERENCING:
        return 0.0
    classes = protocol_classes(spec.scenario, spec.case_filter)
    return float(classes.weight[classes.delta % 2 == 1].sum())


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
    cm_on = spec.cm_enabled
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


def _sd_readout(
    pos: np.ndarray,
    levels: np.ndarray,
    n: int,
    bulk: float,
    params: DetectorParams,
    register: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Event codes of an ``n``-gate self-differencing shard, with the
    number of gates each code stands for, and the shard's last level.

    Every gate sits at the railed level ``bulk`` (0 or ``t_strong``)
    except the exceptions at sorted positions ``pos``, whose levels are
    ``levels``.  A gate's word depends on its own level and its
    predecessor's, so :func:`sd_event_codes` reads a compressed stream:
    the exceptions in order, one bulk level after each run of
    consecutive exceptions that ends before the last gate, and one at
    gate 0 unless gate 0 is an exception.  Each entry's predecessor in
    the stream is its predecessor in the shard (``register`` before gate
    0), so the stream's codes are exact.  The other gates are bulk gates
    after bulk gates and count as one final row: ``NO_EVENT`` when the
    bulk is empty, ``BLINDING_DETECTED`` when it rails.
    """
    after = np.flatnonzero(np.diff(pos, append=n) > 1) + 1
    at = after if pos.size and pos[0] == 0 else np.concatenate(([0], after))
    stream = np.insert(levels, at, bulk)
    bulk_code = GateEvent.BLINDING_DETECTED if bulk >= params.t_strong else GateEvent.NO_EVENT
    codes = np.append(sd_event_codes(stream, params, register), bulk_code)
    weights = np.ones(codes.size)
    weights[-1] = n - stream.size
    return codes, weights, float(stream[-1])


def _run_sd_point(
    mu: float, n_gates: int, params: DetectorParams, seed_seq: np.random.SeedSequence
) -> GateTally:
    """Signal-level sweep point for the self-differencing receiver.

    One APD sees the whole pulse, so each gate's state (EMPTY, WEAK or
    RAILED) follows the :func:`~bncsim.attack.arm_law` at mean mu*qe.
    The more probable of EMPTY and RAILED is the bulk state; a shard
    draws only its exception gates: a Binomial count of distinct uniform
    positions, each in one of the other two states, whose levels and
    photons :func:`~bncsim.attack.arm_levels` draws.  A gate's word
    depends on its own railed level and its predecessor's, so
    :func:`sd_event_codes` reads the exceptions and their successors, and
    the other gates, bulk after bulk, count as one row
    (:func:`_sd_readout`).  Each shard starts
    the delay register from the previous shard's last level, so the
    event stream is the one a single block would give.  The events count
    like the balanced monitor's: rises as ``click1``, delayed falls as
    ``click2``.
    """
    law = arm_law(mu * params.qe, params.dcp_apd1, params)
    bulk = RAILED if law.state[RAILED] > law.state[EMPTY] else EMPTY
    other = EMPTY + RAILED - bulk
    p_exception = law.state[WEAK] + law.state[other]
    bulk_level = params.t_strong if bulk == RAILED else 0.0
    register = 0.0

    def block(n: int, rng: np.random.Generator) -> GateTally:
        nonlocal register
        m = int(rng.binomial(n, p_exception))
        pos = np.sort(rng.choice(n, m, replace=False, shuffle=False))
        weak = rng.random(m) * p_exception < law.state[WEAK]
        n_weak = int(np.count_nonzero(weak))
        count = {bulk: n - m, other: m - n_weak, WEAK: n_weak}
        pe, levels = arm_levels(law, np.where(weak, WEAK, other), count[RAILED], params, rng)
        tally = GateTally(gates=n, pe1=pe, fired1=n - count[EMPTY])
        codes, weights, register = _sd_readout(pos, levels, n, bulk_level, params, register)
        return count_events(tally, codes, weights=weights)

    return _run_sharded(n_gates, seed_seq, SHARD_GATES, block)


def point_seed(seed: int, mu: float) -> np.random.SeedSequence:
    """Seed of the sweep point at flux ``mu``.

    The spawn key holds the IEEE-754 bits of ``mu``, so a point's result
    depends on (seed, flux, configuration) and not on the rest of the grid.
    """
    return np.random.SeedSequence(seed, spawn_key=(0, int(np.float64(mu).view(np.uint64))))


def run_sweep(spec: SweepSpec, params: DetectorParams) -> RunReport:
    """Run the sweep; deterministic for a given (spec, params)."""
    if spec.flux_grid:
        check_flux(spec.flux_grid[-1], params)
    report = RunReport(spec=spec, params=params)
    for mu in spec.flux_grid:
        seed_seq = point_seed(spec.seed, mu)
        if spec.detector is DetectorKind.SELF_DIFFERENCING:
            tally = _run_sd_point(mu, spec.n_gates_per_point, params, seed_seq)
        else:
            config = AttackConfig(
                n_pulses=spec.n_gates_per_point,
                resend_mu=mu,
                scenario=spec.scenario,
                detector=spec.detector,
                case_filter=spec.case_filter,
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
    """Canonical key=value rendering of the resolved configuration."""
    values = {
        **asdict(params),
        "scenario": spec.scenario.value,
        "detector": spec.detector.value,
        "gates": spec.n_gates_per_point,
        "flux": ",".join(_fmt(x) for x in spec.flux_grid),
        "case_filter": (
            ",".join(sorted(spec.case_filter)) if spec.case_filter else ""
        ),
        "seed": spec.seed,
    }
    return [f"{k}={_fmt(v)}" for k, v in sorted(values.items())]


def _replace_file(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    over ``path``: the file is either the old one or the new one, whole."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _manifest_path(path: Path) -> Path:
    return Path(str(path) + ".manifest")


def emit_report(report: RunReport, path: str | Path) -> Path:
    """Write the data table and its manifest; returns the data path.

    The manifest records the table's SHA-256, so the two are checked as
    one unit when the table is read back.  Each file replaces any earlier
    one atomically.
    """
    path = Path(path)
    table = report_to_csv(report)
    _replace_file(path, table)
    digest = hashlib.sha256(
        "\n".join(config_lines(report.spec, report.params)).encode()
    ).hexdigest()
    manifest = [
        f"seed={report.spec.seed}",
        f"config_sha256={digest}",
        f"table_sha256={hashlib.sha256(table.encode()).hexdigest()}",
        f"package=bncsim-{__version__}",
        f"python={platform.python_version()}",
        f"numpy={np.__version__}",
        f"scenario={report.spec.scenario.value}",
        f"detector={report.spec.detector.value}",
        f"gates={report.spec.n_gates_per_point}",
        f"shard_gates={SHARD_GATES}",
        "flux=" + ",".join(_fmt(x) for x in report.spec.flux_grid),
    ]
    _replace_file(_manifest_path(path), "\n".join(manifest) + "\n")
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
    manifest = _manifest_path(path)
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

    Expects an unfiltered attack sweep with the monitor enabled, covering
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
    "case_filter": str,
    "out": str,
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat key=value file; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(_decode(Path(path).read_bytes(), path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARAM_KEYS and key not in _SWEEP_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def resolve_config(
    file_values: Optional[dict[str, str]] = None,
    overrides: Optional[dict[str, object]] = None,
) -> tuple[SweepSpec, DetectorParams, dict[str, object]]:
    """Merge defaults, config-file values, and CLI overrides (highest wins)."""
    merged: dict[str, object] = {
        **asdict(DetectorParams.default()),
        "seed": 0,
        "gates": 100_000,
        "scenario": Scenario.ATTACK_CM.value,
        "detector": DetectorKind.BALANCED_BNC.value,
        "flux": "",
        "case_filter": "",
        "out": "report.csv",
    }
    for key, raw in (file_values or {}).items():
        caster = _PARAM_KEYS.get(key) or _SWEEP_KEYS[key]
        try:
            merged[key] = caster(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    try:
        params = DetectorParams(**{key: float(merged[key]) for key in _PARAM_KEYS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    flux_raw = str(merged["flux"]).strip()
    if flux_raw:
        try:
            grid = tuple(float(x) for x in flux_raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad flux list: {flux_raw!r}") from exc
    else:
        grid = DEFAULT_FLUX_GRID
    filter_raw = str(merged["case_filter"]).strip()
    case_filter = frozenset(filter_raw.split(",")) if filter_raw else None
    try:
        scenario = Scenario(str(merged["scenario"]))
        detector = DetectorKind(str(merged["detector"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    spec = SweepSpec(
        flux_grid=grid,
        n_gates_per_point=int(merged["gates"]),
        scenario=scenario,
        detector=detector,
        case_filter=case_filter,
        seed=int(merged["seed"]),
    )
    return spec, params, merged
