"""Acceptance suite: every exit criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and
asserts the same condition, so the suite is both a report and a gate.
High-flux claims ("above 100 photons/pulse") are checked at the 500
photons/pulse grid point; at exactly 100 the model sits on the stated
bands (see the sweep runner's landmark notes).
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from bncsim.attack import (
    RAILED,
    AttackConfig,
    CaseLabel,
    DetectorKind,
    Scenario,
    arm_law,
    enumerate_cases,
    evaluate_case_row,
    run_attack,
    run_fixed,
)
from bncsim.balanced import GateEvent, comparator_arrays, event_codes
from bncsim.harness import (
    LANDMARK_FLUX_GRID,
    SweepSpec,
    emit_report,
    run_sweep,
)
from bncsim.selfdiff import SdGateEvent, sd_event_codes
from bncsim.signal_model import DetectorParams, PhaseSymbol

SEED = 20260809
PARAMS = DetectorParams.default()


def seed_seq(*key):
    return np.random.SeedSequence(SEED, spawn_key=key)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def sweep_rows():
    """One attack sweep over the landmark grid, 1e6 gates per point."""
    spec = SweepSpec(
        flux_grid=LANDMARK_FLUX_GRID,
        n_gates_per_point=1_000_000,
        scenario=Scenario.ATTACK_CM,
        detector=DetectorKind.BALANCED_BNC,
        seed=SEED,
    )
    rows = run_sweep(spec, PARAMS).rows
    return {row.flux: row for row in rows}


def test_c01_single_photon_attack_qber():
    start = time.perf_counter()
    tally = run_attack(
        AttackConfig(n_pulses=1_000_000, resend_mu=1.0),
        PARAMS,
        seed_seq(1),
    )
    elapsed = time.perf_counter() - start
    ok = abs(tally.qber - 0.25) <= 0.02 and elapsed < 30.0
    report(
        "criterion 1 (single-photon attack QBER)",
        ok,
        f"qber(mu=1, 1e6 gates) = {tally.qber:.4f} in 0.25 +/- 0.02, ran in {elapsed:.1f}s",
    )


def test_c02_high_flux_blinding(sweep_rows):
    qber = sweep_rows[500.0].qber
    collapsed = (
        sweep_rows[500.0].casec_diff1_rate + sweep_rows[500.0].casec_diff2_rate
    )
    peak = sweep_rows[10.0].casec_diff1_rate + sweep_rows[10.0].casec_diff2_rate
    ok = qber < 0.01 and collapsed < 0.02 * peak
    report(
        "criterion 2 (high-flux blinding)",
        ok,
        f"qber(500) = {qber:.3g} < 0.01; case-C clicks 500 -> {collapsed:.3g}/s "
        f"vs 2% of mu=10 rate ({0.02 * peak:.3g}/s) "
        f"[qber(100) = {sweep_rows[100.0].qber:.4f} for reference]",
    )


def test_c03_diff_output_hump(sweep_rows):
    ok = True
    details = []
    for col in ("casec_diff1_rate", "casec_diff2_rate"):
        lo = getattr(sweep_rows[0.1], col)
        mid = getattr(sweep_rows[30.0], col)
        hi = getattr(sweep_rows[500.0], col)
        ok &= mid > 3.0 * lo and hi < 0.05 * mid
        details.append(f"{col}: {lo:.3g} -> {mid:.3g} -> {hi:.3g}")
    report(
        "criterion 3 (difference-output hump)",
        ok,
        "rate(30) > 3*rate(0.1) and rate(500) < 0.05*rate(30); " + "; ".join(details),
    )


def test_c04_cm_saturation(sweep_rows):
    frac = sweep_rows[500.0].casec_cm_frac
    report(
        "criterion 4 (monitor saturation)",
        frac >= 0.999,
        f"flagged {frac:.6f} of case-C gates at mu=500, need >= 0.999 "
        f"[mu=100 gives {sweep_rows[100.0].casec_cm_frac:.4f}]",
    )


def test_c05_cm_success_at_single_photon(sweep_rows):
    value = sweep_rows[1.0].cm_success
    report(
        "criterion 5 (monitor success at mu=1)",
        83.0 <= value <= 92.0,
        f"cm_success(1) = {value:.2f}%, band [83, 92]",
    )


def test_c06_weak_ratio_calibration(sweep_rows):
    low = [sweep_rows[0.1].weak_ratio, sweep_rows[1.0].weak_ratio]
    high = sweep_rows[500.0].weak_ratio
    ok = all(0.08 <= w <= 0.12 for w in low) and high < 1e-3
    report(
        "criterion 6 (weak-avalanche ratio)",
        ok,
        f"weak_ratio(0.1) = {low[0]:.4f}, weak_ratio(1) = {low[1]:.4f} "
        f"(band [0.08, 0.12]); weak_ratio(500) = {high:.2e} < 1e-3",
    )


def test_c07_ideal_count_oracle():
    """Detected-carrier counts against the linear ideal, 3 sigma Poisson."""
    n = 1_000_000
    ok = True
    details = []
    for i, mu in enumerate((0.1, 0.3, 1.0)):
        same = run_fixed(
            PhaseSymbol.ZERO, PhaseSymbol.ZERO, mu, n, PARAMS, seed_seq(7, i, 0)
        )
        expect = n * mu * PARAMS.qe
        band = 3.0 * math.sqrt(expect)
        ok &= abs(same.pe1 - expect) <= band and same.pe2 == 0
        details.append(f"mu={mu}: one-arm {same.pe1} vs {expect:.0f} +/- {band:.0f}")

        split = run_fixed(
            PhaseSymbol.HALF_PI, PhaseSymbol.ZERO, mu, n, PARAMS, seed_seq(7, i, 1)
        )
        expect_half = n * mu * PARAMS.qe / 2.0
        band_half = 3.0 * math.sqrt(expect_half)
        ok &= abs(split.pe1 - expect_half) <= band_half
        ok &= abs(split.pe2 - expect_half) <= band_half
        details.append(
            f"split {split.pe1}/{split.pe2} vs {expect_half:.0f} +/- {band_half:.0f}"
        )
    report("criterion 7 (ideal-count oracle)", ok, "; ".join(details))


def test_c08_case_table_oracle_equivalence():
    rows = enumerate_cases()
    n_casec = sum(1 for r in rows if r.case_label is CaseLabel.C)
    results = [
        evaluate_case_row(row, PARAMS, seed_seq(8, i)) for i, row in enumerate(rows)
    ]
    mismatches = [
        f"row {i} ({res.row.case_label.value}): observed {res.observed:.4f}"
        for i, res in enumerate(results)
        if not res.matched
    ]
    ok = len(rows) == 16 and n_casec == 8 and not mismatches
    report(
        "criterion 8 (case-table oracle equivalence)",
        ok,
        f"16 rows, {n_casec} case-C rows, all matched"
        + ("" if not mismatches else "; mismatches: " + "; ".join(mismatches)),
    )


def test_c09_blinding_completeness_exact():
    grid = np.linspace(0.0, 5.0, 101)
    strong = [x for x in grid if x >= PARAMS.t_strong]
    amp1, amp2 = (np.array(x) for x in zip(*itertools.product(strong, strong)))
    a, b, c, d = comparator_arrays(amp1, amp2, PARAMS)
    codes = event_codes(a, b, c, d)
    # the baseline readout clicks on C/D: every pair must leave both silent
    assert not (c | d).any()
    assert (codes == GateEvent.BLINDING_DETECTED).all()
    checked = codes.size
    report(
        "criterion 9 (blinding completeness, exact)",
        checked > 0,
        f"all {checked} both-arms-strong amplitude pairs cancel and are flagged",
    )


def test_c10_self_differencing_cm():
    quiet = replace(PARAMS, dcp_apd1=0.0, dcp_apd2=0.0)
    # every 500-photon avalanche rails
    assert arm_law(500.0 * quiet.qe, quiet.dcp_apd1, quiet).state[RAILED] == 1.0

    def stream(bright):
        """Event codes of one APD over gates whose ``bright`` gates carry a
        500-photon pulse and read ``t_strong``; without dark counts the
        other gates stay empty and read 0."""
        return sd_event_codes(bright * quiet.t_strong, quiet)

    events = stream(np.ones(1000, dtype=bool))
    n_blind = int((events == SdGateEvent.BLINDING_DETECTED).sum())

    isolated = stream(np.arange(8) == 3)
    rises = [
        i
        for i, e in enumerate(isolated)
        if e in (SdGateEvent.STRONG_RISE, SdGateEvent.WEAK_RISE)
    ]
    falls = [i for i, e in enumerate(isolated) if e == SdGateEvent.DELAYED_FALL]
    ok = (
        n_blind >= 998
        and len(rises) == 1
        and len(falls) == 1
        and falls[0] == rises[0] + 1
    )
    report(
        "criterion 10 (self-differencing monitor)",
        ok,
        f"1000-gate train -> {n_blind} blinding flags (need >= 998); isolated "
        f"avalanche -> rise at {rises}, fall at {falls}",
    )


def test_c11_false_positive_bound():
    tally = run_attack(
        AttackConfig(n_pulses=10_000_000, resend_mu=0.0, scenario=Scenario.HONEST),
        PARAMS,
        seed_seq(11),
    )
    expect = 10_000_000 * PARAMS.dcp_apd1 * PARAMS.dcp_apd2
    band = 5.0 * math.sqrt(expect)
    ok = abs(tally.blind - expect) <= band
    report(
        "criterion 11 (false-positive bound)",
        ok,
        f"dark-only honest run (1e7 gates): {tally.blind} blinding flags vs "
        f"dark-coincidence product {expect:.4f} +/- {band:.3f}",
    )


def test_c12_determinism(tmp_path):
    spec = SweepSpec(
        flux_grid=(0.1, 1.0, 10.0),
        n_gates_per_point=10_000,
        scenario=Scenario.ATTACK_CM,
        detector=DetectorKind.BALANCED_BNC,
        seed=SEED,
    )
    p1 = emit_report(run_sweep(spec, PARAMS), tmp_path / "one.csv")
    p2 = emit_report(run_sweep(spec, PARAMS), tmp_path / "two.csv")
    same_data = p1.read_bytes() == p2.read_bytes()
    same_manifest = (
        (tmp_path / "one.csv.manifest").read_text()
        == (tmp_path / "two.csv.manifest").read_text()
    )
    report(
        "criterion 12 (determinism)",
        same_data and same_manifest,
        "identical seed+config reproduce the report byte for byte",
    )
