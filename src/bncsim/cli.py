"""Command-line interface: sweep, table1, verify, oracle."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .analytics import (
    LinkBudget,
    attack_qber,
    click_probabilities,
    ideal_click_rate_diff_phase,
    ideal_click_rate_same_phase,
    oracle_cm_success,
)
from .attack import enumerate_cases, evaluate_case_row
from .errors import ConfigError, MissingFluxPoint
from .harness import (
    emit_report,
    load_report_rows,
    parse_config_file,
    resolve_config,
    run_sweep,
    verify_landmarks,
)
from .signal_model import DetectorParams


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--seed", type=int, help="64-bit master seed")
    parser.add_argument("--gates", type=int, help="gates per flux point")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bncsim",
        description="Detector-blinding Monte Carlo for noise-cancelling QKD receivers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a flux sweep and write a report")
    _add_common(p_sweep)
    p_sweep.add_argument("--flux", help="comma-separated flux grid (photons/pulse)")
    p_sweep.add_argument(
        "--scenario",
        choices=["honest", "attack_no_cm", "attack_cm", "blinding_only"],
    )
    p_sweep.add_argument(
        "--detector",
        choices=["baseline_two_apd", "balanced_bnc", "self_differencing"],
    )
    p_sweep.add_argument("--case-filter", help="restrict gates to case labels, e.g. C")
    p_sweep.add_argument("--out", help="report path (manifest written alongside)")

    p_table = sub.add_parser(
        "table1", help="print the 16-row sifting-case enumeration, expected vs simulated"
    )
    _add_common(p_table)

    p_verify = sub.add_parser("verify", help="check sweep landmarks on a report file")
    p_verify.add_argument("report", help="report file produced by `sweep`")

    p_oracle = sub.add_parser("oracle", help="evaluate the closed-form oracles")
    p_oracle.add_argument("--mu", type=float, required=True, help="photons/pulse")
    p_oracle.add_argument("--qe", type=float, default=0.1)
    p_oracle.add_argument("--f-gate", type=float, default=2e6)
    p_oracle.add_argument("--p-ave", type=float, help="average source power (W)")
    p_oracle.add_argument("--rep-rate", type=float, help="pulse repetition rate (Hz)")
    p_oracle.add_argument("--att-bob", type=float, default=0.0, help="receiver attenuation (dB)")
    p_oracle.add_argument(
        "--mu-eve-alice", type=float, help="target flux at the resender (photons/pulse)"
    )
    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    file_values = parse_config_file(args.config) if args.config else None
    overrides = {
        "seed": args.seed,
        "gates": args.gates,
        "flux": args.flux,
        "scenario": args.scenario,
        "detector": args.detector,
        "case_filter": args.case_filter,
        "out": args.out,
    }
    spec, params, merged = resolve_config(file_values, overrides)
    report = run_sweep(spec, params)
    path = emit_report(report, str(merged["out"]))
    print(f"wrote {path} and {path}.manifest")
    header = f"{'flux':>10} {'qber':>10} {'cm_success':>10} {'casec_cm':>10} {'weak_ratio':>10}"
    print(header)
    for row in report.rows:
        print(
            f"{row.flux:>10.4g} {row.qber:>10.4g} {row.cm_success:>10.4g} "
            f"{row.casec_cm_frac:>10.4g} {row.weak_ratio:>10.4g}"
        )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    if args.gates is not None and args.gates < 1:
        raise ConfigError(f"--gates must be at least 1, got {args.gates}")
    file_values = parse_config_file(args.config) if args.config else None
    _, params, merged = resolve_config(file_values, {"seed": args.seed})
    seed = int(merged["seed"])
    rows = enumerate_cases()
    print(
        f"{'#':>2} {'alice':>6} {'eve_basis':>9} {'eve_apd':>7} {'resend':>6} "
        f"{'bob':>6} {'case':>4} {'expected':>18} {'mu':>6} {'observed':>9} {'match':>5}"
    )
    all_ok = True
    for i, row in enumerate(rows):
        result = evaluate_case_row(
            row,
            params,
            np.random.SeedSequence(seed, spawn_key=(1, i)),
            gates=args.gates,
        )
        all_ok &= result.matched
        print(
            f"{i:>2} {row.alice_phase.label:>6} {row.evebob_basis:>9} "
            f"{row.eve_apd:>7} {row.evealice_phase.label:>6} {row.bob_phase.label:>6} "
            f"{row.case_label.value:>4} {row.expected_outcome.value:>18} "
            f"{result.mu:>6.3g} {result.observed:>9.4f} "
            f"{'yes' if result.matched else 'NO':>5}"
        )
    n_casec = sum(1 for row in rows if row.case_label.value == "C")
    print(f"rows: {len(rows)}, case C rows: {n_casec}")
    return 0 if all_ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    rows = load_report_rows(args.report)
    results = verify_landmarks(rows)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failures += not res.passed
        print(f"{status} {res.name}: {res.detail}")
    print(f"{len(results) - failures}/{len(results)} landmarks passed")
    return 0 if failures == 0 else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    params = replace(DetectorParams.default(), qe=args.qe, f_gate=args.f_gate)
    mu = args.mu
    print(f"mu={mu:g}")
    print(f"ideal_rate_same_phase={ideal_click_rate_same_phase(mu, args.qe, args.f_gate):.10g}")
    print(f"ideal_rate_diff_phase={ideal_click_rate_diff_phase(mu, args.qe, args.f_gate):.10g}")
    probs = click_probabilities(mu, args.qe)
    print(f"p1={probs.p1:.10g}")
    print(f"p2={probs.p2:.10g}")
    print(f"p_s={probs.p_s:.10g}")
    if probs.p1 + probs.p_s > 0:
        print(f"attack_qber={attack_qber(probs.p1, probs.p_s):.10g}")
    if mu > 0:
        print(f"cm_success_mixed={oracle_cm_success(mu, params, 0.5):.10g}")
        print(f"cm_success_split={oracle_cm_success(mu, params, 1.0):.10g}")
    if args.p_ave is not None and args.rep_rate is not None and args.mu_eve_alice is not None:
        budget = LinkBudget(
            p_ave_w=args.p_ave,
            rep_rate_hz=args.rep_rate,
            att_bob_db=args.att_bob,
            mu_eve_alice=args.mu_eve_alice,
        )
        print(f"n_photons={budget.n_photons:.10g}")
        print(f"att_path_db={budget.att_path_db:.10g}")
        print(f"att_total_db={budget.att_total_db:.10g}")
        print(f"mu_apd={budget.mu_apd:.10g}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "table1": _cmd_table1,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, MissingFluxPoint, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
