"""Command-line interface: sweep, table1, verify, oracle."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .analytics import (
    LINEAR_REGIME_MAX,
    LinkBudget,
    attack_qber,
    click_probabilities,
    ideal_click_rate_diff_phase,
    ideal_click_rate_same_phase,
    oracle_cm_success,
)
from .attack import DetectorKind, Scenario, enumerate_cases, evaluate_case_row
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
    p_sweep.add_argument("--scenario", choices=[s.value for s in Scenario])
    p_sweep.add_argument("--detector", choices=[d.value for d in DetectorKind])
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
    p_oracle.add_argument("--att-bob", type=float, help="receiver attenuation (dB), default 0")
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
        "out": args.out,
    }
    spec, params, merged = resolve_config(file_values, overrides)
    out = Path(str(merged["out"]))
    if not out.parent.is_dir() or out.is_dir() or Path(f"{out}.manifest").is_dir():
        raise ConfigError(f"cannot write {out} and its manifest: no such directory, or a directory")
    report = run_sweep(spec, params)
    path = emit_report(report, out)
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
    file_values = parse_config_file(args.config) if args.config else {}
    # table 1 reads only the detector, the seed and the gates per row, so
    # it checks no other sweep key
    read = {f.name for f in fields(DetectorParams)} | {"seed"}
    table_values = {key: value for key, value in file_values.items() if key in read}
    _, params, merged = resolve_config(table_values, {"seed": args.seed})
    seed = int(merged["seed"])
    gates = args.gates
    if gates is None and "gates" in file_values:
        try:
            gates = int(file_values["gates"])
        except ValueError as exc:
            raise ConfigError(f"bad value for 'gates': {file_values['gates']!r}") from exc
        if gates < 1:
            raise ConfigError(f"gates must be at least 1, got {gates}")
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
            gates=gates,
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
    """Print the oracles at flux --mu; bad input is a ConfigError before any output."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if args.mu < 0.0:
        raise ConfigError(f"--mu must be non-negative, got {args.mu:g}")
    given = [v is not None for v in (args.p_ave, args.rep_rate, args.mu_eve_alice)]
    if not all(given) and (any(given) or args.att_bob is not None):
        raise ConfigError("the link budget needs --p-ave, --rep-rate and --mu-eve-alice together")
    params = replace(DetectorParams.default(), qe=args.qe, f_gate=args.f_gate)
    mu = args.mu
    nu = mu * args.qe
    probs = click_probabilities(mu, args.qe)
    values = {
        "ideal_rate_same_phase": ideal_click_rate_same_phase(mu, args.qe, args.f_gate),
        "ideal_rate_diff_phase": ideal_click_rate_diff_phase(mu, args.qe, args.f_gate),
        "p1": probs.p1, "p2": probs.p2, "p_s": probs.p_s,
    }
    if nu > LINEAR_REGIME_MAX:
        print(
            f"warning: mu_apd*qe = {nu:.3g} exceeds the linear regime "
            f"(<= {LINEAR_REGIME_MAX}); the ideal rate overestimates clicks",
            file=sys.stderr,
        )
    if probs.p1 + probs.p_s > 0:
        values["attack_qber"] = attack_qber(probs.p1, probs.p_s)
    if nu > 0:
        values["cm_success_mixed"] = oracle_cm_success(mu, params, 0.5)
        values["cm_success_split"] = oracle_cm_success(mu, params, 1.0)
    if all(given):
        try:
            link = LinkBudget(args.p_ave, args.rep_rate, args.att_bob or 0.0, args.mu_eve_alice)
            values.update(n_photons=link.n_photons, att_path_db=link.att_path_db,
                          att_total_db=link.att_total_db, mu_apd=link.mu_apd)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    print(f"mu={mu:g}")
    for name, value in values.items():
        print(f"{name}={value:.10g}")
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
