import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bncsim.attack import SHARD_GATES, DetectorKind, Scenario
from bncsim.cli import main
from bncsim.errors import ConfigError, MissingFluxPoint
from bncsim.harness import (
    DEFAULT_FLUX_GRID,
    LANDMARK_FLUX_GRID,
    REPORT_COLUMNS,
    SweepSpec,
    emit_report,
    load_report_rows,
    parse_config_file,
    report_to_csv,
    resolve_config,
    run_sweep,
    verify_landmarks,
)
from bncsim.selfdiff import SdGateEvent
from bncsim.signal_model import DetectorParams

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_spec(**kwargs):
    defaults = dict(
        flux_grid=(0.1, 1.0),
        n_gates_per_point=10_000,
        scenario=Scenario.ATTACK_CM,
        detector=DetectorKind.BALANCED_BNC,
        seed=5,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestSweepSpec:
    def test_default_grid_shape(self):
        assert len(DEFAULT_FLUX_GRID) == 13
        assert DEFAULT_FLUX_GRID[0] == pytest.approx(0.1)
        assert DEFAULT_FLUX_GRID[-1] == pytest.approx(500.0)

    def test_grid_must_increase(self):
        with pytest.raises(ConfigError):
            small_spec(flux_grid=(1.0, 1.0))
        with pytest.raises(ConfigError):
            small_spec(flux_grid=(1.0, 0.5))

    def test_minimum_gates(self):
        with pytest.raises(ConfigError):
            small_spec(n_gates_per_point=9_999)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_flux_rejected(self, bad):
        with pytest.raises(ConfigError):
            small_spec(flux_grid=(0.1, bad))

    def test_flux_beyond_poisson_limit_rejected_before_any_gate(self, params, monkeypatch):
        import bncsim.harness as harness

        def no_gates(*args, **kwargs):
            raise AssertionError("a gate was drawn")

        monkeypatch.setattr(harness, "run_attack", no_gates)
        # qe = 0.1: 1e20 photons/pulse is a mean of 1e19 detected photons
        with pytest.raises(ConfigError, match="Poisson"):
            run_sweep(small_spec(flux_grid=(1.0, 1e20)), params)

    def test_flux_far_above_the_rail_runs(self, params):
        # 1e12 photons/pulse: 5e10 detected photons per arm and gate on the
        # split balanced pair, 1e11 on the self-differencing APD, so every
        # gate fires and every avalanche is railed; the sampler's P(k) table
        # is sized by the detector parameters, not by the largest carrier count
        for detector in (DetectorKind.BALANCED_BNC, DetectorKind.SELF_DIFFERENCING):
            spec = small_spec(
                flux_grid=(1e12,),
                n_gates_per_point=SHARD_GATES,
                detector=detector,
                scenario=Scenario.BLINDING_ONLY,
            )
            row = run_sweep(spec, params).rows[0]
            assert row.apd1_rate == params.f_gate
            assert row.strong_ratio == 1.0 and row.weak_ratio == 0.0

    def test_sd_attack_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(detector=DetectorKind.SELF_DIFFERENCING)
        small_spec(
            detector=DetectorKind.SELF_DIFFERENCING, scenario=Scenario.BLINDING_ONLY
        )


class TestDeterminism:
    def test_reports_are_byte_identical(self, params, tmp_path):
        spec = small_spec()
        p1 = emit_report(run_sweep(spec, params), tmp_path / "a.csv")
        p2 = emit_report(run_sweep(spec, params), tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
        m1 = (tmp_path / "a.csv.manifest").read_text()
        m2 = (tmp_path / "b.csv.manifest").read_text()
        assert m1 == m2

    def test_point_independent_of_grid(self, params):
        def mu1_line(grid):
            report = run_sweep(small_spec(flux_grid=grid), params)
            lines = report_to_csv(report).splitlines()
            return lines[1 + grid.index(1.0)]

        line = mu1_line((1.0, 10.0))
        assert line.startswith("1,")
        assert line == mu1_line((0.5, 1.0, 10.0))

    def test_manifest_records_shard_size(self, params, tmp_path):
        emit_report(run_sweep(small_spec(), params), tmp_path / "r.csv")
        manifest = (tmp_path / "r.csv.manifest").read_text().splitlines()
        assert f"shard_gates={SHARD_GATES}" in manifest

    def test_seed_changes_data(self, params):
        r1 = run_sweep(small_spec(seed=1), params)
        r2 = run_sweep(small_spec(seed=2), params)
        assert report_to_csv(r1) != report_to_csv(r2)

    def test_oracle_columns_ignore_seed(self, params):
        r1 = run_sweep(small_spec(seed=1), params)
        r2 = run_sweep(small_spec(seed=2), params)
        for a, b in zip(r1.rows, r2.rows):
            assert a.oracle_rate_same_phase == b.oracle_rate_same_phase
            assert a.oracle_qber == b.oracle_qber
            assert a.oracle_cm_success == b.oracle_cm_success
            assert a.oracle_regime == b.oracle_regime


class TestReportFiles:
    def test_header_only_when_grid_empty(self, params, tmp_path):
        spec = small_spec()
        report = run_sweep(spec, params)
        report.rows = []
        path = emit_report(report, tmp_path / "empty.csv")
        assert path.read_text() == ",".join(REPORT_COLUMNS) + "\n"

    def test_line_count(self, params, tmp_path):
        grid = tuple(float(x) for x in np.geomspace(0.1, 500, 8))
        report = run_sweep(small_spec(flux_grid=grid), params)
        path = emit_report(report, tmp_path / "r.csv")
        assert len(path.read_text().splitlines()) == 9

    def test_round_trip(self, params, tmp_path):
        report = run_sweep(small_spec(), params)
        path = emit_report(report, tmp_path / "r.csv")
        rows = load_report_rows(path)
        assert len(rows) == 2
        assert rows[0]["flux"] == pytest.approx(0.1)
        assert rows[0]["gates"] == 10_000
        assert rows[0]["oracle_regime"] == "ok"

    def test_table_checked_against_manifest(self, params, tmp_path):
        path = emit_report(run_sweep(small_spec(), params), tmp_path / "r.csv")
        assert len(load_report_rows(path)) == 2
        path.write_text(path.read_text().replace("\n0.1,", "\n0.2,"))
        with pytest.raises(ConfigError, match="table_sha256"):
            load_report_rows(path)
        (tmp_path / "r.csv.manifest").unlink()
        assert load_report_rows(path)[0]["flux"] == 0.2

    def test_manifest_without_digest_not_checked(self, params, tmp_path):
        # a manifest written before table_sha256 was recorded
        path = emit_report(run_sweep(small_spec(), params), tmp_path / "r.csv")
        manifest = tmp_path / "r.csv.manifest"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(x for x in lines if not x.startswith("table_sha256=")))
        path.write_text(path.read_text().replace("\n0.1,", "\n0.2,"))
        assert load_report_rows(path)[0]["flux"] == 0.2

    def test_existing_report_replaced_whole(self, params, tmp_path, monkeypatch):
        import bncsim.harness as harness

        path = tmp_path / "r.csv"
        emit_report(run_sweep(small_spec(flux_grid=(0.1, 1.0, 10.0)), params), path)
        short = run_sweep(small_spec(flux_grid=(1.0,), seed=6), params)
        emit_report(short, path)
        assert path.read_text() == report_to_csv(short)
        assert "flux=1\n" in (tmp_path / "r.csv.manifest").read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.csv.manifest"]

        # a write that fails part-way leaves the old file and no temp file
        def broken(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(harness.os, "replace", broken)
        with pytest.raises(OSError):
            emit_report(run_sweep(small_spec(seed=7), params), path)
        assert path.read_text() == report_to_csv(short)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.csv.manifest"]

    def test_bad_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("flux,qber\n1,0.25\n")
        with pytest.raises(ConfigError):
            load_report_rows(bad)


#: Gates per point of the landmark fixtures: the landmark sweep's own
#: count.  weak_ratio(0.1) rests on about 10,000 avalanches here, sd about
#: 0.003, which puts its band [0.08, 0.12] at +/- 6.7 sigma; at 100k gates
#: it was +/- 2.2 sigma.
LANDMARK_GATES = 1_000_000


@pytest.fixture(scope="module")
def landmark_rows():
    spec = SweepSpec(
        flux_grid=LANDMARK_FLUX_GRID,
        n_gates_per_point=LANDMARK_GATES,
        scenario=Scenario.ATTACK_CM,
        detector=DetectorKind.BALANCED_BNC,
        seed=12,
    )
    report = run_sweep(spec, DetectorParams.default())
    return [
        {col: getattr(row, col) for col in REPORT_COLUMNS} for row in report.rows
    ]


class TestReportRowInvariants:
    def test_ratios_and_rate_bounds(self, landmark_rows, params):
        for row in landmark_rows:
            if not math.isnan(row["weak_ratio"]):
                assert row["weak_ratio"] + row["strong_ratio"] == pytest.approx(1.0)
            for col in ("apd1_rate", "apd2_rate", "diff1_rate", "diff2_rate", "cm_rate"):
                assert row[col] <= params.f_gate

    def test_honest_sweep_without_darks(self, params):
        from dataclasses import replace

        quiet = replace(params, dcp_apd1=0.0, dcp_apd2=0.0)
        spec = small_spec(flux_grid=(0.1,), scenario=Scenario.HONEST, seed=3)
        row = run_sweep(spec, quiet).rows[0]
        assert row.qber == 0.0
        # without Eve the monitor sees only wrong-basis double detections,
        # which are rare at low flux
        assert row.cm_rate <= 3 * 1.3e-5 * params.f_gate

    def test_blinding_only_has_no_key_channel(self, params):
        spec = small_spec(flux_grid=(10.0,), scenario=Scenario.BLINDING_ONLY, seed=3)
        row = run_sweep(spec, params).rows[0]
        assert math.isnan(row.qber)
        assert row.casec_cm_frac > 0.0  # every gate is conjugate-basis

    def test_two_apd_detector_has_no_monitor_columns(self, params):
        spec = small_spec(
            flux_grid=(1.0,),
            scenario=Scenario.HONEST,
            detector=DetectorKind.BASELINE_TWO_APD,
            seed=3,
        )
        row = run_sweep(spec, params).rows[0]
        assert math.isnan(row.cm_rate) and math.isnan(row.weak_ratio)
        assert row.apd1_rate > 0.0

    def test_attack_no_cm_masks_monitor_columns(self, params):
        spec = small_spec(flux_grid=(500.0,), scenario=Scenario.ATTACK_NO_CM)
        row = run_sweep(spec, params).rows[0]
        assert math.isnan(row.cm_rate)
        assert math.isnan(row.cm_success)
        assert math.isnan(row.casec_cm_frac)
        # the difference path is the receiver itself, so it stays reported
        assert not math.isnan(row.casec_diff1_rate)

    def test_self_differencing_sweep(self, params):
        spec = small_spec(
            flux_grid=(1.0, 500.0),
            scenario=Scenario.BLINDING_ONLY,
            detector=DetectorKind.SELF_DIFFERENCING,
            n_gates_per_point=50_000,
            seed=4,
        )
        low, high = run_sweep(spec, params).rows
        # single-photon flux: ~10% weak avalanches, few cancellations
        assert abs(low.weak_ratio - 0.10) < 0.02
        assert math.isnan(low.qber)
        # a continuous bright train cancels gate against gate
        assert high.cm_rate > 0.99 * params.f_gate
        assert high.weak_ratio < 1e-3
        # one APD and no guess basis: the second-arm and case-C columns stay nan
        for col in (
            "apd2_rate", "casec_diff1_rate", "casec_diff2_rate", "casec_cm_frac", "weak_coinc_rate"
        ):
            assert math.isnan(getattr(low, col)), col
        assert low.diff1_rate > 0.0 and low.diff2_rate > 0.0 and low.cm_success > 0.0


def sd_spec(mu, gates):
    return small_spec(
        flux_grid=(mu,),
        n_gates_per_point=gates,
        scenario=Scenario.BLINDING_ONLY,
        detector=DetectorKind.SELF_DIFFERENCING,
    )


class TestSelfDifferencingShards:
    def test_register_carried_across_shards(self, params, monkeypatch):
        import bncsim.harness as harness

        calls = []
        original = harness.sd_event_codes

        def spy(amps, p, register=0.0):
            calls.append((amps, register))
            return original(amps, p, register)

        monkeypatch.setattr(harness, "sd_event_codes", spy)
        row = run_sweep(sd_spec(500.0, SHARD_GATES * 5 // 2), params).rows[0]
        assert len(calls) == 3
        assert [r for _, r in calls] == [0.0] + [a[-1] for a, _ in calls[:-1]]
        # the shards count what one pass over the joined stream counts
        counts = np.bincount(
            original(np.concatenate([a for a, _ in calls]), params), minlength=len(SdGateEvent)
        )
        per_gate = lambda count: count / row.gates * params.f_gate  # noqa: E731
        rise = counts[SdGateEvent.STRONG_RISE] + counts[SdGateEvent.WEAK_RISE]
        assert row.diff1_rate == per_gate(rise)
        assert row.diff2_rate == per_gate(counts[SdGateEvent.DELAYED_FALL])
        assert row.cm_rate == per_gate(counts[SdGateEvent.BLINDING_DETECTED])
        # a bright train cancels gate against gate: the only rise is the
        # first gate's, none at a shard boundary
        assert rise == 1

    def test_memory_bounded_by_one_shard(self, params):
        def peak(gates):
            tracemalloc.start()
            try:
                run_sweep(sd_spec(0.1, gates), params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3 * SHARD_GATES) <= 1.25 * peak(SHARD_GATES)


@pytest.mark.parametrize(
    "detector,scenario,case_filter",
    [
        (DetectorKind.SELF_DIFFERENCING, Scenario.BLINDING_ONLY, None),
        (DetectorKind.BALANCED_BNC, Scenario.ATTACK_CM, frozenset("A")),
        (DetectorKind.BALANCED_BNC, Scenario.ATTACK_CM, frozenset("C")),
        (DetectorKind.BALANCED_BNC, Scenario.ATTACK_CM, None),
    ],
)
def test_cm_success_within_5_sigma_of_oracle(params, detector, scenario, case_filter):
    # mu = 30: one arm at full flux keeps 1.7% weak avalanches, a split
    # pair 3.4%, so a column modelling the wrong gate mix is tens of sigma off
    spec = small_spec(
        flux_grid=(30.0,),
        n_gates_per_point=200_000,
        scenario=scenario,
        detector=detector,
        case_filter=case_filter,
        seed=30,
    )
    row = run_sweep(spec, params).rows[0]
    avalanches = np.nansum([row.apd1_rate, row.apd2_rate]) / params.f_gate * row.gates
    p = row.oracle_cm_success / 100.0
    sigma = 100.0 * math.sqrt(p * (1.0 - p) / avalanches)
    assert abs(row.cm_success - row.oracle_cm_success) <= 5.0 * sigma


class TestVerifyLandmarks:
    def test_compliant_report_passes(self, landmark_rows):
        results = verify_landmarks(landmark_rows)
        assert len(results) == 9
        assert all(r.passed for r in results), [r for r in results if not r.passed]

    def test_missing_flux_point(self, landmark_rows):
        with pytest.raises(MissingFluxPoint):
            verify_landmarks([r for r in landmark_rows if r["flux"] != 1.0])

    def test_monitor_disabled_fails(self, landmark_rows):
        # negative control: nan monitor columns cannot pass the CM landmarks
        rows = [dict(r) for r in landmark_rows]
        for r in rows:
            r["casec_cm_frac"] = math.nan
            r["cm_success"] = math.nan
        results = {r.name: r.passed for r in verify_landmarks(rows)}
        assert not results["cm_saturation"]
        assert not results["cm_single_photon"]
        assert results["single_photon_qber"]


class TestConfigFiles:
    def test_parse_and_resolve(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sweep configuration\n"
            "qe = 0.2\n"
            "seed = 11\n"
            "flux = 0.5,5\n"
            "gates = 20000\n"
            "scenario = honest\n"
            "detector = balanced_bnc\n"
        )
        spec, params, merged = resolve_config(parse_config_file(cfg))
        assert params.qe == 0.2
        assert spec.seed == 11
        assert spec.flux_grid == (0.5, 5.0)
        assert spec.scenario is Scenario.HONEST

    def test_cli_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 11\ngates = 20000\n")
        spec, _, _ = resolve_config(parse_config_file(cfg), {"seed": 99})
        assert spec.seed == 99
        assert spec.n_gates_per_point == 20_000

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qee = 0.2\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qe 0.2\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)

    def test_bad_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qe = fast\n")
        with pytest.raises(ConfigError):
            resolve_config(parse_config_file(cfg))

    def test_landmark_config_resolves(self):
        spec, params, merged = resolve_config(parse_config_file(CONFIGS / "landmarks.cfg"))
        assert spec.flux_grid == LANDMARK_FLUX_GRID
        assert spec.scenario is Scenario.ATTACK_CM
        assert spec.detector is DetectorKind.BALANCED_BNC
        assert spec.n_gates_per_point == 1_000_000 and spec.seed == 20260809
        assert spec.case_filter is None
        assert params == DetectorParams.default()
        assert merged["out"] == "landmarks.csv"

    def test_bad_scenario(self):
        with pytest.raises(ConfigError):
            resolve_config(None, {"scenario": "sneaky"})


class TestCli:
    def test_sweep_verify_round_trip(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        flux = ",".join(str(x) for x in LANDMARK_FLUX_GRID)
        assert (
            main(
                [
                    "sweep",
                    "--flux",
                    flux,
                    "--gates",
                    str(LANDMARK_GATES),
                    "--seed",
                    "12",
                    "--scenario",
                    "attack_cm",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        manifest = (tmp_path / "report.csv.manifest").read_text().splitlines()
        assert f"table_sha256={hashlib.sha256(out.read_bytes()).hexdigest()}" in manifest
        assert main(["verify", str(out)]) == 0
        captured = capsys.readouterr()
        assert "9/9 landmarks passed" in captured.out

    def test_verify_fails_without_monitor(self, tmp_path, capsys):
        out = tmp_path / "no_cm.csv"
        flux = ",".join(str(x) for x in LANDMARK_FLUX_GRID)
        main(
            [
                "sweep",
                "--flux",
                flux,
                "--gates",
                "100000",
                "--seed",
                "12",
                "--scenario",
                "attack_no_cm",
                "--out",
                str(out),
            ]
        )
        assert main(["verify", str(out)]) == 1
        assert "FAIL cm_saturation" in capsys.readouterr().out

    def test_verify_missing_point(self, tmp_path, capsys):
        out = tmp_path / "short.csv"
        main(["sweep", "--flux", "0.1,1", "--gates", "10000", "--out", str(out)])
        assert main(["verify", str(out)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::bncsim.analytics.RegimeWarning")
    def test_oracle_output(self, capsys):
        assert main(["oracle", "--mu", "100"]) == 0
        out = capsys.readouterr().out
        assert "p1=0.01338509414" in out
        assert "attack_qber=0.006604445782" in out

    def test_oracle_budget_chain(self, capsys):
        assert (
            main(
                [
                    "oracle",
                    "--mu",
                    "1",
                    "--p-ave",
                    "1e-6",
                    "--rep-rate",
                    "2e6",
                    "--mu-eve-alice",
                    "100",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "n_photons=3901430.85" in out
        assert "att_path_db=45.91" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mu", "-1"],
            ["--mu", "nan"],
            ["--mu", "inf"],
            ["--mu", "1", "--p-ave", "1e-6", "--rep-rate", "2e6", "--mu-eve-alice", "1e9"],
            ["--mu", "1", "--p-ave", "1e-6", "--rep-rate", "0", "--mu-eve-alice", "100"],
            ["--mu", "1", "--p-ave", "1e-6", "--rep-rate", "2e6", "--mu-eve-alice", "100",
             "--att-bob", "-3"],
            ["--mu", "1", "--p-ave", "1e-6"],
            ["--mu", "1", "--att-bob", "3"],
        ],
        ids=[
            "mu-negative", "mu-nan", "mu-inf", "budget-amplifies", "rep-rate-0",
            "att-bob-negative", "p-ave-alone", "att-bob-alone",
        ],
    )
    def test_oracle_bad_input_exits_2_without_output(self, argv, capsys):
        assert main(["oracle", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_zero_qe_writes_nan_oracle_column(self, tmp_path, capsys):
        cfg = tmp_path / "qe0.cfg"
        cfg.write_text("qe = 0\n")
        out = tmp_path / "qe0.csv"
        argv = ["sweep", "--config", str(cfg), "--flux", "0.1,1", "--gates", "10000"]
        assert main([*argv, "--out", str(out)]) == 0
        rows = load_report_rows(out)
        assert len(rows) == 2 and all(math.isnan(row["oracle_cm_success"]) for row in rows)
        capsys.readouterr()
        # the oracle command omits the monitor yield, as it does at mu = 0
        assert main(["oracle", "--mu", "1", "--qe", "0"]) == 0
        captured = capsys.readouterr()
        assert "p_s=0\n" in captured.out and "cm_success" not in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("where", ["missing-directory", "directory", "manifest-directory"])
    def test_bad_out_path_exits_2_before_any_gate(self, where, tmp_path, capsys, monkeypatch):
        import bncsim.attack as attack

        def no_gates(*args, **kwargs):
            raise AssertionError("a gate was drawn")

        monkeypatch.setattr(attack, "_run_sharded", no_gates)
        out = {
            "missing-directory": tmp_path / "missing" / "report.csv",
            "directory": tmp_path,
            "manifest-directory": tmp_path / "report.csv",
        }[where]
        (tmp_path / "report.csv.manifest").mkdir()
        assert main(["sweep", "--flux", "0.1,500", "--gates", "10000", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists() and not (tmp_path / "report.csv").exists()

    def test_table1_counts(self, capsys):
        # tiny statistics: only check the enumeration structure, not matches
        main(["table1", "--gates", "20000"])
        out = capsys.readouterr().out
        assert "rows: 16, case C rows: 8" in out

    @pytest.mark.parametrize("flux", ["0.1,nan", "0.1,inf", "0.1,1e20"])
    def test_bad_flux_exits_2_without_report(self, flux, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        argv = ["sweep", "--flux", flux, "--gates", "10000", "--out", str(out)]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_detector_params_exit_2_without_report(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("gain_mean = nan\nf_gate = nan\n")
        out = tmp_path / "nan.csv"
        argv = ["sweep", "--config", str(cfg), "--flux", "0.1,500", "--gates", "10000"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "must be finite" in err
        assert not out.exists()
        assert main(["oracle", "--mu", "1", "--f-gate", "nan"]) == 2

    def test_oversized_weak_table_exits_2_before_any_gate(self, tmp_path, capsys, monkeypatch):
        import bncsim.cli as cli

        def no_gates(*args, **kwargs):
            raise AssertionError("a gate was drawn")

        monkeypatch.setattr(cli, "run_sweep", no_gates)
        cfg = tmp_path / "tiny_gain.cfg"
        cfg.write_text("gain_mean = 1e-9\n")
        out = tmp_path / "tiny_gain.csv"
        argv = ["sweep", "--config", str(cfg), "--flux", "0.1,500", "--gates", "10000"]
        assert main([*argv, "--out", str(out)]) == 2
        assert "t_strong / gain_mean" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_rejects_table_changed_after_manifest(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        main(["sweep", "--flux", "0.1,1", "--gates", "10000", "--out", str(out)])
        lines = out.read_text().splitlines()
        lines[2] = lines[2].replace(",", ",9", 1)  # flux 1: gates 10000 -> 910000
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "table_sha256" in err

    @pytest.mark.parametrize(
        "detector,scenario,labels",
        [
            ("self_differencing", "blinding_only", "Z"),
            ("self_differencing", "blinding_only", "C"),
            ("self_differencing", "honest", "A"),
            ("balanced_bnc", "blinding_only", "C"),
            ("balanced_bnc", "attack_cm", "Z"),
            ("baseline_two_apd", "honest", "A,X"),
        ],
    )
    def test_bad_case_filter_exits_2_before_any_gate(
        self, detector, scenario, labels, tmp_path, capsys, monkeypatch
    ):
        import bncsim.cli as cli

        def no_gates(*args, **kwargs):
            raise AssertionError("a gate was drawn")

        monkeypatch.setattr(cli, "run_sweep", no_gates)
        out = tmp_path / "filtered.csv"
        argv = ["sweep", "--detector", detector, "--scenario", scenario, "--case-filter", labels]
        assert main([*argv, "--flux", "0.1,500", "--gates", "10000", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nope = 1\n")
        assert main(["sweep", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("gates", ["0", "-5"])
    def test_table1_bad_gates_exits_2_without_rows(self, gates, capsys, monkeypatch):
        import bncsim.cli as cli

        def no_gates(*args, **kwargs):
            raise AssertionError("a row was simulated")

        monkeypatch.setattr(cli, "evaluate_case_row", no_gates)
        assert main(["table1", "--gates", gates]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "--gates" in captured.err

    def test_verify_non_numeric_cell_exits_2(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        main(["sweep", "--flux", "0.1,1", "--gates", "10000", "--out", str(out)])
        lines = out.read_text().splitlines()
        lines[1] = "x," + lines[1].split(",", 1)[1]  # flux 0.1 -> x
        out.write_text("\n".join(lines) + "\n")
        (tmp_path / "report.csv.manifest").unlink()
        capsys.readouterr()
        assert main(["verify", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "flux" in err

    def test_verify_directory_exits_2(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("seed = 1  # caf\xe9\n".encode("latin-1"))
        out = tmp_path / "latin1.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "UTF-8" in err
        assert not out.exists()
