import hashlib
import itertools
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

import bncsim
import bncsim.attack as attack
from bncsim.attack import (
    ARM_WEIGHTS,
    POISSON_LAM_MAX,
    SHARD_GATES_MAX,
    DetectorKind,
    GateTally,
    Scenario,
    arm_law,
    protocol_classes,
    shard_size,
)
from bncsim.balanced import GateEvent
from bncsim.cli import main
from bncsim.errors import ConfigError, MissingFluxPoint
from bncsim.harness import (
    DEFAULT_FLUX_GRID,
    LANDMARK_FLUX_GRID,
    REPORT_COLUMNS,
    RunReport,
    SweepSpec,
    config_lines,
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
from reference import run_law, sd_point_dense, sd_stream

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
#: The manifest keys that record a run's provenance; the other lines are
#: its configuration.
PROVENANCE_KEYS = ("config_sha256", "table_sha256", "package", "python", "numpy", "shard_gates")


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

    def test_empty_grid_rejected(self):
        # an empty grid would write `flux=`, which reads back as the default grid
        for empty in ((), [], None, np.array([])):
            with pytest.raises(ConfigError, match="at least one flux"):
                small_spec(flux_grid=empty)
        spec, _, _ = resolve_config(None, {"gates": 10_000})
        assert spec.flux_grid == DEFAULT_FLUX_GRID

    def test_minimum_gates(self):
        with pytest.raises(ConfigError):
            small_spec(n_gates_per_point=9_999)

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("n_gates_per_point", 2.5e4),
            ("n_gates_per_point", True),
            ("seed", 1.5),
            ("seed", True),
            ("seed", "3"),
        ],
        ids=["float-gates", "bool-gates", "fractional-seed", "bool-seed", "str-seed"],
    )
    def test_non_integer_gates_and_seed_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            small_spec(**{field: bad})

    def test_numpy_integer_gates_and_seed_become_python_ints(self):
        spec = small_spec(n_gates_per_point=np.int64(20_000), seed=np.uint64(7))
        assert type(spec.n_gates_per_point) is int and spec.n_gates_per_point == 20_000
        assert type(spec.seed) is int and spec.seed == 7

    @pytest.mark.parametrize(
        "bad",
        [(True, 2.0), (np.bool_(False), 1.0), ("0.5",), (None,)],
        ids=["bool", "numpy-bool", "str", "none"],
    )
    def test_non_real_flux_rejected(self, bad):
        with pytest.raises(ConfigError, match="flux must be a real number"):
            small_spec(flux_grid=bad)

    def test_numpy_real_fluxes_become_floats(self):
        for grid in ((np.float32(0.5), np.int64(2), 3), np.array([0.5, 2.0, 3.0])):
            spec = small_spec(flux_grid=grid)
            assert spec.flux_grid == (0.5, 2.0, 3.0)
            assert all(type(x) is float for x in spec.flux_grid)

    @pytest.mark.parametrize(
        "bad", [0.5, np.float64(0.5), np.array(0.5)], ids=["float", "numpy-float", "0-d-array"]
    )
    def test_bare_number_grid_rejected(self, bad):
        with pytest.raises(ConfigError, match="at least one flux"):
            small_spec(flux_grid=bad)

    def test_scenario_and_detector_names_become_members(self, params):
        # honest on the self-differencing receiver is refused by name too
        with pytest.raises(ConfigError, match="blinding_only"):
            SweepSpec((1.0,), 10_000, scenario="honest", detector="self_differencing")
        named = small_spec(scenario="blinding_only", detector="self_differencing")
        assert named.scenario is Scenario.BLINDING_ONLY
        assert named.detector is DetectorKind.SELF_DIFFERENCING
        member = small_spec(scenario=Scenario.BLINDING_ONLY, detector=DetectorKind.SELF_DIFFERENCING)
        assert report_to_csv(run_sweep(named, params)) == report_to_csv(run_sweep(member, params))

    @pytest.mark.parametrize("field", ["scenario", "detector"])
    def test_unknown_scenario_or_detector_rejected(self, field):
        with pytest.raises(ConfigError, match=f"{field} must be one of"):
            small_spec(**{field: "sneaky"})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_flux_rejected(self, bad):
        with pytest.raises(ConfigError, match="flux must be finite and non-negative"):
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
                n_gates_per_point=1_000_000,
                detector=detector,
                scenario=Scenario.BLINDING_ONLY,
            )
            row = run_sweep(spec, params).rows[0]
            assert row.apd1_rate == params.f_gate
            assert row.strong_ratio == 1.0 and row.weak_ratio == 0.0
        # the attack on both pair readouts, up to 1e15 detected photons per
        # lit arm: a lit class's signal total then passes numpy's largest
        # Poisson mean and is drawn in chunks.  Every lit arm fires and
        # rails, so no click lands on the wrong arm and every case-C gate
        # is flagged.
        classes = protocol_classes(Scenario.ATTACK_CM)
        lit1 = float(classes.weight[classes.delta != 2].sum())
        p_fired = lit1 + (1.0 - lit1) * params.dcp_apd1
        assert 1_000_000 * float(classes.weight.min()) * 1e15 > POISSON_LAM_MAX
        for detector, scenario in (
            (DetectorKind.BALANCED_BNC, Scenario.ATTACK_CM),
            (DetectorKind.BASELINE_TWO_APD, Scenario.ATTACK_NO_CM),
        ):
            spec = small_spec(
                flux_grid=(1e12, 1e16),
                n_gates_per_point=1_000_000,
                scenario=scenario,
                detector=detector,
            )
            for row in run_sweep(spec, params).rows:
                sigma = math.sqrt(p_fired * (1.0 - p_fired) / row.gates)
                assert abs(row.apd1_rate / params.f_gate - p_fired) <= 5.0 * sigma
                assert row.qber == 0.0
                if detector is DetectorKind.BALANCED_BNC:
                    assert row.casec_cm_frac == 1.0

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

    def test_point_independent_of_grid(self, params, monkeypatch):
        """A point's row, shards included, is the same on any grid.  The
        rule's work is scaled down so that the points' shard sizes differ
        and some point spans several shards."""
        for detector, scenario, work in (
            (DetectorKind.BALANCED_BNC, Scenario.ATTACK_CM, 2.0),
            (DetectorKind.SELF_DIFFERENCING, Scenario.BLINDING_ONLY, 200.0),
        ):
            monkeypatch.setattr(attack, "SHARD_WORK", work)
            shards = [shard_size(mu, params, scenario, detector) for mu in (1.0, 10.0)]
            assert shards[0] > shards[1] and 20_000 > 2 * shards[1]

            def row_lines(grid):
                spec = small_spec(
                    flux_grid=grid, n_gates_per_point=20_000, detector=detector, scenario=scenario
                )
                lines = report_to_csv(run_sweep(spec, params)).splitlines()
                return [lines[1 + grid.index(mu)] for mu in (1.0, 10.0)]

            lines = row_lines((1.0, 10.0))
            assert lines[0].startswith("1,") and lines[1].startswith("10,")
            assert lines == row_lines((0.5, 1.0, 10.0, 30.0))

    def test_manifest_records_shard_size(self, params, tmp_path):
        """One shard size per point, in flux order: the balanced pair's
        weak-weak gates peak near mu = 20 and vanish at high flux."""
        grid = (0.1, 10.0, 30.0, 500.0)
        emit_report(run_sweep(small_spec(flux_grid=grid), params), tmp_path / "r.csv")
        manifest = (tmp_path / "r.csv.manifest").read_text().splitlines()
        setting = Scenario.ATTACK_CM, DetectorKind.BALANCED_BNC
        sizes = [shard_size(mu, params, *setting) for mu in grid]
        assert f"shard_gates={','.join(map(str, sizes))}" in manifest
        assert sizes[0] > sizes[1] > 1_000_000 and sizes[1] < sizes[3] == SHARD_GATES_MAX

    def test_manifest_lists_the_configuration_once_exactly(self, tmp_path):
        """The manifest opens with the config lines, then their digest;
        every other line is provenance, and the lines read back to the
        same spec and parameters, floats and all."""
        spec, params, _ = resolve_config(
            None, {"qe": 0.1234567890123, "flux": "0.1,1.00000000001", "seed": 2**64 - 1}
        )
        emit_report(run_sweep(spec, params), tmp_path / "r.csv")
        config = config_lines(spec, params)
        manifest = (tmp_path / "r.csv.manifest").read_text().splitlines()
        assert manifest[: len(config)] == config
        digest = hashlib.sha256("\n".join(config).encode()).hexdigest()
        assert manifest[len(config)] == f"config_sha256={digest}"
        assert [line.split("=")[0] for line in manifest[len(config) :]] == list(PROVENANCE_KEYS)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(config))
        assert resolve_config(parse_config_file(cfg))[:2] == (spec, params)

    @pytest.mark.parametrize(
        "change", [{"qe": 0.10000000001}, {"flux": "0.1,1.00000000001"}], ids=["qe", "flux"]
    )
    def test_config_digest_sees_past_ten_digits(self, change, tmp_path):
        """Settings that differ only past the table's 10 significant
        digits write different configuration digests."""
        digests = set()
        for i, overrides in enumerate(({}, change)):
            spec, params, _ = resolve_config(None, {"qe": 0.1, "flux": "0.1,1", **overrides})
            emit_report(RunReport(spec, params), tmp_path / f"{i}.csv")
            manifest = (tmp_path / f"{i}.csv.manifest").read_text().splitlines()
            digests.update(line for line in manifest if line.startswith("config_sha256="))
        assert len(digests) == 2

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

    def test_older_manifest_format_still_checked(self, params, tmp_path):
        """A manifest in the earlier format, which restated five settings
        with the flux rounded to 10 digits, still loads its table and
        still checks the table's digest."""
        grid = (0.1, 1.23456789012)
        path = emit_report(run_sweep(small_spec(flux_grid=grid), params), tmp_path / "r.csv")
        (tmp_path / "r.csv.manifest").write_text(
            "seed=5\n"
            f"config_sha256={'0' * 64}\n"
            f"table_sha256={hashlib.sha256(path.read_bytes()).hexdigest()}\n"
            "package=bncsim-0.1.0\npython=3.11.0\nnumpy=1.26.0\n"
            "scenario=attack_cm\ndetector=balanced_bnc\ngates=10000\n"
            "shard_gates=1000000,1000000\n"
            "flux=0.1,1.23456789\n"
        )
        assert [row["flux"] for row in load_report_rows(path)] == [0.1, 1.23456789]
        path.write_text(path.read_text().replace("\n0.1,", "\n0.2,"))
        with pytest.raises(ConfigError, match="table_sha256"):
            load_report_rows(path)

    @pytest.mark.parametrize(
        "config,overrides",
        [
            pytest.param(None, {"gates": 10_000, "seed": 3}, id="default-grid"),
            pytest.param(CONFIGS / "landmarks.cfg", {"gates": 20_000}, id="landmarks"),
            pytest.param(
                None,
                {
                    "detector": "self_differencing",
                    "scenario": "blinding_only",
                    "qe": 0.1234567890123,
                    "t_diff": 0.01234567890123,
                    "flux": "0.1234567890123,12.34567890123",
                    "gates": 10_000,
                },
                id="self-differencing-13-digits",
            ),
        ],
    )
    def test_manifest_reruns_its_report(self, config, overrides, tmp_path, capsys):
        """The manifest without its provenance lines is a config file that
        re-runs the sweep to the same table and manifest, byte for byte."""
        file_values = parse_config_file(config) if config else None
        spec, params, _ = resolve_config(file_values, overrides)
        path = emit_report(run_sweep(spec, params), tmp_path / "r.csv")
        manifest = (tmp_path / "r.csv.manifest").read_text()
        cfg = tmp_path / "rerun.cfg"
        cfg.write_text(
            "".join(
                f"{line}\n"
                for line in manifest.splitlines()
                if line.split("=")[0] not in PROVENANCE_KEYS
            )
        )
        again = tmp_path / "again.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(again)]) == 0
        assert again.read_bytes() == path.read_bytes()
        assert (tmp_path / "again.csv.manifest").read_text() == manifest

    def test_existing_report_replaced_whole(self, params, tmp_path, monkeypatch):
        import bncsim.harness as harness

        path = tmp_path / "r.csv"
        emit_report(run_sweep(small_spec(flux_grid=(0.1, 1.0, 10.0)), params), path)
        short = run_sweep(small_spec(flux_grid=(1.0,), seed=6), params)
        emit_report(short, path)
        assert path.read_text() == report_to_csv(short)
        assert "flux=1.0\n" in (tmp_path / "r.csv.manifest").read_text()
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
        # a row one cell short, with no manifest whose digest would fire first
        short = tmp_path / "short.csv"
        header, row = ",".join(REPORT_COLUMNS), ",".join(["1"] * (len(REPORT_COLUMNS) - 1))
        short.write_text(f"{header}\n{row}\n")
        with pytest.raises(ConfigError, match="malformed report line"):
            load_report_rows(short)


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


#: Railed levels of self-differencing gates: empty, weak levels at least
#: t_diff apart, one within t_diff of the rail, and the rail itself.
SD_LEVELS = st.sampled_from([0.0, 0.01, 0.05, 0.1, DetectorParams.default().t_strong])
#: Weak amplitudes: inside each bin of the lone weak gates' cuts (t_diff =
#: 0.01 and t_strong - t_diff = 0.0954), one on the t_diff cut itself.
SD_WEAK = st.sampled_from([0.005, 0.01, 0.05, 0.1])
#: Operating point of the exact-law tests: every gate state is common.
SD_HIGH_RAIL = dict(t_strong=3.0, t_diff=1.0, dcp_apd1=0.05)


def sd_spec(mu, gates):
    return small_spec(
        flux_grid=(mu,),
        n_gates_per_point=gates,
        scenario=Scenario.BLINDING_ONLY,
        detector=DetectorKind.SELF_DIFFERENCING,
    )


def shard_skeleton(states):
    """The :class:`~bncsim.harness.SdSkeleton` of a list of gate states (0
    EMPTY, 1 WEAK, 2 RAILED), with the indices of its explicit weak gates
    in walk order (head, longer runs, tail) and of its lone weak gates by
    pair type, read off the sequence."""
    import bncsim.harness as harness

    n = len(states)
    level = [s // 2 for s in states]
    nonweak = [i for i, s in enumerate(states) if s != 1]
    runs = [
        list(run)
        for weak, run in itertools.groupby(range(n), lambda i: states[i] == 1)
        if weak
    ]
    head = runs.pop(0) if runs and runs[0][0] == 0 else []
    tail = runs.pop() if runs and runs[-1][-1] == n - 1 else []
    pairs, lone = np.zeros(4, np.int64), np.zeros(4, np.int64)
    for i, j in zip(nonweak, nonweak[1:]):
        pairs[2 * level[i] + level[j]] += j == i + 1
    lone_at, longer = [[] for _ in range(4)], []
    for run in runs:
        kind = 2 * level[run[0] - 1] + level[run[-1] + 1]
        if len(run) == 1:
            lone[kind] += 1
            lone_at[kind].append(run[0])
        else:
            longer.append((kind, run))
    longer.sort(key=lambda item: item[0])
    sk = harness.SdSkeleton(
        empty=states.count(0),
        railed=states.count(2),
        first=level[nonweak[0]] if nonweak else 0,
        last=level[nonweak[-1]] if nonweak else 0,
        head=len(head),
        tail=len(tail),
        pairs=pairs,
        lone=lone,
        runs=np.array([len(run) for _, run in longer], np.int64),
        run_types=np.array([kind for kind, _ in longer], np.int64),
    )
    return sk, head + [i for _, run in longer for i in run] + tail, lone_at


def skeleton_key(sk):
    """A skeleton as a hashable outcome; its longer runs as a multiset."""
    return (
        *sk[:6],
        tuple(sk.pairs.tolist()),
        tuple(sk.lone.tolist()),
        tuple(sorted(zip(sk.run_types.tolist(), sk.runs.tolist()))),
    )


def assert_same_law(drawn, reference):
    """Two samples of outcomes (Counters) pass a chi-square homogeneity
    test at p > 1e-6, outcomes seen fewer than 10 times in all pooled."""
    keys = sorted(set(drawn) | set(reference))
    table = np.array([[c[k] for k in keys] for c in (drawn, reference)])
    rare = table.sum(0) < 10
    table = np.column_stack([table[:, ~rare], table[:, rare].sum(1)])
    table = table[:, table.sum(0) > 0]
    assert stats.chi2_contingency(table)[1] > 1e-6


def sd_outcomes(tally):
    """The counters :func:`reference.sd_point_dense` gives, in its order."""
    return tally.click1, tally.click2, tally.blind, tally.fired1, tally.strong, tally.pe1


class TestSelfDifferencingShards:
    def test_register_carried_across_shards(self, params, monkeypatch, fixed_shards):
        """Each shard's stream starts from the level the previous shard
        ended on: the last tail amplitude when it ended weak, else its
        last non-weak level.  At mu = 500 every gate rails, and a bright
        train cancels gate against gate: the only rise is the first
        gate's, none at a shard boundary."""
        import bncsim.harness as harness

        shards, streams = [], []
        original_skeleton, original_weak = harness._sd_skeleton, harness._weak_gates
        original_coder = harness.sd_event_codes

        def spy_skeleton(*args):
            shards.append([original_skeleton(*args)])
            return shards[-1][0]

        def spy_weak(*args):
            result = original_weak(*args)
            shards[-1].append(result)
            return result

        def spy_coder(stream, *args):
            codes = original_coder(stream, *args)
            streams.append((stream[0], codes))
            return codes

        monkeypatch.setattr(harness, "_sd_skeleton", spy_skeleton)
        monkeypatch.setattr(harness, "_weak_gates", spy_weak)
        monkeypatch.setattr(harness, "sd_event_codes", spy_coder)
        fixed_shards(1_000_000)
        gates = 2_500_000
        tally = harness._run_sd_point(500.0, gates, params, np.random.SeedSequence(5))
        assert [lead for lead, _ in streams] == [0.0, params.t_strong, params.t_strong]
        assert (tally.click1, tally.click2, tally.blind) == (1, 0, gates - 1)
        # the head walk's first weighted entry is the shard's first gate
        assert streams[0][1][1] == SdGateEvent.STRONG_RISE
        assert all(codes[1] == SdGateEvent.BLINDING_DETECTED for _, codes in streams[1:])

        shards.clear(), streams.clear()
        high_rail = replace(params, **SD_HIGH_RAIL)
        fixed_shards(4)
        harness._run_sd_point(20.0, 400, high_rail, np.random.SeedSequence(5))
        ends = [
            amps[-1] if sk.tail or not sk.empty + sk.railed else sk.last * high_rail.t_strong
            for sk, amps in shards
        ]
        assert [lead for lead, _ in streams] == [0.0] + ends[:-1]
        ended_weak = sum(bool(sk.tail or not sk.empty + sk.railed) for sk, _ in shards)
        assert 0 < ended_weak < len(shards) == 100

    @given(
        gates=st.lists(
            st.one_of(st.sampled_from(["empty", "railed"]), SD_WEAK), min_size=1, max_size=40
        ),
        register=SD_LEVELS,
    )
    @example(gates=["railed"] * 5, register=0.0)  # no weak gate
    @example(gates=[0.05] * 5, register=0.0)  # every gate weak: one head run
    @example(gates=[0.05, "railed", "empty", 0.1], register=0.0)  # lone head and tail
    @example(gates=["empty", 0.1, 0.01, "railed", 0.05, "empty"], register=0.1)  # runs of 1, 2
    @example(gates=["railed", 0.005, "empty", 0.1, "railed", 0.05, "railed"], register=0.0)
    def test_compressed_stream_counts_as_dense(self, gates, register):
        """The walks of a skeleton read off a dense gate list, with its
        explicit amplitudes and its lone weak gates' bin counts, count
        what a pass over every gate counts.  ``gates`` holds each weak
        gate's amplitude and "empty" or "railed" for the others."""
        import bncsim.harness as harness

        params = DetectorParams.default()
        level = {"empty": 0.0, "railed": params.t_strong}
        dense = np.array([level.get(g, g) for g in gates])
        states = [{"empty": 0, "railed": 2}.get(g, 1) for g in gates]
        sk, explicit, lone_at = shard_skeleton(states)
        readout = harness._sd_readout(params)
        lone_bins = [
            np.bincount(np.searchsorted(cuts, dense[at], side="right"), minlength=len(cuts) + 1)
            for cuts, at in zip(readout.cuts, lone_at)
        ]
        stream, weights, carried = harness._sd_walks(
            sk, dense[explicit], lone_bins, readout, register
        )
        # 4 for the head's and tail's leads and exits, 38 for the fixed walks
        assert stream.size <= 2 * len(explicit) + 42
        counts = np.bincount(harness.sd_event_codes(stream, params), weights, len(GateEvent))
        # the dense stream led by the register, whose own code is dropped
        led = harness.sd_event_codes(np.concatenate(([register], dense)), params)[1:]
        expected = np.bincount(led, minlength=len(GateEvent))
        assert counts.tolist() == expected.tolist()
        names = Counter(sd_stream(dense.tolist(), params.t_strong, params.t_diff, register))
        assert {e.name: counts[e] for e in SdGateEvent if counts[e]} == names
        assert carried == dense[-1]

    @pytest.mark.parametrize("t_diff", [0.5, 0.7])
    def test_lone_cuts_sorted_and_deduplicated(self, params, t_diff):
        """With t_diff at or past t_strong - t_diff the cuts of a lone weak
        gate between EMPTY and RAILED swap or coincide; they stay sorted
        and distinct, and every sequence of 4 gates, with weak gates in
        each bin, still codes as its dense stream."""
        import bncsim.harness as harness

        p = replace(params, t_strong=1.0, t_diff=t_diff)
        readout = harness._sd_readout(p)
        mixed = tuple(sorted({t_diff, 1.0 - t_diff}))
        assert readout.cuts == ((t_diff,), mixed, mixed, (1.0 - t_diff,))
        amps = [0.2, 0.45, 0.6, 0.9]
        for states in itertools.product(range(3), repeat=4):
            for amp in amps:
                dense = np.array([(0.0, amp, 1.0)[s] for s in states])
                sk, explicit, lone_at = shard_skeleton(list(states))
                lone_bins = [
                    np.bincount(np.searchsorted(c, dense[at], side="right"), minlength=len(c) + 1)
                    for c, at in zip(readout.cuts, lone_at)
                ]
                stream, weights, _ = harness._sd_walks(sk, dense[explicit], lone_bins, readout, 0.0)
                counts = np.bincount(harness.sd_event_codes(stream, p), weights, len(GateEvent))
                expected = np.bincount(harness.sd_event_codes(dense, p), minlength=len(GateEvent))
                assert counts.tolist() == expected.tolist(), (states, amp)

    @pytest.mark.parametrize("length", range(9))
    @pytest.mark.parametrize("q", [0.0, 0.2, 0.63, 1.0])
    def test_run_law_matches_enumeration(self, length, q):
        """Each run's (EMPTY count, first, last, EE, ER, RE, RR), drawn by
        :func:`reference.run_law` (the engine's run law, vectorized),
        follows the law of ``length`` i.i.d. gates, enumerated over every
        sequence: within 5 sigma in each outcome, and nothing outside the
        support.  The pair counts of a drawn run are its
        :func:`_pair_totals`.  Length 0 is two adjacent weak gates, q = 0
        and 1 the runs with m = 0 and m = L; the alternating sequences are
        the r = L - m + 1 runs, where a run can neither start nor end
        railed."""
        import bncsim.harness as harness

        law = Counter()
        for seq in itertools.product((0, 1), repeat=length):  # 1 is RAILED
            m = seq.count(0)
            pairs = Counter(zip(seq, seq[1:]))
            counts = (pairs[0, 0], pairs[0, 1], pairs[1, 0], pairs[1, 1])
            law[(m, seq[:1] == (1,), seq[-1:] == (1,), *counts)] += q**m * (1.0 - q) ** (length - m)
        n = 200_000
        runs = run_law(np.full(n, length), q, np.random.default_rng(length))
        drawn = Counter()
        for (m, r, first, last), count in Counter(zip(*(a.tolist() for a in runs))).items():
            (ee, er), (re, rr) = harness._pair_totals(length, m, r, first, last)
            drawn[m, first, last, ee, er, re, rr] += count
        assert set(drawn) <= {key for key, p in law.items() if p > 0.0}
        for key, p in law.items():
            assert abs(drawn[key] - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p)), key

    @pytest.mark.parametrize(
        "length,q",
        [*itertools.product(range(9), [0.0, 0.2, 0.63, 1.0])]
        + [*itertools.product([10**6, 2**29], [1e-9, 0.5, 0.999, 1.0 - 1e-9])],
    )
    def test_run_law_is_reference_on_one_run(self, length, q):
        """The engine's one-run :func:`_run_law` is :func:`reference.run_law`
        on a one-element array, draw for draw: the same (m, r, first,
        last) as Python ints, and the generator left in the same state,
        over 200 seeds, on the enumeration grid and on shard-sized runs
        up to the largest shard, 2**29 gates."""
        import bncsim.harness as harness

        for seed in range(200):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = harness._run_law(length, q, ours)
            expected = tuple(int(x[0]) for x in run_law(np.array([length]), q, theirs))
            assert all(type(x) is int for x in drawn)
            assert drawn == expected, seed
            assert ours.random() == theirs.random(), seed

    @pytest.mark.parametrize("n", range(1, 7))
    def test_skeleton_matches_enumeration(self, n):
        """The drawn :class:`SdSkeleton` of ``n`` gates follows the law of
        the skeletons of all 3**n state sequences: within 5 sigma in each
        outcome, and nothing outside the support.  Its longer runs count
        as a multiset of (type, size)."""
        import bncsim.harness as harness

        p = (0.2, 0.4, 0.4)  # EMPTY, WEAK, RAILED
        law = Counter()
        for seq in itertools.product(range(3), repeat=n):
            law[skeleton_key(shard_skeleton(list(seq))[0])] += math.prod(p[s] for s in seq)
        draws, rng = 1_500, np.random.default_rng(n)
        drawn = Counter(
            skeleton_key(harness._sd_skeleton(n, p[1], p[0] / (p[0] + p[2]), rng))
            for _ in range(draws)
        )
        assert set(drawn) <= {key for key, prob in law.items() if prob > 0.0}
        for key, prob in law.items():
            assert abs(drawn[key] - draws * prob) <= 5.0 * math.sqrt(draws * prob * (1.0 - prob)), key

    @pytest.mark.parametrize("shard,sizes", [(None, range(1, 10)), (3, range(4, 10))])
    def test_point_matches_dense_reference(self, params, fixed_shards, shard, sizes):
        """(n, click1, click2, blind, fired1) of points of n gates has the
        joint law of the same gates drawn and read one by one
        (:func:`reference.sd_point_dense`), in one shard and across
        ``shard``-gate shards, where the register carries the stream."""
        import bncsim.harness as harness

        if shard:
            fixed_shards(shard)
        hr = replace(params, **SD_HIGH_RAIL)
        mu, draws, rng = 20.0, 200, np.random.default_rng(shard or 0)
        args = mu * hr.qe, hr.dcp_apd1, hr.gain_mean, hr.t_strong, hr.t_diff, rng
        drawn, dense = Counter(), Counter()
        for n in sizes:
            for i in range(draws):
                seed_seq = np.random.SeedSequence([shard or 0, n, i])
                drawn[(n, *sd_outcomes(harness._run_sd_point(mu, n, hr, seed_seq))[:4])] += 1
                dense[(n, *sd_point_dense(n, *args)[:4])] += 1
        assert_same_law(drawn, dense)

    @pytest.mark.parametrize("mu", [5.0, 20.0])
    def test_point_counters_match_dense_reference(self, params, fixed_shards, mu):
        """Each counter of 100k-gate points in 10k-gate shards agrees with
        :func:`reference.sd_point_dense` within 5 sigma (Welch, 20 points
        a side), where every gate state is common."""
        import bncsim.harness as harness

        fixed_shards(10_000)
        hr = replace(params, **SD_HIGH_RAIL)
        n, points, rng = 100_000, 20, np.random.default_rng(int(mu))
        args = mu * hr.qe, hr.dcp_apd1, hr.gain_mean, hr.t_strong, hr.t_diff, rng
        drawn = np.array([
            sd_outcomes(harness._run_sd_point(mu, n, hr, np.random.SeedSequence([int(mu), i])))
            for i in range(points)
        ])
        dense = np.array([sd_point_dense(n, *args) for _ in range(points)])
        spread = np.sqrt((drawn.var(0, ddof=1) + dense.var(0, ddof=1)) / points)
        z = (drawn.mean(0) - dense.mean(0)) / spread
        assert (np.abs(z) < 5.0).all(), z

    def test_point_at_the_edges_of_the_state_law(self, params):
        """At mu = 0 without dark counts every gate is empty; past the end
        of the P(k) table no gate is weak or empty and every gate rails;
        with a rail far above one carrier's gain every gate is weak, and
        every run between them empty.  At mu = 0 with dark counts there
        are no signal photons."""
        import bncsim.harness as harness

        n = 1_010_000
        dark_free = replace(params, dcp_apd1=0.0)
        quiet = harness._run_sd_point(0.0, n, dark_free, np.random.SeedSequence(7))
        assert quiet == GateTally(gates=n)
        dark = harness._run_sd_point(0.0, n, params, np.random.SeedSequence(7))
        p_fired = 1.0 - arm_law(0.0, params.dcp_apd1, params).state[0]
        assert dark.pe1 == 0 and dark.fired1 > 0
        assert abs(dark.fired1 - n * p_fired) <= 5.0 * math.sqrt(n * p_fired)
        mu = 1e6
        assert arm_law(mu * params.qe, params.dcp_apd1, params).state.tolist() == [0.0, 0.0, 1.0]
        bright = harness._run_sd_point(mu, n, params, np.random.SeedSequence(7))
        assert (bright.fired1, bright.click1, bright.click2, bright.blind) == (n, 1, 0, n - 1)
        assert (bright.strong, bright.weak) == (n, 0)
        low_gain = replace(params, gain_mean=1e-3 * params.t_strong)
        mu = 2000.0
        assert arm_law(mu * params.qe, params.dcp_apd1, low_gain).state.tolist() == [0.0, 1.0, 0.0]
        weak = harness._run_sd_point(mu, 20_000, low_gain, np.random.SeedSequence(7))
        assert weak.fired1 == weak.weak == 20_000 and weak.blind == 0

    @pytest.mark.parametrize("mu", [1.0, 10.0, 30.0])
    def test_stream_costs_three_entries_per_weak_gate(self, params, monkeypatch, mu):
        """Amplitudes are drawn only for the head, the tail and the runs of
        two or more weak gates, and the one coded stream of a shard holds
        at most 2 entries per such gate plus a constant, however many
        gates are empty, railed or lone weak: far below 3 entries per
        weak gate."""
        import bncsim.harness as harness

        skeletons, weak, sizes = [], [], []
        original_skeleton, original_weak = harness._sd_skeleton, harness._weak_gates
        original_coder = harness.sd_event_codes

        def spy_skeleton(*args):
            skeletons.append(original_skeleton(*args))
            return skeletons[-1]

        def spy_weak(law, m, *args):
            weak.append(m)
            return original_weak(law, m, *args)

        def spy_coder(stream, *args):
            sizes.append(stream.size)
            return original_coder(stream, *args)

        monkeypatch.setattr(harness, "_sd_skeleton", spy_skeleton)
        monkeypatch.setattr(harness, "_weak_gates", spy_weak)
        monkeypatch.setattr(harness, "sd_event_codes", spy_coder)
        harness._run_sd_point(mu, 1_000_000, params, np.random.SeedSequence(8))
        assert len(skeletons) == len(weak) == len(sizes) == 1
        (sk,) = skeletons
        weak_gates = 1_000_000 - sk.empty - sk.railed
        assert weak == [sk.explicit] and 0 < sk.explicit < weak_gates / 10
        assert sizes[0] <= 2 * sk.explicit + 42
        assert sizes[0] <= 3 * weak_gates + 5

    def test_memory_bounded_by_one_shard(self, params, monkeypatch, least_peak):
        """A point of three shards allocates at most a quarter more than
        one.  At the high-rail mu = 10 point half the gates are weak, so a
        shard's arrays are megabytes, far above numpy's constant-size
        temporaries.  SHARD_WORK is halved, which makes that point a
        60k-gate shard."""
        monkeypatch.setattr(attack, "SHARD_WORK", attack.SHARD_WORK // 2)
        high_rail = replace(params, **SD_HIGH_RAIL)
        shard = shard_size(10.0, high_rail, Scenario.BLINDING_ONLY, DetectorKind.SELF_DIFFERENCING)
        assert 55_000 < shard < 65_000

        def peak(gates):
            return least_peak(lambda: run_sweep(sd_spec(10.0, gates), high_rail))

        one = peak(shard)
        assert one > 1_000_000
        assert peak(3 * shard) <= 1.25 * one

    @pytest.mark.parametrize("rail,mu", [({}, 0.1), (SD_HIGH_RAIL, 10.0)])
    def test_point_of_at_most_shard_gates_is_one_shard(self, params, fixed_shards, rail, mu):
        """A point of at most its own shard size is one shard on the first
        child of its seed: 1M gates where the shard is far larger, and
        exactly one shard where half the gates are weak."""
        import bncsim.harness as harness

        p = replace(params, **rail)
        shard = shard_size(mu, p, Scenario.BLINDING_ONLY, DetectorKind.SELF_DIFFERENCING)
        n = min(shard, 1_000_000)
        by_rule = harness._run_sd_point(mu, n, p, np.random.SeedSequence(4))
        fixed_shards(SHARD_GATES_MAX)
        assert by_rule == harness._run_sd_point(mu, n, p, np.random.SeedSequence(4))

    @pytest.mark.parametrize("mu", [0.1, 500.0])
    def test_point_allocates_less_than_a_float_per_gate(self, params, mu):
        """The point draws and codes only its weak gates and the runs' ends."""
        import bncsim.harness as harness

        tracemalloc.start()
        try:
            harness._run_sd_point(mu, 1_000_000, params, np.random.SeedSequence(6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


@pytest.mark.parametrize(
    "detector,scenario",
    [
        (DetectorKind.SELF_DIFFERENCING, Scenario.BLINDING_ONLY),
        (DetectorKind.BALANCED_BNC, Scenario.BLINDING_ONLY),
        (DetectorKind.BALANCED_BNC, Scenario.ATTACK_CM),
    ],
)
def test_cm_success_within_5_sigma_of_oracle(params, detector, scenario):
    # mu = 30: one arm at full flux keeps 1.7% weak avalanches, a split
    # pair 3.4%, so a column modelling the wrong gate mix is tens of sigma
    # off; the oracle's split shares here are 0, 1 and 1/2
    spec = small_spec(
        flux_grid=(30.0,),
        n_gates_per_point=200_000,
        scenario=scenario,
        detector=detector,
        seed=30,
    )
    row = run_sweep(spec, params).rows[0]
    avalanches = np.nansum([row.apd1_rate, row.apd2_rate]) / params.f_gate * row.gates
    p = row.oracle_cm_success / 100.0
    sigma = 100.0 * math.sqrt(p * (1.0 - p) / avalanches)
    assert abs(row.cm_success - row.oracle_cm_success) <= 5.0 * sigma


def test_casec_columns_read_as_the_blinding_only_sweep(params):
    """An attack sweep's case-C columns are the blinding-only sweep's, at
    half the gates: a case-C gate splits its pulse evenly between the
    arms, as every blinding-only gate does.  Each pair agrees within 5
    binomial sigma."""
    n = 1_000_000

    def rows(scenario):
        spec = small_spec(flux_grid=(1.0, 10.0, 500.0), n_gates_per_point=n, scenario=scenario)
        return run_sweep(spec, params).rows

    f = params.f_gate
    for attack, blind in zip(rows(Scenario.ATTACK_CM), rows(Scenario.BLINDING_ONLY)):
        for arm in (1, 2):
            # case-C clicks are Binomial(n, p/2), as case C is half the
            # attack's gates; blinding-only clicks are Binomial(n, p)
            half = getattr(attack, f"casec_diff{arm}_rate") / f
            full = getattr(blind, f"diff{arm}_rate") / f
            p = half + full / 2
            sigma = math.sqrt((2 * p * (1 - p / 2) + p * (1 - p)) / n)
            assert abs(2 * half - full) <= 5 * sigma, (attack.flux, arm)
        # flags: Binomial(n/2, q) over the case-C gates, Binomial(n, q) over all
        q = (attack.casec_cm_frac + blind.cm_rate / f) / 2
        sigma = math.sqrt(q * (1 - q) * 3 / n)
        assert abs(attack.casec_cm_frac - blind.cm_rate / f) <= 5 * sigma, attack.flux


def law_key(spec, table):
    """What a sweep's report depends on beyond its random stream: the
    receiver, the report columns it fills, the class weight per (arm
    shares, case C), and over the sifting classes the weight per share of
    the pulse on the bit's arm, normalised to the sifting weight."""
    lines = [line.split(",") for line in table.splitlines()[1:]]
    filled = frozenset(c for i, c in enumerate(REPORT_COLUMNS) if any(r[i] != "nan" for r in lines))
    scenario = Scenario.ATTACK_CM if spec.scenario is Scenario.ATTACK_NO_CM else spec.scenario
    classes = protocol_classes(scenario)
    by_shares, by_bit_share = Counter(), Counter()
    for w, delta, casec, sift, bit in zip(*(column.tolist() for column in classes)):
        by_shares[tuple(ARM_WEIGHTS[:, delta].tolist()), casec] += w
        if sift:
            by_bit_share[ARM_WEIGHTS[bit, delta]] += w
    sifting = sum(by_bit_share.values())
    by_bit_share = {share: w / sifting for share, w in by_bit_share.items()}
    return spec.detector, filled, frozenset(by_shares.items()), frozenset(by_bit_share.items())


def test_accepted_settings_write_distinct_tables(params):
    """SweepSpec accepts a (detector, scenario) setting only when no other
    accepted setting writes the same table: not only another digest, but
    another law (:func:`law_key`)."""
    digests, keys = {}, {}
    for detector, scenario in itertools.product(DetectorKind, Scenario):
        try:
            spec = small_spec(flux_grid=(0.1, 30.0), scenario=scenario, detector=detector)
        except ConfigError:
            continue
        table = report_to_csv(run_sweep(spec, params))
        digests[detector.value, scenario.value] = hashlib.sha256(table.encode()).hexdigest()
        keys[detector.value, scenario.value] = law_key(spec, table)
    assert len(digests) == 8, sorted(digests)
    assert len(set(digests.values())) == len(digests)
    assert len(set(keys.values())) == len(keys)


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
        cfg.write_text("seed = 3\nqe = fast\n")
        with pytest.raises(ConfigError) as exc:
            parse_config_file(cfg)
        assert str(exc.value) == f"{cfg}:2: bad value for 'qe': 'fast'"

    def test_duplicate_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qe = 0.5\ngates = 10000\nqe = 0.1\n")
        with pytest.raises(ConfigError) as exc:
            parse_config_file(cfg)
        assert str(exc.value) == f"{cfg}:3: duplicate key 'qe' (first on line 1)"

    @pytest.mark.parametrize(
        "overrides,same_as",
        [
            pytest.param({"scenario": Scenario.HONEST}, {"scenario": "honest"}, id="scenario-member"),
            pytest.param(
                {"scenario": Scenario.BLINDING_ONLY, "detector": DetectorKind.SELF_DIFFERENCING},
                {"scenario": "blinding_only", "detector": "self_differencing"},
                id="detector-member",
            ),
            pytest.param({"qe": 1}, {"qe": 1.0}, id="qe-int"),
            *(
                pytest.param({key: value}, None, id=f"{key}-{value!r}")
                for key, values in (
                    ("seed", (True, 2.5, "3", "abc")),
                    ("gates", (True, 12345.9, "20000", "abc")),
                )
                for value in values
            ),
            *(
                pytest.param({"qe": value}, None, id=f"qe-{label}")
                for label, value in (("True", True), ("str", "0.2"), ("10**400", 10**400))
            ),
        ],
    )
    def test_override_types(self, overrides, same_as):
        """An override reaches the type that checks it as given: an enum
        member stands for its value and an int parameter for the equal
        float; a bool, a fractional or text count, or a bool, text or
        overflowing parameter is a ConfigError, never truncated or cast."""
        if same_as is None:
            with pytest.raises(ConfigError):
                resolve_config(None, overrides)
            return
        spec, params, _ = resolve_config(None, overrides)
        expected_spec, expected_params, _ = resolve_config(None, same_as)
        assert spec == expected_spec
        assert config_lines(spec, params) == config_lines(expected_spec, expected_params)

    def test_landmark_config_resolves(self):
        spec, params, merged = resolve_config(parse_config_file(CONFIGS / "landmarks.cfg"))
        assert spec.flux_grid == LANDMARK_FLUX_GRID
        assert spec.scenario is Scenario.ATTACK_CM
        assert spec.detector is DetectorKind.BALANCED_BNC
        assert spec.n_gates_per_point == 1_000_000 and spec.seed == 20260809
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

    def test_verify_missing_point_prints_plain_message(self, tmp_path, capsys):
        out = tmp_path / "short.csv"
        assert main(["sweep", "--flux", "1,10", "--gates", "10000", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 2
        assert capsys.readouterr().err == "error: report has no flux point 0.1\n"

    def test_oracle_output(self, capsys):
        assert main(["oracle", "--mu", "100"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(
            "mu=100\nideal_rate_same_phase=20000000\nideal_rate_diff_phase=10000000\n"
        )
        assert "p1=0.01338509414" in captured.out
        assert "attack_qber=0.006604445782" in captured.out
        # both linear rates are out of their regime: one warning line, no source
        assert captured.err == (
            "warning: mu_apd*qe = 10 exceeds the linear regime (<= 0.3); "
            "the ideal rate overestimates clicks\n"
        )

    @pytest.mark.parametrize(
        "mu,regime", [(0.6, "ok"), (math.nextafter(0.6, 1.0), "extrapolated")]
    )
    def test_regime_boundary_in_both_readers(self, mu, regime, capsys):
        """mu*qe = 0.6*0.5 is 0.3 exactly in binary64, inside the linear
        regime for the report and the CLI; at the next float of mu it is
        past it for both: the report says so, and the CLI prints one line."""
        assert (mu * 0.5 == 0.3) is (regime == "ok")
        params = replace(DetectorParams.default(), qe=0.5)
        report = run_sweep(small_spec(flux_grid=(mu,)), params)
        assert [row.oracle_regime for row in report.rows] == [regime]
        assert main(["oracle", "--mu", repr(mu), "--qe", "0.5"]) == 0
        warning = (
            "warning: mu_apd*qe = 0.3 exceeds the linear regime (<= 0.3); "
            "the ideal rate overestimates clicks\n"
        )
        assert capsys.readouterr().err == ("" if regime == "ok" else warning)

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
            # past the linear regime: the budget is checked before the warning
            ["--mu", "10", "--p-ave", "1e-6", "--rep-rate", "2e6", "--mu-eve-alice", "1e9"],
            ["--mu", "10", "--p-ave", "-1", "--rep-rate", "2e6", "--mu-eve-alice", "100"],
            ["--mu", "1", "--qe", "nan"],
            ["--mu", "1", "--p-ave", "inf", "--rep-rate", "2e6", "--mu-eve-alice", "100"],
            ["--mu", "1", "--p-ave", "1e-6", "--rep-rate", "2e6", "--mu-eve-alice", "inf"],
        ],
        ids=[
            "mu-negative", "mu-nan", "mu-inf", "budget-amplifies", "rep-rate-0",
            "att-bob-negative", "p-ave-alone", "att-bob-alone",
            "warned-budget-amplifies", "warned-p-ave-negative",
            "qe-nan", "p-ave-inf", "mu-eve-alice-inf",
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

    @pytest.mark.parametrize("fifo_at", ["report.csv", "report.csv.manifest"])
    def test_out_path_not_a_regular_file_exits_2(
        self, fifo_at, params, tmp_path, capsys, monkeypatch
    ):
        """A report or manifest path that exists and is not a regular file
        (here a FIFO) is refused before any gate, by the sweep command and
        by emit_report: it stays what it was, and nothing is written."""
        report = run_sweep(small_spec(), params)

        def no_gates(*args, **kwargs):
            raise AssertionError("a gate was drawn")

        monkeypatch.setattr(attack, "_run_sharded", no_gates)
        fifo = tmp_path / fifo_at
        os.mkfifo(fifo)
        out = tmp_path / "report.csv"
        assert main(["sweep", "--flux", "0.1,500", "--gates", "10000", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="regular file"):
            emit_report(report, out)
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == [fifo_at]

    def test_module_entry_point(self):
        # python -m bncsim runs the CLI from a source checkout, no install needed
        src = Path(bncsim.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "bncsim", "table1", "--gates", "0"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert "--gates must be at least 1" in done.stderr

    def test_runtime_imports_no_scipy(self, tmp_path):
        # scipy is a test dependency only: the package imports none of it,
        # and runs a balanced sweep and table 1 with every scipy import
        # blocked; numpy.random loads with the package, not at the first draw
        code = (
            "import sys\n"
            "import bncsim.cli, bncsim.harness\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n"
            "assert 'numpy.random' in sys.modules\n"
            "sys.modules['scipy'] = None\n"
            "main = bncsim.cli.main\n"
            "assert main(['sweep', '--scenario', 'attack_cm', '--detector', 'balanced_bnc',"
            " '--flux', '0.1,10,500', '--gates', '20000', '--out', sys.argv[1]]) == 0\n"
            "assert main(['table1']) == 0\n"
        )
        src = Path(bncsim.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "report.csv")],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "rows: 16, case C rows: 8" in done.stdout

    def test_table1_counts(self, capsys):
        # tiny statistics: only check the enumeration structure, not matches
        main(["table1", "--gates", "20000"])
        out = capsys.readouterr().out
        assert "rows: 16, case C rows: 8" in out

    @pytest.mark.parametrize("flux", ["0.1,nan", "0.1,inf", "0.1,1e20", "0.1,abc", "0.1,,1", ","])
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
        # every sweep runs all of its protocol classes and the casec_*
        # columns are the case breakdown, so any case filter is refused:
        # as a flag it is an argparse usage error, in a config file an
        # unknown key
        import bncsim.cli as cli

        def no_gates(*args, **kwargs):
            raise AssertionError("a gate was drawn")

        monkeypatch.setattr(cli, "run_sweep", no_gates)
        out = tmp_path / "filtered.csv"
        argv = ["sweep", "--detector", detector, "--scenario", scenario]
        argv += ["--flux", "0.1,500", "--gates", "10000", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--case-filter", labels])
        assert exc.value.code == 2
        assert "--case-filter" in capsys.readouterr().err

        cfg = tmp_path / "filtered.cfg"
        cfg.write_text(f"case_filter = {labels}\n")
        assert main([*argv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "unknown key 'case_filter'" in err
        assert not out.exists() and not Path(f"{out}.manifest").exists()

    @pytest.mark.parametrize(
        "detector,scenario,twin",
        [
            ("self_differencing", "honest", "blinding_only"),
            ("baseline_two_apd", "attack_cm", "attack_no_cm"),
        ],
    )
    def test_aliased_setting_exits_2_naming_its_twin(
        self, detector, scenario, twin, tmp_path, capsys, monkeypatch
    ):
        # each of these settings writes the table of an accepted one
        import bncsim.cli as cli

        def no_gates(*args, **kwargs):
            raise AssertionError("a gate was drawn")

        monkeypatch.setattr(cli, "run_sweep", no_gates)
        out = tmp_path / "alias.csv"
        argv = ["sweep", "--detector", detector, "--scenario", scenario]
        assert main([*argv, "--flux", "0.1,500", "--gates", "10000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and twin in err
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

    def test_table1_ignores_sweep_keys(self, tmp_path, capsys):
        # table 1 reads only the detector keys and the seed from a config
        # file; any other sweep key, valid or not for a sweep, changes
        # nothing, the gates per flux point included: only --gates sets
        # the gates per row
        assert main(["table1", "--seed", "4"]) == 0
        plain = capsys.readouterr().out
        lines = ("flux = 1,0.5", "detector = self_differencing", "scenario = honest")
        for line in (*lines, "gates = 5000", "gates = 0", "gates = -5"):
            cfg = tmp_path / "sweep_keys.cfg"
            cfg.write_text(f"{line}\nseed = 4\n")
            assert main(["table1", "--config", str(cfg)]) == 0, line
            assert capsys.readouterr().out == plain, line
        # too few gates for some rows' bands, so the exit status may be 1
        main(["table1", "--config", str(cfg), "--gates", "5000"])
        with_file = capsys.readouterr().out
        main(["table1", "--seed", "4", "--gates", "5000"])
        assert with_file == capsys.readouterr().out != plain

    @pytest.mark.parametrize("line", ["gates = many"])
    def test_table1_bad_config_gates_exits_2_without_rows(
        self, line, tmp_path, capsys, monkeypatch
    ):
        # table 1 ignores a file's gates, but a line that does not parse
        # is still an error, named by its key and not by --gates
        import bncsim.cli as cli

        def no_rows(*args, **kwargs):
            raise AssertionError("a row was simulated")

        monkeypatch.setattr(cli, "evaluate_case_row", no_rows)
        cfg = tmp_path / "bad_gates.cfg"
        cfg.write_text(line + "\n")
        assert main(["table1", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "gates" in captured.err and "--gates" not in captured.err

    @pytest.mark.parametrize("line", ["qe = 2", "seed = -1"])
    def test_table1_bad_config_exits_2_without_rows(self, line, tmp_path, capsys, monkeypatch):
        import bncsim.cli as cli

        def no_rows(*args, **kwargs):
            raise AssertionError("a row was simulated")

        monkeypatch.setattr(cli, "evaluate_case_row", no_rows)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["table1", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

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
