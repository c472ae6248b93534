"""The three benchmark workloads, their closed-form checks and layer spans.

Each workload is one fixed job for the simulator.  The seed given to the
benchmark is passed on as the simulator's master seed; everything else
(operating point, flux grid, gate counts) is fixed here.  An operation is
one flux point of a sweep or one row of the case table.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import tracemalloc
from pathlib import Path
from typing import Iterator

import numpy as np
from bncsim import attack, cli, harness

from checks import (
    OPERATING_POINT,
    attack_arm_fired,
    case_row_check,
    expected_outcome,
    frequency_check,
    sd_fired,
    single_carrier_weak_fraction,
    split_arm_fired,
    two_apd_attack_qber,
)
from spans import TimingRng, Tracer, descendants, duration, patched, self_times

#: Flux points at which per-layer times are reported.
LAYER_FLUX = (0.1, 1.0, 30.0, 500.0)
#: Saturating-flux monitor yield every noise-cancelling receiver must reach.
MONITOR_FLOOR = 0.999
#: ``verify_landmarks`` results: ten bands, the low-flux weak ratio
#: checking two flux points in one result.
LANDMARK_RESULTS = 9


def mu_label(mu: float) -> str:
    return f"mu{mu:g}"


def verdict(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def write_config(out: Path) -> Path:
    """The benchmark's operating point as a simulator config file."""
    path = out / "bench.cfg"
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in OPERATING_POINT.items()))
    return path


def resolve(config: Path, seed: int, **overrides: object):
    values = harness.parse_config_file(config)
    spec, params, _ = harness.resolve_config(values, dict(overrides, seed=seed))
    return spec, params


def fired_checks(prefix: str, row: dict, expect: dict[int, float]) -> list[dict]:
    """Per-arm fired frequency of one report row against ``expect[arm]``."""
    gates = row["gates"]
    f_gate = OPERATING_POINT["f_gate"]
    return [
        frequency_check(
            f"{prefix}.apd{arm}_fired", row[f"apd{arm}_rate"] / f_gate, p, gates
        ).as_dict()
        for arm, p in expect.items()
    ]


class Workload:
    """One benchmark job; each round builds a fresh instance."""

    name = ""
    ops = 0

    def setup(self, seed: int, out: Path) -> None:
        """Resolve the simulator configuration (timed as set-up)."""
        raise NotImplementedError

    def run(self, tracer: Tracer) -> None:
        """Run the job, including report writing and the program's checks."""
        raise NotImplementedError

    def gates(self) -> int:
        raise NotImplementedError

    def checks(self) -> list[dict]:
        """The benchmark's own checks on the outputs."""
        raise NotImplementedError

    @contextlib.contextmanager
    def traced(self, tracer: Tracer) -> Iterator[None]:
        """Patches that span layer calls while :meth:`run` executes."""
        yield

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        """Per-layer metrics from the traced round's spans."""
        raise NotImplementedError


class LandmarkSweep(Workload):
    """The paper's figure sweep on the balanced receiver, monitor on."""

    name = "landmark_sweep"
    flux = (0.1, 1.0, 10.0, 30.0, 100.0, 500.0)
    gates_per_point = 1_000_000
    ops = len(flux)
    #: Gates in one probe block: one shard of the sweep.
    block_gates = 1_000_000
    probe_repeats = 3

    def setup(self, seed: int, out: Path) -> None:
        self.seed, self.out = seed, out
        self.spec, self.params = resolve(
            write_config(out),
            seed,
            scenario="attack_cm",
            detector="balanced_bnc",
            flux=",".join(f"{mu:g}" for mu in self.flux),
            gates=self.gates_per_point,
        )

    def run(self, tracer: Tracer) -> None:
        with tracer.span("harness.run_sweep"):
            report = harness.run_sweep(self.spec, self.params)
        path = self.out / "landmarks.csv"
        with tracer.span("harness.emit_report"):
            harness.emit_report(report, path)
        with tracer.span("harness.load_report_rows"):
            self.rows = harness.load_report_rows(path)
        with tracer.span("harness.verify_landmarks"):
            self.landmarks = harness.verify_landmarks(self.rows)

    def gates(self) -> int:
        return int(sum(row["gates"] for row in self.rows))

    def checks(self) -> list[dict]:
        qe = OPERATING_POINT["qe"]
        dcp = {1: OPERATING_POINT["dcp_apd1"], 2: OPERATING_POINT["dcp_apd2"]}
        out = [
            verdict(f"landmark.{res.name}", res.passed, res.detail)
            for res in self.landmarks
        ]
        out.append(
            verdict(
                "landmark.count",
                len(self.landmarks) >= LANDMARK_RESULTS,
                f"{len(self.landmarks)} landmark results",
            )
        )
        out.append(verdict("rows", len(self.rows) == self.ops, f"{len(self.rows)} rows"))
        for row in self.rows:
            mu = row["flux"]
            expect = {arm: attack_arm_fired(mu, qe, dcp[arm]) for arm in (1, 2)}
            out += fired_checks(f"attack_cm.{mu_label(mu)}", row, expect)
            if mu == 0.1:
                # every fired arm is one avalanche; nearly all carry one carrier
                fired = (row["apd1_rate"] + row["apd2_rate"]) / OPERATING_POINT["f_gate"]
                weak = single_carrier_weak_fraction(
                    OPERATING_POINT["t_strong"], OPERATING_POINT["gain_mean"]
                )
                out.append(
                    frequency_check(
                        "attack_cm.mu0.1.weak_ratio", row["weak_ratio"], weak, fired * row["gates"]
                    ).as_dict()
                )
        return out

    @contextlib.contextmanager
    def traced(self, tracer: Tracer) -> Iterator[None]:
        with contextlib.ExitStack() as stack:
            for fn in (
                "ideal_click_rate_same_phase",
                "ideal_click_rate_diff_phase",
                "click_probabilities",
                "attack_qber",
                "oracle_cm_success",
            ):
                stack.enter_context(patched(tracer, harness, fn, "analytics.oracle_columns"))
            yield

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        spans = tracer.spans
        total = lambda name: sum(duration(s) for s in spans if s["name"] == name)  # noqa: E731
        metrics = {
            "analytics.oracle_columns_s": total("analytics.oracle_columns"),
            "harness.emit_report_s": total("harness.emit_report"),
            "harness.verify_landmarks_s": total("harness.verify_landmarks"),
            "harness.report_bytes": sum(
                p.stat().st_size for p in self.out.iterdir() if p.name.startswith("landmarks.csv")
            ),
        }
        metrics.update(self.block_probe(tracer))
        return metrics

    def block_probe(self, tracer: Tracer) -> dict[str, float]:
        """Split one sweep block per flux point into its stages.

        Each block runs from the same seed bare (the reference tally and
        time), then through :class:`TimingRng` with the readout functions
        spanned, ``probe_repeats`` times; the metrics are medians over the
        repeats.  The traced tally must equal the bare one.  A last bare
        run under ``tracemalloc`` gives the block's allocation peak.
        """
        metrics: dict[str, float] = {}
        self.block_overhead: dict[str, float] = {}
        for i, mu in enumerate(LAYER_FLUX):
            label = mu_label(mu)
            config = attack.AttackConfig(
                n_pulses=self.block_gates,
                resend_mu=mu,
                scenario=attack.Scenario.ATTACK_CM,
                detector=attack.DetectorKind.BALANCED_BNC,
            )
            seed_seq = np.random.SeedSequence(self.seed, spawn_key=(9, i))
            fresh = lambda: np.random.Generator(np.random.PCG64(seed_seq))  # noqa: E731
            repeats = [self._probe_once(config, fresh, label, tracer) for _ in range(self.probe_repeats)]
            for key in repeats[0]:
                metrics[key] = statistics.median(r[key] for r in repeats)
            self.block_overhead[label] = metrics.pop(f"overhead.{label}")

            tracemalloc.start()
            attack.simulate_block(config, self.params, fresh())
            metrics[f"attack.block_alloc_peak_mb.{label}"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        return metrics

    def _probe_once(self, config, fresh, label: str, tracer: Tracer) -> dict[str, float]:
        with tracer.span(f"probe.bare.{label}") as bare:
            reference = attack.simulate_block(config, self.params, fresh())
        with contextlib.ExitStack() as stack:
            for fn, name in (
                ("comparator_arrays", "balanced.comparator_arrays"),
                ("event_codes", "balanced.event_codes"),
                ("sift_counts", "attack.sift_counts"),
            ):
                stack.enter_context(patched(tracer, attack, fn, name))
            root = len(tracer.spans)
            with tracer.span(f"attack.block.{label}"):
                traced = attack.simulate_block(config, self.params, TimingRng(fresh(), tracer))
        if traced != reference:
            raise RuntimeError(f"traced block at {label} changed the tally")

        spans = tracer.spans
        inner = [spans[j] for j in descendants(spans, root)]
        stage = lambda name: sum(duration(s) for s in inner if s["name"] == name)  # noqa: E731
        block_s = duration(spans[root])
        metrics = {
            f"attack.{key}_draw_s.{label}": stage(f"draw.{key}")
            for key in ("protocol", "photon", "detect", "dark", "amplitude")
        }
        metrics.update(
            {
                f"attack.block_s.{label}": block_s,
                # draws of any other Generator method count as block work
                f"attack.block_other_s.{label}": self_times(spans)[root] + stage("draw.other"),
                f"attack.variates_per_gate.{label}": sum(s.get("variates", 0) for s in inner)
                / self.block_gates,
                f"balanced.comparator_arrays_s.{label}": stage("balanced.comparator_arrays"),
                f"balanced.event_codes_s.{label}": stage("balanced.event_codes"),
                f"attack.sift_counts_s.{label}": stage("attack.sift_counts"),
                f"overhead.{label}": block_s / duration(bare) - 1.0,
            }
        )
        return metrics


class CaseTable(Workload):
    """``bncsim table1``: the 16-row sifting-case enumeration."""

    name = "case_table"
    ops = 16
    phases = {"0": 0, "pi/2": 1, "pi": 2, "3pi/2": 3}

    def setup(self, seed: int, out: Path) -> None:
        self.seed, self.out = seed, out
        self.config = write_config(out)
        # the same resolution `table1` performs, timed here as set-up
        resolve(self.config, seed)

    def run(self, tracer: Tracer) -> None:
        buf = io.StringIO()
        with tracer.span("cli.table1"), contextlib.redirect_stdout(buf):
            self.status = cli.main(["table1", "--config", str(self.config), "--seed", str(self.seed)])
        self.text = buf.getvalue()
        (self.out / "table1.txt").write_text(self.text)

    def parse(self) -> list[dict[str, str]]:
        lines = self.text.splitlines()
        header = lines[0].split()
        return [
            dict(zip(header, line.split()))
            for line in lines[1:]
            if line.split() and line.split()[0].isdigit()
        ]

    @staticmethod
    def case_gates(label: str) -> int:
        """Gates the table simulates for one row of case ``label``."""
        return getattr(attack, f"CASE_{label}_GATES")

    def gates(self) -> int:
        return sum(self.case_gates(row["case"]) for row in self.parse())

    def checks(self) -> list[dict]:
        rows = self.parse()
        n_c = sum(row["case"] == "C" for row in rows)
        out = [
            verdict("table1.exit_status", self.status == 0, f"exit {self.status}"),
            verdict("table1.rows", len(rows) == 16 and n_c == 8, f"{len(rows)} rows, {n_c} case C"),
        ]
        for row in rows:
            name = f"table1.row{row['#']}"
            delta = self.phases[row["resend"]] - self.phases[row["bob"]]
            outcome = expected_outcome(delta)
            label_ok = (row["case"] == "C") == (outcome == "split_50_50")
            out.append(
                verdict(
                    f"{name}.expected",
                    row["expected"] == outcome and label_ok and row["match"] == "yes",
                    f"case {row['case']}, expected {row['expected']} (closed form {outcome}), match {row['match']}",
                )
            )
            check = case_row_check(
                f"{name}.observed",
                row["case"],
                delta,
                float(row["mu"]),
                self.case_gates(row["case"]),
                float(row["observed"]),
            )
            out.append(check.as_dict())
        return out

    @contextlib.contextmanager
    def traced(self, tracer: Tracer) -> Iterator[None]:
        self.fixed_calls: list = []
        with patched(
            tracer,
            cli,
            "evaluate_case_row",
            lambda row, *a, **k: f"attack.evaluate_case_row.case{row.case_label.value}",
        ), patched(tracer, attack, "run_fixed", "attack.run_fixed", calls=self.fixed_calls):
            yield

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        spans = tracer.spans
        metrics = {f"attack.run_fixed_s.case{c}": 0.0 for c in "ABC"}
        fixed = [s for s in spans if s["name"] == "attack.run_fixed"]
        # the parent span is attack.evaluate_case_row.case<label>
        cases = [spans[s["parent"]]["name"].rsplit(".", 1)[1] for s in fixed]
        for s, case in zip(fixed, cases):
            metrics[f"attack.run_fixed_s.{case}"] += duration(s)
        metrics["cli.table1_s"] = sum(duration(s) for s in spans if s["name"] == "cli.table1")
        args, kwargs = self.fixed_calls[cases.index("caseC")]
        tracemalloc.start()
        attack.run_fixed(*args, **kwargs)
        metrics["attack.run_fixed_alloc_peak_mb.caseC"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        return metrics


class ReceiverMatrix(Workload):
    """The same layers on the other receivers and scenarios."""

    name = "receiver_matrix"
    flux = LAYER_FLUX
    gates_per_point = 1_000_000
    sweeps = (
        ("attack_no_cm", "baseline_two_apd"),
        ("blinding_only", "balanced_bnc"),
        ("blinding_only", "self_differencing"),
    )
    ops = len(sweeps) * len(flux)

    def setup(self, seed: int, out: Path) -> None:
        self.out = out
        config = write_config(out)
        self.specs = []
        for scenario, detector in self.sweeps:
            spec, self.params = resolve(
                config,
                seed,
                scenario=scenario,
                detector=detector,
                flux=",".join(f"{mu:g}" for mu in self.flux),
                gates=self.gates_per_point,
            )
            self.specs.append(spec)

    def run(self, tracer: Tracer) -> None:
        self.rows = {}
        for (scenario, detector), spec in zip(self.sweeps, self.specs):
            with tracer.span(f"harness.run_sweep.{detector}"):
                report = harness.run_sweep(spec, self.params)
            path = self.out / f"{scenario}-{detector}.csv"
            harness.emit_report(report, path)
            self.rows[detector] = harness.load_report_rows(path)

    def gates(self) -> int:
        return int(sum(row["gates"] for rows in self.rows.values() for row in rows))

    def checks(self) -> list[dict]:
        qe = OPERATING_POINT["qe"]
        f_gate = OPERATING_POINT["f_gate"]
        dcp = {1: OPERATING_POINT["dcp_apd1"], 2: OPERATING_POINT["dcp_apd2"]}
        out = [
            verdict(
                f"{det}.rows", len(self.rows[det]) == len(self.flux), f"{len(self.rows[det])} rows"
            )
            for _, det in self.sweeps
        ]
        for row in self.rows["baseline_two_apd"]:
            mu = row["flux"]
            prefix = f"attack_no_cm.baseline_two_apd.{mu_label(mu)}"
            out += fired_checks(prefix, row, {a: attack_arm_fired(mu, qe, dcp[a]) for a in (1, 2)})
            if mu == 1.0:
                qber, sifted_per_gate = two_apd_attack_qber(mu, qe)
                out.append(
                    frequency_check(
                        f"{prefix}.qber", row["qber"], qber, sifted_per_gate * row["gates"]
                    ).as_dict()
                )
        for row in self.rows["balanced_bnc"]:
            mu = row["flux"]
            prefix = f"blinding_only.balanced_bnc.{mu_label(mu)}"
            out += fired_checks(prefix, row, {a: split_arm_fired(mu, qe, dcp[a]) for a in (1, 2)})
        for row in self.rows["self_differencing"]:
            mu = row["flux"]
            prefix = f"blinding_only.self_differencing.{mu_label(mu)}"
            out += fired_checks(prefix, row, {1: sd_fired(mu, qe, dcp[1])})
        for det in ("balanced_bnc", "self_differencing"):
            top = self.rows[det][-1]
            flagged = top["cm_rate"] / f_gate
            out.append(
                verdict(
                    f"blinding_only.{det}.monitor",
                    top["flux"] == 500.0 and flagged >= MONITOR_FLOOR,
                    f"monitor flags {flagged:.6f} of gates at mu={top['flux']:g}, need >= {MONITOR_FLOOR}",
                )
            )
        return out

    @contextlib.contextmanager
    def traced(self, tracer: Tracer) -> Iterator[None]:
        with patched(tracer, harness, "sd_event_codes", "selfdiff.sd_event_codes"):
            yield

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        calls = [duration(s) for s in tracer.spans if s["name"] == "selfdiff.sd_event_codes"]
        if len(calls) != len(self.flux):
            raise RuntimeError(f"expected {len(self.flux)} sd_event_codes calls, saw {len(calls)}")
        return {f"selfdiff.sd_event_codes_s.{mu_label(mu)}": t for mu, t in zip(self.flux, calls)}


WORKLOADS = {w.name: w for w in (LandmarkSweep, CaseTable, ReceiverMatrix)}
