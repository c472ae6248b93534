import itertools
import math
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special, stats

import bncsim.attack as attack
import bncsim.balanced as balanced
from bncsim.attack import (
    CASE_C_GATES,
    CASE_C_MU,
    ARM_WEIGHTS,
    SHARD_GATES,
    SHARD_GATES_MAX,
    SHARD_WORK,
    AttackConfig,
    CaseLabel,
    DetectorKind,
    ExpectedOutcome,
    GateTally,
    Scenario,
    _run_sharded,
    arm_groups,
    arm_means,
    detect_pair,
    enumerate_cases,
    evaluate_case_row,
    protocol_classes,
    run_attack,
    run_fixed,
    sift_counts,
    simulate_block,
)
from bncsim.errors import ConfigError, InconsistentWord
from bncsim.harness import REPORT_COLUMNS, SweepSpec, _run_sd_point, report_to_csv, run_sweep
from bncsim.signal_model import (
    RECEIVER_PHASES,
    DetectorParams,
    PhaseSymbol,
    WEAK_TABLE_MAX,
    below_probabilities,
    weak_probabilities,
)
from reference import balanced_point_dense, comparators, gate_event, sift_ledger, two_apd_click


def seed_seq(n=0):
    return np.random.SeedSequence(991, spawn_key=(n,))


def fixed_shard(send, bob, mu, params, detector=DetectorKind.BASELINE_TWO_APD):
    """One :func:`run_fixed` shard: the gate kernel at the pinned phases' arm means."""
    lam1, lam2 = arm_means(mu, params.qe, send.minus(bob).value)
    return lambda n, rng: detect_pair(lam1, lam2, n, detector, params, rng)


def engine_scenario(scenario):
    """The scenario the engine runs for a report's ``scenario``: the
    monitor only reads the gates, so ``attack_no_cm`` runs as ``attack_cm``."""
    return Scenario.ATTACK_CM if scenario is Scenario.ATTACK_NO_CM else scenario


def row_key(row):
    """(delta, casec, sift, bit) of a table-1 row, as :func:`protocol_tuples` keys a tuple."""
    return (
        row.evealice_phase.minus(row.bob_phase).value,
        row.case_label is CaseLabel.C,
        row.alice_phase.basis == row.bob_phase.basis,
        row.alice_phase.bit,
    )


def rows_for(alice, eve_basis):
    return [r for r in enumerate_cases() if r.alice_phase is alice and r.evebob_basis == eve_basis]


class TestEveIntercept:
    """The resender's measurement, as the case enumeration and the engine apply it."""

    def test_matched_basis_reads_exactly(self, params):
        for row in rows_for(PhaseSymbol.ZERO, 0):
            assert row.evealice_phase is PhaseSymbol.ZERO
            assert row.eve_apd == 1
        # a matched guess basis copies the sender's bit: every sifting
        # class off case C sends the whole pulse to its bit's arm
        classes = protocol_classes(Scenario.ATTACK_CM)
        matched = np.flatnonzero(classes.sift & ~classes.casec)
        assert matched.size
        for j in matched.tolist():
            assert ARM_WEIGHTS[classes.bit[j], classes.delta[j]] == 1.0
        # and at flux 500 the balanced pair cancels every case-C gate, so
        # without dark counts no sifted gate errs
        quiet = replace(params, dcp_apd1=0.0, dcp_apd2=0.0)
        cfg = AttackConfig(n_pulses=50_000, resend_mu=500.0)
        tally = run_attack(cfg, quiet, seed_seq(16))
        assert tally.sifted > 0 and tally.errors == 0

    def test_matched_basis_pi(self):
        for row in rows_for(PhaseSymbol.PI, 0):
            assert row.evealice_phase is PhaseSymbol.PI
            assert row.eve_apd == 2

    def test_mismatched_basis_splits(self):
        rows = rows_for(PhaseSymbol.HALF_PI, 0)
        assert Counter(r.evealice_phase for r in rows) == {PhaseSymbol.ZERO: 1, PhaseSymbol.PI: 1}
        assert Counter(r.eve_apd for r in rows) == {1: 1, 2: 1}

    @given(alice=st.sampled_from(list(PhaseSymbol)), basis=st.integers(0, 1))
    def test_guess_lies_in_measurement_basis(self, alice, basis):
        for row in rows_for(alice, basis):
            assert row.evealice_phase.basis == basis
            assert row.eve_apd == 1 + row.evealice_phase.bit


class TestEveResend:
    """The bright resend pulse: the guessed phase sets its routing at the receiver."""

    def test_field_copy(self, params):
        stats = run_fixed(
            PhaseSymbol.THREE_HALF_PI, PhaseSymbol.HALF_PI, 1.0, 20_000, params, seed_seq(17)
        )
        assert stats.pe1 == 0 and stats.pe2 > 0

    def test_poisson_mean(self, params):
        n = 20_000
        stats = run_fixed(PhaseSymbol.ZERO, PhaseSymbol.ZERO, 500.0, n, params, seed_seq(18))
        expect = 500.0 * params.qe * n
        assert abs(stats.pe1 - expect) < 4 * math.sqrt(expect)


class TestCaseEnumeration:
    def test_sixteen_rows_eight_case_c(self):
        rows = enumerate_cases()
        assert len(rows) == 16
        labels = Counter(r.case_label for r in rows)
        assert labels[CaseLabel.C] == 8
        assert labels[CaseLabel.A] == 4
        assert labels[CaseLabel.B] == 4

    def test_first_row_is_controlled_apd1(self):
        row = enumerate_cases()[0]
        assert row.alice_phase is PhaseSymbol.ZERO
        assert row.evebob_basis == 0
        assert row.eve_apd == 1
        assert row.bob_phase is PhaseSymbol.ZERO
        assert row.expected_outcome is ExpectedOutcome.DETERMINISTIC_1
        assert row.case_label is CaseLabel.A

    def test_split_rows_resend_in_guess_basis(self):
        for row in enumerate_cases():
            assert row.evealice_phase.basis == row.evebob_basis
            assert row.bob_phase.basis == row.alice_phase.basis
            if row.case_label is CaseLabel.C:
                assert row.evebob_basis != row.bob_phase.basis
                assert row.expected_outcome is ExpectedOutcome.SPLIT_50

    def test_case_b_mirrors_case_a(self):
        rows = enumerate_cases()
        a_rows = [r for r in rows if r.case_label is CaseLabel.A]
        b_rows = [r for r in rows if r.case_label is CaseLabel.B]
        for a, b in zip(a_rows, b_rows):
            assert (a.alice_phase, a.evealice_phase, a.bob_phase) == (
                b.alice_phase,
                b.evealice_phase,
                b.bob_phase,
            )


    def test_rows_are_the_sifting_tuples(self):
        sifting = [key for key in protocol_tuples(Scenario.ATTACK_CM) if key[2]]
        assert len(sifting) == 16
        assert Counter(map(row_key, enumerate_cases())) == Counter(sifting)

    def test_each_matched_tuple_is_one_a_and_one_b_row(self):
        rows = enumerate_cases()
        a_rows = Counter(row_key(r) for r in rows if r.case_label is CaseLabel.A)
        b_rows = Counter(row_key(r) for r in rows if r.case_label is CaseLabel.B)
        # the two coins of a matched tuple resend the same phase: one is
        # the A row, the other its B twin
        tuples = protocol_tuples(Scenario.ATTACK_CM)
        matched = Counter(key for key in tuples if key[2] and not key[1])
        assert sum(matched.values()) == 8
        assert a_rows == b_rows and a_rows + b_rows == matched

    def test_expected_outcome_follows_arm_weights(self):
        by_delta = {
            0: ExpectedOutcome.DETERMINISTIC_1,
            1: ExpectedOutcome.SPLIT_50,
            2: ExpectedOutcome.DETERMINISTIC_2,
            3: ExpectedOutcome.SPLIT_50,
        }
        for row in enumerate_cases():
            delta = row.evealice_phase.minus(row.bob_phase).value
            w1, w2 = ARM_WEIGHTS[:, delta]
            assert row.expected_outcome is by_delta[delta]
            assert (row.expected_outcome is ExpectedOutcome.SPLIT_50) == (w1 == w2 == 0.5)
            assert (row.expected_outcome is ExpectedOutcome.DETERMINISTIC_1) == (w1 == 1.0)

    def test_row_order(self):
        # bncsim table1 seeds row i with spawn key (1, i), so the order is pinned
        keys = [
            (r.alice_phase.value, r.evebob_basis, r.case_label.value, r.eve_apd)
            for r in enumerate_cases()
        ]
        assert keys == sorted(keys)

    def test_derived_attributes(self):
        for row in enumerate_cases():
            assert row.evebob_basis == row.evealice_phase.basis
            assert row.eve_apd == 1 + row.evealice_phase.bit


class TestRunAttack:
    def test_single_photon_qber(self, params):
        cfg = AttackConfig(n_pulses=200_000, resend_mu=1.0)
        tally = run_attack(cfg, params, seed_seq(1))
        assert tally.sifted > 0
        assert abs(tally.qber - 0.25) < 0.02

    def test_high_flux_blinding(self, params):
        cfg = AttackConfig(n_pulses=100_000, resend_mu=500.0)
        tally = run_attack(cfg, params, seed_seq(2))
        assert tally.sifted > 0
        assert tally.qber < 0.01
        assert tally.casec_blind / tally.casec_gates >= 0.999

    def test_qber_monotone_in_flux(self, params):
        # The closest pair is mu=1 vs 3: qber 0.2475 vs 0.2418 (20M gates
        # each).  With 0.047 and 0.125 sifted gates per gate the sd of the
        # difference is sqrt(5.46 / n), so 3M gates put the gap at 4.2 sigma.
        qbers = []
        for mu in (1.0, 3.0, 10.0, 30.0, 100.0, 500.0):
            cfg = AttackConfig(n_pulses=3_000_000, resend_mu=mu)
            qbers.append(run_attack(cfg, params, seed_seq(3)).qber)
        assert all(a >= b for a, b in zip(qbers, qbers[1:]))

    def test_monitor_quiet_on_dark_only_traffic(self, params):
        cfg = AttackConfig(n_pulses=1_000_000, resend_mu=0.0, scenario=Scenario.HONEST)
        tally = run_attack(cfg, params, seed_seq(4))
        # dark coincidence expectation is dcp1*dcp2*n = 8e-4 gates
        assert tally.blind <= 1

    def test_cm_disabled_keeps_physics(self, params):
        # the monitor only reads the gates: the engine has one attack
        # scenario, and an attack_no_cm report is the attack_cm report
        # with the monitor columns masked
        with pytest.raises(ConfigError, match="attack_cm"):
            AttackConfig(n_pulses=50_000, resend_mu=10.0, scenario=Scenario.ATTACK_NO_CM)

        def rows(scenario):
            spec = SweepSpec((10.0, 500.0), 50_000, scenario, seed=5)
            lines = report_to_csv(run_sweep(spec, params)).splitlines()[1:]
            return [dict(zip(REPORT_COLUMNS, line.split(","))) for line in lines]

        on, off = rows(Scenario.ATTACK_CM), rows(Scenario.ATTACK_NO_CM)
        monitor = {"cm_rate", "cm_success", "casec_cm_frac"}
        assert len(on) == len(off) == 2
        for row_on, row_off in zip(on, off):
            assert float(row_on["cm_rate"]) > 0.0
            for column in REPORT_COLUMNS:
                assert row_off[column] == ("nan" if column in monitor else row_on[column])

    def test_sharding_is_grouping_invariant(self, params, fixed_shards):
        fixed_shards(10_000)
        cfg = AttackConfig(n_pulses=80_000, resend_mu=1.0)
        pinned = (PhaseSymbol.HALF_PI, PhaseSymbol.ZERO, 1.0)
        # the sweep engine and the fixed-phase runner share one shard loop
        blocks = (
            lambda n, rng: simulate_block(replace(cfg, n_pulses=n), params, rng),
            fixed_shard(*pinned, params),
        )
        for block in blocks:
            whole = _run_sharded(80_000, 10_000, seed_seq(7), block)
            # same shards, different grouping: pairwise merge of partial sums
            children = seed_seq(7).spawn(8)
            partial = [block(10_000, np.random.Generator(np.random.PCG64(c))) for c in children]
            for k in (1, 2, 4, 8):
                groups = [partial[i::k] for i in range(k)]
                merged = sum((sum(g[1:], g[0]) for g in groups if g), partial[0].__class__())
                assert merged == whole
        assert run_attack(cfg, params, seed_seq(7)) == _run_sharded(
            80_000, 10_000, seed_seq(7), blocks[0]
        )
        assert run_fixed(*pinned, 80_000, params, seed_seq(7)) == _run_sharded(
            80_000, 10_000, seed_seq(7), blocks[1]
        )

    def test_seed_sequence_reuse_repeats_the_run(self, params, fixed_shards):
        fixed_shards(5_000)
        cfg = AttackConfig(n_pulses=20_000, resend_mu=1.0)
        seq = seed_seq(15)
        block = lambda n, rng: simulate_block(replace(cfg, n_pulses=n), params, rng)  # noqa: E731
        assert _run_sharded(20_000, 5_000, seq, block) == _run_sharded(20_000, 5_000, seq, block)
        assert run_attack(cfg, params, seq) == run_attack(cfg, params, seq)
        pinned = (PhaseSymbol.HALF_PI, PhaseSymbol.ZERO, 1.0)
        assert run_fixed(*pinned, 20_000, params, seq) == run_fixed(*pinned, 20_000, params, seq)

    def test_flux_past_the_poisson_range_rejected(self, params):
        # qe = 0.1: 1e25 photons/pulse is a mean of 1e24 detected photons,
        # past numpy's largest Poisson mean; no path into the engine runs it
        with pytest.raises(ConfigError, match="largest Poisson mean"):
            run_attack(AttackConfig(n_pulses=10, resend_mu=1e25), params, seed_seq(19))
        with pytest.raises(ConfigError, match="largest Poisson mean"):
            run_fixed(PhaseSymbol.ZERO, PhaseSymbol.ZERO, 1e25, 10, params, seed_seq(19))

    @pytest.mark.parametrize(
        "n_gates,mu,message",
        [
            (0, 1.0, "n_gates"),
            (10, -1.0, "mu must be finite and non-negative"),
            (10, math.nan, "mu must be finite and non-negative"),
            (2.5, 1.0, "n_gates must be an integer"),
            (True, 1.0, "n_gates must be an integer"),
            (10, True, "mu must be a real number"),
        ],
        ids=["no-gates", "negative-flux", "nan-flux", "fractional-gates", "bool-gates", "bool-flux"],
    )
    def test_run_fixed_rejects_bad_input_before_any_gate(
        self, n_gates, mu, message, params, monkeypatch
    ):
        def no_gates(*args, **kwargs):
            raise AssertionError("a gate was drawn")

        monkeypatch.setattr(attack, "_run_sharded", no_gates)
        with pytest.raises(ConfigError, match=message):
            run_fixed(PhaseSymbol.ZERO, PhaseSymbol.ZERO, mu, n_gates, params, seed_seq(19))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            AttackConfig(n_pulses=0, resend_mu=1.0)
        with pytest.raises(ConfigError):
            AttackConfig(n_pulses=10, resend_mu=1.0, detector=DetectorKind.SELF_DIFFERENCING)
        for bad in (-1.0, math.nan, math.inf, 10**400, -(10**400)):
            with pytest.raises(ConfigError, match="resend_mu must be finite and non-negative"):
                AttackConfig(n_pulses=10, resend_mu=bad)

    @pytest.mark.parametrize(
        "bad",
        [2.5, 1e7, True, "10", np.float64(10.0)],
        ids=["fractional", "float", "bool", "str", "numpy-float"],
    )
    def test_non_integer_pulse_count_rejected(self, bad):
        with pytest.raises(ConfigError, match="n_pulses must be an integer"):
            AttackConfig(n_pulses=bad, resend_mu=1.0)

    @pytest.mark.parametrize(
        "bad", [True, np.bool_(True), "1.0", None], ids=["bool", "numpy-bool", "str", "none"]
    )
    def test_non_real_flux_rejected(self, bad):
        with pytest.raises(ConfigError, match="resend_mu must be a real number"):
            AttackConfig(n_pulses=10, resend_mu=bad)

    def test_numpy_real_flux_is_a_python_float(self):
        for mu in (np.float32(1.5), np.int64(2), 3):
            config = AttackConfig(n_pulses=10, resend_mu=mu)
            assert type(config.resend_mu) is float and config.resend_mu == float(mu)

    def test_scenario_and_detector_names_become_members(self, params):
        """A name runs as its member: ``honest`` by name has no resender."""
        named = AttackConfig(100_000, 30.0, scenario="honest", detector="balanced_bnc")
        assert named.scenario is Scenario.HONEST and named.detector is DetectorKind.BALANCED_BNC
        member = AttackConfig(100_000, 30.0, scenario=Scenario.HONEST)
        rng = lambda: np.random.default_rng(1)  # noqa: E731
        tally = simulate_block(named, params, rng())
        assert tally == simulate_block(member, params, rng()) and tally.errors == 0
        with pytest.raises(ConfigError, match="not wired into the gate pipeline"):
            AttackConfig(10, 1.0, detector="self_differencing")

    @pytest.mark.parametrize("field", ["scenario", "detector"])
    def test_unknown_scenario_or_detector_rejected(self, field):
        with pytest.raises(ConfigError, match=f"{field} must be one of"):
            AttackConfig(10, 1.0, **{field: "sneaky"})

    def test_numpy_integer_pulse_count_is_a_python_int(self, params):
        config = AttackConfig(n_pulses=np.int64(1000), resend_mu=1.0)
        assert type(config.n_pulses) is int and config.n_pulses == 1000
        rng = lambda: np.random.default_rng(3)  # noqa: E731
        expected = simulate_block(AttackConfig(1000, 1.0), params, rng())
        assert simulate_block(config, params, rng()) == expected


READOUTS = (DetectorKind.BASELINE_TWO_APD, DetectorKind.BALANCED_BNC)


def within(observed, expected, sigma, k=4.0):
    return abs(observed - expected) <= k * sigma


class TestGateKernel:
    def test_arm_means_route_by_phase_difference(self):
        lam = 2.0 * 0.1
        assert arm_means(2.0, 0.1, 0) == (lam, 0.0)
        assert arm_means(2.0, 0.1, 1) == (lam / 2, lam / 2)
        assert arm_means(2.0, 0.1, 2) == (0.0, lam)
        assert arm_means(2.0, 0.1, 3) == (lam / 2, lam / 2)

    @pytest.mark.parametrize("w", [1.0, 0.5, 0.0])
    def test_routing_class_closed_forms(self, w, params):
        """pe ~ n*lam, fired ~ 1-(1-dcp)exp(-lam) and doubles ~ their
        product per arm, each within 4 sigma on both readouts, with a
        share w of the pulse on arm 1 and the rest on arm 2."""
        n, mu, qe, dcp = 1_000_000, 3.0, 0.1, 1e-3
        dark = replace(params, dcp_apd1=dcp, dcp_apd2=dcp)
        lam = (mu * qe * w, mu * qe * (1.0 - w))
        p_fired = [1.0 - (1.0 - dcp) * math.exp(-x) for x in lam]
        p_double = p_fired[0] * p_fired[1]
        for detector in READOUTS:
            t = detect_pair(*lam, n, detector, dark, np.random.default_rng(int(4 * w)))
            for x, p, pe, fired in zip(lam, p_fired, (t.pe1, t.pe2), (t.fired1, t.fired2)):
                assert within(pe, n * x, math.sqrt(n * x)) and (x > 0.0 or pe == 0)
                assert within(fired, n * p, math.sqrt(n * p * (1 - p)))
            assert within(t.doubles, n * p_double, math.sqrt(n * p_double * (1 - p_double)))

    def test_split_arms_match_binomial_chain(self, params):
        """Per-arm Poisson draws against the photon -> split -> QE chain.

        The reference draws the photon number, splits it 50/50 and thins
        each arm by the quantum efficiency.  Both give independent arms,
        so every joint (no photon, photon) frequency of the kernel's
        fired and double counters agrees within 4 sigma of the difference
        of two binomial frequencies.
        """
        n, mu, qe = 1_000_000, 20.0, 0.1
        rng = np.random.default_rng(17)
        photons = rng.poisson(mu, n)
        split = rng.binomial(photons, 0.5)
        ref = (rng.binomial(split, qe) > 0, rng.binomial(photons - split, qe) > 0)
        quiet = replace(params, dcp_apd1=0.0, dcp_apd2=0.0)
        lam1, lam2 = arm_means(mu, qe, 1)
        t = detect_pair(lam1, lam2, n, DetectorKind.BASELINE_TWO_APD, quiet, rng)
        got = {
            (False, False): n - t.fired1 - t.fired2 + t.doubles,
            (True, False): t.fired1 - t.doubles,
            (False, True): t.fired2 - t.doubles,
            (True, True): t.doubles,
        }
        for (hit1, hit2), count in got.items():
            p_ref = float(((ref[0] == hit1) & (ref[1] == hit2)).mean())
            sigma = math.sqrt(2 * p_ref * (1 - p_ref) / n)
            assert within(count / n, p_ref, sigma), (hit1, hit2, count / n, p_ref)

    def test_zero_mean_draws_no_photons(self, params):
        quiet = replace(params, dcp_apd1=0.0, dcp_apd2=0.0)
        for detector in READOUTS:
            t = detect_pair(0.0, 0.0, 1000, detector, quiet, np.random.default_rng(0))
            assert t.pe1 == t.pe2 == t.fired1 == t.fired2 == t.doubles == 0

    @pytest.mark.parametrize("scale", [0.05, 1.0, 2.5], ids=lambda scale: f"{scale}-scalar")
    def test_carrier_law_on_both_paths(self, scale, params):
        """P(K=0), P(K=1) and P(K>=2) of the carrier count K = k + d,
        through the counters of both readouts, within 4 sigma.

        Each gate carries k ~ Poisson(lam) plus a Bernoulli(dcp) dark
        ignition d.  Both readouts count the gates with K > 0 as fired;
        the balanced census counts an avalanche of K carriers as weak
        with probability P[K], from ``scipy.stats.gamma`` at a rail of
        one gain mean, where a single carrier stays below it 63% of the
        time and K >= 2 often too.  Each count is binomial in the gates.
        """
        n, dcp, lam = 200_000, 0.01, scale
        rail = replace(params, gain_mean=1.0, t_strong=1.0, dcp_apd1=dcp, dcp_apd2=0.0)
        silent = math.exp(-lam)
        p0 = (1 - dcp) * silent
        p1 = (1 - dcp) * lam * silent + dcp * silent
        many = np.arange(2, 80)
        p_many = (1 - dcp) * stats.poisson.pmf(many, lam) + dcp * stats.poisson.pmf(many - 1, lam)
        below = stats.gamma(a=np.arange(1, 80)).cdf(1.0)
        p_weak = p1 * below[0] + float(p_many @ below[1:])
        for detector in READOUTS:
            t = detect_pair(lam, 0.0, n, detector, rail, np.random.default_rng(int(40 * scale)))
            assert t.fired2 == t.pe2 == 0
            assert within(n - t.fired1, n * p0, math.sqrt(n * p0 * (1 - p0)))
            assert within(t.pe1, n * lam, math.sqrt(n * lam))
            if detector is DetectorKind.BALANCED_BNC:
                assert within(t.weak, n * p_weak, math.sqrt(n * p_weak * (1 - p_weak)))

    def test_dark_positions_are_distinct(self, params):
        """A gate holds at most one dark carrier: at zero mean every fired
        gate is a single-carrier avalanche, weak with probability P[1] =
        1 - 1/e at a rail of one gain mean."""
        n, dcp = 100_000, 0.5
        rail = replace(params, gain_mean=1.0, t_strong=1.0, dcp_apd1=dcp, dcp_apd2=0.0)
        t = detect_pair(0.0, 0.0, n, DetectorKind.BALANCED_BNC, rail, np.random.default_rng(3))
        p_weak = 1.0 - math.exp(-1.0)
        assert t.pe1 == t.fired2 == 0
        assert within(t.fired1, n * dcp, math.sqrt(n * dcp * (1 - dcp)))
        assert within(t.weak, t.fired1 * p_weak, math.sqrt(t.fired1 * p_weak * (1 - p_weak)))


class TestRunFixed:
    def test_controlled_blinding_rate_is_dark_level(self, params):
        # matched phases: only an APD2 dark fire alongside the railed APD1
        # avalanche can produce a blinding word
        n = 2_000_000
        pinned = (PhaseSymbol.ZERO, PhaseSymbol.ZERO, 500.0)
        stats = _run_sharded(
            n, SHARD_GATES, seed_seq(8), fixed_shard(*pinned, params, DetectorKind.BALANCED_BNC)
        )
        expected = n * params.dcp_apd2 * 0.9  # strong dark avalanches
        assert abs(stats.blind - expected) < 5 * math.sqrt(expected)

    def test_split_side_symmetry(self, params):
        stats = run_fixed(
            PhaseSymbol.HALF_PI, PhaseSymbol.ZERO, 0.1, 1_000_000, params, seed_seq(9)
        )
        singles = stats.click1 + stats.click2
        assert abs(stats.click1 / singles - 0.5) < 0.01

    def test_last_shard_takes_the_remainder(self, params):
        pinned = (PhaseSymbol.ZERO, PhaseSymbol.ZERO, 1.0)
        shard, sizes = fixed_shard(*pinned, params), []

        def block(n, rng):
            sizes.append(n)
            return shard(n, rng)

        stats = _run_sharded(25_000, 10_000, seed_seq(13), block)
        assert sizes == [10_000, 10_000, 5_000]
        assert stats.gates == 25_000
        assert stats.click1 + stats.click2 + stats.no_click == 25_000

    def test_allocation_bounded_by_one_shard(self, params, least_peak):
        """A case-C run of CASE_C_GATES, one shard of the two-APD pair,
        allocates about what a SHARD_GATES run does, and less than a float
        per gate of it: the pair draws no per-gate array."""
        split = (PhaseSymbol.HALF_PI, PhaseSymbol.ZERO, CASE_C_MU)

        def peak(n_gates):
            return least_peak(lambda: run_fixed(*split, n_gates, params, seed_seq(14)))

        assert CASE_C_GATES >= 4 * SHARD_GATES
        many = peak(CASE_C_GATES)
        assert many < 1.25 * peak(SHARD_GATES)
        assert many < 8 * SHARD_GATES


class TestShardSize:
    """The shard rule: :data:`SHARD_WORK` expected per-gate entries per
    shard, within :data:`SHARD_GATES` and :data:`SHARD_GATES_MAX`."""

    FLUX = (0.0, 0.1, 1.0, 10.0, 18.0, 37.0, 100.0, 500.0, 1e4, 1e12)
    SETTINGS = (
        (DetectorKind.BALANCED_BNC, Scenario.ATTACK_CM),
        (DetectorKind.BALANCED_BNC, Scenario.HONEST),
        (DetectorKind.BALANCED_BNC, Scenario.BLINDING_ONLY),
        (DetectorKind.SELF_DIFFERENCING, Scenario.BLINDING_ONLY),
        (DetectorKind.BASELINE_TWO_APD, Scenario.ATTACK_NO_CM),
    )

    def test_within_floor_and_cap(self, params):
        """Where neither bound binds a shard expects SHARD_WORK entries, to
        within one gate's; the floor keeps heavier points at SHARD_GATES,
        and points without weak gates, or without per-gate arrays, take
        the cap."""
        dark_free = replace(params, dcp_apd1=0.0, dcp_apd2=0.0)
        for p in (params, replace(params, **HIGH_RAIL), dark_free):
            for detector, scenario in self.SETTINGS:
                for mu in self.FLUX:
                    size = attack.shard_size(mu, p, scenario, detector)
                    work = attack.gate_work(mu, p, scenario, detector)
                    assert SHARD_GATES <= size <= SHARD_GATES_MAX
                    if work == 0.0:
                        assert size == SHARD_GATES_MAX
                    elif SHARD_GATES < size < SHARD_GATES_MAX:
                        assert SHARD_WORK - work < size * work <= SHARD_WORK
                    elif size == SHARD_GATES:
                        assert size * work >= SHARD_WORK - work
                    else:
                        assert size * work <= SHARD_WORK
        balanced, two_apd = DetectorKind.BALANCED_BNC, DetectorKind.BASELINE_TWO_APD
        assert attack.gate_work(0.0, dark_free, Scenario.ATTACK_CM, balanced) == 0.0
        assert attack.shard_size(1.0, params, None, two_apd) == SHARD_GATES_MAX

    def test_shard_work_below_a_high_rail_shard(self, params):
        """No shard expects more entries than a SHARD_GATES shard of the
        high-rail point at its heaviest flux, on any receiver or scenario
        with per-gate arrays, so no point's memory grows with its gates."""
        high_rail = replace(params, **HIGH_RAIL)
        grid = np.geomspace(1.0, 1000.0, 61)
        for detector, scenario in self.SETTINGS[:4]:
            heaviest = max(attack.gate_work(mu, high_rail, scenario, detector) for mu in grid)
            assert SHARD_WORK <= SHARD_GATES * heaviest, (detector, scenario)

    def test_cap_keeps_every_draw_exact(self):
        """numpy's hypergeometric draws need populations below 1e9; a
        photon histogram's total, the cap times signal counts below 2**22,
        must fit int64; the weighted event counts must be exact in float64."""
        # an arm law's window ends 2 * (12 sqrt(lam) + 24) past the P(k) table
        assert WEAK_TABLE_MAX + 2 * (12.0 * math.sqrt(2.0 * WEAK_TABLE_MAX) + 24.0) < 2**22
        assert SHARD_GATES_MAX < 10**9 and SHARD_GATES_MAX * 2**22 < 2**63
        assert SHARD_GATES_MAX < 2**53

    @pytest.mark.parametrize(
        "detector,scenario,mu",
        [
            (DetectorKind.BALANCED_BNC, Scenario.ATTACK_CM, 500.0),
            (DetectorKind.BASELINE_TWO_APD, Scenario.ATTACK_NO_CM, 0.1),
            (DetectorKind.SELF_DIFFERENCING, Scenario.BLINDING_ONLY, 100.0),
        ],
    )
    def test_point_at_the_cap_runs(self, params, detector, scenario, mu):
        """A SHARD_GATES_MAX-gate shard draws and counts every gate.  At
        mu = 100 the self-differencing skeleton's hypergeometric
        populations are nearly the whole shard."""
        assert attack.shard_size(mu, params, scenario, detector) == SHARD_GATES_MAX
        spec = SweepSpec((mu,), SHARD_GATES_MAX, scenario, detector, seed=3)
        row = run_sweep(spec, params).rows[0]
        assert row.gates == SHARD_GATES_MAX
        assert 0.0 < row.apd1_rate < params.f_gate

    def test_point_of_at_most_shard_gates_is_one_shard(self, params):
        """Up to SHARD_GATES gates a point is one block on the first child
        of its seed, whatever its shard size; so is a table-1 case-C row
        (CASE_C_GATES on the two-APD pair, whose shards take the cap)."""
        child = seed_seq(3).spawn(1)[0]
        high_rail = replace(params, **HIGH_RAIL)
        points = ((params, 0.1, SHARD_GATES), (high_rail, 30.0, SHARD_GATES), (params, 10.0, 999))
        for p, mu, n in points:
            cfg = AttackConfig(n_pulses=n, resend_mu=mu)
            rng = np.random.Generator(np.random.PCG64(child))
            assert run_attack(cfg, p, seed_seq(3)) == simulate_block(cfg, p, rng)
        mu, n = CASE_C_MU, CASE_C_GATES
        assert SHARD_GATES < n < attack.shard_size(mu, params, None, DetectorKind.BASELINE_TWO_APD)
        split = (PhaseSymbol.HALF_PI, PhaseSymbol.ZERO)
        rng = np.random.Generator(np.random.PCG64(child))
        one_block = fixed_shard(*split, mu, params)(n, rng)
        assert run_fixed(*split, mu, n, params, seed_seq(3)) == one_block

    def test_high_rail_point_memory_bounded_by_one_shard(self, params, monkeypatch, least_peak):
        """A many-shard point where weak-weak gates are common allocates at
        most a quarter more than one shard.  The rule's constants are
        scaled down a hundredfold, which keeps the SHARD_GATES floor
        binding at the high-rail mu = 30 point (0.19 weak-weak gates per
        gate), so twenty shards stand in for a 1e8-gate point."""
        monkeypatch.setattr(attack, "SHARD_GATES", SHARD_GATES // 100)
        monkeypatch.setattr(attack, "SHARD_WORK", SHARD_WORK // 100)
        high_rail = replace(params, **HIGH_RAIL)
        shard = attack.shard_size(30.0, high_rail, Scenario.ATTACK_CM, DetectorKind.BALANCED_BNC)
        assert shard == SHARD_GATES // 100

        def peak(gates):
            cfg = AttackConfig(n_pulses=gates, resend_mu=30.0)
            return least_peak(lambda: run_attack(cfg, high_rail, seed_seq(16)))

        one = peak(shard)
        assert one > 100_000  # the shard's weak-weak rows, not numpy's temporaries
        assert peak(20 * shard) <= 1.25 * one


class TestCaseRowOracle:
    def test_deterministic_row(self, params):
        row = enumerate_cases()[0]
        result = evaluate_case_row(row, params, seed_seq(10), gates=100_000)
        assert result.matched
        assert result.observed >= 0.999

    def test_split_row(self, params):
        row = next(r for r in enumerate_cases() if r.case_label is CaseLabel.C)
        result = evaluate_case_row(row, params, seed_seq(11))
        assert result.matched


@given(data=st.data())
def test_sift_counts_matches_record_path(data):
    """The reduction and the per-gate reference ledger agree exactly, with
    each gate its own class of unit size."""
    n = data.draw(st.integers(min_value=1, max_value=60))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    alice_basis = rng.integers(0, 2, n)
    alice_bit = rng.integers(0, 2, n)
    bob_basis = rng.integers(0, 2, n)
    click_state = rng.integers(0, 3, n)  # 0 none, 1 apd1, 2 apd2
    click1 = click_state == 1
    click2 = click_state == 2
    sifted, errors = sift_counts(alice_basis == bob_basis, alice_bit, click1, click2)

    gates = zip(alice_basis + 2 * alice_bit, bob_basis, click_state)
    assert (sifted, errors) == sift_ledger(gates)


def protocol_tuples(scenario):
    """(delta, casec, sift, bit) of each of the 32 equally likely (sender
    basis, bit, receiver basis, resender basis, coin) tuples.

    The routing rule restated with phase symbols: the resender resends the
    sender's phase when her guess basis matches the sender's, else a
    coin-flip phase in her guess basis; case C is a guess basis (the
    sender's own, without a resender) that differs from the receiver's.
    """
    out = []
    for a, x, b, e, c in itertools.product((0, 1), repeat=5):
        alice, bob = PhaseSymbol(a + 2 * x), RECEIVER_PHASES[b]
        if scenario is Scenario.HONEST:
            send, guess_basis = alice, alice.basis
        else:
            send = alice if e == alice.basis else PhaseSymbol(e + 2 * c)
            guess_basis = e
        out.append((send.minus(bob).value, guess_basis != bob.basis, alice.basis == bob.basis, alice.bit))
    return out


def class_weights(classes):
    """{(delta, casec, sift, bit): weight} of a class table."""
    keys = zip(*(col.tolist() for col in classes[1:]))
    return dict(zip(keys, classes.weight.tolist()))


class TestProtocolClasses:
    @pytest.mark.parametrize("scenario", [Scenario.HONEST, Scenario.ATTACK_NO_CM, Scenario.ATTACK_CM])
    def test_table_equals_tuple_enumeration(self, scenario):
        classes = protocol_classes(scenario)
        expected = {key: count / 32 for key, count in Counter(protocol_tuples(scenario)).items()}
        assert class_weights(classes) == expected

    def test_blinding_and_pinned_are_one_class(self, params):
        assert class_weights(protocol_classes(Scenario.BLINDING_ONLY)) == {(1, True, False, 0): 1.0}
        # a pinned phase difference is one class that sifts nothing and is
        # never case C: run_fixed is the gate kernel alone
        t = run_fixed(PhaseSymbol.PI, PhaseSymbol.ZERO, 1.0, 20_000, params, seed_seq(12))
        assert t.click2 > 0 and t.sifted == t.errors == t.casec_gates == 0


@pytest.mark.parametrize(
    "scenario,detector",
    [
        (Scenario.ATTACK_NO_CM, DetectorKind.BASELINE_TWO_APD),
        (Scenario.ATTACK_CM, DetectorKind.BALANCED_BNC),
        (Scenario.HONEST, DetectorKind.BASELINE_TWO_APD),
    ],
)
@pytest.mark.parametrize("mu", [0.1, 1.0, 30.0])
def test_counters_match_closed_forms(scenario, detector, mu, params):
    """Per-arm fired, casec_gates and (two-APD) sifted gates within 4 sigma
    of their closed forms over the tuple enumeration.  Gates are i.i.d., so
    each count is binomial in the gates."""
    n = 400_000
    cfg = AttackConfig(n, mu, scenario=engine_scenario(scenario), detector=detector)
    tally = run_attack(cfg, params, seed_seq(int(10 * mu) + 20))
    rows = protocol_tuples(scenario)
    dcp = (params.dcp_apd1, params.dcp_apd2)
    p = Counter()
    for delta, casec, sift, _ in rows:
        fired = [
            1.0 - (1.0 - dcp[arm]) * math.exp(-lam)
            for arm, lam in enumerate(arm_means(mu, params.qe, delta))
        ]
        p["fired1"] += fired[0] / len(rows)
        p["fired2"] += fired[1] / len(rows)
        p["casec_gates"] += casec / len(rows)
        if sift and detector is DetectorKind.BASELINE_TWO_APD:
            p["sifted"] += (fired[0] + fired[1] - 2 * fired[0] * fired[1]) / len(rows)
    for name, prob in p.items():
        sigma = math.sqrt(n * prob * (1 - prob)) or 1.0
        assert within(getattr(tally, name), n * prob, sigma), (name, getattr(tally, name), n * prob)


TALLY_CONFIGS = st.builds(
    AttackConfig,
    n_pulses=st.integers(1, 2000),
    resend_mu=st.sampled_from([0.0, 0.1, 1.0, 30.0, 500.0]),
    scenario=st.sampled_from([s for s in Scenario if s is not Scenario.ATTACK_NO_CM]),
    detector=st.sampled_from([DetectorKind.BASELINE_TWO_APD, DetectorKind.BALANCED_BNC]),
)


@given(config=TALLY_CONFIGS, seed=st.integers(0, 2**32 - 1))
def test_tally_invariants(config, seed):
    t = simulate_block(config, DetectorParams.default(), np.random.default_rng(seed))
    assert t.errors <= t.sifted <= t.click1 + t.click2 <= t.gates
    assert max(t.casec_click1, t.casec_click2, t.casec_blind) <= t.casec_gates <= t.gates
    assert t.doubles <= min(t.fired1, t.fired2)
    if config.detector is DetectorKind.BALANCED_BNC:
        assert t.weak + t.strong == t.fired1 + t.fired2
        assert t.blind + t.weak_coinc <= t.doubles
    else:
        assert t.click1 + t.doubles == t.fired1 and t.click2 + t.doubles == t.fired2
        assert t.blind == t.weak == t.strong == 0


@given(config=TALLY_CONFIGS, seeds=st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3))
def test_shard_merge_is_associative(config, seeds):
    a, b, c = (simulate_block(config, DetectorParams.default(), np.random.default_rng(s)) for s in seeds)
    assert asdict(a + b) == {k: v + getattr(b, k) for k, v in asdict(a).items()}
    assert (a + b) + c == a + (b + c)
    assert a + GateTally() == a


class RecordingRng:
    """Generator stand-in that keeps every draw, in order, as (method, args, result)."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws.append((name, args, out))
            return out

        return draw


def full_array_tally(fired, amps, labels, classes, params, balanced):
    """GateTally of a block counted gate by gate over every gate, fired or
    not, with the per-gate rules of :mod:`reference`; ``pe1``/``pe2`` are
    left at 0.

    ``fired`` and ``amps`` hold each arm's per-gate flags and amplitudes,
    ``labels`` each gate's class.  A class fixes the sifting ledger's
    inputs up to a relabelling: on receiver basis 0, a sender phase with
    the class's bit, in basis 0 when the class sifts and 1 when not.
    """
    t = GateTally(gates=labels.size)
    ledger = []
    for i in range(labels.size):
        cls = labels[i]
        fired1, fired2 = bool(fired[0][i]), bool(fired[1][i])
        casec = bool(classes.casec[cls])
        t.fired1 += fired1
        t.fired2 += fired2
        t.doubles += fired1 and fired2
        t.casec_gates += casec
        if balanced:
            amp1, amp2 = float(amps[0][i]), float(amps[1][i])
            a, b, c, d = comparators(amp1, amp2, params.t_strong, params.t_diff)
            event = gate_event(a, b, c, d)
            click = 1 if c else 2 if d else 0
            blind = event == "BLINDING_DETECTED"
            t.blind += blind
            t.weak += (fired1 and not a) + (fired2 and not b)
            t.strong += a + b
            t.weak_coinc += fired1 and fired2 and event == "NO_EVENT"
            t.casec_blind += casec and blind
        else:
            click = two_apd_click(fired1, fired2)
        t.click1 += click == 1
        t.click2 += click == 2
        t.casec_click1 += casec and click == 1
        t.casec_click2 += casec and click == 2
        alice_phase = 2 * int(classes.bit[cls]) + (0 if classes.sift[cls] else 1)
        ledger.append((alice_phase, 0, click))
    t.sifted, t.errors = sift_ledger(ledger)
    return t


def recorded_kernel(monkeypatch):
    """Record every :func:`detect_pair` call ``simulate_block`` makes, as
    (arguments, returned tally, the indices of its draws in the
    :class:`RecordingRng` it draws from)."""
    calls = []
    detect_pair = attack.detect_pair

    def recorded(*args):
        draws = args[-1].draws
        start = len(draws)
        out = detect_pair(*args)
        calls.append((args, replace(out), range(start, len(draws))))
        return out

    monkeypatch.setattr(attack, "detect_pair", recorded)
    return calls


def split_draws(rng, calls):
    """The draws of a block made outside its group draw and its kernel calls."""
    inside = {0}.union(*(span for *_, span in calls))
    return [draw for i, draw in enumerate(rng.draws) if i not in inside]


@pytest.mark.parametrize(
    "scenario,detector,n",
    [
        (Scenario.ATTACK_CM, DetectorKind.BALANCED_BNC, 20_000),
        (Scenario.ATTACK_NO_CM, DetectorKind.BASELINE_TWO_APD, 20_000),
        (Scenario.HONEST, DetectorKind.BALANCED_BNC, 20_000),
        (Scenario.BLINDING_ONLY, DetectorKind.BALANCED_BNC, 20_000),
        # 8 gates split over 14 classes: most classes draw no gate
        (Scenario.ATTACK_CM, DetectorKind.BALANCED_BNC, 8),
    ],
    ids=[
        "attack_cm-balanced_bnc",
        "attack_no_cm-baseline_two_apd",
        "honest-balanced_bnc",
        "blinding_only-balanced_bnc",
        "attack_cm-balanced_bnc-8gates",
    ],
)
@pytest.mark.parametrize("mu", [0.1, 1.0, 30.0, 500.0])
def test_fired_gate_readout_equals_full_array_count(
    scenario, detector, n, mu, params, monkeypatch
):
    """Reading out weighted rows, counting each readout from its event
    codes and splitting each arm group's outcomes over its classes loses
    nothing.

    Each group's cells (its kernel call's first multinomial draw) give
    every gate's fired flags.  On the balanced readout ``comparator_arrays``
    reads the 12 fixed rows once, when the parameters' readout is built,
    and then, in a kernel call with WEAK-WEAK gates, one row per such
    gate; the fixed rows followed by the call's own rows stand each for as
    many gates as its weight given to ``count_events``.  That holds for
    the side rows of the cells with one weak arm too: each sits strictly
    inside its side of the threshold the other arm's state sets, so each
    of its gates reads as any amplitude of that side would.  Expanded gate
    by gate, each gate's outcome
    (click on APD 1 or 2, blinding flag, or none) takes its class from
    the group's split draw, in gate order; so labelled, the rows give
    every counter but ``pe`` by the per-gate rules of :mod:`reference`."""
    rows, weights = [], []
    rng = RecordingRng(np.random.default_rng(int(mu * 10) + 7))
    comparator_arrays, count_events = attack.comparator_arrays, attack.count_events

    def recorded_rows(amp1, amp2, params):
        # the kernel call it belongs to, then its rows
        rows.append((len(calls), amp1, amp2))
        return comparator_arrays(amp1, amp2, params)

    def recorded_weights(tally, codes, gates, both_raw):
        weights.append(gates)
        return count_events(tally, codes, gates, both_raw)

    calls = recorded_kernel(monkeypatch)
    attack._pair_readout.cache_clear()
    monkeypatch.setattr(attack, "comparator_arrays", recorded_rows)
    monkeypatch.setattr(attack, "count_events", recorded_weights)
    scenario = engine_scenario(scenario)
    config = AttackConfig(n, mu, scenario=scenario, detector=detector)
    tally = simulate_block(config, params, rng)

    # one group draw, no per-gate protocol draw
    classes, groups = protocol_classes(scenario), arm_groups(scenario)
    counts = rng.draws[0][2]
    assert rng.draws[0][0] == "multinomial" and counts.size == groups.weight.size
    assert not [out for name, _, out in rng.draws if name == "integers"]
    # one kernel call per group present, at that group's scalar means, in group order
    present = np.flatnonzero(counts)
    assert [args[:3] for args, *_ in calls] == [
        (*arm_means(mu, params.qe, int(groups.delta[g])), int(counts[g])) for g in present
    ]
    # then one split draw per outcome of each group present with more than one class
    splits = split_draws(rng, calls)
    assert [name for name, *_ in splits] == ["multinomial"] * 4 * sum(
        groups.members[g].size > 1 for g in present
    )
    splits = iter(out for *_, out in splits)
    balanced = detector is DetectorKind.BALANCED_BNC
    assert len(weights) == (present.size if balanced else 0)
    if balanced:
        # the fixed rows, read when the first kernel call builds the readout
        (_, *fixed), *rows = rows
        assert fixed[0].size == fixed[1].size == 12
    else:
        # the two-APD readout reads no comparator
        assert not rows
    fired, amps, labels = [[], []], [[], []], []
    rail = params.t_strong
    for i, (g, (args, _, span)) in enumerate(zip(present.tolist(), calls)):
        cells = next(rng.draws[j][2] for j in span if rng.draws[j][0] == "multinomial")
        if balanced:
            # one comparator call per kernel call with WEAK-WEAK gates, of those gates
            own = [row[1:] for row in rows if row[0] == i]
            assert [row[0].size for row in own] == ([cells[4]] if cells[4] else [])
            block = [np.concatenate([fixed[arm], *(row[arm] for row in own)]) for arm in (0, 1)]
            # an empty arm reads 0 and every avalanche has a positive amplitude
            assert weights[i].size == block[0].size and weights[i].sum() == cells.sum()
            # two side rows per cell with one weak arm, one weak level each
            weak = [(arm > 0.0) & (arm < rail) for arm in block]
            side = weak[0] ^ weak[1]
            assert np.count_nonzero(side) == 8
            for arm in (0, 1):
                level, other = block[arm][side & weak[arm]], block[1 - arm][side & weak[arm]]
                threshold = np.where(other == 0.0, params.t_diff, rail - params.t_diff)
                assert set(other.tolist()) == {0.0, rail} and (level != threshold).all()
            for arm in (0, 1):
                amps[arm].append(np.repeat(block[arm], weights[i]))
                fired[arm].append(amps[arm][-1] > 0.0)
            states = np.divmod(np.arange(9), 3)
            for arm in (0, 1):
                assert np.count_nonzero(fired[arm][-1]) == cells[states[arm] > 0].sum()
        else:
            cells = cells.reshape(2, 2)
            fired[0].append(np.repeat([False, False, True, True], cells.ravel()))
            fired[1].append(np.repeat([False, True, False, True], cells.ravel()))
        # each gate's outcome: 0 click on APD 1, 1 on APD 2, 2 blinding flag, 3 none
        outcome = np.full(args[2], 3)
        for j in range(args[2]):
            fired1, fired2 = fired[0][-1][j], fired[1][-1][j]
            if balanced:
                amp1, amp2 = float(amps[0][-1][j]), float(amps[1][-1][j])
                word = comparators(amp1, amp2, rail, params.t_diff)
                click = 1 if word[2] else 2 if word[3] else 0
                blind = gate_event(*word) == "BLINDING_DETECTED"
            else:
                click, blind = two_apd_click(fired1, fired2), False
            outcome[j] = click - 1 if click else 2 if blind else 3
        members = groups.members[g]
        if members.size > 1:
            split = np.array([next(splits) for _ in range(4)])
        else:
            split = np.bincount(outcome, minlength=4)[:, None]
        assert split.shape == (4, members.size)
        label = np.empty(args[2], np.int64)
        for k in range(4):
            assert np.count_nonzero(outcome == k) == split[k].sum()
            label[outcome == k] = np.repeat(members, split[k])
        labels.append(label)
    if balanced:
        assert {row[0] for row in rows} <= set(range(present.size))
    fired = [np.concatenate(f) if f else np.zeros(0, bool) for f in fired]
    amps = [np.concatenate(a) if a else np.zeros(0) for a in amps]
    labels = np.concatenate(labels) if labels else np.zeros(0, np.int64)
    expected = full_array_tally(fired, amps, labels, classes, params, balanced)
    expected.pe1, expected.pe2 = tally.pe1, tally.pe2
    assert tally == expected
    if n > 1000:
        assert tally.fired1 + tally.fired2 > 0
        if scenario is not Scenario.BLINDING_ONLY:
            assert tally.sifted > 0


def test_class_split_follows_class_weights(params, monkeypatch):
    """Each arm group's outcomes split over its classes by the classes'
    weights, and a block makes one kernel call per arm law drawn.

    ``attack_cm``'s matched-basis groups hold classes of weight 1/16 and
    1/8, so an even split would be wrong.  Over many small blocks on both
    pair receivers, ``casec_gates`` matches its per-gate expectation, and
    ``sifted``, ``errors`` and each class's gates in the split draws match
    theirs given the group counts and kernel outcomes, all within 5 sigma.
    The groups are formed here from the classes' arm means, not read from
    the engine.  A ``blinding_only`` block is one class: one kernel call,
    no split draw, and the parent engine's tally.
    """
    calls = recorded_kernel(monkeypatch)
    blocks = 300
    for scenario, detector, mu in itertools.product(
        (Scenario.ATTACK_CM, Scenario.HONEST),
        (DetectorKind.BALANCED_BNC, DetectorKind.BASELINE_TWO_APD),
        (1.0, 30.0),
    ):
        classes = protocol_classes(scenario)
        laws = [arm_means(mu, params.qe, int(delta)) for delta in classes.delta]
        sift = classes.sift.astype(float)
        error_on = sift * (classes.bit == 1), sift * (classes.bit == 0)  # click1, click2
        config = AttackConfig(400, mu, scenario=scenario, detector=detector)
        casec_gates = 0
        # observed, mean and variance of sifted, errors and each class's gates
        moments = np.zeros((3, 2 + classes.weight.size))
        rng = RecordingRng(np.random.default_rng(4))

        def binomial(column, n, p):
            moments[1, column] += n * p
            moments[2, column] += n * p * (1.0 - p)

        for _ in range(blocks):
            rng.draws.clear()
            del calls[:]
            tally = simulate_block(config, params, rng)
            assert len(calls) <= 3
            casec_gates += tally.casec_gates
            moments[0, :2] += tally.sifted, tally.errors
            splits = [out for *_, out in split_draws(rng, calls)]
            for args, part, _ in calls:
                group = np.array([law == args[:2] for law in laws])
                share = np.where(group, classes.weight, 0.0) / classes.weight[group].sum()
                if group.sum() > 1:
                    split = np.array(splits[:4])
                    del splits[:4]
                    outcomes = [part.click1, part.click2, part.blind, part.no_click - part.blind]
                    assert split.sum(1).tolist() == outcomes
                    moments[0, 2:][group] += split.sum(0)
                else:
                    moments[0, 2:][group] += part.gates
                binomial(0, part.click1 + part.click2, share @ sift)
                binomial(1, part.click1, share @ error_on[0])
                binomial(1, part.click2, share @ error_on[1])
                binomial(slice(2, None), part.gates, share)
            assert not splits
        n_gates, casec_p = blocks * config.n_pulses, float(classes.weight[classes.casec].sum())
        sigma = math.sqrt(n_gates * casec_p * (1.0 - casec_p))
        assert abs(casec_gates - n_gates * casec_p) <= 5.0 * sigma
        observed, mean, var = moments
        assert (np.abs(observed - mean) <= 5.0 * np.sqrt(var)).all(), (scenario, detector, mu)

    # one class: one kernel call, no split draw, and the parent engine's stream
    del calls[:]
    rng = RecordingRng(np.random.default_rng(31))
    config = AttackConfig(100_000, 30.0, Scenario.BLINDING_ONLY, DetectorKind.BALANCED_BNC)
    tally = simulate_block(config, params, rng)
    assert len(calls) == 1 and not split_draws(rng, calls)
    assert tally == GateTally(
        gates=100_000, pe1=149_349, pe2=150_417, fired1=77_390, fired2=77_677,
        click1=19_491, click2=19_858, doubles=60_119, blind=55_401, weak=6_907,
        strong=148_160, weak_coinc=28, casec_gates=100_000, casec_click1=19_491,
        casec_click2=19_858, casec_blind=55_401, sifted=0, errors=0,
    )


@pytest.mark.parametrize(
    "mu,expected",
    [
        (10.0, dict(
            pe1=501_801, pe2=499_373, fired1=355_758, fired2=354_649, click1=281_815,
            click2=280_618, doubles=77_429, blind=66_770, weak=49_578, strong=660_829,
            weak_coinc=73, casec_gates=500_375, casec_click1=124_500, casec_click2=123_858,
            casec_blind=66_764, sifted=281_906, errors=62_044,
        )),
        (30.0, dict(
            pe1=1_500_363, pe2=1_498_159, fired1=626_725, fired2=625_525, click1=336_019,
            click2=334_758, doubles=301_938, blind=277_900, weak=43_034, strong=1_209_216,
            weak_coinc=102, casec_gates=500_375, casec_click1=98_585, casec_click2=98_190,
            casec_blind=277_890, sifted=335_423, errors=49_080,
        )),
    ],
)
def test_weak_weak_blocks_keep_their_stream(mu, expected, params):
    """1M-gate balanced ``attack_cm`` blocks at mu = 10 and 30, whose
    kernel calls read hundreds of WEAK-WEAK gates, give the tallies of the
    engine that read every fixed row in every call and drew the weak
    cells with ``rng.choice``."""
    config = AttackConfig(1_000_000, mu, Scenario.ATTACK_CM, DetectorKind.BALANCED_BNC)
    tally = simulate_block(config, params, np.random.default_rng(37))
    assert tally == GateTally(gates=1_000_000, **expected)


@pytest.mark.parametrize(
    "mu,high_rail,expected",
    [
        (0.1, False, dict(
            pe1=9_798, fired1=9_782, click1=9_598, click2=9_599, blind=82, weak=953, strong=8_829,
        )),
        (1.0, False, dict(
            pe1=99_950, fired1=95_090, click1=86_048, click2=86_043, blind=7_472, weak=8_946,
            strong=86_144,
        )),
        (10.0, False, dict(
            pe1=1_001_066, fired1=632_585, click1=252_218, click2=252_081, blind=355_926,
            weak=37_488, strong=595_097,
        )),
        (30.0, False, dict(
            pe1=2_997_200, fired1=949_950, click1=61_090, click2=61_054, blind=873_748,
            weak=15_963, strong=933_987,
        )),
        (500.0, False, dict(
            pe1=49_992_173, fired1=1_000_000, click1=1, click2=0, blind=999_999, weak=0,
            strong=1_000_000,
        )),
        (10.0, True, dict(
            pe1=1_001_100, fired1=633_008, click1=225_229, click2=225_201, blind=17_081,
            weak=538_962, strong=94_046,
        )),
    ],
)
def test_self_differencing_points_keep_their_stream(mu, high_rail, expected, params):
    """1M-gate self-differencing points give the tallies of the engine
    whose ``sd_event_codes`` took the delay register's start value, whose
    ``count_events`` defaulted its weights and whose readouts each stated
    their own side cuts."""
    p = replace(params, **HIGH_RAIL) if high_rail else params
    tally = _run_sd_point(mu, 1_000_000, p, np.random.SeedSequence(41))
    assert tally == GateTally(gates=1_000_000, **expected)


def test_class_split_draws_are_one_array_draw(params):
    """Drawing a group's split one outcome at a time gives the variates,
    and leaves the generator where, one draw with the outcomes as ``n``
    would."""
    share = arm_groups(Scenario.ATTACK_CM).share[0]
    for seed in range(50):
        outcomes = np.random.default_rng(seed).integers(0, [10, 10**3, 10**6, 10**9][seed % 4], 4)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        split = np.array([ours.multinomial(m, share) for m in outcomes.tolist()])
        assert np.array_equal(split, theirs.multinomial(outcomes.tolist(), share))
        assert ours.bit_generator.state == theirs.bit_generator.state


def direct_arm_law(lam, dcp, params):
    """(P(empty), P(weak), P(railed)) of one arm, summed gate state by gate
    state over k ~ Poisson(lam) and d ~ Bernoulli(dcp), with P[K] from
    ``gammainc`` directly."""
    x = params.t_strong / params.gain_mean
    p = {"empty": 0.0, "weak": 0.0, "railed": 0.0}
    for k in range(int(lam + 40 * math.sqrt(lam) + 60)):
        pk = stats.poisson.pmf(k, lam)
        for d, pd in ((0, 1.0 - dcp), (1, dcp)):
            carriers = k + d
            if carriers == 0:
                p["empty"] += pk * pd
            else:
                weak = special.gammainc(carriers, x)
                p["weak"] += pk * pd * weak
                p["railed"] += pk * pd * (1.0 - weak)
    return np.array([p["empty"], p["weak"], p["railed"]])


@pytest.mark.parametrize("mu", [0.0, 0.1, 1.0, 30.0, 500.0])
@pytest.mark.parametrize("delta", [0, 1])
def test_cell_probabilities_match_per_gate_law(mu, delta, params):
    """The 3 x 3 cell probabilities detect_pair draws from equal the
    product of each arm's direct per-gate (empty, weak, railed) law."""
    dark_heavy = replace(params, dcp_apd2=0.3)
    lam1, lam2 = arm_means(mu, params.qe, delta)
    rng = RecordingRng(np.random.default_rng(0))
    attack.detect_pair(lam1, lam2, 1000, DetectorKind.BALANCED_BNC, dark_heavy, rng)
    name, (n, pvals), _ = rng.draws[0]
    assert name == "multinomial" and n == 1000
    direct = np.outer(
        direct_arm_law(lam1, dark_heavy.dcp_apd1, dark_heavy),
        direct_arm_law(lam2, dark_heavy.dcp_apd2, dark_heavy),
    )
    np.testing.assert_allclose(pvals, direct.ravel(), rtol=1e-9, atol=1e-300)


@pytest.mark.parametrize("delta", [0, 1, 2])
@pytest.mark.parametrize(
    "high_rail,mu", [(False, 10.0), (False, 30.0), (True, 1.0), (True, 10.0), (True, 30.0)]
)
def test_pair_counters_match_dense_reference(high_rail, mu, delta, params):
    """Each counter of 100k-gate balanced :func:`detect_pair` calls, at
    the arm means of each arm group, agrees with the same gates drawn and
    read one by one (:func:`reference.balanced_point_dense`) within 5
    sigma (Welch, 20 points a side); a counter that neither side varies
    agrees exactly.  On the default point and on the high rail with a
    dark-heavy APD 1, where weak-weak gates hold 0.3-19% of the gates."""
    p = replace(params, dcp_apd1=0.05, **HIGH_RAIL) if high_rail else params
    lam1, lam2 = arm_means(mu, p.qe, delta)
    n, points = 100_000, 20
    ours, theirs = (np.random.default_rng([side, int(mu), delta, high_rail]) for side in (0, 1))
    dense = [
        balanced_point_dense(
            n, lam1, lam2, p.dcp_apd1, p.dcp_apd2, p.gain_mean, p.t_strong, p.t_diff, theirs
        )
        for _ in range(points)
    ]
    names = list(dense[0])
    dense = np.array([[point[name] for name in names] for point in dense])
    drawn = np.array([
        [getattr(tally, name) for name in names]
        for tally in (
            detect_pair(lam1, lam2, n, DetectorKind.BALANCED_BNC, p, ours) for _ in range(points)
        )
    ])
    gap = drawn.mean(0) - dense.mean(0)
    spread = np.sqrt((drawn.var(0, ddof=1) + dense.var(0, ddof=1)) / points)
    z = np.divide(gap, spread, out=np.where(gap == 0.0, 0.0, np.inf), where=spread > 0.0)
    assert (np.abs(z) < 5.0).all(), dict(zip(names, z.round(2).tolist()))


#: A high rail, so that weak arms of several carriers are common, and the
#: two thresholds of the one-weak cells: t_diff = 1 beside an empty arm,
#: t_strong - t_diff = 2 beside a railed one.
HIGH_RAIL = dict(t_strong=3.0, t_diff=1.0)


def test_weak_amplitudes_independent_of_other_arm(params, monkeypatch):
    """A weak arm's amplitude law is the same whatever the other arm's
    state: the arms are independent.  The share of the WEAK-WEAK gates'
    per-gate amplitudes below t_diff (read after the parameters' 12
    fixed rows) matches the below side's share of
    the (WEAK, EMPTY) cell within 5 sigma, on each arm.  A high rail and
    threshold make weak avalanches of several carriers common and put
    both sides far from 0 and 1."""
    high_rail = replace(params, **HIGH_RAIL)
    rows, weights = [], []
    comparator_arrays, count_events = attack.comparator_arrays, attack.count_events

    def recorded_rows(amp1, amp2, p):
        rows.append((amp1, amp2))
        return comparator_arrays(amp1, amp2, p)

    def recorded_weights(tally, codes, gates, both_raw):
        weights.append(gates)
        return count_events(tally, codes, gates, both_raw)

    attack._pair_readout.cache_clear()
    monkeypatch.setattr(attack, "comparator_arrays", recorded_rows)
    monkeypatch.setattr(attack, "count_events", recorded_weights)
    rail, t_diff = high_rail.t_strong, high_rail.t_diff
    rng = np.random.default_rng(5)
    attack.detect_pair(2.0, 2.0, 200_000, DetectorKind.BALANCED_BNC, high_rail, rng)
    # the fixed rows, read once for the parameters, then the WEAK-WEAK rows
    (fixed, weak_weak), (weight,) = rows, weights
    row = [np.concatenate([f, w]) for f, w in zip(fixed, weak_weak)]
    for amp, other in (row, row[::-1]):
        weak, weak_other = ((x > 0.0) & (x < rail) for x in (amp, other))
        per_gate = amp[weak & weak_other]
        side = weak & (other == 0.0)
        side_below, side_all = weight[side & (amp < t_diff)].sum(), weight[side].sum()
        assert np.count_nonzero(side) == 2 and min(per_gate.size, side_all) > 10_000
        share = np.count_nonzero(per_gate < t_diff) / per_gate.size
        pooled = (share * per_gate.size + side_below) / (per_gate.size + side_all)
        sigma = math.sqrt(pooled * (1.0 - pooled) * (1.0 / per_gate.size + 1.0 / side_all))
        assert 0.2 < pooled < 0.8
        assert abs(share - side_below / side_all) <= 5.0 * sigma


def side_share(lam, dcp, params, threshold):
    """P(amplitude < threshold | weak) of one arm, summed over K = d + k
    with k ~ Poisson(lam) and d ~ Bernoulli(dcp), from ``gammainc``."""
    k = np.arange(int(lam + 40 * math.sqrt(lam) + 60))
    below = weak = 0.0
    for d, pd in ((0, 1.0 - dcp), (1, dcp)):
        carriers = np.maximum(k + d, 1)
        w = np.where(k + d > 0, pd * stats.poisson.pmf(k, lam), 0.0)
        below += w @ special.gammainc(carriers, threshold / params.gain_mean)
        weak += w @ special.gammainc(carriers, params.t_strong / params.gain_mean)
    return below / weak


@pytest.mark.parametrize("carriers", [1, 2, 3, 10])
def test_below_tables_match_gammainc_ratio(carriers, params):
    """The share of K-carrier weak avalanches below each threshold, read
    from the cached tables, is the ratio of incomplete gammas."""
    high_rail = replace(params, **HIGH_RAIL)
    weak = weak_probabilities(high_rail)
    for threshold in (1.0, 2.0):
        table = below_probabilities(high_rail, threshold)
        assert below_probabilities(high_rail, threshold) is table and table.size == weak.size
        with pytest.raises(ValueError):
            table[0] = 0.0
        oracle = special.gammainc(carriers, threshold) / special.gammainc(carriers, 3.0)
        assert table[carriers] / weak[carriers] == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("other", ["empty", "railed"])
def test_one_weak_cell_splits_by_side_law(other, params):
    """A one-weak cell splits its weak arms by the closed-form side law.

    Arm 2 is always EMPTY (no dark counts, no signal) or always RAILED
    (a mean past the P(k) table), so every weak arm 1 sits in one cell.
    Beside an empty arm a weak arm clicks (``WEAK_1``) at or above
    t_diff; beside a railed one it flags blinding at or above
    t_strong - t_diff, and below it the railed arm's strong click wins.
    Arm 1's dark probability is high, so its dark row moves the share.
    """
    high_rail = replace(params, dcp_apd1=0.5, dcp_apd2=0.0, **HIGH_RAIL)
    lam1, n = 0.5, 400_000
    lam2, threshold = (0.0, 1.0) if other == "empty" else (1e6, 2.0)
    t = detect_pair(lam1, lam2, n, DetectorKind.BALANCED_BNC, high_rail, np.random.default_rng(17))
    railed1 = t.strong - (n if other == "railed" else 0)
    weak1 = t.fired1 - railed1
    above = t.click1 - railed1 if other == "empty" else t.blind - railed1
    share = side_share(lam1, high_rail.dcp_apd1, high_rail, threshold)
    assert weak1 > 100_000 and 0.1 < share < 0.9
    assert abs((weak1 - above) / weak1 - share) <= 5.0 * math.sqrt(share * (1.0 - share) / weak1)


@pytest.mark.parametrize("lam", [0.5, 3.0])
def test_bin_law_matches_gammainc(lam, params):
    """Each bin of two thresholds holds the weak arms' gammainc share
    between its ends, and the (d, k) marginal is the weak law's."""
    high_rail = replace(params, dcp_apd1=0.3, **HIGH_RAIL)
    dcp = high_rail.dcp_apd1
    bins = attack.side_law(lam, dcp, high_rail, (1.0, 2.0)).reshape(3, -1)
    ends = [0.0, side_share(lam, dcp, high_rail, 1.0), side_share(lam, dcp, high_rail, 2.0), 1.0]
    assert bins.sum(1) == pytest.approx(np.diff(ends), rel=1e-9)
    law = attack.arm_law(lam, dcp, high_rail)
    assert bins.sum(0) == pytest.approx(law.weak.ravel() / law.state[1], rel=1e-9, abs=1e-300)


def test_one_threshold_bin_law_keeps_its_floats(params):
    """One threshold gives the two sides P(d, k) P_t[K], capped by the
    weak entry, and the rest of the weak entry, bit for bit: the balanced
    one-weak cells draw from the same floats as before bins had more
    than one cut."""
    for lam, threshold in ((0.1, params.t_diff), (3.0, params.t_strong - params.t_diff)):
        law = attack.arm_law(lam, params.dcp_apd1, params)
        below_t = below_probabilities(params, threshold).take(law.k + np.arange(2)[:, None], mode="clip")
        below = np.minimum(law.dk * below_t, law.weak)
        sides = np.stack([below, law.weak - below]).ravel()
        sides /= sides.sum()
        assert np.array_equal(attack.side_law(lam, params.dcp_apd1, params, (threshold,)), sides)
        levels = attack.bin_levels((threshold,), params)
        assert levels == [threshold / 2.0, (threshold + params.t_strong) / 2.0]


@pytest.mark.parametrize("mu", [1.0, 10.0, 30.0, 500.0])
def test_only_weak_weak_gates_cost_per_gate_draws(mu, params, monkeypatch):
    """A balanced pair block draws one amplitude per arm of a WEAK-WEAK
    gate and none for any other gate.  The parameters' readout reads 12
    fixed rows once: the 4 cells without a weak arm and 2 sides of each
    of the 4 cells with one.  The block then reads exactly its WEAK-WEAK
    gates, one row each, and nothing when it has none."""
    seen = []
    comparator_arrays = attack.comparator_arrays

    def recorded(amp1, amp2, p):
        seen.append(amp1.size)
        return comparator_arrays(amp1, amp2, p)

    attack._pair_readout.cache_clear()
    monkeypatch.setattr(attack, "comparator_arrays", recorded)
    rng = RecordingRng(np.random.default_rng(23))
    lam1, lam2 = arm_means(mu, params.qe, 1)
    # the second block reuses the fixed rows the first one read
    for fixed in ([12], []):
        rng.draws.clear()
        del seen[:]
        detect_pair(lam1, lam2, 1_000_000, DetectorKind.BALANCED_BNC, params, rng)
        weak_weak = int(rng.draws[0][2].reshape(3, 3)[1, 1])
        betas = sum(np.size(out) for name, _, out in rng.draws if name == "beta")
        assert betas == 2 * weak_weak
        assert seen == fixed + ([weak_weak] if weak_weak else [])


def test_below_tables_built_on_first_balanced_use(params):
    """The two-APD kernel reads no threshold table; the balanced one
    builds its two on first use."""
    fresh = replace(params, t_diff=0.02)
    below_probabilities.cache_clear()
    run_fixed(PhaseSymbol.ZERO, PhaseSymbol.HALF_PI, 30.0, 10_000, fresh, seed_seq(40))
    assert below_probabilities.cache_info().currsize == 0
    detect_pair(1.5, 1.5, 100_000, DetectorKind.BALANCED_BNC, fresh, np.random.default_rng(4))
    assert below_probabilities.cache_info().currsize == 2


def test_arm_law_tables_are_cached_and_read_only(params):
    law = attack.arm_law(1.5, params.dcp_apd1, params)
    assert attack.arm_law(1.5, params.dcp_apd1, params) is law
    assert attack.arm_law.cache_info().maxsize is not None
    for table in law[2:]:
        with pytest.raises(ValueError):
            table[0] = 1.0


def reference_arm_law(lam, dcp, params):
    """(state, k, weak, railed, dk) of an arm law built term by term: k ln
    lam by a masked multiply, the log factorials by ``math.lgamma`` one
    entry at a time, the empty avalanche cut by ``np.where`` and the
    (d, k) rows joined by ``np.stack``."""
    spread = 12.0 * math.sqrt(lam) + 24.0
    lo, hi = max(0, math.floor(lam - spread)), math.ceil(lam + spread)
    p = weak_probabilities(params)
    if lo >= p.size - 1:
        return np.array([0.0, 0.0, 1.0]), np.zeros(0, np.int64), *[np.zeros(s) for s in ((2, 0), 0, (2, 0))]
    k = np.arange(lo, hi + 1)
    log_lam = math.log(lam) if lam > 0.0 else -math.inf
    log_power = np.multiply(k, log_lam, where=k > 0, out=np.zeros(k.shape))
    poisson = np.exp(log_power - lam - np.array([math.lgamma(v + 1.0) for v in k.tolist()]))
    p_k, p_dark = p.take(k, mode="clip"), p.take(k + 1, mode="clip")
    no_dark, dark = (1.0 - dcp) * poisson, dcp * poisson
    weak = np.stack([np.where(k > 0, no_dark * p_k, 0.0), dark * p_dark])
    railed = no_dark * (1.0 - p_k) + dark * (1.0 - p_dark)
    state = np.array([no_dark[0] if lo == 0 else 0.0, weak.sum(), railed.sum()])
    total = state.sum()
    return state / total, k, weak / total, railed / total, np.stack([no_dark, dark]) / total


@pytest.mark.parametrize("point", ["default", "high_rail", "fine_gain"])
def test_arm_law_keeps_its_floats(point, params):
    """Every table of :func:`arm_law` equals the term-by-term build, bit
    for bit, from empty arms to windows past the P(k) table."""
    tuned = {
        "default": params,
        "high_rail": replace(params, **HIGH_RAIL),
        "fine_gain": replace(params, gain_mean=0.01),
    }[point]
    for lam in (0.0, 1e-3, 0.05, 0.5, 1.0, 2.5, 7.0, 30.0, 99.5, 1e3, 1e4, 1e5):
        for dcp in (0.0, 2e-5, 0.1, 0.5, 1.0):
            law = attack.arm_law(lam, dcp, tuned)
            tables = (law.state, law.k, law.weak, law.railed, law.dk)
            for got, want in zip(tables, reference_arm_law(lam, dcp, tuned)):
                assert got.shape == want.shape and np.array_equal(got, want), (lam, dcp)


def reference_weak_gates(law, m, params, rng):
    """:func:`attack._weak_gates` with its cells drawn by ``rng.choice``."""
    cell = rng.choice(law.weak.size, m, p=law.weak.ravel() / law.state[attack.WEAK])
    d, i = np.divmod(cell, law.k.size)
    k = law.k[i]
    u = weak_probabilities(params)[k + d] * rng.random(m)
    return int(k.sum()), attack._weak_amplitudes(k + d, u, params, rng)


@pytest.mark.parametrize("lam", [0.05, 1.5, 15.0])
def test_weak_cells_are_the_choice_draws(lam, params):
    """Inverting :func:`attack.weak_cdf` at ``rng.random`` draws the cells
    ``rng.choice`` draws from the weak law, from the same variates, so a
    weak arm's photons and amplitudes are unchanged."""
    for tuned in (params, replace(params, dcp_apd1=0.3, **HIGH_RAIL)):
        law = attack.arm_law(lam, tuned.dcp_apd1, tuned)
        cdf = attack.weak_cdf(lam, tuned.dcp_apd1, tuned)
        assert cdf[-1] == 1.0 and not cdf.flags.writeable
        for m in (1, 7, 5_000):
            ours, theirs = np.random.default_rng(m), np.random.default_rng(m)
            cells = cdf.searchsorted(ours.random(m), side="right")
            p = law.weak.ravel() / law.state[attack.WEAK]
            assert np.array_equal(cells, theirs.choice(law.weak.size, m, p=p))
            assert ours.bit_generator.state == theirs.bit_generator.state
            photons, amps = attack._weak_gates(law, m, tuned, ours)
            ref_photons, ref_amps = reference_weak_gates(law, m, tuned, theirs)
            assert photons == ref_photons and np.array_equal(amps, ref_amps)


def test_fixed_and_weak_weak_words_are_checked(params, monkeypatch):
    """The fixed rows are read through ``event_codes`` when the
    parameters' readout is built, and a block's WEAK-WEAK rows on every
    call, so an unreachable word raises on either path.  Marking the
    weak click on APD 1 unreachable, a block at a high rail raises
    from its WEAK-WEAK rows with the readout already built, and a block
    with no WEAK-WEAK gate raises from the readout's build."""
    high_rail = replace(params, **HIGH_RAIL)
    attack._pair_readout(high_rail)
    table = balanced._WORD_TABLE.copy()
    table[0b0010] = -1
    monkeypatch.setattr(balanced, "_WORD_TABLE", table)
    rng = RecordingRng(np.random.default_rng(11))
    with pytest.raises(InconsistentWord):
        detect_pair(2.0, 2.0, 10_000, DetectorKind.BALANCED_BNC, high_rail, rng)
    assert rng.draws[0][2][4] > 0
    attack._pair_readout.cache_clear()
    with pytest.raises(InconsistentWord):
        detect_pair(0.0, 0.0, 10, DetectorKind.BALANCED_BNC, high_rail, np.random.default_rng(12))
    assert attack._pair_readout.cache_info().currsize == 0


def test_far_railed_arm_has_no_window(params):
    """Past the P(k) table every gate fires and rails; the law is not
    tabulated and the signal total is drawn in Poisson chunks."""
    law = attack.arm_law(1e14, params.dcp_apd1, params)
    assert law.state.tolist() == [0.0, 0.0, 1.0] and law.k.size == 0
    lam = 1e14
    n = 200_000
    assert n * lam > attack.POISSON_LAM_MAX
    for detector in (DetectorKind.BALANCED_BNC, DetectorKind.BASELINE_TWO_APD):
        t = attack.detect_pair(lam, lam, n, detector, params, np.random.default_rng(3))
        assert t.fired1 == t.fired2 == t.doubles == n
        for pe in (t.pe1, t.pe2):
            assert abs(pe - n * lam) <= 5 * math.sqrt(n * lam)


def test_huge_flux_photon_totals_do_not_wrap(params):
    """At flux 1e18 a block's detected signal total passes the int64 range;
    every receiver reads it within 5 sigma of n * lam."""
    import bncsim.harness as harness

    n, mu = 100_000, 1e18
    lam = mu * params.qe
    assert n * lam > np.iinfo(np.int64).max
    sd = harness._run_sd_point(mu, n, params, seed_seq(30))
    assert sd.pe1 > 0 and abs(sd.pe1 - n * lam) <= 5 * math.sqrt(n * lam)
    for detector in (DetectorKind.BALANCED_BNC, DetectorKind.BASELINE_TWO_APD):
        cfg = AttackConfig(n, mu, scenario=Scenario.BLINDING_ONLY, detector=detector)
        t = run_attack(cfg, params, seed_seq(31))
        for pe in (t.pe1, t.pe2):
            assert pe > 0 and abs(pe - n * lam / 2) <= 5 * math.sqrt(n * lam / 2)


def test_chunked_photon_total_memory_stays_bounded(params):
    """Past the P(k) table an arm's total is drawn in Poisson chunks, a
    batch at a time: the traced peak of 2**20 chunks is that of 2**16,
    and the total is that of one draw of all the chunks on a twin
    generator."""
    import tracemalloc

    lam = attack.POISSON_LAM_MAX
    law = attack.arm_law(lam, 0.0, params)
    assert not law.k.size
    peaks = []
    for n in (2**16, 2**20):
        chunks = int(n * lam // attack.POISSON_LAM_MAX) + 1
        twin = np.random.default_rng(n).poisson(n * lam / chunks, chunks)
        tracemalloc.start()
        try:
            total = attack._signal_photons(law, law.railed, n, np.random.default_rng(n))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert total == sum(twin.tolist())
    assert peaks[1] <= 1.25 * peaks[0], peaks
