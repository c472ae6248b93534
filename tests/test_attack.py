import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special, stats

import bncsim.attack as attack
from bncsim.attack import (
    CASE_C_GATES,
    CASE_C_MU,
    ARM_WEIGHTS,
    SHARD_GATES,
    AttackConfig,
    CaseLabel,
    DetectorKind,
    ExpectedOutcome,
    GateTally,
    Scenario,
    _run_sharded,
    arm_means,
    detect_pair,
    enumerate_cases,
    evaluate_case_row,
    pinned_class,
    protocol_classes,
    run_attack,
    run_fixed,
    sift_counts,
    simulate_block,
)
from bncsim.errors import ConfigError
from bncsim.signal_model import RECEIVER_PHASES, DetectorParams, PhaseSymbol
from reference import comparators, gate_event, sift_ledger, two_apd_click


def seed_seq(n=0):
    return np.random.SeedSequence(991, spawn_key=(n,))


def fixed_shard(send, bob, mu, params):
    """One :func:`run_fixed` shard: a one-class block at the pinned phases."""
    config = AttackConfig(n_pulses=1, resend_mu=mu, detector=DetectorKind.BASELINE_TWO_APD)
    pinned = pinned_class(send.minus(bob).value)
    return lambda n, rng: simulate_block(replace(config, n_pulses=n), params, rng, pinned)


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
        # a matched guess basis copies the sender's bit: no sifted error
        quiet = replace(params, dcp_apd1=0.0, dcp_apd2=0.0)
        cfg = AttackConfig(n_pulses=50_000, resend_mu=500.0, case_filter=frozenset("A"))
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
        # the monitor only reads the gates: with and without it the engine
        # draws and counts the same, and the report masks its columns
        on = AttackConfig(n_pulses=50_000, resend_mu=10.0)
        off = replace(on, scenario=Scenario.ATTACK_NO_CM)
        t_on = run_attack(on, params, seed_seq(5))
        assert t_on.blind > 0
        assert run_attack(off, params, seed_seq(5)) == t_on

    def test_case_filter_c_only(self, params):
        cfg = AttackConfig(n_pulses=50_000, resend_mu=10.0, case_filter=frozenset("C"))
        tally = run_attack(cfg, params, seed_seq(6))
        assert tally.casec_gates == tally.gates

    def test_sharding_is_grouping_invariant(self, params):
        cfg = AttackConfig(n_pulses=80_000, resend_mu=1.0)
        pinned = (PhaseSymbol.HALF_PI, PhaseSymbol.ZERO, 1.0)
        # the sweep engine and the fixed-phase runner share one block
        # function and one shard loop
        blocks = (
            lambda n, rng: simulate_block(replace(cfg, n_pulses=n), params, rng),
            fixed_shard(*pinned, params),
        )
        for block in blocks:
            whole = _run_sharded(80_000, seed_seq(7), 10_000, block)
            # same shards, different grouping: pairwise merge of partial sums
            children = seed_seq(7).spawn(8)
            partial = [block(10_000, np.random.Generator(np.random.PCG64(c))) for c in children]
            for k in (1, 2, 4, 8):
                groups = [partial[i::k] for i in range(k)]
                merged = sum((sum(g[1:], g[0]) for g in groups if g), partial[0].__class__())
                assert merged == whole
        assert run_attack(cfg, params, seed_seq(7)) == _run_sharded(
            80_000, seed_seq(7), SHARD_GATES, blocks[0]
        )
        assert run_fixed(*pinned, 80_000, params, seed_seq(7)) == _run_sharded(
            80_000, seed_seq(7), SHARD_GATES, blocks[1]
        )

    def test_seed_sequence_reuse_repeats_the_run(self, params):
        cfg = AttackConfig(n_pulses=20_000, resend_mu=1.0)
        seq = seed_seq(15)
        block = lambda n, rng: simulate_block(replace(cfg, n_pulses=n), params, rng)  # noqa: E731
        assert _run_sharded(20_000, seq, 5_000, block) == _run_sharded(20_000, seq, 5_000, block)
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

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            AttackConfig(n_pulses=0, resend_mu=1.0)
        with pytest.raises(ConfigError):
            AttackConfig(n_pulses=10, resend_mu=1.0, detector=DetectorKind.SELF_DIFFERENCING)
        with pytest.raises(ConfigError):
            AttackConfig(n_pulses=10, resend_mu=1.0, case_filter=frozenset("X"))
        with pytest.raises(ConfigError):
            AttackConfig(
                n_pulses=10,
                resend_mu=1.0,
                scenario=Scenario.BLINDING_ONLY,
                case_filter=frozenset("C"),
            )


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
        stats = run_fixed(
            PhaseSymbol.ZERO,
            PhaseSymbol.ZERO,
            500.0,
            n,
            params,
            seed_seq(8),
            detector=DetectorKind.BALANCED_BNC,
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
        stats = _run_sharded(25_000, seed_seq(13), 10_000, fixed_shard(*pinned, params))
        assert stats.gates == 25_000
        assert stats.click1 + stats.click2 + stats.no_click == 25_000

    def test_allocation_bounded_by_one_shard(self, params):
        """A case-C block of CASE_C_GATES allocates about one shard's arrays.

        One untraced run first fills the arm-law and P(k) caches, which
        would otherwise count against whichever traced run comes first.
        """
        split = (PhaseSymbol.HALF_PI, PhaseSymbol.ZERO, CASE_C_MU)

        def peak(n_gates):
            tracemalloc.start()
            try:
                run_fixed(*split, n_gates, params, seed_seq(14))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert CASE_C_GATES >= 4 * SHARD_GATES
        run_fixed(*split, SHARD_GATES, params, seed_seq(14))
        assert peak(CASE_C_GATES) < 1.25 * peak(SHARD_GATES)


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

    def test_blinding_and_pinned_are_one_class(self):
        assert class_weights(protocol_classes(Scenario.BLINDING_ONLY)) == {(1, True, False, 0): 1.0}
        assert class_weights(pinned_class(2)) == {(2, False, False, 0): 1.0}

    @pytest.mark.parametrize("scenario", [Scenario.HONEST, Scenario.ATTACK_CM])
    @pytest.mark.parametrize("labels", ["A", "B", "C", "AB", "AC", "ABC"])
    def test_case_filter_zeroes_excluded_classes(self, scenario, labels):
        full = class_weights(protocol_classes(scenario))
        filtered = class_weights(protocol_classes(scenario, frozenset(labels)))
        kept = {key for key in full if ("C" in labels if key[1] else bool(set(labels) & set("AB")))}
        share = sum(full[key] for key in kept)
        assert sum(filtered.values()) == 1.0
        assert filtered == {key: full[key] / share for key in kept}


@pytest.mark.parametrize(
    "scenario,detector,case_filter",
    [
        (Scenario.ATTACK_NO_CM, DetectorKind.BASELINE_TWO_APD, None),
        (Scenario.ATTACK_CM, DetectorKind.BALANCED_BNC, None),
        (Scenario.HONEST, DetectorKind.BASELINE_TWO_APD, None),
        (Scenario.ATTACK_NO_CM, DetectorKind.BASELINE_TWO_APD, frozenset("C")),
    ],
)
@pytest.mark.parametrize("mu", [0.1, 1.0, 30.0])
def test_counters_match_closed_forms(scenario, detector, case_filter, mu, params):
    """Per-arm fired, casec_gates and (two-APD) sifted gates within 4 sigma
    of their closed forms over the tuple enumeration.  Gates are i.i.d., so
    each count is binomial in the gates."""
    n = 400_000
    cfg = AttackConfig(n, mu, scenario=scenario, detector=detector, case_filter=case_filter)
    tally = run_attack(cfg, params, seed_seq(int(10 * mu) + 20))
    # the only filter here keeps the case-C tuples
    rows = [r for r in protocol_tuples(scenario) if case_filter is None or r[1]]
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
    scenario=st.sampled_from(list(Scenario)),
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


@pytest.mark.parametrize(
    "scenario,detector,case_filter,n",
    [
        (Scenario.ATTACK_CM, DetectorKind.BALANCED_BNC, None, 20_000),
        (Scenario.ATTACK_NO_CM, DetectorKind.BASELINE_TWO_APD, None, 20_000),
        (Scenario.HONEST, DetectorKind.BALANCED_BNC, None, 20_000),
        (Scenario.BLINDING_ONLY, DetectorKind.BALANCED_BNC, None, 20_000),
        (Scenario.ATTACK_CM, DetectorKind.BALANCED_BNC, frozenset("C"), 20_000),
        # 8 gates over 14 classes: most classes draw no gate
        (Scenario.ATTACK_CM, DetectorKind.BALANCED_BNC, None, 8),
    ],
    ids=[
        "attack_cm-balanced_bnc",
        "attack_no_cm-baseline_two_apd",
        "honest-balanced_bnc",
        "blinding_only-balanced_bnc",
        "attack_cm-balanced_bnc-C",
        "attack_cm-balanced_bnc-8gates",
    ],
)
@pytest.mark.parametrize("mu", [0.1, 1.0, 30.0, 500.0])
def test_fired_gate_readout_equals_full_array_count(
    scenario, detector, case_filter, n, mu, params, monkeypatch
):
    """Reading out weighted rows, counting each readout from its event
    codes and counting case C and sifting per class loses nothing.

    Each class's cells (its first multinomial draw) give every gate's
    fired flags; on the balanced readout each row given to
    ``comparator_arrays`` stands for as many gates as its weight given to
    ``count_events``.  Expanded gate by gate and labelled with their
    class, they give every counter but ``pe`` by the per-gate rules of
    :mod:`reference`."""
    calls, rows, weights = [], [], []
    rng = RecordingRng(np.random.default_rng(int(mu * 10) + 7))
    detect_pair, comparator_arrays, count_events = (
        attack.detect_pair, attack.comparator_arrays, attack.count_events
    )

    def recorded_pair(*args):
        start = len(rng.draws)
        out = detect_pair(*args)
        cells = next(out for name, _, out in rng.draws[start:] if name == "multinomial")
        calls.append((args[:3], cells))
        return out

    def recorded_rows(amp1, amp2, params):
        rows.append((amp1, amp2))
        return comparator_arrays(amp1, amp2, params)

    def recorded_weights(tally, codes, both_raw, gates):
        weights.append(gates)
        return count_events(tally, codes, both_raw, gates)

    monkeypatch.setattr(attack, "detect_pair", recorded_pair)
    monkeypatch.setattr(attack, "comparator_arrays", recorded_rows)
    monkeypatch.setattr(attack, "count_events", recorded_weights)
    config = AttackConfig(n, mu, scenario=scenario, detector=detector, case_filter=case_filter)
    tally = simulate_block(config, params, rng)

    # one class draw, no per-gate protocol draw
    classes = protocol_classes(scenario, case_filter)
    counts = rng.draws[0][2]
    assert rng.draws[0][0] == "multinomial" and counts.size == classes.weight.size
    assert not [out for name, _, out in rng.draws if name == "integers"]
    # one kernel call per class present, at that class's scalar means, in class order
    present = np.flatnonzero(counts)
    assert [args for args, _ in calls] == [
        (*arm_means(mu, params.qe, int(classes.delta[j])), int(counts[j])) for j in present
    ]
    balanced = detector is DetectorKind.BALANCED_BNC
    assert len(rows) == len(weights) == (present.size if balanced else 0)
    fired, amps = [[], []], [[], []]
    for g, (_, cells) in enumerate(calls):
        if balanced:
            # an empty arm reads 0 and every avalanche has a positive amplitude
            assert weights[g].sum() == cells.sum()
            for arm in (0, 1):
                amps[arm].append(np.repeat(rows[g][arm], weights[g]))
                fired[arm].append(amps[arm][-1] > 0.0)
            states = np.divmod(np.arange(9), 3)
            for arm in (0, 1):
                assert np.count_nonzero(fired[arm][-1]) == cells[states[arm] > 0].sum()
        else:
            cells = cells.reshape(2, 2)
            fired[0].append(np.repeat([False, False, True, True], cells.ravel()))
            fired[1].append(np.repeat([False, True, False, True], cells.ravel()))
    fired = [np.concatenate(f) if f else np.zeros(0, bool) for f in fired]
    amps = [np.concatenate(a) if a else np.zeros(0) for a in amps]
    labels = np.repeat(np.arange(counts.size), counts)
    expected = full_array_tally(fired, amps, labels, classes, params, balanced)
    expected.pe1, expected.pe2 = tally.pe1, tally.pe2
    assert tally == expected
    if n > 1000:
        assert tally.fired1 + tally.fired2 > 0
        if case_filter is None and scenario is not Scenario.BLINDING_ONLY:
            assert tally.sifted > 0


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


def test_weak_amplitudes_independent_of_other_arm(params, monkeypatch):
    """A weak arm's amplitude law is the same whatever the other arm's
    state: the arms are independent.  A high rail makes weak avalanches of
    several carriers common, so their amplitudes spread widely."""
    high_rail = replace(params, t_strong=3.0)
    rows = []
    comparator_arrays = attack.comparator_arrays

    def recorded(amp1, amp2, p):
        rows.append((amp1, amp2))
        return comparator_arrays(amp1, amp2, p)

    monkeypatch.setattr(attack, "comparator_arrays", recorded)
    rail = high_rail.t_strong
    rng = np.random.default_rng(5)
    attack.detect_pair(2.0, 2.0, 200_000, DetectorKind.BALANCED_BNC, high_rail, rng)
    for amp, other in (rows[0], rows[0][::-1]):
        weak = (amp > 0.0) & (amp < rail)
        groups = [amp[weak & (other == 0.0)], amp[weak & (other > 0.0) & (other < rail)]]
        groups.append(amp[weak & (other == rail)])
        for x, y in itertools.combinations(groups, 2):
            assert min(x.size, y.size) > 1000
            sigma = math.sqrt(x.var() / x.size + y.var() / y.size)
            assert abs(x.mean() - y.mean()) <= 5.0 * sigma


def test_arm_law_tables_are_cached_and_read_only(params):
    law = attack.arm_law(1.5, params.dcp_apd1, params)
    assert attack.arm_law(1.5, params.dcp_apd1, params) is law
    assert attack.arm_law.cache_info().maxsize is not None
    for table in law[1:]:
        with pytest.raises(ValueError):
            table[0] = 1.0


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
