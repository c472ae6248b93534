"""The benchmark's trace points still exist in the package.

``bench/workloads.py`` spans package functions by swapping module
attributes while a traced round runs, and a missing attribute fails that
round.  These tests read the attributes it patches from its source, so a
refactor that would break ``bench/run.py --trace 1`` fails here first.
"""

import ast
from pathlib import Path

import numpy as np

from bncsim import attack, cli, harness
from bncsim.attack import SHARD_GATES, DetectorKind, Scenario
from bncsim.harness import SweepSpec, run_sweep

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
MODULES = {"attack": attack, "cli": cli, "harness": harness}


def _patches(node, bound):
    """(module, attribute) of each ``patched(tracer, module, attr, ...)`` call
    under ``node``; ``bound`` maps loop variables to the strings they take."""
    if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
        targets = node.target.elts if isinstance(node.target, ast.Tuple) else [node.target]
        for item in node.iter.elts:
            values = item.elts if isinstance(item, ast.Tuple) else [item]
            names = {t.id: v.value for t, v in zip(targets, values) if isinstance(v, ast.Constant)}
            for child in node.body:
                yield from _patches(child, {**bound, **names})
        return
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "patched":
        module, attr = node.args[1], node.args[2]
        yield module.id, attr.value if isinstance(attr, ast.Constant) else bound[attr.id]
    for child in ast.iter_child_nodes(node):
        yield from _patches(child, bound)


def test_patched_attributes_exist():
    patches = set(_patches(ast.parse(WORKLOADS.read_text()), {}))
    expected = {
        ("harness", "sd_event_codes"),
        ("attack", "sift_counts"),
        ("attack", "comparator_arrays"),
        ("attack", "event_codes"),
        ("attack", "run_fixed"),
        ("cli", "evaluate_case_row"),
        ("harness", "ideal_click_rate_same_phase"),
        ("harness", "ideal_click_rate_diff_phase"),
        ("harness", "click_probabilities"),
        ("harness", "attack_qber"),
        ("harness", "oracle_cm_success"),
    }
    assert expected <= patches
    missing = [f"{m}.{a}" for m, a in sorted(patches) if not hasattr(MODULES[m], a)]
    assert not missing


def test_sd_event_codes_called_once_per_shard(params, monkeypatch):
    calls = []
    original = harness.sd_event_codes

    def spy(amps, *args):
        calls.append(amps.size)
        return original(amps, *args)

    monkeypatch.setattr(harness, "sd_event_codes", spy)
    spec = SweepSpec(
        flux_grid=(0.1,),
        n_gates_per_point=SHARD_GATES * 5 // 2,
        scenario=Scenario.BLINDING_ONLY,
        detector=DetectorKind.SELF_DIFFERENCING,
    )
    run_sweep(spec, params)
    assert calls == [SHARD_GATES, SHARD_GATES, SHARD_GATES // 2]


def test_sift_counts_called_once_per_block(params, monkeypatch):
    # the landmark probe spans sifting through this module attribute
    calls = []
    original = attack.sift_counts

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(attack, "sift_counts", spy)
    config = attack.AttackConfig(n_pulses=20_000, resend_mu=1.0)
    tally = attack.simulate_block(config, params, np.random.default_rng(1))
    assert len(calls) == 1
    assert original(*calls[0]) == (tally.sifted, tally.errors)


def test_case_gates_are_the_gates_table1_runs(params, monkeypatch):
    # the case-table workload counts table 1's gates by reading
    # attack.CASE_<label>_GATES with getattr, which no patched(...) call shows
    gates = []

    def spy(send, bob, mu, n_gates, *args):
        gates.append(n_gates)
        return attack.GateTally(gates=n_gates)

    monkeypatch.setattr(attack, "run_fixed", spy)
    for row in attack.enumerate_cases():
        gates.clear()
        attack.evaluate_case_row(row, params, np.random.SeedSequence(0))
        assert gates == [getattr(attack, f"CASE_{row.case_label.value}_GATES")]
