"""The benchmark's trace points and calls still exist in the package.

``bench/workloads.py`` spans package functions by swapping module
attributes while a traced round runs, and a missing attribute fails that
round; it also calls package functions with fixed arguments.  These tests
read the attributes it patches and the calls it makes from its source, so
a refactor that would break ``bench/run.py --trace 1`` fails here first.
"""

import ast
import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bncsim import attack, cli, harness
from bncsim.attack import DetectorKind, Scenario
from bncsim.harness import SweepSpec, parse_config_file, resolve_config, run_sweep

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "bench" / "workloads.py"
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


def _module_calls(tree):
    """(module, attribute, positional count, keyword names) of each
    ``attack.X(...)``, ``harness.X(...)`` or ``cli.X(...)`` call with no
    ``*`` or ``**`` argument."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        module = getattr(node.func.value, "id", None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        if module in MODULES and not starred and all(k.arg for k in node.keywords):
            yield module, node.func.attr, len(node.args), tuple(k.arg for k in node.keywords)


def test_benchmark_calls_bind():
    # a renamed or dropped parameter the benchmark passes fails here
    calls = sorted(set(_module_calls(ast.parse(WORKLOADS.read_text()))))
    called = {(module, attr) for module, attr, _, _ in calls}
    assert {
        ("attack", "AttackConfig"),
        ("attack", "simulate_block"),
        ("harness", "resolve_config"),
        ("harness", "run_sweep"),
        ("cli", "main"),
    } <= called
    for module, attr, n_args, keywords in calls:
        signature = inspect.signature(getattr(MODULES[module], attr))
        try:
            signature.bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"{module}.{attr}({n_args} positional, {keywords}): {exc}")


def _engine_settings(tree):
    """(Scenario, DetectorKind) member names of each ``attack.AttackConfig(...)``
    call, such as the landmark probe's block config."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "AttackConfig":
            kw = {k.arg: k.value for k in node.keywords}
            yield kw["scenario"].attr, kw["detector"].attr


def _benchmark_settings(tree):
    """(scenario, detector) of each sweep the benchmark resolves: the
    ``sweeps`` tuples of its workload classes and the constant
    ``scenario=``/``detector=`` arguments of its ``resolve(...)`` calls."""
    for node in ast.walk(tree):
        if "sweeps" in [getattr(t, "id", None) for t in getattr(node, "targets", ())]:
            yield from ast.literal_eval(node.value)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "resolve":
            kw = {k.arg: k.value for k in node.keywords}
            if all(isinstance(kw.get(key), ast.Constant) for key in ("scenario", "detector")):
                yield kw["scenario"].value, kw["detector"].value


def test_benchmark_settings_are_accepted():
    # a narrowing of the accepted settings fails here, not inside the benchmark
    tree = ast.parse(WORKLOADS.read_text())
    settings = set(_benchmark_settings(tree))
    assert {
        ("attack_cm", "balanced_bnc"),
        ("attack_no_cm", "baseline_two_apd"),
        ("blinding_only", "balanced_bnc"),
        ("blinding_only", "self_differencing"),
    } <= settings
    for scenario, detector in settings:
        resolve_config(overrides={"scenario": scenario, "detector": detector})
    resolve_config(parse_config_file(ROOT / "configs" / "landmarks.cfg"))
    engine = set(_engine_settings(tree))
    assert ("ATTACK_CM", "BALANCED_BNC") in engine
    for scenario, detector in engine:
        attack.AttackConfig(
            n_pulses=1, resend_mu=1.0, scenario=Scenario[scenario], detector=DetectorKind[detector]
        )


def test_sd_event_codes_called_once_per_shard(params, monkeypatch):
    """One call per shard of the point's shard size: the rare weak gates
    of mu = 0.1 make the whole point one shard, the common ones of the
    default mu = 10 point two, and those of the high-rail mu = 10 point,
    half the gates, 21."""
    calls = []
    original = harness.sd_event_codes

    def spy(amps, *args):
        calls.append(amps.size)
        return original(amps, *args)

    monkeypatch.setattr(harness, "sd_event_codes", spy)
    high_rail = replace(params, t_strong=3.0, t_diff=1.0)
    for mu, p, shards in ((0.1, params, 1), (10.0, params, 2), (10.0, high_rail, 21)):
        spec = SweepSpec(
            flux_grid=(mu,),
            n_gates_per_point=2_500_000,
            scenario=Scenario.BLINDING_ONLY,
            detector=DetectorKind.SELF_DIFFERENCING,
        )
        size = attack.shard_size(mu, p, spec.scenario, spec.detector)
        assert -(-spec.n_gates_per_point // size) == shards
        calls.clear()
        run_sweep(spec, p)
        # one call per shard, each on that shard's compressed stream
        assert len(calls) == shards


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
