import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from bncsim import attack
from bncsim.signal_model import DetectorParams

settings.register_profile("default", deadline=None)
settings.load_profile("default")


@pytest.fixture
def params() -> DetectorParams:
    return DetectorParams.default()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)


@pytest.fixture
def least_peak():
    """The least tracemalloc peak, in bytes, of three runs of ``run()``.

    A single peak carries a few hundred bytes of jitter from objects that
    other code allocates or frees during the run, and the first run of a
    parameter set also fills its caches; the least of three keeps the
    run's own allocation.
    """

    def measure(run):
        peaks = []
        for _ in range(3):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return min(peaks)

    return measure


@pytest.fixture
def fixed_shards(monkeypatch):
    """Pin every point's :func:`~bncsim.attack.shard_size` to ``n`` gates,
    by setting the rule's work and cap both to ``n``: a gate adds at most
    one entry (:func:`~bncsim.attack.gate_work` <= 1), so the cap binds."""

    def fix(n):
        monkeypatch.setattr(attack, "SHARD_WORK", n)
        monkeypatch.setattr(attack, "SHARD_GATES_MAX", n)

    return fix
