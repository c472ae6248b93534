"""In-memory spans around calls into the simulator's layers.

A span records its name, start, end and the index of the span open when
it started; the list is kept in memory and written out by the caller when
the run ends.  Nothing here edits the simulator: draws are timed through
:class:`TimingRng`, a stand-in for ``numpy.random.Generator`` passed as an
``rng`` argument, and public functions are timed by swapping a thin
wrapper into the module that calls them for the length of a ``with``
block (:func:`patched`).
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterator, Optional, Union

import numpy as np


class Tracer:
    """Collects spans; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        if not self.enabled:
            yield {}
            return
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest strictly, so children never
    overlap one another.
    """
    result = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            result[s["parent"]] -= duration(s)
    return result


def descendants(spans: list[dict], root: int) -> list[int]:
    """Indices of every span nested under ``spans[root]``."""
    inside = {root}
    found = []
    for i in range(root + 1, len(spans)):
        if spans[i]["parent"] in inside:
            inside.add(i)
            found.append(i)
    return found


#: Stage of the gate pipeline each Generator method feeds.
DRAW_STAGES = {
    "integers": "protocol",
    "poisson": "photon",
    "binomial": "detect",
    "multinomial": "detect",
    "random": "dark",
    "standard_gamma": "amplitude",
    "gamma": "amplitude",
    "exponential": "amplitude",
}


class TimingRng:
    """Stand-in for ``numpy.random.Generator`` that spans every draw.

    Each method call is delegated unchanged to the wrapped generator, so
    the stream of variates, and with it every result, is the same as with
    the bare generator.  Spans are named ``draw.<stage>`` and carry the
    number of variates drawn.
    """

    def __init__(self, rng: np.random.Generator, tracer: Tracer) -> None:
        self._rng = rng
        self._tracer = tracer

    def __getattr__(self, name: str):
        attr = getattr(self._rng, name)
        if name.startswith("_") or not callable(attr):
            return attr
        stage = DRAW_STAGES.get(name, "other")

        def draw(*args, **kwargs):
            with self._tracer.span(f"draw.{stage}") as record:
                out = attr(*args, **kwargs)
            record["variates"] = int(np.size(out))
            return out

        return draw


SpanName = Union[str, Callable[..., str]]


@contextlib.contextmanager
def patched(
    tracer: Tracer,
    module: object,
    attr: str,
    span_name: SpanName,
    calls: Optional[list] = None,
) -> Iterator[None]:
    """Span every call to ``module.attr`` made while the block runs.

    ``span_name`` is a string or a function of the call's arguments.  When
    ``calls`` is given, the arguments of each call are appended to it so
    that the call can be replayed.  A missing attribute raises: a traced
    run must not quietly lose a layer.
    """
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        if calls is not None:
            calls.append((args, kwargs))
        name = span_name(*args, **kwargs) if callable(span_name) else span_name
        with tracer.span(name):
            return original(*args, **kwargs)

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, original)
