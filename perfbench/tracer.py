"""In-memory spans, and instrumentation of the library from the outside.

A span records a name, the operation (request) it belongs to, its parent
span, start and end times, and the value of the taped-primitive counter at
both ends, so a span's primitive count includes its children.  Nothing is
written until the run ends.

`instrument` wraps public library callables for the duration of one traced
operation and restores them afterwards; the package itself carries no
tracing code.  Names a later refactor removes are skipped and listed in
`Tracer.missing`, so the per-layer metric they feed reads 0.
"""
from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass

from ucast import baselines, cli, model, training, varlab
from ucast.autodiff import Tape

# public Tape methods that are not primitives ("scope" is the planned
# named-scope context manager, which must not count as one)
NON_PRIMITIVES = frozenset({"leaf", "constant", "backward", "grad_of", "scope"})

# (owner, attribute, span name) wrapped in a traced operation
SPANNED = (
    (Tape, "backward", "autodiff.backward"),
    (model.Forecaster, "build_loss", "model.forward"),
    (baselines.LinearBaseline, "build_loss", "model.forward"),
    (model.Forecaster, "trace", "model.trace"),
    (training, "batch_gradients", "training.batch_gradients"),
    (training, "adam_step", "training.adam_step"),
    (cli, "sliding_windows", "data.sliding_windows"),
    (baselines, "sliding_windows", "data.sliding_windows"),
    (varlab, "stationary_covariance", "varlab.stationary_covariance"),
)


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    t0: float
    t1: float = 0.0
    prims0: int = 0
    prims1: int = 0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    @property
    def primitives(self) -> int:
        return self.prims1 - self.prims0

    def to_dict(self) -> dict:
        return {"name": self.name, "op": self.op, "parent": self.parent,
                "t0": self.t0, "t1": self.t1, "primitives": self.primitives}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self.primitive_calls = 0
        self.missing: set[str] = set()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.op, parent, time.perf_counter(),
                    prims0=self.primitive_calls)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.t1 = time.perf_counter()
            span.prims1 = self.primitive_calls
            self._stack.pop()

    def ancestors(self, span: Span):
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span


def primitive_names() -> list[str]:
    return sorted(name for name, value in vars(Tape).items()
                  if callable(value) and not name.startswith("_")
                  and name not in NON_PRIMITIVES)


def _spanning(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _counting(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.primitive_calls += 1
        return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the library's public entry points for one traced operation."""
    with contextlib.ExitStack() as restore:
        def patch(owner, attr: str, wrapper_for) -> None:
            original = vars(owner).get(attr)
            if original is None:
                tracer.missing.add(f"{owner.__name__}.{attr}")
                return
            setattr(owner, attr, wrapper_for(original))
            restore.callback(setattr, owner, attr, original)

        for name in primitive_names():
            patch(Tape, name, lambda fn: _counting(tracer, fn))
        for owner, attr, span_name in SPANNED:
            patch(owner, attr,
                  lambda fn, span_name=span_name: _spanning(tracer, span_name, fn))
        yield
