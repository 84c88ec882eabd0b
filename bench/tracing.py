"""Span recorder for the traced benchmark run.

The package is not edited: while :func:`instrumented` is active, the public
functions of each layer are replaced at their module attributes (and at every
``riccatint`` module that imported them by name) by wrappers that record one
span per call.  Spans stay in memory; the benchmark sums them per problem
file.  Leaving the context restores the original objects.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

# (module, attribute, span name); "Class.attr" patches an attribute of a class.
SPANNED = [
    ("riccatint.cli", "ProblemFile.from_path", "cli.parse"),
    ("riccatint.cli", "ProblemFile.build", "cli.build"),
    ("riccatint.cli", "write_solution_csv", "cli.write_csv"),
    ("riccatint.cli", "read_solution_csv", "cli.read_csv"),
    ("riccatint.evolution", "OperatorFunction.from_callable", "evolution.sample"),
    ("riccatint.evolution", "build_forward_family", "evolution.build_forward_family"),
    ("riccatint.riccati", "check_hypotheses", "riccati.check_hypotheses"),
    ("riccatint.riccati", "solve_monotone", "riccati.solve_monotone"),
    ("riccatint.riccati", "solve_picard_stepped", "riccati.solve_picard"),
    ("riccatint.riccati", "riccati_residual", "riccati.residual"),
    ("riccatint.riccati", "flow_consistency", "riccati.flow_consistency"),
    ("riccatint.riccati", "representation_check_one_sided",
     "riccati.representation_one_sided"),
    ("riccatint.riccati", "representation_check_two_sided",
     "riccati.representation_two_sided"),
    ("riccatint.volterra", "perturb_forward", "volterra.perturb_forward"),
    ("riccatint.volterra", "perturb_backward", "volterra.perturb_backward"),
    ("riccatint.oracle", "solve_differential_riccati", "oracle.rk4"),
]
# Called once per grid step: counted, not spanned.  The evolution module looks
# expm up on scipy.linalg at call time, so that attribute is the one to patch.
COUNTED = [
    ("scipy.linalg", "expm", "evolution.expm"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a root
    file: int            # index of the problem file being processed


class Recorder:
    """In-memory spans and call counts, tagged with the current file index."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[Tuple[int, str], int] = {}
        self.file = -1
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, time.perf_counter(), float("nan"), parent, self.file)
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str) -> None:
        key = (self.file, name)
        self.counts[key] = self.counts.get(key, 0) + 1

    def spanned(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper


def _patch_sites(module_name: str, attr: str):
    """Yield (owner, attribute, original) for every binding of the target."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, name = attr.split(".")
        owner = getattr(module, cls_name)
        yield owner, name, inspect.getattr_static(owner, name)
        return
    original = getattr(module, attr)
    yield module, attr, original
    for other_name, other in list(sys.modules.items()):
        if (other is not module and other_name.startswith("riccatint")
                and getattr(other, attr, None) is original):
            yield other, attr, original


@contextmanager
def instrumented(recorder: Recorder) -> Iterator[Recorder]:
    """Record spans and counts for the layer functions inside the block."""
    restore = []
    try:
        for targets, make in ((SPANNED, recorder.spanned), (COUNTED, recorder.counted)):
            for module_name, attr, name in targets:
                for owner, key, original in list(_patch_sites(module_name, attr)):
                    restore.append((owner, key, original))
                    if isinstance(original, classmethod):
                        setattr(owner, key, classmethod(make(original.__func__, name)))
                    else:
                        setattr(owner, key, make(original, name))
        yield recorder
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)
