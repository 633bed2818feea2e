"""Boundary tracer installed from outside the program.

:class:`Tracer` replaces each resolvable target of a boundary table
(:mod:`bench.layers`) with a wrapper and restores the original on
:meth:`Tracer.uninstall`.  Install it *before* building the system under
test: the program pre-binds hot methods at construction time
(``Link._deliver = dst.deliver``), and a bound method taken from a
patched class is the wrapped one.

Per-message boundaries run at ~10^6 calls/s, so a wrapper keeps no span:
it pushes a frame on an explicit per-thread stack and accumulates
``(calls, inclusive ns, self ns)`` for its row, self = inclusive minus
the time its wrapped callees took.  Rows marked ``span`` are coarse units
and additionally record a full span (name, start, end, parent, id, and
the identifier shared by the spans of one window / one job).  Spans stay
in memory; the run writes them out when it ends.

Whatever runs inside a timed :class:`Region` under no wrapper is the
*residual*, so the parts visibly sum to the whole.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from bench.layers import Boundary


class _ThreadState:
    """One thread's frame stack and per-row accumulators."""

    def __init__(self, n_rows: int) -> None:
        self.stack: List[int] = []  # ns spent in wrapped callees, per open frame
        self.calls = [0] * n_rows
        self.inclusive = [0] * n_rows
        self.self_ns = [0] * n_rows
        self.open_spans: List[int] = []


@dataclass(frozen=True)
class Totals:
    calls: int
    inclusive_ns: int
    self_ns: int


def _resolve(target: str) -> Tuple[object, str, types.FunctionType]:
    """``(owner, attribute, function)`` for a ``module:attr.path`` target.

    Raises ImportError / AttributeError / TypeError when the name is
    gone or is no longer a plain function.
    """
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not isinstance(inspect.getattr_static(owner, attr), types.FunctionType):
        raise TypeError(f"{target} is not a plain function")
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self, boundaries: Iterable[Boundary]) -> None:
        self.rows: Tuple[Boundary, ...] = tuple(boundaries)
        #: Targets that did not resolve at :meth:`install` time.
        self.unresolved: List[str] = []
        self.spans: List[dict] = []
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, bool, object]] = []
        self._span_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        self.unresolved.clear()
        for slot, row in enumerate(self.rows):
            try:
                owner, attr, fn = _resolve(row.target)
            except (ImportError, AttributeError, TypeError) as exc:
                self.unresolved.append(row.target)
                print(
                    f"bench.trace: boundary {row.target} does not resolve ({exc}); "
                    f"layer {row.layer} is reported as null",
                    file=sys.stderr,
                )
                continue
            wrapper = self._accumulating(fn, slot)
            if row.span:
                wrapper = self._spanning(wrapper, row)
            own = attr in vars(owner)
            self._patched.append((owner, attr, own, vars(owner).get(attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, own, original in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # was inherited
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _new_state(self) -> _ThreadState:
        state = _ThreadState(len(self.rows))
        self._local.state = state
        with self._lock:
            self._states.append(state)
        return state

    def _accumulating(self, fn, slot: int):
        local = self._local
        new_state = self._new_state
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                in_callees = stack.pop()
                state.calls[slot] += 1
                state.inclusive[slot] += elapsed
                state.self_ns[slot] += elapsed - in_callees
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _spanning(self, inner, row: Boundary):
        name = row.target.partition(":")[2]

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            ident = None
            if row.ident is not None:
                try:
                    ident = row.ident(*args, **kwargs)
                except (LookupError, TypeError):
                    pass  # signature moved on: the span just goes unlabelled
            with self.span(name, layer=row.layer, ident=ident):
                return inner(*args, **kwargs)

        return wrapper

    @contextmanager
    def span(self, name: str, layer: Optional[str] = None, ident: object = None):
        """Record one coarse span around the ``with`` body; yields the
        span record, so the body may fill in ``ident`` once it knows it."""
        try:
            state = self._local.state
        except AttributeError:
            state = self._new_state()
        span = {
            "name": name,
            "layer": layer,
            "id": next(self._span_ids),
            "parent": state.open_spans[-1] if state.open_spans else None,
            "ident": ident,
            "thread": threading.current_thread().name,
            "start_ns": time.perf_counter_ns(),
        }
        state.open_spans.append(span["id"])
        try:
            yield span
        finally:
            span["end_ns"] = time.perf_counter_ns()
            state.open_spans.pop()
            self.spans.append(span)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every accumulator (start of a timed region)."""
        with self._lock:
            for state in self._states:
                n = len(self.rows)
                state.calls[:] = [0] * n
                state.inclusive[:] = [0] * n
                state.self_ns[:] = [0] * n

    def row_totals(self) -> Dict[str, Totals]:
        """Totals per resolved boundary target, summed over threads."""
        with self._lock:
            states = list(self._states)
        return {
            row.target: Totals(
                sum(s.calls[slot] for s in states),
                sum(s.inclusive[slot] for s in states),
                sum(s.self_ns[slot] for s in states),
            )
            for slot, row in enumerate(self.rows)
            if row.target not in self.unresolved
        }

    def layer_totals(self) -> Dict[str, Totals]:
        """Totals per layer.  A layer with an unresolved row is absent:
        the time that row would have claimed sits in its callers' self
        time, so a partial figure would mislead."""
        rows = self.row_totals()
        broken = {row.layer for row in self.rows if row.target not in rows}
        layers: Dict[str, Totals] = {}
        for row in self.rows:
            if row.layer in broken:
                continue
            totals = rows[row.target]
            prior = layers.get(row.layer, Totals(0, 0, 0))
            layers[row.layer] = Totals(
                prior.calls + totals.calls,
                prior.inclusive_ns + totals.inclusive_ns,
                prior.self_ns + totals.self_ns,
            )
        return layers

    def spans_named(self, name: str) -> List[dict]:
        return [span for span in self.spans if span["name"] == name]


class Region:
    """Times one region; with a tracer, also attributes it to layers.

    The untraced runs use the same object with ``tracer=None``, so the
    timed region is delimited identically in both kinds of run.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.wall_ns = 0
        self.layers: Dict[str, Totals] = {}
        self.rows: Dict[str, Totals] = {}

    def __enter__(self) -> "Region":
        if self.tracer is not None:
            self.tracer.reset()
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_ns = time.perf_counter_ns() - self._start
        if self.tracer is not None:
            self.rows = self.tracer.row_totals()
            self.layers = self.tracer.layer_totals()

    @property
    def wall_s(self) -> float:
        return self.wall_ns / 1e9
