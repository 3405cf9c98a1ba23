"""In-memory tracing of bugloc's layers, installed from outside the package.

Coarse calls become spans (name, start, end, parent span, self time); hot
leaf calls only bump a counter and a summed time. Both kinds sit on one
stack, so the time a child spends is subtracted from its parent's self
time. Each wrapper replaces the attribute where the caller looks it up
(``bugloc.cli.load_benchmark`` is the name ``cli`` imported). A target that
no longer exists is recorded as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


@dataclass
class Leaf:
    calls: int = 0
    total_s: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.leaves: dict[str, Leaf] = {}
        self.absent: list[str] = []
        self.distinct: dict[str, set] = {}
        self._stack: list = []       # open spans; None for an open leaf call
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def _open_span(self, name: str) -> Span:
        parent = next((f for f in reversed(self._stack) if isinstance(f, Span)), None)
        span = Span(id=len(self.spans), parent=parent.id if parent else None, name=name,
                    start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close_span(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self._charge(span.seconds)

    def _charge(self, seconds: float) -> None:
        """Add a finished call's time to the innermost open frame, if a span;
        a leaf's own total already includes its children."""
        if self._stack and self._stack[-1] is not None:
            self._stack[-1].child_s += seconds

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        span = self._open_span(name)
        try:
            yield span
        finally:
            self._close_span(span)

    # -- patching -----------------------------------------------------------

    def _target(self, path: str):
        module_name, _, attr = path.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner_module, _, owner_attr = module_name.rpartition(".")
            try:
                owner = getattr(importlib.import_module(owner_module), owner_attr)
            except (ImportError, AttributeError):
                owner = None
        if owner is None or not hasattr(owner, attr):
            self.absent.append(path)
            return None, attr
        return owner, attr

    def _install(self, owner, attr, wrapper, original) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_span(self, path: str, name: str, note=None) -> None:
        """Record a span per call of ``path``; ``note(span, args, kwargs,
        result)`` may attach values to the span."""
        owner, attr = self._target(path)
        if owner is None:
            return
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            span = self._open_span(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close_span(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        self._install(owner, attr, wrapper, original)

    def wrap_leaf(self, path: str, name: str, distinct_arg: bool = False) -> None:
        """Count calls of ``path`` and sum their time; with ``distinct_arg``
        also collect the distinct first arguments."""
        owner, attr = self._target(path)
        if owner is None:
            return
        original = getattr(owner, attr)
        stats = self.leaves.setdefault(name, Leaf())
        seen = self.distinct.setdefault(name, set()) if distinct_arg else None
        stack, clock, charge = self._stack, time.perf_counter, self._charge

        def wrapper(*args, **kwargs):
            stack.append(None)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                if seen is not None:
                    seen.add(args[0])
                charge(elapsed)

        self._install(owner, attr, wrapper, original)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries ------------------------------------------------------------

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def leaf(self, name: str) -> Leaf:
        return self.leaves.get(name, Leaf())

    def totals(self) -> dict[str, float]:
        """Inclusive seconds so far by span or leaf name; a span whose parent
        span has its name is not counted twice."""
        out = {name: leaf.total_s for name, leaf in self.leaves.items()}
        for s in self.spans:
            if s.end and (s.parent is None or self.spans[s.parent].name != s.name):
                out[s.name] = out.get(s.name, 0.0) + s.seconds
        return out
