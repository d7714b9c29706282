"""Span recorder for the traced run.

Spans are recorded from the benchmark's own files: :class:`Tracer`
patches the public entry points of each layer for the duration of a
traced pass and restores them afterwards. Every span has a name, a
start, an end and the index of the span that was open when it began
(its parent, ``-1`` for none). Spans stay in memory and are written
out once, when the run ends.

A span name is ``<layer>.<operation>``, where the layer is the module
the call goes into. A layer's self time is the summed duration of its
spans minus the part of that time its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (name, start, end, parent index); times are ``perf_counter`` seconds.
Span = Tuple[str, float, float, int]


class Tracer:
    """Collects nested spans from one or more threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Span index -> what its ``on_result`` hook extracted.
        self.notes: Dict[int, object] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        """Open a span and return its index."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, time.perf_counter(), 0.0, parent))
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span ``begin`` returned."""
        stop = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, stop, parent)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[..., object]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``on_result(result, *args, **kwargs)``, when given, runs after
        the call, outside the span, and its return value is kept in
        ``notes`` under the span's index. :meth:`unwrap_all` undoes
        every patch.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_result is not None:
                tracer.notes[index] = on_result(result, *args, **kwargs)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, traced)
        self._restore.append(lambda: setattr(owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every patched entry point, newest first."""
        while self._restore:
            self._restore.pop()()

    # -- analysis --------------------------------------------------------

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def noted(self, name: str) -> List[object]:
        """The ``on_result`` values of every span called ``name``."""
        return [
            self.notes[index]
            for index, span in enumerate(self.spans)
            if span[0] == name and index in self.notes
        ]

    def subtree(self, name: str) -> "Tracer":
        """A tracer holding the first span called ``name`` and every
        span opened inside it, notes included."""
        root = next(i for i, s in enumerate(self.spans) if s[0] == name)
        sub = Tracer()
        remap = {root: 0}
        sub.spans.append(self.spans[root][:3] + (-1,))
        for index in range(root + 1, len(self.spans)):
            span_name, start, end, parent = self.spans[index]
            if parent in remap:
                remap[index] = len(sub.spans)
                sub.spans.append((span_name, start, end, remap[parent]))
                if index in self.notes:
                    sub.notes[remap[index]] = self.notes[index]
        return sub

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_times(self) -> Dict[str, float]:
        """Self time per layer (the name's part before the first dot)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            layers[name.split(".", 1)[0]] += (end - start) - child_time[index]
        return dict(layers)

    def dump(self, path: str) -> None:
        """Write the spans (``[name, start, end, parent]``) and notes."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [list(span) for span in self.spans],
                    "notes": {str(i): v for i, v in self.notes.items()},
                },
                handle,
            )

    @classmethod
    def load(cls, path: str) -> "Tracer":
        """A tracer holding what :meth:`dump` wrote."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        tracer = cls()
        tracer.spans = [tuple(span) for span in data["spans"]]
        tracer.notes = {int(i): v for i, v in data["notes"].items()}
        return tracer

    def window(self, start: float, end: float) -> "Tracer":
        """The spans that began and ended inside ``[start, end]``."""
        sub = Tracer()
        remap: Dict[int, int] = {}
        for index, (name, begun, ended, parent) in enumerate(self.spans):
            if begun >= start and ended <= end:
                remap[index] = len(sub.spans)
                sub.spans.append((name, begun, ended, remap.get(parent, -1)))
                if index in self.notes:
                    sub.notes[remap[index]] = self.notes[index]
        return sub
