"""Outside-in tracing: time calls into a layer's public methods from the caller's side.

The tracer replaces a public method on one *instance* the benchmark built
with a wrapper that records a :class:`~perfbench.stats.Span` around the
original call.  Nothing in the program under test is edited; removing the
wrapper restores the class method.  The parent of a span is the innermost
traced call still open on the same thread, so a ``run_suffix`` made inside
``infer`` on the engine's batcher thread nests under that ``infer``.

With ``every=2`` only every second *root* call (one with no traced call open
on its thread) is recorded, together with everything it calls; the others
pass through the wrapper unrecorded.  Traced and untraced operations then
interleave under the same host conditions, so comparing them isolates the
cost of recording from the host's own drift.  The pass-through itself costs
about a microsecond a call.
"""

from __future__ import annotations

import itertools
import threading
import time

from .stats import Span

__all__ = ["Tracer"]


class Tracer:
    """Records spans in memory until the run writes them out.

    Root calls ``every - 1``, ``2 * every - 1``, ... (counting from 0) are
    recorded; see the module docstring.
    """

    def __init__(self, every: int = 1) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self.spans: list[Span] = []
        self._ids = itertools.count()
        #: Root calls seen, recorded or not.
        self.root_calls = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._wrapped: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int | None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, obj: object, method: str, span_name: str) -> None:
        """Trace every call of ``obj.<method>`` as a span named ``span_name``."""
        original = getattr(obj, method)
        shadowed = vars(obj).get(method)

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]  # None inside an unrecorded root call
                record = parent is not None
            else:
                parent = None
                with self._lock:
                    index = self.root_calls
                    self.root_calls += 1
                record = index % self.every == self.every - 1
            if not record:
                stack.append(None)
                try:
                    return original(*args, **kwargs)
                finally:
                    stack.pop()
            with self._lock:
                span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(Span(span_id, span_name, start, end, parent))

        setattr(obj, method, traced)
        self._wrapped.append((obj, method, shadowed))

    def unwrap_all(self) -> None:
        """Restore every wrapped method, newest first."""
        while self._wrapped:
            obj, method, shadowed = self._wrapped.pop()
            if shadowed is None:
                delattr(obj, method)
            else:
                setattr(obj, method, shadowed)

    def snapshot(self) -> list[Span]:
        with self._lock:
            return list(self.spans)
