"""In-memory spans around the calls into each layer's public API.

The traced run patches public functions of every layer of the stack
with wrappers that record one span per call: its layer, the span that
caused it, and its wall-clock and per-thread CPU start and end.
Nothing inside ``src/`` changes; :meth:`SpanTracer.uninstall` puts every
original back.

Spans live in per-thread lists with per-thread stacks, so a span's
parent is always a span of the same thread.  The simulator's rank
threads run one at a time, and a rank parked in
``SimEngine.checkpoint`` or ``wait_until`` burns no CPU while other
ranks run.  A layer's *CPU* self time (span CPU time minus the CPU time
of its child spans) is therefore what the layer costs, where its wall
self time would also charge it for every other rank's work.
"""

from __future__ import annotations

import threading
import types
from collections import Counter
from time import perf_counter, thread_time
from typing import Any, Callable

import numpy as np

#: columns of one drained span row
SPAN_COLUMNS = ("thread", "layer", "parent", "wall_start", "wall_end",
                "cpu_start", "cpu_end")


class SpanTracer:
    """Records spans around patched callables and sums self time by layer."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[threading.Thread, list]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        #: work counts taken from call results; they repeat exactly
        self.counts: Counter[str] = Counter()

    # -- recording -------------------------------------------------------------

    def layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return lid

    def _thread_state(self) -> tuple[list, list]:
        tls = self._tls
        try:
            return tls.spans, tls.stack
        except AttributeError:
            tls.spans, tls.stack = [], []
            with self._lock:
                self._threads.append((threading.current_thread(), tls.spans))
            return tls.spans, tls.stack

    def wrap(self, layer: str | Callable[..., str], fn: Callable, *,
             on_result: Callable[[Any], None] | None = None) -> Callable:
        """``fn`` inside a span of ``layer``.

        ``layer`` may instead be a function of the call's arguments that
        names the layer.  ``on_result`` sees each result, to count the
        work the call did.
        """
        fixed_id = self.layer_id(layer) if isinstance(layer, str) else None

        def spanned(*args, **kwargs):
            lid = fixed_id if fixed_id is not None \
                else self.layer_id(layer(*args, **kwargs))
            spans, stack = self._thread_state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            c0 = thread_time()
            w0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                w1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                spans[index] = (lid, parent, w0, w1, c0, c1)
            if on_result is not None:
                on_result(result)
            return result

        return spanned

    # -- patching ----------------------------------------------------------------

    def replace(self, owner: Any, name: str, value: Any) -> None:
        """Set ``owner.name`` (a class or module attribute) to ``value``
        until :meth:`uninstall`."""
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def patch(self, owner: Any, name: str, layer, **kw) -> None:
        """Replace ``owner.name`` with a spanned wrapper of itself."""
        self.replace(owner, name, self.wrap(layer, vars(owner)[name], **kw))

    def patch_methods(self, cls: type, layer: str) -> None:
        """Span every public method of ``cls`` and its constructor."""
        for name, attr in list(vars(cls).items()):
            if isinstance(attr, types.FunctionType) and (
                    not name.startswith("_") or name == "__init__"):
                self.patch(cls, name, layer)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------------

    def drain(self) -> np.ndarray:
        """Every span finished since the last drain, one row each.

        Rows follow :data:`SPAN_COLUMNS`; ``parent`` is a row index into
        the returned array (-1 for a thread's outermost spans).  Call it
        between passes, when no span is open.
        """
        blocks = []
        base = 0
        with self._lock:
            for _, spans in self._threads:
                if not spans:
                    continue
                rows = np.array(spans, dtype=np.float64)
                spans.clear()
                parent = rows[:, 1]
                rows[:, 1] = np.where(parent >= 0, parent + base, -1.0)
                blocks.append(np.column_stack(
                    [np.full(len(rows), float(len(blocks))), rows]))
                base += len(rows)
            # a rank thread that has ended never records again
            self._threads = [(t, s) for t, s in self._threads
                             if t.is_alive()]
        if not blocks:
            return np.empty((0, len(SPAN_COLUMNS)))
        return np.vstack(blocks)

    def self_times(self, rows: np.ndarray) -> dict[str, float]:
        """``{layer: CPU self seconds}`` summed over drained ``rows``."""
        if not len(rows):
            return dict.fromkeys(self.layers, 0.0)
        layer = rows[:, 1].astype(np.int64)
        parent = rows[:, 2].astype(np.int64)
        cpu = rows[:, 6] - rows[:, 5]
        child = parent >= 0
        covered = np.bincount(parent[child], weights=cpu[child],
                              minlength=len(rows))
        sums = np.bincount(layer, weights=cpu - covered,
                           minlength=len(self.layers))
        return {name: float(sums[lid]) for lid, name in enumerate(self.layers)}
