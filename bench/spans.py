"""Spans around calls into heterospec's public functions.

The benchmark records spans from its own files: it replaces a function
under the name its caller looks it up by (``heterospec.control.expand``,
not ``heterospec.tree.expand``, because control binds it with
``from .tree import expand``) and restores the original afterwards.

Spans are aggregated as they close rather than stored: for each span name
the tracer keeps a call count and the self time, which is the span's
duration minus the time covered by the spans it caused. Every per-layer
``*_s`` metric is such a self time, so the layers add up to the traced
pass without counting any interval twice.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Self-time and call-count aggregation for nested spans."""

    def __init__(self):
        self._stack: list[list[float]] = []  # child time of each open span
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._in_draft = 0
        self._models: list[object] = []

    def wrap(self, name: str, fn, on_result=None):
        """Return fn traced as span ``name``; ``on_result(args, result)``
        runs after the span closes, to record counts at the boundary."""
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def exclude(self, seconds: float) -> None:
        """Count time spent inside the open span as none of its own."""
        if self._stack:
            self._stack[-1][0] += seconds

    def wrap_models(self, target, draft) -> None:
        """Trace the next_dist of these two instances, not of their class.

        The draft's base is itself an NGramModel and, with draft.order =
        None, is the target object: a target eval nested in a draft eval is
        part of that draft eval and is not counted as a target call.
        """
        draft_eval = self.wrap("models.draft_eval_s", draft.next_dist)
        target_eval = self.wrap("models.target_eval_s", target.next_dist)
        target_direct = target.next_dist

        def draft_next_dist(context):
            self._in_draft += 1
            try:
                return draft_eval(context)
            finally:
                self._in_draft -= 1

        def target_next_dist(context):
            if self._in_draft:
                return target_direct(context)
            return target_eval(context)

        draft.next_dist = draft_next_dist
        target.next_dist = target_next_dist
        self._models += [draft, target]

    def unwrap_models(self) -> None:
        for model in self._models:
            model.__dict__.pop("next_dist", None)
        self._models.clear()


@contextmanager
def patched(replacements):
    """Set ``module.name = make(original)`` for each (module, name, make)
    and restore every original on exit, last patch first."""
    originals = []
    try:
        for module, name, make in replacements:
            original = getattr(module, name)
            originals.append((module, name, original))
            setattr(module, name, make(original))
        yield
    finally:
        for module, name, original in reversed(originals):
            setattr(module, name, original)
