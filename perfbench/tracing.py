"""Spans and factorization counts recorded around calls into aluthgelab.

A :class:`Tracer` replaces every public function of each layer module
(the names in its ``__all__``) with a wrapper that records one span:
label, start, end and the span that was open when it was called.  It
replaces the ``numpy.linalg`` and ``scipy.linalg`` factorization entry
points with wrappers that only count calls.  Nothing inside ``src/`` is
edited; the wrappers are installed by rebinding module attributes and
removed again by :meth:`Tracer.uninstall`.

``norm`` is counted only with ``ord=2`` on a matrix, where it computes an
SVD internally; that inner SVD does not pass through the public ``svd``
and so is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

#: Measured layers, in call-graph order; ``errors`` does no work.
LAYERS = ("linalg_core", "aluthge", "spectral", "shadowing", "ensembles", "suites", "cli")

#: Entry points counted in numpy.linalg and scipy.linalg.
FACTORIZATIONS = ("svd", "eig", "eigvals", "eigh", "solve", "inv")


class Tracer:
    """Span recorder and call counter; install, run, then uninstall."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.span_label = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"aluthgelab.{layer}")
            for name in module.__all__:
                original = getattr(module, name)
                if inspect.isfunction(original) and original.__module__ == module.__name__:
                    self._rebind_everywhere(original, self._span(f"{layer}.{name}", original))
        import scipy.linalg

        for namespace in (np.linalg, scipy.linalg):
            for name in FACTORIZATIONS:
                self._patch(namespace, name, self._counter(name, getattr(namespace, name)))
            self._patch(namespace, "norm", self._norm2_counter(namespace.norm))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _rebind_everywhere(self, original, replacement) -> None:
        """Rebind every package-module name bound to ``original``, so that
        calls through ``from .x import f`` imports are traced too."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "aluthgelab" and not mod_name.startswith("aluthgelab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    # -- wrappers -----------------------------------------------------

    def _span(self, label: str, fn):
        ident = len(self.labels)
        self.labels.append(label)
        labels, parents, starts, ends = self.span_label, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(labels)
            labels.append(ident)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()

        return traced

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _norm2_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                counts["norm2"] += 1
            return fn(x, ord, *args, **kwargs)

        return counted

    def reset(self) -> None:
        """Forget the spans and counts recorded so far."""
        for record in (self.span_label, self.span_parent, self.span_start, self.span_end):
            del record[:]
        self.counts.clear()

    # -- results --------------------------------------------------------

    def span_totals(self) -> tuple[Counter, Counter]:
        """Calls and self time per span label.

        A span's self time is its duration minus the durations of the
        spans it directly caused.
        """
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        child_time = [0.0] * len(durations)
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                child_time[parent] += durations[index]
        calls: Counter = Counter()
        self_time: Counter = Counter()
        for index, ident in enumerate(self.span_label):
            label = self.labels[ident]
            calls[label] += 1
            self_time[label] += durations[index] - child_time[index]
        return calls, self_time

    def calls_under(self, label: str, parent_label: str) -> int:
        """Number of ``label`` spans opened directly by a ``parent_label`` span."""
        ident = self.labels.index(label)
        parent_ident = self.labels.index(parent_label)
        return sum(
            1
            for index, own in enumerate(self.span_label)
            if own == ident
            and self.span_parent[index] >= 0
            and self.span_label[self.span_parent[index]] == parent_ident
        )

    def layer_self_seconds(self) -> dict[str, float]:
        _, self_time = self.span_totals()
        totals = dict.fromkeys(LAYERS, 0.0)
        for label, seconds in self_time.items():
            totals[label.split(".", 1)[0]] += seconds
        return totals
