"""Span tracing of the lomo package from outside it.

``instrumented`` swaps module attributes of the package for wrappers that
record one span per call, and restores them on exit. It works because the
package resolves these names at call time: the solver table
``lomo.inference.SOLVERS`` (one dict shared by training, pipeline and
evaluation), ``pool`` and ``score_fixed`` in the modules that call them, the
trainer's ``objective`` and ``sgd_step``, and the ``train_spec`` /
``predict_table`` calls made by ``cross_validate``. Untraced runs never
enter it, so they measure the package untouched.

A span is ``[name, start, end, parent, run, failed]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``run`` the label of the
benchmark operation the span belongs to. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, RUN, FAILED = range(6)


class Tracer:
    """Keeps every span in memory until ``write`` is called."""

    def __init__(self):
        self.spans = []
        self.run = ""
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, False]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                record[FAILED] = True
                raise
            finally:
                record[END] = perf_counter()
                stack.pop()

        return traced

    def call(self, run, name, fn, *args, **kwargs):
        """Run one benchmark operation as a top-level span labelled ``run``."""
        self.run = run
        return self.wrap(name, fn)(*args, **kwargs)

    def layers(self, run):
        """Per span name within ``run``: calls, failures, inclusive and self seconds."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        table = defaultdict(lambda: {"calls": 0, "failed": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, span in enumerate(self.spans):
            if span[RUN] != run:
                continue
            row = table[span[NAME]]
            duration = span[END] - span[START]
            row["calls"] += 1
            row["failed"] += span[FAILED]
            row["incl_s"] += duration
            row["self_s"] += duration - child[i]
        return dict(table)

    def children_of(self, run, parent_name, child_prefix):
        """Number of spans named ``child_prefix*`` whose parent is ``parent_name``."""
        spans = self.spans
        return sum(
            1
            for span in spans
            if span[RUN] == run
            and span[NAME].startswith(child_prefix)
            and span[PARENT] >= 0
            and spans[span[PARENT]][NAME] == parent_name
        )

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\trun\tfailed\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{s[PARENT]}\t{s[RUN]}\t{int(s[FAILED])}\n")


@contextmanager
def instrumented(tracer):
    """Route the package's internal calls through ``tracer`` for the duration."""
    import lomo.core
    import lomo.evaluation
    import lomo.inference
    import lomo.training

    if lomo.training.SOLVERS is not lomo.inference.SOLVERS:
        raise RuntimeError("training no longer shares the inference solver table")
    targets = [
        (lomo.core, "pool", "core.pool"),
        (lomo.training, "pool", "core.pool"),
        (lomo.core, "score_fixed", "core.score_fixed"),
        (lomo.inference, "score_fixed", "core.score_fixed"),
        (lomo.training, "objective", "training.objective"),
        (lomo.training, "sgd_step", "training.sgd_step"),
        (lomo.evaluation, "train_spec", "evaluation.train_spec"),
        (lomo.evaluation, "predict_table", "evaluation.predict_table"),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    solvers = lomo.inference.SOLVERS
    saved_solvers = dict(solvers)
    try:
        for module, attr, name in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        for key, fn in saved_solvers.items():
            solvers[key] = tracer.wrap(f"inference.{key}", fn)
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
        solvers.update(saved_solvers)
