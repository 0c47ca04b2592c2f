"""In-memory spans around the public calls into each fairbench module.

A traced study patches the module attributes through which one module calls
another, so every such call records a span: name, start, end, parent span and
the study it belongs to, plus counts taken at the same boundary (rows
predicted, solver iterations, convergence). Spans stay in memory until the
study ends. Pool workers are forked with the patches in place; each worker
drops the spans it inherited and writes its own to a file when it exits.

The layer of a span is the part of its name before the first dot, which is the
fairbench module name.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import util as mp_util
from pathlib import Path


@dataclass
class Span:
    id: str
    parent: str | None
    study: int
    name: str
    start: float
    end: float
    pid: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of one process; forked children write theirs to ``spool``."""

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spans: list[Span] = []
        self.study = -1
        self._stack: list[str] = []
        self._ids = itertools.count()
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # the open spans stay on the stack, so a worker's spans point at the
        # study's root span in the parent
        self.spans = []
        self._ids = itertools.count()
        mp_util.Finalize(None, _write_spool, args=(self,), exitpriority=10)

    @contextmanager
    def span(self, name: str, **attrs):
        sid = f"{os.getpid()}:{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        record = Span(sid, parent, self.study, name, time.perf_counter(), 0.0,
                      os.getpid(), attrs)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def collect(self) -> list[Span]:
        """This process's spans plus those the exited workers wrote; clears both."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spool.glob("spans-*.json")):
            spans += [Span(**doc) for doc in json.loads(path.read_text(encoding="utf-8"))]
            path.unlink()
        return spans


def _write_spool(tracer: Tracer) -> None:
    tracer.spool.mkdir(parents=True, exist_ok=True)
    path = tracer.spool / f"spans-{os.getpid()}.json"
    path.write_text(json.dumps([s.__dict__ for s in tracer.spans]), encoding="utf-8")


# ---------------------------------------------------------------------------
# Patching the public calls between modules
# ---------------------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


def _traced_train(tracer: Tracer, fn):
    from fairbench.errors import DidNotConverge

    @functools.wraps(fn)
    def train(spec, X, y):
        with tracer.span("models.train", family=spec.family) as record:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                model = fn(spec, X, y)
            for w in caught:  # pass on everything but the count we take
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            warned = any(issubclass(w.category, DidNotConverge) for w in caught)
            record.attrs["n_iter"] = int(getattr(model, "n_iter", 0))
            record.attrs["not_converged"] = int(
                warned or getattr(model, "converged", True) is False
            )
            return model

    return train


def _traced_predict(tracer: Tracer, fn):
    @functools.wraps(fn)
    def predict(self, X):
        with tracer.span("models.predict", family=self.spec.family, rows=len(X)):
            return fn(self, X)

    return predict


def install(tracer: Tracer):
    """Patch fairbench for tracing; returns a function that undoes the patches."""
    from fairbench import experiment, importance, models

    plan = [
        (experiment, "materialize_cohort", lambda f: _wrap(tracer, "dataset.cohort", f)),
        (experiment, "prepare_folds", lambda f: _wrap(tracer, "dataset.folds", f)),
        (experiment, "stratified_kfold", lambda f: _wrap(tracer, "dataset.folds", f)),
        (experiment, "train", lambda f: _traced_train(tracer, f)),
        (models.TrainedModel, "predict", lambda f: _traced_predict(tracer, f)),
        (experiment, "permutation_importance", lambda f: _wrap(tracer, "importance", f)),
        (experiment, "macro_f1", lambda f: _wrap(tracer, "metrics.score", f)),
        (importance, "macro_f1", lambda f: _wrap(tracer, "metrics.score", f)),
        (experiment, "group_rates", lambda f: _wrap(tracer, "metrics.fairness", f)),
        (experiment, "equalized_odds", lambda f: _wrap(tracer, "metrics.fairness", f)),
        (experiment, "_evaluate_pair", lambda f: _wrap(tracer, "experiment.pair", f)),
    ]
    undo = []

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    try:
        for owner, attr, make in plan:
            original = owner.__dict__[attr]
            setattr(owner, attr, make(original))
            undo.append((owner, attr, original))
    except KeyError:  # the program no longer has this call: leave it unpatched
        uninstall()
        raise
    return uninstall


# ---------------------------------------------------------------------------
# Arithmetic over finished spans
# ---------------------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(s.start, s.end, children.get(s.id, ()))
            for s in spans}


FAMILIES = ("logr", "svm", "knn", "tree", "forest")


def layer_metrics(spans: list[Span], root: Span) -> dict[str, float]:
    """Per-layer figures of one traced study whose root span is ``root``."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def total_self(prefix: str, **attrs) -> float:
        return sum(own[s.id] for s in spans if s.name.startswith(prefix)
                   and all(s.attrs.get(k) == v for k, v in attrs.items()))

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def inside(span: Span, name: str) -> bool:
        while span.parent is not None and span.parent in by_id:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    trains, predicts, imps = named("models.train"), named("models.predict"), named("importance")
    out = {
        "dataset.cohort_s": total_self("dataset.cohort"),
        "dataset.folds_s": total_self("dataset.folds"),
        "models.train_calls": len(trains),
        "models.logr_iters": sum(s.attrs["n_iter"] for s in trains if s.attrs["family"] == "logr"),
        "models.svm_iters": sum(s.attrs["n_iter"] for s in trains if s.attrs["family"] == "svm"),
        "models.not_converged": sum(s.attrs["not_converged"] for s in trains),
        "models.predict_calls": len(predicts),
        "models.predict_rows": sum(s.attrs["rows"] for s in predicts),
        "importance.self_s": total_self("importance"),
        "importance.total_s": sum(s.duration for s in imps),
        "importance.calls": len(imps),
        "importance.predict_calls_per_call":
            sum(inside(s, "importance") for s in predicts) / max(len(imps), 1),
        "metrics.score_s": total_self("metrics.score"),
        "metrics.score_calls": len(named("metrics.score")),
        "metrics.fairness_s": total_self("metrics.fairness"),
        "experiment.self_s": total_self("experiment"),
        "report.emit_s": total_self("report"),
        "trace.study_s": root.duration,
    }
    for fam in FAMILIES:
        out[f"models.train_s.{fam}"] = total_self("models.train", family=fam)
        out[f"models.predict_s.{fam}"] = total_self("models.predict", family=fam)

    # a worker is a process that ran (model, protocol) pairs, the study's own
    # process when it is serial; ranked busiest first, 0 for an absent worker
    busy: dict[int, float] = {}
    for s in named("experiment.pair"):
        busy[s.pid] = busy.get(s.pid, 0.0) + s.duration
    ranked = sorted(busy.values(), reverse=True) + [0.0, 0.0]
    out["experiment.worker_busy_s.0"] = ranked[0]
    out["experiment.worker_busy_s.1"] = ranked[1]
    return out
