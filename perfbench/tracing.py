"""Outside-in layer tracing for one honestflow process.

``traced(tracer)`` swaps wrappers in at the names the library's callers look
up (module globals such as ``scenarios.transport_ensemble``, class
attributes such as ``StepFunction.__init__``) and puts every original back on
exit.  Each wrapper records a span ``(name, start, end, parent)`` and the
layer's counts.  Span stacks are per thread, because ``run_scenario`` runs
windows and resolvents on a thread pool: a span opened on a thread with an
empty stack takes the open ``scenarios.run`` span as its parent.

``layer_metrics(spans, counts)`` turns one scenario's spans into per-layer
metrics: each ``<layer>_s`` is the layer's self time, its spans' durations
minus the part of each interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

ROOT = "scenarios.run"


class Tracer:
    """Spans and counts of one traced stretch of work, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent)
        self.counts: dict[str, float] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: list[int] = []
        self._next_id = 0

    def reset(self):
        with self._lock:
            self.spans = []
            self.counts = defaultdict(int)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else (self._roots[-1] if self._roots else None)
            if name == ROOT:
                self._roots.append(span_id)
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, name: str, token: tuple, counts=None):
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack().pop()
        with self._lock:
            if name == ROOT:
                self._roots.remove(span_id)
            self.spans.append((span_id, name, start, end, parent))
            if counts:
                for key, value in counts.items():
                    self.counts[key] += value


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    """Wrapper that records a span around ``fn``.  ``before(args, kwargs)``
    runs outside the span and returns state for ``after(state, args, kwargs,
    result)``, which returns the counts to add."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before else None
        token = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(name, token)
            raise
        counts = after(state, args, kwargs, result) if after else None
        tracer.close(name, token, counts)
        return result

    return wrapper


def _one(key):
    return lambda state, args, kwargs, result: {key: 1}


def _history_counts(state, args, kwargs, result):
    return {"expansion.orders_built": 1,
            "boundary.history_pieces": sum(f.vals.size for f in result.values())}


def _window_counts(state, args, kwargs, result):
    return {"honesty.subwindows": len(result.reports),
            "honesty.window_orders": sum(len(r.entries) for r in result.reports)}


def _resolvent_counts(state, args, kwargs, result):
    return {"honesty.resolvent_orders": len(result.entries)}


def _transport_counts(state, args, kwargs, result):
    ens, t = args[0], args[1]
    return {"densities.transport_calls": 1, "densities.particle_time": len(ens) * float(t)}


def _kernel_before(args, kwargs):
    rebounds, degenerate = args[3], args[4]
    return int(rebounds.sum()), int(degenerate.sum())


def _kernel_after(state, args, kwargs, result):
    rebounds, degenerate = args[3], args[4]
    return {"kernels.rebound_events": int(rebounds.sum()) - state[0],
            "kernels.degenerate": int(degenerate.sum()) - state[1]}


def patch_table():
    """(owner, attribute, layer, before, after) for every traced name.  Each
    owner is the namespace the caller looks the name up in."""
    from honestflow import _kernels, expansion, honesty, scenarios
    from honestflow.steps import StepFunction

    return [
        (scenarios, "parse_config", "scenarios.parse", None, None),
        (scenarios, "run_scenario", ROOT, None, None),
        (scenarios, "time_series_csv", "scenarios.render", None, None),
        (scenarios, "summary_text", "scenarios.render", None, None),
        (scenarios, "sample_ensemble", "densities.sample", None, None),
        (scenarios, "transport_ensemble", "densities.transport", None, _transport_counts),
        (StepFunction, "__init__", "steps.construct", None, _one("steps.constructions")),
        (StepFunction, "__add__", "steps.add", None, None),
        (expansion.Expansion, "order_mass", "expansion.order_mass", None,
         _one("expansion.order_mass_calls")),
        (expansion.Expansion, "integrated_trace", "expansion.trace", None,
         _one("expansion.trace_calls")),
        (expansion, "mc_mass_estimate", "expansion.mc", None, None),
        (expansion, "apply_rule_histories", "boundary.rule_histories", None, _history_counts),
        (honesty, "apply_rule", "boundary.apply_rule", None, None),
        (honesty, "honesty_on_interval", "honesty.window", None, _window_counts),
        (honesty, "resolvent_defect", "honesty.resolvent", None, _resolvent_counts),
        (honesty, "ensemble_trace_decay", "honesty.decay", None, None),
        (_kernels, "billiard_transport", "kernels.transport", _kernel_before, _kernel_after),
        (_kernels, "ladder_survival", "kernels.survival", None, None),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block; restore every
    original attribute afterwards, also when the block raises."""
    saved = []
    try:
        for owner, attr, layer, before, after in patch_table():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, layer, original, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------------

# layer -> name of its self-time metric
TIME_METRICS = {
    "scenarios.parse": "scenarios.parse_s",
    ROOT: "scenarios.run_self_s",
    "scenarios.render": "scenarios.render_s",
    "steps.construct": "steps.construct_s",
    "steps.add": "steps.add_s",
    "expansion.order_mass": "expansion.order_mass_s",
    "expansion.trace": "expansion.trace_s",
    "expansion.mc": "expansion.mc_s",
    "boundary.rule_histories": "boundary.rule_histories_s",
    "boundary.apply_rule": "boundary.apply_rule_s",
    "honesty.window": "honesty.window_s",
    "honesty.resolvent": "honesty.resolvent_s",
    "honesty.decay": "honesty.decay_s",
    "densities.sample": "densities.sample_s",
    "densities.transport": "densities.transport_s",
    "kernels.transport": "kernels.transport_s",
    "kernels.survival": "kernels.survival_s",
}

COUNT_METRICS = (
    "steps.constructions",
    "expansion.orders_built",
    "expansion.order_mass_calls",
    "expansion.trace_calls",
    "boundary.history_pieces",
    "honesty.subwindows",
    "honesty.window_orders",
    "honesty.resolvent_orders",
    "densities.transport_calls",
    "densities.particle_time",
    "kernels.rebound_events",
    "kernels.degenerate",
)


LAYER_UNITS = {
    **{metric: "s" for metric in TIME_METRICS.values()},
    **{metric: "count" for metric in COUNT_METRICS},
    "kernels.rebound_events_per_s": "1/s",
}


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[str, float]:
    """Layer name -> summed self time of its spans."""
    children = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _ in spans:
        out[name] += (end - start) - _covered(children.get(span_id, ()))
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """Every per-layer metric of one traced scenario."""
    selfs = self_times(spans)
    out = {metric: float(selfs.get(layer, 0.0)) for layer, metric in TIME_METRICS.items()}
    for key in COUNT_METRICS:
        out[key] = counts.get(key, 0)
    busy = out["kernels.transport_s"]
    out["kernels.rebound_events_per_s"] = out["kernels.rebound_events"] / busy if busy > 0 else 0.0
    return out
