"""Spans around the calls into gaugekit's layers, recorded from outside.

`Tracer.install` replaces public functions, as module attributes, with
wrappers that record one span per call: name, start, end and the enclosing
span. Nothing under `src/` changes; the wrappers reach every caller that
looks the function up through its module at call time. A target that no
longer exists is skipped and its metrics read 0.

Spans are kept in flat arrays in memory and written out at the end. A span's
self time is its duration minus the time of the spans it encloses.
"""

import array
import collections
import functools
import importlib
import time

import numpy as np

# (span, module, attribute); "Class.method" wraps a method on the class.
TARGETS = [
    ("space.sample", "gaugekit.cli", "sample_uniform_box"),
    ("gauge.encode_epigraph", "gaugekit.gauge", "encode_epigraph"),
    ("gauge.membership", "gaugekit.gauge", "membership"),
    ("reformulate.build_primal", "gaugekit.reformulate", "build_primal"),
    ("reformulate.build_dual", "gaugekit.reformulate", "build_dual"),
    ("conic.build", "gaugekit.conic", "ProgramBuilder.build"),
    ("conic.solve", "gaugekit.conic", "solve"),
    ("conic.project_cone", "gaugekit.conic", "project_cone"),
    ("conic.jacobi_eigh", "gaugekit.conic", "jacobi_eigh"),
    ("oracle.frank_wolfe", "gaugekit.oracle", "frank_wolfe_primal"),
    ("oracle.w1_distance", "gaugekit.envelope", "w1_distance"),
    ("envelope.build", "gaugekit.envelope", "build_envelope_program"),
    ("envelope.solve", "gaugekit.envelope", "solve_envelope"),
    ("casestudy.build", "gaugekit.casestudy", "build_case_envelope_lp"),
    ("casestudy.build", "gaugekit.casestudy", "build_case_funcparam_sdp"),
    ("casestudy.solve", "gaugekit.cli", "solve_case"),
    ("cli.main", "gaugekit.cli", "main"),
]

# encode_epigraph recurses through composite gauges; only the outermost call
# is a span, so its time is the whole encoding of one gauge.
TOPLEVEL_ONLY = {"gauge.encode_epigraph"}


def _solve_hook(counters, args, result):
    counters["conic.solve.optimal"] += result.status == "optimal"
    counters["conic.solve.rows"] += args[0].num_rows


def _walk_hook(counters, args, result):
    counters["oracle.frank_wolfe.iterations"] += result.iterations


HOOKS = {"conic.solve": _solve_hook, "oracle.frank_wolfe": _walk_hook}

# (metric, unit, span, field). Times are per round; ".s" is self time and
# ".total_s" includes the enclosed spans.
PER_LAYER = [
    ("space.sample.calls", "count", "space.sample", "calls"),
    ("space.sample.s", "s", "space.sample", "self"),
    ("gauge.encode_epigraph.calls", "count", "gauge.encode_epigraph", "calls"),
    ("gauge.encode_epigraph.s", "s", "gauge.encode_epigraph", "self"),
    ("gauge.membership.calls", "count", "gauge.membership", "calls"),
    ("gauge.membership.s", "s", "gauge.membership", "self"),
    ("gauge.membership.total_s", "s", "gauge.membership", "total"),
    ("reformulate.build_primal.s", "s", "reformulate.build_primal", "self"),
    ("reformulate.build_dual.s", "s", "reformulate.build_dual", "self"),
    ("conic.build.calls", "count", "conic.build", "calls"),
    ("conic.build.s", "s", "conic.build", "self"),
    ("conic.solve.calls", "count", "conic.solve", "calls"),
    ("conic.solve.s", "s", "conic.solve", "self"),
    ("conic.solve.total_s", "s", "conic.solve", "total"),
    ("conic.iterations", "count", "conic.project_cone", "calls"),
    ("conic.project_cone.s", "s", "conic.project_cone", "self"),
    ("conic.jacobi_eigh.calls", "count", "conic.jacobi_eigh", "calls"),
    ("conic.jacobi_eigh.s", "s", "conic.jacobi_eigh", "self"),
    ("conic.solve.optimal_ratio", "ratio", "conic.solve", "optimal_ratio"),
    ("conic.rows_per_solve", "rows", "conic.solve", "rows_per_solve"),
    ("oracle.frank_wolfe.iterations", "count", "oracle.frank_wolfe", "iterations"),
    ("oracle.frank_wolfe.s", "s", "oracle.frank_wolfe", "self"),
    ("oracle.frank_wolfe.total_s", "s", "oracle.frank_wolfe", "total"),
    ("oracle.w1_distance.s", "s", "oracle.w1_distance", "self"),
    ("envelope.build.s", "s", "envelope.build", "self"),
    ("envelope.solve.s", "s", "envelope.solve", "self"),
    ("envelope.solve.total_s", "s", "envelope.solve", "total"),
    ("casestudy.build.s", "s", "casestudy.build", "self"),
    ("casestudy.solve.s", "s", "casestudy.solve", "self"),
    ("casestudy.solve.total_s", "s", "casestudy.solve", "total"),
    ("cli.main.calls", "count", "cli.main", "calls"),
    ("cli.self.s", "s", "cli.main", "self"),
    ("cli.main.total_s", "s", "cli.main", "total"),
]


def _resolve(module, attribute):
    """(owner, name, function) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters = collections.Counter()
        self.installed = set()
        self._stack = []
        self._open = []
        self._undo = []

    def _wrap(self, span, fn):
        if span not in self.names:
            self.names.append(span)
            self._open.append(0)
        sid = self.names.index(span)
        toplevel_only = span in TOPLEVEL_ONLY
        hook = HOOKS.get(span)
        stack, opened = self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if toplevel_only and opened[sid]:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.span_name.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            opened[sid] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
                opened[sid] -= 1
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return wrapper

    def install(self):
        for span, module, attribute in TARGETS:
            found = _resolve(module, attribute)
            if found is None:
                continue
            owner, name, fn = found
            self._undo.append((owner, name, fn))
            setattr(owner, name, self._wrap(span, fn))
            self.installed.add(span)

    def uninstall(self):
        while self._undo:
            owner, name, fn = self._undo.pop()
            setattr(owner, name, fn)

    def aggregate(self):
        """{span: {"calls", "self", "total"}} summed over every recorded span."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        sid = np.frombuffer(self.span_name, dtype=np.int32)
        enclosed = np.zeros_like(dur)
        inner = parent >= 0
        np.add.at(enclosed, parent[inner], dur[inner])
        k = len(self.names)
        calls = np.bincount(sid, minlength=k)
        total = np.bincount(sid, weights=dur, minlength=k)
        own = np.bincount(sid, weights=dur - enclosed, minlength=k)
        out = {}
        for span in self.installed:
            i = self.names.index(span)
            out[span] = {"calls": int(calls[i]), "total": float(total[i]), "self": float(own[i])}
        return out

    def per_layer(self, rounds):
        """Every per-layer metric, per round. A count or a time reads 0 where
        the workload never enters the span or the target no longer exists,
        and so do the solve ratios where no solve was made."""
        spans = self.aggregate()
        solves = spans.get("conic.solve", {}).get("calls", 0)
        derived = {
            "optimal_ratio": self.counters["conic.solve.optimal"] / solves if solves else 0.0,
            "rows_per_solve": self.counters["conic.solve.rows"] / solves if solves else 0.0,
            "iterations": self.counters["oracle.frank_wolfe.iterations"] / rounds,
        }
        metrics = {}
        for metric, unit, span, field in PER_LAYER:
            if field in derived:
                value = derived[field]
            else:
                value = spans.get(span, {}).get(field, 0.0) / rounds
            metrics[metric] = {"value": float(value), "unit": unit}
        return metrics

    def write(self, path):
        np.savez(path, names=np.array(self.names),
                 span=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))
