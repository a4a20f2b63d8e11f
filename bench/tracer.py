"""Outside-in span tracer used only by the benchmark's traced runs.

The tracer never edits the package. It replaces public functions in the
namespace of the module that calls them (``cronon.observables.evolve``,
``cronon.propagator.coherence_factor``, or ``cronon.evolve`` for the
benchmark's own library ops) with a wrapper that records a span: name,
parent span, op id, start and end. Spans stay in memory and are written
once, when the run ends.

A span's self time is its duration minus the durations of its child
spans. Spans opened on the main thread are the blocking steps of an op;
spans opened on pool threads (``sweep --workers``) are recorded and
counted, but they overlap the main thread's wait and so are left out of
the blocking sum.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

#: (calling module, attribute, span name) for every function wrapped
#: inside the package. Names follow <defining module>.<function>. The
#: ``cronon`` entries are the calls the library workloads make.
PACKAGE_TARGETS = (
    ("cronon", "evolve", "propagator.evolve"),
    ("cronon", "validate_density", "core.validate_density"),
    ("cronon", "expectation_trajectory", "observables.expectation_trajectory"),
    ("cronon", "tm_report", "observables.tm_report"),
    ("cronon", "ehrenfest_fd_residual", "observables.ehrenfest_fd_residual"),
    ("cronon", "rabi_population", "scenarios.rabi_population"),
    ("cronon", "fit_envelope_rate", "scenarios.fit_envelope_rate"),
    ("cronon", "oscillator_amplitude", "scenarios.oscillator_amplitude"),
    ("cronon", "epr_correlation", "scenarios.epr_correlation"),
    ("cronon", "epr_singlet_fidelity", "scenarios.epr_singlet_fidelity"),
    ("cronon.core", "expectation", "core.expectation"),
    ("cronon.propagator", "bohr_frequencies", "core.bohr_frequencies"),
    ("cronon.propagator", "coherence_factor", "propagator.coherence_factor"),
    ("cronon.propagator", "coarse_grain", "kernel.coarse_grain"),
    ("cronon.propagator", "sample_effective_time", "kernel.sample_effective_time"),
    ("cronon.observables", "evolve", "propagator.evolve"),
    ("cronon.observables", "expectation", "core.expectation"),
    ("cronon.scenarios", "coherence_factor", "propagator.coherence_factor"),
    ("cronon.scenarios", "interference_frequency", "scenarios.interference_frequency"),
    ("cronon.scenarios", "sample_effective_time", "kernel.sample_effective_time"),
    ("cronon.checks", "evolve", "propagator.evolve"),
    ("cronon.checks", "coarse_grain", "kernel.coarse_grain"),
    ("cronon.checks", "ehrenfest_fd_residual", "observables.ehrenfest_fd_residual"),
    ("cronon.checks", "tm_report", "observables.tm_report"),
    ("cronon.io", "load_spectrum", "io.load_spectrum"),
    ("cronon.io", "load_state", "io.load_state"),
)

#: Functions the CLI module calls, wrapped in ``cronon.cli``.
CLI_TARGETS = (
    ("cronon.cli", "cmd_kernel", "cli.cmd_kernel"),
    ("cronon.cli", "cmd_evolve", "cli.cmd_evolve"),
    ("cronon.cli", "cmd_scenario", "cli.cmd_scenario"),
    ("cronon.cli", "cmd_sweep", "cli.cmd_sweep"),
    ("cronon.cli", "cmd_check", "cli.cmd_check"),
    ("cronon.cli", "run_all_checks", "checks.run_all_checks"),
    ("cronon.cli", "validate_density", "core.validate_density"),
    ("cronon.cli", "evolve", "propagator.evolve"),
    ("cronon.cli", "rabi_population", "scenarios.rabi_population"),
    ("cronon.cli", "fit_envelope_rate", "scenarios.fit_envelope_rate"),
    ("cronon.cli", "oscillator_amplitude", "scenarios.oscillator_amplitude"),
    ("cronon.cli", "epr_correlation", "scenarios.epr_correlation"),
    ("cronon.cli", "epr_singlet_fidelity", "scenarios.epr_singlet_fidelity"),
    ("cronon.cli", "interference_frequency", "scenarios.interference_frequency"),
    ("cronon.cli", "cat_interference", "scenarios.cat_interference"),
)

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_factor(tracer, args, kwargs):
    """coherence_factor(omega, params, t, method, samples=None)."""
    if len(args) >= 4:
        omega, params, t, method = args[:4]
    else:
        omega, params, t, method = (_arg(args, kwargs, i, name) for i, name in
                                    enumerate(("omega", "params", "t", "method")))
    key = (abs(omega), t, params.tau1, params.tau2, method.kind)
    tracer.counters["factor_evals"] += 1
    tracer.factor_keys.add(key)


def _count_samples(tracer, args, kwargs):
    """sample_effective_time(params, t, seed, count)."""
    tracer.counters["samples_drawn"] += int(_arg(args, kwargs, 3, "count"))


HOOKS = {
    "propagator.coherence_factor": _count_factor,
    "kernel.sample_effective_time": _count_samples,
}


class Tracer:
    """In-memory span recorder with reversible function wrapping."""

    def __init__(self):
        # One record per span: [id, name, parent id, op, t0, t1, main thread]
        self.spans = []
        self.counters = defaultdict(int)
        self.factor_keys = set()
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._patches = []

    def start_op(self, op):
        """Begin a new op; distinct factor keys are counted per op."""
        self.end_op()
        self.op = op

    def end_op(self):
        self.counters["factor_distinct"] += len(self.factor_keys)
        self.factor_keys.clear()

    def open(self, name):
        local = self._local
        try:
            stack = local.stack
        except AttributeError:  # first span on this thread
            stack = local.stack = []
            local.main = threading.current_thread() is self._main
        rec = [next(self._ids), name, stack[-1][0] if stack else None, self.op,
               time.perf_counter(), None, local.main]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def close(self, rec):
        rec[5] = time.perf_counter()
        self._local.stack.pop()

    def add(self, name, t0, t1):
        """Record a root span measured elsewhere; returns its id."""
        rec = [next(self._ids), name, None, self.op, t0, t1, True]
        self.spans.append(rec)
        return rec[0]

    def wrap(self, namespace, attr, name):
        original = getattr(namespace, attr)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rec = tracer.open(name)
            if hook is not None:
                hook(tracer, args, kwargs)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(rec)

        setattr(namespace, attr, traced)
        self._patches.append((namespace, attr, original))

    def install(self, targets):
        for module, attr, name in targets:
            self.wrap(importlib.import_module(module), attr, name)

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def merge(self, doc, parent):
        """Adopt spans and counters a child process wrote (see ``dump``);
        its main-thread root spans become children of span ``parent``."""
        ids = {}
        for sid, name, par, _op, t0, t1, main in doc["spans"]:
            ids[sid] = new = next(self._ids)
            if par is not None:
                par = ids[par]
            elif main:
                par = parent
            self.spans.append([new, name, par, self.op, t0, t1, main])
        for key, value in doc["counters"].items():
            self.counters[key] += value

    def dump(self):
        self.end_op()
        return {"spans": self.spans, "counters": dict(self.counters)}


def layer_totals(spans):
    """Per span name: calls and self time; plus the blocking self-time sum."""
    child = defaultdict(float)
    for _sid, _name, parent, _op, t0, t1, _main in spans:
        if parent is not None:
            child[parent] += t1 - t0
    calls = defaultdict(int)
    self_s = defaultdict(float)
    blocking = 0.0
    for sid, name, _parent, _op, t0, t1, main in spans:
        own = (t1 - t0) - child[sid]
        calls[name] += 1
        self_s[name] += own
        if main:
            blocking += own
    return calls, self_s, blocking


def write_spans(path, spans):
    """Write spans as JSON lines: id, name, parent, op, t0, t1, main."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")
