"""One benchmark worker: a fresh interpreter that sets up a workload and,
in run mode, measures it.

Started by run.py, never by hand. It prints ``READY`` once set-up is
done (package imported, inputs built, one warm-up op run); run.py times
set-up from process start to that line. In run mode it then runs the op
list as batches for the requested seconds, checks every output after
each batch (outside the timed region) and writes its results as JSON
to ``result.json`` in the --work directory.

With --trace 1 it alternates untraced and traced batches, so that the
same process gives the tracing overhead and the per-layer spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
#: Batches an untraced run makes at least, so every op has a repeat.
MIN_BATCHES = 2
#: Host-speed probe of each workload, and samples of it before each untraced op.
PROBE = {"cli-batch": ("spawn", 1)}
DEFAULT_PROBE = ("numpy", 2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "run"), default="run")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--work", required=True, help="scratch directory for CLI files")
    p.add_argument("--spans", help="write the traced run's spans here (JSON lines)")
    return p.parse_args(argv)


def import_package(workload):
    """Import what the workload's user would import and make sure it is
    the checkout's own copy."""
    if workload == "cli-batch":
        import cronon.cli as module
    else:
        import cronon as module
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise SystemExit(f"benchmark: imported {path}, not the package under {SRC}")


def run_op(op, ctx):
    """(output, error text) of one op; an exception is a failed op."""
    try:
        return op.run(ctx), None
    except Exception as exc:  # every failure is recorded by name, none stops the run
        return None, f"{type(exc).__name__}: {exc}"


def run_batch(ops, order, ctx, probe, samples):
    """Run the op list once in ``order``.

    Unless traced, times ``samples`` runs of the host-speed ``probe``
    before each op, outside the op's time and the wall. Returns (wall,
    latencies indexed like ``ops``, [(op, output, error)], probe times).
    """
    results, speed = [], []
    latencies = [0.0] * len(ops)
    tracer = ctx.tracer
    t0 = time.perf_counter()
    for i in order:
        op = ops[i]
        if tracer is None:
            speed += [probe(ctx.env) for _ in range(samples)]
        else:
            tracer.start_op(i)
        s = time.perf_counter()
        out, err = run_op(op, ctx)
        latencies[i] = time.perf_counter() - s
        results.append((op, out, err))
    wall = time.perf_counter() - t0 - sum(speed)
    if tracer is not None:
        tracer.end_op()
    return wall, latencies, results, speed


def check_batch(results, failures, label=""):
    """Check every output; returns the number of wrong outputs."""
    wrong = 0
    for op, out, err in results:
        if err is None:
            err = op.check(out)
            wrong += err is not None
        if err is not None:
            failures.append([op.name + label, err])
    return wrong


def batch_bytes(results):
    return sum(out.bytes_out for _op, out, _err in results if hasattr(out, "bytes_out"))


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    import_package(args.workload)
    import numpy as np

    import workloads as wl

    work = Path(args.work).resolve()
    work.mkdir(parents=True, exist_ok=True)
    ctx = wl.Context(work=work, env=dict(os.environ),
                     workers=min(2, len(os.sched_getaffinity(0))))
    ops = wl.build(args.workload, args.seed, args.size, ctx)
    run_op(ops[0], ctx)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    ctx.child_rss_kb = 0

    order = np.random.default_rng([args.seed, 99]).permutation(len(ops)).tolist()
    probe, samples = PROBE.get(args.workload, DEFAULT_PROBE)
    plain_walls, traced_walls, latencies, layer_batches, spans, failures = [], [], [], [], [], []
    speeds = []
    per_layer = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))[
        "per_layer"]
    attempted = wrong = 0
    measured = 0.0
    while True:
        traced = args.trace == 1 and len(traced_walls) < len(plain_walls)
        if traced:
            from tracer import PACKAGE_TARGETS, Tracer

            ctx.tracer = Tracer()
            ctx.tracer.install(PACKAGE_TARGETS)
        wall, lat, results, speed = run_batch(ops, order, ctx, hostspeed.PROBES[probe],
                                              samples)
        attempted += len(results)
        measured += wall
        if traced:
            ctx.tracer.uninstall()
            traced_walls.append(wall)
            layer_batches.append(layer_metrics(ctx.tracer, wall, batch_bytes(results),
                                               per_layer))
            spans.extend(ctx.tracer.spans)
            ctx.tracer = None
        else:
            plain_walls.append(wall)
            latencies.append(lat)
            speeds.append(speed)
        wrong += check_batch(results, failures, " (traced)" if traced else "")
        if (measured + wall > args.seconds
                and len(plain_walls) >= (1 if args.trace else MIN_BATCHES)
                and len(traced_walls) == args.trace * len(plain_walls)):
            break
    if args.workload == "cli-batch":
        peak_kb = ctx.child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        spot = wl.spot_checks(args.seed)
        attempted += len(spot)
        for reason in filter(None, spot):
            failures.append(["spot-check/closed_form", reason])
            wrong += 1
    distinct = pairs = 0
    for op in ops:
        if "energies" in op.inputs:
            d, n = wl.distinct_freq_counts(op.inputs["energies"])
            distinct, pairs = distinct + d, pairs + n

    result = {
        "latencies": latencies,
        "probe": probe,
        "speed": speeds,
        "ops_per_batch": len(ops),
        "attempted": attempted,
        "failures": failures,
        "wrong": wrong,
        "peak_rss_mb": peak_kb / 1024.0,
        "distinct_freq_ratio": distinct / pairs if pairs else 0.0,
        "versions": versions(),
    }
    if args.trace == 1:
        layers = {key: statistics.median_low(b[key] for b in layer_batches)
                  for key in layer_batches[0]}
        layers["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                          / statistics.median(plain_walls))
        layers["propagator.distinct_freq_ratio"] = result["distinct_freq_ratio"]
        result["layers"] = layers
        if args.spans:
            from tracer import write_spans

            write_spans(args.spans, spans)
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


def layer_metrics(tracer, wall, bytes_out, per_layer):
    """Per-layer numbers of one traced batch: calls and self time of every
    ``<span>.calls`` and ``<span>.self_s`` metric in ``per_layer``, and the
    counters."""
    from tracer import layer_totals

    calls, self_s, blocking = layer_totals(tracer.spans)
    out = {}
    for metric in per_layer:
        span, _, kind = metric["name"].rpartition(".")
        if kind == "calls":
            out[metric["name"]] = calls.get(span, 0)
        elif kind == "self_s":
            out[metric["name"]] = self_s.get(span, 0.0)
    evals = tracer.counters["factor_evals"]
    # With no call through the public coherence_factor, no evaluation is wasted.
    out["propagator.factor_useful_ratio"] = (tracer.counters["factor_distinct"] / evals
                                             if evals else 1.0)
    out["kernel.samples_drawn"] = tracer.counters["samples_drawn"]
    out["cli.bytes_out"] = bytes_out
    out["trace.self_sum_ratio"] = blocking / wall
    return out


def versions():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


if __name__ == "__main__":
    sys.exit(main())
