"""Benchmark of the cronon package: time to solution, layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload evolve-dense --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                       # every workload, seed 0

Each workload is a closed loop with one caller (see README.md in this
directory). With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it prints the per-layer metrics of a traced run instead. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

This script uses only the standard library: the package is imported by
the worker processes it starts, with ``src`` on their path and the BLAS
thread pools capped at one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("evolve-dense", "oracle-ladder", "trajectory", "cli-batch")
#: Fresh interpreters timed for setup_s; the last one also runs the workload.
SETUPS = 5
#: Every run ends well inside the three minutes it is allowed.
DEADLINE_S = 170.0
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Host-speed probe run before each set-up interpreter.
SETUP_PROBE = "spawn"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def read_line(proc, deadline):
    """Next line of a worker's stdout, or BenchError when the deadline passes."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(max(0.0, deadline - time.monotonic())):
            raise BenchError("worker did not answer before the deadline")
    return proc.stdout.readline().decode()


def start_worker(args, mode, work, deadline, spans=None):
    """Start a worker; returns (process, seconds from start to READY)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--size", args.size, "--work", str(work)]
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, env=worker_env(),
                            cwd=ROOT, start_new_session=True)
    try:
        line = read_line(proc, deadline)
    except BenchError:
        stop(proc)
        raise
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, ready


def stop(proc):
    """Kill a worker together with any CLI process it started, and reap it."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def finish_worker(proc, deadline):
    """Wait for a worker to exit; BenchError unless it exits 0."""
    try:
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker did not finish before the deadline")
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")


def median_of(cmd, runs, env):
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def import_times(stderr, top):
    """(cumulative import of ``top``, scipy's share) in seconds from ``-X importtime``.

    scipy's share sums the cumulative time of every scipy module whose
    importer is not itself a scipy module.
    """
    pending = []  # (depth, name, cumulative us, children); children print first
    for line in stderr.splitlines():
        m = IMPORTTIME.match(line)
        if not m:
            continue
        depth = len(m.group(3))
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop())
        pending.append((depth, m.group(4), int(m.group(2)), children))

    def scipy_us(node, inside):
        _, name, cumulative, children = node
        if name.split(".")[0] == "scipy" and not inside:
            return cumulative
        return sum(scipy_us(c, name.split(".")[0] == "scipy") for c in children)

    top_us = sum(n[2] for n in pending if n[1].split(".")[0] == "cronon")
    if top_us == 0:
        raise BenchError(f"-X importtime shows no import of {top}")
    return top_us / 1e6, sum(scipy_us(n, False) for n in pending) / 1e6


def startup_layers(module, env):
    """cli.interpreter_start_s, cli.import_s and kernel.scipy_import_s."""
    start = median_of([sys.executable, "-c", "pass"], 5, env)
    imports = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                              env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        imports.append(import_times(proc.stderr, module))
    return {"cli.interpreter_start_s": start,
            "cli.import_s": statistics.median(i[0] for i in imports),
            "kernel.scipy_import_s": statistics.median(i[1] for i in imports)}


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "cronon").rglob("*.py")))


def load_spec():
    """BENCHMARK.json: the metric names and units the result must carry."""
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def pick(values, metrics):
    """The result's metrics: one value per metric of BENCHMARK.json, with its unit."""
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def run_workload(args, spec):
    deadline = time.monotonic() + DEADLINE_S
    work = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans = BENCH_DIR / ".work" / f"{args.workload}.spans.jsonl" if args.trace else None
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups, setup_speed = [], []
        layers = {}
        if args.trace:
            module = "cronon.cli" if args.workload == "cli-batch" else "cronon"
            layers = startup_layers(module, worker_env())
            proc, _ = start_worker(args, "run", work, deadline, spans)
        else:
            for i in range(SETUPS):
                setup_speed.append(hostspeed.PROBES[SETUP_PROBE](worker_env()))
                mode = "run" if i == SETUPS - 1 else "setup"
                proc, ready = start_worker(args, mode, work, deadline)
                setups.append(ready)
                if mode == "setup":
                    finish_worker(proc, deadline)
        finish_worker(proc, deadline)
        raw = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(args, spec, raw, setups, setup_speed, layers)


def summarize(args, spec, raw, setups, setup_speed, layers):
    """The result document: metrics, sample counts, failures, provenance."""
    failures = raw["failures"]
    doc = {
        "correct": raw["wrong"] == 0,
        "attempted": raw["attempted"],
        "failed": len(failures),
        "failures": failures,
        "provenance": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "src_cronon_lines": src_lines(), **raw["versions"],
            "distinct_freq_ratio": raw["distinct_freq_ratio"],
        },
    }
    if args.trace:
        layers.update(raw["layers"])
        doc["metrics"] = pick(layers, spec["per_layer"])
        return doc
    # Medians over the whole run. Each batch's times are scaled to the
    # reference host's speed by the host-speed samples taken between its
    # ops (hostspeed.py); set-up by those taken between the interpreters.
    batches = raw["latencies"]
    scales = [hostspeed.factor(raw["probe"], speed) for speed in raw["speed"]]
    setup_scale = hostspeed.factor(SETUP_PROBE, setup_speed)
    probe_ms = [1e3 * x for speed in raw["speed"] for x in speed]
    doc["provenance"]["host_probe_ms"] = {
        raw["probe"]: [statistics.median(probe_ms), min(probe_ms)],
        f"{SETUP_PROBE} (set-up)": [1e3 * statistics.median(setup_speed),
                                    1e3 * min(setup_speed)]}
    walls = [sum(batch) * f for batch, f in zip(batches, scales)]
    op_ms = sorted(x * f * 1e3 for batch, f in zip(batches, scales) for x in batch)
    p95 = (statistics.quantiles(op_ms, n=100, method="inclusive")[94]
           if len(op_ms) > 1 else op_ms[0])
    values = {
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(op_ms),
        "op_p95_ms": p95,
        "setup_s": statistics.median(setups) * setup_scale,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    doc["metrics"] = pick(values, spec["end_to_end"])
    scale = statistics.median(scales)
    doc["samples"] = {
        "wall_s": f"median of {len(walls)} batches of the {raw['ops_per_batch']}-op list, "
                  f"scaled by x{scale:.4f} (median batch)",
        "op_p50_ms": f"n={len(op_ms)} op latencies",
        "op_p95_ms": f"n={len(op_ms)} op latencies, {sum(x > p95 for x in op_ms)} beyond",
        "setup_s": f"median of {len(setups)} fresh interpreters, scaled by x{setup_scale:.4f}",
        "peak_rss_mb": ("largest CLI child" if args.workload == "cli-batch"
                        else "worker process"),
    }
    return doc


def report(doc):
    """Human-readable lines; the JSON result line is printed separately."""
    prov = doc["provenance"]
    print(f"== {prov['workload']} seed={prov['seed']} seconds={prov['seconds']} "
          f"trace={prov['trace']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    samples = doc.get("samples", {})
    for name, m in doc["metrics"].items():
        note = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}{note}")
    ratio = doc["failed"] / doc["attempted"] if doc["attempted"] else 0.0
    print(f"  {'fail_ratio':42s} {ratio:>14.6g} ({doc['failed']} of {doc['attempted']} ops)")
    for name, reason in doc["failures"]:
        print(f"  FAILED {name}: {reason}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every op list; used by the self-tests")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "cronon" / "__init__.py").is_file():
        print(f"benchmark: no package at {ROOT / 'src' / 'cronon'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    docs = {}
    for name in names:
        args.workload = name
        try:
            docs[name] = run_workload(args, load_spec())
        except BenchError as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 1
        report(docs[name])
    keys = ("correct", "attempted", "failed", "metrics")
    if len(docs) == 1:
        print(json.dumps({k: docs[name][k] for k in keys}))
    else:
        print(json.dumps({n: {k: d[k] for k in keys} for n, d in docs.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
