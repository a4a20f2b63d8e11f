"""Self-tests of the benchmark itself.

Run from the root of a checkout (about two minutes; the CLI tests start
a few dozen interpreters):

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's own test collection.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def ctx(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return wl.Context(work=tmp_path, env=env, workers=1)


def by_name(ops, name):
    return next(op for op in ops if op.name == name)


def same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("workload", list(wl.BUILDERS))
def test_same_seed_gives_identical_inputs(ctx, workload):
    first = wl.build(workload, 7, "tiny", ctx)
    again = wl.build(workload, 7, "tiny", ctx)
    other = wl.build(workload, 8, "tiny", ctx)
    assert [op.name for op in first] == [op.name for op in again]
    assert all(same(a.inputs, b.inputs) for a, b in zip(first, again))
    assert not all(same(a.inputs, b.inputs) for a, b in zip(first, other))


def test_checker_flags_a_perturbed_state(ctx):
    op = by_name(wl.build("evolve-dense", 3, "tiny", ctx), "evolve/closed_form/d4")
    out, report = op.run(ctx)
    assert op.check((out, report)) is None

    shifted = out.copy()
    shifted[0, 1] += 1e-9
    shifted[1, 0] = shifted[0, 1].conjugate()
    assert "closed_form" in op.check((shifted, report))

    skewed = out.copy()
    skewed[0, 1] += 1e-15
    assert "Hermitian" in op.check((skewed, report))

    population = out.copy()
    population[2, 2] += 1e-15
    assert "diagonal" in op.check((population, report))


def test_checker_flags_a_wrong_monte_carlo_state(ctx):
    op = by_name(wl.build("oracle-ladder", 3, "tiny", ctx), "monte_carlo/d3")
    out, report = op.run(ctx)
    assert op.check((out, report)) is None
    wrong = out.copy()
    wrong[0, 2] += 0.05
    wrong[2, 0] = wrong[0, 2].conjugate()
    assert "standard-error" in op.check((wrong, report))


def test_checker_flags_a_wrong_rabi_row(ctx):
    op = by_name(wl.build("cli-batch", 3, "tiny", ctx), "cli/scenario-rabi")
    result = op.run(ctx)
    assert op.check(result) is None

    path = result.files[".csv"]
    lines = path.read_text(encoding="utf-8").splitlines()
    t, d_bar, envelope = lines[500].split(",")
    lines[500] = ",".join([t, repr(float(d_bar) + 1e-6), envelope])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert "rabi d_bar" in op.check(result)


def test_reference_spot_check_catches_a_bad_factor():
    good = ref.mp_closed_form(3e6, 2.5)
    assert ref.spot_check(3e6, 2.5, good) is None
    assert ref.spot_check(3e6, 2.5, good * (1 + 1e-9)) is not None


def test_cli_bytes_identical_with_and_without_tracing(ctx, tmp_path):
    ops = wl.build("cli-batch", 5, "tiny", ctx)

    def outputs():
        blobs = {}
        for op in ops:
            try:
                op.run(ctx)
            except wl.CliError:
                pass  # exit status and stderr are compared below
            for path in sorted(tmp_path.iterdir()):
                if path.name.startswith(op.name[4:] + ".") and not path.name.endswith(".spans.json"):
                    blobs[path.name] = path.read_bytes()
        return blobs

    plain = outputs()
    ctx.tracer = Tracer()
    traced = outputs()
    ctx.tracer = None
    assert plain.keys() == traced.keys()
    assert len(plain) >= 3 * len(ops)
    assert plain == traced


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc


@pytest.mark.parametrize("workload", list(wl.BUILDERS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_each_workload_completes_at_tiny_size(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "2", "--seconds", "1",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert 0.9 <= result["metrics"]["trace.self_sum_ratio"]["value"] <= 1.0 + 1e-9
    # Only the known cat defect may fail, and only on cli-batch.
    failed = [line for line in proc.stdout.splitlines() if line.strip().startswith("FAILED")]
    assert result["failed"] == len(failed)
    assert all("scenario-cat-wide" in line for line in failed)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "evolve-dense", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
