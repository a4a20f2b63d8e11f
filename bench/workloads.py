"""The four benchmark workloads: seeded inputs, the ops that use them, and
the check of every op's output against ``reference``.

A workload is a fixed list of ops built from the seed. The benchmark
runs the list as one closed loop with a single caller: each op starts
when the previous one returns. Library ops look the package's functions
up as ``cronon.<name>`` at call time, so a traced run can wrap them in
the package namespace; CLI ops start one fresh interpreter each.

Each builder returns the ops in canonical order. ``ops[0]`` is the
warm-up op of set-up, chosen to cost the same whatever the seed.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import cronon
import reference as ref

BENCH_DIR = Path(__file__).resolve().parent

#: Draws per Monte-Carlo evolution in oracle-ladder.
MC_COUNT = 20_000

_SIZES = {
    # evolve-dense: ops per (dim, method)
    "dense": {"full": {16: 4, 64: 6, 256: 1}, "tiny": {4: 1, 8: 1}},
    # oracle-ladder: ladder dims, each run by both oracles at three t/tau2
    "ladder": {"full": (4, 6, 8, 12, 16), "tiny": (3, 4)},
    # trajectory: (dims of the cells, time points per trajectory)
    "cells": {"full": ((2, 5, 8), 2001), "tiny": ((2, 3), 101)},
    # cli-batch: (evolve time points, fitted_gamma photon numbers, closed-form axis)
    "cli": {"full": (2000, 6, 100), "tiny": (20, 2, 5)},
}

DENSE_METHODS = ("unitary", "closed_form", "second_order", "milburn", "finite_difference")
#: t/tau2 strata for the oracles: the QAWS singular path (k < 1) and
#: the plain QUADPACK path (k > 1).
LADDER_SHAPES = ((0.2, 0.9), (1.1, 3.0), (3.0, 8.0))
#: Ops the time grid of a trajectory cell's EPR loop and mean-value
#: trajectory are split into.
EPR_CHUNKS, MEAN_CHUNKS = 8, 4
X_AXIS, Y_AXIS, Z_AXIS = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)


@dataclass
class Op:
    """One closed-loop operation and the check of its output."""

    name: str
    run: Callable[["Context"], Any]
    check: Callable[[Any], str | None]
    #: The seeded inputs the op hands to the package; ``energies`` is
    #: the spectrum it evolves under, if any.
    inputs: dict = field(default_factory=dict)


@dataclass
class Context:
    """What an op needs at run time besides its inputs."""

    work: Path | None = None
    env: dict = field(default_factory=dict)
    tracer: Any = None
    workers: int = 1
    child_rss_kb: int = 0


class CliError(Exception):
    """A CLI process exited non-zero."""


# ----------------------------------------------------------------- inputs

def loguniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def strata(rng, n, lo, hi):
    """n log-spaced values, one per equal-width stratum of [lo, hi], in random order.

    Stratifying keeps the cost of an op list steady from seed to seed
    while every seed still draws fresh values.
    """
    edges = np.linspace(math.log(lo), math.log(hi), n + 1)
    values = np.exp(edges[:-1] + rng.uniform(size=n) * np.diff(edges))
    return [float(v) for v in rng.permutation(values)]


def random_state(rng, dim):
    """Full-rank state: 0.9 of a Ginibre state plus 0.1 of the maximally
    mixed one, symmetrized so that it is exactly Hermitian."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w = g @ g.conj().T
    rho = 0.9 * w / np.trace(w).real + 0.1 * np.eye(dim) / dim
    return (rho + rho.conj().T) / 2.0


def random_observable(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def distinct_freq_counts(energies):
    """(distinct positive |w|, nonzero off-diagonal pairs) of a spectrum."""
    w = ref.bohr(energies)[np.triu_indices(len(energies), 1)]
    w = np.abs(w[w != 0.0])
    return int(np.unique(w).size), int(w.size)


# ----------------------------------------------------------- evolve-dense

def build_evolve_dense(rng, size):
    ops = []
    for dim, per_method in _SIZES["dense"][size].items():
        for method in DENSE_METHODS:
            for ratio in strata(rng, per_method, 0.1, 10.0):
                tau2 = loguniform(rng, 0.5, 2.0)
                tau1 = ratio * tau2
                if method == "finite_difference":
                    t = tau2 * int(rng.integers(1, 11))
                else:
                    t = tau2 * loguniform(rng, 0.1, 10.0)
                energies = rng.uniform(-2.0, 2.0, size=dim)
                rho0 = random_state(rng, dim)
                ops.append(_evolve_op(f"evolve/{method}/d{dim}", method, energies,
                                      rho0, tau1, tau2, t, validate=True))
    return ops


def _evolve_op(name, method, energies, rho0, tau1, tau2, t, validate=False,
               mc_seed=0):
    spectrum = cronon.EnergySpectrum(energies)
    state = cronon.DensityMatrix(rho0)
    params = cronon.KernelParams(tau1, tau2)
    if method == "monte_carlo":
        evolution = cronon.EvolutionMethod.monte_carlo(seed=mc_seed, count=MC_COUNT)
    else:
        evolution = cronon.EvolutionMethod.parse(method)

    def run(ctx):
        out = cronon.evolve(state, spectrum, params, t, evolution)
        report = cronon.validate_density(out) if validate else []
        return out.entries, report

    def check(result):
        out, report = result
        if report:
            return "validate_density reports " + "; ".join(map(str, report))
        if method == "quadrature":
            return ref.quadrature_evolution(rho0, energies, tau1, tau2, t, out)
        if method == "monte_carlo":
            from cronon.kernel import sample_effective_time

            samples = sample_effective_time(params, t, mc_seed, MC_COUNT)
            return ref.monte_carlo_evolution(rho0, energies, tau1, tau2, t,
                                             samples.values, out)
        return ref.analytic_evolution(method, rho0, energies, tau1, tau2, t, out)

    return Op(name, run, check, dict(method=method, energies=energies, rho0=rho0, tau1=tau1,
                                     tau2=tau2, t=t, mc_seed=mc_seed))


# ---------------------------------------------------------- oracle-ladder

def build_oracle_ladder(rng, size):
    """Ladders E_n = n. The event width tau1 puts the top frequency at
    w_max tau1 in [4, 8], where quadrature converges and its cost per
    pair barely depends on the draw."""
    ops = []
    for dim in _SIZES["ladder"][size]:
        energies = np.arange(dim, dtype=float)
        for method in ("quadrature", "monte_carlo"):
            for k_lo, k_hi in LADDER_SHAPES:
                tau1 = loguniform(rng, 4.0, 8.0) / (dim - 1)
                tau2 = loguniform(rng, 0.5, 2.0)
                t = tau2 * loguniform(rng, k_lo, k_hi)
                ops.append(_evolve_op(f"{method}/d{dim}", method, energies,
                                      random_state(rng, dim), tau1, tau2, t,
                                      mc_seed=int(rng.integers(2**31))))
    return ops


# ------------------------------------------------------------- trajectory

def build_trajectory(rng, size):
    dims, n_times = _SIZES["cells"][size]
    return [op for dim in dims for op in _trajectory_cell(rng, dim, n_times)]


def _trajectory_cell(rng, dim, n_times):
    """The ops of one parameter cell, one per call group, with the EPR
    loop and the mean-value trajectory split into ops by time.

    Short ops give every op many repeats in a run, so that its fastest
    repeat is steady on an unsteady host (README.md in this directory).
    """
    tau2 = loguniform(rng, 0.5, 2.0)
    tau1 = tau2 * loguniform(rng, 0.3, 3.0)
    kernel = cronon.KernelParams(tau1, tau2)
    closed = cronon.EvolutionMethod.closed_form()
    milburn = cronon.EvolutionMethod.milburn()

    # Rabi: weak coupling, Omega tau1 in [0.05, 0.3], ten Rabi periods.
    n_photons = int(rng.integers(0, 6))
    omega_r = loguniform(rng, 0.05, 0.3) / tau1
    rabi = cronon.RabiParams(g=omega_r / math.sqrt(n_photons + 1.0), n_photons=n_photons,
                          kernel=kernel)
    omega_r = rabi.rabi_frequency
    t_rabi = np.linspace(0.0, 10.0 * 2.0 * math.pi / omega_r, n_times)

    # Oscillator over four decay times.
    omega_o = loguniform(rng, 0.1, 2.0) / tau1
    a0 = complex(rng.normal(), rng.normal())
    osc = cronon.OscillatorParams(omega=omega_o, a0=a0, kernel=kernel)
    t_osc = np.linspace(0.0, 4.0 / float(ref.rates(omega_o, tau1, tau2)[0]), n_times)

    # EPR pair over a flight of two decay times.
    omega0 = loguniform(rng, 0.1, 2.0) / tau1
    speed = loguniform(rng, 0.5, 2.0)
    flight = 2.0 * speed / float(ref.rates(omega0, tau1, tau2)[0])
    epr = cronon.EprParams(omega0=omega0, flight_length=flight, speed=speed, kernel=kernel)
    t_epr = np.linspace(0.0, flight / speed, n_times)

    # Mean values of a random observable on a random d-level system.
    energies = rng.uniform(-2.0, 2.0, size=dim)
    spectrum = cronon.EnergySpectrum(energies)
    rho0 = random_state(rng, dim)
    obs = random_observable(rng, dim)
    state = cronon.DensityMatrix(rho0)
    observable = cronon.Observable(obs)
    t_exp = np.linspace(0.0, 10.0 * tau2, n_times)
    t_tm = tau2 * np.linspace(1.0, 6.0, 10)
    scale = float(np.max(np.abs(obs))) * dim
    name = f"cell/d{dim}"

    def run_rabi(ctx):
        traj = cronon.rabi_population(rabi, t_rabi)
        return traj.values, cronon.fit_envelope_rate(traj.times, traj.values)

    def check_rabi(result):
        values, fitted = result
        return (ref.close("rabi_population", values, ref.rabi(omega_r, tau1, tau2, t_rabi),
                          ref.FORMULA_ATOL)
                or ref.fitted_rate(fitted, omega_r, tau1, tau2))

    def run_osc(ctx):
        return (cronon.oscillator_amplitude(osc, t_osc).values,
                cronon.oscillator_amplitude(osc, t_osc, milburn).values)

    def check_osc(result):
        osc_c, osc_m = result
        return (ref.close("oscillator closed form", osc_c,
                          a0 * ref.factor("closed_form", omega_o, tau1, tau2, t_osc),
                          ref.FORMULA_ATOL * abs(a0))
                or ref.close("oscillator milburn", osc_m,
                             a0 * ref.factor("milburn", omega_o, tau1, tau2, t_osc),
                             ref.FORMULA_ATOL * abs(a0)))

    def mean_op(k, times):
        def run(ctx):
            return cronon.expectation_trajectory(state, observable, spectrum, kernel, times,
                                                 closed).values

        def check(result):
            return ref.close("expectation_trajectory", result,
                             ref.expectation_series(rho0, obs, energies, tau1, tau2, times),
                             1e-11 * scale)

        return Op(f"{name}/mean{k}", run, check, dict(energies=energies) if k == 0 else {})

    def epr_op(k, times):
        def run(ctx):
            return np.array([(cronon.epr_correlation(epr, t, X_AXIS, X_AXIS),
                              cronon.epr_correlation(epr, t, Y_AXIS, Y_AXIS),
                              cronon.epr_correlation(epr, t, Z_AXIS, Z_AXIS),
                              cronon.epr_singlet_fidelity(epr, t))
                             for t in times]).T

        def check(result):
            return ref.close("epr", result, np.array(ref.epr(omega0, tau1, tau2, times)),
                             ref.FORMULA_ATOL)

        return Op(f"{name}/epr{k}", run, check)

    def run_tm(ctx):
        return ([cronon.tm_report(state, observable, spectrum, kernel, t) for t in t_tm],
                [cronon.ehrenfest_fd_residual(state, observable, spectrum, kernel, t)
                 for t in t_tm])

    def check_tm(result):
        tm, fd = result
        series = ref.expectation_series(rho0, obs, energies, tau1, tau2,
                                        np.concatenate([t_tm, t_tm - tau2]))
        norm_a = float(np.linalg.norm(obs, 2))
        norm_h = float(np.max(np.abs(energies)))
        return (ref.close("tm_report delta", [r.delta_a_bar for r in tm],
                          series[:len(t_tm)] - series[len(t_tm):], 1e-11 * scale)
                or (None if all(r.holds for r in tm) else "time-energy inequality violated")
                or ref.close("ehrenfest_fd_residual", fd, np.zeros(len(fd)),
                             1e-10 * norm_a * norm_h))

    inputs = dict(tau1=tau1, tau2=tau2, n_photons=n_photons, omega_r=omega_r,
                  omega_o=omega_o, a0=a0, omega0=omega0, speed=speed, rho0=rho0, obs=obs)
    return ([Op(f"{name}/rabi", run_rabi, check_rabi, inputs),
             Op(f"{name}/osc", run_osc, check_osc)]
            + [mean_op(k, times) for k, times in enumerate(np.array_split(t_exp, MEAN_CHUNKS))]
            + [epr_op(k, times) for k, times in enumerate(np.array_split(t_epr, EPR_CHUNKS))]
            + [Op(f"{name}/tm", run_tm, check_tm)])


# -------------------------------------------------------------- cli-batch

@dataclass
class CliResult:
    files: dict
    stdout: Path
    bytes_out: int


def _r(x):
    return repr(float(x))


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def run_cli(ctx, name, args, outputs=()):
    """One fresh interpreter running the CLI; raises CliError on a non-zero exit.

    ``outputs`` are the file suffixes the command writes next to
    ``<work>/<name>``; stdout and stderr are kept beside them.
    """
    base = ctx.work / name
    files = {suffix: Path(f"{base}{suffix}") for suffix in outputs}
    for path in files.values():
        path.unlink(missing_ok=True)
    stdout, stderr = Path(f"{base}.stdout"), Path(f"{base}.stderr")
    spans = Path(f"{base}.spans.json")
    if ctx.tracer is None:
        argv = [sys.executable, "-m", "cronon.cli", *args]
    else:
        spans.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans), "--", *args]
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ctx.env)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    ctx.child_rss_kb = max(ctx.child_rss_kb, usage.ru_maxrss)
    if ctx.tracer is not None:
        root = ctx.tracer.add("cli.process", t0, t1)
        if spans.exists():
            ctx.tracer.merge(json.loads(spans.read_text(encoding="utf-8")), root)
    written = [p for p in (*files.values(), stdout, stderr) if p.exists()]
    if proc.returncode != 0:
        lines = stderr.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        raise CliError(f"exit {proc.returncode}: {lines[-1] if lines else ''}")
    return CliResult(files, stdout, sum(p.stat().st_size for p in written))


def _csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


def _columns(path, expected):
    header, data = _csv(path)
    if header != list(expected):
        raise AssertionError(f"header {header} != {list(expected)}")
    return data.T


def _checked(check):
    """Turn a malformed-output exception inside a check into a reason."""
    def wrapper(result):
        try:
            return check(result)
        except (AssertionError, KeyError, TypeError, ValueError, OSError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
    return wrapper


def build_cli_batch(rng, ctx, size):
    n_times, n_photon_axis, axis = _SIZES["cli"][size]
    work = ctx.work
    ops = []

    def add(name, args, outputs, check, **inputs):
        configs = [Path(args[i + 1]).read_text(encoding="utf-8")
                   for i, flag in enumerate(args) if flag == "--config"]
        ops.append(Op(f"cli/{name}", lambda c: run_cli(c, name, args, outputs),
                      _checked(check), dict(args=args, configs=configs, **inputs)))

    # kernel: shape t/tau2 on both sides of 1.
    tau1, tau2 = loguniform(rng, 0.2, 5.0), loguniform(rng, 0.5, 2.0)
    t_k = tau2 * loguniform(rng, 0.5, 8.0)

    def check_kernel(res, tau1=tau1, tau2=tau2, t=t_k):
        tp, pdf = _columns(res.files[".csv"], ("t_prime", "pdf"))
        moments = json.loads(res.stdout.read_text(encoding="utf-8"))
        k = t / tau2
        want = {"mean": k * tau1, "sigma": tau1 * math.sqrt(k),
                "relative_dispersion": 1.0 / math.sqrt(k)}
        bad = [key for key in want if not math.isclose(moments[key], want[key], rel_tol=1e-12)]
        if bad:
            return f"kernel moments {bad} differ from the Gamma moments"
        if tp.size != 1024 or tp[0] != 0.0 or np.any(np.diff(tp) <= 0):
            return "kernel grid is not 1024 ascending points from 0"
        if ref.kernel_tail(tau1, tau2, t, tp[-1]) > 1e-6:
            return "kernel grid leaves more than 1e-6 of the mass uncovered"
        want_pdf = ref.gamma_pdf(tau1, tau2, t, tp)
        finite = np.isfinite(want_pdf)
        if not np.array_equal(np.isfinite(pdf), finite) or np.any(pdf[~finite] != want_pdf[~finite]):
            return "kernel pdf differs at t' = 0"
        return ref.close("kernel pdf", pdf[finite], want_pdf[finite],
                         1e-10 * float(np.max(want_pdf[finite])))

    add("kernel", ["kernel", "--tau1", _r(tau1), "--tau2", _r(tau2), "--t", _r(t_k),
                   "--out", str(work / "kernel.csv")], (".csv",), check_kernel)

    # evolve: a six-level ladder, closed form over n_times times.
    dim = 6
    energies = np.arange(dim, dtype=float)
    rho0 = random_state(rng, dim)
    tau1, tau2 = loguniform(rng, 0.1, 2.0), loguniform(rng, 0.5, 2.0)
    spectrum_path = _write_json(work / "spectrum.json",
                                {"hbar": 1.0, "energies": energies.tolist()})
    state_path = _write_json(work / "state.json", {"dim": dim, "re": rho0.real.tolist(),
                                                   "im": rho0.imag.tolist()})
    evolve_cfg = _write_json(work / "evolve.json", {
        "spectrum": spectrum_path, "rho0": state_path, "tau1": tau1, "tau2": tau2,
        "method": "closed_form",
        "times": {"start": 0.0, "stop": tau2 * loguniform(rng, 5.0, 20.0), "num": n_times}})

    def check_evolve(res, tau1=tau1, tau2=tau2):
        header, data = _csv(res.files[".csv"])
        if header[0] != "t" or len(header) != 1 + 2 * dim * dim:
            return f"evolve header has {len(header)} columns"
        times = data[:, 0]
        got = (data[:, 1::2] + 1j * data[:, 2::2]).reshape(-1, dim, dim)
        want = rho0[None] * ref.factor_matrix("closed_form", energies, tau1, tau2,
                                              times[:, None, None])
        for rho_t in got:
            bad = ref.structure(rho0, rho_t)
            if bad:
                return bad
        return ref.close("evolve rows", got, want, ref.FORMULA_ATOL)

    add("evolve", ["evolve", "--config", evolve_cfg, "--out", str(work / "evolve.csv")],
        (".csv",), check_evolve, energies=energies, rho0=rho0, tau1=tau1, tau2=tau2)

    # scenario rabi: default ten periods, 2001 times.
    tau2 = loguniform(rng, 0.02, 0.2)
    tau1 = tau2 * loguniform(rng, 0.3, 3.0)
    n_photons = int(rng.integers(0, 6))
    omega = loguniform(rng, 0.05, 0.3) / tau1
    g = omega / math.sqrt(n_photons + 1.0)
    omega = g * math.sqrt(n_photons + 1.0)
    rabi_cfg = _write_json(work / "rabi.json", {"tau1": tau1, "tau2": tau2, "g": g,
                                                "n_photons": n_photons})

    def check_rabi(res, tau1=tau1, tau2=tau2, omega=omega):
        t, d_bar, envelope = _columns(res.files[".csv"], ("t", "d_bar", "envelope"))
        summary = json.loads(res.files[".csv.summary.json"].read_text(encoding="utf-8"))
        gamma = float(ref.rates(omega, tau1, tau2)[0])
        return (ref.close("rabi d_bar", d_bar, ref.rabi(omega, tau1, tau2, t), ref.FORMULA_ATOL)
                or ref.close("rabi envelope", envelope, np.exp(-gamma * t), ref.FORMULA_ATOL)
                or ref.close("rabi summary gamma", summary["gamma"], gamma, 1e-12 * gamma)
                or ref.fitted_rate(summary["fitted_gamma"], omega, tau1, tau2))

    add("scenario-rabi", ["scenario", "rabi", "--config", rabi_cfg,
                          "--out", str(work / "scenario-rabi.csv")],
        (".csv", ".csv.summary.json"), check_rabi)

    # scenario osc: default 201 times over four decay times.
    tau1, tau2 = loguniform(rng, 0.1, 2.0), loguniform(rng, 0.5, 2.0)
    omega = loguniform(rng, 0.1, 2.0) / tau1
    a0 = complex(rng.normal(), rng.normal())
    osc_cfg = _write_json(work / "osc.json", {"tau1": tau1, "tau2": tau2, "omega": omega,
                                              "a0_re": a0.real, "a0_im": a0.imag})

    def check_osc(res, tau1=tau1, tau2=tau2, omega=omega, a0=a0):
        t, re_a, im_a, modulus = _columns(res.files[".csv"], ("t", "re_a", "im_a", "modulus"))
        want = a0 * ref.factor("closed_form", omega, tau1, tau2, t)
        return (ref.close("osc amplitude", re_a + 1j * im_a, want, ref.FORMULA_ATOL * abs(a0))
                or ref.close("osc modulus", modulus, np.abs(want), ref.FORMULA_ATOL * abs(a0)))

    add("scenario-osc", ["scenario", "osc", "--config", osc_cfg,
                         "--out", str(work / "scenario-osc.csv")],
        (".csv", ".csv.summary.json"), check_osc)

    # scenario epr: default 101 times over the flight.
    tau1, tau2 = loguniform(rng, 0.1, 2.0), loguniform(rng, 0.5, 2.0)
    omega0 = loguniform(rng, 0.1, 2.0) / tau1
    epr_cfg = _write_json(work / "epr.json", {
        "tau1": tau1, "tau2": tau2, "omega0": omega0,
        "flight_length": loguniform(rng, 1.0, 10.0), "speed": loguniform(rng, 0.5, 2.0)})

    def check_epr(res, tau1=tau1, tau2=tau2, omega0=omega0):
        cols = _columns(res.files[".csv"], ("t", "E_xx", "E_yy", "E_zz", "singlet_fidelity"))
        return ref.close("epr rows", cols[1:], np.array(ref.epr(omega0, tau1, tau2, cols[0])),
                         ref.FORMULA_ATOL)

    add("scenario-epr", ["scenario", "epr", "--config", epr_cfg,
                         "--out", str(work / "scenario-epr.csv")],
        (".csv", ".csv.summary.json"), check_epr)

    # scenario cat: D/sigma_x below 78 and above it. The oracle's cross term
    # underflows above 78, so at the seed commit the second one exits 4.
    for label, (lo, hi) in (("narrow", (10.0, 60.0)), ("wide", (100.0, 300.0))):
        mass, sigma_x = loguniform(rng, 0.5, 2.0), loguniform(rng, 0.5, 2.0)
        sep = sigma_x * loguniform(rng, lo, hi)
        omega_if = sep / (4.0 * mass * sigma_x**3)
        tau2 = loguniform(rng, 0.5, 2.0)
        tau1 = loguniform(rng, 0.1, 1.0) / omega_if
        cat_cfg = _write_json(work / f"cat-{label}.json", {
            "tau1": tau1, "tau2": tau2, "mass": mass, "sigma_x": sigma_x,
            "separation_d": sep})

        def check_cat(res, tau1=tau1, tau2=tau2, mass=mass, sigma_x=sigma_x, sep=sep):
            t, x, p_bar = _columns(res.files[".csv"], ("t", "x", "p_bar"))
            summary = json.loads(res.files[".csv.summary.json"].read_text(encoding="utf-8"))
            gamma = float(ref.rates(sep / (4.0 * mass * sigma_x**3), tau1, tau2)[0])
            vis = {float(k): v for k, v in summary["visibility"].items()}
            return (ref.close("cat density", p_bar,
                              ref.cat_density(mass, sigma_x, sep, 1.0, tau1, tau2, t, x),
                              ref.FORMULA_ATOL)
                    or ref.close("cat visibility", [vis[k] for k in sorted(vis)],
                                 np.exp(-gamma * np.array(sorted(vis))), ref.FORMULA_ATOL))

        add(f"scenario-cat-{label}", ["scenario", "cat", "--config", cat_cfg,
                                      "--out", str(work / f"scenario-cat-{label}.csv")],
            (".csv", ".csv.summary.json"), check_cat)

    # sweep fitted_gamma through the thread pool.
    tau2 = loguniform(rng, 0.02, 0.2)
    tau1 = tau2 * loguniform(rng, 0.3, 3.0)
    g_max = 0.3 / (tau1 * math.sqrt(n_photon_axis))
    g_values = [g_max * f for f in strata(rng, 4, 0.2, 1.0)]
    fit_cfg = _write_json(work / "sweep-fit.json", {
        "target": "rabi", "reduction": "fitted_gamma", "base": {"tau1": tau1, "tau2": tau2},
        "axes": [{"name": "n_photons", "values": list(range(n_photon_axis))},
                 {"name": "g", "values": g_values}]})

    def check_fit(res, tau1=tau1, tau2=tau2):
        n, g, value = _columns(res.files[".csv"], ("n_photons", "g", "value"))
        if value.size != n_photon_axis * 4:
            return f"fitted_gamma sweep wrote {value.size} cells"
        for ni, gi, vi in zip(n, g, value):
            bad = ref.fitted_rate(vi, gi * math.sqrt(ni + 1.0), tau1, tau2)
            if bad:
                return bad
        return None

    add("sweep-fitted-gamma", ["sweep", "--config", fit_cfg, "--workers", str(ctx.workers),
                               "--out", str(work / "sweep-fitted-gamma.csv")],
        (".csv",), check_fit)

    # sweep a closed-form reduction over axis x axis cells.
    tau1, tau2 = loguniform(rng, 0.1, 2.0), loguniform(rng, 0.5, 2.0)
    grid_cfg = _write_json(work / "sweep-grid.json", {
        "target": "factor", "reduction": "modulus_at_t", "base": {"tau1": tau1, "tau2": tau2},
        "axes": [{"name": "omega", "values": {"start": 0.01, "stop": 5.0 / tau1, "num": axis}},
                 {"name": "t", "values": {"start": 0.0, "stop": 10.0 * tau2, "num": axis}}]})

    def check_grid(res, tau1=tau1, tau2=tau2):
        omega, t, value = _columns(res.files[".csv"], ("omega", "t", "value"))
        if value.size != axis * axis:
            return f"closed-form sweep wrote {value.size} cells"
        gamma = ref.rates(omega, tau1, tau2)[0]
        return ref.close("closed-form sweep", value, np.exp(-gamma * t), ref.FORMULA_ATOL)

    add("sweep-closed-form", ["sweep", "--config", grid_cfg,
                              "--out", str(work / "sweep-closed-form.csv")],
        (".csv",), check_grid)

    # check at its defaults.
    def check_battery(res):
        report = json.loads(res.files[".json"].read_text(encoding="utf-8"))
        return None if report["violations"] == 0 else f"check reports {report['violations']} violations"

    add("check", ["check", "--out", str(work / "check.json")], (".json",), check_battery)
    return ops


BUILDERS = {
    "evolve-dense": lambda rng, ctx, size: build_evolve_dense(rng, size),
    "oracle-ladder": lambda rng, ctx, size: build_oracle_ladder(rng, size),
    "trajectory": lambda rng, ctx, size: build_trajectory(rng, size),
    "cli-batch": build_cli_batch,
}


def build(workload, seed, size, ctx):
    """The op list of ``workload`` for ``seed``; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, list(BUILDERS).index(workload)])
    return BUILDERS[workload](rng, ctx, size)


def spot_checks(seed):
    """Closed-form factors at extreme w tau1 against mpmath: one reason or
    None per factor."""
    from cronon.kernel import KernelParams
    from cronon.propagator import propagator_factor

    rng = np.random.default_rng([seed, len(BUILDERS)])
    params = KernelParams(1.0, 1.0)
    reasons = []
    for exponent in (-9, -6, -3, 3, 6, 9):
        x = float(rng.uniform(1.0, 10.0)) * 10.0**exponent
        k = loguniform(rng, 0.1, 10.0)
        reasons.append(ref.spot_check(x, k, propagator_factor(x, params, k)))
    return reasons
