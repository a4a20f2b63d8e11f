"""Command-line front end.

Subcommands: kernel, evolve, scenario, check, sweep. Configuration
comes from an optional JSON file (--config) with individual flags
taking precedence. Every key, whether from a flag, a config file or a
sweep cell, is read through one getter that coerces it by its kind in
KEYS. All randomness is seeded and no environment or wall-clock input
is consulted, so identical configurations produce byte-identical
outputs. Floats are written with repr(), the shortest decimal that
round-trips.

Exit codes: 0 success, 2 invalid input, 3 invariant violation or
numerical-accuracy failure, 4 model mismatch.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io as qio
from .checks import run_all_checks
from .core import density_deviations, validate_density, violation_report
from .errors import (
    CrononError,
    InvalidInputError,
    InvariantViolationError,
    ModelMismatchError,
    NumericFailureError,
)
from .kernel import KernelParams, gamma_pdf, kernel_moments, tail_cutoff
# evolve stays importable from here: bench/tracer.py wraps cronon.cli.evolve
from .propagator import (  # noqa: F401
    EvolutionMethod,
    Method,
    decoherence_rates,
    evolve,
    evolve_many,
    milburn_frozen_frequencies,
    propagator_factor,
    time_slices,
)
from .scenarios import (
    CatParams,
    EprParams,
    OscillatorParams,
    RabiParams,
    cat_interference,
    decay_rate,
    epr_correlation,
    epr_singlet_fidelity,
    fit_envelope_rate,
    interference_frequency,
    oscillator_amplitude,
    rabi_damping_rate,
    rabi_population,
)

SWEEP_CELL_LIMIT = 1_000_000

#: The kind of every key the CLI reads: float (a finite real number), an
#: int n (an integer >= n), bool (JSON true or false), str (a path), a
#: tuple (one of these strings) or list (times: a comma list, a list of
#: numbers or a {start, stop, num} range). A kind also gives the key's flag.
KEYS = {
    **dict.fromkeys(("tau1", "tau2", "t", "tol", "start", "stop", "omega", "a0_re", "a0_im",
                     "g", "omega0", "flight_length", "speed", "mass", "sigma_x", "sigma_v",
                     "energy", "hbar", "separation_d"), float),
    "grid_points": 2, "num": 1, "seed": 0, "samples": 1, "n_photons": 0,
    "instances": 1, "states": 1, "workers": 1,
    "grid_units": bool, "allow_large": bool,
    "spectrum": str, "rho0": str, "out": str,
    "times": list,
    "format": ("csv", "json"),
    "method": tuple(m.value for m in Method),
    "target": ("rabi", "oscillator", "cat", "factor"),
    "reduction": ("gamma", "fitted_gamma", "modulus_at_t", "visibility_at_t", "t_decoherence"),
}

_HELP = {
    "out": "output path (default: stdout)",
    "workers": "accepted for compatibility and ignored: cells run serially",
}

_REQUIRED = object()


def _write_text(text: str, out_path):
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _csv(header, rows) -> str:
    """One line per row; repr of each float."""
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in np.asarray(rows, dtype=float).tolist())
    return "\n".join(lines) + "\n"


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_pair(csv_text: str, side: dict, out_path, side_path=None):
    """CSV to out_path and the side document (kernel moments, scenario
    summary) as JSON to side_path or stdout; both to stdout/stderr
    without out_path."""
    if out_path:
        _write_text(csv_text, out_path)
        _write_text(_json_text(side), side_path)
    else:
        sys.stdout.write(csv_text)
        sys.stderr.write(_json_text(side))


def _merge(args) -> dict:
    """The config file's keys, overridden by the flags given."""
    cfg = qio.load_json_object(args.config) if args.config else {}
    cfg.update((key, value) for key, value in vars(args).items()
               if key in KEYS and value is not None)
    return cfg


def _number(value) -> float:
    """A time value: NaN and inf pass, for check_times to name them."""
    if isinstance(value, bool):
        raise TypeError()
    return float(value)


def _time_list(spec) -> list:
    if isinstance(spec, str):
        values = [float(tok) for tok in spec.split(",") if tok.strip() != ""]
    elif isinstance(spec, dict):
        num = _get(spec, "num")
        if num > SWEEP_CELL_LIMIT:  # refused before anything is allocated
            raise ValueError(f"num must be at most {SWEEP_CELL_LIMIT}")
        values = np.linspace(_get(spec, "start"), _get(spec, "stop"), num).tolist()
    else:
        values = [_number(v) for v in (spec if isinstance(spec, list) else [spec])]
    if not values:
        raise ValueError("empty time list")
    return values


def _coerce(kind, value):
    """value as its kind; TypeError, ValueError or OverflowError if it is not one."""
    if isinstance(value, bool) is not (kind is bool):
        raise TypeError()
    if kind is list:
        return _time_list(value)
    if kind is float:
        value = float(value)
        ok = math.isfinite(value)
    elif isinstance(kind, int):  # the least value
        number = float(value) if isinstance(value, str) else value
        value = int(number)  # OverflowError at inf
        ok = value == number and value >= kind
    else:
        ok = value in kind if isinstance(kind, tuple) else isinstance(value, kind)
    if not ok:
        raise ValueError()
    return value


def _describe(kind) -> str:
    if isinstance(kind, tuple):
        return "one of " + ", ".join(kind)
    if isinstance(kind, int):
        return f"an integer >= {kind}"
    return {float: "a finite number", bool: "true or false", str: "a string",
            list: "a comma list, a list of numbers or a {start, stop, num} range"}[kind]


def _get(cfg: dict, key: str, default=_REQUIRED):
    """cfg[key] coerced by its kind in KEYS, or default where the key is
    absent or null; InvalidInputError names the key."""
    value = cfg.get(key)
    if value is None:
        if default is _REQUIRED:
            raise InvalidInputError(f"missing required parameter(s): {key}")
        if default is None:
            return None
        value = default
    kind = KEYS[key]
    try:
        return _coerce(kind, value)
    except (TypeError, ValueError, OverflowError) as exc:
        detail = f" ({exc})" if str(exc) else ""
        raise InvalidInputError(
            f"{key} must be {_describe(kind)}, got {value!r}{detail}") from None


def _times(cfg, tau2: float, default=_REQUIRED) -> list:
    """The times key, in units of tau2 when grid_units is true."""
    times = _get(cfg, "times", default)
    return [v * tau2 for v in times] if _get(cfg, "grid_units", False) else times


def _kernel_params(cfg) -> KernelParams:
    return KernelParams(tau1=_get(cfg, "tau1"), tau2=_get(cfg, "tau2"))


# ---------------------------------------------------------------- kernel

def cmd_kernel(args) -> int:
    cfg = _merge(args)
    params = _kernel_params(cfg)
    t = _get(cfg, "t", 1.0)
    n = _get(cfg, "grid_points", 1024)
    out = _get(cfg, "out", None)
    moments = asdict(kernel_moments(params, t))
    # Cover all but 1e-7 of the kernel mass (comfortably over the 1-1e-6 contract).
    grid = np.linspace(0.0, tail_cutoff(params, t, 1e-7), n)
    pdf = gamma_pdf(params, t, grid)

    if _get(cfg, "format", "csv") == "json":
        doc = {"t_prime": grid.tolist(), "pdf": pdf.tolist(), "moments": moments}
        _write_text(_json_text(doc), out)
    else:
        _write_pair(_csv(("t_prime", "pdf"), np.column_stack((grid, pdf))), moments, out)
    return 0


# ---------------------------------------------------------------- evolve

def _check_evolved(states, times, tol: float):
    """Raise InvariantViolationError naming the first time whose state
    violates an invariant at tol, or holds a NaN."""
    herm, tr_dev, lo = density_deviations(states)
    bad = np.flatnonzero(~((herm <= tol) & (tr_dev <= tol) & (lo >= -tol)))
    if bad.size:
        i = bad[0]
        report = violation_report(float(herm[i]), float(tr_dev[i]), float(lo[i]), tol)
        raise InvariantViolationError(
            f"evolved state at t={times[i]!r} violates invariants: "
            + "; ".join(str(v) for v in report),
            report=report,
        )


def cmd_evolve(args) -> int:
    cfg = _merge(args)
    spectrum = qio.load_spectrum(_get(cfg, "spectrum"))
    rho0 = qio.load_state(_get(cfg, "rho0"))
    params = _kernel_params(cfg)
    report = validate_density(rho0, tol=1e-10)
    if report:
        raise InvalidInputError(
            "input state violates density invariants: "
            + "; ".join(str(v) for v in report)
        )
    # --t is a one-time list, read as times so that a bad t gets the times message
    times = _times(cfg, params.tau2, _REQUIRED if cfg.get("t") is None else cfg["t"])
    method = EvolutionMethod.parse(_get(cfg, "method", "closed_form"), seed=_get(cfg, "seed", 0),
                                   count=_get(cfg, "samples", 100_000),
                                   tol=_get(cfg, "tol", 1e-10))
    out_tol = 1e-6 if method.kind is Method.MONTE_CARLO else 1e-9
    fmt, out = _get(cfg, "format", "csv"), _get(cfg, "out", None)

    dim = rho0.dim
    states = evolve_many(rho0, spectrum, params, times, method)
    for part in time_slices(len(times), dim * dim):
        _check_evolved(states[part], times[part], out_tol)

    if fmt == "json":
        doc = {"times": times, "dim": dim,
               "states": [{"re": re, "im": im}
                          for re, im in zip(states.real.tolist(), states.imag.tolist())]}
        _write_text(_json_text(doc), out)
    else:
        header = ["t"] + [f"{part}_{i}_{j}" for i in range(dim) for j in range(dim)
                          for part in ("re", "im")]
        rows = np.column_stack((times, states.reshape(len(times), -1).view(float)))
        _write_text(_csv(header, rows), out)
    return 0


# -------------------------------------------------------------- scenario

def _scenario_osc(cfg) -> tuple[str, dict]:
    kernel = _kernel_params(cfg)
    params = OscillatorParams(
        omega=_get(cfg, "omega", 1.0),
        a0=complex(_get(cfg, "a0_re", 1.0), _get(cfg, "a0_im", 0.0)),
        kernel=kernel,
    )
    gamma, nu = map(float, decoherence_rates(params.omega, kernel))
    default_span = 4.0 / gamma if gamma > 0 else 10.0 * kernel.tau2
    times = _times(cfg, kernel.tau2, {"start": 0.0, "stop": default_span, "num": 201})
    traj = oscillator_amplitude(params, times)
    rows = [(t, v.real, v.imag, abs(v)) for t, v in zip(traj.times, traj.values)]
    frozen = milburn_frozen_frequencies(kernel, 3)
    summary = {
        "omega": params.omega,
        "gamma": gamma,
        "nu": nu,
        "milburn_frozen_frequencies": frozen.tolist(),
        "closed_form_gamma_at_frozen": decoherence_rates(frozen, kernel)[0].tolist(),
    }
    return _csv(("t", "re_a", "im_a", "modulus"), rows), summary


def _cat_params(cfg) -> CatParams:
    mass = _get(cfg, "mass")
    sigma_x = _get(cfg, "sigma_x")
    hbar = _get(cfg, "hbar", 1.0)
    try:  # the defaults divide by mass * sigma_x and square sigma_v
        sigma_v = _get(cfg, "sigma_v", hbar / (2.0 * mass * sigma_x))
        energy = _get(cfg, "energy", 0.5 * mass * sigma_v**2)
    except (ZeroDivisionError, OverflowError) as exc:
        raise InvalidInputError(f"mass, sigma_x, hbar or sigma_v out of range: {exc}") from None
    return CatParams(
        mass=mass, sigma_x=sigma_x, sigma_v=sigma_v,
        separation_d=_get(cfg, "separation_d"), energy=energy,
        kernel=_kernel_params(cfg), hbar=hbar,
    )


def _scenario_cat(cfg) -> tuple[str, dict]:
    params = _cat_params(cfg)
    kernel = params.kernel
    omega_if = interference_frequency(params)
    gamma = decay_rate(omega_if, kernel)
    t_dec = math.inf if gamma == 0 else 1.0 / gamma
    times = _times(cfg, kernel.tau2, [0.0, t_dec, 2.0 * t_dec])
    span = params.separation_d / 2.0 + 8.0 * params.sigma_x
    grid = np.linspace(-span, span, _get(cfg, "grid_points", 2001))
    blocks = []
    visibility = {}
    mass = {}
    for t in times:
        result = cat_interference(params, t, grid)
        visibility[repr(t)] = result.visibility
        mass[repr(t)] = result.mass
        blocks.append(np.column_stack((np.full(grid.size, t), grid, result.p_bar)))
    summary = {
        "omega_if": omega_if,
        "gamma": gamma,
        "t_decoherence": t_dec,
        "visibility": visibility,
        "density_mass": mass,
        "min_uncertainty_advisory": params.min_uncertainty_advisory,
    }
    return _csv(("t", "x", "p_bar"), np.concatenate(blocks)), summary


def _scenario_rabi(cfg) -> tuple[str, dict]:
    kernel = _kernel_params(cfg)
    params = RabiParams(g=_get(cfg, "g", 1.0), n_photons=_get(cfg, "n_photons", 0),
                        kernel=kernel)
    omega = params.rabi_frequency
    period = 2.0 * math.pi / omega
    times = _times(cfg, kernel.tau2, {"start": 0.0, "stop": 10.0 * period, "num": 2001})
    traj = rabi_population(params, times)
    gamma = rabi_damping_rate(params)
    rows = [(t, d, math.exp(-gamma * t) if t else 1.0) for t, d in zip(traj.times, traj.values)]
    try:
        fitted = fit_envelope_rate(traj.times, traj.values) if len(times) > 100 else None
    except InvalidInputError:  # too few resolvable peaks on this grid
        fitted = None
    summary = {
        "rabi_frequency": omega,
        "gamma": gamma,
        "fitted_gamma": fitted,
    }
    return _csv(("t", "d_bar", "envelope"), rows), summary


def _scenario_epr(cfg) -> tuple[str, dict]:
    kernel = _kernel_params(cfg)
    params = EprParams(
        omega0=_get(cfg, "omega0", 1.0),
        flight_length=_get(cfg, "flight_length", 1.0),
        speed=_get(cfg, "speed", 1.0),
        kernel=kernel,
    )
    times = _times(cfg, kernel.tau2, {"start": 0.0, "stop": params.flight_time, "num": 101})
    axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))  # E_xx, E_yy, E_zz
    rows = [(t, *(epr_correlation(params, t, a, a) for a in axes), epr_singlet_fidelity(params, t))
            for t in times]
    gamma, nu = map(float, decoherence_rates(params.omega0, kernel))
    summary = {
        "gamma": gamma,
        "nu": nu,
        "flight_time": params.flight_time,
        "gamma_flight_time": gamma * params.flight_time,
    }
    return _csv(("t", "E_xx", "E_yy", "E_zz", "singlet_fidelity"), rows), summary


_SCENARIOS = {
    "osc": _scenario_osc,
    "cat": _scenario_cat,
    "rabi": _scenario_rabi,
    "epr": _scenario_epr,
}


def cmd_scenario(args) -> int:
    cfg = _merge(args)
    t = cfg.get("t")  # read as times, like evolve's
    if cfg.get("times") is None and t is not None:
        cfg["times"] = [0.0, t] if t != 0 else [0.0]
    csv_text, summary = _SCENARIOS[args.name](cfg)
    out = _get(cfg, "out", None)
    _write_pair(csv_text, summary, out, f"{out}.summary.json")
    return 0


# ----------------------------------------------------------------- check

def cmd_check(args) -> int:
    cfg = _merge(args)
    report = run_all_checks(seed=_get(cfg, "seed", 20240601),
                            instances=_get(cfg, "instances", 100),
                            states=_get(cfg, "states", 200))
    _write_text(_json_text(report.to_json_dict()), _get(cfg, "out", None))
    return 3 if report.violations else 0


# ----------------------------------------------------------------- sweep

def _axis(axis):
    """(name, size, values) of one sweep axis; values() lists its values,
    each coerced by the kind of the axis's key."""
    if not isinstance(axis, dict) or "name" not in axis:
        raise InvalidInputError(f"axes must hold objects with a name, got {axis!r}")
    name = axis["name"]
    kind = KEYS.get(name) if isinstance(name, str) else None
    if not (kind is float or isinstance(kind, int)):
        raise InvalidInputError(f"axis name {name!r} is not a numeric parameter")
    values = axis.get("values")
    if isinstance(values, dict):
        n = _get(values, "num")
        return name, n, lambda: [
            _get({name: v}, name)
            for v in np.linspace(_get(values, "start"), _get(values, "stop"), n).tolist()]
    if not isinstance(values, list) or not values:
        raise InvalidInputError(f"axis {name!r} needs a non-empty values list")
    return name, len(values), lambda: [_get({name: v}, name) for v in values]


def _sweep_reduction(target: str, reduction: str, cell: dict) -> float:
    kernel = _kernel_params(cell)
    if target == "rabi":
        params = RabiParams(g=_get(cell, "g", 1.0), n_photons=_get(cell, "n_photons", 0),
                            kernel=kernel)
        if reduction == "gamma":
            return rabi_damping_rate(params)
        if reduction == "fitted_gamma":
            period = 2.0 * math.pi / params.rabi_frequency
            times = np.linspace(0.0, 10.0 * period, 2001)
            traj = rabi_population(params, times)
            return fit_envelope_rate(traj.times, traj.values)
    elif target == "oscillator":
        omega = _get(cell, "omega", 1.0)
        if reduction == "gamma":
            return decay_rate(omega, kernel)
        if reduction == "modulus_at_t":
            return abs(propagator_factor(omega, kernel, _get(cell, "t")))
    elif target == "cat":
        params = _cat_params(cell)
        gamma = decay_rate(interference_frequency(params), kernel)
        if reduction == "gamma":
            return gamma
        if reduction == "visibility_at_t":
            return math.exp(-gamma * _get(cell, "t"))
        if reduction == "t_decoherence":
            return math.inf if gamma == 0 else 1.0 / gamma
    elif target == "factor":
        if reduction == "modulus_at_t":
            return abs(propagator_factor(_get(cell, "omega"), kernel, _get(cell, "t")))
    raise InvalidInputError(f"unsupported sweep target/reduction: {target}/{reduction}")


def cmd_sweep(args) -> int:
    cfg = _merge(args)
    target, reduction = _get(cfg, "target"), _get(cfg, "reduction")
    axes = cfg.get("axes")
    if not isinstance(axes, list) or not axes:
        raise InvalidInputError("sweep needs a non-empty axes list")
    names, sizes, builders = zip(*map(_axis, axes))
    _get(cfg, "workers", 1)  # accepted and ignored: cells run serially
    n_cells = math.prod(sizes)
    if n_cells > SWEEP_CELL_LIMIT and not _get(cfg, "allow_large", False):
        raise InvalidInputError(
            f"sweep has {n_cells} cells (> {SWEEP_CELL_LIMIT}); "
            "pass --allow-large to run anyway"
        )
    base = cfg.get("base", {})
    if not isinstance(base, dict):
        raise InvalidInputError(f"base must be an object, got {base!r}")
    base = dict(base)
    for key in ("tau1", "tau2"):
        if cfg.get(key) is not None:
            base.setdefault(key, cfg[key])

    rows = []
    for values in itertools.product(*[b() for b in builders]):
        cell = dict(base)
        cell.update(zip(names, values))
        rows.append(list(values) + [_sweep_reduction(target, reduction, cell)])
    _write_text(_csv(names + ("value",), rows), _get(cfg, "out", None))
    return 0


# ----------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cronon",
        description="Coarse-grained density-matrix evolution with a Gamma time kernel",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = ("tau1", "tau2", "out")
    for name, func, text, keys in (
        ("kernel", cmd_kernel, "tabulate the time kernel and its moments",
         common + ("t", "grid_points", "format")),
        ("evolve", cmd_evolve, "propagate a state file over a time list",
         common + ("spectrum", "rho0", "t", "times", "method", "seed", "samples", "tol",
                   "format", "grid_units")),
        ("scenario", cmd_scenario, "run a physical scenario",
         common + ("t", "times", "grid_units")),
        ("check", cmd_check, "run the invariant battery",
         ("out", "seed", "instances", "states")),
        ("sweep", cmd_sweep, "parameter sweep with a scalar reduction",
         common + ("workers", "allow_large")),
    ):
        p = sub.add_parser(name, help=text)
        if name == "scenario":
            p.add_argument("name", choices=sorted(_SCENARIOS))
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for key in keys:
            kind, flag = KEYS[key], "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, dest=key, action="store_const", const=True)
            elif isinstance(kind, tuple):
                p.add_argument(flag, dest=key, choices=kind)
            else:
                p.add_argument(flag, dest=key, help=_HELP.get(key),
                               type=float if kind is float else int if isinstance(kind, int)
                               else str)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ModelMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            f"formula={exc.formula_value!r} oracle={exc.oracle_value!r}",
            file=sys.stderr,
        )
        return 4
    except (InvariantViolationError, NumericFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CrononError as exc:  # InvalidInputError and the rest
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
