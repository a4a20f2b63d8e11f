"""Command-line front end.

Subcommands: kernel, evolve, scenario, check, sweep. Configuration
comes from an optional JSON file (--config) with individual flags
taking precedence. All randomness is seeded and no environment or
wall-clock input is consulted, so identical configurations produce
byte-identical outputs. Floats are written with repr(), the shortest
decimal that round-trips.

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
from scipy import special

from . import io as qio
from .checks import run_all_checks
from .core import validate_density
from .errors import (
    CrononError,
    InvalidInputError,
    InvariantViolationError,
    ModelMismatchError,
    NumericFailureError,
)
from .kernel import KernelParams, gamma_pdf, kernel_moments
from .propagator import (
    EvolutionMethod,
    Method,
    decoherence_rates,
    evolve,
    milburn_frozen_frequencies,
    propagator_factor,
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


def _fmt(x) -> str:
    return repr(float(x))


def _write_text(text: str, out_path):
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_config(path) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InvalidInputError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed JSON config {path}: {exc}")
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{path}: config must be a JSON object")
    return doc


def _merge(args, defaults: dict, flag_names: tuple[str, ...]) -> dict:
    """defaults < config file < explicit flags."""
    cfg = dict(defaults)
    cfg.update(_load_config(getattr(args, "config", None)))
    for name in flag_names:
        value = getattr(args, name, None)
        if value is not None:
            cfg[name] = value
    return cfg


def _parse_times(spec, tau2: float, grid_units: bool):
    try:
        if isinstance(spec, str):
            values = [float(tok) for tok in spec.split(",") if tok.strip() != ""]
        elif isinstance(spec, dict):
            values = np.linspace(float(spec["start"]), float(spec["stop"]), int(spec["num"])).tolist()
        else:
            values = [float(v) for v in np.atleast_1d(spec)]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed times {spec!r}: {exc}")
    if not values:
        raise InvalidInputError("empty time list")
    if grid_units:
        values = [v * tau2 for v in values]
    return values


def _require(cfg: dict, *names):
    missing = [n for n in names if cfg.get(n) is None]
    if missing:
        raise InvalidInputError(f"missing required parameter(s): {', '.join(missing)}")


def _kernel_params(cfg) -> KernelParams:
    _require(cfg, "tau1", "tau2")
    return KernelParams(tau1=float(cfg["tau1"]), tau2=float(cfg["tau2"]))


# ---------------------------------------------------------------- kernel

def cmd_kernel(args) -> int:
    cfg = _merge(args, {"t": 1.0, "grid_points": 1024, "format": "csv"},
                 ("tau1", "tau2", "t", "grid_points", "out", "format"))
    params = _kernel_params(cfg)
    t = float(cfg["t"])
    n = int(cfg["grid_points"])
    if n < 2:
        raise InvalidInputError("grid_points must be >= 2")
    # Cover all but 1e-7 of the kernel mass (comfortably over the 1-1e-6 contract).
    hi = params.tau1 * float(special.gammainccinv(params.shape(t), 1e-7))
    grid = np.linspace(0.0, hi, n)
    pdf = gamma_pdf(params, t, grid)
    moments = asdict(kernel_moments(params, t))

    if cfg["format"] == "json":
        doc = {"t_prime": grid.tolist(), "pdf": pdf.tolist(), "moments": moments}
        _write_text(_json_text(doc), cfg.get("out"))
        return 0
    csv_text = _csv(("t_prime", "pdf"), zip(grid, pdf))
    moments_text = _json_text(moments)
    if cfg.get("out"):
        _write_text(csv_text, cfg["out"])
        sys.stdout.write(moments_text)
    else:
        sys.stdout.write(csv_text)
        sys.stderr.write(moments_text)
    return 0


# ---------------------------------------------------------------- evolve

def _method_from_cfg(cfg) -> EvolutionMethod:
    return EvolutionMethod.parse(
        str(cfg.get("method", "closed_form")),
        seed=int(cfg.get("seed", 0)),
        count=int(cfg.get("samples", 100_000)),
        tol=float(cfg.get("tol", 1e-10)),
    )


def cmd_evolve(args) -> int:
    cfg = _merge(args, {"format": "csv", "grid_units": False},
                 ("tau1", "tau2", "times", "t", "method", "seed", "samples",
                  "tol", "spectrum", "rho0", "out", "format", "grid_units"))
    _require(cfg, "spectrum", "rho0")
    params = _kernel_params(cfg)
    spectrum = qio.load_spectrum(cfg["spectrum"])
    rho0 = qio.load_state(cfg["rho0"])
    report = validate_density(rho0, tol=1e-10)
    if report:
        raise InvalidInputError(
            "input state violates density invariants: "
            + "; ".join(str(v) for v in report)
        )
    times_spec = cfg.get("times", cfg.get("t"))
    if times_spec is None:
        raise InvalidInputError("missing required parameter(s): times")
    times = _parse_times(times_spec, params.tau2, bool(cfg["grid_units"]))
    method = _method_from_cfg(cfg)
    out_tol = 1e-6 if method.kind is Method.MONTE_CARLO else 1e-9

    dim = rho0.dim
    header = ["t"]
    for i in range(dim):
        for j in range(dim):
            header += [f"re_{i}_{j}", f"im_{i}_{j}"]

    rows = []
    states = []
    for t in times:
        rho = evolve(rho0, spectrum, params, t, method)
        bad = validate_density(rho, tol=out_tol)
        if bad:
            raise InvariantViolationError(
                f"evolved state at t={t!r} violates invariants: "
                + "; ".join(str(v) for v in bad),
                report=bad,
            )
        flat = rho.entries.reshape(-1)
        rows.append([t] + [part for z in flat for part in (z.real, z.imag)])
        states.append({"re": rho.entries.real.tolist(), "im": rho.entries.imag.tolist()})

    if cfg["format"] == "json":
        _write_text(_json_text({"times": times, "dim": dim, "states": states}),
                    cfg.get("out"))
    else:
        _write_text(_csv(header, rows), cfg.get("out"))
    return 0


# -------------------------------------------------------------- scenario

def _scenario_out(csv_text: str, summary: dict, out_path):
    if out_path:
        _write_text(csv_text, out_path)
        Path(str(out_path) + ".summary.json").write_text(
            _json_text(summary), encoding="utf-8"
        )
    else:
        sys.stdout.write(csv_text)
        sys.stderr.write(_json_text(summary))


def _scenario_osc(cfg) -> tuple[str, dict]:
    kernel = _kernel_params(cfg)
    params = OscillatorParams(
        omega=float(cfg.get("omega", 1.0)),
        a0=complex(float(cfg.get("a0_re", 1.0)), float(cfg.get("a0_im", 0.0))),
        kernel=kernel,
    )
    gamma, nu = map(float, decoherence_rates(params.omega, kernel))
    default_span = 4.0 / gamma if gamma > 0 else 10.0 * kernel.tau2
    times = _parse_times(cfg.get("times", {"start": 0.0, "stop": default_span, "num": 201}),
                         kernel.tau2, bool(cfg.get("grid_units", False)))
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
    _require(cfg, "mass", "sigma_x", "separation_d")
    mass = float(cfg["mass"])
    sigma_x = float(cfg["sigma_x"])
    hbar = float(cfg.get("hbar", 1.0))
    sigma_v = float(cfg.get("sigma_v", hbar / (2.0 * mass * sigma_x)))
    energy = float(cfg.get("energy", 0.5 * mass * sigma_v**2))
    return CatParams(
        mass=mass, sigma_x=sigma_x, sigma_v=sigma_v,
        separation_d=float(cfg["separation_d"]), energy=energy,
        kernel=_kernel_params(cfg), hbar=hbar,
    )


def _scenario_cat(cfg) -> tuple[str, dict]:
    params = _cat_params(cfg)
    kernel = params.kernel
    omega_if = interference_frequency(params)
    gamma = decay_rate(omega_if, kernel)
    t_dec = math.inf if gamma == 0 else 1.0 / gamma
    times = _parse_times(cfg.get("times", [0.0, t_dec, 2.0 * t_dec]),
                         kernel.tau2, bool(cfg.get("grid_units", False)))
    span = params.separation_d / 2.0 + 8.0 * params.sigma_x
    grid = np.linspace(-span, span, int(cfg.get("grid_points", 2001)))
    rows = []
    visibility = {}
    mass = {}
    for t in times:
        result = cat_interference(params, t, grid)
        visibility[_fmt(t)] = result.visibility
        mass[_fmt(t)] = result.mass
        rows.extend((t, x, p) for x, p in zip(grid, result.p_bar))
    summary = {
        "omega_if": omega_if,
        "gamma": gamma,
        "t_decoherence": t_dec,
        "visibility": visibility,
        "density_mass": mass,
        "min_uncertainty_advisory": params.min_uncertainty_advisory,
    }
    return _csv(("t", "x", "p_bar"), rows), summary


def _scenario_rabi(cfg) -> tuple[str, dict]:
    kernel = _kernel_params(cfg)
    params = RabiParams(g=float(cfg.get("g", 1.0)),
                        n_photons=int(cfg.get("n_photons", 0)), kernel=kernel)
    omega = params.rabi_frequency
    period = 2.0 * math.pi / omega
    times = _parse_times(cfg.get("times", {"start": 0.0, "stop": 10.0 * period, "num": 2001}),
                         kernel.tau2, bool(cfg.get("grid_units", False)))
    traj = rabi_population(params, times)
    gamma = rabi_damping_rate(params)
    rows = [(t, d, math.exp(-gamma * t)) for t, d in zip(traj.times, traj.values)]
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
        omega0=float(cfg.get("omega0", 1.0)),
        flight_length=float(cfg.get("flight_length", 1.0)),
        speed=float(cfg.get("speed", 1.0)),
        kernel=kernel,
    )
    times = _parse_times(cfg.get("times", {"start": 0.0, "stop": params.flight_time, "num": 101}),
                         kernel.tau2, bool(cfg.get("grid_units", False)))
    x = (1.0, 0.0, 0.0)
    y = (0.0, 1.0, 0.0)
    z = (0.0, 0.0, 1.0)
    rows = [
        (
            t,
            epr_correlation(params, t, x, x),
            epr_correlation(params, t, y, y),
            epr_correlation(params, t, z, z),
            epr_singlet_fidelity(params, t),
        )
        for t in times
    ]
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
    cfg = _merge(args, {},
                 ("tau1", "tau2", "times", "t", "seed", "out", "grid_units"))
    if args.name not in _SCENARIOS:
        raise InvalidInputError(f"unknown scenario {args.name!r}")
    if cfg.get("times") is None and cfg.get("t") is not None:
        cfg["times"] = [0.0, cfg["t"]] if cfg["t"] != 0 else [0.0]
    csv_text, summary = _SCENARIOS[args.name](cfg)
    _scenario_out(csv_text, summary, cfg.get("out"))
    return 0


# ----------------------------------------------------------------- check

def cmd_check(args) -> int:
    cfg = _merge(args, {"seed": 20240601, "instances": 100, "states": 200},
                 ("seed", "instances", "states", "out"))
    report = run_all_checks(seed=int(cfg["seed"]), instances=int(cfg["instances"]),
                            states=int(cfg["states"]))
    _write_text(_json_text(report.to_json_dict()), cfg.get("out"))
    return 3 if report.violations else 0


# ----------------------------------------------------------------- sweep

def _axis_values(axis: dict):
    values = axis.get("values")
    if isinstance(values, dict):
        n = int(values["num"])
        if n < 1:
            raise InvalidInputError("axis num must be >= 1")
        return n, lambda: np.linspace(float(values["start"]), float(values["stop"]), n).tolist()
    if not isinstance(values, (list, tuple)) or not values:
        raise InvalidInputError(f"axis {axis.get('name')!r} needs a non-empty values list")
    return len(values), lambda: list(values)


def _sweep_reduction(target: str, reduction: str, cell: dict) -> float:
    kernel = _kernel_params(cell)
    if target == "rabi":
        params = RabiParams(g=float(cell.get("g", 1.0)),
                            n_photons=int(cell.get("n_photons", 0)), kernel=kernel)
        if reduction == "gamma":
            return rabi_damping_rate(params)
        if reduction == "fitted_gamma":
            period = 2.0 * math.pi / params.rabi_frequency
            times = np.linspace(0.0, 10.0 * period, 2001)
            traj = rabi_population(params, times)
            return fit_envelope_rate(traj.times, traj.values)
    elif target == "oscillator":
        omega = float(cell.get("omega", 1.0))
        if reduction == "gamma":
            return decay_rate(omega, kernel)
        if reduction == "modulus_at_t":
            return abs(propagator_factor(omega, kernel, float(cell["t"])))
    elif target == "cat":
        params = _cat_params(cell)
        gamma = decay_rate(interference_frequency(params), kernel)
        if reduction == "gamma":
            return gamma
        if reduction == "visibility_at_t":
            return math.exp(-gamma * float(cell["t"]))
        if reduction == "t_decoherence":
            return math.inf if gamma == 0 else 1.0 / gamma
    elif target == "factor":
        if reduction == "modulus_at_t":
            return abs(propagator_factor(float(cell["omega"]), kernel, float(cell["t"])))
    raise InvalidInputError(f"unsupported sweep target/reduction: {target}/{reduction}")


def cmd_sweep(args) -> int:
    cfg = _merge(args, {"allow_large": False}, ("allow_large", "out"))
    _require(cfg, "target", "reduction", "axes")
    axes = cfg["axes"]
    if not isinstance(axes, list) or not axes:
        raise InvalidInputError("sweep needs a non-empty axes list")
    sizes = []
    builders = []
    names = []
    for axis in axes:
        if "name" not in axis:
            raise InvalidInputError("each axis needs a name")
        size, builder = _axis_values(axis)
        names.append(str(axis["name"]))
        sizes.append(size)
        builders.append(builder)
    n_cells = math.prod(sizes)
    if n_cells > SWEEP_CELL_LIMIT and not cfg["allow_large"]:
        raise InvalidInputError(
            f"sweep has {n_cells} cells (> {SWEEP_CELL_LIMIT}); "
            "pass --allow-large to run anyway"
        )
    base = dict(cfg.get("base", {}))
    for key in ("tau1", "tau2"):
        if cfg.get(key) is not None:
            base.setdefault(key, cfg[key])
    target = str(cfg["target"])
    reduction = str(cfg["reduction"])

    rows = []
    for values in itertools.product(*[b() for b in builders]):
        cell = dict(base)
        cell.update(zip(names, values))
        rows.append(list(values) + [_sweep_reduction(target, reduction, cell)])
    _write_text(_csv(tuple(names) + ("value",), rows), cfg.get("out"))
    return 0


# ----------------------------------------------------------------- parser

def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--tau1", type=float)
    p.add_argument("--tau2", type=float)
    p.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cronon",
        description="Coarse-grained density-matrix evolution with a Gamma time kernel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="tabulate the time kernel and its moments")
    _add_common(p)
    p.add_argument("--t", type=float)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--format", choices=("csv", "json"))
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("evolve", help="propagate a state file over a time list")
    _add_common(p)
    p.add_argument("--spectrum")
    p.add_argument("--rho0")
    p.add_argument("--t", type=float)
    p.add_argument("--times")
    p.add_argument("--method", choices=[m.value for m in Method])
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--grid-units", dest="grid_units", action="store_const", const=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("scenario", help="run a physical scenario")
    p.add_argument("name", choices=sorted(_SCENARIOS))
    _add_common(p)
    p.add_argument("--t", type=float)
    p.add_argument("--times")
    p.add_argument("--seed", type=int)
    p.add_argument("--grid-units", dest="grid_units", action="store_const", const=True)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("check", help="run the invariant battery")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--instances", type=int)
    p.add_argument("--states", type=int)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="parameter sweep with a scalar reduction")
    _add_common(p)
    p.add_argument("--workers", type=int,
                   help="accepted for compatibility and ignored: cells run serially")
    p.add_argument("--allow-large", dest="allow_large", action="store_const", const=True)
    p.set_defaults(func=cmd_sweep)

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
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrononError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
