"""Four physical applications of the coarse-grained evolution.

Each scenario reduces to the single-coherence multiplier of the
propagator module, evaluated at one characteristic frequency:

    oscillator   <a>(t) = <a>_0 exp(-(gamma + i nu) t) at the mode
                 frequency: an intrinsic linewidth.
    cat state    the two-packet interference term is damped at the
                 relative-phase frequency of the packets, so fringe
                 visibility decays as exp(-gamma t).
    Rabi         the population difference cos(Omega t) of a two-level
                 atom damps at gamma(Omega), Omega = g sqrt(n+1).
    EPR          only the singlet coherence |+-><-+| moves, carrying F
                 at the Larmor splitting omega0: the spin correlation is
                 E(a, b) = -a_z b_z - Re[F (a_x + i a_y)(b_x - i b_y)]
                 and the singlet fidelity (1 + Re F)/2.

The cat interference frequency deserves a note. For two stationary
packets of width sigma_x centered at +-D/2, exact free evolution gives
the cross term a position-dependent phase

    phi(x, t) = -x D beta t / (2 sigma_x^2 (1 + beta^2 t^2)),
    beta = hbar / (2 m sigma_x^2),

so the fringe at the envelope scale x = sigma_x oscillates (before
spreading matters) at

    omega_if = hbar D / (4 m sigma_x^3).

The 1/4 coefficient is calibrated against interference_frequency_oracle,
which evolves the two packets exactly and extracts the phase slope; the
frozen reference value lives in the test fixtures.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix
from .errors import InvalidInputError, ModelMismatchError, NumericWarning
from .kernel import KernelParams, sample_effective_time
from .observables import Trajectory
from .propagator import EvolutionMethod, check_times, coherence_factor, coherence_factors
from .propagator import decoherence_rates

__all__ = [
    "OscillatorParams",
    "CatParams",
    "RabiParams",
    "EprParams",
    "CatInterference",
    "oscillator_amplitude",
    "interference_frequency",
    "interference_frequency_oracle",
    "cat_interference",
    "free_particle_spread",
    "rabi_population",
    "rabi_damping_rate",
    "epr_state",
    "epr_correlation",
    "epr_singlet_fidelity",
    "spread_monte_carlo",
    "fit_envelope_rate",
    "decay_rate",
]

#: Calibrated coefficient of the cat interference frequency
#: omega_if = CAT_FREQ_COEFF * hbar * D / (m * sigma_x^3); frozen from
#: the exact-evolution oracle run recorded in the test fixtures.
CAT_FREQ_COEFF = 0.25

_CLOSED_FORM = EvolutionMethod.closed_form()


def decay_rate(omega: float, kernel: KernelParams) -> float:
    """Coherence decay rate ln(1 + omega^2 tau1^2) / (2 tau2)."""
    return float(decoherence_rates(omega, kernel)[0])


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if not (np.isfinite(value) and value > 0):
            raise InvalidInputError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class OscillatorParams:
    """Single field mode: frequency, initial amplitude, kernel times."""

    omega: float
    a0: complex
    kernel: KernelParams

    def __post_init__(self):
        _check_positive(omega=self.omega)


@dataclass(frozen=True)
class CatParams:
    """Free particle in a superposition of two packets at +-D/2.

    sigma_v and energy describe the declared velocity width and mean
    kinetic energy; they drive the spread law and the reporting. The
    interference frequency follows from the packet geometry alone
    (hbar, m, sigma_x, D), which is all the exact evolution of two
    width-sigma_x packets can depend on.
    """

    mass: float
    sigma_x: float
    sigma_v: float
    separation_d: float
    energy: float
    kernel: KernelParams
    hbar: float = 1.0

    def __post_init__(self):
        _check_positive(
            mass=self.mass, sigma_x=self.sigma_x, sigma_v=self.sigma_v,
            separation_d=self.separation_d, energy=self.energy, hbar=self.hbar,
        )

    @property
    def min_uncertainty_advisory(self) -> bool:
        """True when sigma_v deviates from the minimum-uncertainty value
        hbar / (2 m sigma_x) by more than one part in 1e9."""
        ref = self.hbar / (2.0 * self.mass * self.sigma_x)
        return abs(self.sigma_v - ref) > 1e-9 * ref

    @property
    def spreading_rate(self) -> float:
        """Quantum spreading rate beta = hbar / (2 m sigma_x^2)."""
        return self.hbar / (2.0 * self.mass * self.sigma_x**2)


@dataclass(frozen=True)
class RabiParams:
    """Two-level atom exchanging one photon with an n-photon mode."""

    g: float
    n_photons: int
    kernel: KernelParams

    def __post_init__(self):
        _check_positive(g=self.g)
        if self.n_photons < 0 or self.n_photons != int(self.n_photons):
            raise InvalidInputError(f"n_photons must be a non-negative integer, got {self.n_photons}")

    @property
    def rabi_frequency(self) -> float:
        """Omega = g sqrt(n + 1)."""
        return self.g * math.sqrt(self.n_photons + 1.0)


@dataclass(frozen=True)
class EprParams:
    """Two spin-1/2 particles in a singlet; B0 acts on particle 1 over
    a flight path of length L at speed v."""

    omega0: float
    flight_length: float
    speed: float
    kernel: KernelParams

    def __post_init__(self):
        if not np.isfinite(self.omega0):
            raise InvalidInputError("omega0 must be finite")
        _check_positive(flight_length=self.flight_length, speed=self.speed)
        if not math.isfinite(self.flight_time):
            raise InvalidInputError(f"flight_length / speed = {self.flight_length!r} / "
                                    f"{self.speed!r} overflows")

    @property
    def flight_time(self) -> float:
        return self.flight_length / self.speed


def oscillator_amplitude(
    params: OscillatorParams,
    times,
    method: EvolutionMethod = EvolutionMethod.closed_form(),
) -> Trajectory:
    """<a>(t) = <a>_0 times the coherence multiplier at the mode frequency.

    The default closed form damps at every frequency; passing the
    Milburn method reproduces its frozen-amplitude artifact at
    omega = 2 pi n / tau1.
    """
    times = np.asarray(times, dtype=float)
    values = complex(params.a0) * coherence_factors(params.omega, params.kernel, times, method)
    return Trajectory(times=times, values=values, method=method)


def interference_frequency_oracle(params: CatParams, *, n_samples: int = 256) -> float:
    """Dominant fringe frequency from exact two-packet free evolution.

    Evolves the two width-sigma_x packets exactly (complex widths), takes
    the interference cross term at the envelope position x = sigma_x,
    and fits the slope of its phase over an early window beta*t <= 0.05
    where packet spreading is negligible.

    The cross term is exp(E) / |z| with a real |z|, so its phase is
    Im(E), read off the exponent directly: exp(E) itself underflows to 0
    once the packets are far apart (D / sigma_x above about 78).
    """
    sx = params.sigma_x
    half_d = params.separation_d / 2.0
    beta = params.spreading_rate
    t = np.linspace(0.0, 0.05 / beta, n_samples)
    z = 1.0 + 1j * beta * t  # complex width growth factor
    # psi_j(x,t) ~ (1+i beta t)^(-1/2) exp(-(x-x_j)^2 / (4 sx^2 (1+i beta t)))
    exponent = (-((sx - half_d) ** 2) / (4.0 * sx**2 * z)
                - ((sx + half_d) ** 2) / (4.0 * sx**2 * np.conj(z)))
    slope = np.polyfit(t, exponent.imag, 1)[0]
    return abs(float(slope))


def interference_frequency(params: CatParams) -> float:
    """Calibrated fringe frequency omega_if = hbar D / (4 m sigma_x^3).

    Cross-checked against interference_frequency_oracle on every call:
    a deviation above 10% raises ModelMismatchError carrying both
    values; above 1% (the documented agreement level) it warns.
    """
    formula = CAT_FREQ_COEFF * params.hbar * params.separation_d / (
        params.mass * params.sigma_x**3
    )
    oracle = interference_frequency_oracle(params)
    scale = max(abs(formula), abs(oracle))
    if scale > 0:
        rel = abs(formula - oracle) / scale
        if rel > 0.10:
            raise ModelMismatchError(
                f"interference frequency formula {formula:.6e} deviates "
                f"{rel:.1%} from the exact-evolution oracle {oracle:.6e}",
                formula_value=formula,
                oracle_value=oracle,
            )
        if rel > 0.01:
            warnings.warn(
                f"interference frequency formula and oracle differ by {rel:.2%}",
                NumericWarning,
                stacklevel=2,
            )
    return formula


@dataclass(frozen=True)
class CatInterference:
    """Coarse-grained two-packet position density on a grid."""

    x_grid: np.ndarray
    p_bar: np.ndarray
    visibility: float
    omega_if: float
    t_decoherence: float
    mass: float  # integral of p_bar over the grid (trapezoid)


def cat_interference(params: CatParams, t: float, x_grid) -> CatInterference:
    """Position density of the two-packet state at time t.

    p_bar(x) = |psi_1|^2/2 + |psi_2|^2/2 + psi_1 psi_2 Re[factor], with
    real Gaussians of width sigma_x at +-D/2 (packet spreading neglected)
    and the closed-form multiplier at the interference frequency. The
    density integrates to 1 when the packets are well separated; a
    NumericWarning reports the achieved mass otherwise (overlapping
    packets or a too-narrow grid).
    """
    check_times(t)
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1 or x.size < 2 or np.any(np.diff(x) <= 0):
        raise InvalidInputError("x_grid must be a strictly ascending 1-d grid")
    omega_if = interference_frequency(params)
    gamma = decay_rate(omega_if, params.kernel)
    sx = params.sigma_x
    half_d = params.separation_d / 2.0
    norm = 1.0 / (2.0 * math.pi * sx**2) ** 0.25
    psi1 = norm * np.exp(-((x - half_d) ** 2) / (4.0 * sx**2))
    psi2 = norm * np.exp(-((x + half_d) ** 2) / (4.0 * sx**2))
    factor = coherence_factor(omega_if, params.kernel, t, _CLOSED_FORM)
    p_bar = 0.5 * psi1**2 + 0.5 * psi2**2 + psi1 * psi2 * factor.real
    mass = float(np.trapezoid(p_bar, x))
    if abs(mass - 1.0) > 1e-6:
        warnings.warn(
            f"cat density integrates to {mass!r} (not 1): grid too narrow "
            "or packets overlap appreciably",
            NumericWarning,
            stacklevel=2,
        )
    return CatInterference(
        x_grid=x,
        p_bar=p_bar,
        visibility=math.exp(-gamma * t),
        omega_if=omega_if,
        t_decoherence=math.inf if gamma == 0.0 else 1.0 / gamma,
        mass=mass,
    )


def free_particle_spread(params: CatParams, t: float) -> float:
    """Position variance sigma_x^2 + sigma_v^2 <t'^2> of a single packet.

    <t'^2> = (t tau1/tau2)^2 + tau1^2 t/tau2 is the second moment of the
    effective evolution time, so on top of the ballistic term the
    coarse-grained evolution adds a diffusive contribution linear in t.
    """
    check_times(t)
    k = params.kernel
    second_moment = (t * k.tau1 / k.tau2) ** 2 + k.tau1**2 * t / k.tau2
    return params.sigma_x**2 + params.sigma_v**2 * second_moment


def rabi_population(
    params: RabiParams,
    times,
    method: EvolutionMethod = EvolutionMethod.closed_form(),
) -> Trajectory:
    """Population difference d(t); closed form gives
    exp(-gamma t) cos(nu t) with the rates at Omega."""
    times = np.asarray(times, dtype=float)
    values = coherence_factors(params.rabi_frequency, params.kernel, times, method).real
    return Trajectory(times=times, values=values, method=method)


def rabi_damping_rate(params: RabiParams) -> float:
    """gamma(n) = ln(1 + Omega^2 tau1^2) / (2 tau2), Omega = g sqrt(n+1)."""
    return decay_rate(params.rabi_frequency, params.kernel)


def epr_state(params: EprParams, t: float) -> DensityMatrix:
    """Coarse-grained singlet after particle 1 precessed for time t.

    Basis order (++, +-, -+, --). The diagonal part diag(0, 1/2, 1/2, 0)
    is stationary; the |+-><-+| coherence carries the factor
    exp(-(gamma + i nu) t) at the Larmor splitting omega0.
    """
    f = coherence_factor(params.omega0, params.kernel, t, _CLOSED_FORM)
    return DensityMatrix([[0, 0, 0, 0], [0, 0.5, -0.5 * f, 0],
                          [0, -0.5 * f.conjugate(), 0.5, 0], [0, 0, 0, 0]])


def _spin_axis(axis) -> tuple[complex, float]:
    """(a_x + i a_y, a_z) of a unit 3-vector."""
    a = np.asarray(axis, dtype=float)
    if a.shape != (3,):
        raise InvalidInputError("spin axis must be a 3-vector")
    norm = math.hypot(*a)
    if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
        raise InvalidInputError(f"spin axis must be a unit vector, |a| = {norm!r}")
    return complex(a[0], a[1]), float(a[2])


def epr_correlation(params: EprParams, t: float, a, b) -> float:
    """Spin correlation Tr[rho(t) (sigma.a x sigma.b)], which is
    E(a, b) = -a_z b_z - Re[F (a_x + i a_y)(b_x - i b_y)] for the
    |+-><-+| multiplier F: E(z, z) = -1 for all t, while transverse
    correlations decay with F, E(x, x) = -exp(-gamma t) cos(nu t).
    """
    (pa, za), (pb, zb) = _spin_axis(a), _spin_axis(b)
    f = coherence_factor(params.omega0, params.kernel, t, _CLOSED_FORM)
    return -za * zb - (f * (pa * pb.conjugate())).real


def epr_singlet_fidelity(params: EprParams, t: float) -> float:
    """Overlap <singlet| rho(t) |singlet> = (1 + Re F)/2."""
    return (1.0 + coherence_factor(params.omega0, params.kernel, t, _CLOSED_FORM).real) / 2.0


def fit_envelope_rate(times, values) -> float:
    """Exponential decay rate of an oscillation's envelope.

    Picks the interior local maxima of |values| and fits a line to
    log(peak) versus time. For exp(-gamma t) cos(nu t) the peak heights
    are exp(-gamma t_k) times a constant, so the slope recovers gamma.
    """
    times = np.asarray(times, dtype=float)
    mags = np.abs(np.asarray(values))
    interior = (mags[1:-1] > mags[:-2]) & (mags[1:-1] >= mags[2:])
    idx = np.nonzero(interior)[0] + 1
    idx = idx[mags[idx] > 0]
    if idx.size < 2:
        raise InvalidInputError(
            "need at least two envelope peaks to fit a decay rate; "
            "sample more oscillation periods"
        )
    slope = np.polyfit(times[idx], np.log(mags[idx]), 1)[0]
    return -float(slope)


def spread_monte_carlo(params: CatParams, t: float, seed: int, count: int) -> float:
    """Sample-average oracle for free_particle_spread: averages
    sigma_x^2 + sigma_v^2 t'^2 over drawn effective times."""
    check_times(t)
    if t == 0.0:
        return params.sigma_x**2
    samples = sample_effective_time(params.kernel, t, seed, count)
    return float(np.mean(params.sigma_x**2 + params.sigma_v**2 * samples.values**2))
