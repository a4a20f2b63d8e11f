"""Coarse-grained expectation values and the finite-difference identities.

Because the closed-form state obeys the one-cronon recursion exactly,

    rho(t) - rho(t - tau2) = -i (tau1/hbar) [H, rho(t)],

every mean value A(t) = Tr(rho(t) A) obeys the finite-difference
Ehrenfest relation

    A(t) - A(t - tau2) = -i (tau1/hbar) Tr(rho(t) [A, H]),

and combining it with the Robertson bound |<[A, H]>| <= 2 sigma(A)
sigma(H) gives the generalized time-energy inequality

    |A(t) - A(t - tau2)| / sigma(A) <= tau1 / tau_E,
    tau_E = hbar / (2 sigma(H)),

which tm_report() evaluates on a concrete state. sigma(A) and sigma(H)
are taken on the coarse-grained state at the same time t as the
difference on the left; sigma(H) is time independent anyway because
energy moments are conserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, EnergySpectrum, Observable, expectation, variance
from .core import _real_trace, bohr_frequencies, hamiltonian_observable
from .errors import DegenerateInputError, DimensionMismatchError, InvalidInputError
from .kernel import KernelParams
from .propagator import EvolutionMethod, coherence_factors, evolve, time_slices

__all__ = [
    "Trajectory",
    "TMReport",
    "expectation_trajectory",
    "ehrenfest_fd_residual",
    "tm_report",
]


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed series of values with method provenance."""

    times: np.ndarray
    values: np.ndarray
    method: EvolutionMethod

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values)
        if times.ndim != 1 or len(times) != len(values):
            raise InvalidInputError("times and values must be 1-d and equal length")
        if np.any(times < 0) or np.any(np.diff(times) <= 0):
            raise InvalidInputError("times must be non-negative and strictly ascending")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class TMReport:
    """One evaluation of the generalized time-energy inequality."""

    delta_a_bar: float
    sigma_a: float
    sigma_h: float
    tau_e: float
    lhs: float
    rhs: float
    holds: bool


def expectation_trajectory(
    rho0: DensityMatrix,
    a: Observable,
    spectrum: EnergySpectrum,
    params: KernelParams,
    times,
    method: EvolutionMethod,
) -> Trajectory:
    """Tr(rho(t) A) = sum over n, m of rho0[n, m] F_nm(t) A[m, n] over the
    given times with the selected evolution map."""
    if not rho0.dim == a.dim == spectrum.dim:
        raise DimensionMismatchError(f"dims differ: state {rho0.dim}, observable {a.dim}, "
                                     f"spectrum {spectrum.dim}")
    times = np.asarray(times, dtype=float)
    omega = bohr_frequencies(spectrum).omega
    p = rho0.entries * a.entries.T
    values = np.concatenate([
        np.einsum("tij,ij->t", coherence_factors(omega, params, times[part], method), p)
        for part in time_slices(times.size, omega.size)])
    return Trajectory(times=times, values=_real_trace(values, a), method=method)


def _mean_and_commutator(rho0, a, spectrum, params, t):
    closed = EvolutionMethod.closed_form()
    rho_t = evolve(rho0, spectrum, params, t, closed)
    rho_prev = evolve(rho0, spectrum, params, t - params.tau2, closed)
    delta = expectation(rho_t, a) - expectation(rho_prev, a)
    h = hamiltonian_observable(spectrum).entries
    comm = a.entries @ h - h @ a.entries
    comm_trace = complex(np.einsum("ij,ji->", rho_t.entries, comm))
    return rho_t, delta, comm_trace


def ehrenfest_fd_residual(
    rho0: DensityMatrix,
    a: Observable,
    spectrum: EnergySpectrum,
    params: KernelParams,
    t: float,
) -> float:
    """| [A(t) - A(t - tau2)] + i (tau1/hbar) Tr(rho(t) [A, H]) |.

    Zero up to rounding for the closed-form state, for which the
    finite-difference relation is an identity.
    """
    if t < params.tau2:
        raise InvalidInputError(f"t must be >= tau2, got t={t} < tau2={params.tau2}")
    _, delta, comm_trace = _mean_and_commutator(rho0, a, spectrum, params, t)
    return abs(delta + 1j * (params.tau1 / spectrum.hbar) * comm_trace)


def _sigma(rho: DensityMatrix, obs: Observable) -> float:
    """Standard deviation, zeroed when the variance is rounding noise
    (below 1e-13 times the squared spectral norm of the observable)."""
    var = variance(rho, obs)
    scale = float(np.linalg.norm(obs.entries, 2)) ** 2
    if var <= 1e-13 * max(1.0, scale):
        return 0.0
    return float(np.sqrt(var))


def tm_report(
    rho0: DensityMatrix,
    a: Observable,
    spectrum: EnergySpectrum,
    params: KernelParams,
    t: float,
) -> TMReport:
    """Evaluate |Delta A| / sigma(A) <= tau1 / tau_E on the closed-form state."""
    if t < params.tau2:
        raise InvalidInputError(f"t must be >= tau2, got t={t} < tau2={params.tau2}")
    rho_t, delta, _ = _mean_and_commutator(rho0, a, spectrum, params, t)
    sigma_a = _sigma(rho_t, a)
    sigma_h = _sigma(rho_t, hamiltonian_observable(spectrum))
    if sigma_a == 0.0:
        raise DegenerateInputError(
            "sigma(A) vanishes on the evolved state; the inequality is vacuous",
            sigma_a=sigma_a, time=t,
        )
    if sigma_h == 0.0:
        raise DegenerateInputError(
            "sigma(H) vanishes, so the inner time hbar/(2 sigma(H)) is undefined",
            sigma_h=sigma_h, time=t,
        )
    tau_e = spectrum.hbar / (2.0 * sigma_h)
    lhs = abs(delta) / sigma_a
    rhs = params.tau1 / tau_e
    return TMReport(
        delta_a_bar=delta,
        sigma_a=sigma_a,
        sigma_h=sigma_h,
        tau_e=tau_e,
        lhs=lhs,
        rhs=rhs,
        holds=bool(lhs <= rhs + 1e-12),
    )
