"""Self-contained invariant battery behind the `check` CLI subcommand.

Aggregates the per-module invariants into one deterministic report:
structural properties of the evolution maps on random states, the
finite-difference mean-value identity, the time-energy inequality,
kernel normalization, the Poisson/Milburn duality and the oracle
agreement of the closed form. Everything is seeded, so repeated runs
produce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import DensityMatrix, EnergySpectrum, Observable
from .kernel import KernelParams, coarse_grain, poisson_pmf
from .observables import ehrenfest_fd_residual, tm_report
from .propagator import EvolutionMethod, coherence_factors, evolve, milburn_factor

__all__ = [
    "CheckReport",
    "run_all_checks",
    "random_density",
    "random_observable",
    "random_spectrum",
]


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Full-rank random state G G^dagger / Tr(G G^dagger), G Ginibre."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_observable(rng: np.random.Generator, dim: int) -> Observable:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Observable((g + g.conj().T) / 2.0)


def random_spectrum(rng: np.random.Generator, dim: int, hbar: float = 1.0) -> EnergySpectrum:
    return EnergySpectrum(energies=rng.uniform(-2.0, 2.0, size=dim), hbar=hbar)


@dataclass(frozen=True)
class CheckReport:
    """Aggregated invariant results; `violations` counts every failure."""

    ehrenfest_max_residual: float
    ehrenfest_worst_bound_ratio: float
    ehrenfest_violations: int
    tm_violations: int
    instances: int
    structural_violations: int
    structural_states: int
    kernel_normalization_max_error: float
    poisson_sum_error: float
    duality_max_error: float
    milburn_frozen_max_error: float
    oracle_max_error: float
    violations: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _structural_suite(rng: np.random.Generator, n_states: int) -> tuple[int, int]:
    """Trace/hermiticity/positivity/semigroup/grid identities on random
    states; returns (violations, states checked)."""
    violations = 0
    closed = EvolutionMethod.closed_form()
    fd = EvolutionMethod.finite_difference()
    for _ in range(n_states):
        dim = int(rng.integers(2, 7))
        rho = random_density(rng, dim)
        spectrum = random_spectrum(rng, dim)
        params = KernelParams(
            tau1=float(rng.uniform(0.2, 2.0)), tau2=float(rng.uniform(0.2, 2.0))
        )
        t = float(rng.uniform(0.3, 5.0)) * params.tau2

        out = evolve(rho, spectrum, params, t, closed)
        m = out.entries
        if complex(np.trace(m)) != complex(np.trace(rho.entries)):
            violations += 1
        if float(np.max(np.abs(m - m.conj().T))) > 1e-12:
            violations += 1
        if float(np.min(np.linalg.eigvalsh(m))) < -1e-10:
            violations += 1

        t1 = 0.7 * t
        t2 = t - t1
        two_step = evolve(evolve(rho, spectrum, params, t1, closed), spectrum, params, t2, closed)
        if float(np.max(np.abs(two_step.entries - m))) > 1e-12:
            violations += 1

        k = int(rng.integers(1, 8))
        on_grid = k * params.tau2
        a = evolve(rho, spectrum, params, on_grid, closed)
        b = evolve(rho, spectrum, params, on_grid, fd)
        if float(np.max(np.abs(a.entries - b.entries))) > 1e-12:
            violations += 1
    return violations, n_states


def _mean_value_suite(rng: np.random.Generator, instances: int):
    """Finite-difference identity and time-energy inequality on random
    instances; sigma(H) is kept away from zero by construction."""
    max_residual = 0.0
    max_bound_ratio = 0.0
    ehrenfest_violations = 0
    tm_violations = 0
    ratios = (0.1, 1.0, 3.0)
    for i in range(instances):
        dim = int(rng.integers(2, 7))
        rho = random_density(rng, dim)
        spectrum = random_spectrum(rng, dim)
        obs = random_observable(rng, dim)
        tau2 = float(rng.uniform(0.2, 1.5))
        params = KernelParams(tau1=ratios[i % len(ratios)] * tau2, tau2=tau2)
        t = params.tau2 * float(rng.uniform(1.0, 6.0))

        res = ehrenfest_fd_residual(rho, obs, spectrum, params, t)
        norm_a = float(np.linalg.norm(obs.entries, 2))
        norm_h = float(np.linalg.norm(np.diag(spectrum.energies), 2))
        bound = 1e-10 * max(norm_a * norm_h / spectrum.hbar, 1e-300)
        max_residual = max(max_residual, res)
        max_bound_ratio = max(max_bound_ratio, res / bound)
        if res > bound:
            ehrenfest_violations += 1

        report = tm_report(rho, obs, spectrum, params, t)
        if not report.holds:
            tm_violations += 1
    return max_residual, max_bound_ratio, ehrenfest_violations, tm_violations


def _kernel_suite() -> tuple[float, float]:
    norm_err = 0.0
    for ratio in (0.1, 1.0, 10.0):
        for k in (0.3, 1.0, 5.0, 40.0):
            params = KernelParams(tau1=ratio, tau2=1.0)
            val = coarse_grain(params, k * params.tau2, lambda tp: 1.0 + 0.0j, tol=1e-11)
            norm_err = max(norm_err, abs(val - 1.0))
    params = KernelParams(tau1=1.0, tau2=1.0)
    t = 3.0
    total = 0.0
    n = 0
    while True:
        p = poisson_pmf(params, t, n)
        total += p
        if n > t / params.tau2 and p < 1e-15:
            break
        n += 1
    return norm_err, abs(total - 1.0)


def _duality_and_frozen(params: KernelParams) -> tuple[float, float]:
    duality_err = 0.0
    for omega in (0.5, 2.0):
        for k in (1, 4, 9):
            t = k * params.tau2
            acc = 0.0 + 0.0j
            n = 0
            while True:
                p = poisson_pmf(params, t, n)
                acc += p * np.exp(-1j * omega * params.tau1 * n)
                if n > t / params.tau2 and p < 1e-13:
                    break
                n += 1
            duality_err = max(duality_err, abs(acc - milburn_factor(omega, params, t)))
    frozen = coherence_factors(2.0 * math.pi / params.tau1, params, [0.5, 1.0, 5.0, 20.0],
                               EvolutionMethod.milburn())
    return duality_err, float(np.max(np.abs(frozen - 1.0)))


def _oracle_suite(params: KernelParams) -> float:
    omega = np.array([0.1, 1.0, 10.0]) / params.tau1
    closed = coherence_factors(omega, params, [0.5, 5.0], EvolutionMethod.closed_form())
    quad = coherence_factors(omega, params, [0.5, 5.0], EvolutionMethod.quadrature(tol=1e-10))
    return float(np.max(np.abs(closed - quad)))


def run_all_checks(seed: int = 20240601, instances: int = 100, states: int = 200) -> CheckReport:
    rng = np.random.Generator(np.random.PCG64(seed))
    struct_viol, struct_states = _structural_suite(rng, states)
    max_res, bound_ratio, ehr_viol, tm_viol = _mean_value_suite(rng, instances)
    norm_err, poisson_err = _kernel_suite()
    duality_err, frozen_err = _duality_and_frozen(KernelParams(tau1=1.0, tau2=1.0))
    oracle_err = _oracle_suite(KernelParams(tau1=1.0, tau2=1.0))

    violations = (
        struct_viol
        + ehr_viol
        + tm_viol
        + int(norm_err > 1e-10)
        + int(poisson_err > 1e-12)
        + int(duality_err > 1e-12)
        + int(frozen_err > 1e-12)
        + int(oracle_err > 1e-8)
    )
    return CheckReport(
        ehrenfest_max_residual=max_res,
        ehrenfest_worst_bound_ratio=bound_ratio,
        ehrenfest_violations=ehr_viol,
        tm_violations=tm_viol,
        instances=instances,
        structural_violations=struct_viol,
        structural_states=struct_states,
        kernel_normalization_max_error=norm_err,
        poisson_sum_error=poisson_err,
        duality_max_error=duality_err,
        milburn_frozen_max_error=frozen_err,
        oracle_max_error=oracle_err,
        violations=violations,
    )
