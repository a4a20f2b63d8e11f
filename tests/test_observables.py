import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cronon import (
    DegenerateInputError,
    DimensionMismatchError,
    EnergySpectrum,
    EvolutionMethod,
    InvalidInputError,
    KernelParams,
    Observable,
    Trajectory,
    coarse_grain,
    ehrenfest_fd_residual,
    evolve,
    expectation,
    expectation_trajectory,
    make_density_from_pure,
    tm_report,
)
from cronon.checks import random_density, random_observable, random_spectrum
from cronon.core import DensityMatrix, hamiltonian_observable

UNIT = KernelParams(tau1=1.0, tau2=1.0)
SIGMA_X = Observable([[0, 1], [1, 0]])


class TestTrajectory:
    def test_requires_ascending_times(self):
        with pytest.raises(InvalidInputError):
            Trajectory(times=[0.0, 0.0], values=[1.0, 2.0],
                       method=EvolutionMethod.closed_form())

    def test_requires_matching_lengths(self):
        with pytest.raises(InvalidInputError):
            Trajectory(times=[0.0, 1.0], values=[1.0],
                       method=EvolutionMethod.closed_form())


class TestExpectationTrajectory:
    def test_identity_is_constant_one(self):
        rho = make_density_from_pure([1.0, 1.0j, 0.5])
        spec = EnergySpectrum([0.0, 1.0, 2.5])
        traj = expectation_trajectory(
            rho, Observable(np.eye(3)), spec, UNIT,
            [0.0, 1.0, 3.0], EvolutionMethod.closed_form(),
        )
        assert_allclose(traj.values, 1.0, atol=1e-14)

    @pytest.mark.parametrize("method", [
        EvolutionMethod.unitary(),
        EvolutionMethod.closed_form(),
        EvolutionMethod.second_order(),
        EvolutionMethod.milburn(),
        EvolutionMethod.monte_carlo(seed=3, count=200),
    ])
    def test_energy_is_conserved(self, method):
        rho = make_density_from_pure([1.0, 1.0j, 0.5])
        spec = EnergySpectrum([0.0, 1.0, 2.5])
        h = hamiltonian_observable(spec)
        e0 = expectation(rho, h)
        traj = expectation_trajectory(rho, h, spec, UNIT, [0.0, 0.7, 2.0, 6.0], method)
        assert_allclose(traj.values, e0, rtol=1e-14)

    @pytest.mark.parametrize("method", [
        EvolutionMethod.unitary(),
        EvolutionMethod.closed_form(),
        EvolutionMethod.milburn(),
        EvolutionMethod.quadrature(),
        EvolutionMethod.monte_carlo(seed=3, count=200),
    ])
    @pytest.mark.parametrize("chunk", [2**18, 30])  # one chunk, and four
    def test_matches_per_time_loop(self, method, chunk, monkeypatch):
        # summation order differs from the loop, so the values agree to
        # rounding of a sum of dim^2 terms bounded by |A|
        monkeypatch.setattr("cronon.propagator._CHUNK", chunk)
        rng = np.random.Generator(np.random.PCG64(12))
        rho = random_density(rng, 5)
        a = random_observable(rng, 5)
        spec = random_spectrum(rng, 5)
        times = [0.0, 0.4, 1.0, 2.5, 7.0]
        traj = expectation_trajectory(rho, a, spec, UNIT, times, method)
        loop = [expectation(evolve(rho, spec, UNIT, t, method), a) for t in times]
        scale = float(np.max(np.abs(a.entries))) * 25
        assert_allclose(traj.values, loop, rtol=0.0, atol=1e-14 * scale)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation_trajectory(make_density_from_pure([1.0, 1.0]), Observable(np.eye(3)),
                                   EnergySpectrum([0.0, 1.0]), UNIT, [1.0],
                                   EvolutionMethod.closed_form())

    def test_two_level_coherence_decay(self):
        # <sigma_x>(t) = exp(-gamma t) cos(nu t) for the equal superposition
        rho = make_density_from_pure([1.0, 1.0])
        spec = EnergySpectrum([0.0, 1.0])
        times = np.linspace(0.0, 8.0, 17)
        traj = expectation_trajectory(rho, SIGMA_X, spec, UNIT, times,
                                      EvolutionMethod.closed_form())
        gamma = math.log(2.0) / 2.0
        nu = math.pi / 4.0
        expected = np.exp(-gamma * times) * np.cos(nu * times)
        assert_allclose(traj.values, expected, atol=1e-13)

    def test_closed_form_equals_kernel_average_of_unitary(self):
        # the same mean value two independent ways
        rho = make_density_from_pure([1.0, 0.8 - 0.3j, 0.2])
        spec = EnergySpectrum([0.0, 0.9, 2.1])
        a = random_observable(np.random.Generator(np.random.PCG64(5)), 3)
        unitary = EvolutionMethod.unitary()

        for t in (0.5, 2.0, 7.0):
            closed_value = expectation(
                evolve(rho, spec, UNIT, t, EvolutionMethod.closed_form()), a
            )
            averaged = coarse_grain(
                UNIT, t,
                lambda tp: expectation(evolve(rho, spec, UNIT, tp, unitary), a),
                tol=1e-10,
            )
            assert abs(closed_value - averaged.real) <= 1e-8
            assert abs(averaged.imag) <= 1e-10


class TestEhrenfestResidual:
    def test_commuting_observable(self):
        rho = make_density_from_pure([1.0, 1.0j])
        spec = EnergySpectrum([0.0, 1.0])
        h = hamiltonian_observable(spec)
        res = ehrenfest_fd_residual(rho, h, spec, UNIT, 3.0)
        assert res <= 1e-14

    def test_random_three_level(self):
        rng = np.random.Generator(np.random.PCG64(41))
        rho = random_density(rng, 3)
        a = random_observable(rng, 3)
        spec = random_spectrum(rng, 3)
        assert ehrenfest_fd_residual(rho, a, spec, UNIT, 2.5) <= 1e-10

    def test_diagonal_state_stationary(self):
        rho = DensityMatrix(np.diag([0.6, 0.4]))
        spec = EnergySpectrum([0.0, 1.3])
        res = ehrenfest_fd_residual(rho, SIGMA_X, spec, UNIT, UNIT.tau2)
        assert res <= 1e-14

    def test_requires_t_at_least_tau2(self):
        rho = make_density_from_pure([1.0, 1.0])
        spec = EnergySpectrum([0.0, 1.0])
        with pytest.raises(InvalidInputError):
            ehrenfest_fd_residual(rho, SIGMA_X, spec, UNIT, 0.5)

    def test_batch_of_random_instances(self):
        rng = np.random.Generator(np.random.PCG64(2024))
        for ratio in (0.1, 1.0, 3.0):
            params = KernelParams(tau1=ratio, tau2=1.0)
            for _ in range(20):
                dim = int(rng.integers(2, 7))
                rho = random_density(rng, dim)
                a = random_observable(rng, dim)
                spec = random_spectrum(rng, dim)
                t = float(rng.uniform(1.0, 6.0))
                norm_a = float(np.linalg.norm(a.entries, 2))
                norm_h = float(np.max(np.abs(spec.energies)))
                res = ehrenfest_fd_residual(rho, a, spec, params, t)
                assert res <= 1e-10 * norm_a * norm_h / spec.hbar


class TestTMReport:
    def test_conserved_observable_gives_zero_lhs(self):
        rho = make_density_from_pure([1.0, 1.0j])
        spec = EnergySpectrum([0.0, 1.0])
        report = tm_report(rho, hamiltonian_observable(spec), spec, UNIT, 2.0)
        assert report.lhs <= 1e-13
        assert report.holds

    def test_inner_time_definition(self):
        rho = make_density_from_pure([1.0, 1.0])
        spec = EnergySpectrum([0.0, 1.0], hbar=0.7)
        report = tm_report(rho, SIGMA_X, spec, UNIT, 2.0)
        assert_allclose(report.tau_e * report.sigma_h, spec.hbar / 2.0, rtol=1e-14)

    def test_tau1_equal_inner_time_gives_unit_rhs(self):
        rho = make_density_from_pure([1.0, 1.0])
        spec = EnergySpectrum([0.0, 1.0])
        # sigma(H) = 1/2 for the equal superposition, so tau_e = hbar
        probe = tm_report(rho, SIGMA_X, spec, UNIT, 2.0)
        params = KernelParams(tau1=probe.tau_e, tau2=1.0)
        report = tm_report(rho, SIGMA_X, spec, params, 2.0)
        assert_allclose(report.rhs, 1.0, rtol=1e-13)

    def test_holds_on_random_instances(self):
        rng = np.random.Generator(np.random.PCG64(77))
        for _ in range(100):
            rho = random_density(rng, 4)
            a = random_observable(rng, 4)
            spec = random_spectrum(rng, 4)
            t = float(rng.uniform(1.0, 5.0))
            assert tm_report(rho, a, spec, UNIT, t).holds

    def test_degenerate_sigma_h(self):
        rho = make_density_from_pure([1.0, 0.0])  # sigma(sigma_x) = 1 here
        spec = EnergySpectrum([1.0, 1.0])  # no energy spread at all
        with pytest.raises(DegenerateInputError) as exc:
            tm_report(rho, SIGMA_X, spec, UNIT, 2.0)
        assert "sigma_h" in exc.value.payload

    def test_degenerate_sigma_a(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        spec = EnergySpectrum([0.0, 1.0])
        identity = Observable(np.eye(2))
        with pytest.raises(DegenerateInputError):
            tm_report(rho, identity, spec, UNIT, 2.0)
