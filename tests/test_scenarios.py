import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cronon import (
    CatParams,
    EprParams,
    EvolutionMethod,
    InvalidInputError,
    KernelParams,
    NumericWarning,
    OscillatorParams,
    RabiParams,
    cat_interference,
    decay_rate,
    epr_correlation,
    epr_singlet_fidelity,
    epr_state,
    fit_envelope_rate,
    free_particle_spread,
    interference_frequency,
    interference_frequency_oracle,
    kernel_moments,
    make_density_from_pure,
    oscillator_amplitude,
    propagator_factor,
    quadrature_factor,
    rabi_damping_rate,
    rabi_population,
    spread_monte_carlo,
    validate_density,
)

FIXTURES = Path(__file__).parent / "fixtures"
UNIT = KernelParams(tau1=1.0, tau2=1.0)
X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)
Z = (0.0, 0.0, 1.0)


def cat_params(d=12.0, tau1=0.01, tau2=0.01, sigma_x=1.0, mass=1.0, hbar=1.0):
    sigma_v = hbar / (2.0 * mass * sigma_x)
    return CatParams(
        mass=mass, sigma_x=sigma_x, sigma_v=sigma_v, separation_d=d,
        energy=0.5 * mass * sigma_v**2, kernel=KernelParams(tau1, tau2), hbar=hbar,
    )


class TestOscillator:
    def test_initial_amplitude(self):
        params = OscillatorParams(omega=1.0, a0=0.3 - 0.4j, kernel=UNIT)
        traj = oscillator_amplitude(params, [0.0, 1.0])
        assert traj.values[0] == 0.3 - 0.4j

    def test_half_life(self):
        # omega tau1 = 1 gives gamma = ln2/2, so |a(2)| = |a0|/2
        params = OscillatorParams(omega=1.0, a0=2.0, kernel=UNIT)
        traj = oscillator_amplitude(params, [0.0, 2.0])
        assert_allclose(abs(traj.values[1]), 1.0, rtol=1e-13)

    def test_matches_factor(self):
        params = OscillatorParams(omega=2.5, a0=1.0 + 1.0j, kernel=KernelParams(0.4, 0.8))
        times = [0.0, 0.5, 1.5, 4.0]
        traj = oscillator_amplitude(params, times)
        expected = [params.a0 * propagator_factor(2.5, params.kernel, t) for t in times]
        assert_allclose(traj.values, expected, rtol=1e-14)

    def test_milburn_freezes_closed_form_decays(self):
        omega = 2.0 * math.pi / UNIT.tau1
        params = OscillatorParams(omega=omega, a0=1.0, kernel=UNIT)
        gamma = decay_rate(omega, UNIT)
        t = 2.0 / gamma
        frozen = oscillator_amplitude(params, [t], method=EvolutionMethod.milburn())
        damped = oscillator_amplitude(params, [t])
        assert abs(frozen.values[0] - params.a0) <= 1e-12
        assert abs(frozen.values[0] - damped.values[0]) > 0.5 * abs(params.a0)


class TestInterferenceFrequency:
    def test_reference_fixture(self):
        doc = json.loads((FIXTURES / "cat_reference.json").read_text())
        p = doc["params"]
        params = CatParams(
            mass=p["mass"], sigma_x=p["sigma_x"], sigma_v=p["sigma_v"],
            separation_d=p["separation_d"], energy=p["energy"],
            kernel=KernelParams(p["tau1"], p["tau2"]), hbar=p["hbar"],
        )
        assert_allclose(interference_frequency(params), doc["omega_formula"], rtol=1e-12)
        # re-run the oracle and compare with the frozen calibration run
        oracle = interference_frequency_oracle(params)
        assert_allclose(oracle, doc["omega_oracle"], rtol=1e-9)
        assert abs(oracle - doc["omega_formula"]) / doc["omega_formula"] < 0.01

    def test_oracle_agreement_across_parameters(self):
        # D/sigma_x of 100 and more: the cross term itself underflows
        for mass in (0.5, 2.0):
            for sigma_x in (0.5, 1.5):
                for d in (2.0, 6.0, 100.0 * sigma_x, 300.0 * sigma_x, 3000.0 * sigma_x):
                    params = cat_params(d=d, sigma_x=sigma_x, mass=mass)
                    formula = interference_frequency(params)
                    oracle = interference_frequency_oracle(params)
                    assert abs(formula - oracle) / formula < 0.01

    def test_vanishes_with_separation(self):
        small = interference_frequency(cat_params(d=1e-6))
        smaller = interference_frequency(cat_params(d=1e-9))
        assert smaller < small < 1e-5

    def test_linear_in_separation(self):
        w1 = interference_frequency(cat_params(d=3.0))
        w2 = interference_frequency(cat_params(d=6.0))
        assert_allclose(w2 / w1, 2.0, rtol=1e-12)


class TestCatInterference:
    def grid(self, params, points=2001):
        span = params.separation_d / 2.0 + 8.0 * params.sigma_x
        return np.linspace(-span, span, points)

    def test_full_visibility_at_t0(self):
        params = cat_params()
        result = cat_interference(params, 0.0, self.grid(params))
        assert result.visibility == 1.0
        assert result.mass == pytest.approx(1.0, abs=1e-6)

    def test_visibility_half_life(self):
        params = cat_params()
        gamma = decay_rate(interference_frequency(params), params.kernel)
        t = math.log(2.0) / gamma
        result = cat_interference(params, t, self.grid(params))
        assert_allclose(result.visibility, 0.5, rtol=1e-12)

    def test_t_decoherence_is_inverse_rate(self):
        params = cat_params()
        gamma = decay_rate(interference_frequency(params), params.kernel)
        result = cat_interference(params, 1.0, self.grid(params))
        assert_allclose(result.t_decoherence, 1.0 / gamma, rtol=1e-9)

    def test_density_nonnegative_and_normalized(self):
        params = cat_params()
        for t in (0.0, 0.5 / decay_rate(interference_frequency(params), params.kernel)):
            result = cat_interference(params, t, self.grid(params))
            assert float(np.min(result.p_bar)) >= -1e-12
            assert abs(result.mass - 1.0) <= 1e-6

    def test_decoherence_rate_scales_as_separation_squared(self):
        rate1 = 1.0 / cat_interference(cat_params(d=12.0), 0.0,
                                       self.grid(cat_params(d=12.0))).t_decoherence
        rate2 = 1.0 / cat_interference(cat_params(d=24.0), 0.0,
                                       self.grid(cat_params(d=24.0))).t_decoherence
        assert_allclose(rate2 / rate1, 4.0, rtol=0.02)

    def test_narrow_grid_warns_with_achieved_mass(self):
        params = cat_params()
        narrow = np.linspace(-2.0, 2.0, 200)
        with pytest.warns(NumericWarning):
            result = cat_interference(params, 0.0, narrow)
        assert result.mass < 0.9

    def test_fringes_decay(self):
        params = cat_params()
        grid = self.grid(params)
        early = cat_interference(params, 0.0, grid)
        late = cat_interference(params, 10.0 * early.t_decoherence, grid)
        # at the midpoint the cross term equals the direct terms at t = 0
        # and dies off later, halving the density there
        mid = np.argmin(np.abs(grid))
        assert_allclose(early.p_bar[mid] / late.p_bar[mid], 2.0, rtol=1e-3)


class TestFreeParticleSpread:
    def test_initial_value(self):
        params = cat_params()
        assert free_particle_spread(params, 0.0) == params.sigma_x**2

    def test_extra_diffusion_term(self):
        # equal times: coarse-grained spread minus ballistic spread = sigma_v^2 tau1 t
        params = cat_params(tau1=0.3, tau2=0.3)
        t = 5.0
        ballistic = params.sigma_x**2 + params.sigma_v**2 * t**2
        extra = free_particle_spread(params, t) - ballistic
        assert_allclose(extra, params.sigma_v**2 * 0.3 * t, rtol=1e-12)

    def test_matches_kernel_second_moment(self):
        params = cat_params(tau1=0.7, tau2=0.4)
        t = 3.0
        m = kernel_moments(params.kernel, t)
        expected = params.sigma_x**2 + params.sigma_v**2 * (m.mean**2 + m.sigma**2)
        assert_allclose(free_particle_spread(params, t), expected, rtol=1e-12)

    def test_monte_carlo_oracle(self):
        params = cat_params(tau1=0.5, tau2=0.25)
        t = 2.0
        n = 100_000
        mc = spread_monte_carlo(params, t, seed=13, count=n)
        exact = free_particle_spread(params, t)
        # standard error of the sampled t'^2 average
        samples = np.random.Generator(np.random.PCG64(13)).gamma(
            t / params.kernel.tau2, params.kernel.tau1, n
        )
        se = params.sigma_v**2 * np.std(samples**2, ddof=1) / math.sqrt(n)
        assert abs(mc - exact) <= 3.0 * se


class TestRabi:
    def test_rabi_frequency(self):
        assert RabiParams(g=1.0, n_photons=3, kernel=UNIT).rabi_frequency == 2.0

    def test_unitary_limit_is_cosine(self):
        params = RabiParams(g=1.0, n_photons=0, kernel=KernelParams(1e-8, 1e-8))
        times = np.linspace(0.0, 10.0, 50)
        traj = rabi_population(params, times)
        assert_allclose(traj.values, np.cos(times), atol=1e-6)

    def test_damped_form(self):
        params = RabiParams(g=0.8, n_photons=2, kernel=KernelParams(0.3, 0.5))
        omega = params.rabi_frequency
        gamma = rabi_damping_rate(params)
        nu = math.atan(omega * 0.3) / 0.5
        times = np.linspace(0.0, 12.0, 25)
        traj = rabi_population(params, times)
        assert_allclose(traj.values, np.exp(-gamma * times) * np.cos(nu * times),
                        atol=1e-13)

    def test_steady_state_is_zero(self):
        params = RabiParams(g=1.0, n_photons=0, kernel=UNIT)
        t_late = 30.0 / rabi_damping_rate(params)
        traj = rabi_population(params, [t_late])
        assert abs(traj.values[0]) < 1e-10

    def test_envelope_fit_recovers_rate(self):
        params = RabiParams(g=1.0, n_photons=1, kernel=KernelParams(0.05, 0.05))
        period = 2.0 * math.pi / params.rabi_frequency
        times = np.linspace(0.0, 10.0 * period, 2001)
        traj = rabi_population(params, times)
        fitted = fit_envelope_rate(traj.times, traj.values)
        gamma = rabi_damping_rate(params)
        assert abs(fitted - gamma) / gamma < 0.02

    def test_rate_linear_in_photon_number(self):
        # Omega tau1 <= 0.1 keeps the log expansion linear within 1%
        kernel = KernelParams(tau1=0.01, tau2=1.0)
        g = 1.0
        slopes = [
            rabi_damping_rate(RabiParams(g=g, n_photons=n, kernel=kernel)) / (n + 1)
            for n in range(10)
        ]
        assert max(slopes) / min(slopes) < 1.01

    def test_n_photons_validation(self):
        with pytest.raises(InvalidInputError):
            RabiParams(g=1.0, n_photons=-1, kernel=UNIT)


class TestEpr:
    def params(self, **kw):
        defaults = dict(omega0=2.0, flight_length=3.0, speed=1.5, kernel=UNIT)
        defaults.update(kw)
        return EprParams(**defaults)

    def test_initial_state_is_singlet_projector(self):
        rho = epr_state(self.params(), 0.0)
        singlet = make_density_from_pure(np.array([0.0, 1.0, -1.0, 0.0]))
        assert_allclose(rho.entries, singlet.entries, atol=1e-15)

    def test_state_valid_for_all_times(self):
        params = self.params()
        for t in np.linspace(0.0, 25.0, 26):
            assert validate_density(epr_state(params, t), tol=1e-10) == []

    def test_off_diagonal_suppression(self):
        params = self.params()
        gamma = decay_rate(params.omega0, params.kernel)
        t = 10.0 / gamma
        rho = epr_state(params, t)
        assert abs(rho.entries[1, 2]) <= 0.5 * math.exp(-10.0)

    def test_perfect_anticorrelation_at_t0(self):
        params = self.params()
        for axis in (X, Y, Z):
            assert_allclose(epr_correlation(params, 0.0, axis, axis), -1.0, atol=1e-12)

    def test_zz_correlation_survives(self):
        params = self.params()
        for t in (0.0, 1.0, 50.0):
            assert epr_correlation(params, t, Z, Z) == -1.0

    def test_xx_correlation_decays(self):
        params = self.params()
        gamma = decay_rate(params.omega0, params.kernel)
        nu = math.atan(params.omega0 * UNIT.tau1) / UNIT.tau2
        for t in (0.3, 1.0, 4.0):
            expected = -math.exp(-gamma * t) * math.cos(nu * t)
            assert_allclose(epr_correlation(params, t, X, X), expected, rtol=1e-12)
            assert abs(epr_correlation(params, t, X, X)) <= math.exp(-gamma * t) + 1e-15

    def test_unitary_limit_recovers_singlet_at_full_turns(self):
        tau = 1e-6
        params = self.params(omega0=1.0, kernel=KernelParams(tau, tau))
        t = 2.0 * math.pi  # omega0 t = 2 pi
        assert epr_singlet_fidelity(params, t) >= 0.99

    def test_fidelity_saturates_at_half(self):
        params = self.params()
        gamma = decay_rate(params.omega0, params.kernel)
        fid = epr_singlet_fidelity(params, 10.0 / gamma)
        assert fid <= 0.51
        assert fid >= 0.49

    def test_non_unit_axis_rejected(self):
        with pytest.raises(InvalidInputError):
            epr_correlation(self.params(), 1.0, (1.0, 1.0, 0.0), Z)

    def test_closed_forms_match_trace_over_epr_state(self):
        # reference: Tr[rho (sigma.a x sigma.b)] and <singlet| rho |singlet>
        # over the explicit 4x4 state, with the Pauli matrices spelled out
        pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
        eps = np.finfo(float).eps
        rng = np.random.default_rng(23)
        for i in range(50):
            kernel = KernelParams(*(10.0 ** rng.uniform(-1.0, 1.0, 2)))
            params = self.params(omega0=float(rng.uniform(-5.0, 5.0)), kernel=kernel)
            t = 0.0 if i == 0 else float(rng.uniform(0.0, 10.0))
            rho = epr_state(params, t).entries
            fidelity = float(np.real(singlet.conj() @ rho @ singlet))
            assert abs(epr_singlet_fidelity(params, t) - fidelity) <= 4 * eps
            a, b = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
            for u, v in ((a, b), (X, X), (Y, Y), (Z, Z)):
                op = np.kron(sum(c * s for c, s in zip(u, pauli)),
                             sum(c * s for c, s in zip(v, pauli)))
                want = complex(np.einsum("ij,ji->", rho, op)).real
                got = epr_correlation(params, t, u, v)
                assert got == want if u is v else abs(got - want) <= 4 * eps

    def test_fidelity_is_one_at_t0(self):
        assert epr_singlet_fidelity(self.params(), 0.0) == 1.0

    @pytest.mark.parametrize("axis", [(math.nan, 0.0, 0.0), (1.0, math.nan, 0.0),
                                      (0.0, 0.0, math.nan)])
    def test_nan_axis_rejected(self, axis):
        with pytest.raises(InvalidInputError):
            epr_correlation(self.params(), 1.0, axis, Z)
        with pytest.raises(InvalidInputError):
            epr_correlation(self.params(), 1.0, Z, axis)

    def test_correlation_is_minus_cosine_for_singlet(self):
        # E(a, b) = -a.b at t = 0
        params = self.params()
        a = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        b = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        assert_allclose(epr_correlation(params, 0.0, a, b), -float(a @ b), atol=1e-12)


class TestScenarioQuadratureOracle:
    def test_decaying_quantities_match_quadrature(self):
        # every scenario's damping is one propagator factor; cross-check
        # six parameter points against the kernel-average oracle
        points = [
            (0.5, KernelParams(0.2, 0.4), 1.0),
            (1.0, KernelParams(1.0, 1.0), 2.0),
            (2.0, KernelParams(0.5, 1.0), 5.0),
            (3.0, KernelParams(0.1, 0.1), 0.7),
            (0.8, KernelParams(2.0, 1.0), 3.0),
            (5.0, KernelParams(0.3, 0.9), 1.8),
        ]
        for omega, kernel, t in points:
            cf = propagator_factor(omega, kernel, t)
            qf = quadrature_factor(omega, kernel, t, tol=1e-9)
            assert abs(cf - qf) <= 1e-7


class TestFitEnvelopeRate:
    def test_pure_exponential_cosine(self):
        times = np.linspace(0.0, 40.0, 4001)
        values = np.exp(-0.05 * times) * np.cos(2.0 * times)
        assert_allclose(fit_envelope_rate(times, values), 0.05, rtol=1e-3)

    def test_needs_two_peaks(self):
        times = np.linspace(0.0, 1.0, 50)
        with pytest.raises(InvalidInputError):
            fit_envelope_rate(times, np.exp(-times))
