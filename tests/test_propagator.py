import cmath
import importlib
import importlib.util
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cronon import (
    EnergySpectrum,
    EvolutionMethod,
    InvalidInputError,
    KernelParams,
    bohr_frequencies,
    evolve,
    make_density_from_pure,
    milburn_factor,
    milburn_frozen_frequencies,
    monte_carlo_factor,
    poisson_pmf,
    propagator_factor,
    quadrature_factor,
    rates,
    sample_effective_time,
    second_order_factor,
    step_factor,
    validate_density,
)
from cronon.checks import random_density, random_spectrum
from cronon.core import DensityMatrix

UNIT = KernelParams(tau1=1.0, tau2=1.0)
THREE_LEVEL = EnergySpectrum([0.0, 0.7, 1.9])
EPS = np.finfo(float).eps
ANALYTIC = ("unitary", "closed_form", "finite_difference", "second_order", "milburn")


def three_level_state():
    return make_density_from_pure([1.0, 1.0 + 0.5j, 0.3])


def reference_factor(kind, omega, params, t):
    """One coherence multiplier with scalar complex arithmetic."""
    x = omega * params.tau1
    if kind == "unitary":
        return cmath.exp(-1j * omega * t)
    if kind == "closed_form":
        return cmath.exp(-(t / params.tau2) * cmath.log(1.0 + 1j * x))
    if kind == "finite_difference":
        return (1.0 / (1.0 + 1j * x)) ** round(t / params.tau2)
    if kind == "second_order":
        return cmath.exp((-1j * x - 0.5 * x * x) * t / params.tau2)
    if kind == "milburn":
        return cmath.exp((t / params.tau2) * (cmath.exp(-1j * x) - 1.0))
    raise ValueError(kind)


def reference_evolve(rho, spectrum, params, t, kind):
    """The per-pair loop: each n < m gets its factor, (m, n) the conjugate."""
    omega = bohr_frequencies(spectrum).omega
    factors = np.ones(omega.shape, dtype=complex)
    for n in range(spectrum.dim):
        for m in range(n + 1, spectrum.dim):
            if omega[n, m] != 0.0 and t != 0.0:
                f = reference_factor(kind, omega[n, m], params, t)
                factors[n, m] = f
                factors[m, n] = f.conjugate()
    return rho.entries * factors


class TestFactorTable:
    @pytest.mark.parametrize("kind", ANALYTIC)
    def test_evolve_matches_per_pair_loop(self, kind):
        # float64 rounding of a phase that grows like t/tau2 bounds the
        # difference; populations and hermiticity stay exact
        rng = np.random.Generator(np.random.PCG64(2024))
        method = EvolutionMethod.parse(kind)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            m = random_density(rng, dim).entries
            rho = DensityMatrix((m + m.conj().T) / 2.0)  # exactly Hermitian
            energies = rng.uniform(-2.0, 2.0, size=dim)
            energies[-1] = energies[0]  # one degenerate pair
            spectrum = EnergySpectrum(energies)
            params = KernelParams(tau1=float(rng.uniform(0.2, 2.0)),
                                  tau2=float(rng.uniform(0.2, 2.0)))
            k = float(rng.integers(0, 200) if kind == "finite_difference"
                      else rng.uniform(0.0, 200.0))
            t = k * params.tau2
            out = evolve(rho, spectrum, params, t, method).entries
            want = reference_evolve(rho, spectrum, params, t, kind)
            assert float(np.max(np.abs(out - want))) <= 1e-15 * (1.0 + k)
            assert np.array_equal(np.diag(out), np.diag(rho.entries))
            assert np.array_equal(out, out.conj().T)

    def test_closed_form_against_mpmath(self):
        # relative error within 4 eps times the condition number
        # 1 + (t/tau2) |Log(1 + i w tau1)| of the exponent
        mpmath.mp.dps = 40
        for params in (UNIT, KernelParams(tau1=0.3, tau2=2.5)):
            for x in np.logspace(-9.0, 9.0, 19):
                for k in np.logspace(-6.0, 3.0, 10):
                    w, t = x / params.tau1, k * params.tau2
                    log_step = mpmath.log(1 + 1j * (mpmath.mpf(w) * params.tau1))
                    k_mp = mpmath.mpf(t) / params.tau2
                    want = complex(mpmath.exp(-k_mp * log_step))
                    cond = 1.0 + float(k_mp * abs(log_step))
                    got = propagator_factor(w, params, t)
                    assert abs(got - want) <= 4.0 * EPS * cond * abs(want) + 1e-300, (x, k)

    @pytest.mark.parametrize("method, target", [
        (EvolutionMethod.quadrature(), "coarse_grain"),
        (EvolutionMethod.monte_carlo(seed=3, count=200), "monte_carlo_factor"),
    ])
    def test_oracles_evaluate_each_distinct_frequency_once(self, monkeypatch, method, target):
        from cronon import propagator

        calls = []
        original = getattr(propagator, target)
        monkeypatch.setattr(propagator, target,
                            lambda *args, **kw: calls.append(1) or original(*args, **kw))
        ladder = EnergySpectrum(np.arange(6.0))
        rho = random_density(np.random.Generator(np.random.PCG64(8)), 6)
        evolve(rho, ladder, KernelParams(tau1=0.2, tau2=1.0), 1.5, method)
        assert len(calls) == 5  # 15 pairs, 5 distinct frequencies

    def test_bench_tracer_targets_resolve(self):
        # the benchmark's tracer wraps these (module, attribute) pairs by name
        path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("bench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for module, attr, _ in tracer.PACKAGE_TARGETS + tracer.CLI_TARGETS:
            assert callable(getattr(importlib.import_module(module), attr)), (module, attr)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
    def test_bad_times_rejected(self, t):
        for method in (EvolutionMethod.closed_form(), EvolutionMethod.finite_difference()):
            with pytest.raises(InvalidInputError, match="finite and non-negative"):
                evolve(three_level_state(), THREE_LEVEL, UNIT, t, method)
        with pytest.raises(InvalidInputError, match="finite and non-negative"):
            propagator_factor(1.0, UNIT, t)


class TestStepFactor:
    def test_stationary_pair(self):
        assert step_factor(0.0, UNIT) == 1.0 + 0.0j

    def test_reference_value(self):
        assert_allclose(step_factor(1.0, UNIT), 0.5 - 0.5j, rtol=1e-15)

    @given(st.floats(-50.0, 50.0), st.floats(0.05, 5.0))
    def test_modulus_below_one(self, omega, tau1):
        params = KernelParams(tau1=tau1, tau2=1.0)
        mod = abs(step_factor(omega, params))
        assert_allclose(mod, (1.0 + omega**2 * tau1**2) ** -0.5, rtol=1e-13)
        if abs(omega) * tau1 > 1e-6:  # below this 1 + (w tau1)^2 rounds to 1
            assert mod < 1.0


class TestPropagatorFactor:
    def test_identity_at_t0(self):
        assert propagator_factor(3.0, UNIT, 0.0) == 1.0 + 0.0j

    def test_single_step_equals_step_factor(self):
        assert_allclose(propagator_factor(1.0, UNIT, 1.0), step_factor(1.0, UNIT),
                        rtol=1e-14)

    def test_modulus_decade(self):
        # at omega tau1 = 1, gamma = ln2/2, so |factor(10)| = 2^-5
        assert_allclose(abs(propagator_factor(1.0, UNIT, 10.0)), 2.0**-5, rtol=1e-13)

    def test_exponential_modulus_over_grid(self):
        gamma = math.log(2.0) / 2.0
        for t in np.linspace(0.0, 20.0, 81):
            assert abs(abs(propagator_factor(1.0, UNIT, t)) - math.exp(-gamma * t)) <= 1e-12

    @given(st.floats(-30.0, 30.0), st.floats(0.0, 40.0))
    def test_hermiticity_symmetry(self, omega, t):
        f_plus = propagator_factor(omega, UNIT, t)
        f_minus = propagator_factor(-omega, UNIT, t)
        assert f_minus == f_plus.conjugate()

    @given(st.floats(0.1, 20.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_monotone_decoherence(self, omega, t1, dt):
        mod1 = abs(propagator_factor(omega, UNIT, t1))
        mod2 = abs(propagator_factor(omega, UNIT, t1 + dt))
        assert mod2 < mod1

    def test_matches_rate_form(self):
        table = bohr_frequencies(THREE_LEVEL)
        r = rates(table, UNIT)
        t = 3.7
        for n in range(3):
            for m in range(3):
                expected = cmath.exp(-(r.gamma[n, m] + 1j * r.nu[n, m]) * t)
                assert_allclose(propagator_factor(table.omega[n, m], UNIT, t),
                                expected, rtol=1e-12, atol=1e-15)


class TestRates:
    def test_reference_values(self):
        table = bohr_frequencies(EnergySpectrum([0.0, 1.0]))
        r = rates(table, UNIT)
        assert_allclose(r.gamma[1, 0], math.log(2.0) / 2.0, rtol=1e-15)
        assert_allclose(r.nu[1, 0], math.pi / 4.0, rtol=1e-15)

    def test_zero_frequency(self):
        r = rates(bohr_frequencies(EnergySpectrum([1.0, 1.0])), UNIT)
        assert np.all(r.gamma == 0.0)
        assert np.all(r.nu == 0.0)

    def test_small_frequency_expansion(self):
        # gamma ~ omega^2 tau1^2 / (2 tau2) within 0.5% at omega tau1 = 0.1
        r = rates(bohr_frequencies(EnergySpectrum([0.0, 0.1])), UNIT)
        assert_allclose(r.gamma[1, 0], 0.005, rtol=5e-3)

    def test_symmetries(self):
        rng = np.random.Generator(np.random.PCG64(3))
        table = bohr_frequencies(EnergySpectrum(rng.normal(size=5)))
        r = rates(table, KernelParams(tau1=0.7, tau2=0.4))
        assert np.array_equal(r.gamma, r.gamma.T)
        assert np.array_equal(r.nu, -r.nu.T)
        assert np.all(r.gamma >= 0.0)
        assert np.all(r.gamma.diagonal() == 0.0)


class TestEvolve:
    @pytest.mark.parametrize("method", [
        EvolutionMethod.unitary(),
        EvolutionMethod.closed_form(),
        EvolutionMethod.finite_difference(),
        EvolutionMethod.second_order(),
        EvolutionMethod.milburn(),
        EvolutionMethod.quadrature(),
        EvolutionMethod.monte_carlo(seed=5, count=100),
    ])
    def test_t0_is_identity(self, method):
        rho = three_level_state()
        out = evolve(rho, THREE_LEVEL, UNIT, 0.0, method)
        assert np.array_equal(out.entries, rho.entries)

    @pytest.mark.parametrize("method", [
        EvolutionMethod.unitary(),
        EvolutionMethod.closed_form(),
        EvolutionMethod.finite_difference(),
        EvolutionMethod.second_order(),
        EvolutionMethod.milburn(),
        EvolutionMethod.quadrature(),
        EvolutionMethod.monte_carlo(seed=5),
    ])
    def test_diagonal_states_stationary(self, method):
        rho = make_density_from_pure([1.0, 0.0, 0.0])
        mixed = np.diag([0.2, 0.5, 0.3]).astype(complex)
        for state in (rho.entries, mixed):
            from cronon.core import DensityMatrix
            out = evolve(DensityMatrix(state), THREE_LEVEL, UNIT, 4.0, method)
            assert np.array_equal(out.entries, state)

    def test_closed_form_equals_finite_difference_on_grid(self):
        rho = three_level_state()
        c = evolve(rho, THREE_LEVEL, UNIT, 5.0, EvolutionMethod.closed_form())
        f = evolve(rho, THREE_LEVEL, UNIT, 5.0, EvolutionMethod.finite_difference())
        assert float(np.max(np.abs(c.entries - f.entries))) <= 1e-12

    def test_finite_difference_rejects_off_grid(self):
        rho = three_level_state()
        with pytest.raises(InvalidInputError):
            evolve(rho, THREE_LEVEL, UNIT, 2.5, EvolutionMethod.finite_difference())

    def test_semigroup_composition(self):
        rho = three_level_state()
        closed = EvolutionMethod.closed_form()
        for t1 in (0.3, 1.0, 4.7):
            for t2 in (0.3, 1.0, 4.7):
                direct = evolve(rho, THREE_LEVEL, UNIT, t1 + t2, closed)
                stepped = evolve(evolve(rho, THREE_LEVEL, UNIT, t1, closed),
                                 THREE_LEVEL, UNIT, t2, closed)
                assert float(np.max(np.abs(direct.entries - stepped.entries))) <= 1e-12

    def test_trace_preserved_exactly(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for method in (EvolutionMethod.closed_form(),
                       EvolutionMethod.monte_carlo(seed=1, count=500)):
            rho = random_density(rng, 5)
            out = evolve(rho, random_spectrum(rng, 5), UNIT, 2.3, method)
            assert complex(np.trace(out.entries)) == complex(np.trace(rho.entries))

    def test_positivity_preserved(self):
        rng = np.random.Generator(np.random.PCG64(23))
        closed = EvolutionMethod.closed_form()
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            rho = random_density(rng, dim)
            spec = random_spectrum(rng, dim)
            t = float(rng.uniform(0.0, 8.0))
            out = evolve(rho, spec, UNIT, t, closed)
            assert float(np.min(np.linalg.eigvalsh(out.entries))) >= -1e-10
            assert validate_density(out, tol=1e-9) == []

    def test_liouville_limit_linear_in_tau(self):
        rho = three_level_state()
        errs = {}
        for tau in (0.02, 0.01):
            p = KernelParams(tau1=tau, tau2=tau)
            c = evolve(rho, THREE_LEVEL, p, 1.0, EvolutionMethod.closed_form())
            u = evolve(rho, THREE_LEVEL, p, 1.0, EvolutionMethod.unitary())
            errs[tau] = float(np.max(np.abs(c.entries - u.entries)))
        ratio = errs[0.01] / errs[0.02]
        assert 0.5 * 0.85 <= ratio <= 0.5 * 1.15

    def test_monte_carlo_deterministic(self):
        rho = three_level_state()
        m = EvolutionMethod.monte_carlo(seed=77, count=2000)
        a = evolve(rho, THREE_LEVEL, UNIT, 1.5, m)
        b = evolve(rho, THREE_LEVEL, UNIT, 1.5, m)
        assert np.array_equal(a.entries, b.entries)

    def test_oracle_equivalence_subset(self):
        rho = three_level_state()
        t = 2.0
        c = evolve(rho, THREE_LEVEL, UNIT, t, EvolutionMethod.closed_form())
        q = evolve(rho, THREE_LEVEL, UNIT, t, EvolutionMethod.quadrature(tol=1e-10))
        assert float(np.max(np.abs(c.entries - q.entries))) <= 1e-8


class TestSecondOrder:
    def test_agrees_with_closed_form_at_small_frequency(self):
        for wt1 in (0.01, 0.05, 0.1):
            cf = abs(propagator_factor(wt1, UNIT, 10.0))
            so = abs(second_order_factor(wt1, UNIT, 10.0))
            assert abs(cf - so) / so < 1e-3

    def test_pure_dephasing_modulus(self):
        w, t = 0.4, 3.0
        assert_allclose(abs(second_order_factor(w, UNIT, t)),
                        math.exp(-0.5 * w * w * t), rtol=1e-14)


class TestMilburn:
    def test_frozen_frequencies(self):
        freqs = milburn_frozen_frequencies(KernelParams(tau1=1.0, tau2=0.5), 3)
        assert_allclose(freqs, [2 * math.pi, 4 * math.pi, 6 * math.pi], rtol=1e-15)

    def test_factor_is_one_at_frozen_frequency(self):
        w = 2.0 * math.pi / UNIT.tau1
        for t in (0.1, 1.0, 10.0, 100.0):
            assert abs(milburn_factor(w, UNIT, t) - 1.0) <= 1e-12

    def test_closed_form_does_not_freeze(self):
        w = 2.0 * math.pi / UNIT.tau1
        assert_allclose(abs(propagator_factor(w, UNIT, 1.0)),
                        (1.0 + 4.0 * math.pi**2) ** -0.5, rtol=1e-13)

    def test_poisson_duality(self):
        # sum_n pmf(n) exp(-i w tau1 n) converges to the Milburn factor
        for k in (1, 3, 8):
            t = float(k) * UNIT.tau2
            for w in (0.7, 2.0):
                acc = 0.0 + 0.0j
                n = 0
                while True:
                    p = poisson_pmf(UNIT, t, n)
                    acc += p * cmath.exp(-1j * w * UNIT.tau1 * n)
                    if n > k and p < 1e-13:
                        break
                    n += 1
                assert abs(acc - milburn_factor(w, UNIT, t)) <= 1e-12


class TestMonteCarloFactor:
    def test_standard_error_brackets_truth(self):
        samples = sample_effective_time(UNIT, 4.0, seed=31, count=100_000)
        factor, se = monte_carlo_factor(2.0, samples)
        truth = propagator_factor(2.0, UNIT, 4.0)
        assert abs(factor - truth) <= 4.0 * se

    def test_zero_frequency_exact(self):
        samples = sample_effective_time(UNIT, 4.0, seed=31, count=100)
        factor, se = monte_carlo_factor(0.0, samples)
        assert factor == 1.0 + 0.0j
        assert se == 0.0


class TestQuadratureFactor:
    def test_normalization(self):
        assert_allclose(quadrature_factor(0.0, UNIT, 3.0), 1.0 + 0.0j, atol=1e-10)

    def test_grid_against_closed_form(self):
        for wt1 in (0.1, 1.0, 10.0):
            for k in (0.5, 1.0, 5.0, 20.0):
                cf = propagator_factor(wt1, UNIT, k)
                qf = quadrature_factor(wt1, UNIT, k, tol=1e-10)
                assert abs(cf - qf) <= 1e-8


    @pytest.mark.parametrize("k, wt1", [
        (1.5266281613085082, 3.6243680629129122),
        (1.3350533274088794, 6.191142588573484),
        (1.4232100684548297, 4.229281683880531),
    ])
    def test_converges_where_extrapolation_reported_roundoff(self, k, wt1):
        # shapes 1 < k < 2: the kernel's derivative is singular at t' = 0
        qf = quadrature_factor(wt1, UNIT, k, tol=1e-10)
        assert abs(qf - propagator_factor(wt1, UNIT, k)) <= 1e-8


class TestEvolutionMethodParsing:
    def test_parse_known(self):
        m = EvolutionMethod.parse("monte_carlo", seed=9, count=50)
        assert m.seed == 9 and m.count == 50

    def test_parse_unknown(self):
        with pytest.raises(InvalidInputError):
            EvolutionMethod.parse("euler")
