import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cronon import (
    InvalidInputError,
    KernelParams,
    NumericFailureError,
    coarse_grain,
    gamma_pdf,
    kernel_moments,
    poisson_pmf,
    propagator_factor,
    sample_effective_time,
)
from cronon.kernel import tail_cutoff

UNIT = KernelParams(tau1=1.0, tau2=1.0)


class TestKernelParams:
    def test_positive_required(self):
        with pytest.raises(InvalidInputError):
            KernelParams(tau1=0.0, tau2=1.0)
        with pytest.raises(InvalidInputError):
            KernelParams(tau1=1.0, tau2=-1.0)

    @pytest.mark.parametrize("tau1", ["1", None, float("nan"), float("inf"), True])
    def test_non_numbers_rejected(self, tau1):
        with pytest.raises(InvalidInputError):
            KernelParams(tau1=tau1, tau2=1.0)

    def test_ordering_advisory(self):
        assert not KernelParams(tau1=1.0, tau2=2.0).ordering_advisory
        assert not KernelParams(tau1=1.0, tau2=1.0).ordering_advisory
        assert KernelParams(tau1=2.0, tau2=1.0).ordering_advisory


class TestGammaPdf:
    def test_exponential_special_case(self):
        # shape t/tau2 = 1 reduces to exp(-t'/tau1)/tau1
        assert gamma_pdf(UNIT, 1.0, 0.0) == 1.0
        tp = np.linspace(0.0, 5.0, 11)
        assert_allclose(gamma_pdf(UNIT, 1.0, tp), np.exp(-tp), rtol=1e-14)

    def test_shape_two_value(self):
        assert_allclose(gamma_pdf(UNIT, 2.0, 1.0), math.exp(-1.0), rtol=1e-14)

    def test_mode_location(self):
        # mode at t' = (t/tau2 - 1) tau1
        params = KernelParams(tau1=0.5, tau2=1.0)
        t = 4.0
        mode = (t / params.tau2 - 1.0) * params.tau1
        grid = np.linspace(0.01, 6.0, 2001)
        pdf = gamma_pdf(params, t, grid)
        assert abs(grid[np.argmax(pdf)] - mode) < 0.01

    def test_singular_origin_marker(self):
        assert gamma_pdf(UNIT, 0.3, 0.0) == math.inf
        assert gamma_pdf(UNIT, 2.0, 0.0) == 0.0

    def test_normalization_by_quadrature(self):
        # integral over t' of the kernel is 1 (probability density)
        for ratio in (0.1, 1.0, 10.0):
            for k in (0.3, 1.0, 5.0, 40.0):
                params = KernelParams(tau1=ratio, tau2=1.0)
                val = coarse_grain(params, k, lambda tp: 1.0, tol=1e-11)
                assert abs(val - 1.0) <= 1e-10, (ratio, k)

    def test_invalid_t(self):
        with pytest.raises(InvalidInputError):
            gamma_pdf(UNIT, 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            gamma_pdf(UNIT, 1.0, -0.5)


class TestKernelMoments:
    def test_reference_values(self):
        m = kernel_moments(KernelParams(tau1=2.0, tau2=1.0), 5.0)
        assert m.mean == 10.0
        assert_allclose(m.sigma, 2.0 * math.sqrt(5.0), rtol=1e-15)

    def test_equal_times_mean_is_t(self):
        m = kernel_moments(KernelParams(tau1=0.3, tau2=0.3), 7.0)
        assert_allclose(m.mean, 7.0, rtol=1e-15)

    def test_relative_dispersion(self):
        m = kernel_moments(KernelParams(tau1=3.0, tau2=0.5), 50.0)
        assert_allclose(m.relative_dispersion, 0.1, rtol=1e-15)

    def test_monte_carlo_cross_check(self):
        params = KernelParams(tau1=2.0, tau2=1.0)
        t = 5.0
        n = 100_000
        samples = sample_effective_time(params, t, seed=123, count=n).values
        m = kernel_moments(params, t)
        se_mean = m.sigma / math.sqrt(n)
        assert abs(samples.mean() - m.mean) <= 3.0 * se_mean
        se_sigma = m.sigma / math.sqrt(2.0 * n)
        assert abs(samples.std(ddof=1) - m.sigma) <= 3.0 * se_sigma


class TestPoissonPmf:
    def test_no_event_probability(self):
        assert_allclose(poisson_pmf(UNIT, 3.0, 0), math.exp(-3.0), rtol=1e-14)

    def test_reference_value(self):
        assert_allclose(poisson_pmf(UNIT, 2.0, 2), 2.0 * math.exp(-2.0), rtol=1e-14)

    def test_sums_to_one(self):
        t = 7.0
        total, n = 0.0, 0
        while True:
            p = poisson_pmf(UNIT, t, n)
            total += p
            if n > t and p < 1e-15:
                break
            n += 1
        assert abs(total - 1.0) <= 1e-12

    def test_mean(self):
        t = 4.0
        ns = np.arange(0, 60)
        pmf = poisson_pmf(UNIT, t, ns)
        assert_allclose(float(np.sum(ns * pmf)), t, rtol=1e-12)

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidInputError):
            poisson_pmf(UNIT, 1.0, -1)


class TestTailCutoff:
    @pytest.mark.parametrize("k", [1e-3, 1e-2, 0.3, 1.0, 2.5, 17.0, 300.0, 1e4])
    @pytest.mark.parametrize("tau1", [0.05, 1.0])
    def test_leaves_at_most_the_tail_mass(self, k, tau1):
        # the Chernoff bound is an upper bound: the exact mass beyond the
        # cutoff must not exceed the requested 1e-7 (fixed beforehand)
        import mpmath

        params = KernelParams(tau1=tau1, tau2=0.5)
        cut = tail_cutoff(params, k * 0.5, 1e-7)
        mass = mpmath.gammainc(k, cut / tau1, mpmath.inf, regularized=True)
        assert 0.0 < float(mass) <= 1e-7

    @pytest.mark.parametrize("k", [1e-320, 1e-300, 1e-160, 1e22, 1e33, 1e300])
    def test_extreme_shapes(self, k):
        # tiny shapes overflowed the Newton step; huge ones left the cutoff at the mean
        from scipy import special

        cut = tail_cutoff(UNIT, k, 1e-7)
        assert k < cut < math.inf
        if k < 1.0:  # scipy agrees with mpmath here, which takes seconds at such shapes
            assert special.gammaincc(k, cut) <= 1e-7
        elif k < 1e30:
            assert (cut - k) / math.sqrt(k) >= 5.19  # the normal quantile of 1e-7

    @pytest.mark.parametrize("params, t", [(KernelParams(1.0, 1e-300), 1e300),
                                           (KernelParams(1e308, 1.0), 1.0)])
    def test_overflow_refused(self, params, t):
        with pytest.raises(InvalidInputError, match="overflows"):
            tail_cutoff(params, t, 1e-7)

    def test_kernel_grid_ends_at_cutoff(self, tmp_path):
        from cronon.cli import main

        out = tmp_path / "kernel.csv"
        assert main(["kernel", "--tau1", "1.5", "--tau2", "0.5", "--t", "2",
                     "--out", str(out)]) == 0
        last = out.read_text().strip().splitlines()[-1]
        assert float(last.split(",")[0]) == tail_cutoff(KernelParams(1.5, 0.5), 2.0, 1e-7)

    @pytest.mark.parametrize("tail", [0.0, 1.0, float("nan")])
    def test_tail_must_be_a_probability(self, tail):
        with pytest.raises(InvalidInputError):
            tail_cutoff(UNIT, 1.0, tail)


class TestSampling:
    def test_mean_within_three_standard_errors(self):
        params = KernelParams(tau1=2.0, tau2=1.0)
        s = sample_effective_time(params, 5.0, seed=7, count=100_000)
        m = kernel_moments(params, 5.0)
        assert abs(s.values.mean() - 10.0) <= 3.0 * m.sigma / math.sqrt(s.count)

    def test_exponential_cdf(self):
        # shape 1: empirical CDF vs 1 - exp(-t'/tau1)
        s = sample_effective_time(UNIT, 1.0, seed=11, count=100_000)
        xs = np.sort(s.values)
        empirical = np.arange(1, len(xs) + 1) / len(xs)
        assert float(np.max(np.abs(empirical - (1.0 - np.exp(-xs))))) < 0.01

    def test_deterministic(self):
        a = sample_effective_time(UNIT, 3.0, seed=99, count=1000)
        b = sample_effective_time(UNIT, 3.0, seed=99, count=1000)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = sample_effective_time(UNIT, 3.0, seed=1, count=1000)
        b = sample_effective_time(UNIT, 3.0, seed=2, count=1000)
        assert not np.array_equal(a.values, b.values)

    def test_small_shape(self):
        s = sample_effective_time(UNIT, 0.2, seed=5, count=10_000)
        assert np.all(s.values >= 0.0)

    def test_count_validation(self):
        with pytest.raises(InvalidInputError):
            sample_effective_time(UNIT, 1.0, seed=0, count=0)


class TestCoarseGrain:
    def test_constant_is_normalized(self):
        assert_allclose(coarse_grain(UNIT, 2.5, lambda tp: 1.0), 1.0, atol=1e-10)

    def test_oscillation_matches_closed_form(self):
        for omega in (0.3, 1.0, 4.0):
            for t in (0.4, 1.0, 6.0):
                val = coarse_grain(
                    UNIT, t, lambda tp: np.exp(-1j * omega * tp), tol=1e-10
                )
                assert abs(val - propagator_factor(omega, UNIT, t)) < 1e-9

    def test_first_moment(self):
        params = KernelParams(tau1=1.7, tau2=0.6)
        t = 2.4
        val = coarse_grain(params, t, lambda tp: tp, tol=1e-9)
        assert_allclose(val.real, kernel_moments(params, t).mean, rtol=1e-8)
        assert abs(val.imag) < 1e-12

    def test_second_moment(self):
        params = KernelParams(tau1=0.8, tau2=1.3)
        t = 4.0
        m = kernel_moments(params, t)
        val = coarse_grain(params, t, lambda tp: tp * tp, tol=1e-9)
        assert_allclose(val.real, m.mean**2 + m.sigma**2, rtol=1e-8)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(NumericFailureError) as exc:
            coarse_grain(UNIT, 1.0, lambda tp: np.exp(-1j * 1e7 * tp), tol=1e-14)
        assert exc.value.achieved_error is not None

    @given(
        st.floats(0.3, 30.0),
        st.floats(0.1, 4.0),
        st.floats(0.2, 3.0),
    )
    def test_moment_consistency_property(self, t, tau1, tau2):
        params = KernelParams(tau1=tau1, tau2=tau2)
        m = kernel_moments(params, t)
        mean = coarse_grain(params, t, lambda tp: tp, tol=1e-9).real
        second = coarse_grain(params, t, lambda tp: tp * tp, tol=1e-9).real
        assert_allclose(mean, m.mean, rtol=1e-8)
        assert_allclose(second, m.mean**2 + m.sigma**2, rtol=1e-8)
