import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cronon import (
    DimensionMismatchError,
    EnergySpectrum,
    InvalidInputError,
    Observable,
    bohr_frequencies,
    diagonal_part,
    expectation,
    make_density_from_pure,
    validate_density,
    variance,
)
from cronon.core import DensityMatrix, density_deviations, hamiltonian_observable
from cronon.core import violation_report

SIGMA_X = Observable([[0, 1], [1, 0]])
SIGMA_Z = Observable([[1, 0], [0, -1]])


def random_state(seed, dim):
    rng = np.random.Generator(np.random.PCG64(seed))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


class TestMakeDensityFromPure:
    def test_basis_state(self):
        rho = make_density_from_pure([1, 0])
        assert_allclose(rho.entries, [[1, 0], [0, 0]])

    def test_equal_superposition(self):
        rho = make_density_from_pure([1, 1])
        assert_allclose(rho.entries, [[0.5, 0.5], [0.5, 0.5]])

    def test_complex_superposition(self):
        # outer product of (1, i)/sqrt(2) by hand
        rho = make_density_from_pure([1, 1j])
        expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        assert_allclose(rho.entries, expected, atol=1e-15)

    def test_unnormalized_input_is_normalized(self):
        rho = make_density_from_pure([3, 4j])
        assert_allclose(np.trace(rho.entries), 1.0, atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            make_density_from_pure([0, 0])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            make_density_from_pure([1, np.inf])

    @given(st.integers(0, 10**6))
    def test_always_valid_density(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        dim = int(rng.integers(2, 8))
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        rho = make_density_from_pure(amps)
        assert validate_density(rho, tol=1e-10) == []


class TestValidateDensity:
    def test_maximally_mixed_ok(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        assert validate_density(rho, tol=1e-10) == []

    def test_trace_violation_magnitude(self):
        rho = DensityMatrix([[1, 0], [0, 0.1]])
        report = validate_density(rho, tol=1e-10)
        names = {v.name: v for v in report}
        assert "trace" in names
        assert_allclose(names["trace"].magnitude, 0.1, rtol=1e-12)

    def test_positivity_violation(self):
        # eigenvalues 0.5 +- 0.6 -> lowest is -0.1
        rho = DensityMatrix([[0.5, 0.6], [0.6, 0.5]])
        report = validate_density(rho, tol=1e-10)
        names = {v.name: v for v in report}
        assert "positivity" in names
        assert_allclose(names["positivity"].magnitude, 0.1, rtol=1e-12)

    def test_hermiticity_violation(self):
        rho = DensityMatrix([[0.5, 0.1], [0.3, 0.5]])
        report = validate_density(rho, tol=1e-10)
        assert any(v.name == "hermiticity" for v in report)

    def test_bad_tol(self):
        with pytest.raises(InvalidInputError):
            validate_density(DensityMatrix(np.eye(2) / 2), tol=0.0)

    def test_stacked_deviations_match_each_state(self):
        states = [np.eye(2) / 2.0, [[1, 0], [0, 0.1]], [[0.5, 0.6], [0.6, 0.5]],
                  [[0.5, 0.1], [0.3, 0.5]], random_state(4, 2).entries]
        herm, tr_dev, lo = density_deviations(np.array(states, dtype=complex))
        for i, m in enumerate(states):
            one = violation_report(float(herm[i]), float(tr_dev[i]), float(lo[i]), 1e-10)
            assert one == validate_density(DensityMatrix(m), tol=1e-10)


class TestExpectation:
    def test_identity_gives_trace(self):
        rho = random_state(3, 4)
        assert_allclose(expectation(rho, Observable(np.eye(4))), 1.0, atol=1e-14)

    def test_eigenstate_energy(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        a = Observable(np.diag([0.25, 1.75]))
        assert expectation(rho, a) == 0.25

    def test_pauli_x_on_superposition(self):
        rho = make_density_from_pure([1, 1])
        assert_allclose(expectation(rho, SIGMA_X), 1.0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation(random_state(0, 3), SIGMA_X)

    @given(st.integers(0, 10**6))
    def test_linearity(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        dim = int(rng.integers(2, 7))
        rho = random_state(seed + 1, dim)
        g1 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        g2 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = Observable((g1 + g1.conj().T) / 2)
        b = Observable((g2 + g2.conj().T) / 2)
        alpha, beta = float(rng.normal()), float(rng.normal())
        combined = Observable(alpha * a.entries + beta * b.entries)
        lhs = expectation(rho, combined)
        rhs = alpha * expectation(rho, a) + beta * expectation(rho, b)
        assert_allclose(lhs, rhs, atol=1e-12)


class TestVariance:
    def test_eigenstate_dispersion_free(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        assert variance(rho, SIGMA_Z) == 0.0

    def test_superposition(self):
        rho = make_density_from_pure([1, 1])
        assert_allclose(variance(rho, SIGMA_Z), 1.0, atol=1e-14)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert_allclose(variance(rho, SIGMA_Z), 1.0, atol=1e-14)

    def test_never_negative(self):
        for seed in range(20):
            rho = random_state(seed, 3)
            rng = np.random.Generator(np.random.PCG64(seed + 100))
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            assert variance(rho, Observable((g + g.conj().T) / 2)) >= 0.0


class TestDiagonalPart:
    def test_diagonal_unchanged(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        assert_allclose(diagonal_part(rho).entries, rho.entries)

    def test_superposition(self):
        rho = make_density_from_pure([1, 1])
        assert_allclose(diagonal_part(rho).entries, np.diag([0.5, 0.5]))

    def test_singlet(self):
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        rho = make_density_from_pure(singlet)
        assert_allclose(np.diag(diagonal_part(rho).entries), [0, 0.5, 0.5, 0],
                        atol=1e-15)

    @given(st.integers(0, 10**6))
    def test_idempotent_and_trace_preserving(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        rho = random_state(seed, int(rng.integers(2, 8)))
        once = diagonal_part(rho)
        twice = diagonal_part(once)
        assert np.array_equal(once.entries, twice.entries)
        assert complex(np.trace(once.entries)) == complex(np.trace(rho.entries))
        assert validate_density(once, tol=1e-10) == []


class TestBohrFrequencies:
    def test_two_level(self):
        table = bohr_frequencies(EnergySpectrum([0.0, 1.0]))
        assert table.omega[1][0] == 1.0
        assert table.omega[0][1] == -1.0

    def test_degenerate(self):
        table = bohr_frequencies(EnergySpectrum([1.0, 1.0]))
        assert np.all(table.omega == 0.0)

    def test_hbar_scaling(self):
        table = bohr_frequencies(EnergySpectrum([0.0, 2.0, 3.0], hbar=2.0))
        assert table.omega[2][1] == 0.5

    def test_antisymmetry_exact(self):
        rng = np.random.Generator(np.random.PCG64(11))
        table = bohr_frequencies(EnergySpectrum(rng.normal(size=6), hbar=0.7))
        assert np.array_equal(table.omega, -table.omega.T)
        assert np.all(table.omega.diagonal() == 0.0)

    @pytest.mark.parametrize("energies, hbar", [([-1e308, 1e308], 1.0), ([0.0, 1.0], 1e-310)])
    def test_overflow_rejected(self, energies, hbar):
        with pytest.raises(InvalidInputError, match="overflow"):
            bohr_frequencies(EnergySpectrum(energies, hbar=hbar))

    def test_gauge_invariance(self):
        energies = np.array([0.1, 0.9, 2.2])
        a = bohr_frequencies(EnergySpectrum(energies))
        b = bohr_frequencies(EnergySpectrum(energies + 5.0))
        assert_allclose(a.omega, b.omega, atol=1e-12)


class TestSpectrumValidation:
    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            EnergySpectrum([])

    def test_bad_hbar(self):
        with pytest.raises(InvalidInputError):
            EnergySpectrum([1.0], hbar=0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            EnergySpectrum([np.nan])

    def test_hamiltonian_observable(self):
        h = hamiltonian_observable(EnergySpectrum([0.0, 1.5]))
        assert_allclose(h.entries, np.diag([0.0, 1.5]))


class TestObservableValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidInputError):
            Observable([[0, 1], [0, 0]])

    def test_immutable(self):
        a = Observable(np.eye(2))
        with pytest.raises(ValueError):
            a.entries[0, 0] = 2.0


class TestFileFormats:
    def test_spectrum_round_trip(self, tmp_path):
        from cronon import load_spectrum, save_spectrum
        path = tmp_path / "spectrum.json"
        spec = EnergySpectrum([0.0, 1.5, 2.25], hbar=0.5)
        save_spectrum(spec, path)
        doc = json.loads(path.read_text())
        assert doc == {"hbar": 0.5, "energies": [0.0, 1.5, 2.25]}
        back = load_spectrum(path)
        assert np.array_equal(back.energies, spec.energies)
        assert back.hbar == spec.hbar

    def test_state_round_trip(self, tmp_path):
        from cronon import load_state, save_state
        path = tmp_path / "state.json"
        rho = make_density_from_pure([1.0, 1j, 0.5])
        save_state(rho, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"dim", "re", "im"}
        assert doc["dim"] == 3
        back = load_state(path)
        assert np.array_equal(back.entries, rho.entries)

    def test_shape_mismatch_rejected(self, tmp_path):
        from cronon import load_state
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dim": 2, "re": [[1.0]], "im": [[0.0]]}))
        with pytest.raises(InvalidInputError):
            load_state(path)
