"""Finite-dimensional states and observables in the energy eigenbasis.

Everything downstream works in the basis where the Hamiltonian is
diagonal, H|n> = E_n|n>, so a spectrum plus hbar fixes the whole
unitary structure through the Bohr frequencies

    omega[n, m] = (E_n - E_m) / hbar.

Density matrices are stored dense (complex, row-major); the systems of
interest are desk-scale (dim <= 64).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError, NumericFailureError

__all__ = [
    "EnergySpectrum",
    "BohrFrequencyTable",
    "DensityMatrix",
    "Observable",
    "InvariantViolation",
    "make_density_from_pure",
    "validate_density",
    "expectation",
    "variance",
    "diagonal_part",
    "bohr_frequencies",
    "hamiltonian_observable",
]


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EnergySpectrum:
    """Eigenvalues E_n of a constant Hamiltonian, plus hbar.

    Energies need not be sorted or distinct; degenerate pairs simply
    produce zero Bohr frequency and never decay.
    """

    energies: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "energies", _frozen_array(self.energies, float))
        if self.energies.ndim != 1 or self.energies.size == 0:
            raise InvalidInputError("energies must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(self.energies)):
            raise InvalidInputError("energies must be finite")
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise InvalidInputError(f"hbar must be positive, got {self.hbar}")
        # checked once here, so no Bohr frequency (E_n - E_m)/hbar overflows
        span = (float(self.energies.max()) - float(self.energies.min())) / self.hbar
        if not np.isfinite(span):
            raise InvalidInputError(f"Bohr frequencies overflow: (E_max - E_min)/hbar = {span}")

    @property
    def dim(self) -> int:
        return self.energies.size


@dataclass(frozen=True)
class BohrFrequencyTable:
    """Antisymmetric table omega[n, m] = (E_n - E_m)/hbar."""

    omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", _frozen_array(self.omega, float))
        om = self.omega
        if om.ndim != 2 or om.shape[0] != om.shape[1]:
            raise InvalidInputError("omega must be square")
        if np.any(om.diagonal() != 0.0) or np.any(om != -om.T):
            raise InvalidInputError("omega must be antisymmetric with zero diagonal")

    @property
    def dim(self) -> int:
        return self.omega.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Dense complex matrix intended to represent a quantum state.

    Construction only checks shape and finiteness; the physical
    invariants (hermiticity, unit trace, positivity) are checked by
    :func:`validate_density`, which must be able to report on broken
    inputs rather than refuse to hold them.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries, complex))
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise InvalidInputError("density matrix must be square and non-empty")
        if not np.all(np.isfinite(m.view(float))):
            raise InvalidInputError("density matrix entries must be finite")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.entries))


@dataclass(frozen=True)
class Observable:
    """Hermitian operator in the energy basis."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries, complex))
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise InvalidInputError("observable must be square and non-empty")
        if not np.all(np.isfinite(m.view(float))):
            raise InvalidInputError("observable entries must be finite")
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
            raise InvalidInputError(f"observable is not Hermitian (deviation {dev:.3e})")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class InvariantViolation:
    """One violated density-matrix invariant with its magnitude."""

    name: str  # "hermiticity" | "trace" | "positivity"
    magnitude: float
    detail: str = field(default="")

    def __str__(self):
        msg = f"{self.name}: {self.magnitude:.6e}"
        return f"{msg} ({self.detail})" if self.detail else msg


def make_density_from_pure(amplitudes) -> DensityMatrix:
    """Return |psi><psi| for the normalized version of `amplitudes`."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if psi.size == 0 or not np.all(np.isfinite(psi.view(float))):
        raise InvalidInputError("amplitude vector must be non-empty and finite")
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise InvalidInputError("amplitude vector must be non-zero")
    psi = psi / norm
    return DensityMatrix(np.outer(psi, psi.conj()))


def validate_density(rho: DensityMatrix, tol: float = 1e-10) -> list[InvariantViolation]:
    """Check hermiticity, unit trace and positivity at tolerance `tol`.

    Returns an empty list iff all three invariants hold. Magnitudes are
    the actual deviations, so callers can rank how badly a state is
    broken.
    """
    if not (tol > 0):
        raise InvalidInputError("tol must be positive")
    m = rho.entries
    report = []
    herm = float(np.max(np.abs(m - m.conj().T)))
    if herm > tol:
        report.append(InvariantViolation("hermiticity", herm, "max |rho - rho^dagger|"))
    tr_dev = abs(complex(np.trace(m)) - 1.0)
    if tr_dev > tol:
        report.append(InvariantViolation("trace", tr_dev, "|Tr(rho) - 1|"))
    # Positivity is judged on the Hermitian part so a report is still
    # produced for states that also fail hermiticity.
    lo = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)))
    if lo < -tol:
        report.append(InvariantViolation("positivity", -lo, f"min eigenvalue {lo:.6e}"))
    return report


def _check_dims(rho: DensityMatrix, a: Observable):
    if rho.dim != a.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} != observable dim {a.dim}")


def expectation(rho: DensityMatrix, a: Observable) -> float:
    """Tr(rho A). The imaginary residue must be negligible and is dropped."""
    _check_dims(rho, a)
    return float(_real_trace(np.einsum("ij,ji->", rho.entries, a.entries), a))


def _real_trace(tr, a: Observable):
    """Real part of one or more values of Tr(rho A); the imaginary residue
    must be negligible."""
    scale = max(1.0, float(np.max(np.abs(a.entries))) * a.dim)
    residue = float(np.max(np.abs(np.imag(tr)), initial=0.0))
    if residue > 1e-12 * scale:
        raise NumericFailureError(
            f"expectation has non-negligible imaginary part {residue:.3e}; "
            "inputs are probably not Hermitian",
            achieved_error=residue,
        )
    return np.real(tr)


def variance(rho: DensityMatrix, a: Observable) -> float:
    """Tr(rho A^2) - Tr(rho A)^2, clamped to 0 within rounding of 0."""
    _check_dims(rho, a)
    a2 = Observable(a.entries @ a.entries.conj().T)  # A Hermitian: A^2 = A A^dagger
    var = expectation(rho, a2) - expectation(rho, a) ** 2
    if var < 0.0:
        scale = max(1.0, float(np.max(np.abs(a.entries))) ** 2 * a.dim)
        if var < -1e-12 * scale:
            raise NumericFailureError(
                f"variance {var:.3e} is negative beyond rounding; state is not positive",
                achieved_error=-var,
            )
        var = 0.0
    return var


def diagonal_part(rho: DensityMatrix) -> DensityMatrix:
    """Zero the off-diagonal entries (the stationary late-time form)."""
    return DensityMatrix(np.diag(np.diag(rho.entries)))


def bohr_frequencies(spectrum: EnergySpectrum) -> BohrFrequencyTable:
    """Build omega[n, m] = (E_n - E_m)/hbar.

    Antisymmetry and the zero diagonal hold exactly in floating point
    because each entry is a single subtraction and division.
    """
    e = spectrum.energies
    return BohrFrequencyTable((e[:, None] - e[None, :]) / spectrum.hbar)


def hamiltonian_observable(spectrum: EnergySpectrum) -> Observable:
    """The Hamiltonian as an observable: diag(E_n) in its own eigenbasis."""
    return Observable(np.diag(spectrum.energies).astype(complex))
