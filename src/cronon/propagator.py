"""Evolution maps for energy-basis density matrices.

All maps act elementwise: the (n, m) coherence is multiplied by a
scalar factor that depends only on the Bohr frequency w = omega[n, m],
the kernel times (tau1, tau2) and the elapsed time t.

    unitary            exp(-i w t)
    closed_form        (1 + i w tau1)^(-t/tau2)
                       = exp(-(gamma + i nu) t) with
                       gamma = ln(1 + w^2 tau1^2) / (2 tau2),
                       nu    = arctan(w tau1) / tau2
    finite_difference  (1 + i w tau1)^(-k) on the grid t = k tau2
    second_order       exp(-i w tau1 t/tau2 - w^2 tau1^2 t/(2 tau2))
    milburn            exp((t/tau2) (exp(-i w tau1) - 1))
    quadrature         kernel average of exp(-i w t')   (oracle)
    monte_carlo        sample average of exp(-i w t')   (oracle)

The closed form takes its phase from arctan(w tau1), the principal
argument of 1 + i w tau1, which has positive real part for every real w.

FACTORS maps each method to one function f(w, params, t, method) that
broadcasts arrays of frequencies w >= 0 against arrays of times t >= 0.
Every caller goes through coherence_factors (arrays) or
coherence_factor (scalars), which evaluate the table at |w|, conjugate
where w < 0 and return exactly 1 where w = 0 or t = 0. Populations are
therefore untouched by every map, which makes trace preservation exact,
and factor(-w) = conj(factor(w)) holds bit for bit, which preserves
hermiticity. The closed form is a mixture of unitaries, hence
completely positive.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import BohrFrequencyTable, DensityMatrix, EnergySpectrum, _frozen_array
from .core import bohr_frequencies
from .errors import DimensionMismatchError, InvalidInputError
from .kernel import KernelParams, SampleSet, coarse_grain, sample_effective_time

__all__ = [
    "Method",
    "EvolutionMethod",
    "DecoherenceRates",
    "FACTORS",
    "check_times",
    "decoherence_rates",
    "step_factor",
    "propagator_factor",
    "unitary_factor",
    "second_order_factor",
    "milburn_factor",
    "quadrature_factor",
    "monte_carlo_factor",
    "coherence_factor",
    "coherence_factors",
    "rates",
    "evolve",
    "milburn_frozen_frequencies",
    "DEFAULT_MC_COUNT",
]

DEFAULT_MC_COUNT = 100_000

#: Relative slack when deciding whether t sits on the cronon grid.
_GRID_RTOL = 1e-9


class Method(enum.Enum):
    """The available evolution maps."""

    UNITARY = "unitary"
    CLOSED_FORM = "closed_form"
    FINITE_DIFFERENCE = "finite_difference"
    SECOND_ORDER = "second_order"
    MILBURN = "milburn"
    QUADRATURE = "quadrature"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class EvolutionMethod:
    """Method selector; the Monte-Carlo map carries its seed and count,
    the quadrature oracle its tolerance."""

    kind: Method
    seed: int = 0
    count: int = DEFAULT_MC_COUNT
    tol: float = 1e-10

    def __post_init__(self):
        if self.kind is Method.MONTE_CARLO and self.count < 1:
            raise InvalidInputError("monte_carlo count must be >= 1")
        if not (self.tol > 0):
            raise InvalidInputError("tol must be positive")

    @classmethod
    def unitary(cls):
        return cls(Method.UNITARY)

    @classmethod
    def closed_form(cls):
        return cls(Method.CLOSED_FORM)

    @classmethod
    def finite_difference(cls):
        return cls(Method.FINITE_DIFFERENCE)

    @classmethod
    def second_order(cls):
        return cls(Method.SECOND_ORDER)

    @classmethod
    def milburn(cls):
        return cls(Method.MILBURN)

    @classmethod
    def quadrature(cls, tol: float = 1e-10):
        return cls(Method.QUADRATURE, tol=tol)

    @classmethod
    def monte_carlo(cls, seed: int = 0, count: int = DEFAULT_MC_COUNT):
        return cls(Method.MONTE_CARLO, seed=seed, count=count)

    @classmethod
    def parse(cls, name: str, *, seed: int = 0, count: int = DEFAULT_MC_COUNT,
              tol: float = 1e-10) -> "EvolutionMethod":
        try:
            kind = Method(name)
        except ValueError:
            valid = ", ".join(m.value for m in Method)
            raise InvalidInputError(f"unknown method {name!r}; expected one of {valid}")
        return cls(kind, seed=seed, count=count, tol=tol)


@dataclass(frozen=True)
class DecoherenceRates:
    """Per-pair decay rate gamma[n, m] and frequency shift nu[n, m]."""

    gamma: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", _frozen_array(self.gamma, float))
        object.__setattr__(self, "nu", _frozen_array(self.nu, float))


def check_times(times) -> np.ndarray:
    """Times as a float array; raises InvalidInputError naming the first
    time that is NaN, infinite or negative."""
    t = np.asarray(times, dtype=float)
    bad = t[~((t >= 0.0) & (t < math.inf))]
    if bad.size:
        raise InvalidInputError(f"times must be finite and non-negative, got {float(bad[0])!r}")
    return t


def decoherence_rates(omega, params: KernelParams):
    """(gamma, nu) = (ln(1 + x^2) / (2 tau2), arctan(x) / tau2), x = omega tau1.

    Elementwise over arrays. log1p reproduces the small-frequency limit
    gamma ~ omega^2 tau1^2 / (2 tau2) without cancellation.
    """
    x = omega * params.tau1
    return np.log1p(x * x) / (2.0 * params.tau2), np.arctan(x) / params.tau2


def rates(table: BohrFrequencyTable, params: KernelParams) -> DecoherenceRates:
    """Decay rates and frequency shifts for every level pair."""
    gamma, nu = decoherence_rates(table.omega, params)
    return DecoherenceRates(gamma=gamma, nu=nu)


# ------------------------------------------------------------ factor table

def _closed_form(w, params, t, method):
    gamma, nu = decoherence_rates(w, params)
    return np.exp(-(gamma + 1j * nu) * t)


def _finite_difference(w, params, t, method):
    """The closed form, defined only at t = k tau2 for integer k."""
    k = t / params.tau2
    steps = np.rint(k)
    off = np.abs(k - steps) > _GRID_RTOL * np.maximum(1.0, k)
    if np.any(off):
        raise InvalidInputError(
            f"finite_difference is defined only on the cronon grid; "
            f"t/tau2 = {float(np.asarray(k)[off][0])!r} is not an integer"
        )
    return _closed_form(w, params, steps * params.tau2, method)


def _oracle(average):
    """Table entry of an oracle: average(freqs, params, t, method) gives
    the multipliers at each distinct t > 0 for its frequencies > 0."""

    def entry(w, params, t, method):
        w, t = np.broadcast_arrays(w, t)
        out = np.ones(w.shape, dtype=complex)
        live = (w > 0.0) & (t > 0.0)
        for tv in np.unique(t[live]):
            at = live & (t == tv)
            out[at] = average(w[at], params, float(tv), method)
        return out

    return entry


def _quadrature_at(freqs, params, t, method):
    return [coarse_grain(params, t, lambda tp: complex(math.cos(w * tp), -math.sin(w * tp)),
                         tol=method.tol)
            for w in freqs.tolist()]


def _monte_carlo_at(freqs, params, t, method):
    samples = sample_effective_time(params, t, method.seed, method.count)
    return [monte_carlo_factor(w, samples)[0] for w in freqs.tolist()]


#: The coherence multiplier of every map, f(w, params, t, method),
#: broadcasting w >= 0 against t >= 0 (formulas in the module docstring).
#: The oracles evaluate each element separately; Monte Carlo shares one
#: draw of effective times per t.
FACTORS = {
    Method.UNITARY: lambda w, params, t, method: np.exp(-1j * w * t),
    Method.CLOSED_FORM: _closed_form,
    Method.FINITE_DIFFERENCE: _finite_difference,
    Method.SECOND_ORDER: lambda w, params, t, method: np.exp(
        (-1j * (w * params.tau1) - 0.5 * (w * params.tau1) ** 2) * (t / params.tau2)),
    Method.MILBURN: lambda w, params, t, method: np.exp(
        (t / params.tau2) * (np.exp(-1j * w * params.tau1) - 1.0)),
    Method.QUADRATURE: _oracle(_quadrature_at),
    Method.MONTE_CARLO: _oracle(_monte_carlo_at),
}


def coherence_factors(omega, params: KernelParams, times, method: EvolutionMethod) -> np.ndarray:
    """Multipliers at every time and Bohr frequency, of shape
    times.shape + omega.shape.

    The table is evaluated once per distinct |omega| and time. The
    result is exactly 1 where omega or t is 0, and conj(factor(|omega|))
    where omega < 0, so opposite frequencies get exact conjugates.
    """
    w = np.asarray(omega, dtype=float)
    t = check_times(times)[..., None]
    freqs, inverse = np.unique(np.abs(w), return_inverse=True)
    f = FACTORS[method.kind](freqs, params, t, method)
    f = np.where((freqs == 0.0) | (t == 0.0), 1.0 + 0.0j, f)[..., inverse.reshape(w.shape)]
    return np.where(w < 0.0, np.conj(f), f)


def coherence_factor(omega: float, params: KernelParams, t: float,
                     method: EvolutionMethod) -> complex:
    """Multiplier of a single coherence under the selected map."""
    if not 0.0 <= t < math.inf:  # the test of check_times, at a scalar's cost
        check_times(t)
    if omega == 0.0 or t == 0.0:
        return 1.0 + 0.0j
    f = complex(FACTORS[method.kind](abs(omega), params, t, method))
    return f.conjugate() if omega < 0.0 else f


def step_factor(omega: float, params: KernelParams) -> complex:
    """Single-cronon multiplier (1 + i omega tau1)^(-1)."""
    return coherence_factor(omega, params, params.tau2, EvolutionMethod.finite_difference())


def propagator_factor(omega: float, params: KernelParams, t: float) -> complex:
    """Closed-form coherence multiplier exp(-(t/tau2) Log(1 + i omega tau1)),
    equal to exp(-(gamma + i nu) t) with the rates of `rates()`."""
    return coherence_factor(omega, params, t, EvolutionMethod.closed_form())


def unitary_factor(omega: float, t: float) -> complex:
    # any kernel will do: the unitary map does not read it
    return coherence_factor(omega, KernelParams(1.0, 1.0), t, EvolutionMethod.unitary())


def second_order_factor(omega: float, params: KernelParams, t: float) -> complex:
    """Exact exponential of the second-order (phase diffusion) generator."""
    return coherence_factor(omega, params, t, EvolutionMethod.second_order())


def milburn_factor(omega: float, params: KernelParams, t: float) -> complex:
    """Poisson-jump multiplier exp((t/tau2)(exp(-i omega tau1) - 1))."""
    return coherence_factor(omega, params, t, EvolutionMethod.milburn())


def quadrature_factor(omega: float, params: KernelParams, t: float,
                      tol: float = 1e-10) -> complex:
    """Kernel average of exp(-i omega t'), the quadrature oracle."""
    return coherence_factor(omega, params, t, EvolutionMethod.quadrature(tol))


def monte_carlo_factor(omega: float, samples: SampleSet) -> tuple[complex, float]:
    """Sample average of exp(-i omega t') and its standard error.

    The standard error combines the real and imaginary scatter:
    sqrt(var(Re) + var(Im)) / sqrt(N).
    """
    phases = np.exp(-1j * omega * samples.values)
    factor = complex(np.mean(phases))
    n = samples.count
    var = float(np.var(phases.real) + np.var(phases.imag))
    return factor, math.sqrt(var / n)


def evolve(
    rho0: DensityMatrix,
    spectrum: EnergySpectrum,
    params: KernelParams,
    t: float,
    method: EvolutionMethod,
) -> DensityMatrix:
    """Propagate rho0 to time t with the selected map.

    Populations are carried over bit-for-bit (their multiplier is the
    exact constant 1), so the trace is preserved exactly for every
    method, Monte Carlo included, and the multipliers of (n, m) and
    (m, n) are exact conjugates.
    """
    if rho0.dim != spectrum.dim:
        raise DimensionMismatchError(
            f"state dim {rho0.dim} != spectrum dim {spectrum.dim}"
        )
    factors = coherence_factors(bohr_frequencies(spectrum).omega, params, t, method)
    return DensityMatrix(rho0.entries * factors)


def milburn_frozen_frequencies(params: KernelParams, n_max: int) -> np.ndarray:
    """Frequencies omega = 2 pi n / tau1 where the Milburn map is the
    identity for all t (an artifact absent from the closed form)."""
    if n_max < 1:
        raise InvalidInputError(f"n_max must be >= 1, got {n_max}")
    return 2.0 * math.pi * np.arange(1, n_max + 1) / params.tau1
