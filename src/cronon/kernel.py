"""The Gamma time kernel and its coarse-grain average.

The evolution-time kernel

    P(t, t') = (1/tau1) exp(-t'/tau1) (t'/tau1)^(t/tau2 - 1) / Gamma(t/tau2)

is a Gamma density in the effective time t' with shape k = t/tau2 and
scale tau1. Its first two moments are

    <t'>  = t * tau1 / tau2,
    sigma = tau1 * sqrt(t / tau2),

so the relative dispersion sigma/<t'> = sqrt(tau2/t) vanishes as the
number of elementary evolution events t/tau2 grows. The dual view is a
Poisson count of events: pmf(n) = (t/tau2)^n exp(-t/tau2) / n!.

coarse_grain() evaluates integrals of the form

    I = integral_0^inf P(t, t') f(t') dt'

to a requested absolute tolerance. For shape k < 1 the kernel has an
integrable singularity at t' = 0, and for k < 2 a singular derivative
there; both are handled by QUADPACK's algebraic-weight rule rather than
by sampling the raw integrand.

scipy is imported inside coarse_grain and poisson_pmf, the only callers
of QUADPACK and scipy.special, so importing the package does not pay
for it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, NumericFailureError

__all__ = [
    "KernelParams",
    "KernelMoments",
    "SampleSet",
    "gamma_pdf",
    "kernel_moments",
    "poisson_pmf",
    "tail_cutoff",
    "sample_effective_time",
    "coarse_grain",
]

#: Subinterval budget for the adaptive quadrature. Each subinterval costs
#: 21 integrand evaluations (Gauss-Kronrod 10-21), and the real and
#: imaginary parts are integrated separately, so the default keeps the
#: total near 2e4 evaluations per coarse_grain call.
QUAD_SUBINTERVAL_LIMIT = 480


@dataclass(frozen=True)
class KernelParams:
    """The two characteristic times of the generalized evolution.

    tau1 is the width of each elementary evolution event, tau2 (the
    cronon) the mean spacing between events. tau1 > tau2 is physically
    unusual but permitted; `ordering_advisory` flags it.
    """

    tau1: float
    tau2: float

    def __post_init__(self):
        for name in ("tau1", "tau2"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and 0 < value < math.inf):
                raise InvalidInputError(f"{name} must be a positive number, got {value!r}")

    @property
    def ordering_advisory(self) -> bool:
        """True when tau1 > tau2 (atypical ordering, allowed but flagged)."""
        return self.tau1 > self.tau2

    def shape(self, t: float) -> float:
        """Gamma shape parameter k = t/tau2 at laboratory time t."""
        return t / self.tau2


@dataclass(frozen=True)
class KernelMoments:
    """Mean, dispersion and relative dispersion of the effective time."""

    mean: float
    sigma: float
    relative_dispersion: float


@dataclass(frozen=True)
class SampleSet:
    """Deterministic draw of effective evolution times."""

    values: np.ndarray
    seed: int
    count: int

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def _shape(params: KernelParams, t: float) -> float:
    """The shape k = t/tau2 of a positive, finite t (k must be finite and > 0)."""
    if not (np.isfinite(t) and t > 0):
        raise InvalidInputError(f"t must be positive, got {t}")
    k = params.shape(t)
    if not 0.0 < k < math.inf:
        raise InvalidInputError(f"t/tau2 under- or overflows to {k!r} at t={t!r}, "
                                f"tau2={params.tau2!r}")
    return k


def gamma_pdf(params: KernelParams, t: float, tprime):
    """Kernel density P(t, t') at effective time(s) t'.

    Accepts a scalar or array t'. Computed in log space via log-Gamma so
    large shapes do not overflow. At t' = 0 the density is +inf for
    shape < 1 (integrable singularity), 1/tau1 at shape 1, and 0 above.
    """
    k = _shape(params, t)
    tp = np.asarray(tprime, dtype=float)
    if np.any(tp < 0) or not np.all(np.isfinite(tp)):
        raise InvalidInputError("tprime must be finite and non-negative")
    lam = tp / params.tau1
    with np.errstate(divide="ignore", invalid="ignore"):
        logpdf = -lam + (k - 1.0) * np.log(lam) - math.lgamma(k) - math.log(params.tau1)
        pdf = np.exp(logpdf)
    if k < 1.0:
        pdf = np.where(lam == 0.0, np.inf, pdf)
    elif k == 1.0:
        pdf = np.where(lam == 0.0, 1.0 / params.tau1, pdf)
    else:
        pdf = np.where(lam == 0.0, 0.0, pdf)
    return float(pdf) if np.isscalar(tprime) else pdf


def kernel_moments(params: KernelParams, t: float) -> KernelMoments:
    """Closed-form mean and dispersion of the effective evolution time."""
    k = _shape(params, t)
    mean = k * params.tau1
    sigma = params.tau1 * math.sqrt(k)
    return KernelMoments(mean=mean, sigma=sigma, relative_dispersion=1.0 / math.sqrt(k))


def poisson_pmf(params: KernelParams, t: float, n):
    """Probability of n elementary evolution events by laboratory time t."""
    from scipy import special

    mu = _shape(params, t)
    narr = np.asarray(n)
    if np.any(narr < 0) or not np.issubdtype(narr.dtype, np.integer):
        raise InvalidInputError("n must be a non-negative integer")
    logpmf = narr * math.log(mu) - mu - special.gammaln(narr + 1.0)
    pmf = np.exp(logpmf)
    return float(pmf) if np.isscalar(n) else pmf


def tail_cutoff(params: KernelParams, t: float, tail: float) -> float:
    """An effective time t' beyond which the kernel carries mass <= tail.

    Uses the Chernoff bound on the Gamma(k) tail, P(lam >= k r) <=
    (r e^(1-r))^k for r > 1, and solves k (r - 1 - ln r) = ln(1/tail) for
    u = r - 1 by Newton's method. The equation is convex and increasing
    in u, and the start u0 = c + sqrt(c^2 + 2c), c = ln(1/tail)/k, lies
    above its root (u - ln(1 + u) >= u^2 / (2 (1 + u))), so every
    iterate stays on the safe side of the root, up to rounding. Where a
    step would overflow (c > 1e153), one fixed-point step down for lam =
    k (1 + u) = ln(1/tail) + k (1 + ln(lam/k)) is the root to rounding;
    where u - ln(1 + u) cancels (c < 1e-20), so is u0, rounded upward.
    """
    k = _shape(params, t)
    if not (0.0 < tail < 1.0):
        raise InvalidInputError(f"tail must be in (0, 1), got {tail!r}")
    big = -math.log(tail)
    c = big / k
    u = c + math.sqrt(c) * math.sqrt(c + 2.0)
    if c > 1e153:  # k/lam < 1e-153, and lam = 2 ln(1/tail) lies above the root
        cutoff = params.tau1 * (big + k * (1.0 + math.log(2.0 * big) - math.log(k)))
    elif c < 1e-20:  # u0 exceeds the root by about c/3
        cutoff = params.tau1 * math.nextafter(k + k * u, math.inf)
    else:
        for _ in range(100):
            step = (u - math.log1p(u) - c) * (1.0 + u) / u
            u -= step
            if step <= 1e-13 * u:
                break
        cutoff = params.tau1 * k * (1.0 + u)
    if cutoff == math.inf:
        raise InvalidInputError(f"the tail cutoff overflows at tau1={params.tau1!r}, t/tau2={k!r}")
    return cutoff


def sample_effective_time(
    params: KernelParams, t: float, seed: int, count: int
) -> SampleSet:
    """Draw effective evolution times from the kernel.

    Uses numpy's Gamma generator (Marsaglia-Tsang with the shape < 1
    boost) on a PCG64 stream, so runs are bit-reproducible for a given
    (params, t, seed, count) on a fixed numpy version.
    """
    k = _shape(params, t)
    if count < 1:
        raise InvalidInputError(f"count must be >= 1, got {count}")
    rng = np.random.Generator(np.random.PCG64(seed))
    values = rng.gamma(shape=k, scale=params.tau1, size=count)
    return SampleSet(values=values, seed=seed, count=count)


def coarse_grain(
    params: KernelParams,
    t: float,
    f: Callable[[float], complex],
    tol: float = 1e-10,
) -> complex:
    """Kernel-weighted average integral_0^inf P(t, t') f(t') dt'.

    The intended integrands are unit-modulus oscillations and low-order
    polynomials in t'. The absolute error target `tol` is split between
    domain truncation and the adaptive quadrature: the dropped kernel
    tail carries mass tol/10 divided by the magnitude of f at the
    cutoff, which bounds the truncated contribution for any f of at
    most polynomial growth. Raises NumericFailureError with the
    achieved estimate when the budget of QUAD_SUBINTERVAL_LIMIT
    subintervals is not enough.
    """
    from scipy import special

    k = _shape(params, t)
    if not (tol > 0):
        raise InvalidInputError("tol must be positive")
    tau1 = params.tau1

    # Work in lam = t'/tau1 where the weight is the standard Gamma(k)
    # density; truncate to the central mass 1 - tail, widening the
    # window when f is large at the provisional cutoff.
    tail = tol / 10.0
    lam_hi = float(special.gammainccinv(k, tail / 2.0))
    fscale = max(1.0, abs(f(tau1 * lam_hi)))
    if fscale > 1.0:
        tail = tail / (2.0 * fscale)
        lam_hi = float(special.gammainccinv(k, tail / 2.0))
    eps = 0.4 * tol
    lgk = float(special.gammaln(k))

    if k < 2.0:
        # lam^(k-1) or its derivative blows up at 0 (QAGS then reports
        # roundoff at isolated points): hand the algebraic factor to QUADPACK
        # (QAWS weight (x-a)^alpha, alpha = k-1 > -1), integrate the rest.
        lam_lo, weight = 0.0, {"weight": "alg", "wvar": (k - 1.0, 0.0)}

        def weighted(lam):
            return math.exp(-lam - lgk) * f(tau1 * lam)
    else:
        lam_lo, weight = float(special.gammaincinv(k, tail / 2.0)), {}

        def weighted(lam):
            return math.exp(-lam + (k - 1.0) * math.log(lam) - lgk) * f(tau1 * lam)

    re, err_re = _quad_checked(lambda lam: weighted(lam).real, lam_lo, lam_hi, eps, **weight)
    im, err_im = _quad_checked(lambda lam: weighted(lam).imag, lam_lo, lam_hi, eps, **weight)

    achieved = err_re + err_im + tol / 10.0
    if achieved > tol:
        raise NumericFailureError(
            f"coarse_grain did not converge to tol={tol:.3e} "
            f"(achieved {achieved:.3e} with {QUAD_SUBINTERVAL_LIMIT} subintervals)",
            achieved_error=achieved,
        )
    return complex(re, im)


def _quad_checked(func, a, b, epsabs, **kwargs):
    from scipy import integrate

    result = integrate.quad(
        func, a, b, epsabs=epsabs, epsrel=0.0,
        limit=QUAD_SUBINTERVAL_LIMIT, full_output=1, **kwargs
    )
    value, abserr = result[0], result[1]
    if len(result) > 3:  # warning message appended: budget exhausted etc.
        raise NumericFailureError(
            f"quadrature did not converge: {result[3]}", achieved_error=abserr
        )
    return value, abserr
