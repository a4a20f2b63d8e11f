"""Independent references the benchmark checks the package's outputs against.

Every formula here is written out with numpy, math or mpmath from the
paper's definitions; nothing is imported from the package. Functions
return ``None`` when an output agrees and a one-line reason when it
does not.
"""

from __future__ import annotations

import math

import numpy as np

#: Pinned tolerances of the acceptance suite (tests/test_acceptance.py).
ORACLE_QUAD_TOL = 1e-8
ORACLE_MC_SIGMAS = 4.0
RABI_FIT_REL_TOL = 0.02
#: Agreement of two evaluations of the same analytic formula.
FORMULA_ATOL = 1e-12


def rates(w, tau1, tau2):
    """gamma = ln(1 + x^2) / (2 tau2), nu = arctan(x) / tau2, x = w tau1."""
    x = np.asarray(w, dtype=float) * tau1
    return np.log1p(x * x) / (2.0 * tau2), np.arctan(x) / tau2


def factor(method, w, tau1, tau2, t):
    """Coherence multiplier of one analytic map; broadcasts over w and t."""
    w = np.asarray(w, dtype=float)
    t = np.asarray(t, dtype=float)
    x = w * tau1
    if method == "unitary":
        return np.exp(-1j * w * t)
    if method in ("closed_form", "quadrature", "monte_carlo"):
        gamma, nu = rates(w, tau1, tau2)
        return np.exp(-(gamma + 1j * nu) * t)
    if method == "finite_difference":
        k = np.rint(t / tau2)
        return np.exp(-k * np.log(1.0 + 1j * x))
    if method == "second_order":
        return np.exp((-1j * x - 0.5 * x * x) * t / tau2)
    if method == "milburn":
        return np.exp((t / tau2) * (np.exp(-1j * x) - 1.0))
    raise ValueError(f"no reference for method {method!r}")


def bohr(energies, hbar=1.0):
    e = np.asarray(energies, dtype=float)
    return (e[:, None] - e[None, :]) / hbar


def factor_matrix(method, energies, tau1, tau2, t):
    """Multipliers for every (n, m); exactly 1 where the Bohr frequency is 0."""
    w = bohr(energies)
    out = factor(method, w, tau1, tau2, t)
    return np.where(w == 0.0, 1.0 + 0.0j, out)


def structure(rho0, out):
    """Populations carried over bit for bit, hermiticity exact."""
    if not np.array_equal(np.diag(out), np.diag(rho0)):
        return "diagonal multiplier is not exactly 1"
    if not np.array_equal(out, out.conj().T):
        return "evolved state is not exactly Hermitian"
    return None


def close(name, got, want, atol):
    got = np.asarray(got)
    if got.shape != np.shape(want):
        return f"{name}: shape {got.shape} != {np.shape(want)}"
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= atol:
        return f"{name}: max deviation {err:.3e} > {atol:.1e}"
    return None


def analytic_evolution(method, rho0, energies, tau1, tau2, t, out):
    """An analytic map's output against its numpy formula."""
    want = rho0 * factor_matrix(method, energies, tau1, tau2, t)
    return structure(rho0, out) or close(method, out, want, FORMULA_ATOL)


def quadrature_evolution(rho0, energies, tau1, tau2, t, out):
    """The quadrature oracle within the pinned 1e-8 of the closed form."""
    want = rho0 * factor_matrix("closed_form", energies, tau1, tau2, t)
    return structure(rho0, out) or close("quadrature", out, want, ORACLE_QUAD_TOL)


def monte_carlo_evolution(rho0, energies, tau1, tau2, t, samples, out):
    """The Monte-Carlo oracle within 4 standard errors of the closed form.

    The standard error of each coherence is recomputed from the effective
    times ``samples`` the map drew: sqrt(var(cos w t') + var(sin w t')) / sqrt(N)
    times |rho0[n, m]|.
    """
    w = bohr(energies)
    want = rho0 * factor_matrix("closed_form", energies, tau1, tau2, t)
    stderr = np.zeros_like(w)
    for freq in np.unique(np.abs(w[w != 0.0])):
        phase = freq * samples
        se = math.sqrt((np.var(np.cos(phase)) + np.var(np.sin(phase))) / samples.size)
        stderr[np.abs(w) == freq] = se
    bound = ORACLE_MC_SIGMAS * stderr * np.abs(rho0) + FORMULA_ATOL
    dev = np.abs(out - want)
    if not np.all(dev <= bound):
        worst = float(np.max(dev / np.where(bound > 0, bound, np.inf)))
        return f"monte_carlo: deviation {worst:.2f} x the 4-standard-error bound"
    return structure(rho0, out)


def expectation_series(rho0, obs, energies, tau1, tau2, times):
    """Tr(rho(t) A) for every t under the closed form."""
    f = factor_matrix("closed_form", energies, tau1, tau2, np.asarray(times)[:, None, None])
    return np.einsum("tij,ji->t", rho0[None] * f, obs).real


def rabi(omega, tau1, tau2, times):
    """Closed-form population difference exp(-gamma t) cos(nu t)."""
    gamma, nu = rates(omega, tau1, tau2)
    times = np.asarray(times, dtype=float)
    return np.exp(-gamma * times) * np.cos(nu * times)


def fitted_rate(fitted, omega, tau1, tau2):
    gamma = float(rates(omega, tau1, tau2)[0])
    rel = abs(fitted - gamma) / gamma
    if not rel <= RABI_FIT_REL_TOL:
        return f"fitted gamma {fitted!r} is {rel:.2%} from {gamma!r}"
    return None


def epr(omega0, tau1, tau2, times):
    """(E_xx, E_yy, E_zz, singlet fidelity) of the decaying singlet."""
    re_f = factor("closed_form", omega0, tau1, tau2, np.asarray(times, dtype=float)).real
    return -re_f, -re_f, -np.ones_like(re_f), 0.5 * (1.0 + re_f)


def cat_density(mass, sigma_x, separation_d, hbar, tau1, tau2, t, x):
    """Two-packet density with the cross term damped at hbar D / (4 m sigma_x^3)."""
    omega_if = hbar * separation_d / (4.0 * mass * sigma_x**3)
    norm = (2.0 * math.pi * sigma_x**2) ** -0.25
    psi1 = norm * np.exp(-((x - separation_d / 2.0) ** 2) / (4.0 * sigma_x**2))
    psi2 = norm * np.exp(-((x + separation_d / 2.0) ** 2) / (4.0 * sigma_x**2))
    re_f = factor("closed_form", omega_if, tau1, tau2, t).real
    return 0.5 * psi1**2 + 0.5 * psi2**2 + psi1 * psi2 * re_f


def gamma_pdf(tau1, tau2, t, tprime):
    """Kernel density P(t, t'), a Gamma(t/tau2, tau1) density in t'."""
    k = t / tau2
    lam = np.asarray(tprime, dtype=float) / tau1
    with np.errstate(divide="ignore"):
        pdf = np.exp(-lam + (k - 1.0) * np.log(lam) - math.lgamma(k) - math.log(tau1))
    at_zero = math.inf if k < 1.0 else (1.0 / tau1 if k == 1.0 else 0.0)
    return np.where(lam == 0.0, at_zero, pdf)


def kernel_tail(tau1, tau2, t, tprime_max):
    """Kernel mass beyond t' = tprime_max (regularized upper incomplete Gamma)."""
    import mpmath

    return float(mpmath.gammainc(t / tau2, tprime_max / tau1, mpmath.inf, regularized=True))


def mp_closed_form(x, k):
    """(1 + i x)^(-k) in 50-digit arithmetic."""
    import mpmath

    with mpmath.workdps(50):
        return complex(mpmath.power(mpmath.mpc(1, x), -k))


def spot_check(x, k, got):
    """A closed-form factor at extreme w tau1 against mpmath.

    The allowed relative error grows with the condition number of
    exp(-k Log(1 + i x)), which is about k |Log(1 + i x)| ulps.
    """
    want = mp_closed_form(x, k)
    scale = abs(k * complex(math.log1p(x * x) / 2.0, math.atan(x)))
    tol = 64.0 * np.finfo(float).eps * (1.0 + scale)
    rel = abs(got - want) / abs(want)
    if not rel <= tol:
        return f"factor at w*tau1={x!r}, t/tau2={k!r}: relative error {rel:.2e} > {tol:.1e}"
    return None
