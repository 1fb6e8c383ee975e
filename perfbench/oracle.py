"""Closed-form expectations the benchmark checks simqp's outputs against.

Every tolerance is relative to a named natural scale of the quantity it
guards (a packet variance, hbar^2/4, a posterior spread), never an
absolute epsilon, so a correct result is accepted at any sigma1 or hbar.
"""

from __future__ import annotations

import math

# relative tolerance on values the program computes through a chain of
# 3x3 / 6x6 matrix products (errors, residuals, conditional moments)
REL_TOL = 1e-9

# relative tolerance on region-mixture moments, which the program gets
# from differences of normal CDFs and the oracle from erfc on the tail side
REGION_REL_TOL = 1e-7

# mean z-scores of Monte Carlo draws must stay within this many standard errors
Z_LIMIT = 4.0

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def sigma_p(sigma1: float, hbar: float) -> float:
    return hbar / (2.0 * sigma1)


def close(actual: float, expected: float, scale: float, rel: float = REL_TOL) -> bool:
    return math.isfinite(actual) and abs(actual - expected) <= rel * scale


def family_errors(nu, sigma1, hbar):
    """Minimum-trade-off errors: eps_q^2 = (1-nu) sigma1^2, eps_p^2 = nu sigma_p^2."""
    return (1.0 - nu) * sigma1**2, nu * sigma_p(sigma1, hbar) ** 2


def joint_moments(which, nu, q1, p1, sigma1, hbar):
    """Mean and covariance of the named joint at minimum trade-off."""
    s2, h2 = sigma1**2, sigma_p(sigma1, hbar) ** 2
    if which == "meters":
        return (q1, p1), ((nu * s2, 0.0), (0.0, (1.0 - nu) * h2))
    if which == "q-pair":
        return (q1, q1), ((s2, nu * s2), (nu * s2, nu * s2))
    if which == "p-pair":
        return (p1, p1), ((h2, (1.0 - nu) * h2), ((1.0 - nu) * h2, (1.0 - nu) * h2))
    raise ValueError(f"unknown joint {which!r}")


JOINT_LABELS = {
    "meters": ("Q2(tau)", "P3(tau)"),
    "q-pair": ("Q1(0)", "Q2(tau)"),
    "p-pair": ("P1(0)", "P3(tau)"),
}


def conditional_moments(which, nu, q1, p1, sigma1, hbar, value):
    """Law of component 0 given component 1 equals ``value``."""
    (m0, m1), ((v00, v01), (_, v11)) = joint_moments(which, nu, q1, p1, sigma1, hbar)
    gain = v01 / v11
    return m0 + gain * (value - m1), v00 - gain * v01


def posterior_moments(nu, q1, p1, sigma1, hbar, y):
    """Posterior packet at outcome y: affine mean, outcome-free variances."""
    var_q = (1.0 - nu) / nu * sigma1**2
    var_p = (hbar / 2.0) ** 2 / var_q
    mean = ((y[0] - (1.0 - nu) * q1) / nu, (y[1] - nu * p1) / (1.0 - nu))
    return mean, (var_q, var_p)


def _phi(x: float) -> float:
    return INV_SQRT_2PI * math.exp(-0.5 * x * x) if math.isfinite(x) else 0.0


def _normal_mass(a: float, b: float) -> float:
    """P(a < Z < b) for standard normal Z, from erfc on the tail side."""
    if a >= 0.0:
        return 0.5 * (math.erfc(a / SQRT2) - math.erfc(b / SQRT2))
    if b <= 0.0:
        return 0.5 * (math.erfc(-b / SQRT2) - math.erfc(-a / SQRT2))
    return 1.0 - 0.5 * (math.erfc(-a / SQRT2) + math.erfc(b / SQRT2))


def truncated_moments(mean, sd, lo, hi):
    """(mean, variance) of N(mean, sd^2) restricted to [lo, hi]."""
    a, b = (lo - mean) / sd, (hi - mean) / sd
    mass = _normal_mass(a, b)
    pa, pb = _phi(a), _phi(b)
    ea = a * pa if math.isfinite(a) else 0.0
    eb = b * pb if math.isfinite(b) else 0.0
    shift = (pa - pb) / mass
    return mean + sd * shift, sd**2 * (1.0 + (ea - eb) / mass - shift**2)


def region_moments(nu, q1, p1, sigma1, hbar, rect):
    """Mean and diagonal covariance of the posterior mixture over ``rect``."""
    sp = sigma_p(sigma1, hbar)
    mz, vz = truncated_moments(q1, math.sqrt(nu) * sigma1, rect[0], rect[1])
    mw, vw = truncated_moments(p1, math.sqrt(1.0 - nu) * sp, rect[2], rect[3])
    mean, (var_q, var_p) = posterior_moments(nu, q1, p1, sigma1, hbar, (mz, mw))
    return mean, (var_q + vz / nu**2, var_p + vw / (1.0 - nu) ** 2)
