"""Simultaneous position-momentum measurement models and their errors.

A measurement couples the system packet to a two-mode probe for a time
tau and reads the evolved probe quadratures Q2(tau) and P3(tau) as the
position and momentum meters.  This module assembles concrete models (the
four named minimum-trade-off families plus the Arthurs-Kelly comparator),
computes the noise-operator errors by two independent routes, and checks
the trade-off bounds and the achievability conditions.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    PropagatedTransform,
    SolvableGenerator,
    _gamma2_squared,
    evolved_rows,
    expm_coefficients,
    propagate,
)
from .phase_space import (
    PACKET_SLOTS,
    PROBE_SLOTS,
    TARGET_ROWS,
    TOLERANCES,
    GaussianState,
    MinUncertaintyParams,
    _square,
    all_finite,
    exceeds,
    make_min_uncertainty_state,
    make_probe_state,
    max_abs,
    packet_probe_moments,
    quadratic_forms,
)


class ModelFamily(enum.Enum):
    """Named measurement models."""

    X = "x"
    Y2 = "y2"
    Y0 = "y0"
    Z = "z"
    ARTHURS_KELLY = "ak"

    @classmethod
    def from_string(cls, text: str) -> "ModelFamily":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(f.value for f in cls)
            raise ValueError(f"unknown family {text!r} (expected one of {valid})")


@dataclass(frozen=True)
class ModelRecipe:
    """Defining data of a minimum-trade-off family: time, couplings, probe scale."""

    tau: float
    gamma2: float
    e: float
    kappa: float


FAMILY_PARAMETERS = {
    ModelFamily.X: ModelRecipe(tau=math.pi / 2.0, gamma2=1.0, e=1.0, kappa=2.0),
    ModelFamily.Y2: ModelRecipe(tau=1.0, gamma2=2.0, e=0.0, kappa=4.0),
    ModelFamily.Y0: ModelRecipe(tau=1.0, gamma2=0.0, e=0.0, kappa=1.0),
    ModelFamily.Z: ModelRecipe(tau=math.log(2.0), gamma2=1.0, e=-1.0, kappa=2.0),
}

#: families whose per-outcome post-measurement states are known in closed form
POSTERIOR_FAMILIES = (ModelFamily.Y0, ModelFamily.Z)


@dataclass(frozen=True)
class ErrorPair:
    """Position and momentum q-rms errors of one measurement in one state."""

    eps_q: float
    eps_p: float

    def __post_init__(self):
        for name, val in (("eps_q", self.eps_q), ("eps_p", self.eps_p)):
            if not (math.isfinite(val) and val >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {val}")


@dataclass(frozen=True, eq=False, init=False)
class LinearSimultaneousMeasurement:
    """A probe state plus a commuting meter pair for (Q1, P1).

    The meters ``Mq`` and ``Mp`` are compared against Q1 and P1.  ``rows``
    holds them as one read-only ``(2, 6)`` block of global rows.  For the
    linear models they are Q2(tau) and P3(tau), ``evolved_rows(transform)[1::4]``,
    and the measurement time is ``transform.tau``; the Arthurs-Kelly
    comparator supplies its own block and carries no generator/transform.
    ``generator`` and ``transform`` are keyword-only.  Construction checks
    the probe modes, the block's shape and finiteness and the meters'
    commutator.
    """

    probe: GaussianState
    rows: np.ndarray
    generator: SolvableGenerator | None = None
    transform: PropagatedTransform | None = None

    def __init__(self, probe, rows, *, generator=None, transform=None):
        if probe.modes != (2, 3):
            raise ValueError(f"probe must live on modes (2, 3), got {probe.modes}")
        rows = np.array(rows, dtype=float)
        if rows.shape != (2, 6):
            raise ValueError(f"meter rows must have shape (2, 6), got {rows.shape}")
        entries = rows.ravel().tolist()
        if not all_finite(entries):  # refused before [Mq, Mp] reads them
            k = next(k for k, value in enumerate(entries) if not math.isfinite(value))
            meter, column = ("Mq", "Mp")[k // 6], k % 6
            raise ValueError(
                f"meter {meter} has coefficient {entries[k]} in column {column}: "
                "it must be finite"
            )
        # entry (0, 1) of symplectic_products(rows), the same product
        qp = (rows[:, :3] @ rows[:, 3:].T).tolist()
        c = qp[0][1] - qp[1][0]
        if exceeds("commutator", c):
            raise ValueError(f"meters do not commute: [Mq, Mp] = i*hbar*{c:g}")
        rows.setflags(write=False)
        # the class is frozen, so the fields go in through the instance dict:
        # a generated __init__ would pay one object.__setattr__ per field,
        # on every model built
        vars(self).update(probe=probe, rows=rows, generator=generator, transform=transform)


def solve_couplings(nu: float, tau: float, gamma2: float, e: float) -> tuple:
    """Couplings (alpha1, alpha3) placing the meter weights at (nu, 1-nu).

    Solves ``nu / alpha1 = (1 - nu) / (-alpha3) = F(tau, gamma2, E)``, where
    ``F = c1 + gamma2 c2`` with the :func:`expm_coefficients` of (E, tau).

    Raises:
        ValueError: if nu is outside (0, 1), tau is not positive, the time
            factor F is not finite or vanishes (no solution), or naming
            (nu, tau, gamma2, E, F) where a coupling alpha underflows to 0 or
            its partner b = -(gamma2^2 + E) / (2 alpha) overflows float64.
    """
    if not 0.0 < nu < 1.0:
        raise ValueError(f"nu must lie strictly between 0 and 1, got {nu}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    # Python floats: c1, c2 or gamma2 c2 leaving float64 gives inf or NaN
    # here without a warning, refused below by name
    c1, c2 = expm_coefficients(e, tau)
    factor = c1 + gamma2 * c2
    given = f"time factor F(tau={tau:g}, gamma2={gamma2:g}, E={e:g}) = {factor:g}"
    if not math.isfinite(factor):
        raise ValueError(f"{given} is not finite; the couplings are undetermined")
    if abs(factor) < TOLERANCES["degenerate_factor"]:
        raise ValueError(f"{given} is degenerate; the couplings are undetermined")
    alphas = nu / factor, -(1.0 - nu) / factor
    prod = -(_gamma2_squared(gamma2) + e) / 2.0  # b = prod / alpha, as from_couplings
    for j, alpha in zip((1, 3), alphas):
        if alpha == 0.0 or math.isinf(prod / alpha):
            problem = (
                f"alpha{j} underflows to 0" if alpha == 0.0
                else f"b{j} = {prod / alpha:g} overflows float64 at alpha{j} = {alpha:g}"
            )
            raise ValueError(
                f"coupling {problem} (nu={nu}, tau={tau:g}, gamma2={gamma2:g}, "
                f"E={e:g}, F={factor:g})"
            )
    return alphas


def build_model(
    family: ModelFamily, nu: float, psi: MinUncertaintyParams
) -> LinearSimultaneousMeasurement:
    """Assemble a minimum-trade-off model from its family recipe.

    Solves the coupling equations for the family's (tau, gamma2, E),
    propagates the generator, and attaches the probe state tuned to
    (nu, kappa).  The resulting transform has ``a21 = nu``,
    ``b31 = 1 - nu`` and ``a22 = kappa``.

    Args:
        family: one of X, Y2, Y0, Z (the comparator is built separately).
        nu: error split in (0, 1).
        psi: system packet the probe means/spreads are matched to.
    """
    if family not in FAMILY_PARAMETERS:
        raise ValueError(f"family {family} has no model recipe")
    recipe = FAMILY_PARAMETERS[family]
    alpha1, alpha3 = solve_couplings(nu, recipe.tau, recipe.gamma2, recipe.e)
    gen = SolvableGenerator.from_couplings(
        alpha1, alpha3, recipe.gamma2, recipe.e, recipe.tau
    )
    m = measurement_from_parts(gen, make_probe_state(nu, recipe.kappa, psi))
    a21, a22 = m.rows[0, :2].tolist()  # Q2(tau) = a21 Q1 + a22 Q2 + a23 Q3
    if exceeds("drift", a21 - nu) or exceeds("drift", a22 - recipe.kappa):
        raise RuntimeError(
            f"propagated weights (a21={a21:g}, a22={a22:g}) drifted from "
            f"(nu={nu}, kappa={recipe.kappa:g})"
        )
    return m


def measurement_from_parts(
    gen: SolvableGenerator, probe: GaussianState
) -> LinearSimultaneousMeasurement:
    """Wire an arbitrary solvable generator to an arbitrary probe state.

    The model reads ``Q2(tau)`` and ``P3(tau)``, rows 1 and 5 of the
    evolved block (a view, which the model copies).
    """
    transform = propagate(gen)
    rows = evolved_rows(transform)[1::4]
    return LinearSimultaneousMeasurement(probe, rows, generator=gen, transform=transform)


#: the Arthurs-Kelly meters ``Q1 + Q2 + P3/2`` and ``P1 - P2/2 + Q3`` as global rows
_ARTHURS_KELLY_ROWS = np.array(
    [[1.0, 1.0, 0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 1.0, 1.0, -0.5, 0.0]]
)
_ARTHURS_KELLY_ROWS.setflags(write=False)


def arthurs_kelly_model(probe: GaussianState) -> LinearSimultaneousMeasurement:
    """The Arthurs-Kelly comparator with its explicit meter maps.

    The evolved meters are ``Q1 + Q2 + P3/2`` and ``P1 - P2/2 + Q3``;
    both noise operators live entirely on the probe, so the errors are
    independent of the system state and always satisfy the multiplicative
    error bound eps_q * eps_p >= hbar/2.
    """
    return LinearSimultaneousMeasurement(probe, _ARTHURS_KELLY_ROWS)


def _noise_moments(
    m: LinearSimultaneousMeasurement, psi: MinUncertaintyParams
) -> tuple:
    """Means, probe-part variances and second moments of both noise operators.

    The noise operators ``N_q = Mq - Q1`` and ``N_p = Mp - P1`` are the
    ``(2, 6)`` block of the meter rows minus the rows of Q1 and P1,
    contracted against one ``(mu, V)`` of ``psi x probe``.  Each second
    moment is computed by two routes that must agree: route 1 splits it
    over the product state (system-part variance at the packet slots +
    probe-part variance at the probe slots + squared mean), route 2 is the
    direct second moment in the whole of ``V``.  Route 1 (the explicit
    representation) is returned.

    Returns:
        ``(means, var_probe, second)``, each a list of two floats ordered
        ``(N_q, N_p)``.  The probe part of a noise operator is the probe
        part of its meter.
    """
    packet = make_min_uncertainty_state(psi)
    mean, cov = packet_probe_moments(packet, m.probe)
    noise = m.rows - TARGET_ROWS
    # ``+ 0.0`` turns a -0.0 into 0.0, so a zero residual prints as 0.0, as
    # it did when a zero constant term was added to each mean
    means = [value + 0.0 for value in (noise[:, None, :] @ mean)[:, 0].tolist()]
    for name, value in zip(("N_q", "N_p"), means):
        if math.isinf(value * value):
            raise ValueError(
                f"noise mean <{name}> = {value:g} is too large: its square "
                f"overflows float64 (q1={psi.q1:g}, p1={psi.p1:g})"
            )
    var_probe = quadratic_forms(noise.take(PROBE_SLOTS, axis=1), m.probe.cov)
    system_part = quadratic_forms(noise.take(PACKET_SLOTS, axis=1), packet.cov)
    direct = quadratic_forms(noise, cov)
    explicit = []
    for system, probe, whole, value in zip(system_part, var_probe, direct, means):
        squared = value * value
        rep, mom = system + probe + squared, whole + squared
        if exceeds("error_route", rep - mom, max(1.0, abs(rep))):
            raise RuntimeError(
                f"error routes disagree: representation {rep!r} vs "
                f"noise moment {mom!r}"
            )
        explicit.append(rep)
    return means, var_probe, explicit


@functools.lru_cache(maxsize=1)
def _evaluation(m: LinearSimultaneousMeasurement, psi: MinUncertaintyParams) -> tuple:
    """:func:`_noise_moments` of ``m`` in ``psi``, kept for the last pair asked.

    The model compares by identity, and the cache holds it, so its identity
    cannot be reused; the frozen packet compares by value.  So
    :func:`qrms_errors` and :func:`check_theorem_conditions` of one model in
    one packet read the same lists, and an evaluation that raises keeps
    nothing, so it raises again.
    """
    return _noise_moments(m, psi)


def _error_pair(second) -> ErrorPair:
    """Errors from the squared errors ``(eps_q^2, eps_p^2)``."""
    return ErrorPair(math.sqrt(second[0]), math.sqrt(second[1]))


def qrms_errors(
    m: LinearSimultaneousMeasurement, psi: MinUncertaintyParams
) -> ErrorPair:
    """Noise-operator q-rms errors of the measurement in the packet psi.

    ``eps(Q1)^2 = <N_q^2>`` and ``eps(P1)^2 = <N_p^2>`` in the product of
    the system packet and the probe state.
    """
    _, _, second = _evaluation(m, psi)
    return _error_pair(second)


def branciard_ozawa_residual(errs: ErrorPair, psi: MinUncertaintyParams) -> float:
    """Left side minus right side of the quadratic error-trade-off bound.

    Returns ``eps_q^2 sigma(P1)^2 + sigma(Q1)^2 eps_p^2 - hbar^2/4``;
    nonnegative for every valid measurement, zero exactly at minimum
    trade-off.

    Raises:
        ValueError: naming the errors, sigma1 and hbar if a term overflows.
    """
    lhs = _square(errs.eps_q) * _square(psi.sigma_p) + _square(psi.sigma_q) * _square(errs.eps_p)
    residual = lhs - _square(psi.hbar / 2.0)
    if not math.isfinite(residual):
        raise ValueError(
            f"the Branciard-Ozawa residual overflows float64 (eps_q={errs.eps_q:g}, "
            f"eps_p={errs.eps_p:g}, sigma1={psi.sigma1:g}, hbar={psi.hbar:g})"
        )
    return residual


def heisenberg_product(errs: ErrorPair) -> float:
    """The multiplicative error product ``eps_q * eps_p``."""
    return errs.eps_q * errs.eps_p


def ozawa_inequality_residual(errs: ErrorPair, psi: MinUncertaintyParams) -> float:
    """Slack of the additive error-spread inequality.

    Returns ``eps_q eps_p + eps_q sigma(P1) + sigma(Q1) eps_p - hbar/2``;
    nonnegative for every measurement of the canonical pair in a pure
    state.
    """
    lhs = (
        errs.eps_q * errs.eps_p
        + errs.eps_q * psi.sigma_p
        + psi.sigma_q * errs.eps_p
    )
    return lhs - psi.hbar / 2.0


@dataclass(frozen=True)
class TheoremReport:
    """Residuals of the three achievability conditions plus the bound slack.

    ``cond_i_residuals`` are the noise-operator means (must vanish);
    ``cond_ii_residuals`` compare probe-part spreads against
    ``sqrt(|a21 b31|)`` times the packet spreads; ``cond_iii`` records
    (a21, b31, a21 + b31 - 1).  ``bo_residual`` is the quadratic bound
    slack for the same measurement.
    """

    cond_i_residuals: tuple
    cond_ii_residuals: tuple
    cond_iii: tuple
    passes_i: bool
    passes_ii: bool
    passes_iii: bool
    bo_residual: float

    @property
    def all_pass(self) -> bool:
        return self.passes_i and self.passes_ii and self.passes_iii

    @property
    def margins(self) -> dict:
        """Per condition, its largest ``|residual|`` over the ``condition``
        bound (scale 1): a condition passes exactly when its margin is <= 1,
        (iii) also needing a21 > 0 and b31 > 0.  A NaN residual gives a NaN
        margin, which fails as the check does."""
        bound = TOLERANCES["condition"]
        return {
            "i": max_abs(self.cond_i_residuals) / bound,
            "ii": max_abs(self.cond_ii_residuals) / bound,
            "iii": abs(self.cond_iii[2]) / bound,
        }

    def as_dict(self) -> dict:
        return {
            "cond_i_residuals": list(self.cond_i_residuals),
            "cond_ii_residuals": list(self.cond_ii_residuals),
            "cond_iii": {
                "a21": self.cond_iii[0],
                "b31": self.cond_iii[1],
                "sum_minus_one": self.cond_iii[2],
            },
            "passes": {
                "i": self.passes_i,
                "ii": self.passes_ii,
                "iii": self.passes_iii,
                "all": self.all_pass,
            },
            "margins": self.margins,
            "bo_residual": self.bo_residual,
        }


def check_theorem_conditions(
    m: LinearSimultaneousMeasurement,
    psi: MinUncertaintyParams,
) -> TheoremReport:
    """Evaluate the three conditions characterizing minimum trade-off.

    (i) both noise operators have zero mean in the product state;
    (ii) the probe parts of the meters have spreads
    ``sqrt(|a21 b31|) sigma(Q1)`` and ``sqrt(|a21 b31|) sigma(P1)``;
    (iii) the meter weights satisfy a21 > 0, b31 > 0, a21 + b31 = 1.
    All three hold together exactly when the quadratic bound is saturated.
    """
    (mean_q, mean_p), (var_probe_q, var_probe_p), second = _evaluation(m, psi)

    a21, b31 = m.rows.take((0, 9)).tolist()  # the Q1 weight of Mq, the P1 weight of Mp
    weight = math.sqrt(abs(a21 * b31))
    res_ii_q = math.sqrt(var_probe_q) - weight * psi.sigma_q
    res_ii_p = math.sqrt(var_probe_p) - weight * psi.sigma_p

    sum_res = a21 + b31 - 1.0
    passes_iii = a21 > 0.0 and b31 > 0.0 and not exceeds("condition", sum_res)

    return TheoremReport(
        cond_i_residuals=(mean_q, mean_p),
        cond_ii_residuals=(res_ii_q, res_ii_p),
        cond_iii=(a21, b31, sum_res),
        passes_i=not (exceeds("condition", mean_q) or exceeds("condition", mean_p)),
        passes_ii=not (exceeds("condition", res_ii_q) or exceeds("condition", res_ii_p)),
        passes_iii=passes_iii,
        bo_residual=branciard_ozawa_residual(_error_pair(second), psi),
    )
