"""Outcome statistics: joint Gaussians, conditionals, posteriors, mixtures.

Mutually commuting evolved quadratures have a genuine joint probability
distribution in a Gaussian state, fixed entirely by their means and
symmetrized covariances.  This module builds those joints, conditions
them on meter outcomes, draws Monte Carlo samples, and evaluates the
per-outcome post-measurement states and their region-restricted mixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurement import (
    POSTERIOR_FAMILIES,
    LinearSimultaneousMeasurement,
    ModelFamily,
    build_model,
)
from .dynamics import heisenberg_observables
from .phase_space import (
    GaussianState,
    MinUncertaintyParams,
    checked_covariance,
    commutator_coeff,
    linear_moments,
    make_min_uncertainty_state,
    position,
    momentum,
    tensor,
)

# observables may enter a joint distribution only if they commute to here
JOINT_COMMUTATOR_ATOL = 1e-12

# covariance eigenvalues in [-CLIP_ATOL, 0] are clipped to 0 when factoring
CLIP_ATOL = 1e-12


class NonCommutingObservablesError(ValueError):
    """A joint distribution was requested for a non-commuting pair."""


@dataclass(frozen=True, eq=False)
class JointGaussian:
    """Gaussian law of a list of commuting observables.

    The characteristic function is
    ``exp(i <m, k> - <k, V k> / 2)`` for mean ``m`` and covariance ``V``.
    """

    labels: tuple
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        labels = tuple(str(name) for name in self.labels)
        mean = np.array(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        d = len(labels)
        if mean.shape != (d,) or cov.shape != (d, d):
            raise ValueError(
                f"dimension mismatch: {d} labels, mean {mean.shape}, cov {cov.shape}"
            )
        cov = checked_covariance(cov, CLIP_ATOL)
        mean.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def marginal(self, indices) -> "JointGaussian":
        """Marginal law of a subset of components."""
        idx = list(indices)
        return JointGaussian(
            labels=tuple(self.labels[i] for i in idx),
            mean=self.mean[idx],
            cov=self.cov[np.ix_(idx, idx)],
        )

    def log_density(self, x) -> np.ndarray:
        """Log of the density at point(s) ``x`` (shape (..., dim)).

        Computed in log space so values far from the mean do not
        underflow.  Requires a nonsingular covariance.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        diff = x - self.mean
        chol = np.linalg.cholesky(self.cov)
        z = np.linalg.solve(chol, diff.T)
        log_det = 2.0 * np.sum(np.log(np.diag(chol)))
        out = -0.5 * (self.dim * math.log(2.0 * math.pi) + log_det + (z**2).sum(axis=0))
        return out if out.size > 1 else float(out[0])


def joint_distribution(
    observables, state: GaussianState, labels=None
) -> JointGaussian:
    """Joint Gaussian law of mutually commuting observables in a state.

    Args:
        observables: sequence of :class:`LinearObservable`, pairwise
            commuting (checked to ``1e-12``).
        state: Gaussian state supporting every observable's modes.
        labels: optional component names; defaults to f0, f1, ...

    Raises:
        NonCommutingObservablesError: naming the offending pair and its
            commutator coefficient.
    """
    obs = list(observables)
    if labels is None:
        labels = tuple(f"f{i}" for i in range(len(obs)))
    for i in range(len(obs)):
        for j in range(i + 1, len(obs)):
            c = commutator_coeff(obs[i], obs[j])
            if abs(c) > JOINT_COMMUTATOR_ATOL:
                raise NonCommutingObservablesError(
                    f"observables {labels[i]!r} and {labels[j]!r} do not "
                    f"commute: coefficient {c:g}"
                )
    mean, cov = linear_moments(state, obs)
    return JointGaussian(labels=tuple(labels), mean=mean, cov=cov)


def conditional(joint: JointGaussian, given, values) -> JointGaussian:
    """Condition a joint Gaussian on exact values of some components.

    Standard Gaussian conditioning: the conditional mean is affine in the
    observed values, the conditional covariance is the Schur complement
    and does not depend on them.

    Args:
        given: indices of the observed components.
        values: observed values, one per index.

    Raises:
        ValueError: if the conditioned block is singular.
    """
    given = list(given)
    values = np.asarray(values, dtype=float)
    if values.shape != (len(given),):
        raise ValueError(f"expected {len(given)} values, got shape {values.shape}")
    rest = [i for i in range(joint.dim) if i not in given]
    if not rest:
        raise ValueError("conditioning on every component leaves nothing")
    v_gg = joint.cov[np.ix_(given, given)]
    v_rg = joint.cov[np.ix_(rest, given)]
    try:
        chol = np.linalg.cholesky(v_gg)
    except np.linalg.LinAlgError:
        raise ValueError("conditioned block is singular; cannot condition on it")
    gain = np.linalg.solve(chol.T, np.linalg.solve(chol, v_rg.T)).T
    mean = joint.mean[rest] + gain @ (values - joint.mean[given])
    cov = joint.cov[np.ix_(rest, rest)] - gain @ v_rg.T
    return JointGaussian(
        labels=tuple(joint.labels[i] for i in rest), mean=mean, cov=cov
    )


def gauss_error(joint: JointGaussian, i: int = 0, j: int = 1) -> float:
    """Root mean square difference of two components.

    The closed-form Gaussian value of ``sqrt(int (x - y)^2 dmu)``:
    ``sqrt(V_ii + V_jj - 2 V_ij + (m_i - m_j)^2)``.
    """
    v = joint.cov
    m = joint.mean
    return math.sqrt(v[i, i] + v[j, j] - 2.0 * v[i, j] + (m[i] - m[j]) ** 2)


def _factor_covariance(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root with tiny negative eigenvalues clipped to 0."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    floor = -CLIP_ATOL * max(1.0, eigvals[-1])
    if eigvals[0] < floor:
        raise ValueError(
            f"covariance is not positive semidefinite "
            f"(smallest eigenvalue {eigvals[0]:g})"
        )
    return eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None)))


def sample(joint: JointGaussian, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. outcome vectors, deterministically in ``seed``.

    Exact-rank covariances (perfectly correlated components) sample fine
    thanks to the clipped symmetric square root.

    Returns:
        array of shape ``(n, dim)``.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    root = _factor_covariance(joint.cov)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((int(n), joint.dim))
    return joint.mean + z @ root.T


def _product_joint(m, psi, observables, labels) -> JointGaussian:
    """Joint law of ``observables`` in the product state psi x probe."""
    state = tensor(make_min_uncertainty_state(psi), m.probe)
    return joint_distribution(observables, state, labels=labels)


def meter_joint(
    m: LinearSimultaneousMeasurement, psi: MinUncertaintyParams
) -> JointGaussian:
    """Joint law of the two meters (Q2(tau), P3(tau)) in psi x probe."""
    return _product_joint(m, psi, [m.meter_q, m.meter_p], ("Q2(tau)", "P3(tau)"))


def q_pair_joint(
    m: LinearSimultaneousMeasurement, psi: MinUncertaintyParams
) -> JointGaussian:
    """Joint law of the target and its meter, (Q1(0), Q2(tau))."""
    return _product_joint(m, psi, [position(1), m.meter_q], ("Q1(0)", "Q2(tau)"))


def p_pair_joint(
    m: LinearSimultaneousMeasurement, psi: MinUncertaintyParams
) -> JointGaussian:
    """Joint law of the target and its meter, (P1(0), P3(tau))."""
    return _product_joint(m, psi, [momentum(1), m.meter_p], ("P1(0)", "P3(tau)"))


def check_posterior_family(family: ModelFamily) -> None:
    """Raise ``ValueError`` unless ``family`` has a known posterior family."""
    if family not in POSTERIOR_FAMILIES:
        raise ValueError(
            f"no posterior family is available for {ModelFamily(family).value!r}; "
            f"supported: {[f.value for f in POSTERIOR_FAMILIES]}"
        )


@dataclass(frozen=True)
class PosteriorFamily:
    """Outcome-indexed family of post-measurement system states.

    Every member is again a minimum uncertainty packet: position spread
    ``sqrt((1-nu)/nu) sigma1`` regardless of the outcome, means affine in
    the outcome pair.
    """

    nu: float
    psi: MinUncertaintyParams

    def __post_init__(self):
        if not 0.0 < self.nu < 1.0:
            raise ValueError(f"nu must lie strictly between 0 and 1, got {self.nu}")

    @property
    def var_q(self) -> float:
        return (1.0 - self.nu) / self.nu * self.psi.sigma1**2

    @property
    def var_p(self) -> float:
        return (self.psi.hbar / 2.0) ** 2 / self.var_q

    def mean_map(self, y) -> np.ndarray:
        """Affine outcome-to-mean map ((y1-(1-nu)q1)/nu, (y2-nu p1)/(1-nu))."""
        y1, y2 = float(y[0]), float(y[1])
        return np.array(
            [
                (y1 - (1.0 - self.nu) * self.psi.q1) / self.nu,
                (y2 - self.nu * self.psi.p1) / (1.0 - self.nu),
            ]
        )


def posterior_state(fam: PosteriorFamily, y) -> GaussianState:
    """Post-measurement system state for meter outcome ``y = (y1, y2)``."""
    return GaussianState(
        modes=(1,),
        mean=fam.mean_map(y),
        cov=np.diag([fam.var_q, fam.var_p]),
        hbar=fam.psi.hbar,
    )


@dataclass(frozen=True)
class PosteriorConsistencyReport:
    """Worst-case gaps between conditional and posterior-family moments."""

    family: ModelFamily
    nu: float
    n_outcomes: int
    max_mean_deviation: float
    max_var_deviation: float

    @property
    def max_deviation(self) -> float:
        return max(self.max_mean_deviation, self.max_var_deviation)


def _default_outcome_grid(joint: JointGaussian) -> list:
    """3x3 grid at the means +/- one spread of the meters, ``joint``'s last two."""
    mean = joint.mean[-2:]
    sd = np.sqrt(np.diag(joint.cov)[-2:])
    return [
        (mean[0] + dz * sd[0], mean[1] + dw * sd[1])
        for dz in (-1.0, 0.0, 1.0)
        for dw in (-1.0, 0.0, 1.0)
    ]


def posterior_consistency(
    family: ModelFamily,
    nu: float,
    psi: MinUncertaintyParams,
    outcomes=None,
) -> PosteriorConsistencyReport:
    """Check the posterior family against conditional evolved moments.

    Builds the triple joints (Q1(tau), Q2(tau), P3(tau)) and
    (P1(tau), Q2(tau), P3(tau)), conditions each on meter outcomes
    (z, w), and compares the conditional mean/variance of the evolved
    system quadratures against the posterior-family state at y = (z, w).

    Args:
        family: one of the families with a known posterior family.
        outcomes: iterable of (z, w) meter outcomes; defaults to a 3x3
            grid around the meter means.
    """
    check_posterior_family(family)
    m = build_model(family, nu, psi)
    q_out, p_out = heisenberg_observables(m.transform)
    meters = [m.meter_q, m.meter_p]
    joint_q = _product_joint(
        m, psi, [q_out[0], *meters], ("Q1(tau)", "Q2(tau)", "P3(tau)")
    )
    joint_p = _product_joint(
        m, psi, [p_out[0], *meters], ("P1(tau)", "Q2(tau)", "P3(tau)")
    )
    if outcomes is None:
        outcomes = _default_outcome_grid(joint_q)
    fam = PosteriorFamily(nu=nu, psi=psi)

    max_mean_dev = 0.0
    max_var_dev = 0.0
    count = 0
    for z, w in outcomes:
        expected_mean = fam.mean_map((z, w))
        expected_var = (fam.var_q, fam.var_p)
        for joint, k in ((joint_q, 0), (joint_p, 1)):
            cond = conditional(joint, given=(1, 2), values=(z, w))
            max_mean_dev = max(max_mean_dev, abs(cond.mean[0] - expected_mean[k]))
            max_var_dev = max(max_var_dev, abs(cond.cov[0, 0] - expected_var[k]))
        count += 1
    return PosteriorConsistencyReport(
        family=family,
        nu=nu,
        n_outcomes=count,
        max_mean_deviation=max_mean_dev,
        max_var_deviation=max_var_dev,
    )


@dataclass(frozen=True)
class OutcomeRegion:
    """Axis-aligned rectangle in meter-outcome space, possibly unbounded."""

    z_lo: float
    z_hi: float
    w_lo: float
    w_hi: float

    def __post_init__(self):
        if not (self.z_lo < self.z_hi and self.w_lo < self.w_hi):
            raise ValueError(
                f"region must have nonempty interior: "
                f"[{self.z_lo}, {self.z_hi}] x [{self.w_lo}, {self.w_hi}]"
            )

    @classmethod
    def full_plane(cls) -> "OutcomeRegion":
        return cls(-math.inf, math.inf, -math.inf, math.inf)


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _normal_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _normal_mass(a: float, b: float) -> float:
    """``P(a < Z < b)`` for a standard normal ``Z``, ``a < b``.

    Each tail is taken with ``erfc`` on its own side, so a far-out
    interval keeps its relative accuracy instead of cancelling as a
    difference of two CDF values near 1; mirrored intervals give
    identical masses.
    """
    if a >= 0.0:
        return 0.5 * (math.erfc(a / _SQRT2) - math.erfc(b / _SQRT2))
    if b <= 0.0:
        return 0.5 * (math.erfc(-b / _SQRT2) - math.erfc(-a / _SQRT2))
    return 1.0 - 0.5 * (math.erfc(-a / _SQRT2) + math.erfc(b / _SQRT2))


def _truncated_moments(mean: float, sd: float, lo: float, hi: float) -> tuple:
    """(mass, mean, variance) of a normal truncated to [lo, hi].

    Standard one-dimensional truncated-normal formulas; infinite bounds
    contribute vanishing boundary terms.
    """
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    mass = _normal_mass(a, b)
    if mass <= 0.0:
        return 0.0, math.nan, math.nan
    pdf_a = _normal_pdf(a) if math.isfinite(a) else 0.0
    pdf_b = _normal_pdf(b) if math.isfinite(b) else 0.0
    edge_a = a * pdf_a if math.isfinite(a) else 0.0
    edge_b = b * pdf_b if math.isfinite(b) else 0.0
    shift = (pdf_a - pdf_b) / mass
    var_factor = 1.0 + (edge_a - edge_b) / mass - shift**2
    return mass, mean + sd * shift, sd**2 * var_factor


def region_mixture_moments(
    family: ModelFamily,
    nu: float,
    psi: MinUncertaintyParams,
    region: OutcomeRegion,
) -> tuple:
    """Moments of the system state given the outcome fell inside a region.

    The post-measurement state restricted to region ``J`` is the mixture
    of posterior states weighted by the meter-outcome law, a Gaussian
    with mean (q1, p1) and covariance diag(nu sigma1^2,
    (1-nu) (hbar/(2 sigma1))^2) truncated to ``J``.  First and second
    moments follow from the affine posterior map and the law of total
    variance; the Q-P cross moment vanishes because the mixing measure
    factorizes and every posterior state is uncorrelated.

    Returns:
        ``(mean, cov)``: length-2 vector and 2x2 matrix over (Q1, P1).

    Raises:
        ValueError: if the region carries no outcome probability.
    """
    check_posterior_family(family)
    fam = PosteriorFamily(nu=nu, psi=psi)
    sd_z = math.sqrt(nu) * psi.sigma1
    sd_w = math.sqrt(1.0 - nu) * psi.sigma_p
    mass_z, mean_z, var_z = _truncated_moments(psi.q1, sd_z, region.z_lo, region.z_hi)
    mass_w, mean_w, var_w = _truncated_moments(psi.p1, sd_w, region.w_lo, region.w_hi)
    if mass_z * mass_w <= 0.0:
        raise ValueError(f"region {region} has zero outcome probability")
    mean = fam.mean_map((mean_z, mean_w))
    var_q = fam.var_q + var_z / nu**2
    var_p = fam.var_p + var_w / (1.0 - nu) ** 2
    return mean, np.diag([var_q, var_p])
