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
from .phase_space import (
    GaussianState,
    TARGET_ROWS,
    MinUncertaintyParams,
    _diagonal_state,
    _square,
    checked_covariance,
    checked_variances,
    linear_moments,
    make_min_uncertainty_state,
    product_moments,
    row_moments,
    symplectic_products,
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
    _check_commuting(symplectic_products(np.stack([f.row for f in obs])), labels)
    mean, cov = linear_moments(state, obs)
    return JointGaussian(labels=tuple(labels), mean=mean, cov=cov)


def _check_commuting(products: np.ndarray, labels) -> None:
    """Raise naming the first pair whose ``R Omega R^T`` entry exceeds the tolerance."""
    for i in range(len(products)):
        for j in range(i + 1, len(products)):
            c = float(products[i, j])
            if abs(c) > JOINT_COMMUTATOR_ATOL:
                raise NonCommutingObservablesError(
                    f"observables {labels[i]!r} and {labels[j]!r} do not "
                    f"commute: coefficient {c:g}"
                )


def _conditioning(joint: JointGaussian, given: list) -> tuple:
    """Conditioning on ``given``: returns ``(rest, gain, schur_cov)``.

    At values ``y`` of the given components, the ``rest`` have mean
    ``mean[rest] + gain @ (y - mean[given])`` and covariance ``schur_cov``.
    """
    rest = [i for i in range(joint.dim) if i not in given]
    if not rest:
        raise ValueError("conditioning on every component leaves nothing")
    v_gg = joint.cov[given][:, given]
    v_r = joint.cov[rest]
    v_rg = v_r[:, given]
    try:
        np.linalg.cholesky(v_gg)  # succeeds exactly when v_gg is positive definite
    except np.linalg.LinAlgError:
        raise ValueError("conditioned block is singular; cannot condition on it")
    gain = np.linalg.solve(v_gg, v_rg.T).T
    return rest, gain, v_r[:, rest] - gain @ v_rg.T


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
    rest, gain, cov = _conditioning(joint, given)
    mean = joint.mean[rest] + gain @ (values - joint.mean[given])
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
    """Factor ``L`` with ``L Lᵀ = cov``, tiny negative eigenvalues clipped to 0.

    ``cov`` is a ``JointGaussian`` covariance, already PSD to ``CLIP_ATOL``.
    """
    eigvals, eigvecs = np.linalg.eigh(cov)
    return eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None)))


def sample(joint: JointGaussian, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. outcome vectors, deterministically in ``seed``.

    Exact-rank covariances (perfectly correlated components) sample fine
    thanks to the clipped eigen-factorisation.

    Returns:
        array of shape ``(n, dim)``.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    root = _factor_covariance(joint.cov)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((int(n), joint.dim))
    return joint.mean + z @ root.T


def _product_joint(m, psi, rows, offsets, labels) -> JointGaussian:
    """Joint law of the global ``rows`` (plus ``offsets``) in psi x probe."""
    _, mu, v = product_moments(make_min_uncertainty_state(psi), m.probe)
    _check_commuting(symplectic_products(rows), labels)
    mean, cov = row_moments(rows, offsets, mu, v)
    return JointGaussian(labels=labels, mean=mean, cov=cov)


def meter_joint(
    m: LinearSimultaneousMeasurement, psi: MinUncertaintyParams
) -> JointGaussian:
    """Joint law of the two meters (Q2(tau), P3(tau)) in psi x probe."""
    return _product_joint(m, psi, m.rows, m.offsets, ("Q2(tau)", "P3(tau)"))


def q_pair_joint(
    m: LinearSimultaneousMeasurement, psi: MinUncertaintyParams
) -> JointGaussian:
    """Joint law of the target and its meter, (Q1(0), Q2(tau))."""
    rows = np.array((TARGET_ROWS[0], m.rows[0]))
    return _product_joint(m, psi, rows, (0.0, m.offsets[0]), ("Q1(0)", "Q2(tau)"))


def p_pair_joint(
    m: LinearSimultaneousMeasurement, psi: MinUncertaintyParams
) -> JointGaussian:
    """Joint law of the target and its meter, (P1(0), P3(tau))."""
    rows = np.array((TARGET_ROWS[1], m.rows[1]))
    return _product_joint(m, psi, rows, (0.0, m.offsets[1]), ("P1(0)", "P3(tau)"))


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
        inputs = dict(nu=self.nu, sigma1=self.psi.sigma1, hbar=self.psi.hbar)
        # var_p divides by var_q, so var_q is checked first
        checked_variances((("posterior Var(Q1)", self.var_q),), **inputs)
        checked_variances((("posterior Var(P1)", self.var_p),), **inputs)

    @property
    def var_q(self) -> float:
        return (1.0 - self.nu) / self.nu * _square(self.psi.sigma1)

    @property
    def var_p(self) -> float:
        return _square(self.psi.hbar / 2.0) / self.var_q

    def mean_map(self, y) -> np.ndarray:
        """Affine map ((y1-(1-nu)q1)/nu, (y2-nu p1)/(1-nu)) of y, shape (2, ...)."""
        y1, y2 = np.asarray(y, dtype=float)
        return np.array(
            [
                (y1 - (1.0 - self.nu) * self.psi.q1) / self.nu,
                (y2 - self.nu * self.psi.p1) / (1.0 - self.nu),
            ]
        )


def posterior_state(fam: PosteriorFamily, y) -> GaussianState:
    """Post-measurement system state for meter outcome ``y = (y1, y2)``.

    Its variances are the family's, which ``PosteriorFamily`` has checked.

    Raises:
        ValueError: if ``y`` is not one pair, or naming a posterior
            variance from 2**1023 on.
    """
    mean = fam.mean_map(y)
    if mean.shape != (2,):
        raise ValueError(f"mean must have shape (2,), got {mean.shape}")
    variances = (("posterior Var(Q1)", fam.var_q), ("posterior Var(P1)", fam.var_p))
    inputs = dict(nu=fam.nu, sigma1=fam.psi.sigma1, hbar=fam.psi.hbar)
    return _diagonal_state((1,), mean, variances, fam.psi.hbar, inputs)


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
    (P1(tau), Q2(tau), P3(tau)), conditions each once on the meters (one
    Schur complement serves every outcome), and compares the conditional
    mean/variance at each outcome y = (z, w) with the posterior family.

    Args:
        family: one of the families with a known posterior family.
        outcomes: iterable of (z, w) meter outcomes; defaults to a 3x3
            grid around the meter means.
    """
    check_posterior_family(family)
    m = build_model(family, nu, psi)
    # the triples (Q1(tau), Mq, Mp) and (P1(tau), Mq, Mp): Q1(tau) and
    # P1(tau) are row 1 of A and row 1 of B
    rows = np.zeros((2, 3, 6))
    rows[0, 0, :3] = m.transform.a[0]
    rows[1, 0, 3:] = m.transform.b[0]
    rows[:, 1:] = m.rows
    _, mu, v = product_moments(make_min_uncertainty_state(psi), m.probe)
    labels = ("f0", "f1", "f2")
    for products in symplectic_products(rows):
        _check_commuting(products, labels)
    offsets = np.concatenate(([0.0], m.offsets))
    joints = [
        JointGaussian(labels=labels, mean=mean, cov=cov)
        for mean, cov in zip(*row_moments(rows, offsets, mu, v))
    ]
    if outcomes is None:
        outcomes = _default_outcome_grid(joints[0])
    y = np.array([(z, w) for z, w in outcomes], dtype=float).reshape(-1, 2)
    fam = PosteriorFamily(nu=nu, psi=psi)

    max_mean_dev = 0.0
    max_var_dev = 0.0
    expected = zip(fam.mean_map(y.T), (fam.var_q, fam.var_p))
    for joint, (expected_mean, expected_var) in zip(joints, expected):
        _, gain, schur_cov = _conditioning(joint, [1, 2])
        var = checked_covariance(schur_cov, CLIP_ATOL)[0, 0]
        mean = joint.mean[0] + (y - joint.mean[1:]) @ gain[0]
        max_mean_dev = max([max_mean_dev, *abs(mean - expected_mean)])
        if len(y):
            max_var_dev = max(max_var_dev, abs(var - expected_var))
    return PosteriorConsistencyReport(
        family=family,
        nu=nu,
        n_outcomes=len(y),
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
    difference of two CDF values near 1.  An interval around 0 is the sum
    ``erf(b/sqrt2) + erf(-a/sqrt2)`` of two same-sign terms, so a narrow
    one keeps its mass instead of cancelling as ``1 - (tails)``.
    Mirrored intervals give identical masses.
    """
    if a >= 0.0:
        return 0.5 * (math.erfc(a / _SQRT2) - math.erfc(b / _SQRT2))
    if b <= 0.0:
        return 0.5 * (math.erfc(-b / _SQRT2) - math.erfc(-a / _SQRT2))
    return 0.5 * (math.erf(b / _SQRT2) - math.erf(a / _SQRT2))


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
    return mass, mean + sd * shift, _square(sd) * var_factor


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
    # dividing twice, as nu**2 underflows to 0 below nu ~ 1.5e-162
    var_q = fam.var_q + var_z / nu / nu
    var_p = fam.var_p + var_w / (1.0 - nu) / (1.0 - nu)
    return mean, np.diag([var_q, var_p])
