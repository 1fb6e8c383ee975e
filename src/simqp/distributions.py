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

from .dynamics import evolved_rows
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
    _check_finite_mean,
    _checked_moments,
    _diagonal_state,
    _square,
    checked_covariance,
    checked_variances,
    exceeds,
    make_min_uncertainty_state,
    packet_probe_moments,
    row_moments,
    symplectic_products,
)


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
        mean, cov = _checked_moments(self.mean, self.cov, labels, "psd_law")
        vars(self).update(labels=labels, mean=mean, cov=cov)

    @property
    def dim(self) -> int:
        return len(self.labels)


def joint_distribution(
    rows: np.ndarray, mean: np.ndarray, cov: np.ndarray, labels=None
) -> JointGaussian:
    """Joint Gaussian law of mutually commuting rows in a state ``(mean, cov)``.

    Args:
        rows: ``(k, n)`` block, one observable per row on the state's ``n``
            coordinates in (Q..., P...) order, pairwise commuting (checked
            to the ``commutator`` entry of TOLERANCES).
        mean, cov: the state's mean and covariance.
        labels: optional component names; defaults to f0, f1, ...

    Raises:
        NonCommutingObservablesError: naming the offending pair and its
            commutator coefficient.
        ValueError: if ``labels`` does not name each row once, or if the
            rows' width is not the state's coordinate count.
    """
    if rows.shape[-1:] != mean.shape:
        raise ValueError(
            f"rows of shape {rows.shape} do not act on a state with mean of "
            f"shape {mean.shape}"
        )
    if labels is None:
        labels = [f"f{i}" for i in range(len(rows))]
    labels = tuple(labels)
    if len(labels) != len(rows):
        raise ValueError(
            f"dimension mismatch: {len(labels)} labels for {len(rows)} rows"
        )
    _check_commuting(symplectic_products(rows), labels)
    mean, cov = row_moments(rows, mean, cov)
    return JointGaussian(labels=labels, mean=mean, cov=cov)


def _check_commuting(products: np.ndarray, labels) -> None:
    """Raise naming the first pair whose ``R Omega R^T`` entry exceeds ``commutator``."""
    for i in range(len(products)):
        for j in range(i + 1, len(products)):
            c = float(products[i, j])
            if exceeds("commutator", c):
                raise NonCommutingObservablesError(
                    f"observables {labels[i]!r} and {labels[j]!r} do not "
                    f"commute: coefficient {c:g}"
                )


def _conditioning(cov: np.ndarray, given: list) -> tuple:
    """Condition a stack of laws on ``given``: returns ``(rest, gain, schur_cov)``.

    ``cov`` has shape ``(..., d, d)``, one covariance per law.  At values
    ``y`` of the given components, a law's ``rest`` have mean
    ``mean[rest] + gain @ (y - mean[given])`` and covariance ``schur_cov``.
    One gather reorders each covariance as ``[[V_rr, V_rg], [V_gr, V_gg]]``
    and the blocks are views of it.  ``given`` must hold distinct integers
    in ``range(d)``.
    """
    dim = cov.shape[-1]
    seen = set()
    for i in given:
        integer = isinstance(i, (int, np.integer)) and not isinstance(i, bool)
        if not integer or not 0 <= i < dim or i in seen:
            raise ValueError(
                f"given index {i!r} is not a distinct integer in range({dim})"
            )
        seen.add(i)
    rest = [i for i in range(dim) if i not in seen]
    if not rest:
        raise ValueError("conditioning on every component leaves nothing")
    order = np.array(rest + given)
    block = cov[..., order[:, None], order]
    r = len(rest)
    v_gg = block[..., r:, r:]
    v_gr = block[..., :r, r:].swapaxes(-1, -2)  # V_rg^T: unit stride along the contraction
    try:
        np.linalg.cholesky(v_gg)  # succeeds exactly when v_gg is positive definite
    except np.linalg.LinAlgError:
        raise ValueError("conditioned block is singular; cannot condition on it")
    gain = np.linalg.solve(v_gg, v_gr).swapaxes(-1, -2)
    return rest, gain, block[..., :r, :r] - gain @ v_gr


def conditional(joint: JointGaussian, given, values) -> JointGaussian:
    """Condition a joint Gaussian on exact values of some components.

    Standard Gaussian conditioning: the conditional mean is affine in the
    observed values, the conditional covariance is the Schur complement
    and does not depend on them.

    Args:
        given: indices of the observed components.
        values: observed values, one per index.

    Raises:
        ValueError: if an index is repeated or not an integer in
            ``range(joint.dim)``, if a value is not finite, or if the
            conditioned block is singular.
    """
    given = list(given)
    values = np.asarray(values, dtype=float)
    if values.shape != (len(given),):
        raise ValueError(f"expected {len(given)} values, got shape {values.shape}")
    rest, gain, cov = _conditioning(joint.cov, given)
    for i, value in zip(given, values.tolist()):
        if not math.isfinite(value):
            raise ValueError(
                f"value {value} given for {joint.labels[i]!r} is not finite"
            )
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

    ``cov`` is a ``JointGaussian`` covariance, already PSD to ``psd_law``.
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


def meter_joint(
    m: LinearSimultaneousMeasurement, psi: MinUncertaintyParams
) -> JointGaussian:
    """Joint law of the two meters (Q2(tau), P3(tau)) in psi x probe."""
    mu, v = packet_probe_moments(make_min_uncertainty_state(psi), m.probe)
    return joint_distribution(m.rows, mu, v, ("Q2(tau)", "P3(tau)"))


def q_pair_joint(
    m: LinearSimultaneousMeasurement, psi: MinUncertaintyParams
) -> JointGaussian:
    """Joint law of the target and its meter, (Q1(0), Q2(tau))."""
    rows = np.array((TARGET_ROWS[0], m.rows[0]))
    mu, v = packet_probe_moments(make_min_uncertainty_state(psi), m.probe)
    return joint_distribution(rows, mu, v, ("Q1(0)", "Q2(tau)"))


def p_pair_joint(
    m: LinearSimultaneousMeasurement, psi: MinUncertaintyParams
) -> JointGaussian:
    """Joint law of the target and its meter, (P1(0), P3(tau))."""
    rows = np.array((TARGET_ROWS[1], m.rows[1]))
    mu, v = packet_probe_moments(make_min_uncertainty_state(psi), m.probe)
    return joint_distribution(rows, mu, v, ("P1(0)", "P3(tau)"))


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
        ValueError: if ``y`` is not one pair, naming an outcome that is
            not finite or whose posterior mean overflows float64, or
            naming a posterior variance from 2**1023 on.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (2,):
        raise ValueError(f"outcome must be one pair (y1, y2), got shape {y.shape}")
    with np.errstate(over="ignore"):  # an overflow is refused below, by name
        mean = fam.mean_map(y)
    inputs = dict(nu=fam.nu, sigma1=fam.psi.sigma1, hbar=fam.psi.hbar)
    if not all(map(math.isfinite, mean.tolist())):
        given = ", ".join(f"{key}={val:g}" for key, val in inputs.items())
        y1, y2 = y.tolist()
        if not (math.isfinite(y1) and math.isfinite(y2)):
            raise ValueError(f"outcome (y1, y2) = ({y1}, {y2}) is not finite ({given})")
        raise ValueError(
            f"outcome (y1, y2) = ({y1:g}, {y2:g}) gives a posterior mean that "
            f"overflows float64 ({given})"
        )
    variances = (("posterior Var(Q1)", fam.var_q), ("posterior Var(P1)", fam.var_p))
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


def _default_outcome_grid(mean: np.ndarray, cov: np.ndarray) -> list:
    """3x3 grid at the means +/- one spread of the meters, the law's last two."""
    mean = mean[-2:]
    sd = np.sqrt(np.diag(cov)[-2:])
    return [
        (mean[0] + dz * sd[0], mean[1] + dw * sd[1])
        for dz in (-1.0, 0.0, 1.0)
        for dw in (-1.0, 0.0, 1.0)
    ]


#: evolved rows of (Q1(tau), Q2(tau), P3(tau)) and (P1(tau), Q2(tau), P3(tau))
_POSTERIOR_TRIPLES = np.array([[0, 1, 5], [3, 1, 5]])
_POSTERIOR_TRIPLES.setflags(write=False)

_TRIPLE_LABELS = ("f0", "f1", "f2")


def posterior_consistency(
    family: ModelFamily,
    nu: float,
    psi: MinUncertaintyParams,
    outcomes=None,
) -> PosteriorConsistencyReport:
    """Check the posterior family against conditional evolved moments.

    Builds the laws of the triples (Q1(tau), Q2(tau), P3(tau)) and
    (P1(tau), Q2(tau), P3(tau)) as one ``(2, 3)`` / ``(2, 3, 3)`` stack,
    checks and conditions both on the meters in one pass (one Schur
    complement per triple serves every outcome), and compares the
    conditional mean/variance at each outcome y = (z, w) with the
    posterior family.  Each triple gets every check a
    :func:`joint_distribution` law gets.

    Args:
        family: one of the families with a known posterior family.
        outcomes: iterable of (z, w) meter outcomes; defaults to a 3x3
            grid around the meter means.

    Raises:
        ValueError: for a family without a posterior family, naming an
            outcome that is not finite or whose conditional mean overflows,
            or from the checks of the laws.
    """
    check_posterior_family(family)
    m = build_model(family, nu, psi)
    rows = evolved_rows(m.transform).take(_POSTERIOR_TRIPLES, axis=0)
    for products in symplectic_products(rows):
        _check_commuting(products, _TRIPLE_LABELS)
    mu, v = packet_probe_moments(make_min_uncertainty_state(psi), m.probe)
    means, covs = row_moments(rows, mu, v)
    covs = checked_covariance(covs, "psd_law")
    for mean in means.tolist():
        _check_finite_mean(mean, _TRIPLE_LABELS)
    if outcomes is None:
        outcomes = _default_outcome_grid(means[0], covs[0])
    y = np.array([(z, w) for z, w in outcomes], dtype=float).reshape(-1, 2)
    for z, w in y.tolist():
        if not (math.isfinite(z) and math.isfinite(w)):
            raise ValueError(
                f"outcome (z, w) = ({z}, {w}) is not finite "
                f"(family {family.value}, nu={nu:g})"
            )
    fam = PosteriorFamily(nu=nu, psi=psi)

    _, gain, schur_cov = _conditioning(covs, [1, 2])
    var = checked_covariance(schur_cov, "psd_law")[:, 0, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        # each triple's conditional target mean at every outcome, shape (2, len(y))
        mean = means[:, :1] + ((y - means[:, None, 1:]) @ gain[:, 0, :, None])[..., 0]
        deviation = abs(mean - fam.mean_map(y.T))
    max_mean_dev = np.maximum.reduce(deviation, None, initial=0.0)
    if not math.isfinite(max_mean_dev):
        z, w = y[~np.isfinite(deviation).all(axis=0)][0].tolist()
        raise ValueError(
            f"outcome (z, w) = ({z:g}, {w:g}) is too large: its conditional mean, "
            f"or that mean's gap to the posterior family's, overflows float64 "
            f"(family {family.value}, nu={nu:g})"
        )
    max_var_dev = 0.0
    if len(y):
        max_var_dev = max(abs(var - (fam.var_q, fam.var_p)).tolist())
    return PosteriorConsistencyReport(
        family=family,
        nu=nu,
        n_outcomes=len(y),
        max_mean_deviation=float(max_mean_dev),
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
