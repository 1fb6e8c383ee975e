"""Outcome statistics: joint Gaussians, conditionals, posteriors, mixtures.

Mutually commuting evolved quadratures have a genuine joint probability
distribution in a Gaussian state, fixed entirely by their means and
symmetrized covariances.  This module builds those joints, conditions
them on meter outcomes, draws Monte Carlo samples, and evaluates the
per-outcome post-measurement states and their region-restricted mixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    _given,
    _square,
    all_finite,
    check_symmetric_covariance,
    checked_covariance,
    checked_variances,
    exceeds,
    make_min_uncertainty_state,
    packet_probe_moments,
    row_moments,
)


class NonCommutingObservablesError(ValueError):
    """A joint distribution was requested for a non-commuting pair."""


@dataclass(frozen=True, eq=False, init=False)
class JointGaussian:
    """Gaussian law of a list of commuting observables.

    The characteristic function is
    ``exp(i <m, k> - <k, V k> / 2)`` for mean ``m`` and covariance ``V``.
    The constructor runs every check of ``_checked_moments``; the laws
    this module builds are checked as they are built instead.
    """

    labels: tuple
    mean: np.ndarray
    cov: np.ndarray

    def __init__(self, labels, mean, cov):
        labels = tuple(str(name) for name in labels)
        mean, cov = _checked_moments(mean, cov, labels, "psd_law")
        # frozen: the fields go in through the instance dict
        vars(self).update(labels=labels, mean=mean, cov=cov)

    @property
    def dim(self) -> int:
        return len(self.labels)


def _law(labels: tuple, mean: np.ndarray, cov: np.ndarray) -> JointGaussian:
    """The law of moments that have passed the checks, as arrays the caller
    owns: they are made read-only and ``__init__``'s checks are skipped."""
    mean.setflags(write=False)
    cov.setflags(write=False)
    law = object.__new__(JointGaussian)
    vars(law).update(labels=labels, mean=mean, cov=cov)
    return law


def joint_distribution(
    rows: np.ndarray, mean: np.ndarray, cov: np.ndarray, labels=None
) -> JointGaussian:
    """Joint Gaussian law of mutually commuting rows in a state ``(mean, cov)``,
    checked by :func:`_checked_laws`.

    Args:
        rows: ``(k, n)`` block, one observable per row on the state's ``n``
            coordinates in (Q..., P...) order, pairwise commuting (checked
            to the ``commutator`` entry of TOLERANCES).
        mean, cov: the state's mean and covariance.
        labels: optional component names; defaults to f0, f1, ...

    Raises:
        NonCommutingObservablesError: naming the offending pair and its
            commutator coefficient.
        ValueError: if ``rows`` is not one 2-D block of at least one row,
            if ``labels`` does not name each row once, or if the rows' width
            is not the state's coordinate count ``n`` or ``cov`` is not
            ``(n, n)``.
    """
    if rows.ndim != 2 or not len(rows):
        raise ValueError(f"rows must be one (k, n) block, got shape {rows.shape}")
    if labels is None:
        labels = [f"f{i}" for i in range(len(rows))]
    labels = tuple(labels)
    means, cov = _checked_laws(rows, mean, cov, labels)
    return _law(tuple(str(name) for name in labels), means, cov)


def _checked_laws(rows: np.ndarray, mean: np.ndarray, cov: np.ndarray, labels) -> tuple:
    """Checked ``(means, covs)`` of a ``(..., k, n)`` stack of row blocks in
    one state ``(mean, cov)``, one law per block, named by ``labels``.

    Each law gets every check of the :class:`JointGaussian` constructor.
    The shapes of ``rows``, ``cov`` and ``labels`` are checked on entry,
    before any product.  Each covariance is mirrored from one triangle by
    :func:`row_moments`, so it is its own symmetrization and goes straight
    to :func:`check_symmetric_covariance`.
    """
    if rows.shape[-1:] != mean.shape:
        raise ValueError(
            f"rows of shape {rows.shape} do not act on a state with mean of "
            f"shape {mean.shape}"
        )
    *stack, d, n = rows.shape
    if cov.shape != (n, n):
        raise ValueError(
            f"cov of shape {cov.shape} is not the covariance of a state with "
            f"mean of shape {mean.shape}"
        )
    if len(labels) != d:
        raise ValueError(f"dimension mismatch: {len(labels)} labels for {d} rows")
    count = math.prod(stack)  # laws in the stack; reshape(-1, ...) fails at d = 0
    qp = rows[..., : n // 2] @ rows[..., n // 2 :].swapaxes(-1, -2)
    for block in qp.reshape(count, d, d).tolist():
        _check_commuting(block, labels)
    means, covs = row_moments(rows, mean, cov)
    check_symmetric_covariance(covs, covs.reshape(count, d * d).tolist(), "psd_law")
    for law_mean in means.reshape(count, d).tolist():
        _check_finite_mean(law_mean, labels)
    return means, covs


def _check_commuting(qp: list, labels) -> None:
    """Raise naming the first pair of rows whose ``R Omega R^T`` entry
    ``qp[i][j] - qp[j][i]`` exceeds the ``commutator`` entry, for ``qp`` the
    nested floats of ``Q P^T`` (position halves ``Q``, momentum halves ``P``)."""
    for i in range(len(qp)):
        for j in range(i + 1, len(qp)):
            c = qp[i][j] - qp[j][i]
            if exceeds("commutator", c):
                raise NonCommutingObservablesError(
                    f"observables {labels[i]!r} and {labels[j]!r} do not "
                    f"commute: coefficient {c:g}"
                )


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is refused as one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _rest(given: list, dim: int) -> list:
    """The components left by conditioning on ``given``, which must hold
    distinct integers in ``range(dim)`` and leave at least one."""
    seen = set()
    for i in given:
        if not _is_integer(i) or not 0 <= i < dim or i in seen:
            raise ValueError(
                f"given index {i!r} is not a distinct integer in range({dim})"
            )
        seen.add(i)
    rest = [i for i in range(dim) if i not in seen]
    if not rest:
        raise ValueError("conditioning on every component leaves nothing")
    return rest


def _conditioning(cov: np.ndarray, given: list) -> tuple:
    """Condition a stack of laws on ``given``: returns ``(rest, gain, schur_cov)``.

    ``cov`` has shape ``(..., d, d)``, one covariance per law.  At values
    ``y`` of the given components, a law's ``rest`` have mean
    ``mean[rest] + gain @ (y - mean[given])`` and covariance ``schur_cov``.
    The blocks are views of :func:`_grouped`'s ``[[V_rr, V_rg], [V_gr, V_gg]]``.
    """
    rest = _rest(given, cov.shape[-1])
    block = _grouped(cov, rest + given)
    r = len(rest)
    v_gg = block[..., r:, r:]
    v_gr = block[..., :r, r:].swapaxes(-1, -2)  # V_rg^T: unit stride along the contraction
    try:
        np.linalg.cholesky(v_gg)  # succeeds exactly when v_gg is positive definite
    except np.linalg.LinAlgError:
        raise ValueError("conditioned block is singular; cannot condition on it")
    gain = np.linalg.solve(v_gg, v_gr).swapaxes(-1, -2)
    return rest, gain, block[..., :r, :r] - gain @ v_gr


def _grouped(cov: np.ndarray, order: list) -> np.ndarray:
    """Each covariance with its rows and columns in ``order``: one gather, or
    ``cov`` itself where ``order`` is already ``0 .. d-1`` (no copy)."""
    if order == list(range(len(order))):
        return cov
    index = np.array(order)
    return cov[..., index[:, None], index]


def conditional(joint: JointGaussian, given, values) -> JointGaussian:
    """Condition a joint Gaussian on exact values of some components.

    Standard Gaussian conditioning: the conditional mean is affine in the
    observed values, the conditional covariance is the Schur complement
    and does not depend on them.  A pair conditioned on one component is
    decided without a factorisation (:func:`_condition_pair`).

    Args:
        given: indices of the observed components.
        values: observed values, one per index.

    Raises:
        ValueError: if an index is repeated or not an integer in
            ``range(joint.dim)``, if the conditioned block is singular, if
            a value is not finite, or naming the values whose conditional
            mean overflows float64.
    """
    given = list(given)
    values = np.asarray(values, dtype=float)
    if values.shape != (len(given),):
        raise ValueError(f"expected {len(given)} values, got shape {values.shape}")
    if len(given) == 1 and joint.dim == 2:
        return _condition_pair(joint, given, values.tolist())
    rest, gain, cov = _conditioning(joint.cov, given)
    floats = values.tolist()
    _check_given_values(joint, given, floats)
    cov = checked_covariance(cov, "psd_law")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, by name
        mean = joint.mean[rest] + gain @ (values - joint.mean[given])
    return _conditional_law(joint, given, floats, rest, mean, cov)


def _condition_pair(joint: JointGaussian, given: list, values: list) -> JointGaussian:
    """:func:`conditional` of a two-component law on one component, on floats.

    Both blocks are 1x1, so no ``numpy.linalg`` call is needed: the given
    variance passes the Cholesky test exactly when ``v > 0`` (which fails
    NaN), ``np.linalg.solve`` for its single right-hand side is one
    division, a one-term matmul is ``0.0 +`` its product, and the Schur
    complement is its own eigenvalue.  Every value has the bits of the
    stacked path, as ``tests/test_engine_oracle.py`` checks.
    """
    (g,), (value,) = given, values
    (r,) = _rest(given, 2)
    v = joint.cov.tolist()
    if not v[g][g] > 0.0:
        raise ValueError("conditioned block is singular; cannot condition on it")
    gain = v[r][g] / v[g][g]
    schur = [[v[r][r] - (gain * v[r][g] + 0.0)]]  # also its one matrix's flat entries
    _check_given_values(joint, given, values)
    cov = np.array(schur)
    check_symmetric_covariance(cov, schur, "psd_law")
    m = joint.mean.tolist()
    mean = m[r] + (gain * (value - m[g]) + 0.0)
    return _conditional_law(joint, given, values, [r], np.array([mean]), cov)


def _check_given_values(joint: JointGaussian, given: list, values: list) -> None:
    for i, value in zip(given, values):
        if not math.isfinite(value):
            raise ValueError(
                f"value {value} given for {joint.labels[i]!r} is not finite"
            )


def _conditional_law(joint, given, values, rest, mean, cov) -> JointGaussian:
    """The law of ``rest`` at the checked ``cov``, naming the given values if
    the mean overflowed (the joint's mean and the values are finite)."""
    labels = tuple(joint.labels[i] for i in rest)
    for label, m in zip(labels, mean.tolist()):
        if not math.isfinite(m):
            given_text = ", ".join(
                f"{joint.labels[i]!r} = {value:g}" for i, value in zip(given, values)
            )
            raise ValueError(
                f"conditioning on {given_text} overflows float64: the "
                f"conditional mean of {label!r} is {m}"
            )
    return _law(labels, mean, cov)


def gauss_error(joint: JointGaussian) -> float:
    """Root mean square difference of the first two components.

    The closed-form Gaussian value of ``sqrt(int (x - y)^2 dmu)``:
    ``sqrt(V_00 + V_11 - 2 V_01 + (m_0 - m_1)^2)``, on Python floats, so
    a value past float64 is ``inf`` with no warning.
    """
    v = joint.cov.tolist()
    m = joint.mean.tolist()
    return math.sqrt(v[0][0] + v[1][1] - 2.0 * v[0][1] + _square(m[0] - m[1]))


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

    Raises:
        ValueError: naming ``n`` unless it is an integer of at least 1, or
            ``seed`` unless it is a non-negative integer.
    """
    if not _is_integer(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not (_is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    root = _factor_covariance(joint.cov)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, joint.dim))
    draws = z @ root.T
    draws += joint.mean  # in place: the bits of mean + z @ root.T, one array fewer
    return draws


def _model_state(m: LinearSimultaneousMeasurement, psi: MinUncertaintyParams) -> tuple:
    """``(mu, V)`` of psi x probe, the state every joint of ``m`` is taken in."""
    return packet_probe_moments(make_min_uncertainty_state(psi), m.probe)


def meter_joint(
    m: LinearSimultaneousMeasurement, psi: MinUncertaintyParams
) -> JointGaussian:
    """Joint law of the two meters (Q2(tau), P3(tau)) in psi x probe."""
    return joint_distribution(m.rows, *_model_state(m, psi), ("Q2(tau)", "P3(tau)"))


def q_pair_joint(
    m: LinearSimultaneousMeasurement, psi: MinUncertaintyParams
) -> JointGaussian:
    """Joint law of the target and its meter, (Q1(0), Q2(tau))."""
    rows = np.array((TARGET_ROWS[0], m.rows[0]))
    return joint_distribution(rows, *_model_state(m, psi), ("Q1(0)", "Q2(tau)"))


def p_pair_joint(
    m: LinearSimultaneousMeasurement, psi: MinUncertaintyParams
) -> JointGaussian:
    """Joint law of the target and its meter, (P1(0), P3(tau))."""
    rows = np.array((TARGET_ROWS[1], m.rows[1]))
    return joint_distribution(rows, *_model_state(m, psi), ("P1(0)", "P3(tau)"))


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
    var_q: float = field(init=False, repr=False, compare=False)
    var_p: float = field(init=False, repr=False, compare=False)
    #: what a refusal of the family's values names: nu, sigma1 and hbar
    inputs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.nu < 1.0:
            raise ValueError(f"nu must lie strictly between 0 and 1, got {self.nu}")
        inputs = dict(nu=self.nu, sigma1=self.psi.sigma1, hbar=self.psi.hbar)
        var_q = (1.0 - self.nu) / self.nu * _square(self.psi.sigma1)
        checked_variances((("posterior Var(Q1)", var_q),), **inputs)
        var_p = _square(self.psi.hbar / 2.0) / var_q
        checked_variances((("posterior Var(P1)", var_p),), **inputs)
        # frozen: the derived fields go in through the instance dict
        vars(self).update(var_q=var_q, var_p=var_p, inputs=inputs)

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
    mean = _posterior_mean(fam, y, "outcome (y1, y2)")
    variances = (("posterior Var(Q1)", fam.var_q), ("posterior Var(P1)", fam.var_p))
    return _diagonal_state((1,), mean, variances, fam.psi.hbar, fam.inputs)


def _posterior_mean(fam: PosteriorFamily, y: np.ndarray, what: str):
    """``fam.mean_map(y)`` of one pair, refused as ``what`` where it is not finite."""
    with np.errstate(over="ignore"):  # an overflow is refused below, by name
        mean = fam.mean_map(y)
    if not all(map(math.isfinite, mean.tolist())):
        given = _given(fam.inputs)
        y1, y2 = y.tolist()
        if not (math.isfinite(y1) and math.isfinite(y2)):
            raise ValueError(f"{what} = ({y1}, {y2}) is not finite ({given})")
        raise ValueError(
            f"{what} = ({y1:g}, {y2:g}) gives a posterior mean that "
            f"overflows float64 ({given})"
        )
    return mean


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


#: the evolved rows of the triples (Q1(tau), Q2(tau), P3(tau)) and
#: (P1(tau), Q2(tau), P3(tau)): each target, then the meters
_POSTERIOR_TRIPLES = np.array([[0, 1, 5], [3, 1, 5]])


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
    posterior family.  Both triples pass :func:`_checked_laws`, the
    checks of every :func:`joint_distribution` law, and each 1x1 Schur
    complement is its own eigenvalue.

    Args:
        family: one of the families with a known posterior family.
        outcomes: iterable of one or more (z, w) meter outcomes; defaults
            to a 3x3 grid around the meter means.

    Raises:
        ValueError: for a family without a posterior family, if ``outcomes``
            is empty or holds an outcome that is not a pair, naming an
            outcome that is not finite or whose conditional mean overflows,
            or from the checks of the laws.
    """
    check_posterior_family(family)
    m = build_model(family, nu, psi)
    rows = evolved_rows(m.transform).take(_POSTERIOR_TRIPLES, axis=0)
    means, covs = _checked_laws(rows, *_model_state(m, psi), ("f0", "f1", "f2"))
    if outcomes is None:  # 3x3 grid at the meter means +/- one spread (first triple)
        _, z, w = means[0].tolist()
        sd_z, sd_w = math.sqrt(covs[0, 1, 1]), math.sqrt(covs[0, 2, 2])
        outcomes = [
            (z + dz * sd_z, w + dw * sd_w) for dz in (-1.0, 0.0, 1.0) for dw in (-1.0, 0.0, 1.0)
        ]
    outcomes = list(outcomes)  # read a second time only to name one that fails
    y = _outcome_array(outcomes)
    if y is None:
        for pair in outcomes:
            if _outcome_array([pair]) is None:
                raise ValueError(f"each outcome must be one (z, w) pair, got {pair!r}")
        raise ValueError("outcomes is empty: a report over no outcome checks nothing")
    for z, w in y.tolist():
        if not (math.isfinite(z) and math.isfinite(w)):
            raise ValueError(
                f"outcome (z, w) = ({z}, {w}) is not finite "
                f"(family {family.value}, nu={nu})"
            )
    fam = PosteriorFamily(nu=nu, psi=psi)

    _, gain, schur_cov = _conditioning(covs, [1, 2])
    var = schur_cov.reshape(2, 1).tolist()
    check_symmetric_covariance(schur_cov, var, "psd_law")
    with np.errstate(over="ignore", invalid="ignore"):
        # each triple's conditional target mean at every outcome, shape (2, len(y))
        mean = means[:, :1] + ((y - means[:, None, 1:]) @ gain[:, 0, :, None])[..., 0]
        deviation = abs(mean - fam.mean_map(y.T)).tolist()
    gaps = deviation[0] + deviation[1]
    if not all_finite(gaps):
        k = next(k for k, pair in enumerate(zip(*deviation)) if not all_finite(pair))
        z, w = y[k].tolist()
        raise ValueError(
            f"outcome (z, w) = ({z:g}, {w:g}) is too large: its conditional mean, "
            f"or that mean's gap to the posterior family's, overflows float64 "
            f"(family {family.value}, nu={nu})"
        )
    return PosteriorConsistencyReport(
        family=family,
        nu=nu,
        n_outcomes=len(y),
        max_mean_deviation=max(gaps),
        max_var_deviation=max(abs(var[0][0] - fam.var_q), abs(var[1][0] - fam.var_p)),
    )


def _outcome_array(outcomes: list) -> np.ndarray | None:
    """The ``(k, 2)`` floats of the list ``outcomes`` in one ``np.array``
    call, or None if there is none or one is not a pair of numbers (a
    two-digit string, a dict or a set is none)."""
    try:
        y = np.array(outcomes, dtype=float)
    except (TypeError, ValueError):  # not iterable (1.0, None), or not numbers ("a", "b")
        return None
    return y if y.shape[1:] == (2,) else None


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
    pdf_a, pdf_b = _normal_pdf(a), _normal_pdf(b)  # 0.0 at an infinite bound
    edge_a = a * pdf_a if pdf_a else 0.0  # not inf * 0.0, which is NaN
    edge_b = b * pdf_b if pdf_b else 0.0
    shift = (pdf_a - pdf_b) / mass
    var_factor = 1.0 + (edge_a - edge_b) / mass - _square(shift)
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
        ValueError: if the outcome mass of either axis of the region is 0
            in float64 (a product of two tiny masses may underflow; it is
            not tested), or naming its mean outcome or a variance that
            overflows float64.
    """
    check_posterior_family(family)
    fam = PosteriorFamily(nu=nu, psi=psi)
    sd_z = math.sqrt(nu) * psi.sigma1
    sd_w = math.sqrt(1.0 - nu) * psi.sigma_p
    mass_z, mean_z, var_z = _truncated_moments(psi.q1, sd_z, region.z_lo, region.z_hi)
    mass_w, mean_w, var_w = _truncated_moments(psi.p1, sd_w, region.w_lo, region.w_hi)
    if mass_z <= 0.0 or mass_w <= 0.0:
        raise ValueError(f"region {region} has zero outcome probability")
    mean = _posterior_mean(fam, np.array([mean_z, mean_w]), "region mean outcome (z, w)")
    # dividing twice, as nu**2 underflows to 0 below nu ~ 1.5e-162
    var_q = fam.var_q + var_z / nu / nu
    var_p = fam.var_p + var_w / (1.0 - nu) / (1.0 - nu)
    checked_variances((("region Var(Q1)", var_q), ("region Var(P1)", var_p)), **fam.inputs)
    return mean, np.diag([var_q, var_p])
