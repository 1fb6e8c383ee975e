"""Shared helpers: random model generators, frozen closed-form matrices,
and the test-only oracles (numeric exponential, general generators and the
entry-by-entry checks of a transform pair, the marginal and log-density of
a joint law, the meter-weight bound function and the Arthurs-Kelly
errors)."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm as scipy_expm

from simqp import (
    ErrorPair,
    GaussianState,
    JointGaussian,
    LinearSimultaneousMeasurement,
    MinUncertaintyParams,
    ModelFamily,
    PropagatedTransform,
    SolvableGenerator,
    arthurs_kelly_model,
    make_probe_state,
    measurement_from_parts,
    propagate,
    qrms_errors,
    solve_couplings,
)
from simqp.dynamics import _coupling_product, evolved_rows, expm_coefficients
from simqp.phase_space import exceeds, max_abs

FAMILIES = (ModelFamily.X, ModelFamily.Y2, ModelFamily.Y0, ModelFamily.Z)

# symplectic form for the probe ordering (Q2, Q3, P2, P3)
OMEGA = np.block(
    [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
)


def symplectic_products(rows: np.ndarray) -> np.ndarray:
    """``R Omega R^T``: entry ``(i, j)`` is ``c`` in ``[r_i, r_j] = i hbar c``.

    ``rows`` has shape ``(..., k, 2m)`` in a (Q..., P...) order, whose
    symplectic form is ``Omega = [[0, I], [-I, 0]]``.
    """
    half = rows.shape[-1] // 2
    qp = rows[..., :half] @ np.swapaxes(rows[..., half:], -1, -2)
    return qp - np.swapaxes(qp, -1, -2)


def random_solvable_generator(rng) -> SolvableGenerator:
    """Random member of the closed-form-solvable generator class."""
    gamma2 = rng.uniform(-1.5, 1.5)
    e = rng.uniform(-2.0, 2.0)
    alpha1 = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
    alpha3 = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
    tau = rng.uniform(0.2, 2.0)
    return SolvableGenerator.from_couplings(alpha1, alpha3, gamma2, e, tau)


def random_pure_probe(rng, hbar: float = 1.0) -> GaussianState:
    """Random pure Gaussian probe: covariance (hbar/2) S S^T, S symplectic."""
    h = rng.normal(scale=0.4, size=(4, 4))
    h = 0.5 * (h + h.T)
    sp = scipy_expm(OMEGA @ h)
    cov = (hbar / 2.0) * sp @ sp.T
    mean = rng.normal(scale=1.0, size=4)
    return GaussianState(modes=(2, 3), mean=mean, cov=cov, hbar=hbar)


def random_measurement(rng, psi: MinUncertaintyParams):
    """Random solvable generator wired to a random (untuned) pure probe."""
    gen = random_solvable_generator(rng)
    return measurement_from_parts(gen, random_pure_probe(rng, psi.hbar))


def random_matched_measurement(rng, psi: MinUncertaintyParams):
    """Random model built to satisfy the achievability conditions.

    Draws (tau, gamma2, E, nu), solves the coupling equations, and tunes
    the probe to kappa = a22.  Returns (measurement, nu).
    """
    while True:
        gamma2 = rng.uniform(-1.0, 1.0)
        e = rng.uniform(-1.5, 1.5)
        tau = rng.uniform(0.3, 1.5)
        nu = rng.uniform(0.1, 0.9)
        try:
            alpha1, alpha3 = solve_couplings(nu, tau, gamma2, e)
        except ValueError:
            continue
        gen = SolvableGenerator.from_couplings(alpha1, alpha3, gamma2, e, tau)
        a22 = propagate(gen).a[1, 1]
        if abs(a22) < 0.05:
            continue
        probe = make_probe_state(nu, a22, psi)
        return measurement_from_parts(gen, probe), nu


def frozen_transform_a(family: ModelFamily, nu: float) -> np.ndarray:
    """Frozen closed form of e^{tau S} for the named families."""
    n = nu
    if family is ModelFamily.X:
        return np.array(
            [
                [-1.0, -4.0 / n, 0.0],
                [n, 2.0, -n * (1 - n) / 4.0],
                [0.0, -4.0 / (n * (1 - n)), 0.0],
            ]
        )
    if family is ModelFamily.Y2:
        return np.array(
            [
                [-1.0, -8.0 / n, 0.0],
                [n, 4.0, -n * (1 - n) / 8.0],
                [0.0, -8.0 / (n * (1 - n)), 0.0],
            ]
        )
    if family is ModelFamily.Y0:
        return np.array(
            [
                [1.0, 0.0, -(1 - n)],
                [n, 1.0, -n * (1 - n) / 2.0],
                [0.0, 0.0, 1.0],
            ]
        )
    if family is ModelFamily.Z:
        return np.array(
            [
                [1.0, 0.0, -(1 - n) / 2.0],
                [n, 2.0, -n * (1 - n) / 4.0],
                [0.0, 0.0, 0.5],
            ]
        )
    raise ValueError(family)


def frozen_transform_b(family: ModelFamily, nu: float) -> np.ndarray:
    """Frozen closed form of e^{-tau S^T} for the named families.

    The (1,3) entry of the X family is -4/(1-nu), the unique value
    compatible with A B^T = I (cross-checked against both exponential
    routes).
    """
    n = nu
    if family is ModelFamily.X:
        return np.array(
            [
                [-1.0, 0.0, -4.0 / (1 - n)],
                [0.0, 0.0, -4.0 / (n * (1 - n))],
                [1 - n, -n * (1 - n) / 4.0, 2.0],
            ]
        )
    if family is ModelFamily.Y2:
        return np.array(
            [
                [-1.0, 0.0, -8.0 / (1 - n)],
                [0.0, 0.0, -8.0 / (n * (1 - n))],
                [1 - n, -n * (1 - n) / 8.0, 4.0],
            ]
        )
    if family is ModelFamily.Y0:
        return np.array(
            [
                [1.0, -n, 0.0],
                [0.0, 1.0, 0.0],
                [1 - n, -n * (1 - n) / 2.0, 1.0],
            ]
        )
    if family is ModelFamily.Z:
        return np.array(
            [
                [1.0, -n / 2.0, 0.0],
                [0.0, 0.5, 0.0],
                [1 - n, -n * (1 - n) / 4.0, 2.0],
            ]
        )
    raise ValueError(family)


def frozen_generator(family: ModelFamily, nu: float) -> np.ndarray:
    """Frozen generator matrices S of the four families."""
    n = nu
    if family is ModelFamily.X:
        return np.array(
            [
                [0.0, -2.0 / n, -(1 - n) / 2.0],
                [n / 2.0, 1.0, 0.0],
                [2.0 / (1 - n), 0.0, -1.0],
            ]
        )
    if family is ModelFamily.Y2:
        return np.array(
            [
                [0.0, -4.0 / n, -(1 - n) / 2.0],
                [n / 2.0, 2.0, 0.0],
                [4.0 / (1 - n), 0.0, -2.0],
            ]
        )
    if family is ModelFamily.Y0:
        return np.array(
            [
                [0.0, 0.0, -(1 - n)],
                [n, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
    if family is ModelFamily.Z:
        return np.array(
            [
                [0.0, 0.0, n - 1.0],
                [n, 1.0, 0.0],
                [0.0, 0.0, -1.0],
            ]
        )
    raise ValueError(family)


def nu_grid_99():
    return [0.01 * k for k in range(1, 100)]


@dataclass(frozen=True, eq=False)
class InteractionParams:
    """Coupling coefficients of the bilinear three-mode interaction.

    ``alpha``, ``beta`` and ``gamma`` hold (a1, a2, a3), (b1, b2, b3) and
    (g1, g2, g3).  The overall strength K is fixed at 1: a nonunit K only
    rescales the measurement time (tau' = K tau), so it loses nothing.
    """

    alpha: tuple
    beta: tuple
    gamma: tuple

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            vals = tuple(float(v) for v in getattr(self, name))
            if len(vals) != 3:
                raise ValueError(f"{name} must have 3 entries, got {len(vals)}")
            object.__setattr__(self, name, vals)


def build_generator(params: InteractionParams) -> np.ndarray:
    """Generator matrix of the position sector, always traceless.

    Row/column layout follows the quadrature order (1, 2, 3)::

        [[g1 - g3, b1,      a3     ],
         [a1,      g2 - g1, b2     ],
         [b3,      a2,      g3 - g2]]
    """
    a1, a2, a3 = params.alpha
    b1, b2, b3 = params.beta
    g1, g2, g3 = params.gamma
    return np.array(
        [
            [g1 - g3, b1, a3],
            [a1, g2 - g1, b2],
            [b3, a2, g3 - g2],
        ]
    )


def closed_form_propagator(gen: SolvableGenerator, t: float) -> np.ndarray:
    """``e^{tS}`` by the three-branch closed form ``I + c1 S + c2 S^2``.

    Branch selection keys on the stored model constant ``gen.e``.
    """
    c1, c2 = expm_coefficients(gen.e, t)
    return np.eye(3) + c1 * gen.s + c2 * (gen.s @ gen.s)


def numeric_expm(m: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``e^{tM}`` by scaling and squaring.

    Independent oracle for the closed form: the scaled matrix is pushed
    below norm 1/2, a degree-18 Taylor polynomial is evaluated by Horner's
    scheme, and the result is squared back up.
    """
    m = np.asarray(m, dtype=float) * float(t)
    n = m.shape[0]
    norm = np.abs(m).sum(axis=1).max() if m.size else 0.0
    n_square = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    scaled = m / 2.0**n_square
    eye = np.eye(n)
    result = eye.copy()
    for k in range(18, 0, -1):
        result = eye + scaled @ result / k
    for _ in range(n_square):
        result = result @ result
    return result


def check_deviation(deviation: list, name: str, message: str, scale: float = 1.0) -> None:
    """Raise ``ValueError(message)`` if ``max |deviation|`` exceeds ``name``.

    The closeness test behind the matrix checks below, through
    :func:`exceeds` at the caller's natural ``scale``, on the entries of
    ``actual - expected`` as Python floats; a NaN or inf entry always fails.
    """
    worst = max_abs(deviation)
    if exceeds(name, worst, scale):
        if not math.isfinite(worst):
            raise ValueError(f"{message}: non-finite entries")
        raise ValueError(f"{message} (max deviation {worst:g})")


def check_cubic_identity(s: np.ndarray, e: float) -> None:
    """``S^3 = -E S`` entry by entry, to the ``identity`` entry times
    ``max(1, |E| max |s_ij|)``: the matrix form of the library's scalar
    sigma and delta checks, which reads the rounding of ``S^3`` as well."""
    entries = s.ravel().tolist()
    cubed = (s @ s @ s).ravel().tolist()
    scale = max(1.0, abs(e) * max(map(abs, entries)))
    deviation = [c + e * x for c, x in zip(cubed, entries)]
    check_deviation(deviation, "identity", "S^3 != -E S", scale)


def check_pair(ab: np.ndarray) -> None:
    """``A B^T = I`` entry by entry and ``det A = det B = 1`` by one batched
    LU call, all to the ``transform`` entry at scale 1: the matrix form of
    the library's scalar ``r`` check, which reads the rounding of both
    products as well."""
    a, b = ab[0], ab[1]
    deviation = (a @ b.T).ravel().tolist()  # A B^T - I; I has scale 1
    for k in (0, 4, 8):
        deviation[k] -= 1.0
    check_deviation(deviation, "transform", "A B^T != I")
    for name, det in zip("AB", np.linalg.det(ab).tolist()):
        if exceeds("transform", det - 1.0):
            raise ValueError(f"det({name}) = {det:g} != 1")


def checked_transform(a, b, tau: float) -> PropagatedTransform:
    """A :class:`PropagatedTransform` of any 3x3 pair, built once
    :func:`check_pair` passes it (``propagate`` builds only closed forms)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (3, 3) or b.shape != (3, 3):
        raise ValueError("A and B must both be 3x3")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    ab = np.array((a, b))
    ab.setflags(write=False)  # before its views are taken, so they inherit it
    check_pair(ab)
    transform = object.__new__(PropagatedTransform)
    vars(transform).update(ab=ab, a=ab[0], b=ab[1], tau=float(tau))
    return transform


def matrix_checked_stack(alpha1, alpha3, gamma2, e, tau) -> np.ndarray:
    """``[A, B]`` of couplings that pass ``from_couplings``' input checks, as
    ``propagate`` computes it, decided by the matrix checks instead of the
    scalar ones: :func:`check_cubic_identity`, then :func:`check_pair`.

    Raises ``ValueError`` where they refuse, and never warns.
    """
    prod = _coupling_product(gamma2, e)
    s = np.array((0.0, prod / alpha1, alpha3, alpha1, gamma2, 0.0, prod / alpha3, 0.0, -gamma2))
    s = s.reshape(3, 3)
    with np.errstate(all="ignore"):
        s2 = s @ s
        check_cubic_identity(s, float(e))
        c1, c2 = expm_coefficients(float(e), float(tau))
        powers = np.array(((s, -s.T), (s2, s2.T)))
        ab = c1 * powers[0]
        ab += np.eye(3)
        ab += c2 * powers[1]
        check_pair(ab)
    return ab


def measurement_from_matrix(r: np.ndarray, tau: float, probe: GaussianState):
    """Wire a general (not necessarily solvable) generator to a probe.

    The transform pair comes from the numeric exponential; preservation of
    the canonical commutation relations is still enforced on construction.
    """
    r = np.asarray(r, dtype=float)
    transform = checked_transform(numeric_expm(r, tau), numeric_expm(-r.T, tau), tau)
    return LinearSimultaneousMeasurement(
        probe=probe,
        rows=evolved_rows(transform)[[1, 5]],
        transform=transform,
    )


def marginal(joint: JointGaussian, indices) -> JointGaussian:
    """Marginal law of a subset of components."""
    idx = list(indices)
    return JointGaussian(
        labels=tuple(joint.labels[i] for i in idx),
        mean=joint.mean[idx],
        cov=joint.cov[np.ix_(idx, idx)],
    )


def log_density(joint: JointGaussian, x) -> np.ndarray:
    """Log of the density at point(s) ``x`` (shape (..., dim)).

    Computed in log space so values far from the mean do not underflow.
    Requires a nonsingular covariance.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    diff = x - joint.mean
    chol = np.linalg.cholesky(joint.cov)
    z = np.linalg.solve(chol, diff.T)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    out = -0.5 * (joint.dim * math.log(2.0 * math.pi) + log_det + (z**2).sum(axis=0))
    return out if out.size > 1 else float(out[0])


def lower_bound_l(a21: float, b31: float) -> float:
    """Meter-weight lower-bound function for the trade-off proof.

    ``l(a21, b31) = ((a21-1)^2 + (b31-1)^2)/4 + |a21 b31|/2``; its global
    minimum 1/4 is attained exactly on the segment a21, b31 >= 0 with
    a21 + b31 = 1.
    """
    return ((a21 - 1.0) ** 2 + (b31 - 1.0) ** 2) / 4.0 + abs(a21 * b31) / 2.0


def arthurs_kelly_errors(probe: GaussianState) -> ErrorPair:
    """Errors of the Arthurs-Kelly comparator for a given probe.

    Its noise operators ``Q2 + P3/2`` and ``-P2/2 + Q3`` have no system
    part, so the errors are the same in every packet; the default one
    with the probe's hbar is used.
    """
    return qrms_errors(arthurs_kelly_model(probe), MinUncertaintyParams(hbar=probe.hbar))
