"""Phase-space primitives: global rows, Gaussian states and their kernels.

The system is one particle (mode 1) coupled to a two-mode probe (modes 2
and 3).  The global coordinate order is (Q1, Q2, Q3, P1, P2, P3): an
observable is a row of R^6 in that order (plus an offset), and the product
state psi x probe is one mean ``mu`` in R^6 and one covariance ``V`` in
R^{6x6}, with the packet at slots [0, 3] and the probe at [1, 2, 4, 5].
States defined on a subset of modes order their mean/covariance as (all
Q's, then all P's) with modes ascending; ``GaussianState.basis_index``
places them in the global order.  The row kernels (:func:`row_moments`,
:func:`quadratic_forms`, :func:`symplectic_products`) work on any leading
axes, and the covariance check :func:`checked_covariance` used across the
package lives here too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

#: modes a :class:`LinearObservable` may touch
MODES = (1, 2, 3)

# covariance matrices are accepted when their smallest eigenvalue is no
# more negative than this fraction of the largest one
PSD_RTOL = 1e-10

# from this magnitude on, an entry doubles past float64's largest value, so
# the symmetrisation 0.5 * (cov + cov.T) would turn it into inf
_SYMMETRISE_LIMIT = 2.0**1023


# packet states kept by make_min_uncertainty_state; about 0.75 kB each with
# its key, so a full cache holds under 1 MB
PACKET_CACHE_SIZE = 1024


class ModeMismatchError(ValueError):
    """An observable touches a mode the state is not defined on."""


def check_close(actual, expected, tol: float, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``max |actual - expected| <= tol``.

    The one closeness test behind every matrix identity check; callers
    pass ``tol`` already multiplied by their natural scale.  NaN or
    infinite entries on either side always fail.
    """
    deviation = np.abs(np.subtract(actual, expected))
    worst = float(np.maximum.reduce(deviation, None, initial=0.0))
    if not math.isfinite(worst):
        raise ValueError(f"{message}: non-finite entries")
    if worst > tol:
        raise ValueError(f"{message} (max deviation {worst:g})")


def checked_covariance(cov: np.ndarray, psd_rtol: float) -> np.ndarray:
    """Symmetrized read-only ``cov``, PSD to ``psd_rtol * max(1, top eigenvalue)``."""
    largest = np.maximum.reduce(np.abs(cov), None)
    check_close(
        cov, cov.T, 1e-12 * max(1.0, largest), "covariance matrix is not symmetric"
    )
    if largest >= _SYMMETRISE_LIMIT:
        raise ValueError(
            f"covariance matrix entry {largest:g} is too large: "
            "symmetrising it overflows float64"
        )
    cov = 0.5 * (cov + cov.T)
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals[0] < -psd_rtol * max(1.0, eigvals[-1]):
        raise ValueError(
            f"covariance matrix is not positive semidefinite "
            f"(smallest eigenvalue {eigvals[0]:g})"
        )
    cov.setflags(write=False)
    return cov


def _named_error(name: str, value: float, problem: str, inputs: dict) -> ValueError:
    given = ", ".join(f"{key}={val:g}" for key, val in inputs.items())
    return ValueError(f"{name} = {value:g} {problem} ({given})")


def checked_variances(variances, **inputs) -> None:
    """Raise ``ValueError`` naming the first variance that is not finite and positive.

    ``variances`` holds ``(name, value)`` pairs; the message also lists
    the ``inputs`` they were computed from.
    """
    for name, value in variances:
        if not 0.0 < value < math.inf:
            raise _named_error(name, value, "is not finite and positive", inputs)


def _square(x: float) -> float:
    """``x**2``, or ``inf`` where that overflows float64."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _as_coeffs(values) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    if out.shape != (3,):
        raise ValueError(f"expected 3 coefficients, got shape {out.shape}")
    return out


@dataclass(frozen=True, eq=False)
class LinearObservable:
    """Real affine combination of the six quadratures.

    Represents ``sum_j coeff_q[j] Q_{j+1} + sum_j coeff_p[j] P_{j+1}
    + offset``.  ``row`` is the global row ``(coeff_q, coeff_p)``, and the
    two coefficient triples are read-only views of it.  Supports addition,
    subtraction and scalar multiplication; the zero observable has all
    coefficients and offset zero.
    """

    coeff_q: np.ndarray
    coeff_p: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        row = np.concatenate((_as_coeffs(self.coeff_q), _as_coeffs(self.coeff_p)))
        row.setflags(write=False)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "coeff_q", row[:3])
        object.__setattr__(self, "coeff_p", row[3:])
        object.__setattr__(self, "offset", float(self.offset))

    @staticmethod
    def zero() -> "LinearObservable":
        return LinearObservable(np.zeros(3), np.zeros(3), 0.0)

    @property
    def modes(self) -> frozenset:
        """Modes carrying a nonzero coefficient."""
        return frozenset(
            j for j in MODES if self.coeff_q[j - 1] != 0.0 or self.coeff_p[j - 1] != 0.0
        )

    def restrict(self, modes) -> "LinearObservable":
        """Keep only the coefficients of the given modes (offset dropped)."""
        keep = set(modes)
        mask = np.array([1.0 if j in keep else 0.0 for j in MODES])
        return LinearObservable(self.coeff_q * mask, self.coeff_p * mask, 0.0)

    def __add__(self, other: "LinearObservable") -> "LinearObservable":
        return LinearObservable(
            self.coeff_q + other.coeff_q,
            self.coeff_p + other.coeff_p,
            self.offset + other.offset,
        )

    def __sub__(self, other: "LinearObservable") -> "LinearObservable":
        return self + (-other)

    def __neg__(self) -> "LinearObservable":
        return (-1.0) * self

    def __mul__(self, scalar: float) -> "LinearObservable":
        scalar = float(scalar)
        return LinearObservable(
            scalar * self.coeff_q, scalar * self.coeff_p, scalar * self.offset
        )

    __rmul__ = __mul__

    def __repr__(self):
        terms = []
        for j in MODES:
            if self.coeff_q[j - 1]:
                terms.append(f"{self.coeff_q[j - 1]:+g}*Q{j}")
            if self.coeff_p[j - 1]:
                terms.append(f"{self.coeff_p[j - 1]:+g}*P{j}")
        if self.offset or not terms:
            terms.append(f"{self.offset:+g}")
        return f"LinearObservable({' '.join(terms)})"


def position(mode: int) -> LinearObservable:
    """The quadrature ``Q_mode``."""
    e = np.zeros(3)
    e[mode - 1] = 1.0
    return LinearObservable(e, np.zeros(3), 0.0)


def momentum(mode: int) -> LinearObservable:
    """The quadrature ``P_mode``."""
    e = np.zeros(3)
    e[mode - 1] = 1.0
    return LinearObservable(np.zeros(3), e, 0.0)


def commutator_coeff(f: LinearObservable, g: LinearObservable) -> float:
    """Coefficient ``c`` in ``[f, g] = i*hbar*c*1``.

    Follows from the canonical relations: same-mode Q/P pairs contribute,
    everything else commutes.  Offsets never enter a commutator.
    """
    return float(f.coeff_q @ g.coeff_p - f.coeff_p @ g.coeff_q)


@dataclass(frozen=True)
class MinUncertaintyParams:
    """Parameters (q1, p1, sigma1) of the system's Gaussian wave packet.

    The packet has position mean ``q1``, momentum mean ``p1``, position
    spread ``sigma1`` and momentum spread ``hbar / (2 sigma1)``, so the
    uncertainty product is exactly ``hbar / 2``.
    """

    q1: float = 0.0
    p1: float = 0.0
    sigma1: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not self.sigma1 > 0:
            raise ValueError(f"sigma1 must be positive, got {self.sigma1}")
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    @property
    def sigma_q(self) -> float:
        return self.sigma1

    @property
    def sigma_p(self) -> float:
        """Momentum spread ``hbar / (2 sigma1)``."""
        return self.hbar / (2.0 * self.sigma1)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian state on a subset of the three modes.

    Every instance satisfies what :func:`checked_covariance` checks, by
    one of three routes: the constructor runs the check; :func:`tensor`
    forms the direct sum of two states that satisfy it; or a diagonal
    covariance is built from variances that :func:`checked_variances`
    passed (the packet, the tuned probe and the posterior states), whose
    eigenvalues are those variances.

    Args:
        modes: ascending tuple of distinct modes from {1, 2, 3}.
        mean: length ``2m`` vector, all Q means then all P means.
        cov: symmetric positive-semidefinite ``2m x 2m`` matrix in the
            same (Q..., P...) ordering; symmetrized second moments.
        hbar: value of the commutator scale attached to the state.
    """

    modes: tuple
    mean: np.ndarray
    cov: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        modes = _checked_modes(tuple(self.modes))
        object.__setattr__(self, "modes", modes)
        m = len(modes)
        mean = np.array(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (2 * m,):
            raise ValueError(f"mean must have shape ({2 * m},), got {mean.shape}")
        if cov.shape != (2 * m, 2 * m):
            raise ValueError(f"cov must have shape ({2 * m}, {2 * m}), got {cov.shape}")
        cov = checked_covariance(cov, PSD_RTOL)
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "hbar", float(self.hbar))

    @property
    def basis_index(self) -> np.ndarray:
        """Positions of the (Q..., P...) coordinates in (Q1, Q2, Q3, P1, P2, P3)."""
        return _slots(self.modes)[0]


@functools.lru_cache(maxsize=None)  # keyed by mode tuples, so at most a few entries
def _checked_modes(modes: tuple) -> tuple:
    """``modes`` as ints, if they are distinct members of MODES in ascending order."""
    modes = tuple(int(j) for j in modes)
    if len(set(modes)) != len(modes) or not set(modes) <= set(MODES):
        raise ValueError(f"modes must be distinct members of {MODES}: {modes}")
    if list(modes) != sorted(modes):
        raise ValueError(f"modes must be ascending: {modes}")
    return modes


@functools.lru_cache(maxsize=None)  # keyed by mode tuples, so at most a few entries
def _slots(modes: tuple) -> tuple:
    """Global slots of ascending ``modes``' (Q..., P...) coordinates, and the
    flat indices of their covariance block in a 6x6 matrix."""
    idx = np.array([j - 1 for j in modes] + [j + 2 for j in modes])
    flat = (6 * idx[:, None] + idx).ravel()
    idx.setflags(write=False)
    flat.setflags(write=False)
    return idx, flat


#: global slots of the packet (Q1, P1) and of the probe (Q2, Q3, P2, P3)
PACKET_SLOTS = _slots((1,))[0]
PROBE_SLOTS = _slots((2, 3))[0]

#: the global rows of Q1 and P1, the quadratures the meters estimate
TARGET_ROWS = np.eye(6)[PACKET_SLOTS]
TARGET_ROWS.setflags(write=False)


def _valid_state(modes: tuple, mean: np.ndarray, cov: np.ndarray, hbar: float):
    """A :class:`GaussianState` whose covariance is valid by construction.

    The caller guarantees what :func:`checked_covariance` would check: a
    symmetric PSD ``cov`` with every entry below 2**1023 (``tensor``, and
    :func:`_diagonal_state`, which refuses larger variances by name).  The
    arrays are made read-only and no check runs again.
    """
    mean.setflags(write=False)
    cov.setflags(write=False)
    state = object.__new__(GaussianState)  # skips __post_init__
    vars(state).update(modes=modes, mean=mean, cov=cov, hbar=float(hbar))
    return state


def _diagonal_state(modes: tuple, mean, variances, hbar: float, inputs: dict):
    """State on ascending ``modes`` whose covariance is ``diag`` of ``variances``.

    ``variances`` holds ``(name, value)`` pairs in (Q..., P...) order that
    :func:`checked_variances` has passed.  A diagonal matrix of positive
    finite entries is symmetric and PSD, its eigenvalues being its entries
    (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012), sec. II), so the
    only part of :func:`checked_covariance` left to run is its refusal of
    an entry from 2**1023 on.  That refusal names the variance and the
    ``inputs`` it was computed from.
    """
    for name, value in variances:
        if value >= _SYMMETRISE_LIMIT:
            problem = "is too large: a covariance entry must stay below 2**1023"
            raise _named_error(name, value, problem, inputs)
    cov = np.diag([value for _, value in variances])
    return _valid_state(modes, np.array(mean, dtype=float), cov, hbar)


def row_moments(rows: np.ndarray, offsets, mean: np.ndarray, cov: np.ndarray) -> tuple:
    """Means ``C mu + offsets`` and covariance ``C V C^T`` of the rows ``C``.

    ``rows`` has shape ``(..., k, n)`` on the ``n`` coordinates of
    ``(mean, cov)``.  Each row is contracted on its own (``r @ V``, then
    ``r . mu``) and the upper triangle is mirrored, so every entry has the
    bits of a lone ``c @ mu`` or ``f @ V @ g``.
    """
    rows = np.ascontiguousarray(rows)  # strided rows are summed in another order
    lone = rows[..., None, :]
    means = (lone @ mean[..., None, :, None])[..., 0, 0] + offsets
    cov = (lone @ cov[..., None, :, :])[..., 0, :] @ np.swapaxes(rows, -1, -2)
    # ``+ 0.0`` turns a -0.0 into 0.0, as adding the zero triangle did
    upper = _upper_triangle(rows.shape[-2])
    return means, np.where(upper, cov, np.swapaxes(cov, -1, -2)) + 0.0


def quadratic_forms(rows: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """``r @ cov @ r`` for each row ``r`` of ``rows`` (shape ``(..., k, n)``)."""
    rows = np.ascontiguousarray(rows)  # strided rows are summed in another order
    return (rows[..., None, :] @ cov[..., None, :, :] @ rows[..., :, None])[..., 0, 0]


def symplectic_products(rows: np.ndarray) -> np.ndarray:
    """``R Omega R^T``: entry ``(i, j)`` is ``c`` in ``[r_i, r_j] = i hbar c``.

    ``rows`` has shape ``(..., k, 2m)`` in a (Q..., P...) order, whose
    symplectic form is ``Omega = [[0, I], [-I, 0]]``; offsets never enter
    a commutator.
    """
    half = rows.shape[-1] // 2
    qp = rows[..., :half] @ np.swapaxes(rows[..., half:], -1, -2)
    return qp - np.swapaxes(qp, -1, -2)


@functools.lru_cache(maxsize=None)  # keyed by observable count, a few entries
def _upper_triangle(n: int) -> np.ndarray:
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.setflags(write=False)
    return mask


def linear_moments(state: GaussianState, observables) -> tuple:
    """Means ``C mu + offsets`` and covariance ``C V C^T`` of observables.

    Row i of ``C`` holds observable i on the state's coordinates (see
    :func:`row_moments`).  Raises :class:`ModeMismatchError` if an
    observable leaves the state's modes.
    """
    obs = tuple(observables)
    rows = np.stack([f.row for f in obs])
    idx = state.basis_index
    if len(idx) < 6 and np.delete(rows, idx, axis=1).any():
        for f in obs:
            missing = f.modes - set(state.modes)
            if missing:
                raise ModeMismatchError(
                    f"observable touches mode(s) {sorted(missing)} "
                    f"but the state is defined on modes {state.modes}"
                )
    return row_moments(rows[:, idx], [f.offset for f in obs], state.mean, state.cov)


def moments(state: GaussianState, f: LinearObservable) -> tuple:
    """Mean and variance of ``f`` in ``state``.

    Returns:
        tuple ``(mean, variance)`` with ``mean = <f>`` and
        ``variance = <f^2> - <f>^2`` (symmetrized second moment).

    Raises:
        ModeMismatchError: if ``f`` touches a mode outside ``state.modes``.
    """
    mean, cov = linear_moments(state, (f,))
    return float(mean[0]), float(cov[0, 0])


def covariance(state: GaussianState, f: LinearObservable, g: LinearObservable) -> float:
    """Symmetrized covariance ``<fg + gf>/2 - <f><g>`` in ``state``."""
    return float(linear_moments(state, (f, g))[1][0, 1])


@functools.lru_cache(maxsize=PACKET_CACHE_SIZE)
def make_min_uncertainty_state(params: MinUncertaintyParams) -> GaussianState:
    """System state on mode 1 with the minimum uncertainty product.

    Mean ``(q1, p1)``, covariance ``diag(sigma1^2, (hbar/(2 sigma1))^2)``,
    no Q-P correlation.  The state is immutable, so it is built once per
    distinct ``params`` and shared; ``+ 0.0`` stores a signed zero mean
    as ``0.0``, because equal params must give the same cached state
    whichever of ``0.0`` and ``-0.0`` was asked for first.

    Raises:
        ValueError: naming the variance that is not finite and positive.
    """
    variances = (
        ("packet Var(Q1)", _square(params.sigma1)),
        ("packet Var(P1)", _square(params.sigma_p)),
    )
    inputs = dict(sigma1=params.sigma1, hbar=params.hbar)
    checked_variances(variances, **inputs)
    return _diagonal_state(
        (1,), [params.q1 + 0.0, params.p1 + 0.0], variances, params.hbar, inputs
    )


def make_probe_state(
    nu: float, kappa: float, psi: MinUncertaintyParams
) -> GaussianState:
    """Tuned two-mode probe state on modes 2 and 3.

    A product of two minimum uncertainty packets whose spreads and means
    are matched to the system packet ``psi``:

    * ``Var(Q2) = nu (1-nu) sigma1^2 / (2 kappa^2)``,
      ``Var(Q3) = 2 kappa^2 sigma1^2 / (nu (1-nu))``,
    * each mode saturates ``Var(Q) Var(P) = (hbar/2)^2``,
    * means ``<Q2> = (1-nu) q1 / kappa``, ``<P3> = nu p1 / kappa``,
      ``<Q3> = <P2> = 0``,
    * no cross-mode or Q-P correlations.

    Args:
        nu: weight in (0, 1) splitting the error budget between meters.
        kappa: nonzero scale tying the probe to the meter coefficient.
        psi: system packet parameters supplying q1, p1, sigma1, hbar.

    Raises:
        ValueError: if ``nu`` is outside (0, 1) or ``kappa == 0``, or
            naming the probe variance that is not finite and positive.
    """
    if not 0.0 < nu < 1.0:
        raise ValueError(f"nu must lie strictly between 0 and 1, got {nu}")
    if kappa == 0.0:
        raise ValueError("kappa must be nonzero")
    s2 = _square(psi.sigma1)
    quarter_h2 = _square(psi.hbar / 2.0)
    var_q2 = nu * (1.0 - nu) * s2 / (2.0 * kappa**2)
    var_q3 = 2.0 * kappa**2 * s2 / (nu * (1.0 - nu))
    inputs = dict(nu=nu, kappa=kappa, sigma1=psi.sigma1, hbar=psi.hbar)
    positions = (("probe Var(Q2)", var_q2), ("probe Var(Q3)", var_q3))
    checked_variances(positions, **inputs)
    momenta = (  # divisors checked above
        ("probe Var(P2)", quarter_h2 / var_q2),
        ("probe Var(P3)", quarter_h2 / var_q3),
    )
    checked_variances(momenta, **inputs)
    mean = [(1.0 - nu) * psi.q1 / kappa, 0.0, 0.0, nu * psi.p1 / kappa]
    return _diagonal_state((2, 3), mean, positions + momenta, psi.hbar, inputs)


def product_moments(first: GaussianState, second: GaussianState) -> tuple:
    """Modes, mean and covariance of the product of two states on disjoint modes.

    The product's covariance is the direct sum of the factors' (Weedbrook
    et al., Rev. Mod. Phys. 84, 621 (2012), sec. II): each factor is placed
    at its global slots, so the packet and a probe on modes (2, 3) give
    psi x probe as one ``(mu, V)`` in the global order.  A product on fewer
    than three modes keeps the merged (Q..., P...) coordinates.
    """
    overlap = set(first.modes) & set(second.modes)
    if overlap:
        raise ValueError(f"states overlap on modes {overlap}")
    if first.hbar != second.hbar:
        raise ValueError("states carry different values of hbar")
    mean = np.zeros(6)
    cov = np.zeros((6, 6))
    for state in (first, second):
        idx, flat = _slots(state.modes)
        mean[idx] = state.mean
        cov.put(flat, state.cov)
    modes = tuple(sorted(first.modes + second.modes))
    if len(modes) < 3:
        idx, flat = _slots(modes)
        mean, cov = mean[idx], cov.take(flat).reshape(len(idx), len(idx))
    return modes, mean, cov


def tensor(first: GaussianState, second: GaussianState) -> GaussianState:
    """Product state of two Gaussian states on disjoint modes.

    The eigenvalues of the direct sum built by :func:`product_moments` are
    the union of the factors' eigenvalues, and the PSD scale ``max(1, top
    eigenvalue)`` of the sum is at least each factor's, so the product
    passes :func:`checked_covariance` whenever both factors did: it is
    assembled without checking again.  The assembled matrix is exactly
    symmetric, so symmetrising would not change a bit of it.
    """
    return _valid_state(*product_moments(first, second), first.hbar)
