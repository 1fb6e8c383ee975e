"""Phase-space primitives: quadrature observables and Gaussian states.

The system is one particle (mode 1) coupled to a two-mode probe (modes 2
and 3).  Everything downstream works with real linear combinations of the
six quadratures Q1, Q2, Q3, P1, P2, P3 and with Gaussian states given by
their mean vector and symmetrized covariance matrix.  The global ordering
convention is (Q1, Q2, Q3, P1, P2, P3); states defined on a subset of
modes order their mean/covariance as (all Q's, then all P's) with modes
ascending; ``GaussianState.basis_index`` places them in the global order.
The moments kernel :func:`linear_moments` and the covariance check
:func:`checked_covariance` used across the package live here too.
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
    worst = float(np.abs(np.subtract(actual, expected)).max(initial=0.0))
    if not math.isfinite(worst):
        raise ValueError(f"{message}: non-finite entries")
    if worst > tol:
        raise ValueError(f"{message} (max deviation {worst:g})")


def checked_covariance(cov: np.ndarray, psd_rtol: float) -> np.ndarray:
    """Symmetrized read-only ``cov``, PSD to ``psd_rtol * max(1, top eigenvalue)``."""
    check_close(
        cov, cov.T, 1e-12 * max(1.0, np.abs(cov).max()),
        "covariance matrix is not symmetric",
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


def _as_coeffs(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    if out.shape != (3,):
        raise ValueError(f"expected 3 coefficients, got shape {out.shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class LinearObservable:
    """Real affine combination of the six quadratures.

    Represents ``sum_j coeff_q[j] Q_{j+1} + sum_j coeff_p[j] P_{j+1}
    + offset``.  Supports addition, subtraction and scalar multiplication;
    the zero observable has all coefficients and offset zero.
    """

    coeff_q: np.ndarray
    coeff_p: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coeff_q", _as_coeffs(self.coeff_q))
        object.__setattr__(self, "coeff_p", _as_coeffs(self.coeff_p))
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
        modes = tuple(int(j) for j in self.modes)
        if len(set(modes)) != len(modes) or not set(modes) <= set(MODES):
            raise ValueError(f"modes must be distinct members of {MODES}: {modes}")
        if list(modes) != sorted(modes):
            raise ValueError(f"modes must be ascending: {modes}")
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
        return _basis_index(self.modes)


@functools.lru_cache(maxsize=None)  # keyed by mode tuples, so at most a few entries
def _basis_index(modes: tuple) -> np.ndarray:
    idx = np.array([j - 1 for j in modes] + [j + 2 for j in modes])
    idx.setflags(write=False)
    return idx


def linear_moments(state: GaussianState, observables) -> tuple:
    """Means ``C mu + offsets`` and covariance ``C V C^T`` of observables.

    Row i of ``C`` holds observable i on the state's coordinates.  Rows
    are contracted one at a time and the upper triangle is mirrored, so
    each entry has the bits of a lone ``c @ mu`` or ``f @ V @ g``.  Raises
    :class:`ModeMismatchError` if an observable leaves the state's modes.
    """
    obs = tuple(observables)
    rows = np.empty((len(obs), 6))
    rows[:, :3] = [f.coeff_q for f in obs]
    rows[:, 3:] = [f.coeff_p for f in obs]
    idx = state.basis_index
    if len(idx) < 6 and np.delete(rows, idx, axis=1).any():
        for f in obs:
            missing = f.modes - set(state.modes)
            if missing:
                raise ModeMismatchError(
                    f"observable touches mode(s) {sorted(missing)} "
                    f"but the state is defined on modes {state.modes}"
                )
    c = np.ascontiguousarray(rows[:, idx])  # strided rows are summed in another order
    mean = np.array([r @ state.mean for r in c]) + [f.offset for f in obs]
    cov = np.array([r @ state.cov for r in c]) @ c.T
    return mean, np.triu(cov) + np.triu(cov, 1).T


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
    """
    var_q = params.sigma1**2
    var_p = params.sigma_p**2
    return GaussianState(
        modes=(1,),
        mean=np.array([params.q1 + 0.0, params.p1 + 0.0]),
        cov=np.diag([var_q, var_p]),
        hbar=params.hbar,
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
        ValueError: if ``nu`` is outside (0, 1) or ``kappa == 0``.
    """
    if not 0.0 < nu < 1.0:
        raise ValueError(f"nu must lie strictly between 0 and 1, got {nu}")
    if kappa == 0.0:
        raise ValueError("kappa must be nonzero")
    s2 = psi.sigma1**2
    quarter_h2 = (psi.hbar / 2.0) ** 2
    var_q2 = nu * (1.0 - nu) * s2 / (2.0 * kappa**2)
    var_q3 = 2.0 * kappa**2 * s2 / (nu * (1.0 - nu))
    mean = np.array([(1.0 - nu) * psi.q1 / kappa, 0.0, 0.0, nu * psi.p1 / kappa])
    cov = np.diag([var_q2, var_q3, quarter_h2 / var_q2, quarter_h2 / var_q3])
    return GaussianState(modes=(2, 3), mean=mean, cov=cov, hbar=psi.hbar)


@functools.lru_cache(maxsize=None)  # keyed by mode tuples, so at most a few entries
def _tensor_layout(first_modes: tuple, second_modes: tuple) -> tuple:
    """Merged modes, and for each factor its target indices in the merged
    (Q..., P...) order plus the matching covariance block index."""
    modes = tuple(sorted(first_modes + second_modes))
    m = len(modes)
    targets = []
    for factor in (first_modes, second_modes):
        q_idx = [modes.index(j) for j in factor]
        idx = q_idx + [m + k for k in q_idx]
        targets.append((idx, np.ix_(idx, idx)))
    return modes, targets


def tensor(first: GaussianState, second: GaussianState) -> GaussianState:
    """Product state of two Gaussian states on disjoint modes."""
    if set(first.modes) & set(second.modes):
        raise ValueError(
            f"states overlap on modes {set(first.modes) & set(second.modes)}"
        )
    if first.hbar != second.hbar:
        raise ValueError("states carry different values of hbar")
    modes, targets = _tensor_layout(first.modes, second.modes)
    m = len(modes)
    mean = np.zeros(2 * m)
    cov = np.zeros((2 * m, 2 * m))
    for state, (idx, block) in zip((first, second), targets):
        mean[idx] = state.mean
        cov[block] = state.cov
    return GaussianState(modes=modes, mean=mean, cov=cov, hbar=first.hbar)
