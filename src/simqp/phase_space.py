"""Phase-space primitives: global rows, Gaussian states and their kernels.

The system is one particle (mode 1) coupled to a two-mode probe (modes 2
and 3).  The global coordinate order is (Q1, Q2, Q3, P1, P2, P3): an
observable is a row of R^6 in that order, and the product state
psi x probe is one mean ``mu`` in R^6 and one covariance ``V`` in
R^{6x6}, with the packet at slots [0, 3] and the probe at [1, 2, 4, 5].
The packet (mode 1) and the probe (modes 2, 3) order their mean and
covariance as (all Q's, then all P's) with modes ascending;
:func:`packet_probe_moments` is the one place that writes them into the
global slots.  The row kernel :func:`row_moments` and the covariance
checks :func:`checked_covariance` and :func:`check_symmetric_covariance`
used across the package work on any leading axes.  Every pass/fail
threshold of the package is an entry of :data:`TOLERANCES`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

# packet and probe: each modes tuple (found by any equal one) and its (Q..., P...) labels
_STATES = {(1,): ((1,), ("Q1", "P1")), (2, 3): ((2, 3), ("Q2", "Q3", "P2", "P3"))}

#: every pass/fail threshold, by name, with the scale its sites multiply it
#: by.  A two-sided check fails a residual r unless |r| <= bound * scale
#: (:func:`exceeds`); a one-sided one compares at its own site.
TOLERANCES = {
    "psd_state": 1e-10,  # -min eigenvalue of a state's covariance; max(1, max eigenvalue)
    "psd_law": 1e-12,  # the same for a joint law or a posterior triple's law
    "symmetry": 1e-12,  # entries of cov - cov^T; max(1, the matrix's largest |entry|)
    "commutator": 1e-12,  # an R Omega R^T entry of two meters or joint rows; 1
    "error_route": 1e-12,  # gap of the two noise second moments; max(1, |representation|)
    "condition": 1e-9,  # each achievability-condition residual; 1
    "identity": 1e-12,  # solvable pattern, couplings, E, S^3 + E S; max(1, |compared|)
    "transform": 1e-10,  # entries of A B^T - I, det(A) - 1, det(B) - 1; 1
    "drift": 1e-10,  # a21 - nu and a22 - kappa after build_model propagates; 1
    "degenerate_factor": 1e-12,  # |F| below this leaves the couplings undetermined; 1
    "sweep_residual": 1e-8,  # sweep passes while its largest signed BO residual is <= it; 1
}

# from this magnitude on, an entry doubles past float64's largest value, so
# the symmetrisation 0.5 * (cov + cov.T) would turn it into inf
_SYMMETRISE_LIMIT = 2.0**1023


# packet states kept by make_min_uncertainty_state; about 0.75 kB each with
# its key, so a full cache holds under 1 MB
PACKET_CACHE_SIZE = 1024


def exceeds(name: str, residual: float, scale: float = 1.0) -> bool:
    """True unless ``|residual| <= TOLERANCES[name] * scale``: NaN and inf always fail."""
    return not abs(residual) <= TOLERANCES[name] * scale


def all_finite(values: list) -> bool:
    """Whether every float of ``values`` is finite: their sum carries a NaN or
    inf, and only a sum that overflows needs the entry-by-entry test."""
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def max_abs(values: list) -> float:
    """``max |v|`` over the non-empty floats ``values``, NaN if any is NaN, as
    ``np.maximum.reduce(np.abs(v))`` gives it (``max`` alone would keep or
    drop a NaN by where it sits)."""
    if all_finite(values):
        return max(map(abs, values))
    return math.nan if any(map(math.isnan, values)) else math.inf


def check_deviation(deviation: list, name: str, message: str, scale: float = 1.0) -> None:
    """Raise ``ValueError(message)`` if ``max |deviation|`` exceeds ``name``.

    The closeness test behind the transform identity checks, through
    :func:`exceeds` at the caller's natural ``scale``, on the entries of
    ``actual - expected`` as Python floats; a NaN or inf entry always fails.
    """
    worst = max_abs(deviation)
    if exceeds(name, worst, scale):
        if not math.isfinite(worst):
            raise ValueError(f"{message}: non-finite entries")
        raise ValueError(f"{message} (max deviation {worst:g})")


def checked_covariance(cov: np.ndarray, psd: str) -> np.ndarray:
    """Symmetrized read-only ``cov``, PSD to the ``psd`` entry of TOLERANCES.

    ``cov`` has shape ``(..., n, n)``, and each matrix of the stack is held
    to its own scale: finite, symmetric to the ``symmetry`` entry times
    ``max(1, largest |entry|)``, every entry below 2**1023, and PSD to the
    ``psd`` entry times ``max(1, top eigenvalue)``.  The per-matrix
    decisions run on Python floats, cheaper than numpy reductions for a
    state's few entries.  A stack equal to its transpose bit for bit is its
    own symmetrization, so it is copied and passed to
    :func:`check_symmetric_covariance` instead of averaged.
    """
    n = cov.shape[-1]
    transposed = cov.swapaxes(-1, -2)
    matrices = cov.reshape(-1, n * n).tolist()
    if cov.tobytes() == transposed.tobytes():
        cov = cov.copy()
        check_symmetric_covariance(cov, matrices, psd)
        cov.setflags(write=False)
        return cov
    for entries in matrices:
        # cov - cov^T: exactly antisymmetric, so its largest entry is its
        # largest magnitude, and non-finite where an entry is or a gap overflows
        mirror = [x for column in range(n) for x in entries[column::n]]
        deviation = list(map(operator.sub, entries, mirror))
        if not all_finite(deviation):
            raise ValueError("covariance matrix is not symmetric: non-finite entries")
        largest = max(map(abs, entries))
        worst = max(deviation)
        if exceeds("symmetry", worst, max(1.0, largest)):
            raise ValueError(
                f"covariance matrix is not symmetric (max deviation {worst:g})"
            )
        _check_below_limit(largest)
    cov = 0.5 * (cov + transposed)
    _check_psd(cov, cov.reshape(-1, n * n).tolist(), psd)
    cov.setflags(write=False)
    return cov


def check_symmetric_covariance(cov: np.ndarray, matrices: list, psd: str) -> None:
    """Raise unless the stack ``cov`` passes :func:`checked_covariance`.

    ``cov`` has shape ``(..., n, n)`` and equals its transpose bit for bit,
    as a mirrored :func:`row_moments` covariance or a 1x1 matrix does, and
    ``matrices`` holds each of its matrices as a flat list of floats.  Each
    matrix is held finite, below 2**1023 and PSD to the ``psd`` entry
    (:func:`_check_psd`); the symmetry check has nothing to find.
    """
    for entries in matrices:
        if not all_finite(entries):
            raise ValueError("covariance matrix is not symmetric: non-finite entries")
        _check_below_limit(max(map(abs, entries)))
    _check_psd(cov, matrices, psd)


def _check_psd(cov: np.ndarray, matrices: list, psd: str) -> None:
    """Raise unless each matrix of the finite, bit-symmetric stack ``cov``
    (flat float lists in ``matrices``) is PSD to the ``psd`` entry.

    A 1x1 matrix is its own eigenvalue, as LAPACK returns it.  A 2x2 to 4x4
    matrix that :func:`_certified_psd` accepts passes without LAPACK.  The
    rest go, in their order, to ``eigvalsh`` and :func:`_check_spectra`, so
    the first refusal and its message are those of an all-``eigvalsh`` check.
    """
    n = cov.shape[-1]
    if n == 1:
        _check_spectra(matrices, psd)
        return
    if n <= 4:
        left = [k for k, entries in enumerate(matrices) if not _certified_psd(entries, n)]
        if not left:
            return
        if len(left) < len(matrices):
            cov = cov.reshape(-1, n, n)[left]
    _check_spectra(np.linalg.eigvalsh(cov).reshape(-1, n).tolist(), psd)


def _certified_psd(e: list, n: int) -> bool:
    """Whether an unrolled LDL^T proves the symmetric ``n x n`` matrix of flat
    entries ``e`` (n = 2, 3, 4, finite) passes both ``psd`` entries.

    Every pivot ``d`` must come out > 0; a NaN or -inf one (an update that
    overflowed) fails that test, and no pivot exceeds its diagonal entry.
    With positive pivots the factors are exact for ``V + dV``, ``|dV| <=
    g |L||D||L^T|`` with ``g = gamma_{n+1} = (n+1)u / (1 - (n+1)u)``, so
    ``lambda_min(V) >= -n g / (1 - n g) * ||V||_2`` (the LDL^T form of
    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    thm. 10.3, whose proof needs only that the factorisation runs to
    completion; an underflow adds at most a few 2**-1074).  That is under 2.3e-15
    ||V||_2 at n = 4; with eigvalsh's own backward error of a small
    multiple of u ||V||_2 the LAPACK eigenvalues pass ``psd_law`` (1e-12),
    and so ``psd_state``, times ``max(1, top eigenvalue)`` with room to
    spare.  A False only sends the matrix to ``eigvalsh``.
    """
    d0 = e[0]
    if not d0 > 0.0:
        return False
    w1 = e[n]  # column 0 below the diagonal: w1, w2, w3
    l1 = w1 / d0
    d1 = e[n + 1] - l1 * w1
    if n == 2 or not d1 > 0.0:
        return d1 > 0.0
    w2 = e[2 * n]
    l2 = w2 / d0
    w21 = e[2 * n + 1] - l2 * w1
    l21 = w21 / d1
    d2 = e[2 * n + 2] - l2 * w2 - l21 * w21
    if n == 3 or not d2 > 0.0:
        return d2 > 0.0
    w3 = e[12]
    l3 = w3 / d0
    w31 = e[13] - l3 * w1
    l31 = w31 / d1
    w32 = e[14] - l3 * w2 - l31 * w21
    l32 = w32 / d2
    return e[15] - l3 * w3 - l31 * w31 - l32 * w32 > 0.0


def _check_below_limit(largest: float) -> None:
    if largest >= _SYMMETRISE_LIMIT:
        raise ValueError(
            f"covariance matrix entry {largest:g} is too large: "
            "symmetrising it overflows float64"
        )


def _check_spectra(spectra: list, psd: str) -> None:
    """Raise unless each ascending list of eigenvalues is PSD to the ``psd`` entry."""
    for eigvals in spectra:
        if eigvals[0] < -TOLERANCES[psd] * max(1.0, eigvals[-1]):
            raise ValueError(
                f"covariance matrix is not positive semidefinite "
                f"(smallest eigenvalue {eigvals[0]:g})"
            )


def _check_finite_mean(mean: list, labels) -> None:
    """Raise naming, by its ``str``, the first label whose mean value in
    ``mean`` is not finite."""
    for label, value in zip(labels, mean):
        if not math.isfinite(value):
            raise ValueError(f"mean of {str(label)!r} is {value}: it must be finite")


def _checked_moments(mean, cov, labels: tuple, psd: str) -> tuple:
    """``(mean, cov)`` of one state or law as read-only float arrays.

    The shared core of :class:`GaussianState` and ``JointGaussian``: the
    shapes must be ``(d,)`` and ``(d, d)`` for the ``d`` coordinate
    ``labels``, the covariance passes :func:`checked_covariance` to the
    ``psd`` entry, and a mean that is not finite is refused by its label.
    """
    mean = np.array(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    d = len(labels)
    if mean.shape != (d,) or cov.shape != (d, d):
        raise ValueError(
            f"dimension mismatch: {d} labels, mean {mean.shape}, cov {cov.shape}"
        )
    cov = checked_covariance(cov, psd)
    _check_finite_mean(mean.tolist(), labels)
    mean.setflags(write=False)
    return mean, cov


def _given(inputs: dict) -> str:
    """``inputs`` as ``key=value`` text: nu in full, as ``:g`` would print an
    edge nu as 0 or 1, and every other value by ``:g``."""
    return ", ".join(
        f"{key}={val}" if key == "nu" else f"{key}={val:g}" for key, val in inputs.items()
    )


def _named_error(name: str, value: float, problem: str, inputs: dict) -> ValueError:
    return ValueError(f"{name} = {value:g} {problem} ({_given(inputs)})")


def checked_variances(variances, **inputs) -> None:
    """Raise ``ValueError`` naming the first variance that is not finite and positive.

    ``variances`` holds ``(name, value)`` pairs; the message also lists
    the ``inputs`` they were computed from.
    """
    for name, value in variances:
        if not 0.0 < value < math.inf:
            raise _named_error(name, value, "is not finite and positive", inputs)


def _square(x: float) -> float:
    """``x * x``: the correctly rounded square (``inf`` where it overflows
    float64), which libm's ``pow`` behind ``x**2`` is not bound to be."""
    return x * x


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
        for name, value in (("q1", self.q1), ("p1", self.p1)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def sigma_q(self) -> float:
        return self.sigma1

    @property
    def sigma_p(self) -> float:
        """Momentum spread ``hbar / (2 sigma1)``."""
        return self.hbar / (2.0 * self.sigma1)


@dataclass(frozen=True, eq=False, init=False)
class GaussianState:
    """Gaussian state of the packet (mode 1) or of the probe (modes 2, 3).

    Every instance satisfies what :func:`checked_covariance` checks, by
    one of two routes: the constructor runs :func:`_checked_moments`,
    which also refuses a non-finite mean; or a diagonal covariance is
    built from variances that :func:`checked_variances` passed (the
    packet, the tuned probe and the posterior states), whose eigenvalues
    are those variances.

    Args:
        modes: ``(1,)`` for the packet or ``(2, 3)`` for the probe.
        mean: length ``2m`` vector, all Q means then all P means.
        cov: symmetric positive-semidefinite ``2m x 2m`` matrix in the
            same (Q..., P...) ordering; symmetrized second moments.
        hbar: value of the commutator scale attached to the state.
    """

    modes: tuple
    mean: np.ndarray
    cov: np.ndarray
    hbar: float = 1.0

    def __init__(self, modes, mean, cov, hbar=1.0):
        modes = tuple(modes)
        if modes not in _STATES:
            raise ValueError(f"modes must be (1,) or (2, 3), got {modes}")
        modes, labels = _STATES[modes]
        mean, cov = _checked_moments(mean, cov, labels, "psd_state")
        if not hbar > 0:
            raise ValueError(f"hbar must be positive, got {hbar}")
        # frozen: the fields go in through the instance dict
        vars(self).update(modes=modes, mean=mean, cov=cov, hbar=float(hbar))


#: global slots of the packet (Q1, P1) and of the probe (Q2, Q3, P2, P3)
PACKET_SLOTS = np.array([0, 3])
PROBE_SLOTS = np.array([1, 2, 4, 5])
PACKET_SLOTS.setflags(write=False)
PROBE_SLOTS.setflags(write=False)

# flat indices of their covariance blocks in a 6x6 matrix, for ``put``
_PACKET_BLOCK = (6 * PACKET_SLOTS[:, None] + PACKET_SLOTS).ravel()
_PROBE_BLOCK = (6 * PROBE_SLOTS[:, None] + PROBE_SLOTS).ravel()

#: the global rows of Q1 and P1, the quadratures the meters estimate
TARGET_ROWS = np.eye(6)[PACKET_SLOTS]
TARGET_ROWS.setflags(write=False)


def _diagonal_state(modes: tuple, mean, variances, hbar: float, inputs: dict):
    """State on ascending ``modes`` whose covariance is ``diag`` of ``variances``.

    ``variances`` holds ``(name, value)`` pairs in (Q..., P...) order that
    :func:`checked_variances` has passed.  A diagonal matrix of positive
    finite entries is symmetric and PSD, its eigenvalues being its entries
    (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012), sec. II), so the
    only part of :func:`checked_covariance` left to run is its refusal of
    an entry from 2**1023 on.  That refusal names the variance and the
    ``inputs`` it was computed from.  The arrays are made read-only and
    no other check runs.
    """
    for name, value in variances:
        if value >= _SYMMETRISE_LIMIT:
            problem = "is too large: a covariance entry must stay below 2**1023"
            raise _named_error(name, value, problem, inputs)
    mean = np.array(mean, dtype=float)
    n = len(variances)
    cov = np.zeros(n * n)
    cov[:: n + 1] = [value for _, value in variances]
    cov = cov.reshape(n, n)
    mean.setflags(write=False)
    cov.setflags(write=False)
    state = object.__new__(GaussianState)  # skips __init__'s checks
    vars(state).update(modes=modes, mean=mean, cov=cov, hbar=float(hbar))
    return state


def row_moments(rows: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> tuple:
    """Means ``C mu`` and covariance ``C V C^T`` of the rows ``C``.

    ``rows`` has shape ``(..., k, n)`` on the ``n`` coordinates of
    ``(mean, cov)``.  Each row is contracted on its own (``r @ V``, then
    ``r . mu``) and the upper triangle is mirrored, so every entry has the
    bits of a lone ``c @ mu`` or ``f @ V @ g``.  Each ``+ 0.0`` turns a
    -0.0 into 0.0, so a zero mean or covariance entry prints as ``0.0``,
    as it did when a zero constant term was added to each mean.
    """
    rows = np.ascontiguousarray(rows)  # strided rows are summed in another order
    lone = rows[..., None, :]
    means = (lone @ mean[..., None, :, None])[..., 0, 0] + 0.0
    cov = (lone @ cov[..., None, :, :])[..., 0, :] @ np.swapaxes(rows, -1, -2)
    upper = _upper_triangle(rows.shape[-2])
    return means, np.where(upper, cov, np.swapaxes(cov, -1, -2)) + 0.0


def quadratic_forms(rows: np.ndarray, cov: np.ndarray) -> list:
    """``r @ cov @ r`` as floats for each row ``r`` of the C-contiguous ``(k, n)``
    ``rows`` (a strided row would be summed in another order)."""
    return (rows[:, None, :] @ cov @ rows[:, :, None]).ravel().tolist()


@functools.lru_cache(maxsize=None)  # keyed by row count, a few entries
def _upper_triangle(n: int) -> np.ndarray:
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.setflags(write=False)
    return mask


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
            naming the probe variance that is not finite and positive, or
            the mean ``<Q2>``/``<P3>`` that overflows (a tiny ``kappa``).
    """
    if not 0.0 < nu < 1.0:
        raise ValueError(f"nu must lie strictly between 0 and 1, got {nu}")
    if kappa == 0.0:
        raise ValueError("kappa must be nonzero")
    quarter_h2 = _square(psi.hbar / 2.0)
    var_q2 = nu * (1.0 - nu) / 2.0 * _square(psi.sigma1 / kappa)
    var_q3 = 2.0 * _square(kappa) * _square(psi.sigma1) / (nu * (1.0 - nu))
    inputs = dict(nu=nu, kappa=kappa, sigma1=psi.sigma1, hbar=psi.hbar)
    positions = (("probe Var(Q2)", var_q2), ("probe Var(Q3)", var_q3))
    checked_variances(positions, **inputs)
    momenta = (  # divisors checked above
        ("probe Var(P2)", quarter_h2 / var_q2),
        ("probe Var(P3)", quarter_h2 / var_q3),
    )
    checked_variances(momenta, **inputs)
    mean = [(1.0 - nu) * psi.q1 / kappa, 0.0, 0.0, nu * psi.p1 / kappa]
    for name, value in (("probe <Q2>", mean[0]), ("probe <P3>", mean[3])):
        if math.isinf(value):
            raise _named_error(name, value, "is not finite", dict(inputs, q1=psi.q1, p1=psi.p1))
    return _diagonal_state((2, 3), mean, positions + momenta, psi.hbar, inputs)


def packet_probe_moments(packet: GaussianState, probe: GaussianState) -> tuple:
    """Mean ``mu`` and covariance ``V`` of psi x probe in the global order.

    The packet (mode 1) goes to PACKET_SLOTS and the probe (modes 2, 3) to
    PROBE_SLOTS.  ``V`` is the direct sum of the factors' covariances
    (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012), sec. II): its
    eigenvalues are the union of theirs, and its PSD scale ``max(1, top
    eigenvalue)`` is at least each factor's, so it passes
    :func:`checked_covariance` whenever both factors did and is not
    checked again.  It is exactly symmetric, so symmetrising would not
    change a bit of it.
    """
    if packet.modes != (1,):
        raise ValueError(f"packet must live on mode 1, got modes {packet.modes}")
    if probe.modes != (2, 3):
        raise ValueError(f"probe must live on modes (2, 3), got {probe.modes}")
    if packet.hbar != probe.hbar:
        raise ValueError("states carry different values of hbar")
    mean = np.zeros(6)
    mean[PACKET_SLOTS] = packet.mean
    mean[PROBE_SLOTS] = probe.mean
    cov = np.zeros((6, 6))
    cov.put(_PACKET_BLOCK, packet.cov)
    cov.put(_PROBE_BLOCK, probe.cov)
    return mean, cov
