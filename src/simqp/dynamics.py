"""Linear Heisenberg dynamics generated by the three-mode coupling.

The bilinear interaction turns the six quadratures into two closed linear
systems: the positions evolve with ``e^{tR}`` and the momenta with
``e^{-tR^T}`` for a traceless 3x3 generator ``R`` built from the coupling
coefficients.  A constrained subclass of generators satisfies the cubic
identity ``S^3 = -E S`` and admits a closed-form exponential with three
branches keyed on the sign of the model constant ``E``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_space import _square, check_deviation, exceeds

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)

# sinh(x) leaves float64 past |x| = 710.4758...; up to here it stays below
# the largest float64 by a relative 8e-4, far beyond its rounding error
_SINH_LIMIT = 710.475

# expm_coefficients takes its series below this t^2 |E|: x^4/120 < ulp(1)/4
_SERIES_LIMIT = math.sqrt(30 * math.ulp(1.0))


@dataclass(frozen=True, eq=False, init=False)
class SolvableGenerator:
    """Generator in the closed-form-solvable class, built from its couplings.

    :meth:`from_couplings` is the only constructor.  It writes the matrix::

        [[0,  b1, a3],
         [a1, g2, 0 ],
         [b3, 0, -g2]]

    with ``b_j = -(g2^2 + E)/(2 a_j)``, so ``a1 b1 = a3 b3 = -(g2^2 + E)/2``
    and ``S^3 = -E S`` hold by construction.  It refuses a zero a1 or a3, a
    g2 whose square overflows, a tau that is not positive, a non-finite
    tau, E or g2, and a non-finite coupling, each by name, and then checks
    ``S^3 = -E S`` to the ``identity`` tolerance; it never silently
    reclassifies ``E``.
    """

    s: np.ndarray
    e: float
    gamma2: float
    tau: float

    def __init__(self, *args, **kwargs):
        raise TypeError("a SolvableGenerator is built by SolvableGenerator.from_couplings")

    @classmethod
    def from_couplings(
        cls, alpha1: float, alpha3: float, gamma2: float, e: float, tau: float
    ) -> "SolvableGenerator":
        """Build the generator from (a1, a3, g2, E) and tau, deriving b1 and b3."""
        if alpha1 == 0.0 or alpha3 == 0.0:
            raise ValueError("alpha1 and alpha3 must be nonzero")
        prod = _coupling_product(gamma2, e)
        b1, b3 = prod / alpha1, prod / alpha3
        if not tau > 0:
            raise ValueError(f"tau must be positive, got {tau}")
        for name, value in (("tau", tau), ("E", e), ("gamma2", gamma2)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # an overflowing coupling (b1 at a subnormal a1) is named before
        # s @ s, which would warn on it
        for name, value in (("a1", alpha1), ("b1", b1), ("a3", alpha3), ("b3", b3)):
            if not math.isfinite(value):
                raise ValueError(f"coupling {name} = {value} is not finite")
        # one flat tuple: numpy reads it faster than nested rows
        flat = np.array((0.0, b1, alpha3, alpha1, gamma2, 0.0, b3, 0.0, -gamma2))
        entries = flat.tolist()
        s = flat.reshape(3, 3)
        s2 = s @ s
        # S^3 - (-E S) on Python floats; max |E s_ij| is |E| max |s_ij| exactly
        cubed = (s2 @ s).ravel().tolist()
        e = float(e)
        scale = max(1.0, abs(e) * max(map(abs, entries)))
        deviation = [c + e * x for c, x in zip(cubed, entries)]
        check_deviation(deviation, "identity", "S^3 != -E S", scale)
        # [[S, -S^T], [S^2, (S^2)^T]]: the generators of A and B and their
        # squares, stacked as propagate uses them
        powers = np.array(((s, -s.T), (s2, s2.T)))
        powers.setflags(write=False)
        gen = object.__new__(cls)
        # frozen: the fields go in through the instance dict
        vars(gen).update(
            s=powers[0, 0], _powers=powers, e=e, gamma2=float(gamma2), tau=float(tau)
        )
        return gen


def _coupling_product(gamma2: float, e: float) -> float:
    """``-(gamma2^2 + E)/2``, the product ``a_j b_j`` of both coupling pairs,
    refusing by name a finite ``gamma2`` whose square overflows float64 (an
    infinite one is refused as not finite where it is used)."""
    square = _square(gamma2)
    if math.isinf(square) and math.isfinite(gamma2):
        raise ValueError(f"gamma2 = {gamma2:g} is too large: its square overflows float64")
    return -(square + e) / 2.0


def expm_coefficients(e: float, t: float) -> tuple:
    """``(c1, c2)`` with ``e^{tM} = I + c1 M + c2 M^2`` whenever ``M^3 = -E M``.

    With ``x = t sqrt|E|`` and ``s`` the sign of ``E``, ``c1 = sin(x)/sqrt(E)``
    and ``c2 = (1 - cos x)/E``, taken as ``sin(x) tan(x/2)/E``, which does
    not cancel at small ``x``; likewise with sinh and tanh for ``E < 0``.
    Below ``x^2 = sqrt(30 ulp(1))``, about 8.2e-8, the first dropped terms
    ``x^4/120`` and ``x^4/360`` are under half an ulp, and the series
    ``c1 = t (1 - s x^2/6)``, ``c2 = t^2/2 (1 - s x^2/12)`` is taken
    instead, where the closed forms would divide underflowed products by a
    tiny ``E``.  ``E = 0`` lands there with ``x = 0``: exactly
    ``(t, t^2/2)``, also where ``t^2`` overflows.
    Both are Python floats: where the closed form leaves float64 they are
    inf or NaN, with no numpy warning, and the callers refuse them by name.
    """
    root = math.sqrt(abs(e))
    x = t * root
    x2 = math.copysign(_square(x), e)  # s x^2
    if abs(x2) < _SERIES_LIMIT:
        return t * (1.0 - x2 / 6.0), 0.5 * _square(t) * (1.0 - x2 / 12.0)
    if e > 0.0:
        if not math.isfinite(x):  # sin(x) has no limit
            return math.nan, math.nan
        sin = float(np.sin(x))
        return sin / root, sin * float(np.tan(x / 2.0)) / e
    sinh = math.copysign(math.inf, x) if abs(x) > _SINH_LIMIT else float(np.sinh(x))
    return sinh / root, sinh * float(np.tanh(x / 2.0)) / (-e)


@dataclass(frozen=True, eq=False)
class PropagatedTransform:
    """The pair ``A = e^{tau S}``, ``B = e^{-tau S^T}`` at measurement time.

    ``ab`` is the read-only ``(2, 3, 3)`` stack ``[A, B]``; ``a`` and ``b``
    are views of it.  Construction checks that the pair preserves the
    canonical commutation relations (``A B^T = I``) and stays in SL(3).
    """

    a: np.ndarray
    b: np.ndarray
    tau: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != (3, 3) or b.shape != (3, 3):
            raise ValueError("A and B must both be 3x3")
        _check_pair(self, np.array((a, b)), self.tau)


def _check_pair(transform: PropagatedTransform, ab: np.ndarray, tau: float) -> None:
    """Check the stack ``ab = [A, B]`` and store it, with ``tau``, on ``transform``."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    ab.setflags(write=False)  # before its views are taken, so they inherit it
    a, b = ab[0], ab[1]
    deviation = (a @ b.T).ravel().tolist()  # A B^T - I; I has scale 1
    for k in (0, 4, 8):
        deviation[k] -= 1.0
    check_deviation(deviation, "transform", "A B^T != I")
    # one batched LU call; a cofactor expansion would cancel at large ||A||
    for name, det in zip("AB", np.linalg.det(ab).tolist()):
        if exceeds("transform", det - 1.0):
            raise ValueError(f"det({name}) = {det:g} != 1")
    vars(transform).update(ab=ab, a=a, b=b, tau=float(tau))


def propagate(gen: SolvableGenerator) -> PropagatedTransform:
    """Evaluate both closed-form factors at the generator's own tau.

    ``B = e^{-tau S^T}`` is the closed form at ``-S^T``, whose square is
    ``(S^2)^T``, so one ``S^2`` and one pair of coefficients, refused if
    not finite, build the stack ``[A, B]``.
    """
    c1, c2 = expm_coefficients(gen.e, gen.tau)
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise ValueError(
            f"e^(tau S) overflows float64 at tau={gen.tau:g}, E={gen.e:g}: "
            f"its coefficients are (c1, c2) = ({c1:g}, {c2:g})"
        )
    powers = gen._powers  # indexed: unpacking an array costs more
    ab = c1 * powers[0]  # I + c1 [S, -S^T] + c2 [S^2, (S^2)^T], in that order
    ab += _EYE3
    ab += c2 * powers[1]
    transform = object.__new__(PropagatedTransform)  # the stack is checked as built
    _check_pair(transform, ab, gen.tau)
    return transform


def evolved_rows(transform: PropagatedTransform) -> np.ndarray:
    """The 6x6 block ``[[A, 0], [0, B]]`` of the evolved quadratures.

    Row i is the global row of the i-th of (Q1(tau), Q2(tau), Q3(tau),
    P1(tau), P2(tau), P3(tau)): row i of A on the positions, or row i of B
    on the momenta.
    """
    rows = np.zeros((6, 6))
    rows[:3, :3] = transform.a
    rows[3:, 3:] = transform.b
    return rows
