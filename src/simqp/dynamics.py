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

from .phase_space import TOLERANCES, _square, all_finite, exceeds

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)

# sinh(x) leaves float64 past |x| = 710.4758...; up to here it stays below
# the largest float64 by a relative 8e-4, far beyond its rounding error
_SINH_LIMIT = 710.475

# expm_coefficients takes its series below this t^2 |E|: x^4/120 < ulp(1)/4
_SERIES_LIMIT = math.sqrt(30 * math.ulp(1.0))

# the spacing of the subnormal floats: a product or quotient that underflows
# is off by at most half of it, whatever the size of its operands
_SUBNORMAL = math.ulp(0.0)


@dataclass(frozen=True, eq=False, init=False)
class SolvableGenerator:
    """Generator in the closed-form-solvable class, built from its couplings.

    :meth:`from_couplings` is the only constructor.  It writes the matrix::

        [[0,  b1, a3],
         [a1, g2, 0 ],
         [b3, 0, -g2]]

    with ``b_j = -(g2^2 + E)/(2 a_j)``, so ``a1 b1 = a3 b3 = -(g2^2 + E)/2``.
    For a traceless S, Cayley-Hamilton gives ``S^3 + E S = sigma S + delta I``
    exactly, with ``sigma = a1 b1 + a3 b3 + g2^2 + E`` and
    ``delta = g2 (a1 b1 - a3 b3)``, so ``S^3 = -E S`` holds once both
    scalars vanish.  It refuses a zero a1 or a3, a g2 whose square
    overflows, a tau that is not positive, a non-finite tau, E or g2, a
    non-finite coupling and an S^2 that overflows, each by name, and then
    holds sigma and ``delta / g2 = a1 b1 - a3 b3`` to the ``identity`` entry
    times the sum of their terms' magnitudes, plus what a coupling or
    product that underflows may add; it never silently reclassifies ``E``.
    That allowance grows with ``|a_j|``, so the products ``a_j b_j`` go
    on to :func:`propagate`, which holds ``A B^T - I`` by them.
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
        """Build the generator from (a1, a3, g2, E) and tau, deriving b1 and b3.

        The class docstring lists what it refuses, in order, and how sigma
        and ``delta / g2`` stand in for the matrix ``S^3 + E S``.
        """
        if alpha1 == 0.0 or alpha3 == 0.0:
            raise ValueError("alpha1 and alpha3 must be nonzero")
        prod = _coupling_product(gamma2, e)
        b1, b3 = prod / alpha1, prod / alpha3
        if not tau > 0:
            raise ValueError(f"tau must be positive, got {tau}")
        for name, value in (("tau", tau), ("E", e), ("gamma2", gamma2)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name, value in (("a1", alpha1), ("b1", b1), ("a3", alpha3), ("b3", b3)):
            if not math.isfinite(value):
                raise ValueError(f"coupling {name} = {value} is not finite")
        # one flat tuple: numpy reads it faster than nested rows
        s = np.array((0.0, b1, alpha3, alpha1, gamma2, 0.0, b3, 0.0, -gamma2)).reshape(3, 3)
        with np.errstate(over="ignore", invalid="ignore"):  # refused by name below
            s2 = s @ s
        if not all_finite(s2.ravel().tolist()):
            raise ValueError("S^2 is not finite: a product of two couplings overflows float64")
        e, p1, p3 = float(e), alpha1 * b1, alpha3 * b3
        # b_j = prod / a_j off by half a subnormal spacing is a_j b_j off by |a_j| times it
        tiny = (abs(alpha1) + abs(alpha3) + 4.0) * _SUBNORMAL
        _check_sum("identity", "S^3 != -E S: sigma", (p1, p3, _square(gamma2), e), tiny)
        # delta / g2, which cannot overflow where delta's own terms g2 a_j b_j can
        _check_sum("identity", "S^3 != -E S: delta / gamma2 = a1 b1 - a3 b3", (p1, -p3), tiny)
        # [[S, -S^T], [S^2, (S^2)^T]]: the generators of A and B and their
        # squares, stacked as propagate uses them
        powers = np.array(((s, -s.T), (s2, s2.T)))
        powers.setflags(write=False)
        gen = object.__new__(cls)
        # frozen: the fields go in through the instance dict
        vars(gen).update(s=powers[0, 0], _powers=powers, _products=(p1, p3), e=e,
                         gamma2=float(gamma2), tau=float(tau))
        return gen


def _check_sum(name: str, label: str, terms: tuple, floor: float) -> None:
    """Refuse the sum of ``terms`` unless it is at most ``TOLERANCES[name]``
    times the sum of their magnitudes plus ``floor``, what underflow may
    add; a NaN or inf sum always fails."""
    residual, scale = sum(terms), sum(map(abs, terms)) + floor / TOLERANCES[name]
    if exceeds(name, residual, scale):
        raise ValueError(f"{label} = {residual:g} exceeds its rounding bound "
                         f"{TOLERANCES[name] * scale:g}")


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


@dataclass(frozen=True, eq=False, init=False)
class PropagatedTransform:
    """The pair ``A = e^{tau S}``, ``B = e^{-tau S^T}`` at measurement time.

    :func:`propagate` is the only constructor.  ``ab`` is the read-only
    ``(2, 3, 3)`` stack ``[A, B]``; ``a`` and ``b`` are views of it.  Since
    ``S^3 = -E S``, the closed form gives ``A B^T - I = r S^2`` and
    ``det A = det B = 1 - E r`` exactly, with ``r = 2 c2 - c1^2 - E c2^2``,
    so the pair preserves the canonical commutation relations and stays in
    SL(3) once ``r`` vanishes.  :func:`propagate` holds ``r`` at both
    coupling pairs' own constants, which is what the stored S gives.
    """

    ab: np.ndarray
    a: np.ndarray
    b: np.ndarray
    tau: float

    def __init__(self, *args, **kwargs):
        raise TypeError("a PropagatedTransform is built by propagate")


def propagate(gen: SolvableGenerator) -> PropagatedTransform:
    """Evaluate both closed-form factors at the generator's own tau.

    ``B = e^{-tau S^T}`` is the closed form at ``-S^T``, whose square is
    ``(S^2)^T``, so one ``S^2`` and one pair of coefficients build the
    stack ``[A, B]``; a stack that leaves float64 is refused with its
    coefficients.  For the stored S, whatever its b_j, algebra gives::

        A B^T - I = (r1 + r3)/2 S^2 + (r1 - r3)/2 g2 S,
        r_j = 2 c2 - c1^2 + c2^2 (g2^2 + 2 a_j b_j)

    exactly: ``r = 2 c2 - c1^2 - E c2^2`` at the pair's own constant
    ``E_j = -(g2^2 + 2 a_j b_j)``, which is E until a b_j that underflows
    moves it.  Each r_j is held to the ``transform`` entry times the sum of
    its terms' magnitudes, ``2|c2| + c1^2 + c2^2 (g2^2 + 2|a_j b_j|)``,
    plus ``(4 + 2|c2|)`` subnormal spacings for a square or product that
    underflows.  Coefficients past 2^500 are scaled first, and a refusal
    then names ``r_j`` times the ``2^-n`` it was scaled by.
    """
    c1, c2 = expm_coefficients(gen.e, gen.tau)
    powers = gen._powers  # indexed: unpacking an array costs more
    with np.errstate(over="ignore", invalid="ignore"):  # refused by name below
        ab = c1 * powers[0]  # I + c1 [S, -S^T] + c2 [S^2, (S^2)^T], in that order
        ab += _EYE3
        ab += c2 * powers[1]
    if not all_finite(ab.ravel().tolist()):
        raise ValueError(f"e^(tau S) overflows float64 at tau={gen.tau:g}, E={gen.e:g}: "
                         f"its coefficients are (c1, c2) = ({c1:g}, {c2:g})")
    # r_j is homogeneous: (c1, c2) -> (k c1, k c2), with 2 c2 k as its first term,
    # scales it by k^2, so past 2^500 a power of two k keeps every term in float64
    # |g2| + 1.5 sqrt|a_j b_j| >= sqrt(g2^2 + 2 |a_j b_j|), with no square to overflow
    root = abs(gen.gamma2) + 1.5 * math.sqrt(max(map(abs, gen._products)))
    big = max(abs(c1), abs(c2) * (1.0 + root))
    shift = math.frexp(min(big, 1e308))[1] if big >= 2.0**500 else 0
    k = math.ldexp(1.0, -shift)
    c1, c2, g2sq = c1 * k, c2 * k, _square(gen.gamma2)
    scaled = f" times 2^{-2 * shift}" if shift else ""
    for j, p in zip((1, 3), gen._products):
        r = (2.0 * c2 * k, -_square(c1), c2 * (c2 * g2sq), 2.0 * c2 * (c2 * p))
        _check_sum("transform", f"A B^T != I: r{j}{scaled}", r, (4.0 + 2.0 * abs(c2)) * _SUBNORMAL)
    ab.setflags(write=False)  # before its views are taken, so they inherit it
    transform = object.__new__(PropagatedTransform)
    vars(transform).update(ab=ab, a=ab[0], b=ab[1], tau=gen.tau)
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
