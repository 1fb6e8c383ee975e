"""Linear Heisenberg dynamics generated by the three-mode coupling.

The bilinear interaction turns the six quadratures into two closed linear
systems: the positions evolve with ``e^{tR}`` and the momenta with
``e^{-tR^T}`` for a traceless 3x3 generator ``R`` built from the coupling
coefficients.  A constrained subclass of generators satisfies the cubic
identity ``S^3 = -E S`` and admits a closed-form exponential with three
branches keyed on the sign of the model constant ``E``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phase_space import TOLERANCES, check_close, exceeds

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


@dataclass(frozen=True, eq=False)
class SolvableGenerator:
    """Generator in the closed-form-solvable class.

    The matrix has the constrained sparsity pattern::

        [[0,  b1, a3],
         [a1, g2, 0 ],
         [b3, 0, -g2]]

    with ``a1 b1 = a3 b3 = -(g2^2 + E)/2``, which forces ``S^3 = -E S``.
    Construction rejects anything violating the pattern or the coupling
    products; it never silently reclassifies ``E``.
    """

    s: np.ndarray
    e: float
    gamma2: float
    tau: float

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if s.shape != (3, 3):
            raise ValueError(f"generator must be 3x3, got {s.shape}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        g2 = float(self.gamma2)
        entries = s.tolist()
        pattern = {(0, 0): 0.0, (1, 2): 0.0, (2, 1): 0.0, (1, 1): g2, (2, 2): -g2}
        for (i, j), want in pattern.items():
            got = entries[i][j]
            if exceeds("identity", got - want, max(1.0, abs(want))):
                raise ValueError(
                    f"entry ({i},{j})={got:g} breaks the solvable pattern "
                    f"(expected {want:g})"
                )
        a1, b1 = entries[1][0], entries[0][1]
        a3, b3 = entries[0][2], entries[2][0]
        prod = a1 * b1
        scale = max(1.0, abs(prod), abs(a3 * b3))
        if exceeds("identity", prod - a3 * b3, scale):
            raise ValueError(
                f"coupling products differ: a1*b1={prod:g}, a3*b3={a3 * b3:g}"
            )
        e = float(self.e)
        if exceeds("identity", prod + (g2**2 + e) / 2.0, max(1.0, abs(prod))):
            raise ValueError(
                f"E={e:g} is inconsistent with a1*b1={prod:g} and gamma2={g2:g}"
            )
        s2 = s @ s
        es = e * s
        scale = max(1.0, np.maximum.reduce(np.abs(es), None, initial=0.0))
        check_close(s2 @ s, -es, "identity", "S^3 != -E S", scale)
        # [[S, -S^T], [S^2, (S^2)^T]]: the generators of A and B and their
        # squares, stacked as propagate uses them
        powers = np.array(((s, -s.T), (s2, s2.T)))
        powers.setflags(write=False)
        object.__setattr__(self, "s", powers[0, 0])
        object.__setattr__(self, "_powers", powers)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "gamma2", g2)
        object.__setattr__(self, "tau", float(self.tau))

    @classmethod
    def from_couplings(
        cls, alpha1: float, alpha3: float, gamma2: float, e: float, tau: float
    ) -> "SolvableGenerator":
        """Build the generator from (a1, a3, g2, E), deriving b1 and b3.

        The products ``a1 b1 = a3 b3 = -(g2^2 + E)/2`` fix the remaining
        couplings once a1 and a3 are chosen (both must be nonzero).
        """
        if alpha1 == 0.0 or alpha3 == 0.0:
            raise ValueError("alpha1 and alpha3 must be nonzero")
        prod = -(gamma2**2 + e) / 2.0
        b1 = prod / alpha1
        b3 = prod / alpha3
        s = np.array(
            [
                [0.0, b1, alpha3],
                [alpha1, gamma2, 0.0],
                [b3, 0.0, -gamma2],
            ]
        )
        return cls(s=s, e=e, gamma2=gamma2, tau=tau)


def expm_coefficients(e: float, t: float) -> tuple:
    """``(c1, c2)`` with ``e^{tM} = I + c1 M + c2 M^2`` whenever ``M^3 = -E M``.

    ``c2 = (1 - cos x)/E`` with ``x = t sqrt(E)`` is taken as
    ``sin(x) tan(x/2)/E``, which does not cancel at small ``x``; likewise
    for the hyperbolic branch.
    """
    if abs(e) < TOLERANCES["e_zero"]:
        return t, 0.5 * t**2
    root = np.sqrt(abs(e))
    x = t * root
    if e > 0.0:
        sin = np.sin(x)
        return sin / root, sin * np.tan(x / 2.0) / e
    sinh = np.sinh(x)
    return sinh / root, sinh * np.tanh(x / 2.0) / (-e)


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
    check_close(ab[0] @ ab[1].T, _EYE3, "transform", "A B^T != I")  # I has scale 1
    # one batched LU call; a cofactor expansion would cancel at large ||A||
    for name, det in zip("AB", np.linalg.det(ab).tolist()):
        if exceeds("transform", det - 1.0):
            raise ValueError(f"det({name}) = {det:g} != 1")
    ab.setflags(write=False)
    vars(transform).update(ab=ab, a=ab[0], b=ab[1], tau=float(tau))


def propagate(gen: SolvableGenerator) -> PropagatedTransform:
    """Evaluate both closed-form factors at the generator's own tau.

    ``B = e^{-tau S^T}`` is the closed form at ``-S^T``, whose square is
    ``(S^2)^T``, so one ``S^2`` and one pair of coefficients build the
    stack ``[A, B]`` in one expression.
    """
    c1, c2 = expm_coefficients(gen.e, gen.tau)
    first, second = gen._powers
    ab = _EYE3 + c1 * first + c2 * second
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
