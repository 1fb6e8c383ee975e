"""Linear Heisenberg dynamics generated by the three-mode coupling.

The bilinear interaction turns the six quadratures into two closed linear
systems: the positions evolve with ``e^{tR}`` and the momenta with
``e^{-tR^T}`` for a traceless 3x3 generator ``R`` built from the coupling
coefficients.  A constrained subclass of generators satisfies the cubic
identity ``S^3 = -E S`` and admits a closed-form exponential with three
branches keyed on the sign of the model constant ``E``; a
scaling-and-squaring exponential serves as the independent numeric route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phase_space import LinearObservable, check_close

# matrix identities (S^3 = -E S, consistency of E with the couplings) are
# enforced on construction at this absolute scale
IDENTITY_ATOL = 1e-12

# transform invariants A B^T = I, det = 1
TRANSFORM_ATOL = 1e-10

# |E| below this is treated as the E = 0 branch
E_ZERO_TOL = 1e-14

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


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


def _check_close(actual, expected, atol, message):
    scale = max(1.0, np.abs(np.asarray(expected)).max(initial=0.0))
    check_close(actual, expected, atol * scale, message)


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
            if abs(got - want) > IDENTITY_ATOL * max(1.0, abs(want)):
                raise ValueError(
                    f"entry ({i},{j})={got:g} breaks the solvable pattern "
                    f"(expected {want:g})"
                )
        a1, b1 = entries[1][0], entries[0][1]
        a3, b3 = entries[0][2], entries[2][0]
        prod = a1 * b1
        scale = max(1.0, abs(prod), abs(a3 * b3))
        if abs(prod - a3 * b3) > IDENTITY_ATOL * scale:
            raise ValueError(
                f"coupling products differ: a1*b1={prod:g}, a3*b3={a3 * b3:g}"
            )
        e = float(self.e)
        if abs(prod + (g2**2 + e) / 2.0) > IDENTITY_ATOL * max(1.0, abs(prod)):
            raise ValueError(
                f"E={e:g} is inconsistent with a1*b1={prod:g} and gamma2={g2:g}"
            )
        s2 = s @ s
        _check_close(s2 @ s, -e * s, IDENTITY_ATOL, "S^3 != -E S")
        s = s.copy()
        s.setflags(write=False)
        s2.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "_s2", s2)  # S^2, reused by propagate
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
    if abs(e) < E_ZERO_TOL:
        return t, 0.5 * t**2
    root = np.sqrt(abs(e))
    x = t * root
    if e > 0.0:
        return np.sin(x) / root, np.sin(x) * np.tan(x / 2.0) / e
    return np.sinh(x) / root, np.sinh(x) * np.tanh(x / 2.0) / (-e)


def _solvable_expm(m: np.ndarray, e: float, t: float) -> np.ndarray:
    """Closed form of ``e^{tM}`` for ``M^3 = -E M``."""
    c1, c2 = expm_coefficients(e, t)
    return _EYE3 + c1 * m + c2 * (m @ m)


def closed_form_propagator(gen: SolvableGenerator, t: float) -> np.ndarray:
    """``e^{tS}`` evaluated by the three-branch closed form.

    Branch selection keys on the stored model constant ``gen.e``; the
    identity ``(-S^T)^3 = -E (-S^T)`` means the momentum-sector factor is
    the same formula applied to ``-S^T``.
    """
    return _solvable_expm(gen.s, gen.e, t)


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


@dataclass(frozen=True, eq=False)
class PropagatedTransform:
    """The pair ``A = e^{tau S}``, ``B = e^{-tau S^T}`` at measurement time.

    Construction checks that the pair preserves the canonical commutation
    relations (``A B^T = I``) and stays in SL(3).
    """

    a: np.ndarray
    b: np.ndarray
    tau: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != (3, 3) or b.shape != (3, 3):
            raise ValueError("A and B must both be 3x3")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        check_close(a @ b.T, _EYE3, TRANSFORM_ATOL, "A B^T != I")  # I has scale 1
        # one batched LU call; a cofactor expansion would cancel at large ||A||
        for name, det in zip("AB", np.linalg.det(np.stack((a, b))).tolist()):
            if abs(det - 1.0) > TRANSFORM_ATOL:
                raise ValueError(f"det({name}) = {det:g} != 1")
        a, b = a.copy(), b.copy()
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "tau", float(self.tau))


def propagate(gen: SolvableGenerator) -> PropagatedTransform:
    """Evaluate both closed-form factors at the generator's own tau.

    ``B = e^{-tau S^T}`` is the closed form at ``-S^T``, whose square is
    ``(S^2)^T``, so one ``S^2`` and one pair of coefficients serve both.
    """
    c1, c2 = expm_coefficients(gen.e, gen.tau)
    s, s2 = gen.s, gen._s2
    a = _EYE3 + c1 * s + c2 * s2
    b = _EYE3 - c1 * s.T + c2 * s2.T
    return PropagatedTransform(a=a, b=b, tau=gen.tau)


def heisenberg_observables(transform: PropagatedTransform) -> tuple:
    """Evolved quadratures as linear observables.

    Returns:
        ``(q_out, p_out)`` where ``q_out[i]`` is ``Q_{i+1}(tau)`` (row i of
        A applied to the position basis) and ``p_out[i]`` is
        ``P_{i+1}(tau)`` (row i of B applied to the momentum basis).
    """
    zero = np.zeros(3)
    q_out = tuple(LinearObservable(transform.a[i], zero, 0.0) for i in range(3))
    p_out = tuple(LinearObservable(zero, transform.b[i], 0.0) for i in range(3))
    return q_out, p_out
