"""Generator construction and the two matrix-exponential routes."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from conftest import (
    FAMILIES,
    InteractionParams,
    build_generator,
    checked_transform,
    closed_form_propagator,
    frozen_generator,
    frozen_transform_a,
    frozen_transform_b,
    matrix_checked_stack,
    numeric_expm,
    random_solvable_generator,
    symplectic_products,
)

from simqp import (
    ModelFamily,
    PropagatedTransform,
    SolvableGenerator,
    evolved_rows,
    propagate,
    solve_couplings,
)
from simqp import dynamics
from simqp.dynamics import expm_coefficients

FAMILY_TAUS = {
    ModelFamily.X: math.pi / 2.0,
    ModelFamily.Y2: 1.0,
    ModelFamily.Y0: 1.0,
    ModelFamily.Z: math.log(2.0),
}
FAMILY_ES = {
    ModelFamily.X: 1.0,
    ModelFamily.Y2: 0.0,
    ModelFamily.Y0: 0.0,
    ModelFamily.Z: -1.0,
}
FAMILY_GAMMA2 = {
    ModelFamily.X: 1.0,
    ModelFamily.Y2: 2.0,
    ModelFamily.Y0: 0.0,
    ModelFamily.Z: 1.0,
}


def family_generator(family, nu):
    """The family's generator built from the couplings of its frozen matrix,
    which it must reproduce entry for entry."""
    s = frozen_generator(family, nu)
    gen = SolvableGenerator.from_couplings(
        s[1, 0], s[0, 2], FAMILY_GAMMA2[family], FAMILY_ES[family], FAMILY_TAUS[family]
    )
    np.testing.assert_array_equal(gen.s, s)
    return gen


class TestBuildGenerator:
    def test_x_family_at_half(self):
        params = InteractionParams(
            alpha=(0.25, 0.0, -0.25), beta=(-4.0, 0.0, 4.0), gamma=(0.0, 1.0, 0.0)
        )
        expected = np.array([[0.0, -4.0, -0.25], [0.25, 1.0, 0.0], [4.0, 0.0, -1.0]])
        np.testing.assert_array_equal(build_generator(params), expected)

    def test_zero_params_give_zero_matrix(self):
        params = InteractionParams(alpha=(0,) * 3, beta=(0,) * 3, gamma=(0,) * 3)
        np.testing.assert_array_equal(build_generator(params), np.zeros((3, 3)))

    @given(vals=st.lists(st.floats(-5, 5), min_size=9, max_size=9))
    @settings(max_examples=50, deadline=None)
    def test_always_traceless(self, vals):
        params = InteractionParams(alpha=vals[0:3], beta=vals[3:6], gamma=vals[6:9])
        assert np.trace(build_generator(params)) == pytest.approx(0.0, abs=1e-12)


class TestSolvableGenerator:
    def test_has_no_matrix_constructor(self):
        s = frozen_generator(ModelFamily.X, 0.5)
        message = "^a SolvableGenerator is built by SolvableGenerator.from_couplings$"
        with pytest.raises(TypeError, match=message):
            SolvableGenerator(s=s, e=1.0, gamma2=1.0, tau=math.pi / 2)
        with pytest.raises(TypeError, match=message):
            SolvableGenerator(s, 1.0, 1.0, math.pi / 2)
        with pytest.raises(TypeError, match=message):
            SolvableGenerator()

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("nu", [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_frozen_matrices_are_their_couplings(self, family, nu):
        family_generator(family, nu)  # asserts gen.s == the frozen matrix

    def test_couplings_fill_the_pattern_exactly(self):
        # what construction does not re-check: the pattern zeros, the
        # diagonal and both coupling products, over six decades of a1 and a3;
        # sigma and delta refuse none of these couplings
        rng = np.random.default_rng(20261020)
        n = 10_000
        signs = rng.choice([-1.0, 1.0], (2, n))
        alpha1 = (signs[0] * 10.0 ** rng.uniform(-3.0, 3.0, n)).tolist()
        alpha3 = (signs[1] * 10.0 ** rng.uniform(-3.0, 3.0, n)).tolist()
        gamma2 = rng.uniform(-3.0, 3.0, n).tolist()
        es = rng.uniform(-5.0, 5.0, n).tolist()
        taus = rng.uniform(0.1, 3.0, n).tolist()
        for a1, a3, g2, e, tau in zip(alpha1, alpha3, gamma2, es, taus):
            s = SolvableGenerator.from_couplings(a1, a3, g2, e, tau).s.tolist()
            assert [s[0][0], s[1][2], s[2][1]] == [0.0, 0.0, 0.0]
            assert (s[1][1], s[2][2]) == (g2, -g2)
            assert (s[1][0], s[0][2]) == (a1, a3)
            prod = -(g2 * g2 + e) / 2.0
            for product in (s[1][0] * s[0][1], s[0][2] * s[2][0]):
                assert abs(product - prod) <= 2.0 * math.ulp(prod), (a1, a3, g2, e)

    @pytest.mark.parametrize(
        "couplings",
        [(1e200, 1e200, 0.0, -1.0, 1.0), (1e160, 1e160, 0.5, 1.0, 1.0),
         (1e-200, 1e-200, 0.0, 1.0, 1.0), (1e155, -1e155, 1.0, 1.0, 1.0)],
    )
    @pytest.mark.filterwarnings("error")
    def test_square_that_overflows_is_refused_by_name(self, couplings):
        # a1 a3 or b1 b3 leaves float64 in S^2 while every coupling is finite
        message = "S^2 is not finite: a product of two couplings overflows float64"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SolvableGenerator.from_couplings(*couplings)

    @pytest.mark.parametrize(
        "skew1, skew3, name",
        [(1e-9, 0.0, "sigma"), (1e-9, -1e-9, "delta / gamma2 = a1 b1 - a3 b3")],
    )
    def test_coupling_products_that_differ_are_refused(self, skew1, skew3, name):
        # b_j = prod / a_j taken off by skew_j relative, through an a_j whose
        # reflected division skews its quotient: a1 b1 and a3 b3 differ by
        # 1e-9 relative; with opposite skews sigma still vanishes and delta not
        class Skewed(float):
            def __rtruediv__(self, other):
                return other / float(self) * (1.0 + self.skew)

        a1, a3 = Skewed(0.25), Skewed(-0.25)
        a1.skew, a3.skew = skew1, skew3
        with pytest.raises(ValueError, match=f"^{re.escape(f'S^3 != -E S: {name} = ')}"):
            SolvableGenerator.from_couplings(a1, a3, 1.0, 1.0, math.pi / 2)
        a1.skew = a3.skew = 0.0
        SolvableGenerator.from_couplings(a1, a3, 1.0, 1.0, math.pi / 2)

    @pytest.mark.parametrize(
        "couplings",
        [(1e10, 1e-10, 0.0, 1e-316, 2.0),  # b1 = -5e-327 underflows to -0
         (1.0, 1.0, 0.0, 0.0, 1e-158),  # c1^2 and c2 subnormal: r = -5e-324
         (5e-324, 1.0, 0.0, 0.0, 1.0)],
    )
    def test_couplings_that_underflow_are_accepted(self, couplings):
        # the matrix checks pass these, and so must sigma, delta and r: their
        # bounds allow each product or quotient that underflows to be off by
        # half a subnormal spacing, times what multiplies it afterwards
        got = propagate(SolvableGenerator.from_couplings(*couplings)).ab
        assert got.tobytes() == matrix_checked_stack(*couplings).tobytes()

    def test_coupling_that_underflows_is_refused_where_it_shows(self):
        # b1 = -5e-328 underflows to -0: a1 b1 = 0 against -(g2^2 + E)/2 = -5e-41,
        # and sigma = E/2 lies inside the underflow allowance |a1| 2^-1074 = 4.9e-37.
        # At tau = 1e20, c2 = 4.6e39 turns that into A[1,1] = 1 rather than 0.77,
        # and r1 = 2 c2 - c1^2 (pair 1's own constant is 0) refuses it
        couplings = (1e287, 1e-20, 0.0, 1e-40, 1e20)
        gen = SolvableGenerator.from_couplings(*couplings)
        with pytest.raises(ValueError, match=r"^A B\^T != I: r1 = .* exceeds its rounding bound"):
            propagate(gen)
        with pytest.raises(ValueError, match=r"^S\^3 != -E S"):
            matrix_checked_stack(*couplings)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["a1", "a3"])
    def test_non_finite_coupling_is_refused_by_name(self, name, bad):
        alphas = {"a1": 0.25, "a3": -0.25, name: bad}
        message = f"coupling {name} = {bad} is not finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SolvableGenerator.from_couplings(alphas["a1"], alphas["a3"], 1.0, 1.0, math.pi / 2)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SolvableGenerator.from_couplings(1.0, 1.0, 0.0, -1.0, math.inf),
             "tau must be finite, got inf"),
            (lambda: propagate(SolvableGenerator.from_couplings(1.0, 1.0, 0.0, -1.0, 1000.0)),
             "e^(tau S) overflows float64 at tau=1000, E=-1: "
             "its coefficients are (c1, c2) = (inf, inf)"),
            (lambda: propagate(SolvableGenerator.from_couplings(1.0, 1.0, 0.0, 1.0, math.inf)),
             "tau must be finite, got inf"),
            (lambda: propagate(SolvableGenerator.from_couplings(1.0, 1.0, 0.0, 0.0, 1e155)),
             "e^(tau S) overflows float64 at tau=1e+155, E=0: "
             "its coefficients are (c1, c2) = (1e+155, inf)"),
            (lambda: solve_couplings(0.5, 1e200, 0.0, 0.0),
             "time factor F(tau=1e+200, gamma2=0, E=0) = nan is not finite; "
             "the couplings are undetermined"),
            (lambda: SolvableGenerator.from_couplings(1.0, 1.0, math.inf, 0.0, 1.0),
             "gamma2 must be finite, got inf"),
            (lambda: SolvableGenerator.from_couplings(1.0, 1.0, 0.0, math.nan, 1.0),
             "E must be finite, got nan"),
            # b1 = -(gamma2**2 + E)/2 / a1 overflows at a subnormal a1, as the
            # X recipe's a1 does at nu = 1e-320
            (lambda: SolvableGenerator.from_couplings(5e-321, 1.0, 1.0, 1.0, math.pi / 2),
             "coupling b1 = -inf is not finite"),
            (lambda: SolvableGenerator.from_couplings(0.0, 1.0, 0.0, 0.0, 1.0),
             "alpha1 and alpha3 must be nonzero"),
        ],
        ids=["tau-inf", "sinh-overflows", "tau-inf-trig", "tau-squared-overflows",
             "time-factor", "gamma2-inf", "e-nan", "coupling-overflows", "alpha1-zero"],
    )
    def test_large_or_infinite_inputs_are_refused_by_name(self, build, message):
        # the suite turns a RuntimeWarning into an error, so none may escape either
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("gamma2", [1e200, 1e160])
    def test_gamma2_whose_square_overflows_is_refused_by_name(self, gamma2):
        message = f"gamma2 = {gamma2:g} is too large: its square overflows float64"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SolvableGenerator.from_couplings(1.0, 1.0, gamma2, 0.0, 1.0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("nu", [0.01, 0.1, 0.5, 0.9, 0.99])
    def test_cubic_identity(self, family, nu):
        s = frozen_generator(family, nu)
        resid = s @ s @ s + FAMILY_ES[family] * s
        assert np.abs(resid).max() <= 1e-12 * max(1.0, np.abs(s).max() ** 3)

    def test_from_couplings_round_trip(self):
        gen = SolvableGenerator.from_couplings(0.25, -0.25, 1.0, 1.0, math.pi / 2)
        np.testing.assert_allclose(gen.s, frozen_generator(ModelFamily.X, 0.5))


class TestClosedFormPropagator:
    def test_y0_at_half(self):
        gen = family_generator(ModelFamily.Y0, 0.5)
        expected = np.array([[1.0, 0.0, -0.5], [0.5, 1.0, -0.125], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(closed_form_propagator(gen, 1.0), expected, atol=1e-15)

    def test_time_zero_is_identity(self):
        for family in FAMILIES:
            gen = family_generator(family, 0.3)
            np.testing.assert_allclose(
                closed_form_propagator(gen, 0.0), np.eye(3), atol=1e-15
            )

    def test_z_at_half_hyperbolic_branch(self):
        # at t = log 2: sinh = 3/4, cosh - 1 = 1/4
        gen = family_generator(ModelFamily.Z, 0.5)
        expected = np.array(
            [[1.0, 0.0, -0.25], [0.5, 2.0, -0.0625], [0.0, 0.0, 0.5]]
        )
        np.testing.assert_allclose(
            closed_form_propagator(gen, math.log(2.0)), expected, atol=1e-15
        )

    def test_x_at_half_trig_branch(self):
        # at t = pi/2 with E = 1 the series is exactly I + S + S^2
        gen = family_generator(ModelFamily.X, 0.5)
        s = gen.s
        expected = np.eye(3) + s + s @ s
        got = closed_form_propagator(gen, math.pi / 2.0)
        np.testing.assert_allclose(got, expected, atol=1e-14)
        assert got[1, 0] == pytest.approx(0.5)
        assert got[0, 1] == pytest.approx(-8.0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("nu", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_matches_frozen_closed_forms(self, family, nu):
        gen = family_generator(family, nu)
        transform = propagate(gen)
        np.testing.assert_allclose(transform.a, frozen_transform_a(family, nu), rtol=0, atol=1e-12)
        np.testing.assert_allclose(transform.b, frozen_transform_b(family, nu), rtol=0, atol=1e-12)

    @given(seed=st.integers(0, 2**31 - 1), t=st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_group_inverse(self, seed, t):
        gen = random_solvable_generator(np.random.default_rng(seed))
        prod = closed_form_propagator(gen, t) @ closed_form_propagator(gen, -t)
        np.testing.assert_allclose(prod, np.eye(3), rtol=0, atol=1e-10)

    @given(
        seed=st.integers(0, 2**31 - 1),
        t=st.floats(-2.0, 2.0),
        s=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_group_composition(self, seed, t, s):
        gen = random_solvable_generator(np.random.default_rng(seed))
        lhs = closed_form_propagator(gen, t + s)
        rhs = closed_form_propagator(gen, t) @ closed_form_propagator(gen, s)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)


class TestZeroBranchEdge:
    """E near 0, where (c1, c2) switch from their closed forms to their
    series below t^2 |E| = sqrt(30 ulp(1))."""

    @pytest.mark.parametrize("e", [-1e-13, -5e-15, 0.0, 5e-15, 1e-13])
    @pytest.mark.parametrize(
        "tau, gamma2", [(1.0, 0.0), (1.0, 2.0), (math.log(2.0), 1.0), (math.pi / 2.0, 1.0)]
    )
    def test_couplings_and_closed_form(self, e, tau, gamma2):
        nu = 0.3
        alpha1, alpha3 = solve_couplings(nu, tau, gamma2, e)
        gen = SolvableGenerator.from_couplings(alpha1, alpha3, gamma2, e, tau)
        transform = propagate(gen)
        assert abs(transform.a[1, 0] - nu) <= 1e-12
        np.testing.assert_allclose(
            transform.a, numeric_expm(gen.s, tau), rtol=0, atol=1e-13
        )
        np.testing.assert_allclose(
            transform.b, numeric_expm(-gen.s.T, tau), rtol=0, atol=1e-13
        )

    @staticmethod
    def closed_forms(e, t):
        """(c1, c2) by sin, tan or sinh, tanh alone, at any E != 0."""
        root = math.sqrt(abs(e))
        x = t * root
        if e > 0.0:
            return math.sin(x) / root, math.sin(x) * math.tan(x / 2.0) / e
        return math.sinh(x) / root, math.sinh(x) * math.tanh(x / 2.0) / -e

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_coefficients_follow_the_closed_forms_near_zero(self, sign):
        cases = [(9e-15, 1e6)] + [(e, 1.0) for e in np.geomspace(1e-300, 1e-8, 300).tolist()]
        for magnitude, t in cases:
            got = expm_coefficients(sign * magnitude, t)
            want = self.closed_forms(sign * magnitude, t)
            for g, w in zip(got, want):
                assert math.isclose(g, w, rel_tol=1e-15), (sign * magnitude, t, got, want)

    @pytest.mark.parametrize("e", [5e-324, -5e-324])
    @pytest.mark.parametrize("t", [1.0, math.log(2.0), 3.0, 1e6])
    def test_smallest_subnormal_e_gives_the_e_zero_limit(self, e, t):
        c1, c2 = expm_coefficients(e, t)
        assert abs(c1 - t) <= math.ulp(t)
        assert abs(c2 - t * t / 2.0) <= math.ulp(t * t / 2.0)

    @pytest.mark.parametrize("e", [0.0, -0.0])
    def test_zero_e_keeps_a_square_that_overflows(self, e):
        assert expm_coefficients(e, 1e200) == (1e200, math.inf)


def _propagate_twice(gen):
    """The closed form evaluated separately at S and at -S^T: two squares."""

    def expm(m):
        c1, c2 = expm_coefficients(gen.e, gen.tau)
        return np.eye(3) + c1 * m + c2 * (m @ m)

    return expm(gen.s), expm(-gen.s.T)


class TestPropagateSharesOneSquare:
    """propagate reuses S^2 as (S^2)^T for B; the result must not move a bit."""

    def test_matches_two_separate_closed_forms(self):
        rng = np.random.default_rng(4242)
        third = 3334
        signs = rng.choice([-1.0, 1.0], (3, 3 * third))
        alpha1 = rng.uniform(0.2, 2.0, 3 * third) * signs[0]
        alpha3 = rng.uniform(0.2, 2.0, 3 * third) * signs[1]
        gamma2 = rng.uniform(-1.5, 1.5, 3 * third)
        tau = rng.uniform(0.2, 2.0, 3 * third)
        es = np.concatenate([
            np.resize([-1e-13, -5e-15, 0.0, 5e-15, 1e-13], third),
            signs[2, :third] * 10.0 ** rng.uniform(-15.0, 0.3, third),  # 15 decades
            rng.uniform(-2.0, 2.0, third),
        ])
        for k, e in enumerate(es.tolist()):
            gen = SolvableGenerator.from_couplings(
                alpha1[k], alpha3[k], gamma2[k], e, tau[k]
            )
            a, b = _propagate_twice(gen)
            transform = propagate(gen)
            assert np.array_equal(transform.a, a), (k, e)
            assert np.array_equal(transform.b, b), (k, e)

    def test_large_norm_generator_keeps_unit_determinants(self):
        # ||A|| is about 569 here.  The rounding of A's entries moves det A
        # and A B^T - I by up to a few ulp times ||A|| ||B|| (B = A^-T), so
        # both are held to a bound of that scale, which holds for any
        # faithful sin, tan, sinh and tanh, not to an absolute one
        gen = SolvableGenerator.from_couplings(
            4.20337341083468, 3.680015046681608, -0.39368287242212796,
            -17.837206618423735, 1.6683877611056739,
        )
        transform = propagate(gen)
        assert np.linalg.norm(transform.a, 2) > 500.0
        assert_canonical_to_rounding(transform.a, transform.b)

    def test_perturbed_coefficients_are_refused_by_r(self, monkeypatch):
        # (c1, c2) off by 1e-9 relative: r = 2 c2 - c1^2 - E c2^2 no longer
        # vanishes, and A B^T = I fails by r S^2.  Z's c1 = 3/4, c2 = 1/4 move r
        # at first order in both (X's c2 = 1/E would not: dr/dc2 = 2 - 2 E c2)
        gen = family_generator(ModelFamily.Z, 0.5)
        exact = dynamics.expm_coefficients(gen.e, gen.tau)
        for skew in ((1.0 + 1e-9, 1.0), (1.0, 1.0 + 1e-9)):
            moved = tuple(c * k for c, k in zip(exact, skew))
            monkeypatch.setattr(dynamics, "expm_coefficients", lambda e, t, moved=moved: moved)
            message = r"^A B\^T != I: r1 = .* exceeds its rounding bound"
            with pytest.raises(ValueError, match=message):
                propagate(gen)
        monkeypatch.undo()
        propagate(gen)


# the input checks that from_couplings makes before S is built, what the
# matrix checks run behind as well
INPUT_REFUSALS = (
    "alpha1 and alpha3 must be nonzero", "gamma2 = ", "tau must be", "E must be",
    "gamma2 must be", "coupling ",
)


def differential_couplings(rng, n):
    """``n`` coupling tuples ``(a1, a3, g2, E, tau)``: |a_j|, tau and |E|
    log-uniform over 1e-320...1e300 with zeros, |g2| up to 1e150, random
    signs; a third are ordinary couplings, and a tenth have a tiny |E|,
    couplings near sqrt|E| and tau sqrt|E| up to 8, where c1^2 and E c2^2
    overflow while A and B do not; plus the three edges named below."""

    def spread(low, high, zeros):
        values = 10.0 ** rng.uniform(low, high, n) * rng.choice([-1.0, 1.0], n)
        return np.where(rng.random(n) < zeros, 0.0, values)

    alpha1, alpha3 = spread(-320, 300, 0.02), spread(-320, 300, 0.02)
    gamma2, es = spread(-320, 150, 0.2), spread(-320, 300, 0.2)
    taus = np.abs(spread(-320, 300, 0.02))
    ordinary = rng.random(n) < 1 / 3
    alpha1[ordinary] = spread(-8, 8, 0.0)[ordinary]
    alpha3[ordinary] = spread(-8, 8, 0.0)[ordinary]
    gamma2[ordinary] = rng.uniform(-3.0, 3.0, n)[ordinary]
    es[ordinary] = rng.uniform(-5.0, 5.0, n)[ordinary]
    taus[ordinary] = rng.uniform(0.1, 3.0, n)[ordinary]
    tiny = ~ordinary & (rng.random(n) < 0.15)
    scale = np.sqrt(np.abs(spread(-320, -280, 0.0)))  # sqrt|E|
    es[tiny] = (scale * scale * rng.choice([-1.0, 1.0], n))[tiny]
    alpha1[tiny] = (scale * spread(-1, 1, 0.0))[tiny]
    alpha3[tiny] = (scale * spread(-1, 1, 0.0))[tiny]
    gamma2[tiny] = (scale * spread(-3, -1, 0.5))[tiny]
    taus[tiny] = (rng.uniform(0.0, 8.0, n) / scale)[tiny]
    rows = np.stack((alpha1, alpha3, gamma2, es, taus), axis=1).tolist()
    edges = [
        (1.0, 1.0, 0.0, 0.0, 1e-158),  # r = -5e-324
        (1e10, 1e-10, 0.0, 1e-316, 2.0),  # b1 underflows to -0
        # c1^2 and E c2^2 overflow, A and B do not
        (math.sqrt(1e-303), math.sqrt(1e-303), 0.0, -2e-303, 7.2 / math.sqrt(2e-303)),
        (1e287, 1e-20, 0.0, 1e-40, 1e20),  # b1 underflows, and c2 = 4.6e39 shows it
    ]
    return [tuple(row) for row in rows] + edges


def assert_canonical_to_rounding(a, b, c=16.0):
    """Assert ``A B^T = I`` and ``det A = det B = 1`` to what rounding the
    entries of A and B allows: ``c u ||A|| ||B||`` at first order, plus, for
    ``det A``, the second-order ``c u^2 ||A||^3`` (``det(A + dA) - det A``
    of a 3x3 has an ``||A|| ||dA||^2`` term, which takes over once
    ``u ||A||^2 > ||B||``); likewise for ``det B``.  Computed on copies
    scaled by powers of two, so that no product overflows."""
    u = np.finfo(float).eps / 2
    ea, eb = (math.frexp(np.abs(m).max())[1] for m in (a, b))
    with np.errstate(under="ignore", divide="ignore"):  # det of a scaled copy may underflow
        sa, sb = np.ldexp(a, -ea), np.ldexp(b, -eb)
        na, nb = np.linalg.norm(sa, 2), np.linalg.norm(sb, 2)
        residual = sa @ sb.T - math.ldexp(1.0, -ea - eb) * np.eye(3)
        assert np.abs(residual).max() <= c * u * na * nb
        for m, n, e, other in ((sa, na, ea, eb), (sb, nb, eb, ea)):
            first = math.ldexp(c * u * na * nb, other - 2 * e)
            deviation = abs(np.linalg.det(m) - math.ldexp(1.0, -3 * e))
            assert deviation <= first + c * u * u * n**3


@pytest.mark.parametrize("seed", [260_001, 260_002])
def test_scalar_checks_accept_what_the_matrix_checks_accept(seed):
    # wherever S^3 = -E S, A B^T = I and det A = det B = 1, checked entry by
    # entry, accept, sigma, delta and r accept as well, with [A, B] bit for
    # bit; where only sigma, delta and r accept, [A, B] is still canonical
    # and unimodular to the rounding of its entries
    accepted = scalar_only = 0
    for couplings in differential_couplings(np.random.default_rng(seed), 10_000):
        try:
            transform = propagate(SolvableGenerator.from_couplings(*couplings))
        except ValueError as exc:
            if str(exc).startswith(INPUT_REFUSALS):
                continue  # refused before either kind of check
            transform = None
        try:
            want = matrix_checked_stack(*couplings)
        except ValueError:
            if transform is not None:  # what the matrix checks refuse
                assert_canonical_to_rounding(transform.a, transform.b)
                scalar_only += 1
            continue
        assert transform is not None, couplings
        assert transform.ab.tobytes() == want.tobytes(), couplings
        accepted += 1
    assert accepted > 2_000, accepted
    assert scalar_only > 2_000, scalar_only


class TestNumericExpm:
    def test_diagonal(self):
        got = numeric_expm(np.diag([1.0, 2.0, 3.0]), 1.0)
        np.testing.assert_allclose(
            got, np.diag([math.e, math.e**2, math.e**3]), rtol=1e-13
        )

    def test_nilpotent_truncates_exactly(self):
        # Y0 generator has S^3 = 0, so e^S = I + S + S^2/2 exactly
        s = frozen_generator(ModelFamily.Y0, 0.5)
        expected = np.eye(3) + s + s @ s / 2.0
        np.testing.assert_allclose(numeric_expm(s, 1.0), expected, rtol=0, atol=1e-13)

    def test_time_scaling(self):
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(
            numeric_expm(m, math.pi),
            [[-1.0, 0.0], [0.0, -1.0]],
            rtol=0,
            atol=1e-13,
        )

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(20240817)
        for _ in range(300):
            gen = random_solvable_generator(rng)
            t = rng.uniform(-2.0, 2.0)
            np.testing.assert_allclose(
                numeric_expm(gen.s, t),
                closed_form_propagator(gen, t),
                rtol=0,
                atol=1e-9,
            )

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = rng.normal(size=(3, 3))
            t = rng.uniform(-3.0, 3.0)
            np.testing.assert_allclose(
                numeric_expm(m, t), scipy_expm(t * m), rtol=0, atol=1e-10
            )

    def test_long_time_envelope(self):
        # validated up to |t| = 10; entries grow for hyperbolic generators,
        # so compare relatively
        rng = np.random.default_rng(31)
        for _ in range(100):
            gen = random_solvable_generator(rng)
            t = rng.uniform(-10.0, 10.0)
            got = closed_form_propagator(gen, t)
            want = numeric_expm(gen.s, t)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


class TestPropagatedTransform:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_structural_identities_on_grid(self, family):
        for nu in np.linspace(0.01, 0.99, 99):
            tr = propagate(family_generator(family, float(nu)))
            a, b = tr.a, tr.b
            np.testing.assert_allclose(a @ b.T, np.eye(3), rtol=0, atol=1e-10)
            assert np.linalg.det(a) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.det(b) == pytest.approx(1.0, abs=1e-10)
            assert a[1, 1] == pytest.approx(b[2, 2], abs=1e-12)
            assert a[1, 2] == pytest.approx(b[2, 1], abs=1e-12)
            assert a[1, 0] * b[2, 0] + 2 * a[1, 1] * a[1, 2] == pytest.approx(
                0.0, abs=1e-12
            )

    def test_has_no_pair_constructor(self):
        message = "^a PropagatedTransform is built by propagate$"
        with pytest.raises(TypeError, match=message):
            PropagatedTransform(a=np.eye(3), b=np.eye(3), tau=1.0)
        with pytest.raises(TypeError, match=message):
            PropagatedTransform(np.eye(3), np.eye(3), 1.0)

    # the refusals below are those of checked_transform, the entry-by-entry
    # constructor of any pair behind measurement_from_matrix

    def test_rejects_non_canonical_pair(self):
        with pytest.raises(ValueError, match="B"):
            checked_transform(np.eye(3), 2.0 * np.eye(3), 1.0)

    def test_rejects_non_symplectic_pair_with_unit_determinants(self):
        a = np.diag([2.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="A B"):
            checked_transform(a, np.eye(3), 1.0)

    def test_canonical_tolerance_scales_with_identity(self):
        # A B^T = I is checked to 1e-10 times max(1, |I|) = 1e-10
        for off, ok in ((5e-11, True), (1e-9, False)):
            b = np.eye(3)
            b[0, 1] = off
            if ok:
                checked_transform(np.eye(3), b, 1.0)
            else:
                with pytest.raises(ValueError, match="A B"):
                    checked_transform(np.eye(3), b, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_non_finite_pair(self, bad):
        a = np.eye(3)
        a[1, 2] = bad
        with pytest.raises(ValueError):
            checked_transform(a, np.eye(3), 1.0)
        with pytest.raises(ValueError):
            checked_transform(np.eye(3), a, 1.0)

    def test_rejects_nonunit_determinant(self):
        a = np.diag([2.0, 1.0, 1.0])
        b = np.linalg.inv(a).T
        with pytest.raises(ValueError, match="det"):
            checked_transform(a, b, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", range(9))
    @pytest.mark.parametrize("factor", ["a", "b"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_entry_is_refused_at_every_position(self, factor, k, bad):
        pair = {"a": np.eye(3), "b": np.eye(3)}
        pair[factor].flat[k] = bad
        with pytest.raises(ValueError, match=r"^A B\^T != I: non-finite entries$"):
            checked_transform(tau=1.0, **pair)


def test_generator_and_transform_arrays_are_read_only():
    gen = SolvableGenerator.from_couplings(0.7, -1.1, 0.4, 0.9, 1.2)
    arrays = [gen.s, gen._powers]
    for transform in (propagate(gen), checked_transform(np.eye(3), np.eye(3), 1.0)):
        arrays += [transform.ab, transform.a, transform.b]
    assert not [array for array in arrays if array.flags.writeable]


class TestEvolvedRows:
    def test_y0_meter_row(self):
        tr = propagate(family_generator(ModelFamily.Y0, 0.5))
        q2 = evolved_rows(tr)[1]
        np.testing.assert_allclose(q2[:3], [0.5, 1.0, -0.125])
        np.testing.assert_allclose(q2[3:], 0.0)

    def test_identity_transform_fixes_quadratures(self):
        tr = checked_transform(np.eye(3), np.eye(3), 1.0)
        rows = evolved_rows(tr)
        for i in range(3):
            np.testing.assert_array_equal(rows[i, :3], np.eye(3)[i])
            np.testing.assert_array_equal(rows[3 + i, 3:], np.eye(3)[i])

    def test_evolved_commutators_are_canonical(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            tr = propagate(random_solvable_generator(rng))
            products = symplectic_products(evolved_rows(tr))
            for i in range(3):
                for j in range(3):
                    expected = 1.0 if i == j else 0.0
                    assert products[i, 3 + j] == pytest.approx(expected, abs=1e-10)
                    assert products[i, j] == 0.0
                    assert products[3 + i, 3 + j] == 0.0
