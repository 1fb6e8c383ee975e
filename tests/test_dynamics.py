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
    closed_form_propagator,
    frozen_generator,
    frozen_transform_a,
    frozen_transform_b,
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


#: the coupling at each off-pattern entry of a solvable generator
COUPLINGS = {(0, 1): "b1", (0, 2): "a3", (1, 0): "a1", (2, 0): "b3"}


def family_generator(family, nu):
    return SolvableGenerator(
        s=frozen_generator(family, nu),
        e=FAMILY_ES[family],
        gamma2=FAMILY_GAMMA2[family],
        tau=FAMILY_TAUS[family],
    )


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
    def test_rejects_pattern_violation(self):
        bad = frozen_generator(ModelFamily.Y0, 0.5).copy()
        bad[1, 2] = 0.3  # must be zero in the solvable pattern
        with pytest.raises(ValueError, match="pattern"):
            SolvableGenerator(s=bad, e=0.0, gamma2=0.0, tau=1.0)

    def test_rejects_mismatched_coupling_products(self):
        s = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        # a1*b1 = -1 but a3*b3 = +2
        with pytest.raises(ValueError, match="products"):
            SolvableGenerator(s=s, e=2.0, gamma2=0.0, tau=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 1), (1, 0), (2, 2)])
    def test_rejects_non_finite_entry(self, bad, entry):
        s = frozen_generator(ModelFamily.X, 0.5).copy()
        s[entry] = bad
        with pytest.raises(ValueError):
            SolvableGenerator(s=s, e=1.0, gamma2=1.0, tau=math.pi / 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", range(9))
    def test_non_finite_entry_is_refused_at_every_position(self, bad, k):
        # X at nu = 0.5, where a1 b1 = a3 b3 = -1: a pattern entry names
        # itself; a NaN coupling breaks its product, and an infinite one
        # passes both product checks (inf against a scale of inf) and is
        # named before S^2 is formed, with no warning
        s = frozen_generator(ModelFamily.X, 0.5).copy()
        s.flat[k] = bad
        i, j = divmod(k, 3)
        pattern = {(0, 0): 0, (1, 2): 0, (2, 1): 0, (1, 1): 1, (2, 2): -1}
        if (i, j) in pattern:
            message = f"entry ({i},{j})={bad} breaks the solvable pattern (expected {pattern[i, j]})"
        elif math.isnan(bad):
            products = "a1*b1=nan, a3*b3=-1" if k in (1, 3) else "a1*b1=-1, a3*b3=nan"
            message = f"coupling products differ: {products}"
        else:
            message = f"coupling {COUPLINGS[i, j]} = {bad} is not finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SolvableGenerator(s=s, e=1.0, gamma2=1.0, tau=math.pi / 2)

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
            (lambda: SolvableGenerator(s=np.zeros((3, 3)), e=math.nan, gamma2=0.0, tau=1.0),
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
    @pytest.mark.parametrize(
        "build",
        [
            lambda g2: SolvableGenerator.from_couplings(1.0, 1.0, g2, 0.0, 1.0),
            lambda g2: SolvableGenerator(
                s=[[0.0, 1.0, 1.0], [1.0, g2, 0.0], [1.0, 0.0, -g2]], e=0.0, gamma2=g2, tau=1.0
            ),
        ],
        ids=["from-couplings", "init"],
    )
    def test_gamma2_whose_square_overflows_is_refused_by_name(self, build, gamma2):
        message = f"gamma2 = {gamma2:g} is too large: its square overflows float64"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(gamma2)

    def test_rejects_non_finite_e(self):
        s = frozen_generator(ModelFamily.X, 0.5)
        with pytest.raises(ValueError):
            SolvableGenerator(s=s, e=math.nan, gamma2=1.0, tau=math.pi / 2)

    def test_rejects_inconsistent_e(self):
        s = frozen_generator(ModelFamily.X, 0.5)
        with pytest.raises(ValueError, match="inconsistent"):
            SolvableGenerator(s=s, e=3.0, gamma2=1.0, tau=math.pi / 2)

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
        # ||A|| is about 569 here: an LU determinant is 1 to 1e-10, while a
        # 3x3 cofactor expansion cancels to |det A - 1| of order 1e-8
        gen = SolvableGenerator.from_couplings(
            4.20337341083468, 3.680015046681608, -0.39368287242212796,
            -17.837206618423735, 1.6683877611056739,
        )
        transform = propagate(gen)
        assert np.linalg.norm(transform.a, 2) > 500.0


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

    def test_rejects_non_canonical_pair(self):
        with pytest.raises(ValueError, match="B"):
            PropagatedTransform(a=np.eye(3), b=2.0 * np.eye(3), tau=1.0)

    def test_rejects_non_symplectic_pair_with_unit_determinants(self):
        a = np.diag([2.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="A B"):
            PropagatedTransform(a=a, b=np.eye(3), tau=1.0)

    def test_canonical_tolerance_scales_with_identity(self):
        # A B^T = I is checked to 1e-10 times max(1, |I|) = 1e-10
        for off, ok in ((5e-11, True), (1e-9, False)):
            b = np.eye(3)
            b[0, 1] = off
            if ok:
                PropagatedTransform(a=np.eye(3), b=b, tau=1.0)
            else:
                with pytest.raises(ValueError, match="A B"):
                    PropagatedTransform(a=np.eye(3), b=b, tau=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_non_finite_pair(self, bad):
        a = np.eye(3)
        a[1, 2] = bad
        with pytest.raises(ValueError):
            PropagatedTransform(a=a, b=np.eye(3), tau=1.0)
        with pytest.raises(ValueError):
            PropagatedTransform(a=np.eye(3), b=a, tau=1.0)

    def test_rejects_nonunit_determinant(self):
        a = np.diag([2.0, 1.0, 1.0])
        b = np.linalg.inv(a).T
        with pytest.raises(ValueError, match="det"):
            PropagatedTransform(a=a, b=b, tau=1.0)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", range(9))
    @pytest.mark.parametrize("factor", ["a", "b"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_entry_is_refused_at_every_position(self, factor, k, bad):
        pair = {"a": np.eye(3), "b": np.eye(3)}
        pair[factor].flat[k] = bad
        with pytest.raises(ValueError, match=r"^A B\^T != I: non-finite entries$"):
            PropagatedTransform(tau=1.0, **pair)


def test_generator_and_transform_arrays_are_read_only():
    gen = SolvableGenerator.from_couplings(0.7, -1.1, 0.4, 0.9, 1.2)
    direct = SolvableGenerator(s=np.array(gen.s), e=gen.e, gamma2=gen.gamma2, tau=gen.tau)
    arrays = [gen.s, gen._powers, direct.s, direct._powers]
    for transform in (propagate(gen), PropagatedTransform(a=np.eye(3), b=np.eye(3), tau=1.0)):
        arrays += [transform.ab, transform.a, transform.b]
    assert not [array for array in arrays if array.flags.writeable]


class TestEvolvedRows:
    def test_y0_meter_row(self):
        tr = propagate(family_generator(ModelFamily.Y0, 0.5))
        q2 = evolved_rows(tr)[1]
        np.testing.assert_allclose(q2[:3], [0.5, 1.0, -0.125])
        np.testing.assert_allclose(q2[3:], 0.0)

    def test_identity_transform_fixes_quadratures(self):
        tr = PropagatedTransform(a=np.eye(3), b=np.eye(3), tau=1.0)
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
