"""Model assembly, q-rms errors, trade-off bounds, achievability conditions."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    InteractionParams,
    arthurs_kelly_errors,
    build_generator,
    lower_bound_l,
    measurement_from_matrix,
    FAMILIES,
    random_matched_measurement,
    random_measurement,
    random_pure_probe,
    random_solvable_generator,
)

from simqp import (
    ErrorPair,
    GaussianState,
    LinearSimultaneousMeasurement,
    MinUncertaintyParams,
    ModelFamily,
    arthurs_kelly_model,
    branciard_ozawa_residual,
    build_model,
    check_theorem_conditions,
    heisenberg_product,
    measurement_from_parts,
    ozawa_inequality_residual,
    qrms_errors,
    solve_couplings,
)
from simqp import measurement
from simqp.phase_space import TARGET_ROWS
from test_engine_oracle import oracle_model, oracle_noise_moments

PSI = MinUncertaintyParams()


def meter_commutator(m) -> float:
    """``c`` in ``[Mq, Mp] = i hbar c``, from the canonical relations."""
    mq, mp = m.rows
    return float(mq[:3] @ mp[3:] - mq[3:] @ mp[:3])


def shifted_probe(probe: GaussianState, index: int, delta: float) -> GaussianState:
    mean = probe.mean.copy()
    mean[index] += delta
    return GaussianState(modes=probe.modes, mean=mean, cov=probe.cov, hbar=probe.hbar)


class TestNoiseOperators:
    """The noise operators ``N_q = Mq - Q1`` and ``N_p = Mp - P1`` as global rows."""

    def test_y0_position_noise(self):
        m = build_model(ModelFamily.Y0, 0.5, PSI)
        n_q, _ = m.rows - TARGET_ROWS
        np.testing.assert_allclose(n_q[:3], [-0.5, 1.0, -0.125])
        np.testing.assert_allclose(n_q[3:], 0.0)

    def test_y0_momentum_noise(self):
        m = build_model(ModelFamily.Y0, 0.5, PSI)
        _, n_p = m.rows - TARGET_ROWS
        np.testing.assert_allclose(n_p[3:], [-0.5, -0.125, 1.0])
        np.testing.assert_allclose(n_p[:3], 0.0)

    def test_identity_dynamics(self):
        # meters frozen at the bare probe quadratures Q2 and P3
        m = LinearSimultaneousMeasurement(
            probe=random_pure_probe(np.random.default_rng(0)),
            rows=np.eye(6)[[1, 5]],
            tau=1.0,
        )
        n_q, n_p = m.rows - TARGET_ROWS
        np.testing.assert_allclose(n_q[:3], [-1.0, 1.0, 0.0])
        np.testing.assert_allclose(n_p[3:], [-1.0, 0.0, 1.0])


class TestMeasurementConstructor:
    def test_rows_are_a_read_only_copy(self):
        rows = np.eye(6)[[1, 5]]
        probe = random_pure_probe(np.random.default_rng(0))
        m = LinearSimultaneousMeasurement(probe=probe, rows=rows, tau=1.0)
        assert not m.rows.flags.writeable
        assert rows.flags.writeable
        np.testing.assert_array_equal(m.rows, rows)

    @pytest.mark.parametrize("shape", [(6,), (1, 6), (3, 6), (2, 4)])
    def test_rejects_a_block_of_the_wrong_shape(self, shape):
        probe = random_pure_probe(np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"meter rows must have shape \(2, 6\)"):
            LinearSimultaneousMeasurement(probe=probe, rows=np.zeros(shape), tau=1.0)

    def test_rejects_non_commuting_meters(self):
        probe = random_pure_probe(np.random.default_rng(0))
        # Q2 and P2 are a canonical pair
        with pytest.raises(ValueError, match=r"do not commute: \[Mq, Mp\] = i\*hbar\*1$"):
            LinearSimultaneousMeasurement(probe=probe, rows=np.eye(6)[[1, 4]], tau=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_rows_by_meter_and_column(self, bad):
        # a nan would pass the commutator and an inf would break its matmul
        probe = random_pure_probe(np.random.default_rng(0))
        rows = np.eye(6)[[1, 5]]
        rows[1, 4] = bad
        message = rf"^meter Mp has coefficient {bad} in column 4: it must be finite$"
        with pytest.raises(ValueError, match=message):
            LinearSimultaneousMeasurement(probe=probe, rows=rows, tau=1.0)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", range(12))
    def test_non_finite_row_entry_is_named_at_every_position(self, k, bad):
        probe = random_pure_probe(np.random.default_rng(0))
        rows = np.eye(6)[[1, 5]]
        rows.flat[k] = bad
        meter, column = ("Mq", "Mp")[k // 6], k % 6
        message = rf"^meter {meter} has coefficient {bad} in column {column}: it must be finite$"
        with pytest.raises(ValueError, match=message):
            LinearSimultaneousMeasurement(probe=probe, rows=rows, tau=1.0)


def random_measurement_and_oracle(rng, psi):
    """``random_measurement``'s draw, with the same parts wired by the inline oracle."""
    gen = random_solvable_generator(rng)
    probe = random_pure_probe(rng, psi.hbar)
    return measurement_from_parts(gen, probe), oracle_model(gen, probe)


class TestQrmsErrors:
    def test_matches_observable_route_on_random_draws(self):
        rng = np.random.default_rng(20240611)
        worst = 0.0
        for _ in range(1000):
            psi = MinUncertaintyParams(
                q1=rng.normal(),
                p1=rng.normal(),
                sigma1=10.0 ** rng.uniform(-1.0, 1.0),
                hbar=10.0 ** rng.uniform(-1.0, 1.0),
            )
            m, om = random_measurement_and_oracle(rng, psi)
            errs = qrms_errors(m, psi)
            _, _, (want_q, want_p) = oracle_noise_moments(om, psi)
            for got, want in ((errs.eps_q**2, want_q), (errs.eps_p**2, want_p)):
                worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-14

    def test_conditions_match_observable_route(self):
        rng = np.random.default_rng(7)
        psi = MinUncertaintyParams(q1=0.4, p1=-1.1, sigma1=1.3, hbar=0.8)
        for _ in range(50):
            m, om = random_measurement_and_oracle(rng, psi)
            report = check_theorem_conditions(m, psi)
            means, var_probe, _ = oracle_noise_moments(om, psi)
            assert report.cond_i_residuals == pytest.approx(means, rel=1e-14, abs=1e-15)
            weight = math.sqrt(abs(om.a[1, 0] * om.b[2, 0]))
            spreads = [
                math.sqrt(var) - weight * sigma
                for var, sigma in zip(var_probe, (psi.sigma_q, psi.sigma_p))
            ]
            assert report.cond_ii_residuals == pytest.approx(spreads, rel=1e-14, abs=1e-15)
            bo = branciard_ozawa_residual(qrms_errors(m, psi), psi)
            assert report.bo_residual == bo

    def test_minimum_trade_off_at_half(self):
        errs = qrms_errors(build_model(ModelFamily.Y0, 0.5, PSI), PSI)
        assert errs.eps_q == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert errs.eps_p == pytest.approx(math.sqrt(0.125), rel=1e-12)

    def test_minimum_trade_off_at_quarter(self):
        errs = qrms_errors(build_model(ModelFamily.Y0, 0.25, PSI), PSI)
        assert errs.eps_q**2 == pytest.approx(0.75, rel=1e-12)
        assert errs.eps_p**2 == pytest.approx(0.0625, rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_error_split_over_grid(self, family):
        psi = MinUncertaintyParams(q1=1.0, p1=-2.0, sigma1=0.8, hbar=2.0)
        for nu in np.linspace(0.01, 0.99, 99):
            errs = qrms_errors(build_model(family, float(nu), psi), psi)
            assert errs.eps_q**2 == pytest.approx(
                (1.0 - nu) * psi.sigma1**2, rel=1e-10
            )
            assert errs.eps_p**2 == pytest.approx(nu * psi.sigma_p**2, rel=1e-10)
            assert errs.eps_q < psi.sigma_q
            assert errs.eps_p < psi.sigma_p

    def test_probe_mean_shift_adds_exact_square(self):
        m = build_model(ModelFamily.Y0, 0.4, PSI)
        base = qrms_errors(m, PSI)
        delta = 0.7
        a22 = m.transform.a[1, 1]
        perturbed = LinearSimultaneousMeasurement(
            probe=shifted_probe(m.probe, 0, delta),
            rows=m.rows,
            tau=m.tau,
            generator=m.generator,
            transform=m.transform,
        )
        errs = qrms_errors(perturbed, PSI)
        assert errs.eps_q**2 - base.eps_q**2 == pytest.approx(
            (a22 * delta) ** 2, rel=1e-10
        )
        assert errs.eps_p == pytest.approx(base.eps_p, rel=1e-12)

    def test_hbar_scaling(self):
        # eps_p is linear in hbar; the quadratic bound side scales as hbar^2
        for family in FAMILIES:
            small = MinUncertaintyParams(hbar=1.0)
            large = MinUncertaintyParams(hbar=2.0)
            e1 = qrms_errors(build_model(family, 0.3, small), small)
            e2 = qrms_errors(build_model(family, 0.3, large), large)
            assert e2.eps_p == pytest.approx(2.0 * e1.eps_p, rel=1e-12)
            assert e2.eps_q == pytest.approx(e1.eps_q, rel=1e-12)
            assert branciard_ozawa_residual(e2, large) == pytest.approx(0.0, abs=1e-10)


class TestBranciardOzawaResidual:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("nu", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_families_achieve_equality(self, family, nu):
        errs = qrms_errors(build_model(family, nu, PSI), PSI)
        assert branciard_ozawa_residual(errs, PSI) == pytest.approx(0.0, abs=1e-10)

    def test_error_free_momentum_corner(self):
        errs = ErrorPair(eps_q=PSI.sigma_q, eps_p=0.0)
        assert branciard_ozawa_residual(errs, PSI) == pytest.approx(0.0, abs=1e-15)

    def test_arthurs_kelly_strictly_positive(self):
        probe = random_pure_probe(np.random.default_rng(1))
        errs = arthurs_kelly_errors(probe)
        assert branciard_ozawa_residual(errs, PSI) > 0.1

    def test_fuzz_nonnegative(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            m = random_measurement(rng, PSI)
            errs = qrms_errors(m, PSI)
            assert branciard_ozawa_residual(errs, PSI) >= -1e-9


class TestHeisenbergProduct:
    def test_peak_at_half(self):
        errs = qrms_errors(build_model(ModelFamily.X, 0.5, PSI), PSI)
        assert heisenberg_product(errs) == pytest.approx(0.25, rel=1e-12)

    def test_off_peak_value(self):
        errs = qrms_errors(build_model(ModelFamily.Z, 0.9, PSI), PSI)
        assert heisenberg_product(errs) == pytest.approx(0.15, rel=1e-10)

    def test_zero_momentum_error(self):
        assert heisenberg_product(ErrorPair(1.0, 0.0)) == 0.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_closed_form_on_grid(self, family):
        for nu in np.linspace(0.01, 0.99, 99):
            errs = qrms_errors(build_model(family, float(nu), PSI), PSI)
            expected = 0.5 * math.sqrt(0.25 - (nu - 0.5) ** 2)
            assert heisenberg_product(errs) == pytest.approx(expected, abs=1e-10)
            assert heisenberg_product(errs) <= 0.25 + 1e-12
            assert heisenberg_product(errs) < 0.5


class TestLowerBoundL:
    def test_minimum_on_segment(self):
        assert lower_bound_l(0.5, 0.5) == pytest.approx(0.25)

    def test_origin(self):
        assert lower_bound_l(0.0, 0.0) == pytest.approx(0.5)

    def test_grid_scan_minimum(self):
        grid = np.arange(-1.0, 2.0001, 0.05)
        values = np.array([[lower_bound_l(a, b) for b in grid] for a in grid])
        on_segment = [
            lower_bound_l(a, 1.0 - a) for a in grid if 0.0 <= a <= 1.0
        ]
        assert min(on_segment) == pytest.approx(0.25, abs=1e-12)
        assert values.min() >= 0.25 - 1e-12

    @given(a=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_quarter_everywhere_on_segment(self, a):
        assert lower_bound_l(a, 1.0 - a) == pytest.approx(0.25, abs=1e-12)


class TestSolveCouplings:
    def test_plain_e_zero(self):
        assert solve_couplings(0.5, 1.0, 0.0, 0.0) == pytest.approx((0.5, -0.5))

    def test_trig_branch(self):
        alpha1, alpha3 = solve_couplings(0.5, math.pi / 2.0, 1.0, 1.0)
        assert alpha1 == pytest.approx(0.25)
        assert alpha3 == pytest.approx(-0.25)

    def test_hyperbolic_branch(self):
        alpha1, alpha3 = solve_couplings(0.5, math.log(2.0), 1.0, -1.0)
        assert alpha1 == pytest.approx(0.5)
        assert alpha3 == pytest.approx(-0.5)

    def test_degenerate_time_factor(self):
        # full rotation: sin and 1-cos both vanish
        with pytest.raises(ValueError, match="degenerate"):
            solve_couplings(0.5, 2.0 * math.pi, 0.0, 1.0)

    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.0])
    def test_nu_domain(self, nu):
        with pytest.raises(ValueError):
            solve_couplings(nu, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "tau, gamma2, e, value",
        [
            (1000.0, -1.0, -1.0, "nan"),  # sinh overflows, then inf - inf
            (1000.0, 1.0, -1.0, "inf"),  # sinh overflows
            (math.inf, 1.0, 1.0, "nan"),  # sin(inf)
        ],
    )
    def test_non_finite_time_factor_is_refused_by_name(self, tau, gamma2, e, value):
        # the suite turns a RuntimeWarning into an error, so none may escape either
        message = (
            f"time factor F(tau={tau:g}, gamma2={gamma2:g}, E={e:g}) = {value} "
            "is not finite; the couplings are undetermined"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_couplings(0.5, tau, gamma2, e)


class TestBuildModel:
    def test_x_recipe(self):
        m = build_model(ModelFamily.X, 0.5, PSI)
        assert m.tau == pytest.approx(math.pi / 2.0)
        assert m.transform.a[1, 0] == pytest.approx(0.5, abs=1e-14)
        assert m.transform.a[1, 1] == pytest.approx(2.0, abs=1e-14)

    def test_y0_meter_coefficients(self):
        m = build_model(ModelFamily.Y0, 0.3, PSI)
        a = m.transform.a
        assert a[1, 0] == pytest.approx(0.3, abs=1e-14)
        assert a[1, 1] == pytest.approx(1.0, abs=1e-14)
        assert a[1, 2] == pytest.approx(-0.105, abs=1e-14)

    def test_z_probe_scale_matches_meter(self):
        m = build_model(ModelFamily.Z, 0.5, PSI)
        assert m.transform.a[1, 1] == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("nu", [0.0, 1.0, -0.5, 1.5])
    def test_nu_domain(self, nu):
        with pytest.raises(ValueError):
            build_model(ModelFamily.Y0, nu, PSI)

    def test_comparator_has_no_recipe(self):
        with pytest.raises(ValueError, match="recipe"):
            build_model(ModelFamily.ARTHURS_KELLY, 0.5, PSI)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_meters_commute(self, family):
        m = build_model(family, 0.37, PSI)
        assert abs(meter_commutator(m)) <= 1e-12

    def test_recipe_kappa_drift_is_caught(self, monkeypatch):
        recipe = measurement.FAMILY_PARAMETERS[ModelFamily.X]
        wrong = dataclasses.replace(recipe, kappa=recipe.kappa + 0.5)
        monkeypatch.setitem(measurement.FAMILY_PARAMETERS, ModelFamily.X, wrong)
        with pytest.raises(RuntimeError, match=r"a22=2\b.*drifted.*kappa=2\.5"):
            build_model(ModelFamily.X, 0.5, PSI)


class TestGeneralGenerator:
    def test_outside_solvable_class(self):
        # alpha2 and beta2 break the solvable sparsity pattern; the numeric
        # route still yields a valid commuting meter pair
        params = InteractionParams(
            alpha=(0.6, 0.4, -0.5), beta=(-0.7, 0.3, 0.8), gamma=(0.1, -0.2, 0.3)
        )
        r = build_generator(params)
        probe = random_pure_probe(np.random.default_rng(55))
        m = measurement_from_matrix(r, 0.9, probe)
        assert abs(meter_commutator(m)) <= 1e-12
        errs = qrms_errors(m, PSI)
        assert branciard_ozawa_residual(errs, PSI) >= -1e-9
        assert ozawa_inequality_residual(errs, PSI) >= -1e-9

    def test_matrix_route_matches_solvable_route(self):
        rng = np.random.default_rng(707)
        for _ in range(50):
            gen = random_solvable_generator(rng)
            probe = random_pure_probe(rng)
            by_parts = measurement_from_parts(gen, probe)
            by_matrix = measurement_from_matrix(gen.s, gen.tau, probe)
            assert by_matrix.generator is None
            assert by_matrix.tau == by_parts.tau
            np.testing.assert_allclose(by_matrix.rows, by_parts.rows, rtol=0, atol=1e-12)

    def test_fuzz_bounds_hold(self):
        rng = np.random.default_rng(606)
        for _ in range(200):
            params = InteractionParams(
                alpha=rng.uniform(-1, 1, 3),
                beta=rng.uniform(-1, 1, 3),
                gamma=rng.uniform(-1, 1, 3),
            )
            m = measurement_from_matrix(
                build_generator(params), rng.uniform(0.2, 1.5), random_pure_probe(rng)
            )
            errs = qrms_errors(m, PSI)
            assert branciard_ozawa_residual(errs, PSI) >= -1e-9
            assert ozawa_inequality_residual(errs, PSI) >= -1e-9


class TestArthursKelly:
    def test_vacuum_probe_errors(self):
        probe = GaussianState(
            modes=(2, 3), mean=np.zeros(4), cov=0.5 * np.eye(4), hbar=1.0
        )
        errs = arthurs_kelly_errors(probe)
        # <(Q2 + P3/2)^2> = 1/2 + 1/8
        assert errs.eps_q**2 == pytest.approx(0.625, rel=1e-14)
        assert errs.eps_p**2 == pytest.approx(0.625, rel=1e-14)

    def test_product_bounded_below(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            errs = arthurs_kelly_errors(random_pure_probe(rng))
            assert heisenberg_product(errs) >= 0.5 - 1e-10

    def test_covariance_scaling(self):
        probe = GaussianState(
            modes=(2, 3), mean=np.zeros(4), cov=0.5 * np.eye(4), hbar=1.0
        )
        lam = 3.0
        scaled = GaussianState(
            modes=(2, 3), mean=np.zeros(4), cov=lam * probe.cov, hbar=1.0
        )
        base, big = arthurs_kelly_errors(probe), arthurs_kelly_errors(scaled)
        assert big.eps_q**2 == pytest.approx(lam * base.eps_q**2, rel=1e-12)
        assert big.eps_p**2 == pytest.approx(lam * base.eps_p**2, rel=1e-12)

    def test_meter_rows(self):
        # Q1 + Q2 + P3/2 and P1 - P2/2 + Q3
        m = arthurs_kelly_model(random_pure_probe(np.random.default_rng(3)))
        np.testing.assert_array_equal(
            m.rows, [[1.0, 1.0, 0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 1.0, 1.0, -0.5, 0.0]]
        )
        assert m.generator is None and m.transform is None

    def test_model_errors_match_direct_formula(self):
        probe = random_pure_probe(np.random.default_rng(3))
        m = arthurs_kelly_model(probe)
        from_model = qrms_errors(m, PSI)
        direct = arthurs_kelly_errors(probe)
        assert from_model.eps_q == pytest.approx(direct.eps_q, rel=1e-12)
        assert from_model.eps_p == pytest.approx(direct.eps_p, rel=1e-12)


class TestOzawaInequality:
    def test_family_model_slack(self):
        errs = qrms_errors(build_model(ModelFamily.Y2, 0.5, PSI), PSI)
        assert ozawa_inequality_residual(errs, PSI) == pytest.approx(
            math.sqrt(2.0) / 2.0 - 0.25, rel=1e-10
        )

    def test_tight_corner(self):
        errs = ErrorPair(eps_q=0.0, eps_p=PSI.sigma_p)
        assert ozawa_inequality_residual(errs, PSI) == pytest.approx(0.0, abs=1e-15)

    def test_arthurs_kelly_positive(self):
        errs = arthurs_kelly_errors(random_pure_probe(np.random.default_rng(17)))
        assert ozawa_inequality_residual(errs, PSI) > 0.0

    def test_fuzz_nonnegative(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            errs = qrms_errors(random_measurement(rng, PSI), PSI)
            assert ozawa_inequality_residual(errs, PSI) >= -1e-9


class TestTheoremConditions:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("nu", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_families_pass(self, family, nu):
        psi = MinUncertaintyParams(q1=0.3, p1=-1.1, sigma1=1.4, hbar=0.9)
        report = check_theorem_conditions(build_model(family, nu, psi), psi)
        assert report.all_pass
        assert abs(report.bo_residual) <= 1e-10

    def test_mean_shift_breaks_condition_i_only(self):
        m = build_model(ModelFamily.Y0, 0.5, PSI)
        perturbed = LinearSimultaneousMeasurement(
            probe=shifted_probe(m.probe, 0, 1.0),
            rows=m.rows,
            tau=m.tau,
            generator=m.generator,
            transform=m.transform,
        )
        report = check_theorem_conditions(perturbed, PSI)
        assert not report.passes_i
        assert report.passes_ii
        assert report.passes_iii
        assert report.bo_residual > 1e-3

    def test_arthurs_kelly_fails_condition_iii(self):
        report = check_theorem_conditions(
            arthurs_kelly_model(random_pure_probe(np.random.default_rng(8))), PSI
        )
        assert not report.passes_iii
        assert report.cond_iii[0] == pytest.approx(1.0)
        assert report.cond_iii[1] == pytest.approx(1.0)
        assert report.cond_iii[2] == pytest.approx(1.0)
        assert not report.all_pass

    def test_equivalence_on_matched_models(self):
        rng = np.random.default_rng(7)
        psi = MinUncertaintyParams(q1=0.8, p1=0.2, sigma1=1.1)
        for _ in range(200):
            m, _ = random_matched_measurement(rng, psi)
            report = check_theorem_conditions(m, psi)
            assert report.all_pass
            assert abs(report.bo_residual) <= 1e-8

    def test_equivalence_on_random_models(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            report = check_theorem_conditions(random_measurement(rng, PSI), PSI)
            assert report.all_pass == (abs(report.bo_residual) <= 1e-8)


class TestErrorPair:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ErrorPair(-0.1, 0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ErrorPair(math.nan, 0.5)
        with pytest.raises(ValueError):
            ErrorPair(0.5, math.inf)
