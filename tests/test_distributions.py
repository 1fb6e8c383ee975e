"""Joint outcome laws, conditioning, sampling, posteriors, region mixtures."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from conftest import FAMILIES

from simqp import (
    JointGaussian,
    MinUncertaintyParams,
    ModelFamily,
    NonCommutingObservablesError,
    OutcomeRegion,
    PosteriorFamily,
    build_model,
    conditional,
    covariance,
    gauss_error,
    heisenberg_observables,
    joint_distribution,
    make_min_uncertainty_state,
    meter_joint,
    moments,
    momentum,
    p_pair_joint,
    position,
    posterior_consistency,
    posterior_state,
    q_pair_joint,
    qrms_errors,
    region_mixture_moments,
    sample,
    tensor,
)

PSI = MinUncertaintyParams()
PSI_OFF = MinUncertaintyParams(q1=1.5, p1=-2.0, sigma1=0.8, hbar=2.0)


def joint_state(m, psi):
    return tensor(make_min_uncertainty_state(psi), m.probe)


class TestJointDistribution:
    def test_meter_pair_is_independent(self):
        for family in FAMILIES:
            m = build_model(family, 0.5, PSI)
            joint = meter_joint(m, PSI)
            np.testing.assert_allclose(joint.mean, [0.0, 0.0], atol=1e-13)
            np.testing.assert_allclose(
                joint.cov, np.diag([0.5, 0.125]), rtol=0, atol=1e-12
            )

    def test_target_meter_pair_matches_w_matrix(self):
        m = build_model(ModelFamily.Y0, 0.5, PSI)
        joint = q_pair_joint(m, PSI)
        np.testing.assert_allclose(joint.mean, [0.0, 0.0], atol=1e-13)
        np.testing.assert_allclose(
            joint.cov, [[1.0, 0.5], [0.5, 0.5]], rtol=0, atol=1e-12
        )

    def test_canonical_pair_rejected(self):
        state = make_min_uncertainty_state(PSI)
        with pytest.raises(NonCommutingObservablesError, match="1"):
            joint_distribution([position(1), momentum(1)], state)

    def test_triple_joint_block_structure(self):
        nu = 0.5
        m = build_model(ModelFamily.Y0, nu, PSI)
        q_out, p_out = heisenberg_observables(m.transform)
        joint = joint_distribution(
            [q_out[0], m.meter_q, m.meter_p], joint_state(m, PSI)
        )
        z_block = np.array([[(2.0 - nu) / nu, 1.0], [1.0, nu]])
        np.testing.assert_allclose(joint.cov[:2, :2], z_block, rtol=0, atol=1e-12)
        np.testing.assert_allclose(joint.cov[2, :2], 0.0, atol=1e-13)
        assert joint.cov[2, 2] == pytest.approx((1.0 - nu) * 0.25, abs=1e-13)
        assert np.linalg.det(joint.cov[:2, :2]) == pytest.approx(
            1.0 - nu, rel=1e-10
        )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("nu", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_closed_form_joints(self, family, nu):
        psi = PSI_OFF
        s2 = psi.sigma1**2
        sh2 = psi.sigma_p**2
        m = build_model(family, nu, psi)

        meters = meter_joint(m, psi)
        np.testing.assert_allclose(meters.mean, [psi.q1, psi.p1], atol=1e-10)
        np.testing.assert_allclose(
            meters.cov,
            np.diag([nu * s2, (1.0 - nu) * sh2]),
            rtol=0,
            atol=1e-10,
        )

        qq = q_pair_joint(m, psi)
        np.testing.assert_allclose(qq.mean, [psi.q1, psi.q1], atol=1e-10)
        np.testing.assert_allclose(
            qq.cov, s2 * np.array([[1.0, nu], [nu, nu]]), rtol=0, atol=1e-10
        )

        pp = p_pair_joint(m, psi)
        np.testing.assert_allclose(pp.mean, [psi.p1, psi.p1], atol=1e-10)
        np.testing.assert_allclose(
            pp.cov,
            sh2 * np.array([[1.0, 1.0 - nu], [1.0 - nu, 1.0 - nu]]),
            rtol=0,
            atol=1e-10,
        )

    def test_accepts_commuting_evolved_sets(self):
        m = build_model(ModelFamily.Z, 0.4, PSI)
        q_out, p_out = heisenberg_observables(m.transform)
        state = joint_state(m, PSI)
        joint_distribution(list(q_out), state)
        joint_distribution([q_out[0], p_out[1]], state)
        joint_distribution([q_out[2], p_out[0]], state)
        with pytest.raises(NonCommutingObservablesError):
            joint_distribution([q_out[1], p_out[1]], state)

    def test_label_mismatch_rejected(self):
        state = make_min_uncertainty_state(PSI)
        with pytest.raises(ValueError):
            joint_distribution([position(1)], state, labels=("a", "b"))


class TestConditional:
    def test_conditioning_meter_recovers_error_spread(self):
        for family in FAMILIES:
            m = build_model(family, 0.5, PSI)
            joint = q_pair_joint(m, PSI)
            for z in (-1.0, 0.0, 2.5):
                cond = conditional(joint, given=(1,), values=(z,))
                assert cond.mean[0] == pytest.approx(z, abs=1e-12)
                assert cond.cov[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_independent_pair_unchanged(self):
        joint = JointGaussian(("a", "b"), [1.0, 2.0], np.diag([3.0, 4.0]))
        cond = conditional(joint, given=(1,), values=(5.0,))
        assert cond.mean[0] == pytest.approx(1.0)
        assert cond.cov[0, 0] == pytest.approx(3.0)

    def test_against_grid_integration(self):
        # brute-force Bayes update of a discretized 3-dim density
        rng = np.random.default_rng(314)
        a = rng.normal(size=(3, 3))
        joint = JointGaussian(
            ("x", "y", "z"), rng.normal(size=3), a @ a.T + 0.5 * np.eye(3)
        )
        value = joint.mean[2] + 0.4
        cond = conditional(joint, given=(2,), values=(value,))

        sds = np.sqrt(np.diag(joint.cov))
        xs = np.linspace(joint.mean[0] - 6 * sds[0], joint.mean[0] + 6 * sds[0], 501)
        ys = np.linspace(joint.mean[1] - 6 * sds[1], joint.mean[1] + 6 * sds[1], 501)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack(
            [gx.ravel(), gy.ravel(), np.full(gx.size, value)]
        )
        w = np.exp(joint.log_density(pts))
        w /= w.sum()
        mean_x = float(w @ pts[:, 0])
        mean_y = float(w @ pts[:, 1])
        var_x = float(w @ (pts[:, 0] - mean_x) ** 2)
        cov_xy = float(w @ ((pts[:, 0] - mean_x) * (pts[:, 1] - mean_y)))
        assert cond.mean[0] == pytest.approx(mean_x, abs=1e-3)
        assert cond.mean[1] == pytest.approx(mean_y, abs=1e-3)
        assert cond.cov[0, 0] == pytest.approx(var_x, abs=1e-3)
        assert cond.cov[0, 1] == pytest.approx(cov_xy, abs=1e-3)

    def test_singular_block_rejected(self):
        joint = JointGaussian(("a", "b"), [0.0, 0.0], np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="singular"):
            conditional(joint, given=(1,), values=(0.0,))

    def test_cannot_condition_everything(self):
        joint = JointGaussian(("a",), [0.0], [[1.0]])
        with pytest.raises(ValueError):
            conditional(joint, given=(0,), values=(0.0,))


class TestGaussError:
    def test_equals_qrms_error(self):
        for family in FAMILIES:
            for nu in (0.1, 0.5, 0.9):
                m = build_model(family, nu, PSI_OFF)
                errs = qrms_errors(m, PSI_OFF)
                assert gauss_error(q_pair_joint(m, PSI_OFF)) == pytest.approx(
                    errs.eps_q, abs=1e-10
                )
                assert gauss_error(p_pair_joint(m, PSI_OFF)) == pytest.approx(
                    errs.eps_p, abs=1e-10
                )

    def test_perfect_correlation_vanishes(self):
        joint = JointGaussian(("a", "b"), [2.0, 2.0], [[1.0, 1.0], [1.0, 1.0]])
        assert gauss_error(joint) == 0.0

    def test_monte_carlo_agreement(self):
        m = build_model(ModelFamily.Y0, 0.5, PSI)
        joint = q_pair_joint(m, PSI)
        draws = sample(joint, 10**6, seed=20240501)
        sq = (draws[:, 0] - draws[:, 1]) ** 2
        estimate = math.sqrt(float(np.mean(sq)))
        se_mean_sq = float(np.std(sq, ddof=1)) / math.sqrt(len(sq))
        se_estimate = se_mean_sq / (2.0 * estimate)
        assert abs(estimate - gauss_error(joint)) < 4.0 * se_estimate


class TestSample:
    def test_deterministic_in_seed(self):
        joint = JointGaussian(("a", "b"), [0.0, 1.0], [[2.0, 0.3], [0.3, 1.0]])
        first = sample(joint, 100, seed=7)
        second = sample(joint, 100, seed=7)
        np.testing.assert_array_equal(first, second)
        assert not np.array_equal(first, sample(joint, 100, seed=8))

    def test_sample_means_within_clt_band(self):
        m = build_model(ModelFamily.X, 0.5, PSI_OFF)
        joint = meter_joint(m, PSI_OFF)
        n = 10**6
        draws = sample(joint, n, seed=11)
        sds = np.sqrt(np.diag(joint.cov))
        np.testing.assert_array_less(
            np.abs(draws.mean(axis=0) - joint.mean), 5.0 * sds / math.sqrt(n)
        )

    def test_sample_covariance_close(self):
        m = build_model(ModelFamily.Y2, 0.5, PSI)
        joint = q_pair_joint(m, PSI)
        draws = sample(joint, 10**6, seed=3)
        emp = np.cov(draws.T, ddof=1)
        np.testing.assert_allclose(emp, joint.cov, rtol=0.01)

    def test_marginals_pass_ks(self):
        m = build_model(ModelFamily.Z, 0.3, PSI)
        joint = meter_joint(m, PSI)
        draws = sample(joint, 10**5, seed=19)
        for k in range(2):
            result = stats.kstest(
                draws[:, k], "norm", args=(joint.mean[k], math.sqrt(joint.cov[k, k]))
            )
            assert result.pvalue > 1e-3

    def test_rank_deficient_covariance_samples(self):
        joint = JointGaussian(("a", "b"), [0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
        draws = sample(joint, 1000, seed=2)
        np.testing.assert_allclose(draws[:, 0], draws[:, 1], atol=1e-12)

    def test_n_must_be_positive(self):
        joint = JointGaussian(("a",), [0.0], [[1.0]])
        with pytest.raises(ValueError):
            sample(joint, 0, seed=1)

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            JointGaussian(("a", "b"), [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            JointGaussian(("a", "b"), [0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_covariance_rejected(self, bad):
        for cov in ([[1.0, bad], [bad, 1.0]], [[bad, 0.0], [0.0, 1.0]]):
            with pytest.raises(ValueError, match="non-finite"):
                JointGaussian(("a", "b"), [0.0, 0.0], cov)


class TestLogDensity:
    def test_matches_scipy(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 0.2 * np.eye(3)
        mean = rng.normal(size=3)
        joint = JointGaussian(("x", "y", "z"), mean, cov)
        pts = rng.normal(size=(20, 3), scale=3.0)
        np.testing.assert_allclose(
            joint.log_density(pts),
            stats.multivariate_normal(mean=mean, cov=cov).logpdf(pts),
            rtol=1e-10,
        )


class TestMarginalization:
    @pytest.mark.parametrize("family", [ModelFamily.Y0, ModelFamily.Z])
    def test_triple_marginal_reproduces_meter_joint(self, family):
        nu = 0.3
        m = build_model(family, nu, PSI_OFF)
        q_out, _ = heisenberg_observables(m.transform)
        triple = joint_distribution(
            [q_out[0], m.meter_q, m.meter_p],
            joint_state(m, PSI_OFF),
            labels=("Q1(tau)", "Q2(tau)", "P3(tau)"),
        )
        meters = meter_joint(m, PSI_OFF)
        marg = triple.marginal((1, 2))
        np.testing.assert_allclose(marg.mean, meters.mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(marg.cov, meters.cov, rtol=0, atol=1e-12)


class TestPosteriorStates:
    def test_neutral_outcome(self):
        fam = PosteriorFamily(nu=0.5, psi=PSI)
        state = posterior_state(fam, (0.0, 0.0))
        np.testing.assert_allclose(state.mean, [0.0, 0.0])
        np.testing.assert_allclose(state.cov, np.diag([1.0, 0.25]))

    def test_packet_mean_is_fixed_point(self):
        psi = MinUncertaintyParams(q1=2.0, p1=-1.0, sigma1=1.3)
        for nu in (0.2, 0.5, 0.8):
            fam = PosteriorFamily(nu=nu, psi=psi)
            state = posterior_state(fam, (psi.q1, psi.p1))
            np.testing.assert_allclose(state.mean, [psi.q1, psi.p1], atol=1e-12)

    def test_uncertainty_product_saturated(self):
        psi = MinUncertaintyParams(sigma1=0.6, hbar=1.7)
        rng = np.random.default_rng(23)
        for _ in range(50):
            fam = PosteriorFamily(nu=rng.uniform(0.05, 0.95), psi=psi)
            state = posterior_state(fam, rng.normal(size=2, scale=4.0))
            product = state.cov[0, 0] * state.cov[1, 1]
            assert product == pytest.approx((psi.hbar / 2.0) ** 2, rel=1e-12)


class TestPosteriorConsistency:
    def test_neutral_outcome_moments(self):
        report = posterior_consistency(
            ModelFamily.Y0, 0.5, PSI, outcomes=[(0.0, 0.0)]
        )
        assert report.max_deviation < 1e-12
        # the conditional itself: mean 0, variance (1-nu)/nu = 1
        m = build_model(ModelFamily.Y0, 0.5, PSI)
        q_out, _ = heisenberg_observables(m.transform)
        triple = joint_distribution(
            [q_out[0], m.meter_q, m.meter_p], joint_state(m, PSI)
        )
        cond = conditional(triple, given=(1, 2), values=(0.0, 0.0))
        assert cond.mean[0] == pytest.approx(0.0, abs=1e-13)
        assert cond.cov[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_shifted_outcome_affine_map(self):
        m = build_model(ModelFamily.Y0, 0.5, PSI)
        q_out, _ = heisenberg_observables(m.transform)
        triple = joint_distribution(
            [q_out[0], m.meter_q, m.meter_p], joint_state(m, PSI)
        )
        cond = conditional(triple, given=(1, 2), values=(1.0, 0.0))
        assert cond.mean[0] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("family", [ModelFamily.Y0, ModelFamily.Z])
    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.7])
    def test_grid_deviation_small(self, family, nu):
        report = posterior_consistency(family, nu, PSI_OFF)
        assert report.n_outcomes == 9
        assert report.max_deviation < 1e-9

    def test_unsupported_family(self):
        with pytest.raises(ValueError, match="posterior"):
            posterior_consistency(ModelFamily.X, 0.5, PSI)


class TestRegionMixture:
    def test_full_plane_matches_heisenberg_moments(self):
        for family in (ModelFamily.Y0, ModelFamily.Z):
            for nu in (0.3, 0.5, 0.7):
                m = build_model(family, nu, PSI_OFF)
                state = joint_state(m, PSI_OFF)
                q_out, p_out = heisenberg_observables(m.transform)
                mean, cov = region_mixture_moments(
                    family, nu, PSI_OFF, OutcomeRegion.full_plane()
                )
                mq, vq = moments(state, q_out[0])
                mp, vp = moments(state, p_out[0])
                assert mean[0] == pytest.approx(mq, abs=1e-10)
                assert mean[1] == pytest.approx(mp, abs=1e-10)
                assert cov[0, 0] == pytest.approx(vq, rel=1e-10)
                assert cov[1, 1] == pytest.approx(vp, rel=1e-10)
                # symmetrized cross moment vanishes on both sides
                assert cov[0, 1] == 0.0
                assert covariance(state, q_out[0], p_out[0]) == pytest.approx(
                    0.0, abs=1e-12
                )

    def test_tiny_region_collapses_to_posterior(self):
        psi = MinUncertaintyParams(q1=0.7, p1=-0.4)
        nu = 0.5
        eps = 1e-6
        region = OutcomeRegion(psi.q1 - eps, psi.q1 + eps, psi.p1 - eps, psi.p1 + eps)
        mean, cov = region_mixture_moments(ModelFamily.Y0, nu, psi, region)
        fam = PosteriorFamily(nu=nu, psi=psi)
        target = posterior_state(fam, (psi.q1, psi.p1))
        np.testing.assert_allclose(mean, target.mean, rtol=0, atol=1e-9)
        np.testing.assert_allclose(cov, target.cov, rtol=0, atol=1e-9)

    def test_half_plane_mean_against_quadrature(self):
        nu = 0.5
        region = OutcomeRegion(PSI.q1, math.inf, -math.inf, math.inf)
        mean, _ = region_mixture_moments(ModelFamily.Y0, nu, PSI, region)
        sd = math.sqrt(nu) * PSI.sigma1
        closed = PSI.q1 + sd * math.sqrt(2.0 / math.pi) / nu
        assert mean[0] == pytest.approx(closed, rel=1e-12)

        density = stats.norm(loc=PSI.q1, scale=sd)
        mass, _ = quad(density.pdf, PSI.q1, math.inf)
        first, _ = quad(lambda x: x * density.pdf(x), PSI.q1, math.inf)
        oracle = (first / mass - (1.0 - nu) * PSI.q1) / nu
        assert mean[0] == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("family", [ModelFamily.Y0, ModelFamily.Z])
    @pytest.mark.parametrize("nu", [0.2, 0.5, 0.8])
    def test_right_tails_mirror_left_tails(self, family, nu):
        psi = MinUncertaintyParams(q1=0.0, p1=0.0, sigma1=1.7, hbar=0.6)
        spreads = (math.sqrt(nu) * psi.sigma1, math.sqrt(1.0 - nu) * psi.sigma_p)
        inf = math.inf
        for axis, sd in enumerate(spreads):
            for lo, hi in ((6.0, 7.0), (7.5, 8.5), (9.0, inf), (12.0, inf)):
                right = [-inf, inf, -inf, inf]
                left = [-inf, inf, -inf, inf]
                right[2 * axis : 2 * axis + 2] = [lo * sd, hi * sd]
                left[2 * axis : 2 * axis + 2] = [-hi * sd, -lo * sd]
                mean_r, cov_r = region_mixture_moments(family, nu, psi, OutcomeRegion(*right))
                mean_l, cov_l = region_mixture_moments(family, nu, psi, OutcomeRegion(*left))
                np.testing.assert_allclose(mean_r, -mean_l, rtol=1e-12, atol=0)
                np.testing.assert_allclose(cov_r, cov_l, rtol=1e-12, atol=0)
                # the truncated axis sits beyond its lower edge
                assert abs(mean_r[axis]) > 0

    def test_far_right_tail_mean_matches_mills_ratio(self):
        # E[Z | Z > 9] = phi(9) / Q(9) to full precision via erfc
        nu = 0.5
        sd = math.sqrt(nu) * PSI.sigma1
        region = OutcomeRegion(9.0 * sd, math.inf, -math.inf, math.inf)
        mean, _ = region_mixture_moments(ModelFamily.Y0, nu, PSI, region)
        mills = math.exp(-40.5) / math.sqrt(2.0 * math.pi) / (0.5 * math.erfc(9.0 / math.sqrt(2.0)))
        assert mean[0] == pytest.approx(sd * mills / nu, rel=1e-12)

    def test_zero_measure_region_rejected(self):
        region = OutcomeRegion(60.0, 70.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="zero"):
            region_mixture_moments(ModelFamily.Y0, 0.5, PSI, region)

    def test_unsupported_family(self):
        with pytest.raises(ValueError, match="posterior"):
            region_mixture_moments(
                ModelFamily.Y2, 0.5, PSI, OutcomeRegion.full_plane()
            )

    def test_empty_interior_rejected(self):
        with pytest.raises(ValueError, match="interior"):
            OutcomeRegion(1.0, 1.0, 0.0, 1.0)
