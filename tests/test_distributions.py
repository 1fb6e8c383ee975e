"""Joint outcome laws, conditioning, sampling, posteriors, region mixtures."""

import math
import re

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from conftest import FAMILIES, log_density, marginal

from simqp.distributions import _conditioning, _grouped, _normal_mass
from simqp.phase_space import checked_covariance, packet_probe_moments, row_moments
from simqp import (
    JointGaussian,
    MinUncertaintyParams,
    ModelFamily,
    NonCommutingObservablesError,
    OutcomeRegion,
    PosteriorFamily,
    build_model,
    conditional,
    evolved_rows,
    gauss_error,
    joint_distribution,
    make_min_uncertainty_state,
    meter_joint,
    p_pair_joint,
    posterior_consistency,
    posterior_state,
    q_pair_joint,
    qrms_errors,
    region_mixture_moments,
    sample,
)

PSI = MinUncertaintyParams()
PSI_OFF = MinUncertaintyParams(q1=1.5, p1=-2.0, sigma1=0.8, hbar=2.0)


def joint_state(m, psi):
    """``(mu, V)`` of psi x probe."""
    return packet_probe_moments(make_min_uncertainty_state(psi), m.probe)


def triple_joint(m, psi, target=0, labels=None):
    """Joint law of an evolved target (row 0 = Q1(tau), 3 = P1(tau)) and the meters."""
    rows = evolved_rows(m.transform)[[target, 1, 5]]
    return joint_distribution(rows, *joint_state(m, psi), labels)


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
        state = make_min_uncertainty_state(PSI)  # rows on its (Q1, P1)
        with pytest.raises(NonCommutingObservablesError, match="1"):
            joint_distribution(np.eye(2), state.mean, state.cov)

    def test_triple_joint_block_structure(self):
        nu = 0.5
        m = build_model(ModelFamily.Y0, nu, PSI)
        joint = triple_joint(m, PSI)
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
        rows = evolved_rows(m.transform)  # Q1(tau), Q2(tau), Q3(tau), P1(tau), ...
        mu, v = joint_state(m, PSI)
        joint_distribution(rows[:3], mu, v)
        joint_distribution(rows[[0, 4]], mu, v)
        joint_distribution(rows[[2, 3]], mu, v)
        with pytest.raises(NonCommutingObservablesError):
            joint_distribution(rows[[1, 4]], mu, v)

    def test_label_mismatch_rejected(self):
        state = make_min_uncertainty_state(PSI)
        with pytest.raises(ValueError):
            joint_distribution(np.eye(2)[:1], state.mean, state.cov, labels=("a", "b"))

    def test_label_mismatch_named_before_the_commutator_check(self):
        state = make_min_uncertainty_state(PSI)  # Q1 and P1 do not commute
        with pytest.raises(ValueError, match="^dimension mismatch: 1 labels for 2 rows$"):
            joint_distribution(np.eye(2), state.mean, state.cov, labels=("a",))

    def test_row_width_mismatch_names_both_shapes(self):
        state = make_min_uncertainty_state(PSI)  # on the packet's 2 coordinates
        message = r"^rows of shape \(1, 6\) do not act on a state with mean of shape \(2,\)$"
        with pytest.raises(ValueError, match=message):
            joint_distribution(np.eye(6)[:1], state.mean, state.cov)

    @pytest.mark.parametrize("shape", [(5, 5), (6,), (6, 5), (1, 6, 6)])
    def test_cov_shape_mismatch_names_both_shapes(self, shape):
        # refused before any product, not as numpy's matmul error
        message = re.escape(
            f"cov of shape {shape} is not the covariance of a state with mean of shape (6,)"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            joint_distribution(np.eye(6)[[0, 1]], np.zeros(6), np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_is_named(self, bad):
        with pytest.raises(ValueError, match=rf"^mean of 'b' is {bad}: it must be finite$"):
            JointGaussian(("a", "b"), [0.0, bad], np.eye(2))

    @pytest.mark.parametrize("labels", [None, ("a", "b"), ("a", "b", "c")])
    @pytest.mark.parametrize("shape", [(6,), (2, 3, 6), (0, 6)])
    def test_rows_must_be_one_block(self, labels, shape):
        # a stack of blocks is one law per block, which joint_distribution does
        # not build: it is refused by name before any other check
        m = build_model(ModelFamily.Z, 0.37, PSI)
        rows = np.zeros(shape)
        message = re.escape(f"rows must be one (k, n) block, got shape {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            joint_distribution(rows, *joint_state(m, PSI), labels)


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
        w = np.exp(log_density(joint, pts))
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

    @pytest.mark.parametrize(
        "given, values",
        [([-1], [0.3]), ([2], [0.3]), ([0.5], [0.3]), ([True], [0.3]), ([1, 1], [0.3, 0.3])],
        ids=["negative", "past-the-end", "float", "bool", "repeated"],
    )
    def test_bad_index_is_named(self, given, values):
        joint = q_pair_joint(build_model(ModelFamily.Y0, 0.5, PSI), PSI)
        index = re.escape(repr(given[-1]))
        message = rf"given index {index} is not a distinct integer in range\(2\)"
        with pytest.raises(ValueError, match=message):
            conditional(joint, given=given, values=values)

    def test_value_count_must_match_the_indices(self):
        joint = q_pair_joint(build_model(ModelFamily.Y0, 0.5, PSI), PSI)
        with pytest.raises(ValueError, match=r"^expected 1 values, got shape \(2,\)$"):
            conditional(joint, [1], [1.0, 2.0])

    def test_numpy_integer_index_accepted(self):
        joint = q_pair_joint(build_model(ModelFamily.Y0, 0.5, PSI), PSI)
        cond = conditional(joint, given=np.array([1]), values=(0.3,))
        want = conditional(joint, given=(1,), values=(0.3,))
        assert cond.labels == want.labels == ("Q1(0)",)
        np.testing.assert_array_equal(cond.mean, want.mean)
        np.testing.assert_array_equal(cond.cov, want.cov)

    def test_cannot_condition_everything(self):
        joint = JointGaussian(("a",), [0.0], [[1.0]])
        with pytest.raises(ValueError):
            conditional(joint, given=(0,), values=(0.0,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_named(self, bad):
        joint = q_pair_joint(build_model(ModelFamily.Y0, 0.5, PSI), PSI)
        message = rf"^value {bad} given for 'Q2\(tau\)' is not finite$"
        with pytest.raises(ValueError, match=message):
            conditional(joint, given=(1,), values=(bad,))

    @pytest.mark.parametrize(
        "builder, given, values, named",
        [
            (q_pair_joint, (0,), (1.7e308,), ("'Q1(0)' = 1.7e+308", "Q2(tau)")),
            (q_pair_joint, (1,), (1.7e308,), ("'Q2(tau)' = 1.7e+308", "Q1(0)")),
            (p_pair_joint, (1,), (1e308,), ("'P3(tau)' = 1e+308", "P1(0)")),
            (triple_joint, (1,), (1.7e308,), ("'f1' = 1.7e+308", "f0")),
            (triple_joint, (1, 2), (1.7e308, 0.0), ("'f1' = 1.7e+308, 'f2' = 0", "f0")),
        ],
        ids=["q-pair-target", "q-pair-meter", "p-pair-meter", "triple-one", "triple-both"],
    )
    def test_overflowing_mean_is_refused_naming_the_values(self, builder, given, values, named):
        # the suite turns numpy's overflow RuntimeWarning into an error
        psi = MinUncertaintyParams(q1=-1.5e308, p1=-1.5e308)
        joint = builder(build_model(ModelFamily.Y0, 0.5, psi), psi)
        given_text, label = named
        message = (
            f"conditioning on {given_text} overflows float64: "
            f"the conditional mean of '{label}' is inf"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            conditional(joint, given=given, values=values)

    @pytest.mark.parametrize("given", [(0,), (2,), (1, 2), (2, 0)])
    def test_a_stack_conditions_like_each_law_alone(self, given):
        rng = np.random.default_rng(sum(given) + 10 * len(given))
        roots = rng.normal(size=(4, 3, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(4, 1, 1))
        covs = checked_covariance(roots @ roots.swapaxes(-1, -2), "psd_law")
        rest, gain, schur = _conditioning(covs, list(given))
        for k, cov in enumerate(covs):
            want = _conditioning(cov, list(given))
            assert rest == want[0]
            np.testing.assert_array_equal(gain[k], want[1])
            np.testing.assert_array_equal(schur[k], want[2])

    def test_an_order_already_in_place_is_not_gathered(self):
        # posterior_consistency conditions its (2, 3, 3) triples on [1, 2]:
        # rest + given is 0, 1, 2, so the blocks are views of the stack itself
        covs = np.random.default_rng(4).normal(size=(2, 3, 3))
        assert _grouped(covs, [0, 1, 2]) is covs
        grouped = _grouped(covs, [1, 0, 2])
        assert not np.shares_memory(grouped, covs)
        np.testing.assert_array_equal(grouped, covs[:, [1, 0, 2]][:, :, [1, 0, 2]])


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

    @pytest.mark.parametrize("family", FAMILIES)
    def test_same_bits_as_the_array_formula(self, family):
        m = build_model(family, 0.37, PSI_OFF)
        for joint in (meter_joint(m, PSI_OFF), q_pair_joint(m, PSI_OFF), p_pair_joint(m, PSI_OFF)):
            v, mean = joint.cov, joint.mean
            want = math.sqrt(v[0, 0] + v[1, 1] - 2.0 * v[0, 1] + (mean[0] - mean[1]) ** 2)
            assert gauss_error(joint) == want

    def test_mean_gap_past_float64_is_inf_without_a_warning(self):
        # (m_0 - m_1)^2 overflows; the suite turns a numpy warning into an error
        joint = JointGaussian(("a", "b"), [1e200, -1e200], np.eye(2))
        assert gauss_error(joint) == math.inf

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

    @pytest.mark.parametrize(
        "n, seed, message",
        [
            (0, 1, "n must be at least 1, got 0"),
            (2.5, 1, "n must be an integer, got 2.5"),
            (True, 1, "n must be an integer, got True"),
            (3, -1, "seed must be a non-negative integer, got -1"),
            (3, 1.0, "seed must be a non-negative integer, got 1.0"),
            (3, False, "seed must be a non-negative integer, got False"),
        ],
    )
    def test_n_must_be_positive(self, n, seed, message):
        joint = JointGaussian(("a",), [0.0], [[1.0]])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample(joint, n, seed=seed)

    def test_numpy_integers_are_accepted(self):
        joint = JointGaussian(("a",), [0.0], [[1.0]])
        draws = sample(joint, np.int64(3), seed=np.uint32(5))
        np.testing.assert_array_equal(draws, sample(joint, 3, seed=5))

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            JointGaussian(("a", "b"), [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("excess", [1e-6, 1e-11])
    def test_non_psd_rejected_when_joint_is_built(self, excess):
        # smallest eigenvalue -excess, beyond the psd_law bound times the top eigenvalue
        c = 1.0 + excess
        with pytest.raises(
            ValueError, match="^covariance matrix is not positive semidefinite"
        ):
            JointGaussian(("a", "b"), [0.0, 0.0], [[1.0, c], [c, 1.0]])

    @pytest.mark.parametrize("excess", [0.0, 5e-13])
    def test_exact_rank_covariance_samples(self, excess):
        # rank-1 in three components, plus a negative eigenvalue within psd_law
        v = np.array([1.0, -2.0, 0.5])
        u = np.array([2.0, 1.0, 0.0]) / math.sqrt(5.0)
        cov = np.outer(v, v) - excess * np.outer(u, u)
        joint = JointGaussian(("a", "b", "c"), [1.0, 0.0, -1.0], cov)
        draws = sample(joint, 2000, seed=4)
        assert np.isfinite(draws).all()
        # every draw lies on the line mean + t v, up to the square roots
        # (about 1e-8) of the round-off eigenvalues eigh leaves at zero
        t = (draws - joint.mean) / v
        assert np.ptp(t, axis=1).max() < 1e-6

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
            log_density(joint, pts),
            stats.multivariate_normal(mean=mean, cov=cov).logpdf(pts),
            rtol=1e-10,
        )


class TestMarginalization:
    @pytest.mark.parametrize("family", [ModelFamily.Y0, ModelFamily.Z])
    def test_triple_marginal_reproduces_meter_joint(self, family):
        nu = 0.3
        m = build_model(family, nu, PSI_OFF)
        triple = triple_joint(m, PSI_OFF, labels=("Q1(tau)", "Q2(tau)", "P3(tau)"))
        meters = meter_joint(m, PSI_OFF)
        marg = marginal(triple, (1, 2))
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

    @pytest.mark.parametrize(
        "nu, sigma1, hbar, message",
        [
            (0.5, 1e-160, 1.0, r"posterior Var\(P1\) = inf .*nu=0.5, sigma1=1e-160"),
            (1e-6, 1e154, 1.0, r"posterior Var\(Q1\) = inf "),
            (0.5, 1e-170, 1e-200, r"posterior Var\(Q1\) = 0 is not finite and positive"),
            (0.5, 2.3e-162, 1e-320, r"posterior Var\(P1\) = 0 "),
            # sigma1**2 and (hbar/2)**2 themselves overflow
            (1e-6, 1e303, 1.0, r"posterior Var\(Q1\) = inf .*nu=1e-06, sigma1=1e\+303"),
            (0.5, 1.0, 1e300, r"posterior Var\(P1\) = inf .*hbar=1e\+300"),
        ],
    )
    def test_unrepresentable_variance_is_named(self, nu, sigma1, hbar, message):
        psi = MinUncertaintyParams(sigma1=sigma1, hbar=hbar)
        with pytest.raises(ValueError, match=message):
            PosteriorFamily(nu=nu, psi=psi)

    @pytest.mark.parametrize("nu", [0.0, 1.0, math.nan])
    def test_nu_outside_the_open_interval_is_refused(self, nu):
        with pytest.raises(ValueError, match=rf"^nu must lie strictly between 0 and 1, got {nu}$"):
            PosteriorFamily(nu=nu, psi=PSI)

    def test_variances_are_computed_once_with_the_formula_bits(self):
        psi = MinUncertaintyParams(q1=0.3, p1=-0.2, sigma1=1.3, hbar=0.7)
        fam = PosteriorFamily(nu=0.37, psi=psi)
        var_q = (1.0 - 0.37) / 0.37 * psi.sigma1**2
        assert vars(fam)["var_q"] == fam.var_q == var_q
        assert vars(fam)["var_p"] == fam.var_p == (psi.hbar / 2.0) ** 2 / var_q
        # derived fields: the family is still its (nu, psi)
        assert repr(fam) == f"PosteriorFamily(nu=0.37, psi={psi!r})"
        assert fam == PosteriorFamily(nu=0.37, psi=psi)
        assert hash(fam) == hash(PosteriorFamily(nu=0.37, psi=psi))

    @pytest.mark.parametrize(
        "outcome", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, -np.inf)]
    )
    def test_non_finite_outcome_is_named(self, outcome):
        y1, y2 = outcome
        message = (
            rf"^outcome \(y1, y2\) = \({y1}, {y2}\) is not finite "
            rf"\(nu=0.3, sigma1=1, hbar=1\)$"
        )
        with pytest.raises(ValueError, match=message):
            posterior_state(PosteriorFamily(nu=0.3, psi=PSI), outcome)

    @pytest.mark.parametrize(
        "nu, outcome, named",
        [
            (0.3, (1e308, 0.0), r"1e\+308, 0"),  # y1 / nu overflows
            (0.7, (0.0, -1e308), r"0, -1e\+308"),  # y2 / (1 - nu) overflows
            (0.5, (-1.7e308, 1.7e308), r"-1.7e\+308, 1.7e\+308"),
        ],
    )
    def test_overflowing_posterior_mean_is_named(self, nu, outcome, named):
        # the filterwarnings setting turns a numpy RuntimeWarning into a failure
        message = (
            rf"^outcome \(y1, y2\) = \({named}\) gives a posterior mean that "
            rf"overflows float64 \(nu={nu:g}, sigma1=1, hbar=1\)$"
        )
        with pytest.raises(ValueError, match=message):
            posterior_state(PosteriorFamily(nu=nu, psi=PSI), outcome)

    @pytest.mark.parametrize("y", [(1.0, 2.0, 3.0), np.zeros((2, 2)), ()])
    def test_outcome_must_be_one_pair(self, y):
        shape = re.escape(str(np.shape(y)))
        with pytest.raises(ValueError, match=rf"^outcome must be one pair \(y1, y2\), got shape {shape}$"):
            posterior_state(PosteriorFamily(nu=0.3, psi=PSI), y)


class TestPosteriorConsistency:
    def test_neutral_outcome_moments(self):
        report = posterior_consistency(
            ModelFamily.Y0, 0.5, PSI, outcomes=[(0.0, 0.0)]
        )
        assert report.max_deviation < 1e-12
        # the conditional itself: mean 0, variance (1-nu)/nu = 1
        m = build_model(ModelFamily.Y0, 0.5, PSI)
        triple = triple_joint(m, PSI)
        cond = conditional(triple, given=(1, 2), values=(0.0, 0.0))
        assert cond.mean[0] == pytest.approx(0.0, abs=1e-13)
        assert cond.cov[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_shifted_outcome_affine_map(self):
        m = build_model(ModelFamily.Y0, 0.5, PSI)
        triple = triple_joint(m, PSI)
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

    @pytest.mark.parametrize(
        "outcome", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, -np.inf)]
    )
    def test_non_finite_outcome_is_named(self, outcome):
        z, w = outcome
        message = rf"^outcome \(z, w\) = \({z}, {w}\) is not finite \(family z, nu=0.37\)$"
        with pytest.raises(ValueError, match=message):
            posterior_consistency(ModelFamily.Z, 0.37, PSI, outcomes=[(0.1, 0.2), outcome])

    @pytest.mark.parametrize("family", [ModelFamily.Y0, ModelFamily.Z])
    @pytest.mark.parametrize(
        "outcome, named", [((1e308, 0.0), r"1e\+308, 0"), ((0.0, -1.7e308), r"0, -1.7e\+308")]
    )
    def test_overflowing_conditional_mean_is_named(self, family, outcome, named):
        # the filterwarnings setting turns a numpy RuntimeWarning into a failure
        message = (
            rf"^outcome \(z, w\) = \({named}\) is too large: its conditional mean, or "
            rf"that mean's gap to the posterior family's, overflows float64 "
            rf"\(family {family.value}, nu=0.37\)$"
        )
        with pytest.raises(ValueError, match=message):
            posterior_consistency(family, 0.37, PSI, outcomes=[(0.1, 0.2), outcome])

    @pytest.mark.parametrize(
        "outcomes, message",
        [
            ([(1.0,)], r"^each outcome must be one \(z, w\) pair, got \(1.0,\)$"),
            ([(0.1, 0.2), (1.0, 2.0, 3.0)], r"pair, got \(1.0, 2.0, 3.0\)$"),
            ([], r"^outcomes is empty"),
            ([1.0], r"^each outcome must be one \(z, w\) pair, got 1.0$"),
            ([(0.1, 0.2), None], r"^each outcome must be one \(z, w\) pair, got None$"),
            ([("a", "b")], r"^each outcome must be one \(z, w\) pair, got \('a', 'b'\)$"),
            (["12"], r"^each outcome must be one \(z, w\) pair, got '12'$"),
            ([{0.1: "a", 0.2: "b"}], r"pair, got \{0.1: 'a', 0.2: 'b'\}$"),
            ([{1.0, 2.0}], r"^each outcome must be one \(z, w\) pair, got \{1.0, 2.0\}$"),
        ],
    )
    def test_outcomes_must_be_pairs(self, outcomes, message):
        with pytest.raises(ValueError, match=message):
            posterior_consistency(ModelFamily.Z, 0.37, PSI, outcomes=outcomes)

    def test_matches_per_outcome_conditionals(self):
        """Reference: one full ``conditional`` law per outcome and joint."""

        def per_outcome_report(family, nu, psi, outcomes):
            m = build_model(family, nu, psi)
            joint_q = triple_joint(m, psi, target=0)
            joint_p = triple_joint(m, psi, target=3)
            if outcomes is None:
                mean = joint_q.mean[-2:]
                sd = np.sqrt(np.diag(joint_q.cov)[-2:])
                outcomes = [
                    (mean[0] + dz * sd[0], mean[1] + dw * sd[1])
                    for dz in (-1.0, 0.0, 1.0)
                    for dw in (-1.0, 0.0, 1.0)
                ]
            fam = PosteriorFamily(nu=nu, psi=psi)
            max_mean_dev = max_var_dev = 0.0
            count = 0
            for z, w in outcomes:
                expected_mean = fam.mean_map((z, w))
                expected_var = (fam.var_q, fam.var_p)
                for joint, k in ((joint_q, 0), (joint_p, 1)):
                    cond = conditional(joint, given=(1, 2), values=(z, w))
                    max_mean_dev = max(
                        max_mean_dev, abs(cond.mean[0] - expected_mean[k])
                    )
                    max_var_dev = max(
                        max_var_dev, abs(cond.cov[0, 0] - expected_var[k])
                    )
                count += 1
            return count, max_mean_dev, max_var_dev

        rng = np.random.default_rng(8128)
        for _ in range(1000):
            family = (ModelFamily.Y0, ModelFamily.Z)[rng.integers(2)]
            nu = rng.uniform(0.01, 0.99)
            psi = MinUncertaintyParams(
                q1=rng.normal(scale=3.0),
                p1=rng.normal(scale=3.0),
                sigma1=10.0 ** rng.uniform(-3.0, 3.0),
                hbar=10.0 ** rng.uniform(-3.0, 3.0),
            )
            n = (0, 1, None)[rng.integers(3)]
            outcomes = None if n is None else [
                tuple(rng.normal(scale=3.0 * psi.sigma1, size=2)) for _ in range(n)
            ]
            if n == 0:  # a report over no outcome would read as a pass
                with pytest.raises(ValueError, match="^outcomes is empty"):
                    posterior_consistency(family, nu, psi, outcomes)
                continue
            report = posterior_consistency(family, nu, psi, outcomes)
            want = per_outcome_report(family, nu, psi, outcomes)
            got = (
                report.n_outcomes, report.max_mean_deviation, report.max_var_deviation
            )
            assert got == want, (family, nu, psi, outcomes)


class TestRegionMixture:
    def test_full_plane_matches_heisenberg_moments(self):
        for family in (ModelFamily.Y0, ModelFamily.Z):
            for nu in (0.3, 0.5, 0.7):
                m = build_model(family, nu, PSI_OFF)
                mu, v = joint_state(m, PSI_OFF)
                targets = evolved_rows(m.transform)[[0, 3]]  # Q1(tau), P1(tau)
                mean, cov = region_mixture_moments(
                    family, nu, PSI_OFF, OutcomeRegion.full_plane()
                )
                (mq, mp), evolved_cov = row_moments(targets, mu, v)
                vq, vp = np.diag(evolved_cov)
                assert mean[0] == pytest.approx(mq, abs=1e-10)
                assert mean[1] == pytest.approx(mp, abs=1e-10)
                assert cov[0, 0] == pytest.approx(vq, rel=1e-10)
                assert cov[1, 1] == pytest.approx(vp, rel=1e-10)
                # symmetrized cross moment vanishes on both sides
                assert cov[0, 1] == 0.0
                assert evolved_cov[0, 1] == pytest.approx(0.0, abs=1e-12)

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

    def test_unrepresentable_posterior_variance_is_named(self):
        psi = MinUncertaintyParams(sigma1=1e200)  # sigma1**2 overflows
        with pytest.raises(ValueError, match=r"posterior Var\(Q1\) = inf is not finite"):
            region_mixture_moments(ModelFamily.Z, 0.5, psi, OutcomeRegion(-1, 1, -1, 1))

    @pytest.mark.parametrize("nu", [1e-170, 1e-300])
    def test_tiny_nu_keeps_the_region_variance(self, nu):
        # nu**2 underflows to 0 here; dividing twice keeps Var(Q1) finite
        psi = MinUncertaintyParams()
        mean, cov = region_mixture_moments(
            ModelFamily.Z, nu, psi, OutcomeRegion(-1.0, 1.0, -1.0, 1.0)
        )
        assert mean.tolist() == [0.0, 0.0]
        assert cov[0, 0] == pytest.approx(2.0 / nu, rel=1e-15)
        assert math.isfinite(cov[1, 1]) and cov[1, 1] > 0.0

    def test_central_region_keeps_its_mass_at_huge_sigma1(self):
        # the outcome spread is 7e153, so (-1, 1) has mass ~1e-154, not 0
        psi = MinUncertaintyParams(sigma1=1e154)
        _, cov = region_mixture_moments(
            ModelFamily.Z, 0.5, psi, OutcomeRegion(-1.0, 1.0, -1.0, 1.0)
        )
        assert cov[0, 0] == pytest.approx(1e308, rel=1e-15)
        assert cov[1, 1] == pytest.approx(7.5e-309, rel=1e-12, abs=0.0)

    def test_overflowing_region_mean_is_named(self):
        # the region's mean outcome is finite; dividing it by nu overflows
        psi = MinUncertaintyParams(q1=-1e308, sigma1=1e-12)
        region = OutcomeRegion(-1.7e308, math.inf, -math.inf, 1e308)
        message = re.escape(
            "region mean outcome (z, w) = (-1e+308, 0) gives a posterior mean that "
            "overflows float64 (nu=1e-16, sigma1=1e-12, hbar=1)"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            region_mixture_moments(ModelFamily.Y0, 1e-16, psi, region)

    def test_overflowing_region_variance_is_named(self):
        # Var(Q1) = 1e308 fits, but the spread of the whole plane adds 2e308
        psi = MinUncertaintyParams(sigma1=1e154)
        message = re.escape(
            "region Var(Q1) = inf is not finite and positive (nu=0.5, sigma1=1e+154, hbar=1)"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            region_mixture_moments(ModelFamily.Z, 0.5, psi, OutcomeRegion.full_plane())

    def test_region_whose_masses_multiply_to_zero_is_answered(self):
        # each axis holds a mass of about 2.7e-176; only their product underflows.
        # References: the truncated-normal moments in 80-digit arithmetic.
        region = OutcomeRegion(20.0, 21.0, 10.0, 11.0)
        mean, cov = region_mixture_moments(ModelFamily.Y0, 0.5, PSI, region)
        np.testing.assert_allclose(
            mean, [40.049875774108394, 20.024937887054197], rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(
            np.diag(cov), [1.0024814428213133, 0.25062036070532832], rtol=2e-10, atol=0
        )

    @pytest.mark.parametrize(
        "bounds, axis, mass",
        [
            # a subnormal mass: answering would put Var(Q1) 2.6% off
            ((27.0, 28.0, -1.0, 1.0), "z", "2.61855e-319"),
            # the z-mass itself is 0 in float64, though the truncated mean is about 60
            ((30.0, 31.0, -1.0, 1.0), "z", "0"),
            ((60.0, 70.0, -1.0, 1.0), "z", "0"),
            ((-1.0, 1.0, 27.0, 28.0), "w", "0"),
        ],
    )
    def test_region_whose_own_mass_is_not_normal_is_refused(self, bounds, axis, mass):
        region = OutcomeRegion(*bounds)
        message = re.escape(
            f"region {region} has outcome mass {mass} on the {axis} axis, below "
            "the smallest normal float64 2.22507e-308"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            region_mixture_moments(ModelFamily.Y0, 0.5, PSI, region)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("lo, hi", [(6.0, 7.0), (8.0, 9.0), (9.0, 10.0), (9.0, math.inf)])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_tail_regions_within_ten_spreads_are_answered(self, axis, lo, hi, side):
        # the benchmark's tail regions: one axis 6-9 spreads out (or a
        # half-line past 9), the other axis open
        nu = 0.3
        sd = (math.sqrt(nu) * PSI.sigma1, math.sqrt(1.0 - nu) * PSI.sigma_p)[axis]
        bounds = [-math.inf, math.inf, -math.inf, math.inf]
        bounds[2 * axis : 2 * axis + 2] = sorted((side * lo * sd, side * hi * sd))
        mean, cov = region_mixture_moments(ModelFamily.Z, nu, PSI, OutcomeRegion(*bounds))
        assert np.isfinite(mean).all() and (np.diag(cov) > 0.0).all()
        assert math.copysign(1.0, mean[axis]) == side

    def test_unsupported_family(self):
        with pytest.raises(ValueError, match="posterior"):
            region_mixture_moments(
                ModelFamily.Y2, 0.5, PSI, OutcomeRegion.full_plane()
            )

    def test_empty_interior_rejected(self):
        with pytest.raises(ValueError, match="interior"):
            OutcomeRegion(1.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("bad", ["a", None, 1j, np.complex128(1.0)])
    def test_bound_that_is_not_a_real_number_is_refused_by_name(self, k, bad):
        bounds = [-1.0, 1.0, -1.0, 1.0]
        bounds[k] = bad
        name = ("z_lo", "z_hi", "w_lo", "w_hi")[k]
        message = re.escape(f"region bound {name} must be a real number, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            OutcomeRegion(*bounds)

    @pytest.mark.parametrize(
        "bounds",
        [
            (-1, 1, -1, 1),
            (np.float64(-1.0), np.int64(1), np.float32(-1.0), np.inf),
            (-math.inf, math.inf, -math.inf, math.inf),
        ],
    )
    def test_real_bounds_are_accepted(self, bounds):
        region = OutcomeRegion(*bounds)
        assert [region.z_lo, region.z_hi, region.w_lo, region.w_hi] == list(bounds)


class TestNormalMass:
    @pytest.mark.parametrize("log_eps", np.linspace(-300.0, -3.0, 45))
    def test_narrow_central_interval(self, log_eps):
        # P(-eps < Z < eps) = 2 eps phi(0) (1 - eps^2/6 + eps^4/40 - ...)
        eps = 10.0**log_eps
        series = 1.0 - eps * eps / 6.0 + eps**4 / 40.0
        want = 2.0 * eps / math.sqrt(2.0 * math.pi) * series
        assert _normal_mass(-eps, eps) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "a, b",
        [(-1e-200, 3e-200), (-0.5, 2.0), (-8.0, 1e-9), (0.3, 4.0), (2.0, math.inf),
         (-math.inf, -5.0), (-math.inf, 0.7), (-3.0, math.inf), (0.0, 1.0)],
    )
    def test_mirrored_intervals_have_identical_masses(self, a, b):
        assert _normal_mass(a, b) == _normal_mass(-b, -a)
