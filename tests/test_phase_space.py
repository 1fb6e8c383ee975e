"""Quadrature observables, commutators, and Gaussian state constructors."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simqp import (
    GaussianState,
    LinearObservable,
    MinUncertaintyParams,
    ModeMismatchError,
    PosteriorFamily,
    commutator_coeff,
    covariance,
    make_min_uncertainty_state,
    make_probe_state,
    moments,
    momentum,
    position,
    posterior_state,
    tensor,
)
from simqp.phase_space import PSD_RTOL, checked_covariance, linear_moments

finite = st.floats(-10.0, 10.0, allow_nan=False)

# every non-empty proper subset of the modes, as an ascending tuple
MODE_TUPLES = [c for k in (1, 2) for c in itertools.combinations((1, 2, 3), k)]

# the 12 ordered pairs of disjoint mode tuples
MODE_SPLITS = [(a, b) for a in MODE_TUPLES for b in MODE_TUPLES if not set(a) & set(b)]

FACTOR_KINDS = ("random", "pure", "rank-one", "psd-edge")


def factor_covariance(rng, kind: str, dim: int) -> np.ndarray:
    """A covariance that passes ``checked_covariance`` at ``PSD_RTOL``, of one kind.

    ``pure``: a pure state squeezed by up to e^20 per mode, rotated within
    each mode; ``rank-one``: an exact-rank ``v v^T``; ``psd-edge``: smallest
    eigenvalue at -0.9 * PSD_RTOL times the largest.
    """
    if kind == "random":
        root = rng.normal(size=(dim, dim))
        return root @ root.T
    if kind == "pure":
        m = dim // 2
        squeeze = np.exp(rng.uniform(-10.0, 10.0, size=m))
        cov = 0.5 * np.diag(np.concatenate([squeeze**2, squeeze**-2]))
        rot = np.eye(dim)
        for j, angle in enumerate(rng.uniform(0.0, np.pi, size=m)):
            c, s = np.cos(angle), np.sin(angle)
            rot[np.ix_([j, m + j], [j, m + j])] = [[c, -s], [s, c]]
        return rot @ cov @ rot.T
    if kind == "rank-one":
        v = rng.normal(size=dim)
        return np.outer(v, v)
    eigvals = rng.uniform(0.1, 1.0, size=dim)
    eigvals[0] = 1.0
    eigvals[-1] = -0.9 * PSD_RTOL
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return basis @ np.diag(eigvals) @ basis.T


def random_observable(rng):
    return LinearObservable(rng.normal(size=3), rng.normal(size=3), rng.normal())


class TestCommutator:
    def test_canonical_pair(self):
        assert commutator_coeff(position(1), momentum(1)) == 1.0

    def test_probe_positions_commute(self):
        assert commutator_coeff(position(2), position(3)) == 0.0
        assert commutator_coeff(momentum(2), momentum(3)) == 0.0

    def test_cross_mode_pairs_commute(self):
        assert commutator_coeff(position(1), momentum(2)) == 0.0
        assert commutator_coeff(momentum(3), position(1)) == 0.0

    def test_probe_noise_combination(self):
        # Y0 at nu = 1/2: a22 = 1, a23 = -1/8, b32 = -1/8, b33 = 1;
        # the combination pair has coefficient -a21*b31 = -1/4
        f = 1.0 * position(2) + (-0.125) * position(3)
        g = (-0.125) * momentum(2) + 1.0 * momentum(3)
        assert commutator_coeff(f, g) == pytest.approx(-0.25, abs=1e-15)

    def test_offsets_ignored(self):
        f = position(1) + 3.0 * LinearObservable(np.zeros(3), np.zeros(3), 1.0)
        assert commutator_coeff(f, momentum(1)) == 1.0

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_antisymmetric(self, seed):
        rng = np.random.default_rng(seed)
        f, g = random_observable(rng), random_observable(rng)
        assert commutator_coeff(f, g) == pytest.approx(
            -commutator_coeff(g, f), abs=1e-12
        )

    @given(seed=st.integers(0, 2**31 - 1), a=finite, b=finite)
    @settings(max_examples=30, deadline=None)
    def test_bilinear(self, seed, a, b):
        rng = np.random.default_rng(seed)
        f, g, h = (random_observable(rng) for _ in range(3))
        left = commutator_coeff(a * f + b * g, h)
        assert left == pytest.approx(
            a * commutator_coeff(f, h) + b * commutator_coeff(g, h),
            abs=1e-9,
        )


class TestMinUncertaintyState:
    def test_standard_packet(self):
        state = make_min_uncertainty_state(MinUncertaintyParams(0.0, 0.0, 1.0, 1.0))
        np.testing.assert_allclose(state.mean, [0.0, 0.0])
        np.testing.assert_allclose(state.cov, np.diag([1.0, 0.25]))

    @given(
        q1=finite,
        p1=finite,
        sigma1=st.floats(0.05, 10.0),
        hbar=st.floats(0.05, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_uncertainty_product_saturated(self, q1, p1, sigma1, hbar):
        psi = MinUncertaintyParams(q1, p1, sigma1, hbar)
        state = make_min_uncertainty_state(psi)
        _, var_q = moments(state, position(1))
        _, var_p = moments(state, momentum(1))
        assert np.sqrt(var_q * var_p) == pytest.approx(hbar / 2.0, rel=1e-12)

    def test_translation_only_moves_mean(self):
        base = make_min_uncertainty_state(MinUncertaintyParams(0.0, 0.0, 1.0, 1.0))
        moved = make_min_uncertainty_state(MinUncertaintyParams(5.0, -7.0, 1.0, 1.0))
        np.testing.assert_allclose(moved.mean, [5.0, -7.0])
        np.testing.assert_allclose(moved.cov, base.cov)

    @pytest.mark.parametrize(
        "sigma1, hbar, message",
        [
            (1e200, 1.0, r"packet Var\(Q1\) = inf .*sigma1=1e\+200, hbar=1"),
            (1e-170, 1e-200, r"packet Var\(Q1\) = 0 is not finite and positive"),
            (1e-160, 1.0, r"packet Var\(P1\) = inf "),
            (1e100, 1e-100, r"packet Var\(P1\) = 0 "),
            (9.5e153, 1.0, r"packet Var\(Q1\) = 9.025e\+307 is too large: .*below 2\*\*1023"),
        ],
    )
    def test_unrepresentable_variance_is_named(self, sigma1, hbar, message):
        with pytest.raises(ValueError, match=message):
            make_min_uncertainty_state(MinUncertaintyParams(sigma1=sigma1, hbar=hbar))

    def test_cached_state_is_read_only(self):
        state = make_min_uncertainty_state(MinUncertaintyParams(0.3, -0.2, 1.5, 0.7))
        for arr in (state.mean, state.cov):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_cached_state_shared_by_equal_params(self):
        first = make_min_uncertainty_state(MinUncertaintyParams(0.3, -0.2, 1.5, 0.7))
        again = make_min_uncertainty_state(MinUncertaintyParams(0.3, -0.2, 1.5, 0.7))
        assert again is first

    def test_cached_state_differs_for_different_params(self):
        base = make_min_uncertainty_state(MinUncertaintyParams(0.3, -0.2, 1.5, 0.7))
        for other in (
            MinUncertaintyParams(0.31, -0.2, 1.5, 0.7),
            MinUncertaintyParams(0.3, -0.2, 1.6, 0.7),
            MinUncertaintyParams(0.3, -0.2, 1.5, 0.8),
        ):
            state = make_min_uncertainty_state(other)
            assert state is not base
            assert state.mean[0] == other.q1
            assert state.cov[1, 1] == pytest.approx(other.sigma_p**2, rel=1e-15)
            assert state.hbar == other.hbar

    def test_signed_zero_mean_does_not_depend_on_call_order(self):
        neg = make_min_uncertainty_state(MinUncertaintyParams(q1=-0.0, p1=-0.0, sigma1=1.25))
        pos = make_min_uncertainty_state(MinUncertaintyParams(q1=0.0, p1=0.0, sigma1=1.25))
        assert neg is pos
        assert not np.signbit(pos.mean).any()

    @pytest.mark.parametrize("sigma1,hbar", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_invalid_params_rejected(self, sigma1, hbar):
        with pytest.raises(ValueError):
            MinUncertaintyParams(0.0, 0.0, sigma1, hbar)


class TestMoments:
    def test_packet_position(self):
        state = make_min_uncertainty_state(MinUncertaintyParams(2.0, 3.0, 1.0, 1.0))
        assert moments(state, position(1)) == pytest.approx((2.0, 1.0))
        assert moments(state, momentum(1)) == pytest.approx((3.0, 0.25))

    def test_zero_observable(self):
        state = make_min_uncertainty_state(MinUncertaintyParams(2.0, 3.0, 1.0, 1.0))
        assert moments(state, LinearObservable.zero()) == (0.0, 0.0)

    def test_offset_shifts_mean_only(self):
        state = make_min_uncertainty_state(MinUncertaintyParams(2.0, 3.0, 1.0, 1.0))
        f = position(1) + LinearObservable(np.zeros(3), np.zeros(3), 10.0)
        assert moments(state, f) == pytest.approx((12.0, 1.0))

    def test_evolved_meter_variance(self):
        # Q2(tau) for Y0 at nu=1/2 has rows (1/2, 1, -1/8) on (Q1, Q2, Q3);
        # brute-force quadratic form with the probe variances (1/8, 8):
        # 1/4*1 + 1*1/8 + 1/64*8 = 1/2
        psi = MinUncertaintyParams(0.0, 0.0, 1.0, 1.0)
        joint = tensor(make_min_uncertainty_state(psi), make_probe_state(0.5, 1.0, psi))
        meter = 0.5 * position(1) + position(2) + (-0.125) * position(3)
        mean, var = moments(joint, meter)
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert var == pytest.approx(0.5, rel=1e-14)

    def test_mode_mismatch_rejected(self):
        state = make_min_uncertainty_state(MinUncertaintyParams())
        with pytest.raises(ModeMismatchError):
            moments(state, position(2))

    def test_variance_nonnegative(self):
        psi = MinUncertaintyParams(1.0, -1.0, 0.7, 2.0)
        joint = tensor(make_min_uncertainty_state(psi), make_probe_state(0.3, -1.5, psi))
        rng = np.random.default_rng(7)
        for _ in range(200):
            _, var = moments(joint, random_observable(rng))
            assert var >= 0.0

    def test_covariance_is_symmetric_bilinear_form(self):
        psi = MinUncertaintyParams(0.5, 0.5, 1.2, 1.0)
        state = tensor(make_min_uncertainty_state(psi), make_probe_state(0.4, 2.0, psi))
        rng = np.random.default_rng(3)
        f, g = random_observable(rng), random_observable(rng)
        assert covariance(state, f, g) == pytest.approx(covariance(state, g, f))
        _, var = moments(state, f)
        assert covariance(state, f, f) == pytest.approx(var)


class TestProbeState:
    def test_balanced_point_variances(self):
        psi = MinUncertaintyParams(0.0, 0.0, 1.0, 1.0)
        probe = make_probe_state(0.5, 1.0, psi)
        _, var_q2 = moments(probe, position(2))
        _, var_q3 = moments(probe, position(3))
        assert var_q2 == pytest.approx(0.125, rel=1e-14)
        assert var_q3 == pytest.approx(8.0, rel=1e-14)
        np.testing.assert_allclose(probe.mean, 0.0)

    def test_position_mean_tracks_packet(self):
        psi = MinUncertaintyParams(q1=4.0)
        probe = make_probe_state(0.5, 1.0, psi)
        mean_q2, _ = moments(probe, position(2))
        assert mean_q2 == pytest.approx(2.0)

    def test_momentum_mean_tracks_packet(self):
        psi = MinUncertaintyParams(p1=-3.0)
        probe = make_probe_state(0.25, 2.0, psi)
        mean_p3, _ = moments(probe, momentum(3))
        assert mean_p3 == pytest.approx(0.25 * -3.0 / 2.0)

    @given(
        nu=st.floats(0.01, 0.99),
        kappa=st.floats(0.1, 5.0),
        sigma1=st.floats(0.2, 3.0),
        hbar=st.floats(0.2, 3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_per_mode_minimum_uncertainty(self, nu, kappa, sigma1, hbar):
        psi = MinUncertaintyParams(0.0, 0.0, sigma1, hbar)
        probe = make_probe_state(nu, kappa, psi)
        for mode in (2, 3):
            _, var_q = moments(probe, position(mode))
            _, var_p = moments(probe, momentum(mode))
            assert var_q * var_p == pytest.approx((hbar / 2.0) ** 2, rel=1e-12)

    @given(nu=st.floats(0.01, 0.99), kappa=st.floats(0.1, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_variance_product_independent_of_kappa(self, nu, kappa):
        psi = MinUncertaintyParams(0.0, 0.0, 1.3, 1.0)
        probe = make_probe_state(nu, kappa, psi)
        _, var_q2 = moments(probe, position(2))
        _, var_q3 = moments(probe, position(3))
        assert var_q2 * var_q3 == pytest.approx(1.3**4, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.0, 1.0, -0.2, 1.5])
    def test_nu_domain(self, nu):
        with pytest.raises(ValueError):
            make_probe_state(nu, 1.0, MinUncertaintyParams())

    def test_zero_kappa_rejected(self):
        with pytest.raises(ValueError):
            make_probe_state(0.5, 0.0, MinUncertaintyParams())

    @pytest.mark.parametrize(
        "sigma1, hbar, message",
        [
            (1e200, 1.0, r"probe Var\(Q2\) = inf .*sigma1=1e\+200"),
            (1e154, 1.0, r"probe Var\(Q3\) = inf .*nu=0.5, kappa=1, sigma1=1e\+154"),
            (1e-170, 1e-200, r"probe Var\(Q2\) = 0 is not finite and positive"),
            (1e100, 1e-100, r"probe Var\(P2\) = 0 "),
            (1.0, 1e300, r"probe Var\(P2\) = inf .*hbar=1e\+300"),
            (4e153, 1.0, r"probe Var\(Q3\) = 1.28e\+308 is too large: .*sigma1=4e\+153"),
        ],
    )
    def test_unrepresentable_variance_is_named(self, sigma1, hbar, message):
        psi = MinUncertaintyParams(sigma1=sigma1, hbar=hbar)
        with pytest.raises(ValueError, match=message):
            make_probe_state(0.5, 1.0, psi)


class TestDiagonalStates:
    """The packet, the tuned probe and the posterior states skip checked_covariance."""

    @given(
        log_nu=st.floats(-12.0, np.log10(0.5)),
        upper=st.booleans(),
        log_kappa=st.floats(-6.0, 6.0),
        kappa_sign=st.sampled_from([-1.0, 1.0]),
        log_sigma1=st.floats(-60.0, 60.0),
        log_hbar=st.floats(-60.0, 60.0),
        q1=finite,
        p1=finite,
    )
    @settings(max_examples=200, deadline=None)
    def test_each_passes_the_check_it_skips(
        self, log_nu, upper, log_kappa, kappa_sign, log_sigma1, log_hbar, q1, p1
    ):
        nu = 1.0 - 10.0**log_nu if upper else 10.0**log_nu
        psi = MinUncertaintyParams(q1, p1, 10.0**log_sigma1, 10.0**log_hbar)
        states = (
            make_min_uncertainty_state(psi),
            make_probe_state(nu, kappa_sign * 10.0**log_kappa, psi),
            posterior_state(PosteriorFamily(nu=nu, psi=psi), (q1, p1)),
        )
        for state in states:
            assert not state.mean.flags.writeable
            assert not state.cov.flags.writeable
            np.testing.assert_array_equal(checked_covariance(state.cov, PSD_RTOL), state.cov)
            checked = GaussianState(state.modes, state.mean, state.cov, state.hbar)
            assert (checked.modes, checked.hbar) == (state.modes, state.hbar)
            np.testing.assert_array_equal(checked.mean, state.mean)


class TestGaussianState:
    def test_rejects_asymmetric_cov(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState((1,), np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite_cov(self):
        with pytest.raises(ValueError, match="semidefinite"):
            GaussianState((1,), np.zeros(2), np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_non_finite_cov(self, bad):
        for cov in (np.array([[1.0, bad], [bad, 1.0]]), np.diag([bad, 1.0])):
            with pytest.raises(ValueError, match="non-finite"):
                GaussianState((1,), np.zeros(2), cov)

    def test_rejects_entries_whose_symmetrisation_overflows(self):
        # 0.5 * (cov + cov.T) doubles each entry first; from 2**1023 that is inf
        GaussianState((1,), np.zeros(2), np.diag([np.nextafter(2.0**1023, 0.0), 1.0]))
        with pytest.raises(ValueError, match="entry 8.98847e\\+307 is too large"):
            GaussianState((1,), np.zeros(2), np.diag([2.0**1023, 1.0]))

    def test_symmetry_tolerance_scales_with_cov(self):
        # 1e-12 of the largest entry (at least 1): accepted just inside, rejected outside
        big = 1e6
        GaussianState((1,), np.zeros(2), np.array([[big, 0.5e-6], [0.0, big]]))
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState((1,), np.zeros(2), np.array([[big, 2e-6], [0.0, big]]))

    def test_rejects_bad_modes(self):
        with pytest.raises(ValueError):
            GaussianState((1, 1), np.zeros(4), np.eye(4))
        with pytest.raises(ValueError):
            GaussianState((2, 1), np.zeros(4), np.eye(4))

    def test_tensor_keeps_marginals(self):
        psi = MinUncertaintyParams(1.0, 2.0, 0.8, 1.0)
        system = make_min_uncertainty_state(psi)
        probe = make_probe_state(0.3, 1.5, psi)
        joint = tensor(system, probe)
        assert joint.modes == (1, 2, 3)
        for f in (position(1), momentum(1)):
            assert moments(joint, f) == pytest.approx(moments(system, f))
        for f in (position(2), momentum(3)):
            assert moments(joint, f) == pytest.approx(moments(probe, f))
        # no cross-subsystem correlations
        assert covariance(joint, position(1), position(2)) == 0.0

    @pytest.mark.parametrize("first_modes, second_modes", MODE_SPLITS)
    def test_tensor_keeps_marginals_for_every_mode_split(self, first_modes, second_modes):
        rng = np.random.default_rng(sum(first_modes) * 10 + sum(second_modes))
        factors = []
        for modes in (first_modes, second_modes):
            root = rng.normal(size=(2 * len(modes),) * 2)
            factors.append(
                GaussianState(
                    modes=modes,
                    mean=rng.normal(size=2 * len(modes)),
                    cov=root @ root.T + 0.1 * np.eye(2 * len(modes)),
                )
            )
        joint = tensor(*factors)
        assert joint.modes == tuple(sorted(first_modes + second_modes))
        for state in factors:
            for j in state.modes:
                for f in (position(j), momentum(j)):
                    assert moments(joint, f) == moments(state, f)
                for k in state.modes:
                    assert covariance(joint, position(j), momentum(k)) == covariance(
                        state, position(j), momentum(k)
                    )
        # no cross-factor correlations
        for j in first_modes:
            for k in second_modes:
                for f, g in itertools.product(
                    (position(j), momentum(j)), (position(k), momentum(k))
                ):
                    assert covariance(joint, f, g) == 0.0

    @pytest.mark.parametrize("first_modes, second_modes", MODE_SPLITS)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.tuples(st.sampled_from(FACTOR_KINDS), st.sampled_from(FACTOR_KINDS)),
        log_scales=st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)),
    )
    @settings(max_examples=25, deadline=None)
    def test_tensor_product_passes_the_check_it_skips(
        self, first_modes, second_modes, seed, kinds, log_scales
    ):
        # tensor does not re-check its product: the factors' checks imply it
        rng = np.random.default_rng(seed)
        factors = []
        for modes, kind, log_scale in zip((first_modes, second_modes), kinds, log_scales):
            dim = 2 * len(modes)
            scale = 10.0**log_scale
            factors.append(
                GaussianState(
                    modes=modes,
                    mean=rng.normal(size=dim) * np.sqrt(scale),
                    cov=factor_covariance(rng, kind, dim) * scale,
                )
            )
        joint = tensor(*factors)
        assert not joint.mean.flags.writeable
        assert not joint.cov.flags.writeable
        np.testing.assert_array_equal(checked_covariance(joint.cov, PSD_RTOL), joint.cov)

    def test_tensor_rejects_overlap(self):
        psi = MinUncertaintyParams()
        state = make_min_uncertainty_state(psi)
        with pytest.raises(ValueError, match="overlap"):
            tensor(state, state)

    def test_tensor_rejects_hbar_mismatch(self):
        system = make_min_uncertainty_state(MinUncertaintyParams(hbar=1.0))
        probe = make_probe_state(0.5, 1.0, MinUncertaintyParams(hbar=2.0))
        with pytest.raises(ValueError, match="hbar"):
            tensor(system, probe)


class TestLinearObservableAlgebra:
    def test_componentwise_sum_and_scale(self):
        f = 2.0 * position(1) - 3.0 * momentum(2)
        np.testing.assert_allclose(f.coeff_q, [2.0, 0.0, 0.0])
        np.testing.assert_allclose(f.coeff_p, [0.0, -3.0, 0.0])
        g = f + f
        np.testing.assert_allclose(g.coeff_q, [4.0, 0.0, 0.0])

    def test_zero_identity(self):
        f = position(3) + LinearObservable.zero()
        np.testing.assert_allclose(f.coeff_q, position(3).coeff_q)
        assert f.offset == 0.0

    def test_modes_and_restrict(self):
        f = position(1) + 0.5 * momentum(3)
        assert f.modes == frozenset({1, 3})
        g = f.restrict({3})
        np.testing.assert_allclose(g.coeff_q, 0.0)
        np.testing.assert_allclose(g.coeff_p, [0.0, 0.0, 0.5])


class TestLinearMoments:
    def test_basis_index(self):
        psi = MinUncertaintyParams()
        assert make_min_uncertainty_state(psi).basis_index.tolist() == [0, 3]
        assert make_probe_state(0.5, 1.0, psi).basis_index.tolist() == [1, 2, 4, 5]
        joint = tensor(make_min_uncertainty_state(psi), make_probe_state(0.5, 1.0, psi))
        assert joint.basis_index.tolist() == list(range(6))

    @staticmethod
    def loop_coefficients(state, f):
        """Reference: ``f`` on the state's (Q..., P...) basis, one mode at a time."""
        m = len(state.modes)
        c = np.zeros(2 * m)
        for k, j in enumerate(state.modes):
            c[k] = f.coeff_q[j - 1]
            c[m + k] = f.coeff_p[j - 1]
        return c

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("modes", [(1, 2, 3), (2, 3)])
    def test_equals_per_observable_contractions(self, seed, modes):
        rng = np.random.default_rng(seed)
        psi = MinUncertaintyParams(0.5, -0.5, 1.2, 1.0)
        state = make_probe_state(0.4, 2.0, psi)
        if modes == (1, 2, 3):
            state = tensor(make_min_uncertainty_state(psi), state)
        mask = np.array([j in modes for j in (1, 2, 3)], dtype=float)
        obs = [
            LinearObservable(rng.normal(size=3) * mask, rng.normal(size=3) * mask, rng.normal())
            for _ in range(3)
        ]
        mean, cov = linear_moments(state, obs)
        c = [self.loop_coefficients(state, f) for f in obs]
        for i, f in enumerate(obs):
            assert mean[i] == float(c[i] @ state.mean) + f.offset
            for j in range(i, 3):
                assert cov[i, j] == cov[j, i] == c[i] @ state.cov @ c[j]

    def test_mode_mismatch_names_the_first_offending_observable(self):
        probe = make_probe_state(0.5, 1.0, MinUncertaintyParams())
        with pytest.raises(ModeMismatchError, match=r"mode\(s\) \[1\]"):
            linear_moments(probe, [position(2), momentum(1), position(1) + momentum(3)])
