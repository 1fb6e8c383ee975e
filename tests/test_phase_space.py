"""Global rows, their commutators and moments, and Gaussian state constructors."""

import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simqp import (
    GaussianState,
    MinUncertaintyParams,
    PosteriorFamily,
    make_min_uncertainty_state,
    make_probe_state,
    posterior_state,
)
from simqp.phase_space import (
    PACKET_SLOTS,
    PROBE_SLOTS,
    TOLERANCES,
    checked_covariance,
    packet_probe_moments,
    row_moments,
    symplectic_products,
)

PSD_RTOL = TOLERANCES["psd_state"]

finite = st.floats(-10.0, 10.0, allow_nan=False)

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


# the global rows of the six quadratures
Q1, Q2, Q3, P1, P2, P3 = np.eye(6)


def commutator(f, g) -> float:
    """``c`` in ``[f, g] = i hbar c``, the off-diagonal entry of ``R Omega R^T``."""
    return float(symplectic_products(np.array((f, g)))[0, 1])


def quadrature_moments(state) -> tuple:
    """Means and variances of the state's own (Q..., P...) coordinates."""
    means, cov = row_moments(np.eye(len(state.mean)), state.mean, state.cov)
    return means, np.diag(cov)


def unit_rows(modes, j) -> np.ndarray:
    """Rows of ``(Q_j, P_j)`` on the (Q..., P...) coordinates of a ``modes`` state."""
    k = modes.index(j)
    return np.eye(2 * len(modes))[[k, len(modes) + k]]


def product(packet, probe):
    """psi x probe on modes (1, 2, 3), whose (Q..., P...) order is the global one."""
    mean, cov = packet_probe_moments(packet, probe)
    return SimpleNamespace(modes=(1, 2, 3), mean=mean, cov=cov)


def mean_and_variance(state, row) -> tuple:
    """Mean and variance of one row on the state's coordinates."""
    means, cov = row_moments(np.array([row]), state.mean, state.cov)
    return float(means[0]), float(cov[0, 0])


def random_row(rng):
    return rng.normal(size=6)


class TestCommutator:
    def test_canonical_pair(self):
        assert commutator(Q1, P1) == 1.0

    def test_probe_positions_commute(self):
        assert commutator(Q2, Q3) == 0.0
        assert commutator(P2, P3) == 0.0

    def test_cross_mode_pairs_commute(self):
        assert commutator(Q1, P2) == 0.0
        assert commutator(P3, Q1) == 0.0

    def test_probe_noise_combination(self):
        # Y0 at nu = 1/2: a22 = 1, a23 = -1/8, b32 = -1/8, b33 = 1;
        # the combination pair has coefficient -a21*b31 = -1/4
        f = 1.0 * Q2 + (-0.125) * Q3
        g = (-0.125) * P2 + 1.0 * P3
        assert commutator(f, g) == pytest.approx(-0.25, abs=1e-15)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_antisymmetric(self, seed):
        rng = np.random.default_rng(seed)
        f, g = random_row(rng), random_row(rng)
        assert commutator(f, g) == pytest.approx(-commutator(g, f), abs=1e-12)

    @given(seed=st.integers(0, 2**31 - 1), a=finite, b=finite)
    @settings(max_examples=30, deadline=None)
    def test_bilinear(self, seed, a, b):
        rng = np.random.default_rng(seed)
        f, g, h = (random_row(rng) for _ in range(3))
        left = commutator(a * f + b * g, h)
        assert left == pytest.approx(
            a * commutator(f, h) + b * commutator(g, h),
            abs=1e-9,
        )


class TestMinUncertaintyState:
    @pytest.mark.parametrize("field", ["q1", "p1"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_is_named(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad}$"):
            MinUncertaintyParams(**{field: bad})

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
        _, (var_q, var_p) = quadrature_moments(state)
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
        q_row, p_row = unit_rows(state.modes, 1)
        assert mean_and_variance(state, q_row) == pytest.approx((2.0, 1.0))
        assert mean_and_variance(state, p_row) == pytest.approx((3.0, 0.25))

    def test_zero_row(self):
        state = make_min_uncertainty_state(MinUncertaintyParams(2.0, 3.0, 1.0, 1.0))
        assert mean_and_variance(state, np.zeros(2)) == (0.0, 0.0)

    def test_evolved_meter_variance(self):
        # Q2(tau) for Y0 at nu=1/2 has rows (1/2, 1, -1/8) on (Q1, Q2, Q3);
        # brute-force quadratic form with the probe variances (1/8, 8):
        # 1/4*1 + 1*1/8 + 1/64*8 = 1/2
        psi = MinUncertaintyParams(0.0, 0.0, 1.0, 1.0)
        joint = product(make_min_uncertainty_state(psi), make_probe_state(0.5, 1.0, psi))
        meter = 0.5 * Q1 + Q2 + (-0.125) * Q3
        mean, var = mean_and_variance(joint, meter)
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert var == pytest.approx(0.5, rel=1e-14)

    def test_variance_nonnegative(self):
        psi = MinUncertaintyParams(1.0, -1.0, 0.7, 2.0)
        joint = product(make_min_uncertainty_state(psi), make_probe_state(0.3, -1.5, psi))
        rng = np.random.default_rng(7)
        for _ in range(200):
            _, var = mean_and_variance(joint, random_row(rng))
            assert var >= 0.0

    def test_covariance_is_symmetric_bilinear_form(self):
        psi = MinUncertaintyParams(0.5, 0.5, 1.2, 1.0)
        state = product(make_min_uncertainty_state(psi), make_probe_state(0.4, 2.0, psi))
        rng = np.random.default_rng(3)
        f, g = random_row(rng), random_row(rng)

        def covariance(f, g):
            return row_moments(np.array((f, g)), state.mean, state.cov)[1][0, 1]

        assert covariance(f, g) == pytest.approx(covariance(g, f))
        _, var = mean_and_variance(state, f)
        assert covariance(f, f) == pytest.approx(var)


class TestProbeState:
    def test_balanced_point_variances(self):
        psi = MinUncertaintyParams(0.0, 0.0, 1.0, 1.0)
        probe = make_probe_state(0.5, 1.0, psi)
        _, (var_q2, var_q3, _, _) = quadrature_moments(probe)
        assert var_q2 == pytest.approx(0.125, rel=1e-14)
        assert var_q3 == pytest.approx(8.0, rel=1e-14)
        np.testing.assert_allclose(probe.mean, 0.0)

    def test_position_mean_tracks_packet(self):
        psi = MinUncertaintyParams(q1=4.0)
        probe = make_probe_state(0.5, 1.0, psi)
        (mean_q2, _, _, _), _ = quadrature_moments(probe)
        assert mean_q2 == pytest.approx(2.0)

    def test_momentum_mean_tracks_packet(self):
        psi = MinUncertaintyParams(p1=-3.0)
        probe = make_probe_state(0.25, 2.0, psi)
        (_, _, _, mean_p3), _ = quadrature_moments(probe)
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
            _, var_q = mean_and_variance(probe, unit_rows(probe.modes, mode)[0])
            _, var_p = mean_and_variance(probe, unit_rows(probe.modes, mode)[1])
            assert var_q * var_p == pytest.approx((hbar / 2.0) ** 2, rel=1e-12)

    @given(nu=st.floats(0.01, 0.99), kappa=st.floats(0.1, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_variance_product_independent_of_kappa(self, nu, kappa):
        psi = MinUncertaintyParams(0.0, 0.0, 1.3, 1.0)
        probe = make_probe_state(nu, kappa, psi)
        _, (var_q2, var_q3, _, _) = quadrature_moments(probe)
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

    @pytest.mark.parametrize(
        "kappa, sigma1, message",
        [
            # kappa**2 underflows to 0: Var(Q2) ~ 1/kappa**2 is past float64
            (1e-200, 1.0, r"^probe Var\(Q2\) = inf is not finite and positive "
                          r"\(nu=0.5, kappa=1e-200, sigma1=1, hbar=1\)$"),
            (-1e-200, 1.0, r"^probe Var\(Q2\) = inf .*kappa=-1e-200"),
            # Var(Q2) is representable, Var(Q3) ~ kappa**2 is not
            (1e-170, 1e-170, r"^probe Var\(Q3\) = 0 is not finite and positive "
                             r"\(nu=0.5, kappa=1e-170, sigma1=1e-170, hbar=1\)$"),
            # kappa**2 overflows
            (1e200, 1.0, r"^probe Var\(Q2\) = 0 is not finite and positive \(nu=0.5, kappa=1e\+200"),
        ],
    )
    def test_unrepresentable_kappa_is_named(self, kappa, sigma1, message):
        with pytest.raises(ValueError, match=message):
            make_probe_state(0.5, kappa, MinUncertaintyParams(sigma1=sigma1))

    @pytest.mark.parametrize(
        "kappa, q1, p1, message",
        [
            (1e-150, 1e200, 0.0, r"^probe <Q2> = inf is not finite \(nu=0.5, kappa=1e-150, "
                                 r"sigma1=1, hbar=1, q1=1e\+200, p1=0\)$"),
            (-1e-150, 0.0, 1e200, r"^probe <P3> = -inf is not finite \(nu=0.5, kappa=-1e-150, "
                                  r"sigma1=1, hbar=1, q1=0, p1=1e\+200\)$"),
        ],
    )
    def test_overflowing_probe_mean_is_named(self, kappa, q1, p1, message):
        with pytest.raises(ValueError, match=message):
            make_probe_state(0.5, kappa, MinUncertaintyParams(q1=q1, p1=p1))


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
            np.testing.assert_array_equal(checked_covariance(state.cov, "psd_state"), state.cov)
            checked = GaussianState(state.modes, state.mean, state.cov, state.hbar)
            assert (checked.modes, checked.hbar) == (state.modes, state.hbar)
            np.testing.assert_array_equal(checked.mean, state.mean)


class TestGaussianState:
    @pytest.mark.parametrize(
        "modes, index, label",
        [((1,), 0, "Q1"), ((1,), 1, "P1"), ((2, 3), 1, "Q3"), ((2, 3), 2, "P2")],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_is_named(self, modes, index, label, bad):
        mean = np.zeros(2 * len(modes))
        mean[index] = bad
        with pytest.raises(ValueError, match=f"^mean of '{label}' is {bad}: it must be finite$"):
            GaussianState(modes, mean, np.eye(len(mean)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index, label", enumerate(["Q2", "Q3", "P2", "P3"]))
    def test_non_finite_probe_mean_is_named_at_every_position(self, index, label, bad):
        mean = np.zeros(4)
        mean[index] = bad
        with pytest.raises(ValueError, match=f"^mean of '{label}' is {bad}: it must be finite$"):
            GaussianState((2, 3), mean, 0.5 * np.eye(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", range(16))
    def test_non_finite_probe_cov_is_refused_at_every_position(self, k, bad):
        cov = 0.5 * np.eye(4)
        cov.flat[k] = bad
        message = r"^covariance matrix is not symmetric: non-finite entries$"
        with pytest.raises(ValueError, match=message):
            GaussianState((2, 3), np.zeros(4), cov)

    @pytest.mark.parametrize("mean, cov", [(np.zeros(3), np.eye(2)), (np.zeros(2), np.eye(3))])
    def test_shape_mismatch_names_both_shapes(self, mean, cov):
        message = re.escape(f"dimension mismatch: 2 labels, mean {mean.shape}, cov {cov.shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            GaussianState((1,), mean, cov)

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


def single_matrix_error(cov) -> str:
    with pytest.raises(ValueError) as raised:
        checked_covariance(cov, "psd_state")
    return str(raised.value)


class TestCheckedCovarianceStack:
    """A ``(..., n, n)`` stack: each matrix checked as if it stood alone."""

    @pytest.mark.parametrize("lead", [(3,), (2, 2)])
    @pytest.mark.parametrize("kind", FACTOR_KINDS)
    def test_each_matrix_as_if_alone(self, lead, kind):
        rng = np.random.default_rng([len(lead), FACTOR_KINDS.index(kind)])
        count = int(np.prod(lead))
        scales = 10.0 ** rng.uniform(-6.0, 6.0, size=count)
        stack = np.stack([scale * factor_covariance(rng, kind, 4) for scale in scales])
        stack += 1e-14 * scales[:, None, None] * rng.normal(size=stack.shape)  # asymmetric
        stack = stack.reshape(lead + (4, 4))
        checked = checked_covariance(stack, "psd_state")
        assert checked.shape == stack.shape and not checked.flags.writeable
        for matrix, alone in zip(checked.reshape(-1, 4, 4), stack.reshape(-1, 4, 4)):
            np.testing.assert_array_equal(matrix, checked_covariance(alone, "psd_state"))

    def test_asymmetry_is_held_to_its_own_scale(self):
        big = np.diag([1e6, 1e6])  # its tolerance is 1e-6
        small = np.array([[1.0, 1e-9], [0.0, 1.0]])  # 1e-9 fails its own 1e-12
        checked_covariance(np.stack([big, small + 1e6 * np.eye(2)]), "psd_state")
        message = single_matrix_error(small)
        assert message == "covariance matrix is not symmetric (max deviation 1e-09)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            checked_covariance(np.stack([big, small]), "psd_state")

    def test_psd_violation_is_held_to_its_own_scale(self):
        big = np.diag([1e6, 1e6])  # its PSD tolerance is 1e-4
        small = np.diag([1.0, -1e-6])  # -1e-6 fails its own 1e-10
        checked_covariance(np.stack([big, np.diag([1e6, -1e-6])]), "psd_state")
        message = single_matrix_error(small)
        assert "not positive semidefinite (smallest eigenvalue -1e-06)" in message
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            checked_covariance(np.stack([big, small]), "psd_state")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0**1023])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_entry_refused_in_one_matrix_only(self, bad):
        small = np.diag([bad, 1.0])
        message = single_matrix_error(small)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            checked_covariance(np.stack([np.eye(2), small]), "psd_state")

    def test_product_keeps_marginals(self):
        psi = MinUncertaintyParams(1.0, 2.0, 0.8, 1.0)
        system = make_min_uncertainty_state(psi)
        probe = make_probe_state(0.3, 1.5, psi)
        joint = product(system, probe)
        for f, g in zip((Q1, P1), unit_rows(system.modes, 1)):
            want = mean_and_variance(system, g)
            assert mean_and_variance(joint, f) == pytest.approx(want)
        probe_q2, probe_p3 = unit_rows(probe.modes, 2)[0], unit_rows(probe.modes, 3)[1]
        for f, g in ((Q2, probe_q2), (P3, probe_p3)):
            want = mean_and_variance(probe, g)
            assert mean_and_variance(joint, f) == pytest.approx(want)
        # no cross-subsystem correlations
        assert row_moments(np.array((Q1, Q2)), joint.mean, joint.cov)[1][0, 1] == 0.0

    def test_product_keeps_marginals_of_random_factors(self):
        first_modes, second_modes = (1,), (2, 3)
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
        joint = product(*factors)

        def covariance(state, f, g):
            return row_moments(np.array((f, g)), state.mean, state.cov)[1][0, 1]

        def q_and_p(modes, j, k):
            return unit_rows(modes, j)[0], unit_rows(modes, k)[1]

        for state in factors:
            for j in state.modes:
                for f, g in zip(unit_rows(joint.modes, j), unit_rows(state.modes, j)):
                    assert mean_and_variance(joint, f) == mean_and_variance(state, g)
                for k in state.modes:
                    assert covariance(joint, *q_and_p(joint.modes, j, k)) == covariance(
                        state, *q_and_p(state.modes, j, k)
                    )
        # no cross-factor correlations
        for j in first_modes:
            for k in second_modes:
                for f, g in itertools.product(
                    unit_rows(joint.modes, j), unit_rows(joint.modes, k)
                ):
                    assert covariance(joint, f, g) == 0.0

    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.tuples(st.sampled_from(FACTOR_KINDS), st.sampled_from(FACTOR_KINDS)),
        log_scales=st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)),
    )
    @settings(max_examples=25, deadline=None)
    def test_product_passes_the_check_it_skips(self, seed, kinds, log_scales):
        # packet_probe_moments does not check its product: the factors' checks imply it
        rng = np.random.default_rng(seed)
        factors = []
        for modes, kind, log_scale in zip(((1,), (2, 3)), kinds, log_scales):
            dim = 2 * len(modes)
            scale = 10.0**log_scale
            factors.append(
                GaussianState(
                    modes=modes,
                    mean=rng.normal(size=dim) * np.sqrt(scale),
                    cov=factor_covariance(rng, kind, dim) * scale,
                )
            )
        _, cov = packet_probe_moments(*factors)
        np.testing.assert_array_equal(checked_covariance(cov, "psd_state"), cov)

    def test_product_refuses_factors_off_their_slots(self):
        psi = MinUncertaintyParams()
        packet = make_min_uncertainty_state(psi)
        probe = make_probe_state(0.5, 1.0, psi)
        message = re.escape("probe must live on modes (2, 3), got (1,)")
        with pytest.raises(ValueError, match=f"^{message}$"):
            packet_probe_moments(packet, packet)
        on_mode_2 = GaussianState((2,), np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match=r"^packet must live on mode 1, got modes \(2,\)$"):
            packet_probe_moments(on_mode_2, probe)

    def test_product_rejects_hbar_mismatch(self):
        system = make_min_uncertainty_state(MinUncertaintyParams(hbar=1.0))
        probe = make_probe_state(0.5, 1.0, MinUncertaintyParams(hbar=2.0))
        with pytest.raises(ValueError, match="^states carry different values of hbar$"):
            packet_probe_moments(system, probe)


class TestRowMoments:
    def test_global_slots(self):
        psi = MinUncertaintyParams(0.3, -0.2, 1.5, 0.7)
        packet = make_min_uncertainty_state(psi)
        probe = make_probe_state(0.4, 2.0, psi)
        assert PACKET_SLOTS.tolist() == [0, 3]
        assert PROBE_SLOTS.tolist() == [1, 2, 4, 5]
        assert not PACKET_SLOTS.flags.writeable and not PROBE_SLOTS.flags.writeable
        mean, cov = packet_probe_moments(packet, probe)
        np.testing.assert_array_equal(mean[PACKET_SLOTS], packet.mean)
        np.testing.assert_array_equal(mean[PROBE_SLOTS], probe.mean)
        np.testing.assert_array_equal(cov[np.ix_(PACKET_SLOTS, PACKET_SLOTS)], packet.cov)
        np.testing.assert_array_equal(cov[np.ix_(PROBE_SLOTS, PROBE_SLOTS)], probe.cov)

    @staticmethod
    def loop_coefficients(state, f):
        """Reference: global row ``f`` on the state's (Q..., P...) basis, mode by mode."""
        m = len(state.modes)
        c = np.zeros(2 * m)
        for k, j in enumerate(state.modes):
            c[k] = f[j - 1]
            c[m + k] = f[j + 2]
        return c

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("modes", [(1, 2, 3), (2, 3)])
    def test_equals_per_observable_contractions(self, seed, modes):
        rng = np.random.default_rng(seed)
        psi = MinUncertaintyParams(0.5, -0.5, 1.2, 1.0)
        state = make_probe_state(0.4, 2.0, psi)
        if modes == (1, 2, 3):
            state = product(make_min_uncertainty_state(psi), state)
        mask = np.tile([j in modes for j in (1, 2, 3)], 2)
        obs = [rng.normal(size=6) * mask for _ in range(3)]
        c = [self.loop_coefficients(state, f) for f in obs]
        mean, cov = row_moments(np.array(c), state.mean, state.cov)
        for i in range(3):
            assert mean[i] == float(c[i] @ state.mean)
            for j in range(i, 3):
                assert cov[i, j] == cov[j, i] == c[i] @ state.cov @ c[j]
