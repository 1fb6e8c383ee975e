"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    arthurs_kelly_errors,
    closed_form_propagator,
    marginal,
    numeric_expm,
    FAMILIES,
    nu_grid_99,
    random_measurement,
    random_pure_probe,
    random_solvable_generator,
    frozen_transform_a,
    frozen_transform_b,
)

from simqp import (
    MinUncertaintyParams,
    ModelFamily,
    OutcomeRegion,
    PosteriorFamily,
    arthurs_kelly_model,
    branciard_ozawa_residual,
    build_model,
    check_theorem_conditions,
    conditional,
    evolved_rows,
    gauss_error,
    heisenberg_product,
    joint_distribution,
    make_min_uncertainty_state,
    meter_joint,
    ozawa_inequality_residual,
    p_pair_joint,
    posterior_consistency,
    posterior_state,
    q_pair_joint,
    qrms_errors,
    region_mixture_moments,
    sample,
)
from simqp.phase_space import PACKET_SLOTS, packet_probe_moments, row_moments

NU_GRID = nu_grid_99()
PSI = MinUncertaintyParams()
PSI_OFF = MinUncertaintyParams(q1=1.5, p1=-2.0, sigma1=0.8, hbar=2.0)


def report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_criterion_1_minimum_trade_off_values():
    start = time.perf_counter()
    worst = 0.0
    for family in FAMILIES:
        for nu in NU_GRID:
            errs = qrms_errors(build_model(family, nu, PSI), PSI)
            dev_q = abs(errs.eps_q**2 - (1.0 - nu)) / (1.0 - nu)
            dev_p = abs(errs.eps_p**2 - nu * 0.25) / (nu * 0.25)
            worst = max(worst, dev_q, dev_p)
    elapsed = time.perf_counter() - start
    report(
        "1 minimum-trade-off-values",
        worst <= 1e-10 and elapsed < 1.0,
        f"(max rel dev {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_2_branciard_ozawa_equality():
    worst = 0.0
    for family in FAMILIES:
        for nu in NU_GRID:
            errs = qrms_errors(build_model(family, nu, PSI), PSI)
            worst = max(worst, abs(branciard_ozawa_residual(errs, PSI)) / 0.25)
    scaling_ok = True
    for hbar in (0.5, 1.0, 2.0):
        psi = MinUncertaintyParams(hbar=hbar)
        errs = qrms_errors(build_model(ModelFamily.Y2, 0.3, psi), psi)
        lhs = branciard_ozawa_residual(errs, psi) + hbar**2 / 4.0
        scaling_ok &= abs(lhs - hbar**2 / 4.0) <= 1e-10 * hbar**2 / 4.0
    report(
        "2 branciard-ozawa-equality",
        worst <= 1e-10 and scaling_ok,
        f"(max rel residual {worst:.2e}, hbar^2 scaling {scaling_ok})",
    )


def test_criterion_3_heisenberg_violation():
    worst = 0.0
    peak = 0.0
    always_below = True
    for family in FAMILIES:
        for nu in NU_GRID:
            errs = qrms_errors(build_model(family, nu, PSI), PSI)
            product = heisenberg_product(errs)
            expected = 0.5 * math.sqrt(0.25 - (nu - 0.5) ** 2)
            worst = max(worst, abs(product - expected))
            peak = max(peak, product)
            always_below &= product < 0.5
    peak_ok = abs(peak - 0.25) <= 1e-10
    report(
        "3 heisenberg-violation",
        worst <= 1e-10 and peak_ok and always_below,
        f"(max dev {worst:.2e}, peak {peak:.12f})",
    )


def test_criterion_4_closed_form_transforms():
    worst = 0.0
    for family in FAMILIES:
        for nu in (0.1, 0.3, 0.5, 0.7, 0.9):
            m = build_model(family, nu, PSI)
            worst = max(
                worst,
                np.abs(m.transform.a - frozen_transform_a(family, nu)).max(),
                np.abs(m.transform.b - frozen_transform_b(family, nu)).max(),
            )
    transforms_ok = worst <= 1e-12

    rng = np.random.default_rng(20240604)
    worst_osc = 0.0
    for _ in range(1000):
        gen = random_solvable_generator(rng)
        t = rng.uniform(-2.0, 2.0)
        gap = np.abs(
            closed_form_propagator(gen, t) - numeric_expm(gen.s, t)
        ).max()
        worst_osc = max(worst_osc, gap)
    oracle_ok = worst_osc <= 1e-9
    report(
        "4 closed-form-transforms",
        transforms_ok and oracle_ok,
        f"(max transform dev {worst:.2e}, max oracle dev {worst_osc:.2e})",
    )


def test_criterion_5_structural_identities():
    worst = 0.0
    for family in FAMILIES:
        for nu in NU_GRID:
            m = build_model(family, nu, PSI)
            a, b = m.transform.a, m.transform.b
            # probe parts of the meters: [Mq, Mp] restricted to modes 2 and 3
            probe_q, probe_p = m.rows.copy()
            probe_q[PACKET_SLOTS] = probe_p[PACKET_SLOTS] = 0.0
            worst = max(
                worst,
                np.abs(a @ b.T - np.eye(3)).max(),
                abs(np.linalg.det(a) - 1.0),
                abs(np.linalg.det(b) - 1.0),
                abs(a[1, 1] - b[2, 2]),
                abs(a[1, 2] - b[2, 1]),
                abs(a[1, 0] * b[2, 0] + 2.0 * a[1, 1] * a[1, 2]),
                abs(
                    probe_q[:3] @ probe_p[3:]
                    - probe_q[3:] @ probe_p[:3]
                    + a[1, 0] * b[2, 0]
                ),
            )
    report("5 structural-identities", worst <= 1e-10, f"(max dev {worst:.2e})")


def test_criterion_6_distribution_identities():
    worst = 0.0
    worst_marg = 0.0
    worst_cond = 0.0
    for psi in (PSI, PSI_OFF):
        s2 = psi.sigma1**2
        sh2 = psi.sigma_p**2
        for family in FAMILIES:
            for nu in (0.1, 0.3, 0.5, 0.7, 0.9):
                m = build_model(family, nu, psi)
                meters = meter_joint(m, psi)
                qq = q_pair_joint(m, psi)
                pp = p_pair_joint(m, psi)
                worst = max(
                    worst,
                    np.abs(meters.mean - [psi.q1, psi.p1]).max(),
                    np.abs(
                        meters.cov - np.diag([nu * s2, (1 - nu) * sh2])
                    ).max(),
                    np.abs(qq.mean - [psi.q1, psi.q1]).max(),
                    np.abs(qq.cov - s2 * np.array([[1, nu], [nu, nu]])).max(),
                    np.abs(pp.mean - [psi.p1, psi.p1]).max(),
                    np.abs(
                        pp.cov
                        - sh2 * np.array([[1, 1 - nu], [1 - nu, 1 - nu]])
                    ).max(),
                )
                for z in (psi.q1 - 1.0, psi.q1, psi.q1 + 2.0):
                    cond = conditional(qq, given=(1,), values=(z,))
                    worst_cond = max(
                        worst_cond,
                        abs(cond.mean[0] - z),
                        abs(cond.cov[0, 0] - (1 - nu) * s2),
                    )
        for family in (ModelFamily.Y0, ModelFamily.Z):
            for nu in (0.1, 0.3, 0.5, 0.7, 0.9):
                m = build_model(family, nu, psi)
                rows = evolved_rows(m.transform)
                mu, v = packet_probe_moments(make_min_uncertainty_state(psi), m.probe)
                triple_q = joint_distribution(rows[[0, 1, 5]], mu, v)
                triple_p = joint_distribution(rows[[3, 1, 5]], mu, v)
                expect_q_cov = np.array(
                    [
                        [(2 - nu) / nu * s2, s2, 0.0],
                        [s2, nu * s2, 0.0],
                        [0.0, 0.0, (1 - nu) * sh2],
                    ]
                )
                expect_p_cov = np.array(
                    [
                        [(1 + nu) / (1 - nu) * sh2, 0.0, sh2],
                        [0.0, nu * s2, 0.0],
                        [sh2, 0.0, (1 - nu) * sh2],
                    ]
                )
                worst = max(
                    worst,
                    np.abs(triple_q.mean - [psi.q1, psi.q1, psi.p1]).max(),
                    np.abs(triple_q.cov - expect_q_cov).max(),
                    np.abs(triple_p.mean - [psi.p1, psi.q1, psi.p1]).max(),
                    np.abs(triple_p.cov - expect_p_cov).max(),
                )
                meters = meter_joint(m, psi)
                marg = marginal(triple_q, (1, 2))
                worst_marg = max(
                    worst_marg,
                    np.abs(marg.mean - meters.mean).max(),
                    np.abs(marg.cov - meters.cov).max(),
                )
    ok = worst <= 1e-10 and worst_marg <= 1e-12 and worst_cond <= 1e-10
    report(
        "6 distribution-identities",
        ok,
        f"(joints {worst:.2e}, marginals {worst_marg:.2e}, "
        f"conditionals {worst_cond:.2e})",
    )


def test_criterion_7_gauss_error_equality():
    start = time.perf_counter()
    worst = 0.0
    for psi in (PSI, PSI_OFF):
        for family in FAMILIES:
            for nu in (0.1, 0.3, 0.5, 0.7, 0.9):
                m = build_model(family, nu, psi)
                errs = qrms_errors(m, psi)
                worst = max(
                    worst,
                    abs(gauss_error(q_pair_joint(m, psi)) - errs.eps_q),
                    abs(gauss_error(p_pair_joint(m, psi)) - errs.eps_p),
                )
    analytic_ok = worst <= 1e-10

    mc_ok = True
    details = []
    m = build_model(ModelFamily.Y0, 0.5, PSI)
    for joint, seed in ((q_pair_joint(m, PSI), 1001), (p_pair_joint(m, PSI), 1002)):
        draws = sample(joint, 10**6, seed=seed)
        sq = (draws[:, 0] - draws[:, 1]) ** 2
        estimate = math.sqrt(float(np.mean(sq)))
        se = float(np.std(sq, ddof=1)) / math.sqrt(len(sq)) / (2.0 * estimate)
        gap = abs(estimate - gauss_error(joint))
        mc_ok &= gap < 4.0 * se
        details.append(f"{gap / se:.2f}se")
    elapsed = time.perf_counter() - start
    report(
        "7 gauss-error-equality",
        analytic_ok and mc_ok and elapsed < 10.0,
        f"(max dev {worst:.2e}, MC gaps {'/'.join(details)}, {elapsed:.2f}s)",
    )


def test_criterion_8_posterior_consistency():
    worst = 0.0
    for family in (ModelFamily.Y0, ModelFamily.Z):
        for nu in (0.3, 0.5, 0.7):
            rep = posterior_consistency(family, nu, PSI_OFF)
            assert rep.n_outcomes == 9
            worst = max(worst, rep.max_deviation)
    conditional_ok = worst <= 1e-9

    product_dev = 0.0
    rng = np.random.default_rng(88)
    for _ in range(50):
        fam = PosteriorFamily(nu=rng.uniform(0.05, 0.95), psi=PSI_OFF)
        state = posterior_state(fam, rng.normal(size=2, scale=3.0))
        product_dev = max(
            product_dev,
            abs(state.cov[0, 0] * state.cov[1, 1] - (PSI_OFF.hbar / 2.0) ** 2),
        )
    product_ok = product_dev <= 1e-12

    mixture_dev = 0.0
    for family in (ModelFamily.Y0, ModelFamily.Z):
        for nu in (0.3, 0.5, 0.7):
            m = build_model(family, nu, PSI_OFF)
            mu, v = packet_probe_moments(make_min_uncertainty_state(PSI_OFF), m.probe)
            targets = evolved_rows(m.transform)[[0, 3]]  # Q1(tau), P1(tau)
            mean, cov = region_mixture_moments(
                family, nu, PSI_OFF, OutcomeRegion.full_plane()
            )
            (mq, mp), evolved_cov = row_moments(targets, mu, v)
            vq, vp = np.diag(evolved_cov)
            mixture_dev = max(
                mixture_dev,
                abs(mean[0] - mq),
                abs(mean[1] - mp),
                abs(cov[0, 0] - vq),
                abs(cov[1, 1] - vp),
            )
    mixture_ok = mixture_dev <= 1e-6
    report(
        "8 posterior-consistency",
        conditional_ok and product_ok and mixture_ok,
        f"(conditional {worst:.2e}, product {product_dev:.2e}, "
        f"mixture {mixture_dev:.2e})",
    )


def test_criterion_9_arthurs_kelly_comparator():
    rng = np.random.default_rng(424242)
    min_product = math.inf
    all_iii_fail = True
    for _ in range(100):
        probe = random_pure_probe(rng)
        errs = arthurs_kelly_errors(probe)
        min_product = min(min_product, heisenberg_product(errs))
        rep = check_theorem_conditions(arthurs_kelly_model(probe), PSI)
        all_iii_fail &= not rep.passes_iii
    bound_ok = min_product >= 0.5 - 1e-10
    report(
        "9 arthurs-kelly-comparator",
        bound_ok and all_iii_fail,
        f"(min product {min_product:.12f}, condition-iii always fails "
        f"{all_iii_fail})",
    )


def test_criterion_10_fuzz_bounds():
    # CPU time of this process: another process on the machine cannot stretch it
    start = time.process_time()
    rng = np.random.default_rng(77007700)
    worst_bo = math.inf
    worst_oz = math.inf
    for _ in range(10**4):
        m = random_measurement(rng, PSI)
        errs = qrms_errors(m, PSI)
        worst_bo = min(worst_bo, branciard_ozawa_residual(errs, PSI))
        worst_oz = min(worst_oz, ozawa_inequality_residual(errs, PSI))
    elapsed = time.process_time() - start
    report(
        "10 fuzz-bounds",
        worst_bo >= -1e-9 and worst_oz >= -1e-9 and elapsed < 30.0,
        f"(min BO {worst_bo:.3e}, min Ozawa {worst_oz:.3e}, {elapsed:.1f}s)",
    )
