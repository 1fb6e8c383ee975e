"""The row engine against the object path it replaced, bit for bit.

The oracle below is the earlier computation, kept inline: the transform
pair evaluated as two separate closed forms, meters as coefficient
triples, ``psi x probe`` assembled by a mode-layout ``tensor``, the noise
moments contracted one meter at a time, joint moments one observable
row at a time, and posterior consistency one triple law at a time, each
built, checked and conditioned on its own, and each conditional law
conditioned by its own fancy-indexed blocks.  Over seeded models
(criterion-10 generators and probes, the four families over nu in
(0.01, 0.99), and model-fuzz-style edge nu / sigma1 / hbar) the engine must give the same q-rms errors,
``TheoremReport`` fields, joint and conditional means and covariances
and posterior consistency reports, and reject the same inputs with the same exception
type and message.  Every contraction keeps its order, so no ulp bound is
needed.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import FAMILIES, random_pure_probe, random_solvable_generator
from simqp import (
    GaussianState,
    JointGaussian,
    MinUncertaintyParams,
    ModelFamily,
    NonCommutingObservablesError,
    PosteriorFamily,
    SolvableGenerator,
    build_model,
    check_theorem_conditions,
    conditional,
    joint_distribution,
    make_min_uncertainty_state,
    make_probe_state,
    measurement_from_parts,
    meter_joint,
    p_pair_joint,
    posterior_consistency,
    q_pair_joint,
    qrms_errors,
    solve_couplings,
)
from simqp.distributions import PosteriorConsistencyReport, check_posterior_family
from simqp.dynamics import evolved_rows, expm_coefficients
from simqp.measurement import (
    FAMILY_PARAMETERS,
    ErrorPair,
    TheoremReport,
    branciard_ozawa_residual,
)
from simqp.phase_space import (
    TOLERANCES,
    check_deviation,
    checked_covariance,
    packet_probe_moments,
)

JOINT_COMMUTATOR_ATOL = METER_COMMUTATOR_ATOL = TOLERANCES["commutator"]
TRANSFORM_ATOL = TOLERANCES["transform"]
CONDITION_ATOL = TOLERANCES["condition"]
ERROR_ROUTE_ATOL = TOLERANCES["error_route"]

EYE3 = np.eye(3)


def check_close(actual, expected, name: str, message: str, scale: float = 1.0) -> None:
    """:func:`check_deviation` of the arrays ``actual - expected``."""
    check_deviation(np.subtract(actual, expected).ravel().tolist(), name, message, scale)


# ------------------------------------------------------------------ oracle


def oracle_model(gen, probe):
    """The pair as two closed forms and the meters as coefficient triples."""
    c1, c2 = expm_coefficients(gen.e, gen.tau)
    s, s2 = gen.s, gen.s @ gen.s
    a = EYE3 + c1 * s + c2 * s2
    b = EYE3 - c1 * s.T + c2 * s2.T
    check_close(a @ b.T, EYE3, "transform", "A B^T != I")
    for name, det in zip("AB", np.linalg.det(np.stack((a, b))).tolist()):
        if abs(det - 1.0) > TRANSFORM_ATOL:
            raise ValueError(f"det({name}) = {det:g} != 1")
    zero = np.zeros(3)
    meter_q = (a[1].copy(), zero, 0.0)
    meter_p = (zero, b[2].copy(), 0.0)
    if probe.modes != (2, 3):
        raise ValueError(f"probe must live on modes (2, 3), got {probe.modes}")
    c = float(meter_q[0] @ meter_p[1] - meter_q[1] @ meter_p[0])
    if abs(c) > METER_COMMUTATOR_ATOL:
        raise ValueError(f"meters do not commute: [Mq, Mp] = i*hbar*{c:g}")
    return SimpleNamespace(a=a, b=b, probe=probe, meters=(meter_q, meter_p))


def oracle_build(family, nu, psi):
    recipe = FAMILY_PARAMETERS[family]
    alpha1, alpha3 = solve_couplings(nu, recipe.tau, recipe.gamma2, recipe.e)
    gen = SolvableGenerator.from_couplings(
        alpha1, alpha3, recipe.gamma2, recipe.e, recipe.tau
    )
    m = oracle_model(gen, make_probe_state(nu, recipe.kappa, psi))
    a21, a22 = m.a[1, 0], m.a[1, 1]
    if abs(a21 - nu) > 1e-10 or abs(a22 - recipe.kappa) > 1e-10:
        raise RuntimeError(
            f"propagated weights (a21={a21:g}, a22={a22:g}) drifted from "
            f"(nu={nu:g}, kappa={recipe.kappa:g})"
        )
    return m


def oracle_tensor(first, second):
    """Mode-layout product: each factor placed by its merged-order indices."""
    if first.hbar != second.hbar:
        raise ValueError("states carry different values of hbar")
    modes = tuple(sorted(first.modes + second.modes))
    merged = np.array([j - 1 for j in modes] + [j + 2 for j in modes])
    mean = np.zeros(len(merged))
    cov = np.zeros((len(merged), len(merged)))
    for state in (first, second):
        slots = [j - 1 for j in state.modes] + [j + 2 for j in state.modes]
        idx = np.searchsorted(merged, slots)
        mean[idx] = state.mean
        cov[np.ix_(idx, idx)] = state.cov
    return SimpleNamespace(mean=mean, cov=cov)


def oracle_noise_moments(m, psi):
    system = make_min_uncertainty_state(psi)
    joint = oracle_tensor(system, m.probe)
    means, var_probe, explicit, direct = [], [], [], []
    for (cq, cp, offset), target in zip(m.meters, (0, 3)):
        row = np.concatenate((cq, cp))
        row[target] -= 1.0
        mean = float(row @ joint.mean) + offset
        probe_part = float(row[[1, 2, 4, 5]] @ m.probe.cov @ row[[1, 2, 4, 5]])
        system_part = float(row[[0, 3]] @ system.cov @ row[[0, 3]])
        means.append(mean)
        var_probe.append(probe_part)
        explicit.append(system_part + probe_part + mean * mean)
        direct.append(float(row @ joint.cov @ row) + mean * mean)
    for rep, mom in zip(explicit, direct):
        if abs(rep - mom) > ERROR_ROUTE_ATOL * max(1.0, abs(rep)):
            raise RuntimeError(
                f"error routes disagree: representation {rep!r} vs noise moment {mom!r}"
            )
    return means, var_probe, explicit


def oracle_errors(m, psi):
    _, _, second = oracle_noise_moments(m, psi)
    return ErrorPair(eps_q=math.sqrt(second[0]), eps_p=math.sqrt(second[1]))


def oracle_report(m, psi, tol=CONDITION_ATOL):
    (mean_q, mean_p), (var_q, var_p), second = oracle_noise_moments(m, psi)
    a21 = float(m.meters[0][0][0])
    b31 = float(m.meters[1][1][0])
    weight = math.sqrt(abs(a21 * b31))
    res_q = math.sqrt(var_q) - weight * psi.sigma_q
    res_p = math.sqrt(var_p) - weight * psi.sigma_p
    sum_res = a21 + b31 - 1.0
    errs = ErrorPair(eps_q=math.sqrt(second[0]), eps_p=math.sqrt(second[1]))
    return TheoremReport(
        cond_i_residuals=(mean_q, mean_p),
        cond_ii_residuals=(res_q, res_p),
        cond_iii=(a21, b31, sum_res),
        passes_i=abs(mean_q) <= tol and abs(mean_p) <= tol,
        passes_ii=abs(res_q) <= tol and abs(res_p) <= tol,
        passes_iii=a21 > 0.0 and b31 > 0.0 and abs(sum_res) <= tol,
        bo_residual=branciard_ozawa_residual(errs, psi),
    )


def oracle_linear_moments(state, observables):
    """One row at a time, the upper triangle mirrored."""
    c = np.array([np.concatenate((cq, cp)) for cq, cp, _ in observables])
    mean = np.array([r @ state.mean for r in c]) + [off for _, _, off in observables]
    cov = np.array([r @ state.cov for r in c]) @ c.T
    return mean, np.where(np.triu(np.ones(cov.shape, dtype=bool)), cov, cov.T) + 0.0


def oracle_joint(observables, state, labels):
    for i in range(len(observables)):
        for j in range(i + 1, len(observables)):
            (fq, fp, _), (gq, gp, _) = observables[i], observables[j]
            c = float(fq @ gp - fp @ gq)
            if abs(c) > JOINT_COMMUTATOR_ATOL:
                raise NonCommutingObservablesError(
                    f"observables {labels[i]!r} and {labels[j]!r} do not "
                    f"commute: coefficient {c:g}"
                )
    mean, cov = oracle_linear_moments(state, observables)
    return JointGaussian(labels=labels, mean=mean, cov=cov)


def unit(k):
    e = np.zeros(3)
    e[k] = 1.0
    return e


ZERO = np.zeros(3)
Q1, P1 = (unit(0), ZERO, 0.0), (ZERO, unit(0), 0.0)


def oracle_joint_builders(m):
    """The meter, q-pair and p-pair joints of oracle model ``m``, each a function of psi."""
    mq, mp = m.meters
    pairs = (
        ([mq, mp], ("Q2(tau)", "P3(tau)")),
        ([Q1, mq], ("Q1(0)", "Q2(tau)")),
        ([P1, mp], ("P1(0)", "P3(tau)")),
    )
    return [
        lambda psi, obs=obs, labels=labels: oracle_joint(
            obs, oracle_tensor(make_min_uncertainty_state(psi), m.probe), labels
        )
        for obs, labels in pairs
    ]


def oracle_conditioning(joint, given):
    """One law at a time, each block by its own fancy index."""
    rest = [i for i in range(joint.dim) if i not in given]
    v_gg = joint.cov[given][:, given]
    v_r = joint.cov[rest]
    v_rg = v_r[:, given]
    try:
        np.linalg.cholesky(v_gg)
    except np.linalg.LinAlgError:
        raise ValueError("conditioned block is singular; cannot condition on it")
    gain = np.linalg.solve(v_gg, v_rg.T).T
    return rest, gain, v_r[:, rest] - gain @ v_rg.T


def oracle_outcome_grid(joint):
    mean = joint.mean[-2:]
    sd = np.sqrt(np.diag(joint.cov)[-2:])
    return [
        (mean[0] + dz * sd[0], mean[1] + dw * sd[1])
        for dz in (-1.0, 0.0, 1.0)
        for dw in (-1.0, 0.0, 1.0)
    ]


def oracle_posterior_consistency(family, nu, psi):
    check_posterior_family(family)
    m = oracle_build(family, nu, psi)
    state = oracle_tensor(make_min_uncertainty_state(psi), m.probe)
    targets = ((m.a[0].copy(), ZERO, 0.0), (ZERO, m.b[0].copy(), 0.0))
    joints = [
        oracle_joint([target, *m.meters], state, ("f0", "f1", "f2")) for target in targets
    ]
    y = np.array(oracle_outcome_grid(joints[0]), dtype=float).reshape(-1, 2)
    fam = PosteriorFamily(nu=nu, psi=psi)
    max_mean_dev = max_var_dev = 0.0
    expected = zip(fam.mean_map(y.T), (fam.var_q, fam.var_p))
    for joint, (expected_mean, expected_var) in zip(joints, expected):
        _, gain, schur_cov = oracle_conditioning(joint, [1, 2])
        var = checked_covariance(schur_cov, "psd_law")[0, 0]
        mean = joint.mean[0] + (y - joint.mean[1:]) @ gain[0]
        max_mean_dev = max([max_mean_dev, *abs(mean - expected_mean)])
        max_var_dev = max(max_var_dev, abs(var - expected_var))
    return PosteriorConsistencyReport(
        family=family,
        nu=nu,
        n_outcomes=len(y),
        max_mean_deviation=max_mean_dev,
        max_var_deviation=max_var_dev,
    )


# ------------------------------------------------------------- comparison


def outcome(fn, *args):
    """``("ok", value)`` or ``("raised", type, message)``."""
    try:
        return ("ok", fn(*args))
    except (ValueError, RuntimeError) as exc:
        return ("raised", type(exc), str(exc))


def same(a, b) -> bool:
    if a[0] != b[0]:
        return False
    if a[0] == "raised":
        return a[1:] == b[1:]
    x, y = a[1], b[1]
    if isinstance(x, JointGaussian):
        return x.labels == y.labels and np.array_equal(x.mean, y.mean) and np.array_equal(
            x.cov, y.cov
        )
    return x == y


def assert_same_pipeline(engine, oracle, psi):
    """Errors, the theorem report and the three joints of one model."""
    assert (engine[0] == "ok") == (oracle[0] == "ok"), (engine, oracle)
    if engine[0] != "ok":
        assert engine[1:] == oracle[1:]
        return
    m, om = engine[1], oracle[1]
    np.testing.assert_array_equal(m.transform.a, om.a)
    np.testing.assert_array_equal(m.transform.b, om.b)
    checks = [
        (outcome(qrms_errors, m, psi), outcome(oracle_errors, om, psi)),
        (outcome(check_theorem_conditions, m, psi), outcome(oracle_report, om, psi)),
    ]
    for builder, oracle_builder in zip(
        (meter_joint, q_pair_joint, p_pair_joint), oracle_joint_builders(om)
    ):
        checks.append((outcome(builder, m, psi), outcome(oracle_builder, psi)))
    for got, want in checks:
        assert same(got, want), (got, want)


def random_psi(rng):
    sigma1 = 10.0 ** rng.uniform(-1.0, 1.0)
    hbar = 10.0 ** rng.uniform(-1.0, 1.0)
    return MinUncertaintyParams(
        q1=rng.uniform(-2.0, 2.0) * sigma1,
        p1=rng.uniform(-2.0, 2.0) * hbar / (2.0 * sigma1),
        sigma1=sigma1,
        hbar=hbar,
    )


def edge_psi(rng):
    sigma1 = 10.0 ** rng.uniform(-8.0, 8.0)
    hbar = 10.0 ** rng.uniform(-3.0, 3.0)
    return MinUncertaintyParams(
        q1=rng.uniform(-2.0, 2.0) * sigma1,
        p1=rng.uniform(-2.0, 2.0) * hbar / (2.0 * sigma1),
        sigma1=sigma1,
        hbar=hbar,
    )


def edge_nu(rng):
    d = 10.0 ** rng.uniform(-12.0, math.log10(0.5))
    return float(d if rng.random() < 0.5 else 1.0 - d)


def test_criterion_10_models_match_the_oracle():
    rng = np.random.default_rng(8101)
    for _ in range(5000):
        psi = MinUncertaintyParams(hbar=1.0) if rng.random() < 0.5 else random_psi(rng)
        gen = random_solvable_generator(rng)
        probe = random_pure_probe(rng, psi.hbar)
        engine = outcome(measurement_from_parts, gen, probe)
        oracle = outcome(oracle_model, gen, probe)
        assert_same_pipeline(engine, oracle, psi)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_family_models_match_the_oracle(family):
    rng = np.random.default_rng([8102, FAMILIES.index(family)])
    for _ in range(1000):
        nu = float(rng.uniform(0.01, 0.99))
        psi = random_psi(rng)
        engine = outcome(build_model, family, nu, psi)
        oracle = outcome(oracle_build, family, nu, psi)
        assert_same_pipeline(engine, oracle, psi)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_edge_models_match_the_oracle(family):
    rng = np.random.default_rng([8103, FAMILIES.index(family)])
    rejected = 0
    for _ in range(250):
        nu, psi = edge_nu(rng), edge_psi(rng)
        engine = outcome(build_model, family, nu, psi)
        oracle = outcome(oracle_build, family, nu, psi)
        rejected += oracle[0] != "ok"
        assert_same_pipeline(engine, oracle, psi)
    assert rejected < 250  # most edge models still build


@pytest.mark.parametrize("family", [ModelFamily.Y0, ModelFamily.Z], ids=lambda f: f.value)
def test_posterior_consistency_matches_the_oracle(family):
    rng = np.random.default_rng([8104, family is ModelFamily.Z])
    for k in range(250):
        edge = k % 5 == 0
        nu = edge_nu(rng) if edge else float(rng.uniform(0.01, 0.99))
        psi = edge_psi(rng) if edge else random_psi(rng)
        got = outcome(posterior_consistency, family, nu, psi)
        want = outcome(oracle_posterior_consistency, family, nu, psi)
        assert same(got, want), (nu, psi, got, want)


def oracle_conditional(joint, given, values):
    """The conditional law from ``oracle_conditioning``, built by the public constructor."""
    given = list(given)
    values = np.asarray(values, dtype=float)
    rest, gain, cov = oracle_conditioning(joint, given)
    for i, value in zip(given, values.tolist()):
        if not math.isfinite(value):
            raise ValueError(f"value {value} given for {joint.labels[i]!r} is not finite")
    mean = joint.mean[rest] + gain @ (values - joint.mean[given])
    return JointGaussian(labels=tuple(joint.labels[i] for i in rest), mean=mean, cov=cov)


def triple_joint(m, psi):
    """The law of (Q1(tau), Q2(tau), P3(tau)), the first posterior triple."""
    rows = evolved_rows(m.transform)[[0, 1, 5]]
    mu, v = packet_probe_moments(make_min_uncertainty_state(psi), m.probe)
    return joint_distribution(rows, mu, v)


def assert_same_conditionals(m, psi, rng):
    """Each joint of model ``m`` conditioned on one component, the triple on one and on two."""
    cases = [(builder, given) for builder in (meter_joint, q_pair_joint, p_pair_joint)
             for given in ((0,), (1,))]
    cases += [(triple_joint, given) for given in ((0,), (2,), (1, 2))]
    for builder, given in cases:
        law = outcome(builder, m, psi)
        if law[0] != "ok":
            continue  # the joints themselves are pinned by assert_same_pipeline
        joint = law[1]
        sd = np.sqrt(np.diag(joint.cov)[list(given)])
        values = joint.mean[list(given)] + sd * rng.normal(size=len(given))
        if rng.random() < 0.05:
            values[-1] = rng.choice([math.nan, math.inf, -math.inf])
        got = outcome(conditional, joint, given, values)
        want = outcome(oracle_conditional, joint, given, values)
        assert same(got, want), (builder.__name__, given, values, got, want)


def test_conditionals_match_the_oracle():
    rng = np.random.default_rng(8105)
    for _ in range(300):
        psi = MinUncertaintyParams(hbar=1.0) if rng.random() < 0.5 else random_psi(rng)
        model = outcome(
            measurement_from_parts,
            random_solvable_generator(rng),
            random_pure_probe(rng, psi.hbar),
        )
        if model[0] == "ok":
            assert_same_conditionals(model[1], psi, rng)
    for family in FAMILIES:
        for k in range(200):
            edge = k % 4 == 0
            nu = edge_nu(rng) if edge else float(rng.uniform(0.01, 0.99))
            psi = edge_psi(rng) if edge else random_psi(rng)
            model = outcome(build_model, family, nu, psi)
            if model[0] == "ok":
                assert_same_conditionals(model[1], psi, rng)


# laws at the edge of the singular-block test: a zero, a tiny negative and
# a subnormal variance, perfectly correlated pairs, and a singular 2x2 block
SINGULAR_EDGE_LAWS = [
    ([[1.0, 0.0], [0.0, 0.0]], (1,)),
    ([[1.0, 0.0], [0.0, -1e-13]], (1,)),
    ([[1.0, 0.0], [0.0, 5e-324]], (1,)),
    ([[1.0, 1.0], [1.0, 1.0]], (1,)),
    ([[4.0, -2.0], [-2.0, 1.0]], (0,)),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]], (1, 2)),
    ([[2.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]], (1, 2)),
]


@pytest.mark.parametrize("cov, given", SINGULAR_EDGE_LAWS)
def test_conditionals_at_a_singular_edge_match_the_oracle(cov, given):
    joint = JointGaussian(labels=("a", "b", "c")[: len(cov)], mean=np.zeros(len(cov)), cov=cov)
    values = np.full(len(given), 0.5)
    assert same(outcome(conditional, joint, given, values),
                outcome(oracle_conditional, joint, given, values))


def test_oracle_rejects_a_mismatched_hbar_like_the_engine():
    psi = MinUncertaintyParams(hbar=2.0)
    gen = random_solvable_generator(np.random.default_rng(1))
    probe = GaussianState(modes=(2, 3), mean=np.zeros(4), cov=0.5 * np.eye(4), hbar=1.0)
    m, om = measurement_from_parts(gen, probe), oracle_model(gen, probe)
    pairs = (
        (outcome(qrms_errors, m, psi), outcome(oracle_errors, om, psi)),
        (outcome(meter_joint, m, psi), outcome(oracle_joint_builders(om)[0], psi)),
    )
    for got, want in pairs:
        assert got[0] == want[0] == "raised" and got[1:] == want[1:]
