"""Each Gaussian state's covariance is eigen-checked once, where it is built.

Counts the matrices that ``numpy.linalg`` factors (``eigvalsh``, the
eigenvalue step of ``checked_covariance``, plus ``det``, ``cholesky`` and
``solve``) while each pipeline function runs on a prebuilt model and a
cached packet, and along two whole pipelines.  A call on a ``(..., n, n)``
stack counts each of its matrices, so stacking checks changes no matrix
count.  The product state psi x probe is assembled by
``packet_probe_moments`` from two checked factors, and the packet, probe
and posterior states are diagonal covariances of checked variances, so
none of them adds an ``eigvalsh`` matrix; a count that grows means some
path has started to validate a state a second time or to factor a matrix
twice.
"""

import math

import numpy as np
import pytest

from conftest import FAMILIES, random_measurement
from simqp import (
    GaussianState,
    MinUncertaintyParams,
    SolvableGenerator,
    ModelFamily,
    PosteriorFamily,
    arthurs_kelly_model,
    build_model,
    check_theorem_conditions,
    conditional,
    make_min_uncertainty_state,
    make_probe_state,
    measurement_from_parts,
    meter_joint,
    p_pair_joint,
    posterior_consistency,
    posterior_state,
    propagate,
    q_pair_joint,
    qrms_errors,
)
from simqp.phase_space import packet_probe_moments

PSI = MinUncertaintyParams(q1=0.3, p1=-0.7, sigma1=1.3, hbar=0.9)

COUNTED = ("eigvalsh", "det", "cholesky", "solve")


class LinalgRecord(dict):
    """Per counted ``np.linalg`` function, the shape of each matrix its first
    argument held, in call order; ``calls`` keeps each call's argument shape."""

    def __init__(self):
        super().__init__((name, []) for name in COUNTED)
        self.calls = {name: [] for name in COUNTED}

    def clear_all(self):
        for seen in (*self.values(), *self.calls.values()):
            del seen[:]


@pytest.fixture
def linalg_shapes(monkeypatch):
    record = LinalgRecord()
    make_min_uncertainty_state(PSI)  # the cached packet
    for name in COUNTED:
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, _name=name, **kwargs):
            shape = np.shape(a)
            record.calls[_name].append(shape)
            record[_name].extend([shape[-2:]] * math.prod(shape[:-2]))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return record


@pytest.fixture
def eigvalsh_shapes(linalg_shapes):
    return linalg_shapes["eigvalsh"]


def measured(shapes, call):
    del shapes[:]
    call()
    return list(shapes)


def call_counts(linalg_shapes, fn, *args, **kwargs) -> dict:
    """Matrices of each counted function while ``fn(*args, **kwargs)`` runs."""
    linalg_shapes.clear_all()
    fn(*args, **kwargs)
    return {name: len(seen) for name, seen in linalg_shapes.items()}


MODELS = {
    **{family.value: build_model(family, 0.37, PSI) for family in FAMILIES},
    "ak": arthurs_kelly_model(make_probe_state(0.5, 1.0, PSI)),
    "random": random_measurement(np.random.default_rng(2718), PSI),
}


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_errors_and_conditions_check_nothing(eigvalsh_shapes, model):
    assert measured(eigvalsh_shapes, lambda: qrms_errors(model, PSI)) == []
    assert measured(eigvalsh_shapes, lambda: check_theorem_conditions(model, PSI)) == []


def test_packet_probe_moments_checks_nothing(eigvalsh_shapes):
    probe = make_probe_state(0.37, 2.0, PSI)
    packet = make_min_uncertainty_state(PSI)
    assert measured(eigvalsh_shapes, lambda: packet_probe_moments(packet, probe)) == []


NONE = dict.fromkeys(COUNTED, 0)


@pytest.mark.parametrize("family", FAMILIES)
def test_model_building_factors_once(linalg_shapes, family):
    # the probe is diagonal in checked variances; A and B share one det call
    gen = MODELS[family.value].generator
    assert call_counts(linalg_shapes, propagate, gen) == {**NONE, "det": 2}
    assert linalg_shapes["det"] == [(3, 3), (3, 3)]
    assert linalg_shapes.calls["det"] == [(2, 3, 3)]
    assert call_counts(linalg_shapes, build_model, family, 0.37, PSI) == {**NONE, "det": 2}
    assert call_counts(linalg_shapes, make_probe_state, 0.37, 2.0, PSI) == NONE


def test_posterior_state_checks_nothing(linalg_shapes):
    fam = PosteriorFamily(nu=0.37, psi=PSI)
    assert call_counts(linalg_shapes, posterior_state, fam, (0.4, -1.2)) == NONE


@pytest.mark.parametrize("builder", [meter_joint, q_pair_joint, p_pair_joint])
def test_conditional_factors_once(linalg_shapes, builder):
    # one Cholesky as the singularity test, one solve for the gain, and the
    # check of the conditional law's covariance
    joint = builder(MODELS["z"], PSI)
    counts = call_counts(linalg_shapes, conditional, joint, given=(1,), values=(0.2,))
    assert counts == {**NONE, "eigvalsh": 1, "cholesky": 1, "solve": 1}


@pytest.mark.parametrize("builder", [meter_joint, q_pair_joint, p_pair_joint])
@pytest.mark.parametrize("family", FAMILIES)
def test_joint_laws_check_only_the_joint(eigvalsh_shapes, builder, family):
    model = build_model(family, 0.37, PSI)
    assert measured(eigvalsh_shapes, lambda: builder(model, PSI)) == [(2, 2)]


@pytest.mark.parametrize("family", [ModelFamily.Y0, ModelFamily.Z])
def test_posterior_consistency_checks_each_law_once(linalg_shapes, family):
    counts = call_counts(linalg_shapes, posterior_consistency, family, 0.37, PSI)
    # the two triple joints and their two Schur complements; no (6, 6)
    # product re-check and no eigen-check of the diagonal probe
    assert sorted(linalg_shapes["eigvalsh"]) == [(1, 1), (1, 1), (3, 3), (3, 3)]
    # [A, B] once, and each triple's meter block factored once
    assert counts == {"eigvalsh": 4, "det": 2, "cholesky": 2, "solve": 2}
    assert linalg_shapes["cholesky"] == linalg_shapes["solve"] == [(2, 2), (2, 2)]
    # the two triples share one stacked call per step
    assert {name: len(shapes) for name, shapes in linalg_shapes.calls.items()} == {
        "eigvalsh": 2, "det": 1, "cholesky": 1, "solve": 1
    }


def test_fuzz_pipeline_checks_the_probe_and_factors_once(linalg_shapes):
    # probe PSD check, then one batched det of [A, B]; the product state,
    # the meters and both error routes add no factorisation
    def pipeline():
        probe = GaussianState(modes=(2, 3), mean=np.zeros(4), cov=0.5 * np.eye(4), hbar=PSI.hbar)
        gen = SolvableGenerator.from_couplings(0.7, -1.1, 0.4, 0.9, 1.2)
        qrms_errors(measurement_from_parts(gen, probe), PSI)

    assert call_counts(linalg_shapes, pipeline) == {**NONE, "eigvalsh": 1, "det": 2}
    assert linalg_shapes["eigvalsh"] == [(4, 4)]
    assert linalg_shapes["det"] == [(3, 3), (3, 3)]
    assert linalg_shapes.calls["det"] == [(2, 3, 3)]


@pytest.mark.parametrize("family", FAMILIES)
def test_family_pipeline_factors_once(linalg_shapes, family):
    def pipeline():
        model = build_model(family, 0.37, PSI)
        qrms_errors(model, PSI)
        check_theorem_conditions(model, PSI)

    assert call_counts(linalg_shapes, pipeline) == {**NONE, "det": 2}
