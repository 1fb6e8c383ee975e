"""Each Gaussian state's covariance is eigen-checked once, where it is built.

Counts ``numpy.linalg.eigvalsh`` calls (the eigenvalue step of
``checked_covariance``) while each pipeline function runs on a prebuilt
model and a cached packet.  The product state psi x probe is assembled by
``tensor`` from two checked factors, so it adds no call; a count that
grows means some path has started to validate a state a second time.
"""

import numpy as np
import pytest

from conftest import FAMILIES, random_measurement
from simqp import (
    MinUncertaintyParams,
    ModelFamily,
    arthurs_kelly_model,
    build_model,
    check_theorem_conditions,
    make_min_uncertainty_state,
    make_probe_state,
    meter_joint,
    p_pair_joint,
    posterior_consistency,
    q_pair_joint,
    qrms_errors,
    tensor,
)

PSI = MinUncertaintyParams(q1=0.3, p1=-0.7, sigma1=1.3, hbar=0.9)


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.eigvalsh``, in call order."""
    shapes = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    make_min_uncertainty_state(PSI)  # the cached packet
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return shapes


def measured(shapes, call):
    del shapes[:]
    call()
    return list(shapes)


MODELS = {
    **{family.value: build_model(family, 0.37, PSI) for family in FAMILIES},
    "ak": arthurs_kelly_model(make_probe_state(0.5, 1.0, PSI)),
    "random": random_measurement(np.random.default_rng(2718), PSI),
}


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_errors_and_conditions_check_nothing(eigvalsh_shapes, model):
    assert measured(eigvalsh_shapes, lambda: qrms_errors(model, PSI)) == []
    assert measured(eigvalsh_shapes, lambda: check_theorem_conditions(model, PSI)) == []


def test_tensor_checks_nothing(eigvalsh_shapes):
    probe = make_probe_state(0.37, 2.0, PSI)
    packet = make_min_uncertainty_state(PSI)
    assert measured(eigvalsh_shapes, lambda: tensor(packet, probe)) == []


@pytest.mark.parametrize("builder", [meter_joint, q_pair_joint, p_pair_joint])
@pytest.mark.parametrize("family", FAMILIES)
def test_joint_laws_check_only_the_joint(eigvalsh_shapes, builder, family):
    model = build_model(family, 0.37, PSI)
    assert measured(eigvalsh_shapes, lambda: builder(model, PSI)) == [(2, 2)]


@pytest.mark.parametrize("family", [ModelFamily.Y0, ModelFamily.Z])
def test_posterior_consistency_checks_each_law_once(eigvalsh_shapes, family):
    shapes = measured(eigvalsh_shapes, lambda: posterior_consistency(family, 0.37, PSI))
    # the build_model probe, the two triple joints and their two Schur
    # complements; no (6, 6) product re-check
    assert sorted(shapes) == [(1, 1), (1, 1), (3, 3), (3, 3), (4, 4)]
