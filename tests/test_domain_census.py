"""The domain census runs, classifies every input once and prints its table."""

import math

import numpy as np

import domain_census
from simqp import ModelFamily


def test_census_classifies_every_input(capsys):
    assert domain_census.main(["--seed", "5", "--n", "300"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "domain census: seed 5, 300 inputs"
    counts = [int(line.split()[0]) for line in lines[2:]]
    assert sum(counts) == 300
    assert any(line.endswith("  right") for line in lines[2:])


def test_census_draws_its_stated_domain():
    inputs = domain_census.draw(np.random.default_rng(1), 3000)
    nus = [nu for _, nu, *_ in inputs]
    assert all(0.0 < nu < 1.0 for nu in nus)
    assert min(nus) < 1e-200 and max(nus) > 1.0 - 1e-15
    for _, _, sigma1, hbar, q1, p1 in inputs:
        assert 1e-150 <= sigma1 <= 1e150 and 1e-150 <= hbar <= 1e150
        assert all(m == 0.0 or 1e-150 <= abs(m) <= 1e150 for m in (q1, p1))


def test_classes_of_known_inputs():
    assert domain_census.classify(ModelFamily.Z, 0.37, 1.0, 1.0, 0.0, 0.0) == "right"
    refused = domain_census.classify(ModelFamily.Y0, 0.5, 1e154, 1.0, 0.0, 0.0)
    assert refused.startswith("refused: probe Var(Q3) = # is not finite"), refused
    assert domain_census.representable(0.5, 1.0, 1.0)
    assert not domain_census.representable(1e-300, 1e150, 1e-150)
    assert math.isfinite(domain_census.NORMAL[1])
