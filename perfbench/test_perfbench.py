"""Tests of the benchmark's own logic.  Run with ``python -m pytest perfbench``."""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "n, level",
    [(14, None), (99, None), (100, "p90"), (999, "p90"), (1000, "p99"),
     (1999, "p99"), (10_000, "p99.9"), (100_000, "p99.99")],
)
def test_tail_level_is_highest_rung_with_ten_beyond(n, level):
    got = harness.tail_level(n)
    assert (None if got is None else harness.level_name(got)) == level
    if got is not None:
        assert n - harness.nearest_rank(n, *got) >= harness.MIN_BEYOND


def test_tail_value_and_median_fallback():
    samples = [float(k) for k in range(1, 1001)]
    s = harness.summarize_latencies(samples, harness.tail_level(1000))
    assert (s.tail, s.beyond, s.tail_level, s.p50) == (990.0, 10, "p99", 500.5)
    few = harness.summarize_latencies([3.0, 1.0, 2.0], harness.tail_level(3))
    assert few.tail == few.p50 == 2.0 and few.tail_level == "p50"


def test_self_time_subtracts_union_of_children():
    # parent [0, 10] with overlapping children [1, 4] and [3, 6], one at [8, 9],
    # and a grandchild inside [3, 6] that must not count against the parent
    recorded = [
        (0, 0, -1, 0.0, 10.0),
        (1, 0, 0, 1.0, 4.0),
        (1, 0, 0, 3.0, 6.0),
        (1, 0, 0, 8.0, 9.0),
        (2, 0, 2, 4.0, 5.0),
    ]
    assert spans.self_times(recorded) == pytest.approx([4.0, 3.0, 2.0, 1.0, 1.0])


def test_tracer_spans_nest_and_names_are_restored():
    import simqp

    original = simqp.build_model
    tracer = spans.Tracer()
    psi = simqp.MinUncertaintyParams()
    with tracer:
        tracer.install(simqp)
        tracer.run_op(7, lambda: simqp.build_model(simqp.ModelFamily.Y0, 0.5, psi))
    assert simqp.build_model is original and simqp.measurement.build_model is original
    agg = spans.aggregate(tracer)
    assert agg["names"]["build_model"]["calls"] == 1
    assert agg["names"]["propagate"]["calls"] == 1
    assert {op for _, op, *_ in tracer.spans} == {7}
    root = tracer.spans[0]
    assert root[2] == -1 and agg["root_s"] == pytest.approx(root[4] - root[3])
    total_self = sum(spans.self_times(tracer.spans))
    assert total_self == pytest.approx(agg["root_s"])


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_inputs_are_a_function_of_the_seed(cls):
    first = workloads.serialize(cls.make_inputs(123))
    assert first == workloads.serialize(cls.make_inputs(123))
    assert first != workloads.serialize(cls.make_inputs(124))


def test_exception_counts_as_failure_and_is_not_retried():
    calls = []

    def ok():
        calls.append("ok")
        return 1

    def boom():
        calls.append("boom")
        raise ValueError("meters do not commute: [Mq, Mp] = i*hbar*6.2e-12")

    outcomes, _ = harness.run_ops([ok, boom, ok])
    assert calls == ["ok", "boom", "ok"]
    tally = harness.Tally()
    for o in outcomes:
        tally.add(o, core=True)
    assert (tally.attempted, tally.failed, tally.wrong_core) == (3, 1, 0)
    assert tally.causes == {"ValueError: meters do not commute": 1}


def test_repeated_input_counts_once_whatever_the_number_of_passes():
    boom = ValueError("region OutcomeRegion has zero outcome probability")
    few, many = harness.Tally(), harness.Tally()
    for tally, passes in ((few, 1), (many, 7)):
        for _ in range(passes):
            tally.add(harness.OpOutcome(0, 0.1, value=1), core=True)
            tally.add(harness.OpOutcome(1, 0.1, error=boom), core=False)
            tally.add(harness.OpOutcome(2, 0.1, value=1, failure="region mean q"), core=False)
    for tally in (few, many):
        assert (tally.attempted, tally.failed, tally.wrong_core) == (3, 2, 0)
    assert few.causes == many.causes


def test_wrong_result_on_core_input_marks_run_incorrect():
    tally = harness.Tally()
    tally.add(harness.OpOutcome(0, 0.1, value=1, failure="family conditions"), core=False)
    assert tally.wrong_core == 0 and tally.failed == 1
    tally.add(harness.OpOutcome(1, 0.1, value=1, failure="family conditions"), core=True)
    assert tally.wrong_core == 1 and tally.failed == 2


def test_full_plane_region_is_the_evolved_packet():
    nu, q1, p1, sigma1, hbar = 0.3, 1.5, -2.0, 0.8, 2.0
    inf = math.inf
    mean, var = oracle.region_moments(nu, q1, p1, sigma1, hbar, (-inf, inf, -inf, inf))
    sp = hbar / (2.0 * sigma1)
    assert mean == pytest.approx((q1, p1), rel=1e-14)
    assert var == pytest.approx(((2 - nu) / nu * sigma1**2, (1 + nu) / (1 - nu) * sp**2), rel=1e-14)


def test_far_tail_mass_stays_positive():
    mean, var = oracle.truncated_moments(0.0, 1.0, 9.0, math.inf)
    assert 9.0 < mean < 9.2 and 0.0 < var < 0.02


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_cli_json_must_be_strict():
    assert workloads.parse_json('{"mean": [1.5, -2.0]}') == {"mean": [1.5, -2.0]}
    with pytest.raises(ValueError):
        workloads.parse_json('{"region": [-Infinity, 1.0]}')
