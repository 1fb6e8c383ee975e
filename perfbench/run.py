#!/usr/bin/env python3
"""simqp benchmark: one command, three workloads, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload {cli-session,model-fuzz,outcome-stats} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it times untraced and traced passes of the same
inputs and reports the per-layer metrics.  Human-readable lines
come first; the last line of stdout is the JSON result.  The program is
imported from ``src/`` next to this directory; the benchmark exits
non-zero without a result if it is missing or the harness breaks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    HarnessError,
    RunTimeout,
    Tally,
    run_ops,
    run_timed_passes,
    summarize_latencies,
    tail_level,
)
from spans import Tracer, aggregate, save_spans  # noqa: E402
from workloads import WORKLOADS, import_times, measure_setup  # noqa: E402

# a run still going after this many seconds stops without printing a result
WATCHDOG_SECONDS = 170

# fresh interpreters timed per run; setup_s is their median
SETUP_REPEATS = 5

# untraced and traced passes a traced run times; their medians are used
TRACE_REPEATS = 3


@dataclass
class Context:
    """Where the program lives and where a run may write."""

    tmp: Path
    env: dict
    sq: object
    cli: object


def load_program(tmp: Path) -> Context:
    src = ROOT / "src"
    if not (src / "simqp" / "__init__.py").is_file():
        raise HarnessError(f"no simqp package under {src}")
    sys.path.insert(0, str(src))
    import simqp
    import simqp.cli

    if Path(simqp.__file__).resolve().parent != (src / "simqp").resolve():
        raise HarnessError(f"imported simqp from {simqp.__file__}, not {src}")
    env = dict(os.environ)
    env.pop("SIMQP_OUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return Context(tmp=tmp, env=env, sq=simqp, cli=simqp.cli)


# ------------------------------------------------------------------ metrics

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# printed with the end-to-end metrics but left out of the result line: the
# tail of outcome-stats queries spread by a third from seed to seed
PRINTED_ONLY = (("op_tail_s", "s"),)

# per-layer metric -> how it is read from the traced pass.  "<layer>.<name>.calls"
# and ".self_s" come from the spans of that public name, ".per_op" is its
# constructor calls per operation, "<layer>.self_s" sums the layer.
PER_LAYER = (
    ("import.total_s", "s"),
    ("import.numpy_s", "s"),
    ("import.scipy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("measurement.build_model.calls", "count"),
    ("measurement.build_model.self_s", "s"),
    ("measurement.measurement_from_parts.calls", "count"),
    ("measurement.measurement_from_parts.self_s", "s"),
    ("measurement.qrms_errors.calls", "count"),
    ("measurement.qrms_errors.self_s", "s"),
    ("measurement.check_theorem_conditions.calls", "count"),
    ("measurement.check_theorem_conditions.self_s", "s"),
    ("dynamics.SolvableGenerator.from_couplings.calls", "count"),
    ("dynamics.SolvableGenerator.from_couplings.self_s", "s"),
    ("dynamics.propagate.calls", "count"),
    ("dynamics.propagate.self_s", "s"),
    ("dynamics.heisenberg_observables.calls", "count"),
    ("dynamics.heisenberg_observables.self_s", "s"),
    ("phase_space.moments.calls", "count"),
    ("phase_space.moments.self_s", "s"),
    ("phase_space.covariance.calls", "count"),
    ("phase_space.covariance.self_s", "s"),
    ("phase_space.tensor.calls", "count"),
    ("phase_space.tensor.self_s", "s"),
    ("phase_space.make_probe_state.calls", "count"),
    ("phase_space.make_probe_state.self_s", "s"),
    ("phase_space.GaussianState.per_op", "count"),
    ("phase_space.GaussianState.self_s", "s"),
    ("phase_space.LinearObservable.per_op", "count"),
    ("phase_space.LinearObservable.self_s", "s"),
    ("distributions.sample.calls", "count"),
    ("distributions.sample.self_s", "s"),
    ("distributions.joint_distribution.calls", "count"),
    ("distributions.joint_distribution.self_s", "s"),
    ("distributions.conditional.calls", "count"),
    ("distributions.conditional.self_s", "s"),
    ("distributions.posterior_consistency.calls", "count"),
    ("distributions.posterior_consistency.self_s", "s"),
    ("distributions.region_mixture_moments.calls", "count"),
    ("distributions.region_mixture_moments.self_s", "s"),
    ("distributions.JointGaussian.per_op", "count"),
    ("distributions.JointGaussian.self_s", "s"),
    ("phase_space.self_s", "s"),
    ("dynamics.self_s", "s"),
    ("measurement.self_s", "s"),
    ("distributions.self_s", "s"),
    ("bench.self_s", "s"),
    ("baseline.build_model_s", "s"),
    ("baseline.qrms_errors_s", "s"),
    ("baseline.check_theorem_conditions_s", "s"),
    ("baseline.meter_joint_s", "s"),
    ("baseline.posterior_consistency_s", "s"),
    ("baseline.region_mixture_moments_s", "s"),
    ("baseline.propagate_s", "s"),
    ("baseline.sample_draw_s", "s"),
    ("baseline.csv_format_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.accounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
)

# ROADMAP baseline rows: mean inclusive seconds per call of the public name
BASELINE_ROWS = {
    "build_model": "build_model",
    "qrms_errors": "qrms_errors",
    "check_theorem_conditions": "check_theorem_conditions",
    "meter_joint": "meter_joint",
    "posterior_consistency": "posterior_consistency",
    "region_mixture_moments": "region_mixture_moments",
    "propagate": "propagate",
    "sample_draw": "sample",
}


def per_layer_metrics(agg, n_ops, imports, bytes_written, csv_self, wall, overhead, spans):
    names, layers = agg["names"], agg["layers"]
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for key, unit in PER_LAYER:
        head, _, rest = key.partition(".")
        if head == "import":
            value = imports[rest[: -len("_s")]]
        elif key == "cli.bytes_written":
            value = bytes_written
        elif key == "baseline.csv_format_s":
            value = csv_self
        elif head == "baseline":
            row = names.get(BASELINE_ROWS[rest[: -len("_s")]], zero)
            value = row["total_s"] / row["calls"] if row["calls"] else 0.0
        elif key == "trace.wall_s":
            value = wall
        elif key == "trace.accounted_frac":
            value = agg["root_s"] / wall
        elif key == "trace.overhead_frac":
            value = overhead
        elif key == "trace.spans":
            value = spans
        elif rest == "self_s":
            value = layers.get(head, 0.0)
        else:
            name, _, stat = rest.rpartition(".")
            row = names.get(name, zero)
            value = row["calls"] / n_ops if stat == "per_op" else row[stat]
        out[key] = {"value": value, "unit": unit}
    return out


# ------------------------------------------------------------------ running


def run_pass(workload, ops, on_op=None):
    """Run one pass in the workload's schedule; outcomes carry input indices."""
    schedule = workload.schedule
    wrapped = None if on_op is None else (lambda pos, fn: on_op(schedule[pos], fn))
    outcomes, wall = run_ops([ops[k] for k in schedule], wrapped)
    for o in outcomes:
        o.index = schedule[o.index]
    return outcomes, wall


def check_outcomes(workload, outcomes, tally):
    for o in outcomes:
        if o.error is None:
            try:
                o.failure = workload.check(o.index, o.value)
            except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
                o.failure = f"unreadable result ({type(exc).__name__})"
        tally.add(o, workload.is_core(o.index))
    if not outcomes:
        raise HarnessError("a pass ran no operation")


def run_untraced(workload, ctx, seconds, lines):
    """End-to-end metrics, robust to the host's drifting speed.

    Every pass repeats the same operations, so each operation's latency
    is taken as its fastest repetition in the run, and wall_s as the sum
    of those over one pass.  The host's speed drifts by tens of percent
    over tens of seconds; the fastest repetition is the least disturbed
    measurement of the program.  Every pass is checked; fail_frac counts
    each distinct input once, failed if any of its repetitions failed.
    """
    setup = statistics.median(measure_setup(ctx, workload.name, SETUP_REPEATS))
    ops = workload.ops()
    workload.warm_up(ops)
    tally = Tally()
    walls, best, fastest, rss = [], {}, {}, 0.0

    def after(result):
        nonlocal rss
        outcomes, wall = result
        check_outcomes(workload, outcomes, tally)
        workload.cleanup_pass()
        walls.append(wall)
        for o in outcomes:
            if isinstance(o.value, dict) and "rss_mb" in o.value:
                rss = max(rss, o.value["rss_mb"])
            fastest[o.index] = min(fastest.get(o.index, math.inf), o.latency)
            if o.error is None and o.failure is None:
                best[o.index] = min(best.get(o.index, math.inf), o.latency)

    run_timed_passes(lambda: run_pass(workload, ops), seconds, after)
    timed = [lat for i, lat in best.items() if workload.is_timed(i)]
    draws = [lat for i, lat in best.items() if not workload.is_timed(i)]
    lat = summarize_latencies(timed, tail_level(workload.timed_ops))
    rss = rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup,
        "wall_s": sum(fastest[k] for k in workload.schedule),
        "op_p50_s": lat.p50,
        "op_tail_s": lat.tail,
        "ops_per_s": len(timed) / sum(timed),
        "peak_rss_mb": rss,
    }
    lines.append(f"workload {workload.name}: seed {workload.seed}, {len(walls)} pass(es) "
                 f"of {len(workload.schedule)} operations, closed loop, one client")
    counts = {"setup_s": f"median of {SETUP_REPEATS} fresh processes",
              "wall_s": f"{len(workload.schedule)} operations at their fastest; real passes: "
                        f"fastest {min(walls):.6g} s, median {statistics.median(walls):.6g} s",
              "op_p50_s": f"n={lat.n} operations, each at its fastest repetition",
              "op_tail_s": f"{lat.tail_level} of n={lat.n}, {lat.beyond} beyond",
              "ops_per_s": f"{len(timed)} operations that succeeded",
              "peak_rss_mb": "max over children" if workload.name == "cli-session"
                             else "this process"}
    for key, unit in END_TO_END + PRINTED_ONLY:
        lines.append(f"  {key:<14} {metrics[key]:.6g} {unit}  ({counts[key]})")
    alias = {"model-fuzz": "models_per_s", "outcome-stats": "queries_per_s",
             "cli-session": "invocations_per_s"}[workload.name]
    lines.append(f"  {alias:<14} {metrics['ops_per_s']:.6g} 1/s")
    if draws:
        lines.append(f"  {'draws_per_s':<14} {workload.rows_per_draw * len(draws) / sum(draws):.6g}"
                     f" 1/s  (rows sampled and written as CSV)")
    _report_failures(tally, lines)
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}, tally


def _report_failures(tally, lines):
    lines.append(f"  {'fail_frac':<14} {tally.fail_frac:.6g}  "
                 f"({tally.failed} of {tally.attempted} distinct inputs)")
    for cause, count in sorted(tally.causes.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {count:>6}  {cause}")


def run_traced(workload, ctx, lines):
    imports_runs = [import_times(ctx) for _ in range(3)]
    imports = {k: statistics.median(r[k] for r in imports_runs) for k in imports_runs[0]}
    ops = workload.inprocess_ops()
    workload.warm_up(ops)
    tally = Tally()
    untraced = []
    for _ in range(TRACE_REPEATS):
        outcomes, wall = run_pass(workload, ops)
        untraced.append(wall)
        check_outcomes(workload, outcomes, tally)
        workload.cleanup_pass()
    traced = []
    for _ in range(TRACE_REPEATS):
        tracer = Tracer()
        with tracer:
            tracer.install(ctx.sq)
            outcomes, wall = run_pass(workload, ops, tracer.run_op)
        traced.append((wall, tracer, outcomes))
    wall, tracer, outcomes = sorted(traced, key=lambda t: t[0])[len(traced) // 2]
    check_outcomes(workload, outcomes, tally)
    bytes_written = workload.bytes_written(outcomes)
    workload.cleanup_pass()
    agg = aggregate(tracer)
    draw_ops = {o.index for o in outcomes if not workload.is_timed(o.index)}
    csv_self = _cli_self_in_ops(tracer, agg["self_s"], draw_ops)
    overhead = statistics.median(t[0] for t in traced) / statistics.median(untraced) - 1.0
    metrics = per_layer_metrics(agg, len(workload.schedule), imports, bytes_written, csv_self, wall,
                                overhead, len(tracer.spans))
    OUT_DIR.mkdir(exist_ok=True)
    save_spans(tracer, OUT_DIR / f"spans-{workload.name}-{workload.seed}.npz")
    lines.append(f"workload {workload.name}: traced pass of {len(workload.schedule)} operations, "
                 f"{len(tracer.spans)} spans")
    for key, unit in PER_LAYER:
        lines.append(f"  {key:<50} {metrics[key]['value']:.6g} {unit}")
    _report_failures(tally, lines)
    return metrics, tally


def _cli_self_in_ops(tracer, selfs, op_ids):
    """Mean self seconds of ``cli.main`` over the calls made by ``op_ids``."""
    if "main" not in tracer.names or not op_ids:
        return 0.0
    nid = tracer.names.index("main")
    vals = [s for (n, op, *_), s in zip(tracer.spans, selfs) if n == nid and op in op_ids]
    return sum(vals) / len(vals) if vals else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    def on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded {WATCHDOG_SECONDS} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(WATCHDOG_SECONDS)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    lines = []
    try:
        ctx = load_program(tmp)
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](ctx, args.seed)
        lines.append(f"inputs generated from seed {args.seed} in "
                     f"{time.perf_counter() - t0:.3f} s")
        if args.trace:
            metrics, tally = run_traced(workload, ctx, lines)
        else:
            metrics, tally = run_untraced(workload, ctx, args.seconds, lines)
    except (HarnessError, RunTimeout) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        shutil.rmtree(tmp, ignore_errors=True)
    for line in lines:
        print(line)
    result = {
        "correct": tally.wrong_core == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
