"""Timing, percentile and failure-accounting helpers shared by the workloads.

Nothing here knows about simqp: an operation is a zero-argument callable,
and a failure is either an exception it raised or a reason returned by
the workload's check of its result.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import time
from dataclasses import dataclass, field

# a tail percentile needs at least this many samples beyond it
MIN_BEYOND = 10

# candidate tail levels, highest first, as exact fractions (num, den)
TAIL_LADDER = ((9999, 10000), (999, 1000), (99, 100), (9, 10))


class HarnessError(RuntimeError):
    """The benchmark itself cannot run; no result may be printed."""


class RunTimeout(BaseException):
    """The run overstayed its time; not an Exception, so no operation can swallow it."""


def nearest_rank(n: int, num: int, den: int) -> int:
    """1-based nearest rank of the num/den quantile among n samples."""
    return max(1, -(-n * num // den))


def tail_level(n: int):
    """Highest ladder quantile with at least MIN_BEYOND of n samples above it.

    Returns ``(num, den)`` or ``None`` when even the lowest rung leaves
    fewer than MIN_BEYOND samples beyond it; the caller then reports the
    median only.
    """
    for num, den in TAIL_LADDER:
        if n - nearest_rank(n, num, den) >= MIN_BEYOND:
            return num, den
    return None


def level_name(level) -> str:
    if level is None:
        return "p50"
    num, den = level
    return f"p{100.0 * num / den:g}"


@dataclass
class LatencySummary:
    """Median and tail of one run's operation latencies."""

    n: int
    p50: float
    tail: float
    tail_level: str
    beyond: int


def summarize_latencies(samples, level) -> LatencySummary:
    """Median and the ``level`` quantile (nearest rank) of ``samples``.

    ``level`` is fixed per workload from its pass size, so it does not
    drift with the number of passes a run happens to fit.  With no level
    the tail is reported as the median.
    """
    if not samples:
        raise HarnessError("no successful operation to time")
    ordered = sorted(samples)
    n = len(ordered)
    p50 = statistics.median(ordered)
    if level is None:
        return LatencySummary(n, p50, p50, "p50", n // 2)
    rank = nearest_rank(n, *level)
    return LatencySummary(n, p50, ordered[rank - 1], level_name(level), n - rank)


@dataclass
class OpOutcome:
    """One attempted operation: latency, result or exception, and verdict."""

    index: int
    latency: float
    value: object = None
    error: BaseException | None = None
    failure: str | None = None  # set by the check; None means correct


def run_ops(ops, on_op=None) -> tuple:
    """Run each zero-argument callable once, in order, timing each.

    An exception is recorded against its operation and never retried:
    the loop moves straight on to the next operation.  ``on_op(i, fn)``,
    when given, is called instead of ``fn()`` so a tracer can open a span
    around it.  Returns ``(outcomes, wall_seconds)``.
    """
    outcomes = []
    clock = time.perf_counter
    start = clock()
    for i, fn in enumerate(ops):
        t0 = clock()
        try:
            value = on_op(i, fn) if on_op is not None else fn()
            error = None
        except Exception as exc:  # an operation's failure is data, not a harness error
            value, error = None, exc
        outcomes.append(OpOutcome(i, clock() - t0, value, error))
    return outcomes, clock() - start


def describe_exception(exc: BaseException) -> str:
    """Short, input-independent label grouping failures by defect."""
    text = re.sub(r"\([^)]*\)", "", str(exc)).split(":")[0]
    words = [w for w in text.split() if not ("=" in w and w not in ("=", "!=")) and not _is_number(w.strip(",;"))]
    return f"{type(exc).__name__}: {' '.join(words[:6])}"


def _is_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


@dataclass
class Tally:
    """Attempted and failed inputs, and failures grouped by cause.

    A run repeats the same inputs for as many passes as fit in its time,
    so the tally counts each distinct input (``OpOutcome.index``) once:
    it is attempted once, and failed if any of its repetitions raised or
    returned a wrong result, under the first cause seen.  ``attempted``
    and ``failed`` are therefore fixed by the seed, not by how many
    passes the host's speed allowed.
    """

    verdicts: dict = field(default_factory=dict)  # index -> (cause or None, core)

    def add(self, outcome: OpOutcome, core: bool):
        if self.verdicts.get(outcome.index, (None, core))[0] is not None:
            return
        if outcome.error is not None:
            cause = describe_exception(outcome.error)
        elif outcome.failure is not None:
            cause = f"wrong result: {outcome.failure}"
        else:
            cause = None
        self.verdicts[outcome.index] = (cause, core)

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> int:
        return sum(cause is not None for cause, _ in self.verdicts.values())

    @property
    def wrong_core(self) -> int:
        """Core inputs with a wrong result (not an exception): the run is incorrect."""
        return sum(core and cause is not None and cause.startswith("wrong result:")
                   for cause, core in self.verdicts.values())

    @property
    def causes(self) -> dict:
        out = {}
        for cause, _ in self.verdicts.values():
            if cause is not None:
                out[cause] = out.get(cause, 0) + 1
        return out

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_timed_passes(run_pass, seconds: float, after) -> None:
    """Repeat a fixed-size pass while another whole pass fits in ``seconds``.

    Only time inside ``run_pass`` counts against ``seconds``; ``after``
    receives each pass's result (to check it) outside that budget.  At
    least one pass always runs.
    """
    used = 0.0
    while True:
        t0 = time.perf_counter()
        result = run_pass()
        last = time.perf_counter() - t0
        used += last
        after(result)
        if used + last > seconds:
            return


def run_child(argv, env, stdout_path=None, stderr_path=None) -> tuple:
    """Run one child process to completion; return (exit code, seconds, peak RSS MB).

    The child is reaped with ``wait4`` so its own peak resident set is
    read, not a maximum over every child this process ever had.
    """
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        for fh in (out, err):
            if fh is not subprocess.DEVNULL:
                fh.close()
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0
