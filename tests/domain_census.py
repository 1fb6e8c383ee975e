"""Census of the physical domain: how simqp answers seeded family inputs.

Draws ``(family, nu, sigma1, hbar, q1, p1)`` over the representable
physical domain, runs ``build_model`` + ``qrms_errors`` +
``check_theorem_conditions`` on each, and compares the answer with the
closed forms ``eps_q = sqrt(1 - nu) sigma1``,
``eps_p = sqrt(nu) hbar / (2 sigma1)`` and a Branciard-Ozawa residual of 0:

- nu: a third log-uniform in [1e-300, 0.5], a third 1 - log-uniform in
  [1e-16, 0.5], a third uniform in (0.01, 0.99);
- sigma1 and hbar: log-uniform in [1e-150, 1e150];
- q1 and p1: 0 half the time, else +- log-uniform in [1e-150, 1e150].

Each input is one of: refused (a ``ValueError``), grouped by its message
with every number replaced by ``#``; an exit-1 verdict (a condition fails,
as ``simqp check`` would exit 1); answered but off (every condition
passes, but an error is more than 1e-12 relative off its closed form, or
the residual more than 1e-12 times (hbar/2)^2 off 0); or answered and
right.  For the refused it also counts those whose
exact errors are both normal floats, so an answer was representable.  It
reports and never fails.  Standard library, numpy and simqp only:

    python tests/domain_census.py [--seed N] [--n N]
"""

from __future__ import annotations

import argparse
import collections
import math
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from simqp import (  # noqa: E402  (the checkout's simqp, not an installed one)
    MinUncertaintyParams,
    ModelFamily,
    build_model,
    check_theorem_conditions,
    qrms_errors,
)

FAMILIES = (ModelFamily.X, ModelFamily.Y2, ModelFamily.Y0, ModelFamily.Z)
RELATIVE = 1e-12
# a number in a message, but not the digits of a name such as sigma1 or Var(Q2)
NUMBER = re.compile(r"(?<![\w.^])[-+]?(\d+\.?\d*(e[-+]?\d+)?|nan|inf)\b")
# log10 of the smallest normal and of the largest float64
NORMAL = (math.log10(sys.float_info.min), math.log10(sys.float_info.max))


def draw(rng: np.random.Generator, n: int) -> list:
    """``n`` inputs ``(family, nu, sigma1, hbar, q1, p1)`` of the census domain."""

    def magnitude(low, high):
        return float(10.0 ** rng.uniform(low, high))

    def mean():
        return 0.0 if rng.random() < 0.5 else float(rng.choice([-1.0, 1.0])) * magnitude(-150, 150)

    inputs = []
    for k in range(n):
        third = k % 3
        if third == 0:
            nu = magnitude(-300, math.log10(0.5))
        elif third == 1:
            nu = 1.0 - magnitude(-16, math.log10(0.5))
        else:
            nu = float(rng.uniform(0.01, 0.99))
        family = FAMILIES[int(rng.integers(len(FAMILIES)))]
        inputs.append((family, nu, magnitude(-150, 150), magnitude(-150, 150), mean(), mean()))
    return inputs


def representable(nu: float, sigma1: float, hbar: float) -> bool:
    """Whether both exact errors are normal floats, decided on logarithms."""
    log_q = 0.5 * math.log10(1.0 - nu) + math.log10(sigma1)
    log_p = 0.5 * math.log10(nu) + math.log10(hbar) - math.log10(2.0 * sigma1)
    return all(NORMAL[0] < v < NORMAL[1] for v in (log_q, log_p))


def classify(family, nu, sigma1, hbar, q1, p1) -> str:
    """``right``, ``off``, ``exit 1`` or ``refused: <message>`` for one input."""
    psi = MinUncertaintyParams(q1=q1, p1=p1, sigma1=sigma1, hbar=hbar)
    try:
        model = build_model(family, nu, psi)
        errs = qrms_errors(model, psi)
        report = check_theorem_conditions(model, psi)
    except ValueError as exc:
        return "refused: " + NUMBER.sub("#", str(exc))
    eps_q = math.sqrt(1.0 - nu) * sigma1
    eps_p = math.sqrt(nu) * (hbar / (2.0 * sigma1))
    target = (hbar / 2.0) * (hbar / 2.0)
    right = (
        math.isclose(errs.eps_q, eps_q, rel_tol=RELATIVE, abs_tol=0.0)
        and math.isclose(errs.eps_p, eps_p, rel_tol=RELATIVE, abs_tol=0.0)
        and abs(report.bo_residual) <= RELATIVE * target
    )
    if not report.all_pass:
        return "exit 1"
    return "right" if right else "off"


def census(seed: int, n: int) -> tuple:
    """Counts by class, and by class the refused inputs with a representable answer."""
    counts, answerable = collections.Counter(), collections.Counter()
    for family, nu, sigma1, hbar, q1, p1 in draw(np.random.default_rng(seed), n):
        kind = classify(family, nu, sigma1, hbar, q1, p1)
        counts[kind] += 1
        if kind.startswith("refused") and representable(nu, sigma1, hbar):
            answerable[kind] += 1
    return counts, answerable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--n", type=int, default=4000)
    args = parser.parse_args(argv)
    counts, answerable = census(args.seed, args.n)
    print(f"domain census: seed {args.seed}, {args.n} inputs")
    print(f"{'count':>7} {'share':>7} {'repr.':>6}  class")
    order = ("right", "off", "exit 1")
    rows = [k for k in order if k in counts]
    rows += sorted((k for k in counts if k not in order), key=lambda k: -counts[k])
    for kind in rows:
        share = counts[kind] / args.n
        extra = f"{answerable[kind]:>6}" if kind.startswith("refused") else f"{'':>6}"
        print(f"{counts[kind]:>7} {share:>7.1%} {extra}  {kind}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
