"""The three workloads: seeded inputs, the operations, and their checks.

Each workload draws all of its inputs from its seed before any timing
starts and turns them into a fixed-size *pass*: a list of zero-argument
operations, each with a check that compares its result with a closed
form from :mod:`oracle`.  The operations call simqp only through names
that the acceptance suite and its conftest import from ``simqp``, plus
``simqp.cli.main``, and always look them up at call time so the tracer
can wrap them.

Inputs are split into *core* inputs, inside every documented
precondition, and *edge* inputs that probe known robustness limits
(extreme nu / sigma1 / hbar, far-tail outcome regions).  Every failure
counts in ``failed``; only a wrong result on a core input makes the
run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys

import numpy as np

import oracle
from harness import HarnessError, run_child

FAMILIES = ("x", "y2", "y0", "z")
POSTERIOR_FAMILIES = ("y0", "z")
JOINTS = ("meters", "q-pair", "p-pair")
DEFAULT_NU_GRID = [round(0.01 * k, 2) for k in range(1, 100)]

# symplectic form for the probe ordering (Q2, Q3, P2, P3)
OMEGA = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])


def _rng(workload_index: int, seed: int):
    return np.random.default_rng([workload_index, seed])


def _psi(rng):
    """Seeded packet (q1, p1, sigma1, hbar) in the documented core range."""
    sigma1 = 10.0 ** rng.uniform(-1.0, 1.0)
    hbar = 10.0 ** rng.uniform(-1.0, 1.0)
    sp = oracle.sigma_p(sigma1, hbar)
    return (
        float(rng.uniform(-2.0, 2.0) * sigma1),
        float(rng.uniform(-2.0, 2.0) * sp),
        float(sigma1),
        float(hbar),
    )


def _psi_flags(psi):
    q1, p1, sigma1, hbar = psi
    return [f"--q1={q1!r}", f"--p1={p1!r}", f"--sigma1={sigma1!r}", f"--hbar={hbar!r}"]


def _expm(m: np.ndarray) -> np.ndarray:
    """Batched e^M by scaling and squaring of a degree-18 Taylor polynomial."""
    norm = np.abs(m).sum(axis=-1).max(axis=-1)
    squarings = np.where(norm > 0.5, np.ceil(np.log2(np.maximum(norm, 0.5) / 0.5)), 0)
    squarings = squarings.astype(int)
    scaled = m / (2.0**squarings)[..., None, None]
    eye = np.eye(m.shape[-1])
    out = np.broadcast_to(eye, m.shape).copy()
    for k in range(18, 0, -1):
        out = eye + scaled @ out / k
    for i in range(int(squarings.max(initial=0))):
        out = np.where((squarings > i)[..., None, None], out @ out, out)
    return out


def serialize(inputs) -> bytes:
    """Canonical bytes of a workload's inputs (floats written exactly)."""
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()


def _failure(checks) -> str | None:
    """First failing check's name, or None when all hold."""
    for name, ok in checks:
        if not ok:
            return name
    return None


@contextlib.contextmanager
def _out_dir(path):
    """Point ``SIMQP_OUT_DIR`` at ``path`` for the duration of one CLI call."""
    old = os.environ.get("SIMQP_OUT_DIR")
    os.environ["SIMQP_OUT_DIR"] = str(path)
    try:
        yield
    finally:
        if old is None:
            del os.environ["SIMQP_OUT_DIR"]
        else:
            os.environ["SIMQP_OUT_DIR"] = old


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def parse_json(text: str):
    """Strict RFC 8259 JSON: NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def _parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


class Workload:
    """A fixed-size pass of operations plus the checks on their results."""

    name = ""
    #: rows each untimed (draw) operation samples and writes
    rows_per_draw = 0
    #: operation kinds warmed up before timing, so lazy set-up is not timed
    warm_kinds = ()

    def __init__(self, ctx, seed: int):
        self.ctx = ctx
        self.seed = seed
        self.inputs = self.make_inputs(seed)

    @staticmethod
    def make_inputs(seed: int):
        raise NotImplementedError

    @property
    def timed_ops(self) -> int:
        """Distinct operations whose latencies enter op_p50_s / op_tail_s."""
        return sum(self.is_timed(i) for i in range(len(self.inputs)))

    @property
    def schedule(self) -> list:
        """Input indices in the order one pass runs them; an input may recur."""
        return list(range(len(self.inputs)))

    def ops(self) -> list:
        """Zero-argument callables, one per operation of a pass."""
        return [self._op(item) for item in self.inputs]

    def _op(self, item):
        raise NotImplementedError

    def check(self, index: int, value) -> str | None:
        """Name of the failed check for operation ``index``, or None."""
        raise NotImplementedError

    def is_core(self, index: int) -> bool:
        return True

    def is_timed(self, index: int) -> bool:
        """Whether the operation's latency is an op_p50_s / op_tail_s sample."""
        return True

    def warm_up(self, ops):
        """Run the first operation of each kind in ``warm_kinds`` once, untimed."""
        seen = set()
        for item, op in zip(self.inputs, ops):
            if item["kind"] in self.warm_kinds and item["kind"] not in seen:
                seen.add(item["kind"])
                with contextlib.suppress(Exception):
                    op()

    def cleanup_pass(self):
        """Remove what one pass wrote."""

    def inprocess_ops(self) -> list:
        """The operations a traced run times in this process."""
        return self.ops()

    def bytes_written(self, outcomes) -> int:
        """Bytes the CLI wrote during one pass."""
        return sum(len(o.value["stdout"].encode()) for o in outcomes
                   if isinstance(o.value, dict))


# ---------------------------------------------------------------- cli-session


class CliSession(Workload):
    """One CLI invocation after another, each in a fresh interpreter."""

    name = "cli-session"

    @staticmethod
    def make_inputs(seed: int):
        rng = _rng(1, seed)
        items = []
        for fam in FAMILIES:
            psi = _psi(rng)
            items.append({"kind": "sweep", "family": fam, "psi": psi})
        for fam in FAMILIES + ("ak",):
            psi = _psi(rng)
            nu = float(rng.uniform(0.02, 0.98))
            items.append({"kind": "check", "family": fam, "nu": nu, "psi": psi})
        items.append({"kind": "frontier", "psi": _psi(rng)})
        for fam in POSTERIOR_FAMILIES:
            psi = _psi(rng)
            nu = float(rng.uniform(0.05, 0.95))
            y = [float(v) for v in rng.normal(size=2) * 2.0]
            items.append({"kind": "posterior-y", "family": fam, "nu": nu, "psi": psi, "y": y})
        for fam, open_end in zip(POSTERIOR_FAMILIES, (True, False)):
            psi = _psi(rng)
            nu = float(rng.uniform(0.05, 0.95))
            rect = _core_rect(rng, nu, psi, open_ends=False)
            if open_end:
                # "inf allowed" per the CLI help; the JSON echo of the region
                # then needs a non-finite number, which strict JSON lacks
                k = int(rng.integers(4))
                rect[k] = -math.inf if k % 2 == 0 else math.inf
            items.append({"kind": "posterior-region", "family": fam, "nu": nu, "psi": psi,
                          "rect": rect, "edge": open_end})
        for item in items:
            item["argv"] = _cli_argv(item)
        return items

    def ops(self):
        return [self._subprocess_op(i, item["argv"]) for i, item in enumerate(self.inputs)]

    def inprocess_ops(self):
        """The same argument lists replayed through ``simqp.cli.main``."""
        return [self._inprocess_op(item["argv"]) for item in self.inputs]

    def _subprocess_op(self, i, argv):
        ctx = self.ctx
        out_path = ctx.tmp / f"cli-{i}.out"
        err_path = ctx.tmp / f"cli-{i}.err"
        cmd = [sys.executable, "-m", "simqp.cli", *argv]

        def op():
            code, _, rss = run_child(cmd, ctx.env, out_path, err_path)
            return {"code": code, "stdout": out_path.read_text(encoding="utf-8"), "rss_mb": rss}

        return op

    def _inprocess_op(self, argv):
        cli = self.ctx.cli

        def op():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            return {"code": code, "stdout": out.getvalue()}

        return op

    def check(self, index, value):
        return check_cli_output(self.inputs[index], value["code"], value["stdout"])

    def is_core(self, index):
        return not self.inputs[index].get("edge")


def _cli_argv(item) -> list:
    kind = item["kind"]
    flags = _psi_flags(item["psi"])
    if kind == "sweep":
        return ["sweep", "--family", item["family"], *flags]
    if kind == "frontier":
        return ["frontier", *flags]
    base = [kind.split("-")[0], "--family", item["family"], f"--nu={item['nu']!r}", *flags]
    if kind == "posterior-y":
        return base + [f"--y={item['y'][0]!r},{item['y'][1]!r}"]
    if kind == "posterior-region":
        return base + ["--region=" + ",".join(repr(v) for v in item["rect"])]
    return base


def check_cli_output(item, code, stdout) -> str | None:
    """Exit code as documented, output parses, values match closed forms."""
    kind = item["kind"]
    q1, p1, sigma1, hbar = item["psi"]
    sp = oracle.sigma_p(sigma1, hbar)
    want_code = 1 if item.get("family") == "ak" else 0
    if code != want_code:
        return f"{kind} exit code {code} != {want_code}"
    try:
        if kind in ("sweep", "frontier"):
            header, rows = _parse_csv(stdout)
        else:
            payload = parse_json(stdout)
    except (ValueError, csv.Error):
        return f"{kind} output does not parse"
    if kind == "sweep":
        if header != ["nu", "eps_q", "eps_p", "bo_lhs", "bo_residual",
                      "heisenberg_product", "ozawa_residual"]:
            return "sweep header"
        if [r[0] for r in rows] != DEFAULT_NU_GRID:
            return "sweep nu grid"
        for nu, eq, ep, _, bo, _, _ in rows:
            want_q, want_p = oracle.family_errors(nu, sigma1, hbar)
            bad = _failure([
                ("sweep eps_q", oracle.close(eq**2, want_q, sigma1**2)),
                ("sweep eps_p", oracle.close(ep**2, want_p, sp**2)),
                ("sweep bo_residual", oracle.close(bo, 0.0, hbar**2 / 4.0)),
            ])
            if bad:
                return bad
        return None
    if kind == "frontier":
        if header != ["nu", "eps_q", "eps_p", "eps_p_heisenberg", "eps_p_quarter"]:
            return "frontier header"
        if [r[0] for r in rows] != DEFAULT_NU_GRID:
            return "frontier nu grid"
        for nu, eq, ep, eh, _ in rows:
            want_q = math.sqrt(1.0 - nu) * sigma1
            bad = _failure([
                ("frontier eps_q", oracle.close(eq, want_q, sigma1)),
                ("frontier eps_p", oracle.close(ep, math.sqrt(nu) * sp, sp)),
                ("frontier heisenberg", oracle.close(eh, hbar / 2.0 / want_q, hbar / 2.0 / want_q)),
            ])
            if bad:
                return bad
        return None
    if kind == "check":
        passes = payload["passes"]
        if item["family"] == "ak":
            return None if passes["iii"] is False else "ak condition iii should fail"
        return None if passes["all"] is True else "check conditions fail"
    nu = item["nu"]
    if kind == "posterior-y":
        mean, (var_q, var_p) = oracle.posterior_moments(nu, q1, p1, sigma1, hbar, item["y"])
        return _failure([
            ("posterior uncertainty product",
             oracle.close(payload["uncertainty_product"], (hbar / 2.0) ** 2, (hbar / 2.0) ** 2)),
            ("posterior mean q", oracle.close(payload["mean"][0], mean[0], abs(mean[0]) + math.sqrt(var_q))),
            ("posterior mean p", oracle.close(payload["mean"][1], mean[1], abs(mean[1]) + math.sqrt(var_p))),
        ])
    return _check_region(nu, item["psi"], item["rect"], payload["mean"],
                         (payload["cov"][0][0], payload["cov"][1][1]))


def _check_region(nu, psi, rect, mean, var) -> str | None:
    want_mean, want_var = oracle.region_moments(nu, *psi, rect)
    checks = []
    for k, axis in enumerate("qp"):
        scale = abs(want_mean[k]) + math.sqrt(want_var[k])
        checks.append((f"region mean {axis}",
                       oracle.close(mean[k], want_mean[k], scale, oracle.REGION_REL_TOL)))
        checks.append((f"region var {axis}",
                       oracle.close(var[k], want_var[k], want_var[k], oracle.REGION_REL_TOL)))
    return _failure(checks)


def _core_rect(rng, nu, psi, open_ends=True):
    """Rectangle within a few spreads of the meter means, ends sometimes open."""
    q1, p1, sigma1, hbar = psi
    rect = []
    for centre, sd in ((q1, math.sqrt(nu) * sigma1),
                       (p1, math.sqrt(1.0 - nu) * oracle.sigma_p(sigma1, hbar))):
        lo = centre + sd * rng.uniform(-3.0, 1.5)
        hi = lo + sd * rng.uniform(0.3, 3.0)
        if open_ends and rng.random() < 0.15:
            lo = -math.inf
        if open_ends and rng.random() < 0.15:
            hi = math.inf
        rect += [float(lo), float(hi)]
    return rect


def _tail_rect(rng, nu, psi):
    """One axis 6-9 spreads out on a random side, or a half-line past 9; other axis open."""
    q1, p1, sigma1, hbar = psi
    axis = int(rng.integers(2))
    centre, sd = ((q1, math.sqrt(nu) * sigma1),
                  (p1, math.sqrt(1.0 - nu) * oracle.sigma_p(sigma1, hbar)))[axis]
    if rng.random() < 0.2:
        lo, hi = 9.0, math.inf
    else:
        lo = float(rng.uniform(6.0, 9.0))
        hi = lo + 1.0
    if rng.random() < 0.5:
        lo, hi = -hi, -lo
    rect = [-math.inf, math.inf, -math.inf, math.inf]
    rect[2 * axis : 2 * axis + 2] = [centre + sd * lo, centre + sd * hi]
    return [float(v) for v in rect]


# ----------------------------------------------------------------- model-fuzz

# per pass: random solvable generator + random pure probe (acceptance
# criterion 10), named families at core parameters, and edge parameters
FUZZ_MODELS, FAMILY_MODELS, EDGE_MODELS = 1600, 360, 40


class ModelFuzz(Workload):
    """One model per operation, in-process."""

    name = "model-fuzz"
    warm_kinds = ("fuzz", "family", "edge")

    @staticmethod
    def make_inputs(seed: int):
        rng = _rng(2, seed)
        items = []
        # same distributions as the acceptance suite's random_solvable_generator
        # and random_pure_probe, drawn in bulk
        n = FUZZ_MODELS
        gamma2 = rng.uniform(-1.5, 1.5, n)
        e = rng.uniform(-2.0, 2.0, n)
        alpha1 = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
        alpha3 = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
        tau = rng.uniform(0.2, 2.0, n)
        h = rng.normal(scale=0.4, size=(n, 4, 4))
        h = 0.5 * (h + np.swapaxes(h, -1, -2))
        sp = _expm(OMEGA @ h)
        cov = 0.5 * sp @ np.swapaxes(sp, -1, -2)  # hbar = 1
        cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
        mean = rng.normal(scale=1.0, size=(n, 4))
        for k in range(n):
            items.append({
                "kind": "fuzz",
                "couplings": [float(alpha1[k]), float(alpha3[k]), float(gamma2[k]),
                              float(e[k]), float(tau[k])],
                "mean": mean[k].tolist(),
                "cov": cov[k].tolist(),
            })
        for _ in range(FAMILY_MODELS):
            items.append({
                "kind": "family",
                "family": FAMILIES[int(rng.integers(4))],
                "nu": float(rng.uniform(0.01, 0.99)),
                "psi": _psi(rng),
            })
        for _ in range(EDGE_MODELS):
            d = 10.0 ** rng.uniform(-12.0, math.log10(0.5))
            nu = float(d if rng.random() < 0.5 else 1.0 - d)
            sigma1 = 10.0 ** rng.uniform(-8.0, 8.0)
            hbar = 10.0 ** rng.uniform(-3.0, 3.0)
            sp1 = oracle.sigma_p(sigma1, hbar)
            psi = (float(rng.uniform(-2.0, 2.0) * sigma1), float(rng.uniform(-2.0, 2.0) * sp1),
                   float(sigma1), float(hbar))
            items.append({"kind": "edge", "family": FAMILIES[int(rng.integers(4))],
                          "nu": nu, "psi": psi})
        order = rng.permutation(len(items))
        return [items[k] for k in order]

    def _op(self, item):
        sq = self.ctx.sq
        if item["kind"] == "fuzz":
            a1, a3, g2, e, tau = item["couplings"]
            mean = np.array(item["mean"])
            cov = np.array(item["cov"])

            def fuzz_op():
                psi = sq.MinUncertaintyParams()
                gen = sq.SolvableGenerator.from_couplings(a1, a3, g2, e, tau)
                probe = sq.GaussianState(modes=(2, 3), mean=mean, cov=cov, hbar=psi.hbar)
                errs = sq.qrms_errors(sq.measurement_from_parts(gen, probe), psi)
                return (sq.branciard_ozawa_residual(errs, psi),
                        sq.ozawa_inequality_residual(errs, psi))

            return fuzz_op
        family, nu, (q1, p1, sigma1, hbar) = item["family"], item["nu"], item["psi"]

        def family_op():
            psi = sq.MinUncertaintyParams(q1=q1, p1=p1, sigma1=sigma1, hbar=hbar)
            model = sq.build_model(sq.ModelFamily(family), nu, psi)
            errs = sq.qrms_errors(model, psi)
            report = sq.check_theorem_conditions(model, psi)
            return errs.eps_q, errs.eps_p, report.bo_residual, report.all_pass

        return family_op

    def check(self, index, value):
        item = self.inputs[index]
        if item["kind"] == "fuzz":
            bo, oz = value
            # hbar = 1: natural scales hbar^2/4 and hbar/2
            return _failure([("fuzz BO residual < 0", bo >= -oracle.REL_TOL * 0.25),
                             ("fuzz Ozawa residual < 0", oz >= -oracle.REL_TOL * 0.5)])
        eps_q, eps_p, bo, all_pass = value
        _, _, sigma1, hbar = item["psi"]
        want_q, want_p = oracle.family_errors(item["nu"], sigma1, hbar)
        return _failure([
            ("family eps_q", oracle.close(eps_q**2, want_q, sigma1**2)),
            ("family eps_p", oracle.close(eps_p**2, want_p, oracle.sigma_p(sigma1, hbar) ** 2)),
            ("family BO residual", oracle.close(bo, 0.0, hbar**2 / 4.0)),
            ("family conditions", all_pass is True),
        ])

    def is_core(self, index):
        return self.inputs[index]["kind"] != "edge"



# -------------------------------------------------------------- outcome-stats

# rows per draw: enough that CSV formatting is the largest share of a pass,
# few enough that a run fits about ten passes, so each draw and query is
# repeated often enough to find its undisturbed time on a host whose speed
# drifts (at 10^6 rows a pass takes about 26 s, so a 45 s run fits one)
SAMPLE_N = 200_000
# queries in seeded order; a pass runs all of them QUERY_ROUNDS times after
# each of the three draws
POSTERIOR_QUERIES, CONDITIONAL_QUERIES, CONSISTENCY_QUERIES = 50, 275, 140
CORE_REGIONS, FULL_PLANE_REGIONS, TAIL_REGIONS = 75, 8, 5
QUERY_ROUNDS = 1
SPOT_ROWS = 5


class OutcomeStats(Workload):
    """Three ``sample`` runs through ``cli.main``, each followed by many small queries."""

    name = "outcome-stats"
    rows_per_draw = SAMPLE_N
    warm_kinds = ("posterior", "conditional", "consistency", "region")

    @staticmethod
    def make_inputs(seed: int):
        rng = _rng(3, seed)
        draws = []
        for which in JOINTS:
            psi = _psi(rng)
            family = FAMILIES[int(rng.integers(4))]
            nu = float(rng.uniform(0.05, 0.95))
            sample_seed = int(rng.integers(2**31))
            spots = sorted({0, SAMPLE_N - 1, *(int(v) for v in rng.integers(SAMPLE_N, size=SPOT_ROWS - 2))})
            argv = ["sample", "--family", family, f"--nu={nu!r}", "--which", which,
                    "--n", str(SAMPLE_N), "--seed", str(sample_seed),
                    "--out", f"draws-{which}.csv", *_psi_flags(psi)]
            draws.append({"kind": "draw", "which": which, "family": family, "nu": nu,
                          "psi": psi, "seed": sample_seed, "spots": spots, "argv": argv})
        queries = []
        for _ in range(POSTERIOR_QUERIES):
            psi = _psi(rng)
            nu = float(rng.uniform(0.05, 0.95))
            spread = (psi[2], oracle.sigma_p(psi[2], psi[3]))
            y = [float(psi[k] + 3.0 * spread[k] * rng.normal()) for k in range(2)]
            queries.append({"kind": "posterior", "nu": nu, "psi": psi, "y": y})
        for _ in range(CONDITIONAL_QUERIES):
            psi = _psi(rng)
            nu = float(rng.uniform(0.05, 0.95))
            which = JOINTS[int(rng.integers(3))]
            (_, m1), ((_, _), (_, v11)) = oracle.joint_moments(which, nu, *psi)
            value = float(m1 + math.sqrt(v11) * rng.normal())
            queries.append({"kind": "conditional", "family": FAMILIES[int(rng.integers(4))],
                            "which": which, "nu": nu, "psi": psi, "value": value})
        for _ in range(CONSISTENCY_QUERIES):
            queries.append({"kind": "consistency",
                            "family": POSTERIOR_FAMILIES[int(rng.integers(2))],
                            "nu": DEFAULT_NU_GRID[int(rng.integers(len(DEFAULT_NU_GRID)))],
                            "psi": _psi(rng)})
        for count, region_class in ((CORE_REGIONS, "core"), (FULL_PLANE_REGIONS, "full"),
                                    (TAIL_REGIONS, "tail")):
            for _ in range(count):
                psi = _psi(rng)
                nu = float(rng.uniform(0.05, 0.95))
                if region_class == "core":
                    rect = _core_rect(rng, nu, psi)
                elif region_class == "full":
                    rect = [-math.inf, math.inf, -math.inf, math.inf]
                else:
                    rect = _tail_rect(rng, nu, psi)
                queries.append({"kind": "region", "class": region_class,
                                "family": POSTERIOR_FAMILIES[int(rng.integers(2))],
                                "nu": nu, "psi": psi, "rect": rect})
        order = rng.permutation(len(queries))
        return draws + [queries[k] for k in order]

    def _op(self, item):
        sq, cli, ctx = self.ctx.sq, self.ctx.cli, self.ctx
        kind = item["kind"]
        if kind == "draw":
            argv = item["argv"]

            def draw_op():
                out = io.StringIO()
                with _out_dir(ctx.tmp), contextlib.redirect_stdout(out):
                    code = cli.main(list(argv))
                return {"code": code, "stdout": out.getvalue()}

            return draw_op
        q1, p1, sigma1, hbar = item["psi"]
        nu = item["nu"]
        if kind == "posterior":
            y = tuple(item["y"])

            def posterior_op():
                psi = sq.MinUncertaintyParams(q1=q1, p1=p1, sigma1=sigma1, hbar=hbar)
                state = sq.posterior_state(sq.PosteriorFamily(nu=nu, psi=psi), y)
                return state.mean.tolist(), state.cov.tolist()

            return posterior_op
        if kind == "conditional":
            family, which, value = item["family"], item["which"], item["value"]
            joint_fn = {"meters": "meter_joint", "q-pair": "q_pair_joint",
                       "p-pair": "p_pair_joint"}[which]

            def conditional_op():
                psi = sq.MinUncertaintyParams(q1=q1, p1=p1, sigma1=sigma1, hbar=hbar)
                model = sq.build_model(sq.ModelFamily(family), nu, psi)
                joint = getattr(sq, joint_fn)(model, psi)
                cond = sq.conditional(joint, given=(1,), values=(value,))
                return float(cond.mean[0]), float(cond.cov[0, 0])

            return conditional_op
        family = item["family"]
        if kind == "consistency":

            def consistency_op():
                psi = sq.MinUncertaintyParams(q1=q1, p1=p1, sigma1=sigma1, hbar=hbar)
                rep = sq.posterior_consistency(sq.ModelFamily(family), nu, psi)
                return rep.n_outcomes, rep.max_mean_deviation, rep.max_var_deviation

            return consistency_op
        rect = tuple(item["rect"])

        def region_op():
            psi = sq.MinUncertaintyParams(q1=q1, p1=p1, sigma1=sigma1, hbar=hbar)
            mean, cov = sq.region_mixture_moments(
                sq.ModelFamily(family), nu, psi, sq.OutcomeRegion(*rect))
            return [float(mean[0]), float(mean[1])], [float(cov[0, 0]), float(cov[1, 1])]

        return region_op

    @property
    def schedule(self):
        # every query recurs QUERY_ROUNDS times after each draw, rotated to a
        # different place in the order each round, so its fastest repetition
        # is taken over moments spread through the pass, not always just
        # after a draw
        queries = list(range(len(JOINTS), len(self.inputs)))
        rounds = len(JOINTS) * QUERY_ROUNDS
        step = len(queries) // rounds
        out = []
        for d in range(len(JOINTS)):
            out.append(d)
            for r in range(d * QUERY_ROUNDS, (d + 1) * QUERY_ROUNDS):
                out += queries[r * step:] + queries[: r * step]
        return out

    def is_core(self, index):
        return self.inputs[index].get("class") != "tail"

    def is_timed(self, index):
        return self.inputs[index]["kind"] != "draw"


    def check(self, index, value):
        item = self.inputs[index]
        kind = item["kind"]
        q1, p1, sigma1, hbar = item["psi"]
        nu = item["nu"]
        if kind == "draw":
            return self._check_draw(item, value)
        if kind == "posterior":
            (mq, mp), cov = value
            mean, (var_q, var_p) = oracle.posterior_moments(nu, q1, p1, sigma1, hbar, item["y"])
            target = (hbar / 2.0) ** 2
            return _failure([
                ("posterior uncertainty product", oracle.close(cov[0][0] * cov[1][1], target, target)),
                ("posterior var q", oracle.close(cov[0][0], var_q, var_q)),
                ("posterior mean q", oracle.close(mq, mean[0], abs(mean[0]) + math.sqrt(var_q))),
                ("posterior mean p", oracle.close(mp, mean[1], abs(mean[1]) + math.sqrt(var_p))),
            ])
        if kind == "conditional":
            m, v = value
            want_m, want_v = oracle.conditional_moments(
                item["which"], nu, q1, p1, sigma1, hbar, item["value"])
            (_, _), ((v00, _), (_, _)) = oracle.joint_moments(item["which"], nu, q1, p1, sigma1, hbar)
            return _failure([
                ("conditional mean", oracle.close(m, want_m, abs(item["value"]) + abs(want_m) + math.sqrt(v00))),
                ("conditional var", oracle.close(v, want_v, v00)),
            ])
        if kind == "consistency":
            n_out, mean_dev, var_dev = value
            sp = oracle.sigma_p(sigma1, hbar)
            edge = min(nu, 1.0 - nu)
            mean_scale = (abs(q1) + abs(p1) + 2.0 * (sigma1 + sp)) / edge
            var_scale = (sigma1**2 + sp**2) / edge
            return _failure([
                ("consistency outcome count", n_out == 9),
                ("consistency mean deviation", mean_dev <= oracle.REL_TOL * mean_scale),
                ("consistency var deviation", var_dev <= oracle.REL_TOL * var_scale),
            ])
        mean, var = value
        return _check_region(nu, item["psi"], item["rect"], mean, var)

    def _check_draw(self, item, value) -> str | None:
        """Row count, header, spot rows against ``sample()``, mean z-scores."""
        sq = self.ctx.sq
        if value["code"] != 0:
            return f"sample exit code {value['code']}"
        try:
            summary = parse_json(value["stdout"])
        except ValueError:
            return "sample summary does not parse"
        labels = list(oracle.JOINT_LABELS[item["which"]])
        if summary.get("n") != SAMPLE_N or summary.get("labels") != labels:
            return "sample summary n or labels"
        path = self.ctx.tmp / f"draws-{item['which']}.csv"
        spots = {}
        rows = 0
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            wanted = set(item["spots"])
            for k, line in enumerate(fh):
                if k in wanted:
                    spots[k] = [float(v) for v in line.split(",")]
                rows += 1
        if header != ",".join(labels):
            return "sample CSV header"
        if rows != SAMPLE_N:
            return f"sample CSV has {rows} rows"
        q1, p1, sigma1, hbar = item["psi"]
        psi = sq.MinUncertaintyParams(q1=q1, p1=p1, sigma1=sigma1, hbar=hbar)
        model = sq.build_model(sq.ModelFamily(item["family"]), item["nu"], psi)
        joint_fn = {"meters": sq.meter_joint, "q-pair": sq.q_pair_joint,
                   "p-pair": sq.p_pair_joint}[item["which"]]
        draws = sq.sample(joint_fn(model, psi), SAMPLE_N, item["seed"])
        for k, row in spots.items():
            if row != draws[k].tolist():
                return "sample CSV row does not round-trip"
        mean, cov = oracle.joint_moments(item["which"], item["nu"], q1, p1, sigma1, hbar)
        for j in range(2):
            se = math.sqrt(cov[j][j] / SAMPLE_N)
            if not abs(float(draws[:, j].mean()) - mean[j]) < oracle.Z_LIMIT * se:
                return "sample mean z-score beyond 4 SE"
        return None

    def cleanup_pass(self):
        for which in JOINTS:
            with contextlib.suppress(FileNotFoundError):
                (self.ctx.tmp / f"draws-{which}.csv").unlink()

    def bytes_written(self, outcomes) -> int:
        total = super().bytes_written(outcomes)
        for which in JOINTS:
            path = self.ctx.tmp / f"draws-{which}.csv"
            if path.exists():
                total += path.stat().st_size
        return total


WORKLOADS = {cls.name: cls for cls in (CliSession, ModelFuzz, OutcomeStats)}


def setup_argv(workload: str) -> list:
    """A fresh interpreter that imports simqp and makes one warm-up call."""
    if workload == CliSession.name:
        return ["-m", "simqp.cli", "check", "--family", "y0", "--nu", "0.5"]
    if workload == ModelFuzz.name:
        code = ("import simqp as sq; psi = sq.MinUncertaintyParams(); "
                "sq.qrms_errors(sq.build_model(sq.ModelFamily.Y0, 0.5, psi), psi)")
    else:
        code = ("import simqp as sq, simqp.cli; "
                "simqp.cli.main(['sample', '--n', '1000']); psi = sq.MinUncertaintyParams(); "
                "sq.region_mixture_moments(sq.ModelFamily.Z, 0.5, psi, sq.OutcomeRegion(-1.0, 1.0, -1.0, 1.0))")
    return ["-c", code]


def measure_setup(ctx, workload: str, repeats: int) -> list:
    """Seconds from spawning a fresh interpreter to its exit, ``repeats`` times."""
    argv = [sys.executable, *setup_argv(workload)]
    times = []
    for _ in range(repeats):
        code, seconds, _ = run_child(argv, ctx.env)
        if code != 0:
            raise HarnessError(f"set-up process exited with {code}: {argv}")
        times.append(seconds)
    return times


def import_times(ctx) -> dict:
    """``-X importtime`` of ``import simqp``: total, numpy and scipy seconds."""
    err = ctx.tmp / "importtime.err"
    code, _, _ = run_child([sys.executable, "-X", "importtime", "-c", "import simqp"],
                           ctx.env, stderr_path=err)
    if code != 0:
        raise HarnessError("import simqp failed under -X importtime")
    out = {"total": 0.0, "numpy": 0.0, "scipy": 0.0}
    for line in err.read_text(encoding="utf-8").splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # the column header line
        module = parts[2].strip()
        if module == "simqp":
            out["total"] = cum_us * 1e-6
        top = module.split(".")[0]
        if top in ("numpy", "scipy"):
            out[top] += self_us * 1e-6
    os.remove(err)
    return out
