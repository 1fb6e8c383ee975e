"""Batch front-end: model sweeps, condition checks, and sampling runs.

Subcommands::

    simqp sweep     error trade-off columns over a nu grid
    simqp check     achievability-condition report at a single nu
    simqp frontier  the bound curve and reference hyperbolas
    simqp sample    Monte Carlo draws from a named joint + summary
    simqp posterior posterior-state or region-mixture moments

Every command is deterministic given its flags and seed.  Exit codes:
0 success / all checks pass, 1 a check failed, 2 usage or validation
error.  The only environment variable honored is ``SIMQP_OUT_DIR``,
which re-bases relative ``--out`` paths.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .measurement import (
    FAMILY_PARAMETERS,
    ModelFamily,
    arthurs_kelly_model,
    branciard_ozawa_residual,
    build_model,
    check_theorem_conditions,
    heisenberg_product,
    ozawa_inequality_residual,
    qrms_errors,
)
from .distributions import (
    OutcomeRegion,
    PosteriorFamily,
    check_posterior_family,
    gauss_error,
    meter_joint,
    p_pair_joint,
    posterior_state,
    q_pair_joint,
    region_mixture_moments,
    sample,
)
from .phase_space import GaussianState, MinUncertaintyParams

# sweep passes when every bound residual stays below this
SWEEP_RESIDUAL_TOL = 1e-8

DEFAULT_NU_GRID = [round(0.01 * k, 2) for k in range(1, 100)]

# rows formatted and written per call in _write_csv
_CSV_BLOCK_ROWS = 8192

# the spreads each command squares on its way: a value whose square
# overflows float64 is refused up front, naming its flag
_SQUARED_INPUTS = {
    "sweep": ("sigma1", "hbar", "sigma_p"),
    "check": ("sigma1", "hbar", "sigma_p"),
    "sample": ("sigma1", "sigma_p"),
    "posterior": ("sigma1", "hbar"),
}

JOINT_BUILDERS = {
    "meters": meter_joint,
    "q-pair": q_pair_joint,
    "p-pair": p_pair_joint,
}


@dataclass
class RunConfig:
    """Resolved run parameters shared by all subcommands."""

    hbar: float = 1.0
    sigma1: float = 1.0
    q1: float = 0.0
    p1: float = 0.0
    family: ModelFamily = ModelFamily.Y0
    nu_grid: list = field(default_factory=lambda: list(DEFAULT_NU_GRID))
    seed: int = 0
    output_format: str = "csv"
    output_path: str | None = None

    @property
    def psi(self) -> MinUncertaintyParams:
        return MinUncertaintyParams(
            q1=self.q1, p1=self.p1, sigma1=self.sigma1, hbar=self.hbar
        )

    def validate(self, squared=()):
        """Check the parameters; ``squared`` names the spreads whose squares
        must stay finite (see ``_SQUARED_INPUTS``)."""
        for name in ("hbar", "sigma1", "q1", "p1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.nu_grid:
            raise ValueError("nu grid is empty")
        for nu in self.nu_grid:
            if not 0.0 < nu < 1.0:
                raise ValueError(f"nu values must lie strictly in (0, 1), got {nu}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ValueError(f"output path must be a string, got {self.output_path!r}")
        psi = self.psi
        for name in squared:
            value = getattr(psi, name)
            if math.isinf(value * value):
                source = (
                    f"hbar/(2 sigma1) from --hbar {psi.hbar:g} and --sigma1 {psi.sigma1:g}"
                    if name == "sigma_p"
                    else f"--{name}"
                )
                raise ValueError(
                    f"{name} = {value:g} ({source}) is too large: "
                    f"its square overflows float64"
                )


def _json(payload) -> str:
    """Strict JSON (RFC 8259): a NaN or infinity raises ValueError."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _write_table(cfg: RunConfig, header: list, rows: list):
    """Emit a table as CSV or JSON to the output path (or stdout)."""
    if cfg.output_format == "json":
        _write_text(cfg.output_path, _json([dict(zip(header, row)) for row in rows]))
    else:
        _write_csv(cfg.output_path, header, rows)


@contextlib.contextmanager
def _output(path: str | None):
    """The text stream for ``path``: stdout, or a file under ``SIMQP_OUT_DIR``."""
    if path is None:
        yield sys.stdout
        return
    base = os.environ.get("SIMQP_OUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    with open(path, "w", encoding="utf-8") as fh:
        yield fh


def _write_text(path: str | None, text: str):
    with _output(path) as fh:
        fh.write(text)


def _write_csv(path: str | None, header: list, rows):
    """CSV with a header line; ``%.17g`` reads back to the same float.

    A non-finite value raises ValueError before the output is opened.
    """
    table = np.asarray(rows, dtype=float)
    bad = ~np.isfinite(table)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ValueError(
            f"column {header[col]!r} holds the non-finite value {table[row, col]} "
            f"(row {row + 1}); CSV output must be finite"
        )
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with _output(path) as fh:
        fh.write(",".join(header) + "\n")
        # one string per block keeps memory bounded whatever the row count
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start : start + _CSV_BLOCK_ROWS]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _balanced_probe(hbar: float) -> GaussianState:
    """Zero-mean probe with every quadrature variance hbar/2 (vacuum-like)."""
    return GaussianState(
        modes=(2, 3), mean=np.zeros(4), cov=np.eye(4) * (hbar / 2.0), hbar=hbar
    )


def _model_for(cfg: RunConfig, nu: float):
    if cfg.family is ModelFamily.ARTHURS_KELLY:
        return arthurs_kelly_model(_balanced_probe(cfg.hbar))
    return build_model(cfg.family, nu, cfg.psi)


def cmd_sweep(cfg: RunConfig) -> int:
    """Error and residual columns per grid point; 0 iff the bound holds tight."""
    psi = cfg.psi
    header = [
        "nu",
        "eps_q",
        "eps_p",
        "bo_lhs",
        "bo_residual",
        "heisenberg_product",
        "ozawa_residual",
    ]
    rows = []
    worst = -math.inf
    for nu in cfg.nu_grid:
        errs = qrms_errors(_model_for(cfg, nu), psi)
        bo_res = branciard_ozawa_residual(errs, psi)
        rows.append(
            [
                nu,
                errs.eps_q,
                errs.eps_p,
                bo_res + psi.hbar**2 / 4.0,
                bo_res,
                heisenberg_product(errs),
                ozawa_inequality_residual(errs, psi),
            ]
        )
        worst = max(worst, bo_res)
    _write_table(cfg, header, rows)
    return 0 if worst <= SWEEP_RESIDUAL_TOL else 1


def cmd_check(cfg: RunConfig) -> int:
    """Achievability-condition report at the single configured nu."""
    if len(cfg.nu_grid) != 1:
        raise ValueError("check needs exactly one nu (use --nu)")
    nu = cfg.nu_grid[0]
    report = check_theorem_conditions(_model_for(cfg, nu), cfg.psi)
    payload = {"family": cfg.family.value, "nu": nu, **report.as_dict()}
    _write_text(cfg.output_path, _json(payload))
    return 0 if report.all_pass else 1


def cmd_frontier(cfg: RunConfig) -> int:
    """The bound curve in error coordinates plus both reference hyperbolas."""
    psi = cfg.psi
    header = ["nu", "eps_q", "eps_p", "eps_p_heisenberg", "eps_p_quarter"]
    rows = []
    for nu in cfg.nu_grid:
        eps_q = math.sqrt(1.0 - nu) * psi.sigma_q
        eps_p = math.sqrt(nu) * psi.sigma_p
        rows.append(
            [nu, eps_q, eps_p, (psi.hbar / 2.0) / eps_q, (psi.hbar / 4.0) / eps_q]
        )
    _write_table(cfg, header, rows)
    return 0


def cmd_sample(cfg: RunConfig, which: str, n: int) -> int:
    """Draw from one of the named joints; samples to --out, summary to stdout."""
    if which not in JOINT_BUILDERS:
        raise ValueError(
            f"unknown joint {which!r} (expected one of {sorted(JOINT_BUILDERS)})"
        )
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if len(cfg.nu_grid) != 1:
        raise ValueError("sample needs exactly one nu (use --nu)")
    nu = cfg.nu_grid[0]
    model = _model_for(cfg, nu)
    joint = JOINT_BUILDERS[which](model, cfg.psi)
    draws = sample(joint, n, cfg.seed)

    if cfg.output_path is not None:
        _write_csv(cfg.output_path, joint.labels, draws)

    emp_mean = draws.mean(axis=0)
    emp_cov = np.cov(draws.T, ddof=1).tolist() if n > 1 else None
    diff = draws[:, 0] - draws[:, 1]
    emp_gauss = math.sqrt(float(np.mean(diff**2)))
    sd = np.sqrt(np.diag(joint.cov))
    z_scores = (emp_mean - joint.mean) / (sd / math.sqrt(n))
    summary = {
        "which": which,
        "family": cfg.family.value,
        "nu": nu,
        "n": n,
        "seed": cfg.seed,
        "labels": list(joint.labels),
        "empirical_mean": emp_mean.tolist(),
        "empirical_cov": emp_cov,
        "empirical_gauss_error": emp_gauss,
        "analytic_mean": joint.mean.tolist(),
        "analytic_cov": joint.cov.tolist(),
        "analytic_gauss_error": gauss_error(joint),
        "mean_z_scores": z_scores.tolist(),
        "low_confidence": n < 100,
    }
    sys.stdout.write(_json(summary))
    return 0


def cmd_posterior(cfg: RunConfig, y=None, region=None) -> int:
    """Posterior moments at an outcome, or mixture moments over a region."""
    if (y is None) == (region is None):
        raise ValueError("posterior needs exactly one of --y or --region")
    if len(cfg.nu_grid) != 1:
        raise ValueError("posterior needs exactly one nu (use --nu)")
    check_posterior_family(cfg.family)
    nu = cfg.nu_grid[0]
    psi = cfg.psi
    fam = PosteriorFamily(nu=nu, psi=psi)
    target = psi.hbar**2 / 4.0
    if y is not None:
        state = posterior_state(fam, y)
        var_q, var_p = state.cov[0, 0], state.cov[1, 1]
        payload = {
            "family": cfg.family.value,
            "nu": nu,
            "outcome": list(y),
            "mean": state.mean.tolist(),
            "var_q": var_q,
            "var_p": var_p,
            "uncertainty_product": var_q * var_p,
            "uncertainty_product_target": target,
        }
    else:
        mean, cov = region_mixture_moments(cfg.family, nu, psi, region)
        payload = {
            "family": cfg.family.value,
            "nu": nu,
            # open ends (infinite bounds) are echoed as null
            "region": [
                v if math.isfinite(v) else None
                for v in (region.z_lo, region.z_hi, region.w_lo, region.w_hi)
            ],
            "mean": mean.tolist(),
            "cov": cov.tolist(),
            "posterior_var_product": fam.var_q * fam.var_p,
            "uncertainty_product_target": target,
        }
    _write_text(cfg.output_path, _json(payload))
    return 0


def _add_common_flags(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--family", help="x | y2 | y0 | z | ak")
    sub.add_argument("--nu", type=float, help="single grid point")
    sub.add_argument(
        "--nu-grid", help="comma-separated nu values (default: 0.01..0.99)"
    )
    sub.add_argument("--hbar", type=float)
    sub.add_argument("--sigma1", type=float)
    sub.add_argument("--q1", type=float)
    sub.add_argument("--p1", type=float)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--format", dest="output_format", choices=("csv", "json"))
    sub.add_argument("--out", dest="output_path", help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simqp",
        description="simultaneous position-momentum measurement models on "
        "Gaussian states",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("sweep", "error trade-off table over a nu grid"),
        ("check", "achievability-condition report at one nu"),
        ("frontier", "bound curve and reference hyperbolas"),
        ("sample", "Monte Carlo draws from a named joint"),
        ("posterior", "posterior-state or region-mixture moments"),
    ):
        sub = commands.add_parser(name, help=descr)
        _add_common_flags(sub)
        if name == "sample":
            sub.add_argument(
                "--which",
                default="meters",
                help="meters | q-pair | p-pair",
            )
            sub.add_argument("--n", type=int, default=1000, help="number of draws")
        if name == "posterior":
            sub.add_argument("--y", help="outcome pair 'z,w'")
            sub.add_argument(
                "--region", help="rectangle 'z_lo,z_hi,w_lo,w_hi' (inf allowed)"
            )
    return parser


def _is_number(value) -> bool:
    """True for a JSON number (``json`` reads ``true`` and ``false`` as bools)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_config_types(path: str, values: dict) -> None:
    """Refuse, by key, a config value whose JSON type cannot be meant."""
    for key in ("hbar", "sigma1", "q1", "p1", "nu"):
        if key in values and not _is_number(values[key]):
            raise ValueError(
                f"config file {path}: {key!r} must hold a JSON number, "
                f"got {json.dumps(values[key])}"
            )
    grid = values.get("nu_grid", [])
    if not isinstance(grid, list) or not all(_is_number(v) for v in grid):
        raise ValueError(
            f"config file {path}: 'nu_grid' must hold a list of JSON numbers, "
            f"got {json.dumps(grid)}"
        )
    seed = values.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(
            f"config file {path}: 'seed' must hold a JSON integer, "
            f"got {json.dumps(seed)}"
        )


def _resolve_config(args) -> RunConfig:
    """Merge config-file values under explicit flags."""
    file_values = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(
                f"config file {args.config} must hold a JSON object, "
                f"got {type(file_values).__name__}"
            )
        _check_config_types(args.config, file_values)

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return file_values.get(key, default)

    try:
        nu_grid = None
        if args.nu is not None and args.nu_grid is not None:
            raise ValueError("--nu and --nu-grid are mutually exclusive")
        if args.nu is not None:
            nu_grid = [args.nu]
        elif args.nu_grid is not None:
            nu_grid = [float(tok) for tok in args.nu_grid.split(",") if tok.strip()]
        elif "nu" in file_values:
            nu_grid = [float(file_values["nu"])]
        elif "nu_grid" in file_values:
            nu_grid = [float(v) for v in file_values["nu_grid"]]
        else:
            nu_grid = list(DEFAULT_NU_GRID)

        cfg = RunConfig(
            hbar=float(pick(args.hbar, "hbar", 1.0)),
            sigma1=float(pick(args.sigma1, "sigma1", 1.0)),
            q1=float(pick(args.q1, "q1", 0.0)),
            p1=float(pick(args.p1, "p1", 0.0)),
            family=ModelFamily.from_string(pick(args.family, "family", "y0")),
            nu_grid=nu_grid,
            seed=int(pick(args.seed, "seed", 0)),
            output_format=pick(args.output_format, "format", "csv"),
            output_path=pick(args.output_path, "out", None),
        )
    except (TypeError, AttributeError) as exc:
        # flags arrive typed from argparse, so only a file value can get here
        raise ValueError(f"config file {args.config} holds a value of the wrong type: {exc}")
    cfg.validate(_SQUARED_INPUTS.get(args.command, ()))
    if cfg.family not in FAMILY_PARAMETERS and cfg.family is not ModelFamily.ARTHURS_KELLY:
        raise ValueError(f"family {cfg.family} is not runnable")
    return cfg


def _parse_pair(text: str, n: int, what: str) -> list:
    vals = [float(tok) for tok in text.split(",") if tok.strip()]
    if len(vals) != n:
        raise ValueError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    return vals


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "check":
            return cmd_check(cfg)
        if args.command == "frontier":
            return cmd_frontier(cfg)
        if args.command == "sample":
            return cmd_sample(cfg, args.which, args.n)
        if args.command == "posterior":
            y = _parse_pair(args.y, 2, "--y") if args.y else None
            if y is not None and not all(math.isfinite(v) for v in y):
                raise ValueError(f"--y needs finite numbers, got {args.y!r}")
            region = None
            if args.region:
                vals = _parse_pair(args.region, 4, "--region")
                region = OutcomeRegion(*vals)
            return cmd_posterior(cfg, y=y, region=region)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # a finite input whose square (sigma1**2, sigma_p**2, ...) exceeds float64
        print(f"error: an input overflows float64 ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
