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
import functools
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
from .phase_space import TOLERANCES, GaussianState, MinUncertaintyParams

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
    with _output(path) as fh:
        fh.write(",".join(header) + "\n")
        # one string per block keeps memory bounded whatever the row count
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            fh.write(_csv_text(table[start : start + _CSV_BLOCK_ROWS]))


# ``%.17g`` text without a per-value format call.  For a finite x, let
# k = floor(log10 |x|) and y = |x| 10^(16-k).  y is computed as p + t, where
# |x| hi = p + err exactly (Dekker's two-product; Higham, *Accuracy and
# Stability*, 2nd ed., §3.5) and t = err + |x| lo, with (hi, lo) the
# double-double of 10^(16-k) from exact integer arithmetic.  t is within 4 u^2 y
# < 5e-15 of the exact y - p (u = 2^-53, y < 1e17), so floor and fraction are
# exact unless the fraction lies within _CSV_TIE_MARGIN of 1/2.  A value is
# *certified* when |x| lies in _CSV_CERTIFIED (every split and partial product
# stays normal), its unrounded floor lies in [1e16, 1e17 - 1) (k was right,
# and rounding cannot carry to 1e17, which takes a log10 that errs low next to
# a power of ten), and the fraction is farther than the margin from 1/2.  Its
# 17 digits are then round(y).  Every row that holds an uncertified value
# (+-0, subnormals, |x| outside the range, near ties, a k misjudged next to a
# power of ten) is formatted by "%" instead, so the output is "%.17g" by
# construction.
_CSV_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split into 26-bit halves
_CSV_TIE_MARGIN = 1e-9
_CSV_CERTIFIED = (1e-280, 1e280)
_CSV_X_OFFSET = 300  # the per-exponent tables cover X = -300 .. 300
# where word 0 and word 5 start in the kernel's word table (after the chunks)
_CSV_PREFIX_AT = 10000
_CSV_TAIL_AT = _CSV_PREFIX_AT + 2 * (2 * _CSV_X_OFFSET + 1)
_CSV_PASS = 2048  # values per kernel pass: each work array stays at 16 kB


@functools.lru_cache(maxsize=None)  # keyed by decimal exponent, < 600 entries
def _pow10(e: int) -> tuple:
    """10^e as the double-double (hi, lo), with hi split as head + tail.

    10^e = num/den exactly; int true division rounds correctly, so hi is the
    double nearest 10^e and lo the double nearest 10^e - hi.
    """
    num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
    hi = num / den
    h_num, h_den = hi.as_integer_ratio()
    c = _CSV_SPLITTER * hi
    head = c - (c - hi)
    return hi, head, hi - head, (num * h_den - h_num * den) / (den * h_den)


def _as_words(b):
    """(..., 8 m) uint8 -> (..., m) native uint64 over the same bytes."""
    return np.ascontiguousarray(b, dtype=np.uint8).view(np.uint64)


@functools.lru_cache(maxsize=None)
def _csv_tables():
    """The word tables of the text kernel, built once, on first use.

    A value is six uint64 words (48 bytes) of text with NUL where unused:
    word 0 the sign, then "0." and up to three zeros for fixed notation at
    decimal exponent X < 0; words 1-4 the digits d0 .. d15, each followed by a
    slot that holds the '.' after digit X; word 5 d16, its slot, "e+XX" or
    "e+XXX" for scientific notation (X < -4 or X > 16), and the separator.
    """
    x = np.arange(-_CSV_X_OFFSET, _CSV_X_OFFSET + 1)
    fixed = (x >= -4) & (x <= 16)
    ax = np.abs(x)
    # [0, 1e4): a 4-digit chunk with '.' in every slot, the mask keeps one
    c = np.arange(10000, dtype=np.int16)
    chunks = np.full((10000, 8), ord("."), np.uint8)
    chunks[:, ::2] = c[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
    chunks[:, ::2] += ord("0")
    # then word 0 by (X, sign)
    prefix = np.zeros((x.size, 2, 8), np.uint8)
    prefix[:, 1, 0] = ord("-")
    leading = (np.arange(1, 6) <= 1 - x[:, None]) & (fixed & (x < 0))[:, None]
    prefix[:, :, 1:6] = (leading * np.frombuffer(b"0.000", np.uint8))[:, None]
    # then word 5 by (X, d16)
    exponent = np.zeros((x.size, 5), np.uint8)
    exponent[:, 0] = ord("e")
    exponent[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    exponent[:, 2] = np.where(ax >= 100, ord("0") + ax // 100, 0)
    exponent[:, 3] = ord("0") + ax // 10 % 10
    exponent[:, 4] = ord("0") + ax % 10
    exponent[fixed] = 0
    tail = np.zeros((x.size, 10, 8), np.uint8)
    tail[:, :, 0] = ord("0") + np.arange(10)
    tail[:, :, 2:7] = exponent[:, None]
    table = np.concatenate(
        [_as_words(chunks).ravel(), _as_words(prefix).ravel(), _as_words(tail).ravel()]
    )
    # row 21 last + dot + 4, for the last nonzero digit d_last and the digit
    # d_dot the '.' follows (dot < 0: the '.' is in word 0): keep d0 ..
    # d_max(last, dot), and the slot after d_dot if a digit follows it
    last = np.arange(17)[:, None, None]
    dot = np.arange(-4, 17)[None, :, None]
    i = np.arange(17)
    keep = np.maximum(last, dot)
    mask = np.zeros((17, 21, 48), np.uint8)
    mask[..., :8] = 255
    mask[..., 8:42:2] = 255 * (i <= keep)
    mask[..., 9:42:2] = 255 * ((i == dot) & (keep > dot))
    mask[..., 42:] = 255
    # 21 * (index of the last nonzero digit among d12 .. d15), 0 if none
    last21 = np.full(10000, 15, np.int16)
    for power in (10, 100, 1000):
        last21 -= c % power == 0
    last21 *= 21
    last21[0] = 0
    sep = np.zeros((2, 8), np.uint8)
    sep[:, 7] = [ord(","), ord("\n")]
    return (
        table,
        _as_words(mask).reshape(17 * 21, 6),
        np.where(fixed, x, 0) + 4,  # the digit the '.' follows, + 4
        last21,
        _as_words(sep).ravel(),
    )


def _csv_words(x, out) -> np.ndarray:
    """Write the text of the flat values ``x`` into the (len(x), 6) words
    ``out`` and return the certified mask; other values' words are junk."""
    table, mask, dot4, last21, _ = _csv_tables()
    a = np.abs(x)
    ok = (a >= _CSV_CERTIFIED[0]) & (a <= _CSV_CERTIFIED[1])
    a[~ok] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    e = 16 - k
    low = int(e.min())
    pows = np.array([_pow10(j) for j in range(low, int(e.max()) + 1)])
    e -= low
    hi, head, tail, lo = (col.take(e) for col in pows.T)
    p = a * hi
    c = a * _CSV_SPLITTER
    ah = c - (c - a)
    al = a - ah
    t = ah * head - p
    t += ah * tail
    t += al * head
    t += al * tail
    t += a * lo
    whole = np.floor(t)
    t -= whole
    n = p.astype(np.int64)  # p >= 2^53 is an integer
    n += whole.astype(np.int64)
    ok &= (n >= 10**16) & (n < 10**17 - 1)
    t -= 0.5
    n += t > 0
    ok &= np.abs(t) > _CSV_TIE_MARGIN
    n[~ok] = 10**16
    k[~ok] = 0
    k += _CSV_X_OFFSET
    # word indices: (X, sign), the chunks of d0 .. d15, (X, d16)
    idx = np.empty((len(x), 6), np.intp)
    q = n // 10
    d16 = n - q * 10
    idx[:, 0] = 2 * k + (x < 0) + _CSV_PREFIX_AT
    idx[:, 5] = 10 * k + d16 + _CSV_TAIL_AT
    hi8 = q // 10**8
    lo8 = q - hi8 * 10**8
    idx[:, 1] = hi8 // 10**4
    idx[:, 2] = hi8 - idx[:, 1] * 10**4
    idx[:, 3] = lo8 // 10**4
    chunk = lo8 - idx[:, 3] * 10**4
    idx[:, 4] = chunk
    np.take(table, idx, out=out, mode="clip")
    # mask row 21 last + dot + 4 (see _csv_tables)
    mask_row = last21.take(chunk)
    mask_row[d16 != 0] = 21 * 16
    zero = np.flatnonzero(mask_row == 0)
    if zero.size:  # d12 .. d16 all zero: count the rest of q's trailing zeros
        qz = q[zero]
        mask_row[zero] = 21 * (11 - sum(qz % 10**j == 0 for j in range(5, 16)))
    mask_row += dot4.take(k)
    out &= mask.take(mask_row, axis=0, mode="clip")
    return ok


def _csv_text(block) -> str:
    """The CSV lines of the finite 2-D ``block``, byte for byte ``%.17g``."""
    step = max(1, _CSV_PASS // block.shape[1])
    return "".join(_csv_lines(block[s : s + step]) for s in range(0, len(block), step))


def _csv_lines(block) -> str:
    """``_csv_text`` of one kernel pass of rows."""
    rows, ncol = block.shape
    buf = bytearray(48 * block.size)
    words = np.frombuffer(buf, np.uint64).reshape(rows, ncol, 6)
    ok = _csv_words(block.reshape(-1), words.reshape(-1, 6)).reshape(rows, ncol)
    comma, newline = _csv_tables()[4]
    words[:, :-1, 5] |= comma
    words[:, -1, 5] |= newline
    if ok.all():  # one flat reduction; the per-row one runs only when a value failed
        return buf.translate(None, b"\0").decode("ascii")
    fallback = np.flatnonzero(~ok.all(axis=1)).tolist()
    line = ",".join(["%.17g"] * ncol) + "\n"
    width, pieces, start = 48 * ncol, [], 0
    for r in fallback + [rows]:
        pieces.append(buf[start * width : r * width].translate(None, b"\0").decode("ascii"))
        if r < rows:
            pieces.append(line % tuple(block[r].tolist()))
        start = r + 1
    return "".join(pieces)


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
        try:
            errs = qrms_errors(_model_for(cfg, nu), psi)
        except ValueError as exc:
            raise ValueError(f"at nu={nu:g}: {exc}") from None  # name the grid point
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
    return 0 if worst <= TOLERANCES["sweep_residual"] else 1


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
