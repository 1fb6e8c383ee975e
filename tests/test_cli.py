"""Command-line interface: artifacts, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simqp
from simqp import (
    GaussianState,
    MinUncertaintyParams,
    ModelFamily,
    arthurs_kelly_model,
    branciard_ozawa_residual,
    build_model,
    heisenberg_product,
    meter_joint,
    ozawa_inequality_residual,
    p_pair_joint,
    q_pair_joint,
    qrms_errors,
    sample,
)
from simqp import cli, measurement
from simqp.cli import main
from simqp.phase_space import TOLERANCES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text):
    """Parse RFC 8259 JSON: NaN, Infinity and -Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    rows = [[float(tok) for tok in ln.split(",")] for ln in lines[1:]]
    return header, rows


class TestSweep:
    def test_error_columns(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "y0", "--nu-grid", "0.25,0.5,0.75"
        )
        assert code == 0
        header, rows = parse_csv(out)
        eq_index = header.index("eps_q")
        got = [row[eq_index] ** 2 for row in rows]
        np.testing.assert_allclose(got, [0.75, 0.5, 0.25], rtol=1e-12)

    def test_default_grid_passes(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "x")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 99
        residuals = [row[4] for row in rows]
        assert max(abs(r) for r in residuals) <= 1e-8

    def test_families_share_error_columns(self, capsys):
        outputs = []
        for family in ("x", "z"):
            code, out, _ = run(
                capsys, "sweep", "--family", family, "--nu-grid", "0.2,0.5,0.8"
            )
            assert code == 0
            _, rows = parse_csv(out)
            outputs.append([row[1:3] for row in rows])
        np.testing.assert_allclose(outputs[0], outputs[1], atol=1e-12)

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--nu-grid", "")
        assert code == 2
        assert "empty" in err

    def test_arthurs_kelly_fails_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "ak", "--nu-grid", "0.5")
        assert code == 1
        _, rows = parse_csv(out)
        assert rows[0][4] > 0.01  # comparator misses the bound

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--nu-grid", "0.5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["nu"] == 0.5
        assert payload[0]["eps_q"] == pytest.approx(math.sqrt(0.5))


class TestCheck:
    def test_family_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--family", "y2", "--nu", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["passes"]["all"] is True
        assert abs(payload["bo_residual"]) < 1e-10

    def test_arthurs_kelly_condition_iii_recorded(self, capsys):
        code, out, _ = run(capsys, "check", "--family", "ak", "--nu", "0.5")
        assert code == 1
        payload = json.loads(out)
        assert payload["passes"]["iii"] is False
        assert payload["cond_iii"]["sum_minus_one"] == pytest.approx(1.0)

    @pytest.mark.parametrize("family", ["x", "y2", "y0", "z", "ak"])
    @pytest.mark.parametrize("q1", ["0.2", "1e-6"])
    def test_errors_and_margins_are_reported(self, capsys, family, q1):
        flags = ["--nu", "0.37", "--q1", q1, "--p1=-0.4", "--sigma1", "1.3", "--hbar", "0.8"]
        code, out, _ = run(capsys, "check", "--family", family, *flags)
        payload = strict_json(out)
        psi = MinUncertaintyParams(q1=float(q1), p1=-0.4, sigma1=1.3, hbar=0.8)
        if family == "ak":
            vacuum = GaussianState((2, 3), np.zeros(4), np.eye(4) * 0.4, 0.8)
            model = arthurs_kelly_model(vacuum)
        else:
            model = build_model(ModelFamily(family), 0.37, psi)
        errs = qrms_errors(model, psi)
        assert (payload["eps_q"], payload["eps_p"]) == (errs.eps_q, errs.eps_p)
        bound = TOLERANCES["condition"]
        margins = payload["margins"]
        assert margins == {
            "i": max(map(abs, payload["cond_i_residuals"])) / bound,
            "ii": max(map(abs, payload["cond_ii_residuals"])) / bound,
            "iii": abs(payload["cond_iii"]["sum_minus_one"]) / bound,
        }
        passes = payload["passes"]
        assert passes["i"] == (margins["i"] <= 1.0)
        assert passes["ii"] == (margins["ii"] <= 1.0)
        a21, b31 = payload["cond_iii"]["a21"], payload["cond_iii"]["b31"]
        assert passes["iii"] == (margins["iii"] <= 1.0 and a21 > 0.0 and b31 > 0.0)
        assert code == (0 if passes["all"] else 1)
        assert passes["all"] == (family != "ak")

    def test_margin_agrees_with_the_check_at_its_edge(self):
        bound = TOLERANCES["condition"]
        for residual in (bound, np.nextafter(bound, 1.0), -bound, 0.5 * bound, math.nan):
            report = simqp.TheoremReport(
                cond_i_residuals=(residual, 0.0), cond_ii_residuals=(0.0, residual),
                cond_iii=(0.5, 0.5, residual), passes_i=False, passes_ii=False,
                passes_iii=False, bo_residual=0.0,
            )
            passes = abs(residual) <= bound
            assert all((margin <= 1.0) == passes for margin in report.margins.values())

    def test_invalid_nu_writes_nothing(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, err = run(
            capsys, "check", "--nu", "1.5", "--out", str(out_file)
        )
        assert code == 2
        assert "nu" in err
        assert not out_file.exists()

    def test_needs_single_nu(self, capsys):
        code, _, err = run(capsys, "check", "--nu-grid", "0.2,0.4")
        assert code == 2
        assert "one nu" in err

    def test_one_packet_one_evaluation(self, capsys, monkeypatch):
        calls = []
        real = measurement._noise_moments

        def counting(m, psi):
            calls.append(psi)
            return real(m, psi)

        monkeypatch.setattr(measurement, "_noise_moments", counting)
        code, _, _ = run(capsys, "check", "--family", "y2", "--nu", "0.5")
        assert code == 0
        assert len(calls) == 1


class TestFrontier:
    def test_midpoint_of_curve(self, capsys):
        code, out, _ = run(capsys, "frontier", "--nu-grid", "0.5")
        assert code == 0
        _, rows = parse_csv(out)
        nu, eps_q, eps_p, hyp, quarter = rows[0]
        assert eps_q == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert eps_p == pytest.approx(math.sqrt(0.125), rel=1e-12)
        assert hyp == pytest.approx(0.5 / eps_q)
        assert quarter == pytest.approx(0.25 / eps_q)

    def test_endpoints_approach_excluded_points(self, capsys):
        code, out, _ = run(capsys, "frontier", "--nu-grid", "0.001,0.999")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][1] == pytest.approx(1.0, abs=0.01)  # eps_q -> sigma(Q1)
        assert rows[0][2] == pytest.approx(0.0, abs=0.02)  # eps_p -> 0
        assert rows[1][1] == pytest.approx(0.0, abs=0.05)
        assert rows[1][2] == pytest.approx(0.5, abs=0.01)  # -> sigma(P1)

    def test_curve_below_heisenberg_hyperbola(self, capsys):
        code, out, _ = run(capsys, "frontier")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 99
        for row in rows:
            assert row[2] < row[3]  # eps_p strictly below the hyperbola value


class TestSample:
    def test_monte_carlo_q_pair(self, capsys):
        n = 200_000
        code, out, _ = run(
            capsys,
            "sample",
            "--family",
            "y0",
            "--nu",
            "0.5",
            "--which",
            "q-pair",
            "--n",
            str(n),
            "--seed",
            "42",
        )
        assert code == 0
        summary = json.loads(out)
        analytic = summary["analytic_gauss_error"]
        assert analytic == pytest.approx(math.sqrt(0.5), rel=1e-12)
        # difference variance is 0.5, so Var(d^2) = 2 * 0.25
        se = math.sqrt(2.0 * 0.25 / n) / (2.0 * analytic)
        assert abs(summary["empirical_gauss_error"] - analytic) < 4.0 * se
        assert summary["low_confidence"] is False
        assert max(abs(z) for z in summary["mean_z_scores"]) < 5.0

    @pytest.mark.parametrize("n", [1, 2, 3, 8193, 200000])
    @pytest.mark.parametrize("which, builder", [("meters", meter_joint), ("p-pair", p_pair_joint)])
    def test_summary_equals_numpy_mean_and_cov(self, capsys, n, which, builder):
        code, out, _ = run(capsys, "sample", "--family", "z", "--nu", "0.3", "--which", which,
                           "--n", str(n), "--seed", "9")
        assert code == 0
        summary = strict_json(out)
        psi = MinUncertaintyParams()
        draws = sample(builder(build_model(ModelFamily.Z, 0.3, psi), psi), n, 9)
        assert summary["empirical_mean"] == draws.mean(axis=0).tolist()
        expected = np.cov(draws.T, ddof=1).tolist() if n > 1 else None
        assert summary["empirical_cov"] == expected

    def test_meter_pair_gauss_error_value(self, capsys):
        # meters joint at nu=1/2: Var(z)=0.5, Var(w)=0.125 independent,
        # so the analytic rms difference is sqrt(0.625)
        code, out, _ = run(
            capsys, "sample", "--nu", "0.5", "--which", "meters", "--n", "10"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["analytic_gauss_error"] == pytest.approx(
            math.sqrt(0.625), rel=1e-12
        )

    def test_single_draw_marked_low_confidence(self, capsys, tmp_path):
        out_file = tmp_path / "draws.csv"
        code, out, _ = run(
            capsys,
            "sample",
            "--nu",
            "0.5",
            "--n",
            "1",
            "--out",
            str(out_file),
        )
        assert code == 0
        assert json.loads(out)["low_confidence"] is True
        lines = out_file.read_text().splitlines()
        assert len(lines) == 2  # header plus the single draw

    def test_identical_seeds_identical_files(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(
                capsys,
                "sample",
                "--nu",
                "0.3",
                "--n",
                "500",
                "--seed",
                "77",
                "--out",
                str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unknown_joint_rejected(self, capsys):
        code, _, err = run(
            capsys, "sample", "--nu", "0.5", "--which", "pq-pair", "--n", "5"
        )
        assert code == 2
        assert "unknown joint" in err


class TestPosterior:
    def test_pointwise_outcome(self, capsys):
        code, out, _ = run(
            capsys, "posterior", "--family", "y0", "--nu", "0.5", "--y", "0,0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean"] == [0.0, 0.0]
        assert payload["var_q"] == pytest.approx(1.0)
        assert payload["var_p"] == pytest.approx(0.25)
        assert payload["uncertainty_product"] == pytest.approx(0.25)

    def test_region_matches_propagated_marginals(self, capsys):
        code, out, _ = run(
            capsys,
            "posterior",
            "--family",
            "z",
            "--nu",
            "0.5",
            "--region=-50,50,-50,50",
        )
        assert code == 0
        payload = json.loads(out)
        # full plane proxy: Var(Q) = (2-nu)/nu, Var(P) = (1+nu)/(1-nu)*0.25
        assert payload["mean"] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert payload["cov"][0][0] == pytest.approx(3.0, rel=1e-6)
        assert payload["cov"][1][1] == pytest.approx(0.75, rel=1e-6)

    def test_unsupported_family(self, capsys):
        code, _, err = run(
            capsys, "posterior", "--family", "x", "--nu", "0.5", "--y", "0,0"
        )
        assert code == 2
        assert "posterior" in err

    def test_requires_exactly_one_mode(self, capsys):
        code, _, err = run(capsys, "posterior", "--family", "y0", "--nu", "0.5")
        assert code == 2
        code, _, err = run(
            capsys,
            "posterior",
            "--family",
            "y0",
            "--nu",
            "0.5",
            "--y",
            "0,0",
            "--region",
            "0,1,0,1",
        )
        assert code == 2


class TestStrictJson:
    def test_open_region_ends_echoed_as_null(self, capsys):
        code, out, _ = run(
            capsys, "posterior", "--family", "z", "--nu", "0.5",
            "--region=-inf,1.5,0,inf", "--q1", "0.2",
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["region"] == [None, 1.5, 0.0, None]
        assert all(math.isfinite(v) for v in payload["mean"])

    def test_fully_open_region_parses(self, capsys):
        code, out, _ = run(
            capsys, "posterior", "--family", "y0", "--nu", "0.3",
            "--region=-inf,inf,-inf,inf",
        )
        assert code == 0
        assert strict_json(out)["region"] == [None, None, None, None]

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--family", "x", "--nu", "0.4"),
            ("check", "--family", "ak", "--nu", "0.4"),
            ("sweep", "--family", "z", "--nu-grid", "0.2,0.7", "--format", "json"),
            ("posterior", "--family", "z", "--nu", "0.6", "--y", "1,-2"),
            ("sample", "--family", "y2", "--nu", "0.5", "--n", "50"),
        ],
    )
    def test_outputs_are_strict_json(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code in (0, 1)
        strict_json(out)

    @pytest.mark.parametrize("flag", ["--q1", "--p1", "--sigma1", "--hbar", "--nu"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_inputs_are_usage_errors(self, capsys, flag, value):
        argv = ["check", "--family", "y0", "--nu", "0.5"]
        if flag == "--nu":
            argv = argv[:3]
        code, out, err = run(capsys, *argv, f"{flag}={value}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("y", ["inf,0", "0,-inf", "nan,1"])
    def test_non_finite_outcome_is_usage_error(self, capsys, y):
        code, out, err = run(
            capsys, "posterior", "--family", "y0", "--nu", "0.5", f"--y={y}"
        )
        assert code == 2
        assert out == ""
        assert "finite" in err


class TestConfigFile:
    @pytest.mark.parametrize("text", ["[0.5]", "3", '"y0"', "null"])
    def test_non_object_config_is_usage_error(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "JSON object" in err

    @pytest.mark.parametrize(
        "values",
        [
            {"hbar": [1.0]},
            {"family": 3},
            {"nu_grid": 0.5},
            {"out": 7},
            {"seed": 1.5},
            {"hbar": True},
            {"sigma1": "2"},
            {"nu_grid": [0.5, True]},
        ],
    )
    def test_wrongly_typed_config_value_is_usage_error(self, capsys, tmp_path, values):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "values, key",
        [
            ({"seed": 1.5}, "seed"),
            ({"seed": True}, "seed"),
            ({"hbar": True}, "hbar"),
            ({"sigma1": "2"}, "sigma1"),
            ({"nu": False}, "nu"),
            ({"nu_grid": [0.5, True]}, "nu_grid"),
        ],
    )
    def test_wrongly_typed_config_value_names_its_key(self, capsys, tmp_path, values, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run(capsys, "sample", "--n", "5", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"{key!r} must hold" in err

    def test_integral_json_numbers_are_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 7, "hbar": 2, "nu_grid": [0.5]}))
        code, out, _ = run(capsys, "sample", "--n", "5", "--format", "json", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["seed"] == 7

    def test_non_finite_config_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"sigma1": Infinity}')
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize(
        "key, value, argv",
        [
            ("sigma1", "1" + "0" * 400, ["sweep"]),
            ("q1", "1" + "0" * 400, ["check", "--nu", "0.5"]),
            ("nu", "1" + "0" * 400, ["sweep"]),
            ("nu_grid", "[0.5, -1" + "0" * 400 + "]", ["sweep"]),
            # refused as the file is read, so a flag does not hide it
            ("sigma1", "1" + "0" * 400, ["sweep", "--sigma1", "2"]),
            ("nu", "1" + "0" * 400, ["sweep", "--nu", "0.5"]),
        ],
    )
    def test_config_integer_past_float64_names_its_key(self, capsys, tmp_path, key, value, argv):
        cfg = tmp_path / "run.json"
        cfg.write_text(f'{{"{key}": {value}}}')
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == f"error: config file {cfg}: {key!r} overflows float64\n"

    def test_unknown_config_format_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == "error: unknown output format 'xml'\n"

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": "z", "nu": 0.25, "sigma1": 2.0}))
        code, out, _ = run(
            capsys, "sweep", "--config", str(cfg), "--family", "y0"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0][0] == 0.25
        # sigma1 = 2 from the file: eps_q^2 = (1 - 0.25) * 4
        assert rows[0][header.index("eps_q")] ** 2 == pytest.approx(3.0, rel=1e-12)

    def test_unknown_family_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "bogus")
        assert code == 2
        assert "unknown family" in err

    def test_nu_and_grid_conflict(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--nu", "0.5", "--nu-grid", "0.1,0.2"
        )
        assert code == 2
        assert "mutually exclusive" in err


class TestOutputFiles:
    def test_sweep_csv_written_with_17_digits(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "sweep",
            "--family",
            "y0",
            "--nu-grid",
            "0.3",
            "--out",
            str(out_file),
        )
        assert code == 0
        text = out_file.read_text(encoding="utf-8")
        assert text.endswith("\n")
        value = text.splitlines()[1].split(",")[1]
        assert float(value) == pytest.approx(math.sqrt(0.7), rel=1e-15)
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 16

    def test_repeated_runs_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run(capsys, "frontier", "--out", str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_out_dir_env_rebases_relative_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SIMQP_OUT_DIR", str(tmp_path))
        code, _, _ = run(
            capsys, "frontier", "--nu-grid", "0.5", "--out", "curve.csv"
        )
        assert code == 0
        assert (tmp_path / "curve.csv").exists()


class TestExactValues:
    """CSV values read back to exactly the floats the library computes."""

    PSI_FLAGS = ("--q1", "0.3", "--p1", "-0.7", "--sigma1", "1.3", "--hbar", "0.9")
    PSI = MinUncertaintyParams(q1=0.3, p1=-0.7, sigma1=1.3, hbar=0.9)

    @pytest.mark.parametrize("family", ["x", "y0", "z"])  # E > 0, E = 0, E < 0
    def test_sweep_values(self, capsys, family):
        grid = [0.01, 0.37, 0.5, 0.99]
        code, out, _ = run(
            capsys, "sweep", "--family", family,
            "--nu-grid", ",".join(map(str, grid)), *self.PSI_FLAGS,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:3] == ["nu", "eps_q", "eps_p"]
        psi = self.PSI
        for nu, row in zip(grid, rows, strict=True):
            errs = qrms_errors(build_model(ModelFamily(family), nu, psi), psi)
            bo = branciard_ozawa_residual(errs, psi)
            assert row == [
                nu,
                errs.eps_q,
                errs.eps_p,
                bo + psi.hbar**2 / 4.0,
                bo,
                heisenberg_product(errs),
                ozawa_inequality_residual(errs, psi),
            ]

    @pytest.mark.parametrize(
        "which, builder",
        [("meters", meter_joint), ("q-pair", q_pair_joint), ("p-pair", p_pair_joint)],
    )
    def test_sample_rows(self, capsys, tmp_path, which, builder):
        path = tmp_path / "draws.csv"
        code, _, _ = run(
            capsys, "sample", "--family", "z", "--which", which, "--nu", "0.42",
            "--n", "500", "--seed", "7", "--out", str(path), *self.PSI_FLAGS,
        )
        assert code == 0
        header, rows = parse_csv(path.read_text(encoding="utf-8"))
        joint = builder(build_model(ModelFamily.Z, 0.42, self.PSI), self.PSI)
        assert header == list(joint.labels)
        np.testing.assert_array_equal(np.array(rows), sample(joint, 500, 7))


BLOCK = cli._CSV_BLOCK_ROWS


def savetxt_oracle(header, rows) -> bytes:
    """The CSV that ``np.savetxt`` writes: the reference for ``_write_csv``."""
    fh = io.BytesIO()
    np.savetxt(
        fh, rows, fmt="%.17g", delimiter=",", header=",".join(header), comments=""
    )
    return fh.getvalue()


def write_csv_bytes(tmp_path, header, rows) -> bytes:
    path = tmp_path / "table.csv"
    cli._write_csv(str(path), header, rows)
    return path.read_bytes()


def percent_text(block) -> str:
    """``block`` formatted one value at a time by ``"%.17g"``."""
    line = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in block.tolist())


def certified(values) -> np.ndarray:
    """Which values the text kernel writes itself (the rest go through ``%``)."""
    return cli._csv_words(values, np.empty((values.size, 6), np.uint64))


def with_ulp_neighbours(values) -> list:
    """Each value with the finite floats 1 and 2 ulps either side of it."""
    out = []
    for v in values:
        below, above = math.nextafter(v, -math.inf), math.nextafter(v, math.inf)
        out += [math.nextafter(below, -math.inf), below, v, above, math.nextafter(above, math.inf)]
    return [v for v in out if math.isfinite(v)]


# values whose exact decimal expansion has 18 significant digits, the last a
# 5: "%.17g" must round them half to even
EXACT_TIES = [10.0 ** (16 - s) + 2.0 ** -(s + 1) for s in range(1, 17)] + [
    2.0**-25,
    3 * 2.0**-25,
]


class TestCsvWriter:
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_matches_savetxt(self, tmp_path, n):
        rng = np.random.default_rng(n)
        for ncol in range(1, 8):
            header = [f"c{j}" for j in range(ncol)]
            # magnitudes over the whole float64 range, both signs
            rows = rng.standard_normal((n, ncol)) * 10.0 ** rng.uniform(
                -300, 300, (n, ncol)
            )
            assert write_csv_bytes(tmp_path, header, rows) == savetxt_oracle(
                header, rows
            )

    def test_special_values_and_list_rows(self, tmp_path):
        rows = [
            [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308],
            [1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 1e-310],
            [0.1, 1.0 / 3.0, 2.0**53 + 2.0, -123456789.0, math.pi],
        ]
        header = ["a", "b", "c", "d", "e"]
        got = write_csv_bytes(tmp_path, header, rows)
        assert got == savetxt_oracle(header, rows)
        assert got.splitlines()[1].startswith(b"-0,0,")

    def test_no_write_exceeds_one_block(self, monkeypatch):
        writes = []

        class Recorder:
            def write(self, text):
                assert text.count("\n") <= BLOCK
                writes.append(text)

        @contextlib.contextmanager
        def recording_output(path):
            yield Recorder()

        monkeypatch.setattr(cli, "_output", recording_output)
        rows = np.random.default_rng(1).standard_normal((2 * BLOCK + 3, 3))
        cli._write_csv(None, ["a", "b", "c"], rows)
        assert len(writes) == 4  # header, then three blocks
        assert "".join(writes).encode() == savetxt_oracle(["a", "b", "c"], rows)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_kernel_matches_percent_on_any_floats(self, values):
        column = np.array(values)[:, None]
        assert cli._csv_text(column) == percent_text(column)

    def test_kernel_matches_percent_on_random_bit_patterns(self):
        bits = np.random.default_rng(2101).integers(0, 2**64, 10**5, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert cli._csv_text(values[:, None]) == percent_text(values[:, None])
        rows = values[: values.size // 4 * 4].reshape(-1, 4)
        assert cli._csv_text(rows) == percent_text(rows)
        # exponents in [1e-280, 1e280] are 91% of all patterns: the kernel,
        # not the fallback, wrote most of these
        assert certified(values).mean() > 0.85

    def test_kernel_matches_percent_on_edge_values(self):
        for tie in EXACT_TIES:
            digits = Decimal(tie).as_tuple().digits
            assert (len(digits), digits[-1]) == (18, 5), tie
        values = with_ulp_neighbours(
            [float(f"1e{j}") for j in range(-324, 309)]
            + [1e-280, 1e280, 99999999999999999.0, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308]
            + EXACT_TIES
        )
        values = np.array(values + [0.0, 1e-310, 2.5e-320])
        column = np.concatenate([values, -values])[:, None]
        assert cli._csv_text(column) == percent_text(column)
        assert not certified(np.array(EXACT_TIES)).any()
        assert not certified(np.array([0.0, -0.0, 5e-324, 1e-300, 1e300])).any()

    def test_normal_draws_need_no_fallback(self):
        draws = np.random.default_rng(5).standard_normal((BLOCK, 2))
        assert certified(draws.ravel()).all()
        assert cli._csv_text(draws) == percent_text(draws)

    def test_power_table_covers_every_certified_exponent(self):
        low, high = cli._CSV_K_RANGE
        pows = cli._csv_tables()[4]
        assert pows.shape == (4, high - low + 1)
        assert np.isfinite(pows).all()
        for k in range(low, high + 1):
            assert pows[:, k - low].tolist() == list(cli._pow10(16 - k))
        # the kernel's k = floor(log10 |x|) of a certified x, at the range's
        # ends and at every power of ten inside it, with their ulp neighbours
        lo, hi = cli._CSV_CERTIFIED
        values = np.array(with_ulp_neighbours([lo, hi] + [float(f"1e{j}") for j in range(-280, 281)]))
        k = np.floor(np.log10(values[(values >= lo) & (values <= hi)]))
        assert low <= k.min() and k.max() <= high

    def test_digit_split_matches_int64_arithmetic(self):
        numbers = [
            10**16,
            10**17 - 2,
            10**17 - 1,
            int("1000" "9999" "0000" "9999" "5"),
            int("9999" "0000" "9999" "0000" "0"),
            int("1999" "9999" "9999" "9999" "9"),
            int("1234" "5678" "9999" "9999" "9"),  # d8 .. d16 = 999999999
            int("1234" "5678" "0000" "0000" "0"),  # d8 .. d16 = 0
        ]
        got = np.array(cli._digit_split(np.array(numbers, np.int64))).T.tolist()
        for n, split in zip(numbers, got):
            q, d16 = divmod(n, 10)
            assert split == [q // 10**12, q // 10**8 % 10**4, q // 10**4 % 10**4, q % 10**4, d16]

    def test_uncertified_values_inside_one_full_block(self):
        # the "%" fallback rows sit inside one block-sized kernel pass
        rng = np.random.default_rng(19)
        block = rng.standard_normal((BLOCK, 2))
        odd = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, EXACT_TIES[3], -EXACT_TIES[-1]]
        rows = [0, BLOCK - 1, *rng.choice(np.arange(1, BLOCK - 1), 6, replace=False)]
        for j, (row, value) in enumerate(zip(rows, odd)):
            block[row, j % 2] = value
        assert (~certified(block.ravel())).sum() == len(odd)
        assert cli._csv_text(block) == percent_text(block)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_writes_nothing(self, tmp_path, bad):
        rows = np.ones((5, 3))
        rows[3, 2] = bad
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError, match="column 'c' .*row 4"):
            cli._write_csv(str(path), ["a", "b", "c"], rows)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_csv_and_json_agree_on_non_finite_output(self, capsys, tmp_path, fmt):
        # sigma_p = hbar / (2 sigma1) overflows to inf
        path = tmp_path / f"curve.{fmt}"
        code, out, err = run(
            capsys, "frontier", "--sigma1", "1e-320", "--format", fmt
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        code, _, _ = run(
            capsys, "frontier", "--sigma1", "1e-320", "--format", fmt,
            "--out", str(path),
        )
        assert code == 2
        assert not path.exists()

    def test_non_finite_error_names_the_column(self, capsys):
        _, _, err = run(capsys, "frontier", "--sigma1", "1e-320")
        assert "'eps_p'" in err

    @pytest.mark.parametrize("which, builder", [
        ("meters", meter_joint), ("q-pair", q_pair_joint), ("p-pair", p_pair_joint),
    ])
    def test_sample_rows_across_block_boundary(self, capsys, tmp_path, which, builder):
        path = tmp_path / "draws.csv"
        n = BLOCK + 1
        code, _, _ = run(
            capsys, "sample", "--family", "y2", "--which", which, "--nu", "0.3",
            "--n", str(n), "--seed", "11", "--out", str(path),
        )
        assert code == 0
        psi = MinUncertaintyParams()
        joint = builder(build_model(ModelFamily.Y2, 0.3, psi), psi)
        header, rows = parse_csv(path.read_text(encoding="utf-8"))
        assert header == list(joint.labels)
        np.testing.assert_array_equal(np.array(rows), sample(joint, n, 11))


def _subprocess_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(simqp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--family", "z", "--sigma1", "1e200"),
        ("check", "--family", "x", "--nu", "0.5", "--sigma1", "1e200"),
        ("sample", "--family", "y0", "--nu", "0.5", "--sigma1", "1e200", "--n", "10"),
        ("sweep", "--family", "ak", "--hbar", "1e300"),
    ],
)
def test_overflowing_inputs_are_usage_errors(argv):
    done = subprocess.run(
        [sys.executable, "-m", "simqp.cli", *argv],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr


def test_posterior_variance_past_2_1023_is_named():
    # (1 - nu)/nu * sigma1**2 = 1e308 is finite, but no state holds it
    done = subprocess.run(
        [sys.executable, "-m", "simqp.cli", "posterior", "--family", "z",
         "--nu", "0.5", "--sigma1", "1e154", "--y", "1,2"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        "error: posterior Var(Q1) = 1e+308 is too large: a covariance entry "
        "must stay below 2**1023 (nu=0.5, sigma1=1e+154, hbar=1)\n"
    )


@pytest.mark.parametrize(
    "nu, y",
    [("0.3", "1e308,0"), ("0.7", "0,-1e308")],
)
def test_overflowing_outcome_is_named(nu, y):
    # under -W error a numpy overflow warning would be a traceback
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "simqp.cli", "posterior", "--family",
         "z", "--nu", nu, f"--y={y}"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    y1, y2 = (f"{float(v):g}" for v in y.split(","))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        f"error: outcome (y1, y2) = ({y1}, {y2}) gives a posterior mean that "
        f"overflows float64 (nu={nu}, sigma1=1, hbar=1)\n"
    )


@pytest.mark.parametrize(
    "argv, named",
    [
        (
            ("--family", "y0", "--sigma1=1e-12", "--q1=-1e308", "--nu=1e-16",
             "--region=-1.7e308,inf,-inf,1e308", "--format", "json"),
            "(-1e+308, 0) gives a posterior mean that overflows float64 "
            "(nu=1e-16, sigma1=1e-12, hbar=1)",
        ),
        (
            ("--family", "z", "--sigma1=1e12", "--p1=-1.7e308", "--nu=0.9999999999999999",
             "--region=1e-12,inf,-inf,1e200"),
            "(7.97885e+11, -1.7e+308) gives a posterior mean that overflows float64 "
            "(nu=0.9999999999999999, sigma1=1e+12, hbar=1)",
        ),
    ],
)
def test_overflowing_region_mean_is_named(capsys, argv, named):
    code, out, err = run(capsys, "posterior", *argv)  # a numpy RuntimeWarning would raise here
    assert (code, out) == (2, "")
    assert err == f"error: region mean outcome (z, w) = {named}\n"


@pytest.mark.parametrize(
    "flags",
    [
        ("--nu", "1e-300"),
        ("--nu", "1e-170"),
        ("--nu", "0.5", "--sigma1", "1e154"),
    ],
)
def test_extreme_central_regions_exit_zero(flags):
    done = subprocess.run(
        [sys.executable, "-m", "simqp.cli", "posterior", "--family", "z", *flags,
         "--region=-1,1,-1,1"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    cov = json.loads(done.stdout)["cov"]
    assert all(math.isfinite(v) and v > 0.0 for v in (cov[0][0], cov[1][1]))


@pytest.mark.parametrize(
    "argv, names",
    [
        (
            ("sweep", "--family", "z", "--sigma1", "1e200"),
            ["probe Var(Q2) = inf", "sigma1=1e+200"],
        ),
        (
            ("sweep", "--family", "ak", "--hbar", "1e300"),
            ["packet Var(P1) = inf", "hbar=1e+300"],
        ),
        (
            ("check", "--family", "x", "--nu", "0.5", "--sigma1", "1e-160"),
            ["probe Var(P2) = inf", "sigma1=1e-160"],
        ),
        (
            ("sample", "--family", "y0", "--nu", "0.5", "--sigma1", "1e154", "--n", "10"),
            ["probe Var(Q3) = inf", "nu=0.5, kappa=1, sigma1=1e+154"],
        ),
        (
            ("posterior", "--family", "z", "--nu", "0.5", "--sigma1", "1e154", "--y", "1,2"),
            ["posterior Var(Q1) = 1e+308", "nu=0.5, sigma1=1e+154, hbar=1"],
        ),
        (
            ("posterior", "--family", "z", "--nu", "0.5", "--sigma1", "1e-160", "--y", "1,2"),
            ["posterior Var(P1) = inf", "sigma1=1e-160"],
        ),
        (
            ("sweep", "--family", "z", "--nu", "0.5", "--sigma1", "1e-170", "--hbar", "1e-200"),
            ["probe Var(Q2) = 0 is not finite and positive"],
        ),
        (
            ("check", "--family", "ak", "--nu", "0.5", "--hbar", "1e150"),
            ["Branciard-Ozawa residual overflows float64", "sigma1=1, hbar=1e+150"],
        ),
        (
            ("posterior", "--family", "z", "--nu", "0.5", "--y=inf,0"),
            ["outcome (y1, y2) = (inf, 0.0) is not finite (nu=0.5, sigma1=1, hbar=1)"],
        ),
        (
            ("sample", "--nu", "0.5", "--n", "0"),
            ["n must be at least 1, got 0"],
        ),
        (
            ("check", "--family", "x", "--nu=5e-324"),
            ["coupling alpha1 underflows to 0 (nu=5e-324", "E=1, F=2)"],
        ),
        (
            ("check", "--family", "x", "--nu=1e-323"),
            ["coupling b1 = -inf overflows float64", "(nu=1e-323", "E=1, F=2)"],
        ),
        (
            ("sweep", "--family", "y2", "--nu-grid", "0.5,0.999999999"),
            ["at nu=0.999999999: S^3 != -E S"],
        ),
    ],
)
def test_out_of_range_inputs_are_named(capsys, argv, names):
    code, out, err = run(capsys, *argv)  # a numpy RuntimeWarning would raise here
    assert (code, out) == (2, "")
    for name in names:
        assert name in err


def test_posterior_in_the_hbar_band_is_the_closed_form(capsys):
    # hbar**2 overflows from hbar ~ 1.34e154 on, but the target (hbar/2)**2 is
    # finite up to about 2.68e154, and so is every value printed here
    code, out, err = run(capsys, "posterior", "--family", "z", "--nu", "0.5",
                         "--sigma1", "10", "--hbar", "2e154", "--y", "1,2")
    assert (code, err) == (0, "")
    report = strict_json(out)
    var_q = 0.5 / 0.5 * 10.0**2
    var_p = (2e154 / 2.0) ** 2 / var_q
    assert report["mean"] == [1.0 / 0.5, 2.0 / 0.5]
    assert (report["var_q"], report["var_p"]) == (var_q, var_p)
    assert report["uncertainty_product"] == var_q * var_p
    assert report["uncertainty_product_target"] == (2e154 / 2.0) ** 2


@pytest.mark.parametrize("flag, name", [("--q1", "N_q"), ("--p1", "N_p")])
def test_sweep_noise_mean_overflow_is_named(capsys, flag, name):
    # at some nu the X family's noise mean is a rounding residual of about
    # 1e-16 of the packet mean, whose square overflows; a numpy
    # RuntimeWarning would raise here
    code, out, err = run(capsys, "sweep", "--family", "x", flag, "1e308")
    assert (code, out) == (2, "")
    assert re.fullmatch(
        rf"error: at nu=0\.\d+: noise mean <{name}> = -?\d\.\d+e\+\d+ is too large: "
        rf"its square overflows float64 \(q1=\S+, p1=\S+\)\n",
        err,
    ), err
    assert f"{flag[2:]}=1e+308" in err


@pytest.mark.parametrize("extra", [(), ("--family", "y0", "--q1=0.5"), ("--format=json",)])
def test_frontier_at_zero_eps_q_is_refused_by_column(capsys, tmp_path, extra):
    # eps_q = sqrt(1 - nu) sigma1 rounds to 0 at sigma1 = 5e-324, where the
    # hyperbolas (hbar/2)/eps_q and (hbar/4)/eps_q divide by it
    path = tmp_path / "curve.csv"
    code, out, err = run(capsys, "frontier", "--sigma1=5e-324", *extra, "--out", str(path))
    assert (code, out) == (2, "")
    output = "JSON" if "--format=json" in extra else "CSV"
    assert err.startswith("error: column '") and f"{output} output must be finite" in err
    assert not path.exists()


def test_sweep_at_a_subnormal_nu_names_the_coupling(capsys):
    # alpha1 = 5e-321 at nu = 1e-320, so b1 = prod/alpha1 overflows; a numpy
    # RuntimeWarning would raise here
    code, out, err = run(capsys, "sweep", "--family", "x", "--q1=1", "--nu-grid=1e-320,0.5")
    assert (code, out) == (2, "")
    assert err == (
        "error: at nu=1e-320: coupling b1 = -inf overflows float64 at "
        "alpha1 = 4.99994e-321 (nu=1e-320, tau=1.5708, gamma2=1, E=1, F=2)\n"
    )


@pytest.mark.parametrize(
    "argv, named",
    [
        (
            ("--family", "y0", "--nu", "0.5", "--which", "q-pair", "--n", "1000",
             "--q1=-1.5e308"),
            "empirical_mean overflows float64 (which=q-pair, family=y0, nu=0.5, "
            "n=1000, q1=-1.5e+308, p1=0, sigma1=1, hbar=1)",
        ),
        (
            ("--family", "ak", "--sigma1=1e-12", "--p1=1e200", "--nu=1e-300", "--n", "1",
             "--which", "meters"),
            "empirical_gauss_error overflows float64 (which=meters, family=ak, "
            "nu=1e-300, n=1, q1=0, p1=1e+200, sigma1=1e-12, hbar=1)",
        ),
    ],
    ids=["sum-of-draws", "mean-gap"],
)
def test_sample_summary_past_float64_is_named_before_any_output(capsys, tmp_path, argv, named):
    # a numpy RuntimeWarning would raise here
    path = tmp_path / "o.csv"
    code, out, err = run(capsys, "sample", *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: the summary's {named}\n"
    assert not path.exists()


@pytest.mark.parametrize("sigma1", ["1e200", "1e-160"])
def test_frontier_squares_no_input(capsys, sigma1):
    code, out, _ = run(capsys, "frontier", "--nu", "0.5", "--sigma1", sigma1)
    assert code == 0
    _, rows = parse_csv(out)
    assert all(math.isfinite(v) and v > 0.0 for v in rows[0])


# Runs CLI commands in a fresh interpreter where ``import scipy`` fails, so
# a scipy import anywhere in the runtime makes the command exit non-zero.
_NUMPY_ONLY_SCRIPT = """
import sys
sys.modules["scipy"] = None
import simqp
import simqp.cli
for argv in (
    ["check", "--family", "y0", "--nu", "0.4"],
    ["sample", "--family", "z", "--nu", "0.4", "--n", "100"],
    ["posterior", "--family", "z", "--nu", "0.4", "--region=-1,inf,-inf,0.5"],
):
    code = simqp.cli.main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
"""


def test_runtime_checks_pass_through_the_module():
    # the checks the CI runtime job runs against the installed console script
    script = Path(__file__).with_name("runtime_checks.py")
    done = subprocess.run(
        [sys.executable, str(script), sys.executable, "-m", "simqp.cli"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-3000:]


def test_runtime_needs_no_scipy():
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY_SCRIPT],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


# Edge values for every numeric flag: zero, the smallest subnormal, the
# magnitudes where a square or a product leaves float64, the largest
# finite values, the non-finite ones, and the nu edges.
_EDGES = (
    0.0, 5e-324, 1e-320, 1e-150, 1e150, 2e154, 1e-160, 1e160, 1e-200, 1e200,
    1.7e308, -1.7e308, math.nan, math.inf, -math.inf,
    1e-300, 1e-16, 0.5, 0.9999999999999999, 1.0, -1.0,
)
_edge = st.sampled_from(_EDGES).map(repr)
# nu is drawn from the pool or from valid edges, so that runs also get past its range check
_nu = _edge | st.sampled_from([5e-324, 1e-300, 1e-16, 0.01, 0.5, 0.9999999999999999]).map(repr)


@st.composite
def _argv(draw):
    """One argv for ``cli.main``: a subcommand, a family and edge-valued flags."""
    command = draw(st.sampled_from(["sweep", "check", "frontier", "sample", "posterior"]))
    argv = [command, "--family", draw(st.sampled_from(["x", "y2", "y0", "z", "ak"]))]
    if command in ("sweep", "frontier"):
        grid = draw(st.lists(_nu, min_size=1, max_size=3))
        argv.append("--nu-grid=" + ",".join(grid))
    else:
        argv.append("--nu=" + draw(_nu))
    for flag in ("--hbar", "--sigma1", "--q1", "--p1"):
        value = draw(st.none() | _edge)
        if value is not None:
            argv.append(f"{flag}={value}")
    argv.append("--format=" + draw(st.sampled_from(["csv", "json"])))
    if command == "sample":
        argv += ["--which", draw(st.sampled_from(["meters", "q-pair", "p-pair"]))]
        argv.append(f"--n={draw(st.integers(-1, 1000))}")
    if command == "posterior":
        if draw(st.booleans()):
            argv.append("--y=" + ",".join(draw(st.lists(_edge, min_size=2, max_size=2))))
        else:
            argv.append("--region=" + ",".join(draw(st.lists(_edge, min_size=4, max_size=4))))
    return argv


def _assert_finite_output(text: str, is_json: bool):
    if is_json:
        strict_json(text)
    else:
        _, rows = parse_csv(text)
        assert all(math.isfinite(v) for row in rows for v in row)


@settings(max_examples=300, deadline=None)
@given(argv=_argv(), to_file=st.booleans())
def test_exit_code_contract_under_argv_fuzz(tmp_path_factory, argv, to_file):
    path = tmp_path_factory.mktemp("fuzz") / "out.txt"
    if to_file:
        argv = [*argv, "--out", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and not path.exists()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "not JSON compliant" not in err and "an input overflows float64" not in err
        return
    assert err == ""
    table = argv[0] in ("sweep", "frontier")
    json_out = not table or "--format=json" in argv
    if out:
        _assert_finite_output(out, json_out)
    if to_file:
        _assert_finite_output(path.read_text(encoding="utf-8"), json_out and argv[0] != "sample")
