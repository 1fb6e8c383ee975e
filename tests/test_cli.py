"""Command-line interface: artifacts, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import simqp
from simqp import (
    MinUncertaintyParams,
    ModelFamily,
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
from simqp import cli
from simqp.cli import main


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
            ["sigma1 = 1e+200 (--sigma1)", "its square overflows float64"],
        ),
        (
            ("sweep", "--family", "ak", "--hbar", "1e300"),
            ["hbar = 1e+300 (--hbar)", "its square overflows float64"],
        ),
        (
            ("check", "--family", "x", "--nu", "0.5", "--sigma1", "1e-160"),
            ["sigma_p = 5e+159", "--hbar 1 and --sigma1 1e-160"],
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
    ],
)
def test_out_of_range_inputs_are_named(capsys, argv, names):
    code, out, err = run(capsys, *argv)  # a numpy RuntimeWarning would raise here
    assert (code, out) == (2, "")
    for name in names:
        assert name in err


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


def test_runtime_needs_no_scipy():
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY_SCRIPT],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
