"""End-to-end checks of the ``simqp`` command line, with no test framework.

Each command runs in a fresh process.  Its exit code must be the expected
one, and its stderr must hold no traceback, no warning and no refusal that
leaves the value unnamed.  A config file holding an integer past float64
must be refused by its key (exit 2), with or without the flag that
overrides it.  Then two ``sample --out`` files must equal
``np.savetxt(fmt="%.17g")`` byte for byte, and a sample summary's moments
must equal numpy's own, bit for bit.

Usage::

    python tests/runtime_checks.py                            # the installed console script
    python tests/runtime_checks.py python -m simqp.cli        # any command prefix

It needs only the standard library and numpy.  It runs in a temporary
directory, and exits 1 naming the first check that fails.
"""

import io
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

# (expected exit code, arguments)
EXPECTED_CODES = [
    (0, "check --family y0 --nu 0.5"),
    (0, "sweep --family z"),
    (1, "check --family ak --nu 0.5"),
    (2, "check --nu 2"),
    (0, "posterior --family z --nu 0.5 --y 0.1,0.2"),
    (0, "posterior --family y0 --nu 0.4 --region=-1,1,-1,1"),
    # each outcome mass is about 2.7e-176: only their product underflows
    (0, "posterior --family y0 --nu 0.5 --region=20,21,10,11"),
    (0, "sample --nu 0.5 --which p-pair --n 1000 --out p.csv"),
    (2, "posterior --family z --nu 0.3 --y=1e308,0"),
    # hbar**2 overflows here, but hbar**2/4 = (hbar/2)**2 does not
    (0, "posterior --family z --nu 0.5 --sigma1 10 --hbar 2e154 --y 1,2"),
    # values past float64 inside frontier, sweep and the sample summary
    (2, "frontier --sigma1=5e-324"),
    (2, "frontier --sigma1=5e-324 --family y0 --q1=0.5"),
    (2, "sweep --family x --q1=1 --nu-grid=1e-320,0.5"),
    (2, "sample --family y0 --nu 0.5 --which q-pair --n 1000 --q1=-1.5e308 --out o.csv"),
    (2, "sample --family ak --sigma1=1e-12 --p1=1e200 --nu=1e-300 --n 1 --which meters "
        "--out o.csv"),
    # values past float64 named by the library, and a JSON table by its column
    (2, "check --family ak --nu 0.5 --hbar 1e150"),
    (2, "sweep --family z --sigma1 1e200"),
    (2, "frontier --sigma1 1e-320 --format json"),
    (2, "posterior --family y0 --sigma1=1e-12 --q1=-1e308 --nu=1e-16 "
        "--region=-1.7e308,inf,-inf,1e308 --format json"),
]

# a config integer that float64 cannot hold is refused by its key as the file
# is read (exit 2), also where a flag overrides that key
BIG_CONFIG = '{"sigma1": 1' + "0" * 400 + "}"
CONFIG_RUNS = ["sweep --config big.json", "sweep --sigma1 2 --config big.json"]

# an even row count on the meters, an odd one (a part block) on another joint
SAMPLE_RUNS = [
    ("d.csv", "y0", 0.5, "meters", 200000, 3),
    ("q.csv", "x", 0.3, "q-pair", 200001, 4),
]


class CheckFailed(Exception):
    pass


def run(command: list, args: list) -> subprocess.CompletedProcess:
    return subprocess.run(command + args, capture_output=True, text=True)


def check_exit_codes(command: list) -> None:
    # the exit code alone would pass a numpy RuntimeWarning, and a traceback
    # wherever the expected code is 1
    for want, args in EXPECTED_CODES:
        done = run(command, args.split())
        sys.stderr.write(done.stderr)
        if done.returncode != want:
            raise CheckFailed(f"'{args}' exited {done.returncode}, expected {want}")
        if re.search("Traceback|Warning", done.stderr):
            raise CheckFailed(f"'{args}' printed a traceback or warning on stderr")
        if re.search("not JSON compliant|an input overflows float64", done.stderr):
            raise CheckFailed(f"'{args}' refused without naming the value")
    if os.path.exists("o.csv"):
        raise CheckFailed("a refused sample wrote its --out file")


def check_config_overflow(command: list) -> None:
    with open("big.json", "w", encoding="utf-8") as fh:
        fh.write(BIG_CONFIG)
    for args in CONFIG_RUNS:
        done = run(command, args.split())
        sys.stderr.write(done.stderr)
        if done.returncode != 2:
            raise CheckFailed(f"'{args}' exited {done.returncode}, expected 2")
        if "Traceback" in done.stderr or "'sigma1'" not in done.stderr:
            raise CheckFailed(f"'{args}' did not refuse by the key 'sigma1'")


def check_sample_files(command: list) -> None:
    import simqp

    psi = simqp.MinUncertaintyParams()
    builders = {"meters": simqp.meter_joint, "q-pair": simqp.q_pair_joint}
    summaries = {}
    for path, family, nu, which, n, seed in SAMPLE_RUNS:
        args = ["sample", "--family", family, "--nu", str(nu), "--which", which,
                "--n", str(n), "--seed", str(seed), "--out", path]
        done = run(command, args)
        if done.returncode != 0:
            raise CheckFailed(f"'{' '.join(args)}' exited {done.returncode}: {done.stderr}")
        summaries[path] = json.loads(done.stdout)
        model = simqp.build_model(simqp.ModelFamily(family), nu, psi)
        joint = builders[which](model, psi)
        draws = simqp.sample(joint, n, seed)
        expected = io.BytesIO()
        np.savetxt(expected, draws, fmt="%.17g", delimiter=",",
                   header=",".join(joint.labels), comments="")
        with open(path, "rb") as fh:
            written = fh.read()
        if written != expected.getvalue():
            raise CheckFailed(f"{path}: sample --out differs from np.savetxt(fmt='%.17g')")
        print(f"{path}: {len(written)} bytes equal to np.savetxt")
        # the summary's moments are numpy's own, bit for bit
        if summaries[path]["empirical_mean"] != draws.mean(axis=0).tolist():
            raise CheckFailed(f"{path}: empirical_mean differs from draws.mean(axis=0)")
        if summaries[path]["empirical_cov"] != np.cov(draws.T, ddof=1).tolist():
            raise CheckFailed(f"{path}: empirical_cov differs from np.cov(draws.T, ddof=1)")
        print(f"{path}: the summary's empirical_mean and empirical_cov equal numpy's")


def main(argv: list) -> int:
    command = argv or ["simqp"]
    with tempfile.TemporaryDirectory() as tmp:
        home = os.getcwd()
        os.chdir(tmp)
        try:
            check_exit_codes(command)
            check_config_overflow(command)
            check_sample_files(command)
        except CheckFailed as exc:
            print(f"FAILED: {exc}", file=sys.stderr)
            return 1
        finally:
            os.chdir(home)
    print(f"all {len(EXPECTED_CODES) + len(CONFIG_RUNS) + len(SAMPLE_RUNS)} runtime checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
