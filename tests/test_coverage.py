"""Tolerance coverage of the CLI pipeline, an opt-in long report.

For each seed, ``nestiq pilot`` runs with its defaults on the drug model
(geometric design, rdlqmcis, noise variance 0.01); ``nestiq plan`` and
``nestiq estimate --plan`` then run at each tolerance.  The report gives, per
run, N*, M*, beta, c_q3, the error against the table EIG and
z = error / predicted_stddev; per tolerance, the miss count (|error| > tol),
the RMS z and the mean error.  A plan that keeps its promise misses about
alpha = 5% of the time and has an RMS z near 1.  The test asserts only that
every command succeeds and that every error stays within criterion 1's 0.03.

Run with ``NESTIQ_RUN_LONG=1 pytest tests/test_coverage.py -s``.
"""

import contextlib
import io
import json
import math
import os

import pytest

from nestiq.cli import main as cli_main

SEEDS = (*range(16), *range(101, 111))
TOLS = (5e-3, 1e-2)
TABLE_EIG_GEOM = 10.7372
EIG_LIMIT = 0.03
CONFIG = """\
model = pk
estimator = rdlqmcis
design = geom
noise.variance = 0.01
seed = {seed}
"""


def _run(argv):
    log = io.StringIO()
    with contextlib.redirect_stderr(log):
        code = cli_main(argv)
    assert code == 0, f"nestiq {argv[0]} exited {code}: {log.getvalue()[-500:]}"


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.skipif(
    os.environ.get("NESTIQ_RUN_LONG") != "1",
    reason="26-seed pipeline coverage report; set NESTIQ_RUN_LONG=1 to run",
)
def test_cli_pipeline_tolerance_coverage(tmp_path):
    errors = {tol: [] for tol in TOLS}
    zs = {tol: [] for tol in TOLS}
    for seed in SEEDS:
        cfg = tmp_path / f"pk-geom-{seed}.cfg"
        cfg.write_text(CONFIG.format(seed=seed))
        pilot = str(tmp_path / f"pilot-{seed}.json")
        _run(["pilot", str(cfg), "--out", pilot])
        consts = _load(pilot)
        for tol in TOLS:
            plan = str(tmp_path / f"plan-{seed}-{tol:g}.json")
            result = str(tmp_path / f"estimate-{seed}-{tol:g}.json")
            _run(["plan", "--pilot", pilot, "--tol", repr(tol), "--out", plan])
            _run(["estimate", str(cfg), "--plan", plan, "--out", result])
            p, r = _load(plan), _load(result)
            error = r["estimate"] - TABLE_EIG_GEOM
            z = error / r["predicted_stddev"]
            errors[tol].append(error)
            zs[tol].append(z)
            print(
                f"tol {tol:g} seed {seed:3d}: N* {p['n_star']:6d} M* {p['m_star']:4d} "
                f"beta {consts['beta']:.3f} "
                f"c_q3 {consts['c_q3']:.3g} "
                f"error {error:+.5f} z {z:+.2f}"
            )
    for tol in TOLS:
        misses = sum(abs(e) > tol for e in errors[tol])
        rms_z = math.sqrt(sum(z * z for z in zs[tol]) / len(zs[tol]))
        mean_error = sum(errors[tol]) / len(errors[tol])
        print(
            f"tol {tol:g}: {misses} of {len(SEEDS)} miss, RMS z {rms_z:.2f}, "
            f"mean error {mean_error:+.5f}"
        )
    worst = max(abs(e) for errs in errors.values() for e in errs)
    assert worst < EIG_LIMIT, f"largest |error| {worst:.5f} (limit {EIG_LIMIT})"
