"""Config parsing, CLI commands, result files, and exit codes."""

import json
import math
import os

import numpy as np
import pytest

from nestiq.allocation import PilotConstants, _bias_value, _stat_variance
from nestiq.cli import main
from nestiq.config import ConfigError, ExperimentConfig

LG_CFG = """\
model = linear_gaussian
estimator = rdlqmcis
seed = 7
linear_gaussian.jacobian = 1.0
linear_gaussian.prior_variance = 1.0
noise.variance = 1.0
"""

SYN_CFG = """\
model = synthetic
estimator = rdlqmc
seed = 3
synthetic.h = 0.25
noise.variance = 0.25
"""


class TestConfigParsing:
    def test_roundtrip_and_defaults(self):
        cfg = ExperimentConfig.from_text(LG_CFG)
        assert cfg.values["model"] == "linear_gaussian"
        assert cfg.values["n_experiments"] == 1
        assert cfg.values["truncation.enabled"] is False

    def test_unknown_key_rejected(self, tmp_path):
        # the estimator id alone picks the point family; there is no sampler key
        for extra in ("mystery.knob = 3\n", "sampler = rqmc-sobol-owen\n"):
            with pytest.raises(ConfigError, match="unknown config keys"):
                ExperimentConfig.from_text(LG_CFG + extra)
            cfg = _write(tmp_path, "extra.cfg", LG_CFG + extra)
            rc = main(["estimate", cfg, "--N", "8", "--M", "2",
                       "--out", str(tmp_path / "x.json")])
            assert rc == 2

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            ExperimentConfig.from_text("model = pk\nestimator = dlmc\nseed = soon\n")

    def test_bad_estimator_rejected(self):
        with pytest.raises(ConfigError, match="estimator"):
            ExperimentConfig.from_text("model = pk\nestimator = magic\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentConfig.from_text("model = pk\nmodel = pk\nestimator = dlmc\n")

    def test_comments_and_blank_lines(self):
        cfg = ExperimentConfig.from_text("# hi\n\nmodel = pk # trailing\nestimator = dlmc\n")
        assert cfg.values["model"] == "pk"

    def test_hash_is_stable_and_order_free(self):
        a = ExperimentConfig.from_text(LG_CFG)
        reordered = "\n".join(reversed(LG_CFG.strip().splitlines())) + "\n"
        b = ExperimentConfig.from_text(reordered)
        assert a.config_hash() == b.config_hash()

    def test_pk_explicit_design_vector(self):
        cfg = ExperimentConfig.from_text(
            "model = pk\nestimator = dlmcis\ndesign = 1.0, 2.0, 4.0\n"
        )
        prob = cfg.build_problem()
        np.testing.assert_allclose(prob.xi, [1.0, 2.0, 4.0])
        assert prob.d_y == 3


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture()
def lg_config(tmp_path):
    return _write(tmp_path, "lg.cfg", LG_CFG)


@pytest.fixture()
def pilot_file(tmp_path, lg_config):
    out = str(tmp_path / "pilot.json")
    rc = main([
        "pilot", lg_config, "--outer-ladder", "32,128,512",
        "--inner-ladder", "16,64", "--S", "8", "--R", "8", "--out", out,
    ])
    assert rc == 0
    return out


class TestPilotCommand:
    def test_writes_constants_in_range(self, pilot_file):
        data = json.loads(open(pilot_file).read())
        assert 0.0 <= data["beta"] <= 1.0
        assert 0.0 <= data["delta"] <= 1.0
        assert data["c_q1"] > 0
        assert "config_hash" in data["metadata"]

    def test_exact_inner_pilot_flags_low_confidence(self, pilot_file):
        # linear-Gaussian importance sampling is exact: the inner biases are
        # rounding noise (0 and ~4e-16), which no bias fit can resolve
        meta = json.loads(open(pilot_file).read())["metadata"]
        assert max(meta["inner_biases"]) < 1e-14
        assert meta["c_q3_low_confidence"] is True

    def test_single_randomization_refused(self, tmp_path, lg_config):
        rc = main(["pilot", lg_config, "--S", "1", "--out", str(tmp_path / "p.json")])
        assert rc == 2

    def test_non_power_of_two_fixed_rows_refused(self, tmp_path, lg_config, capsys):
        rc = main(["pilot", lg_config, "--n-fixed", "3", "--out", str(tmp_path / "p.json")])
        assert rc == 2
        assert "N must be a power of two, got 3" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path, lg_config):
        outs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            rc = main([
                "pilot", lg_config, "--outer-ladder", "32,128",
                "--inner-ladder", "16,64", "--S", "8", "--R", "8", "--out", out,
            ])
            assert rc == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]


class TestPlanCommand:
    def test_plan_file_contents(self, tmp_path, pilot_file):
        out = str(tmp_path / "plan.json")
        rc = main(["plan", "--pilot", pilot_file, "--tol", "0.02", "--out", out])
        assert rc == 0
        plan = json.loads(open(out).read())
        assert plan["n_star"] >= 1 and plan["m_star"] >= 1
        assert 0 < plan["kappa_star"] < 1
        assert plan["c_alpha"] == pytest.approx(1.959963984540054)

    def test_halving_tol_grows_n(self, tmp_path, pilot_file):
        ns = {}
        for tol in ("0.02", "0.01"):
            out = str(tmp_path / f"plan{tol}.json")
            main(["plan", "--pilot", pilot_file, "--tol", tol, "--out", out])
            plan = json.loads(open(out).read())
            ns[tol] = plan["n_star"]
            beta = plan["constants"]["beta"]
        assert ns["0.01"] >= ns["0.02"] * 2 ** (2 / (1 + beta)) / 2

    def test_chebyshev_constant(self, tmp_path, pilot_file):
        out = str(tmp_path / "plan_cheb.json")
        rc = main(["plan", "--pilot", pilot_file, "--tol", "0.05", "--alpha", "0.05",
                   "--chebyshev", "--out", out])
        assert rc == 0
        assert json.loads(open(out).read())["c_alpha"] == pytest.approx(math.sqrt(20))

    def test_low_confidence_pilot_warns(self, tmp_path, pilot_file, capsys):
        data = json.loads(open(pilot_file).read())
        data["metadata"]["c_q3_low_confidence"] = False
        confident = _write(tmp_path, "confident.json", json.dumps(data))
        plans, warnings = [], []
        for name, pilot in (("low", pilot_file), ("confident", confident)):
            capsys.readouterr()
            out = str(tmp_path / f"plan_{name}.json")
            assert main(["plan", "--pilot", pilot, "--tol", "0.02", "--out", out]) == 0
            err = capsys.readouterr().err.splitlines()
            warnings.append([ln for ln in err if ln.startswith("warning:")])
            plans.append(open(out, "rb").read())
        assert len(warnings[0]) == 1 and "c_q3_low_confidence" in warnings[0][0]
        assert warnings[1] == []
        assert plans[0] == plans[1]  # the flag changes no result file

    def test_infeasible_exit_code(self, tmp_path):
        pilot = _write(tmp_path, "pilot.json", json.dumps({
            "c_q1": 1.0, "beta": 0.5, "c_q2": 0.5, "c_q3": 1.0, "delta": 0.5,
            "c_disc": 1.0, "eta": 2.0, "gamma": 2.0, "metadata": {},
        }))
        rc = main(["plan", "--pilot", pilot, "--tol", "0.001", "--h-min", "0.5",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 3


class TestEstimateCommand:
    def test_estimate_near_conjugate_truth(self, tmp_path, lg_config, pilot_file):
        plan_out = str(tmp_path / "plan.json")
        main(["plan", "--pilot", pilot_file, "--tol", "0.02", "--out", plan_out])
        out = str(tmp_path / "res.json")
        rc = main(["estimate", lg_config, "--plan", plan_out, "--S", "8", "--out", out])
        assert rc == 0
        res = json.loads(open(out).read())
        assert abs(res["estimate"] - 0.5 * math.log(2)) < 6 * res["stderr"]
        assert res["seed"] == 7
        assert len(res["config_hash"]) == 64

    def test_predicted_error_from_plan(self, tmp_path, lg_config, pilot_file):
        plan_out = str(tmp_path / "plan.json")
        main(["plan", "--pilot", pilot_file, "--tol", "0.02", "--out", plan_out])
        plan = json.loads(open(plan_out).read())
        consts = PilotConstants(**plan["constants"])
        n, m, h = plan["n_star"], plan["m_star"], plan["h_star"]
        for s in (1, 4):
            out = str(tmp_path / f"res{s}.json")
            assert main(["estimate", lg_config, "--plan", plan_out, "--S", str(s),
                         "--out", out]) == 0
            res = json.loads(open(out).read())
            assert res["predicted_stddev"] == math.sqrt(_stat_variance(consts, n, m))
            assert res["predicted_bias"] == _bias_value(consts, m, h)
            assert (res["stderr"] is None) == (s == 1)
        out = str(tmp_path / "res_nm.json")
        assert main(["estimate", lg_config, "--N", "64", "--M", "4", "--out", out]) == 0
        res = json.loads(open(out).read())
        assert res["predicted_stddev"] is None and res["predicted_bias"] is None

    def test_counts_passthrough(self, tmp_path, lg_config):
        out = str(tmp_path / "res.json")
        rc = main(["estimate", lg_config, "--N", "64", "--M", "4", "--S", "2",
                   "--R", "3", "--out", out])
        assert rc == 0
        res = json.loads(open(out).read())
        assert res["counts"] == {"N": 64, "M": 4, "S": 2, "R": 3}
        assert res["work"] == 64 * 4 * 2 * 3
        dlmc = _write(tmp_path, "dlmc.cfg", LG_CFG.replace("rdlqmcis", "dlmc"))
        rc = main(["estimate", dlmc, "--N", "64", "--M", "4", "--S", "1",
                   "--R", "1", "--out", out])
        assert rc == 0
        assert json.loads(open(out).read())["counts"] == {"N": 64, "M": 4, "S": 1, "R": 1}

    def test_laplace_estimator_has_no_inner_count(self, tmp_path):
        cfg = _write(tmp_path, "la.cfg", LG_CFG.replace("rdlqmcis", "mcla"))
        out = str(tmp_path / "res.json")
        rc = main(["estimate", cfg, "--N", "2048", "--out", out])
        assert rc == 0
        res = json.loads(open(out).read())
        assert "M" not in res["counts"]

    def test_missing_counts_usage_error(self, tmp_path, lg_config):
        rc = main(["estimate", lg_config, "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_underflow_is_numerical_failure(self, tmp_path):
        # plain nested estimator on the drug model underflows by construction
        cfg = _write(tmp_path, "pk.cfg", "model = pk\nestimator = dlmc\nseed = 1\n")
        out = str(tmp_path / "res.json")
        rc = main(["estimate", cfg, "--N", "8", "--M", "4", "--out", out])
        # no underflow error in log form; the run completes (log-space inner mean)
        assert rc == 0


class TestSweepCommand:
    def test_rows_and_columns(self, tmp_path, lg_config, pilot_file):
        out = str(tmp_path / "sweep.csv")
        rc = main(["sweep", lg_config, "--pilot", pilot_file,
                   "--tols", "0.1,0.05,0.025", "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        header = lines[0].split(",")
        assert header == ["tol", "kappa_star", "N_star", "M_star", "h_star",
                          "predicted_work", "estimate", "stderr",
                          "realized_work", "seed", "error"]
        assert len(lines) == 4
        works = [float(ln.split(",")[5]) for ln in lines[1:]]
        assert works == sorted(works)  # tighter tolerances cost more

    def test_empty_tols_header_only(self, tmp_path, lg_config, pilot_file):
        out = str(tmp_path / "empty.csv")
        rc = main(["sweep", lg_config, "--pilot", pilot_file, "--tols", "", "--out", out])
        assert rc == 0
        assert open(out).read().count("\n") == 1

    def test_per_row_failure_isolated(self, tmp_path, lg_config):
        pilot = _write(tmp_path, "pilot.json", json.dumps({
            "c_q1": 1.0, "beta": 0.5, "c_q2": 0.5, "c_q3": 1.0, "delta": 0.5,
            "c_disc": 1.0, "eta": 2.0, "gamma": 2.0,
            "metadata": {"seed": 7},
        }))
        cfg = _write(tmp_path, "syn.cfg", SYN_CFG)
        out = str(tmp_path / "sweep.csv")
        # with an h floor the tiny tolerance is infeasible but others are not
        rc = main(["sweep", cfg, "--pilot", pilot, "--tols", "0.5,0.0000001", "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        first, second = lines[1].split(","), lines[2].split(",")
        assert first[-1] == ""
        assert second[-1] != ""


class TestThreadDeterminism:
    def test_library_results_identical_across_thread_env(self, tmp_path, lg_config):
        outs = []
        before = os.environ.get("NESTIQ_THREADS")
        try:
            for threads in ("1", "8"):
                os.environ["NESTIQ_THREADS"] = threads
                out = str(tmp_path / f"res{threads}.json")
                rc = main(["estimate", lg_config, "--N", "256", "--M", "4",
                           "--S", "4", "--out", out])
                assert rc == 0
                outs.append(open(out, "rb").read())
        finally:
            if before is None:
                os.environ.pop("NESTIQ_THREADS", None)
            else:
                os.environ["NESTIQ_THREADS"] = before
        assert outs[0] == outs[1]


class TestPkConfigPipeline:
    def test_pk_pilot_constants_in_range(self, tmp_path):
        cfg = _write(tmp_path, "pk.cfg", (
            "model = pk\nestimator = rdlqmcis\ndesign = geom\nseed = 5\n"
            "noise.variance = 0.01\n"
        ))
        out = str(tmp_path / "pilot.json")
        rc = main([
            "pilot", cfg, "--outer-ladder", "32,128", "--inner-ladder", "16,64",
            "--S", "8", "--R", "8", "--out", out,
        ])
        assert rc == 0
        data = json.loads(open(out).read())
        assert 0.0 <= data["beta"] <= 1.0
        assert 0.0 <= data["delta"] <= 1.0
        assert data["metadata"]["seed"] == 5
