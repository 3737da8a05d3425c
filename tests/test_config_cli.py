"""Config parsing, CLI commands, result files, and exit codes."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import nestiq.cli
from nestiq.allocation import (
    FitQualityError,
    InfeasiblePlanError,
    PilotConstants,
    _bias_value,
    _stat_variance,
)
from nestiq.cli import main
from nestiq.config import ConfigError, ExperimentConfig
from nestiq.estimators import InnerUnderflowError
from nestiq.lds import RandomizationKey
from nestiq.oed import LaplaceFitError, MapConvergenceError
from nestiq.stats import truncation_radius

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

    @pytest.mark.parametrize("line, message", [
        ("model = spline", "model must be one of"),
        ("n_experiments = 0", "n_experiments must be >= 1"),
        ("pk.prior_scale = sd", "pk.prior_scale must be 'variance' or 'stddev'"),
        ("design = 1,x", "pk design must be geom, even, or a comma list of times"),
    ])
    def test_invalid_value_refused(self, line, message):
        model = "" if line.startswith("model") else "model = pk\n"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_text(f"{model}estimator = dlmc\n{line}\n")

    def test_comments_and_blank_lines(self):
        cfg = ExperimentConfig.from_text("# hi\n\nmodel = pk # trailing\nestimator = dlmc\n")
        assert cfg.values["model"] == "pk"

    def test_hash_is_stable_and_order_free(self):
        a = ExperimentConfig.from_text(LG_CFG)
        reordered = "\n".join(reversed(LG_CFG.strip().splitlines())) + "\n"
        b = ExperimentConfig.from_text(reordered)
        assert a.config_hash() == b.config_hash()

    def test_bool_key_parsed(self, tmp_path):
        cfg = ExperimentConfig.from_text(
            LG_CFG + "truncation.enabled = yes\ntruncation.tol = 1e-2\ntruncation.p = 2.0\n"
        )
        assert cfg.values["truncation.enabled"] is True
        assert cfg.build_problem().truncation.radius == truncation_radius(1e-2, 2.0)
        bad = _write(tmp_path, "bad.cfg", LG_CFG + "truncation.enabled = maybe\n")
        rc = main(["estimate", bad, "--N", "8", "--M", "2", "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_noise_variances_length_checked(self):
        cfg = ExperimentConfig.from_text(LG_CFG + "noise.variances = 1.0, 2.0\n")
        with pytest.raises(ConfigError, match="noise.variances must have 1 entries, got 2"):
            cfg.build_problem()

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
        data = json.loads(Path(pilot_file).read_text())
        assert 0.0 <= data["beta"] <= 1.0
        assert 0.0 <= data["delta"] <= 1.0
        assert data["c_q1"] > 0
        assert data["c_q3"] == data["c_q2"] / 2  # the log evidence's inner bias
        assert "config_hash" in data["metadata"]

    def test_refuses_constants_the_plan_would_refuse(self, tmp_path, capsys):
        # a discretized model with eta = 0 has no bias rate to plan with
        cfg = _write(tmp_path, "syn.cfg", SYN_CFG + "synthetic.eta = 0\n")
        out = tmp_path / "p.json"
        rc = main(["pilot", cfg, "--outer-ladder", "32,128", "--inner-ladder", "16,64",
                   "--S", "8", "--R", "8", "--out", str(out)])
        assert rc == 2
        assert "eta > 0" in capsys.readouterr().err
        assert not out.exists()

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
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]


class TestPilotTopRung:
    """The pilot file carries the top outer rung's EIG and stderr: what the
    estimate command reports at that rung's N, M and S under its key."""

    @pytest.mark.parametrize("estimator, m", [("rdlqmcis", 4), ("mcla", 1)])
    def test_matches_the_estimate_at_the_top_rung(self, tmp_path, estimator, m):
        cfg = _write(tmp_path, "lg.cfg", LG_CFG.replace("rdlqmcis", estimator))
        out = str(tmp_path / "pilot.json")
        assert main(["pilot", cfg, "--inner-ladder", "16,64", "--R", "8", "--out", out]) == 0
        meta = json.loads(Path(out).read_text())["metadata"]
        key = RandomizationKey(7, tag="pilot").child("outer").child("pilot-outer", 7)
        res = ExperimentConfig.from_file(cfg).run_estimator(4096, m, 16, 1, key)
        assert (meta["outer_top_eig"], meta["outer_top_stderr"]) == (res.estimate, res.stderr)
        # the top rung kept its stream
        assert meta["outer_variances"][-1] == 16 * res.variance_of_mean

    def test_default_pilot_fits_every_prefix_rung(self, tmp_path):
        """The default outer pilot is 16 randomizations of 4096 rows, and its
        law is fitted on every power of two from 32 rows to the top rung."""
        cfg = _write(tmp_path, "mcla.cfg", LG_CFG.replace("rdlqmcis", "mcla"))
        out = str(tmp_path / "pilot.json")
        assert main(["pilot", cfg, "--out", out]) == 0
        with open(out) as fh:
            meta = json.load(fh)["metadata"]
        assert meta["outer_ladder"] == [2**k for k in range(5, 13)]
        assert meta["S"] == 16 and len(meta["outer_variances"]) == 8


class TestLaplacePilot:
    """The Laplace-only ids pilot their outer variance on the nested executor
    with one inner point, for either point family."""

    def test_mc_rung_variance_is_per_sample(self, tmp_path):
        # the integrand is theta^2/2 plus a constant: Var = 0.5 per sample
        cfg = _write(tmp_path, "mcla.cfg", LG_CFG.replace("rdlqmcis", "mcla"))
        out = str(tmp_path / "pilot.json")
        rc = main(["pilot", cfg, "--outer-ladder", "64,256,1024", "--S", "32",
                   "--seed", "7", "--out", out])
        assert rc == 0
        data = json.loads(Path(out).read_text())
        first = data["metadata"]["outer_variances"][0]
        assert 0.5 * (0.5 / 64) < first < 2.0 * (0.5 / 64)
        assert (data["c_q2"], data["c_q3"], data["delta"]) == (0.0, 0.0, 0.0)

    def test_inner_randomizations_not_read(self, tmp_path, lg_config):
        # the Laplace pilot runs no inner pilot, so --R and --inner-ladder
        # are not checked; the importance-sampling pilot still refuses them
        cfg = _write(tmp_path, "mcla.cfg", LG_CFG.replace("rdlqmcis", "mcla"))
        out = str(tmp_path / "pilot.json")
        assert main(["pilot", cfg, "--outer-ladder", "64,256", "--S", "8",
                     "--R", "1", "--inner-ladder", "x", "--out", out]) == 0
        assert "R" not in json.loads(Path(out).read_text())["metadata"]
        assert main(["pilot", lg_config, "--R", "1", "--out", out]) == 2
        assert main(["pilot", lg_config, "--inner-ladder", "x", "--out", out]) == 2

    def test_rqmc_pilot_plan_estimate_chain(self, tmp_path):
        cfg = _write(tmp_path, "rqmcla.cfg", LG_CFG.replace("rdlqmcis", "rqmcla"))
        pilot, plan, est = (str(tmp_path / f) for f in ("p.json", "plan.json", "e.json"))
        assert main(["pilot", cfg, "--outer-ladder", "32,128,512", "--S", "8",
                     "--out", pilot]) == 0
        assert main(["plan", "--pilot", pilot, "--tol", "0.01", "--out", plan]) == 0
        assert main(["estimate", cfg, "--plan", plan, "--out", est]) == 0
        res = json.loads(Path(est).read_text())
        assert abs(res["estimate"] - 0.5 * math.log(2)) < 0.01


class TestPlanCommand:
    def test_plan_file_contents(self, tmp_path, pilot_file):
        out = str(tmp_path / "plan.json")
        rc = main(["plan", "--pilot", pilot_file, "--tol", "0.02", "--out", out])
        assert rc == 0
        plan = json.loads(Path(out).read_text())
        assert plan["n_star"] >= 1 and plan["m_star"] >= 1
        assert 0 < plan["kappa_star"] < 1
        assert plan["c_alpha"] == pytest.approx(1.959963984540054)

    def test_plan_file_reports_the_continuous_optimum(self, tmp_path, pilot_file):
        out = str(tmp_path / "plan.json")
        assert main(["plan", "--pilot", pilot_file, "--tol", "0.02", "--out", out]) == 0
        plan = json.loads(Path(out).read_text())
        assert plan["n_raw"] >= 1
        assert plan["n_raw"] * plan["m_raw"] <= plan["predicted_work"]

    def test_halving_tol_grows_n(self, tmp_path, pilot_file):
        ns = {}
        for tol in ("0.02", "0.01"):
            out = str(tmp_path / f"plan{tol}.json")
            main(["plan", "--pilot", pilot_file, "--tol", tol, "--out", out])
            plan = json.loads(Path(out).read_text())
            ns[tol] = plan["n_star"]
            beta = plan["constants"]["beta"]
        assert ns["0.01"] >= ns["0.02"] * 2 ** (2 / (1 + beta)) / 2

    def test_chebyshev_constant(self, tmp_path, pilot_file):
        out = str(tmp_path / "plan_cheb.json")
        rc = main(["plan", "--pilot", pilot_file, "--tol", "0.05", "--alpha", "0.05",
                   "--chebyshev", "--out", out])
        assert rc == 0
        assert json.loads(Path(out).read_text())["c_alpha"] == pytest.approx(math.sqrt(20))

    def test_low_confidence_pilot_warns(self, tmp_path, pilot_file, capsys):
        # a pilot file written before C_Q3 came from C_Q2 carries the bias
        # fit's metadata; plan reads past it and warns no more
        data = json.loads(Path(pilot_file).read_text())
        data["metadata"].update(inner_biases=[0.0, 4e-16], c_q3_low_confidence=True)
        old = _write(tmp_path, "old.json", json.dumps(data))
        plans = []
        for name, pilot in (("new", pilot_file), ("old", old)):
            capsys.readouterr()
            out = str(tmp_path / f"plan_{name}.json")
            assert main(["plan", "--pilot", pilot, "--tol", "0.02", "--out", out]) == 0
            err = capsys.readouterr().err.splitlines()
            assert [ln for ln in err if ln.startswith("warning:")] == []
            plans.append(Path(out).read_bytes())
        assert plans[0] == plans[1]

    @pytest.mark.parametrize("argv, name", [
        (["--tol", "nan"], "tol"),
        (["--tol", "inf"], "tol"),
        (["--tol", "0.01", "--h-min", "-0.1"], "h_min"),
    ], ids=["tol-nan", "tol-inf", "negative-h-min"])
    def test_non_finite_or_non_positive_budget_is_a_usage_error(self, tmp_path, lg_config,
                                                                 capsys, argv, name):
        if name == "tol":  # a linear-Gaussian pilot
            pilot = str(tmp_path / "pilot.json")
            assert main(["pilot", lg_config, "--outer-ladder", "32,128,512", "--inner-ladder",
                         "16,64", "--S", "8", "--R", "8", "--out", pilot]) == 0
        else:  # a synthetic pilot with eta = 1.5, whose h_min**eta is complex at h_min < 0
            pilot = str(tmp_path / "syn_pilot.json")
            cfg = _write(tmp_path, "syn.cfg", SYN_CFG + "synthetic.eta = 1.5\n")
            assert main(["pilot", cfg, "--outer-ladder", "32,128,512", "--inner-ladder",
                         "16,64", "--S", "8", "--R", "8", "--out", pilot]) == 0
        capsys.readouterr()
        out = tmp_path / "plan.json"
        assert main(["plan", "--pilot", pilot, *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be positive and finite")
        assert not out.exists()

    def test_infeasible_exit_code(self, tmp_path):
        pilot = _write(tmp_path, "pilot.json", json.dumps({
            "c_q1": 1.0, "beta": 0.5, "c_q2": 0.5, "c_q3": 1.0, "delta": 0.5,
            "c_disc": 1.0, "eta": 2.0, "gamma": 2.0, "metadata": {},
        }))
        rc = main(["plan", "--pilot", pilot, "--tol", "0.001", "--h-min", "0.5",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 3


@pytest.mark.parametrize("error, code, prefix", [
    (InfeasiblePlanError("no plan", binding="inner-bias"), 3, "infeasible: "),
    (FitQualityError("noisy ladder"), 4, "numerical failure: "),
    (MapConvergenceError("no mode"), 4, "numerical failure: "),
    (LaplaceFitError("not positive definite"), 4, "numerical failure: "),
    (InnerUnderflowError("inner mean <= 0"), 4, "numerical failure: "),
    (ArithmeticError("overflow"), 4, "numerical failure: "),
    (ConfigError("bad key"), 2, "error: "),
    (ValueError("bad value"), 2, "error: "),
    (FileNotFoundError("no such file"), 2, "error: "),
])
def test_exit_code_and_message_per_error(monkeypatch, capsys, error, code, prefix):
    def fail(args):
        raise error

    monkeypatch.setattr(nestiq.cli, "cmd_plan", fail)
    rc = main(["plan", "--pilot", "pilot.json", "--tol", "0.01", "--out", "plan.json"])
    assert rc == code
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize("argv", [
    ["plan", "--pilot", "{dir}", "--tol", "0.01", "--out", "{tmp}/plan.json"],
    ["estimate", "{dir}", "--N", "4", "--M", "1", "--out", "{tmp}/res.json"],
    ["estimate", "{cfg}", "--N", "4", "--M", "1", "--out", "{dir}"],
], ids=["pilot-file", "config-file", "out-file"])
def test_directory_path_is_a_usage_error(tmp_path, lg_config, capsys, argv):
    # an input or output path that names a directory cannot be opened
    folder = tmp_path / "folder"
    folder.mkdir()
    paths = {"dir": str(folder), "tmp": str(tmp_path), "cfg": lg_config}
    assert main([a.format(**paths) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["pilot", "estimate", "sweep"])
@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_refused_before_any_work(tmp_path, lg_config, pilot_file, capsys,
                                                monkeypatch, command, where):
    def refused(*args, **kwargs):
        raise AssertionError("the run started")

    import nestiq.allocation
    import nestiq.estimators

    monkeypatch.setattr(nestiq.estimators, "_nested_values", refused)
    monkeypatch.setattr(nestiq.allocation, "_nested_values", refused)
    folder = tmp_path / "folder"
    folder.mkdir()
    out = folder if where == "directory" else tmp_path / "missing" / "out.json"
    argv = {
        "pilot": ["pilot", lg_config],
        "estimate": ["estimate", lg_config, "--N", "64", "--M", "4"],
        "sweep": ["sweep", lg_config, "--pilot", pilot_file, "--tols", "0.05"],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and err.count("\n") == 1
    assert list(folder.iterdir()) == [] and not (tmp_path / "missing").exists()


_PLAN = {"n_star": 64, "m_star": 4, "h_star": None, "constants": {
    "c_q1": 1.0, "beta": 0.5, "c_q2": 0.5, "c_q3": 0.25, "delta": 0.5}}


def _plan_text(**changes):
    """A plan file's text with some fields changed; json writes NaN and Infinity."""
    return json.dumps(_PLAN | changes)


def _bad_plan(field, value):
    if field.startswith("c_"):
        return _plan_text(constants=_PLAN["constants"] | {field: value})
    return _plan_text(**{field: value})


@pytest.mark.parametrize("command, text", [
    ("plan", '{"beta": 0.5}'),  # lacks the other constants
    ("plan", "[1]"),  # not an object
    ("sweep", "[1]"),
    ("estimate", '{"n_star": 64}'),  # lacks m_star and the constants
    pytest.param("plan", "not json", id="plan-not-json"),
    pytest.param("estimate", "not json", id="estimate-not-json"),
    pytest.param("plan", json.dumps(_PLAN["constants"] | {"c_q1": math.nan}), id="plan-c_q1-nan"),
    pytest.param("sweep", json.dumps(_PLAN["constants"] | {"c_q2": math.inf}), id="sweep-c_q2-inf"),
    # N* and M* must be positive integers, h* null or a positive finite number
    *(pytest.param("estimate", _bad_plan(field, value), id=f"estimate-{field}-{value!r}")
      for field, value in [
          ("n_star", "x"), ("n_star", 4.5), ("n_star", -4), ("n_star", [4]),
          ("n_star", True), ("m_star", "x"), ("m_star", 0), ("m_star", False),
          ("h_star", "x"), ("h_star", 0), ("h_star", -0.5), ("h_star", math.inf),
          ("h_star", True), ("c_q1", math.nan), ("c_q2", math.inf),
      ]),
])
def test_malformed_pilot_or_plan_file_is_a_config_error(tmp_path, lg_config, capsys,
                                                        command, text):
    path = _write(tmp_path, "in.json", text)
    out = tmp_path / "out.json"
    argv = {
        "plan": ["plan", "--pilot", path, "--tol", "0.01"],
        "sweep": ["sweep", lg_config, "--pilot", path, "--tols", "0.01"],
        "estimate": ["estimate", lg_config, "--plan", path],
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {'plan' if command == 'estimate' else 'pilot'} file {path}")
    assert not out.exists()


@pytest.mark.parametrize("counts", [["--N", "64"], ["--M", "4"], ["--N", "64", "--M", "4"]])
def test_plan_with_explicit_counts_is_a_usage_error(tmp_path, lg_config, capsys, counts):
    plan = _write(tmp_path, "plan.json", _plan_text())
    out = tmp_path / "res.json"
    assert main(["estimate", lg_config, "--plan", plan, *counts, "--out", str(out)]) == 2
    assert "--plan sets N and M" in capsys.readouterr().err
    assert not out.exists()
    assert main(["estimate", lg_config, "--plan", plan, "--out", str(out)]) == 0


class TestEstimateCommand:
    def test_estimate_near_conjugate_truth(self, tmp_path, lg_config, pilot_file):
        plan_out = str(tmp_path / "plan.json")
        main(["plan", "--pilot", pilot_file, "--tol", "0.02", "--out", plan_out])
        out = str(tmp_path / "res.json")
        rc = main(["estimate", lg_config, "--plan", plan_out, "--S", "8", "--out", out])
        assert rc == 0
        res = json.loads(Path(out).read_text())
        assert abs(res["estimate"] - 0.5 * math.log(2)) < 6 * res["stderr"]
        assert res["seed"] == 7
        assert len(res["config_hash"]) == 64

    def test_predicted_error_from_plan(self, tmp_path, lg_config, pilot_file):
        plan_out = str(tmp_path / "plan.json")
        main(["plan", "--pilot", pilot_file, "--tol", "0.02", "--out", plan_out])
        plan = json.loads(Path(plan_out).read_text())
        consts = PilotConstants(**plan["constants"])
        n, m, h = plan["n_star"], plan["m_star"], plan["h_star"]
        for s in (1, 4):
            out = str(tmp_path / f"res{s}.json")
            assert main(["estimate", lg_config, "--plan", plan_out, "--S", str(s),
                         "--out", out]) == 0
            res = json.loads(Path(out).read_text())
            assert res["predicted_stddev"] == math.sqrt(_stat_variance(consts, n, m))
            assert res["predicted_bias"] == _bias_value(consts, m, h)
            assert (res["stderr"] is None) == (s == 1)
        out = str(tmp_path / "res_nm.json")
        assert main(["estimate", lg_config, "--N", "64", "--M", "4", "--out", out]) == 0
        res = json.loads(Path(out).read_text())
        assert res["predicted_stddev"] is None and res["predicted_bias"] is None

    def test_counts_passthrough(self, tmp_path, lg_config):
        out = str(tmp_path / "res.json")
        rc = main(["estimate", lg_config, "--N", "64", "--M", "4", "--S", "2",
                   "--R", "3", "--out", out])
        assert rc == 0
        res = json.loads(Path(out).read_text())
        assert res["counts"] == {"N": 64, "M": 4, "S": 2, "R": 3}
        assert res["work"] == 64 * 4 * 2 * 3
        dlmc = _write(tmp_path, "dlmc.cfg", LG_CFG.replace("rdlqmcis", "dlmc"))
        rc = main(["estimate", dlmc, "--N", "64", "--M", "4", "--S", "1",
                   "--R", "1", "--out", out])
        assert rc == 0
        assert json.loads(Path(out).read_text())["counts"] == {"N": 64, "M": 4, "S": 1, "R": 1}

    def test_laplace_estimator_has_no_inner_count(self, tmp_path):
        cfg = _write(tmp_path, "la.cfg", LG_CFG.replace("rdlqmcis", "mcla"))
        out = str(tmp_path / "res.json")
        rc = main(["estimate", cfg, "--N", "2048", "--out", out])
        assert rc == 0
        res = json.loads(Path(out).read_text())
        assert "M" not in res["counts"]

    @pytest.mark.parametrize("estimator, message", [
        ("mcla", "N must be >= 1, got 0"),
        ("rqmcla", "N must be a power of two, got 0"),
    ])
    def test_laplace_estimator_refuses_empty_sample(self, tmp_path, estimator, message, capsys):
        cfg = _write(tmp_path, "la.cfg", LG_CFG.replace("rdlqmcis", estimator))
        out = tmp_path / "res.json"
        rc = main(["estimate", cfg, "--N", "0", "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_variance_is_a_usage_error(self, tmp_path, capsys, value):
        cfg = _write(tmp_path, "bad.cfg", LG_CFG.replace("noise.variance = 1.0",
                                                         f"noise.variance = {value}"))
        out = tmp_path / "x.json"
        assert main(["estimate", cfg, "--N", "64", "--M", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: noise variances must be positive and finite")
        assert not out.exists()

    def test_missing_counts_usage_error(self, tmp_path, lg_config):
        rc = main(["estimate", lg_config, "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_nested_estimator_needs_an_inner_count(self, tmp_path, lg_config, capsys):
        out = tmp_path / "x.json"
        assert main(["estimate", lg_config, "--N", "64", "--out", str(out)]) == 2
        assert "estimator rdlqmcis needs an inner count M" in capsys.readouterr().err
        assert not out.exists()

    def test_plain_pk_estimate_completes_in_log_space(self, tmp_path):
        # the plain nested estimator on the drug model has inner likelihoods
        # far below the smallest double, but every CLI integrand is in log
        # form, so its inner mean is a log-sum-exp and the run completes
        cfg = _write(tmp_path, "pk.cfg", "model = pk\nestimator = dlmc\nseed = 1\n")
        out = str(tmp_path / "res.json")
        rc = main(["estimate", cfg, "--N", "8", "--M", "4", "--out", out])
        assert rc == 0


class TestSweepCommand:
    def test_rows_and_columns(self, tmp_path, lg_config, pilot_file):
        out = str(tmp_path / "sweep.csv")
        rc = main(["sweep", lg_config, "--pilot", pilot_file,
                   "--tols", "0.1,0.05,0.025", "--out", out])
        assert rc == 0
        lines = Path(out).read_text().splitlines()
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
        assert Path(out).read_text().count("\n") == 1

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
        lines = Path(out).read_text().splitlines()
        first, second = lines[1].split(","), lines[2].split(",")
        assert first[-1] == ""
        assert second[-1] != ""


_CONSTANTS = {"c_q1", "beta", "c_q2", "c_q3", "delta", "c_disc", "eta", "gamma"}
_OUTER_META = {"estimator", "outer_ladder", "outer_variances", "outer_residual",
               "outer_top_eig", "outer_top_stderr", "S", "seed", "config_hash"}
_INNER_META = {"inner_ladder", "inner_variances", "inner_residual", "R",
               "m_fixed", "n_fixed"}


class TestFileSchemas:
    """Each result file's exact keys: a field added to or dropped from
    PilotConstants, AllocationPlan or EstimatorResult changes a file only
    on purpose."""

    def test_pilot_plan_estimate_and_sweep_keys(self, tmp_path, lg_config, pilot_file):
        pilot = json.loads(Path(pilot_file).read_text())
        assert set(pilot) == _CONSTANTS | {"metadata"}
        assert set(pilot["metadata"]) == _OUTER_META | _INNER_META
        plan_out, est_out = str(tmp_path / "plan.json"), str(tmp_path / "est.json")
        assert main(["plan", "--pilot", pilot_file, "--tol", "0.02", "--out", plan_out]) == 0
        plan = json.loads(Path(plan_out).read_text())
        assert set(plan) == {
            "tol", "alpha", "c_alpha", "kappa_star", "n_star", "m_star", "h_star",
            "predicted_work", "n_raw", "m_raw", "constants", "config_hash", "seed",
        }
        assert set(plan["constants"]) == _CONSTANTS
        est_keys = {
            "estimator", "model", "estimate", "stderr", "predicted_stddev",
            "predicted_bias", "variance_of_mean", "counts", "work", "seed",
            "config_hash", "h",
        }
        for counts in (["--plan", plan_out], ["--N", "64", "--M", "4", "--S", "2"]):
            assert main(["estimate", lg_config, *counts, "--out", est_out]) == 0
            assert set(json.loads(Path(est_out).read_text())) == est_keys
        sweep_out = str(tmp_path / "sweep.csv")
        assert main(["sweep", lg_config, "--pilot", pilot_file, "--tols", "0.1",
                     "--out", sweep_out]) == 0
        with open(sweep_out) as fh:
            assert fh.readline() == (
                "tol,kappa_star,N_star,M_star,h_star,predicted_work,"
                "estimate,stderr,realized_work,seed,error\n"
            )

    def test_laplace_pilot_has_no_inner_metadata(self, tmp_path):
        cfg = _write(tmp_path, "mcla.cfg", LG_CFG.replace("rdlqmcis", "mcla"))
        out = str(tmp_path / "pilot.json")
        assert main(["pilot", cfg, "--outer-ladder", "32,128,512", "--S", "8",
                     "--out", out]) == 0
        pilot = json.loads(Path(out).read_text())
        assert set(pilot) == _CONSTANTS | {"metadata"}
        assert set(pilot["metadata"]) == _OUTER_META


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
                outs.append(Path(out).read_bytes())
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
        data = json.loads(Path(out).read_text())
        assert 0.0 <= data["beta"] <= 1.0
        assert 0.0 <= data["delta"] <= 1.0
        assert data["metadata"]["seed"] == 5
