"""The benchmark's tracer patches nestiq entry points by name and reads some of
their arguments by position; a rename or a moved argument would turn its
per-layer metrics into "unmeasured".  bench/layers.py is read, never imported,
so this check leaves no file under bench/."""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from nestiq.lds import RandomizationKey
from nestiq.models import PKModel, pk_designs, pk_prior
from nestiq.oed import OEDProblem, _map_batch, _noise_values

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _entry_points():
    namespace = {"__name__": "bench_layers"}
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), namespace)
    return [entry for entry, *_ in namespace["_SPANS"] + namespace["_CUSTOM"]]


def _resolve(entry):
    module, attr = entry.split(":")
    obj = importlib.import_module(module)
    for name in attr.split("."):
        obj = getattr(obj, name)
    return obj


def _params(entry):
    return list(inspect.signature(_resolve(entry)).parameters)


@pytest.mark.parametrize("entry", _entry_points())
def test_entry_point_resolves(entry):
    assert callable(_resolve(entry))


def test_argument_positions_the_counters_read():
    # estimators.inner_evals reads x as the third argument
    assert _params("nestiq.estimators:_outer_values")[:3] == ["problem", "y", "x"]
    # every chunk span wraps fn, the first of exactly two arguments
    assert _params("nestiq.estimators:_map_ordered") == ["fn", "items"]
    # models.*_rows read theta as args[1] of the method (after self)
    for method in ("evaluate", "jacobian"):
        assert _params(f"nestiq.models:PKModel.{method}")[:2] == ["self", "theta"]
    # the oed.laplace span wraps the Laplace factor of a batch of modes
    assert _params("nestiq.oed:_laplace_batch")[:2] == ["problem", "theta_hat"]


def test_map_batch_result_the_counters_unpack():
    # oed.map_rows and oed.map_iters_* unpack the result as (theta, iters)
    problem = OEDProblem(model=PKModel(), xi=pk_designs()[0], prior=pk_prior("variance"),
                         noise_variances=np.full(15, 0.01))
    u = RandomizationKey(5).uniforms((8, problem.d_outer), salt="map")
    theta = problem.prior.transform(u[:, :3])
    g = problem.model.evaluate(theta, problem.xi)
    y_data = g[:, None, :] + _noise_values(problem, u[:, 3:])
    result = _map_batch(problem, y_data, theta)
    assert isinstance(result, tuple) and len(result) == 2
    theta_hat, iters = result
    assert theta_hat.shape == (8, 3)
    assert iters.shape == (8,) and np.issubdtype(iters.dtype, np.integer)
