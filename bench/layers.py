"""nestiq's layer entry points, and the per-layer metrics built from their spans.

Every ``<layer>.<x>_s`` metric is a self time: the span's duration minus the
time covered by the spans of other entry points it called.  The ``*_total_s``
metrics are inclusive durations.  Together with the root span's self time
(``trace.unattributed_s``) the self times add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import importlib

import numpy as np

ROOT = "trace.root"


def _model_rows(name):
    def counter(tracer, args, kwargs, result):
        theta = args[1] if len(args) > 1 else kwargs["theta"]
        tracer.count(name, np.atleast_2d(theta).shape[0])

    return counter


def _scramble(tracer, args, kwargs, result):
    tracer.count("lds.scramble_calls", 1)
    tracer.count("lds.scramble_coords", np.size(result))


def _inv_norm(tracer, args, kwargs, result):
    tracer.count("stats.inv_norm_values", np.size(args[0]))


def _map(tracer, args, kwargs, result):
    theta, iters = result
    iters = np.asarray(iters)
    tracer.count("oed.map_rows", np.shape(theta)[0])
    tracer.count("oed.map_iter_sum", int(iters.sum()))
    tracer.peak("oed.map_iters_max", int(iters.max()))


def _inner_evals(tracer, args, kwargs, result):
    x = args[2]  # (B, K, d2) inner block
    tracer.count("estimators.inner_evals", x.shape[0] * x.shape[1])


def _traced_integrand(tracer):
    """build_nested_problem returns a problem whose inner integrand gets a span."""
    entry = "nestiq.oed:build_nested_problem"

    def make(original):
        def traced(*args, **kwargs):
            nested = original(*args, **kwargs)
            inner = getattr(nested, "inner", None)
            if inner is None:
                tracer.unmeasured.add(entry)
                return nested
            try:
                nested.inner = lambda *a, **k: tracer.call("oed.integrand", inner, *a, **k)
            except (AttributeError, TypeError):  # the problem type became immutable
                tracer.unmeasured.add(entry)
            return nested

        return traced

    return make


def _traced_chunks(tracer):
    """_map_ordered(fn, items) runs every chunk task inside its own span."""
    entry = "nestiq.estimators:_map_ordered"

    def make(original):
        def traced(*args, **kwargs):
            if not (args and callable(args[0])):  # the signature changed
                tracer.unmeasured.add(entry)
                return original(*args, **kwargs)
            fn = args[0]

            def chunk(item):
                tracer.count("estimators.chunks", 1)
                return tracer.call("estimators.chunk", fn, item)

            return original(chunk, *args[1:], **kwargs)

        return traced

    return make


# entry point, span, counter, metrics that read 0 without the entry point
_SPANS = [
    ("nestiq.lds:_scramble_values", "lds.scramble", _scramble,
     ("lds.scramble_s", "lds.scramble_calls", "lds.scramble_coords", "lds.scramble_ns_per_coord")),
    ("nestiq.lds:_owen_lanes", "lds.scramble", None, ()),
    ("nestiq.lds:owen_scramble", "lds.scramble", None, ()),
    ("nestiq.lds:sobol_sequence", "lds.sobol", None, ("lds.sobol_s",)),
    ("nestiq.stats:inv_norm_cdf", "stats.inv_norm", _inv_norm,
     ("stats.inv_norm_s", "stats.inv_norm_values")),
    ("nestiq.stats:log_sum_exp", "stats.lse", None, ("stats.lse_s",)),
    ("nestiq.models:PKModel.evaluate", "models.evaluate", _model_rows("models.evaluate_rows"),
     ("models.evaluate_s", "models.evaluate_rows")),
    ("nestiq.models:PKModel.jacobian", "models.jacobian", _model_rows("models.jacobian_rows"),
     ("models.jacobian_s", "models.jacobian_rows")),
    ("nestiq.oed:_map_batch", "oed.map", _map,
     ("oed.map_s", "oed.map_calls", "oed.map_rows", "oed.map_iters_mean", "oed.map_iters_max")),
    ("nestiq.oed:_laplace_batch", "oed.laplace", None, ("oed.laplace_s",)),
    ("nestiq.oed:_batch_loglik", "oed.loglik", None, ("oed.loglik_s",)),
    ("nestiq.estimators:_outer_values", "estimators.outer_values", _inner_evals,
     ("estimators.inner_evals", "estimators.ns_per_inner_eval")),
    ("nestiq.estimators:_outer_points", "estimators.points", None, ()),
    ("nestiq.estimators:_inner_blocks", "estimators.points", None, ()),
    ("nestiq.allocation:fit_pilot_outer", "allocation.pilot_outer", None,
     ("allocation.pilot_outer_s", "allocation.pilot_outer_total_s")),
    ("nestiq.allocation:fit_pilot_inner", "allocation.pilot_inner", None,
     ("allocation.pilot_inner_s", "allocation.pilot_inner_total_s")),
    ("nestiq.allocation:solve_allocation", "allocation.solve", None, ("allocation.solve_s",)),
    ("nestiq.cli:cmd_pilot", "cli.pilot", None, ("cli.pilot_s", "cli.pilot_total_s")),
    ("nestiq.cli:cmd_plan", "cli.plan", None, ("cli.plan_s",)),
    ("nestiq.cli:cmd_estimate", "cli.estimate", None, ("cli.estimate_s", "cli.estimate_total_s")),
]
_CUSTOM = [
    ("nestiq.oed:build_nested_problem", _traced_integrand, ("oed.integrand_s",)),
    ("nestiq.estimators:_map_ordered", _traced_chunks, ("estimators.chunks",)),
]
_NEEDS = {entry: fed for entry, *_, fed in _SPANS + _CUSTOM}


def install(tracer):
    """Patch every entry point; the caller must call tracer.restore()."""
    # import first, so that names bound by ``from .x import y`` are originals
    # found and patched, not wrappers that restore() would never see
    for entry, *_ in _SPANS + _CUSTOM:
        with contextlib.suppress(ImportError):  # wrap() marks it unmeasured
            importlib.import_module(entry.split(":")[0])
    for entry, span, counter, _ in _SPANS:
        tracer.wrap(entry, tracer.span_wrapper(entry, span, counter))
    for entry, make, _ in _CUSTOM:
        tracer.wrap(entry, make(tracer))


def unmeasured_metrics(tracer):
    """Metrics that read 0 because their entry point was missing or unreadable."""
    return sorted({m for entry in tracer.unmeasured for m in _NEEDS.get(entry, ())})


# metric -> spans whose self time it sums
_SELF_TIMES = {
    "lds.scramble_s": ["lds.scramble"],
    "lds.sobol_s": ["lds.sobol"],
    "stats.inv_norm_s": ["stats.inv_norm"],
    "stats.lse_s": ["stats.lse"],
    "models.evaluate_s": ["models.evaluate"],
    "models.jacobian_s": ["models.jacobian"],
    "oed.map_s": ["oed.map"],
    "oed.laplace_s": ["oed.laplace"],
    "oed.loglik_s": ["oed.loglik"],
    "oed.integrand_s": ["oed.integrand"],
    "estimators.chunk_self_s": ["estimators.chunk", "estimators.outer_values", "estimators.points"],
    "allocation.pilot_outer_s": ["allocation.pilot_outer"],
    "allocation.pilot_inner_s": ["allocation.pilot_inner"],
    "allocation.solve_s": ["allocation.solve"],
    "cli.pilot_s": ["cli.pilot"],
    "cli.plan_s": ["cli.plan"],
    "cli.estimate_s": ["cli.estimate"],
}
_TOTAL_TIMES = {
    "allocation.pilot_outer_total_s": "allocation.pilot_outer",
    "allocation.pilot_inner_total_s": "allocation.pilot_inner",
    "cli.pilot_total_s": "cli.pilot",
    "cli.estimate_total_s": "cli.estimate",
}
_COUNTS = (
    "lds.scramble_calls", "lds.scramble_coords", "stats.inv_norm_values",
    "models.evaluate_rows", "models.jacobian_rows", "oed.map_rows",
    "estimators.chunks", "estimators.inner_evals",
)


def metrics(tracer, traced_wall, untraced_wall, thread_speedup):
    """Per-layer metrics of one traced iteration, as name -> (value, unit)."""
    out = {}
    for name, spans in _SELF_TIMES.items():
        out[name] = (sum(tracer.self_s[s] for s in spans), "s")
    for name, span in _TOTAL_TIMES.items():
        out[name] = (tracer.total_s[span], "s")
    for name in _COUNTS:
        out[name] = (int(tracer.counts[name]), "count")
    coords = tracer.counts["lds.scramble_coords"]
    out["lds.scramble_ns_per_coord"] = (
        1e9 * out["lds.scramble_s"][0] / coords if coords else 0.0, "ns")
    rows = tracer.counts["oed.map_rows"]
    out["oed.map_calls"] = (tracer.calls["oed.map"], "count")
    out["oed.map_iters_mean"] = (tracer.counts["oed.map_iter_sum"] / rows if rows else 0.0, "count")
    out["oed.map_iters_max"] = (int(tracer.peaks["oed.map_iters_max"]), "count")
    evals = tracer.counts["estimators.inner_evals"]
    out["estimators.ns_per_inner_eval"] = (1e9 * untraced_wall / evals if evals else 0.0, "ns")
    out["estimators.thread_speedup"] = (thread_speedup, "ratio")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.unattributed_s"] = (tracer.self_s[ROOT], "s")
    out["trace_overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "frac")
    return out
