"""Experiment configuration: flat dotted-key text format and problem wiring.

A config is a text file of ``key = value`` lines (``#`` comments allowed).
Keys are schema-validated and unknown keys are rejected; the canonical form
(sorted keys, normalized spacing) is hashed into every result file so runs
are traceable to their exact inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .lds import RandomizationKey
from .models import LinearGaussianModel, PKModel, SyntheticDiscretizedModel, pk_designs, pk_prior
from .oed import OEDProblem, _eig
from .stats import PriorComponent, PriorSpec, TruncationSetting

__all__ = ["ConfigError", "ExperimentConfig", "ESTIMATOR_IDS"]


class ConfigError(ValueError):
    pass


# estimator id -> (family, sampler): iid points for the MC ids, scrambled
# Sobol for the others; mc and rqmc are the plain nested dlmc and rdlqmc
_ESTIMATORS = {
    "mc": ("plain", "mc"), "rqmc": ("plain", "rqmc-sobol-owen"),
    "dlmc": ("plain", "mc"), "dlmcis": ("is", "mc"),
    "rdlqmc": ("plain", "rqmc-sobol-owen"), "rdlqmcis": ("is", "rqmc-sobol-owen"),
    "mcla": ("laplace", "mc"), "rqmcla": ("laplace", "rqmc-sobol-owen"),
}
ESTIMATOR_IDS = tuple(_ESTIMATORS)
_MODELS = ("pk", "linear_gaussian", "synthetic")

# key -> (type, default); None default means "required" or model-conditional
_SCHEMA = {
    "model": ("str", None),
    "estimator": ("str", None),
    "seed": ("int", 0),
    "design": ("str", "geom"),
    "n_experiments": ("int", 1),
    "noise.variance": ("float", None),
    "noise.variances": ("floats", None),
    "truncation.enabled": ("bool", False),
    "truncation.p": ("float", 1.0),
    "truncation.tol": ("float", 1e-3),
    "pk.dose": ("float", 400.0),
    "pk.prior_scale": ("str", "variance"),
    "linear_gaussian.jacobian": ("floats", [1.0]),
    "linear_gaussian.prior_variance": ("floats", [1.0]),
    "linear_gaussian.prior_mean": ("floats", [0.0]),
    "synthetic.d_theta": ("int", 1),
    "synthetic.c_disc": ("float", 1.0),
    "synthetic.eta": ("float", 2.0),
    "synthetic.gamma": ("float", 2.0),
    "synthetic.h": ("float", 0.25),
    "synthetic.xi": ("floats", [0.5, 1.0]),
}


def _parse_value(kind: str, raw: str, key: str):
    raw = raw.strip()
    try:
        if kind == "str":
            return raw
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "floats":
            return [float(t) for t in raw.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind}")
    raise ConfigError(f"unknown schema kind {kind}")


def parse_config_text(text: str) -> dict:
    """Raw key -> string mapping from dotted-key config text."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


@dataclass
class ExperimentConfig:
    """Validated experiment description with a canonical hash."""

    values: dict
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        raw = parse_config_text(text)
        unknown = sorted(set(raw) - set(_SCHEMA))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        values = {}
        for key, (kind, default) in _SCHEMA.items():
            if key in raw:
                values[key] = _parse_value(kind, raw[key], key)
            else:
                values[key] = default
        cfg = cls(values=values, raw=raw)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def validate(self):
        v = self.values
        if v["model"] not in _MODELS:
            raise ConfigError(f"model must be one of {_MODELS}, got {v['model']!r}")
        if v["estimator"] not in ESTIMATOR_IDS:
            raise ConfigError(
                f"estimator must be one of {ESTIMATOR_IDS}, got {v['estimator']!r}"
            )
        if v["n_experiments"] < 1:
            raise ConfigError("n_experiments must be >= 1")
        if v["noise.variance"] is not None and v["noise.variances"] is not None:
            raise ConfigError("noise.variance and noise.variances are both set; give one")
        if v["pk.prior_scale"] not in ("variance", "stddev"):
            raise ConfigError("pk.prior_scale must be 'variance' or 'stddev'")
        if v["model"] == "pk" and v["design"] not in ("geom", "even") and not self._design_vector():
            raise ConfigError("pk design must be geom, even, or a comma list of times")

    def _design_vector(self):
        d = self.values["design"]
        if d in ("geom", "even"):
            return None
        try:
            return [float(t) for t in d.replace(",", " ").split()]
        except ValueError:
            return None

    def canonical_text(self) -> str:
        lines = [f"{k} = {self.raw[k]}" for k in sorted(self.raw)]
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

    @property
    def seed(self) -> int:
        return self.values["seed"]

    @property
    def estimator(self) -> str:
        return self.values["estimator"]

    def discretization(self) -> dict:
        """The synthetic model's c_disc, eta and gamma as PilotConstants
        keyword arguments; the other models are not discretized, so {}."""
        if self.values["model"] != "synthetic":
            return {}
        return {k: self.values[f"synthetic.{k}"] for k in ("c_disc", "eta", "gamma")}

    # -- problem construction ------------------------------------------------

    def _noise_variances(self, d_y: int) -> np.ndarray:
        v = self.values
        if v["noise.variances"] is not None:
            arr = np.asarray(v["noise.variances"], dtype=np.float64)
            if arr.size != d_y:
                raise ConfigError(
                    f"noise.variances must have {d_y} entries, got {arr.size}"
                )
            return arr
        scalar = v["noise.variance"]
        if scalar is None:
            scalar = 0.01 if v["model"] == "pk" else 1.0
        return np.full(d_y, float(scalar))

    def build_problem(self, h: float | None = None) -> OEDProblem:
        v = self.values
        truncation = TruncationSetting(
            enabled=v["truncation.enabled"], p=v["truncation.p"], tol=v["truncation.tol"]
        )
        if v["model"] == "pk":
            geom, even = pk_designs()
            xi = {"geom": geom, "even": even}.get(v["design"])
            if xi is None:
                xi = np.asarray(self._design_vector(), dtype=np.float64)
            model = PKModel(dose=v["pk.dose"])
            prior = pk_prior(v["pk.prior_scale"])
            noise = self._noise_variances(len(xi))
            return OEDProblem(
                model=model, xi=xi, prior=prior, noise_variances=noise,
                n_experiments=v["n_experiments"], truncation=truncation,
            )
        if v["model"] == "linear_gaussian":
            jac = np.asarray(v["linear_gaussian.jacobian"], dtype=np.float64)
            matrix = np.diag(jac) if jac.size > 1 else jac.reshape(1, 1)
            model = LinearGaussianModel(matrix=matrix)
            means = np.resize(v["linear_gaussian.prior_mean"], model.d_theta)
            variances = np.resize(v["linear_gaussian.prior_variance"], model.d_theta)
            prior = PriorSpec(
                components=tuple(
                    PriorComponent("normal", float(m), math.sqrt(float(s)))
                    for m, s in zip(means, variances)
                )
            )
            noise = self._noise_variances(model.d_y)
            return OEDProblem(
                model=model, xi=np.zeros(0), prior=prior, noise_variances=noise,
                n_experiments=v["n_experiments"], truncation=truncation,
            )
        # synthetic
        model = SyntheticDiscretizedModel(
            d_theta=v["synthetic.d_theta"],
            c_disc=v["synthetic.c_disc"],
            eta=v["synthetic.eta"],
            gamma=v["synthetic.gamma"],
        )
        xi = np.asarray(v["synthetic.xi"], dtype=np.float64)
        prior = PriorSpec(
            components=tuple(
                PriorComponent("uniform", 0.0, 1.0) for _ in range(model.d_theta)
            )
        )
        noise = self._noise_variances(len(xi))
        level = h if h is not None else v["synthetic.h"]
        return OEDProblem(
            model=model, xi=xi, prior=prior, noise_variances=noise,
            n_experiments=v["n_experiments"], truncation=truncation, h=level,
        )

    # -- estimator dispatch --------------------------------------------------

    def family_and_sampler(self) -> tuple[str, str]:
        """The estimator id's (family, sampler) pair."""
        return _ESTIMATORS[self.estimator]

    def run_estimator(
        self,
        N: int,
        M: int | None,
        S: int,
        R: int,
        key: RandomizationKey,
        h: float | None = None,
    ):
        problem = self.build_problem(h=h)
        family, sampler = self.family_and_sampler()
        if family == "laplace":
            # one inner point; under Sobol two randomizations at least, for a stderr
            M, R = 1, 1
            S = max(S, 2) if sampler != "mc" else S
        elif M is None:
            raise ConfigError(f"estimator {self.estimator} needs an inner count M")
        return _eig(problem, family, N, M, S, R, sampler, key)
