"""Experiment configuration: JSON file -> validated ExperimentConfig.

The schema is a fixed key tree; unknown keys are rejected so typos fail
fast instead of silently falling back to defaults. Numeric fields are
finite numbers, or the string "auto" where a resolution-dependent default
exists.
"""

import copy
import json
from dataclasses import dataclass

from .chains import default_chain_parameters
from .errors import ArtifactError, ConfigError
from .grid import GridTorus, build_grid
from .kernel import ActionKernel, build_kernel
from .models import Lagrangian, VectorField, _finite, make_lagrangian, make_vector_field


DEFAULTS = {
    "model": {"family": "kinetic"},
    "grid": {"dim": 1, "n": 256},
    "kernel": {"tau": "auto", "stencil_radius": "auto"},
    "solver": {"tol": 1e-9},
    "aubry": {"eta_mode": "auto", "merge_threshold": "auto"},
    "dynamics": {"dt": "auto", "eps": "auto", "substeps": 4},
    "regularizer": {"stages": 4},
    "ferry": {"points": None, "p": 2.0},
    "outputs": {"directory": "out", "formats": ["csv", "json"]},
    "seed": 0,
}

# the keys of each section, and of the model's potential and field maps;
# the model's are unions over the families, whose builders check the values
_KEYS = {key: set(val) for key, val in DEFAULTS.items() if isinstance(val, dict)}
_KEYS.update(model={"family", "potential", "field"}, potential={"name", "k", "amp"},
             field={"name", "k", "components", "potential", "path"})


def _merged(user: dict) -> dict:
    """The defaults updated with user, unknown keys kept for validate to
    reject, so that a run records them in its manifest."""
    cfg = copy.deepcopy(DEFAULTS)
    for key, val in user.items():
        if isinstance(cfg.get(key), dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config section {key!r} must be a mapping")
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


def _numeric(section: dict, key: str, where: str, minimum=None, auto_ok=False,
             integer=False, maximum=None):
    """section[key], a finite number (an integer, when integer is set: a
    bool or an integral float such as 16.0 is none) within [minimum,
    maximum], or "auto" when auto_ok."""
    val = section[key]
    if auto_ok and val == "auto":
        return "auto"
    if not _finite(val) or integer and not isinstance(val, int):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{where}.{key} must be {kind}, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise ConfigError(f"{where}.{key} must be <= {maximum}, got {val}")
    return val


@dataclass
class ExperimentConfig:
    raw: dict

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, user: dict) -> "ExperimentConfig":
        cfg = cls(raw=_merged(user))
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        cfg = cls.read(path)
        cfg.validate()
        return cfg

    @classmethod
    def read(cls, path) -> "ExperimentConfig":
        """The config in a JSON file, merged with the defaults but not yet
        validated: run_pipeline validates it, so that a bad value is
        recorded in the run's manifest."""
        try:
            with open(path) as f:
                text = f.read()
        except OSError as e:
            raise ArtifactError(f"cannot read config {path}: {e}") from e
        try:
            user = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
        if not isinstance(user, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls(raw=_merged(user))

    def validate(self):
        r = self.raw
        for key in r:
            if key not in DEFAULTS:
                raise ConfigError(
                    f"unknown config key {key!r}; expected one of {sorted(DEFAULTS)}")
        model = r["model"]
        field = model["field"] if isinstance(model.get("field"), dict) else {}
        maps = {**r, "model.potential": model.get("potential"), "model.field": field,
                "model.field.potential": field.get("potential")}
        for where, val in maps.items():
            # a model map that is no mapping is left to its builder's type check
            bad = sorted(set(val) - _KEYS[where.split(".")[-1]]) if isinstance(val, dict) else []
            if bad:
                raise ConfigError(f"unknown keys in config section {where!r}: {bad}")
        self.outputs()
        g = r["grid"]
        if isinstance(g["dim"], (bool, float)) or g["dim"] not in (1, 2):
            raise ConfigError(f"grid.dim must be 1 or 2, got {g['dim']!r}")
        _numeric(g, "n", "grid", minimum=4, integer=True)
        _numeric(r["kernel"], "tau", "kernel", minimum=1e-12, auto_ok=True)
        _numeric(r["kernel"], "stencil_radius", "kernel", minimum=1e-12, auto_ok=True)
        _numeric(r["solver"], "tol", "solver", minimum=0.0)
        eta = r["aubry"]["eta_mode"]
        if eta != "auto":
            _numeric(r["aubry"], "eta_mode", "aubry", minimum=0.0)
        _numeric(r["aubry"], "merge_threshold", "aubry", minimum=0.0, auto_ok=True)
        _numeric(r["dynamics"], "dt", "dynamics", minimum=1e-12, auto_ok=True)
        _numeric(r["dynamics"], "eps", "dynamics", minimum=1e-12, auto_ok=True)
        # work grows linearly with both, and past a few repeats the same step
        _numeric(r["dynamics"], "substeps", "dynamics", minimum=1, maximum=1000, integer=True)
        _numeric(r["regularizer"], "stages", "regularizer", minimum=1, maximum=1000, integer=True)
        seed = r["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
        points = r["ferry"].get("points")
        if points is not None and not isinstance(points, str):
            raise ConfigError(f"ferry.points must be a string path or null, got {points!r}")
        p = r["ferry"].get("p", 2.0)
        if not _finite(p) or not p > 0:
            raise ConfigError(f"ferry.p must be a positive number, got {p!r}")

    # -- resolved accessors ---------------------------------------------------

    def grid(self) -> GridTorus:
        return build_grid(self.raw["grid"]["dim"], self.raw["grid"]["n"])

    def lagrangian(self, grid: GridTorus) -> Lagrangian:
        return make_lagrangian(self.raw["model"], grid)

    def vector_field(self, grid: GridTorus) -> VectorField:
        model = self.raw["model"]
        if model.get("family") != "mane":
            raise ConfigError(
                f"a vector field requires model.family='mane', got {model.get('family')!r}")
        return make_vector_field(model.get("field", {}), grid)

    def kernel(self, grid: GridTorus, L: Lagrangian) -> ActionKernel:
        """The action kernel; an "auto" value leaves build_kernel's default."""
        k = self.raw["kernel"]
        tau, radius = (None if k[key] == "auto" else float(k[key])
                       for key in ("tau", "stencil_radius"))
        return build_kernel(grid, L, tau=tau, stencil_radius=radius)

    def solver_tol(self) -> float:
        return float(self.raw["solver"]["tol"])

    def eta(self):
        e = self.raw["aubry"]["eta_mode"]
        return None if e == "auto" else float(e)

    def merge_threshold(self, grid: GridTorus) -> float:
        m = self.raw["aubry"]["merge_threshold"]
        return 8.0 * grid.spacing**2 if m == "auto" else float(m)

    def dynamics_params(self, grid: GridTorus, X: VectorField) -> dict:
        d = self.raw["dynamics"]
        params = default_chain_parameters(grid, X)
        params.update({k: float(d[k]) for k in ("dt", "eps") if d[k] != "auto"},
                      substeps=int(d["substeps"]))
        return params

    def seed(self) -> int:
        return int(self.raw["seed"])

    def outputs(self) -> dict:
        """The outputs section; ConfigError when it names no place to write."""
        outputs = self.raw["outputs"]
        formats = outputs.get("formats")
        if (not isinstance(formats, list) or not formats
                or any(f not in ("csv", "json") for f in formats)):
            raise ConfigError(f"outputs.formats must be a nonempty subset of ['csv','json']")
        if not isinstance(outputs.get("directory"), str):
            raise ConfigError("outputs.directory must be a string path")
        return dict(outputs)

    def echo(self) -> dict:
        """Deep copy of the resolved raw tree for manifest embedding."""
        return copy.deepcopy(self.raw)
