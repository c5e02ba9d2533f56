"""Lagrangian models on the torus and the numerical Legendre transform.

Two builtin families cover the experiments:

  * mechanical  L(x,v) = |v|^2/2 - V(x), with conjugate H(x,p) = |p|^2/2 + V(x)
  * drift (Mane) L_X(x,v) = |v - X(x)|^2/2 for a vector field X, with
    H_X(x,p) = |p|^2/2 + p . X(x); constants solve the critical equation
    and the critical value is 0.

"kinetic" is mechanical with V = 0. Every builtin carries its
closed-form conjugate, which the Legendre transform evaluates.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ArtifactError, ConfigError
from .grid import GridTorus, sum_squares, wrap_displacement

Array = np.ndarray

# the largest finite float; a larger JSON integer overflows float()
_FLOAT_MAX = 1.7976931348623157e308


def _finite(val) -> bool:
    """A number a float holds: not NaN, not infinite, not an integer
    beyond the float range (JSON admits all three)."""
    return (not isinstance(val, bool) and isinstance(val, (int, float))
            and -_FLOAT_MAX <= val <= _FLOAT_MAX)


@dataclass
class VectorField:
    """Vector field on the torus. eval maps (k, dim) points to (k, dim) vectors."""

    name: str
    dim: int
    eval: Callable[[Array], Array]

    def __call__(self, x) -> Array:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.asarray(self.eval(x), dtype=float)
        return out.reshape(x.shape)

    def max_norm_on(self, grid: GridTorus) -> float:
        values = self(grid.coords())
        m = float(np.max(np.linalg.norm(values, axis=1)))
        if not np.isfinite(m):
            raise ConfigError(f"vector field {self.name!r} is unbounded on the grid")
        return m


@dataclass
class Lagrangian:
    """Lagrangian L(x, v) with optional closed-form conjugate Hamiltonian.

    eval is vectorized: x and v have shape (k, dim) and the result (k,).
    """

    name: str
    dim: int
    eval: Callable[[Array, Array], Array]
    analytic_hamiltonian: Optional[Callable[[Array, Array], Array]] = None

    def __call__(self, x, v) -> Array:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        v = np.atleast_2d(np.asarray(v, dtype=float))
        x, v = np.broadcast_arrays(x, v)
        out = np.asarray(self.eval(x, v), dtype=float)
        return out.reshape(x.shape[:-1])


def legendre_hamiltonian(L: Lagrangian, x, p) -> Array:
    """H(x,p) = max_v [ p.v - L(x,v) ] from the model's closed-form conjugate.

    x and p may be single points or (k, dim) batches.
    """
    if L.analytic_hamiltonian is None:
        raise ConfigError(f"Lagrangian {L.name!r} has no closed-form Hamiltonian")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    p = np.atleast_2d(np.asarray(p, dtype=float))
    x, p = np.broadcast_arrays(x, p)
    out = np.asarray(L.analytic_hamiltonian(x, p), dtype=float)
    return out if out.size > 1 else float(out.reshape(-1)[0])


# ---------------------------------------------------------------------------
# builtin factories


def zero_field(dim: int) -> VectorField:
    return VectorField("zero", dim, lambda x: np.zeros_like(x))


def constant_field(components, dim: int) -> VectorField:
    c = np.asarray(components, dtype=float).reshape(-1)
    if c.shape[0] != dim:
        raise ConfigError(f"constant field needs {dim} components, got {c.shape[0]}")

    return VectorField("constant", dim, lambda x: np.broadcast_to(c, x.shape).copy())


def sin_gradient_field(dim: int, k: int = 1) -> VectorField:
    """X_i(x) = sin(2 pi k x_i) per axis; zeros at multiples of 1/(2k)."""
    kk = float(k)

    return VectorField("sin_gradient", dim, lambda x: np.sin(2.0 * np.pi * kk * x))


@dataclass
class Potential:
    """Scalar potential with gradient, used by mechanical and neg_grad models."""

    name: str
    dim: int
    eval: Callable[[Array], Array]
    grad: Callable[[Array], Array]

    def __call__(self, x) -> Array:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.asarray(self.eval(x), dtype=float).reshape(x.shape[0])


def cosine_potential(dim: int, k, amp: float = 1.0) -> Potential:
    """V(x) = amp * cos(2 pi k . x) for an integer wave vector k."""
    kvec = np.asarray(k).reshape(-1)
    if kvec.dtype.kind not in "iu" or kvec.shape[0] != dim:
        raise ConfigError(f"potential.k must be {dim} integers, got {k!r}")
    kvec = kvec.astype(float)

    def ev(x):
        return amp * np.cos(2.0 * np.pi * (x @ kvec))

    def gr(x):
        s = -amp * 2.0 * np.pi * np.sin(2.0 * np.pi * (x @ kvec))
        return s[:, None] * kvec[None, :]

    return Potential("cosine", dim, ev, gr)


def make_potential(spec: dict, dim: int) -> Potential:
    if not isinstance(spec, dict):
        raise ConfigError(f"potential must be a mapping, got {spec!r}")
    name = spec.get("name", "cosine")
    if name == "cosine":
        amp = spec.get("amp", 1.0)
        if not _finite(amp):
            raise ConfigError(f"potential.amp must be a finite number, got {amp!r}")
        return cosine_potential(dim, spec.get("k", [1] * dim), float(amp))
    if name == "zero":
        zero = cosine_potential(dim, [0] * dim, 0.0)
        zero.name = "zero"
        return zero
    raise ConfigError(f"unknown potential {name!r}")


def neg_grad_field(potential: Potential) -> VectorField:
    return VectorField("neg_grad", potential.dim, lambda x: -potential.grad(np.atleast_2d(x)))


def table_field(grid: GridTorus, table: Array) -> VectorField:
    """Vector field sampled per grid cell; evaluation snaps to the nearest cell."""
    table = np.asarray(table, dtype=float)
    if table.shape != (grid.point_count, grid.dim):
        raise ConfigError(
            f"field table has shape {table.shape}, expected ({grid.point_count}, {grid.dim})"
        )
    if not np.all(np.isfinite(table)):
        raise ConfigError("field table contains non-finite entries")

    def ev(x):
        return table[grid.nearest_index(np.atleast_2d(x))]

    return VectorField("table", grid.dim, ev)


def _check_cell_coords(grid: GridTorus, table: Array, path) -> None:
    """Row k of a field table, one row per cell, names cell k in flat
    order: its `dim` values before the field lie within a quarter spacing
    of that cell's coordinates, wrapped on the torus."""
    coords = table[:, -2 * grid.dim:-grid.dim]
    if coords.shape[1] < grid.dim:
        raise ConfigError(f"{path}: a field table row needs {grid.dim} coordinates before "
                          f"its {grid.dim} field values, got {coords.shape[1]}")
    cells = grid.coords()
    off = np.abs(wrap_displacement(cells, coords))
    bad = np.nonzero(~np.all(off <= grid.spacing / 4, axis=1))[0]
    if bad.size:
        k = int(bad[0])
        raise ConfigError(f"{path}: field table row {k + 1} has coordinates "
                          f"{coords[k].tolist()}, not those of cell {k} in flat order, "
                          f"{cells[k].tolist()}")


def load_points_csv(path) -> np.ndarray:
    """Numeric CSV (a points file or a field table): one row per point,
    comma-separated values, after an optional header line."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise ArtifactError(f"cannot read {path}: {e}") from e
    rows = []
    width = None
    for ln, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            vals = [float(tok) for tok in text.split(",")]
        except ValueError as e:
            if ln == 1:
                continue  # header row
            raise ConfigError(f"{path} line {ln}: not a numeric row ({text!r})") from e
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ConfigError(
                f"{path} line {ln}: expected {width} coordinates, got {len(vals)}")
        rows.append(vals)
    if len(rows) < 2:
        raise ConfigError(f"{path}: need at least two points")
    return np.asarray(rows, dtype=float)


def make_vector_field(spec: dict, grid: GridTorus) -> VectorField:
    if not isinstance(spec, dict):
        raise ConfigError(f"field must be a mapping, got {spec!r}")
    name = spec.get("name")
    if name == "zero":
        return zero_field(grid.dim)
    if name == "constant":
        components = spec.get("components", [1.0] * grid.dim)
        if not isinstance(components, list) or not all(map(_finite, components)):
            raise ConfigError(f"field.components must be finite numbers, got {components!r}")
        return constant_field(components, grid.dim)
    if name == "sin_gradient":
        k = spec.get("k", 1)
        if isinstance(k, bool) or not isinstance(k, int):
            raise ConfigError(f"field.k must be an integer, got {k!r}")
        return sin_gradient_field(grid.dim, k)
    if name == "neg_grad":
        return neg_grad_field(make_potential(spec.get("potential", {}), grid.dim))
    if name == "table":
        path = spec.get("path")
        if not isinstance(path, str):
            raise ConfigError("table field needs a 'path' to a CSV of cell samples")
        table = load_points_csv(path)
        X = table_field(grid, table[:, -grid.dim:])
        if table.shape[1] > grid.dim:
            _check_cell_coords(grid, table, path)
        return X
    raise ConfigError(f"field.name must be one of 'zero', 'constant', 'sin_gradient', "
                      f"'neg_grad', 'table', got {name!r}")


def mane_lagrangian(X: VectorField) -> Lagrangian:
    """Drift Lagrangian |v - X(x)|^2 / 2 with its closed-form conjugate."""

    def ev(x, v):
        return 0.5 * sum_squares(v - X(x))

    def ham(x, p):
        return 0.5 * sum_squares(p) + np.sum(p * X(x), axis=-1)

    return Lagrangian(f"mane[{X.name}]", X.dim, ev, analytic_hamiltonian=ham)


def mechanical_lagrangian(V: Potential) -> Lagrangian:
    """L = |v|^2/2 - V(x), H = |p|^2/2 + V(x)."""

    def ev(x, v):
        return 0.5 * sum_squares(v) - V(x)

    def ham(x, p):
        return 0.5 * sum_squares(p) + V(x)

    return Lagrangian(f"mechanical[{V.name}]", V.dim, ev, analytic_hamiltonian=ham)


def kinetic_lagrangian(dim: int) -> Lagrangian:
    L = mechanical_lagrangian(make_potential({"name": "zero"}, dim))
    L.name = "kinetic"
    return L


def make_lagrangian(model: dict, grid: GridTorus) -> Lagrangian:
    family = model.get("family")
    if family == "mane":
        return mane_lagrangian(make_vector_field(model.get("field", {}), grid))
    if family == "mechanical":
        return mechanical_lagrangian(make_potential(model.get("potential", {}), grid.dim))
    if family == "kinetic":
        return kinetic_lagrangian(grid.dim)
    raise ConfigError(
        f"unknown model family {family!r}; builtins are 'kinetic', 'mane', 'mechanical'")
