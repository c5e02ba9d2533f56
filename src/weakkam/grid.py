"""Uniform periodic grids on flat tori T^1 and T^2.

Points live on a uniform lattice with n cells per axis, spacing 1/n,
indexed row-major (axis 0 major). All displacement arithmetic uses the
minimal image convention: each component is wrapped into [-1/2, 1/2),
with ties at exactly half a period resolved toward the negative side.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class GridTorus:
    """Uniform periodic grid on [0,1)^dim."""

    dim: int
    n_per_axis: int
    spacing: float = field(init=False)
    point_count: int = field(init=False)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError(f"grid dim must be 1 or 2, got {self.dim}")
        # n=2,3 admit hand-built kernels; stencil construction needs more room
        if self.n_per_axis < 2:
            raise ConfigError(f"n_per_axis must be >= 2, got {self.n_per_axis}")
        object.__setattr__(self, "spacing", 1.0 / self.n_per_axis)
        object.__setattr__(self, "point_count", self.n_per_axis**self.dim)

    @property
    def shape(self):
        return (self.n_per_axis,) * self.dim

    def coords(self, indices=None) -> np.ndarray:
        """Coordinates of grid points, shape (k, dim).

        With no argument returns all point_count coordinates in index order.
        """
        if indices is None:
            indices = np.arange(self.point_count)
        indices = np.asarray(indices, dtype=np.int64)
        cells = np.stack(np.unravel_index(indices, self.shape), axis=-1)
        return cells * self.spacing

    def index_of_cell(self, cells) -> np.ndarray:
        """Row-major flat index of integer cell tuples, wrapping each axis."""
        cells = np.asarray(cells, dtype=np.int64) % self.n_per_axis
        if self.dim == 1:
            return cells.reshape(-1)
        return np.ravel_multi_index(tuple(cells.T), self.shape)

    def nearest_index(self, points) -> np.ndarray:
        """Flat index of the grid cell nearest to each point.

        A point halfway between two cells goes to the even one, as np.rint
        rounds: on n=4, 0.125 goes to cell 0 and 0.375 to cell 2.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        cells = np.rint(points / self.spacing).astype(np.int64)
        return self.index_of_cell(cells)

    def torus_distance(self, x, y) -> np.ndarray:
        """Euclidean distance on the torus between coordinate arrays."""
        d = wrap_displacement(np.asarray(x, float), np.asarray(y, float))
        return np.linalg.norm(np.atleast_2d(d), axis=-1)


def build_grid(dim: int, n_per_axis: int) -> GridTorus:
    """Validated GridTorus constructor."""
    return GridTorus(dim=dim, n_per_axis=n_per_axis)


def wrap_displacement(x, y) -> np.ndarray:
    """Minimal-image displacement y - x, each component in [-1/2, 1/2).

    A component difference of exactly 1/2 wraps to -1/2.
    """
    d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    return np.mod(d + 0.5, 1.0) - 0.5


@dataclass
class ValueFunction:
    """Scalar field sampled on a GridTorus, in flat index order."""

    grid: GridTorus
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.point_count,):
            raise ConfigError(
                f"value array has shape {self.values.shape}, expected "
                f"({self.grid.point_count},)"
            )

    def as_mesh(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)


def check_ids(ids, count: int) -> np.ndarray:
    """The ids as int64; ConfigError unless 0 <= id < count, since numpy
    indexing would wrap a negative id silently."""
    ids = np.asarray(ids, dtype=np.int64)
    bad = ids[(ids < 0) | (ids >= count)]
    if bad.size:
        raise ConfigError(f"ids outside the {count} points: {bad[:8].tolist()}")
    return ids


def as_value_array(u) -> np.ndarray:
    """Accept a ValueFunction or a plain array and return the flat values."""
    if isinstance(u, ValueFunction):
        return u.values
    return np.asarray(u, dtype=float)
