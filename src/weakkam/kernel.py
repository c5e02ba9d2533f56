"""One-step action kernels and min-plus (tropical) matrix operations.

The kernel discretizes the time-tau action between grid cells:

    cost[y][z] = tau * L(midpoint(y,z), wrap(z - y)/tau)

for cells within the stencil radius, +inf outside (an explicit
unreachable sentinel; min-plus arithmetic saturates through it).
Because reachability depends only on the cell offset, the kernel is
stored by stencil offset: weights[s, z] is the cost of entering cell z
along offset s. Dense matrices are materialized on demand for small
grids.
"""

import itertools
import os
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError, NumericalError
from .grid import GridTorus, as_value_array
from .models import Lagrangian

DENSE_LIMIT = 4096  # dense matrices allowed up to this many grid points


def available_memory() -> int:
    """Free physical memory in bytes, as the operating system reports it."""
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_memory(need: int, free: int, what: str):
    """NumericalError, naming what needs the memory, when need bytes exceed free."""
    if need > free:
        raise NumericalError(f"{what} {need / 2**20:.1f} MiB, "
                             f"but only {free / 2**20:.1f} MiB of memory is free")


@dataclass
class ActionKernel:
    """Discrete action costs keyed by stencil offset.

    weights[s, z] = cost of the hop (z - offsets[s]) -> z, so column z of
    the dense matrix is exactly weights[:, z] scattered over sources.
    """

    grid: GridTorus
    tau: float
    stencil_radius: float
    offsets: np.ndarray  # (S, dim) integer cell offsets, minimal image
    weights: np.ndarray  # (S, N) finite costs

    @property
    def point_count(self) -> int:
        return self.grid.point_count

    @property
    def stencil_size(self) -> int:
        return self.offsets.shape[0]

    @property
    def zero_offset(self) -> int:
        idx = np.nonzero(~self.offsets.any(axis=1))[0]
        if idx.size == 0:
            raise ConfigError(f"offset {(0,) * self.grid.dim} not in stencil")
        return int(idx[0])

    def diagonal(self) -> np.ndarray:
        """Self-loop costs tau * L(x, 0) per cell."""
        return self.weights[self.zero_offset].copy()

    def targets(self, cells) -> np.ndarray:
        """t[s, i] = flat index of cell cells[i] + offsets[s], shape (S, len(cells))."""
        n = self.grid.n_per_axis
        flat = np.zeros((self.stencil_size, np.size(cells)), dtype=np.int64)
        # row-major flat index, one (S, len(cells)) array per axis
        for ax, c in enumerate(np.unravel_index(cells, self.grid.shape)):
            t = np.add.outer(self.offsets[:, ax], c)
            flat *= n
            flat += np.remainder(t, n, out=t)
        return flat

    def dense(self, shift: float = 0.0) -> np.ndarray:
        """Dense (N, N) cost matrix with +inf off the stencil; offsets that
        alias onto one (source, target) pair keep the cheapest weight."""
        if self.point_count > DENSE_LIMIT:
            raise NumericalError(
                f"dense kernel refused for {self.point_count} points (limit {DENSE_LIMIT})"
            )
        mat = np.full((self.point_count, self.point_count), np.inf)
        cols = np.arange(self.point_count)
        for s, rows in enumerate(backward_sources(self)):
            mat[rows, cols] = np.minimum(mat[rows, cols], self.weights[s] + shift)
        return mat

    # -- min-plus primitives, vectorized over the mesh ----------------------

    def _mesh(self, arr: np.ndarray):
        lead = arr.shape[:-1]
        return arr.reshape(lead + self.grid.shape)

    def apply_min(self, u, shift: float = 0.0) -> np.ndarray:
        """(T- u)(z) = min_y u(y) + cost[y][z] + shift, the backward
        Lax-Oleinik step.

        u may be a ValueFunction, a vector (N,) or a stack (..., N); the
        operation maps over leading axes, which is how all-pairs
        relaxations run. ConfigError when the last axis is not N long.
        """
        u = as_value_array(u)
        if u.shape[-1:] != (self.point_count,):
            raise ConfigError(f"values of shape {u.shape} for {self.point_count} kernel points")
        mesh = self._mesh(u)
        axes = tuple(range(mesh.ndim - self.grid.dim, mesh.ndim))
        out = np.full_like(u, np.inf)
        out_mesh = self._mesh(out)
        for s, o in enumerate(self.offsets):
            w = self.weights[s].reshape(self.grid.shape) + shift
            cand = np.roll(mesh, shift=tuple(o), axis=axes) + w
            np.minimum(out_mesh, cand, out=out_mesh)
        return out

    def apply_max(self, u, shift: float = 0.0) -> np.ndarray:
        """(T+ u)(x) = max_y u(y) - cost[x][y] - shift, the forward
        Lax-Oleinik step; u as for apply_min."""
        u = as_value_array(u)
        if u.shape[-1:] != (self.point_count,):
            raise ConfigError(f"values of shape {u.shape} for {self.point_count} kernel points")
        mesh = self._mesh(u)
        axes = tuple(range(mesh.ndim - self.grid.dim, mesh.ndim))
        out = np.full_like(u, -np.inf)
        out_mesh = self._mesh(out)
        for s, o in enumerate(self.offsets):
            w = self.weights[s].reshape(self.grid.shape) + shift
            # u(x+o) - cost[x][x+o]; the cost of entering x+o along o is
            # indexed at the target, so roll both back to x.
            cand = np.roll(mesh - w, shift=tuple(-o), axis=axes)
            np.maximum(out_mesh, cand, out=out_mesh)
        return out


def stencil_offsets(grid: GridTorus, stencil_radius: float) -> np.ndarray:
    """Integer cell offsets with Euclidean reach <= stencil_radius."""
    sp = grid.spacing
    # bounded before int(), which a radius near the float range overflows
    max_cells = int(min(np.floor(stencil_radius / sp + 1e-9), grid.n_per_axis))
    if max_cells < 1:
        raise ConfigError("stencil radius must reach the neighboring cell")
    if 2 * max_cells + 1 > grid.n_per_axis:
        raise ConfigError(
            f"stencil radius {stencil_radius} spans more than the torus period"
        )
    # itertools.product enumerates the offsets in lexicographic order
    mesh = np.array(list(itertools.product(range(-max_cells, max_cells + 1),
                                           repeat=grid.dim)), dtype=np.int64)
    keep = np.sum((mesh * sp) ** 2, axis=1) <= stencil_radius**2 + 1e-12
    return mesh[keep]


def build_kernel(grid: GridTorus, L: Lagrangian, tau: float = None,
                 stencil_radius: float = None) -> ActionKernel:
    """Evaluate the one-step action on the stencil.

    tau defaults to the grid spacing (unit velocities advance one cell);
    stencil_radius defaults to 4 cells. Raises NumericalError when the
    kernel's arrays would not fit in free memory.
    """
    if L.dim != grid.dim:
        raise ConfigError(f"Lagrangian dim {L.dim} != grid dim {grid.dim}")
    sp = grid.spacing
    tau = sp if tau is None else float(tau)
    stencil_radius = 4 * sp if stencil_radius is None else float(stencil_radius)
    if tau <= 0:
        raise ConfigError("tau must be positive")

    offsets = stencil_offsets(grid, stencil_radius)
    # the coordinates, the (S, N) weights and the (S, N) int64 source
    # table that critical_value builds
    N, S = grid.point_count, offsets.shape[0]
    check_memory(8 * N * (grid.dim + 2 * S), available_memory(),
                 f"the kernel on {N} points and {S} stencil offsets needs")
    coords = grid.coords()
    weights = np.empty((S, N))
    for s, o in enumerate(offsets):
        disp = o * sp
        # midpoint of the hop into z along offset o, wrapped to [0,1)
        mids = np.mod(coords - disp / 2.0, 1.0)
        v = disp / tau
        weights[s] = tau * L(mids, np.broadcast_to(v, mids.shape))
    if not np.all(np.isfinite(weights)):
        bad = np.argwhere(~np.isfinite(weights))
        raise NumericalError(f"kernel has non-finite stencil entries, first at {bad[0]}")
    return ActionKernel(grid=grid, tau=tau, stencil_radius=stencil_radius,
                        offsets=offsets, weights=weights)


def invariant_axes(K: ActionKernel) -> list:
    """Grid axes along which every stencil weight sheet is constant.

    Cost invariance under translation along an axis means all source
    rows of a shortest-path matrix on a translate are rolls of the base
    row, which lets shortest paths run from one source per invariant slab.
    """
    mesh = K.weights.reshape((K.stencil_size,) + K.grid.shape)
    axes = []
    for ax in range(K.grid.dim):
        sheet = mesh.take(indices=[0], axis=1 + ax)
        if np.array_equal(mesh, np.broadcast_to(sheet, mesh.shape)):
            axes.append(ax)
    return axes


def backward_sources(K: ActionKernel, rows=None) -> np.ndarray:
    """src[s, z] = flat index of the cell feeding z along offset rows[s] (default: all)."""
    offsets = K.offsets if rows is None else K.offsets[rows]
    idx = np.arange(K.point_count).reshape(K.grid.shape)
    src = np.empty((len(offsets), K.point_count), dtype=np.int64)
    axes = tuple(range(K.grid.dim))
    for s, o in enumerate(offsets):
        src[s] = np.roll(idx, shift=tuple(o), axis=axes).ravel()
    return src


def stencil_graph(K: ActionKernel, weights: np.ndarray) -> sparse.csc_matrix:
    """Sparse (N, N) graph with the edge src[s, z] -> z weighing weights[s, z].

    Offsets congruent mod n alias onto the same (source, target) pair on
    tiny grids, and scipy would sum such duplicates: the cheapest weight
    is kept. Zero weights stay stored, since csgraph reads a missing
    entry as no edge; infinite weights mark absent edges and are dropped.
    """
    N = K.point_count
    _, first, group = np.unique(K.offsets % K.grid.n_per_axis, axis=0,
                                return_index=True, return_inverse=True)
    w = np.full((first.size, N), np.inf)
    for s, g in enumerate(group):
        np.minimum(w[g], weights[s], out=w[g])
    # column z lists the sources of z
    keep = np.isfinite(w.T)
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    return sparse.csc_matrix((w.T[keep], backward_sources(K, first).T[keep], indptr),
                             shape=(N, N))
