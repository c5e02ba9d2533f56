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

    def targets(self, cells, offsets=None) -> np.ndarray:
        """t[s, i] = flat index of cell cells[i] + offsets[s], shape (S, len(cells));
        given offsets, one per cell, t[i] = flat index of cells[i] + offsets[i]."""
        n = self.grid.n_per_axis
        offsets = self.offsets[:, None] if offsets is None else offsets
        flat = 0
        # row-major flat index, one axis at a time
        for ax, c in enumerate(np.unravel_index(cells, self.grid.shape)):
            flat = flat * n + np.remainder(c + offsets[..., ax], n)
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
        for w, rows in zip(self.weights, self.rolled(cols)):
            mat[rows, cols] = np.minimum(mat[rows, cols], w + shift)
        return mat

    def rolled(self, values, offsets=None):
        """Yield values rolled along each offset over the grid, one (..., N)
        array at a time: row s holds, at every cell z, the value at its source
        z - offsets[s]; offsets=-K.offsets gives the value at the targets.
        Every stencil consumer reads the stencil this way, one offset at a time."""
        mesh = values.reshape(values.shape[:-1] + self.grid.shape)
        axes = tuple(range(mesh.ndim - self.grid.dim, mesh.ndim))
        for o in self.offsets if offsets is None else offsets:
            yield np.roll(mesh, shift=tuple(o), axis=axes).reshape(values.shape)

    # -- min-plus primitives, vectorized over the mesh ----------------------

    def apply_min(self, u, shift: float = 0.0) -> np.ndarray:
        """(T- u)(z) = min_y u(y) + cost[y][z] + shift, the backward
        Lax-Oleinik step.

        u may be a ValueFunction, a vector (N,) or a stack (..., N); the
        operation maps over leading axes, one value function per row.
        ConfigError when the last axis is not N long.
        """
        u = as_value_array(u)
        if u.shape[-1:] != (self.point_count,):
            raise ConfigError(f"values of shape {u.shape} for {self.point_count} kernel points")
        out = np.full_like(u, np.inf)
        for w, cand in zip(self.weights, self.rolled(u)):
            cand += w + shift
            np.minimum(out, cand, out=out)
        return out

    def apply_max(self, u, shift: float = 0.0) -> np.ndarray:
        """(T+ u)(x) = max_y u(y) - cost[x][y] - shift, the forward
        Lax-Oleinik step; u as for apply_min."""
        u = as_value_array(u)
        if u.shape[-1:] != (self.point_count,):
            raise ConfigError(f"values of shape {u.shape} for {self.point_count} kernel points")
        out = np.full_like(u, -np.inf)
        for w, o in zip(self.weights, self.offsets):
            # u(x+o) - cost[x][x+o]; the cost of entering x+o along o is
            # indexed at the target, so roll both back to x.
            np.maximum(out, next(self.rolled(u - (w + shift), [-o])), out=out)
        return out


def stencil_offsets(grid: GridTorus, stencil_radius: float) -> np.ndarray:
    """Integer cell offsets with Euclidean reach <= stencil_radius."""
    sp = grid.spacing
    if np.isnan(stencil_radius):
        raise ConfigError("stencil radius must be a number, got nan")
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
    stencil_radius defaults to 4 cells. Raises ConfigError for a NaN,
    infinite or nonpositive tau or a NaN radius, NumericalError when the
    kernel's arrays would not fit in free memory.
    """
    if L.dim != grid.dim:
        raise ConfigError(f"Lagrangian dim {L.dim} != grid dim {grid.dim}")
    sp = grid.spacing
    tau = sp if tau is None else float(tau)
    stencil_radius = 4 * sp if stencil_radius is None else float(stencil_radius)
    if not 0 < tau < np.inf:
        raise ConfigError(f"tau must be positive and finite, got {tau}")

    offsets = stencil_offsets(grid, stencil_radius)
    # the coordinates, the (S, N) weights and one stencil graph (float64
    # weights and int32 targets), the largest arrays a run holds per offset
    N, S = grid.point_count, offsets.shape[0]
    check_memory(4 * N * (2 * grid.dim + 5 * S), available_memory(),
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


def first_min(rows) -> tuple:
    """Elementwise minimum over a stream of equal-shape rows and the index of
    the first row to reach it: np.min and np.argmin over axis 0 of their
    stack, for NaN-free rows, holding one row at a time."""
    rows = iter(rows)
    best = np.array(next(rows))
    arg = np.zeros(best.shape, dtype=np.intp)
    for s, row in enumerate(rows, 1):
        less = row < best
        arg[less] = s
        np.copyto(best, row, where=less)
    return best, arg


def stencil_graph(K: ActionKernel, shift: float, potential: np.ndarray) -> sparse.csr_matrix:
    """Sparse forward graph on N + 1 nodes: row y lists its targets
    z = y + offsets[s] in offset order, the edge y -> z weighing
    K.weights[s, z] + shift + potential(y) - potential(z). Node N, a source
    with no in-edges, has an edge to every cell, the last N entries, of
    weight 0 for the caller to rewrite.

    Offsets congruent mod n alias onto the same (source, target) pair on
    tiny grids: the first of them is listed with the cheapest weight. Zero
    weights stay stored, since csgraph reads a missing entry as no edge;
    infinite weights mark absent edges and are dropped.
    """
    N, n = K.point_count, K.grid.n_per_axis
    offsets, weights = K.offsets, K.weights
    _, first, group = np.unique(offsets % n, axis=0, return_index=True, return_inverse=True)
    if first.size < len(offsets):
        # each offset's alias class, numbered by its first member's order
        group = np.argsort(np.argsort(first))[group]
        w = np.full((first.size, N), np.inf)
        for s, g in enumerate(group):
            np.minimum(w[g], weights[s], out=w[g])
        offsets, weights = offsets[np.sort(first)], w
    S = len(offsets)
    E = N * S
    data, indices = np.empty(E + N), np.empty(E + N, dtype=np.int32)
    D, T = data[:E].reshape(N, S), indices[:E].reshape(N, S)
    for s, t in enumerate(K.rolled(np.arange(N), -offsets)):
        w = weights[s][t]
        w += shift
        w += potential
        w -= potential[t]
        T[:, s], D[:, s] = t, w
    data[E:], indices[E:] = 0.0, np.arange(N)
    indptr = np.append(np.arange(0, E + 1, S), E + N)
    if not (np.isfinite(data.min()) and np.isfinite(data.max())):
        keep = np.isfinite(data)
        indptr = np.concatenate(([0], np.cumsum(np.add.reduceat(keep, indptr[:-1]))))
        data, indices = data[keep], indices[keep]
    return sparse.csr_matrix((data, indices, indptr), shape=(N + 1, N + 1))
