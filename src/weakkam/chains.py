"""Chain recurrence of torus vector fields and the Aubry-set comparison.

A node's epsilon-chain successors are the grid cells within eps of its
time-dt flow image; chain-recurrent cells are those in a strongly
connected component with at least one edge. Comparing against the
projected Aubry set of the associated quadratic-penalty Lagrangian is
the toolkit's discrete form of the chain-recurrence equivalence.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .errors import ConfigError
from .grid import GridTorus, check_ids, wrap_displacement
from .kernel import available_memory, check_memory
from .models import VectorField

# relative slack around a k-d tree's nearest distance within which pairs
# are measured again by the torus formula; rounding differs by ~1e-16
NEAR_TIE = 1e-9


@dataclass
class ChainGraph:
    grid: GridTorus
    dt: float
    eps: float
    edges: sparse.csr_matrix  # adjacency over flat cell indices

    def out_degree(self) -> np.ndarray:
        return np.asarray(self.edges.sum(axis=1)).ravel()


@dataclass
class SetComparison:
    hausdorff_distance: float
    a_only: np.ndarray
    b_only: np.ndarray
    a_size: int
    b_size: int


def integrate_flow(X: VectorField, x, dt: float, substeps: int = 4) -> np.ndarray:
    """Classical 4th-order one-step integration of xdot = X(x), wrapped.
    ConfigError unless dt is a finite number > 0 and substeps a positive
    integer."""
    if not 0 < dt < np.inf:
        raise ConfigError(f"dt must be a finite number > 0, got {dt}")
    if not isinstance(substeps, (int, np.integer)) or substeps < 1:
        raise ConfigError(f"substeps must be a positive integer, got {substeps!r}")
    y = np.atleast_2d(np.asarray(x, dtype=float)).copy()
    h = dt / substeps
    for _ in range(substeps):
        k1 = X(y)
        k2 = X(y + 0.5 * h * k1)
        k3 = X(y + 0.5 * h * k2)
        k4 = X(y + h * k3)
        y = np.mod(y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), 1.0)
    if np.asarray(x).ndim == 1:
        return y[0]
    return y


def _check_memory(grid: GridTorus):
    """NumericalError unless every cell's coordinates and flow image fit in free memory."""
    check_memory(16 * grid.point_count * grid.dim, available_memory(),
                 f"the {grid.point_count} cell coordinates and flow images need")


def chain_graph(X: VectorField, grid: GridTorus, dt: float, eps: float,
                substeps: int = 4) -> ChainGraph:
    """Edges x -> y for every cell y within eps of the flow image of x;
    ConfigError for a NaN eps or one below the half-cell diagonal, and as
    integrate_flow for dt and substeps; NumericalError when the cells and
    their images would not fit in memory."""
    _check_memory(grid)
    half_diag = 0.5 * grid.spacing * np.sqrt(grid.dim)
    if not eps >= half_diag:
        raise ConfigError(
            f"eps={eps} is not at least the half-cell diagonal {half_diag:.3e}; "
            "the flow image could fall between cells and leave a node with no edge")
    images = integrate_flow(X, grid.coords(), dt, substeps)
    base = np.rint(images / grid.spacing).astype(np.int64)
    # n // 2 cells each way reach every cell; more repeat them (or overflow int())
    reach = int(min(np.ceil(eps / grid.spacing) + 1, grid.n_per_axis // 2))
    shifts = np.array(list(itertools.product(range(-reach, reach + 1), repeat=grid.dim)),
                      dtype=np.int64)
    rows, cols = [], []
    n = grid.point_count
    for sh in shifts:
        cells = base + sh[None, :]
        tgt = grid.index_of_cell(cells)
        d = grid.torus_distance(images, grid.coords(tgt))
        keep = d <= eps
        rows.append(np.nonzero(keep)[0])
        cols.append(tgt[keep])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.ones(rows.shape[0], dtype=np.int8)
    adj = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    adj.data[:] = 1  # collapse duplicate wrapped candidates
    g = ChainGraph(grid=grid, dt=float(dt), eps=float(eps), edges=adj)
    if np.any(g.out_degree() == 0):
        raise ConfigError("chain graph has a node without successors; enlarge eps")
    return g


def chain_recurrent_set(g: ChainGraph) -> np.ndarray:
    """Sorted cells whose strongly connected component contains an edge."""
    n_comp, labels = connected_components(g.edges, directed=True, connection="strong")
    counts = np.bincount(labels, minlength=n_comp)
    big = counts[labels] >= 2
    self_loop = np.asarray(g.edges.diagonal()).ravel() > 0
    return np.nonzero(big | self_loop)[0]


def _farthest_nearest(xq: np.ndarray, xt: np.ndarray, flip: bool) -> float:
    """max over the points of xq of the torus distance to the nearest point
    of xt, each distance the norm of wrap_displacement(q, t), or of
    wrap_displacement(t, q) when flip, as a pass over every pair computes it.

    A periodic k-d tree of xt finds each nearest distance to within
    rounding. The formula then measures every point of xt the tree finds
    within NEAR_TIE (relative) of it, for each point of xq whose found
    pair reaches the largest nearest distance; no other point can hold
    the maximum.
    """
    # imported here: scipy.spatial adds about 0.1 s and 8 MiB to every
    # import of the package, and only the comparison stage needs it
    from scipy.spatial import cKDTree

    def measure(q, t):
        return np.linalg.norm(wrap_displacement(*((t, q) if flip else (q, t))), axis=-1)

    tree = cKDTree(xt, boxsize=1.0)
    near, j = tree.query(xq)
    top = np.nonzero(measure(xq, xt[j]) >= np.max(near) / (1 + NEAR_TIE))[0]
    ties = tree.query_ball_point(xq[top], near[top] * (1 + NEAR_TIE))
    counts = np.array([len(t) for t in ties])
    d = measure(xq[np.repeat(top, counts)], xt[np.concatenate(ties).astype(np.int64)])
    return float(np.max(np.minimum.reduceat(d, np.cumsum(counts) - counts)))


def compare_aubry_chain(aubry_indices, chain_indices, grid: GridTorus) -> SetComparison:
    """Hausdorff distance in the torus metric plus one-sided leftovers, in
    O((|a| + |b|) log) through nearest-neighbour queries (_farthest_nearest).
    ConfigError when a set is empty or has a cell id outside the grid."""
    a = check_ids(aubry_indices, grid.point_count)
    b = check_ids(chain_indices, grid.point_count)
    if a.size == 0 or b.size == 0:
        raise ConfigError("set comparison requires two nonempty sets")
    xa = grid.coords(a)
    xb = grid.coords(b)
    return SetComparison(hausdorff_distance=max(_farthest_nearest(xa, xb, False),
                                                _farthest_nearest(xb, xa, True)),
                         a_only=np.setdiff1d(a, b), b_only=np.setdiff1d(b, a),
                         a_size=int(a.size), b_size=int(b.size))


@dataclass
class ConstancyReport:
    max_oscillation: float
    pairwise: list  # (i, j, oscillation of u_i - u_j)


def weak_kam_constancy_check(solutions) -> ConstancyReport:
    """Max over pairs of the oscillation of u_i - u_j.

    Near zero exactly when the critical solution is unique up to
    constants, which happens iff the Mather quotient is trivial.
    """
    if len(solutions) < 2:
        raise ConfigError("need at least two solutions to compare")
    vals = [np.asarray(s.u.values, dtype=float) for s in solutions]
    pairs = []
    worst = 0.0
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            diff = vals[i] - vals[j]
            osc = float(diff.max() - diff.min())
            pairs.append((i, j, osc))
            worst = max(worst, osc)
    return ConstancyReport(max_oscillation=worst, pairwise=pairs)


def default_chain_parameters(grid: GridTorus, X: VectorField) -> dict:
    """dt and eps tuned so genuine motion outruns the merge radius.

    eps just above the half-cell diagonal keeps the graph well formed
    while only near-stationary cells self-loop; dt stretches the flow
    image of unit-speed motion across many cells so transient cells do
    not look recurrent. The speed is read on every cell, under chain_graph's memory check.
    """
    _check_memory(grid)
    eps = 0.75 * grid.spacing
    speed = X.max_norm_on(grid)
    dt = 16.0 * grid.spacing / max(1.0, speed)
    return {"dt": dt, "eps": eps, "substeps": 4}
