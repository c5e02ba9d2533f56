"""Reference algorithms the tests check the library against.

`_karp` is Karp's minimum mean cycle on the (S, N) offset form of a
kernel, run from a virtual source. Its (N+1) x N tables make it too slow
and memory hungry for the library, which uses policy iteration instead.
`exhaustive_min_mean` enumerates every simple cycle with networkx.

`kernel_closure` is the all-pairs min-plus closure by Bellman-Ford rounds
on every source at once, O(S N^3); `closure_barrier` routes it through
the cells whose best cycle (`cycle_values`) is flat. The library builds
the same barrier from reduced costs and sparse Dijkstra runs instead.
`minplus_power_min` is the elementwise min of the kernel's min-plus powers.
`translate_rows` expands the slab rows of a translation-invariant kernel
to every source row with one np.roll per row, and `slab_barrier` is the
dense barrier it gives when every cell is critical; the library copies
each row block it reads from a strided window view of the doubled slab
rows. `representative_barrier` adds one dense N x N matrix per critical
class representative; the library keeps the k x N shortest-path tables
and takes the same minimum over them for each block it reads.

`value_iteration_weak_kam` is the damped value iteration for the weak KAM
solution u = T- u + c*tau; the library computes the same Lax-Oleinik
limit in closed form from two Dijkstra runs on the critical graph.

`dense_legendre` is the Legendre transform by a search over a dense
velocity grid (`HamiltonianProbe`); the library evaluates each model's
closed-form conjugate, which the tests check against it.

`_greedy_centers`, `union_find_quotient` and `_auto_scales` are the
greedy covering, the quotient with its class diameter and the covering
scale grid on float copies of the whole |A| x |A| block of delta; the
library reads that block in row blocks, into a level matrix that serves
every covering scale and into sparse threshold pairs and class labels
for the quotient, or, when delta is one offset table D over every cell,
reads D alone: balls are translates of {v : D(v) <= r} and classes are
cosets.

`dense_hausdorff` is the Hausdorff distance between two cell sets from
the whole |a| x |b| x dim array of displacements;
`chains.compare_aubry_chain` finds each point's nearest neighbour with a
periodic k-d tree and measures the near pairs by the same formula.

`backward_sources` is the (S, N) table of every cell's source along every
offset. `stencil_graph_csc`, `initial_policy`, `improvement`,
`policy_iteration`, `reduced_costs`, `check_dominated` and
`classify_aubry` are the stencil consumers in their (S, N) form: each
builds the whole table of sources, candidates or scores, and the graph
lists every cell's sources in a CSC column. The library reads one offset
row at a time (`ActionKernel.rolled`) and builds the forward graph
straight into CSR, with the same values and ties; each of its rows lists
the targets in offset order, so it matches the oracle once its rows are
sorted.

`kernel_weights` evaluates the stencil weights with np.mod(., 1.0) for
the midpoints and np.sum over the coordinate axis for |v|^2 and
|v - X|^2; `build_kernel` and the models use `grid.mod1` and
`grid.sum_squares`, which must give the same bytes.

`fmt_cell` and `csv_text` write a CSV cell by cell, each cell by its own
Python or numpy type; `pipeline.write_csv` gives each column one format
from its dtype and formats a slice of `CSV_SLICE_CELLS` cells at once in
numpy, as 4-byte words with each separator in its column's last word,
integers and floats from digit tables and a float's exponent and
12-digit mantissa, leaving only near-ties and extreme values to Python.
"""

from dataclasses import dataclass
from typing import Optional

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from weakkam.aubry import AubrySet, QuotientPartition, SemiMetric
from weakkam.critical import (NEGATIVE_TOL, CriticalValue, DominationReport, WeakKamSolution,
                              _policy_values, critical_graph)
from weakkam.errors import ConfigError, NumericalError
from weakkam.grid import ValueFunction, as_value_array, wrap_displacement
from weakkam.kernel import ActionKernel, invariant_axes, stencil_offsets
from weakkam.models import Lagrangian, Potential, VectorField


def backward_sources(K: ActionKernel) -> np.ndarray:
    """src[s, z] = flat index of the cell feeding z along offset s."""
    idx = np.arange(K.point_count).reshape(K.grid.shape)
    axes = tuple(range(K.grid.dim))
    return np.stack([np.roll(idx, shift=tuple(o), axis=axes).ravel() for o in K.offsets])


def kernel_weights(grid, tau: float, stencil_radius: float, V: Optional[Potential] = None,
                   X: Optional[VectorField] = None) -> np.ndarray:
    """(S, N) weights tau * L(midpoint, offset * spacing / tau) of the
    mechanical Lagrangian |v|^2/2 - V(x), or, given X, the Mane Lagrangian
    |v - X(x)|^2/2, with midpoints wrapped by np.mod and squares summed
    by np.sum."""
    coords = grid.coords()
    offsets = stencil_offsets(grid, stencil_radius)
    weights = np.empty((len(offsets), grid.point_count))
    for s, o in enumerate(offsets):
        disp = o * grid.spacing
        mids = np.mod(coords - disp / 2.0, 1.0)
        v = np.broadcast_to(disp / tau, mids.shape)
        if X is None:
            weights[s] = tau * (0.5 * np.sum(v * v, axis=-1) - V(mids))
        else:
            d = v - X(mids)
            weights[s] = tau * (0.5 * np.sum(d * d, axis=-1))
    return weights


def _karp(K: ActionKernel):
    N = K.point_count
    src = backward_sources(K)
    W = K.weights
    D = np.full((N + 1, N), np.inf)
    pred = np.zeros((N + 1, N), dtype=np.int32)
    # virtual-source form: a single start vertex misses cycles it cannot
    # reach when the stencil offsets share a factor with the grid size
    D[0] = 0.0
    cols = np.arange(N)
    for k in range(N):
        cand = D[k][src] + W  # (S, N)
        s_best = np.argmin(cand, axis=0)
        D[k + 1] = cand[s_best, cols]
        pred[k + 1] = src[s_best, cols]

    finite_N = np.isfinite(D[N])
    if not np.any(finite_N):
        raise NumericalError("no walks of full length; kernel graph is degenerate")
    ks = np.arange(N)
    with np.errstate(invalid="ignore"):
        ratios = (D[N][None, :] - D[:N, :]) / (N - ks)[:, None]
    ratios = np.where(np.isfinite(D[:N, :]) & finite_N[None, :], ratios, -np.inf)
    per_vertex = np.max(ratios, axis=0)
    per_vertex = np.where(finite_N & np.isfinite(per_vertex), per_vertex, np.inf)
    v_star = int(np.argmin(per_vertex))
    mu = float(per_vertex[v_star])
    return mu, _extract_cycle(pred, v_star, N)


def _extract_cycle(pred, v_star: int, N: int) -> list:
    """Walk the optimal N-edge walk backwards until a vertex repeats."""
    seen = {}
    v = v_star
    walk = []
    for k in range(N, -1, -1):
        if v in seen:
            start = seen[v]
            cyc = walk[start:]
            cyc.reverse()
            return cyc
        seen[v] = len(walk)
        walk.append(v)
        v = int(pred[k, v])
    # the N-edge walk must contain a repeat, but keep a defensive fallback
    return walk[-1:]


def exhaustive_min_mean(K) -> float:
    """Smallest mean over every simple cycle of the kernel graph.

    Offsets that alias onto one (source, target) pair on tiny grids keep
    the cheapest of their weights, as any minimum mean cycle would.
    """
    G = nx.DiGraph()
    for s, src in enumerate(backward_sources(K)):
        for z, y in enumerate(src.tolist()):
            w = float(K.weights[s, z])
            if not G.has_edge(y, z) or w < G.edges[y, z]["w"]:
                G.add_edge(y, z, w=w)
    best = np.inf
    for cyc in nx.simple_cycles(G):
        k = len(cyc)
        best = min(best, sum(G.edges[cyc[i], cyc[(i + 1) % k]]["w"] for i in range(k)) / k)
    return best


def minplus_power_min(K: ActionKernel, shift: float = 0.0, n_min: int = 1,
                      n_max: int = None, exit_tol: float = 1e-12) -> np.ndarray:
    """Elementwise min of the shifted kernel's min-plus powers n_min..n_max.

    Stops early once two consecutive accumulated snapshots differ by less
    than exit_tol everywhere. Entries never reached stay +inf.
    """
    if n_min < 1:
        raise ConfigError("n_min must be at least 1")
    n_max = 8 * K.grid.n_per_axis if n_max is None else int(n_max)
    if n_max < n_min:
        raise ConfigError("n_max must be >= n_min")
    P = K.dense(shift)
    M = P.copy() if n_min == 1 else np.full_like(P, np.inf)
    for n in range(2, n_max + 1):
        P = K.apply_min(P, shift)
        if n < n_min:
            continue
        before = M.copy()
        np.minimum(M, P, out=M)
        with np.errstate(invalid="ignore"):
            gap = before - M  # inf - inf on never-reached entries
        gap[~np.isfinite(before) & ~np.isfinite(M)] = 0.0
        if n > n_min and np.all(gap < exit_tol):
            break
    return M


def kernel_closure(K: ActionKernel, shift: float = 0.0, exit_tol: float = 1e-13,
                   max_rounds: int = None) -> np.ndarray:
    """All-pairs min-plus closure (shortest paths, zero-length paths allowed).

    Requires the shifted kernel to carry no substantially negative cycle;
    float residue around an exactly-zero mean cycle is tolerated. Runs
    Bellman-Ford rounds on all sources at once, reduced to one source
    per translation-invariant slab when the weights allow it.
    """
    N = K.point_count
    if max_rounds is None:
        max_rounds = N + 1
    inv = invariant_axes(K)
    mesh_idx = np.arange(N).reshape(K.grid.shape)
    sel = [slice(None)] * K.grid.dim
    for ax in inv:
        sel[ax] = slice(0, 1)
    slab = mesh_idx[tuple(sel)].ravel()

    D = np.full((slab.size, N), np.inf)
    D[np.arange(slab.size), slab] = 0.0
    for _ in range(max_rounds):
        nxt = np.minimum(D, K.apply_min(D, shift))
        with np.errstate(invalid="ignore"):
            gap = D - nxt  # inf - inf on not-yet-reached entries
        gap[~np.isfinite(D) & ~np.isfinite(nxt)] = 0.0
        D = nxt
        if np.all(gap <= exit_tol):
            break
    else:
        probe = np.minimum(D, K.apply_min(D, shift))
        drop = np.nanmax(np.where(np.isfinite(D), D - probe, 0.0))
        if drop > 1e-9:
            raise NumericalError(
                f"shifted kernel has a negative cycle (still improving by {drop:.3e})"
            )
    if not np.all(np.isfinite(D)):
        stranded = np.unique(np.argwhere(~np.isfinite(D))[:, 1])[:8]
        raise NumericalError(f"kernel graph is not strongly connected, e.g. cells {stranded.tolist()}")
    if not inv:
        return D

    row_of = np.empty(N, dtype=np.int64)
    row_of[slab] = np.arange(slab.size)
    cells = np.stack(np.unravel_index(np.arange(N), K.grid.shape), axis=-1)
    proj = cells.copy()
    proj[:, inv] = 0
    pflat = np.ravel_multi_index(tuple(proj.T), K.grid.shape)
    full = np.empty((N, N))
    for y in range(N):
        base = D[row_of[pflat[y]]].reshape(K.grid.shape)
        t = cells[y][inv]
        full[y] = np.roll(base, shift=tuple(t), axis=tuple(inv)).ravel()
    return full


def cycle_values(K: ActionKernel, sp_mat: np.ndarray, shift: float) -> np.ndarray:
    """Per-cell best cycle weight on the shifted kernel: min over first
    hops x -> y of cost + SP(y, x)."""
    cols = np.arange(K.point_count)
    best = np.full(K.point_count, np.inf)
    for s, src in enumerate(backward_sources(K)):
        best[src] = np.minimum(best[src], K.weights[s] + shift + sp_mat[cols, src])
    return best


def closure_barrier(K: ActionKernel, c: float) -> SemiMetric:
    """h(x,y) = min over critical cells a of SP(x,a) + SP(a,y), with SP the
    closure of the kernel shifted by c*tau and the critical cells those
    whose best cycle is flat."""
    shift = c * K.tau
    sp_mat = kernel_closure(K, shift)
    cyc = cycle_values(K, sp_mat, shift)
    zero_tol = 1e-10 * max(1.0, float(np.max(np.abs(sp_mat))))
    critical = np.nonzero(cyc <= zero_tol)[0]
    if critical.size == 0:
        raise NumericalError(
            f"no zero-mean cycle at level c={c}; smallest cycle weight {cyc.min():.3e}. "
            "The supplied c is likely not the critical value of this kernel."
        )
    N = K.point_count
    if critical.size == N:
        h = sp_mat.copy()
    else:
        h = np.full((N, N), np.inf)
        for a in critical:
            np.minimum(h, sp_mat[:, a][:, None] + sp_mat[a, :][None, :], out=h)
    return SemiMetric(values=h, symmetric=False)


def representative_barrier(K: ActionKernel, cv: CriticalValue) -> np.ndarray:
    """h = min over class representatives a of into[a][:, None] + out[a],
    one dense N x N sum per representative, non-finite entries kept."""
    cg, N = critical_graph(K, cv), K.point_count
    G, critical, labels = cg.graph, cg.critical, cg.labels
    _, first = np.unique(labels[critical], return_index=True)
    reps = np.sort(critical[first])
    into = dijkstra(G.T, indices=reps)[:, :N] - cv.bias
    out = dijkstra(G, indices=reps)[:, :N] + cv.bias
    h = into[0][:, None] + out[0]
    for i in range(1, reps.size):
        np.minimum(h, into[i][:, None] + out[i], out=h)
    return h


def slab_barrier(K: ActionKernel, cv: CriticalValue) -> np.ndarray:
    """h = SP when every cell is critical: the reduced-cost shortest paths
    from each slab cell (zero coordinates on the invariant axes), rolled
    to every source row by translate_rows."""
    G, N = critical_graph(K, cv).graph, K.point_count
    axes = invariant_axes(K)
    cells = np.stack(np.unravel_index(np.arange(N), K.grid.shape), axis=-1)
    slab = np.nonzero(~np.any(cells[:, axes], axis=1))[0]
    sp = dijkstra(G, indices=slab)[:, :N] - cv.bias[slab, None] + cv.bias
    return translate_rows(K, cells, axes, slab, sp)


def value_iteration_weak_kam(K: ActionKernel, c: float, u0: Optional[np.ndarray] = None,
                             tol: float = 1e-9, max_iter: Optional[int] = None,
                             check_every: int = 8) -> WeakKamSolution:
    """Damped value iteration for u = T- u + c*tau, normalized to min u = 0.

    The undamped iterates eventually cycle on the min-plus eigenspace;
    an elementwise running min over the post-burn-in tail converges to a
    genuine fixed point (min-plus combinations of solutions are
    solutions). If the residual stalls the accumulator is re-seeded from
    the current iterate, which discards transient undershoot.
    """
    N = K.point_count
    shift = c * K.tau
    max_iter = 50 * N if max_iter is None else int(max_iter)
    burn_in = min(N, max_iter // 4)
    z = np.zeros(N) if u0 is None else as_value_array(u0).copy()
    if z.shape != (N,):
        raise ConfigError(f"u0 has shape {z.shape}, expected ({N},)")

    m = None
    best_res = np.inf
    stall = 0
    res = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        z_next = K.apply_min(z, shift)
        raw = float(np.max(np.abs(z_next - z)))
        z = z_next
        if raw <= tol:  # the undamped iterate converged outright
            m = z
            res = raw
            break
        if it < burn_in:
            continue
        m = z.copy() if m is None else np.minimum(m, z)
        if it % check_every == 0:
            res = float(np.max(np.abs(K.apply_min(m, shift) - m)))
            if res <= tol:
                break
            if res < best_res - tol:
                best_res = res
                stall = 0
            else:
                stall += 1
                if stall * check_every > 2 * N:
                    m = None  # re-seed: the early mins trapped a transient
                    best_res = np.inf
                    stall = 0
    else:
        raise NumericalError(
            f"weak KAM iteration did not reach tol={tol} in {max_iter} sweeps "
            f"(last residual {res:.3e})"
        )
    u = m - np.min(m)
    return WeakKamSolution(u=ValueFunction(K.grid, u), c=c, residual=res, iterations=it)


def translate_rows(K: ActionKernel, cells: np.ndarray, axes: list, slab: np.ndarray,
                   sp: np.ndarray) -> np.ndarray:
    """Every source row of sp, each the row of its slab projection rolled
    along the invariant axes by the source's coordinates, one np.roll per
    source row."""
    if not axes:
        return sp
    N = K.point_count
    row_of = np.empty(N, dtype=np.int64)
    row_of[slab] = np.arange(slab.size)
    proj = cells.copy()
    proj[:, axes] = 0
    pflat = np.ravel_multi_index(tuple(proj.T), K.grid.shape)
    full = np.empty((N, N))
    for y in range(N):
        base = sp[row_of[pflat[y]]].reshape(K.grid.shape)
        full[y] = np.roll(base, shift=tuple(cells[y][axes]), axis=tuple(axes)).ravel()
    return full


def _greedy_centers(values: np.ndarray, r: float) -> list:
    """Greedy ball covering anchored at the first uncovered point.

    The center is the candidate whose ball covers that point and the
    most other uncovered points (ties to the lowest index), so balls
    straddle the frontier instead of trailing it; anchoring at the first
    uncovered point keeps the scan deterministic and the count within
    the usual greedy factor of the optimal covering.
    """
    k = values.shape[0]
    uncovered = np.ones(k, dtype=bool)
    centers = []
    while True:
        left = np.nonzero(uncovered)[0]
        if left.size == 0:
            return centers
        i = int(left[0])
        cands = np.nonzero(values[:, i] <= r)[0]
        gains = (values[cands][:, uncovered] <= r).sum(axis=1)
        q = int(cands[int(np.argmax(gains))])
        centers.append(q)
        uncovered &= values[q] > r


def union_find_quotient(delta: SemiMetric, A: AubrySet, merge_threshold: float) -> QuotientPartition:
    """Union-find merge of Aubry indices at delta <= merge_threshold, and the
    largest delta within a class from the dense values of each class."""
    sub = delta.values[np.ix_(A.indices, A.indices)]
    k = A.indices.size
    if np.all(sub <= merge_threshold):
        members = sorted(int(i) for i in A.indices)
        return QuotientPartition(classes=[members], representative=[members[0]],
                                 merge_threshold=float(merge_threshold),
                                 diameter=float(np.max(sub, initial=0.0)))
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    ii, jj = np.nonzero(sub <= merge_threshold)
    for i, j in zip(ii.tolist(), jj.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    groups = {}
    ids = A.indices
    for i in range(k):
        groups.setdefault(find(i), []).append(int(ids[i]))
    classes = sorted((sorted(m) for m in groups.values()), key=lambda m: m[0])
    reps = [m[0] for m in classes]
    diameter = max(float(np.max(delta.values[np.ix_(m, m)], initial=0.0)) for m in classes)
    return QuotientPartition(classes=classes, representative=reps,
                             merge_threshold=float(merge_threshold), diameter=diameter)


def _auto_scales(delta, indices) -> np.ndarray:
    """Geometric scale grid spanning the positive delta range of the set."""
    sub = delta.values[np.ix_(indices, indices)]
    off = sub[sub > 0]
    if off.size == 0:
        return np.geomspace(1e-4, 1e-1, 6)
    hi = float(np.max(off))
    lo = float(np.min(off))
    lo = max(lo / 2.0, hi * 1e-4) or lo
    return np.geomspace(lo, hi, 8)


def dense_hausdorff(a, b, grid) -> float:
    """Hausdorff distance in the torus metric between cell sets a and b."""
    xa, xb = grid.coords(a), grid.coords(b)
    d = np.linalg.norm(wrap_displacement(xa[:, None, :], xb[None, :, :]), axis=-1)
    return max(float(np.max(np.min(d, axis=1))), float(np.max(np.min(d, axis=0))))


def stencil_graph_csc(K: ActionKernel, weights: np.ndarray) -> sparse.csc_matrix:
    """Column z lists the sources of z, the edge weighing weights[s, z]; the
    cheapest of aliased offsets is kept and infinite weights are dropped."""
    N = K.point_count
    _, first, group = np.unique(K.offsets % K.grid.n_per_axis, axis=0,
                                return_index=True, return_inverse=True)
    w = np.full((first.size, N), np.inf)
    for s, g in enumerate(group):
        np.minimum(w[g], weights[s], out=w[g])
    keep = np.isfinite(w.T)
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    return sparse.csc_matrix((w.T[keep], backward_sources(K)[first].T[keep], indptr),
                             shape=(N, N))


def initial_policy(K: ActionKernel) -> np.ndarray:
    """The shortest-path tree into the cheapest self-loop, else the greedy
    policy, with the tree's offsets chosen from the (S, N) source table."""
    W = K.weights
    policy = np.argmin(W, axis=0)
    zero = np.nonzero(np.all(K.offsets == 0, axis=1))[0]
    if zero.size == 0:
        return policy
    G = stencil_graph_csc(K, W - W.min())
    v_star = int(np.argmin(W[zero[0]]))
    _, pred = dijkstra(G, indices=v_star, return_predecessors=True)
    tree = np.argmin(np.where(backward_sources(K) == pred, W, np.inf), axis=0)
    policy = np.where(pred >= 0, tree, policy)
    policy[v_star] = zero[0]
    return policy


def improvement(src: np.ndarray, W: np.ndarray, eta: np.ndarray, x: np.ndarray) -> tuple:
    """Improving cells and their offsets from the (S, N) candidates."""
    E = eta[src]
    e_min = E.min(axis=0)
    better = e_min < eta
    first = better.any()
    cand = x[src] + (W if first else W - eta)
    cand[E != (e_min if first else eta)] = np.inf
    if not first:
        tol = 1e-12 * (1.0 + float(np.max(np.abs(x))) + float(np.max(np.abs(W))))
        better = cand.min(axis=0) < x - tol
    return better, np.argmin(cand, axis=0)


def policy_iteration(K: ActionKernel) -> tuple:
    """The stable policy, its bias x and its cycles (mean, cells), by the
    library's rounds on the (S, N) forms."""
    src, W, cols = backward_sources(K), K.weights, np.arange(K.point_count)
    policy = initial_policy(K)
    while True:
        eta, x, cycles = _policy_values(src[policy, cols], W[policy, cols])
        better, choice = improvement(src, W, eta, x)
        if not better.any():
            return policy, x, cycles
        policy = np.where(better, choice, policy)


def reduced_costs(K: ActionKernel, cv: CriticalValue) -> tuple:
    """The (S, N) reduced costs r = ((w + c*tau) + x(y)) - x(z), clipped at 0,
    and the scale critical_graph measures zero edges by."""
    x = cv.bias
    r = K.weights + cv.c * K.tau
    scale = max(1.0, float(max(r.max(), -r.min())) + float(np.max(np.abs(x))))
    r += x[backward_sources(K)]
    r -= x
    if r.min() < -NEGATIVE_TOL * scale:
        raise NumericalError(f"negative reduced cost {r.min():.3e}")
    return np.maximum(r, 0.0, out=r), scale


def check_dominated(K: ActionKernel, u: np.ndarray, c: float, tol: float = 0.0) -> DominationReport:
    """The largest violation over the (S, N) table, first in flat order."""
    u = as_value_array(u)
    src = backward_sources(K)
    viol = u[None, :] - u[src] - K.weights - c * K.tau
    s, z = np.unravel_index(int(np.argmax(viol)), viol.shape)
    worst = float(viol[s, z])
    return DominationReport(max_violation=worst, worst_edge=(int(src[s, z]), int(z)),
                            dominated=worst <= tol)


def classify_aubry(K: ActionKernel, h, c: float, indices) -> list:
    """aubry.classify_aubry with every learned cell's (S, |cells|) scores."""
    indices = np.asarray(indices, dtype=np.int64)
    succ, stationary = {}, {}

    def learn(cells):
        fwd = K.targets(cells)
        scores = np.take_along_axis(K.weights, fwd, axis=1) + c * K.tau + h.at(fwd, cells)
        best, s = np.min(scores, axis=0), np.argmin(scores, axis=0)
        succ.update(zip(cells.tolist(), fwd[s, np.arange(cells.size)].tolist()))
        stationary.update(zip(cells.tolist(), (scores[K.zero_offset] <= best + 1e-12).tolist()))

    learn(indices)
    labels = []
    for x in indices.tolist():
        if stationary[x]:
            labels.append("stationary")
            continue
        seen, v, label = {x}, succ[x], "other"
        for _ in range(K.point_count):
            if v == x:
                label = "periodic"
                break
            if v not in succ:
                learn(np.array([v]))
            if v in seen or stationary[v]:
                break
            seen.add(v)
            v = succ[v]
        labels.append(label)
    return labels


def fmt_cell(v) -> str:
    """One CSV cell: bools as True/False, integers in decimal, floats at 12
    significant digits, anything else by str."""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.11e" % float(v)
    return str(v)


def csv_text(header, rows) -> str:
    """The CSV text of a header and rows of cells."""
    return "".join(",".join(map(fmt_cell, row)) + "\n" for row in [header, *rows])


@dataclass(frozen=True)
class HamiltonianProbe:
    """Dense Legendre search settings: v-grid radius and resolution."""

    radius: float = 4.0
    samples_per_axis: int = 129

    def velocity_grid(self, dim: int) -> np.ndarray:
        axis = np.linspace(-self.radius, self.radius, self.samples_per_axis)
        mesh = np.meshgrid(*[axis] * dim, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def dense_legendre(L: Lagrangian, x, p, probe: HamiltonianProbe = HamiltonianProbe()):
    """H(x,p) = max_v [ p.v - L(x,v) ] over the probe's velocity grid, per row."""
    x, p = np.broadcast_arrays(np.atleast_2d(np.asarray(x, dtype=float)),
                               np.atleast_2d(np.asarray(p, dtype=float)))
    vgrid = probe.velocity_grid(L.dim)  # (m, dim)
    k, m = x.shape[0], vgrid.shape[0]
    # values[k, i] = p_k . v_i - L(x_k, v_i)
    lvals = L(np.repeat(x, m, axis=0), np.tile(vgrid, (k, 1))).reshape(k, m)
    return np.max(p @ vgrid.T - lvals, axis=1)
