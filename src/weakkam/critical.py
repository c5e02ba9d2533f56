"""Critical value, critical graph and weak KAM solutions of the cell problem.

The additive eigenvalue of the min-plus kernel is c = -mu/tau, where mu
is the smallest cycle mean of the one-step costs, found by min-plus
policy iteration (Howard's algorithm). Reweighted by the policy bias x,
the costs r = w(y->z) + c*tau + x(y) - x(z) are nonnegative; their zero
edges on cycles form the critical graph. The weak KAM solution of u0 is
its Lax-Oleinik limit min_x u0(x) + h(x,.), two Dijkstra runs on r.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import ConfigError, NumericalError
from .grid import ValueFunction, as_value_array, check_ids
from .kernel import ActionKernel, first_min, stencil_graph

# reduced costs at most ZERO_TOL * scale are critical edges; below
# -NEGATIVE_TOL * scale the bias is no subsolution, so c is too low
ZERO_TOL = 1e-10
NEGATIVE_TOL = 1e-9


def check_tolerance(tol: float, name: str = "tol"):
    """ConfigError, naming the argument, unless tol is a finite number >= 0:
    no comparison with NaN is true, so a NaN tolerance would pass every
    residual and a NaN threshold would select no cell."""
    if not 0 <= tol < math.inf:
        raise ConfigError(f"{name} must be a finite number >= 0, got {tol}")


@dataclass
class CriticalValue:
    c: float
    mean_cycle_weight: float
    witness_cycle: list  # cell indices, cycle closes from last back to first
    tau: float
    iterations: int = 0  # policy-iteration rounds
    # bias x of the stable policy: x(z) <= w(y->z) + c*tau + x(y) on every
    # stencil edge, the potential the Peierls barrier reweights with
    bias: Optional[np.ndarray] = None

    def witness_mean(self, K: ActionKernel) -> float:
        """Replay the witness cycle through the kernel and average it;
        ConfigError unless it is a nonempty list of the kernel's cells."""
        cyc = check_ids(self.witness_cycle, K.point_count).tolist()
        if not cyc:
            raise ConfigError("the witness cycle is empty")
        total = 0.0
        fwd = K.targets(cyc)
        for i, (a, b) in enumerate(zip(cyc, cyc[1:] + cyc[:1])):
            hit = np.nonzero(fwd[:, i] == b)[0]
            if hit.size == 0:
                raise NumericalError(f"witness edge {a}->{b} is not in the stencil")
            # several offsets can alias onto the same target on tiny grids
            total += float(np.min(K.weights[hit, b]))
        return total / len(cyc)


@dataclass
class WeakKamSolution:
    u: ValueFunction
    c: float
    residual: float
    iterations: int
    critical_cells: int = 0


def critical_value(K: ActionKernel) -> CriticalValue:
    """Minimum mean cycle of the kernel graph by min-plus policy iteration.

    Howard's algorithm runs on the reversed graph: a policy gives each
    cell z one offset s, pointing z at its source z - offsets[s] at cost
    weights[s, z]. Value determination gives every cell the mean eta of
    the policy cycle it reaches and a bias x; improvement first lowers
    eta, then x at equal eta, until the policy is stable. mu is the
    smallest policy cycle mean and the witness is that cycle, reversed
    into forward order.
    """
    W = K.weights
    cols = np.arange(K.point_count)
    policy = _initial_policy(K)
    # a few rounds suffice in practice; the cap turns a rounding-level
    # flip-flop between equivalent policies into an error
    max_rounds = 2 * K.point_count + 16
    for it in range(1, max_rounds + 1):
        eta, x, cycles = _policy_values(K.targets(cols, -K.offsets[policy]), W[policy, cols])
        better, choice = _improvement(K, eta, x)
        if not better.any():
            break
        policy = np.where(better, choice, policy)
    else:
        raise NumericalError(f"policy iteration did not settle in {max_rounds} rounds")

    mu, cycle = min(cycles, key=lambda mc: mc[0])
    # policy cycles follow kernel edges backwards: reverse, smallest cell first
    cv = CriticalValue(c=-mu / K.tau, mean_cycle_weight=mu,
                       witness_cycle=cycle[:1] + cycle[:0:-1], tau=K.tau, iterations=it,
                       bias=x)
    replay = cv.witness_mean(K)
    if abs(replay - mu) > 1e-9 * max(1.0, abs(mu)):
        raise NumericalError(
            f"failed to certify a minimum mean cycle: mu={mu}, witness mean={replay}"
        )
    return cv


def _improvement(K: ActionKernel, eta: np.ndarray, x: np.ndarray) -> tuple:
    """Cells whose policy improves, and the offset each would take.

    First lower eta: reach a cycle of smaller mean; else lower x through
    successors of equal mean. The candidates W + x(src), else
    (W - eta) + x(src), are read one offset at a time.
    """
    W = K.weights
    e_min = first_min(K.rolled(eta))[0]
    better = e_min < eta
    first = better.any()
    ref = e_min if first else eta
    best, choice = first_min(np.where(e == ref, xs + (w if first else w - eta), np.inf)
                             for w, e, xs in zip(W, K.rolled(eta), K.rolled(x)))
    if not first:
        # x sums costs along policy paths; ignore gains at rounding level
        tol = 1e-12 * (1.0 + float(np.max(np.abs(x))) + max(float(W.max()), -float(W.min())))
        better = best < x - tol
    return better, choice


def _initial_policy(K: ActionKernel) -> np.ndarray:
    """Shortest-path tree into the cheapest self-loop, else the greedy policy.

    The tree comes from one Dijkstra run out of the cell v* with the
    cheapest self-loop, on forward edges shifted to be nonnegative; every
    reached cell takes the offset leading to its predecessor, so the
    whole grid starts on the cycle at v*. Cells the tree leaves unreached,
    and every cell of a kernel without a zero offset, take their cheapest
    incoming edge.
    """
    W = K.weights
    zero = np.nonzero(np.all(K.offsets == 0, axis=1))[0]
    if zero.size == 0:
        return np.argmin(W, axis=0)
    N = K.point_count
    G = stencil_graph(K, -W.min(), np.zeros(N))
    v_star = int(np.argmin(W[zero[0]]))
    # v* cannot reach the source node N, which has no in-edges
    pred = dijkstra(G, indices=v_star, return_predecessors=True)[1][:N]
    del G
    policy = first_min(np.where(src == pred, w, np.inf)
                       for w, src in zip(W, K.rolled(np.arange(N))))[1]
    unreached = pred < 0
    policy[unreached] = np.argmin(W[:, unreached], axis=0)
    policy[v_star] = zero[0]
    return policy


def _policy_values(succ: np.ndarray, cost: np.ndarray):
    """Cycle mean eta and bias x of every cell under a fixed policy.

    Returns eta, x and the (mean, cells) of every policy cycle. Each cycle
    is rooted at its smallest cell with x = 0, so a cycle that survives a
    policy change keeps exactly the same values.
    """
    nxt, w = succ.tolist(), cost.tolist()
    n = len(nxt)
    eta, x = [0.0] * n, [0.0] * n
    state = [0] * n  # 0 unseen, 1 on the current walk, 2 valued
    cycles = []
    for v0 in range(n):
        walk, v = [], v0
        while state[v] == 0:
            state[v] = 1
            walk.append(v)
            v = nxt[v]
        if state[v] == 1:  # the walk closed a new cycle through v
            k = walk.index(v)
            cyc = walk[k:]
            del walk[k:]
            r = cyc.index(min(cyc))
            cyc = cyc[r:] + cyc[:r]
            mean = math.fsum(w[u] for u in cyc) / len(cyc)
            cycles.append((mean, cyc))
            for u in cyc:
                eta[u], state[u] = mean, 2
            for u in reversed(cyc[1:]):
                x[u] = w[u] - mean + x[nxt[u]]
        for u in reversed(walk):
            eta[u] = eta[nxt[u]]
            x[u] = w[u] - eta[u] + x[nxt[u]]
            state[u] = 2
    return np.array(eta), np.array(x), cycles


@dataclass
class DominationReport:
    max_violation: float
    worst_edge: tuple
    dominated: bool


def check_dominated(K: ActionKernel, u: np.ndarray, c: float, tol: float = 0.0) -> DominationReport:
    """Largest violation of u(z) - u(y) <= cost[y][z] + c*tau over stencil edges
    (the first in offset-major order among equals, as np.argmax over (S, N))."""
    u = as_value_array(u)
    if u.shape != (K.point_count,):
        raise ConfigError(f"values of shape {u.shape} for {K.point_count} kernel points")
    rows = (u - us - w - c * K.tau for w, us in zip(K.weights, K.rolled(u)))
    worst = [(float(v[z]), z) for v in rows for z in [int(np.argmax(v))]]
    s = int(np.argmax([v for v, _ in worst]))
    v, z = worst[s]
    return DominationReport(max_violation=v, worst_edge=(int(K.targets(z, -K.offsets[s])), z),
                            dominated=v <= tol)


@dataclass
class CriticalGraph:
    """The reduced costs r >= 0 at level cv.c as the CSR graph of stencil_graph
    on N + 1 nodes, each row in offset order, the sorted critical cells, the
    strong class of every node among the zero edges (r <= ZERO_TOL * scale)
    and the critical-edge count: zero edges inside a class, which lie on flat
    cycles. Class labels are arbitrary numbers, to compare for equality only.
    Node N is the source weak_kam_solution rewrites the out-edges of, the
    last N entries of graph.data; it has no in-edges, so no path between
    cells crosses it."""

    cv: CriticalValue
    graph: sparse.csr_matrix
    critical: np.ndarray
    labels: np.ndarray
    critical_edges: int

    def check(self, K: ActionKernel) -> int:
        """K's point count N; ConfigError unless the graph has N + 1 nodes."""
        if self.graph.shape[0] != K.point_count + 1:
            raise ConfigError(f"a critical graph on {self.graph.shape[0]} nodes for "
                              f"{K.point_count} kernel points")
        return K.point_count


def critical_graph(K: ActionKernel, cv: CriticalValue) -> CriticalGraph:
    """The critical graph of K at level cv.c, reweighted by x = cv.bias:
    r = w(y->z) + c*tau + x(y) - x(z). NumericalError when cv.c is not
    critical: below it some r is negative, above it no cycle is flat."""
    x = cv.bias
    if x is None or x.shape != (K.point_count,):
        raise ConfigError("the critical graph needs the bias that critical_value(K) "
                          "returns for this kernel")
    ct, W = cv.c * K.tau, K.weights
    # rounding is monotone, so these are the extremes of W + c*tau
    scale = max(1.0, max(float(W.max() + ct), -float(W.min() + ct)) + float(np.max(np.abs(x))))
    G = stencil_graph(K, ct, x)
    # the cell edges; the source's, the last N entries, weigh 0
    r = G.data[:-K.point_count]
    if r.min() < -NEGATIVE_TOL * scale:
        raise NumericalError(
            f"negative reduced cost {r.min():.3e} at level c={cv.c}: the bias is no "
            "subsolution there. The supplied c is likely not the critical value "
            "of this kernel.")
    np.maximum(r, 0.0, out=r)
    # the zero edges, read in place: G's rows in G's order, cut by indptr
    zero = np.flatnonzero(r <= ZERO_TOL * scale)
    row, col = np.searchsorted(G.indptr, zero, side="right") - 1, G.indices[zero]
    _, labels = connected_components(
        sparse.csr_matrix((np.ones(zero.size), col, np.searchsorted(zero, G.indptr)),
                          shape=G.shape),
        directed=True, connection="strong")
    inner = labels[row] == labels[col]
    critical = np.unique(col[inner])
    if critical.size == 0:
        raise NumericalError(
            f"no zero-mean cycle at level c={cv.c}; smallest reduced cost {r.min():.3e}. "
            "The supplied c is likely not the critical value of this kernel.")
    return CriticalGraph(cv=cv, graph=G, critical=critical, labels=labels,
                         critical_edges=int(inner.sum()))


def weak_kam_solution(K: ActionKernel, cg: CriticalGraph, u0: Optional[np.ndarray] = None,
                      tol: float = 1e-9) -> WeakKamSolution:
    """u = T- u + c*tau as the Lax-Oleinik limit min_x u0(x) + h(x,.), min u = 0.

    Two Dijkstra runs on the critical graph cg from its source node: the
    first starts every cell x at u0(x) (default 0; +inf starts nowhere) and
    gives g(a) = min_x u0(x) + SP(x,a), the second starts the critical cells
    a at g(a) and gives min_a g(a) + SP(a,y). ConfigError when u0 has a NaN
    or -inf entry or no finite one, or tol is not a finite number >= 0;
    NumericalError when the fixed-point residual max |T- u + c*tau - u|
    exceeds tol.
    """
    check_tolerance(tol)
    N = cg.check(K)
    u0 = np.zeros(N) if u0 is None else as_value_array(u0)
    if u0.shape != (N,):
        raise ConfigError(f"u0 has shape {u0.shape}, expected ({N},)")
    bad = np.flatnonzero(np.isnan(u0) | (u0 == -np.inf))
    if bad.size:
        raise ConfigError(f"u0 is {u0[bad[0]]} at cell {bad[0]}; entries must be finite "
                          "or +inf (no start there)")
    if not np.isfinite(u0).any():
        raise ConfigError("u0 has no finite entry, so no cell to start from")
    M, critical, cv = cg.graph, cg.critical, cg.cv
    x = cv.bias
    # node N is the source; its out-edges, the last N entries, are rewritten
    # per pass, and an infinite weight is no edge
    start = M.data[-N:]
    # a path y -> z costs SP(y,z) + x(y) - x(z) in reduced costs; shifting
    # the starts to be nonnegative moves every distance by one constant
    start[:] = u0 - x
    start -= start.min()
    d = dijkstra(M, indices=N)[:N]
    start[:] = np.inf
    start[critical] = d[critical]
    u = dijkstra(M, indices=N)[:N] + x
    if not np.all(np.isfinite(u)):
        raise NumericalError("kernel graph is not strongly connected: no critical cell "
                             f"reaches cells {np.nonzero(~np.isfinite(u))[0][:8].tolist()}")
    u -= u.min()
    res = float(np.max(np.abs(K.apply_min(u, cv.c * K.tau) - u)))
    if res > tol:
        raise NumericalError(f"weak KAM solution has fixed-point residual {res:.3e} "
                             f"above tol={tol}")
    return WeakKamSolution(u=ValueFunction(K.grid, u), c=cv.c, residual=res, iterations=2,
                           critical_cells=int(critical.size))
