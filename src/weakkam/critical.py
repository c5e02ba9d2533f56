"""Critical value and weak KAM solutions of the discrete cell problem.

The additive eigenvalue of the min-plus kernel is c = -mu/tau, where mu
is the smallest cycle mean of the one-step costs, found by min-plus
policy iteration (Howard's algorithm). Shifting the kernel by c*tau then
makes the best cycles exactly flat, and value iteration on the shifted
backward operator converges (after damping the min-plus eigenspace
cycling) to a fixed point u = T^- u + c*tau.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import ConfigError, NumericalError
from .grid import ValueFunction
from .kernel import ActionKernel, backward_sources, minplus_apply, stencil_graph


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
        """Replay the witness cycle through the kernel and average it."""
        cyc = list(self.witness_cycle)
        total = 0.0
        fwd = K.forward_targets()
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            hit = np.nonzero(fwd[:, a] == b)[0]
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


def as_value_array(u) -> np.ndarray:
    """Accept a ValueFunction or a plain array and return the flat values."""
    if isinstance(u, ValueFunction):
        return u.values
    return np.asarray(u, dtype=float)


def critical_value(K: ActionKernel) -> CriticalValue:
    """Minimum mean cycle of the kernel graph by min-plus policy iteration.

    Howard's algorithm runs on the reversed graph: a policy gives each
    cell z one offset s, pointing z at its source src[s, z] at cost
    weights[s, z]. Value determination gives every cell the mean eta of
    the policy cycle it reaches and a bias x; improvement first lowers
    eta, then x at equal eta, until the policy is stable. mu is the
    smallest policy cycle mean and the witness is that cycle, reversed
    into forward order.
    """
    src = backward_sources(K)
    W = K.weights
    cols = np.arange(K.point_count)
    policy = _initial_policy(K, src)
    # a few rounds suffice in practice; the cap turns a rounding-level
    # flip-flop between equivalent policies into an error
    max_rounds = 2 * K.point_count + 16
    for it in range(1, max_rounds + 1):
        eta, x, cycles = _policy_values(src[policy, cols], W[policy, cols])
        E = eta[src]
        e_min = E.min(axis=0)
        better = e_min < eta
        if better.any():  # first lower eta: reach a cycle of smaller mean
            cand = np.where(E == e_min, W + x[src], np.inf)
        else:  # then lower x through successors of equal mean
            cand = np.where(E == eta, W - eta + x[src], np.inf)
            # x sums costs along policy paths; ignore gains at rounding level
            tol = 1e-12 * (1.0 + float(np.max(np.abs(x))) + float(np.max(np.abs(W))))
            better = cand.min(axis=0) < x - tol
        if not better.any():
            break
        policy = np.where(better, np.argmin(cand, axis=0), policy)
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


def _initial_policy(K: ActionKernel, src: np.ndarray) -> np.ndarray:
    """Shortest-path tree into the cheapest self-loop, else the greedy policy.

    The tree comes from one Dijkstra run out of the cell v* with the
    cheapest self-loop, on forward edges shifted to be nonnegative; every
    reached cell takes the offset leading to its predecessor, so the
    whole grid starts on the cycle at v*. Kernels without a zero offset
    start from the cheapest incoming edge of every cell.
    """
    W = K.weights
    policy = np.argmin(W, axis=0)
    zero = np.nonzero(np.all(K.offsets == 0, axis=1))[0]
    if zero.size == 0:
        return policy
    G = stencil_graph(K, W - W.min())
    v_star = int(np.argmin(W[zero[0]]))
    _, pred = dijkstra(G, indices=v_star, return_predecessors=True)
    tree = np.argmin(np.where(src == pred, W, np.inf), axis=0)
    policy = np.where(pred >= 0, tree, policy)
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


def lax_oleinik_minus(K: ActionKernel, u: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """One backward step: (T- u)(x) = min_y [ u(y) + cost[y][x] ] + shift."""
    return minplus_apply(K, as_value_array(u), shift)


def lax_oleinik_plus(K: ActionKernel, u: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """One forward step: (T+ u)(x) = max_y [ u(y) - cost[x][y] - shift ]."""
    u = as_value_array(u)
    if u.shape[-1] != K.point_count:
        raise ConfigError(f"value vector has {u.shape[-1]} entries, kernel has {K.point_count}")
    return K.apply_max(u, shift)


@dataclass
class DominationReport:
    max_violation: float
    worst_edge: tuple
    dominated: bool


def check_dominated(K: ActionKernel, u: np.ndarray, c: float, tol: float = 0.0) -> DominationReport:
    """Largest violation of u(z) - u(y) <= cost[y][z] + c*tau over stencil edges."""
    u = as_value_array(u)
    src = backward_sources(K)
    viol = u[None, :] - u[src] - K.weights - c * K.tau  # (S, N)
    flat = int(np.argmax(viol))
    s, z = np.unravel_index(flat, viol.shape)
    worst = float(viol[s, z])
    return DominationReport(max_violation=worst,
                            worst_edge=(int(src[s, z]), int(z)),
                            dominated=worst <= tol)


def weak_kam_solution(K: ActionKernel, c: float, u0: Optional[np.ndarray] = None,
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
