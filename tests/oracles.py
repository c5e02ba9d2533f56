"""Reference algorithms the tests check the library against.

`_karp` is Karp's minimum mean cycle on the (S, N) offset form of a
kernel, run from a virtual source. Its (N+1) x N tables make it too slow
and memory hungry for the library, which uses policy iteration instead.
`exhaustive_min_mean` enumerates every simple cycle with networkx.
"""

import networkx as nx
import numpy as np

from weakkam.critical import _backward_sources
from weakkam.errors import NumericalError
from weakkam.kernel import ActionKernel


def _karp(K: ActionKernel):
    N = K.point_count
    src = _backward_sources(K)
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
    fwd = K.forward_targets()
    G = nx.DiGraph()
    for s in range(K.stencil_size):
        for y, z in enumerate(fwd[s].tolist()):
            w = float(K.weights[s, z])
            if not G.has_edge(y, z) or w < G.edges[y, z]["w"]:
                G.add_edge(y, z, w=w)
    best = np.inf
    for cyc in nx.simple_cycles(G):
        k = len(cyc)
        best = min(best, sum(G.edges[cyc[i], cyc[(i + 1) % k]]["w"] for i in range(k)) / k)
    return best
