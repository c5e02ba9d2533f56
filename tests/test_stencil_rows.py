"""The stencil consumers, read one offset row at a time, against their (S, N)
forms in oracles.py: the same policy, bias, graph arrays, domination report
and Aubry labels, bit for bit, and a traced memory peak of a few (S, N) rows."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakkam import (
    aubry_set,
    build_grid,
    build_kernel,
    check_dominated,
    cosine_potential,
    critical_value,
    kinetic_lagrangian,
    mane_lagrangian,
    mechanical_lagrangian,
    peierls_barrier,
    sin_gradient_field,
)
from weakkam.critical import _initial_policy, critical_graph
from weakkam.kernel import stencil_graph

import oracles
from test_critical import EXHAUSTIVE_CASES

FAMILIES = {
    "kinetic": kinetic_lagrangian,
    "mechanical": lambda d: mechanical_lagrangian(cosine_potential(d, [1] + [0] * (d - 1))),
    "mane": lambda d: mane_lagrangian(sin_gradient_field(d)),
}


@st.composite
def kernels(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    dim = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=5, max_value=24 if dim == 1 else 10))
    cells = draw(st.integers(min_value=1, max_value=min(3, (n - 1) // 2)))
    g = build_grid(dim, n)
    return build_kernel(g, FAMILIES[family](dim), stencil_radius=cells * g.spacing)


def _inf_sheet():
    # 2-d kinetic n=6 with every fourth weight of the nonzero offsets +inf
    g = build_grid(2, 6)
    K = build_kernel(g, kinetic_lagrangian(2), stencil_radius=g.spacing)
    W = K.weights.copy()
    W[np.nonzero(K.offsets.any(axis=1))[0], ::4] = np.inf
    return dataclasses.replace(K, weights=W)


def assert_same_graph(G, O):
    # G lists each row in offset order, the oracle's CSR in column order
    G, O = G.sorted_indices(), O.tocsr()
    assert G.data.tobytes() == O.data.tobytes()
    np.testing.assert_array_equal(G.indices, O.indices)
    np.testing.assert_array_equal(G.indptr, O.indptr)


def assert_offset_order(K, G):
    """Row y of G lists y + offsets[s] in offset order, an alias once, and
    the source row N lists every cell with weight 0."""
    N = K.point_count
    T = K.targets(np.arange(N))
    for y in range(N):
        cols = G.indices[G.indptr[y]:G.indptr[y + 1]]
        # the first offset leading to each listed target
        s = np.argmax(T[:, y][None, :] == cols[:, None], axis=1)
        assert np.array_equal(T[s, y], cols) and np.all(np.diff(s) > 0), y
    np.testing.assert_array_equal(G.indices[G.indptr[N]:], np.arange(N))
    assert not G.data[G.indptr[N]:].any()


def assert_matches_oracles(K, aubry=True):
    W, N = K.weights, K.point_count
    for shift in (0.0, -W.min(), 0.375):
        G = stencil_graph(K, shift, np.zeros(N))
        assert_offset_order(K, G)
        assert_same_graph(G[:N, :N], oracles.stencil_graph_csc(K, W + shift))
    np.testing.assert_array_equal(_initial_policy(K), oracles.initial_policy(K))

    cv = critical_value(K)
    _, x, cycles = oracles.policy_iteration(K)
    assert cv.bias.tobytes() == x.tobytes()
    assert cv.mean_cycle_weight == min(cycles, key=lambda mc: mc[0])[0]

    G = critical_graph(K, cv).graph[:N, :N]
    r, _ = oracles.reduced_costs(K, cv)
    assert_same_graph(G, oracles.stencil_graph_csc(K, r))

    rng = np.random.default_rng(K.point_count)
    # zeros and small integers tie on many edges: the first in (S, N) order wins
    for u in (rng.normal(size=K.point_count), np.zeros(K.point_count),
              rng.integers(0, 3, K.point_count).astype(float), cv.bias):
        assert check_dominated(K, u, cv.c) == oracles.check_dominated(K, u, cv.c)

    if aubry:
        h = peierls_barrier(K, critical_graph(K, cv))
        A = aubry_set(h, None, K, cv.c)
        assert A.labels == oracles.classify_aubry(K, h, cv.c, A.indices)


@settings(max_examples=30, deadline=None)
@given(kernels())
def test_offset_rows_match_the_table_forms(K):
    assert_matches_oracles(K)


@pytest.mark.parametrize("case", ["aliased-hand", "inf-sheet"])
def test_offset_rows_match_the_table_forms_on_raw_kernels(case):
    K = _inf_sheet() if case == "inf-sheet" else EXHAUSTIVE_CASES[case]()
    if case == "inf-sheet":
        # the infinite weights are no edges
        N = K.point_count
        G = stencil_graph(K, 0.0, np.zeros(N))[:N, :N]
        assert G.nnz == np.count_nonzero(np.isfinite(K.weights))
        assert np.all(np.isfinite(G.data))
    assert_matches_oracles(K, aubry=case == "aliased-hand")


# traced peak of the critical value, the critical graph, the domination check
# and the Aubry set, in (S, N) float arrays: the weights exist beforehand, the
# graph (float64 weights, int32 targets) is 1.5 such arrays and the rest is
# O(N) rows and the critical graph's zero edges; in their table forms the
# first three steps peaked at 3 to 6 such arrays, the kinetic Aubry set at 4
PEAK_TABLES = 2.5


@pytest.mark.parametrize("family", ["kinetic", "mane"])
def test_stencil_consumers_hold_no_offset_table(family):
    g = build_grid(2, 48)
    K = build_kernel(g, FAMILIES[family](2))
    table = 8 * K.stencil_size * K.point_count
    cv = critical_value(K)
    h = peierls_barrier(K, critical_graph(K, cv))
    steps = [lambda: critical_value(K), lambda: critical_graph(K, cv),
             lambda: check_dominated(K, cv.bias, cv.c), lambda: aubry_set(h, None, K, cv.c)]
    for step in steps:
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_TABLES * table, (step, peak / table)
