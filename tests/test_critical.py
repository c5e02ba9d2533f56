"""Critical value, Lax-Oleinik operators, weak KAM fixed points."""

import dataclasses

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from weakkam import (
    ActionKernel,
    ConfigError,
    NumericalError,
    ValueFunction,
    build_grid,
    build_kernel,
    check_dominated,
    constant_field,
    cosine_potential,
    critical_graph,
    critical_value,
    kinetic_lagrangian,
    mane_lagrangian,
    mechanical_lagrangian,
    sin_gradient_field,
    weak_kam_solution,
    zero_field,
)

from weakkam import critical, pipeline
from weakkam.config import ExperimentConfig
from weakkam.kernel import stencil_graph

from conftest import toy_kernel
from oracles import _karp, exhaustive_min_mean

KARP_TOY = [[4.0, 1.0], [2.0, 3.0]]


def test_karp_two_point_toy():
    cv = critical_value(toy_kernel(KARP_TOY, tau=1.0))
    assert cv.c == pytest.approx(-1.5)
    assert cv.mean_cycle_weight == pytest.approx(1.5)
    assert sorted(cv.witness_cycle) == [0, 1]


def test_witness_replay_matches_mean():
    K = toy_kernel(KARP_TOY, tau=1.0)
    cv = critical_value(K)
    assert cv.witness_mean(K) == pytest.approx(cv.mean_cycle_weight)


def test_kinetic_critical_value_is_zero():
    g = build_grid(1, 16)
    cv = critical_value(build_kernel(g, kinetic_lagrangian(1)))
    assert cv.c == 0.0


def test_mane_sin_critical_value_near_zero():
    g = build_grid(1, 64)
    cv = critical_value(build_kernel(g, mane_lagrangian(sin_gradient_field(1))))
    assert abs(cv.c) <= 5 * g.spacing


def test_pendulum_critical_value_matches_exhaustive_cycles():
    g = build_grid(1, 16)
    K = build_kernel(g, mechanical_lagrangian(cosine_potential(1, [1])),
                     stencil_radius=2 * g.spacing)
    cv = critical_value(K)
    assert cv.mean_cycle_weight == exhaustive_min_mean(K)
    assert cv.c == pytest.approx(1.0)


def _raw_kernel(n, offsets, weights):
    offsets = np.asarray(offsets, dtype=np.int64)
    g = build_grid(offsets.shape[1], n)
    return ActionKernel(grid=g, tau=0.5, stencil_radius=g.spacing, offsets=offsets,
                        weights=np.asarray(weights, dtype=float))


def _normal_weights(S, N, seed):
    return np.random.default_rng(seed).normal(size=(S, N))


EXHAUSTIVE_CASES = {
    # no zero offset, so the greedy start: it leaves several policy cycles,
    # and only moving cells to a cycle of smaller mean finds mu = -3
    "no-zero-offset": lambda: _raw_kernel(7, [[-1], [1], [2]], [
        [0, 8, -2, 3, -4, -5, 0], [-4, 9, -1, 8, -1, -2, 1], [9, -1, 7, 9, -5, 3, 9]]),
    # on a 2x2 torus +1 and -1 reach the same cell along both axes
    "aliased-offsets": lambda: _raw_kernel(
        2, [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)], _normal_weights(9, 4, seed=2)),
    "aliased-no-zero": lambda: _raw_kernel(2, [[-1], [1]], _normal_weights(2, 2, seed=3)),
    # offsets -1 and +1 both lead 1 -> 0, at costs 1 and 3
    "aliased-hand": lambda: _raw_kernel(2, [[-1], [0], [1]], [[1, 2], [5, 5], [3, 0.5]]),
}


@pytest.mark.parametrize("case", list(EXHAUSTIVE_CASES))
def test_critical_value_matches_exhaustive_on_raw_kernels(case):
    K = EXHAUSTIVE_CASES[case]()
    cv = critical_value(K)
    assert cv.mean_cycle_weight == pytest.approx(exhaustive_min_mean(K), abs=1e-12)
    assert cv.witness_mean(K) == pytest.approx(cv.mean_cycle_weight, abs=1e-12)


@pytest.mark.parametrize("case", list(EXHAUSTIVE_CASES))
def test_dense_keeps_the_cheapest_aliased_offset(case):
    K = EXHAUSTIVE_CASES[case]()
    D = K.dense()
    u = np.random.default_rng(5).normal(size=K.point_count)
    np.testing.assert_array_equal(np.min(u[:, None] + D, axis=0), K.apply_min(u))
    N = K.point_count
    G = stencil_graph(K, 0.0, np.zeros(N))[:N, :N]
    finite = np.isfinite(D)
    assert G.nnz == np.count_nonzero(finite)
    np.testing.assert_array_equal(D[finite], G.toarray()[finite])


@pytest.mark.parametrize("n,k", [(2048, 1), (512, 2)], ids=["pendulum-2048", "double-well-512"])
def test_policy_iteration_starts_at_the_optimum(n, k):
    # the shortest-path-tree start must not creep towards the optimum
    # one cell per round, as the greedy start does on these kernels
    K = build_kernel(build_grid(1, n), mechanical_lagrangian(cosine_potential(1, [k])))
    cv = critical_value(K)
    assert cv.iterations <= 2
    assert cv.mean_cycle_weight == np.min(K.diagonal())


def test_invariant_reduction_agrees_with_full_karp():
    # kinetic kernels are invariant along every axis; both code paths
    # must report the same minimum cycle mean
    g = build_grid(1, 24)
    K = build_kernel(g, kinetic_lagrangian(1))
    mu_full, _ = _karp(K)
    assert critical_value(K).mean_cycle_weight == pytest.approx(mu_full, abs=1e-12)

    g2 = build_grid(2, 8)
    K2 = build_kernel(g2, mechanical_lagrangian(cosine_potential(2, [1, 0])),
                      stencil_radius=2 * g2.spacing)
    mu_full2, _ = _karp(K2)
    assert critical_value(K2).mean_cycle_weight == pytest.approx(mu_full2, abs=1e-12)


def test_constant_field_witness_wraps_the_circle():
    g = build_grid(1, 16)
    K = build_kernel(g, mane_lagrangian(constant_field([1.0], 1)))
    cv = critical_value(K)
    assert abs(cv.c) <= 5 * g.spacing
    assert cv.witness_mean(K) == pytest.approx(cv.mean_cycle_weight, abs=1e-12)


def test_lax_oleinik_identity_kernel():
    from test_kernel import identity_kernel
    K = identity_kernel()
    u = np.array([1.0, 4.0, 2.0, -3.0])
    np.testing.assert_array_equal(K.apply_min(u), u)
    np.testing.assert_array_equal(K.apply_max(u), u)


def test_lax_oleinik_duality_on_symmetric_kernel(kinetic_kernel_16):
    rng = np.random.default_rng(0)
    u = rng.normal(size=16)
    lhs = kinetic_kernel_16.apply_max(-u)
    rhs = -kinetic_kernel_16.apply_min(u)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_lax_oleinik_zero_fixed_on_kinetic(kinetic_kernel_16):
    z = np.zeros(16)
    np.testing.assert_array_equal(kinetic_kernel_16.apply_min(z), z)
    np.testing.assert_array_equal(kinetic_kernel_16.apply_max(z), z)


def test_lax_oleinik_shape_check(kinetic_kernel_16):
    with pytest.raises(ConfigError):
        kinetic_kernel_16.apply_max(np.zeros(7))


def test_weak_kam_kinetic_is_constant(mane_zero_kernel_16):
    K = mane_zero_kernel_16
    sol = weak_kam_solution(K, critical_graph(K, critical_value(K)))
    assert sol.residual == 0.0
    assert sol.iterations == 2
    np.testing.assert_array_equal(sol.u.values, np.zeros(16))


def test_weak_kam_pendulum_matches_barrier_column(pendulum_state_64):
    K, cv, h = pendulum_state_64["K"], pendulum_state_64["cv"], pendulum_state_64["h"]
    sol = weak_kam_solution(K, critical_graph(K, cv))
    assert sol.u.values[0] == 0.0  # normalized at the Aubry cell
    assert np.ptp(sol.u.values) > 0.1
    np.testing.assert_allclose(sol.u.values, h.values[0], atol=1e-9)


def test_weak_kam_unique_up_to_constants(pendulum_state_64):
    K, cv = pendulum_state_64["K"], pendulum_state_64["cv"]
    rng = np.random.default_rng(11)
    a = weak_kam_solution(K, critical_graph(K, cv), u0=rng.uniform(0, 1, 64))
    b = weak_kam_solution(K, critical_graph(K, cv), u0=rng.uniform(0, 1, 64))
    diff = a.u.values - b.u.values
    assert diff.max() - diff.min() <= 1e-9


def test_weak_kam_accepts_value_function(mane_zero_kernel_16):
    g = build_grid(1, 16)
    u0 = ValueFunction(grid=g, values=np.zeros(16))
    K = mane_zero_kernel_16
    sol = weak_kam_solution(K, critical_graph(K, critical_value(K)), u0=u0)
    assert sol.residual == 0.0


def test_weak_kam_rejects_bad_seed_shape(mane_zero_kernel_16):
    K = mane_zero_kernel_16
    with pytest.raises(ConfigError):
        weak_kam_solution(K, critical_graph(K, critical_value(K)), u0=np.zeros(5))


def test_weak_kam_needs_critical_level(pendulum_state_64):
    K, cv = pendulum_state_64["K"], pendulum_state_64["cv"]
    # below c the bias is no subsolution; above it no cycle is flat
    for c in (cv.c - 0.5, cv.c + 0.5):
        with pytest.raises(NumericalError):
            weak_kam_solution(K, critical_graph(K, dataclasses.replace(cv, c=c)))


def test_weak_kam_rejects_nan_and_minus_inf_seeds(pendulum_state_64):
    K = pendulum_state_64["K"]
    cg = critical_graph(K, pendulum_state_64["cv"])
    for bad in (np.nan, -np.inf):
        u0 = np.zeros(64)
        u0[[5, 9]] = bad
        with pytest.raises(ConfigError, match=f"u0 is {bad} at cell 5"):
            weak_kam_solution(K, cg, u0=u0)
    with pytest.raises(ConfigError, match="no finite entry"):
        weak_kam_solution(K, cg, u0=np.full(64, np.inf))
    # +inf starts nowhere: a seed at one cell is h(x, .) up to a constant
    u0 = np.full(64, np.inf)
    u0[40] = 0.0
    u = weak_kam_solution(K, cg, u0=u0).u.values
    h = pendulum_state_64["h"].values[40]
    np.testing.assert_allclose(u - u.min(), h - h.min(), atol=1e-9)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_weak_kam_needs_a_finite_nonnegative_tol(pendulum_state_64, tol):
    K, cv = pendulum_state_64["K"], pendulum_state_64["cv"]
    with pytest.raises(ConfigError, match="tol must be a finite number >= 0"):
        weak_kam_solution(K, critical_graph(K, cv), tol=tol)


def test_zero_edges_keep_the_row_order_of_the_graph(monkeypatch):
    # constant drift 1/2: the self-loop and the step up one cell tie, so
    # every row has two zero edges and the last row's wrap out of order
    K = build_kernel(build_grid(1, 16), mane_lagrangian(constant_field([0.5], 1)))
    seen = []

    def spy(graph, **kwargs):
        seen.append((graph.indices.copy(), graph.indptr.copy()))
        return connected_components(graph, **kwargs)

    monkeypatch.setattr(critical, "connected_components", spy)
    G = critical_graph(K, critical_value(K)).graph
    (indices, indptr), = seen
    assert indptr.size == G.indptr.size
    unsorted = False
    for y in range(G.shape[0]):
        row, zero = G.indices[G.indptr[y]:G.indptr[y + 1]], indices[indptr[y]:indptr[y + 1]]
        where = [int(np.flatnonzero(row == z)[0]) for z in zero]
        assert where == sorted(where), y
        unsorted |= bool(np.any(np.diff(zero) < 0))
    assert unsorted


def test_all_run_builds_one_critical_graph(tmp_path, monkeypatch):
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    # the pipeline holds its own binding of critical_graph
    counted(pipeline, "critical_graph")
    counted(critical, "stencil_graph")
    counted(critical, "connected_components")
    cfg = ExperimentConfig.from_dict({
        "model": {"family": "mechanical", "potential": {"name": "cosine", "k": [1]}},
        "grid": {"dim": 1, "n": 64}, "outputs": {"directory": str(tmp_path)}})
    manifest = pipeline.run_pipeline(cfg, ["all"])
    assert {"weakkam", "barrier", "regularize"} <= set(manifest["stages"])
    # the initial policy's graph and the critical graph, one strong-component pass
    assert calls == {"critical_graph": 1, "stencil_graph": 2, "connected_components": 1}


def test_weak_kam_needs_a_path_from_the_critical_cells():
    # steps only along axis 0: the column x1 = 1 carries no flat cycle and
    # no path leads into it from the critical column x1 = 0
    g = build_grid(2, 2)
    weights = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
    K = ActionKernel(grid=g, tau=1.0, stencil_radius=g.spacing,
                     offsets=np.array([[0, 0], [1, 0]]), weights=weights)
    with pytest.raises(NumericalError, match="no critical cell reaches cells \\[1, 3\\]"):
        weak_kam_solution(K, critical_graph(K, critical_value(K)))


def test_dominated_constants_on_mane(mane_zero_kernel_16):
    rep = check_dominated(mane_zero_kernel_16, np.zeros(16), 0.0)
    assert rep.max_violation <= 0.0
    assert rep.dominated


def test_dominated_weak_kam_output(pendulum_state_64):
    K, c = pendulum_state_64["K"], pendulum_state_64["c"]
    sol = weak_kam_solution(K, critical_graph(K, pendulum_state_64["cv"]))
    rep = check_dominated(K, sol.u, c, tol=1e-9)
    assert rep.dominated


def test_dominated_checks_the_length_of_u(kinetic_kernel_16):
    with pytest.raises(ConfigError, match=r"values of shape \(7,\) for 16 kernel points"):
        check_dominated(kinetic_kernel_16, np.zeros(7), 0.0)


def test_witness_mean_rejects_a_bad_cycle():
    K = build_kernel(build_grid(1, 32), kinetic_lagrangian(1))
    cv = critical_value(K)
    with pytest.raises(ConfigError, match="empty"):
        dataclasses.replace(cv, witness_cycle=[]).witness_mean(K)
    for cycle, bad in (([3, 40], 40), ([-1, 0], -1)):
        with pytest.raises(ConfigError, match=rf"outside the 32 points: \[{bad}\]"):
            dataclasses.replace(cv, witness_cycle=cycle).witness_mean(K)


def test_sawtooth_violates_domination(kinetic_kernel_16):
    g = build_grid(1, 16)
    u = 10.0 * g.coords()[:, 0]
    rep = check_dominated(kinetic_kernel_16, u, 0.0)
    assert rep.max_violation > 1.0
    # the 10x jump lives between cells 15 and 0
    assert set(rep.worst_edge) == {0, 15}
