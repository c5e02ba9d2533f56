"""Action kernels and min-plus primitives against hand and scipy oracles."""

import itertools

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from weakkam import (
    ActionKernel,
    build_grid,
    build_kernel,
    cosine_potential,
    kinetic_lagrangian,
    make_potential,
    mane_lagrangian,
    mechanical_lagrangian,
    sin_gradient_field,
    stencil_offsets,
)
from weakkam import NumericalError, kernel
from weakkam.kernel import invariant_axes

from conftest import toy_kernel
from oracles import backward_sources, kernel_closure, kernel_weights, minplus_power_min

TOY = [[0.0, 5.0], [1.0, 3.0]]


def identity_kernel(n=4):
    grid = build_grid(1, n)
    return ActionKernel(grid=grid, tau=1.0, stencil_radius=0.0,
                        offsets=np.zeros((1, 1), dtype=np.int64),
                        weights=np.zeros((1, n)))


def test_stencil_contains_immediate_neighbors():
    g = build_grid(1, 8)
    offs = stencil_offsets(g, 2 * g.spacing)
    rows = {tuple(o) for o in offs}
    assert {(-2,), (-1,), (0,), (1,), (2,)} <= rows


def test_stencil_euclidean_ball_2d():
    g = build_grid(2, 8)
    offs = stencil_offsets(g, 2 * g.spacing)
    # (2,2) has length sqrt(8)*spacing > radius and must be absent
    assert (2, 2) not in {tuple(o) for o in offs}
    norms = np.linalg.norm(offs * g.spacing, axis=1)
    assert np.all(norms <= 2 * g.spacing + 1e-12)


def test_stencil_offsets_are_in_lexicographic_order():
    assert stencil_offsets(build_grid(1, 8), 2 / 8).tolist() == [[-2], [-1], [0], [1], [2]]
    assert stencil_offsets(build_grid(2, 8), 1.5 / 8).tolist() == [
        [-1, -1], [-1, 0], [-1, 1], [0, -1], [0, 0], [0, 1], [1, -1], [1, 0], [1, 1]]
    offs = stencil_offsets(build_grid(2, 16), 4 / 16)
    assert offs.dtype == np.int64
    np.testing.assert_array_equal(np.lexsort(offs.T[::-1]), np.arange(len(offs)))


def test_targets_invert_backward_sources():
    g = build_grid(2, 8)
    K = build_kernel(g, kinetic_lagrangian(2), stencil_radius=2 * g.spacing)
    src = backward_sources(K)
    fwd = K.targets(np.arange(K.point_count))
    # the source of z along offset s moves to z along s
    np.testing.assert_array_equal(np.take_along_axis(fwd, src, axis=1),
                                  np.broadcast_to(np.arange(K.point_count), src.shape))
    np.testing.assert_array_equal(K.targets([9, 5]), fwd[:, [9, 5]])
    # one offset per cell, and the rolled reader's rows, agree with the table
    pick = np.arange(K.point_count) % K.stencil_size
    np.testing.assert_array_equal(K.targets(src[pick, np.arange(K.point_count)], K.offsets[pick]),
                                  np.arange(K.point_count))
    u = np.random.default_rng(3).normal(size=K.point_count)
    np.testing.assert_array_equal(np.array(list(K.rolled(u))), u[src])
    np.testing.assert_array_equal(np.array(list(K.rolled(u, -K.offsets))), u[fwd])


def _np_roll(values, grid, offsets) -> list:
    mesh = values.reshape(values.shape[:-1] + grid.shape)
    axes = tuple(range(mesh.ndim - grid.dim, mesh.ndim))
    return [np.roll(mesh, tuple(o), axis=axes).reshape(values.shape) for o in offsets]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [2, 3])
def test_rolled_is_np_roll_one_new_array_at_a_time(dim, n):
    # a hand-built kernel on a tiny torus: the unit offsets alias at n = 2,
    # and the far offsets are n or more cells long
    grid = build_grid(dim, n)
    offsets = np.array(list(itertools.product(range(-1, 2), repeat=dim)), dtype=np.int64)
    K = ActionKernel(grid=grid, tau=1.0, stencil_radius=grid.spacing, offsets=offsets,
                     weights=np.zeros((len(offsets), grid.point_count)))
    rng = np.random.default_rng(10 * dim + n)
    far = np.array([[n] * dim, [-2 * n - 1] * dim, [3 * n + 1, -n][:dim]], dtype=np.int64)
    N = grid.point_count
    for values in (rng.normal(size=N), rng.normal(size=(3, N)), np.arange(N)):
        kept = values.copy()
        for offs in (None, -offsets, offsets[1:2], far):
            rows = K.rolled(values, offs)
            for want in _np_roll(values, grid, offsets if offs is None else offs):
                row = next(rows)
                assert row.shape == values.shape and not np.shares_memory(row, values)
                np.testing.assert_array_equal(row, want)
                # a write into one row reaches neither the input nor the next row
                row += 1
            assert next(rows, None) is None
            np.testing.assert_array_equal(values, kept)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [5, 48, 50, 64])
@pytest.mark.parametrize("model", ["kinetic", "cosine", "sin_gradient"])
def test_kernel_weights_are_the_np_mod_and_np_sum_formula_byte_for_byte(model, dim, n):
    # the spacing 1/n is inexact at every n here but 64; the default stencil
    # of four cells needs n >= 9, so n = 5 takes two
    grid = build_grid(dim, n)
    radius = 2 * grid.spacing if n < 9 else 4 * grid.spacing
    V = X = None
    if model == "sin_gradient":
        X = sin_gradient_field(dim)
        L = mane_lagrangian(X)
    elif model == "cosine":
        V = make_potential({"name": "cosine"}, dim)
        L = mechanical_lagrangian(V)
    else:
        V = make_potential({"name": "zero"}, dim)
        L = kinetic_lagrangian(dim)
    K = build_kernel(grid, L, stencil_radius=radius)
    want = kernel_weights(grid, grid.spacing, radius, V=V, X=X)
    assert K.weights.tobytes() == want.tobytes()


def test_kinetic_kernel_entries():
    g = build_grid(1, 8)
    K = build_kernel(g, kinetic_lagrangian(1), tau=0.125, stencil_radius=0.25)
    dense = K.dense()
    assert np.all(np.diag(dense) == 0.0)
    for x in range(8):
        assert dense[x, (x + 1) % 8] == pytest.approx(0.0625)


def test_mechanical_kernel_self_loop():
    g = build_grid(1, 8)
    K = build_kernel(g, mechanical_lagrangian(cosine_potential(1, [1])),
                     stencil_radius=2 * g.spacing)
    assert K.dense()[0, 0] == pytest.approx(-K.tau)


def test_default_radius_needs_room():
    import weakkam
    with pytest.raises(weakkam.ConfigError):
        build_kernel(build_grid(1, 8), kinetic_lagrangian(1))  # 4-cell default


def test_radius_past_the_float_range_is_a_config_error():
    import weakkam
    # radius / spacing overflows to inf, which int() cannot take
    with pytest.raises(weakkam.ConfigError, match="spans more than the torus period"):
        stencil_offsets(build_grid(1, 8), 1.7e308)


@pytest.mark.parametrize("key,value,match", [
    ("stencil_radius", np.nan, "stencil radius must be a number"),
    ("tau", np.nan, "tau must be positive and finite"),
    ("tau", np.inf, "tau must be positive and finite"),
    ("tau", 0.0, "tau must be positive and finite")])
def test_nan_kernel_settings_are_config_errors(key, value, match):
    import weakkam
    with pytest.raises(weakkam.ConfigError, match=match):
        build_kernel(build_grid(1, 16), kinetic_lagrangian(1), **{key: value})


def test_kernel_refuses_more_memory_than_is_free(monkeypatch):
    # 2-d n=8 at a one-cell radius: N = 64 points, S = 5 offsets; the
    # coordinates, the weights and one stencil graph (float64 weights, int32
    # targets) need 4 * N * (2 * 2 + 5 * S)
    g = build_grid(2, 8)
    need = 4 * 64 * (2 * 2 + 5 * 5)
    monkeypatch.setattr(kernel, "available_memory", lambda: need - 1)
    with pytest.raises(NumericalError, match="memory is free"):
        build_kernel(g, kinetic_lagrangian(2), stencil_radius=g.spacing)
    monkeypatch.setattr(kernel, "available_memory", lambda: need)
    K = build_kernel(g, kinetic_lagrangian(2), stencil_radius=g.spacing)
    assert K.weights.shape == (5, 64)
    # a 10^6 x 10^6 grid is refused before its coordinates are made
    with pytest.raises(NumericalError, match="1000000000000 points"):
        build_kernel(build_grid(2, 10**6), kinetic_lagrangian(2))


def test_row_finiteness_at_two_cell_radius():
    g = build_grid(1, 16)
    K = build_kernel(g, kinetic_lagrangian(1), stencil_radius=2 * g.spacing)
    dense = K.dense()
    assert np.all(np.isfinite(dense).sum(axis=1) >= 3)


def test_minplus_identity_kernel_fixes_input():
    K = identity_kernel()
    u = np.array([3.0, -1.0, 0.5, 2.0])
    np.testing.assert_array_equal(K.apply_min(u), u)


def test_minplus_zero_on_kinetic():
    g = build_grid(1, 16)
    K = build_kernel(g, kinetic_lagrangian(1))
    np.testing.assert_array_equal(K.apply_min(np.zeros(16)), np.zeros(16))


def test_minplus_two_point_toy():
    K = toy_kernel(TOY)
    np.testing.assert_allclose(K.dense(), TOY)
    out = K.apply_min(np.zeros(2))
    np.testing.assert_allclose(out, [0.0, 3.0])


def test_power_min_single_step_is_cost():
    K = toy_kernel(TOY)
    np.testing.assert_allclose(minplus_power_min(K, n_min=1, n_max=1), TOY)


def test_power_min_toy_paths():
    m = minplus_power_min(toy_kernel(TOY), n_min=1, n_max=4)
    assert m[0, 1] == 5.0
    assert m[1, 0] == 1.0
    assert m[0, 0] == 0.0


def test_power_min_triangle_inequality():
    rng = np.random.default_rng(7)
    K = toy_kernel(rng.uniform(0.0, 2.0, size=(6, 6)))
    m = minplus_power_min(K, n_min=1, n_max=12)
    n = 6
    for x in range(n):
        for y in range(n):
            for z in range(n):
                assert m[x, z] <= m[x, y] + m[y, z] + 1e-12


def test_closure_matches_scipy_shortest_path():
    rng = np.random.default_rng(3)
    K = toy_kernel(rng.uniform(0.1, 3.0, size=(8, 8)))
    ours = kernel_closure(K)
    # scipy treats 0 as "no edge"; strictly positive weights avoid that
    ref = shortest_path(K.dense(), method="FW")
    np.testing.assert_allclose(ours, ref, atol=1e-12)


def test_closure_invariant_expansion_matches_dense_oracle():
    # kinetic costs are translation invariant, so the closure runs one
    # Bellman-Ford and rolls rows; compare against a dense all-pairs pass
    g = build_grid(2, 6)
    K = build_kernel(g, kinetic_lagrangian(2), stencil_radius=2 * g.spacing)
    ours = kernel_closure(K)
    ref = _bellman_ford_all(K.dense())
    np.testing.assert_allclose(ours, ref, atol=1e-10)


def test_closure_partial_invariance_matches_full_bellman_ford():
    # potential depends on x0 only: invariant along axis 1
    g = build_grid(2, 6)
    K = build_kernel(g, mechanical_lagrangian(cosine_potential(2, [1, 0])),
                     stencil_radius=2 * g.spacing)
    assert invariant_axes(K) == [1]
    shift = K.tau  # critical level of the pendulum in x0
    ours = kernel_closure(K, shift=shift)
    ref = _bellman_ford_all(K.dense(shift))
    np.testing.assert_allclose(ours, ref, atol=1e-10)


def _relax(D, cost):
    return (D[:, :, None] + cost[None, :, :]).min(axis=1)


def _bellman_ford_all(cost):
    D = cost.copy()
    np.fill_diagonal(D, np.minimum(np.diag(D), 0.0))
    for _ in range(cost.shape[0] + 2):
        nxt = np.minimum(D, _relax(D, cost))
        if np.allclose(nxt, D, atol=0.0):
            break
        D = nxt
    return np.minimum(D, cost)


def test_invariant_axes_detection():
    g2 = build_grid(2, 6)
    r = 2 * g2.spacing
    assert invariant_axes(build_kernel(g2, kinetic_lagrangian(2), stencil_radius=r)) == [0, 1]
    K1 = build_kernel(g2, mechanical_lagrangian(cosine_potential(2, [1, 0])), stencil_radius=r)
    assert invariant_axes(K1) == [1]
    K2 = build_kernel(g2, mechanical_lagrangian(cosine_potential(2, [1, 1])), stencil_radius=r)
    assert invariant_axes(K2) == []
    g1 = build_grid(1, 16)
    Ks = build_kernel(g1, mane_lagrangian(sin_gradient_field(1)))
    assert invariant_axes(Ks) == []
