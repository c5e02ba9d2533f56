"""Discretized flow graphs and chain recurrence."""

import tracemalloc

import numpy as np
import pytest

from weakkam import (
    ConfigError,
    build_grid,
    chain_graph,
    chain_recurrent_set,
    compare_aubry_chain,
    constant_field,
    default_chain_parameters,
    integrate_flow,
    sin_gradient_field,
    weak_kam_constancy_check,
    zero_field,
)
from weakkam.critical import WeakKamSolution
from weakkam.grid import ValueFunction

from oracles import dense_hausdorff


def test_flow_zero_field_fixes_points():
    g = build_grid(1, 16)
    out = integrate_flow(zero_field(1), g.coords(), 0.5)
    np.testing.assert_array_equal(out, g.coords())


def test_flow_constant_field_exact_shift():
    x = np.array([[0.9]])
    out = integrate_flow(constant_field([1.0], 1), x, 0.25)
    assert out[0, 0] == pytest.approx(0.15)  # wraps mod 1


def test_flow_sin_fixed_point_at_zero():
    out = integrate_flow(sin_gradient_field(1), np.array([[0.0]]), 1.0)
    assert out[0, 0] == 0.0


def test_flow_sin_contracts_toward_half():
    # on (0, 1) the ODE x' = sin(2 pi x) pushes mass toward 0.5
    out = integrate_flow(sin_gradient_field(1), np.array([[0.3], [0.7]]), 0.5)
    assert 0.3 < out[0, 0] < 0.5
    assert 0.5 < out[1, 0] < 0.7


def test_chain_graph_zero_field_neighbors():
    g = build_grid(1, 16)
    cg = chain_graph(zero_field(1), g, dt=1.0, eps=g.spacing)
    assert np.all(cg.out_degree() == 3)
    assert set(cg.edges[5].indices) == {4, 5, 6}


def test_chain_graph_constant_field_advances_cells():
    g = build_grid(1, 16)
    cg = chain_graph(constant_field([1.0], 1), g, dt=3 * g.spacing, eps=0.75 * g.spacing)
    assert np.all(cg.out_degree() == 1)
    rows, cols = cg.edges.nonzero()
    np.testing.assert_array_equal(cols[np.argsort(rows)], (np.arange(16) + 3) % 16)


@pytest.mark.parametrize("eps", [0.4, 0.6, 1.0, 1e308])
def test_chain_graph_lists_every_cell_within_eps(eps):
    # past half the torus (eps > 0.5 on n=6) the candidate cells wrap around
    g = build_grid(2, 6)
    X = constant_field([0.3, 0.1], 2)
    cg = chain_graph(X, g, dt=0.5, eps=eps)
    images = integrate_flow(X, g.coords(), 0.5)
    d = np.array([g.torus_distance(np.broadcast_to(img, (36, 2)), g.coords()) for img in images])
    np.testing.assert_array_equal(cg.edges.toarray(), d <= eps)


def test_chain_graph_eps_floor():
    g = build_grid(1, 16)
    with pytest.raises(ConfigError):
        chain_graph(zero_field(1), g, dt=1.0, eps=0.1 * g.spacing)


def test_chain_settings_are_config_errors():
    # each error names its argument: unchecked, a NaN eps fails int(), a NaN
    # or infinite dt warns and then asks for a larger eps, and a fractional
    # substeps fails range()
    g = build_grid(1, 16)
    X = zero_field(1)
    for kwargs, name in [({"eps": np.nan}, "eps"), ({"dt": np.nan}, "dt"),
                         ({"dt": np.inf}, "dt"), ({"dt": 0.0}, "dt"),
                         ({"substeps": 2.5}, "substeps"), ({"substeps": 0}, "substeps")]:
        with pytest.raises(ConfigError, match=f"^{name}"):
            chain_graph(X, g, **{"dt": 0.1, "eps": 0.1, **kwargs})
    with pytest.raises(ConfigError, match="^substeps must be a positive integer, got 2.5"):
        integrate_flow(X, g.coords(), 0.1, substeps=2.5)


def test_chain_recurrent_zero_field_everything():
    g = build_grid(1, 32)
    p = default_chain_parameters(g, zero_field(1))
    cg = chain_graph(zero_field(1), g, **p)
    np.testing.assert_array_equal(chain_recurrent_set(cg), np.arange(32))


def test_chain_recurrent_constant_field_everything():
    g = build_grid(1, 32)
    X = constant_field([1.0], 1)
    cg = chain_graph(X, g, **default_chain_parameters(g, X))
    np.testing.assert_array_equal(chain_recurrent_set(cg), np.arange(32))


def test_chain_recurrent_sin_field_near_equilibria():
    g = build_grid(1, 64)
    X = sin_gradient_field(1)
    cg = chain_graph(X, g, **default_chain_parameters(g, X))
    rec = chain_recurrent_set(cg)
    coords = g.coords(rec)[:, 0]
    dist = np.minimum.reduce([np.abs(coords), np.abs(coords - 0.5), np.abs(coords - 1.0)])
    assert np.max(dist) <= 2 * g.spacing
    assert {0, 32} <= set(rec)


def test_chain_recurrence_monotone_in_eps():
    g = build_grid(1, 64)
    X = sin_gradient_field(1)
    dt = default_chain_parameters(g, X)["dt"]
    small = set(chain_recurrent_set(chain_graph(X, g, dt=dt, eps=0.75 * g.spacing)))
    large = set(chain_recurrent_set(chain_graph(X, g, dt=dt, eps=2.0 * g.spacing)))
    assert small <= large


def test_chain_set_flow_invariance_surrogate():
    g = build_grid(1, 64)
    X = sin_gradient_field(1)
    p = default_chain_parameters(g, X)
    rec = chain_recurrent_set(chain_graph(X, g, **p))
    images = integrate_flow(X, g.coords(rec), p["dt"], p["substeps"])
    rec_pts = g.coords(rec)
    for img in images:
        d = g.torus_distance(np.broadcast_to(img, rec_pts.shape), rec_pts)
        assert d.min() <= p["eps"]


def test_compare_identical_sets():
    g = build_grid(1, 16)
    idx = np.array([1, 5, 9])
    cmpr = compare_aubry_chain(idx, idx, g)
    assert cmpr.hausdorff_distance == 0.0
    assert cmpr.a_only.size == 0 and cmpr.b_only.size == 0
    assert cmpr.a_size == 3 and cmpr.b_size == 3


def test_compare_shifted_singletons():
    g = build_grid(1, 16)
    cmpr = compare_aubry_chain(np.array([0]), np.array([15]), g)
    assert cmpr.hausdorff_distance == pytest.approx(g.spacing)
    assert list(cmpr.a_only) == [0] and list(cmpr.b_only) == [15]


def test_compare_rejects_empty():
    g = build_grid(1, 16)
    with pytest.raises(ConfigError):
        compare_aubry_chain(np.array([], dtype=int), np.array([0]), g)


def test_compare_rejects_cells_outside_the_grid():
    g = build_grid(1, 16)
    for a, b in (([-1], [0]), ([0], [16]), ([3], [2, -5])):
        with pytest.raises(ConfigError, match="outside the 16 points"):
            compare_aubry_chain(np.array(a), np.array(b), g)


# odd and even tori, where coordinates differ by exactly 1/2 and ties
# between nearest neighbours round apart in the last bit
@pytest.mark.parametrize("dim,n", [(1, 2), (1, 5), (1, 16), (2, 2), (2, 6), (2, 7), (2, 32)])
def test_compare_matches_every_pair(dim, n):
    g = build_grid(dim, n)
    rng = np.random.default_rng(n)
    for _ in range(40):
        a, b = (np.sort(rng.choice(g.point_count, rng.integers(1, g.point_count + 1),
                                   replace=False)) for _ in range(2))
        got = compare_aubry_chain(a, b, g).hausdorff_distance
        assert abs(got - dense_hausdorff(a, b, g)) <= 1e-12
        assert compare_aubry_chain(a, a, g).hausdorff_distance == 0.0
    every = np.arange(g.point_count)
    assert compare_aubry_chain(every, every, g).hausdorff_distance == 0.0


@pytest.mark.parametrize("block", ["row", "uneven"])
def test_compare_reads_row_blocks(block):
    # row: the grid split at random into two sets; uneven: a on columns 0,
    # 8, 16 and 24 and b on the columns beside them, so each point's nearest
    # distance ties one measured across the wrap (column 0 to columns 1, 31)
    g = build_grid(2, 32)
    rng = np.random.default_rng(11)
    if block == "row":
        cells = rng.permutation(g.point_count)
        a, b = np.sort(cells[:701]), np.sort(cells[701:])
    else:
        column = g.coords()[:, 1] * 32
        a = np.flatnonzero(np.isin(column, [0, 8, 16, 24]))
        b = np.flatnonzero(np.isin(column, [1, 7, 9, 15, 17, 23, 25, 31]))
    compare_aubry_chain(a, b, g)  # imports scipy.spatial outside the traced call
    tracemalloc.start()
    try:
        cmpr = compare_aubry_chain(a, b, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cmpr.hausdorff_distance == dense_hausdorff(a, b, g)
    # the |a| x |b| distances are never held at once
    assert peak < 8 * a.size * b.size


def _sol(values, g):
    u = ValueFunction(grid=g, values=np.asarray(values, dtype=float))
    return WeakKamSolution(u=u, c=0.0, residual=0.0, iterations=1)


def test_constancy_duplicate_solution():
    g = build_grid(1, 4)
    rep = weak_kam_constancy_check([_sol([1, 2, 3, 4], g), _sol([1, 2, 3, 4], g)])
    assert rep.max_oscillation == 0.0


def test_constancy_detects_nonconstant_difference():
    g = build_grid(1, 4)
    rep = weak_kam_constancy_check([_sol([0, 0, 0, 0], g), _sol([0, 1, 0, 0], g)])
    assert rep.max_oscillation == 1.0
    assert rep.pairwise == [(0, 1, 1.0)]


def test_constancy_needs_two():
    g = build_grid(1, 4)
    with pytest.raises(ConfigError):
        weak_kam_constancy_check([_sol([0, 0, 0, 0], g)])


def test_default_parameters_scale_with_speed():
    g = build_grid(1, 64)
    slow = default_chain_parameters(g, zero_field(1))
    fast = default_chain_parameters(g, constant_field([4.0], 1))
    assert slow["eps"] == pytest.approx(0.75 * g.spacing)
    assert slow["dt"] == pytest.approx(16 * g.spacing)
    assert fast["dt"] == pytest.approx(4 * g.spacing)
