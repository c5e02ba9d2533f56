"""Alternating smoothing, curvature constants, subsolution residuals."""

import numpy as np
import pytest

from weakkam import (
    ConfigError,
    NumericalError,
    ValueFunction,
    build_grid,
    build_kernel,
    check_dominated,
    cosine_potential,
    critical_graph,
    critical_value,
    kinetic_lagrangian,
    mane_lagrangian,
    mechanical_lagrangian,
    weak_kam_solution,
    zero_field,
)
from weakkam.regularize import (
    SmoothingSchedule,
    alternating_smooth,
    aubry_drift,
    default_schedule,
    discrete_gradient,
    semiconcavity_constant,
    semiconvexity_constant,
    subsolution_residual_field,
    tent_function,
)

PEND = mechanical_lagrangian(cosine_potential(1, [1]))


@pytest.fixture(scope="module")
def pend_smooth_128():
    # tau well above the spacing so the forward pass has room to bite
    g = build_grid(1, 128)
    K = build_kernel(g, PEND, tau=0.125, stencil_radius=0.3)
    cv = critical_value(K)
    sol = weak_kam_solution(K, critical_graph(K, cv))
    return {"g": g, "K": K, "c": cv.c, "u": sol.u}


def test_schedule_validation():
    with pytest.raises(ConfigError):
        SmoothingSchedule(t_plus=[1.0], t_minus=[1.0, 2.0])
    with pytest.raises(ConfigError):
        SmoothingSchedule(t_plus=[], t_minus=[])
    with pytest.raises(ConfigError):
        SmoothingSchedule(t_plus=[1.0, -1.0], t_minus=[1.0, 1.0])


def test_default_schedule_halves_then_clamps():
    s = default_schedule(0.125)
    np.testing.assert_allclose(s.t_plus, [0.5, 0.25, 0.125, 0.125])
    np.testing.assert_allclose(s.t_minus, s.t_plus)


def test_step_counts_round_to_whole_steps():
    s = SmoothingSchedule(t_plus=[0.5, 0.01], t_minus=[0.26, 0.125])
    plus, minus = s.step_counts(0.125)
    assert plus == [4, 1]
    assert minus == [2, 1]


def test_smooth_fixes_constants_on_kinetic():
    g = build_grid(1, 32)
    K = build_kernel(g, mane_lagrangian(zero_field(1)))
    u = ValueFunction(grid=g, values=np.full(32, 1.7))
    v = alternating_smooth(u, K, 0.0, default_schedule(K.tau))
    np.testing.assert_array_equal(v.values, u.values)


def test_smooth_rejects_undominated_input():
    g = build_grid(1, 32)
    K = build_kernel(g, mane_lagrangian(zero_field(1)))
    u = ValueFunction(grid=g, values=10.0 * g.coords()[:, 0])
    with pytest.raises(NumericalError):
        alternating_smooth(u, K, 0.0, default_schedule(K.tau))


def test_smooth_preserves_domination_and_aubry_values(pend_smooth_128):
    K, c, u = pend_smooth_128["K"], pend_smooth_128["c"], pend_smooth_128["u"]
    sched = default_schedule(K.tau)
    v = alternating_smooth(u, K, c, sched)
    assert check_dominated(K, v.values, c, tol=1e-9).dominated
    assert aubry_drift(u, v, [0]) <= 2e-9
    # the solution is bilateral-stable, so the smoother returns it intact
    assert np.max(np.abs(v.values - u.values)) <= 1e-9


def test_smooth_distance_bound(pend_smooth_128):
    K, c, u = pend_smooth_128["K"], pend_smooth_128["c"], pend_smooth_128["u"]
    sched = default_schedule(K.tau)
    v = alternating_smooth(u, K, c, sched)
    # one shifted step moves a dominated u by at most max(diag + c*tau)
    per_step = float(K.diagonal().max() + c * K.tau)
    plus, minus = sched.step_counts(K.tau)
    bound = per_step * (sum(plus) + sum(minus))
    assert np.max(np.abs(v.values - u.values)) <= bound + 1e-12


def test_smooth_output_near_fixed_point():
    g = build_grid(1, 64)
    K = build_kernel(g, PEND)
    cv = critical_value(K)
    sol = weak_kam_solution(K, critical_graph(K, cv))
    v = alternating_smooth(sol.u, K, cv.c, default_schedule(K.tau))
    res = np.max(np.abs(K.apply_min(v.values, cv.c * K.tau) - v.values))
    assert res <= 2e-9


def test_semiconvexity_of_flat_and_tent():
    g = build_grid(1, 64)
    flat = ValueFunction(grid=g, values=np.zeros(64))
    assert semiconvexity_constant(flat) == 0.0
    tent = tent_function(g)
    assert semiconvexity_constant(tent) == pytest.approx(1.0 / g.spacing)
    assert semiconcavity_constant(tent) == pytest.approx(1.0 / g.spacing)


def test_curvature_of_smooth_function_bounded_under_refinement():
    vals = {}
    for n in (128, 256):
        g = build_grid(1, n)
        u = ValueFunction(grid=g, values=-np.cos(2 * np.pi * g.coords()[:, 0]))
        vals[n] = semiconvexity_constant(u)
        assert vals[n] == pytest.approx(2 * np.pi**2, rel=0.01)
    assert abs(vals[256] - vals[128]) < 0.05 * vals[128]


def test_forward_step_cuts_tent_semiconvexity():
    g = build_grid(1, 128)
    K = build_kernel(g, PEND, tau=0.125, stencil_radius=0.3)
    tent = tent_function(g)
    before = semiconvexity_constant(tent)
    out = tent.values
    for _ in range(4):  # one opening stage of the default schedule
        out = K.apply_max(out, 1.0 * K.tau)
    after = semiconvexity_constant(ValueFunction(grid=g, values=out))
    assert after <= before / 10.0


def test_discrete_gradient_matches_closed_form():
    g = build_grid(1, 64)
    x = g.coords()[:, 0]
    u = ValueFunction(grid=g, values=np.sin(2 * np.pi * x))
    expected = np.cos(2 * np.pi * x) * np.sin(2 * np.pi * g.spacing) / g.spacing
    np.testing.assert_allclose(discrete_gradient(u)[:, 0], expected, atol=1e-12)


def test_subsolution_residual_zero_for_constants_on_mane():
    g = build_grid(1, 64)
    L = mane_lagrangian(zero_field(1))
    u = ValueFunction(grid=g, values=np.zeros(64))
    assert np.max(subsolution_residual_field(u, L, g)) == 0.0


def test_subsolution_residual_flags_steep_functions():
    g = build_grid(1, 64)
    u = ValueFunction(grid=g, values=10.0 * tent_function(g).values)
    assert np.max(subsolution_residual_field(u, PEND, g)) - 1.0 > 10.0


def test_subsolution_residual_halves_under_refinement():
    res = {}
    for n in (128, 256):
        g = build_grid(1, n)
        K = build_kernel(g, PEND, tau=0.0625, stencil_radius=0.3)
        cv = critical_value(K)
        sol = weak_kam_solution(K, critical_graph(K, cv))
        res[n] = np.max(subsolution_residual_field(sol.u, PEND, g)) - cv.c
    assert res[128] <= 10 * (1.0 / 128)
    assert 0.35 * res[128] <= res[256] <= 0.65 * res[128]


def test_aubry_drift_reads_selected_cells():
    g = build_grid(1, 8)
    a = ValueFunction(grid=g, values=np.zeros(8))
    b = ValueFunction(grid=g, values=np.arange(8.0))
    assert aubry_drift(a, b, [0]) == 0.0
    assert aubry_drift(a, b, [0, 3]) == 3.0


def test_tent_function_centers():
    g = build_grid(1, 8)
    t0 = tent_function(g)
    assert t0.values[0] == 0.0
    assert t0.values[4] == 0.5
    t3 = tent_function(g, center=3)
    assert t3.values[3] == 0.0
    assert t3.values[7] == 0.5
