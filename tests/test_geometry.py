"""Covering numbers, measure estimates, ferry semi-metrics."""

import numpy as np
import pytest

from weakkam import (
    ConfigError,
    NumericalError,
    aubry_set,
    build_grid,
    build_kernel,
    circle_points,
    critical_graph,
    critical_value,
    ferry_delta_p,
    hausdorff1_report,
    interval_semimetric,
    kinetic_lagrangian,
    mather_delta,
    peierls_barrier,
    quadratic_bound_check,
    segment_points,
)
from weakkam import geometry, pipeline
from weakkam.aubry import SemiMetric

from conftest import offset_delta, subgroup_offsets
from oracles import _auto_scales, _greedy_centers


def metric_from(vals):
    return SemiMetric(values=vals, symmetric=True)


def covering_count(m, r):
    """Size of the greedy covering of every point of m at the one radius r."""
    return int(hausdorff1_report(m, None, [r]).covering_counts[0])


def test_covering_collapsed_set_is_one_ball():
    assert covering_count(metric_from(np.zeros((5, 5))), 0.5) == 1


def test_covering_two_clusters():
    vals = np.ones((4, 4))
    vals[:2, :2] = 0.0
    vals[2:, 2:] = 0.0
    assert covering_count(metric_from(vals), 0.5) == 2


def test_covering_line_of_four():
    pts = np.arange(4.0)
    vals = np.abs(pts[:, None] - pts[None, :])
    assert covering_count(metric_from(vals), 1.0) == 2


def test_covering_rejects_nonpositive_radius():
    m = metric_from(np.zeros((3, 3)))
    with pytest.raises(ConfigError):
        covering_count(m, 0.0)


def test_covering_rejects_nan_radius():
    # nan <= 0 is false, so a sign test alone lets it through to the covering
    m = metric_from(np.zeros((3, 3)))
    with pytest.raises(ConfigError):
        covering_count(m, float("nan"))
    with pytest.raises(ConfigError):
        hausdorff1_report(m, np.arange(3), [0.1, float("nan")])
    # inf > 0 holds, and an infinite radius would reach the slope fit
    with pytest.raises(ConfigError):
        hausdorff1_report(interval_semimetric(5), None, [float("inf"), 0.1])


def test_covering_point_in_no_ball_is_numerical_failure():
    # delta(0, 0) = 0.5 and delta(1, 0) = 1: no ball of radius 0.1 holds point 0
    m = SemiMetric(values=[[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(NumericalError, match="point 0 lies in no ball"):
        covering_count(m, 0.1)
    with pytest.raises(NumericalError, match="point 0 lies in no ball"):
        hausdorff1_report(m, None, [1.0, 0.1])


def test_h1_two_point_set_scales_linearly():
    vals = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = hausdorff1_report(metric_from(vals), np.arange(2), [0.1, 0.05])
    np.testing.assert_allclose(rep.covering_counts, [2, 2])
    np.testing.assert_allclose(rep.h1_estimates, [0.4, 0.2])


def test_h1_singleton_tends_to_zero():
    m = metric_from(np.zeros((1, 1)))
    rep = hausdorff1_report(m, [0], [0.2, 0.1, 0.05])
    np.testing.assert_allclose(rep.covering_counts, 1)
    assert rep.h1_estimates[-1] == pytest.approx(0.1)


def test_h1_interval_control_near_one():
    ctrl = interval_semimetric(256)
    rep = hausdorff1_report(ctrl, np.arange(ctrl.size), [0.04, 0.02, 0.01])
    assert np.all(np.abs(np.asarray(rep.h1_estimates) - 1.0) <= 0.05)


def test_quadratic_bound_on_exact_square_metric():
    g = build_grid(1, 32)
    xs = g.coords()[:, 0]
    d = np.abs(xs[:, None] - xs[None, :])
    d = np.minimum(d, 1.0 - d)
    m = SemiMetric(values=d**2, symmetric=True)

    class FakeAubry:
        indices = np.arange(32)

    rep = quadratic_bound_check(m, FakeAubry(), g, window=0.2)
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-12)


def test_quadratic_bound_pendulum_like(mane_zero_kernel_16):
    K = mane_zero_kernel_16
    h = peierls_barrier(K, critical_graph(K, critical_value(K)))
    A = aubry_set(h, None, K, 0.0)
    rep = quadratic_bound_check(mather_delta(h), A, K.grid, window=0.3)
    # kinetic deltas are d^2/tau on neighbor pairs; ratio stays bounded
    assert np.isfinite(rep.max_ratio)
    assert rep.max_ratio <= 2.5 / K.tau


def test_ferry_p1_is_the_metric_itself():
    pts = np.array([[0.0], [0.3], [0.7], [1.0]])
    d = np.abs(pts[:, 0][:, None] - pts[:, 0][None, :])
    m = ferry_delta_p(pts, 1.0)
    np.testing.assert_allclose(m.values, d, atol=1e-12)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_ferry_segment_collapse(n):
    m = ferry_delta_p(segment_points(n), 2.0)
    assert m.values[0, -1] == pytest.approx(1.0 / n, abs=1e-15)


def test_ferry_two_isolated_points():
    m = ferry_delta_p(np.array([[0.0], [1.0]]), 2.0)
    assert m.values[0, 1] == 1.0


def test_ferry_triangle_inequality_random_cloud():
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(12, 2))
    m = ferry_delta_p(pts, 2.0).values
    worst = np.max(m[:, None, :] - (m[:, :, None] + m[None, :, :]))
    assert worst <= 1e-12
    np.testing.assert_allclose(m, m.T, atol=1e-15)


def test_ferry_circle_ratio_halves():
    a = ferry_delta_p(circle_points(32), 2.0)
    b = ferry_delta_p(circle_points(64), 2.0)
    ia, ib = a.size // 2, b.size // 2
    assert b.values[0, ib] <= 0.6 * a.values[0, ia]


def test_symmetric_producers_are_exactly_symmetric(pendulum_state_64):
    # the coverings read balls by row when the flag is set
    rng = np.random.default_rng(11)
    h = SemiMetric(values=rng.normal(size=(70, 70)))
    pts = rng.uniform(-1, 1, size=(9, 2))
    produced = [mather_delta(h), mather_delta(pendulum_state_64["h"]),
                ferry_delta_p(pts, 1.0), ferry_delta_p(pts, 2.5), interval_semimetric(33)]
    for m in produced:
        assert m.symmetric
        assert np.max(np.abs(m.values - m.values.T)) == 0.0


def test_segment_and_circle_points_shapes():
    s = segment_points(8)
    assert s.shape == (9, 1)
    assert s[0, 0] == 0.0 and s[-1, 0] == 1.0
    c = circle_points(16, radius=2.0)
    assert c.shape == (16, 2)
    np.testing.assert_allclose(np.linalg.norm(c, axis=1), 2.0)


def test_interval_semimetric_values():
    m = interval_semimetric(11)
    assert m.size == 11
    assert m.values[0, -1] == pytest.approx(1.0)
    assert m.values[3, 7] == pytest.approx(0.4)


# kinetic tori whose every axis is invariant: delta is one offset table.
# The stencil reaches two cells, one on n = 4, the most the torus allows;
# on n = 4 and 5 the shortest paths wrap around it
@pytest.fixture(scope="module", params=[(2, 4), (2, 5), (2, 8), (2, 16), (1, 16)],
                ids=lambda c: f"{c[0]}d-n{c[1]}")
def kinetic_delta(request):
    dim, n = request.param
    g = build_grid(dim, n)
    K = build_kernel(g, kinetic_lagrangian(dim), stencil_radius=min(2, (n - 1) // 2) * g.spacing)
    return mather_delta(peierls_barrier(K, critical_graph(K, critical_value(K))))


def _no_level_matrix(*args):
    raise AssertionError("the offset branch built a level matrix")


def test_offset_table_needs_every_point_in_order(kinetic_delta, pendulum_state_64):
    pos = np.arange(kinetic_delta.size)
    D = kinetic_delta.offset_table(pos)
    assert D.size == pos.size
    assert np.array_equal(D.ravel(), kinetic_delta.values[0])
    for other in (pos[::-1], pos[:-1], pos[1:]):
        assert kinetic_delta.offset_table(other) is None
    # a barrier with a non-invariant axis has no offset table
    pendulum = mather_delta(pendulum_state_64["h"])
    assert pendulum.offset_table(np.arange(pendulum.size)) is None


# every gain by one FFT correlation, or every gain by a gather
@pytest.mark.parametrize("fft_above", [0, np.inf], ids=["fft", "gather"])
def test_offset_coverings_equal_the_dense_greedy_centers(monkeypatch, kinetic_delta, fft_above):
    monkeypatch.setattr(geometry, "FFT_ABOVE", fft_above)
    monkeypatch.setattr(geometry, "_levels", _no_level_matrix)
    values = kinetic_delta.values
    pos = np.arange(kinetic_delta.size)
    # the scale grid, and every distinct delta value, so ties sit exactly at r
    radii = np.concatenate([_auto_scales(kinetic_delta, pos), np.unique(values[values > 0])])
    radii = np.sort(radii)[::-1]
    assert geometry._greedy_coverings(kinetic_delta, pos, radii) == [
        _greedy_centers(values, r) for r in radii]


@pytest.mark.parametrize("fft_above", [0, np.inf], ids=["fft", "gather"])
def test_offset_coverings_of_a_proper_subgroup(monkeypatch, fft_above):
    monkeypatch.setattr(geometry, "FFT_ABOVE", fft_above)
    monkeypatch.setattr(geometry, "_levels", _no_level_matrix)
    delta = offset_delta(subgroup_offsets())
    values = delta.values
    radii = np.unique(values)[::-1]
    assert geometry._greedy_coverings(delta, np.arange(36), radii) == [
        _greedy_centers(values, r) for r in radii]
    # the ball of radius 0.5 is the subgroup {0, (0, 2), (0, 4)}
    assert len(geometry._greedy_coverings(delta, np.arange(36), np.array([0.5]))[0]) == 12


def test_offset_scale_range_reads_only_the_table(monkeypatch, kinetic_delta):
    def no_blocks(*args, **kwargs):
        raise AssertionError("the offset branch read a block")

    monkeypatch.setattr(pipeline, "row_blocks", no_blocks)
    pos = np.arange(kinetic_delta.size)
    lo, hi = pipeline._delta_range(kinetic_delta, pos)
    values = kinetic_delta.values
    assert (lo, hi) == (values[values > 0].min(), values.max())
    np.testing.assert_array_equal(pipeline._auto_scales(lo, hi),
                                  _auto_scales(kinetic_delta, pos))


def test_offset_cover_point_in_no_ball_is_numerical_failure(monkeypatch):
    # D(0) = 0.5: no ball of radius 0.1 holds a cell, as on the level path
    D = np.full((6, 6), 1.0)
    D[0, 0] = 0.5
    monkeypatch.setattr(geometry, "_levels", _no_level_matrix)
    with pytest.raises(NumericalError, match="point 0 lies in no ball of radius 0.1"):
        covering_count(offset_delta(D), 0.1)
    with pytest.raises(NumericalError, match="point 0 lies in no ball of radius 0.1"):
        hausdorff1_report(offset_delta(D), None, [1.0, 0.1])
    monkeypatch.undo()
    with pytest.raises(NumericalError, match="point 0 lies in no ball of radius 0.1"):
        covering_count(metric_from(offset_delta(D).values), 0.1)
