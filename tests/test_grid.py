"""Grid construction, wrapping conventions, value-function containers."""

import numpy as np
import pytest

from weakkam import (
    ConfigError,
    GridTorus,
    ValueFunction,
    build_grid,
    wrap_displacement,
)


def test_one_dimensional_grid_points():
    g = build_grid(1, 8)
    assert g.point_count == 8
    assert g.spacing == 0.125
    np.testing.assert_allclose(g.coords()[:, 0], np.arange(8) / 8.0)


def test_two_dimensional_grid_point_count():
    g = build_grid(2, 16)
    assert g.point_count == 256
    assert g.shape == (16, 16)
    assert g.coords().shape == (256, 2)


def test_unsupported_dimension_rejected():
    with pytest.raises(ConfigError):
        build_grid(3, 8)
    with pytest.raises(ConfigError):
        build_grid(0, 8)


def test_tiny_grids():
    # two-cell grids are legal so hand-built kernels can exercise solvers
    assert GridTorus(1, 2).point_count == 2
    with pytest.raises(ConfigError):
        GridTorus(1, 1)


def test_wrap_displacement_crosses_seam():
    assert wrap_displacement([0.9], [0.1])[0] == pytest.approx(0.2)


def test_wrap_displacement_zero_at_equal_points():
    assert wrap_displacement([0.3], [0.3])[0] == 0.0


def test_wrap_displacement_half_distance_tie():
    # exactly antipodal points resolve to the negative representative
    assert wrap_displacement([0.1], [0.6])[0] == pytest.approx(-0.5)


def test_wrap_displacement_range():
    xs = np.linspace(0, 1, 37)[:, None]
    d = wrap_displacement(np.zeros_like(xs), xs)
    assert np.all(d >= -0.5) and np.all(d < 0.5)


def test_index_of_cell_wraps():
    g = build_grid(1, 8)
    assert g.index_of_cell(np.array([[9]]))[0] == 1
    assert g.index_of_cell(np.array([[-1]]))[0] == 7


def test_index_of_cell_row_major_2d():
    g = build_grid(2, 4)
    assert g.index_of_cell(np.array([[1, 2]]))[0] == 6


def test_nearest_index_wraps_past_end():
    g = build_grid(1, 8)
    assert g.nearest_index(np.array([[0.99]]))[0] == 0
    assert g.nearest_index(np.array([[0.13]]))[0] == 1


def test_nearest_index_rounds_halves_to_the_even_cell():
    # np.rint: 0.5 -> 0, 1.5 -> 2, 2.5 -> 2, 3.5 -> 4, which wraps to 0
    g = build_grid(1, 4)
    halves = np.array([[0.125], [0.375], [0.625], [0.875]])
    assert g.nearest_index(halves).tolist() == [0, 2, 2, 0]


def test_torus_distance_min_image():
    g = build_grid(1, 8)
    assert g.torus_distance(np.array([[0.9]]), np.array([[0.1]]))[0] == pytest.approx(0.2)
    g2 = build_grid(2, 8)
    d = g2.torus_distance(np.array([[0.9, 0.0]]), np.array([[0.1, 0.9]]))[0]
    assert d == pytest.approx(np.hypot(0.2, 0.1))


def test_coords_subset():
    g = build_grid(1, 8)
    np.testing.assert_allclose(g.coords([2, 5])[:, 0], [0.25, 0.625])


def test_value_function_mesh():
    g = build_grid(2, 4)
    vals = np.arange(16, dtype=float)
    u = ValueFunction(grid=g, values=vals)
    assert u.as_mesh().shape == (4, 4)
    assert u.as_mesh()[1, 2] == 6.0


def test_value_function_length_mismatch():
    g = build_grid(1, 8)
    with pytest.raises(ConfigError):
        ValueFunction(grid=g, values=np.zeros(7))
