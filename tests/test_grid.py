"""Grid construction, wrapping conventions, value-function containers."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from weakkam import (
    ConfigError,
    GridTorus,
    ValueFunction,
    build_grid,
    wrap_displacement,
)
from weakkam.grid import mod1, sum_squares

# floats whose squares neither overflow nor warn; subnormals included
moderate = st.floats(min_value=-1e150, max_value=1e150)


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


def _bits(a):
    # the bytes of a float array: tells -0.0 from 0.0, which == does not
    return np.asarray(a, dtype=float).tobytes()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
@example([-0.0, 0.0, 5e-324, -5e-324, 1 - 2**-53, -(2**-53), 2.0**52, -(2.0**52),
          2.0**52 + 1, -(2.0**53) - 2, 1.7976931348623157e308, -1.7976931348623157e308,
          -1e-300, -0.5, 0.5, -1.0, 1.0, -3.0, 2.5, -(2.0**51) - 0.5])
def test_mod1_is_np_mod_bit_for_bit(xs):
    x = np.array(xs)
    assert _bits(mod1(x)) == _bits(np.mod(x, 1.0))


def test_mod1_is_np_mod_bit_for_bit_across_magnitudes():
    # long arrays, which numpy may run through other loops than short ones
    rng = np.random.default_rng(5)
    x = rng.standard_normal(20_000) * 10.0 ** rng.integers(-320, 300, 20_000)
    near = np.repeat(rng.integers(-2**20, 2**20, 500).astype(float), 4)
    x = np.concatenate([x, np.nextafter(near, -np.inf)[::2], np.nextafter(near, np.inf)[1::2],
                        rng.uniform(-3, 3, 10_000)])
    assert _bits(mod1(x)) == _bits(np.mod(x, 1.0))


@given(st.integers(1, 3).flatmap(
    lambda dim: st.lists(st.lists(moderate, min_size=dim, max_size=dim), min_size=1, max_size=40)))
@example([[-0.0], [5e-324], [1e150]])
@example([[0.1, 0.2], [-0.0, 5e-324], [3.0, -4.0]])
@example([[0.1, 0.2, 0.3], [1e-160, -1e-160, 1e150]])
def test_sum_squares_is_np_sum_and_norm_bit_for_bit(rows):
    a = np.array(rows)
    assert _bits(sum_squares(a)) == _bits(np.sum(a * a, axis=-1))
    assert _bits(np.sqrt(sum_squares(a))) == _bits(np.linalg.norm(a, axis=-1))
    # a stride-0 broadcast of one row, as build_kernel passes the velocity
    b = np.broadcast_to(a[0], (7, a.shape[1]))
    assert b.strides[0] == 0
    assert _bits(sum_squares(b)) == _bits(np.sum(b * b, axis=-1))
    assert _bits(np.sqrt(sum_squares(b))) == _bits(np.linalg.norm(b, axis=-1))


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
