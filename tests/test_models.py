"""Model layer: Lagrangian families, Legendre transform, field factories."""

import re

import numpy as np
import pytest

from weakkam import (
    ConfigError,
    constant_field,
    cosine_potential,
    build_grid,
    kinetic_lagrangian,
    legendre_hamiltonian,
    make_lagrangian,
    make_potential,
    make_vector_field,
    mane_lagrangian,
    mechanical_lagrangian,
    neg_grad_field,
    sin_gradient_field,
    table_field,
    zero_field,
)
from weakkam.models import Lagrangian

from oracles import dense_legendre

X0 = np.array([[0.0]])


def test_legendre_kinetic_at_zero_momentum():
    H = legendre_hamiltonian(kinetic_lagrangian(1), X0, np.array([0.0]))
    assert H == 0.0


def test_legendre_kinetic_unit_momentum():
    H = legendre_hamiltonian(kinetic_lagrangian(1), X0, np.array([1.0]))
    assert H == pytest.approx(0.5, abs=1e-12)


def test_legendre_dense_scan_matches_closed_form():
    # every maximizing velocity p + X(x) lies on the probe's v-grid (spacing
    # 1/16), so the dense search must reproduce each closed form
    g = build_grid(2, 4)
    xs = g.coords()
    ps = np.array([[0.0, 0.0], [1.0, -0.5], [-1.5, 0.25], [0.5, 1.0]])
    for model in ({"family": "kinetic"},
                  {"family": "mechanical", "potential": {"name": "cosine", "k": [1, 1]}},
                  {"family": "mane", "field": {"name": "sin_gradient"}},
                  {"family": "mane", "field": {"name": "constant", "components": [1.0, -0.5]}}):
        L = make_lagrangian(model, g)
        for p in ps:
            np.testing.assert_allclose(dense_legendre(L, xs, p),
                                       legendre_hamiltonian(L, xs, p), atol=1e-12)


def test_legendre_needs_a_closed_form():
    kin = kinetic_lagrangian(1)
    bare = Lagrangian(name="bare", dim=1, eval=kin.eval)
    with pytest.raises(ConfigError) as e:
        legendre_hamiltonian(bare, X0, np.array([1.0]))
    assert "bare" in str(e.value)


def test_legendre_mane_constant_field():
    L = mane_lagrangian(constant_field([1.0], 1))
    H = legendre_hamiltonian(L, X0, np.array([1.0]))
    assert H == pytest.approx(1.5)


def test_mane_lagrangian_values():
    L = mane_lagrangian(zero_field(1))
    assert L(np.array([[0.37]]), np.array([1.0]))[0] == pytest.approx(0.5)
    Ls = mane_lagrangian(sin_gradient_field(1))
    assert Ls(np.array([[0.25]]), np.array([0.0]))[0] == pytest.approx(0.5)
    H = legendre_hamiltonian(Ls, np.array([[0.25]]), np.array([1.0]))
    assert H == pytest.approx(1.5)


def test_mane_lagrangian_vanishes_on_the_field():
    X = sin_gradient_field(1)
    L = mane_lagrangian(X)
    g = build_grid(1, 32)
    xs = g.coords()
    assert np.max(np.abs(L(xs, X(xs)))) == 0.0


def test_mechanical_lagrangian_values():
    V = cosine_potential(1, [1])
    L = mechanical_lagrangian(V)
    assert L(X0, np.array([0.0]))[0] == pytest.approx(-1.0)
    kin = mechanical_lagrangian(make_potential({"name": "zero"}, 1))
    assert kin(X0, np.array([1.0]))[0] == pytest.approx(0.5)


def test_fenchel_inequality_sampled():
    L = mane_lagrangian(sin_gradient_field(1))
    g = build_grid(1, 8)
    xs = g.coords()
    for p in (-1.5, 0.0, 0.7, 2.0):
        H = legendre_hamiltonian(L, xs, np.array([p]))
        for v in (-2.0, -0.5, 0.0, 1.0, 3.0):
            lhs = p * v
            assert np.all(lhs <= L(xs, np.array([v])) + H + 1e-9)


def test_field_factories():
    g = build_grid(1, 8)
    xs = g.coords()
    assert np.all(zero_field(1)(xs) == 0.0)
    np.testing.assert_allclose(constant_field([1.0], 1)(xs), 1.0)
    np.testing.assert_allclose(sin_gradient_field(1)(xs)[:, 0],
                               np.sin(2 * np.pi * xs[:, 0]), atol=1e-15)
    assert constant_field([3.0, 4.0], 2).max_norm_on(build_grid(2, 4)) == pytest.approx(5.0)


def test_neg_grad_field_of_cosine():
    X = neg_grad_field(cosine_potential(1, [1]))
    out = X(np.array([[0.25]]))
    assert out[0, 0] == pytest.approx(2 * np.pi)


def test_cosine_potential_2d():
    V = cosine_potential(2, [1, 0])
    pts = np.array([[0.0, 0.3], [0.5, 0.9]])
    np.testing.assert_allclose(V(pts), [1.0, -1.0], atol=1e-15)


def test_table_field_snaps_to_nearest_cell():
    g = build_grid(1, 4)
    table = np.array([[1.0], [2.0], [3.0], [4.0]])
    X = table_field(g, table)
    np.testing.assert_allclose(X(np.array([[0.26], [0.74]]))[:, 0], [2.0, 4.0])


def test_table_csv_keeps_a_numeric_first_row(tmp_path):
    # the points-file rule: line 1 is a header only when it is no numbers
    g = build_grid(1, 4)
    f = tmp_path / "field.csv"
    for text in ("x0,v0\n0,1\n0.25,2\n0.5,3\n0.75,4\n", "0,1\n0.25,2\n0.5,3\n0.75,4\n"):
        f.write_text(text)
        X = make_vector_field({"name": "table", "path": str(f)}, g)
        np.testing.assert_array_equal(X(g.coords())[:, 0], [1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("xs", [[0.75, 0.5, 0.25, 0.0], [0.875, 0.625, 0.375, 0.125]],
                         ids=["reversed", "half-cell"])
def test_table_csv_rows_must_name_their_cells(tmp_path, xs):
    f = tmp_path / "field.csv"
    f.write_text("x0,v0\n" + "".join(f"{x},{v}\n" for v, x in enumerate(xs, start=1)))
    with pytest.raises(ConfigError, match="row 1 has coordinates"):
        make_vector_field({"name": "table", "path": str(f)}, build_grid(1, 4))


def test_table_csv_coordinates_wrap_and_the_first_bad_row_is_named(tmp_path):
    g = build_grid(2, 2)
    f = tmp_path / "field.csv"
    # index, x0, x1, then the field; 0.99 lies 0.01 from cell 0 across the seam
    rows = [[0, 0.99, 0.01], [1, 0.0, 0.5], [2, 0.5, 0.0], [3, 0.5, 0.5]]
    f.write_text("".join(f"{i},{x0},{x1},{i},{-i}\n" for i, x0, x1 in rows))
    X = make_vector_field({"name": "table", "path": str(f)}, g)
    np.testing.assert_array_equal(X(g.coords()), [[0, 0], [1, -1], [2, -2], [3, -3]])
    rows[2][1] = 0.2  # more than a quarter spacing (0.125) off its cell
    f.write_text("".join(f"{i},{x0},{x1},{i},{-i}\n" for i, x0, x1 in rows))
    with pytest.raises(ConfigError, match="row 3 has coordinates"):
        make_vector_field({"name": "table", "path": str(f)}, g)
    # one value before a 2-d field is no pair of coordinates
    f.write_text("".join(f"{x0},{i},{-i}\n" for i, x0, _ in rows))
    with pytest.raises(ConfigError, match="needs 2 coordinates"):
        make_vector_field({"name": "table", "path": str(f)}, g)


def test_make_vector_field_unknown_name_lists_builtins():
    g = build_grid(1, 8)
    with pytest.raises(ConfigError) as e:
        make_vector_field({"name": "whirl"}, g)
    for name in ("zero", "constant", "sin"):
        assert name in str(e.value)


@pytest.mark.parametrize("model, key", [
    ({"family": "mechanical", "potential": {"k": "ab"}}, "potential.k"),
    ({"family": "mechanical", "potential": {"k": [1.5]}}, "potential.k"),
    ({"family": "mechanical", "potential": {"k": [True]}}, "potential.k"),
    ({"family": "mechanical", "potential": {"k": [1, 0]}}, "potential.k"),
    ({"family": "mechanical", "potential": {"amp": "x"}}, "potential.amp"),
    ({"family": "mechanical", "potential": {"amp": float("nan")}}, "potential.amp"),
    ({"family": "mechanical", "potential": [1]}, "potential must be a mapping"),
    ({"family": "mane", "field": {"name": "sin_gradient", "k": "z"}}, "field.k"),
    ({"family": "mane", "field": {"name": "sin_gradient", "k": 1.5}}, "field.k"),
    ({"family": "mane", "field": {"name": "constant", "components": ["a"]}},
     "field.components"),
    ({"family": "mane", "field": {"name": "neg_grad", "potential": {"k": [0.5]}}},
     "potential.k"),
    ({"family": "mane", "field": {"name": "table", "path": 5}}, "'path'"),
    ({"family": "mane", "field": {"k": 1}}, "field.name must be one of"),
    ({"family": "mane"}, "field.name must be one of"),
    ({"family": "mane", "field": 5}, "field must be a mapping"),
])
def test_builders_name_the_bad_key(model, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        make_lagrangian(model, build_grid(1, 8))


def test_make_lagrangian_families():
    g = build_grid(1, 8)
    kin = make_lagrangian({"family": "kinetic"}, g)
    assert kin(X0, np.array([1.0]))[0] == pytest.approx(0.5)
    mech = make_lagrangian({"family": "mechanical", "potential": {"name": "cosine", "k": [1]}}, g)
    assert mech(X0, np.array([0.0]))[0] == pytest.approx(-1.0)
    mane = make_lagrangian({"family": "mane", "field": {"name": "zero"}}, g)
    assert mane(X0, np.array([0.0]))[0] == 0.0
    with pytest.raises(ConfigError) as e:
        make_lagrangian({"family": "quasilinear"}, g)
    assert "kinetic" in str(e.value)
