"""Shared kernel builders. Session-scoped: closures are the slow part."""

import numpy as np
import pytest

from weakkam import (
    ActionKernel,
    mather_delta,
    build_grid,
    build_kernel,
    cosine_potential,
    critical_graph,
    critical_value,
    kinetic_lagrangian,
    mane_lagrangian,
    mechanical_lagrangian,
    peierls_barrier,
    zero_field,
)
from weakkam.aubry import PeierlsBarrier, _Rolled


def toy_kernel(cost, tau=1.0):
    """Dense cost[y][x] matrix on a tiny T1 grid as an ActionKernel.

    Row y, column x holds the cost of the edge y -> x. Only works when
    every offset is used, i.e. cost has no infinite ring.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    grid = build_grid(1, n)
    offsets = np.arange(n, dtype=np.int64)[:, None]
    weights = np.empty((n, n))
    for s in range(n):
        src = (np.arange(n) - s) % n
        weights[s] = cost[src, np.arange(n)]
    return ActionKernel(grid=grid, tau=tau, stencil_radius=(n // 2) * grid.spacing,
                        offsets=offsets, weights=weights)


def offset_delta(D):
    """The Mather delta(y, z) = D[cell z - cell y] on the torus of D's shape
    for a symmetric D, as the delta of the barrier h(y, z) = D[cell z - cell y] / 2
    of a kernel whose every axis is invariant: halving and the sum of two
    equal halves are exact."""
    D = np.asarray(D, dtype=float)
    axes = list(range(D.ndim))
    h = PeierlsBarrier(size=D.size, representatives=np.array([0]), critical_edges=0,
                       invariant_axes=axes, rows=_Rolled((D / 2).reshape(1, -1), D.shape, axes))
    return mather_delta(h)


def subgroup_offsets(seed=3):
    """A symmetric D on the 6 x 6 torus that is 0 at 0, 0.25 at +-(0, 2) and
    in [2, 4) elsewhere: at threshold 0.5 its offsets generate the subgroup
    {0, (0, 2), (0, 4)}, whose 12 cosets of 3 cells are the quotient."""
    R = np.random.default_rng(seed).uniform(1.0, 2.0, (6, 6))
    minus = -np.arange(6) % 6
    D = R + R[minus][:, minus]
    D[0, 0], D[0, 2], D[0, 4] = 0.0, 0.25, 0.25
    return D


@pytest.fixture(scope="session")
def kinetic_kernel_16():
    grid = build_grid(1, 16)
    return build_kernel(grid, kinetic_lagrangian(1))


@pytest.fixture(scope="session")
def pendulum_kernel_64():
    grid = build_grid(1, 64)
    return build_kernel(grid, mechanical_lagrangian(cosine_potential(1, [1])))


@pytest.fixture(scope="session")
def pendulum_state_64(pendulum_kernel_64):
    K = pendulum_kernel_64
    cv = critical_value(K)
    h = peierls_barrier(K, critical_graph(K, cv))
    return {"K": K, "c": cv.c, "cv": cv, "h": h}


@pytest.fixture(scope="session")
def doublewell_state_64():
    grid = build_grid(1, 64)
    K = build_kernel(grid, mechanical_lagrangian(cosine_potential(1, [2])))
    cv = critical_value(K)
    h = peierls_barrier(K, critical_graph(K, cv))
    return {"K": K, "c": cv.c, "cv": cv, "h": h}


@pytest.fixture(scope="session")
def mane_zero_kernel_16():
    grid = build_grid(1, 16)
    return build_kernel(grid, mane_lagrangian(zero_field(1)))
