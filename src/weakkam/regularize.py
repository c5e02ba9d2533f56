"""Alternating forward/backward smoothing of critical subsolutions.

Composing the shifted operators T+ then T- at decreasing times produces
functions that stay dominated, agree with the input on the Aubry cells
(whose flat cycles pin the values), and gain one-sided curvature bounds
of order 1/t from the quadratic cost of fast transitions.
"""

import numpy as np

from .errors import ConfigError, NumericalError
from .grid import GridTorus, ValueFunction, check_ids
from .kernel import ActionKernel
from .critical import check_dominated, check_tolerance
from .models import Lagrangian, legendre_hamiltonian


def alternating_smooth(u: ValueFunction, K: ActionKernel, c: float, stages: int = 4,
                       tol: float = 1e-9) -> ValueFunction:
    """S_N(u): stage k = 1..stages runs 2^max(0, 3 - k) forward steps, then as
    many backward steps: 4, 2, then 1 per stage.

    The opening stage is wide enough for the forward pass to flatten a kink
    across several cells; later stages shrink toward the kernel step to
    tighten values back onto the input. Every individual step is
    c*tau-shifted, which preserves domination exactly; the input must be
    dominated to begin with, up to tol (a NaN violation, from a NaN entry
    of u, is not). ConfigError when stages is not a positive integer or
    tol is not a finite number >= 0.
    """
    if not isinstance(stages, (int, np.integer)) or stages < 1:
        raise ConfigError(f"stages must be a positive integer, got {stages!r}")
    check_tolerance(tol)
    rep = check_dominated(K, u.values, c)
    if not rep.max_violation <= tol:
        raise NumericalError(
            f"input is not dominated: violation {rep.max_violation:.3e} "
            f"on edge {rep.worst_edge}")
    shift = c * K.tau
    v = np.asarray(u.values, dtype=float).copy()
    for k in range(1, stages + 1):
        steps = 2 ** max(0, 3 - k)
        for _ in range(steps):
            v = K.apply_max(v, shift)
        for _ in range(steps):
            v = K.apply_min(v, shift)
    return ValueFunction(u.grid, v)


def _second_differences(u: ValueFunction) -> np.ndarray:
    mesh = u.as_mesh()
    out = []
    for ax in range(u.grid.dim):
        out.append(np.roll(mesh, 1, axis=ax) + np.roll(mesh, -1, axis=ax) - 2 * mesh)
    return np.stack(out)


def semiconvexity_constant(u: ValueFunction) -> float:
    """Smallest K with centered second differences >= -2K*spacing^2."""
    d2 = _second_differences(u)
    return max(0.0, float(np.max(-d2)) / (2.0 * u.grid.spacing**2))


def semiconcavity_constant(u: ValueFunction) -> float:
    """Smallest K with centered second differences <= +2K*spacing^2."""
    d2 = _second_differences(u)
    return max(0.0, float(np.max(d2)) / (2.0 * u.grid.spacing**2))


def discrete_gradient(u: ValueFunction) -> np.ndarray:
    """Centered-difference gradient with wrap, shape (point_count, dim)."""
    mesh = u.as_mesh()
    sp = u.grid.spacing
    comps = []
    for ax in range(u.grid.dim):
        comps.append((np.roll(mesh, -1, axis=ax) - np.roll(mesh, 1, axis=ax)) / (2 * sp))
    return np.stack([g.ravel() for g in comps], axis=1)


def subsolution_residual_field(u: ValueFunction, L: Lagrangian,
                               grid: GridTorus) -> np.ndarray:
    """Per-cell H(x, Du(x)); subtracting c gives the pointwise residual."""
    du = discrete_gradient(u)
    H = legendre_hamiltonian(L, grid.coords(), du)
    return np.atleast_1d(np.asarray(H, dtype=float))


def aubry_drift(u_in: ValueFunction, u_out: ValueFunction, aubry_indices) -> float:
    """max |u_out - u_in| over the Aubry cells; ConfigError for a cell id
    outside the grid."""
    idx = check_ids(aubry_indices, u_in.grid.point_count)
    if idx.size == 0:
        raise ConfigError("no Aubry cells to measure drift on")
    return float(np.max(np.abs(u_out.values[idx] - u_in.values[idx])))


def tent_function(grid: GridTorus, center: int = 0) -> ValueFunction:
    """Min-image distance to a cell; the canonical kinked test input.

    Its concave kink (at the cell farthest from the center) has discrete
    curvature of order 1/spacing, so one wide forward pass must flatten
    it by a large factor.
    """
    x0 = grid.coords(np.array([center]))[0]
    d = grid.torus_distance(np.broadcast_to(x0, (grid.point_count, grid.dim)),
                            grid.coords())
    return ValueFunction(grid, d)
