"""Alternating forward/backward smoothing of critical subsolutions.

Composing the shifted operators T+ then T- at decreasing times produces
functions that stay dominated, agree with the input on the Aubry cells
(whose flat cycles pin the values), and gain one-sided curvature bounds
of order 1/t from the quadratic cost of fast transitions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .grid import GridTorus, ValueFunction
from .kernel import ActionKernel
from .critical import check_dominated
from .models import Lagrangian, legendre_hamiltonian


@dataclass
class SmoothingSchedule:
    t_plus: list
    t_minus: list

    def __post_init__(self):
        if len(self.t_plus) != len(self.t_minus) or not self.t_plus:
            raise ConfigError("schedule needs matching nonempty t_plus/t_minus lists")
        if min(self.t_plus) <= 0 or min(self.t_minus) <= 0:
            raise ConfigError("all smoothing times must be positive")

    def step_counts(self, tau: float):
        """Whole numbers of one-step operator applications per stage."""
        plus = [max(1, int(round(t / tau))) for t in self.t_plus]
        minus = [max(1, int(round(t / tau))) for t in self.t_minus]
        return plus, minus


def default_schedule(tau: float, stages: int = 4) -> SmoothingSchedule:
    """Halving schedule starting at 4*tau, clamped to >= tau.

    The opening stage is wide enough for the forward pass to flatten a
    kink across several cells; later stages shrink toward the kernel
    step to tighten values back onto the input.
    """
    ts = [tau * 2.0 ** max(0, 3 - n) for n in range(1, stages + 1)]
    return SmoothingSchedule(t_plus=list(ts), t_minus=list(ts))


def alternating_smooth(u: ValueFunction, K: ActionKernel, c: float,
                       schedule: SmoothingSchedule, tol: float = 1e-9) -> ValueFunction:
    """S_N(u): per stage, t/tau forward steps then t/tau backward steps.

    Every individual step is c*tau-shifted, which preserves domination
    exactly; the input must be dominated to begin with.
    """
    rep = check_dominated(K, u.values, c)
    if rep.max_violation > tol:
        raise NumericalError(
            f"input is not dominated: violation {rep.max_violation:.3e} "
            f"on edge {rep.worst_edge}")
    shift = c * K.tau
    v = np.asarray(u.values, dtype=float).copy()
    plus, minus = schedule.step_counts(K.tau)
    for np_steps, nm_steps in zip(plus, minus):
        for _ in range(np_steps):
            v = K.apply_max(v, shift)
        for _ in range(nm_steps):
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
    """max |u_out - u_in| over the Aubry cells."""
    idx = np.asarray(aubry_indices, dtype=np.int64)
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
