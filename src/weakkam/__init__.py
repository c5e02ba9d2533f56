"""Numerical weak KAM / Aubry-Mather toolkit on discretized flat tori."""

from .errors import WeakKamError, ConfigError, NumericalError, ArtifactError
from .grid import GridTorus, ValueFunction, build_grid, wrap_displacement
from .models import (
    VectorField, Lagrangian, Potential, legendre_hamiltonian,
    zero_field, constant_field, sin_gradient_field, neg_grad_field, table_field,
    make_vector_field, cosine_potential, make_potential,
    mane_lagrangian, mechanical_lagrangian, kinetic_lagrangian, make_lagrangian,
)
from .kernel import ActionKernel, build_kernel, stencil_offsets
from .critical import (
    CriticalValue, CriticalGraph, WeakKamSolution, DominationReport,
    critical_value, critical_graph,
    weak_kam_solution, check_dominated,
)
from .aubry import (
    SemiMetric, AubrySet, QuotientPartition, RepresentationReport,
    peierls_barrier, aubry_set, classify_aubry, mather_delta,
    quotient, representation_check,
)
from .geometry import (
    CoveringReport, QuadraticBoundReport,
    hausdorff1_report, quadratic_bound_check,
    ferry_delta_p, segment_points, circle_points, interval_semimetric,
)
from .chains import (
    ChainGraph, SetComparison, ConstancyReport,
    integrate_flow, chain_graph, chain_recurrent_set,
    compare_aubry_chain, weak_kam_constancy_check, default_chain_parameters,
)
from .regularize import (
    SmoothingSchedule, default_schedule, alternating_smooth,
    semiconvexity_constant, semiconcavity_constant, discrete_gradient,
    subsolution_residual_field, aubry_drift, tent_function,
)
from .config import ExperimentConfig
from .pipeline import (
    run_pipeline, run_all,
    write_csv, write_json, load_points_csv,
)

__version__ = "0.1.0"
