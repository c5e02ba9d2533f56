"""Acceptance suite.

One test per shipped guarantee, numbered so a verbose run reads as a
checklist. Each test prints a single summary line with the measured
numbers next to the tolerance it had to meet. States that several
checks share (full barrier/Aubry pipelines at fixed resolutions) are
built once per module through fixtures; the 2d slab family is the
expensive one and is reused by the structural checks as well.
"""

import time
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest

from weakkam import (
    ActionKernel,
    ValueFunction,
    alternating_smooth,
    aubry_drift,
    aubry_set,
    build_grid,
    build_kernel,
    chain_graph,
    chain_recurrent_set,
    check_dominated,
    circle_points,
    compare_aubry_chain,
    constant_field,
    cosine_potential,
    critical_graph,
    critical_value,
    default_chain_parameters,
    default_schedule,
    ferry_delta_p,
    hausdorff1_report,
    interval_semimetric,
    kinetic_lagrangian,
    mane_lagrangian,
    mather_delta,
    mechanical_lagrangian,
    neg_grad_field,
    peierls_barrier,
    quadratic_bound_check,
    quotient,
    representation_check,
    run_all,
    segment_points,
    semiconcavity_constant,
    semiconvexity_constant,
    sin_gradient_field,
    tent_function,
    weak_kam_constancy_check,
    weak_kam_solution,
    zero_field,
)
from weakkam.config import ExperimentConfig

PENDULUM = mechanical_lagrangian(cosine_potential(1, [1]))
DOUBLE_WELL = mechanical_lagrangian(cosine_potential(1, [2]))

# common scale grid for the 2d covering estimates; the coarsest entry is
# wider than the slab spacing of every resolution used below
SCALES_2D = [0.03, 0.015, 0.0075, 0.004]


def _state(dim, n, L, tau=None, radius=None):
    """Critical value, barrier, Aubry set and Mather distance in one bundle."""
    g = build_grid(dim, n)
    K = build_kernel(g, L, tau=tau, stencil_radius=radius)
    cv = critical_value(K)
    h = peierls_barrier(K, critical_graph(K, cv))
    A = aubry_set(h, None, K, cv.c)
    return SimpleNamespace(grid=g, K=K, c=cv.c, h=h, aubry=A, delta=mather_delta(h))


@pytest.fixture(scope="module")
def pend128():
    return _state(1, 128, PENDULUM)


@pytest.fixture(scope="module")
def dwell128():
    return _state(1, 128, DOUBLE_WELL)


@pytest.fixture(scope="module")
def pend256():
    return _state(1, 256, PENDULUM)


@pytest.fixture(scope="module")
def dwell256():
    return _state(1, 256, DOUBLE_WELL)


@pytest.fixture(scope="module")
def kinetic256_coarse():
    # tau well above the spacing, otherwise neighbour distances stay above
    # the merge threshold and the quotient never collapses
    return _state(1, 256, kinetic_lagrangian(1), tau=0.25, radius=0.17)


@pytest.fixture(scope="module")
def pend_coarse_pair():
    return {n: _state(1, n, PENDULUM, tau=0.25, radius=0.17) for n in (128, 256)}


@pytest.fixture(scope="module")
def slab2d_states():
    L = mechanical_lagrangian(cosine_potential(2, [1, 0]))
    return {n: _state(2, n, L, tau=0.25, radius=0.17) for n in (32, 48, 64)}


def test_01_drift_models_keep_critical_value_at_zero():
    worst = 0.0
    slowest = 0.0
    for dim, n in ((1, 256), (2, 64)):
        g = build_grid(dim, n)
        # constant drift must sit on the velocity lattice (spacing / tau = 1
        # cell per step at the default tau), otherwise quantization alone
        # costs (drift mismatch)^2 / 2 regardless of resolution
        fields = (
            zero_field(dim),
            constant_field([1.0] * dim, dim),
            sin_gradient_field(dim),
        )
        for X in fields:
            start = time.monotonic()
            K = build_kernel(g, mane_lagrangian(X))
            cv = critical_value(K)
            elapsed = time.monotonic() - start
            assert elapsed < 30.0
            assert abs(cv.c) <= 5.0 * g.spacing
            worst = max(worst, abs(cv.c))
            slowest = max(slowest, elapsed)
    print(f"acceptance 01 drift critical values: PASS "
          f"(max |c| = {worst:.2e}, slowest solve {slowest:.1f}s)")


def test_02_pendulum_critical_value_converges_under_refinement():
    errs = {}
    for n in (64, 128, 256):
        g = build_grid(1, n)
        K = build_kernel(g, PENDULUM)
        errs[n] = abs(critical_value(K).c - 1.0)
        assert errs[n] <= 10.0 / n
    for n in (64, 128):
        assert errs[2 * n] <= max(0.65 * errs[n], 1e-12)
    print(f"acceptance 02 pendulum critical value: PASS "
          f"(errors {errs[64]:.2e} / {errs[128]:.2e} / {errs[256]:.2e})")


def _exhaustive_min_mean(dense):
    G = nx.DiGraph()
    n = dense.shape[0]
    for i in range(n):
        for j in range(n):
            if np.isfinite(dense[i, j]):
                G.add_edge(i, j, weight=float(dense[i, j]))
    best = np.inf
    for cyc in nx.simple_cycles(G):
        k = len(cyc)
        total = sum(G.edges[cyc[i], cyc[(i + 1) % k]]["weight"] for i in range(k))
        best = min(best, total / k)
    return best


def test_03_mean_cycle_weight_matches_exhaustive_enumeration():
    rng = np.random.default_rng(20260815)
    start = time.monotonic()
    for _ in range(200):
        n = int(rng.integers(2, 13))
        s = int(rng.integers(1, min(3, n) + 1))
        offs = np.sort(rng.choice(n, size=s, replace=False)).astype(np.int64)[:, None]
        weights = rng.integers(-5, 10, size=(s, n)).astype(float)
        tau = float(rng.choice([0.25, 0.5, 1.0]))
        g = build_grid(1, n)
        K = ActionKernel(grid=g, tau=tau, stencil_radius=float(n) * g.spacing,
                         offsets=offs, weights=weights)
        cv = critical_value(K)
        expected = _exhaustive_min_mean(K.dense())
        assert cv.mean_cycle_weight == pytest.approx(expected, abs=1e-9)
        assert cv.c == pytest.approx(-expected / tau, abs=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"acceptance 03 mean cycle oracle: PASS (200 random kernels, {elapsed:.1f}s)")


def test_04_barrier_triangle_domination_and_diagonal(
        pend128, dwell128, kinetic256_coarse, slab2d_states):
    states = {
        "pendulum-128": pend128,
        "double-well-128": dwell128,
        "kinetic-256": kinetic256_coarse,
        "slab2d-32": slab2d_states[32],
    }
    worst_tri = worst_dom = 0.0
    for label, st in states.items():
        tri = st.h.triangle_violation()
        assert tri <= 1e-9, label
        n_pts = st.h.values.shape[0]
        cols = np.unique(np.linspace(0, n_pts - 1, 16).astype(int))
        dom = max(check_dominated(st.K, st.h.values[i], st.c).max_violation
                  for i in cols)
        assert dom <= 1e-9, label
        assert float(np.min(st.h.diagonal())) <= 5.0 * st.grid.spacing, label
        worst_tri = max(worst_tri, tri)
        worst_dom = max(worst_dom, dom)
    print(f"acceptance 04 barrier structure: PASS "
          f"(max triangle defect {worst_tri:.1e}, max domination defect {worst_dom:.1e})")


def test_05_barrier_representation_residual(pend128, dwell128):
    worst = 0.0
    for label, st in (("pendulum", pend128), ("double-well", dwell128)):
        rep = representation_check(st.h, st.delta, st.aubry)
        assert rep.max_residual <= 1e-8, label
        worst = max(worst, rep.max_residual)
    print(f"acceptance 05 representation residual: PASS (max {worst:.1e})")


def test_06_quadratic_growth_ratio_stable_under_refinement(pend_coarse_pair):
    ratios = {
        n: quadratic_bound_check(st.delta, st.aubry, st.grid, window=0.1).max_ratio
        for n, st in pend_coarse_pair.items()
    }
    assert np.isfinite(ratios[128]) and ratios[128] > 0.0
    assert abs(ratios[256] - ratios[128]) <= 0.25 * ratios[128]
    print(f"acceptance 06 quadratic growth ratio: PASS "
          f"(ratios {ratios[128]:.4f} -> {ratios[256]:.4f})")


def test_07_quotient_class_counts(pend256, dwell256, kinetic256_coarse):
    cases = (
        ("pendulum", pend256, 1),
        ("double-well", dwell256, 2),
        ("kinetic", kinetic256_coarse, 1),
    )
    for label, st, expected in cases:
        start = time.monotonic()
        part = quotient(st.delta, st.aubry, 8.0 * st.grid.spacing ** 2)
        assert time.monotonic() - start < 60.0, label
        assert len(part.classes) == expected, label
    part = quotient(dwell256.delta, dwell256.aubry,
                    8.0 * dwell256.grid.spacing ** 2)
    r0, r1 = part.representative[0], part.representative[1]
    separation = float(dwell256.delta.values[r0, r1])
    assert separation > 10.0 * part.merge_threshold
    print(f"acceptance 07 quotient classes: PASS "
          f"(1/2/1 classes, well separation {separation:.3f})")


def test_08_quotient_size_estimate_shrinks_with_resolution(slab2d_states):
    finest = {}
    for n, st in slab2d_states.items():
        rep = hausdorff1_report(st.delta, st.aubry.indices, SCALES_2D)
        finest[n] = rep.h1_estimates[-1]
    sizes = sorted(finest)
    for a, b in zip(sizes, sizes[1:]):
        assert finest[b] < finest[a]
    control = hausdorff1_report(interval_semimetric(1024), np.arange(1024),
                                [0.02, 0.01, 0.0075])
    for value in control.h1_estimates:
        assert abs(value - 1.0) <= 0.05
    seq = ", ".join(f"{finest[n]:.3f}" for n in sizes)
    print(f"acceptance 08 size estimates: PASS "
          f"(slab h1 {seq}; interval control within 5%)")


def test_09_chain_recurrent_set_matches_aubry_set():
    g = build_grid(1, 256)
    fields = {
        "zero": zero_field(1),
        "constant": constant_field([1.0], 1),
        "sin_gradient": sin_gradient_field(1),
        "neg_grad": neg_grad_field(cosine_potential(1, [1])),
    }
    worst = 0.0
    for label, X in fields.items():
        K = build_kernel(g, mane_lagrangian(X))
        cv = critical_value(K)
        h = peierls_barrier(K, critical_graph(K, cv))
        A = aubry_set(h, None, K, cv.c)
        params = default_chain_parameters(g, X)
        cg = chain_graph(X, g, dt=params["dt"], eps=params["eps"],
                         substeps=params["substeps"])
        chain = chain_recurrent_set(cg)
        gap = compare_aubry_chain(A.indices, chain, g).hausdorff_distance
        assert gap <= 3.0 * g.spacing, label
        worst = max(worst, gap)
    print(f"acceptance 09 chain vs variational sets: PASS "
          f"(max Hausdorff gap {worst:.2e} <= {3.0 / 256:.2e})")


def test_10_solution_uniqueness_up_to_constants():
    g = build_grid(1, 256)
    K = build_kernel(g, mane_lagrangian(constant_field([1.0], 1)))
    cv = critical_value(K)
    sols = [
        weak_kam_solution(K, critical_graph(K, cv),
                          u0=np.random.default_rng(seed).uniform(0, 1, 256))
        for seed in range(5)
    ]
    unique_osc = weak_kam_constancy_check(sols).max_oscillation
    assert unique_osc <= 1e-6

    Kd = build_kernel(g, DOUBLE_WELL)
    cvd = critical_value(Kd)
    pinned = [
        weak_kam_solution(Kd, critical_graph(Kd, cvd),
                          u0=10.0 * tent_function(g, center=cell).values)
        for cell in (0, 128)
    ]
    split_osc = weak_kam_constancy_check(pinned).max_oscillation
    assert split_osc > 1e-3
    print(f"acceptance 10 uniqueness: PASS "
          f"(unique osc {unique_osc:.1e}, double-well osc {split_osc:.3f})")


def test_11_alternating_smoothing_bounds():
    g = build_grid(1, 128)
    K = build_kernel(g, PENDULUM, tau=0.125, stencil_radius=0.3)
    cv = critical_value(K)
    h = peierls_barrier(K, critical_graph(K, cv))
    A = aubry_set(h, None, K, cv.c)
    sol = weak_kam_solution(K, critical_graph(K, cv))
    smoothed = alternating_smooth(sol.u, K, cv.c, default_schedule(K.tau), tol=1e-9)

    x = g.coords()[:, 0]
    exact = np.where(x <= 0.5,
                     (2.0 / np.pi) * (1.0 - np.cos(np.pi * x)),
                     (2.0 / np.pi) * (1.0 + np.cos(np.pi * x)))
    baseline = ValueFunction(grid=g, values=exact)
    cvx_base = semiconvexity_constant(baseline)
    ccv_base = semiconcavity_constant(baseline)
    cvx = semiconvexity_constant(smoothed)
    ccv = semiconcavity_constant(smoothed)
    assert np.isfinite(cvx) and np.isfinite(ccv)
    assert cvx <= 2.0 * cvx_base
    assert ccv <= 2.0 * ccv_base
    assert check_dominated(K, smoothed.values, cv.c).max_violation <= 1e-8
    assert aubry_drift(sol.u, smoothed, A.indices) <= 8.0 * 1e-9

    tent = tent_function(g)
    before = semiconvexity_constant(tent)
    out = tent.values
    for _ in range(4):  # one opening stage of the default schedule
        out = K.apply_max(out, cv.c * K.tau)
    after = semiconvexity_constant(ValueFunction(grid=g, values=out))
    assert after * 10.0 <= before
    print(f"acceptance 11 smoothing: PASS "
          f"(cvx {cvx:.0f}<=2x{cvx_base:.0f}, ccv {ccv:.2f}<=2x{ccv_base:.2f}, "
          f"tent drop {before / after:.1f}x)")


def test_12_ferry_distance_scales_with_sampling():
    for n in (8, 16, 32, 64):
        metric = ferry_delta_p(segment_points(n), 2.0)
        assert metric.values[0, -1] == pytest.approx(1.0 / n, abs=1e-15)
    ends = {}
    for count in (16, 32, 64, 128):
        metric = ferry_delta_p(circle_points(count), 2.0)
        ends[count] = float(metric.values[0, count // 2])
    for a, b in ((16, 32), (32, 64), (64, 128)):
        assert ends[b] <= 0.6 * ends[a]
    print(f"acceptance 12 ferry scaling: PASS "
          f"(segment exact, circle {ends[16]:.3f}->{ends[128]:.4f})")


def test_13_identical_configs_reproduce_artifacts_byte_for_byte(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = ExperimentConfig.from_dict({
            "model": {"family": "mane", "field": {"name": "sin_gradient"}},
            "grid": {"dim": 1, "n": 64},
            "outputs": {"directory": str(out)},
        })
        run_all(cfg)
        runs.append(out)
    a_dir, b_dir = runs
    compared = 0
    for path_a in sorted(a_dir.iterdir()):
        if path_a.name == "manifest.json":  # wall times differ by design
            continue
        path_b = b_dir / path_a.name
        assert path_b.exists(), path_a.name
        assert path_a.read_bytes() == path_b.read_bytes(), path_a.name
        compared += 1
    assert compared >= 3
    print(f"acceptance 13 determinism: PASS ({compared} artifacts byte-identical)")
