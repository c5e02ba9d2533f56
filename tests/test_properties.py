"""Property-based checks for the wrapping, min-plus and metric layers."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weakkam import (
    ActionKernel,
    NumericalError,
    build_grid,
    build_kernel,
    chain_graph,
    chain_recurrent_set,
    check_dominated,
    cosine_potential,
    critical_graph,
    critical_value,
    ferry_delta_p,
    hausdorff1_report,
    kinetic_lagrangian,
    mechanical_lagrangian,
    peierls_barrier,
    quotient,
    sin_gradient_field,
    weak_kam_solution,
    wrap_displacement,
)

from weakkam import aubry, geometry, pipeline
from weakkam.aubry import AubrySet, SemiMetric

from oracles import _auto_scales as oracle_scales
from oracles import _greedy_centers as oracle_centers
from oracles import closure_barrier, csv_text, exhaustive_min_mean, union_find_quotient

unit_floats = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@given(st.lists(unit_floats, min_size=1, max_size=8),
       st.lists(unit_floats, min_size=1, max_size=8))
def test_wrap_displacement_is_min_image(xs, ys):
    k = min(len(xs), len(ys))
    x = np.array(xs[:k])[:, None]
    y = np.array(ys[:k])[:, None]
    d = wrap_displacement(x, y)
    assert np.all(d >= -0.5) and np.all(d < 0.5)
    gap = np.abs((x + d) % 1.0 - y % 1.0)
    assert np.all(np.minimum(gap, 1.0 - gap) <= 1e-12)


_kernel16 = None


def kernel16():
    global _kernel16
    if _kernel16 is None:
        _kernel16 = build_kernel(build_grid(1, 16), kinetic_lagrangian(1))
    return _kernel16


vec16 = st.lists(st.floats(min_value=-10, max_value=10), min_size=16, max_size=16)


@settings(max_examples=40, deadline=None)
@given(vec16, vec16)
def test_minplus_monotone(us, vs):
    u = np.array(us)
    v = np.maximum(u, np.array(vs))
    K = kernel16()
    assert np.all(K.apply_min(u) <= K.apply_min(v) + 1e-12)


@settings(max_examples=40, deadline=None)
@given(vec16, st.floats(min_value=-5, max_value=5))
def test_minplus_commutes_with_constants(us, a):
    u = np.array(us)
    K = kernel16()
    lhs = K.apply_min(u + a)
    rhs = K.apply_min(u) + a
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(vec16)
def test_backward_forward_galois(us):
    # T+ and T- are adjoint: T+(T- u) <= u and T-(T+ u) >= u
    u = np.array(us)
    K = kernel16()
    assert np.all(K.apply_max(K.apply_min(u)) <= u + 1e-12)
    assert np.all(K.apply_min(K.apply_max(u)) >= u - 1e-12)


_pend = None


def pendulum64():
    global _pend
    if _pend is None:
        K = build_kernel(build_grid(1, 64),
                         mechanical_lagrangian(cosine_potential(1, [1])))
        _pend = (K, critical_value(K))
    return _pend


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=6))
def test_shifted_steps_preserve_domination(seed, steps):
    K, cv = pendulum64()
    c = cv.c
    rng = np.random.default_rng(seed)
    u = weak_kam_solution(K, critical_graph(K, cv), u0=rng.uniform(0, 1, 64)).u.values
    assert check_dominated(K, u, c, tol=1e-9).dominated
    shift = c * K.tau
    for _ in range(steps):
        u = K.apply_min(u, shift)
        assert check_dominated(K, u, c, tol=1e-9).dominated
    for _ in range(steps):
        u = K.apply_max(u, shift)
        assert check_dominated(K, u, c, tol=1e-9).dominated


STEPS_2D = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4),
       st.lists(st.sampled_from(STEPS_2D), min_size=1, max_size=3, unique=True),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_critical_value_matches_exhaustive_2d(n, steps, seed):
    # tiny tori: on n=2 the steps +1 and -1 alias onto the same edge
    g = build_grid(2, n)
    offsets = np.array(sorted(steps), dtype=np.int64)
    weights = np.random.default_rng(seed).integers(-5, 10, size=(len(steps), g.point_count))
    K = ActionKernel(grid=g, tau=0.5, stencil_radius=g.spacing, offsets=offsets,
                     weights=weights.astype(float))
    cv = critical_value(K)
    assert abs(cv.mean_cycle_weight - exhaustive_min_mean(K)) <= 1e-9
    assert abs(cv.witness_mean(K) - cv.mean_cycle_weight) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4),
       st.lists(st.sampled_from(STEPS_2D), min_size=1, max_size=4, unique=True),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_barrier_matches_closure_oracle_2d(n, steps, seed):
    # few steps often leave the graph not strongly connected: then both fail
    g = build_grid(2, n)
    offsets = np.array(sorted(steps), dtype=np.int64)
    weights = np.random.default_rng(seed).integers(-5, 10, size=(len(steps), g.point_count))
    K = ActionKernel(grid=g, tau=0.5, stencil_radius=g.spacing, offsets=offsets,
                     weights=weights.astype(float))
    cv = critical_value(K)
    try:
        ref = closure_barrier(K, cv.c).values
    except NumericalError:
        with pytest.raises(NumericalError):
            peierls_barrier(K, critical_graph(K, cv))
        return
    np.testing.assert_allclose(peierls_barrier(K, critical_graph(K, cv)).values, ref,
                               rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4),
       st.lists(st.sampled_from(STEPS_2D), max_size=3, unique=True),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_weak_kam_matches_closure_oracle_2d(n, steps, seed):
    # the unit steps along both axes keep the graph strongly connected
    g = build_grid(2, n)
    offsets = np.array(sorted(set(steps) | {(0, 1), (1, 0)}), dtype=np.int64)
    rng = np.random.default_rng(seed)
    weights = rng.integers(-5, 10, size=(len(offsets), g.point_count))
    K = ActionKernel(grid=g, tau=0.5, stencil_radius=g.spacing, offsets=offsets,
                     weights=weights.astype(float))
    cv = critical_value(K)
    u0 = rng.uniform(0, 10, g.point_count)
    lim = np.min(u0[:, None] + closure_barrier(K, cv.c).values, axis=0)
    u = weak_kam_solution(K, critical_graph(K, cv), u0=u0).u.values
    np.testing.assert_allclose(u, lim - lim.min(), rtol=0.0, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=3, max_value=10),
       st.floats(min_value=1.0, max_value=3.0))
def test_ferry_symmetric_and_triangular(seed, k, p):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(k, 2))
    m = ferry_delta_p(pts, p).values
    np.testing.assert_allclose(m, m.T, atol=1e-12)
    worst = np.max(m[:, None, :] - (m[:, :, None] + m[None, :, :]))
    assert worst <= 1e-12
    assert np.all(np.diag(m) == 0.0)


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.8, max_value=1.6), st.floats(min_value=1.6, max_value=3.0))
def test_chain_set_monotone_in_eps(a, b):
    g = build_grid(1, 32)
    X = sin_gradient_field(1)
    dt = 16 * g.spacing
    small = set(chain_recurrent_set(chain_graph(X, g, dt=dt, eps=a * g.spacing)))
    large = set(chain_recurrent_set(chain_graph(X, g, dt=dt, eps=b * g.spacing)))
    assert small <= large


@st.composite
def semimetric_cases(draw):
    """A small semi-metric (zero diagonal), an index set and a row-block size.

    Values are asymmetric or symmetric, and either continuous or on a
    quarter grid, whose many ties exercise the greedy tie-breaks. The index
    set is every point in order (block views) or a shuffled subset (gathers).
    """
    k = draw(st.integers(min_value=1, max_value=7))
    if draw(st.booleans()):
        vals = np.array(draw(st.lists(st.integers(0, 4), min_size=k * k, max_size=k * k))) / 4
    else:
        vals = np.array(draw(st.lists(unit_floats, min_size=k * k, max_size=k * k)))
    vals = vals.reshape(k, k)
    if draw(st.booleans()):
        vals = np.minimum(vals, vals.T)
    np.fill_diagonal(vals, 0.0)
    if draw(st.booleans()):
        indices = np.arange(k)
    else:
        perm = draw(st.permutations(range(k)))
        indices = np.array(perm[:draw(st.integers(min_value=1, max_value=k))])
    return vals, indices, draw(st.sampled_from([1, 5, 1 << 20]))


@settings(max_examples=80, deadline=None)
@given(semimetric_cases(), st.floats(min_value=0.01, max_value=1.0))
# subnormal delta: the scales are subnormal and 1/r overflows
@example(case=(np.array([[0.0, 2.22507386e-309], [2.22507386e-309, 0.0]]), np.arange(2), 1),
         radius=1.0)
# the smallest subnormal: halving it for the lowest scale underflows to 0
@example(case=(np.array([[0.0, 5e-324], [5e-324, 0.0]]), np.arange(2), 1), radius=1.0)
def test_block_consumers_match_copying_oracles(case, radius):
    vals, indices, block = case
    # symmetric values take the row read of the coverings
    delta = SemiMetric(values=vals, symmetric=bool(np.array_equal(vals, vals.T)))
    sub = vals[np.ix_(indices, indices)]
    radii = [radius] + [float(v) for v in np.unique(sub) if v > 0]
    A = AubrySet(indices=indices, self_barrier=np.zeros(indices.size),
                 labels=["other"] * indices.size, threshold=0.0)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(aubry, "BLOCK_ENTRIES", block)
        m.setattr(geometry, "LEVEL_ENTRIES", block)
        for r in radii:
            want = oracle_centers(sub, r)
            assert geometry._greedy_coverings(delta, indices, np.array([r]))[0] == want
            assert hausdorff1_report(delta, indices, [r]).covering_counts[0] == len(want)
            got, want = quotient(delta, A, r), union_find_quotient(delta, A, r)
            assert (got.classes, got.representative) == (want.classes, want.representative)
        scales = pipeline._auto_scales(*pipeline._delta_range(delta, indices))
        np.testing.assert_array_equal(scales, oracle_scales(delta, indices))
        counts = hausdorff1_report(delta, indices, scales).covering_counts
        assert counts.tolist() == [len(oracle_centers(sub, r)) for r in np.sort(scales)[::-1]]


@settings(max_examples=80, deadline=None)
@given(semimetric_cases(), st.lists(st.floats(min_value=0.01, max_value=1.0), max_size=3),
       st.integers(min_value=1, max_value=3))
def test_multiscale_coverings_match_per_scale_oracle(case, extra, copies):
    vals, indices, block = case
    delta = SemiMetric(values=vals, symmetric=bool(np.array_equal(vals, vals.T)))
    sub = vals[np.ix_(indices, indices)]
    # every distinct delta value is a scale, so ties sit exactly at r, and
    # each is repeated `copies` times
    scales = [float(v) for v in np.unique(sub) if v > 0] * copies + extra
    if not scales:
        return
    desc = np.sort(scales)[::-1]
    want = [oracle_centers(sub, r) for r in desc]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(geometry, "LEVEL_ENTRIES", block)
        counts = hausdorff1_report(delta, indices, scales).covering_counts
        assert counts.tolist() == [len(c) for c in want]
        # the column read, or the row read when delta is symmetric
        assert geometry._greedy_coverings(delta, indices, desc) == want


def test_coverings_count_levels_past_255_scales():
    # 300 scales on a 5-point set: the zero diagonal lies within all 300,
    # which a byte-wide level count would wrap
    rng = np.random.default_rng(17)
    vals = rng.integers(1, 301, (5, 5)) / 300
    np.fill_diagonal(vals, 0.0)
    scales = np.arange(1, 301) / 300
    delta = SemiMetric(values=vals)
    desc = scales[::-1]
    assert geometry._levels(delta, np.arange(5), desc).max() == 300
    counts = hausdorff1_report(delta, None, scales).covering_counts
    assert counts.tolist() == [len(oracle_centers(vals, r)) for r in desc]
    assert counts[-1] == 5


def _power_of_ten(k, step):
    p = float(f"1e{k}")
    return float(np.nextafter(p, step * np.inf)) if step else p


# cell values by column dtype: every float64 (subnormals, signed zeros,
# infinities, NaN), powers of ten and their neighbours, exact 12-digit ties,
# the integer extremes and the integers around 10**15, bools and text
_CSV_CELLS = {
    np.float64: st.one_of(
        st.floats(),
        st.builds(_power_of_ten, st.integers(-330, 308), st.sampled_from([-1, 0, 1])),
        st.sampled_from([123456789012.5, 999999999999.5, 9.999999999995, -9.999999999995])),
    np.float32: st.floats(width=32),
    np.int64: st.one_of(st.sampled_from([-2**63, 2**63 - 1, 10**15 - 1, -10**15, 10**16 - 1]),
                        st.integers(-2**63, 2**63 - 1)),
    np.uint64: st.one_of(st.just(2**64 - 1), st.integers(0, 2**64 - 1)),
    np.uint8: st.integers(0, 255),
    np.bool_: st.booleans(),
    str: st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
                 max_size=9),
}
_csv_pools = st.sampled_from(list(_CSV_CELLS)).flatmap(
    lambda dtype: st.lists(_CSV_CELLS[dtype], min_size=1, max_size=12).map(
        lambda cells: np.array(cells, dtype=dtype)))


@settings(max_examples=60, deadline=None)
@given(st.lists(_csv_pools, min_size=1, max_size=4),
       st.lists(st.sampled_from([0, 1, pipeline.CSV_SLICE_ROWS - 1, pipeline.CSV_SLICE_ROWS + 1]),
                min_size=1, max_size=3),
       st.integers(min_value=0, max_value=2**31 - 1))
@example(pools=[np.array([-2**63, 2**63 - 1, 10**15 - 1, -10**15, 10**16 - 1, 2**53 + 1]),
                np.array([2**64 - 1, 0, 10**15], dtype=np.uint64),
                np.array([123456789012.5, 999999999999.5, 9.999999999995, 0.0, -0.0, np.inf,
                          -np.inf, np.nan, 5e-324, 1e-11, 1e34])],
         sizes=[pipeline.CSV_SLICE_ROWS + 1], seed=0)
def test_write_csv_matches_the_cell_by_cell_text(tmp_path_factory, pools, sizes, seed):
    # chunks of 0 and 1 rows and of one row less or more than a slice, each
    # column drawn from its pool of cells
    rng = np.random.default_rng(seed)
    chunks = [tuple(pool[rng.integers(0, pool.size, size)] for pool in pools) for size in sizes]
    header = [f"c{k}" for k in range(len(pools))]
    path = pipeline.write_csv(tmp_path_factory.mktemp("csv") / "cells.csv", header, chunks)
    want = csv_text(header, [row for chunk in chunks for row in zip(*chunk)])
    assert path.read_bytes() == want.encode()
