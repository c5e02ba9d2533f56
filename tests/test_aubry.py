"""Peierls barrier, Aubry set, Mather semi-distance, quotient structure."""

import dataclasses

import numpy as np
import pytest

from weakkam import (
    ConfigError,
    NumericalError,
    aubry_set,
    build_grid,
    build_kernel,
    classify_aubry,
    constant_field,
    cosine_potential,
    critical_graph,
    critical_value,
    kinetic_lagrangian,
    mane_lagrangian,
    mather_delta,
    mechanical_lagrangian,
    peierls_barrier,
    quotient,
    representation_check,
    sin_gradient_field,
    weak_kam_solution,
)
from weakkam import aubry, geometry, pipeline
from weakkam.aubry import SemiMetric
from weakkam.config import ExperimentConfig

from conftest import offset_delta, subgroup_offsets
from test_critical import EXHAUSTIVE_CASES
from oracles import (_auto_scales, _greedy_centers, closure_barrier, kernel_closure,
                     representative_barrier, slab_barrier, translate_rows,
                     union_find_quotient, value_iteration_weak_kam)
from weakkam.kernel import invariant_axes


@pytest.fixture(scope="module")
def sin_state():
    g = build_grid(1, 64)
    K = build_kernel(g, mane_lagrangian(sin_gradient_field(1)))
    cv = critical_value(K)
    h = peierls_barrier(K, critical_graph(K, cv))
    return {"K": K, "c": cv.c, "h": h, "grid": g}


def test_barrier_kinetic_equals_closure(mane_zero_kernel_16):
    K = mane_zero_kernel_16
    h = peierls_barrier(K, critical_graph(K, critical_value(K)))
    np.testing.assert_allclose(h.values, kernel_closure(K), atol=1e-12)
    np.testing.assert_array_equal(h.diagonal(), np.zeros(16))


def test_barrier_pendulum_diagonal(pendulum_state_64):
    h = pendulum_state_64["h"]
    d = h.diagonal()
    assert d[0] == pytest.approx(0.0, abs=1e-12)
    assert np.min(d[1:]) > 1e-4  # strictly positive off the Aubry point


def test_barrier_triangle_inequality(pendulum_state_64):
    h = pendulum_state_64["h"]
    H = h.values
    # h(x,z) <= h(x,y) + h(y,z) for all y
    worst = np.max(H[:, None, :] - (H[:, :, None] + H[None, :, :]))
    assert worst <= 1e-9
    assert h.triangle_violation() <= 1e-9


def test_barrier_needs_correct_level(pendulum_state_64):
    K, cv = pendulum_state_64["K"], pendulum_state_64["cv"]
    # below c the bias is no subsolution; above it no cycle is flat
    for c in (cv.c - 0.5, cv.c + 0.5):
        with pytest.raises(NumericalError):
            peierls_barrier(K, critical_graph(K, dataclasses.replace(cv, c=c)))


def _kernel(dim, n, L, cells=None):
    g = build_grid(dim, n)
    return build_kernel(g, L, stencil_radius=None if cells is None else cells * g.spacing)


# kernel, representatives (one per critical class), invariant axes of the
# slab path ([] when the barrier is assembled from representatives)
ORACLE_CASES = {
    "pendulum-64": (lambda: _kernel(1, 64, mechanical_lagrangian(cosine_potential(1, [1]))),
                    1, []),
    "double-well-64": (lambda: _kernel(1, 64, mechanical_lagrangian(cosine_potential(1, [2]))),
                       2, []),
    "sin-gradient-64": (lambda: _kernel(1, 64, mane_lagrangian(sin_gradient_field(1))), 2, []),
    # one class of 64 cells: every cell is critical, rolled from one row
    "constant-drift-64": (lambda: _kernel(1, 64, mane_lagrangian(constant_field([1.0], 1))),
                          1, [0]),
    "kinetic-6x6": (lambda: _kernel(2, 6, kinetic_lagrangian(2), cells=2), 36, [0, 1]),
    # every cell critical and h not symmetric: h.T's rows differ from h's
    "drift-6x6": (lambda: _kernel(2, 6, mane_lagrangian(constant_field([0.5, 0.25], 2)), cells=2),
                  6, [0, 1]),
    # invariant along axis 1 only, and only the line x0 = 0 is critical
    "pendulum-x0-6x6": (lambda: _kernel(2, 6, mechanical_lagrangian(cosine_potential(2, [1, 0])),
                                        cells=2), 6, []),
    "sin-gradient-24x24": (lambda: _kernel(2, 24, mane_lagrangian(sin_gradient_field(2))),
                           4, []),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_barrier_matches_closure_oracle(case):
    build, reps, axes = ORACLE_CASES[case]
    K = build()
    cv = critical_value(K)
    h = peierls_barrier(K, critical_graph(K, cv))
    ref = closure_barrier(K, cv.c)
    np.testing.assert_allclose(h.values, ref.values, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(aubry_set(h, None, K, cv.c).indices,
                                  aubry_set(ref, None, K, cv.c).indices)
    assert h.representatives.size == reps
    assert h.invariant_axes == axes


@pytest.mark.parametrize("case", [c for c in ORACLE_CASES if c != "pendulum-x0-6x6"])
def test_weak_kam_matches_value_iteration_oracle(case):
    K = ORACLE_CASES[case][0]()
    cv = critical_value(K)
    u0 = np.random.default_rng(5).standard_normal(K.point_count)
    u = weak_kam_solution(K, critical_graph(K, cv), u0=u0).u.values
    ref = value_iteration_weak_kam(K, cv.c, u0=u0).u.values
    np.testing.assert_allclose(u, ref, rtol=0.0, atol=1e-12)
    # the Lax-Oleinik limit of u0 through the barrier
    lim = np.min(u0[:, None] + closure_barrier(K, cv.c).values, axis=0)
    np.testing.assert_allclose(u, lim - lim.min(), rtol=0.0, atol=1e-12)


# invariant along both axes, along axis 1 only, and along the one axis of 1-d
@pytest.mark.parametrize("case", ["kinetic-6x6", "pendulum-x0-6x6", "constant-drift-64"])
def test_translate_rows_matches_the_rolling_loop(case):
    K = ORACLE_CASES[case][0]()
    axes = invariant_axes(K)
    assert axes
    cells = np.stack(np.unravel_index(np.arange(K.point_count), K.grid.shape), axis=-1)
    slab = np.nonzero(~np.any(cells[:, axes], axis=1))[0]
    # distinct entries: a misplaced one cannot match
    sp = np.random.default_rng(3).standard_normal((slab.size, K.point_count))
    want = translate_rows(K, cells, axes, slab, sp)
    ids = np.arange(K.point_count)
    # every row, a row block, and a block of rows and columns out of order
    rolled = aubry._Rolled(sp, K.grid.shape, axes)
    for rows, cols in [(slice(None), slice(None)), (slice(5, 12), slice(None)),
                       (ids[::-3], ids[1::2])]:
        np.testing.assert_array_equal(rolled.block(rows, cols), want[rows][:, cols])
    y, z = np.random.default_rng(4).integers(0, K.point_count, (2, 50))
    np.testing.assert_array_equal(rolled.at(y, z), want[y, z])
    # h.T's rows are rolls of the slab cells' columns
    rolled_t = aubry._Rolled(rolled.at(ids, slab[:, None]), K.grid.shape, axes)
    np.testing.assert_array_equal(rolled_t.block(ids[::-3], ids[1::2]), want.T[ids[::-3]][:, ids[1::2]])


# one row per block (1 and 7 entries), 7 rows (uneven on 64 and 576) and
# one block for the whole matrix
@pytest.mark.parametrize("block", [1, 7, 7 * 64, 1 << 20])
@pytest.mark.parametrize("case", ["double-well-64", "sin-gradient-64", "sin-gradient-24x24"])
def test_barrier_blocks_match_the_dense_representative_loop(monkeypatch, case, block):
    build, reps, axes = ORACLE_CASES[case]
    K = build()
    cv = critical_value(K)
    monkeypatch.setattr(aubry, "BLOCK_ENTRIES", block)
    h = peierls_barrier(K, critical_graph(K, cv))
    assert h.representatives.size == reps > 1 and h.invariant_axes == axes == []
    assert np.array_equal(h.values, representative_barrier(K, cv))


def _dense_oracle(K, cv, axes):
    """The dense barrier: rolled slab rows, or the representative loop."""
    return slab_barrier(K, cv) if axes else representative_barrier(K, cv)


WEAK_KAM_FIRST = {
    "pendulum-64": lambda: build_kernel(build_grid(1, 64),
                                        mechanical_lagrangian(cosine_potential(1, [1]))),
    "kinetic-12x12": lambda: build_kernel(build_grid(2, 12), kinetic_lagrangian(2)),
    "aliased-2x2": EXHAUSTIVE_CASES["aliased-offsets"],
}


@pytest.mark.parametrize("case", list(WEAK_KAM_FIRST))
def test_barrier_reads_the_graph_the_weak_kam_solve_rewrote(case):
    K = WEAK_KAM_FIRST[case]()
    N, cv = K.point_count, critical_value(K)
    cg = critical_graph(K, cv)
    weak_kam_solution(K, cg, u0=np.random.default_rng(3).uniform(0, 1, N))
    # the source's out-edges now hold the second pass's starts
    assert np.any(cg.graph.data[-N:] != 0.0)
    h = peierls_barrier(K, cg)
    assert h.values.tobytes() == _dense_oracle(K, cv, h.invariant_axes).tobytes()


def _read(m, pos, transpose=False):
    return np.concatenate([b for _, b in aubry.row_blocks(m, pos, transpose=transpose)])


# one row per block, 7 rows a block on the full set (uneven on 64, 36 and
# 576 cells; 21 and 14 rows on the others) and one block for each set
@pytest.mark.parametrize("block", ["row", "uneven", "whole"])
@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_barrier_reader_matches_the_dense_oracle(monkeypatch, case, block):
    build, _, axes = ORACLE_CASES[case]
    K = build()
    cv = critical_value(K)
    h = peierls_barrier(K, critical_graph(K, cv))
    want = _dense_oracle(K, cv, axes)
    N = K.point_count
    monkeypatch.setattr(aubry, "BLOCK_ENTRIES", {"row": 1, "uneven": 7 * N, "whole": N * N}[block])
    assert np.array_equal(aubry._dense(h), want)
    assert np.array_equal(h.diagonal(), np.diagonal(want))
    y, z = np.random.default_rng(8).integers(0, N, (2, 200))
    assert np.array_equal(h.at(y, z), want[y, z])
    delta = mather_delta(h)
    assert np.array_equal(delta.diagonal(), np.diagonal(want + want.T))
    assert np.array_equal(delta.at(y, z), (want + want.T)[y, z])
    # every cell in order, every third one, and every other one descending
    for pos in (np.arange(N), np.arange(0, N, 3), np.arange(N)[::-2]):
        sub = np.ix_(pos, pos)
        assert np.array_equal(_read(h, pos), want[sub])
        assert np.array_equal(_read(h, pos, transpose=True), want.T[sub])
        assert np.array_equal(_read(delta, pos), (want + want.T)[sub])


# a representative table (one class, so the entry is in every minimum) and
# a slab row, both from the Dijkstra runs
@pytest.mark.parametrize("case", ["pendulum-64", "kinetic-6x6"])
def test_barrier_reader_reads_its_factors(monkeypatch, case):
    build, reps, axes = ORACLE_CASES[case]
    K = build()
    cv = critical_value(K)
    want = _dense_oracle(K, cv, axes)

    def corrupted(G, indices):
        sp = aubry_dijkstra(G, indices=indices)
        sp[0, 3] -= 1.0
        return sp

    aubry_dijkstra = aubry.dijkstra
    monkeypatch.setattr(aubry, "dijkstra", corrupted)
    h = peierls_barrier(K, critical_graph(K, cv))
    pos = np.arange(K.point_count)
    for got, ref in [(_read(h, pos), want), (_read(h, pos, transpose=True), want.T),
                     (_read(mather_delta(h), pos), want + want.T)]:
        assert not np.array_equal(got, ref)


@pytest.mark.parametrize("block", [1, 5 * 16, 1 << 20])
def test_barrier_names_the_unreachable_cells(monkeypatch, block):
    # steps along axis 1 only: every row of the 16 x 16 grid is a cycle of
    # its own, and no path leads from one row to another
    g = build_grid(2, 16)
    weights = np.random.default_rng(2).integers(0, 4, size=(1, g.point_count)).astype(float)
    K = dataclasses.replace(ORACLE_CASES["sin-gradient-24x24"][0](), grid=g,
                            offsets=np.array([[0, 1]]), weights=weights)
    cv = critical_value(K)
    ref = representative_barrier(K, cv)
    stranded = np.unique(np.nonzero(~np.isfinite(ref))[1])[:8]
    assert stranded.size == 8
    monkeypatch.setattr(aubry, "BLOCK_ENTRIES", block)
    with pytest.raises(NumericalError) as err:
        peierls_barrier(K, critical_graph(K, cv))
    assert str(err.value).endswith(f"not strongly connected, e.g. cells {stranded.tolist()}")


def test_barrier_needs_the_bias(pendulum_state_64):
    K, cv = pendulum_state_64["K"], pendulum_state_64["cv"]
    with pytest.raises(ConfigError):
        peierls_barrier(K, critical_graph(K, dataclasses.replace(cv, bias=None)))


def test_barrier_refuses_more_memory_than_is_free(monkeypatch, pendulum_state_64):
    K, cv = pendulum_state_64["K"], pendulum_state_64["cv"]
    assert aubry.available_memory() > 0
    # the into/out Dijkstra tables of its one representative
    N, k = K.point_count, pendulum_state_64["h"].representatives.size
    assert k == 1
    need = 16 * N * k
    monkeypatch.setattr(aubry, "available_memory", lambda: need - 1)
    with pytest.raises(NumericalError, match="MiB"):
        peierls_barrier(K, critical_graph(K, cv))
    monkeypatch.setattr(aubry, "available_memory", lambda: need)
    h = peierls_barrier(K, critical_graph(K, cv))
    # the dense matrix, asked for, is guarded on its own 8 N^2 bytes
    with pytest.raises(NumericalError, match="memory is free"):
        h.values
    monkeypatch.setattr(aubry, "available_memory", lambda: 8 * N * N)
    np.testing.assert_array_equal(h.values, pendulum_state_64["h"].values)


def test_aubry_kinetic_everything_stationary(mane_zero_kernel_16):
    K = mane_zero_kernel_16
    h = peierls_barrier(K, critical_graph(K, critical_value(K)))
    A = aubry_set(h, None, K, 0.0)
    assert list(A.indices) == list(range(16))
    assert set(A.labels) == {"stationary"}


def test_aubry_pendulum_single_cell(pendulum_state_64):
    K, c, h = (pendulum_state_64[k] for k in ("K", "c", "h"))
    A = aubry_set(h, None, K, c)
    assert list(A.indices) == [0]
    assert A.labels == ["stationary"]


def test_aubry_sin_field_two_equilibria(sin_state):
    A = aubry_set(sin_state["h"], None, sin_state["K"], sin_state["c"])
    assert list(A.indices) == [0, 32]
    assert set(A.labels) == {"stationary"}


def test_aubry_constant_field_periodic():
    g = build_grid(1, 64)
    K = build_kernel(g, mane_lagrangian(constant_field([1.0], 1)))
    cv = critical_value(K)
    h = peierls_barrier(K, critical_graph(K, cv))
    A = aubry_set(h, None, K, cv.c)
    assert len(A.indices) == 64
    assert set(A.labels) == {"periodic"}


def test_aubry_empty_at_negative_eta(pendulum_state_64):
    K, c, h = (pendulum_state_64[k] for k in ("K", "c", "h"))
    with pytest.raises(NumericalError):
        aubry_set(h, -1.0, K, c)


def test_mather_delta_symmetric_and_zero_on_aubry(pendulum_state_64):
    h = pendulum_state_64["h"]
    d = mather_delta(h)
    assert np.max(np.abs(d.values - d.values.T)) == 0.0
    np.testing.assert_allclose(d.diagonal(), 2.0 * h.diagonal(), atol=1e-15)
    assert d.values[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_mather_delta_kinetic_positive_off_diagonal(mane_zero_kernel_16):
    K = mane_zero_kernel_16
    h = peierls_barrier(K, critical_graph(K, critical_value(K)))
    d = mather_delta(h)
    off = d.values[~np.eye(16, dtype=bool)]
    assert np.min(off) > 0.0
    np.testing.assert_allclose(d.values, 2.0 * kernel_closure(K), atol=1e-12)


def test_quotient_pendulum_single_class(pendulum_state_64):
    K, c, h = (pendulum_state_64[k] for k in ("K", "c", "h"))
    A = aubry_set(h, None, K, c)
    d = mather_delta(h)
    q = quotient(d, A, 8 * K.grid.spacing**2)
    assert q.class_count == 1
    assert q.representative == [0]


def test_quotient_of_an_empty_set_has_no_classes():
    # the all-within shortcut holds vacuously on no pairs
    A = aubry.AubrySet(indices=np.zeros(0, dtype=np.int64), self_barrier=np.zeros(0),
                       labels=[], threshold=0.0)
    q = quotient(SemiMetric(values=np.zeros((3, 3))), A, 0.5)
    assert (q.classes, q.representative, q.class_count) == ([], [], 0)


def test_quotient_doublewell_two_classes(doublewell_state_64):
    K, c, h = (doublewell_state_64[k] for k in ("K", "c", "h"))
    A = aubry_set(h, None, K, c)
    d = mather_delta(h)
    q = quotient(d, A, 8 * K.grid.spacing**2)
    assert q.class_count == 2
    assert q.representative == [0, 32]
    assert d.values[0, 32] > 10 * q.merge_threshold


def test_quotient_kinetic_merges_at_spacing_squared(mane_zero_kernel_16):
    # delta scales like spacing^2/tau here, so a generous threshold
    # collapses neighbors into one class through chained merges
    K = mane_zero_kernel_16
    h = peierls_barrier(K, critical_graph(K, critical_value(K)))
    A = aubry_set(h, None, K, 0.0)
    d = mather_delta(h)
    sp = K.grid.spacing
    q = quotient(d, A, 2 * sp**2 / K.tau)
    assert q.class_count == 1


# 1 row, 5 rows (uneven on |A| = 36) and one block per check
@pytest.mark.parametrize("block", [1, 180, 1 << 20])
@pytest.mark.parametrize("noise", [0, 1])
@pytest.mark.parametrize("case", ["kinetic-6x6", "double-well-64"])
def test_representation_blocks_match_unblocked(monkeypatch, case, noise, block):
    K = ORACLE_CASES[case][0]()
    cv = critical_value(K)
    h = peierls_barrier(K, critical_graph(K, cv))
    # exact delta: every residual ties at 0; noisy delta: one largest residual
    rng = np.random.default_rng(3)
    delta = SemiMetric(values=mather_delta(h).values + noise * rng.random(h.values.shape))
    A = aubry_set(h, None, K, cv.c)
    want = _unblocked_residual(h.values, delta.values, A.indices)
    monkeypatch.setattr(aubry, "BLOCK_ENTRIES", block)
    rep = representation_check(h, delta, A)
    assert (rep.max_residual, rep.worst_pair, rep.pairs_checked) == want


def _unblocked_residual(H, D, ids):
    """The whole |A| x |A| residual at once: its largest entry, the pair of
    the first maximum in row-major order and the number of pairs."""
    pos = np.asarray(ids)
    px, py = pos[:, None], pos[None, :]
    res = np.abs(D[px, py] - ((H[px, py] - H[py, py]) - (H[px, px] - H[py, px])))
    i, j = np.unravel_index(int(np.argmax(res)), res.shape)
    return float(res[i, j]), (int(pos[i]), int(pos[j])), res.size


# one row per block, uneven blocks (7 entries: rows of 1 on the full set of
# 5, rows of 2 on the subset of 3) and one block for the whole set
@pytest.mark.parametrize("block", [1, 7, 25])
@pytest.mark.parametrize("ids", [[0, 1, 2, 3, 4], [4, 0, 2]], ids=["full", "partial"])
def test_row_blocks_read_every_row_once(monkeypatch, ids, block):
    monkeypatch.setattr(aubry, "BLOCK_ENTRIES", block)
    pos = np.array(ids)
    # distinct entries: a dropped or repeated row cannot match
    vals = np.arange(25.0).reshape(5, 5)
    for transpose, src in [(False, vals), (True, vals.T)]:
        starts, blocks = zip(*aubry.row_blocks(SemiMetric(values=vals), pos, transpose=transpose))
        np.testing.assert_array_equal(np.concatenate(blocks), src[np.ix_(pos, pos)])
        assert list(starts) == np.cumsum([0] + [b.shape[0] for b in blocks[:-1]]).tolist()
        assert max(b.size for b in blocks) <= max(block, pos.size)
    # every consumer of the blocks agrees with its copying oracle
    vals = np.random.default_rng(7).integers(0, 4, (5, 5)) / 4
    np.fill_diagonal(vals, 0.0)
    delta = SemiMetric(values=vals)
    sub = vals[np.ix_(pos, pos)]
    A = aubry.AubrySet(indices=pos, self_barrier=np.zeros(pos.size),
                       labels=["other"] * pos.size, threshold=0.0)
    for r in (0.25, 0.5, 0.75):
        assert geometry._greedy_coverings(delta, pos, np.array([r]))[0] == _greedy_centers(sub, r)
        got, want = quotient(delta, A, r), union_find_quotient(delta, A, r)
        assert (got.classes, got.representative) == (want.classes, want.representative)
    np.testing.assert_array_equal(pipeline._auto_scales(*pipeline._delta_range(delta, pos)),
                                  _auto_scales(delta, pos))
    H = np.triu(vals)
    px, py = pos[:, None], pos[None, :]
    res = np.abs(vals[px, py] - ((H[px, py] - H[py, py]) - (H[px, px] - H[py, px])))
    i, j = np.unravel_index(int(np.argmax(res)), res.shape)
    rep = representation_check(SemiMetric(values=H), delta, A)
    assert (rep.max_residual, rep.worst_pair) == (res[i, j], (ids[i], ids[j]))
    # delta=None is H + H.T, which the random vals are not
    own = representation_check(SemiMetric(values=H), None, A)
    rep = representation_check(SemiMetric(values=H), SemiMetric(values=H + H.T), A)
    assert (own.max_residual, own.worst_pair) == (rep.max_residual, rep.worst_pair)


def _every_cell(size):
    return aubry.AubrySet(indices=np.arange(size), self_barrier=np.zeros(size),
                          labels=["other"] * size, threshold=0.0)


def _no_blocks(*args, **kwargs):
    raise AssertionError("the offset branch read a block")


# every axis invariant, so delta is one offset table; on n = 4 and 5 the
# shortest paths wrap around the torus
@pytest.mark.parametrize("dim,n", [(2, 4), (2, 5), (2, 8), (2, 16), (1, 16)])
def test_offset_quotient_matches_union_find(monkeypatch, dim, n):
    g = build_grid(dim, n)
    K = build_kernel(g, kinetic_lagrangian(dim), stencil_radius=min(2, (n - 1) // 2) * g.spacing)
    delta = mather_delta(peierls_barrier(K, critical_graph(K, critical_value(K))))
    dense = SemiMetric(values=delta.values, symmetric=True)
    A = _every_cell(delta.size)
    monkeypatch.setattr(aubry, "row_blocks", _no_blocks)
    # below every value, at each distinct value and above them all
    for r in [-1.0, *np.unique(dense.values), 2 * dense.values.max()]:
        got, want = quotient(delta, A, r), union_find_quotient(dense, A, r)
        assert (got.classes, got.representative) == (want.classes, want.representative)


def test_offset_quotient_of_a_proper_subgroup(monkeypatch):
    delta = offset_delta(subgroup_offsets())
    dense = SemiMetric(values=delta.values, symmetric=True)
    A = _every_cell(36)
    monkeypatch.setattr(aubry, "row_blocks", _no_blocks)
    q = quotient(delta, A, 0.5)
    # the cosets of {0, (0, 2), (0, 4)}: cell (i, j) with (i, j + 2), (i, j + 4)
    assert q.classes == sorted([6 * i + j, 6 * i + j + 2, 6 * i + j + 4]
                               for i in range(6) for j in range(2))
    want = union_find_quotient(dense, A, 0.5)
    assert (q.classes, q.representative) == (want.classes, want.representative)


# 36 classes of one cell, then one class of all (delta takes 0, 1/6, ..., 1)
@pytest.mark.parametrize("threshold", [0.1, 0.2, 1.0])
def test_quotient_stage_reads_the_offset_table(monkeypatch, threshold):
    # the diameter of every class is that of the class of cell 0
    K = _kernel(2, 6, kinetic_lagrangian(2), cells=2)
    h = peierls_barrier(K, critical_graph(K, critical_value(K)))
    cfg = ExperimentConfig.from_dict({"grid": {"dim": 2, "n": 6},
                                      "aubry": {"merge_threshold": threshold}})
    state = {"grid": K.grid, "h": h, "A": _every_cell(36)}
    monkeypatch.setattr(pipeline, "row_blocks", _no_blocks)
    stats, artifacts = pipeline._stage_quotient(cfg, state)
    values = state["delta"].values
    want = max(float(np.max(values[np.ix_(m, m)])) for m in state["Q"].classes)
    assert stats["offset_table"] is True
    assert artifacts["quotient.json"]["max_class_diameter_delta"] == want


# 70 points: row blocks of 1, 3 (uneven on 70) and 7 rows, one full block
# of 64 rows and an uneven one, and one block for the whole matrix
@pytest.mark.parametrize("tile", [1, 3, 7, 64, 1 << 20])
def test_mather_delta_is_the_sum_with_the_transpose(monkeypatch, tile):
    monkeypatch.setattr(aubry, "BLOCK_ENTRIES", tile * 70)
    H = np.random.default_rng(5).normal(size=(70, 70))
    # a C-contiguous h and a transposed one
    for values in (H, H.T):
        want = values + values.T
        h = SemiMetric(values=values.copy(order="K"))
        d = mather_delta(h)
        assert d.symmetric and d.size == 70
        assert np.array_equal(d.values, want)
        assert np.array_equal(d.diagonal(), np.diagonal(want))
        # every point in order, every other one, and all in descending order
        for pos in (np.arange(70), np.arange(0, 70, 2), np.arange(70)[::-1]):
            got = np.concatenate([b for _, b in aubry.row_blocks(d, pos)])
            assert np.array_equal(got, want[np.ix_(pos, pos)])
        assert np.array_equal(h.values, values)


# one row per block, 180 entries (uneven row blocks on the sets of 36, 18
# and 32 cells) and one block; every Aubry cell, and every other cell in
# descending order
@pytest.mark.parametrize("block", [1, 180, 1 << 20])
@pytest.mark.parametrize("part", ["full", "partial"])
@pytest.mark.parametrize("case", ["kinetic-6x6", "double-well-64"])
def test_representation_check_forms_delta_itself(monkeypatch, case, part, block):
    K = ORACLE_CASES[case][0]()
    cv = critical_value(K)
    h = peierls_barrier(K, critical_graph(K, cv))
    A = aubry_set(h, None, K, cv.c)
    if part == "partial":
        ids = np.arange(K.point_count)[::-2]
        A = dataclasses.replace(A, indices=ids)
    monkeypatch.setattr(aubry, "BLOCK_ENTRIES", block)
    # perturb h so the residual has one largest entry
    h = SemiMetric(values=h.values + np.random.default_rng(4).random(h.values.shape))
    want = representation_check(h, mather_delta(h), A)
    got = representation_check(h, None, A)
    assert (got.max_residual, got.worst_pair, got.pairs_checked) == (
        want.max_residual, want.worst_pair, want.pairs_checked)
    assert want.max_residual > 0


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_representation_check_without_delta_matches_the_full_pass(case):
    # h is 0.0 on every Aubry diagonal here, so delta=None reads no block;
    # an explicit delta always runs the pass
    K = ORACLE_CASES[case][0]()
    cv = critical_value(K)
    h = peierls_barrier(K, critical_graph(K, cv))
    A = aubry_set(h, None, K, cv.c)
    got, want = representation_check(h, None, A), representation_check(h, mather_delta(h), A)
    assert (got.max_residual, got.worst_pair, got.pairs_checked) == (
        want.max_residual, want.worst_pair, want.pairs_checked)


def _blocks_unread(*args, **kwargs):
    raise AssertionError("row_blocks read")


@pytest.mark.parametrize("ids", [[0, 1, 2, 3, 4], [4, 0, 2]], ids=["full", "partial"])
def test_representation_check_reads_no_block_on_a_zero_diagonal(monkeypatch, ids):
    H = np.random.default_rng(8).random((5, 5))
    # +0.0 and -0.0 on the diagonal: both make every residual entry 0.0
    np.fill_diagonal(H, 0.0)
    H[2, 2] = -0.0
    h = SemiMetric(values=H)
    A = aubry.AubrySet(indices=np.array(ids), self_barrier=np.zeros(len(ids)),
                       labels=["other"] * len(ids), threshold=0.0)
    want = _unblocked_residual(H, H + H.T, ids)
    assert want == (0.0, (ids[0], ids[0]), len(ids) ** 2)
    # an empty set has no first pair: both calls run the (empty) pass
    empty = dataclasses.replace(A, indices=np.zeros(0, dtype=np.int64))
    assert representation_check(h, None, empty) == representation_check(h, mather_delta(h), empty)
    monkeypatch.setattr(aubry, "row_blocks", _blocks_unread)
    rep = representation_check(h, None, A)
    assert (rep.max_residual, rep.worst_pair, rep.pairs_checked) == want
    with pytest.raises(AssertionError, match="row_blocks read"):
        representation_check(h, mather_delta(h), A)


@pytest.mark.parametrize("block", [1, 180, 1 << 20])
def test_representation_check_takes_the_pass_on_a_nonzero_diagonal_entry(monkeypatch, block):
    K = ORACLE_CASES["kinetic-6x6"][0]()
    cv = critical_value(K)
    H = peierls_barrier(K, critical_graph(K, cv)).values
    A = aubry_set(SemiMetric(values=H), None, K, cv.c)
    # zero on A's diagonal but for the last entry
    H[A.indices[-1], A.indices[-1]] = 0.25
    want = _unblocked_residual(H, H + H.T, A.indices)
    assert want[0] > 0
    monkeypatch.setattr(aubry, "BLOCK_ENTRIES", block)
    rep = representation_check(SemiMetric(values=H), None, A)
    assert (rep.max_residual, rep.worst_pair, rep.pairs_checked) == want


@pytest.mark.parametrize("block", [1, 1 << 20])
@pytest.mark.parametrize("H", [[[0.5, np.inf], [1.0, 0.0]], [[0.0, np.nan], [1.0, 0.25]]],
                         ids=["inf", "nan"])
def test_representation_check_reports_a_nan_residual(monkeypatch, H, block):
    # NaN residuals at (0, 1) and (1, 0), in two blocks when block = 1: the
    # report is NaN at the first, which no `<= bound` gate passes
    h = SemiMetric(values=H)
    A = aubry.AubrySet(indices=np.array([0, 1]), self_barrier=np.zeros(2),
                       labels=["other"] * 2, threshold=0.0)
    monkeypatch.setattr(aubry, "BLOCK_ENTRIES", block)
    for delta in (None, mather_delta(h)):
        with np.errstate(invalid="ignore"):
            rep = representation_check(h, delta, A)
        assert np.isnan(rep.max_residual)
        assert (rep.worst_pair, rep.pairs_checked) == ((0, 1), 4)
    # an infinite residual is inf
    rep = representation_check(SemiMetric(values=np.zeros((2, 2))),
                               SemiMetric(values=[[0.0, np.inf], [np.inf, 0.0]]), A)
    assert (rep.max_residual, rep.worst_pair) == (np.inf, (0, 1))


def test_representation_check_leaves_a_one_cell_barrier_unchanged():
    # the blocks of a dense h are views of it; a negative self-barrier
    # makes every intermediate differ from h and delta
    h = SemiMetric(values=[[-0.25]])
    delta = mather_delta(h)
    A = aubry.AubrySet(indices=np.array([0]), self_barrier=np.array([-0.25]),
                       labels=["stationary"], threshold=1.0)
    rep = representation_check(h, delta, A)
    assert (rep.max_residual, rep.worst_pair, rep.pairs_checked) == (0.5, (0, 0), 1)
    assert h.values.tolist() == [[-0.25]] and delta.values.tolist() == [[-0.5]]


def test_representation_zero_on_diagonal_pairs(pendulum_state_64):
    K, c, h = (pendulum_state_64[k] for k in ("K", "c", "h"))
    A = aubry_set(h, None, K, c)
    rep = representation_check(h, mather_delta(h), A)
    assert rep.max_residual <= 1e-9


def test_representation_across_wells(doublewell_state_64):
    K, c, h = (doublewell_state_64[k] for k in ("K", "c", "h"))
    A = aubry_set(h, None, K, c)
    rep = representation_check(h, mather_delta(h), A)
    assert rep.max_residual <= 1e-9
    assert rep.pairs_checked == 4


def test_classify_constant_field_periodic_label():
    g = build_grid(1, 32)
    K = build_kernel(g, mane_lagrangian(constant_field([1.0], 1)))
    cv = critical_value(K)
    h = peierls_barrier(K, critical_graph(K, cv))
    labels = classify_aubry(K, h, cv.c, np.array([0, 5]))
    assert labels == ["periodic", "periodic"]


def test_semimetric_helpers():
    vals = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    m = SemiMetric(values=vals, symmetric=True)
    assert m.size == 3
    ids = m.check_ids([2, 0])
    assert ids.dtype == np.int64 and ids.tolist() == [2, 0]
    # numpy would read -1 as the last row; size is one past it
    for bad in ([-1], [0, 3]):
        with pytest.raises(ConfigError, match="outside the 3 points"):
            m.check_ids(bad)
        A = aubry.AubrySet(indices=np.array(bad), self_barrier=np.zeros(len(bad)),
                           labels=["other"] * len(bad), threshold=0.0)
        for consumer in (lambda: quotient(m, A, 0.5),
                         lambda: representation_check(m, None, A),
                         lambda: geometry.hausdorff1_report(m, A.indices, [0.5]),
                         lambda: geometry.quadratic_bound_check(m, A, build_grid(1, 3), 0.9)):
            with pytest.raises(ConfigError, match="outside the 3 points"):
                consumer()
    # the quadratic bound reads delta between the Aubry set and every cell
    A = aubry.AubrySet(indices=np.array([0]), self_barrier=np.zeros(1),
                       labels=["other"], threshold=0.0)
    with pytest.raises(ConfigError, match="delta has 3 points, the grid 4"):
        geometry.quadratic_bound_check(m, A, build_grid(1, 4), 0.9)
    with pytest.raises(ConfigError, match="not square"):
        SemiMetric(values=np.zeros((2, 3)))
