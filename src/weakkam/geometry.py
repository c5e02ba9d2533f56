"""Covering-number geometry of quotient semi-metrics and the chain
semi-metric delta_p.

The 1-dimensional Hausdorff measure of a finite semi-metric space is
estimated through greedy coverings: N(r) balls of radius r give the
surrogate N(r)*2r. One greedy loop (_greedy) serves every covering: it
anchors each ball at the first uncovered point, so the covering is
deterministic under index order, which the artifact determinism
contract relies on. A ball layout gives the loop the centers whose ball
holds a point, the members of a ball and each candidate's count of
uncovered points.

When delta is one offset table D over every cell of the grid
(delta.offset_table: every axis invariant and the point set the whole
grid in order), delta(x, y) = D(y - x), so every ball of radius r is a
translate c + B_r of B_r = {v : D(v) <= r} and the coverings read D
alone, with no |A| x |A| array (_cover_offsets). Otherwise one pass over
delta, in row blocks, writes a small-integer level matrix that counts
the scales each entry lies within, so the balls of every radius are a
threshold of it (_levels, _cover). A level matrix that, with one gather
of candidate balls, would not fit in the free memory is refused as a
numerical failure, never allocated. The balls holding a point are a
column of the matrix; on a symmetric delta they are read as a row.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .grid import GridTorus, check_ids, wrap_displacement
from .aubry import AubrySet, SemiMetric, _Pairwise, row_blocks
from .kernel import available_memory, check_memory

# entries of each row block of delta: 1 MiB of float64, compared with every
# scale while it is in cache
LEVEL_ENTRIES = 1 << 17
# an offset cover's gains come from one FFT correlation over the grid once
# the direct gather would read more than FFT_ABOVE * N entries
FFT_ABOVE = 8


@dataclass
class CoveringReport:
    scales: np.ndarray
    covering_counts: np.ndarray
    h1_estimates: np.ndarray   # N(r) * 2r per scale
    dim_slope: float           # least-squares slope of log N vs log(1/r)


def _levels(delta: _Pairwise, pos: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """L[i, j] = the number of scales r with delta(pos[i], pos[j]) <= r.

    With the scales in decreasing order the ball matrix of radius
    scales[t] is L > t, duplicates included. delta is read once, in row
    blocks of LEVEL_ENTRIES entries, each compared with every scale while
    it is in cache. The dtype is the smallest that counts every scale.
    Raises NumericalError when L and a gather of all its rows as covering
    candidates would not fit in free memory.
    """
    k = pos.size
    dtype = np.min_scalar_type(scales.size)
    check_memory(2 * dtype.itemsize * k * k, available_memory(),
                 f"the {k}x{k} covering balls need")
    L = np.zeros((k, k), dtype=dtype)
    for i0, block in row_blocks(delta, pos, LEVEL_ENTRIES):
        level = L[i0:i0 + block.shape[0]]
        for r in scales:
            level += block <= r
    return L


def _greedy(pos: np.ndarray, r: float, holders, members, gains) -> list:
    """Greedy covering of the points pos by balls of radius r, one list of
    centers (indices into pos) in the order chosen.

    The anchor p is the first uncovered point, so every point before it
    is covered. holders(p) gives the centers whose ball holds p, in
    increasing order; gains(cands, uncovered) each one's count of
    uncovered points; the center is the first of the largest gains, and
    members(q), an index into pos, marks q's ball covered. Raises
    NumericalError when p lies in no ball.
    """
    uncovered = np.ones(pos.size, dtype=bool)
    centers = []
    p = 0
    while p < pos.size:
        p += int(uncovered[p:].argmax())
        if not uncovered[p]:
            break
        cands = holders(p)
        if cands.size == 0:
            raise NumericalError(f"point {pos[p]} lies in no ball of radius {r}")
        q = int(cands[0] if cands.size == 1 else cands[gains(cands, uncovered).argmax()])
        centers.append(q)
        uncovered[members(q)] = False
    return centers


def _cover(L: np.ndarray, t: int, r: float, pos: np.ndarray, symmetric: bool) -> list:
    """_greedy by the balls L > t, the rows of L; the balls holding a point
    are its column, read as its row when symmetric."""
    def gains(cands, uncovered):
        # in place: the one gather of candidate balls _levels allows for
        g = L[cands]
        np.greater(g, t, out=g)
        g &= uncovered
        return g.sum(axis=1)

    lookup = L if symmetric else L.T
    return _greedy(pos, r, lambda p: (lookup[p] > t).nonzero()[0], lambda q: L[q] > t, gains)


def _cover_offsets(D: np.ndarray, pos: np.ndarray, r: float) -> list:
    """_greedy over every cell of the grid of D's shape by the balls c + B,
    B = {v : D(v) <= r}: delta(x, y) = D(y - x).

    The balls holding cell p are centred at p - B. Cells are added as flat
    indices into the grid doubled along every axis, where `wrap` maps
    each back to its cell. A gain is the number of uncovered cells in a
    ball, by a gather of the candidate balls or, when that would read
    more than FFT_ABOVE * N entries, one FFT correlation of the uncovered
    mask with B rounded to integers.
    """
    shape, N = D.shape, D.size
    ball = D <= r
    B = np.stack(np.nonzero(ball), axis=-1)
    doubled = np.tile(np.arange(N).reshape(shape), (2,) * len(shape))
    wrap = doubled.ravel()
    step = np.array(doubled.strides) // doubled.itemsize
    base = np.stack(np.unravel_index(np.arange(N), shape), axis=-1) @ step
    plus, minus = B @ step, (-B % shape) @ step
    if B.shape[0] == 1:
        # each ball holds one cell: the anchors are every cell in order
        return wrap[base + minus[0]].tolist()
    if B.shape[0] ** 2 <= FFT_ABOVE * N:
        def gains(cands, uncovered):
            return uncovered[wrap[base[cands, None] + plus]].sum(axis=1)
    else:
        spectrum, axes = np.conj(np.fft.rfftn(ball)), tuple(range(D.ndim))

        def gains(cands, uncovered):
            mask = np.fft.rfftn(uncovered.reshape(shape)) * spectrum
            return np.rint(np.fft.irfftn(mask, s=shape, axes=axes).ravel()[cands])
    return _greedy(pos, r, lambda p: np.sort(wrap[base[p] + minus]),
                   lambda q: wrap[base[q] + plus], gains)


def _greedy_coverings(delta: _Pairwise, pos: np.ndarray, scales: np.ndarray) -> list:
    """Greedy ball coverings of delta on the points pos at each of the scales,
    given in decreasing order; one list of centers per scale (_greedy).

    The center of each ball is the candidate that covers the first
    uncovered point and the most other uncovered points (ties to the
    lowest index), so balls straddle the frontier instead of trailing it,
    and the count stays within the usual greedy factor of the optimal
    covering. Raises NumericalError when the level matrix, or the offset
    cover's tables, would not fit in free memory or a point lies in no
    ball.
    """
    D = delta.offset_table(pos)
    if D is not None:
        # int64s: the doubled index table and the cell bases, the complex
        # spectra of the FFT, and a gather's two index arrays (no ball pair
        # is gathered more than once)
        N = D.size
        check_memory(8 * N * (2**D.ndim + 5 + 2 * min(FFT_ABOVE, N)), available_memory(),
                     f"the covering tables over {N} cells need")
        return [_cover_offsets(D, pos, float(r)) for r in scales]
    L = _levels(delta, pos, scales)
    return [_cover(L, t, float(r), pos, delta.symmetric) for t, r in enumerate(scales)]


def hausdorff1_report(delta: _Pairwise, indices, scale_grid) -> CoveringReport:
    """Covering counts and 1-d measure surrogates across scales.

    Every scale's covering reads one offset table of delta when it has one,
    else one level matrix of delta over the points. No scale masking is
    applied: callers choose scale grids that avoid saturation
    (r below the resolution of the point set) when the slope matters.
    """
    scales = np.asarray(scale_grid, dtype=float)
    if scales.size == 0 or not np.all((scales > 0) & (scales < np.inf)):
        raise ConfigError("scale_grid must be nonempty finite positive radii")
    scales = np.sort(scales)[::-1].copy()
    ids = np.arange(delta.size) if indices is None else check_ids(indices, delta.size)
    counts = np.array([len(c) for c in _greedy_coverings(delta, ids, scales)])
    h1 = counts * 2.0 * scales
    if scales.size >= 2 and counts.max() > counts.min():
        # -log r, not log(1/r): 1/r overflows on subnormal radii
        slope = float(np.polyfit(-np.log(scales), np.log(counts), 1)[0])
    else:
        slope = 0.0
    return CoveringReport(scales=scales, covering_counts=counts,
                          h1_estimates=h1, dim_slope=slope)


@dataclass
class QuadraticBoundReport:
    max_ratio: float
    worst_pair: tuple        # (aubry index, grid index)
    pairs_checked: int
    window: float


def quadratic_bound_check(delta: _Pairwise, A: AubrySet, grid: GridTorus,
                          window: float) -> QuadraticBoundReport:
    """max of delta(x,y)/d(x,y)^2 over Aubry x and grid y with
    2*spacing <= d(x,y) <= window.

    delta must cover the full grid (symmetrized barrier), since the y
    side ranges over non-Aubry cells. Raises NumericalError when its
    |A| x N pair arrays would not fit in free memory.
    """
    if window <= 2 * grid.spacing:
        raise ConfigError(
            f"window {window} leaves no pairs above the 2*spacing={2*grid.spacing} cutoff")
    if delta.size != grid.point_count:
        raise ConfigError(f"delta has {delta.size} points, the grid {grid.point_count}")
    pos = check_ids(A.indices, delta.size)
    # a pair's dim displacements, distance, delta, squared distance, ratio, a temporary
    check_memory(8 * (grid.dim + 5) * pos.size * delta.size, available_memory(),
                 f"the {pos.size}x{delta.size} pair arrays need")
    xs = grid.coords(A.indices)
    ys = grid.coords()
    disp = wrap_displacement(xs[:, None, :], ys[None, :, :])
    d = np.linalg.norm(disp, axis=-1)
    mask = (d >= 2 * grid.spacing) & (d <= window)
    if not np.any(mask):
        raise ConfigError("no Aubry/grid pairs inside the window")
    vals = delta.at(pos[:, None], np.arange(delta.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mask, vals / d**2, -np.inf)
    flat = int(np.argmax(ratio))
    i, j = np.unravel_index(flat, ratio.shape)
    return QuadraticBoundReport(max_ratio=float(ratio[i, j]),
                                worst_pair=(int(A.indices[i]), int(j)),
                                pairs_checked=int(mask.sum()),
                                window=float(window))


def ferry_delta_p(points, p: float) -> SemiMetric:
    """Chain semi-metric: infimum over finite chains of sum d(a_{i+1},a_i)^p.

    Computed as all-pairs shortest paths on the complete graph with edge
    weights d^p. For p <= 1 the weights already satisfy the triangle
    inequality and delta_p = d^p; for p > 1 chains through intermediate
    points collapse distances on connected samples.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = pts.shape[0]
    if k < 2:
        raise ConfigError("ferry_delta_p needs at least two points")
    if not np.all(np.isfinite(pts)):
        raise ConfigError("ferry_delta_p needs finite point coordinates")
    if not 0 < p < np.inf:
        raise ConfigError(f"exponent p must be a positive finite number, got {p}")
    diff = pts[:, None, :] - pts[None, :, :]
    D = np.linalg.norm(diff, axis=-1) ** p
    np.fill_diagonal(D, 0.0)
    # Floyd-Warshall; dense complete graphs stay small here and scipy's
    # csgraph treats zero entries as missing edges, which is wrong for
    # coincident points.
    for m in range(k):
        np.minimum(D, D[:, m][:, None] + D[m, :][None, :], out=D)
    # |x - y| = |y - x|, and each step adds the same two entries to D and D.T
    return SemiMetric(values=D, symmetric=True)


def segment_points(n_intervals: int) -> np.ndarray:
    """n_intervals+1 evenly spaced points on the unit segment in R^1."""
    if n_intervals < 1:
        raise ConfigError("segment needs at least one interval")
    return np.linspace(0.0, 1.0, n_intervals + 1)[:, None]


def circle_points(count: int, radius: float = 1.0) -> np.ndarray:
    """count points evenly spaced on a circle in R^2 (no wrap metric)."""
    if count < 3:
        raise ConfigError("circle sampling needs at least three points")
    th = 2 * np.pi * np.arange(count) / count
    return radius * np.stack([np.cos(th), np.sin(th)], axis=1)


def interval_semimetric(samples: int) -> SemiMetric:
    """Synthetic |s-t| semi-metric on evenly spaced samples of [0,1].

    Control case for the H1 estimator: its 1-d measure is 1 at every
    scale, distinguishing genuine intervals from collapsing quotients.
    """
    if samples < 2:
        raise ConfigError("need at least two samples")
    s = np.linspace(0.0, 1.0, samples)
    return SemiMetric(values=np.abs(s[:, None] - s[None, :]), symmetric=True)
