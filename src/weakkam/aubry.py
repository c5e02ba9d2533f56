"""Peierls barrier, projected Aubry set, Mather semi-distance, quotient.

The barrier h(x,y) = min over critical cells a of SP(x,a) + SP(a,y), with
SP the shortest paths of the kernel shifted by c*tau, routes every pair
through the flat cycles the liminf over long horizons selects. The strong
classes of the critical graph (critical.critical_graph) are joined by
flat cycles, so one representative per class and two sparse Dijkstra
runs on the nonnegative reduced costs from each give h exactly. When
every cell is critical, h = SP, run from one slab of the
translation-invariant axes and rolled.

Row i of h, and of delta, is grid cell i: Aubry cell indices address them directly.

h is kept as those k x N factors, never as an N x N array. Its consumers
read h, h.T and delta = h + h.T in row blocks (row_blocks), each entry
computed with the same operations, in the same order, as a dense fill;
.values builds the dense matrix only for a caller that asks for it.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import sparse
from scipy.sparse.csgraph import connected_components, dijkstra

from .critical import CriticalGraph
from .errors import ConfigError, NumericalError
from .kernel import ActionKernel, available_memory, check_memory, first_min, invariant_axes

# entries of each row block the A x A consumers of h and delta read
BLOCK_ENTRIES = 1 << 18


class _Pairwise:
    """Values over pairs of points 0..size-1, row and column i of point i (the
    flat grid index i, or the i-th point of a sampled set). A subclass gives
    size, at(y, z) (elementwise, y and z broadcast), block(rows, cols,
    transpose) (values[rows][:, cols], or of values.T; rows and cols both
    slices or both index arrays) and values, the dense matrix."""

    symmetric = False

    def diagonal(self) -> np.ndarray:
        ids = np.arange(self.size)
        return self.at(ids, ids)

    def check_ids(self, ids) -> np.ndarray:
        """The ids as int64 rows; ConfigError unless 0 <= id < size, since
        numpy indexing would wrap a negative id silently."""
        ids = np.asarray(ids, dtype=np.int64)
        bad = ids[(ids < 0) | (ids >= self.size)]
        if bad.size:
            raise ConfigError(f"ids outside the {self.size} points: {bad[:8].tolist()}")
        return ids

    def offset_table(self, pos) -> Optional[np.ndarray]:
        """D, of the grid's shape, with self[y, z] = D[cell z - cell y] modulo
        the grid, when self is read from that one table and pos is every
        point in order; else None."""
        return None

    def triangle_violation(self) -> float:
        """max over pairs (x,z) and midpoints y of v[x,z] - v[x,y] - v[y,z].

        Exhaustive in y up to 512 points; above, a deterministic random
        sample of 512 midpoints is used.
        """
        values, k = self.values, self.size
        if k <= 512:
            vias = np.arange(k)
        else:
            vias = np.random.default_rng(0).choice(k, size=512, replace=False)
        worst = -np.inf
        for y in vias:
            detour = values[:, y][:, None] + values[y, :][None, :]
            worst = max(worst, float(np.max(values - detour)))
        return worst


@dataclass
class SemiMetric(_Pairwise):
    """Dense matrix of pairwise values."""

    values: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ConfigError(f"semimetric values of shape {self.values.shape} are not square")

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def at(self, y, z) -> np.ndarray:
        return self.values[y, z]

    def block(self, rows, cols, transpose: bool = False) -> np.ndarray:
        values = self.values.T if transpose else self.values
        return values[rows, cols] if isinstance(rows, slice) else values[rows[:, None], cols]


def _dense(m: _Pairwise) -> np.ndarray:
    """The N x N matrix of m from its row blocks, if it fits in free memory."""
    N = m.size
    check_memory(8 * N * N, available_memory(), f"the {N}x{N} matrix needs")
    values = np.empty((N, N))
    for i0, block in row_blocks(m, np.arange(N)):
        values[i0:i0 + block.shape[0]] = block
    return values


@dataclass
class AubrySet:
    indices: np.ndarray        # flat grid indices, sorted
    self_barrier: np.ndarray   # h(x,x) per index
    labels: list               # "stationary" | "periodic" | "other" per index
    threshold: float


@dataclass
class QuotientPartition:
    classes: list              # list of sorted lists of Aubry grid indices
    representative: list       # smallest member of each class
    merge_threshold: float

    @property
    def class_count(self) -> int:
        return len(self.classes)


@dataclass
class _MinPlus:
    """M[y, z] = min over i = 0..k-1, in that order, of into[i, y] + out[i, z]."""

    into: np.ndarray
    out: np.ndarray

    def at(self, y, z) -> np.ndarray:
        m = self.into[0][y] + self.out[0][z]
        for i in range(1, self.into.shape[0]):
            np.minimum(m, self.into[i][y] + self.out[i][z], out=m)
        return m

    def block(self, rows, cols) -> np.ndarray:
        return self.at((rows, None), cols)


class _Rolled:
    """M[y, z] = table[s, z - y], with s the row of y's slab cell (y with
    zeros on the invariant axes; one table row per slab cell, in flat order)
    and z - y taken along the invariant axes only, modulo the grid.

    Doubled along the invariant axes, row y of M is the window of its slab
    row starting n - y_a cells in along each invariant axis a: one strided
    view holds every window, and a block of rows is one copy of it.
    """

    def __init__(self, table: np.ndarray, shape: tuple, axes: list):
        self.table, self.shape = table, shape
        rest = [a for a in range(len(shape)) if a not in axes]
        lead = len(rest)
        grid = table.reshape(tuple(shape[a] for a in rest) + shape)
        for a in axes:
            grid = np.concatenate([grid, grid], axis=lead + a)
        grid = np.ascontiguousarray(grid)
        step = np.array(grid.strides) // grid.itemsize
        cells = np.stack(np.unravel_index(np.arange(table.shape[1]), shape), axis=-1)
        # where the window of each source y starts, and where target z lies in it
        self.base = (cells[:, rest] @ step[:lead]
                     + (np.array(shape)[axes] - cells[:, axes]) @ step[lead:][axes])
        self.off = cells @ step[lead:]
        self.flat = grid.ravel()
        self.windows = as_strided(self.flat, (self.flat.size - self.off[-1],) + shape,
                                  (grid.itemsize,) + grid.strides[lead:], writeable=False)

    def at(self, y, z) -> np.ndarray:
        return self.flat[self.base[y] + self.off[z]]

    def block(self, rows, cols) -> np.ndarray:
        block = self.windows[self.base[rows]]
        return block.reshape(block.shape[0], -1)[:, cols]


@dataclass
class PeierlsBarrier(_Pairwise):
    """The barrier h as its factors, its representatives and critical edges.

    h_rows reads h and ht_rows h.T: each a _MinPlus of the shortest-path
    tables into and out of the representatives, or a _Rolled of the slab
    rows g(r, .) or of their index-permuted copy gt(r, .) = h(., r). When
    every axis is invariant, delta_rows reads delta = h + h.T from the one
    table D = g + gt, entry for entry the same add, and
    MatherDelta.offset_table hands D itself to the consumers of delta.
    """

    size: int
    representatives: np.ndarray  # smallest cell of each critical class
    critical_edges: int
    invariant_axes: list         # slab path only
    h_rows: object
    ht_rows: object
    delta_rows: Optional[_Rolled] = None

    def at(self, y, z) -> np.ndarray:
        return self.h_rows.at(y, z)

    def block(self, rows, cols, transpose: bool = False) -> np.ndarray:
        return (self.ht_rows if transpose else self.h_rows).block(rows, cols)

    values = cached_property(_dense)


def _whole(m: _Pairwise, pos: np.ndarray) -> bool:
    """Whether pos is every point of m, in order."""
    return pos.size == m.size and np.array_equal(pos, np.arange(pos.size))


def row_blocks(m: _Pairwise, pos: np.ndarray, entries: Optional[int] = None,
               transpose: bool = False):
    """Yield (i0, m[pos[i0:i1]][:, pos]), or of m.T when transpose, in row
    blocks of at most entries (BLOCK_ENTRIES) entries and at least one row,
    read with slices (views of a dense m) when pos is every point in order."""
    rows = max(1, (entries or BLOCK_ENTRIES) // max(1, pos.size))
    whole = _whole(m, pos)
    for i0 in range(0, pos.size, rows):
        if whole:
            yield i0, m.block(slice(i0, i0 + rows), slice(None), transpose)
        else:
            yield i0, m.block(pos[i0:i0 + rows], pos, transpose)


def peierls_barrier(K: ActionKernel, cg: CriticalGraph) -> PeierlsBarrier:
    """Long-run minimal cost between all cell pairs at the level cg.cv.c.

    h(y,z) = min over representatives a of F[y,a] + B[a,z] - x(y) + x(z),
    with F and B the shortest paths of cg into and out of a (its source
    node N dropped) and x = cg.cv.bias. Raises NumericalError when the
    graph is not strongly connected, or the shortest-path tables h is
    kept as would not fit in free memory.
    """
    N, shape = cg.check(K), K.grid.shape
    G, critical, labels, x = cg.graph, cg.critical, cg.labels, cg.cv.bias
    _, first = np.unique(labels[critical], return_index=True)
    reps = np.sort(critical[first])

    cells = np.stack(np.unravel_index(np.arange(N), shape), axis=-1)
    axes = invariant_axes(K)
    slab = np.nonzero(~np.any(cells[:, axes], axis=1))[0]
    # every cell is critical, so h = SP: rows from the slab, rolled
    rolled = critical.size == N and slab.size <= reps.size
    axes = axes if rolled else []
    # two k x N tables, k the slab cells or the representatives, each
    # doubled along every invariant axis
    k = slab.size if rolled else reps.size
    check_memory(16 * k * N * 2**len(axes), available_memory(),
                 f"the barrier's {k} shortest-path rows over {N} cells need")
    if rolled:
        sp = dijkstra(G, indices=slab)[:, :N] - x[slab, None] + x
        tables, h_rows = [sp], _Rolled(sp, shape, axes)
        # h.T's rows are rolls of h's columns at the slab cells, as h's
        # rows are of its rows there
        spt = h_rows.at(np.arange(N), slab[:, None])
        ht_rows = _Rolled(spt, shape, axes)
        delta_rows = _Rolled(sp + spt, shape, axes) if slab.size == 1 else None
    else:
        # into[i, y] = SP(y, a) - x(a) and out[i, y] = SP(a, y) + x(a), a = reps[i]
        into = dijkstra(G.T, indices=reps)[:, :N] - x
        out = dijkstra(G, indices=reps)[:, :N] + x
        tables, delta_rows = [into, out], None
        h_rows, ht_rows = _MinPlus(into, out), _MinPlus(out, into)
    h = PeierlsBarrier(size=N, representatives=reps, critical_edges=cg.critical_edges,
                       invariant_axes=axes, h_rows=h_rows, ht_rows=ht_rows,
                       delta_rows=delta_rows)
    # h(y, z) is finite exactly when some path leads from y to z, and every
    # h(y, z) is finite exactly when every table entry is
    if not all(np.isfinite(t).all() for t in tables):
        stranded = np.zeros(N, dtype=bool)
        for _, hb in row_blocks(h, np.arange(N)):
            stranded |= ~np.all(np.isfinite(hb), axis=0)
        raise NumericalError(f"kernel graph is not strongly connected, "
                             f"e.g. cells {np.nonzero(stranded)[0][:8].tolist()}")
    return h


def aubry_set(h: _Pairwise, eta: Optional[float], K: ActionKernel, c: float) -> AubrySet:
    """Cells whose self-barrier vanishes up to eta, with orbit labels.

    eta=None picks max(1e-8, 4x the worst negative float residue on the
    diagonal); the barrier construction makes true Aubry diagonals exact
    zeros, so only rounding noise needs absorbing.
    """
    diag = h.diagonal()
    if eta is None:
        eta = max(1e-8, 4.0 * max(0.0, float(-diag.min())))
    sel = np.nonzero(diag <= eta)[0]
    if sel.size == 0:
        raise NumericalError(
            f"empty Aubry set at eta={eta:.3e} (min self-barrier {diag.min():.3e}); "
            "raise eta or refine the grid - the continuous Aubry set is nonempty."
        )
    labels = classify_aubry(K, h, c, sel)
    return AubrySet(indices=sel, self_barrier=diag[sel], labels=labels,
                    threshold=float(eta))


def classify_aubry(K: ActionKernel, h: _Pairwise, c: float, indices) -> list:
    """Label Aubry cells stationary / periodic / other.

    stationary: the cell's own self-loop minimizes cost(x,y)+c*tau+h(y,x).
    periodic: following successors returns to the cell through distinct
    cells within point_count steps.
    """
    indices = np.asarray(indices, dtype=np.int64)
    succ, stationary = {}, {}

    def learn(cells):
        # each cell's minimizing successor, and whether its self-loop ties the
        # minimum within 1e-12: for the indices, then for cells orbits reach
        def scores():
            # cost(x, y) + c*tau + h(y, x), y = x + offset, one offset at a time
            for w, t in zip(K.weights, K.rolled(np.arange(K.point_count), -K.offsets)):
                fwd = t[cells]
                yield w[fwd] + c * K.tau + h.at(fwd, cells)

        best, s = first_min(scores())
        stay = K.weights[K.zero_offset][cells] + c * K.tau + h.at(cells, cells)
        succ.update(zip(cells.tolist(), K.targets(cells, K.offsets[s]).tolist()))
        stationary.update(zip(cells.tolist(), (stay <= best + 1e-12).tolist()))

    learn(indices)
    labels = []
    for x in indices.tolist():
        if stationary[x]:
            labels.append("stationary")
            continue
        seen = {x}
        v = succ[x]
        label = "other"
        for _ in range(K.point_count):
            if v == x:
                label = "periodic"
                break
            if v not in succ:
                learn(np.array([v]))
            if v in seen or stationary[v]:
                break  # closed onto a different orbit
            seen.add(v)
            v = succ[v]
        labels.append(label)
    return labels


@dataclass
class MatherDelta(_Pairwise):
    """delta(x,y) = h(x,y) + h(y,x), each entry the one IEEE add of h + h.T
    (a barrier whose every axis is invariant reads it from its own table)."""

    h: _Pairwise
    symmetric = True
    size = property(lambda self: self.h.size)

    def at(self, y, z) -> np.ndarray:
        return self.h.at(y, z) + self.h.at(z, y)

    def block(self, rows, cols, transpose: bool = False) -> np.ndarray:
        own = getattr(self.h, "delta_rows", None)
        if own is not None:
            return own.block(rows, cols)
        return self.h.block(rows, cols) + self.h.block(rows, cols, transpose=True)

    def offset_table(self, pos) -> Optional[np.ndarray]:
        # h reads delta from one table only when every axis is invariant,
        # so the table has one row: the slab is cell 0 alone
        own = getattr(self.h, "delta_rows", None)
        if own is None or not _whole(self, pos):
            return None
        return own.table.reshape(own.shape)

    values = cached_property(_dense)


def mather_delta(h: _Pairwise) -> MatherDelta:
    """delta(x,y) = h(x,y) + h(y,x), bit for bit h + h.T, read from h."""
    return MatherDelta(h)


def _coset_labels(V: np.ndarray) -> np.ndarray:
    """Component labels of x ~ x + v over the cells of a torus of V's shape,
    v in the offsets V marks: the cosets of the subgroup V generates.

    An offset becomes a generator only while it lies outside the subgroup
    of the generators before it (the class of cell 0), which it then at
    least doubles; so there are at most log2(N) generators and never more
    than N * log2(N) edges.
    """
    N = V.size
    cells = np.stack(np.unravel_index(np.arange(N), V.shape), axis=-1)
    offsets = np.nonzero(V.ravel())[0]
    labels, targets = np.arange(N), []
    while True:
        outside = offsets[labels[offsets] != labels[0]]
        if outside.size == 0:
            return labels
        moved = cells + cells[outside[0]]
        targets.append(np.ravel_multi_index(tuple(moved.T), V.shape, mode="wrap"))
        graph = sparse.csr_matrix((np.ones(N * len(targets), dtype=bool),
                                   (np.tile(np.arange(N), len(targets)), np.concatenate(targets))),
                                  shape=(N, N))
        labels = connected_components(graph, directed=False)[1]


def quotient(delta: _Pairwise, A: AubrySet, merge_threshold: float) -> QuotientPartition:
    """Classes of Aubry indices joined by chains of delta <= merge_threshold.

    When delta is one offset table D over every cell (delta.offset_table:
    every axis invariant and A the whole grid), delta(x, y) = D(y - x), so
    the classes are the cosets of the subgroup generated by
    {v : D(v) <= merge_threshold}, found from D alone in O(N log N). Else
    the threshold graph is read from the row blocks of delta.
    """
    pos = delta.check_ids(A.indices)
    D = delta.offset_table(pos)
    if D is not None:
        labels = _coset_labels(D <= merge_threshold)
    elif all(np.all(b <= merge_threshold) for _, b in row_blocks(delta, pos)):
        # one class, or none for an empty set
        labels = np.zeros(pos.size, dtype=np.int64)
    else:
        graph = sparse.vstack([sparse.csr_matrix(b <= merge_threshold)
                               for _, b in row_blocks(delta, pos)])
        labels = connected_components(graph, directed=False)[1]
    groups = {}
    for label, i in zip(labels.tolist(), A.indices.tolist()):
        groups.setdefault(label, []).append(i)
    classes = sorted((sorted(m) for m in groups.values()), key=lambda m: m[0])
    reps = [m[0] for m in classes]
    return QuotientPartition(classes=classes, representative=reps,
                             merge_threshold=float(merge_threshold))


@dataclass
class RepresentationReport:
    max_residual: float
    worst_pair: tuple
    pairs_checked: int


def representation_check(h: _Pairwise, delta: Optional[_Pairwise],
                         A: AubrySet) -> RepresentationReport:
    """Residual of delta(x,y) = (u1-u2)(y) - (u1-u2)(x) over Aubry pairs,
    with u1 = h(x,.) and u2 = h(y,.) the barrier-column solutions.

    delta=None stands for mather_delta(h): each of its blocks is the sum
    of the blocks of h and h.T the check reads anyway. If moreover h is
    exactly +-0.0 on A's diagonal, no block is read: a - 0 = a and
    0 - b = -b are exact and a - (-b) rounds like a + b, so every finite
    entry is 0.0 and the first maximum is (A[0], A[0]); that return
    needs h finite on A x A, as every peierls_barrier result is. A NaN
    residual is reported as the maximum, at its first pair.
    """
    pos = h.check_ids(A.indices)
    diag = h.at(pos, pos)
    if delta is None and pos.size and not diag.any():
        a = int(A.indices[0])
        return RepresentationReport(max_residual=0.0, worst_pair=(a, a),
                                    pairs_checked=pos.size**2)
    worst, pair = -np.inf, None
    # row blocks of the |A| x |A| residual; a later block must be strictly
    # worse (or NaN), so the pair is the first maximum in row-major order;
    # argmax takes a block's first NaN. Only new arrays are written: the
    # blocks may be views of dense matrices
    deltas = None if delta is None else row_blocks(delta, pos)
    for (i0, Hb), (_, HTb) in zip(row_blocks(h, pos), row_blocks(h, pos, transpose=True)):
        res = Hb - diag
        res -= diag[i0:i0 + Hb.shape[0], None] - HTb
        Db = Hb + HTb if deltas is None else next(deltas)[1]
        np.abs(np.subtract(Db, res, out=res), out=res)
        i, j = np.unravel_index(int(np.argmax(res)), res.shape)
        if res[i, j] > worst or np.isnan(res[i, j]):
            worst, pair = float(res[i, j]), (int(A.indices[i0 + i]), int(A.indices[j]))
            if np.isnan(worst):
                break
    return RepresentationReport(max_residual=worst, worst_pair=pair,
                                pairs_checked=pos.size**2)
