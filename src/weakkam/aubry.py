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

h is the one dense N x N array of a run: the representation check reads
it first (representation_check(h, None, A) forms delta block by block),
then the Mather distance delta = h + h.T overwrites it in place
(mather_delta(h, out=h.values)).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse
from scipy.sparse.csgraph import connected_components, dijkstra

from .critical import CriticalValue, critical_graph
from .errors import ConfigError, NumericalError
from .kernel import ActionKernel, available_memory, invariant_axes

# entries of each row block the A x A consumers of h and delta read
BLOCK_ENTRIES = 1 << 20
# entries of each row block of the representation check
CHECK_ENTRIES = 1 << 18
# side of the tiles a transposed row block is copied in, and of the tile
# pairs the Mather distance is summed in
TILE = 64


@dataclass
class SemiMetric:
    """Dense matrix of pairwise values over points 0..size-1: row and
    column i belong to point i (the flat grid index i, or the i-th point
    of a sampled set)."""

    values: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ConfigError(f"semimetric values of shape {self.values.shape} are not square")

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.values).copy()

    def check_ids(self, ids) -> np.ndarray:
        """The ids as int64 rows; ConfigError unless 0 <= id < size, since
        numpy indexing would wrap a negative id silently."""
        ids = np.asarray(ids, dtype=np.int64)
        bad = ids[(ids < 0) | (ids >= self.size)]
        if bad.size:
            raise ConfigError(f"ids outside the {self.size} points: {bad[:8].tolist()}")
        return ids

    def triangle_violation(self, via_limit: int = 512, seed: int = 0) -> float:
        """max over pairs (x,z) and midpoints y of v[x,z] - v[x,y] - v[y,z].

        Exhaustive in y for small sets; for large ones a deterministic
        random sample of via_limit midpoints is used.
        """
        k = self.size
        if k <= via_limit:
            vias = np.arange(k)
        else:
            vias = np.random.default_rng(seed).choice(k, size=via_limit, replace=False)
        worst = -np.inf
        for y in vias:
            detour = self.values[:, y][:, None] + self.values[y, :][None, :]
            worst = max(worst, float(np.max(self.values - detour)))
        return worst


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
class PeierlsBarrier(SemiMetric):
    """The barrier h and the critical graph it was built from."""

    representatives: np.ndarray = None  # smallest cell of each critical class
    critical_edges: int = 0
    invariant_axes: list = field(default_factory=list)  # slab path only


def block_rows(entries: int, cols: int) -> int:
    """Rows of a block of at most entries entries (at least one row)."""
    return max(1, entries // max(1, cols))


def row_blocks(values: np.ndarray, pos: np.ndarray, entries: Optional[int] = None,
               out: Optional[np.ndarray] = None):
    """Yield (i0, values[pos[i0:i1]][:, pos]) in row blocks of at most
    entries entries, BLOCK_ENTRIES by default (at least one row). When pos
    lists every row in order a block is a view, or, when values is not
    C-contiguous (a transpose such as h.values.T), a copy made TILE
    columns at a time, so the strided source is read in cache-sized
    tiles; the copy goes into the leading rows of out when it is given
    (one buffer reused for every block), else into a new array.
    Otherwise only that block is gathered."""
    rows = block_rows(entries or BLOCK_ENTRIES, pos.size)
    whole = pos.size == values.shape[0] and np.array_equal(pos, np.arange(pos.size))
    for i0 in range(0, pos.size, rows):
        if not whole:
            yield i0, values[pos[i0:i0 + rows, None], pos]
        elif values.flags.c_contiguous:
            yield i0, values[i0:i0 + rows]
        else:
            src = values[i0:i0 + rows]
            block = (np.empty(src.shape, dtype=values.dtype) if out is None
                     else out[:src.shape[0]])
            for j0 in range(0, pos.size, TILE):
                block[:, j0:j0 + TILE] = src[:, j0:j0 + TILE]
            yield i0, block


def peierls_barrier(K: ActionKernel, cv: CriticalValue) -> PeierlsBarrier:
    """Long-run minimal cost between all cell pairs at the level cv.c.

    h(y,z) = min over representatives a of F[y,a] + B[a,z] - x(y) + x(z),
    with F and B the reduced-cost shortest paths into and out of a and
    x = cv.bias. Raises NumericalError when cv.c is not critical, the
    graph is not strongly connected, or h and the shortest-path tables it
    is built from would not fit in free memory.
    """
    N = K.point_count
    G, critical, labels, edges = critical_graph(K, cv)
    x = cv.bias
    _, first = np.unique(labels[critical], return_index=True)
    reps = np.sort(critical[first])

    cells = np.stack(np.unravel_index(np.arange(N), K.grid.shape), axis=-1)
    axes = invariant_axes(K)
    slab = np.nonzero(~np.any(cells[:, axes], axis=1))[0]
    # every cell is critical, so h = SP: rows from the slab, rolled
    rolled = critical.size == N and slab.size <= reps.size
    # h, the one N x N array of the run (delta overwrites it), and two
    # k x N Dijkstra tables, k the slab cells or the representatives
    k = slab.size if rolled else reps.size
    need, free = 8 * N * (N + 2 * k), available_memory()
    if need > free:
        raise NumericalError(
            f"the {N}x{N} barrier and its {k} shortest-path rows need {need / 2**20:.1f} MiB, "
            f"but only {free / 2**20:.1f} MiB of memory is free")
    if rolled:
        h = _translate_rows(K.grid.shape, axes, dijkstra(G, indices=slab) - x[slab, None] + x)
    else:
        axes = []
        # into[i, y] = SP(y, a) - x(a) and out[i, y] = SP(a, y) + x(a), a = reps[i]
        into = dijkstra(G.T, indices=reps) - x
        out = dijkstra(G, indices=reps) + x
        h = np.empty((N, N))
        rows = block_rows(BLOCK_ENTRIES, N)
        for y0 in range(0, N, rows):
            hb = h[y0:y0 + rows]
            np.add(into[0, y0:y0 + rows, None], out[0], out=hb)
            for i in range(1, reps.size):
                np.minimum(hb, into[i, y0:y0 + rows, None] + out[i], out=hb)
    # h(y, z) is finite exactly when some path leads from y to z
    stranded = np.zeros(N, dtype=bool)
    for _, hb in row_blocks(h, np.arange(N)):
        stranded |= ~np.all(np.isfinite(hb), axis=0)
    if stranded.any():
        raise NumericalError(f"kernel graph is not strongly connected, "
                             f"e.g. cells {np.nonzero(stranded)[0][:8].tolist()}")
    return PeierlsBarrier(values=h, representatives=reps,
                          critical_edges=edges, invariant_axes=axes)


def _translate_rows(shape: tuple, axes: list, sp: np.ndarray) -> np.ndarray:
    """Every source row of sp, each the row of its slab projection rolled
    along the invariant axes by the source's coordinates.

    sp holds one row per slab cell (zero coordinates on the invariant
    axes) in flat order. Doubled along the invariant axes, the window
    starting at n - s of a slab row is that row rolled by s, so every row
    is a window of a strided view and the N x N result is one copy of it.
    """
    if not axes:
        return sp
    d = len(shape)
    rest = [a for a in range(d) if a not in axes]
    # source axes off the invariant ones, then the target grid axes
    base = sp.reshape(tuple(shape[a] for a in rest) + shape)
    lead = len(rest)
    for a in axes:
        base = np.concatenate([base, base], axis=lead + a)
    win = sliding_window_view(base, [shape[a] for a in axes], axis=[lead + a for a in axes])
    win = win[(slice(None),) * lead + tuple(slice(shape[a], 0, -1) if a in axes else slice(None)
                                            for a in range(d))]
    # win axes: rest sources, window starts (invariant sources) or targets, window targets
    source = [lead + a if a in axes else rest.index(a) for a in range(d)]
    target = [lead + d + axes.index(a) if a in axes else lead + a for a in range(d)]
    full = np.empty(shape * 2)
    full[...] = win.transpose(source + target)
    return full.reshape(sp.shape[1], sp.shape[1])


def aubry_set(h: SemiMetric, eta: Optional[float], K: ActionKernel, c: float) -> AubrySet:
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


def _successors(K: ActionKernel, h: SemiMetric, c: float, tie_tol: float):
    """Minimizing one-step successor of every cell along zero-mean cycles.

    Returns (succ, stationary) arrays; stationary marks cells whose own
    self-loop ties the minimum within tie_tol.
    """
    fwd = K.forward_targets()
    cols = np.arange(K.point_count)
    shift = c * K.tau
    scores = np.empty((K.stencil_size, K.point_count))
    for s in range(K.stencil_size):
        tgt = fwd[s]
        scores[s] = K.weights[s, tgt] + shift + h.values[tgt, cols]
    best = np.min(scores, axis=0)
    s_best = np.argmin(scores, axis=0)
    succ = fwd[s_best, cols]
    stationary = scores[K.zero_offset] <= best + tie_tol
    return succ, stationary


def classify_aubry(K: ActionKernel, h: SemiMetric, c: float, indices,
                   tie_tol: float = 1e-12) -> list:
    """Label Aubry cells stationary / periodic / other.

    stationary: the cell's own self-loop minimizes cost(x,y)+c*tau+h(y,x).
    periodic: following successors returns to the cell through distinct
    cells within point_count steps.
    """
    indices = np.asarray(indices, dtype=np.int64)
    succ, stationary = _successors(K, h, c, tie_tol)
    labels = []
    for x in indices:
        if stationary[x]:
            labels.append("stationary")
            continue
        seen = {int(x)}
        v = int(succ[x])
        label = "other"
        for _ in range(K.point_count):
            if v == x:
                label = "periodic"
                break
            if v in seen or stationary[v]:
                break  # closed onto a different orbit
            seen.add(v)
            v = int(succ[v])
        labels.append(label)
    return labels


def mather_delta(h: SemiMetric, out: Optional[np.ndarray] = None) -> SemiMetric:
    """delta(x,y) = h(x,y) + h(y,x), bit for bit h + h.T.

    Summed one pair of TILE x TILE tiles at a time: S = H[a,b] + H[b,a].T
    fills tile (a,b) and S.T tile (b,a), and both tiles are read before
    either is written, so out may be h.values itself (delta then
    overwrites h); out=None writes a new array. IEEE addition commutes,
    so the (b,a) entries are the single add of h + h.T as well.
    """
    H, n = h.values, h.size
    values = np.empty(H.shape) if out is None else out
    for a0 in range(0, n, TILE):
        a = slice(a0, a0 + TILE)
        for b0 in range(a0, n, TILE):
            b = slice(b0, b0 + TILE)
            S = H[a, b] + H[b, a].T
            values[a, b] = S
            values[b, a] = S.T
    return SemiMetric(values=values, symmetric=True)


def quotient(delta: SemiMetric, A: AubrySet, merge_threshold: float) -> QuotientPartition:
    """Classes of Aubry indices joined by chains of delta <= merge_threshold."""
    pos = delta.check_ids(A.indices)
    if all(np.all(b <= merge_threshold) for _, b in row_blocks(delta.values, pos)):
        members = sorted(int(i) for i in A.indices)
        return QuotientPartition(classes=[members], representative=[members[0]],
                                 merge_threshold=float(merge_threshold))
    graph = sparse.vstack([sparse.csr_matrix(b <= merge_threshold)
                           for _, b in row_blocks(delta.values, pos)])
    groups = {}
    for label, i in zip(connected_components(graph, directed=False)[1].tolist(),
                        A.indices.tolist()):
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


def representation_check(h: SemiMetric, delta: Optional[SemiMetric],
                         A: AubrySet) -> RepresentationReport:
    """Residual of delta(x,y) = (u1-u2)(y) - (u1-u2)(x) over Aubry pairs,
    with u1 = h(x,.) and u2 = h(y,.) the barrier-column solutions.

    delta=None stands for mather_delta(h): each of its blocks is the sum
    of the blocks of h and h.T the check reads anyway, entry for entry
    the stored delta, so the check can run before delta overwrites h.
    """
    pos = h.check_ids(A.indices)
    diag = np.diagonal(h.values)[pos]
    worst, pair = -np.inf, None
    # row blocks of the |A| x |A| residual; a later block must be strictly
    # worse, so the pair is the first maximum in row-major order. The
    # blocks may be views of h and delta: only the three buffers below,
    # allocated once, are written
    shape = (min(pos.size, block_rows(CHECK_ENTRIES, pos.size)), pos.size)
    HT, rhs, tmp = np.empty(shape), np.empty(shape), np.empty(shape)
    deltas = None if delta is None else row_blocks(delta.values, pos, CHECK_ENTRIES)
    for (i0, Hb), (_, HTb) in zip(row_blocks(h.values, pos, CHECK_ENTRIES),
                                  row_blocks(h.values.T, pos, CHECK_ENTRIES, out=HT)):
        r = Hb.shape[0]
        res = np.subtract(Hb, diag, out=rhs[:r])
        res -= np.subtract(diag[i0:i0 + r, None], HTb, out=tmp[:r])
        Db = np.add(Hb, HTb, out=tmp[:r]) if deltas is None else next(deltas)[1]
        np.abs(np.subtract(Db, res, out=res), out=res)
        i, j = np.unravel_index(int(np.argmax(res)), res.shape)
        if res[i, j] > worst:
            worst, pair = float(res[i, j]), (int(A.indices[i0 + i]), int(A.indices[j]))
    return RepresentationReport(max_residual=worst, worst_pair=pair,
                                pairs_checked=pos.size**2)
