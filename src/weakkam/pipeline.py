"""Pipeline wiring: config -> staged computations -> CSV/JSON artifacts.

A stage is one row of `STAGES`: a body and the stages it needs. A body
`(cfg, state) -> (stats, artifacts)` reads and extends the shared state
and writes no files. `stats` is its manifest record; `artifacts` maps
each file name, in write order, to a JSON object, to a CSV's
`(header, chunks)`, whose column chunks may come from a lazy generator,
or to a str saying why that file is skipped. `run_pipeline` alone writes
the artifacts whose extension is among `outputs.formats` and builds the
manifest.

Artifacts are deterministic for a fixed config and seed: floats are
printed at 12 significant digits, row order follows flat grid indices,
and the manifest records a sha256 per emitted file. Wall times and peak
memory live only in the manifest, never in CSVs.

`write_csv` formats each chunk in slices of CSV_SLICE_CELLS cells (rows
= cells // columns, at least one) with `csvformat.format_rows`: every
column of a slice becomes fixed-width words in numpy, by its dtype, its
separator in its last word, and one table of those words, NULs dropped,
is the slice's text. A matrix dump gathers its values one such slice at
a time.
"""

import hashlib
import json
import os
import resource
import time

import numpy as np

from .aubry import (aubry_set, mather_delta, peierls_barrier, quotient, representation_check,
                    row_blocks)
from .chains import chain_graph, chain_recurrent_set, compare_aubry_chain
from .config import ExperimentConfig
from .critical import critical_graph, critical_value, weak_kam_solution
from .csvformat import FLOAT_FMT, digit_tables, format_rows
from .errors import ArtifactError, ConfigError, WeakKamError
from .geometry import ferry_delta_p, hausdorff1_report
from .models import load_points_csv
from .regularize import (alternating_smooth, aubry_drift, semiconcavity_constant,
                         semiconvexity_constant, subsolution_residual_field)

BARRIER_DUMP_LIMIT = 2048  # full matrix CSV only below this point count
CSV_SLICE_CELLS = 8192  # cells formatted at once, so a long chunk's text stays small


# -- deterministic writers ----------------------------------------------------

def _matrix_rows(m):
    """Column chunks (i, j, m[i, j]) of whole rows, one CSV slice each (or
    one row, when a row is longer), each gathered on its own by
    row_blocks, so a dump never holds more of m than one slice."""
    n, rows = m.size, max(1, CSV_SLICE_CELLS // 3)
    ids = np.arange(n)
    j = np.tile(ids, max(1, rows // n))
    for i0, block in row_blocks(m, ids, rows):
        yield ids[i0:i0 + block.shape[0]].repeat(n), j[:block.size], block.ravel()


def write_csv(path, header, chunks) -> str:
    """Each chunk is a tuple of equal-length columns (arrays or lists), one
    per header field. A column has one format, from its dtype kind:
    integers in decimal, floats as FLOAT_FMT, anything else by str (text
    without NUL characters). Raises ArtifactError on a chunk whose columns
    do not match the header in number or differ in length."""
    try:
        with open(path, "wb") as f:
            f.write((",".join(header) + "\n").encode())
            # built per file, so that they are not resident between files
            tables = digit_tables()
            for chunk in chunks:
                cols = [np.asarray(c) for c in chunk]
                shapes = [c.shape for c in cols]
                if len(cols) != len(header):
                    raise ArtifactError(f"cannot write {path}: a chunk has {len(cols)} columns "
                                        f"for {len(header)} header fields")
                if len(set(shapes)) != 1 or len(shapes[0]) != 1:
                    raise ArtifactError(f"cannot write {path}: chunk columns of shapes "
                                        f"{shapes} are not one length")
                rows = max(1, CSV_SLICE_CELLS // len(cols))
                for k in range(0, shapes[0][0], rows):
                    f.write(format_rows([c[k:k + rows] for c in cols], tables))
    except OSError as e:
        raise ArtifactError(f"cannot write {path}: {e}") from e
    return path


def _jsonify(obj):
    """12-significant-digit floats, plain types, sorted containers."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if not np.isfinite(v) else float(FLOAT_FMT % v)
    return obj


def write_json(path, obj) -> str:
    try:
        with open(path, "w", newline="\n") as f:
            json.dump(_jsonify(obj), f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError as e:
        raise ArtifactError(f"cannot write {path}: {e}") from e
    return path


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _coord_header(dim: int) -> list:
    return [f"x{ax}" for ax in range(dim)]


# -- stage bodies -------------------------------------------------------------

def _stage_critical(cfg, state):
    grid = state["grid"] = cfg.grid()
    L = state["L"] = cfg.lagrangian(grid)
    K = state["K"] = cfg.kernel(grid, L)
    cv = state["cv"] = critical_value(K)
    # the problem size: N grid points and S stencil offsets
    return {"policy_iterations": cv.iterations, "points": K.point_count,
            "stencil_offsets": K.stencil_size}, {"critical.json": {
        "c": cv.c, "mean_cycle_weight": cv.mean_cycle_weight,
        "witness_cycle": list(cv.witness_cycle), "tau": cv.tau,
    }}


def _stage_weakkam(cfg, state):
    grid, K = state["grid"], state["K"]
    rng = np.random.default_rng(cfg.seed())
    u0 = rng.standard_normal(grid.point_count)
    cg = state["cg"] = critical_graph(K, state["cv"])
    sol = state["sol"] = weak_kam_solution(K, cg, u0=u0, tol=cfg.solver_tol())
    cols = (np.arange(grid.point_count), *grid.coords().T, sol.u.values)
    return {"critical_cells": sol.critical_cells, "residual": sol.residual}, {
        "weakkam.json": {"c": sol.c, "residual": sol.residual,
                         "iterations": sol.iterations, "seed": cfg.seed()},
        "u.csv": (["index", *_coord_header(grid.dim), "value"], [cols]),
    }


def _stage_barrier(cfg, state):
    # the weak KAM stage's graph when it ran; the barrier is its last reader
    cg = state.pop("cg", None) or critical_graph(state["K"], state["cv"])
    h = state["h"] = peierls_barrier(state["K"], cg)
    n = h.size
    if n <= BARRIER_DUMP_LIMIT:
        csv = (["i", "j", "h"], _matrix_rows(h))
    else:
        csv = f"barrier.csv skipped: {n}x{n} matrix exceeds dump limit {BARRIER_DUMP_LIMIT}"
    return {"representatives": int(h.representatives.size),
            "critical_edges": h.critical_edges,
            "invariant_axes": h.invariant_axes}, {"barrier.csv": csv}


def _stage_aubry(cfg, state):
    grid, K = state["grid"], state["K"]
    A = state["A"] = aubry_set(state["h"], cfg.eta(), K, state["cv"].c)
    cols = (A.indices, *grid.coords(A.indices).T, A.self_barrier, A.labels)
    return {"aubry_size": int(A.indices.size)}, {"aubry.csv": (
        ["index", *_coord_header(grid.dim), "self_barrier", "label"], [cols])}


def _stage_quotient(cfg, state):
    grid = state["grid"]
    rep = representation_check(state["h"], None, state["A"])
    delta = state["delta"] = mather_delta(state["h"])
    Q = state["Q"] = quotient(delta, state["A"], cfg.merge_threshold(grid))
    D = delta.offset_table(state["A"].indices)
    if D is not None:
        # every class is a coset of the class of cell 0, which comes first
        diam = float(np.max(D.ravel()[Q.classes[0]], initial=0.0))
    else:
        class_of = {m: ci for ci, members in enumerate(Q.classes) for m in members}
        label = np.array([class_of[i] for i in state["A"].indices.tolist()])
        diam = 0.0
        for i0, block in row_blocks(delta, state["A"].indices):
            same = label[i0:i0 + block.shape[0], None] == label
            diam = max(diam, float(np.max(block, where=same, initial=0.0)))
    cols = ([ci for ci, members in enumerate(Q.classes) for _ in members],
            [m for members in Q.classes for m in members])
    return {"class_count": Q.class_count, "offset_table": D is not None}, {
        "quotient.csv": (["class_id", "member_index"], [cols]),
        "quotient.json": {
            "class_count": Q.class_count,
            "max_class_diameter_delta": diam,
            "eta": state["A"].threshold,
            "merge_threshold": Q.merge_threshold,
            "representation_max_residual": rep.max_residual,
        },
    }


def _delta_range(delta, indices) -> tuple:
    """The smallest positive delta over pairs of the set (inf if none) and the
    largest (0.0 if none is positive), from its offset table if it has one."""
    D = delta.offset_table(indices)
    lo, hi = np.inf, 0.0
    for block in [D] if D is not None else (b for _, b in row_blocks(delta, indices)):
        lo = min(lo, float(np.min(block, where=block > 0, initial=np.inf)))
        hi = max(hi, float(np.max(block, where=block > 0, initial=0.0)))
    return lo, hi


def _auto_scales(lo: float, hi: float) -> np.ndarray:
    """Geometric scale grid spanning the positive delta range [lo, hi] of a set."""
    if hi == 0.0:
        return np.geomspace(1e-4, 1e-1, 6)
    # halving the smallest subnormal underflows to 0; start at it instead
    lo = max(lo / 2.0, hi * 1e-4) or lo
    return np.geomspace(lo, hi, 8)


def _stage_dimension(cfg, state):
    delta, A = state["delta"], state["A"]
    lo, hi = _delta_range(delta, A.indices)
    report = hausdorff1_report(delta, A.indices, _auto_scales(lo, hi))
    cols = (report.scales, report.covering_counts, report.h1_estimates)
    return {"covering_counts": report.covering_counts.tolist(),
            "delta_min_positive": lo if lo < np.inf else None, "delta_max": hi,
            "offset_table": delta.offset_table(A.indices) is not None}, {
        "dimension.csv": (["r", "covering_count", "h1_estimate"], [cols]),
        "dimension.json": {"dim_slope": report.dim_slope},
    }


def _stage_regularize(cfg, state):
    grid, K, L = state["grid"], state["K"], state["L"]
    c = state["cv"].c
    u = state["sol"].u
    tol = max(cfg.solver_tol(), 8 * state["sol"].residual)
    v = alternating_smooth(u, K, c, int(cfg.raw["regularizer"]["stages"]), tol=tol)
    resid = subsolution_residual_field(v, L, grid)
    cols = (np.arange(grid.point_count), u.values, v.values, resid - c)
    return {}, {
        "regularize.csv": (["index", "u_in", "u_out", "H_residual"], [cols]),
        "regularize.json": {
            "semiconvexity_before": semiconvexity_constant(u),
            "semiconvexity_after": semiconvexity_constant(v),
            "semiconcavity_before": semiconcavity_constant(u),
            "semiconcavity_after": semiconcavity_constant(v),
            "max_aubry_drift": aubry_drift(u, v, state["A"].indices),
        },
    }


def _stage_chains(cfg, state):
    # the grid and the vector field only: chains alone builds no kernel
    grid = state["grid"] if "grid" in state else cfg.grid()
    X = cfg.vector_field(grid)
    params = cfg.dynamics_params(grid, X)
    chain = state["chain"] = chain_recurrent_set(chain_graph(X, grid, **params))
    return {}, {
        "chain_set.csv": (["index", *_coord_header(grid.dim)], [(chain, *grid.coords(chain).T)]),
        "chains.json": {"size": int(chain.size), **params},
    }


def _stage_comparison(cfg, state):
    cmp = compare_aubry_chain(state["A"].indices, state["chain"], state["grid"])
    return {}, {"comparison.json": {
        "hausdorff_distance": cmp.hausdorff_distance,
        "a_only_size": int(cmp.a_only.size),
        "b_only_size": int(cmp.b_only.size),
        "aubry_size": cmp.a_size,
        "chain_size": cmp.b_size,
    }}


def _stage_ferry(cfg, state):
    exponent = float(cfg.raw["ferry"]["p"])
    dp = ferry_delta_p(load_points_csv(cfg.raw["ferry"]["points"]), exponent)
    k = dp.size
    return {}, {
        "ferry.csv": (["i", "j", "delta_p"], _matrix_rows(dp)),
        "ferry.json": {
            "p": exponent, "point_count": k,
            "endpoint_value": float(dp.values[0, k - 1]),
            "max_value": float(np.max(dp.values)),
        },
    }


# name -> (body, the stages it needs), in run order
STAGES = {
    "critical": (_stage_critical, []),
    "weakkam": (_stage_weakkam, ["critical"]),
    "barrier": (_stage_barrier, ["critical"]),
    "aubry": (_stage_aubry, ["critical", "barrier"]),
    "quotient": (_stage_quotient, ["critical", "barrier", "aubry"]),
    "dimension": (_stage_dimension, ["critical", "barrier", "aubry", "quotient"]),
    "regularize": (_stage_regularize, ["critical", "barrier", "aubry", "weakkam"]),
    "chains": (_stage_chains, []),
    "comparison": (_stage_comparison, ["critical", "barrier", "aubry", "chains"]),
    "ferry": (_stage_ferry, []),
}


def _why_not(cfg: ExperimentConfig, name) -> str:
    """Why stage `name` cannot run on cfg; empty when it can."""
    if name != "all" and name not in STAGES:
        return f"unknown stage {name!r}; known: {sorted(STAGES)} and 'all'"
    family = cfg.raw["model"].get("family")
    if name in ("chains", "comparison") and family != "mane":
        return f"stage {name!r} needs model.family='mane', got {family!r}"
    if name == "ferry" and not cfg.raw["ferry"].get("points"):
        return "stage 'ferry' needs a points CSV (config ferry.points or --points)"
    return ""


def _expand_stages(cfg: ExperimentConfig, stages) -> list:
    """The requested stages and their prerequisites, in STAGES order.

    "all" stands for every stage that applies to cfg.
    """
    want = set()
    for s in stages:
        if s == "all":
            want.update(t for t in STAGES if not _why_not(cfg, t))
        else:
            want.add(s)
            want.update(STAGES[s][1])
    return [s for s in STAGES if s in want]


def _prepare_out(cfg: ExperimentConfig, out_dir) -> tuple:
    outputs = cfg.outputs()
    out = out_dir or outputs["directory"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        raise ArtifactError(f"cannot create output directory {out}: {e}") from e
    return out, list(outputs["formats"])


def _finish_manifest(out, manifest) -> dict:
    # write_json sorts keys, so the run order of the stages is kept apart
    manifest["stage_order"] = list(manifest["stages"])
    files = sorted(f for stage in manifest["stages"].values() for f in stage["files"])
    manifest["checksums"] = {f: _sha256(os.path.join(out, f)) for f in files}
    write_json(os.path.join(out, "manifest.json"), manifest)
    return manifest


def run_pipeline(cfg: ExperimentConfig, stages, out_dir=None) -> dict:
    """Execute the requested stages (plus prerequisites) and write artifacts.

    The config is validated, and a requested stage that is unknown or
    does not apply to it fails, before any stage runs. Each stage's
    artifacts whose extension is among `outputs.formats` are written in
    the order the stage lists them; a skipped one in a requested format
    leaves a manifest note. Every failure but an unusable outputs section
    raises the error after writing a partial manifest with an error
    record, so CLI exit codes can reflect the failure class.
    """
    out, formats = _prepare_out(cfg, out_dir)
    manifest = {"config": cfg.echo(), "stages": {}, "status": "ok"}
    state, name = {}, None
    try:
        cfg.validate()
        for name in stages:
            reason = _why_not(cfg, name)
            if reason:
                raise ConfigError(reason)
        for name in _expand_stages(cfg, stages):
            t0 = time.perf_counter()
            stats, artifacts = STAGES[name][0](cfg, state)
            written = []
            for fname, artifact in artifacts.items():
                if fname.rpartition(".")[2] not in formats:
                    continue
                if isinstance(artifact, str):
                    manifest.setdefault("notes", []).append(artifact)
                    continue
                path = os.path.join(out, fname)
                if isinstance(artifact, tuple):
                    write_csv(path, *artifact)
                else:
                    write_json(path, artifact)
                written.append(fname)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
            manifest["stages"][name] = {"files": written, "wall_time_s": time.perf_counter() - t0,
                                        "peak_rss_mb": peak, **stats}
    except WeakKamError as e:
        manifest["status"] = "error"
        manifest["error"] = {"stage": name, "type": type(e).__name__, "message": str(e)}
        _finish_manifest(out, manifest)
        raise
    return _finish_manifest(out, manifest)


def run_all(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Every stage that applies to the config."""
    return run_pipeline(cfg, ["all"], out_dir)
