"""Correctness gate: checks one run's emitted artifacts with public functions.

Nothing here is timed. Every check reads files the CLI wrote, rebuilds
the kernel from the run's config where a check needs it, and compares
against an independent oracle or a recorded reference count.
"""

import hashlib
import json
import os

import numpy as np

from weakkam import CriticalValue, ExperimentConfig, WeakKamError, check_dominated

WITNESS_TOL = 1e-9
DOMINATION_TOL = 1e-9
REPRESENTATION_TOL = 1e-8


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _load_json(path) -> dict:
    with open(path) as f:
        return json.load(f)


def load_manifest(out_dir) -> dict:
    return _load_json(os.path.join(out_dir, "manifest.json"))


def _check_manifest(out_dir) -> list:
    manifest = load_manifest(out_dir)
    failures = []
    if manifest.get("status") != "ok":
        failures.append(f"{out_dir}: manifest status {manifest.get('status')!r}")
    for name, digest in manifest.get("checksums", {}).items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            failures.append(f"{out_dir}: {name} listed in the manifest is missing")
        elif _sha256(path) != digest:
            failures.append(f"{out_dir}: {name} does not match its manifest checksum")
    return failures


def _check_solution(w, cfg, out_dir) -> list:
    failures = []
    crit = _load_json(os.path.join(out_dir, "critical.json"))
    grid = cfg.grid()
    K = cfg.kernel(grid, cfg.lagrangian(grid))
    c = float(crit["c"])
    if abs(c - w.c_target) > w.c_slack * grid.spacing:
        failures.append(f"critical value {c!r} is not within {w.c_slack} spacings "
                        f"of the oracle {w.c_target}")
    mu = float(crit["mean_cycle_weight"])
    replay = CriticalValue(c=c, mean_cycle_weight=mu, witness_cycle=crit["witness_cycle"],
                           tau=float(crit["tau"])).witness_mean(K)
    if abs(replay - mu) > WITNESS_TOL:
        failures.append(f"witness cycle replays to {replay!r}, not the mean cycle weight {mu!r}")

    wk = _load_json(os.path.join(out_dir, "weakkam.json"))
    if not float(wk["residual"]) <= cfg.solver_tol():
        failures.append(f"weak KAM residual {wk['residual']!r} exceeds tol {cfg.solver_tol()}")
    u = np.loadtxt(os.path.join(out_dir, "u.csv"), delimiter=",", skiprows=1, ndmin=2)[:, -1]
    if u.shape != (grid.point_count,):
        failures.append(f"u.csv holds {u.shape[0]} values for {grid.point_count} cells")
    else:
        viol = check_dominated(K, u, c).max_violation
        if not viol <= DOMINATION_TOL:
            failures.append(f"u.csv is not dominated: violation {viol!r}")
    return failures


def _check_counts(w, out_dirs) -> list:
    failures = []
    main = out_dirs[w.commands[0][1]]
    if w.aubry_size is not None:
        with open(os.path.join(main, "aubry.csv")) as f:
            size = sum(1 for _ in f) - 1
        if size != w.aubry_size:
            failures.append(f"Aubry set has {size} cells, reference {w.aubry_size}")
    if w.class_count is not None:
        q = _load_json(os.path.join(main, "quotient.json"))
        if q["class_count"] != w.class_count:
            failures.append(f"quotient has {q['class_count']} classes, "
                            f"reference {w.class_count}")
        if not float(q["representation_max_residual"]) <= REPRESENTATION_TOL:
            failures.append(f"representation residual {q['representation_max_residual']!r} "
                            f"exceeds {REPRESENTATION_TOL}")
    if w.chain_size is not None:
        chains = _load_json(os.path.join(out_dirs["chains"], "chains.json"))
        if chains["size"] != w.chain_size:
            failures.append(f"chain-recurrent set has {chains['size']} cells, "
                            f"reference {w.chain_size}")
    return failures


def check_run(w, config_path, out_dirs) -> list:
    """Failure messages for one run of workload w; empty when it passes.

    out_dirs maps each output subdirectory named in w.commands to its path.
    """
    failures = []
    try:
        for out_dir in out_dirs.values():
            failures += _check_manifest(out_dir)
        cfg = ExperimentConfig.from_file(config_path)
        failures += _check_solution(w, cfg, out_dirs[w.commands[0][1]])
        failures += _check_counts(w, out_dirs)
    except (OSError, ValueError, KeyError, TypeError, IndexError, WeakKamError) as e:
        failures.append(f"unreadable artifact: {type(e).__name__}: {e}")
    return failures
