"""Scale smoke run: `weakkam all` on four 2-d grids, three of 128 x 128
cells and one of 256 x 256, and on the 1-d pendulum and the 1-d kinetic
model at the barrier dump limit.

    python3 scripts/scale_smoke.py

Runs each case in a child process from `src/` and checks that it exits 0
and that its `quotient.json` records a representation residual of at most
1e-8. It also checks the child's peak resident memory (`ru_maxrss`): no
N x N float array may be held, and one would take 2,048 MiB at n = 128.
In the kinetic cases every cell is Aubry and every axis invariant, so the
quotient and the coverings read the Mather distance as one offset table;
the n = 128 case must stay below 300 MiB and the n = 256 case (an N x N
float array would take 32 GiB) below 300 MiB too: it peaks near
170 MiB since no stencil consumer holds an (S, N) table beside the
weights and the stencil graph (S = 49 offsets; one float table is
25 MiB there). The mechanical case, whose Aubry set is one circle of
128 cells, must stay below 300 MiB. The Mane zero-field case has the
kinetic kernel, and its `comparison` stage
measures the Hausdorff distance between two sets of all N cells, the
Aubry set and the chain-recurrent set; it must stay below 200 MiB, and
its `comparison.json` must record a distance of 0.0. The 1-d pendulum at
n = 2,048 (`BARRIER_DUMP_LIMIT`) writes the largest `barrier.csv` the
pipeline writes, 4.19 million rows and 113 MB, and must stay below
100 MiB (it peaks near 65 MiB), so a writer that holds the whole file's
text, or gathers more of the barrier than one CSV slice at a time,
fails. The 1-d kinetic model at n = 2,048 writes the same file, but
every cell is critical there, so it is the only case that reads the
barrier's rolled slab row in row blocks at scale; it must stay below
100 MiB too (it peaks near 66 MiB). The run's wall time,
and each stage's `wall_time_s` and `peak_rss_mb` (the child's high-water
mark when that stage ended) from its manifest, in the manifest's
`stage_order`, are printed, never checked. Exits 1 when a check fails.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the benchmark gate's bound on quotient.json's representation_max_residual
RESIDUAL_LIMIT = 1e-8

CASES = [
    # (name, model, dimension, cells per axis, peak limit in MiB)
    ("kinetic-2d-128", {"family": "kinetic"}, 2, 128, 300),
    ("kinetic-2d-256", {"family": "kinetic"}, 2, 256, 300),
    ("mechanical-2d-128", {"family": "mechanical",
                           "potential": {"name": "cosine", "k": [1, 0]}}, 2, 128, 300),
    ("mane-zero-2d-128", {"family": "mane", "field": {"name": "zero"}}, 2, 128, 200),
    ("pendulum-1d-2048", {"family": "mechanical",
                          "potential": {"name": "cosine", "k": [1]}}, 1, 2048, 100),
    ("kinetic-1d-2048", {"family": "kinetic"}, 1, 2048, 100),
]


def read_json(out: str, name: str):
    """A JSON file of the child's run, or None if it wrote none."""
    try:
        with open(os.path.join(out, "run", name)) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def run(model: dict, dim: int, n: int, out: str) -> tuple:
    """Exit code, peak RSS in MiB and wall seconds of one child run."""
    path = os.path.join(out, "config.json")
    with open(path, "w") as f:
        json.dump({"model": model, "grid": {"dim": dim, "n": n},
                   "outputs": {"directory": os.path.join(out, "run")}}, f)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "weakkam.cli", "all", "--config", path],
                             env=env)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return child.returncode, usage.ru_maxrss / 1024, wall


def main() -> int:
    failed = []
    for name, model, dim, n, limit in CASES:
        with tempfile.TemporaryDirectory() as out:
            code, peak, wall = run(model, dim, n, out)
            manifest = read_json(out, "manifest.json") or {}
            residual = (read_json(out, "quotient.json") or {}).get("representation_max_residual")
            comparison = read_json(out, "comparison.json") or {}
        print(f"{name}: exit {code}, peak RSS {peak:.1f} MiB, {wall:.1f} s", flush=True)
        for stage in manifest.get("stage_order", []):
            record = manifest["stages"][stage]
            print(f"  {stage}: {record['wall_time_s']:.2f} s, "
                  f"peak RSS {record['peak_rss_mb']:.1f} MiB", flush=True)
        if code != 0:
            failed.append(f"{name} exited {code}")
        if not (isinstance(residual, float) and residual <= RESIDUAL_LIMIT):
            failed.append(f"{name} recorded representation residual {residual}, "
                          f"limit {RESIDUAL_LIMIT}")
        if model["family"] == "mane" and comparison.get("hausdorff_distance") != 0.0:
            failed.append(f"{name} recorded Hausdorff distance "
                          f"{comparison.get('hausdorff_distance')}, expected 0.0")
        if peak >= limit:
            failed.append(f"{name} peaked at {peak:.1f} MiB, limit {limit} MiB")
    for reason in failed:
        print(f"FAIL: {reason}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
