"""Artifact digests: the sha256 of every file a set of fixed runs writes.

    python3 scripts/artifact_digests.py > digests.txt

Runs each case below at seeds 1 and 7, each CLI invocation in its own
child process from this checkout's `src/`, and prints one line per
artifact, `case-seedN/file sha256`, in a fixed order. `manifest.json` is
left out: it records wall times and memory. Two checkouts whose outputs
`diff` equal wrote byte-identical artifacts. The cases cover every model
family and field, both dimensions, the rolled (every cell critical) and
the representative barrier, the chains and comparison stages and one
ferry run. Most `all` cases label every Aubry cell `stationary`;
`mane-constant-10-2d-32` labels all 1,024 `periodic`. Exits 1 when a
run does not exit 0.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 7)


def _mechanical(*k):
    return {"family": "mechanical", "potential": {"name": "cosine", "k": list(k)}}


def _mane(**field):
    return {"family": "mane", "field": field}


CASES = [
    # (name, CLI subcommand, model, dimension, cells per axis)
    ("pendulum-1d", "all", _mechanical(1), 1, 512),
    ("drift-2d-weakkam", "weakkam", _mane(name="sin_gradient"), 2, 64),
    ("drift-2d-chains", "chains", _mane(name="sin_gradient"), 2, 64),
    ("kinetic-2d-64", "all", {"family": "kinetic"}, 2, 64),
    ("kinetic-2d-128", "all", {"family": "kinetic"}, 2, 128),
    ("kinetic-1d-512", "all", {"family": "kinetic"}, 1, 512),
    ("mechanical-10-2d-64", "all", _mechanical(1, 0), 2, 64),
    ("mechanical-11-2d-48", "all", _mechanical(1, 1), 2, 48),
    ("double-well-1d-256", "all", _mechanical(2), 1, 256),
    ("mane-zero-2d-32", "all", _mane(name="zero"), 2, 32),
    ("mane-constant-2d-32", "all", _mane(name="constant", components=[0.5, 0.25]), 2, 32),
    ("mane-neg-grad-2d-32", "all",
     _mane(name="neg_grad", potential={"name": "cosine", "k": [1, 0]}), 2, 32),
    ("mane-constant-1d-256", "all", _mane(name="constant", components=[0.5]), 1, 256),
    ("mane-constant-10-2d-32", "all", _mane(name="constant", components=[1.0, 0.0]), 2, 32),
    ("mane-sin-gradient-2d-24", "all", _mane(name="sin_gradient"), 2, 24),
    ("ferry", "ferry", {"family": "kinetic"}, 2, 16),
]

# the ferry case's points: 24 fixed points of T^2 written to a CSV
FERRY_POINTS = [((7 * i % 24) / 24, (5 * i % 17) / 17) for i in range(24)]


def digests(out: str) -> list:
    """(relative path, sha256) of every file under out but the manifest, sorted."""
    found = []
    for name in sorted(os.listdir(out)):
        if name != "manifest.json":
            with open(os.path.join(out, name), "rb") as f:
                found.append((name, hashlib.sha256(f.read()).hexdigest()))
    return found


def run(case: str, command: str, model: dict, dim: int, n: int, seed: int, tmp: str) -> int:
    """Exit code of one CLI child writing into tmp/case/run."""
    out = os.path.join(tmp, case)
    os.makedirs(out)
    cfg = {"model": model, "grid": {"dim": dim, "n": n}, "seed": seed,
           "outputs": {"directory": os.path.join(out, "run")}}
    if command == "ferry":
        points = os.path.join(out, "points.csv")
        with open(points, "w") as f:
            f.write("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in FERRY_POINTS))
        cfg["ferry"] = {"points": points}
    path = os.path.join(out, "config.json")
    with open(path, "w") as f:
        json.dump(cfg, f)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-m", "weakkam.cli", command, "--config", path],
                          env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for name, command, model, dim, n in CASES:
                case = f"{name}-seed{seed}"
                code = run(case, command, model, dim, n, seed, tmp)
                if code != 0:
                    failed.append(f"{case} exited {code}")
                    continue
                for fname, digest in digests(os.path.join(tmp, case, "run")):
                    print(f"{case}/{fname} {digest}", flush=True)
    for reason in failed:
        print(f"FAIL: {reason}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
