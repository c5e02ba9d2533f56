"""The benchmark's fixed workloads and the reference values its gate checks.

Each workload is a list of `weakkam` CLI invocations on one generated
config. Default kernel and solver settings are used throughout; the
benchmark seed reaches the program only as the config's `seed`, which
sets the random initial guess u0 of the weak KAM solve.
"""

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: dict
    dim: int
    n: int
    # (CLI subcommand, output subdirectory) per invocation, run in order
    commands: tuple
    # independent oracle for the critical value: |c - target| <= slack * spacing
    c_target: float
    c_slack: float
    # reference counts recorded at the commit that defined the benchmark;
    # None where the workload does not produce the artifact
    aubry_size: Optional[int] = None
    class_count: Optional[int] = None
    chain_size: Optional[int] = None

    def config(self, seed: int, out_dir: str) -> dict:
        return {
            "model": self.model,
            "grid": {"dim": self.dim, "n": self.n},
            "outputs": {"directory": out_dir},
            "seed": seed,
        }


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="pendulum-1d",
            why="1-d pendulum, weakkam all: the all-sources closure and the damped "
                "value iteration dominate; one Aubry cell; writes the 6.7 MB barrier.csv",
            model={"family": "mechanical", "potential": {"name": "cosine", "k": [1]}},
            dim=1, n=512,
            commands=(("all", "main"),),
            c_target=1.0, c_slack=10.0,
            aubry_size=1, class_count=1,
        ),
        Workload(
            name="drift-2d",
            why="2-d Mane sin_gradient drift, weakkam then chains: Karp's (N+1)xN "
                "tables set time and peak memory; covers the drift-only chains stage",
            model={"family": "mane", "field": {"name": "sin_gradient"}},
            dim=2, n=64,
            commands=(("weakkam", "main"), ("chains", "chains")),
            c_target=0.0, c_slack=5.0,
            chain_size=12,
        ),
        Workload(
            name="kinetic-2d",
            why="2-d kinetic, weakkam all: invariant shortcuts make the closure cheap "
                "and every cell is Aubry, so dense Aubry/quotient/covering work dominates",
            model={"family": "kinetic"},
            dim=2, n=64,
            commands=(("all", "main"),),
            c_target=0.0, c_slack=0.0,
            aubry_size=4096, class_count=4096,
        ),
    )
}
