"""Benchmark of the weakkam CLI on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`.
Every run is a fresh process (perfbench/child.py) calling
`weakkam.cli.main`, one at a time. Runs repeat until the next one would
overrun `--seconds` (at least two, so the determinism check has a pair);
each run's artifacts pass the correctness gate (perfbench/gate.py) and
must carry the same manifest checksums as the first run with this seed.

With --trace 0 the metrics are end to end: median `run_s` (first
`main` call to last return), median `setup_s` (spawn to `weakkam.cli`
imported, in set-up-only processes and in every run process) and median `peak_rss_mb`
(the run process's rusage). With --trace 1 the same untraced runs are
followed by two traced runs, one with spans and one with spans and
tracemalloc, which give the per-layer metrics (perfbench/tracing.py) and
never feed the end-to-end ones.

The last stdout line is the result object; the line before it is a
record with every sample, the seed and the environment. Work files go
to .perfbench_out/ at the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "weakkam")
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

SETUP_SAMPLES = 4  # dedicated set-up processes; every run process adds one more
MIN_RUNS = 2
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def spawn(args, log_path):
    """Run child.py with args; returns (setup_s or None, exit code, peak RSS in MiB)."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=log)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.stdout.read()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    ready = line.strip() == b"ready"
    return (setup_s if ready else None), proc.returncode, usage.ru_maxrss / 1024.0


def _tail(path, lines=5) -> str:
    try:
        with open(path, errors="replace") as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def run_once(w, seed, run_dir, trace=None):
    """One fresh-process run of workload w, gated. Returns its measurements.

    trace is None, "spans" or "memory" (spans plus tracemalloc peaks).
    """
    from gate import check_run, load_manifest

    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    out_dirs = {sub: os.path.join(run_dir, sub) for _, sub in w.commands}
    config_path = os.path.join(run_dir, "config.json")
    result_path = os.path.join(run_dir, "result.json")
    spec_path = os.path.join(run_dir, "spec.json")
    log_path = os.path.join(run_dir, "stderr.log")
    with open(config_path, "w") as f:
        json.dump(w.config(seed, out_dirs[w.commands[0][1]]), f, indent=2)
    argvs = [[cmd, "--config", config_path, "--out", out_dirs[sub]] for cmd, sub in w.commands]
    with open(spec_path, "w") as f:
        json.dump({"argvs": argvs, "trace": trace, "result": result_path}, f)

    setup_s, code, rss = spawn([spec_path], log_path)
    run = {"setup_s": setup_s, "peak_rss_mb": rss, "failures": [], "checksums": None}
    if code != 0 or not os.path.exists(result_path):
        run["failures"].append(f"run process exited with code {code}: {_tail(log_path)}")
        return run
    with open(result_path) as f:
        result = json.load(f)
    run["run_s"] = result["run_s"]
    run["spans"] = result.get("spans")
    run["failures"] = check_run(w, config_path, out_dirs)
    try:
        run["checksums"] = {sub: load_manifest(d)["checksums"] for sub, d in out_dirs.items()}
    except (OSError, ValueError, KeyError):
        pass  # the gate has already reported the unreadable manifest
    return run


def check_determinism(runs):
    """Same seed, same invocation: every manifest's checksums must agree."""
    ref = next((r["checksums"] for r in runs if r["checksums"] is not None), None)
    for r in runs:
        if r["checksums"] != ref:
            r["failures"].append("manifest checksums differ from the first run with this seed")


def environment() -> dict:
    import numpy
    import scipy

    files = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    digest = hashlib.sha256()
    lines = 0
    for name in files:
        with open(os.path.join(PACKAGE, name), "rb") as f:
            data = f.read()
        digest.update(name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_weakkam_lines": lines,
    }


def measure(w, seed, seconds, trace):
    """Set-up samples, the timed loop of gated runs and the optional traced runs."""
    work = os.path.join(OUT, w.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    setup_log = os.path.join(work, "setup.log")

    # the first import in a fresh checkout also compiles bytecode; discard it
    first, code, _ = spawn(["--setup-only"], setup_log)
    if first is None or code != 0:
        raise RuntimeError(f"weakkam.cli does not import: {_tail(setup_log)}")
    setups = []
    for _ in range(SETUP_SAMPLES):
        setup_s, code, _ = spawn(["--setup-only"], setup_log)
        if setup_s is None or code != 0:
            raise RuntimeError(f"set-up process failed: {_tail(setup_log)}")
        setups.append(setup_s)

    runs = []
    run_dir = os.path.join(work, "run")
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        runs.append(run_once(w, seed, run_dir))
        took = time.perf_counter() - t0
        if len(runs) >= MIN_RUNS and time.perf_counter() - start + took > seconds:
            break
    traced = [run_once(w, seed, os.path.join(work, kind), trace=kind)
              for kind in (("spans", "memory") if trace else ())]
    check_determinism(runs + traced)
    return setups, runs, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"perfbench: no weakkam package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        setups, runs, traced = measure(w, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3

    good = [r for r in runs if not r["failures"]]
    checked = runs + traced
    failed = sum(1 for r in checked if r["failures"])
    for r in checked:
        for msg in r["failures"]:
            print(f"perfbench: FAILED {w.name} seed {args.seed}: {msg}", file=sys.stderr)
    if not good:
        print("perfbench: no run passed the gate; nothing to report", file=sys.stderr)
        return 1

    samples = {"run_s": [r["run_s"] for r in good],
               "setup_s": setups + [r["setup_s"] for r in good],
               "peak_rss_mb": [r["peak_rss_mb"] for r in good]}
    units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "samples": samples,
        "median": {k: statistics.median(v) for k, v in samples.items()},
        "sample_count": {k: len(v) for k, v in samples.items()},
        "fail_rate": sum(1 for r in runs if r["failures"]) / len(runs),
        "failures": [m for r in checked for m in r["failures"]],
        "environment": environment(),
    }
    if not traced:
        metrics = {k: {"value": record["median"][k], "unit": units[k]} for k in samples}
    else:
        if not all(r.get("spans") for r in traced):
            print("perfbench: a traced run recorded no spans", file=sys.stderr)
            return 1
        from tracing import summarize
        layer, record["spans"] = summarize(traced[0]["spans"], traced[1]["spans"],
                                           record["median"]["run_s"])
        record["spans"]["file"] = os.path.join(OUT, w.name, "spans.json")
        with open(record["spans"]["file"], "w") as f:
            json.dump({"spans": traced[0]["spans"], "memory": traced[1]["spans"]}, f)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    with open(os.path.join(OUT, w.name, "record.json"), "w") as f:
        json.dump(record, f, indent=2)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": len(checked), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
