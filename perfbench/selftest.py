"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs run.py on shrunken copies of every workload, with and without
tracing and on two seeds, and checks that the result line carries exactly
the metrics BENCHMARK.json declares, with their units. Then tampers with
a run's artifacts and checks that the gate and the determinism check
reject them. Exits 0 when every check holds.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import sys

import run
from workloads import WORKLOADS

# reference counts at these sizes were recorded the same way as the full ones
TINY = {
    "pendulum-1d": dict(n=64),
    "drift-2d": dict(n=16, chain_size=4),
    "kinetic-2d": dict(n=16, aubry_size=256, class_count=256),
}


def check(cond, msg):
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def declared(kind) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def run_emits_declared_metrics():
    for name in WORKLOADS:
        for seed, trace in ((1, 0), (2, 1)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", str(seed),
                                 "--seconds", "0.1", "--trace", str(trace)])
            check(code == 0, f"{name} trace {trace}: exit code {code}")
            result = json.loads(out.getvalue().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
                  f"{name} seed {seed}: gate failed: {result}")
            want = declared("per_layer" if trace else "end_to_end")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name} trace {trace}: metrics {got} != declared {want}")
            for k, v in result["metrics"].items():
                check(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]),
                      f"{name}: {k} = {v['value']!r}")
            print(f"selftest: {name} seed {seed} trace {trace}: "
                  f"{len(got)} metrics, {result['attempted']} runs gated", flush=True)


def _rewrite_checksum(out_dir, name):
    path = os.path.join(out_dir, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    with open(os.path.join(out_dir, name), "rb") as f:
        manifest["checksums"][name] = hashlib.sha256(f.read()).hexdigest()
    with open(path, "w") as f:
        json.dump(manifest, f)


def gate_rejects_tampering():
    from gate import check_run

    w = WORKLOADS["pendulum-1d"]
    run_dir = os.path.join(run.OUT, "selftest", "tamper")
    good = run.run_once(w, 7, run_dir)
    check(not good["failures"], f"clean run failed: {good['failures']}")
    main = os.path.join(run_dir, "main")
    config = os.path.join(run_dir, "config.json")
    saved = os.path.join(run.OUT, "selftest", "saved")
    shutil.rmtree(saved, ignore_errors=True)
    shutil.copytree(main, saved)

    # an edited critical value, with the manifest checksum made to match
    crit_path = os.path.join(main, "critical.json")
    with open(crit_path) as f:
        crit = json.load(f)
    crit["c"] += 0.5
    with open(crit_path, "w") as f:
        json.dump(crit, f)
    _rewrite_checksum(main, "critical.json")
    failures = check_run(w, config, {"main": main})
    check(any("critical value" in m for m in failures), f"edited c accepted: {failures}")

    # a removed u.csv
    shutil.rmtree(main)
    shutil.copytree(saved, main)
    check(not check_run(w, config, {"main": main}), "restored run rejected")
    os.remove(os.path.join(main, "u.csv"))
    failures = check_run(w, config, {"main": main})
    check(any("u.csv" in m for m in failures), f"missing u.csv accepted: {failures}")

    # two runs of one seed whose artifacts differ
    twin = dict(good, failures=[], checksums=json.loads(json.dumps(good["checksums"])))
    twin["checksums"]["main"]["u.csv"] = "0" * 64
    run.check_determinism([good, twin])
    check(twin["failures"] and not good["failures"], "checksum mismatch not flagged")
    print("selftest: gate rejects an edited c, a removed u.csv and a checksum mismatch")


def main():
    sys.path.insert(0, run.SRC)
    run.SETUP_SAMPLES = 2
    for name, changes in TINY.items():
        WORKLOADS[name] = dataclasses.replace(WORKLOADS[name], **changes)
    run_emits_declared_metrics()
    gate_rejects_tampering()
    shutil.rmtree(os.path.join(run.OUT, "selftest"), ignore_errors=True)
    print("selftest: ok")


if __name__ == "__main__":
    main()
