"""One benchmark run in a fresh process.

    python3 perfbench/child.py SPEC.json      # run the CLI invocations in SPEC
    python3 perfbench/child.py --setup-only   # import, report ready, exit

The process prints `ready` on stdout once `weakkam.cli` is imported; the
parent times set-up up to that line. It then calls `weakkam.cli.main`
once per invocation in the spec, timing from the first call to the last
return, and writes {"run_s", "exit_codes"} to the spec's result path,
plus the spans when the spec's trace is "spans" or "memory" (spans with
tracemalloc peaks).
"""

import contextlib
import importlib
import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(spec: dict) -> int:
    import weakkam.cli
    main = weakkam.cli.main
    tracer = None
    if spec["trace"]:
        import tracemalloc
        import tracing
        tracer = tracing.Tracer(memory=spec["trace"] == "memory")
        main = tracing.install(tracer)
        if tracer.memory:
            tracemalloc.start()
    codes = []
    # the CLI's one-line summary would mix with the ready protocol on stdout
    with contextlib.redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        for argv in spec["argvs"]:
            codes.append(main(argv))
            if codes[-1] != 0:
                break
        run_s = time.perf_counter() - t0
    result = {"run_s": run_s, "exit_codes": codes}
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    importlib.import_module("weakkam.cli")
    print("ready", flush=True)
    if sys.argv[1:] == ["--setup-only"]:
        sys.exit(0)
    with open(sys.argv[1]) as f:
        sys.exit(run(json.load(f)))
