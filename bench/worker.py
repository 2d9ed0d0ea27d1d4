"""One workload in one fresh process: set-up, timed ops, checks.

Started by ``run.py``; not meant to be run by hand.  Modes:

* ``setup``: import graphgauge, set the workload up, report the time;
* ``run``: the same, then run ops until ``--seconds`` have passed, then
  the end-of-run checks (tracing off);
* ``trace``: install the tracer before set-up, then alternate traced and
  untraced ops (a fixed number of traced ones, so counts repeat exactly)
  until ``--seconds`` have passed, then the checks and the coverage check.

The result is printed as one JSON line on stdout; errors go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    if not os.path.isfile(os.path.join(src, "graphgauge", "__init__.py")):
        print(f"worker: no graphgauge sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import graphgauge as gg

    import tracing
    import workloads

    if not os.path.abspath(gg.__file__).startswith(src + os.sep):
        print(f"worker: imported graphgauge from {gg.__file__}, not {src}", file=sys.stderr)
        return 2
    wspec = workloads.load_spec()["workloads"][args.workload]
    wl = workloads.WORKLOADS[args.workload](wspec["params"], args.root, workloads.load_reference())
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer(gg)
        tracer.install()
        tracer.active = True
    with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
        wl.setup(gg, args.seed)
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        wl.teardown()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    traced_ops = wspec["trace_ops"] if tracer else 0
    ops = []
    failed_ops = 0
    messages = []
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while True:
        traced = i % 2 == 0 and i < 2 * traced_ops
        if tracer:
            tracer.active = traced
        t = time.perf_counter()
        with tracer.span("bench.op") if traced else contextlib.nullcontext():
            family, failures = wl.op(i)
        dt = time.perf_counter() - t
        parts = dict(getattr(wl, "parts", {})) or {family: dt}
        ops.append({"family": family, "s": dt, "traced": traced, "parts": parts})
        if failures:
            failed_ops += 1
            messages += [f"op {i}: {m}" for m in failures[:3]]
        i += 1
        if i >= 2 * traced_ops and time.perf_counter() >= deadline:
            break
    loop_s = time.perf_counter() - start
    peak_rss = _peak_rss_mb()
    if tracer:
        tracer.active = False

    final = [(name, fails) for name, fails in wl.finish()]
    wl.teardown()
    result = {
        "setup_s": setup_s,
        "loop_s": loop_s,
        "ops": ops,
        "failed_ops": failed_ops,
        "attempted_ops": len(ops),
        "messages": messages[:20],
        "final_checks": [{"name": n, "failures": f} for n, f in final],
        "peak_rss_mb": peak_rss,
        "summary": wl.summary([op["s"] for op in ops]),
    }

    if tracer:
        tracer.uninstall()
        agg = tracer.aggregate()
        result["aggregate"] = agg
        result["per_layer"] = tracing.per_layer(agg, tracer.counters)
        result["coverage"] = tracing.coverage(agg, wspec["coverage"])
        result["spans"] = len(tracer.span_name)
        out_dir = os.path.join(args.root, workloads.OUT_DIR)
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.save(path)
        result["spans_file"] = os.path.relpath(path, args.root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
