"""graphgauge benchmark: one workload per call, or all of them.

Run from the repository root:

    python3 bench/run.py --workload mc-chain --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-test

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload again with spans recorded around every call into the
package and reports the per-layer metrics.  Each workload runs in fresh
child processes (``worker.py``); set-up is repeated in extra children and
its median reported.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the human-readable report, and the full record of the run
is written to ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1  # every matrix here is 3x3 or 5x5; more threads only add noise
SETUP_REPEATS = 5  # fresh processes whose fastest set-up time is reported
CYCLE_PCT = 50  # percentile of each part's time in the gated cycle_ms.p50
LOW_PCT = 10  # low percentile reported beside it as a view
TAIL_PCT = 90  # percentile reported as the op tail

with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    METRICS = json.load(_fh)
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS thread count is fixed)

OUT_DIR = os.path.join(ROOT, ".bench_out")
CHILD_SLACK_S = 120  # allowed per child on top of --seconds: set-up and final checks


# ---------------------------------------------------------------------------
# environment record and machine-speed canary
# ---------------------------------------------------------------------------


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
    }


def canary() -> dict:
    """Fixed pure-Python and 3x3 eigh loops; recorded, never used to rescale."""

    def py_loop():
        s = 0
        for i in range(200_000):
            s += i * i
        return s

    a = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 3.0]])

    def eigh_loop():
        for _ in range(2000):
            np.linalg.eigh(a)

    out = {}
    for name, fn in (("py_loop_ms", py_loop), ("eigh_loop_ms", eigh_loop)):
        times = []
        for _ in range(5):
            t = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t) * 1e3)
        out[name] = statistics.median(times)
    return out


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def quantile(values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    xs = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def grouped(ops, key: str, traced: bool = False) -> dict:
    """Seconds per family (key "family") or per part (key "parts") of the
    untraced ops, or of the traced ones."""
    out = {}
    for op in ops:
        if op["traced"] != traced:
            continue
        items = op["parts"].items() if key == "parts" else [(op["family"], op["s"])]
        for name, seconds in items:
            out.setdefault(name, []).append(seconds)
    return out


def cycle_ms(ops, pct: float) -> float:
    """Sum over the parts of one op cycle of each part's ``pct`` percentile, in ms."""
    return 1e3 * sum(quantile(v, pct)[0] for v in grouped(ops, "parts").values())


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
        "--root", ROOT,
    ]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=seconds + CHILD_SLACK_S,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} worker for {workload} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def counted_checks(res: dict) -> tuple[int, int, list]:
    attempted = res["attempted_ops"] + len(res["final_checks"])
    failed = res["failed_ops"] + sum(1 for c in res["final_checks"] if c["failures"])
    messages = list(res["messages"])
    for c in res["final_checks"]:
        messages += [f"{c['name']}: {m}" for m in c["failures"]]
    return attempted, failed, messages


def run_end_to_end(name: str, seed: int, seconds: float, record: dict) -> tuple[dict, int, int]:
    wspec = SPEC["workloads"][name]
    setups = [worker(name, seed, seconds, "setup")["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    res = worker(name, seed, seconds, "run")
    setups.append(res["setup_s"])
    attempted, failed, messages = counted_checks(res)
    pct = CYCLE_PCT
    metrics = {
        "setup_s": min(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        f"cycle_ms.p{pct}": cycle_ms(res["ops"], pct),
    }
    # Per-workload views (op median and tail, per-family and per-command
    # times), reported but not gated: see "Why the gated timing is a sum of
    # per-part medians" in README.md.
    times = [op["s"] for op in res["ops"]]
    op, unit = wspec["op_name"], wspec["op_unit"]
    scale = 1e3 if unit == "ms" else 1.0
    tail_value, beyond = quantile(times, TAIL_PCT)
    views = {
        f"{op}_{unit}.p50": (statistics.median(times) * scale, unit),
        f"{op}_{unit}.tail": (tail_value * scale, unit),
        "ops_per_s": (len(times) / res["loop_s"], "1/s"),
        f"cycle_ms.p{LOW_PCT}": (cycle_ms(res["ops"], LOW_PCT), "ms"),
    }
    families, parts = grouped(res["ops"], "family"), grouped(res["ops"], "parts")
    if len(families) > 1:
        for fam, v in families.items():
            views[f"{fam}_ms.p50"] = (statistics.median(v) * 1e3, "ms")
    if parts.keys() != families.keys():
        for part, v in parts.items():
            views[f"{part}_s.p{pct}"] = (quantile(v, pct)[0], "s")
            views[f"{part}_s.p{LOW_PCT}"] = (quantile(v, LOW_PCT)[0], "s")
    for key, value in res["summary"].items():
        if isinstance(value, (int, float)):
            views[key] = (value, "")
    views["failed_frac"] = (failed / attempted, "ratio")
    record.update(
        setup_runs_s=setups,
        ops=len(times),
        loop_s=res["loop_s"],
        tail={"pct": TAIL_PCT, "samples": len(times), "beyond": beyond},
        views={k: {"value": v, "unit": u} for k, (v, u) in views.items()},
        op_records=res["ops"],
        summary=res["summary"],
        failures=messages,
        final_checks=res["final_checks"],
    )
    return metrics, attempted, failed


def run_traced(name: str, seed: int, seconds: float, record: dict) -> tuple[dict, int, int]:
    res = worker(name, seed, seconds, "trace")
    attempted, failed, messages = counted_checks(res)
    attempted += 1
    if res["coverage"]:
        failed += 1
        messages += res["coverage"]
    traced = [op for op in res["ops"] if op["traced"]]
    # Overhead from the interleaved stretch only, so host drift hits both sides alike.
    interleaved = res["ops"][: 2 * len(traced)]
    traced_p50 = {
        f: statistics.median(v) for f, v in grouped(interleaved, "family", traced=True).items()
    }
    untraced_p50 = {f: statistics.median(v) for f, v in grouped(interleaved, "family").items()}
    metrics = dict(res["per_layer"])
    parts = grouped(res["ops"], "parts")
    for argv in SPEC["workloads"]["cli-kinds"]["params"]["commands"]:
        kind = argv[0]
        metrics[f"cli.{kind}_s"] = quantile(parts[kind], CYCLE_PCT)[0] if kind in parts else 0.0
    metrics["trace.overhead"] = sum(traced_p50.values()) / sum(untraced_p50[f] for f in traced_p50)
    metrics["trace.traced_ops"] = len(traced)
    metrics["trace.spans"] = res["spans"]
    record.update(
        traced_ops=len(traced),
        untraced_ops=len(res["ops"]) - len(traced),
        overhead_by_family={f: traced_p50[f] / untraced_p50[f] for f in traced_p50},
        spans_file=res["spans_file"],
        coverage=res["coverage"],
        failures=messages,
        layers=res["aggregate"],
    )
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    record["environment"] = environment()
    record["canary_start"] = canary()
    try:
        if trace:
            metrics, attempted, failed = run_traced(name, seed, seconds, record)
        else:
            metrics, attempted, failed = run_end_to_end(name, seed, seconds, record)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, json.JSONDecodeError) as err:
        print(f"bench: {name}: {err}", file=sys.stderr)
        return 1
    record["canary_end"] = canary()
    declared = METRICS["per_layer" if trace else "end_to_end"]
    if sorted(m["name"] for m in declared) != sorted(metrics):
        print(f"bench: metrics {sorted(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    record["metrics"] = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print(f"graphgauge benchmark: workload={name} seed={seed} seconds={seconds:g} trace={trace}")
    print(
        f"environment: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
        f"blas_threads={env['blas_threads']}"
    )
    for when in ("canary_start", "canary_end"):
        c = record[when]
        print(f"{when}: py_loop {c['py_loop_ms']:.2f} ms, eigh_loop {c['eigh_loop_ms']:.2f} ms")
    for key, m in record["metrics"].items():
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        t = record["tail"]
        print(
            f"  views (reported, not gated); tail = p{t['pct']} of {t['samples']} ops, "
            f"{t['beyond']} beyond it:"
        )
        for key, v in record["views"].items():
            print(f"    {key:<38} {v['value']:>14.6g} {v['unit']}")
    else:
        print(
            f"  traced ops {record['traced_ops']}, untraced ops {record['untraced_ops']}, "
            f"spans in {record['spans_file']}"
        )
        print(f"  coverage check: {'passed' if not record['coverage'] else 'FAILED'}")
    for msg in record["failures"][:20]:
        print(f"  FAILED: {msg}")
    print(f"  full record: {os.path.relpath(path, ROOT)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    results = {}
    for name in SPEC["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: {name} failed", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="graphgauge benchmark")
    parser.add_argument("--workload", help="a workload name from bench/workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=METRICS["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-test", action="store_true", help="check that corrupted outputs count as failed"
    )
    args = parser.parse_args()
    if args.self_test:
        import selftest

        return selftest.main(ROOT)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in SPEC["workloads"]:
        parser.error(f"--workload must be one of {sorted(SPEC['workloads'])} or 'all'")
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
