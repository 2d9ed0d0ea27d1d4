"""Regenerate bench/reference.json, the reference values the benchmark checks against.

Run from the repository root:

    python3 bench/make_reference.py

The file holds three things, all computed with the graphgauge code in
``src/`` at the time of running:

* ``mc-chain``: the average plaquette after every sweep of independent
  mc-chain runs (same set-up and random stream layout as the benchmark),
  for reference seeds that the benchmark is never run with.  The
  benchmark compares its own trajectory against their mean.
* ``mc-run``: the post-burn-in mean plaquette of the ``mc-run`` command
  used by cli-kinds, for many reference seeds.
* ``cli``: the outputs of the deterministic cli-kinds commands, with the
  tolerances the benchmark applies to them.

Regenerating the file changes what the benchmark accepts as correct, so it
is done only in a change that defines or corrects the benchmark.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

MC_CHAIN_SEEDS = list(range(1000, 1008))
MC_CHAIN_SWEEPS = 400
MC_RUN_SEEDS = list(range(2000, 2064))


def _mc_chain_trajectory(seed: int) -> list:
    import workloads

    spec = workloads.load_spec()["workloads"]["mc-chain"]["params"]
    import graphgauge

    wl = workloads.McChain(spec, ROOT)
    wl.setup(graphgauge, seed)
    return [wl.sweep()[1] for _ in range(MC_CHAIN_SWEEPS)]


def _mc_run_mean(seed: int) -> float:
    import workloads
    from graphgauge import cli

    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, workloads.OUT_DIR)) as tmp:
        out = os.path.join(tmp, "r.json")
        argv = workloads.cli_argv("mc-run", seed) + ["--out", out]
        if cli.main(argv) != 0:
            raise RuntimeError(f"mc-run failed for seed {seed}")
        report = cli.load_report(out)
    return report.summary["mean_plaquette"]


def _deterministic_outputs() -> dict:
    import checks
    import workloads
    from graphgauge import cli

    out_spec = {}
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, workloads.OUT_DIR)) as tmp:
        for kind, fields in workloads.CLI_REFERENCE_FIELDS.items():
            out = os.path.join(tmp, kind + ".json")
            if cli.main(workloads.cli_argv(kind, 0) + ["--out", out]) != 0:
                raise RuntimeError(f"{kind} failed")
            report = cli.load_report(out)
            out_spec[kind] = {
                path: {"value": checks.report_field(report, path), "rtol": rtol, "atol": atol}
                for path, (rtol, atol) in fields.items()
            }
    return out_spec


def main() -> int:
    import workloads

    os.makedirs(os.path.join(ROOT, workloads.OUT_DIR), exist_ok=True)
    import graphgauge

    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count()) as pool:
        chains = pool.map(_mc_chain_trajectory, MC_CHAIN_SEEDS)
        means = pool.map(_mc_run_mean, MC_RUN_SEEDS)
    ref = {
        "graphgauge_version": graphgauge.__version__,
        "mc-chain": {"seeds": MC_CHAIN_SEEDS, "plaquette": chains},
        "mc-run": {"seeds": MC_RUN_SEEDS, "mean_plaquette": means},
        "cli": _deterministic_outputs(),
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
