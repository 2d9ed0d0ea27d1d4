"""Show that the benchmark counts a corrupted output as failed.

For each workload, the real set-up runs, one clean op must pass its checks,
and then one output is corrupted the way a broken change could corrupt it;
the workload's own checks must report it.  Run with
``python3 bench/run.py --self-test``.
"""

from __future__ import annotations

import os
import sys

import numpy as np


def _expect(label: str, failures: list, corrupted: bool) -> bool:
    ok = bool(failures) == corrupted
    verdict = "ok" if ok else "WRONG"
    shown = failures[0] if failures else "no failure"
    print(f"self-test {label}: {verdict} ({shown})")
    return ok


def main(root: str) -> int:
    sys.path.insert(0, os.path.join(root, "src"))
    import graphgauge as gg

    import checks
    import workloads

    spec = workloads.load_spec()["workloads"]
    reference = workloads.load_reference()
    seed = 7
    results = []

    # mc-chain: a non-unitary link, an impossible acceptance, a shifted trajectory.
    wl = workloads.McChain(spec["mc-chain"]["params"], root, reference)
    wl.setup(gg, seed)
    results.append(_expect("mc-chain clean sweep", wl.op(0)[1], False))
    clean_field = checks.check_links_valid(gg.wilson, wl.lf)
    results.append(_expect("mc-chain clean final field", clean_field, False))
    bad = wl.lf.copy()
    bad.su[3, 2] *= 1.01
    bad_field = checks.check_links_valid(gg.wilson, bad)
    results.append(_expect("mc-chain non-unitary link", bad_field, True))
    action = gg.wilson.wilson_action(wl.lf, wl.g, wl.p["beta"])
    results.append(
        _expect(
            "mc-chain plaquette off the action",
            checks.check_plaquette_matches_action(wl.plaq[-1] + 1e-9, action, wl.p["beta"]),
            True,
        )
    )
    results.append(_expect("mc-chain acceptance above 1", checks.check_sweep(1.5, 0.4, 3), True))
    chains = reference["mc-chain"]["plaquette"]

    def trajectory(plaq):
        p = wl.p
        return checks.check_plaquette_trajectory(plaq, chains, p["burn_in"], p["band_sigmas"])[0]

    results.append(_expect("mc-chain reference trajectory", trajectory(chains[0][:160]), False))
    shifted = [p + 0.1 for p in chains[0][:160]]
    results.append(_expect("mc-chain shifted trajectory", trajectory(shifted), True))

    # covariance-8x4: every family's output perturbed by one link.
    wl = workloads.Covariance(spec["covariance-8x4"]["params"], root, reference)
    wl.setup(gg, seed)
    for i in range(3):
        family, failures = wl.op(i)
        results.append(_expect(f"covariance-8x4 clean {family}", failures, False))
    clean_transform = wl.transform
    nudge = gg.liealg.random_sun_near_identity(3, 1e-6, np.random.default_rng(seed))

    def perturbed(family, k):
        moved = clean_transform(family, k)
        moved.su[11, 0] = nudge @ moved.su[11, 0]
        return moved

    wl.transform = perturbed
    for i in range(3):
        family, failures = wl.op(i)
        results.append(_expect(f"covariance-8x4 perturbed {family}", failures, True))

    # cli-kinds: one report field changed between writing and reading back.
    wl = workloads.CliKinds(spec["cli-kinds"]["params"], root, reference)
    wl.setup(gg, seed)
    try:
        results.append(_expect("cli-kinds clean pass", wl.op(0)[1], False))
        clean_load = gg.cli.load_report

        def corrupted_load(path):
            report = clean_load(path)
            if report.spec["kind"] == "oned-demo":
                report.records[0]["sigma"] *= 1.001
            return report

        gg.cli.load_report = corrupted_load
        try:
            results.append(_expect("cli-kinds altered oned-demo sigma", wl.op(1)[1], True))
        finally:
            gg.cli.load_report = clean_load
    finally:
        wl.teardown()

    passed = sum(results)
    print(f"self-test: {passed} of {len(results)} cases behaved as expected")
    return 0 if passed == len(results) else 1
