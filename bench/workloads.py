"""The benchmark's workloads: set-up, one timed operation, and output checks.

Each workload reads its parameters from ``workloads.json`` and calls the
package only through module attributes (``gg.sampler.metropolis_sweep``
and so on), so the traced run sees every call.  Inputs derived from the
seed are generated in ``setup``, before timing starts.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"

# Deterministic report fields of the cli-kinds commands and the (rtol, atol)
# each must meet against bench/reference.json.  Exact fields use (0, 0).
CLI_REFERENCE_FIELDS = {
    "covariance-sweep": {"summary.n_transforms": (0.0, 0.0), "summary.tol": (0.0, 0.0)},
    "oned-demo": {
        **{f"records.{i}.sigma": (1e-8, 1e-15) for i in range(3)},
        **{f"records.{i}.aligned": (1e-12, 0.0) for i in range(3)},
        **{f"records.{i}.bit_identical": (0.0, 0.0) for i in range(3)},
        "summary.refinement_slope": (0.0, 1e-8),
        "summary.bit_identical_all": (0.0, 0.0),
    },
    "embedded-violation": {
        **{f"records.{i}.sigma": (1e-7, 0.0) for i in range(2)},
        **{f"records.{i}.aligned": (1e-10, 0.0) for i in range(2)},
        **{f"records.{i}.rotated": (1e-10, 0.0) for i in range(2)},
        **{f"records.{i}.sites_per_axis": (0.0, 0.0) for i in range(2)},
        "summary.refinement_slope": (0.0, 1e-6),
    },
    "continuum-check": {
        **{f"records.{i}.deficit": (1e-9, 0.0) for i in range(3)},
        **{f"records.{i}.predicted": (1e-9, 0.0) for i in range(3)},
        "summary.deficit_slope": (0.0, 1e-6),
        "summary.remainder_slope": (0.0, 1e-6),
    },
    "mc-run": {"summary.n_measurements": (0.0, 0.0)},
    "flatness-check": {"summary.flat_max_residual": (1e-9, 0.0)},
}


def load_spec() -> dict:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def cli_commands(params: dict, seed: int) -> list:
    """The cli-kinds command lines, with the seed filled in."""
    return [[a.replace("{seed}", str(seed)) for a in argv] for argv in params["commands"]]


def cli_argv(kind: str, seed: int) -> list:
    """The cli-kinds command line of one kind, with the seed filled in."""
    params = load_spec()["workloads"]["cli-kinds"]["params"]
    return next(argv for argv in cli_commands(params, seed) if argv[0] == kind)


def haar_stack(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` Haar SU(n) matrices, drawn in one batch (benchmark inputs only)."""
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[:, None, :]
    det = np.linalg.det(q)
    return q * np.exp(-1j * np.angle(det) / n)[:, None, None]


class Workload:
    """Set-up, a timed operation, and the checks of one workload.

    ``op(i)`` runs operation i and returns (family, failures); a workload
    whose op has named parts leaves their seconds in ``parts``.  ``finish``
    runs the end-of-run checks and returns a list of (name, failures).
    """

    name = ""

    def __init__(self, params: dict, root: str, reference: dict | None = None):
        self.p = params
        self.root = root
        self.reference = reference

    def setup(self, gg, seed: int) -> None:
        raise NotImplementedError

    def op(self, i: int) -> tuple[str, list]:
        raise NotImplementedError

    def finish(self) -> list:
        return []

    def teardown(self) -> None:
        pass

    def summary(self, op_times) -> dict:
        return {}


class McChain(Workload):
    name = "mc-chain"

    def setup(self, gg, seed):
        p = self.p
        self.gg = gg
        self.rng = np.random.default_rng(seed)
        self.g = gg.graphlat.build_hypercubic(tuple(p["dims"]), periodic=True)
        self.lf = gg.wilson.random_links(self.g, p["n_colors"], self.rng)
        gg.wilson.validate_links(self.lf)
        gg.sampler.staple_sum(self.lf, self.g, 0, 1)
        self.plaq = []
        self.acc = []

    def sweep(self) -> tuple[float, float]:
        p, gg = self.p, self.gg
        self.lf, acc = gg.sampler.metropolis_sweep(
            self.lf, self.g, p["beta"], p["step_scale"], self.rng, p["order"]
        )
        plaq = gg.sampler.average_plaquette(self.lf, self.g)
        self.acc.append(acc)
        self.plaq.append(plaq)
        return acc, plaq

    def op(self, i):
        acc, plaq = self.sweep()
        return "sweep", checks.check_sweep(acc, plaq, self.p["n_colors"])

    def finish(self):
        p, gg = self.p, self.gg
        action = gg.wilson.wilson_action(self.lf, self.g, p["beta"])
        traj, self.band_info = checks.check_plaquette_trajectory(
            self.plaq, self.reference["mc-chain"]["plaquette"], p["burn_in"], p["band_sigmas"]
        )
        return [
            ("final field passes validate_links", checks.check_links_valid(gg.wilson, self.lf)),
            (
                "last plaquette equals 1 - S/(beta n_p)",
                checks.check_plaquette_matches_action(self.plaq[-1], action, p["beta"]),
            ),
            ("plaquette trajectory within band", traj),
        ]

    def summary(self, op_times):
        links = self.g.n_transitions
        return {
            "link_updates_per_s": links * len(op_times) / sum(op_times),
            "mean_acceptance": float(np.mean(self.acc)),
            "plaquette_band": getattr(self, "band_info", {}),
        }


class Covariance(Workload):
    name = "covariance-8x4"

    def setup(self, gg, seed):
        p = self.p
        self.gg = gg
        rng = np.random.default_rng(seed)
        n = p["n_colors"]
        self.g = gg.graphlat.build_hypercubic(tuple(p["dims"]), periodic=True)
        self.lf = gg.wilson.random_links(self.g, n, rng)
        self.lf.so5 = gg.liealg.random_so5(rng)
        gg.wilson.validate_links(self.lf)
        self.base = gg.wilson.wilson_action(self.lf, self.g, p["beta"])
        self.so5s = [gg.liealg.random_so5(rng) for _ in range(p["so5_pool"])]
        self.omegas = [haar_stack(rng, self.g.n_events, n) for _ in range(p["site_matrix_pool"])]
        self.offsets = [
            tuple(int(o) for o in rng.integers(0, np.asarray(p["dims"])))
            for _ in range(p["offset_pool"])
        ]

    def transform(self, family: str, k: int):
        gg, lf, g = self.gg, self.lf, self.g
        if family == "so5-global":
            return gg.wilson.global_so5_conjugate(lf, self.so5s[k % len(self.so5s)])
        if family == "su-local":
            return gg.wilson.local_gauge_links(lf, self.omegas[k % len(self.omegas)])
        perm = g.automorphism_shift(self.offsets[k % len(self.offsets)])[: g.n_events]
        su = np.empty_like(lf.su)
        su[perm] = lf.su
        return gg.wilson.LinkField(g, lf.n_colors, su, lf.so5.copy())

    def op(self, i):
        families = self.p["families"]
        family = families[i % len(families)]
        moved = self.transform(family, i // len(families))
        value = self.gg.wilson.wilson_action(moved, self.g, self.p["beta"])
        return family, checks.check_transform(family, value, self.base, self.p["rel_tol"])


class CliKinds(Workload):
    name = "cli-kinds"

    def setup(self, gg, seed):
        self.gg = gg
        self.seed = seed
        out_dir = os.path.join(self.root, OUT_DIR)
        os.makedirs(out_dir, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-kinds-", dir=out_dir)
        self.parts = {}
        self.written = None
        # Keep the report cli.main hands to write_report, to compare with the
        # one read back.
        self._write_report = gg.cli.write_report

        def capture(report, out, fmt):
            self.written = report
            return self._write_report(report, out, fmt)

        gg.cli.write_report = capture

    def run_command(self, argv, out_path) -> tuple[list, float]:
        cli = self.gg.cli
        kind = argv[0]
        self.written = None
        t0 = time.perf_counter()
        code = cli.main(argv + ["--out", out_path])
        loaded = cli.load_report(out_path)
        dt = time.perf_counter() - t0
        refs = self.reference["cli"].get(kind, {})
        failures = checks.check_command(kind, code, self.written, loaded, refs)
        if kind == "mc-run" and not failures:
            series = [r["avg_plaquette"] for r in loaded.records]
            ok, info = checks.band(
                loaded.summary["mean_plaquette"],
                series,
                self.reference["mc-run"]["mean_plaquette"],
                self.p["band_sigmas"],
            )
            if not ok:
                failures.append(f"mc-run: mean plaquette {info['z']:.2f} sigma from reference")
        return failures, dt

    def op(self, i):
        failures = []
        for argv in cli_commands(self.p, self.seed):
            out_path = os.path.join(self.tmp, argv[0] + ".json")
            fail, self.parts[argv[0]] = self.run_command(argv, out_path)
            failures += fail
        return "pass", failures

    def teardown(self):
        self.gg.cli.write_report = self._write_report
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (McChain, Covariance, CliKinds)}
