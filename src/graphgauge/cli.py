"""Command line front end for the standard experiments.

Every experiment runs from a small declarative spec: a kind, a parameter
dict, and (for randomized kinds) an explicit seed.  Reports carry the spec
that produced them, a list of per-measurement records, and a summary with
the wall time, as JSON or CSV.

Exit codes follow the usual convention for checks:

* 0: the experiment ran and every threshold held;
* 1: the experiment ran but a threshold was violated (the report then
  contains a machine readable failure record per violated check);
* 2: the spec itself was unusable (unknown kind, missing or invalid
  parameter); the diagnostic names the offending field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import baseline, liealg, potential, sampler, wilson
from .graphlat import build_hypercubic

KINDS = (
    "covariance-sweep",
    "oned-demo",
    "embedded-violation",
    "continuum-check",
    "mc-run",
    "flatness-check",
)

# Kinds whose measurements depend on drawn randomness.  These refuse to run
# without an explicit seed, so no report is silently irreproducible.
RANDOMIZED_KINDS = ("covariance-sweep", "mc-run", "flatness-check")


class SpecError(ValueError):
    """The experiment spec cannot be executed as given."""


@dataclass
class ExperimentSpec:
    kind: str
    params: dict = dc_field(default_factory=dict)
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "seed": self.seed,
        }


@dataclass
class ExperimentReport:
    spec: dict
    records: list
    summary: dict


def _param(params: dict, name: str, default=None, required: bool = False, cast=None):
    if name not in params:
        if required:
            raise SpecError(f"missing required parameter '{name}'")
        return default
    value = params[name]
    if cast is not None:
        try:
            value = cast(value)
        except (TypeError, ValueError, OverflowError) as err:
            raise SpecError(f"parameter '{name}' is invalid: {err}") from None
    return value


def _int(value) -> int:
    if float(value) != int(value):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def _spacings(value) -> list:
    out = [float(v) for v in value]
    if not out or not all(0 < v < np.inf for v in out):
        raise ValueError(f"need a non-empty list of positive finite spacings, got {out}")
    return out


def _dims(value) -> tuple:
    dims = tuple(_int(v) for v in value)
    if len(dims) != 4 or any(d < 2 for d in dims):
        raise ValueError(f"need four extents >= 2, got {dims}")
    return dims


# ---------------------------------------------------------------------------
# experiment runners: each returns (records, summary, failures)
# ---------------------------------------------------------------------------


def _run_covariance_sweep(params: dict, seed: int):
    dims = _param(params, "dims", (2, 2, 2, 2), cast=_dims)
    n_colors = _param(params, "n_colors", 2, cast=_int)
    n_transforms = _param(params, "n_transforms", 30, cast=_int)
    beta = _param(params, "beta", 2.0, cast=float)
    tol = _param(params, "tol", 1e-12, cast=float)
    if n_transforms < 1:
        raise SpecError(f"parameter 'n_transforms' must be >= 1, got {n_transforms}")
    if n_colors not in wilson.SUPPORTED_N:
        raise SpecError(f"parameter 'n_colors' must be one of {wilson.SUPPORTED_N}, got {n_colors}")

    rng = np.random.default_rng(seed)
    g = build_hypercubic(dims, periodic=True)
    lf = wilson.random_links(g, n_colors, rng)
    lf.so5 = liealg.random_so5(rng)
    base = wilson.wilson_action(lf, g, beta)
    scale = max(1.0, abs(base.raw_trace_sum))

    records = []
    worst = 0.0
    families = ("so5-global", "su-local", "automorphism")
    for i in range(n_transforms):
        family = families[i % len(families)]
        if family == "so5-global":
            moved = wilson.global_so5_conjugate(lf, liealg.random_so5(rng))
        elif family == "su-local":
            omegas = liealg.haar_random_sun(n_colors, rng, count=g.n_events)
            moved = wilson.local_gauge_links(lf, omegas)
        else:
            offset = tuple(int(o) for o in rng.integers(0, np.asarray(dims)))
            perm = g.automorphism_shift(offset)[: g.n_events]
            su = np.empty_like(lf.su)
            su[perm] = lf.su
            moved = wilson.LinkField(g, n_colors, su, lf.so5.copy())
        val = wilson.wilson_action(moved, g, beta)
        dev = abs(val.raw_trace_sum - base.raw_trace_sum) / scale
        worst = max(worst, dev)
        records.append(
            {
                "transform": i,
                "family": family,
                "rel_deviation": dev,
                "raw_trace_sum": val.raw_trace_sum,
            }
        )
    summary = {
        "base_raw_trace_sum": base.raw_trace_sum,
        "max_rel_deviation": worst,
        "tol": tol,
        "n_transforms": n_transforms,
    }
    failures = []
    if worst > tol:
        failures.append(("max_rel_deviation", worst, tol))
    return records, summary, failures


def _kink(x):
    return np.exp(-np.abs(x))


def _gauss(x):
    return np.exp(-0.5 * x * x)


_PROFILES_1D = {"kink": _kink, "gauss": _gauss}


def _run_oned_demo(params: dict, seed):
    eps_list = _param(params, "eps_list", [0.2, 0.1, 0.05], cast=_spacings)
    delta = _param(params, "delta", 0.3, cast=float)
    window = _param(params, "window", (-6.0, 6.0), cast=lambda w: tuple(map(float, w)))
    profile = _param(params, "profile", "gauss")
    if profile not in _PROFILES_1D:
        raise SpecError(
            f"parameter 'profile' must be one of {sorted(_PROFILES_1D)}, got {profile!r}"
        )
    f = _PROFILES_1D[profile]

    def density(v):
        return 0.5 * v * v

    records = []
    sigmas = []
    bit_ok = True
    for eps in eps_list:
        rep = baseline.violation_sigma_1d(f, density, eps, delta, window)
        gf = baseline.sample_on_lattice(f, eps, window)
        s_graph = baseline.action_1d_graph(gf, density)
        s_embedded = rep.extras["aligned"]
        shifted = baseline.relabel_1d(gf, 17)
        s_shift = baseline.action_1d_graph(shifted, density)
        identical = (s_graph == s_embedded) and (s_shift == s_graph)
        bit_ok = bit_ok and identical
        sigmas.append(rep.sigma)
        records.append(
            {
                "eps": eps,
                "delta": delta,
                "sigma": rep.sigma,
                "aligned": s_embedded,
                "shifted_action": rep.extras["shifted"],
                "graph_action": s_graph,
                "reference": rep.reference,
                "truncation_estimate": rep.truncation_estimate,
                "bit_identical": identical,
            }
        )
    sig = np.abs(np.asarray(sigmas))
    slope = None
    if len(eps_list) >= 2 and np.all(sig > 0):
        slope = float(np.polyfit(np.log(eps_list), np.log(sig), 1)[0])
    summary = {
        "profile": profile,
        "max_abs_sigma": float(sig.max()),
        "refinement_slope": slope,
        "bit_identical_all": bit_ok,
    }
    failures = []
    if not bit_ok:
        failures.append(("bit_identical_all", 0.0, 1.0))
    return records, summary, failures


def _run_embedded_violation(params: dict, seed):
    eps_list = _param(params, "eps_list", [0.2, 0.1], cast=_spacings)
    angle_deg = _param(params, "angle_deg", 30.0, cast=float)
    box_extent = _param(params, "box_extent", 1.6, cast=float)
    widths = _param(
        params, "widths", (0.25, 0.5, 0.35, 0.42), cast=lambda w: tuple(map(float, w))
    )
    mass = _param(params, "mass", 1.0, cast=float)
    min_slope = _param(params, "min_slope", 1.5, cast=float)
    if len(widths) != 4 or any(w <= 0 for w in widths):
        raise SpecError(f"parameter 'widths' must be four positive widths, got {widths}")

    w = np.asarray(widths)

    def field_fn(x):
        return np.exp(-0.5 * np.sum((x / w) ** 2, axis=-1))

    theta = np.deg2rad(angle_deg)
    rot = np.eye(4)
    rot[0, 0] = rot[1, 1] = np.cos(theta)
    rot[0, 1] = -np.sin(theta)
    rot[1, 0] = np.sin(theta)

    records = []
    sigmas = []
    for eps in eps_list:
        rep = baseline.violation_4d_embedded(field_fn, rot, eps, box_extent, mass)
        sigmas.append(rep.sigma)
        records.append(
            {
                "eps": eps,
                "angle_deg": angle_deg,
                "sigma": rep.sigma,
                "aligned": rep.extras["aligned"],
                "rotated": rep.extras["rotated"],
                "sites_per_axis": rep.extras["sites_per_axis"],
                "truncation_estimate": rep.truncation_estimate,
            }
        )
    sig = np.abs(np.asarray(sigmas))
    slope = None
    if len(eps_list) >= 2 and np.all(sig > 0):
        slope = float(np.polyfit(np.log(eps_list), np.log(sig), 1)[0])
    summary = {
        "angle_deg": angle_deg,
        "max_abs_sigma": float(sig.max()),
        "refinement_slope": slope,
        "min_slope": min_slope,
    }
    failures = []
    if np.any(sig == 0):
        failures.append(("max_abs_sigma", 0.0, np.finfo(float).tiny))
    elif slope is not None and slope < min_slope:
        failures.append(("refinement_slope", slope, min_slope))
    return records, summary, failures


_PAULI_1 = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_3 = np.array([[1, 0], [0, -1]], dtype=complex)


def _demo_potential(x, mu: int) -> np.ndarray:
    """Smooth su(2)-valued vector potential with noncommuting components."""
    if mu == 0:
        return 0.4 * np.sin(x[1]) * _PAULI_1 / 2 + 0.3 * np.cos(x[2]) * _PAULI_2 / 2
    if mu == 1:
        return 0.5 * np.sin(x[0] + x[2]) * _PAULI_3 / 2 + 0.2 * np.cos(x[1]) * _PAULI_1 / 2
    if mu == 2:
        return 0.3 * np.sin(x[3]) * _PAULI_2 / 2
    return 0.25 * np.cos(x[0]) * _PAULI_3 / 2


def _run_continuum_check(params: dict, seed):
    eps_list = _param(params, "eps_list", [0.2, 0.1, 0.05], cast=_spacings)
    n_colors = _param(params, "n_colors", 2, cast=_int)
    box_extent = _param(params, "box_extent", 0.4, cast=float)
    deficit_band = _param(
        params, "deficit_slope_band", (3.8, 4.2), cast=lambda b: tuple(map(float, b))
    )
    remainder_band = _param(
        params, "remainder_slope_band", (5.5, 6.5), cast=lambda b: tuple(map(float, b))
    )
    if n_colors != 2:
        raise SpecError(f"parameter 'n_colors' must be 2 for the built-in field, got {n_colors}")
    if len(eps_list) < 3:
        raise SpecError(f"parameter 'eps_list' needs three spacings to fit slopes, got {eps_list}")

    rep = wilson.continuum_convergence(
        _demo_potential,
        eps_list,
        n_colors=n_colors,
        plane=(0, 1),
        box_extent=box_extent,
        base_point=np.array([0.3, 0.2, 0.4, 0.1]),
    )
    records = [
        {
            "eps": float(rep.eps[i]),
            "deficit": float(rep.deficit[i]),
            "predicted": float(rep.predicted[i]),
            "remainder": float(rep.remainder[i]),
        }
        for i in range(len(rep.eps))
    ]
    summary = {
        "deficit_slope": rep.deficit_slope,
        "remainder_slope": rep.remainder_slope,
        "deficit_slope_band": list(deficit_band),
        "remainder_slope_band": list(remainder_band),
    }
    failures = []
    if not deficit_band[0] <= rep.deficit_slope <= deficit_band[1]:
        failures.append(("deficit_slope", rep.deficit_slope, deficit_band))
    if not remainder_band[0] <= rep.remainder_slope <= remainder_band[1]:
        failures.append(("remainder_slope", rep.remainder_slope, remainder_band))
    return records, summary, failures


def _run_mc_run(params: dict, seed: int):
    cfg = sampler.ChainConfig(
        beta=_param(params, "beta", required=True, cast=float),
        dims=_param(params, "dims", (2, 2, 2, 2), cast=_dims),
        n_colors=_param(params, "n_colors", 2, cast=_int),
        sweeps=_param(params, "sweeps", 100, cast=_int),
        burn_in=_param(params, "burn_in", 20, cast=_int),
        step_scale=_param(params, "step_scale", 0.5, cast=float),
        seed=seed,
        measure_every=_param(params, "measure_every", 1, cast=_int),
        hot_start=_param(params, "hot_start", False, cast=_bool),
        order=_param(params, "order", "checkerboard"),
    )
    try:
        cfg.validate()
    except ValueError as err:
        raise SpecError(str(err)) from None
    series = sampler.run_chain(cfg)
    records = [
        {"sweep": int(s), "avg_plaquette": float(p), "acceptance": float(a)}
        for s, p, a in zip(series.sweep_index, series.avg_plaquette, series.acceptance)
    ]
    vals = series.avg_plaquette
    summary = {
        "beta": cfg.beta,
        "n_measurements": int(vals.shape[0]),
        "mean_plaquette": float(np.mean(vals)) if vals.size else float("nan"),
        "std_plaquette": float(np.std(vals)) if vals.size else float("nan"),
        "mean_acceptance": float(np.mean(series.acceptance)) if vals.size else float("nan"),
    }
    return records, summary, []


def _run_flatness_check(params: dict, seed: int):
    dims = _param(params, "dims", (4, 4, 4, 4), cast=_dims)
    eps = _param(params, "eps", 0.05, cast=float)
    amplitude = _param(params, "amplitude", 0.5, cast=float)
    flat_tol = _param(params, "flat_tol", 5e-3, cast=float)
    min_ratio = _param(params, "min_ratio", 10.0, cast=float)
    if not 0 < eps < np.inf:
        raise SpecError(f"parameter 'eps' must be positive and finite, got {eps}")

    rng = np.random.default_rng(seed)
    g = build_hypercubic(dims, periodic=True)
    flat = potential.flat_field(g, eps)
    rep_flat = potential.flatness_residual(flat, g)
    noisy = potential.random_field(g, eps, rng, scale=amplitude)
    rep_noisy = potential.flatness_residual(noisy, g)
    ratio = rep_noisy.max_residual / rep_flat.max_residual

    records = [
        {"field": "flat", "max_residual": rep_flat.max_residual},
        {"field": "random", "max_residual": rep_noisy.max_residual},
    ]
    summary = {
        "eps": eps,
        "flat_max_residual": rep_flat.max_residual,
        "random_max_residual": rep_noisy.max_residual,
        "ratio": ratio,
        "flat_tol": flat_tol,
        "min_ratio": min_ratio,
    }
    failures = []
    if rep_flat.max_residual > flat_tol:
        failures.append(("flat_max_residual", rep_flat.max_residual, flat_tol))
    if ratio < min_ratio:
        failures.append(("ratio", ratio, min_ratio))
    return records, summary, failures


_RUNNERS = {
    "covariance-sweep": _run_covariance_sweep,
    "oned-demo": _run_oned_demo,
    "embedded-violation": _run_embedded_violation,
    "continuum-check": _run_continuum_check,
    "mc-run": _run_mc_run,
    "flatness-check": _run_flatness_check,
}


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Execute one experiment spec and assemble its report.

    Threshold violations do not raise; they are recorded as failure records
    and flagged in ``summary['status']``.  Spec problems raise SpecError.
    """
    if spec.kind not in _RUNNERS:
        raise SpecError(f"unknown experiment kind '{spec.kind}', expected one of {KINDS}")
    if spec.kind in RANDOMIZED_KINDS and spec.seed is None:
        raise SpecError(f"kind '{spec.kind}' is randomized: field 'seed' is required")
    if not isinstance(spec.params, dict):
        raise SpecError(f"field 'params' must be a table, got {type(spec.params).__name__}")

    start = time.perf_counter()
    records, summary, failures = _RUNNERS[spec.kind](spec.params, spec.seed)
    elapsed = time.perf_counter() - start

    records = list(records)
    for name, value, threshold in failures:
        records.append(
            {
                "record_type": "failure",
                "check": name,
                "value": float(value) if np.isscalar(value) else value,
                "threshold": list(threshold) if isinstance(threshold, tuple) else threshold,
            }
        )
    summary = dict(summary)
    summary["status"] = "violation" if failures else "ok"
    summary["wall_time_s"] = elapsed
    return ExperimentReport(spec=spec.to_dict(), records=records, summary=summary)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _report_json(report: ExperimentReport) -> str:
    payload = {"spec": report.spec, "records": report.records, "summary": report.summary}
    return json.dumps(payload, indent=2, default=str) + "\n"


def _report_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    buf.write("# spec: " + json.dumps(report.spec, default=str) + "\n")
    buf.write("# summary: " + json.dumps(report.summary, default=str) + "\n")
    cols = list(dict.fromkeys(key for rec in report.records for key in rec))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for rec in report.records:
        writer.writerow([_csv_cell(rec.get(c)) for c in cols])
    return buf.getvalue()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return json.dumps(value)
    return str(value)


def _coerce_cell(text: str):
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text[:1] in "[{":
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            pass
    return text


def write_report(report: ExperimentReport, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = _report_json(report)
    elif fmt == "csv":
        text = _report_csv(report)
    else:
        raise SpecError(f"field 'format' must be 'json' or 'csv', got {fmt!r}")
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise SpecError(f"field 'out' is not writable: {err}") from None


def load_report(path: str) -> ExperimentReport:
    """Read back a report written by ``write_report``, either format.

    CSV cells come back through a fixed coercion (bool, int, float, JSON
    list, string); floats are written with full precision so numeric values
    round trip exactly.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(text)
        return ExperimentReport(
            spec=payload["spec"], records=payload["records"], summary=payload["summary"]
        )
    spec: dict = {}
    summary: dict = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# spec: "):
            spec = json.loads(line[len("# spec: "):])
        elif line.startswith("# summary: "):
            summary = json.loads(line[len("# summary: "):])
        elif line.startswith("#"):
            continue
        else:
            body.append(line)
    reader = csv.reader(io.StringIO("\n".join(body)))
    rows = [row for row in reader if row]
    records = [
        {k: v for k, cell in zip(rows[0], row) if (v := _coerce_cell(cell)) is not None}
        for row in rows[1:]
    ]
    return ExperimentReport(spec=spec, records=records, summary=summary)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_param_override(text: str) -> tuple:
    if "=" not in text:
        raise SpecError(f"parameter override must look like name=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphgauge",
        description="Run the standard lattice experiments and write a report.",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="KIND")
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", help="JSON file with the parameter table")
        p.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="override one parameter (value parsed as JSON, else string)",
        )
        p.add_argument("--seed", type=int, default=None, help="seed for randomized kinds")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params: dict = {}
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    loaded = json.load(fh)
            except OSError as err:
                raise SpecError(f"field 'config' is unreadable: {err}") from None
            except json.JSONDecodeError as err:
                raise SpecError(f"field 'config' is not valid JSON: {err}") from None
            if not isinstance(loaded, dict):
                raise SpecError("field 'config' must contain a JSON object")
            params.update(loaded)
        for override in args.param:
            key, value = _parse_param_override(override)
            params[key] = value
        seed = _param(params, "seed", cast=_int) if args.seed is None else args.seed
        params.pop("seed", None)
        spec = ExperimentSpec(kind=args.kind, params=params, seed=seed)
        report = run_experiment(spec)
        write_report(report, args.out, args.format)
    except SpecError as err:
        print(f"graphgauge: error: {err}", file=sys.stderr)
        return 2
    if report.summary.get("status") == "violation":
        checks = [r["check"] for r in report.records if r.get("record_type") == "failure"]
        print(f"graphgauge: threshold violation in {', '.join(checks)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
