"""Command line front end for the standard experiments.

Every experiment runs from a small declarative spec: a kind, a parameter
dict, and (for randomized kinds) an explicit seed.  Each kind declares its
parameters once, with a default and a rule (`graphlat._enforce`'s, mostly the
library's own); a spec is resolved against that table before the run, and the
report echoes the values the rules accept.  Reports carry
the spec, a list of per-measurement records, and a summary with the wall
time, as JSON or CSV.

Exit codes follow the usual convention for checks:

* 0: the experiment ran and every threshold held;
* 1: the experiment ran but a threshold was violated (the report then
  contains a machine readable failure record per violated check);
* 2: the spec itself was unusable (unknown kind; unknown, missing or
  invalid parameter); the diagnostic names the offending field.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field, replace

import numpy as np

from . import baseline, liealg, potential, sampler, wilson
from .graphlat import _DIMS, _choice, _enforce, _number, _several, build_hypercubic


class SpecError(ValueError):
    """The experiment spec cannot be executed as given."""


@dataclass
class ExperimentSpec:
    kind: str
    params: dict = dc_field(default_factory=dict)
    seed: int | None = None


@dataclass
class ExperimentReport:
    spec: dict
    records: list
    summary: dict


def _integral(value):
    """``value`` with each integral float, in lists too, as an int: JSON has one number
    type, so ``3e0`` is the count 3, and a real rule turns 3 back into 3.0."""
    if isinstance(value, list):
        return [_integral(v) for v in value]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _refinement_slope(eps_list: list, sig: np.ndarray):
    """Log-log slope of |sigma| against the spacing; None when it cannot be fit."""
    if len(eps_list) >= 2 and np.all(sig > 0):
        return float(np.polyfit(np.log(eps_list), np.log(sig), 1)[0])
    return None


# ---------------------------------------------------------------------------
# experiment runners: each returns (records, summary, failures)
# ---------------------------------------------------------------------------


def _run_covariance_sweep(params: dict, seed: int):
    dims, n_colors, tol = params["dims"], params["n_colors"], params["tol"]
    n_transforms = params["n_transforms"]
    rng = np.random.default_rng(seed)
    g = build_hypercubic(dims, periodic=True)
    lf = wilson.random_links(g, n_colors, rng)
    lf.so5 = liealg.random_so5(rng)
    # Only raw_trace_sum is read, and it does not depend on the coupling.
    base = wilson.wilson_action(lf, g, 1.0)
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
        val = wilson.wilson_action(moved, g, 1.0)
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
    eps_list, delta, window = params["eps_list"], params["delta"], params["window"]
    f = _PROFILES_1D[params["profile"]]

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
    summary = {
        "profile": params["profile"],
        "max_abs_sigma": float(sig.max()),
        "refinement_slope": _refinement_slope(eps_list, sig),
        "bit_identical_all": bit_ok,
    }
    failures = []
    if not bit_ok:
        failures.append(("bit_identical_all", 0.0, 1.0))
    return records, summary, failures


def _run_embedded_violation(params: dict, seed):
    eps_list, angle_deg, min_slope = params["eps_list"], params["angle_deg"], params["min_slope"]
    box_extent, mass, w = params["box_extent"], params["mass"], np.asarray(params["widths"])

    def field_fn(x):
        # Plane by plane, in a last-axis sum's order: a slab's planes are contiguous.
        s = (x[..., 0] / w[0]) ** 2
        for k in range(1, 4):
            s += (x[..., k] / w[k]) ** 2
        return np.exp(-0.5 * s)

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
    slope = _refinement_slope(eps_list, sig)
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


def _demo_potential(x, mu: int) -> np.ndarray:
    """Smooth su(2)-valued potential, noncommuting components, at (..., 4) points."""
    t1, t2, t3 = liealg.sun_generators(2)
    x0, x1, x2, x3 = (np.asarray(x)[..., i, None, None] for i in range(4))
    if mu == 0:
        return 0.4 * np.sin(x1) * t1 + 0.3 * np.cos(x2) * t2
    if mu == 1:
        return 0.5 * np.sin(x0 + x2) * t3 + 0.2 * np.cos(x1) * t1
    if mu == 2:
        return 0.3 * np.sin(x3) * t2
    return 0.25 * np.cos(x0) * t3


def _run_continuum_check(params: dict, seed):
    deficit_band = params["deficit_slope_band"]
    remainder_band = params["remainder_slope_band"]
    rep = wilson.continuum_convergence(
        _demo_potential,
        params["eps_list"],
        box_extent=params["box_extent"],
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
        "deficit_slope_band": deficit_band,
        "remainder_slope_band": remainder_band,
    }
    failures = []
    if not deficit_band[0] <= rep.deficit_slope <= deficit_band[1]:
        failures.append(("deficit_slope", rep.deficit_slope, deficit_band))
    if not remainder_band[0] <= rep.remainder_slope <= remainder_band[1]:
        failures.append(("remainder_slope", rep.remainder_slope, remainder_band))
    return records, summary, failures


def _run_mc_run(params: dict, seed: int):
    cfg = sampler.ChainConfig(seed=seed, **params)
    series = sampler.run_chain(cfg)
    records = [
        {"sweep": int(s), "avg_plaquette": float(p), "acceptance": float(a)}
        for s, p, a in zip(series.sweep_index, series.avg_plaquette, series.acceptance)
    ]
    vals = series.avg_plaquette
    summary = {
        "beta": cfg.beta,
        "n_measurements": int(vals.shape[0]),
        "mean_plaquette": float(np.mean(vals)),
        "std_plaquette": float(np.std(vals)),
        "mean_acceptance": float(np.mean(series.acceptance)),
    }
    return records, summary, []


def _run_flatness_check(params: dict, seed: int):
    eps, flat_tol, min_ratio = params["eps"], params["flat_tol"], params["min_ratio"]
    rng = np.random.default_rng(seed)
    g = build_hypercubic(params["dims"], periodic=True)
    flat = potential.flat_field(g, eps)
    rep_flat = potential.flatness_residual(flat, g)
    noisy = potential.random_field(g, eps, rng, scale=params["amplitude"])
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


# `_enforce` rules (field, accept, requirement) of the parameters no library call
# takes, and (accept, requirement) pairs; the other rules are the library's own.
_NUMBER = (_number(), "a finite value")
_BAND = baseline._WINDOW[1:]  # two finite values, increasing
_SPACINGS = ("eps_list", _several(potential._EPS[1], 1, distinct=True),
             "one or more distinct finite spacings > 0")

# kind -> (runner, needs_seed, rules, defaults); a default of None marks a required
# parameter, and kinds that draw randomness need a seed to be reproducible.
# mc-run has no rules here: `sampler.ChainConfig.validate` holds its table.
_EXPERIMENTS = {
    "covariance-sweep": (_run_covariance_sweep, True, (
        _DIMS, wilson._N_COLORS,
        ("n_transforms", _number(int, ge=1), "a positive integer"), ("tol", *_NUMBER),
    ), {"dims": [2, 2, 2, 2], "n_colors": 2, "n_transforms": 30, "tol": 1e-12}),
    "oned-demo": (_run_oned_demo, False, (
        _SPACINGS, baseline._DELTA, baseline._WINDOW,
        ("profile", _choice(tuple(_PROFILES_1D)), f"one of {tuple(_PROFILES_1D)}"),
    ), {"eps_list": [0.2, 0.1, 0.05], "delta": 0.3, "window": [-6.0, 6.0], "profile": "gauss"}),
    "embedded-violation": (_run_embedded_violation, False, (
        _SPACINGS, ("angle_deg", *_NUMBER), baseline._BOX, ("mass", *_NUMBER),
        ("min_slope", *_NUMBER),
        ("widths", _several(_number(gt=0), 4, 4), "four finite widths > 0"),
    ), {"eps_list": [0.2, 0.1], "angle_deg": 30.0, "box_extent": 1.6, "mass": 1.0,
        "min_slope": 1.5, "widths": [0.25, 0.5, 0.35, 0.42]}),
    "continuum-check": (_run_continuum_check, False, (
        *wilson._CONTINUUM_RULES, ("deficit_slope_band", *_BAND), ("remainder_slope_band", *_BAND),
    ), {"eps_list": [0.2, 0.1, 0.05], "box_extent": 0.4, "deficit_slope_band": [3.8, 4.2],
        "remainder_slope_band": [5.5, 6.5]}),
    "mc-run": (_run_mc_run, True, None, {
        "beta": None, "dims": [2, 2, 2, 2], "n_colors": 2, "sweeps": 100, "burn_in": 20,
        "step_scale": 0.5, "measure_every": 1, "hot_start": False, "order": "checkerboard",
    }),
    "flatness-check": (_run_flatness_check, True, (
        _DIMS, potential._EPS, ("amplitude", _number(gt=0), "a finite value > 0"),
        ("flat_tol", *_NUMBER), ("min_ratio", *_NUMBER),
    ), {"dims": [4, 4, 4, 4], "eps": 0.05, "amplitude": 0.5, "flat_tol": 5e-3, "min_ratio": 10.0}),
}
KINDS = tuple(_EXPERIMENTS)
_SEED_RULES = (sampler._SEED,)


def _resolve(spec: ExperimentSpec) -> ExperimentSpec:
    """The spec with its seed and its kind's full parameter table, defaults
    included, as the rules accept them; a value they refuse is a SpecError."""
    kind, seed = spec.kind, spec.seed
    _, _, rules, defaults = _EXPERIMENTS[kind]
    for name in spec.params:
        if name not in defaults:
            raise SpecError(f"parameter '{name}' is invalid: {kind} takes only {list(defaults)}")
    for name, default in defaults.items():
        if default is None and name not in spec.params:
            raise SpecError(f"parameter '{name}' is invalid: {kind} requires it")
    values = {name: _integral(spec.params.get(name, default)) for name, default in defaults.items()}
    try:
        if seed is not None:
            seed = _enforce(_SEED_RULES, {"seed": _integral(seed)})["seed"]
        accepted = _enforce(rules, values) if rules else sampler.ChainConfig(**values).validate()
    except ValueError as err:
        raise SpecError(str(err)) from None
    return replace(spec, params={name: accepted[name] for name in defaults}, seed=seed)


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Execute one experiment spec and assemble its report.

    Threshold violations do not raise; they are recorded as failure records
    and flagged in ``summary['status']``.  Spec problems raise SpecError.
    """
    if spec.kind not in _EXPERIMENTS:
        raise SpecError(f"unknown experiment kind '{spec.kind}', expected one of {KINDS}")
    runner, needs_seed, _, _ = _EXPERIMENTS[spec.kind]
    if needs_seed and spec.seed is None:
        raise SpecError(f"kind '{spec.kind}' is randomized: field 'seed' is required")
    if not isinstance(spec.params, dict):
        raise SpecError(f"field 'params' must be a table, got {type(spec.params).__name__}")
    spec = _resolve(spec)

    start = time.perf_counter()
    records, summary, failures = runner(spec.params, spec.seed)
    elapsed = time.perf_counter() - start

    records = list(records)
    for name, value, threshold in failures:
        records.append(
            {
                "record_type": "failure",
                "check": name,
                "value": float(value) if np.isscalar(value) else value,
                "threshold": threshold,
            }
        )
    summary = dict(summary)
    summary["status"] = "violation" if failures else "ok"
    summary["wall_time_s"] = elapsed
    return ExperimentReport(spec=asdict(spec), records=records, summary=summary)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _report_json(report: ExperimentReport) -> str:
    return json.dumps(asdict(report), indent=2, default=str) + "\n"


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
    return value if isinstance(value, str) else json.dumps(value, default=str)


def _json_or_text(text: str):
    """The JSON value a CSV cell or a --param value holds, else its bare text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
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

    A CSV cell holds a string bare and any other value as JSON text, so every
    JSON value reads back as written, floats to the last bit; a string that
    is itself JSON text reads back as that value.  An empty cell is a key
    the record does not have.
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
        {k: _json_or_text(cell) for k, cell in zip(rows[0], row) if cell != ""}
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
    return key, _json_or_text(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphgauge",
        description="Run the standard lattice experiments and write a report.",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="KIND")
    for kind, (_, _, _, defaults) in _EXPERIMENTS.items():
        epilog = "parameters (NAME=DEFAULT):" + "".join(
            f"\n  {name}" + (" (required)" if default is None else f"={json.dumps(default)}")
            for name, default in defaults.items()
        )
        p = sub.add_parser(kind, help=f"run the {kind} experiment", epilog=epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
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


# One parser per process: `--param` appends to a copy of its default list.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
        config_seed = params.pop("seed", None)
        seed = config_seed if args.seed is None else args.seed
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
