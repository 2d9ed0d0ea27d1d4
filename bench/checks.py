"""Output checks shared by the workloads and the self-test.

Every check returns a list of failure strings; an empty list means the
output passed.  Statistical checks use error bars corrected for
autocorrelation (Wolff's automatic windowing of the Gamma method,
Comput. Phys. Commun. 156, 143 (2004)).
"""

from __future__ import annotations

import json
import math

import numpy as np

# Lowest possible Re tr U / N of an SU(N) matrix.
PLAQUETTE_FLOOR = {2: -1.0, 3: -0.5}


def gamma_method(x, s_tau: float = 1.5) -> tuple[float, float, float]:
    """Mean, its autocorrelation-corrected error, and tau_int of a series."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    mean = float(np.mean(x))
    if n < 2:
        return mean, float("inf"), 0.5
    d = x - mean
    f = np.fft.rfft(d, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n] / (n - np.arange(n))
    if acov[0] <= 0.0:
        return mean, 0.0, 0.5
    rho = acov / acov[0]
    tau = 0.5
    for w in range(1, n):
        tau = 0.5 + float(np.sum(rho[1 : w + 1]))
        if tau <= 0.5:
            tau = 0.5
            break
        tau_exp = s_tau / math.log((2 * tau + 1) / (2 * tau - 1))
        if math.exp(-w / tau_exp) - tau_exp / math.sqrt(w * n) < 0:
            tau *= 1 + (2 * w + 1) / n
            break
    return mean, math.sqrt(acov[0] * 2 * tau / n), tau


def band(value: float, series, ref_values, sigmas: float) -> tuple[bool, dict]:
    """Is ``value`` (the mean of ``series``) consistent with the reference runs?

    ``ref_values`` are the same statistic from independent reference runs.
    A single run's error is the larger of its own Gamma-method error and
    the spread of the reference runs; the reference mean adds its own error.
    """
    ref = np.asarray(ref_values, dtype=float)
    ref_mean = float(np.mean(ref))
    ref_spread = float(np.std(ref, ddof=1))
    _, sigma_run, tau = gamma_method(series)
    sigma = math.sqrt(max(sigma_run, ref_spread) ** 2 + ref_spread**2 / ref.shape[0])
    z = abs(value - ref_mean) / sigma if sigma > 0 else math.inf
    return z <= sigmas, {
        "value": value,
        "ref_mean": ref_mean,
        "sigma": sigma,
        "sigma_gamma": sigma_run,
        "tau_int": tau,
        "z": z,
    }


# ---------------------------------------------------------------------------
# mc-chain
# ---------------------------------------------------------------------------


def check_sweep(acceptance: float, plaquette: float, n_colors: int) -> list:
    out = []
    if not 0.0 <= acceptance <= 1.0:
        out.append(f"acceptance {acceptance!r} outside [0, 1]")
    if not (math.isfinite(plaquette) and PLAQUETTE_FLOOR[n_colors] <= plaquette <= 1.0):
        out.append(f"plaquette {plaquette!r} not finite in [{PLAQUETTE_FLOOR[n_colors]}, 1]")
    return out


def check_links_valid(wilson, lf) -> list:
    try:
        wilson.validate_links(lf)
    except wilson.LinkFieldError as err:
        return [f"final field invalid: {err}"]
    return []


def check_plaquette_matches_action(
    plaquette: float, action, beta: float, tol: float = 1e-12
) -> list:
    from_action = 1.0 - action.normalized / (beta * action.n_plaquettes)
    if not abs(plaquette - from_action) <= tol:
        return [f"average_plaquette {plaquette!r} != 1 - S/(beta n_p) = {from_action!r}"]
    return []


def check_plaquette_trajectory(plaq, ref_chains, burn_in: int, sigmas: float) -> tuple[list, dict]:
    """Mean plaquette over sweeps [burn_in, n) against the reference chains.

    Hot starts at this coupling are still relaxing within a run, so the
    reference is the reference chains' mean trajectory over the same sweeps, not
    an equilibrium value.  Sweeps beyond the reference length are ignored.
    """
    ref = np.asarray(ref_chains, dtype=float)
    end = min(len(plaq), ref.shape[1])
    if end - burn_in < 10:
        return [f"only {end - burn_in} sweeps after burn-in, need 10"], {}
    window = slice(burn_in, end)
    run = np.asarray(plaq[window], dtype=float)
    deviation = run - ref[:, window].mean(axis=0)
    ok, info = band(
        float(run.mean()),
        deviation,
        ref[:, window].mean(axis=1),
        sigmas,
    )
    info["sweeps"] = [burn_in, end]
    if not ok:
        return [
            f"mean plaquette {info['value']:.6f} is {info['z']:.2f} sigma "
            f"from reference {info['ref_mean']:.6f}"
        ], info
    return [], info


# ---------------------------------------------------------------------------
# covariance-8x4
# ---------------------------------------------------------------------------


def check_transform(family: str, value, base, rel_tol: float) -> list:
    if family == "automorphism":
        if value.raw_trace_sum != base.raw_trace_sum or value.normalized != base.normalized:
            return [
                f"automorphism moved the action: raw {value.raw_trace_sum!r} "
                f"vs {base.raw_trace_sum!r}, "
                f"normalized {value.normalized!r} vs {base.normalized!r}"
            ]
        return []
    dev = abs(value.raw_trace_sum - base.raw_trace_sum) / max(1.0, abs(base.raw_trace_sum))
    if not dev <= rel_tol:
        return [f"{family} relative deviation {dev:.3e} > {rel_tol:.0e}"]
    return []


# ---------------------------------------------------------------------------
# cli-kinds
# ---------------------------------------------------------------------------


def report_payload(report) -> dict:
    """A report as JSON would carry it (tuples become lists, keys strings)."""
    return json.loads(
        json.dumps(
            {"spec": report.spec, "records": report.records, "summary": report.summary},
            default=str,
        )
    )


def report_field(report, path: str):
    """Value at a dotted path such as ``summary.max_abs_sigma`` or ``records.1.sigma``."""
    node = {"spec": report.spec, "records": report.records, "summary": report.summary}
    for part in path.split("."):
        node = node[int(part)] if isinstance(node, list) else node[part]
    return node


def matches(value, ref: dict) -> bool:
    expected = ref["value"]
    if isinstance(expected, bool) or not isinstance(expected, (int, float)):
        return value == expected
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value - expected) <= ref["atol"] + ref["rtol"] * abs(expected)


def check_command(kind: str, code: int, written, loaded, refs: dict) -> list:
    """Exit code, status, round trip, and deterministic fields of one command."""
    out = []
    if code != 0:
        out.append(f"{kind}: exit code {code}")
    if loaded.summary.get("status") != "ok":
        out.append(f"{kind}: status {loaded.summary.get('status')!r}")
    if written is None or report_payload(written) != report_payload(loaded):
        out.append(f"{kind}: report read back differs from the one written")
    for path, ref in refs.items():
        try:
            value = report_field(loaded, path)
        except (KeyError, IndexError, TypeError):
            out.append(f"{kind}: {path} missing")
            continue
        if not matches(value, ref):
            out.append(f"{kind}: {path} = {value!r}, reference {ref['value']!r}")
    return out
