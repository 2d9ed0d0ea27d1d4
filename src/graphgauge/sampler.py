"""Metropolis sampling of the su-block plaquette action.

Proposals multiply one link by a random SU(N) element drawn symmetrically
around the identity, so the proposal density satisfies detailed balance on
its own and the accept rule is min(1, exp(-dS)).  dS comes from the six
plaquettes that contain the link, through the usual staple sum; the shared
so5 block contributes the same constant to every configuration and never
enters a difference.

A sweep updates its links group by group (`update_groups`); each group
draws its proposals and its accept thresholds as one batch, so a seeded
chain is reproducible bit for bit.  The default `checkerboard` order has 8
groups at all-even extents and 16 at the odd ones tried; `lexicographic`,
one link per group, is the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import liealg, wilson
from .graphlat import GraphError, LatticeGraph, _integer, build_hypercubic

SWEEP_ORDERS = ("lexicographic", "checkerboard")


@dataclass
class ChainConfig:
    beta: float
    dims: tuple = (4, 4, 4, 4)
    n_colors: int = 2
    sweeps: int = 100
    burn_in: int = 20
    step_scale: float = 0.5
    seed: int = 0
    measure_every: int = 1
    hot_start: bool = False
    order: str = "checkerboard"

    def validate(self) -> None:
        """Raise a ValueError naming the first field the chain cannot honour.  Counts,
        extents and n_colors must be integers, and the schedule must measure a sweep."""
        n, s, b, m = self.n_colors, self.sweeps, self.burn_in, self.measure_every
        dims = tuple(self.dims)
        for field, ok, want in (
            ("beta", np.isfinite(self.beta) and self.beta >= 0, "a finite value >= 0"),
            ("n_colors", _integer(n) and n in liealg.SUPPORTED_N,
             f"one of {liealg.SUPPORTED_N}"),
            ("dims", len(dims) == 4 and all(_integer(d) and d >= 2 for d in dims),
             "four integer extents >= 2"),
            ("sweeps", _integer(s) and s > 0, "a positive integer"),
            ("burn_in", _integer(b) and 0 <= b < s, "an integer in [0, sweeps)"),
            ("step_scale", 0 < self.step_scale <= 1, "a value in (0, 1]"),
            ("measure_every", _integer(m) and 1 <= m <= s - b,
             "an integer in [1, sweeps - burn_in]"),
            ("order", self.order in SWEEP_ORDERS, f"one of {SWEEP_ORDERS}"),
        ):
            if not ok:
                value = getattr(self, field)
                raise ValueError(f"parameter '{field}' is invalid: need {want}, got {value!r}")


@dataclass
class ObservableSeries:
    sweep_index: np.ndarray
    avg_plaquette: np.ndarray
    acceptance: np.ndarray
    final_links: "wilson.LinkField | None" = None


# ---------------------------------------------------------------------------
# staples, sweeps and chains
# ---------------------------------------------------------------------------


def staple_sum(lf: wilson.LinkField, g: LatticeGraph, events, direction: int) -> np.ndarray:
    """Sum of the six staple products closing plaquettes through link (e, direction),
    per event of ``events`` (an int, or an int array giving a stack).

    The Metropolis change of the normalized action from replacing link U by
    U' is -(beta / N) Re tr((U' - U) staple_sum).
    """
    wilson._check_graph(lf, g)
    if not (_integer(direction) and 1 <= direction <= 4):
        raise GraphError(f"direction must be one of 1..4, got {direction!r}")
    ev = np.asarray(events)
    if ev.size and (ev.min() < 0 or ev.max() >= g.n_events):
        raise GraphError(f"events must lie in [0, {g.n_events}), got {ev.min()}..{ev.max()}")
    offsets, dagger = g.staple_table
    n = lf.n_colors
    u = lf.su.reshape(-1, n, n)[offsets[events, direction - 1]]
    u = np.where(dagger[..., None, None], np.conj(np.swapaxes(u, -1, -2)), u)
    return (u[..., 0, :, :] @ u[..., 1, :, :] @ u[..., 2, :, :]).sum(axis=-3)


def update_groups(g: LatticeGraph, order: str) -> list:
    """The (events, direction) groups one sweep updates, in sweep order.

    ``lexicographic`` updates one link at a time, event major and direction
    minor.  ``checkerboard`` updates each (colour, direction) class of
    `LatticeGraph.event_colors` at once: link (x, mu) shares plaquettes only
    with other directions and with (x +- nu, mu), whose events neighbour x.
    """
    if order == "lexicographic":
        return [(np.array([e]), d) for e in range(g.n_events) for d in range(1, 5)]
    if order != "checkerboard":
        raise ValueError(f"unknown sweep order {order!r}")
    colors = g.event_colors
    return [(np.flatnonzero(colors == c), d) for c in np.unique(colors) for d in range(1, 5)]


def metropolis_sweep(
    lf: wilson.LinkField,
    g: LatticeGraph,
    beta: float,
    step_scale: float,
    rng: np.random.Generator,
    order: str = "checkerboard",
) -> tuple[wilson.LinkField, float]:
    """One full sweep over all links.  Returns the new field and acceptance.

    The input field is not modified.  beta = 0 accepts every proposal.
    """
    wilson._check_graph(lf, g)
    out = lf.copy()
    n = lf.n_colors
    accepted = 0
    for events, d in update_groups(g, order):
        x = liealg.random_sun_near_identity(n, 2.0 * step_scale, rng, count=len(events))
        old_u = out.su[events, d - 1]
        new_u = x @ old_u
        staple = staple_sum(out, g, events, d)
        d_s = -(beta / n) * np.trace((new_u - old_u) @ staple, axis1=-2, axis2=-1).real
        accept = rng.uniform(size=len(events)) < np.exp(np.minimum(-d_s, 0.0))
        out.su[events[accept], d - 1] = new_u[accept]
        accepted += int(np.count_nonzero(accept))
    return out, accepted / g.n_transitions


def average_plaquette(lf: wilson.LinkField, g: LatticeGraph) -> float:
    """Mean over plaquettes of Re tr(su loop) / N."""
    wilson._check_graph(lf, g)
    traces = wilson._plaquette_traces(lf, g)
    return float(np.mean(traces)) / lf.n_colors


def run_chain(cfg: ChainConfig) -> ObservableSeries:
    """Seeded Metropolis chain; identity (cold) start unless hot_start is set."""
    cfg.validate()
    g = build_hypercubic(cfg.dims, periodic=True)
    rng = np.random.default_rng(cfg.seed)
    if cfg.hot_start:
        lf = wilson.random_links(g, cfg.n_colors, rng)
    else:
        lf = wilson.identity_links(g, cfg.n_colors)
    idx, vals, accs = [], [], []
    for sweep in range(cfg.sweeps):
        lf, acc = metropolis_sweep(lf, g, cfg.beta, cfg.step_scale, rng, cfg.order)
        if sweep >= cfg.burn_in and (sweep - cfg.burn_in + 1) % cfg.measure_every == 0:
            idx.append(sweep)
            vals.append(average_plaquette(lf, g))
            accs.append(acc)
    return ObservableSeries(
        sweep_index=np.asarray(idx, dtype=np.int64),
        avg_plaquette=np.asarray(vals),
        acceptance=np.asarray(accs),
        final_links=lf,
    )


# ---------------------------------------------------------------------------
# one-plaquette references
# ---------------------------------------------------------------------------


def single_plaquette_exact(beta: float) -> float:
    """<Re tr U / 2> of the one-plaquette SU(2) model by direct group integration.

    The class function reduces the group integral to the circle:
    weight exp(beta cos t) against the Haar factor sin^2 t on [0, pi].
    Absolute accuracy is driven well below 1e-8 by the quadrature settings.
    """
    if beta < 0 or not np.isfinite(beta):
        raise ValueError(f"beta must be a finite value >= 0, got {beta}")

    def den_f(t):
        return np.exp(beta * np.cos(t)) * np.sin(t) ** 2

    def num_f(t):
        return np.cos(t) * np.exp(beta * np.cos(t)) * np.sin(t) ** 2

    num, _ = integrate.quad(num_f, 0.0, np.pi, epsabs=1e-13, epsrel=1e-13, limit=200)
    den, _ = integrate.quad(den_f, 0.0, np.pi, epsabs=1e-13, epsrel=1e-13, limit=200)
    return num / den


def one_plaquette_chain(
    beta: float,
    n_steps: int,
    step_scale: float = 0.5,
    seed: int = 0,
    burn_in: int = 1000,
) -> np.ndarray:
    """Metropolis samples of Re tr U / 2 for the one-plaquette SU(2) model.

    Three of the four links are gauge fixed to the identity; the remaining
    link is updated with the same proposal family as the full sampler.  Each
    step reads four consecutive uniforms (three proposal angles, then the
    accept threshold), so all of them are drawn as one block and all
    proposals are built as one stack; only the product, its trace and the
    accept test run per step.
    """
    rng = np.random.default_rng(seed)
    draws = rng.uniform(size=(n_steps, 4))
    angle = 2.0 * step_scale
    gens = liealg.sun_generators(2)
    # uniform(-angle, angle) returns -angle + (2 angle) u: the same angles bit for bit.
    proposals = liealg._exp_i_angles(-angle + (2.0 * angle) * draws[:, :3], gens)
    thresholds = draws[:, 3]
    u = np.eye(2, dtype=complex)
    trace = 2.0
    traces = np.empty(n_steps)
    for step in range(n_steps):
        new_u = proposals[step] @ u
        new_trace = np.trace(new_u).real
        d_s = -(beta / 2.0) * (new_trace - trace)
        # d_s <= 0 always accepts, and exp(-d_s) could overflow there.
        if d_s <= 0.0 or thresholds[step] < np.exp(-d_s):
            u, trace = new_u, new_trace
        traces[step] = trace
    return traces[burn_in:] / 2.0
