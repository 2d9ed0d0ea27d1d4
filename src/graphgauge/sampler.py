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
from .graphlat import LatticeGraph, build_hypercubic

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
        if not np.isfinite(self.beta) or self.beta < 0:
            raise ValueError(f"config field 'beta' must be a finite value >= 0, got {self.beta}")
        if self.n_colors not in wilson.SUPPORTED_N:
            raise ValueError(f"config field 'n_colors' must be 2 or 3, got {self.n_colors}")
        if len(tuple(self.dims)) != 4 or any(int(d) < 2 for d in self.dims):
            raise ValueError(f"config field 'dims' must be four extents >= 2, got {self.dims}")
        if self.sweeps <= 0:
            raise ValueError(f"config field 'sweeps' must be positive, got {self.sweeps}")
        if not 0 <= self.burn_in < self.sweeps:
            raise ValueError(
                f"config field 'burn_in' must lie in [0, sweeps), got {self.burn_in}"
            )
        if not 0 < self.step_scale <= 1:
            raise ValueError(
                f"config field 'step_scale' must lie in (0, 1], got {self.step_scale}"
            )
        if self.measure_every < 1:
            raise ValueError(
                f"config field 'measure_every' must be >= 1, got {self.measure_every}"
            )
        if self.order not in SWEEP_ORDERS:
            raise ValueError(
                f"config field 'order' must be one of {SWEEP_ORDERS}, got {self.order!r}"
            )


@dataclass
class ObservableSeries:
    sweep_index: np.ndarray
    avg_plaquette: np.ndarray
    acceptance: np.ndarray
    config: ChainConfig
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
    sites, dirs, dagger = g.staple_table
    n = lf.n_colors
    # Row 4 * site + (direction - 1) of ``su`` holds each staple link.
    u = lf.su.reshape(-1, n, n)[4 * sites[events, direction - 1] + dirs[direction - 1]]
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
    return out, accepted / (4 * g.n_events)


def average_plaquette(lf: wilson.LinkField, g: LatticeGraph) -> float:
    """Mean over plaquettes of Re tr(su loop) / N."""
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
        config=cfg,
        final_links=lf,
    )


# ---------------------------------------------------------------------------
# one-plaquette references
# ---------------------------------------------------------------------------


def single_plaquette_exact(beta: float, n_colors: int = 2) -> float:
    """<Re tr U / N> of the one-plaquette model by direct group integration.

    For SU(2) the class function reduces the group integral to the circle:
    weight exp(beta cos t) against the Haar factor sin^2 t on [0, pi].
    Absolute accuracy is driven well below 1e-8 by the quadrature settings.
    """
    if n_colors != 2:
        raise ValueError("one-plaquette reference is implemented for N=2 only")
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
    link is updated with the same proposal family as the full sampler.
    """
    rng = np.random.default_rng(seed)
    u = np.eye(2, dtype=complex)
    angle = 2.0 * step_scale
    samples = np.empty(max(0, n_steps - burn_in))
    k = 0
    for step in range(n_steps):
        x = liealg.random_sun_near_identity(2, angle, rng)
        new_u = x @ u
        d_s = -(beta / 2.0) * (np.trace(new_u).real - np.trace(u).real)
        if rng.uniform() < np.exp(min(-d_s, 0.0)):
            u = new_u
        if step >= burn_in:
            samples[k] = np.trace(u).real / 2.0
            k += 1
    return samples
