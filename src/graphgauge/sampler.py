"""Metropolis sampling of the su-block plaquette action.

Proposals multiply one link by a random SU(N) element drawn symmetrically
around the identity, so the proposal density satisfies detailed balance on
its own and the accept rule is min(1, exp(-dS)).  dS comes from the six
plaquettes that contain the link, through the usual staple sum; the shared
so5 block contributes the same constant to every configuration and never
enters a difference.

Sweeps visit links in a fixed order (event major, direction minor, or a
two-color checkerboard ordering) and consume randomness in a fixed per-link
pattern, so a seeded chain is reproducible bit for bit.
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
    order: str = "lexicographic"

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
# staples
# ---------------------------------------------------------------------------


def staple_sum(lf: wilson.LinkField, g: LatticeGraph, event: int, direction: int) -> np.ndarray:
    """Sum of the six staple products closing plaquettes through one link.

    The Metropolis change of the normalized action from replacing link U by
    U' is -(beta / N) Re tr((U' - U) staple_sum).
    """
    sites, dirs, dagger = g.staple_table
    n = lf.n_colors
    su = lf.su.reshape(-1, n, n)
    # Row index 4 * site + (direction - 1) of each staple link in ``su``.
    links = (4 * sites[event, direction - 1] + dirs[direction - 1]).tolist()
    total = np.zeros((n, n), dtype=complex)
    for row, flags in zip(links, dagger.tolist()):
        m = None
        for k, flag in zip(row, flags):
            u = su[k].conj().T if flag else su[k]
            m = u if m is None else m @ u
        total += m
    return total


# ---------------------------------------------------------------------------
# sweeps and chains
# ---------------------------------------------------------------------------


def _sweep_order(g: LatticeGraph, order: str) -> list:
    if order == "lexicographic":
        return list(range(g.n_events))
    if order == "checkerboard":
        # Even-parity events, then odd ones, each in increasing order.
        return np.argsort(g.parity, kind="stable").tolist()
    raise ValueError(f"unknown sweep order {order!r}")


def metropolis_sweep(
    lf: wilson.LinkField,
    g: LatticeGraph,
    beta: float,
    step_scale: float,
    rng: np.random.Generator,
    order: str = "lexicographic",
) -> tuple[wilson.LinkField, float]:
    """One full sweep over all links.  Returns the new field and acceptance.

    The input field is not modified.  beta = 0 accepts every proposal.
    """
    out = lf.copy()
    n = lf.n_colors
    angle = 2.0 * step_scale
    accepted = 0
    total = 0
    events = _sweep_order(g, order)
    for e in events:
        for d in range(1, 5):
            x = liealg.random_sun_near_identity(n, angle, rng)
            old_u = out.su[e, d - 1]
            new_u = x @ old_u
            staple = staple_sum(out, g, e, d)
            d_s = -(beta / n) * np.trace((new_u - old_u) @ staple).real
            total += 1
            if rng.uniform() < np.exp(-d_s):
                out.su[e, d - 1] = new_u
                accepted += 1
    return out, accepted / total


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
        if rng.uniform() < np.exp(-d_s):
            u = new_u
        if step >= burn_in:
            samples[k] = np.trace(u).real / 2.0
            k += 1
    return samples
