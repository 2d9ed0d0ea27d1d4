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

Within a group, the proposals are closed-form SU(N) exponentials
(`liealg.random_sun_near_identity`), the proposed links and the staples are
component-major products (`liealg._cm_product`), and dS is the elementwise
sum Re tr((U' - U) S) = Re sum (U' - U) o S^T: no product is formed for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import liealg, wilson
from .graphlat import GraphError, LatticeGraph, _check_graph, _enforce, _integer, build_hypercubic

SWEEP_ORDERS = ("lexicographic", "checkerboard")

# What a sweep needs of its coupling and its step, as (field, test,
# requirement); `ChainConfig.validate` and `metropolis_sweep` both apply them.
_SWEEP_RULES = (
    ("beta", lambda b: np.isfinite(b) and b >= 0, "a finite value >= 0"),
    ("step_scale", lambda s: 0 < s <= 1, "a value in (0, 1]"),
)


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
        extents, n_colors and seed must be integers, hot_start a bool, and the
        schedule must measure a sweep."""
        s, b = self.sweeps, self.burn_in
        beta_rule, step_rule = _SWEEP_RULES
        _enforce(
            (
                beta_rule,
                ("n_colors", lambda v: _integer(v) and v in liealg.SUPPORTED_N,
                 f"one of {liealg.SUPPORTED_N}"),
                ("dims", lambda v: len(tuple(v)) == 4 and all(_integer(d) and d >= 2 for d in v),
                 "four integer extents >= 2"),
                ("sweeps", lambda v: _integer(v) and v > 0, "a positive integer"),
                ("burn_in", lambda v: _integer(v) and 0 <= v < s, "an integer in [0, sweeps)"),
                step_rule,
                ("measure_every", lambda v: _integer(v) and 1 <= v <= s - b,
                 "an integer in [1, sweeps - burn_in]"),
                ("order", lambda v: v in SWEEP_ORDERS, f"one of {SWEEP_ORDERS}"),
                ("seed", lambda v: _integer(v) and v >= 0, "an integer >= 0"),
                ("hot_start", lambda v: isinstance(v, (bool, np.bool_)), "a bool"),
            ),
            vars(self),
        )


@dataclass(eq=False)
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
    U' is -(beta / N) Re tr((U' - U) staple_sum).  The legs are gathered from
    ``lf.cm``.  Each staple is two `liealg._cm_product` calls: A (C B)^dag for
    the upper staples and (B A)^dag C for the lower ones, legs in
    `LatticeGraph.staple_table` order.
    """
    _check_graph(lf, g)
    if not (_integer(direction) and 1 <= direction <= 4):
        raise GraphError(f"direction must be one of 1..4, got {direction!r}")
    ev = np.asarray(events)
    if not np.issubdtype(ev.dtype, np.integer):
        raise GraphError(f"events must be integer event ids, got dtype {ev.dtype}")
    if ev.size and (ev.min() < 0 or ev.max() >= g.n_events):
        raise GraphError(f"events must lie in [0, {g.n_events}), got {ev.min()}..{ev.max()}")
    n, u = lf.n_colors, lf.cm
    # (event, staple pair, upper/lower, leg) offsets to (upper/lower, leg, event,
    # pair) legs: each leg is one contiguous block, and pairs are summed last.
    idx = g.staple_table[ev.reshape(-1), direction - 1].reshape(-1, 3, 2, 3)
    legs = np.take(u, idx.transpose(2, 3, 0, 1), axis=2)
    (a, b, c), (la, lb, lc) = legs.transpose(2, 3, 0, 1, 4, 5)
    upper = liealg._cm_product(a, liealg._cm_product(c, b), "b")
    lower = liealg._cm_product(liealg._cm_product(lb, la), lc, "a")
    staples = (upper + lower).sum(axis=-1)
    return staples.transpose(2, 0, 1).reshape(ev.shape + (n, n))


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

    The input field is not modified: accepted links are written into the
    ``cm`` of a copy, which is returned.  beta = 0 accepts every proposal;
    beta and step_scale are held to the rules of `ChainConfig.validate`.
    """
    _enforce(_SWEEP_RULES, {"beta": beta, "step_scale": step_scale})
    _check_graph(lf, g)
    n = lf.n_colors
    out = lf.copy()
    u = out.cm
    accepted = 0
    for events, d in update_groups(g, order):
        links = 4 * events + (d - 1)
        x = liealg.random_sun_near_identity(n, 2.0 * step_scale, rng, count=len(events))
        old_u = u[:, :, links]
        new_u = liealg._cm_product(x.transpose(1, 2, 0), old_u)
        staple = staple_sum(out, g, events, d).transpose(1, 2, 0)
        # Re tr((U' - U) S) is the sum of (U' - U) o S^T: no product is formed.
        d_s = -(beta / n) * np.einsum("ije,jie->e", new_u - old_u, staple).real
        accept = rng.uniform(size=len(events)) < np.exp(np.minimum(-d_s, 0.0))
        u[:, :, links[accept]] = new_u[:, :, accept]
        accepted += int(np.count_nonzero(accept))
    return out, accepted / g.n_transitions


def average_plaquette(lf: wilson.LinkField, g: LatticeGraph) -> float:
    """Mean over plaquettes of Re tr(su loop) / N."""
    _check_graph(lf, g)
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
    _enforce(_SWEEP_RULES[:1], {"beta": beta})
    # scipy is loaded here, on first use, so importing the package costs numpy only.
    from scipy import integrate

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
    accept test run per step.  beta and step_scale are held to the rules of
    `ChainConfig.validate`, and the burn-in must leave at least one sample.
    """
    _enforce(
        _SWEEP_RULES
        + (
            ("n_steps", lambda v: _integer(v) and v >= 1, "a positive integer"),
            ("burn_in", lambda v: _integer(v) and 0 <= v < n_steps, "an integer in [0, n_steps)"),
        ),
        {"beta": beta, "step_scale": step_scale, "n_steps": n_steps, "burn_in": burn_in},
    )
    rng = np.random.default_rng(seed)
    draws = rng.uniform(size=(n_steps, 4))
    angle = 2.0 * step_scale
    # uniform(-angle, angle) returns -angle + (2 angle) u: the same angles bit for bit.
    proposals = liealg._exp_i_angles(-angle + (2.0 * angle) * draws[:, :3])
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
