"""Metropolis sampling of the su-block plaquette action.

Proposals multiply one link by a random SU(N) element drawn symmetrically
around the identity, so the proposal density satisfies detailed balance on
its own and the accept rule is min(1, exp(-dS)).  dS comes from the six
plaquettes that contain the link, through the usual staple sum; the shared
so5 block contributes the same constant to every configuration and never
enters a difference.

A sweep draws the proposals of all its links, in sweep order, and then
one accept threshold per link, so a seeded chain is reproducible bit for
bit.  It then updates its links group by group (`update_groups`), each
group reading its slice of both.  The default `checkerboard` order has 8
groups at all-even extents and 16 at the odd ones tried; `lexicographic`,
one link per group, is the reference.

The proposals are closed-form SU(N) exponentials
(`liealg.random_sun_near_identity`), drawn in passes of `_PROPOSAL_PASS`
links into a component-major buffer.  A link changes only in its own group,
so every U' = X U and U' - U of a sweep is formed at once; each group makes
its staple sum, dS, the accept test and the scatter.  dS is the elementwise
sum Re tr((U' - U) S) = Re sum (U' - U) o S^T: no product is formed for it.
The sweep calls `liealg.random_sun_near_identity` once per pass and
`staple_sum` once per group through their modules, so a tracer that wraps
them sees every call; the proposals, U', U' - U and `staple_sum` work in
buffers kept per graph (`wilson._scratch`).

The one-plaquette SU(2) model has an exact reference, `single_plaquette_exact`:
a class-function average on the circle, summed by the trapezoid rule, which
converges geometrically for a smooth periodic integrand (Trefethen and
Weideman, SIAM Rev. 56, 385 (2014)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import liealg, wilson
from .graphlat import (
    _DIMS, GraphError, LatticeGraph, _check_graph, _choice, _enforce, _integer, _number,
    build_hypercubic,
)

SWEEP_ORDERS = ("lexicographic", "checkerboard")

# Proposals per `liealg.random_sun_near_identity` call of a sweep; no bit depends
# on it, since a stack is drawn on the stream of its single draws.  Passes keep
# the exponentials' temporaries under glibc's heap-trim edge: at 4^4 SU(3) one
# call of 1024 made 336 minor faults, passes of 512 still 116-136 a sweep plus
# plaquette, passes of 256 none.
_PROPOSAL_PASS = 256

# What a chain needs of each field, as `_enforce` rules (field, accept,
# requirement); the sweeps and the one-plaquette references hold their couplings,
# steps and orders to the same rules.
_BETA = ("beta", _number(ge=0), "a finite value >= 0")
_STEP = ("step_scale", _number(gt=0, le=1), "a value in (0, 1]")
_SEED = ("seed", _number(int, ge=0), "an integer >= 0")
_SWEEP_RULES = (_BETA, _STEP)
_ORDER_RULES = (("order", _choice(SWEEP_ORDERS), f"one of {SWEEP_ORDERS}"),)
_CHAIN_RULES = (
    _BETA, wilson._N_COLORS, _DIMS,
    ("sweeps", _number(int, ge=1), "a positive integer"),
    ("burn_in", _number(int, ge=0, le=lambda v: v["sweeps"] - 1), "an integer in [0, sweeps)"),
    _STEP,
    ("measure_every", _number(int, ge=1, le=lambda v: v["sweeps"] - v["burn_in"]),
     "an integer in [1, sweeps - burn_in]"),
    *_ORDER_RULES, _SEED, ("hot_start", _choice((False, True)), "a bool"),
)
_ONE_PLAQUETTE_RULES = _SWEEP_RULES + (
    ("n_steps", _number(int, ge=1), "a positive integer"),
    ("burn_in", _number(int, ge=0, le=lambda v: v["n_steps"] - 1),
     "an integer in [0, n_steps)"),
    _SEED,
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

    def validate(self) -> dict:
        """Every field as the chain accepts it (a float beta and step, a list of
        int extents), else a ValueError naming the first field it cannot honour.
        Counts, extents, n_colors and seed must be integers, hot_start a bool, and
        the schedule must measure a sweep."""
        return _enforce(_CHAIN_RULES, vars(self))


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
    ``lf.cm`` by one `np.take` of the `LatticeGraph.staple_table` slots.  The
    staples are A (C B)^dag (upper) and (B' A')^dag C' (lower): one
    `liealg._cm_product` forms C B and B' A' of every pair, and one more each
    the upper and the lower staples.
    """
    _check_graph(lf, g)
    if not (_integer(direction) and 1 <= direction <= 4):
        raise GraphError(f"direction must be one of 1..4, got {direction!r}")
    ev = np.asarray(events)
    if ev.dtype.kind not in "iu":
        raise GraphError(f"events must be integer event ids, got dtype {ev.dtype}")
    # Widened to 64 bits and read as unsigned, a negative id is at least 2^63,
    # so one reduction tests both ends.  Read at its own width, an int8 -1 is
    # only 255, which a lattice of more than 255 events would let through.
    if ev.size and ev.astype(np.int64, copy=False).view(np.uint64).max() >= g.n_events:
        raise GraphError(f"events must lie in [0, {g.n_events}), got {ev.min()}..{ev.max()}")
    n, u = lf.n_colors, lf.cm
    # (slot, pair, event) legs: each slot is one contiguous block, and the three
    # pairs are summed by two elementwise adds in the order a reduction over them takes.
    idx = g.staple_table[direction - 1][:, :, ev.reshape(-1)]
    m = idx.shape[-1]
    legs, inner, upper, lower, tmp = wilson._scratch(
        g, "staples", n, ((n, n, 6, 3, m), (n, n, 2, 3, m), (n, n, 3, m), (n, n, 3, m),
                          (2, n, n, 3, m)))
    np.take(u, idx, axis=2, out=legs, mode="clip")
    liealg._cm_product(legs[:, :, 0:2], legs[:, :, 2:4], out=inner, tmp=tmp.reshape(inner.shape))
    liealg._cm_product(legs[:, :, 4], inner[:, :, 0], "b", out=upper, tmp=tmp[0])
    liealg._cm_product(inner[:, :, 1], legs[:, :, 5], "a", out=lower, tmp=tmp[0])
    pairs = np.add(upper, lower, out=upper)
    staples = np.add(pairs[:, :, 0], pairs[:, :, 1])
    staples += pairs[:, :, 2]
    return staples.transpose(2, 0, 1).reshape(ev.shape + (n, n))


def update_groups(g: LatticeGraph, order: str) -> list:
    """The (events, direction) groups one sweep updates, in sweep order.

    ``lexicographic`` updates one link at a time, event major and direction
    minor.  ``checkerboard`` updates each (colour, direction) class of
    `LatticeGraph.event_colors` at once: link (x, mu) shares plaquettes only
    with other directions and with (x +- nu, mu), whose events neighbour x.
    Any other ``order`` is refused by the rule `ChainConfig.validate` applies.
    """
    order = _enforce(_ORDER_RULES, {"order": order})["order"]
    if order not in g.sweep_groups:
        # Lexicographic order treats every event as a colour of its own.
        colors = g.event_colors if order == "checkerboard" else np.arange(g.n_events)
        events = np.argsort(colors, kind="stable")
        events.flags.writeable = False
        classes = np.split(events, np.flatnonzero(np.diff(colors[events])) + 1)
        g.sweep_groups[order] = [(ev, d) for ev in classes for d in range(1, 5)]
    return g.sweep_groups[order]


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
    beta, step_scale and order are held to the rules of `ChainConfig.validate`.
    """
    _enforce(_SWEEP_RULES, {"beta": beta, "step_scale": step_scale})
    _check_graph(lf, g)
    groups = update_groups(g, order)
    n, total = lf.n_colors, g.n_transitions
    out = lf.copy()
    u = out.cm
    # Every proposal of the sweep, in sweep order, then every accept threshold.
    proposals, new_u, change = wilson._scratch(g, "proposals", n, ((n, n, total),) * 3)
    for start in range(0, total, _PROPOSAL_PASS):
        x = liealg.random_sun_near_identity(
            n, 2.0 * step_scale, rng, count=min(_PROPOSAL_PASS, total - start))
        proposals[:, :, start:start + len(x)] = x.transpose(1, 2, 0)
    thresholds = rng.uniform(size=total)
    # A link changes only in its own group, so every U' = X U and U' - U of the
    # sweep is formed from the links it starts with.
    links = [4 * events + (d - 1) for events, d in groups]
    old_u = u[:, :, np.concatenate(links)]
    liealg._cm_product(proposals, old_u, out=new_u, tmp=change)
    np.subtract(new_u, old_u, out=change)
    accepted = stop = 0
    for (events, d), group in zip(groups, links):
        start, stop = stop, stop + len(events)
        staple = staple_sum(out, g, events, d).transpose(1, 2, 0)
        # Re tr((U' - U) S) is the sum of (U' - U) o S^T: no product is formed.
        d_s = -(beta / n) * np.einsum("ije,jie->e", change[:, :, start:stop], staple).real
        accept = thresholds[start:stop] < np.exp(np.minimum(-d_s, 0.0))
        u[:, :, group[accept]] = new_u[:, :, start:stop][:, :, accept]
        accepted += int(np.count_nonzero(accept))
    return out, accepted / total


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

# Trapezoid points of `single_plaquette_exact` on the circle.
_CIRCLE_POINTS = 1024


def single_plaquette_exact(beta: float) -> float:
    """<Re tr U / 2> of the one-plaquette SU(2) model by direct group integration.

    The class function reduces the group integral to the circle: <cos t> under
    the weight exp(beta (cos t - 1)) sin^2 t.  With s = sin^2(t / 2), cos t is
    1 - 2 s and the weight exp(-2 beta s) sin^2 t, so that no step overflows or
    cancels at any beta.  The weight is even in t, and outside |t| < T, where
    beta (1 - cos T) = 72 (T = pi for beta <= 36), below e^-72 of its peak.  So
    the trapezoid rule on `_CIRCLE_POINTS` equispaced points of [-T, T),
    periodic or vanishing at the ends, converges geometrically: it matches
    I_2(beta) / I_1(beta) to about an ulp.
    """
    beta = _enforce(_SWEEP_RULES[:1], {"beta": beta})["beta"]
    half_width = 2.0 * np.arcsin(np.sqrt(36.0 / max(beta, 36.0)))
    t = half_width * np.linspace(-1.0, 1.0, _CIRCLE_POINTS, endpoint=False)
    s = np.sin(0.5 * t) ** 2
    weight = np.exp(-beta * (2.0 * s)) * np.sin(t) ** 2
    return float(1.0 - 2.0 * (np.sum(s * weight) / np.sum(weight)))


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
    accept test run per step.  beta, step_scale and seed are held to the rules
    of `ChainConfig.validate`, and the burn-in must leave at least one sample.
    """
    _enforce(_ONE_PLAQUETTE_RULES, {
        "beta": beta, "step_scale": step_scale, "n_steps": n_steps, "burn_in": burn_in, "seed": seed,
    })
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
