"""Geometric potentials on transition vertices and their transports.

Each transition vertex carries a metric potential ``g`` (4x4) and a torsion
potential ``h`` (4x4x4, antisymmetric in its last two indices).  Together
they specify, for each travel axis ``a``, an antisymmetric 5x5 transport
generator.  Two scale conventions coexist and are kept deliberately
distinct:

* algebra scale: `liealg.assemble_components` uses the orthonormalized
  basis, so trace projections invert it exactly;
* transport scale: `transport_generators` uses unit-entry generators, so a
  flat field (g = identity, h = 0) advances a coordinate label by exactly
  ``eps`` per step.  The two differ by a uniform factor sqrt(2).

Coordinate labels are five-vectors with the auxiliary component pinned to 1
in the default (translation-invariant) mode and free in curved mode.  Labels
are bookkeeping only: nothing computed from the graph or from link fields
reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import liealg
from .graphlat import LatticeGraph, _check_graph, _choice, _enforce, _number

MODES = ("poincare", "desitter")

# `_enforce` rules (field, accept, requirement) of the scalar parameters below.
_EPS = ("eps", _number(gt=0), "a finite value > 0")
_FIELD_RULES = (_EPS,)
_SCALE_RULES = (("scale", _number(ge=0), "a finite value >= 0"),)
_STEP_RULES = (
    ("mode", _choice(MODES), f"one of {MODES}"),
    ("axis", _number(int, ge=0, le=3), "an integer in [0, 3]"),
    ("eps", _number(), "a finite value"),
)


@dataclass(frozen=True, eq=False)
class PotentialField:
    """Per-transition potential data tied to one graph.  Frozen: the
    attributes cannot be reassigned, and ``g`` and ``h`` are written in place.
    They must be finite when the field is built, and are kept as float arrays.

    Attributes
    ----------
    graph : LatticeGraph
    eps : float
        Lattice spacing used by transports and coordinate steps.
    g : ndarray, shape (n_transitions, 4, 4)
    h : ndarray, shape (n_transitions, 4, 4, 4)
        Antisymmetric in the last two indices at every vertex.
    """

    graph: LatticeGraph
    eps: float
    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eps", _enforce(_FIELD_RULES, {"eps": self.eps})["eps"])
        t = self.graph.n_transitions
        for name, shape in (("g", (t, 4, 4)), ("h", (t, 4, 4, 4))):
            table = liealg._as_blocks(getattr(self, name), float, (shape,), name, ValueError)
            object.__setattr__(self, name, table)

    def copy(self) -> "PotentialField":
        return PotentialField(self.graph, self.eps, self.g.copy(), self.h.copy())


def flat_field(graph: LatticeGraph, eps: float) -> PotentialField:
    """Identity metric potential, vanishing torsion, at every transition."""
    t = graph.n_transitions
    g = np.broadcast_to(np.eye(4), (t, 4, 4)).copy()
    h = np.zeros((t, 4, 4, 4))
    return PotentialField(graph, eps, g, h)


def random_field(
    graph: LatticeGraph, eps: float, rng: np.random.Generator, scale: float = 1.0
) -> PotentialField:
    """Independent uniform entries in +-scale, torsion antisymmetrized."""
    scale = _enforce(_SCALE_RULES, {"scale": scale})["scale"]
    t = graph.n_transitions
    g = rng.uniform(-scale, scale, size=(t, 4, 4))
    raw = rng.uniform(-scale, scale, size=(t, 4, 4, 4))
    h = raw - np.swapaxes(raw, 2, 3)
    return PotentialField(graph, eps, g, h)


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


def transport_generators(g_v: np.ndarray, h_v: np.ndarray) -> np.ndarray:
    """Unit-scale transport generators for all four travel axes.

    ``g_v`` (..., 4, 4) and ``h_v`` (..., 4, 4, 4) may carry any leading
    stack shape, such as one entry per transition.

    Returns
    -------
    ndarray, shape (..., 4, 5, 5)
        ``out[a]`` is antisymmetric with out[a][b, c] = h[a,b,c]/2,
        out[a][b, 4] = g[a,b], out[a][4, b] = -g[a,b].  Its first order
        action on a label reproduces the coordinate step rule exactly.
    """
    g_v = np.asarray(g_v, dtype=float)
    h_v = np.asarray(h_v, dtype=float)
    out = np.zeros(g_v.shape[:-2] + (4, 5, 5))
    out[..., :4, :4] = 0.5 * h_v
    out[..., :4, 4] = g_v
    out[..., 4, :4] = -g_v
    return out


def components_from_transport(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read (g, h) back off unit-scale transport generators, any leading stack shape."""
    a = np.asarray(a, dtype=float)
    return a[..., :4, 4].copy(), 2.0 * a[..., :4, :4]


def edge_transport(field: PotentialField, v) -> np.ndarray:
    """Orthogonal transport exp(eps * A_d) along transition v's own direction.

    ``v`` may also be an integer array of transition vertices; the answer is
    then the stack of their transports.
    """
    i = field.graph.transition_offset(v)
    a = transport_generators(field.g[i], field.h[i])
    axis = np.asarray(field.graph.transition_direction(v)) - 1
    a = np.take_along_axis(a, axis[..., None, None, None], axis=-3)[..., 0, :, :]
    return liealg.expm5(field.eps * a)


# ---------------------------------------------------------------------------
# coordinate stepping
# ---------------------------------------------------------------------------


def step_coordinates(
    y: np.ndarray,
    axis: int,
    g_v: np.ndarray,
    h_v: np.ndarray,
    eps: float,
    mode: str = "poincare",
) -> np.ndarray:
    """First order coordinate update for one step along ``axis``.

    w[b] = y[b] + eps * g[axis, b] + (eps/2) * sum_c h[axis, b, c] y[c]
    for b = 0..3.  The auxiliary component stays pinned in "poincare" mode
    (it must equal 1 on input) and evolves as
    w[4] = y[4] - eps * sum_b g[axis, b] y[b] in "desitter" mode.

    With g the identity and h zero the step is a pure shift by eps.
    """
    _enforce(_STEP_RULES, {"mode": mode, "axis": axis, "eps": eps})
    y = liealg._as_blocks(y, float, ((5,),), "label", ValueError)
    g_v = liealg._as_blocks(g_v, float, ((4, 4),), "g_v", ValueError)
    h_v = liealg._as_blocks(h_v, float, ((4, 4, 4),), "h_v", ValueError)
    if mode == "poincare" and abs(y[4] - 1.0) > 1e-12:
        raise ValueError(f"poincare mode pins the auxiliary component to 1, got {y[4]}")
    w = y.copy()
    w[:4] = y[:4] + eps * (g_v[axis] * y[4] + 0.5 * (h_v[axis] @ y[:4]))
    if mode == "desitter":
        w[4] = y[4] - eps * float(g_v[axis] @ y[:4])
    return w


# ---------------------------------------------------------------------------
# gauge and frame transformations
# ---------------------------------------------------------------------------


def gauge_transform(field: PotentialField, o: np.ndarray) -> PotentialField:
    """Gauge transform by one orthogonal (5, 5) matrix at every transition or
    one per transition, shape (n_transitions, 5, 5); the input is not modified.

    A'_a = O A_a O^T - ((O_next - O_prev) / (2 eps)) O^T, with O_next and
    O_prev the matrices at the two same-direction transitions one site
    forward and backward along axis a, projected back onto the antisymmetric
    span (the central difference leaks a symmetric part of order eps^2).
    One matrix has an exactly zero derivative term: the result is the
    conjugation O A_a O^T, with exactly antisymmetric torsion.
    """
    n_t = field.graph.n_transitions
    o = liealg._as_group(o, float, ((5, 5), (n_t, 5, 5)), "o", ValueError)
    a = transport_generators(field.g, field.h)

    # Transition 4s + d - 1 is [s, d - 1] below; its neighbours one site
    # forward and backward along each axis carry the same direction d.
    graph = field.graph
    o = np.broadcast_to(o, (n_t, 5, 5)).reshape(graph.n_events, 4, 1, 5, 5)
    d = np.arange(4)[:, None]
    o_plus = o[graph.forward_sites[:, None, :], d, 0]
    o_minus = o[graph.backward_sites[:, None, :], d, 0]
    deriv = (o_plus - o_minus) * (1.0 / (2.0 * field.eps))
    ot = np.swapaxes(o, -1, -2)
    cand = o @ a.reshape(graph.n_events, 4, 4, 5, 5) @ ot - deriv @ ot
    a_new = 0.5 * (cand - np.swapaxes(cand, -1, -2))
    g_new, h_new = components_from_transport(a_new.reshape(n_t, 4, 5, 5))
    return PotentialField(graph, field.eps, g_new, h_new)


def lorentz_transform_field(field: PotentialField, lam: np.ndarray) -> PotentialField:
    """Frame change G' = L^T G L of the metric potential at every transition,
    G'_ab = sum_cd L_ca L_db G_cd, for a finite (4, 4) ``lam``; torsion untouched."""
    lam = liealg._as_blocks(lam, float, ((4, 4),), "lam", ValueError)
    g_new = np.einsum("ca,tcd,db->tab", lam, field.g, lam)
    return PotentialField(field.graph, field.eps, g_new, field.h.copy())


# ---------------------------------------------------------------------------
# flatness diagnostic
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FlatnessReport:
    max_residual: float
    residuals: np.ndarray
    actions: np.ndarray


def flatness_residual(field: PotentialField, graph: LatticeGraph) -> FlatnessReport:
    """Holonomy deficit of every plaquette of transport matrices.

    For each plaquette the four transports exp(eps A_d) are composed around
    the loop (reversed legs transposed) and the spectral norm of
    (loop - identity) is reported.  The norm choice is orthogonal-invariant,
    so exact gauge conjugation leaves every residual unchanged.

    Even a flat field has residual of order eps^2: same-axis transports
    commute with each other but transports along different axes do not.
    Thresholds are therefore calibrated relative to the flat baseline, not
    absolute.
    """
    _check_graph(field, graph)
    e0 = graph.n_events
    transports = edge_transport(field, e0 + np.arange(graph.n_transitions))
    loops = graph.plaquette_loops(transports)
    residuals = np.linalg.norm(loops - np.eye(5), 2, axis=(-2, -1))
    return FlatnessReport(
        max_residual=float(residuals.max()),
        residuals=residuals,
        actions=e0 + graph.n_transitions + np.arange(graph.n_actions),
    )


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

# Row and column of each independent torsion plane, in snapshot order.
_H_B, _H_C = zip(*liealg.PLANE_PAIRS)


def save_field(field: PotentialField, path) -> None:
    """Write one row per transition: vertex id, 16 g entries, 24 h entries.

    g is row major; h runs over component a = 0..3, planes (0,1), (0,2),
    (0,3), (1,2), (1,3), (2,3).
    """
    rows = np.concatenate(
        [field.g.reshape(-1, 16), field.h[:, :, _H_B, _H_C].reshape(-1, 24)], axis=1
    )
    title, header = "graphgauge potential field snapshot", {"eps": repr(float(field.eps))}
    legend = "columns: vertex g[16 row-major] h[a=0..3, planes b<c]"
    field.graph.write_snapshot(path, "transition", title, header, legend, rows)


def load_field(path, graph: LatticeGraph) -> PotentialField:
    """Read a snapshot written by `save_field` back onto a matching graph."""
    header, _, rows = graph.read_snapshot(path, "transition", "eps")
    if rows.shape[1] != 40:
        raise ValueError(f"snapshot rows have {rows.shape[1]} values, expected 40")
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"snapshot row {graph.n_events + bad[0]} has non-finite entries")
    field = flat_field(graph, float(header["eps"]))
    field.g[...] = rows[:, :16].reshape(-1, 4, 4)
    field.h[:, :, _H_B, _H_C] = rows[:, 16:].reshape(-1, 4, 6)
    field.h[:, :, _H_C, _H_B] = -field.h[:, :, _H_B, _H_C]
    return field
