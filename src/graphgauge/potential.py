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
from .graphlat import GraphError, LatticeGraph, Role

MODES = ("poincare", "desitter")


class OrthogonalityError(ValueError):
    def __init__(self, defect: float):
        self.defect = float(defect)
        super().__init__(f"matrix is not orthogonal, max defect {defect:.3e}")


@dataclass
class PotentialField:
    """Per-transition potential data tied to one graph.

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

    def entry(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(g, h) tables at transition vertex v."""
        i = self.graph.transition_offset(v)
        return self.g[i], self.h[i]

    def copy(self) -> "PotentialField":
        return PotentialField(self.graph, self.eps, self.g.copy(), self.h.copy())


def flat_field(graph: LatticeGraph, eps: float) -> PotentialField:
    """Identity metric potential, vanishing torsion, at every transition."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    t = graph.n_transitions
    g = np.broadcast_to(np.eye(4), (t, 4, 4)).copy()
    h = np.zeros((t, 4, 4, 4))
    return PotentialField(graph, float(eps), g, h)


def random_field(
    graph: LatticeGraph, eps: float, rng: np.random.Generator, scale: float = 1.0
) -> PotentialField:
    """Independent uniform entries in +-scale, torsion antisymmetrized."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    t = graph.n_transitions
    g = rng.uniform(-scale, scale, size=(t, 4, 4))
    raw = rng.uniform(-scale, scale, size=(t, 4, 4, 4))
    h = raw - np.swapaxes(raw, 2, 3)
    return PotentialField(graph, float(eps), g, h)


# ---------------------------------------------------------------------------
# assembly and projection
# ---------------------------------------------------------------------------


def assemble_potential(
    field: PotentialField, v: int, gens: liealg.GeneratorSet
) -> np.ndarray:
    """Algebra-scale potential matrices A[a] at transition vertex v."""
    if field.graph.role(v) != Role.TRANSITION:
        raise GraphError(f"vertex {v} is not a transition vertex")
    g, h = field.entry(v)
    return liealg.assemble_components(g, h, gens)


def decompose_potential(
    a: np.ndarray, gens: liealg.GeneratorSet
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of `assemble_potential`; rejects out-of-span input."""
    g, h = liealg.project_components(a, gens)
    # Projection fills plane pairs antisymmetrically already; enforce exactly.
    h = 0.5 * (h - np.swapaxes(h, 1, 2))
    return g, h


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
    # Transition offset 4s + d - 1 travels along axis d - 1.
    a = np.take_along_axis(a, (np.asarray(i) % 4)[..., None, None, None], axis=-3)[..., 0, :, :]
    return liealg.expm5(field.eps * a)


# ---------------------------------------------------------------------------
# coordinate stepping and relabeling
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
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if not 0 <= axis <= 3:
        raise ValueError(f"axis must be 0..3, got {axis}")
    y = np.asarray(y, dtype=float)
    if y.shape != (5,):
        raise ValueError(f"label must have shape (5,), got {y.shape}")
    if mode == "poincare" and abs(y[4] - 1.0) > 1e-12:
        raise ValueError(f"poincare mode pins the auxiliary component to 1, got {y[4]}")
    w = y.copy()
    w[:4] = y[:4] + eps * (g_v[axis] * y[4] + 0.5 * (h_v[axis] @ y[:4]))
    if mode == "desitter":
        w[4] = y[4] - eps * float(g_v[axis] @ y[:4])
    return w


@dataclass(frozen=True)
class RelabelMap:
    """Affine relabeling of the four coordinate components: y -> chi y + omega."""

    chi: np.ndarray
    omega: np.ndarray


def relabel_coordinates(labels: np.ndarray, rmap: RelabelMap) -> np.ndarray:
    """Apply an affine relabel to every row of a label table.

    The auxiliary fifth component is untouched.  Field values never change
    under relabeling; labels are names, not data.
    """
    chi = np.asarray(rmap.chi, dtype=float)
    omega = np.asarray(rmap.omega, dtype=float)
    if chi.shape != (4, 4) or omega.shape != (4,):
        raise ValueError("relabel map needs chi (4,4) and omega (4,)")
    if abs(np.linalg.det(chi)) < 1e-12:
        raise ValueError("relabel map chi is singular")
    labels = np.asarray(labels, dtype=float)
    out = labels.copy()
    out[..., :4] = labels[..., :4] @ chi.T + omega
    return out


# ---------------------------------------------------------------------------
# gauge and frame transformations
# ---------------------------------------------------------------------------


def _check_orthogonal(o: np.ndarray, tol: float):
    defect = liealg.orthogonality_defect(o).max()
    if defect > tol:
        raise OrthogonalityError(defect)


def gauge_transform(
    field: PotentialField,
    o: np.ndarray,
    mode: str = "global",
    tol: float = 1e-10,
) -> PotentialField:
    """Gauge transform the potential field by orthogonal matrices.

    Parameters
    ----------
    field : PotentialField
    o : ndarray
        Shape (5, 5) for mode "global" (one matrix applied everywhere) or
        (n_transitions, 5, 5) for mode "local".
    mode : str
        "global": A'_a = O A_a O^T at every transition.
        "local": additionally subtracts the discrete derivative term
        ((O_next - O_prev) / (2 eps)) O^T, with O sampled at the two
        same-direction transitions one site forward and backward along
        axis a.  The result is projected back onto the antisymmetric span
        (the symmetric leakage of the central difference is order eps^2).

    Returns
    -------
    PotentialField
        New field; the input is not modified.
    """
    n_t = field.graph.n_transitions
    o = np.asarray(o, dtype=float)
    a = transport_generators(field.g, field.h)
    if mode == "global":
        if o.shape != (5, 5):
            raise ValueError(f"global mode expects one (5,5) matrix, got {o.shape}")
        _check_orthogonal(o, tol)
        g_new, h_new = components_from_transport(np.einsum("ij,tajk,lk->tail", o, a, o))
        return PotentialField(field.graph, field.eps, g_new, h_new)
    if mode != "local":
        raise ValueError(f"unknown mode {mode!r}, expected 'global' or 'local'")
    if o.shape != (n_t, 5, 5):
        raise ValueError(
            f"local mode expects per-transition matrices ({n_t},5,5), got {o.shape}"
        )
    _check_orthogonal(o, tol)

    # Transition 4s + d - 1 is [s, d - 1] below; its neighbours one site
    # forward and backward along each axis carry the same direction d.
    graph = field.graph
    o = o.reshape(graph.n_events, 4, 1, 5, 5)
    d = np.arange(4)[:, None]
    o_plus = o[graph.forward_sites[:, None, :], d, 0]
    o_minus = o[graph.backward_sites[:, None, :], d, 0]
    deriv = (o_plus - o_minus) * (1.0 / (2.0 * field.eps))
    ot = np.swapaxes(o, -1, -2)
    cand = o @ a.reshape(graph.n_events, 4, 4, 5, 5) @ ot - deriv @ ot
    a_new = 0.5 * (cand - np.swapaxes(cand, -1, -2))
    g_new, h_new = components_from_transport(a_new.reshape(n_t, 4, 5, 5))
    return PotentialField(graph, field.eps, g_new, h_new)


def lorentz_transform_metric(g_mat: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Frame change of the metric potential: G'_ab = sum_cd L_ca L_db G_cd."""
    g_mat = np.asarray(g_mat, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if g_mat.shape != (4, 4) or lam.shape != (4, 4):
        raise ValueError("lorentz_transform_metric expects (4,4) matrices")
    return lam.T @ g_mat @ lam


def lorentz_transform_field(field: PotentialField, lam: np.ndarray) -> PotentialField:
    """Apply `lorentz_transform_metric` at every transition; torsion untouched."""
    lam = np.asarray(lam, dtype=float)
    g_new = np.einsum("ca,tcd,db->tab", lam, field.g, lam)
    return PotentialField(field.graph, field.eps, g_new, field.h.copy())


# ---------------------------------------------------------------------------
# flatness diagnostic
# ---------------------------------------------------------------------------


@dataclass
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
    if field.graph is not graph and not field.graph.compatible(graph):
        raise GraphError("field and graph do not match")
    e0 = graph.n_events
    transports = edge_transport(field, e0 + np.arange(graph.n_transitions))
    t1, t2, t3, t4 = transports[graph.plaquette_table.transitions.T]
    loops = t1 @ t2 @ np.swapaxes(t3, -1, -2) @ np.swapaxes(t4, -1, -2)
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
    graph = field.graph
    with open(path, "w") as fh:
        fh.write("# graphgauge potential field snapshot\n")
        fh.write(
            f"# eps={field.eps!r} dims={','.join(map(str, graph.dims))} "
            "periodic=1\n"
        )
        fh.write("# columns: vertex g[16 row-major] h[a=0..3, planes b<c]\n")
        rows = np.concatenate(
            [field.g.reshape(-1, 16), field.h[:, :, _H_B, _H_C].reshape(-1, 24)], axis=1
        )
        for v, vals in enumerate(rows.tolist(), start=graph.n_events):
            fh.write(" ".join([str(v)] + [repr(x) for x in vals]) + "\n")


def load_field(path, graph: LatticeGraph) -> PotentialField:
    """Read a snapshot written by `save_field` back onto a matching graph."""
    eps = None
    periodic = None
    rows = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "eps=" in line:
                    for tok in line[1:].split():
                        if tok.startswith("eps="):
                            eps = float(tok[4:])
                        if tok.startswith("periodic="):
                            periodic = tok[9:]
                        if tok.startswith("dims="):
                            dims = tuple(int(x) for x in tok[5:].split(","))
                            if dims != graph.dims:
                                raise ValueError(
                                    f"snapshot dims {dims} do not match graph {graph.dims}"
                                )
                continue
            parts = line.split()
            rows[int(parts[0])] = [float(x) for x in parts[1:]]
    if eps is None:
        raise ValueError("snapshot is missing the eps header")
    if periodic != "1":
        raise ValueError(f"snapshot must be periodic (header periodic=1), got periodic={periodic}")
    if len(rows) != graph.n_transitions:
        raise ValueError(
            f"snapshot covers {len(rows)} transitions, graph has {graph.n_transitions}"
        )
    field = flat_field(graph, eps)
    for v, vals in rows.items():
        if graph.role(v) != Role.TRANSITION:
            raise ValueError(f"snapshot row {v} is not a transition vertex")
        if len(vals) != 40:
            raise ValueError(f"snapshot row {v} has {len(vals)} values, expected 40")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"snapshot row {v} has non-finite entries")
        i = graph.transition_offset(v)
        field.g[i] = np.array(vals[:16]).reshape(4, 4)
        h = field.h[i]
        h[:, _H_B, _H_C] = np.reshape(vals[16:], (4, 6))
        h[:, _H_C, _H_B] = -h[:, _H_B, _H_C]
    return field
