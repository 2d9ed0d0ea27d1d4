"""Plaquette action for block links on the lattice graph.

A link value is a pair of blocks: a dynamical SU(N) matrix on the stored
(event, direction) slot and one orthogonal 5x5 block shared by every link.
A plaquette product composes the four links of a loop in the fixed
orientation (+mu, +nu, -mu, -nu), daggering the two reversed legs, and the
action sums the block traces of all plaquette products.

Both action numbers returned are computed from the same traversal:

* ``raw_trace_sum``: sum over plaquettes of Re tr(su part) + tr(so5 part);
* ``normalized``: beta * sum of (1 - Re tr(su part) / N), the form the
  sampler uses.  The so5 block drops out of differences, being constant.

Per-plaquette traces are reduced in sorted order (pairwise summation on the
sorted array), which makes the floating point result invariant under any
relabeling or automorphism of the graph, bit for bit.

The trace kernel, the gauge rotation and the sampler's proposed links and
staple sum work in buffers kept per graph and thread (`liealg._scratch`): fresh
ones, freed at glibc's heap-trim edge, faulted about 480 pages in again per 4^4
SU(3) sweep plus plaquette.  No bit moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import liealg
from .graphlat import GraphError, LatticeGraph, _check_graph, _enforce, _number, _several


class LinkFieldError(ValueError):
    pass


_SO5_SHAPES = ((5, 5),)  # the shapes an so5 or conjugating block may take
_N_COLORS = ("n_colors", *liealg._N[1:])  # liealg's rule for N, as a field's

# `_enforce` rules (field, accept, requirement) of the action's coupling, of the
# continuum check's spacings and box, and of a field strength's plane.
_ACTION_RULES = (("beta", _number(), "a finite value"),)


def _tiled(box, accepted):
    """The box, if every spacing tiles it: else two spacings average different areas."""
    ratios = accepted["box_extent"] / np.asarray(accepted["eps_list"])
    if np.any(np.abs(ratios - np.round(ratios)) > 1e-9 * ratios):
        raise ValueError(box)
    return accepted["box_extent"]


_CONTINUUM_RULES = (
    ("eps_list", _several(_number(gt=0), 3, distinct=True),
     "three or more distinct finite spacings > 0"),
    ("box_extent", _number(gt=0), "a finite value > 0"),
    ("box_extent", _tiled,
     "a finite value > 0 that every spacing tiles: box_extent / eps an integer"),
)
_PLANE_RULES = (("plane", _several(_number(int, ge=0, le=3), 2, 2, distinct=True),
                  "two distinct integer axes in 0..3"),)


class LinkField:
    """SU(N) blocks per stored link plus the shared so5 block.  ``cm``, the
    C-contiguous (N, N, 4E) complex array that the batched kernels read and
    write, is the field; ``su[e, d - 1]`` is link (e, d), a view of column
    4 e + d - 1 of ``cm``.  A ``su`` that is such a view is adopted, not copied.
    ``cm``, ``su`` and ``n_colors`` are read-only; the arrays are written in place.
    ``so5`` is stored as one float (5, 5) block whenever it is assigned; its
    orthogonality is `validate_links`' to check."""

    def __init__(self, graph: LatticeGraph, n_colors: int, su: np.ndarray, so5: np.ndarray):
        n_colors = _enforce((_N_COLORS,), {"n_colors": n_colors}, LinkFieldError)["n_colors"]
        shape, want = np.shape(su), (graph.n_events, 4, n_colors, n_colors)
        if shape != want:
            raise LinkFieldError(f"su must have shape {want}, got {shape} for N={n_colors}")
        self.graph = graph
        self.so5 = so5
        su = np.transpose(su, (2, 3, 0, 1))
        self._cm = np.ascontiguousarray(su, dtype=complex).reshape(n_colors, n_colors, -1)

    @property
    def cm(self) -> np.ndarray:
        return self._cm

    @property
    def so5(self) -> np.ndarray:
        return self._so5

    @so5.setter
    def so5(self, o) -> None:
        self._so5 = liealg._as_blocks(o, float, _SO5_SHAPES, "so5 block", LinkFieldError)

    @property
    def n_colors(self) -> int:
        return self._cm.shape[0]

    @property
    def su(self) -> np.ndarray:
        return self._cm.transpose(2, 0, 1).reshape(-1, 4, *self._cm.shape[:2])

    def copy(self) -> "LinkField":
        return LinkField(self.graph, self.n_colors, self.su.copy(order="K"), self.so5.copy())


def identity_links(graph: LatticeGraph, n_colors: int, so5: np.ndarray | None = None) -> LinkField:
    # N is held to its rule first, and then a zero-stride placeholder stands in
    # for the field, so an unsupported N is refused before any allocation.
    n_colors = _enforce((_N_COLORS,), {"n_colors": n_colors}, LinkFieldError)["n_colors"]
    placeholder = np.broadcast_to(0j, (graph.n_events, 4, n_colors, n_colors))
    lf = LinkField(graph, n_colors, placeholder, np.eye(5) if so5 is None else so5)
    lf.cm[...] = np.eye(n_colors)[:, :, None]
    return lf


def random_links(
    graph: LatticeGraph,
    n_colors: int,
    rng: np.random.Generator,
    so5: np.ndarray | None = None,
) -> LinkField:
    """Independent Haar SU(N) draws on every stored link, event major."""
    lf = identity_links(graph, n_colors, so5)
    lf.su[...] = liealg.haar_random_sun(n_colors, rng, count=graph.n_transitions).reshape(
        lf.su.shape
    )
    return lf


def pure_gauge_links(graph: LatticeGraph, n_colors: int, rng: np.random.Generator) -> LinkField:
    """Links of the form U(x, d) = W(x) W(x + d)^dag for random site matrices W,
    with the identity so5 block."""
    lf = identity_links(graph, n_colors)  # refuses an unsupported N by its field name
    return local_gauge_links(lf, liealg.haar_random_sun(lf.n_colors, rng, count=graph.n_events))


def validate_links(lf: LinkField) -> None:
    """Reject su blocks that are not unitary with unit determinant, and an so5
    block that is not orthogonal."""
    tol, u, chunk = liealg.DEFECT_TOL, lf.cm, liealg._CHUNK
    defects, bad_det = np.empty(u.shape[2]), np.empty(u.shape[2], dtype=bool)
    for start in range(0, u.shape[2], chunk):
        part = slice(start, start + chunk)
        defects[part] = liealg.unitarity_defect(u[:, :, part].transpose(2, 0, 1))
        # A non-finite link already shows as an infinite defect, whatever its det.
        with np.errstate(invalid="ignore"):
            bad_det[part] = np.abs(liealg._cm_det(u[:, :, part]) - 1.0) > tol * 10
    bad = np.flatnonzero((defects > tol) | bad_det)
    if bad.size:
        (e, d), defect = divmod(int(bad[0]), 4), defects[bad[0]]
        if defect > tol:
            raise LinkFieldError(f"link ({e}, {d + 1}) is not unitary, defect {defect:.3e}")
        raise LinkFieldError(f"link ({e}, {d + 1}) determinant is not 1")
    liealg._as_group(lf.so5, float, _SO5_SHAPES, "so5 block", LinkFieldError)


# ---------------------------------------------------------------------------
# plaquette products and action
# ---------------------------------------------------------------------------


def plaquette_product(lf: LinkField, action: int) -> tuple[np.ndarray, np.ndarray]:
    """Ordered product of the four links around an action vertex's loop, as
    the block pair ``(su, so5)``.

    The walk starts at the tail of the first of `LatticeGraph.action_transitions`
    and takes the legs in loop order by adjacency alone: a leg entered at its
    tail contributes its stored blocks, one entered at its head their dagger
    (the transpose for the so5 block).  A leg that touches neither end of the
    walk, or a walk that does not return to its start, raises GraphError.
    """
    g = lf.graph
    legs = np.array(g.action_transitions(action))
    dirs, offsets = g.transition_direction(legs).tolist(), g.transition_offset(legs).tolist()
    start = here = g.neighbor(legs[0], -dirs[0])
    su = so5 = None
    for t, d, k in zip(legs.tolist(), dirs, offsets):
        m, o = lf.su[k // 4, k % 4], lf.so5
        tail, head = g.neighbor(t, -d), g.neighbor(t, d)
        if here == tail:
            here = head
        elif here == head:
            here, m, o = tail, m.conj().T, o.T
        else:
            raise GraphError(f"leg {t} of action {action} has no end at event {here}")
        su = m if su is None else su @ m
        so5 = o if so5 is None else so5 @ o
    if here != start:
        raise GraphError(f"the loop of action {action} ends at event {here}, not {start}")
    return su, so5


@dataclass
class ActionValue:
    raw_trace_sum: float
    normalized: float
    n_plaquettes: int
    so5_loop_trace: float


def _plaquette_traces(lf: LinkField, graph: LatticeGraph) -> np.ndarray:
    """Re tr of the su block of every plaquette product, batched.

    tr(l0 l1 l2^dag l3^dag) is the sum of (l0 l1) o conj(l3 l2), so two
    component-major products and one elementwise sum give every trace; the
    loop itself is never formed.  Each pass of `liealg._CHUNK` plaquettes
    gathers its legs and forms its products in `liealg._scratch` buffers.
    """
    n, u, chunk = lf.n_colors, lf.cm, liealg._CHUNK
    table = graph.plaquette_table
    traces = np.empty(len(table))
    (buf,) = liealg._scratch(graph, "traces", n, ((5 * n * n * min(chunk, len(table)),),))
    for start in range(0, len(table), chunk):
        l0, l1, l2, l3 = table[start:start + chunk].T
        width = len(l0)
        left, right, front, back, tmp = buf[:5 * n * n * width].reshape(5, n, n, width)
        for legs, out in (((l0, l1), front), ((l3, l2), back)):
            np.take(u, legs[0], axis=2, out=left, mode="clip")
            np.take(u, legs[1], axis=2, out=right, mode="clip")
            liealg._cm_product(left, right, out=out, tmp=tmp)
        # Re(a conj(b)) = a.re b.re + a.im b.im, summed in one order for any pass size.
        front = front.view(float).reshape(n * n, -1, 2)
        front *= back.view(float).reshape(front.shape)
        entries = front[..., 0] + front[..., 1]
        trace = np.add(entries[0], entries[1], out=traces[start:start + width])
        for row in entries[2:]:
            trace += row
    return traces


def _canonical_sum(values: np.ndarray) -> float:
    # Sorted pairwise reduction: independent of enumeration order, so graph
    # automorphisms and relabelings cannot move the last bit.
    return float(np.sum(np.sort(values)))


def wilson_action(lf: LinkField, graph: LatticeGraph, beta: float) -> ActionValue:
    """Total plaquette action of the link field.

    Parameters
    ----------
    lf : LinkField
    graph : LatticeGraph
        Must be the graph the field was built on.
    beta : float
        Coupling used for the normalized form.

    Returns
    -------
    ActionValue
        raw_trace_sum = sum_p [Re tr su_p + tr so5_p] and
        normalized = beta * sum_p (1 - Re tr su_p / N), from one traversal.
    """
    _check_graph(lf, graph)
    _enforce(_ACTION_RULES, {"beta": beta})
    traces = _plaquette_traces(lf, graph)
    n_p = traces.shape[0]
    so5_loop = lf.so5 @ lf.so5 @ lf.so5.T @ lf.so5.T
    so5_trace = float(np.trace(so5_loop))
    su_sum = _canonical_sum(traces)
    raw = su_sum + n_p * so5_trace
    normalized = beta * (n_p - su_sum / lf.n_colors)
    return ActionValue(
        raw_trace_sum=raw,
        normalized=normalized,
        n_plaquettes=n_p,
        so5_loop_trace=so5_trace,
    )


# ---------------------------------------------------------------------------
# gauge operations
# ---------------------------------------------------------------------------


def local_gauge_links(lf: LinkField, omegas: np.ndarray) -> LinkField:
    """Site-local gauge rotation U'(x, d) = W(x) U(x, d) W(x + d)^dag."""
    shape = (lf.graph.n_events, lf.n_colors, lf.n_colors)
    omegas = liealg._as_group(omegas, complex, (shape,), "gauge matrix stack", LinkFieldError)
    n, w = lf.n_colors, omegas.transpose(1, 2, 0)
    fwd = lf.graph.forward_sites
    out = LinkField(lf.graph, n, np.empty_like(lf.su), lf.so5.copy())
    u, moved_u = lf.cm.reshape(n, n, -1, 4), out.cm.reshape(n, n, -1, 4)
    sites = max(liealg._CHUNK // 4, 1)
    # Each pass's W(x), copied along the direction axis: a stride-0 W would run
    # numpy's inner loops 4 elements at a time.
    (w_x,) = liealg._scratch(lf.graph, "gauge", n, ((n, n, min(sites, len(fwd)), 4),))
    for start in range(0, len(fwd), sites):
        part = slice(start, start + sites)
        w_part = w_x[:, :, :len(fwd[part])]
        w_part[...] = w[:, :, part, None]
        moved = liealg._cm_product(w_part, u[:, :, part])
        moved_u[:, :, part] = liealg._cm_product(moved, w[:, :, fwd[part]], "b")
    return out


def global_so5_conjugate(lf: LinkField, o: np.ndarray) -> LinkField:
    """Conjugate the shared so5 block by one orthogonal matrix."""
    o = liealg._as_group(o, float, _SO5_SHAPES, "conjugating matrix", LinkFieldError)
    out = lf.copy()
    out.so5 = o @ lf.so5 @ o.T
    return out


# ---------------------------------------------------------------------------
# continuum deficit check
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ConvergenceReport:
    eps: np.ndarray
    deficit: np.ndarray
    predicted: np.ndarray
    remainder: np.ndarray
    deficit_slope: float
    remainder_slope: float


def _spread(points: np.ndarray, values) -> np.ndarray:
    """A function's matrices at a (..., 4) stack of points, one (N, N) spread over it."""
    return np.broadcast_to(values, points.shape[:-1] + np.shape(values)[-2:])


def finite_difference_field_strength(
    potential_fn: Callable[[np.ndarray, int], np.ndarray],
    x: np.ndarray,
    plane: tuple[int, int],
) -> np.ndarray:
    """F_{mu nu}(x) = d_mu A_nu - d_nu A_mu + i [A_mu, A_nu] at a (..., 4) stack of
    points, central derivatives with step 1e-6; ``plane`` is two distinct axes 0..3.
    A point stack of another shape, or with a non-finite coordinate, is refused."""
    mu, nu = _enforce(_PLANE_RULES, {"plane": plane})["plane"]
    x = liealg._as_blocks(x, float, (np.shape(x)[:-1] + (4,),), "x", ValueError)
    step = 1e-6
    e_mu, e_nu = np.eye(4)[[mu, nu]]
    d_mu_a_nu, d_nu_a_mu = (
        (potential_fn(x + step * e, m) - potential_fn(x - step * e, m)) / (2 * step)
        for e, m in ((e_mu, nu), (e_nu, mu))
    )
    a_mu, a_nu = potential_fn(x, mu), potential_fn(x, nu)
    return _spread(x, d_mu_a_nu - d_nu_a_mu + 1j * (a_mu @ a_nu - a_nu @ a_mu))


def continuum_convergence(
    potential_fn: Callable[[np.ndarray, int], np.ndarray],
    eps_list: Sequence[float],
    box_extent: float = 0.2,
    base_point: np.ndarray | None = None,
    field_strength_fn: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ConvergenceReport:
    """Deficit of midpoint-sampled plaquettes against the leading field term.

    For each spacing, the box ``[0, box_extent]^2`` in the (0, 1) plane is
    tiled with eps-sized plaquettes anchored at ``base_point``; a box that some
    spacing does not tile is refused.  Links are
    U = exp(i eps A(midpoint)); the per-plaquette deficit is
    N - Re tr(loop), with N read off the link matrices, and the prediction is
    (eps^4 / 2) tr(F^2) with F at the plaquette center, from
    ``field_strength_fn`` if given and otherwise from central finite
    differences of the potential.

    ``potential_fn(x, mu)`` and ``field_strength_fn(x)`` take a (..., 4) stack of
    points, as `baseline.violation_4d_embedded`'s ``field_fn`` does, and return a
    (..., N, N) stack or one (N, N) for all; a spacing is one call per leg.

    The remainder (deficit minus prediction, box mean) scales as eps^6 for
    generic smooth potentials.  Configurations whose loop exponent has no
    higher corrections, such as constant field strength in a commuting
    family, converge faster still.
    """
    sizes = _enforce(_CONTINUUM_RULES, {"eps_list": eps_list, "box_extent": box_extent})
    eps_list, box_extent = sizes["eps_list"], sizes["box_extent"]
    base = np.zeros(4) if base_point is None else base_point
    base = liealg._as_blocks(base, float, ((4,),), "base_point", ValueError)
    e_mu, e_nu = np.eye(4)[:2]

    deficits, predictions = [], []
    for eps in eps_list:
        n_side = round(box_extent / eps)
        j, k = np.divmod(np.arange(n_side * n_side)[:, None], n_side)
        anchor = base + eps * j * e_mu + eps * k * e_nu
        half = 0.5 * eps
        mids = (anchor + half * e_mu, anchor + eps * e_mu + half * e_nu,
                anchor + half * e_mu + eps * e_nu, anchor + half * e_nu)
        u1, u2, u3, u4 = (liealg._exp_i_hermitian(eps * _spread(x, potential_fn(x, mu)))
                          for x, mu in zip(mids, (0, 1, 0, 1)))
        loop = u1 @ u2 @ u3.conj().transpose(0, 2, 1) @ u4.conj().transpose(0, 2, 1)
        deficits.append(float(np.mean(loop.shape[-1] - np.trace(loop, axis1=-2, axis2=-1).real)))
        center = anchor + half * (e_mu + e_nu)
        if field_strength_fn is not None:
            f = _spread(center, field_strength_fn(center))
        else:
            f = finite_difference_field_strength(potential_fn, center, (0, 1))
        predictions.append(float(np.mean(0.5 * eps**4 * np.trace(f @ f, axis1=-2, axis2=-1).real)))

    eps_arr = np.asarray(eps_list, dtype=float)
    deficit, predicted = np.asarray(deficits), np.asarray(predictions)
    remainder = np.abs(deficit - predicted)

    def _slope(vals):
        good = vals > 0
        if good.sum() < 2:
            return float("nan")
        return float(np.polyfit(np.log(eps_arr[good]), np.log(vals[good]), 1)[0])

    return ConvergenceReport(
        eps=eps_arr,
        deficit=deficit,
        predicted=predicted,
        remainder=remainder,
        deficit_slope=_slope(np.abs(deficit)),
        remainder_slope=_slope(remainder),
    )


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


def save_links(lf: LinkField, path) -> None:
    """Header (N, dims, periodic, so5 block), then one row per link.

    Link rows carry the event id, the direction, and the su block row major
    with real and imaginary parts interleaved.
    """
    g = lf.graph
    so5 = " ".join(map(repr, lf.so5.ravel().tolist()))
    rows = np.ascontiguousarray(lf.su).reshape(g.n_transitions, -1).view(np.float64)
    title = "graphgauge link field snapshot"
    g.write_snapshot(path, "link", title, {"N": lf.n_colors}, f"so5: {so5}", rows)


def load_links(path, graph: LatticeGraph) -> LinkField:
    """Read a snapshot written by `save_links`; blocks are re-validated."""
    header, note, rows = graph.read_snapshot(path, "link", "N")
    if not note.startswith("so5:"):
        raise ValueError("snapshot is missing the so5 header line")
    values = note[4:].split()
    if len(values) != 25:
        raise ValueError(f"snapshot so5 line holds {len(values)} values, expected 25")
    lf = identity_links(graph, int(header["N"]), np.array(values, dtype=float).reshape(5, 5))
    n = lf.n_colors
    if rows.shape[1] != 2 * n * n:
        raise ValueError(f"snapshot rows have {rows.shape[1]} values, expected {2 * n * n}")
    lf.su[...] = rows.view(complex).reshape(lf.su.shape)
    validate_links(lf)
    return lf
