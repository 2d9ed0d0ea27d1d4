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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import liealg
from .graphlat import GraphError, LatticeGraph, PlaquetteRef

SUPPORTED_N = (2, 3)


class LinkFieldError(ValueError):
    pass


@dataclass
class LinkField:
    """SU(N) blocks per stored link plus the shared so5 block."""

    graph: LatticeGraph
    n_colors: int
    su: np.ndarray          # (n_events, 4, N, N) complex
    so5: np.ndarray         # (5, 5) real orthogonal

    def link(self, event: int, direction: int) -> liealg.LinkMatrix:
        if not 1 <= direction <= 4:
            raise LinkFieldError(f"direction must be 1..4, got {direction}")
        return liealg.LinkMatrix(su=self.su[event, direction - 1], so5=self.so5)

    def copy(self) -> "LinkField":
        return LinkField(self.graph, self.n_colors, self.su.copy(), self.so5.copy())


def _check_n(n_colors: int):
    if n_colors not in SUPPORTED_N:
        raise LinkFieldError(f"unsupported N={n_colors}, expected one of {SUPPORTED_N}")


def _dagger(u: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(u, -1, -2))


def identity_links(graph: LatticeGraph, n_colors: int, so5: np.ndarray | None = None) -> LinkField:
    _check_n(n_colors)
    so5 = np.eye(5) if so5 is None else np.asarray(so5, dtype=float)
    su = np.broadcast_to(
        np.eye(n_colors, dtype=complex), (graph.n_events, 4, n_colors, n_colors)
    ).copy()
    return LinkField(graph, n_colors, su, so5)


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


def pure_gauge_links(
    graph: LatticeGraph,
    n_colors: int,
    rng: np.random.Generator,
    so5: np.ndarray | None = None,
) -> LinkField:
    """Links of the form U(x, d) = W(x) W(x + d)^dag for random site matrices W."""
    lf = identity_links(graph, n_colors, so5)
    w = liealg.haar_random_sun(n_colors, rng, count=graph.n_events)
    lf.su[...] = w[:, None] @ _dagger(w[graph.forward_sites])
    return lf


def validate_links(lf: LinkField, tol: float = 1e-10) -> None:
    """Reject su blocks that are not unitary with unit determinant."""
    n = lf.n_colors
    defects = liealg.unitarity_defect(lf.su)
    # A non-finite link already shows as an infinite defect; its det is NaN.
    with np.errstate(invalid="ignore"):
        bad_det = np.abs(np.linalg.det(lf.su) - 1.0) > tol * 10
    bad = np.flatnonzero((defects > tol) | bad_det)
    if bad.size:
        e, d = divmod(int(bad[0]), 4)
        if defects[e, d] > tol:
            raise LinkFieldError(
                f"link ({e}, {d + 1}) is not unitary, defect {defects[e, d]:.3e}"
            )
        raise LinkFieldError(f"link ({e}, {d + 1}) determinant is not 1")
    if liealg.orthogonality_defect(lf.so5) > tol:
        raise LinkFieldError("so5 block is not orthogonal")
    if n != lf.su.shape[-1]:
        raise LinkFieldError("n_colors does not match block shape")


# ---------------------------------------------------------------------------
# plaquette products and action
# ---------------------------------------------------------------------------


def plaquette_product(lf: LinkField, p: PlaquetteRef) -> liealg.LinkMatrix:
    """Ordered product of the four links around plaquette p.

    Steps with positive direction use the stored matrix, steps with negative
    direction use the dagger of the link stored at the step's destination.
    The so5 blocks compose the same loop, with transposes on reversed legs.
    """
    g = lf.graph
    su = None
    so5 = None
    for event, sd in p.links:
        if sd > 0:
            m = lf.su[event, sd - 1]
            o = lf.so5
        else:
            stored = g.event_neighbor(event, sd)
            m = lf.su[stored, -sd - 1].conj().T
            o = lf.so5.T
        su = m if su is None else su @ m
        so5 = o if so5 is None else so5 @ o
    return liealg.LinkMatrix(su=su, so5=so5)


@dataclass
class ActionValue:
    raw_trace_sum: float
    normalized: float
    beta: float
    n_plaquettes: int
    so5_loop_trace: float


def _plaquette_traces(lf: LinkField, graph: LatticeGraph) -> np.ndarray:
    """Re tr of the su block of every plaquette product, batched."""
    pt = graph.plaquette_table
    c0, c1, _, c3 = pt.corners.T
    mu = pt.mu - 1
    nu = pt.nu - 1
    a = lf.su[c0, mu]
    b = lf.su[c1, nu]
    c = _dagger(lf.su[c3, mu])
    d = _dagger(lf.su[c0, nu])
    loops = a @ b @ c @ d
    return np.einsum("pii->p", loops).real


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
    if lf.graph is not graph and not lf.graph.compatible(graph):
        raise GraphError("link field was built on a different graph")
    if lf.su.shape[0] != graph.n_events:
        raise LinkFieldError("link field does not cover the graph's links")
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
        beta=beta,
        n_plaquettes=n_p,
        so5_loop_trace=so5_trace,
    )


# ---------------------------------------------------------------------------
# gauge operations
# ---------------------------------------------------------------------------


def local_gauge_links(lf: LinkField, omegas: np.ndarray, tol: float = 1e-10) -> LinkField:
    """Site-local gauge rotation U'(x, d) = W(x) U(x, d) W(x + d)^dag."""
    omegas = np.asarray(omegas, dtype=complex)
    expected = (lf.graph.n_events, lf.n_colors, lf.n_colors)
    if omegas.shape != expected:
        raise LinkFieldError(f"expected site matrices of shape {expected}, got {omegas.shape}")
    worst = liealg.unitarity_defect(omegas).max()
    if worst > tol:
        raise LinkFieldError(f"gauge matrices are not unitary, defect {worst:.3e}")
    su = omegas[:, None] @ lf.su @ _dagger(omegas[lf.graph.forward_sites])
    return LinkField(lf.graph, lf.n_colors, su, lf.so5.copy())


def global_so5_conjugate(lf: LinkField, o: np.ndarray, tol: float = 1e-10) -> LinkField:
    """Conjugate the shared so5 block by one orthogonal matrix."""
    o = np.asarray(o, dtype=float)
    defect = liealg.orthogonality_defect(o)
    if defect > tol:
        raise LinkFieldError(f"conjugating matrix is not orthogonal, defect {defect:.3e}")
    out = lf.copy()
    out.so5 = o @ lf.so5 @ o.T
    return out


# ---------------------------------------------------------------------------
# continuum deficit check
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceReport:
    eps: np.ndarray
    deficit: np.ndarray
    predicted: np.ndarray
    remainder: np.ndarray
    deficit_slope: float
    remainder_slope: float


def _expi(h: np.ndarray) -> np.ndarray:
    """exp(i h) for Hermitian h, via the eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def finite_difference_field_strength(
    potential_fn: Callable[[np.ndarray, int], np.ndarray],
    x: np.ndarray,
    plane: tuple[int, int],
    step: float = 1e-6,
) -> np.ndarray:
    """F_{mu nu}(x) = d_mu A_nu - d_nu A_mu + i [A_mu, A_nu], derivatives central."""
    mu, nu = plane
    e_mu = np.zeros(4)
    e_mu[mu] = 1.0
    e_nu = np.zeros(4)
    e_nu[nu] = 1.0
    d_mu_a_nu = (potential_fn(x + step * e_mu, nu) - potential_fn(x - step * e_mu, nu)) / (
        2 * step
    )
    d_nu_a_mu = (potential_fn(x + step * e_nu, mu) - potential_fn(x - step * e_nu, mu)) / (
        2 * step
    )
    a_mu = potential_fn(x, mu)
    a_nu = potential_fn(x, nu)
    return d_mu_a_nu - d_nu_a_mu + 1j * (a_mu @ a_nu - a_nu @ a_mu)


def continuum_convergence(
    potential_fn: Callable[[np.ndarray, int], np.ndarray],
    eps_list: Sequence[float],
    n_colors: int = 2,
    plane: tuple[int, int] = (0, 1),
    box_extent: float = 0.2,
    base_point: np.ndarray | None = None,
    field_strength_fn: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ConvergenceReport:
    """Deficit of midpoint-sampled plaquettes against the leading field term.

    For each spacing, the box ``[0, box_extent]^2`` in the chosen plane is
    tiled with eps-sized plaquettes anchored at ``base_point``.  Links are
    U = exp(i eps A(midpoint)); the per-plaquette deficit is
    N - Re tr(loop) and the prediction is (eps^4 / 2) tr(F^2) with F at the
    plaquette center, from ``field_strength_fn`` if given and otherwise from
    central finite differences of the potential.

    The remainder (deficit minus prediction, box mean) scales as eps^6 for
    generic smooth potentials.  Configurations whose loop exponent has no
    higher corrections, such as constant field strength in a commuting
    family, converge faster still.
    """
    if len(eps_list) < 3:
        raise ValueError("need at least three spacings to fit slopes")
    _check_n(n_colors)
    base = np.zeros(4) if base_point is None else np.asarray(base_point, dtype=float)
    mu, nu = plane
    e_mu = np.zeros(4)
    e_mu[mu] = 1.0
    e_nu = np.zeros(4)
    e_nu[nu] = 1.0

    deficits = []
    predictions = []
    for eps in eps_list:
        n_side = max(1, round(box_extent / eps))
        defs = []
        preds = []
        for j in range(n_side):
            for k in range(n_side):
                anchor = base + eps * j * e_mu + eps * k * e_nu
                u1 = _expi(eps * potential_fn(anchor + 0.5 * eps * e_mu, mu))
                u2 = _expi(eps * potential_fn(anchor + eps * e_mu + 0.5 * eps * e_nu, nu))
                u3 = _expi(eps * potential_fn(anchor + 0.5 * eps * e_mu + eps * e_nu, mu))
                u4 = _expi(eps * potential_fn(anchor + 0.5 * eps * e_nu, nu))
                loop = u1 @ u2 @ u3.conj().T @ u4.conj().T
                defs.append(n_colors - float(np.trace(loop).real))
                center = anchor + 0.5 * eps * (e_mu + e_nu)
                if field_strength_fn is not None:
                    f = field_strength_fn(center)
                else:
                    f = finite_difference_field_strength(potential_fn, center, plane)
                preds.append(0.5 * eps**4 * float(np.trace(f @ f).real))
        deficits.append(float(np.mean(defs)))
        predictions.append(float(np.mean(preds)))

    eps_arr = np.asarray(eps_list, dtype=float)
    deficit = np.asarray(deficits)
    predicted = np.asarray(predictions)
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
    with open(path, "w") as fh:
        fh.write("# graphgauge link field snapshot\n")
        fh.write(
            f"# N={lf.n_colors} dims={','.join(map(str, g.dims))} "
            "periodic=1\n"
        )
        fh.write("# so5: " + " ".join(repr(float(x)) for x in lf.so5.ravel()) + "\n")
        for e, d in g.links():
            u = lf.su[e, d - 1]
            vals = []
            for z in u.ravel():
                vals.append(repr(float(z.real)))
                vals.append(repr(float(z.imag)))
            fh.write(f"{e} {d} " + " ".join(vals) + "\n")


def load_links(path, graph: LatticeGraph, tol: float = 1e-10) -> LinkField:
    """Read a snapshot written by `save_links`; blocks are re-validated."""
    n_colors = None
    periodic = None
    so5 = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "N=" in line:
                    for tok in line[1:].split():
                        if tok.startswith("N="):
                            n_colors = int(tok[2:])
                        if tok.startswith("periodic="):
                            periodic = tok[9:]
                        if tok.startswith("dims="):
                            dims = tuple(int(x) for x in tok[5:].split(","))
                            if dims != graph.dims:
                                raise ValueError(
                                    f"snapshot dims {dims} do not match graph {graph.dims}"
                                )
                elif line.startswith("# so5:"):
                    so5 = np.array([float(x) for x in line[6:].split()]).reshape(5, 5)
                continue
            rows.append(line.split())
    if n_colors is None or so5 is None:
        raise ValueError("snapshot is missing header data")
    if periodic != "1":
        raise ValueError(f"snapshot must be periodic (header periodic=1), got periodic={periodic}")
    lf = identity_links(graph, n_colors, so5)
    seen = set()
    for parts in rows:
        e, d = int(parts[0]), int(parts[1])
        vals = [float(x) for x in parts[2:]]
        if len(vals) != 2 * n_colors * n_colors:
            raise ValueError(f"link ({e},{d}) row has wrong length")
        re = np.array(vals[0::2]).reshape(n_colors, n_colors)
        im = np.array(vals[1::2]).reshape(n_colors, n_colors)
        lf.su[e, d - 1] = re + 1j * im
        seen.add((e, d))
    if len(seen) != graph.n_transitions:
        raise ValueError(f"snapshot covers {len(seen)} links, graph has {graph.n_transitions}")
    validate_links(lf, tol)
    return lf
