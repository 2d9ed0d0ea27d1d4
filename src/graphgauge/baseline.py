"""Embedded-lattice reference actions and their frame-dependence.

A lattice that lives inside a coordinate system picks out preferred
directions and a preferred origin.  Shifting the sample points under the
integrand (1d) or rotating the lattice axes (4d) changes the discretized
action by a small amount sigma; that difference is the violation these
helpers measure.  The graph formulation stores fields against vertices with
no embedding at all, so the corresponding transformations act on labels or
frames only and leave its action bit-for-bit alone; sigma is the size of
the asymmetry the embedded formulation carries and the graph one does not.
The 4d stencil takes two passes per neighbour (`_embedded_action_4d`).

The 1d pair is also constructed so that the graph-side action with weights
g_k = eps and samples f_k = f(k eps) reproduces the embedded sum exactly,
bit for bit, not merely to rounding.  Its continuum reference is the integral
by `_gauss_kronrod`, an adaptive Gauss-Kronrod (7, 15) rule that evaluates the
integrand once per round, on every open panel at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import liealg
from .graphlat import _enforce, _number, _several
from .potential import _EPS

# `_enforce` rules (field, accept, requirement) of the sample grid, of the 4d
# box and of a relabeling; eps is a lattice spacing, as in `potential`.
_DELTA = ("delta", _number(), "a finite value")
_WINDOW = ("window", _several(_number(), 2, 2, increasing=True), "two finite values, increasing")
_GRID_RULES = (_EPS, _DELTA, _WINDOW)
_BOX = ("box_extent", _number(gt=0), "a finite value > 0")
_BOX_RULES = (_EPS, _BOX)
_SHIFT_RULES = (("shift", _number(int), "an integer"),)


@dataclass
class ViolationReport:
    """One measured violation: sigma plus the numbers needed to judge it."""

    eps: float
    sigma: float
    reference: float
    truncation_estimate: float
    extras: dict = field(default_factory=dict)


@dataclass(eq=False)
class GraphField1D:
    """A 1d graph field: samples, positive weights, and a nominal start index.

    The start index is pure bookkeeping; relabeling shifts it without
    touching values or weights, and the action never reads it.
    """

    values: np.ndarray
    weights: np.ndarray
    start_index: int = 0


def _sample_grid(eps: float, delta: float, window: tuple[float, float]) -> np.ndarray:
    lo, hi = _enforce(_GRID_RULES, {"eps": eps, "delta": delta, "window": window})["window"]
    k_lo = np.ceil((lo - delta) / eps - 1e-12)
    k_hi = np.floor((hi - delta) / eps + 1e-12)
    if not k_hi - k_lo + 1 <= np.iinfo(np.intp).max:  # also an overflow to inf
        raise ValueError(f"eps {eps} is too small: the window {window} holds too many samples")
    k = np.arange(int(k_lo), int(k_hi) + 1, dtype=float)
    return k * eps + delta


def action_1d_embedded(
    f: Callable, density: Callable, eps: float, delta: float, window: tuple[float, float]
) -> float:
    """Sum of eps * density(f(k eps + delta)) over all samples in the window."""
    fx = sample_on_lattice(f, eps, window, delta).values
    return float(np.sum(eps * np.asarray(density(fx), dtype=float)))


def sample_on_lattice(
    f: Callable, eps: float, window: tuple[float, float], delta: float = 0.0
) -> GraphField1D:
    """Graph field whose action reproduces `action_1d_embedded` exactly."""
    x = _sample_grid(eps, delta, window)
    fx = np.asarray(f(x), dtype=float)
    if not np.all(np.isfinite(fx)):
        raise ValueError("field evaluation produced non-finite values")
    return GraphField1D(values=fx, weights=np.full(fx.shape, eps), start_index=0)


def action_1d_graph(gf: GraphField1D, density: Callable) -> float:
    """Sum of g_k * density(f_k).  Depends only on the value/weight multiset."""
    w = np.asarray(gf.weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("graph weights must be positive")
    vals = np.asarray(density(np.asarray(gf.values, dtype=float)), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("density evaluation produced non-finite values")
    return float(np.sum(w * vals))


def relabel_1d(gf: GraphField1D, shift: int) -> GraphField1D:
    """Shift every index name by an integer.  Values and weights untouched."""
    shift = _enforce(_SHIFT_RULES, {"shift": shift})["shift"]
    return GraphField1D(
        values=gf.values.copy(),
        weights=gf.weights.copy(),
        start_index=gf.start_index + shift,
    )


# Gauss-Kronrod (7, 15) on [-1, 1], QUADPACK's qk15 (Piessens et al., 1983), from
# the centre out: the Kronrod nodes, their weights, and the Gauss weights of the
# centre and of every second node after it.
_KRONROD_NODES = np.array([
    0.0, 0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
    0.586087235467691130294144845693013, 0.741531185599394439863864773280788,
    0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_KRONROD_WEIGHTS = np.array([
    0.209482141084727828012999174891714, 0.204432940075298892414161999234649,
    0.190350578064785409913256402421014, 0.169004726639267902826583426598550,
    0.140653259715525918745189590510238, 0.104790010322250183839876322541518,
    0.063092092629978553290700663189204, 0.022935322010529224963732008058970,
])
_GAUSS_WEIGHTS = np.array([
    0.417959183673469387755102040816327, 0.381830050505118944950369775488975,
    0.279705391489276667901467771423780, 0.129484966168869693270611432679082,
])
# The same by node from -1 to 1, the Gauss weight zero at the Kronrod-only nodes.
_GK_NODES = np.concatenate([-_KRONROD_NODES[:0:-1], _KRONROD_NODES])
_K15_WEIGHTS = np.concatenate([_KRONROD_WEIGHTS[:0:-1], _KRONROD_WEIGHTS])
_G7_WEIGHTS = np.zeros(15)
_G7_WEIGHTS[1::2] = np.concatenate([_GAUSS_WEIGHTS[:0:-1], _GAUSS_WEIGHTS])
_QUAD_TOL = 1e-13
_QUAD_PANELS = 200


def _gauss_kronrod(fn: Callable, lo: float, hi: float) -> tuple[float, float]:
    """Integral of ``fn`` over [lo, hi] and its error estimate, by adaptive
    Gauss-Kronrod (7, 15).

    Each round evaluates ``fn`` once, on the nodes of every open panel as one
    1d array.  A panel closes when |K15 - G7| meets its share, by width, of
    `_QUAD_TOL`; the others are bisected, until that would pass `_QUAD_PANELS`
    panels and every open one closes as it is.  The integral is the sum of the
    closed panels' K15 values, the estimate that of their |K15 - G7|.
    """
    left, right = np.array([lo], dtype=float), np.array([hi], dtype=float)
    values, errors = [], []
    while left.size:
        mid, half = 0.5 * (left + right), 0.5 * (right - left)
        x = mid[:, None] + half[:, None] * _GK_NODES
        y = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
        k15 = half * (y * _K15_WEIGHTS).sum(axis=-1)
        err = np.abs(k15 - half * (y * _G7_WEIGHTS).sum(axis=-1))
        done = err <= _QUAD_TOL * (right - left) / (hi - lo)
        if sum(map(len, values)) + 2 * left.size - np.count_nonzero(done) > _QUAD_PANELS:
            done[:] = True
        values.append(k15[done])
        errors.append(err[done])
        left, mid, right = left[~done], mid[~done], right[~done]
        left, right = np.concatenate([left, mid]), np.concatenate([mid, right])
    return float(np.sum(np.concatenate(values))), float(np.sum(np.concatenate(errors)))


def violation_sigma_1d(
    f: Callable, density: Callable, eps: float, delta: float, window: tuple[float, float]
) -> ViolationReport:
    """sigma = S(eps, delta) - S(eps, 0), with a quadrature reference.

    delta = 0 gives sigma = 0.0 exactly: both actions are then the same
    floating point computation.  The reference is the integral of
    density(f(x)) over the window by `_gauss_kronrod`, with its error
    estimate in ``extras["quad_error"]``.
    """
    s_shifted = action_1d_embedded(f, density, eps, delta, window)
    s_aligned = action_1d_embedded(f, density, eps, 0.0, window)
    lo, hi = window
    reference, quad_err = _gauss_kronrod(lambda x: density(np.asarray(f(x), dtype=float)), lo, hi)
    edge = float(
        np.abs(density(np.asarray(f(np.asarray(lo)))))
        + np.abs(density(np.asarray(f(np.asarray(hi)))))
    )
    return ViolationReport(
        eps=eps,
        sigma=s_shifted - s_aligned,
        reference=reference,
        truncation_estimate=eps * edge,
        extras={"aligned": s_aligned, "shifted": s_shifted, "quad_error": quad_err},
    )


# ---------------------------------------------------------------------------
# 4d embedded scalar action
# ---------------------------------------------------------------------------


def _sites_per_axis(eps: float, box_extent: float) -> int:
    """Number m of lattice sites along each axis of the box [-box_extent, box_extent]."""
    _enforce(_BOX_RULES, {"eps": eps, "box_extent": box_extent})
    return int(np.floor(2 * box_extent / eps + 1e-9)) + 1


def _embedded_action_4d(
    field_fn: Callable,
    rot: np.ndarray,
    eps: float,
    box_extent: float,
    mass: float,
) -> float:
    """Scalar action on a cubic lattice with axes rotated by ``rot``.

    Sites sit at rot @ (-box_extent + eps * n) for n in [0, m)^4, so every unrotated
    coordinate lies in [-box_extent, box_extent].  The density is the forward difference
    kinetic term along the four rotated axes plus a mass term, weighted by the cell
    volume eps^4; a non-finite total raises ValueError.

    The forward neighbour of site n along axis mu is site n + e_mu, so the field is
    evaluated once on the (m+1)^4 index grid 0 <= n_mu <= m and the differences are
    slices of it.  To bound memory the grid streams along axis 0 in a window of two
    (m+1)^3 slabs: the next slab holds the mu = 0 neighbours, the current one shifted by
    one along axis mu the others; the density is summed over the m^4 sites only.
    ``field_fn`` gets each slab as an (m+1, m+1, m+1, 4) view of coordinate-major
    memory; it must return the leading shape and not keep the view.  Each difference
    takes two passes, into a kept buffer and its sum of squares by ``np.einsum``
    (numpy's loop, not BLAS); m^2 / 2 and 1 / (2 eps^2) scale each slab's sums once.
    """
    m = _sites_per_axis(eps, box_extent)
    pos = -box_extent + eps * np.arange(m + 1)
    tail = np.stack(np.meshgrid(pos, pos, pos, indexing="ij"), axis=-1) @ rot[:, 1:].T
    tail = np.ascontiguousarray(np.moveaxis(tail, -1, 0))
    # Two point buffers in turn: a field may return a view of the slab it is given.
    points = np.empty((2,) + tail.shape)
    phi, diff = np.empty((2, m, m, m))

    def slab(k):
        np.add(tail, (pos[k] * rot[:, 0])[:, None, None, None], out=points[k % 2])
        return np.asarray(field_fn(np.moveaxis(points[k % 2], 0, -1)), dtype=float)

    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        nxt = slab(0)
        for k in range(1, m + 1):
            cur, nxt = nxt, slab(k)
            phi[...] = cur[:m, :m, :m]
            kinetic = 0.0
            for phin in (nxt[:m, :m, :m], cur[1:, :m, :m], cur[:m, 1:, :m], cur[:m, :m, 1:]):
                np.subtract(phin, phi, out=diff)
                kinetic += np.einsum("ijk,ijk->", diff, diff)
            mass_term = np.einsum("ijk,ijk->", phi, phi)
            total += float(0.5 * (mass * mass) * mass_term + 0.5 / (eps * eps) * kinetic)
    if not np.isfinite(total):
        raise ValueError("field evaluation produced non-finite values")
    return eps**4 * total


def violation_4d_embedded(
    field_fn: Callable,
    rotation: np.ndarray,
    eps: float,
    box_extent: float,
    mass: float = 1.0,
) -> ViolationReport:
    """sigma = S(rotated lattice) - S(axis-aligned lattice) for a scalar field.

    The identity rotation gives sigma = 0.0 exactly (same computation twice).  For a
    smooth anisotropic field the finite-difference stencil picks up a rotation-dependent
    eps^2 error, so |sigma| shrinks quadratically under refinement.  eps and box_extent
    must be positive and finite; a non-finite action raises ValueError.  ``field_fn``
    maps (..., 4) points to (...) values, one slab view at a time that it must not keep.
    """
    rot = liealg._as_group(rotation, float, ((4, 4),), "rotation", ValueError)
    s_rot = _embedded_action_4d(field_fn, rot, eps, box_extent, mass)
    s_aligned = _embedded_action_4d(field_fn, np.eye(4), eps, box_extent, mass)

    # Crude tail bound: worst corner density times the boundary-shell volume.
    m = _sites_per_axis(eps, box_extent)
    corners = np.array(
        [[sx * box_extent for sx in signs] for signs in np.ndindex(2, 2, 2, 2)]
    ) * 2.0 - box_extent
    phi_c = np.asarray(field_fn(corners), dtype=float)
    # The forward neighbour of every corner along each axis, as one (4, 16, 4) stack.
    phi_n = np.asarray(field_fn(corners + eps * np.eye(4)[:, None]), dtype=float)
    grad_c = np.sum(0.5 * ((phi_n - phi_c) / eps) ** 2, axis=0)
    dens_c = float(np.max(grad_c + 0.5 * mass * mass * phi_c * phi_c))
    n_boundary = m**4 - max(m - 2, 0) ** 4

    return ViolationReport(
        eps=eps,
        sigma=s_rot - s_aligned,
        reference=s_aligned,
        truncation_estimate=eps**4 * n_boundary * dens_c,
        extras={"rotated": s_rot, "aligned": s_aligned, "sites_per_axis": m},
    )
