"""Typed lattice graph with labeled adjacency and no stored coordinates.

The graph knows three vertex roles:

* EVENT: a lattice site.  Eight labeled neighbors, all transitions.
* TRANSITION: the midpoint of a link.  Carries a direction d; labels +-d
  reach its two event endpoints, the six remaining labels reach the action
  vertices of the plaquettes the link borders.
* ACTION: the center of a plaquette, connected to the four transitions of
  its loop.

Edge labels are signed directions +-1..+-4.  The graph is periodic along
all four axes.  Extents are stored (they are needed to build and to
enumerate automorphisms), but no vertex carries a position; every query
below is answered from adjacency alone.  Vertex ids are assigned
contiguously: events first, then transitions, then actions.  Site s owns
transition 4s + d - 1 (its forward link along d) and action 6s + i (the
plaquette with first corner s in plane ``PLANES[i]``), both counted from the
first vertex of their role.

The index tables the batched consumers read (forward and backward sites,
plaquettes, staples) are derived from `LatticeGraph.neighbor` over all
events at once and cached on the graph when first used.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import permutations
from typing import NamedTuple

import numpy as np


class GraphError(ValueError):
    pass


class Role(IntEnum):
    EVENT = 0
    TRANSITION = 1
    ACTION = 2


# Column layout for labeled adjacency: +1, -1, +2, -2, +3, -3, +4, -4.
LABELS = (1, -1, 2, -2, 3, -3, 4, -4)

# Plane order for action vertices attached to one site.
PLANES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
_PLANE_INDEX = {p: i for i, p in enumerate(PLANES)}


def _label_col(label: int) -> int:
    if not isinstance(label, (int, np.integer)) or label == 0 or abs(label) > 4:
        raise GraphError(f"invalid edge label {label!r}, expected +-1..+-4")
    return 2 * (abs(label) - 1) + (0 if label > 0 else 1)


@dataclass(frozen=True)
class PlaquetteRef:
    """One plaquette: its action vertex, corner events, and loop steps.

    ``links`` holds (event, signed direction) steps in loop order
    (+mu, +nu, -mu, -nu); a negative direction means the step traverses the
    link stored at the destination event in reverse.
    """

    action: int
    corners: tuple[int, int, int, int]
    links: tuple[tuple[int, int], ...]
    plane: tuple[int, int]


class PlaquetteTable(NamedTuple):
    """Every plaquette as integer arrays, row k for action vertex A0 + k."""

    corners: np.ndarray      # (A, 4) events c0, c1 = c0+mu, c2 = c1+nu, c3 = c0+nu
    mu: np.ndarray           # (A,) first plane direction, 1..4
    nu: np.ndarray           # (A,) second plane direction, mu < nu
    transitions: np.ndarray  # (A, 4) loop transitions, as offsets into per-transition storage


class StapleTable(NamedTuple):
    """Per (event, direction): six staples of three stored links each.

    Staple link j of staple i through link (e, mu) is the stored link
    (sites[e, mu-1, i, j], dirs[mu-1, i, j]), daggered where dagger[i, j].
    Directions and daggers do not depend on the site.
    """

    sites: np.ndarray   # (E, 4, 6, 3) events
    dirs: np.ndarray    # (4, 6, 3) stored directions, 0..3
    dagger: np.ndarray  # (6, 3) bool


class LatticeGraph:
    """Periodic four dimensional hypercubic graph, adjacency only."""

    def __init__(self, dims, periodic=True):
        dims = tuple(int(d) for d in dims)
        if len(dims) != 4 or any(d < 1 for d in dims):
            raise GraphError(f"dims must be four positive integers, got {dims}")
        if not periodic:
            raise GraphError("periodic=False is not supported: graphs are periodic along every axis")
        if any(d < 2 for d in dims):
            raise GraphError(f"periodic graph needs every extent >= 2, got {dims}")
        self.dims = dims
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        n = int(np.prod(self.dims))
        self.n_events = n
        self.n_transitions = 4 * n
        self.n_actions = 6 * n
        t0 = n
        a0 = 5 * n

        # Site coordinates exist only here, to wire the adjacency.
        sites = np.arange(n)
        x = np.unravel_index(sites, self.dims)

        def shifted(axis, step):
            y = list(x)
            y[axis] = y[axis] + step
            return np.ravel_multi_index(y, self.dims, mode="wrap")

        fwd = np.stack([shifted(a, +1) for a in range(4)], axis=1)
        bwd = np.stack([shifted(a, -1) for a in range(4)], axis=1)
        axes = np.arange(4)

        nbr = np.empty((n + 4 * n, 8), dtype=np.int64)
        nbr[:n, 0::2] = t0 + 4 * sites[:, None] + axes
        nbr[:n, 1::2] = t0 + 4 * bwd + axes
        trans = nbr[n:].reshape(n, 4, 8)  # [site, axis, column]
        trans[:, axes, 2 * axes] = fwd
        trans[:, axes, 2 * axes + 1] = sites[:, None]
        for a, b in permutations(range(4), 2):
            i = _PLANE_INDEX[(min(a, b) + 1, max(a, b) + 1)]
            trans[:, a, 2 * b] = a0 + 6 * sites + i
            trans[:, a, 2 * b + 1] = a0 + 6 * bwd[:, b] + i
        self._nbr = nbr

        # Loop-ordered transitions per action: (s, mu), (s+mu, nu), (s+nu, mu), (s, nu).
        act = np.empty((n, 6, 4), dtype=np.int64)
        for i, (mu, nu) in enumerate(PLANES):
            m, u = mu - 1, nu - 1
            act[:, i] = np.stack(
                [4 * sites + m, 4 * fwd[:, m] + u, 4 * fwd[:, u] + m, 4 * sites + u], axis=1
            )
        self._act_trans = t0 + act.reshape(6 * n, 4)

        # Coordinate-sum parity per event, which groups the checkerboard sweep's
        # updates.  It is a proper two-coloring (no link joins equal parities)
        # only when every extent is even: a wrapped link along an odd extent L
        # joins sites whose coordinate sums differ by L - 1, an even number.
        # The checkerboard order therefore rejects any odd extent.
        self.parity = (sum(x) % 2).astype(np.int8)

    # -- basic queries -------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.n_events + self.n_transitions + self.n_actions

    def role(self, v: int) -> Role:
        if not 0 <= v < self.n_vertices:
            raise GraphError(f"vertex {v} out of range")
        if v < self.n_events:
            return Role.EVENT
        if v < self.n_events + self.n_transitions:
            return Role.TRANSITION
        return Role.ACTION

    def neighbor(self, v, label: int):
        """Labeled neighbor of an event or transition vertex.

        From an event, label +-d reaches the transition on the forward or
        backward link along d; stepping twice with the same label reaches
        the next event site.  From a transition of direction d, labels +-d
        reach its endpoint events and any other label reaches the action
        vertex of the plaquette spanned by the two directions, on the
        positive or negative side.

        ``v`` may also be an integer array; the answer is then the array of
        neighbors, elementwise, under the same checks.
        """
        col = _label_col(label)
        if not isinstance(v, np.ndarray):
            if self.role(v) == Role.ACTION:
                raise GraphError(f"vertex {v} is an action vertex, labels do not apply")
            return int(self._nbr[v, col])
        self._check_vertex_array(v)
        actions = v >= self.n_events + self.n_transitions
        if actions.any():
            raise GraphError(
                f"vertex {v[actions].flat[0]} is an action vertex, labels do not apply"
            )
        return self._nbr[v, col]

    def _check_vertex_array(self, v: np.ndarray) -> None:
        if v.dtype.kind not in "iu":
            raise GraphError(f"vertex array must hold integers, got dtype {v.dtype}")
        bad = (v < 0) | (v >= self.n_vertices)
        if bad.any():
            raise GraphError(f"vertex {v[bad].flat[0]} out of range")

    def neighbors(self, v: int) -> tuple[int, ...]:
        """All neighbors of v, without labels (actions included)."""
        if self.role(v) == Role.ACTION:
            return self.action_transitions(v)
        return tuple(self._nbr[v].tolist())

    def action_transitions(self, v: int) -> tuple[int, int, int, int]:
        """The four transitions of an action vertex, in loop order."""
        if self.role(v) != Role.ACTION:
            raise GraphError(f"vertex {v} is not an action vertex")
        return tuple(self._act_trans[v - self.n_events - self.n_transitions].tolist())

    def event_neighbor(self, event, label: int):
        """Next event site along a signed direction (two half steps)."""
        return self.neighbor(self.neighbor(event, label), label)

    def transition_direction(self, v: int) -> int:
        if self.role(v) != Role.TRANSITION:
            raise GraphError(f"vertex {v} is not a transition vertex")
        return int(v - self.n_events) % 4 + 1

    def transition_offset(self, v):
        """Index of a transition vertex into per-transition field storage.

        ``v`` may also be an integer array; every element must be a
        transition vertex, and the answer is the array of offsets.
        """
        if not isinstance(v, np.ndarray):
            if self.role(v) != Role.TRANSITION:
                raise GraphError(f"vertex {v} is not a transition vertex")
            return v - self.n_events
        self._check_vertex_array(v)
        off = v - self.n_events
        bad = (off < 0) | (off >= self.n_transitions)
        if bad.any():
            raise GraphError(f"vertex {v[bad].flat[0]} is not a transition vertex")
        return off

    def event_parity(self, v: int) -> int:
        if self.role(v) != Role.EVENT:
            raise GraphError(f"vertex {v} is not an event vertex")
        return int(self.parity[v])

    def links(self):
        """All stored links as (event, direction) pairs, event major."""
        return [(s, d) for s in range(self.n_events) for d in range(1, 5)]

    # -- derived index tables -----------------------------------------------

    @cached_property
    def forward_sites(self) -> np.ndarray:
        """(E, 4) array: entry [e, d-1] is the event one step along +d from e."""
        events = np.arange(self.n_events)
        return np.stack([self.event_neighbor(events, d) for d in range(1, 5)], axis=1)

    @cached_property
    def backward_sites(self) -> np.ndarray:
        """(E, 4) array: entry [e, d-1] is the event one step along -d from e."""
        events = np.arange(self.n_events)
        return np.stack([self.event_neighbor(events, -d) for d in range(1, 5)], axis=1)

    @cached_property
    def plaquette_table(self) -> PlaquetteTable:
        fwd = self.forward_sites
        c0 = np.repeat(np.arange(self.n_events), len(PLANES))
        mu = np.tile([p[0] for p in PLANES], self.n_events)
        nu = np.tile([p[1] for p in PLANES], self.n_events)
        c1 = fwd[c0, mu - 1]
        c3 = fwd[c0, nu - 1]
        c2 = fwd[c1, nu - 1]
        corners = np.stack([c0, c1, c2, c3], axis=1)
        return PlaquetteTable(corners, mu, nu, self._act_trans - self.n_events)

    @cached_property
    def staple_table(self) -> StapleTable:
        """Upper staple (x+mu, nu), (x+nu, mu)^dag, (x, nu)^dag and lower staple
        (x+mu-nu, nu)^dag, (x-nu, mu)^dag, (x-nu, nu) for each nu != mu in order."""
        events = np.arange(self.n_events)
        fwd = self.forward_sites
        bwd = self.backward_sites
        sites = np.empty((self.n_events, 4, 6, 3), dtype=np.int64)
        dirs = np.empty((4, 6, 3), dtype=np.int64)
        for mu in range(4):
            for k, nu in enumerate(d for d in range(4) if d != mu):
                sites[:, mu, 2 * k] = np.stack([fwd[:, mu], fwd[:, nu], events], axis=1)
                sites[:, mu, 2 * k + 1] = np.stack(
                    [bwd[fwd[:, mu], nu], bwd[:, nu], bwd[:, nu]], axis=1
                )
                dirs[mu, 2 * k : 2 * k + 2] = (nu, mu, nu)
        dagger = np.tile([[False, True, True], [True, True, False]], (3, 1))
        return StapleTable(sites, dirs, dagger)

    def plaquettes(self) -> tuple[PlaquetteRef, ...]:
        """Every plaquette exactly once, in action order, built on each call.

        These per-plaquette views serve the reference path
        (`wilson.plaquette_product`); batched code reads `plaquette_table`.
        """
        pt = self.plaquette_table
        a0 = self.n_events + self.n_transitions
        return tuple(
            PlaquetteRef(
                action=a0 + k,
                corners=tuple(c),
                links=((c[0], mu), (c[1], nu), (c[2], -mu), (c[3], -nu)),
                plane=(mu, nu),
            )
            for k, (c, mu, nu) in enumerate(
                zip(pt.corners.tolist(), pt.mu.tolist(), pt.nu.tolist())
            )
        )

    # -- automorphisms -------------------------------------------------------

    def automorphism_shift(self, offset) -> np.ndarray:
        """Vertex permutation for a periodic translation by ``offset``.

        Returns an array ``perm`` with ``perm[v]`` the image of vertex v.
        Labeled adjacency is equivariant: perm[neighbor(v, l)] equals
        neighbor(perm[v], l) for every vertex and label.
        """
        offset = tuple(int(o) for o in offset)
        if len(offset) != 4:
            raise GraphError(f"offset must have four components, got {offset}")
        x = np.unravel_index(np.arange(self.n_events), self.dims)
        s_new = np.ravel_multi_index(
            [xi + o for xi, o in zip(x, offset)], self.dims, mode="wrap"
        )
        # Slots are 4s + (d-1) and 6s + plane; translation replaces the site.
        return np.concatenate(
            [
                s_new,
                self.n_events + (4 * s_new[:, None] + np.arange(4)).ravel(),
                self.n_events + self.n_transitions + (6 * s_new[:, None] + np.arange(6)).ravel(),
            ]
        )

    def compatible(self, other: "LatticeGraph") -> bool:
        return isinstance(other, LatticeGraph) and self.dims == other.dims

    def __repr__(self):
        return (
            f"LatticeGraph(dims={self.dims}, periodic, "
            f"E={self.n_events}, T={self.n_transitions}, A={self.n_actions})"
        )


def build_hypercubic(dims, periodic: bool = True) -> LatticeGraph:
    """Build the four dimensional hypercubic lattice graph (periodic only)."""
    return LatticeGraph(dims, periodic=periodic)
