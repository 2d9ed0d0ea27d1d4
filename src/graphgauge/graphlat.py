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
plaquettes, staples, and a proper event colouring: 2 colours at all-even
extents, 4 at the odd ones tried) are derived from `LatticeGraph.neighbor`
over all events at once and cached on the graph when first used.
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
    def event_colors(self) -> np.ndarray:
        """(E,) colours, no two events one step apart sharing one.  Greedy in
        event order: each event takes the smallest colour no neighbour holds yet,
        which at all-even extents is the coordinate sum mod 2."""
        colors = [-1] * self.n_events
        for e, nbrs in enumerate(np.hstack([self.forward_sites, self.backward_sites]).tolist()):
            colors[e] = min(set(range(9)) - {colors[m] for m in nbrs})
        return np.array(colors, dtype=np.int8)

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

    # -- snapshots -----------------------------------------------------------

    def write_snapshot(self, path, kind: str, title: str, header: dict, note: str, rows) -> None:
        """Write ``# title``, ``# key=value ... dims=... periodic=1``, ``# note``, then
        per transition in storage order its key columns and the ``repr`` of each
        float in its row.  Keys are (event, direction) for kind "link" and the
        vertex id for kind "transition"."""
        t = np.arange(self.n_transitions)
        keys = np.stack([t // 4, t % 4 + 1], 1) if kind == "link" else self.n_events + t[:, None]
        header = {**header, "dims": ",".join(map(str, self.dims)), "periodic": 1}
        head = " ".join(f"{k}={v}" for k, v in header.items())
        with open(path, "w") as fh:
            fh.write(f"# {title}\n# {head}\n# {note}\n")
            fh.writelines(
                " ".join([*map(str, k), *map(repr, r)]) + "\n"
                for k, r in zip(keys.tolist(), np.asarray(rows).tolist())
            )

    def read_snapshot(self, path, kind: str, key: str) -> tuple[dict, str, np.ndarray]:
        """Read a `write_snapshot` file: (header strings, note, rows in storage order).

        The header is the comment line starting with ``key=`` and the note the
        comment after it.  Rejects dims other than the graph's, a header
        without periodic=1, ragged rows, and rows that name no transition,
        repeat one or leave one out.
        """
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        comments = [ln[1:].strip() for ln in lines if ln.startswith("#")]
        at = next((i for i, c in enumerate(comments) if c.startswith(f"{key}=")), None)
        if at is None:
            raise ValueError(f"snapshot is missing the {key} header")
        header = dict(tok.split("=", 1) for tok in comments[at].split() if "=" in tok)
        dims = tuple(int(x) for x in header.get("dims", "").split(",") if x)
        if dims != self.dims:
            raise ValueError(f"snapshot dims {dims} do not match graph {self.dims}")
        if (periodic := header.get("periodic")) != "1":
            raise ValueError(f"snapshot must be periodic (periodic=1), got periodic={periodic}")
        note = comments[at + 1] if at + 1 < len(comments) else ""

        rows = [ln.split() for ln in lines if not ln.startswith("#")]
        n_keys, name = (2, "({}, {})".format) if kind == "link" else (1, "{}".format)
        width = len(rows[0]) if rows else n_keys
        bad = next((r for r in rows if len(r) != width), None)
        if bad is not None:
            raise ValueError(
                f"snapshot row {name(*bad[:n_keys])} has {len(bad)} columns, expected {width}"
            )
        table = np.array(rows, dtype=str).reshape(len(rows), width)
        try:
            keys = table[:, :n_keys].astype(np.int64)
        except OverflowError:
            big = next(r for r in rows if any(abs(int(k)) >= 2**63 for k in r[:n_keys]))
            raise ValueError(f"snapshot row {name(*big[:n_keys])} names no {kind}") from None
        # Bounds of each key column, and the storage offset t each row names.
        n_e, n_t = self.n_events, self.n_transitions
        if kind == "link":
            lo, hi, t = (0, 1), (n_e - 1, 4), 4 * keys[:, 0] + keys[:, 1] - 1
        else:
            lo, hi, t = n_e, n_e + n_t - 1, keys[:, 0] - n_e
        ok = ((keys >= lo) & (keys <= hi)).all(axis=1)
        if not ok.all():
            raise ValueError(f"snapshot row {name(*keys[np.argmin(ok)])} names no {kind}")
        repeats = np.setdiff1d(np.arange(len(t)), np.unique(t, return_index=True)[1])
        if repeats.size:
            raise ValueError(f"snapshot row {name(*keys[repeats[0]])} repeats a {kind}")
        if len(t) != n_t:
            raise ValueError(f"snapshot covers {len(t)} {kind}s, graph has {n_t}")
        out = np.empty((n_t, width - n_keys))
        out[t] = table[:, n_keys:].astype(float)
        return header, note, out

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
