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
first vertex of their role.  A transition's count is its storage offset: the
row of per-transition data, such as link matrices.

Every index table is derived from `LatticeGraph.neighbor` over all events
at once and cached on the graph when first used:

* `forward_sites` and `backward_sites`: the event one step along +-d, two
  labeled half steps from each event;
* `plaquette_table` and `staple_table`: walks of signed steps, taken by
  `path_offsets` over both site tables; each plaquette is the walk
  (+mu, +nu, -mu, -nu) from its corner, and `plaquette_loops` composes any
  per-transition matrices around these loops;
* `event_colors`: a proper event colouring (2 colours at all-even extents,
  4 at the odd ones tried), greedy over both site tables.
"""

from __future__ import annotations

from enum import IntEnum
from functools import cached_property
from itertools import permutations

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


def _integer(x) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _enforce(rules, values: dict) -> None:
    """Raise a ValueError naming the first field whose value fails its rule, given as
    (field, test, requirement); a test that raises TypeError or ValueError fails."""
    for field, test, want in rules:
        try:
            ok = bool(test(values[field]))
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"parameter '{field}' is invalid: need {want}, got {values[field]!r}")


def _check_graph(field, graph: "LatticeGraph") -> None:
    """Refuse a link or potential field built on a graph of other extents."""
    if field.graph is not graph and not field.graph.compatible(graph):
        raise GraphError(f"{type(field).__name__} was built on a different graph")


def _label_col(label: int) -> int:
    if not _integer(label) or label == 0 or abs(label) > 4:
        raise GraphError(f"invalid edge label {label!r}, expected +-1..+-4")
    return 2 * (abs(label) - 1) + (0 if label > 0 else 1)


class LatticeGraph:
    """Periodic four dimensional hypercubic graph, adjacency only."""

    def __init__(self, dims):
        dims = tuple(dims)
        if len(dims) != 4 or not all(_integer(d) for d in dims):
            raise GraphError(f"dims must be four integers, got {dims}")
        if min(dims) < 2:
            raise GraphError(f"periodic graph needs every extent >= 2, got dims={dims}")
        self.dims = tuple(int(d) for d in dims)
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

    # -- basic queries -------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.n_events + self.n_transitions + self.n_actions

    def _vertices(self, v, roles, message: str) -> np.ndarray:
        """Role of each vertex of ``v`` (an int or an integer array), after checking
        that each is in range and holds one of ``roles``; the error for one that
        does not reads "vertex {v} {message}"."""
        v = np.asarray(v)
        if v.dtype.kind not in "iu":
            raise GraphError(f"vertex ids must be integers, got dtype {v.dtype}")
        bad = (v < 0) | (v >= self.n_vertices)
        if bad.any():
            raise GraphError(f"vertex {v[bad].flat[0]} out of range")
        role = (v >= self.n_events) + (v >= self.n_events + self.n_transitions).astype(int)
        bad = ~np.array([r in roles for r in Role])[role]
        if bad.any():
            raise GraphError(f"vertex {v[bad].flat[0]} {message}")
        return role

    def role(self, v: int) -> Role:
        return Role(int(self._vertices(v, tuple(Role), "")))

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
        self._vertices(v, (Role.EVENT, Role.TRANSITION), "is an action vertex, labels do not apply")
        return self._nbr[v, col] if isinstance(v, np.ndarray) else int(self._nbr[v, col])

    def neighbors(self, v: int) -> tuple[int, ...]:
        """All neighbors of v, without labels (actions included)."""
        if self.role(v) == Role.ACTION:
            return self.action_transitions(v)
        return tuple(self._nbr[v].tolist())

    def action_transitions(self, v: int) -> tuple[int, int, int, int]:
        """The four transitions of an action vertex, in loop order."""
        self._vertices(v, (Role.ACTION,), "is not an action vertex")
        legs = self.plaquette_table[v - self.n_events - self.n_transitions]
        return tuple((self.n_events + legs).tolist())

    def event_neighbor(self, event, label: int):
        """Next event site along a signed direction (two half steps)."""
        return self.neighbor(self.neighbor(event, label), label)

    def transition_direction(self, v):
        """Direction 1..4 of a transition vertex, or of each in an integer array."""
        self._vertices(v, (Role.TRANSITION,), "is not a transition vertex")
        return (v - self.n_events) % 4 + 1

    def transition_offset(self, v):
        """Storage offset of a transition vertex, or of each in an integer array."""
        self._vertices(v, (Role.TRANSITION,), "is not a transition vertex")
        return v - self.n_events

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

    def path_offsets(self, steps, start) -> np.ndarray:
        """Storage offsets, shape ``start.shape + (len(steps),)``, of the links crossed
        by walking `forward_sites` and `backward_sites` along the signed directions
        ``steps`` from each event of ``start``.  Step +d crosses link (x, d) from its
        tail and step -d link (x - d, d) from its head: a loop daggers the latter."""
        here = np.asarray(start)
        self._vertices(here, (Role.EVENT,), "is not an event vertex")
        legs = np.empty(here.shape + (len(steps),), dtype=np.int64)
        for k, step in enumerate(steps):
            d = _label_col(step) // 2
            there = (self.forward_sites if step > 0 else self.backward_sites)[here, d]
            legs[..., k] = 4 * (here if step > 0 else there) + d
            here = there
        return legs

    @cached_property
    def plaquette_table(self) -> np.ndarray:
        """(A, 4) storage offsets of each action's loop legs, row k for action A0 + k:
        the walk (+mu, +nu, -mu, -nu) from corner x in plane (mu, nu)."""
        events = np.arange(self.n_events)
        loops = [self.path_offsets((mu, nu, -mu, -nu), events) for mu, nu in PLANES]
        return np.stack(loops, axis=1).reshape(self.n_actions, 4)

    def plaquette_loops(self, values: np.ndarray) -> np.ndarray:
        """Loop product l0 l1 l2^dag l3^dag of every plaquette, in action order:
        ``values`` holds one matrix per transition, l0..l3 are its rows at the
        `plaquette_table` legs, and the legs of the two negative steps are daggered."""
        l0, l1, l2, l3 = self.plaquette_table.T
        loops = values[l0] @ values[l1]
        loops = loops @ values[l2].conj().swapaxes(-1, -2)
        return loops @ values[l3].conj().swapaxes(-1, -2)

    @cached_property
    def staple_table(self) -> np.ndarray:
        """(E, 4, 6, 3) storage offsets: entry [e, mu-1, i, j] is leg j of staple i
        through link (e, mu).  For each nu != mu in order, the upper staple walks
        (+nu, -mu, -nu) from x + mu and the lower one (-nu, -mu, +nu)."""
        walks = [
            self.path_offsets((s * nu, -mu, -s * nu), self.forward_sites[:, mu - 1])
            for mu, nu in permutations(range(1, 5), 2)
            for s in (1, -1)
        ]
        return np.stack(walks, axis=1).reshape(self.n_events, 4, 6, 3)

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
        neighbor(perm[v], l) for every vertex and label.  Every event moves
        ``offset[a] % dims[a]`` steps along `forward_sites` column a.
        """
        offset = tuple(offset)
        if len(offset) != 4 or not all(_integer(o) for o in offset):
            raise GraphError(f"offset must have four integer components, got {offset}")
        s_new = np.arange(self.n_events)
        for a, o in enumerate(offset):
            for _ in range(o % self.dims[a]):
                s_new = self.forward_sites[s_new, a]
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
    if not periodic:
        raise GraphError("periodic=False is not supported: graphs are periodic along every axis")
    return LatticeGraph(dims)
