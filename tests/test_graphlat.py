import numpy as np
import pytest

from graphgauge import graphlat, liealg, sampler, wilson
from graphgauge.graphlat import GraphError, LatticeGraph, Role, build_hypercubic


def test_counts_on_2222(small_graph):
    g = small_graph
    assert g.n_events == 16
    assert g.n_transitions == 64
    assert g.n_actions == 96
    assert g.n_vertices == 176


def test_counts_on_mixed_extents():
    g = build_hypercubic((2, 3, 4, 5))
    sites = 2 * 3 * 4 * 5
    assert g.n_events == sites
    assert g.n_transitions == 4 * sites
    assert g.n_actions == 6 * sites


def _roles(g, v):
    """Role of a vertex, or of each in an array, by the documented id ranges:
    events first, then transitions, then actions."""
    return np.searchsorted([g.n_events, g.n_events + g.n_transitions], v, side="right")


def test_role_assignment_by_id_range(small_graph):
    # Each query accepts the first vertex of its role and refuses the last of
    # the role before it.
    g = small_graph
    t0, a0 = g.n_events, g.n_events + g.n_transitions
    assert g.neighbor(0, 1) == t0
    assert g.transition_offset(t0) == 0
    assert g.action_transitions(a0) == tuple(t0 + g.plaquette_table[0])
    with pytest.raises(GraphError, match=f"vertex {t0 - 1} is not a transition"):
        g.transition_offset(t0 - 1)
    with pytest.raises(GraphError, match=f"vertex {a0 - 1} is not an action"):
        g.action_transitions(a0 - 1)
    with pytest.raises(GraphError, match=f"vertex {g.n_vertices} out of range"):
        g.action_transitions(g.n_vertices)


def test_vertex_degrees(small_graph):
    """Events see 8 transitions; transitions see 2 events and 6 actions;
    actions see exactly their 4 loop transitions."""
    g = small_graph
    labels = [s * d for d in range(1, 5) for s in (1, -1)]
    for v in range(g.n_events):
        nbrs = [g.neighbor(v, label) for label in labels]
        assert len(set(nbrs)) == 8
        assert (_roles(g, nbrs) == Role.TRANSITION).all()
    for v in range(g.n_events, g.n_events + g.n_transitions):
        nbrs = [g.neighbor(v, label) for label in labels]
        assert len(set(nbrs)) == 8
        roles = _roles(g, nbrs).tolist()
        assert roles.count(Role.EVENT) == 2
        assert roles.count(Role.ACTION) == 6
    for v in range(g.n_events + g.n_transitions, g.n_vertices):
        nbrs = g.action_transitions(v)
        assert len(set(nbrs)) == 4
        assert (_roles(g, nbrs) == Role.TRANSITION).all()


def _walk(g, action):
    """Corners, directions and orientations of an action's loop, walked by
    adjacency from the tail of its first leg, and the event the walk ends at.
    A leg entered at its tail has orientation +1, one entered at its head -1."""
    legs = g.action_transitions(action)
    here = g.neighbor(legs[0], -g.transition_direction(legs[0]))
    corners, dirs, signs = [], [], []
    for t in legs:
        d = g.transition_direction(t)
        sign = 1 if g.neighbor(t, -d) == here else -1
        assert g.neighbor(t, -sign * d) == here
        corners.append(here)
        dirs.append(d)
        signs.append(sign)
        here = g.neighbor(t, sign * d)
    return corners, dirs, signs, here


def _actions(g):
    return range(g.n_events + g.n_transitions, g.n_vertices)


def test_every_link_in_exactly_six_plaquettes(small_graph):
    g = small_graph
    counts = np.bincount(g.plaquette_table.ravel(), minlength=g.n_transitions)
    assert counts.shape == (g.n_transitions,)
    assert (counts == 6).all()


def test_plaquette_loop_closes():
    # Extents above 2 along every plane, so x + mu and x - mu differ.
    g = build_hypercubic((2, 3, 4, 5))
    for a in _actions(g):
        corners, dirs, signs, end = _walk(g, a)
        assert end == corners[0]
        mu, nu = dirs[:2]
        assert 1 <= mu < nu <= 4
        assert dirs == [mu, nu, mu, nu]
        assert signs == [1, 1, -1, -1]


def test_event_neighbor_is_two_half_steps(small_graph):
    g = small_graph
    for e in range(g.n_events):
        for d in (1, -2, 3, -4):
            t = g.neighbor(e, d)
            assert _roles(g, t) == Role.TRANSITION
            assert g.event_neighbor(e, d) == g.neighbor(t, d)


def test_neighbor_label_validation(small_graph):
    g = small_graph
    with pytest.raises(GraphError):
        g.neighbor(0, 0)
    with pytest.raises(GraphError):
        g.neighbor(0, 5)
    a = g.n_events + g.n_transitions
    with pytest.raises(GraphError):
        g.neighbor(a, 1)


def test_transition_endpoints_have_opposite_parity(small_graph):
    g = small_graph
    for v in range(g.n_events, g.n_events + g.n_transitions):
        d = g.transition_direction(v)
        a = g.neighbor(v, -d)
        b = g.neighbor(v, d)
        assert g.event_colors[a] != g.event_colors[b]


def test_transition_direction_and_offset(small_graph):
    g = small_graph
    for v in range(g.n_events, g.n_events + g.n_transitions):
        d = g.transition_direction(v)
        assert 1 <= d <= 4
        e = g.neighbor(v, -d)
        assert g.neighbor(e, d) == v
        assert 0 <= g.transition_offset(v) < g.n_transitions


def test_action_transitions_in_loop_order(small_graph):
    """The legs are the links stored at (c0, mu), (c1, nu), (c3, mu), (c0, nu) of
    the walked corners c0..c3."""
    g = small_graph
    for a in _actions(g):
        (c0, c1, _, c3), (mu, nu, _, _), _, _ = _walk(g, a)
        steps = ((c0, mu), (c1, nu), (c3, mu), (c0, nu))
        assert tuple(g.neighbor(c, d) for c, d in steps) == g.action_transitions(a)


def test_automorphism_equivariance_exhaustive(small_graph):
    """perm[neighbor(v, l)] == neighbor(perm[v], l) for every vertex and
    label, for a few translations on the 2^4 torus."""
    g = small_graph
    for offset in [(1, 0, 0, 0), (0, 1, 1, 0), (1, 1, 1, 1)]:
        perm = g.automorphism_shift(offset)
        assert sorted(perm) == list(range(g.n_vertices))
        for v in range(g.n_events + g.n_transitions):
            for lab in graphlat.LABELS:
                try:
                    w = g.neighbor(v, lab)
                except GraphError:
                    continue
                assert perm[w] == g.neighbor(int(perm[v]), lab)
        # actions: the image's loop transitions are the images of the loop
        for a in range(g.n_events + g.n_transitions, g.n_vertices):
            got = g.action_transitions(int(perm[a]))
            want = tuple(int(perm[t]) for t in g.action_transitions(a))
            assert got == want


@pytest.mark.parametrize(
    "offset", [(-1, 5, 3, -7), (7, -4, 0, 12), (np.int64(2), np.int32(-3), 1, np.int8(9))]
)
def test_automorphism_shift_matches_coordinate_translation(offset):
    # Reference: translate unravelled site coordinates, wrapping every axis.
    g = build_hypercubic((3, 4, 2, 5))
    x = np.unravel_index(np.arange(g.n_events), g.dims)
    want = np.ravel_multi_index([xi + o for xi, o in zip(x, offset)], g.dims, mode="wrap")
    assert np.array_equal(g.automorphism_shift(offset)[: g.n_events], want)


@pytest.mark.parametrize(
    "offset",
    [(1.5, 0, 0, 0), (True, 0, 0, 0), (np.nan, 0, 0, 0), (0, 0, np.float64(1.0), 0), (1, 0, 0),
     np.array([1.0, 0.0, 0.0, 0.0])],
)
def test_automorphism_shift_refuses_non_integer_offsets(small_graph, offset):
    # int() used to truncate 1.5 to a shift by 1, count True as 1 and fail
    # on NaN with a bare ValueError.
    with pytest.raises(GraphError, match="^offset must have four integer components"):
        small_graph.automorphism_shift(offset)


def test_automorphism_preserves_roles(small_graph):
    g = small_graph
    perm = g.automorphism_shift((0, 1, 0, 1))
    assert np.array_equal(_roles(g, perm), _roles(g, np.arange(g.n_vertices)))


def test_compatible(small_graph):
    assert small_graph.compatible(build_hypercubic((2, 2, 2, 2)))
    assert not small_graph.compatible(build_hypercubic((2, 2, 2, 4)))


def test_open_boundaries_rejected():
    with pytest.raises(GraphError, match="periodic"):
        build_hypercubic((2, 2, 2, 2), periodic=False)


def test_constructor_validation():
    with pytest.raises(GraphError):
        LatticeGraph((2, 2, 2))
    with pytest.raises(GraphError):
        LatticeGraph((2, 2, 2, 0))
    with pytest.raises(GraphError):
        LatticeGraph((1, 2, 2, 2))
    # Extents are integers: nothing is truncated or parsed.
    for dims in [(2.7, 2, 2, 2), (2, 2, 2, True), ("3", 2, 2, 2)]:
        with pytest.raises(GraphError, match="dims"):
            LatticeGraph(dims)
    # A scalar or None failed iterating, with a bare TypeError.
    for dims in (5, None):
        with pytest.raises(GraphError) as err:
            LatticeGraph(dims)
        assert str(err.value) == (
            f"parameter 'dims' is invalid: need four integer extents >= 2, got {dims}"
        )
    assert LatticeGraph(np.array([2, 3, 2, 2])).dims == (2, 3, 2, 2)


def test_vertex_queries_check_ints_and_arrays_alike(small_graph):
    g = small_graph
    event, trans, action = 0, g.n_events, g.n_events + g.n_transitions
    queries = [g.transition_offset, g.transition_direction, g.action_transitions,
               lambda v: g.neighbor(v, 1)]
    for query in queries:
        for v in (g.n_vertices, np.array([0, -1]), 1.0, True, np.array([0.0])):
            with pytest.raises(GraphError, match="out of range|integers"):
                query(v)
    for v in (action, np.array([trans, action])):
        with pytest.raises(GraphError, match=f"vertex {action} is an action vertex"):
            g.neighbor(v, 1)
    for v in (event, np.array([trans, event])):
        for query in (g.transition_offset, g.transition_direction):
            with pytest.raises(GraphError, match=f"vertex {event} is not a transition"):
                query(v)
    with pytest.raises(GraphError, match=f"vertex {trans} is not an action"):
        g.action_transitions(trans)
    assert g.transition_direction(np.arange(trans, trans + 8)).tolist() == [1, 2, 3, 4] * 2


# ---------------------------------------------------------------------------
# vectorised tables against a per-site loop construction
# ---------------------------------------------------------------------------

SHAPES = [(2, 2, 2, 2), (2, 3, 4, 5), (3, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4), (5, 2, 3, 2)]


def _loop_reference(dims):
    """Adjacency, plaquettes, staples, forward sites and coordinate-sum parity
    built site by site from coordinates."""
    n = int(np.prod(dims))

    def coords(s):
        return list(np.unravel_index(s, dims))

    def shift(s, d, sign):
        x = coords(s)
        x[d - 1] = (x[d - 1] + sign) % dims[d - 1]
        return int(np.ravel_multi_index(x, dims))

    def col(label):
        return 2 * (abs(label) - 1) + (0 if label > 0 else 1)

    tr = lambda s, d: n + 4 * s + d - 1
    ac = lambda s, i: 5 * n + 6 * s + i
    nbr = np.full((5 * n, 8), -1, dtype=np.int64)
    for s in range(n):
        for d in range(1, 5):
            nbr[s, col(d)] = tr(s, d)
            nbr[s, col(-d)] = tr(shift(s, d, -1), d)
            t = tr(s, d)
            nbr[t, col(-d)] = s
            nbr[t, col(d)] = shift(s, d, +1)
            for e in range(1, 5):
                if e != d:
                    i = graphlat.PLANES.index((min(d, e), max(d, e)))
                    nbr[t, col(e)] = ac(s, i)
                    nbr[t, col(-e)] = ac(shift(s, e, -1), i)
    corners, planes, act_trans = [], [], []
    for s in range(n):
        for mu, nu in graphlat.PLANES:
            c1, c3 = shift(s, mu, +1), shift(s, nu, +1)
            corners.append((s, c1, shift(c1, nu, +1), c3))
            planes.append((mu, nu))
            act_trans.append((tr(s, mu), tr(c1, nu), tr(c3, mu), tr(s, nu)))
    # Staple table [mu-1, slot, pair, site]: pair i takes the i-th nu != mu, with
    # upper legs (A, B, C) and lower legs (A', B', C') in slots (C, B', B, A', A, C').
    sites = np.empty((4, 6, 3, n), dtype=np.int64)
    dirs = np.empty((4, 6, 3, n), dtype=np.int64)
    for s in range(n):
        for mu in range(1, 5):
            for i, nu in enumerate(d for d in range(1, 5) if d != mu):
                x_pmu, x_mnu = shift(s, mu, +1), shift(s, nu, -1)
                a, b, c = x_pmu, shift(s, nu, +1), s
                a_low, b_low, c_low = shift(x_pmu, nu, -1), x_mnu, x_mnu
                sites[mu - 1, :, i, s] = (c, b_low, b, a_low, a, c_low)
                dirs[mu - 1, :, i, s] = (nu - 1, mu - 1, mu - 1, nu - 1, nu - 1, nu - 1)
    parity = np.array([sum(coords(s)) % 2 for s in range(n)], dtype=np.int8)
    forward = np.array([[shift(s, d, +1) for d in range(1, 5)] for s in range(n)])
    return {
        "nbr": nbr,
        "corners": np.array(corners),
        "planes": np.array(planes),
        "act_trans": np.array(act_trans),
        "staples": (sites, dirs),
        "parity": parity,
        "forward": forward,
    }


@pytest.mark.parametrize("dims", SHAPES)
def test_tables_match_loop_construction(dims):
    g = build_hypercubic(dims)
    ref = _loop_reference(dims)
    assert np.array_equal(g._nbr, ref["nbr"])
    walks = [_walk(g, a) for a in _actions(g)]
    assert np.array_equal([corners for corners, *_ in walks], ref["corners"])
    assert np.array_equal([dirs[:2] for _, dirs, *_ in walks], ref["planes"])
    assert np.array_equal(g.plaquette_table + g.n_events, ref["act_trans"])
    sites, dirs = ref["staples"]
    assert np.array_equal(g.staple_table, 4 * sites + dirs)
    # The event colouring is proper, and is the parity when every extent is even.
    assert not (g.event_colors[:, None] == g.event_colors[ref["forward"]]).any()
    if not any(d % 2 for d in dims):
        assert np.array_equal(g.event_colors, ref["parity"])
    events = np.arange(g.n_events)
    fwd = np.stack([[g.event_neighbor(int(e), d) for d in range(1, 5)] for e in events])
    assert np.array_equal(g.forward_sites, fwd)
    bwd = np.stack([[g.event_neighbor(int(e), -d) for d in range(1, 5)] for e in events])
    assert np.array_equal(g.backward_sites, bwd)


@pytest.mark.parametrize(
    "consumer, tables, labels",
    [
        ("wilson_action", ["forward_sites", "backward_sites", "plaquette_table"], graphlat.LABELS),
        ("staple_sum", ["forward_sites", "backward_sites", "staple_table"], graphlat.LABELS),
        ("local_gauge_links", ["forward_sites"], [1, 2, 3, 4]),
    ],
)
def test_index_tables_are_derived_from_adjacency(consumer, tables, labels, monkeypatch, rng):
    """On a fresh graph, each batched consumer builds the tables it reads through
    `LatticeGraph.neighbor`, one call per half step over all events at once.  The
    benchmark's coverage lists expect ``neighbor`` to fire for this reason."""
    calls = []
    neighbor = LatticeGraph.neighbor

    def counted(self, v, label):
        calls.append((label, np.size(v)))
        return neighbor(self, v, label)

    monkeypatch.setattr(LatticeGraph, "neighbor", counted)
    g = build_hypercubic((2, 3, 4, 5))
    lf = wilson.random_links(g, 2, rng)
    omegas = liealg.haar_random_sun(2, rng, count=g.n_events)
    assert not calls and not any(t in vars(g) for t in tables)
    run = {
        "wilson_action": lambda: wilson.wilson_action(lf, g, 1.0),
        "staple_sum": lambda: sampler.staple_sum(lf, g, 0, 1),
        "local_gauge_links": lambda: wilson.local_gauge_links(lf, omegas),
    }
    run[consumer]()
    assert all(t in vars(g) for t in tables)
    assert sorted(calls) == sorted((label, g.n_events) for label in labels for _ in range(2))


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 4, 5, 2), (3, 3, 3, 3)])
def test_path_offsets_follow_adjacency(dims, rng):
    """Each column of a walk is the transition its first half step reaches, as a
    storage offset; the second half step reaches the next event.  Closed walks
    undo random steps in shuffled order, or wrap once around axis 1."""
    g = build_hypercubic(dims)
    events = np.arange(g.n_events)
    walks = [(rng.choice(graphlat.LABELS, size=n).tolist(), False) for n in (1, 2, 4, 7)]
    for n in (1, 2, 3):
        steps = rng.choice(graphlat.LABELS, size=n).tolist()
        walks.append((steps + (-rng.permutation(steps)).tolist(), True))
    walks.append(([1] * dims[0], True))
    for steps, closed in walks:
        start = rng.permutation(events)
        got = g.path_offsets(steps, start)
        assert got.shape == (g.n_events, len(steps))
        here = start
        for k, step in enumerate(steps):
            link = g.neighbor(here, step)
            assert np.array_equal(got[:, k], link - g.n_events)
            here = g.neighbor(link, step)
        if closed:
            assert np.array_equal(here, start)


def test_path_offsets_validation(small_graph):
    g = small_graph
    assert g.path_offsets([], np.arange(3)).shape == (3, 0)
    assert g.path_offsets((1, -2), np.int64(5)).shape == (2,)
    for step in (0, 5, -5, 1.0, True):
        with pytest.raises(GraphError, match="invalid edge label"):
            g.path_offsets((1, step), np.arange(g.n_events))
    with pytest.raises(GraphError, match="is not an event vertex"):
        g.path_offsets((1,), [g.n_events])
    with pytest.raises(GraphError, match="out of range"):
        g.path_offsets((1,), [-1])
    with pytest.raises(GraphError, match="must be integers"):
        g.path_offsets((1,), [0.0])


def _walk_product(links, g, steps, start):
    """Compose the links a walk crosses with `@`, daggering those of negative steps."""
    legs = g.path_offsets(steps, start)
    prod = np.eye(links.shape[-1])
    for k, step in enumerate(steps):
        m = links[legs[:, k]]
        prod = prod @ (m if step > 0 else m.conj().swapaxes(-1, -2))
    return prod


def test_kernel_dagger_patterns_are_the_step_signs(rng):
    """The staple and plaquette kernels fix which legs they dagger; those are the
    negative steps of the walks that build their tables."""
    g = build_hypercubic((2, 3, 4, 5))
    lf = wilson.random_links(g, 3, rng)
    links = lf.su.reshape(-1, 3, 3)
    events = np.arange(g.n_events)
    for mu in range(1, 5):
        start = g.forward_sites[:, mu - 1]
        want = sum(
            _walk_product(links, g, (s * nu, -mu, -s * nu), start)
            for nu in range(1, 5)
            if nu != mu
            for s in (1, -1)
        )
        got = sampler.staple_sum(lf, g, events, mu)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    loops = [_walk_product(links, g, (mu, nu, -mu, -nu), events) for mu, nu in graphlat.PLANES]
    want = np.stack(loops, axis=1).reshape(g.n_actions, 3, 3)
    np.testing.assert_allclose(g.plaquette_loops(links), want, rtol=0, atol=1e-13)


def test_array_neighbor_matches_scalar():
    g = build_hypercubic((2, 3, 4, 5))
    verts = np.arange(g.n_events + g.n_transitions).reshape(-1, 5)
    for label in graphlat.LABELS:
        got = g.neighbor(verts, label)
        assert got.shape == verts.shape
        want = np.vectorize(lambda v: g.neighbor(int(v), label))(verts)
        assert np.array_equal(got, want)
    events = np.arange(g.n_events)
    for label in graphlat.LABELS:
        want = [g.event_neighbor(int(e), label) for e in events]
        assert np.array_equal(g.event_neighbor(events, label), want)


def test_array_neighbor_validation(small_graph):
    g = small_graph
    action = g.n_events + g.n_transitions
    with pytest.raises(GraphError, match="action vertex"):
        g.neighbor(np.array([0, action, 1]), 1)
    with pytest.raises(GraphError, match="out of range"):
        g.neighbor(np.array([0, g.n_vertices]), 1)
    with pytest.raises(GraphError, match="out of range"):
        g.neighbor(np.array([-1]), 1)
    with pytest.raises(GraphError):
        g.neighbor(np.array([0.0]), 1)
    with pytest.raises(GraphError):
        g.neighbor(np.array([0]), 5)


@pytest.mark.parametrize("dims, same", [((3, 2, 2, 2), 8), ((2, 2, 2, 2), 0), ((4, 4, 4, 4), 0)])
def test_parity_is_a_two_coloring_only_for_even_extents(dims, same):
    """Coordinate-sum parity: forward links joining equal parities.  An odd
    extent L wraps from coordinate L-1 to 0, an even difference.  The graph's
    event colouring is proper either way: the parity where that is a
    two-colouring, four colours on the odd shape."""
    g = build_hypercubic(dims)
    parity = sum(np.unravel_index(np.arange(g.n_events), dims)) % 2
    equal = parity[:, None] == parity[g.forward_sites]
    assert int(equal.sum()) == same
    colors = g.event_colors
    assert not (colors[:, None] == colors[g.forward_sites]).any()
    if same:
        assert int(colors.max()) + 1 == 4
    else:
        assert np.array_equal(colors, parity)
