import numpy as np
import pytest

from graphgauge import graphlat
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


def test_role_assignment_by_id_range(small_graph):
    g = small_graph
    assert g.role(0) == Role.EVENT
    assert g.role(g.n_events) == Role.TRANSITION
    assert g.role(g.n_events + g.n_transitions) == Role.ACTION
    with pytest.raises(GraphError):
        g.role(g.n_vertices)


def test_vertex_degrees(small_graph):
    """Events see 8 transitions; transitions see 2 events and 6 actions;
    actions see exactly their 4 loop transitions."""
    g = small_graph
    for v in range(g.n_events):
        nbrs = g.neighbors(v)
        assert len(nbrs) == 8
        assert all(g.role(w) == Role.TRANSITION for w in nbrs)
    for v in range(g.n_events, g.n_events + g.n_transitions):
        nbrs = g.neighbors(v)
        assert len(nbrs) == 8
        roles = [g.role(w) for w in nbrs]
        assert roles.count(Role.EVENT) == 2
        assert roles.count(Role.ACTION) == 6
    for v in range(g.n_events + g.n_transitions, g.n_vertices):
        nbrs = g.neighbors(v)
        assert len(nbrs) == 4
        assert all(g.role(w) == Role.TRANSITION for w in nbrs)


def test_every_link_in_exactly_six_plaquettes(small_graph):
    g = small_graph
    counts = {}
    for p in g.plaquettes():
        for event, step in p.links:
            if step > 0:
                key = (event, step)
            else:
                key = (g.event_neighbor(event, step), -step)
            counts[key] = counts.get(key, 0) + 1
    assert set(counts) == set(g.links())
    assert all(c == 6 for c in counts.values())


def test_plaquette_loop_closes(small_graph):
    g = small_graph
    for p in g.plaquettes():
        here = p.corners[0]
        for event, step in p.links:
            assert event == here
            here = g.event_neighbor(here, step)
        assert here == p.corners[0]
        mu, nu = p.plane
        assert 1 <= mu < nu <= 4
        steps = tuple(s for _, s in p.links)
        assert steps == (mu, nu, -mu, -nu)


def test_event_neighbor_is_two_half_steps(small_graph):
    g = small_graph
    for e in range(g.n_events):
        for d in (1, -2, 3, -4):
            t = g.neighbor(e, d)
            assert g.role(t) == Role.TRANSITION
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
    g = small_graph
    for p in g.plaquettes():
        ts = g.action_transitions(p.action)
        mu, nu = p.plane
        c0, c1, _, c3 = p.corners
        assert ts[0] == g.neighbor(c0, mu)
        assert ts[1] == g.neighbor(c1, nu)
        assert ts[2] == g.neighbor(c3, mu)
        assert ts[3] == g.neighbor(c0, nu)


def test_links_enumeration(small_graph):
    g = small_graph
    links = g.links()
    assert len(links) == g.n_transitions
    assert links == sorted(links)
    assert all(1 <= d <= 4 for _, d in links)


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


def test_automorphism_preserves_roles(small_graph):
    g = small_graph
    perm = g.automorphism_shift((0, 1, 0, 1))
    for v in range(g.n_vertices):
        assert g.role(int(perm[v])) == g.role(v)


def test_compatible(small_graph):
    assert small_graph.compatible(build_hypercubic((2, 2, 2, 2)))
    assert not small_graph.compatible(build_hypercubic((2, 2, 2, 4)))


def test_open_boundaries_rejected():
    with pytest.raises(GraphError, match="periodic"):
        build_hypercubic((2, 2, 2, 2), periodic=False)
    with pytest.raises(GraphError, match="periodic"):
        LatticeGraph((3, 3, 3, 3), periodic=False)


def test_constructor_validation():
    with pytest.raises(GraphError):
        LatticeGraph((2, 2, 2))
    with pytest.raises(GraphError):
        LatticeGraph((2, 2, 2, 0))
    with pytest.raises(GraphError):
        LatticeGraph((1, 2, 2, 2), periodic=True)


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
    sites = np.empty((n, 4, 6, 3), dtype=np.int64)
    dirs = np.empty((n, 4, 6, 3), dtype=np.int64)
    dag = np.empty((n, 4, 6, 3), dtype=bool)
    for s in range(n):
        for mu in range(1, 5):
            i = 0
            for nu in range(1, 5):
                if nu == mu:
                    continue
                x_pmu, x_mnu = shift(s, mu, +1), shift(s, nu, -1)
                sites[s, mu - 1, i] = (x_pmu, shift(s, nu, +1), s)
                sites[s, mu - 1, i + 1] = (shift(x_pmu, nu, -1), x_mnu, x_mnu)
                dirs[s, mu - 1, i : i + 2] = (nu - 1, mu - 1, nu - 1)
                dag[s, mu - 1, i] = (False, True, True)
                dag[s, mu - 1, i + 1] = (True, True, False)
                i += 2
    parity = np.array([sum(coords(s)) % 2 for s in range(n)], dtype=np.int8)
    forward = np.array([[shift(s, d, +1) for d in range(1, 5)] for s in range(n)])
    return {
        "nbr": nbr,
        "corners": np.array(corners),
        "planes": np.array(planes),
        "act_trans": np.array(act_trans),
        "staples": (sites, dirs, dag),
        "parity": parity,
        "forward": forward,
    }


@pytest.mark.parametrize("dims", SHAPES)
def test_tables_match_loop_construction(dims):
    g = build_hypercubic(dims)
    ref = _loop_reference(dims)
    assert np.array_equal(g._nbr, ref["nbr"])
    pt = g.plaquette_table
    assert np.array_equal(pt.corners, ref["corners"])
    assert np.array_equal(np.stack([pt.mu, pt.nu], axis=1), ref["planes"])
    assert np.array_equal(pt.transitions + g.n_events, ref["act_trans"])
    st = g.staple_table
    sites, dirs, dag = ref["staples"]
    assert np.array_equal(st.sites, sites)
    assert np.array_equal(np.broadcast_to(st.dirs, dirs.shape), dirs)
    assert np.array_equal(np.broadcast_to(st.dagger, dag.shape), dag)
    # The event colouring is proper, and is the parity when every extent is even.
    assert not (g.event_colors[:, None] == g.event_colors[ref["forward"]]).any()
    if not any(d % 2 for d in dims):
        assert np.array_equal(g.event_colors, ref["parity"])
    events = np.arange(g.n_events)
    fwd = np.stack([[g.event_neighbor(int(e), d) for d in range(1, 5)] for e in events])
    assert np.array_equal(g.forward_sites, fwd)
    bwd = np.stack([[g.event_neighbor(int(e), -d) for d in range(1, 5)] for e in events])
    assert np.array_equal(g.backward_sites, bwd)


def test_plaquette_views_match_table(small_graph):
    g = small_graph
    pt = g.plaquette_table
    for k, p in enumerate(g.plaquettes()):
        assert p.action == g.n_events + g.n_transitions + k
        assert p.corners == tuple(pt.corners[k].tolist())
        assert p.plane == (pt.mu[k], pt.nu[k])
        ts = tuple(int(t) + g.n_events for t in pt.transitions[k])
        assert ts == g.action_transitions(p.action)


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
