"""Tests for plaquette products, the block action, and its symmetries."""

import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from graphgauge import graphlat, liealg, potential, sampler, wilson

_PAULI1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_identity_action_exact(small_graph, n):
    lf = wilson.identity_links(small_graph, n)
    act = wilson.wilson_action(lf, small_graph, beta=2.5)
    n_p = small_graph.n_actions
    assert act.n_plaquettes == n_p
    assert act.raw_trace_sum == float(n_p * (n + 5))
    assert act.normalized == 0.0
    assert act.so5_loop_trace == 5.0


def test_unsupported_color_count_rejected(small_graph):
    with pytest.raises(wilson.LinkFieldError, match="N=4"):
        wilson.identity_links(small_graph, 4)


def test_identity_links_refuses_before_allocating(small_graph):
    # One complex 10^4 x 10^4 identity block alone would take 1.6 GB.
    tracemalloc.start()
    try:
        with pytest.raises(wilson.LinkFieldError, match="N=10000"):
            wilson.identity_links(small_graph, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "dims, n, block_dims, block_n",
    [
        ((2, 2, 2, 2), 2, (2, 2, 2, 2), 3),  # 3x3 blocks read as SU(2)
        ((3, 3, 2, 2), 3, (3, 3, 2, 2), 2),  # 2x2 blocks read as SU(3)
        ((2, 2, 2, 2), 2, (2, 2, 2, 4), 2),  # blocks of another lattice
        ((2, 2, 2, 2), 4, (2, 2, 2, 2), 4),  # an unsupported N
    ],
)
def test_link_field_refuses_blocks_of_the_wrong_shape(dims, n, block_dims, block_n):
    # 3x3 blocks used to read as SU(2) links, giving a finite action, and 2x2
    # blocks as SU(3) failed with a bare IndexError in the first kernel.
    g = graphlat.build_hypercubic(dims)
    eye = np.eye(block_n, dtype=complex)
    su = np.broadcast_to(eye, (graphlat.build_hypercubic(block_dims).n_events, 4) + eye.shape)
    with pytest.raises(wilson.LinkFieldError, match=rf"^su must have shape .* for N={n}$"):
        wilson.LinkField(g, n, su, np.eye(5))
    with pytest.raises(wilson.LinkFieldError, match="^su must have shape"):
        wilson.LinkField(g, 2, su.reshape(-1, block_n, block_n), np.eye(5))


def test_every_producer_keeps_su_a_view_of_cm(small_graph, rng, tmp_path):
    # The kernels read `cm`; a field whose su is not a view of it would pay a
    # whole-field component-major copy on every kernel call.
    g = small_graph
    lf = wilson.random_links(g, 3, rng)
    omegas = liealg.haar_random_sun(3, rng, g.n_events)
    wilson.save_links(lf, tmp_path / "links.txt")
    fields = {
        "identity_links": wilson.identity_links(g, 2),
        "random_links": lf,
        "pure_gauge_links": wilson.pure_gauge_links(g, 3, rng),
        "local_gauge_links": wilson.local_gauge_links(lf, omegas),
        "global_so5_conjugate": wilson.global_so5_conjugate(lf, liealg.random_so5(rng)),
        "copy": lf.copy(),
        "metropolis_sweep": sampler.metropolis_sweep(lf, g, 2.0, 0.5, rng)[0],
        "load_links": wilson.load_links(tmp_path / "links.txt", g),
        "constructor": wilson.LinkField(g, 3, np.ascontiguousarray(lf.su), np.eye(5)),
    }
    for name, field in fields.items():
        n = field.n_colors
        assert field.cm.shape == (n, n, g.n_transitions) and field.cm.flags.c_contiguous, name
        assert field.cm.dtype == np.complex128, name
        assert np.shares_memory(field.cm, field.su), name
        assert np.array_equal(field.cm[:, :, 4 * 5 + 2], field.su[5, 2]), name
    assert np.array_equal(fields["constructor"].su, lf.su)
    # A su that is already a view of some cm is adopted, not copied.
    assert np.shares_memory(wilson.LinkField(g, 3, lf.su, np.eye(5)).cm, lf.cm)


@pytest.mark.parametrize("dtype", [float, int])
def test_real_or_integer_blocks_are_stored_complex(small_graph, dtype):
    # A float identity used to stay float: the sweep then dropped the imaginary
    # part of every accepted link, with a ComplexWarning, and broke unitarity.
    g = small_graph
    eye = np.broadcast_to(np.eye(2, dtype=dtype), (g.n_events, 4, 2, 2))
    lf = wilson.LinkField(g, 2, eye, np.eye(5))
    assert lf.cm.dtype == np.complex128
    identity = wilson.identity_links(g, 2)
    want = sampler.metropolis_sweep(identity, g, 2.0, 0.5, np.random.default_rng(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sampler.metropolis_sweep(lf, g, 2.0, 0.5, np.random.default_rng(1))
    assert got[1] == want[1] and np.array_equal(got[0].cm, want[0].cm)
    wilson.validate_links(got[0])


def test_su_and_n_colors_are_read_only_views_of_cm(small_graph, rng):
    lf = wilson.random_links(small_graph, 2, rng)
    want = wilson.wilson_action(lf, small_graph, 2.0)
    for name, value in (
        ("su", np.ascontiguousarray(lf.su)),
        ("n_colors", 3),
        ("cm", np.zeros((3, 3, small_graph.n_transitions), dtype=complex)),
    ):
        with pytest.raises(AttributeError):
            setattr(lf, name, value)
    assert wilson.wilson_action(lf, small_graph, 2.0) == want
    lf.cm[...] = np.eye(2)[:, :, None]
    assert np.array_equal(lf.su, np.broadcast_to(np.eye(2), lf.su.shape))


def test_random_links_pass_validation(small_graph, rng):
    lf = wilson.random_links(small_graph, 2, rng, so5=liealg.random_so5(rng))
    wilson.validate_links(lf)


def test_validate_rejects_nonunitary_block(small_graph, rng):
    lf = wilson.random_links(small_graph, 2, rng)
    lf.su[3, 1] *= 1.5
    with pytest.raises(wilson.LinkFieldError, match="not unitary"):
        wilson.validate_links(lf)


def test_validate_rejects_wrong_determinant(small_graph, rng):
    lf = wilson.random_links(small_graph, 2, rng)
    lf.su[0, 0] = 1.0j * lf.su[0, 0]
    with pytest.raises(wilson.LinkFieldError, match="determinant"):
        wilson.validate_links(lf)


def test_validate_reports_first_bad_link(small_graph, rng):
    lf = wilson.random_links(small_graph, 2, rng)
    lf.su[5, 0] *= 1.5
    lf.su[3, 2] = 1.0j * lf.su[3, 2]
    with pytest.raises(wilson.LinkFieldError, match=r"^link \(3, 3\) determinant is not 1$"):
        wilson.validate_links(lf)
    lf.su[2, 3] *= 2.0
    with pytest.raises(
        wilson.LinkFieldError, match=r"^link \(2, 4\) is not unitary, defect 3\.000e\+00$"
    ):
        wilson.validate_links(lf)


def test_validate_rejects_nonorthogonal_so5(small_graph, rng):
    lf = wilson.random_links(small_graph, 2, rng)
    lf.so5 = np.eye(5) + 0.02
    with pytest.raises(wilson.LinkFieldError, match="so5"):
        wilson.validate_links(lf)


def _with_nan_su(lf, tmp_path):
    lf.su[3, 1, 0, 0] = np.nan
    wilson.validate_links(lf)


def _with_nan_so5(lf, tmp_path):
    lf.so5[2, 2] = np.nan
    wilson.validate_links(lf)


def _load_with_nan(lf, tmp_path):
    lf.su[0, 2, 1, 1] = np.nan
    wilson.save_links(lf, tmp_path / "links.txt")
    wilson.load_links(tmp_path / "links.txt", lf.graph)


def _gauge_with_nan(lf, tmp_path):
    rng = np.random.default_rng(4)
    omegas = liealg.haar_random_sun(lf.n_colors, rng, count=lf.graph.n_events)
    omegas[6, 0, 1] = np.nan
    wilson.local_gauge_links(lf, omegas)


def _conjugate_with_nan(lf, tmp_path):
    o = np.eye(5)
    o[4, 0] = np.nan
    wilson.global_so5_conjugate(lf, o)


@pytest.mark.parametrize(
    "action, message",
    [
        (_with_nan_su, r"link \(3, 2\) is not unitary, defect inf"),
        (_with_nan_so5, "so5 block must be finite"),
        (_load_with_nan, r"link \(0, 3\) is not unitary"),
        (_gauge_with_nan, "gauge matrix stack must be finite"),
        (_conjugate_with_nan, "conjugating matrix must be finite"),
    ],
)
def test_validators_reject_nan(small_graph, rng, tmp_path, action, message):
    lf = wilson.random_links(small_graph, 2, rng)
    with pytest.raises(wilson.LinkFieldError, match=message):
        action(lf, tmp_path)


@pytest.mark.parametrize("shape", [(4, 4), (6, 6), (3, 5, 5)])
def test_frame_block_must_be_5x5(small_graph, rng, tmp_path, shape):
    # A (4, 4) block passed validation and put n_p * 4 into the action, not n_p * 5;
    # given to the constructor, it also went through sweeps unchecked.
    block = np.broadcast_to(np.eye(shape[-1]), shape)
    named = rf"must have shape \(5, 5\), got {re.escape(str(shape))}$"
    with pytest.raises(wilson.LinkFieldError, match="so5 block " + named):
        wilson.identity_links(small_graph, 2, so5=block)
    with pytest.raises(wilson.LinkFieldError, match="so5 block " + named):
        wilson.random_links(small_graph, 2, rng, so5=block)
    lf = wilson.random_links(small_graph, 2, rng)
    with pytest.raises(wilson.LinkFieldError, match="so5 block " + named):
        wilson.LinkField(small_graph, 2, lf.su, block)
    with pytest.raises(wilson.LinkFieldError, match="conjugating matrix " + named):
        wilson.global_so5_conjugate(lf, block)
    # Assignment applies the same rule, so no (4, 4) block reaches the action
    # (where it gave n_p * 4) or a snapshot (16 values `load_links` could not read).
    with pytest.raises(wilson.LinkFieldError, match="so5 block " + named):
        lf.so5 = block
    assert np.array_equal(lf.so5, np.eye(5))
    wilson.save_links(lf, tmp_path / "links.txt")
    assert np.array_equal(wilson.load_links(tmp_path / "links.txt", small_graph).so5, np.eye(5))


def test_link_field_stores_so5_rows_as_one_float_block(small_graph, rng):
    # A tuple of rows used to be stored as given, so `copy()`, and every sweep,
    # failed on `tuple.copy`.
    su = wilson.random_links(small_graph, 2, rng).su
    lf = wilson.LinkField(small_graph, 2, su, tuple(map(tuple, np.eye(5))))
    assert lf.so5.dtype == float and np.array_equal(lf.so5, np.eye(5))
    moved, _ = sampler.metropolis_sweep(lf, small_graph, 2.0, 0.5, rng)
    wilson.validate_links(moved)
    # Assigned rows are stored the same way: a sweep used to fail on `tuple.copy`.
    moved.so5 = tuple(map(tuple, np.eye(5)))
    assert moved.so5.dtype == float and moved.so5.shape == (5, 5)
    wilson.validate_links(sampler.metropolis_sweep(moved, small_graph, 2.0, 0.5, rng)[0])


@pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf, "1", None])
def test_wilson_action_refuses_non_finite_beta(small_graph, beta):
    # NaN used to come back silently as normalized=nan, and "1" or None
    # raised a bare TypeError from the comparison.
    lf = wilson.identity_links(small_graph, 2)
    want = f"^parameter 'beta' is invalid: need a finite value, got {re.escape(repr(beta))}$"
    with pytest.raises(ValueError, match=want):
        wilson.wilson_action(lf, small_graph, beta)


def test_validate_nan_link_raises_without_warning(small_graph, rng):
    # The determinant check must not warn on a NaN link: under -W error the
    # warning, not the LinkFieldError, would reach the caller.
    lf = wilson.random_links(small_graph, 3, rng)
    lf.su[5, 0, 2, 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wilson.LinkFieldError, match=r"^link \(5, 1\) is not unitary, defect inf$"):
            wilson.validate_links(lf)


def _scaled_to_defect(su, defect):
    return su * np.sqrt(1.0 + defect)  # (s U)^dag (s U) = (1 + defect) I


def _det_phase(su, phase):
    return su * np.exp(1j * phase / su.shape[-1])  # det(c U) = c^N det U


def _one_entry(su, value):
    su = su.copy()
    su[..., 1, 0] = value
    return su


_TOL = liealg.DEFECT_TOL
_UNITARY, _DET = "is not unitary, defect ", "determinant is not 1$"


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "spoil, amount, refusal",
    [
        (_scaled_to_defect, 0.9 * _TOL, None),
        (_scaled_to_defect, 1.1 * _TOL, _UNITARY + r"1\.100e-10$"),
        (_det_phase, 0.9 * 10 * _TOL, None),
        (_det_phase, 1.1 * 10 * _TOL, _DET),
        (_one_entry, np.nan, _UNITARY + "inf$"),
        (_one_entry, np.inf, _UNITARY + "inf$"),
    ],
    ids=["defect-0.9", "defect-1.1", "det-0.9", "det-1.1", "nan", "inf"],
)
def test_validate_links_at_the_tolerance_edge(small_graph, rng, n, spoil, amount, refusal):
    # Links (3, 2) onward, in storage order, are spoilt alike; a refusal names
    # the first of them.
    lf = wilson.random_links(small_graph, n, rng)
    spoilt = spoil(lf.su, amount)
    lf.su[3, 1:], lf.su[4:] = spoilt[3, 1:], spoilt[4:]
    if refusal is None:
        wilson.validate_links(lf)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wilson.LinkFieldError, match=r"^link \(3, 2\) " + refusal):
            wilson.validate_links(lf)


def test_action_and_plaquette_make_no_whole_field_copy():
    # The action's gathers read `cm`, the field's own memory; a component-major
    # copy of the field per call peaked at 2.64 field sizes at 8^4 SU(3).
    g = graphlat.build_hypercubic((8, 8, 8, 8))
    lf = wilson.random_links(g, 3, np.random.default_rng(3))
    wilson.wilson_action(lf, g, 5.7)  # builds the graph's cached plaquette table
    for call in (lambda: wilson.wilson_action(lf, g, 5.7),
                 lambda: sampler.average_plaquette(lf, g)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * lf.su.nbytes


def test_action_rejects_mismatched_graph(small_graph, mid_graph):
    lf = wilson.identity_links(small_graph, 2)
    with pytest.raises(graphlat.GraphError, match="^LinkField was built on a different graph$"):
        wilson.wilson_action(lf, mid_graph, beta=1.0)


# ---------------------------------------------------------------------------
# plaquette products
# ---------------------------------------------------------------------------


def _actions(g):
    return range(g.n_events + g.n_transitions, g.n_vertices)


def test_plaquette_product_matches_corner_walk(small_graph, rng):
    # Independent recomputation from the corners: the loop is
    # U(c0, mu) U(c1, nu) U(c3, mu)^dag U(c0, nu)^dag, where c0 is the tail of
    # the first leg and c1 and c3 are the events one step along mu and nu.
    g = small_graph
    lf = wilson.random_links(g, 2, rng, so5=liealg.random_so5(rng))
    for a in _actions(g)[::11]:
        legs = g.action_transitions(a)
        mu, nu = (g.transition_direction(t) for t in legs[:2])
        c0 = g.neighbor(legs[0], -mu)
        c1, c3 = g.event_neighbor(c0, mu), g.event_neighbor(c0, nu)
        want = (
            lf.su[c0, mu - 1]
            @ lf.su[c1, nu - 1]
            @ lf.su[c3, mu - 1].conj().T
            @ lf.su[c0, nu - 1].conj().T
        )
        su, so5 = wilson.plaquette_product(lf, a)
        np.testing.assert_allclose(su, want, atol=1e-13)
        want_o = lf.so5 @ lf.so5 @ lf.so5.T @ lf.so5.T
        np.testing.assert_allclose(so5, want_o, atol=1e-13)


def _reference_loops(g, values):
    """`plaquette_product` per plaquette, with ``values`` as the stored blocks.

    A stand-in for the field, since a `LinkField` holds SU(2) or SU(3) blocks
    only and ``values`` may be SO(5) transports.
    """
    n = values.shape[-1]
    lf = types.SimpleNamespace(graph=g, su=values.reshape(g.n_events, 4, n, n), so5=np.eye(5))
    return np.stack([wilson.plaquette_product(lf, a)[0] for a in _actions(g)])


@pytest.mark.parametrize("dims", [(2, 3, 4, 5), (3, 3, 5, 2)])
def test_plaquette_loops_match_plaquette_product(dims, rng):
    """The batched loops against the corner walk, plaquette by plaquette, at
    extents > 2, where x + mu and x - mu differ: a leg gathered from the wrong
    side, or a dagger on the wrong leg, shows here."""
    g = graphlat.build_hypercubic(dims)
    for n in (2, 3):
        su = wilson.random_links(g, n, rng).su.reshape(-1, n, n)
        np.testing.assert_allclose(g.plaquette_loops(su), _reference_loops(g, su), atol=1e-13)
    # Real SO(5) transports, one per transition, as the flatness residual composes them.
    field = potential.random_field(g, 0.1, rng)
    transports = potential.edge_transport(field, g.n_events + np.arange(g.n_transitions))
    want = _reference_loops(g, transports)
    np.testing.assert_allclose(g.plaquette_loops(transports), want, atol=1e-13)
    residuals = np.linalg.norm(want - np.eye(5), 2, axis=(-2, -1))
    np.testing.assert_allclose(potential.flatness_residual(field, g).residuals, residuals, atol=1e-13)


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 4, 2, 5)])
@pytest.mark.parametrize("n", [2, 3])
def test_plaquette_traces_match_plaquette_product(dims, n, rng):
    """The trace-only kernel against the per-plaquette corner walk."""
    g = graphlat.build_hypercubic(dims)
    lf = wilson.random_links(g, n, rng)
    want = [np.trace(wilson.plaquette_product(lf, a)[0]).real for a in _actions(g)]
    np.testing.assert_allclose(wilson._plaquette_traces(lf, g), want, rtol=0, atol=1e-13)


def test_so5_loop_trace_matches_dense_product(small_graph, rng):
    o = liealg.random_so5(rng)
    lf = wilson.identity_links(small_graph, 2, so5=o)
    act = wilson.wilson_action(lf, small_graph, beta=1.0)
    want = float(np.trace(o @ o @ o.T @ o.T))
    assert abs(act.so5_loop_trace - want) < 1e-13


def test_action_matches_explicit_loop_sum(small_graph, rng):
    # Plain Python accumulation over plaquette products, no batching and no
    # canonical ordering, as an independent oracle for the total.
    lf = wilson.random_links(small_graph, 2, rng, so5=liealg.random_so5(rng))
    beta = 1.7
    total = 0.0
    su_total = 0.0
    for a in _actions(small_graph):
        su, so5 = wilson.plaquette_product(lf, a)
        tr_su = float(np.trace(su).real)
        su_total += tr_su
        total += tr_su + float(np.trace(so5))
    act = wilson.wilson_action(lf, small_graph, beta)
    assert abs(act.raw_trace_sum - total) < 1e-10 * max(1.0, abs(total))
    want_norm = beta * (act.n_plaquettes - su_total / 2.0)
    assert abs(act.normalized - want_norm) < 1e-10 * max(1.0, abs(want_norm))


def test_pure_gauge_links_have_trivial_holonomy(small_graph, rng):
    lf = wilson.pure_gauge_links(small_graph, 2, rng)
    eye = np.eye(2)
    for a in _actions(small_graph):
        su, _ = wilson.plaquette_product(lf, a)
        assert np.abs(su - eye).max() < 1e-12
    act = wilson.wilson_action(lf, small_graph, beta=3.0)
    assert abs(act.normalized) < 1e-10


@pytest.mark.parametrize(
    "swap, message",
    [((0, 1), "has no end at event"), ((1, 2), "has no end at event"), (None, "ends at event")],
)
def test_plaquette_product_refuses_a_misoriented_loop(rng, swap, message):
    """The reference derives each leg's orientation from adjacency, so a table
    row whose legs are out of loop order, or do not close, is caught."""
    g = graphlat.build_hypercubic((3, 3, 4, 3))
    lf = wilson.random_links(g, 2, rng)
    k = 7
    row = g.plaquette_table[k]
    if swap is None:
        # Last leg (x + nu, nu) in place of (x, nu): the walk ends at x + 2 nu.
        x, nu = divmod(int(row[3]), 4)
        row[3] = 4 * g.forward_sites[x, nu] + nu
    else:
        row[list(swap)] = row[list(swap[::-1])]
    action = g.n_events + g.n_transitions + k
    with pytest.raises(graphlat.GraphError, match=message):
        wilson.plaquette_product(lf, action)
    wilson.plaquette_product(lf, action + 1)

# ---------------------------------------------------------------------------
# gauge and frame symmetries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_local_gauge_invariance(small_graph, rng, n):
    lf = wilson.random_links(small_graph, n, rng, so5=liealg.random_so5(rng))
    before = wilson.wilson_action(lf, small_graph, beta=2.0)
    omegas = np.stack(
        [liealg.haar_random_sun(n, rng) for _ in range(small_graph.n_events)]
    )
    rotated = wilson.local_gauge_links(lf, omegas)
    after = wilson.wilson_action(rotated, small_graph, beta=2.0)
    scale = max(1.0, abs(before.raw_trace_sum))
    assert abs(after.raw_trace_sum - before.raw_trace_sum) < 1e-10 * scale
    assert abs(after.normalized - before.normalized) < 1e-10 * max(
        1.0, abs(before.normalized)
    )


@pytest.mark.parametrize("n", [2, 3])
def test_local_gauge_links_match_per_link_product(n, rng):
    g = graphlat.build_hypercubic((2, 3, 4, 5))
    lf = wilson.random_links(g, n, rng)
    omegas = liealg.haar_random_sun(n, rng, count=g.n_events)
    moved = wilson.local_gauge_links(lf, omegas)
    for e in range(g.n_events):
        for d in range(1, 5):
            w_next = omegas[g.event_neighbor(e, d)]
            want = omegas[e] @ lf.su[e, d - 1] @ w_next.conj().T
            np.testing.assert_allclose(moved.su[e, d - 1], want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dims, n", [((3, 4, 5, 2), 3), ((2, 2, 2, 2), 2)])
def test_kernel_bits_do_not_depend_on_the_pass_size(dims, n, monkeypatch):
    g = graphlat.build_hypercubic(dims)
    rng = np.random.default_rng(23)
    lf = wilson.random_links(g, n, rng, so5=liealg.random_so5(rng))
    w = liealg.haar_random_sun(n, rng, count=g.n_events)

    def kernels():
        action = wilson.wilson_action(lf, g, 5.7)
        return (wilson._plaquette_traces(lf, g), (action.raw_trace_sum, action.normalized),
                wilson.local_gauge_links(lf, w).cm)

    traces, action, rotated = kernels()
    for chunk in (1, 7, 4096):
        monkeypatch.setattr(wilson, "_CHUNK", chunk)
        got = kernels()
        assert np.array_equal(got[0], traces), chunk
        assert got[1] == action, chunk
        assert np.array_equal(got[2], rotated), chunk


def test_local_gauge_rejects_nonunitary(small_graph, rng):
    lf = wilson.random_links(small_graph, 2, rng)
    omegas = np.stack(
        [liealg.haar_random_sun(2, rng) for _ in range(small_graph.n_events)]
    )
    omegas[4] *= 1.3
    with pytest.raises(wilson.LinkFieldError, match="unitary"):
        wilson.local_gauge_links(lf, omegas)


def test_global_so5_conjugation_preserves_action(small_graph, rng):
    lf = wilson.random_links(small_graph, 2, rng, so5=liealg.random_so5(rng))
    before = wilson.wilson_action(lf, small_graph, beta=2.0)
    o = liealg.random_so5(rng)
    conj = wilson.global_so5_conjugate(lf, o)
    after = wilson.wilson_action(conj, small_graph, beta=2.0)
    scale = max(1.0, abs(before.raw_trace_sum))
    assert abs(after.raw_trace_sum - before.raw_trace_sum) < 1e-12 * scale
    # The su blocks are untouched, so the normalized action cannot move at
    # all, not even in the last bit.
    assert after.normalized == before.normalized


def test_so5_conjugation_rejects_nonorthogonal(small_graph, rng):
    lf = wilson.identity_links(small_graph, 2)
    with pytest.raises(wilson.LinkFieldError, match="orthogonal"):
        wilson.global_so5_conjugate(lf, np.eye(5) * 1.01)


# ---------------------------------------------------------------------------
# continuum deficit
# ---------------------------------------------------------------------------


def _constant_noncommuting(x, mu):
    if mu == 0:
        return 0.5 * _PAULI1
    if mu == 1:
        return 0.5 * _PAULI2
    return np.zeros((2, 2), dtype=complex)


def test_continuum_deficit_constant_field_strength():
    # A_0 and A_1 constant but noncommuting: F = i [A_0, A_1] = -sigma_3 / 2,
    # tr F^2 = 1/2, so the predicted deficit is eps^4 / 4 per plaquette.
    report = wilson.continuum_convergence(
        _constant_noncommuting,
        eps_list=[0.2, 0.1, 0.05],
        field_strength_fn=lambda x: -0.5 * _PAULI3,
    )
    ratio = report.deficit[-1] / 0.05**4
    assert abs(ratio - 0.25) <= 0.0125
    assert 3.8 <= report.deficit_slope <= 4.2
    assert 5.5 <= report.remainder_slope <= 6.5


def test_continuum_deficit_su3_reads_n_from_links():
    # T1, T2 span an su(2) inside su(3): F = i [T1, T2] = -T3 and tr F^2 = 1/2,
    # so the prediction is eps^4 / 4, as for SU(2); a deficit taken against
    # N = 2 would read about -1 instead.
    t = liealg.sun_generators(3)

    def pot(x, mu):
        return t[mu] if mu < 2 else np.zeros((3, 3), dtype=complex)

    report = wilson.continuum_convergence(
        pot, eps_list=[0.2, 0.1, 0.05], field_strength_fn=lambda x: -t[2]
    )
    assert abs(report.deficit[-1] / report.predicted[-1] - 1.0) <= 0.05
    assert 3.8 <= report.deficit_slope <= 4.2


def test_continuum_deficit_uses_finite_differences_by_default():
    direct = wilson.continuum_convergence(
        _constant_noncommuting, eps_list=[0.2, 0.1, 0.05]
    )
    analytic = wilson.continuum_convergence(
        _constant_noncommuting,
        eps_list=[0.2, 0.1, 0.05],
        field_strength_fn=lambda x: -0.5 * _PAULI3,
    )
    np.testing.assert_allclose(direct.predicted, analytic.predicted, rtol=1e-6)


def test_continuum_requires_three_spacings():
    with pytest.raises(ValueError, match="three"):
        wilson.continuum_convergence(_constant_noncommuting, eps_list=[0.1, 0.05])


def test_continuum_requires_distinct_spacings():
    # Two equal spacings leave two points to fit a slope through.
    with pytest.raises(ValueError, match="distinct"):
        wilson.continuum_convergence(_constant_noncommuting, eps_list=[0.1, 0.05, 0.05])


@pytest.mark.parametrize(
    "eps_list, box_extent, field",
    [
        ([0.1, 0.05, -0.025], 0.2, "eps_list"),
        ([0.1, 0.05, 0.0], 0.2, "eps_list"),
        ([0.1, 0.05, np.nan], 0.2, "eps_list"),
        ([0.1, 0.05, np.inf], 0.2, "eps_list"),
        ([0.1, 0.05, 0.025], -1.0, "box_extent"),
        ([0.1, 0.05, 0.025], 0.0, "box_extent"),
        ([0.1, 0.05, 0.025], np.nan, "box_extent"),
    ],
)
def test_continuum_refuses_non_positive_sizes(eps_list, box_extent, field):
    # A negative box or spacing gave a NaN slope, and a NaN spacing failed
    # inside numpy's float-to-integer conversion.
    with pytest.raises(ValueError, match=f"^{field} must "):
        wilson.continuum_convergence(_constant_noncommuting, eps_list, box_extent=box_extent)


def test_finite_difference_field_strength_linear_abelian():
    # A_1(x) = x_0 sigma_3 / 2 and A_0 = 0 gives F_01 = sigma_3 / 2 exactly;
    # the central difference is exact on linear data up to roundoff.
    def pot(x, mu):
        if mu == 1:
            return 0.5 * x[0] * _PAULI3
        return np.zeros((2, 2), dtype=complex)

    f = wilson.finite_difference_field_strength(pot, np.array([0.3, 0.1, 0.0, 0.0]), (0, 1))
    np.testing.assert_allclose(f, 0.5 * _PAULI3, atol=1e-9)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


def test_save_load_round_trip(small_graph, rng, tmp_path):
    lf = wilson.random_links(small_graph, 2, rng, so5=liealg.random_so5(rng))
    path = tmp_path / "links.txt"
    wilson.save_links(lf, path)
    back = wilson.load_links(path, small_graph)
    assert back.n_colors == 2
    assert np.array_equal(back.su, lf.su)
    assert np.array_equal(back.so5, lf.so5)


def test_load_rejects_missing_links(small_graph, rng, tmp_path):
    lf = wilson.random_links(small_graph, 2, rng)
    path = tmp_path / "links.txt"
    wilson.save_links(lf, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="covers"):
        wilson.load_links(path, small_graph)


@pytest.mark.parametrize(
    "line, event, direction, verb",
    [
        (-1, 15, 0, "names no link"),
        (3, -16, 1, "names no link"),
        (-1, 15, 5, "names no link"),
        (3, 16, 1, "names no link"),
        (-1, 15, 3, "repeats a link"),
        (3, 99999999999999999999, 1, "names no link"),
    ],
    ids=["direction-0", "negative-event", "direction-5", "event-past-end", "repeat",
         "event-beyond-int64"],
)
def test_load_rejects_rows_naming_no_link(
    small_graph, rng, tmp_path, line, event, direction, verb
):
    # Line 3 is the row of link (0, 1), line -1 the row of link (15, 4).
    lf = wilson.random_links(small_graph, 2, rng)
    path = tmp_path / "links.txt"
    wilson.save_links(lf, path)
    lines = path.read_text().splitlines()
    lines[line] = f"{event} {direction} " + lines[line].split(" ", 2)[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^snapshot row \({event}, {direction}\) {verb}$"):
        wilson.load_links(path, small_graph)


def test_load_rejects_missing_header(small_graph, tmp_path):
    path = tmp_path / "links.txt"
    path.write_text("# nothing useful\n")
    with pytest.raises(ValueError, match="header"):
        wilson.load_links(path, small_graph)


@pytest.mark.parametrize("header", ["periodic=0", ""])
def test_load_rejects_non_periodic_header(small_graph, rng, tmp_path, header):
    lf = wilson.random_links(small_graph, 2, rng)
    path = tmp_path / "links.txt"
    wilson.save_links(lf, path)
    text = path.read_text()
    assert " periodic=1\n" in text
    path.write_text(text.replace(" periodic=1", f" {header}".rstrip()))
    with pytest.raises(ValueError, match="periodic"):
        wilson.load_links(path, small_graph)


def test_load_rejects_dims_mismatch(small_graph, mid_graph, rng, tmp_path):
    lf = wilson.random_links(small_graph, 2, rng)
    path = tmp_path / "links.txt"
    wilson.save_links(lf, path)
    with pytest.raises(ValueError, match="dims"):
        wilson.load_links(path, mid_graph)


@pytest.mark.parametrize("n_values", [16, 26])
def test_load_rejects_so5_line_of_wrong_length(small_graph, rng, tmp_path, n_values):
    path = tmp_path / "links.txt"
    wilson.save_links(wilson.random_links(small_graph, 2, rng), path)
    lines = path.read_text().splitlines()
    assert lines[2].startswith("# so5: ")
    lines[2] = "# so5: " + " ".join(["0.5"] * n_values)
    path.write_text("\n".join(lines) + "\n")
    message = rf"^snapshot so5 line holds {n_values} values, expected 25$"
    with pytest.raises(ValueError, match=message):
        wilson.load_links(path, small_graph)


def test_load_revalidates_blocks(small_graph, rng, tmp_path):
    lf = wilson.random_links(small_graph, 2, rng)
    lf.su[1, 2] *= 2.0
    path = tmp_path / "links.txt"
    wilson.save_links(lf, path)
    with pytest.raises(wilson.LinkFieldError, match="unitary"):
        wilson.load_links(path, small_graph)
