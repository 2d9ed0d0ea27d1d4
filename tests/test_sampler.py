"""Tests for the Metropolis sampler and its exact references."""

import ast
import inspect
import textwrap
import tracemalloc

import numpy as np
import pytest
from scipy.special import iv

from graphgauge import graphlat, liealg, sampler, wilson


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"beta": -1.0}, "beta"),
        ({"beta": np.nan}, "beta"),
        ({"beta": 2.0, "n_colors": 5}, "n_colors"),
        ({"beta": 2.0, "dims": (4, 4, 4)}, "dims"),
        ({"beta": 2.0, "dims": (4, 4, 4, 1)}, "dims"),
        ({"beta": 2.0, "sweeps": 0}, "sweeps"),
        ({"beta": 2.0, "sweeps": 10, "burn_in": 10}, "burn_in"),
        ({"beta": 2.0, "step_scale": 0.0}, "step_scale"),
        ({"beta": 2.0, "step_scale": 1.5}, "step_scale"),
        ({"beta": 2.0, "measure_every": 0}, "measure_every"),
        ({"beta": 2.0, "order": "spiral"}, "order"),
        # Odd extents are valid now; the order name is still matched exactly.
        ({"beta": 2.0, "dims": (3, 2, 2, 2), "order": "Checkerboard"}, "order"),
        # A schedule that measures no sweep, and counts that are not integers.
        ({"beta": 2.0, "sweeps": 10, "burn_in": 5, "measure_every": 10}, "measure_every"),
        ({"beta": 2.0, "measure_every": 1.5}, "measure_every"),
        ({"beta": 2.0, "sweeps": 4.5, "burn_in": 1}, "sweeps"),
        ({"beta": 2.0, "burn_in": 1.0}, "burn_in"),
        ({"beta": 2.0, "n_colors": 2.0}, "n_colors"),
        ({"beta": 2.0, "dims": (2.5, 2, 2, 2)}, "dims"),
        # These validated, then ran a hot start ("no") or failed inside numpy.
        ({"beta": 2.0, "hot_start": "no"}, "hot_start"),
        ({"beta": 2.0, "hot_start": 0.0}, "hot_start"),
        ({"beta": 2.0, "seed": -1}, "seed"),
        ({"beta": 2.0, "seed": 1.5}, "seed"),
        ({"beta": 2.0, "seed": "7"}, "seed"),
        # Rules that raised a bare TypeError, naming no field.
        ({"beta": "x"}, "beta"),
        ({"beta": None}, "beta"),
        ({"beta": 2.0, "dims": 4}, "dims"),
        ({"beta": 2.0, "step_scale": "a"}, "step_scale"),
    ],
)
def test_config_validation_names_offending_field(kwargs, field):
    cfg = sampler.ChainConfig(**kwargs)
    with pytest.raises(ValueError, match=f"'{field}'"):
        cfg.validate()


# ---------------------------------------------------------------------------
# staples
# ---------------------------------------------------------------------------


def test_staple_sum_identity_links(small_graph):
    lf = wilson.identity_links(small_graph, 2)
    staple = sampler.staple_sum(lf, small_graph, 0, 1)
    np.testing.assert_allclose(staple, 6.0 * np.eye(2), atol=1e-14)


@pytest.mark.parametrize(
    "events, direction, field",
    # Direction 0 and event -1 used to wrap to direction 4 and event 15; float
    # and boolean events raised numpy's bare IndexError.
    [
        (0, 0, "direction"),
        (-1, 1, "events"),
        (0, 5, "direction"),
        (16, 1, "events"),
        (np.array([1.0]), 1, "events"),
        (np.array([True, False]), 1, "events"),
    ],
)
def test_staple_sum_refuses_bad_index(small_graph, events, direction, field):
    lf = wilson.identity_links(small_graph, 2)
    with pytest.raises(graphlat.GraphError, match=f"^{field} must"):
        sampler.staple_sum(lf, small_graph, events, direction)


@pytest.mark.parametrize("dims, n", [((4, 4, 4, 4), 3), ((2, 3, 4, 5), 2)])
def test_staple_stack_matches_single_calls(dims, n):
    g = graphlat.build_hypercubic(dims)
    lf = wilson.random_links(g, n, np.random.default_rng(8))
    events = np.random.default_rng(9).permutation(g.n_events)[: g.n_events // 2]
    for d in range(1, 5):
        stack = sampler.staple_sum(lf, g, events, d)
        singles = np.stack([sampler.staple_sum(lf, g, int(e), d) for e in events])
        assert stack.shape == (len(events), n, n)
        assert np.array_equal(stack, singles)


def test_link_action_delta_matches_global_recompute(small_graph, rng):
    # The staple shortcut used by metropolis_sweep must agree with the full
    # action difference for arbitrary single-link replacements.  This
    # exercises every staple orientation over many random slots.
    beta = 2.3
    for n in (2, 3):
        lf = wilson.random_links(small_graph, n, rng)
        before = wilson.wilson_action(lf, small_graph, beta).normalized
        for _ in range(100):
            e = int(rng.integers(0, small_graph.n_events))
            d = int(rng.integers(1, 5))
            new_u = liealg.haar_random_sun(n, rng)
            staple = sampler.staple_sum(lf, small_graph, e, d)
            fast = -(beta / n) * np.trace((new_u - lf.su[e, d - 1]) @ staple).real
            trial = lf.copy()
            trial.su[e, d - 1] = new_u
            slow = wilson.wilson_action(trial, small_graph, beta).normalized - before
            assert abs(fast - slow) < 1e-10 * max(1.0, abs(slow))


# ---------------------------------------------------------------------------
# sweeps and chains
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "dims", [(2, 2, 2, 2), (4, 4, 4, 4), (2, 4, 6, 2), (3, 2, 2, 2), (3, 3, 5, 2)]
)
def test_update_groups_cover_links_once(dims):
    g = graphlat.build_hypercubic(dims)
    links = [(e, d) for e in range(g.n_events) for d in range(1, 5)]
    lex = sampler.update_groups(g, "lexicographic")
    assert [(int(e), d) for events, d in lex for e in events] == links
    assert all(len(events) == 1 for events, _ in lex)

    cb = sampler.update_groups(g, "checkerboard")
    n_colors = int(g.event_colors.max()) + 1
    assert [d for _, d in cb] == [1, 2, 3, 4] * n_colors
    assert sorted((int(e), d) for events, d in cb for e in events) == links
    if not any(x % 2 for x in dims):
        # Colour major, so the 8 groups are the (parity, direction) classes in order.
        parity = sum(np.unravel_index(np.arange(g.n_events), dims)) % 2
        assert n_colors == 2
        for k, (events, _) in enumerate(cb):
            assert np.array_equal(events, np.flatnonzero(parity == k // 4))
    offsets = g.staple_table
    for events, d in cb:
        assert len(set(g.event_colors[events].tolist())) == 1
        # Storage offsets of the group's links and of all their staples.
        group = set(g.transition_offset(g.neighbor(events, d)).tolist())
        staples = set(offsets[events, d - 1].ravel().tolist())
        assert not group & staples


def test_checkerboard_runs_at_odd_extent():
    cfg = sampler.ChainConfig(beta=2.0, dims=(3, 2, 2, 2), sweeps=4, burn_in=1, seed=2)
    assert cfg.order == "checkerboard"
    series = sampler.run_chain(cfg)
    assert len(series.avg_plaquette) == 3
    assert np.all(series.acceptance > 0.0)
    g = graphlat.build_hypercubic((3, 2, 2, 2))
    lf = wilson.identity_links(g, 2)
    with pytest.raises(ValueError, match="spiral"):
        sampler.metropolis_sweep(lf, g, 2.0, 0.5, np.random.default_rng(0), "spiral")


def test_chain_deterministic_per_seed():
    cfg = sampler.ChainConfig(beta=2.0, dims=(2, 2, 2, 2), sweeps=12, burn_in=4, seed=9)
    a = sampler.run_chain(cfg)
    b = sampler.run_chain(cfg)
    assert np.array_equal(a.avg_plaquette, b.avg_plaquette)
    assert np.array_equal(a.acceptance, b.acceptance)
    assert np.array_equal(a.final_links.su, b.final_links.su)
    other = sampler.run_chain(
        sampler.ChainConfig(beta=2.0, dims=(2, 2, 2, 2), sweeps=12, burn_in=4, seed=10)
    )
    assert not np.array_equal(a.avg_plaquette, other.avg_plaquette)


def test_measurement_schedule():
    cfg = sampler.ChainConfig(
        beta=1.0, dims=(2, 2, 2, 2), sweeps=10, burn_in=4, measure_every=3, seed=0
    )
    series = sampler.run_chain(cfg)
    assert series.sweep_index.tolist() == [6, 9]


def test_zero_coupling_accepts_everything():
    # At beta = 0 every proposal has zero action change, so the acceptance
    # probability is 1 and the links random walk toward Haar; the plaquette
    # average then fluctuates around zero.
    cfg = sampler.ChainConfig(beta=0.0, dims=(2, 2, 2, 2), sweeps=60, burn_in=20, seed=11)
    series = sampler.run_chain(cfg)
    assert np.all(series.acceptance == 1.0)
    assert abs(series.avg_plaquette.mean()) < 0.08


def test_large_beta_hot_start_does_not_overflow():
    # A hot start at beta = 1000 proposes moves with -dS far above the exp
    # overflow threshold; the accept weight is clipped at 1 before exp, which
    # keeps every decision (uniform draws lie in [0, 1)) and raises no
    # RuntimeWarning under the suite's error filter.
    cfg = sampler.ChainConfig(
        beta=1000.0, dims=(2, 2, 2, 2), sweeps=2, burn_in=0, seed=1, hot_start=True
    )
    series = sampler.run_chain(cfg)
    assert np.all(series.acceptance > 0.0)


def test_chain_final_links_valid_and_hot_start():
    cfg = sampler.ChainConfig(
        beta=2.0, dims=(2, 2, 2, 2), sweeps=6, burn_in=2, seed=5, hot_start=True
    )
    series = sampler.run_chain(cfg)
    wilson.validate_links(series.final_links)
    assert len(series.avg_plaquette) == 4
    cold = sampler.run_chain(
        sampler.ChainConfig(beta=2.0, dims=(2, 2, 2, 2), sweeps=6, burn_in=2, seed=5)
    )
    assert not np.array_equal(series.avg_plaquette, cold.avg_plaquette)


def test_checkerboard_chain_runs():
    cfg = sampler.ChainConfig(
        beta=2.0, dims=(2, 2, 2, 2), sweeps=8, burn_in=3, seed=2, order="checkerboard"
    )
    series = sampler.run_chain(cfg)
    assert len(series.avg_plaquette) == 5
    assert np.all(series.acceptance > 0.0)


def _batch_se(values, n_batches):
    usable = len(values) // n_batches * n_batches
    batches = values[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / np.sqrt(n_batches))


def _assert_orders_agree(dims, sweeps, burn_in):
    # Both orders sample the same distribution; fixed seeds, so this is a
    # regression check at 3 sigma with batch-means errors, as in A8.
    series = {
        order: sampler.run_chain(
            sampler.ChainConfig(
                beta=2.0, dims=dims, sweeps=sweeps, burn_in=burn_in,
                step_scale=1.0, seed=101, order=order,
            )
        ).avg_plaquette
        for order in sampler.SWEEP_ORDERS
    }
    lex, cb = series["lexicographic"], series["checkerboard"]
    comb = float(np.hypot(_batch_se(lex, 20), _batch_se(cb, 20)))
    assert abs(lex.mean() - cb.mean()) < 3.0 * comb


def test_sweep_orders_agree_on_mean_plaquette():
    _assert_orders_agree((2, 2, 2, 2), sweeps=800, burn_in=200)


def test_sweep_orders_agree_at_odd_extent():
    # (3, 2, 2, 2) takes four colours, so 16 groups a sweep.  Fewer sweeps
    # than above: the lexicographic chain costs about 10 ms a sweep here.
    _assert_orders_agree((3, 2, 2, 2), sweeps=400, burn_in=100)


def _reference_sweep(lf, g, beta, step_scale, rng, order):
    """The sweep written with stacked products: x U for the proposal and the
    trace of (U' - U) S for dS."""
    out = lf.copy()
    n = lf.n_colors
    accepted = 0
    for events, d in sampler.update_groups(g, order):
        x = liealg.random_sun_near_identity(n, 2.0 * step_scale, rng, count=len(events))
        old_u = out.su[events, d - 1]
        new_u = x @ old_u
        staple = sampler.staple_sum(out, g, events, d)
        d_s = -(beta / n) * np.trace((new_u - old_u) @ staple, axis1=-2, axis2=-1).real
        accept = rng.uniform(size=len(events)) < np.exp(np.minimum(-d_s, 0.0))
        out.su[events[accept], d - 1] = new_u[accept]
        accepted += int(np.count_nonzero(accept))
    return out, accepted / g.n_transitions


@pytest.mark.parametrize("n, order", [(2, "lexicographic"), (3, "checkerboard")])
def test_sweep_matches_reference_sweep(n, order):
    g = graphlat.build_hypercubic((2, 3, 2, 2))
    lf = wilson.random_links(g, n, np.random.default_rng(4))
    fast, slow = lf, lf
    for seed in range(3):
        fast, acc = sampler.metropolis_sweep(fast, g, 2.5, 0.5, np.random.default_rng(seed), order)
        slow, want = _reference_sweep(slow, g, 2.5, 0.5, np.random.default_rng(seed), order)
        assert acc == want
        np.testing.assert_allclose(fast.su, slow.su, rtol=0, atol=1e-13)


def test_hot_kernels_form_no_stacked_products():
    # Their products go through liealg._cm_product; a stacked @ dispatches per block.
    for fn in (
        sampler.metropolis_sweep, sampler.staple_sum, wilson._plaquette_traces,
        wilson.local_gauge_links, wilson.validate_links, liealg.unitarity_defect,
    ):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree)), fn.__name__


def test_checkerboard_drift_stays_unitary():
    # 500 hot-start sweeps of closed-form proposals times links: the rounding
    # they accumulate stays far below the validators' tolerance.
    g = graphlat.build_hypercubic((2, 2, 2, 2))
    rng = np.random.default_rng(57)
    lf = wilson.random_links(g, 3, rng)
    for _ in range(500):
        lf, _ = sampler.metropolis_sweep(lf, g, 5.7, 0.5, rng)
    assert liealg.unitarity_defect(lf.su).max() < 1e-12
    wilson.validate_links(lf)


@pytest.mark.parametrize(
    "beta, step_scale, field",
    [
        (np.nan, 0.5, "beta"),
        (np.inf, 0.5, "beta"),
        (-1.0, 0.5, "beta"),
        (2.0, 0.0, "step_scale"),
        (2.0, 1.5, "step_scale"),
        (2.0, np.nan, "step_scale"),
    ],
)
def test_sweep_refuses_bad_coupling(small_graph, rng, beta, step_scale, field):
    # A NaN beta used to accept nothing and return the field unchanged.
    lf = wilson.identity_links(small_graph, 2)
    with pytest.raises(ValueError, match=f"^parameter '{field}' is invalid: need "):
        sampler.metropolis_sweep(lf, small_graph, beta, step_scale, rng)


def test_sweep_does_not_modify_input(small_graph, rng):
    # The sweep writes accepted links into the component-major array of a
    # copy; neither the input's arrays nor its views may see them.
    for n in liealg.SUPPORTED_N:
        lf = wilson.random_links(small_graph, n, rng, so5=liealg.random_so5(rng))
        su_before, so5_before = lf.su.tobytes(), lf.so5.tobytes()
        out, _ = sampler.metropolis_sweep(lf, small_graph, 2.0, 0.5, np.random.default_rng(0))
        assert lf.su.tobytes() == su_before and lf.so5.tobytes() == so5_before
        assert out.su.shape == (small_graph.n_events, 4, n, n)
        assert out.cm.flags.c_contiguous
        for mine in (out.su, out.cm, out.so5):
            for theirs in (lf.su, lf.cm, lf.so5):
                assert not np.shares_memory(mine, theirs)


def test_sweep_makes_no_whole_field_copy_per_group():
    # The working copy, the returned field and one group's staple legs peak
    # at about 5.4 field sizes; a component-major copy of the whole field in
    # each group (`staple_sum` on a C-contiguous field) adds about one more.
    g = graphlat.build_hypercubic((8, 8, 8, 8))
    rng = np.random.default_rng(3)
    lf = wilson.random_links(g, 3, rng)
    lf, _ = sampler.metropolis_sweep(lf, g, 5.7, 0.5, rng)  # builds the graph's cached tables
    tracemalloc.start()
    try:
        sampler.metropolis_sweep(lf, g, 5.7, 0.5, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * lf.su.nbytes


@pytest.mark.parametrize("field_dims, graph_dims", [((4, 4, 4, 4), (2, 2, 2, 2)),
                                                  ((2, 2, 2, 2), (4, 4, 4, 4))])
def test_field_from_another_graph_rejected(field_dims, graph_dims, rng):
    # A larger field would be read through the smaller graph's tables without
    # complaint, and a smaller one would fail with a bare IndexError.
    lf = wilson.random_links(graphlat.build_hypercubic(field_dims), 2, rng)
    g = graphlat.build_hypercubic(graph_dims)
    su_before = lf.su.copy()
    calls = [
        lambda: wilson.wilson_action(lf, g, 2.0),
        lambda: sampler.average_plaquette(lf, g),
        lambda: sampler.staple_sum(lf, g, 0, 1),
        lambda: sampler.metropolis_sweep(lf, g, 2.0, 0.5, np.random.default_rng(0)),
    ]
    for call in calls:
        with pytest.raises(graphlat.GraphError, match="different graph"):
            call()
    assert np.array_equal(lf.su, su_before)


# ---------------------------------------------------------------------------
# observables and gauge behavior
# ---------------------------------------------------------------------------


def test_average_plaquette_gauge_invariant(small_graph, rng):
    lf = wilson.random_links(small_graph, 2, rng)
    before = sampler.average_plaquette(lf, small_graph)
    omegas = np.stack(
        [liealg.haar_random_sun(2, rng) for _ in range(small_graph.n_events)]
    )
    after = sampler.average_plaquette(
        wilson.local_gauge_links(lf, omegas), small_graph
    )
    assert abs(after - before) < 1e-12


def test_average_plaquette_ignores_so5_block(small_graph, rng):
    lf = wilson.random_links(small_graph, 2, rng, so5=liealg.random_so5(rng))
    before = sampler.average_plaquette(lf, small_graph)
    conj = wilson.global_so5_conjugate(lf, liealg.random_so5(rng))
    assert sampler.average_plaquette(conj, small_graph) == before


# ---------------------------------------------------------------------------
# one-plaquette references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_exact_reference_matches_bessel_ratio(beta):
    # Independent closed form: the SU(2) one-plaquette average is a ratio
    # of modified Bessel functions, I_2(beta) / I_1(beta).
    got = sampler.single_plaquette_exact(beta)
    want = float(iv(2.0, beta) / iv(1.0, beta))
    assert abs(got - want) < 1e-12


def test_exact_reference_validation():
    with pytest.raises(ValueError, match="beta"):
        sampler.single_plaquette_exact(-0.5)


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_one_plaquette_chain_matches_exact(beta):
    # Fixed seed, so this is a regression check at a 3 sigma band computed
    # from batch means of the chain itself.
    samples = sampler.one_plaquette_chain(beta, 30000, seed=3)
    exact = sampler.single_plaquette_exact(beta)
    n_batches = len(samples) // 500
    batches = samples[: n_batches * 500].reshape(n_batches, 500).mean(axis=1)
    se = batches.std(ddof=1) / np.sqrt(n_batches)
    assert abs(samples.mean() - exact) < 3.0 * se


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"beta": np.nan}, "beta"),
        ({"beta": -1.0}, "beta"),
        ({"step_scale": 0.0}, "step_scale"),
        ({"step_scale": 3.0}, "step_scale"),
        ({"n_steps": 0, "burn_in": 0}, "n_steps"),
        ({"n_steps": 100.0}, "n_steps"),
        ({"burn_in": -3}, "burn_in"),
        ({"burn_in": 100}, "burn_in"),
        ({"burn_in": 200}, "burn_in"),
        ({"burn_in": 2.0}, "burn_in"),
        ({"step_scale": None}, "step_scale"),
    ],
)
def test_one_plaquette_chain_refuses_bad_input(kwargs, field):
    # A NaN beta or a zero step froze the chain at 1.0, and a negative or
    # too large burn-in returned the last samples or none at all.
    args = {"beta": 1.0, "n_steps": 100, "step_scale": 0.5, "burn_in": 10} | kwargs
    with pytest.raises(ValueError, match=f"^parameter '{field}' is invalid: need "):
        sampler.one_plaquette_chain(**args)


def test_one_plaquette_chain_deterministic():
    a = sampler.one_plaquette_chain(1.0, 2000, seed=7)
    b = sampler.one_plaquette_chain(1.0, 2000, seed=7)
    assert np.array_equal(a, b)
    assert len(a) == 1000
