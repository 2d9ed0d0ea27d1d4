"""Tests for potential fields, coordinate steps, and frame transforms."""

import copy
import dataclasses
import re

import numpy as np
import pytest

from graphgauge import baseline, graphlat, liealg, potential, sampler, wilson


def _coords(site, dims):
    out = []
    for size in reversed(dims):
        site, r = divmod(site, size)
        out.append(r)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# construction and storage
# ---------------------------------------------------------------------------


def test_flat_field_shapes_and_values(small_graph):
    field = potential.flat_field(small_graph, 0.1)
    t = small_graph.n_transitions
    assert field.g.shape == (t, 4, 4)
    assert field.h.shape == (t, 4, 4, 4)
    assert field.eps == 0.1
    assert np.array_equal(field.g, np.broadcast_to(np.eye(4), (t, 4, 4)))
    assert not field.h.any()


def test_random_field_antisymmetric_torsion(small_graph, rng):
    field = potential.random_field(small_graph, 0.05, rng, scale=0.7)
    np.testing.assert_array_equal(field.h, -np.swapaxes(field.h, 2, 3))
    assert np.abs(field.g).max() <= 1.4
    assert np.abs(field.g).max() > 0.0


@pytest.mark.parametrize(
    "eps, g_dims, h_dims, message",
    [
        (0.1, (2, 2, 2, 4), (2, 2, 2, 4), r"^g must have shape \(64, 4, 4\), got \(128, 4, 4\)$"),
        (0.1, (2, 2, 2, 2), (2, 2, 2, 4),
         r"^h must have shape \(64, 4, 4, 4\), got \(128, 4, 4, 4\)$"),
        (-0.1, (2, 2, 2, 2), (2, 2, 2, 2),
         r"^parameter 'eps' is invalid: need a finite value > 0, got -0.1$"),
        (np.nan, (2, 2, 2, 2), (2, 2, 2, 2),
         r"^parameter 'eps' is invalid: need a finite value > 0, got nan$"),
        # None raised a bare TypeError from the comparison.
        (None, (2, 2, 2, 2), (2, 2, 2, 2),
         r"^parameter 'eps' is invalid: need a finite value > 0, got None$"),
    ],
    ids=["other-graph", "h-of-other-graph", "negative-eps", "nan-eps", "none-eps"],
)
def test_potential_field_refuses_bad_eps_or_shapes(small_graph, eps, g_dims, h_dims, message):
    # Tables of a 2x2x2x4 graph went through flatness_residual on 2^4, which
    # read their first 64 of 128 rows; a negative eps gave a residual of 2.0.
    g = potential.flat_field(graphlat.build_hypercubic(g_dims), 0.1).g
    h = potential.flat_field(graphlat.build_hypercubic(h_dims), 0.1).h
    with pytest.raises(ValueError, match=message):
        potential.PotentialField(small_graph, eps, g, h)


@pytest.mark.parametrize("name", ["eps", "g", "h"])
def test_potential_field_is_frozen(small_graph, name):
    # Reassigning eps = -1.0 used to go through flatness_residual unchecked.
    field = potential.flat_field(small_graph, 0.1)
    other = potential.flat_field(graphlat.build_hypercubic((2, 2, 2, 4)), 0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(field, name, -1.0 if name == "eps" else getattr(other, name))
    field.g[0, 0, 1] = 0.5
    assert field.g[0, 0, 1] == 0.5


_ARRAY_RECORDS = {
    "PotentialField": lambda g: potential.flat_field(g, 0.1),
    "FlatnessReport": lambda g: potential.flatness_residual(potential.flat_field(g, 0.1), g),
    "GeneratorSet": lambda g: liealg.make_generators(),
    "ConvergenceReport": lambda g: wilson.ConvergenceReport(*np.ones((4, 3)), 4.0, 6.0),
    "ObservableSeries": lambda g: sampler.ObservableSeries(np.arange(3), np.ones(3), np.ones(3)),
    "GraphField1D": lambda g: baseline.GraphField1D(np.ones(3), np.ones(3)),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_RECORDS))
def test_records_holding_arrays_compare_by_identity(small_graph, name):
    # The generated __eq__ compared the array fields and raised numpy's
    # ambiguous-truth ValueError, and left the frozen records unhashable.
    x = _ARRAY_RECORDS[name](small_graph)
    assert x == x
    assert not x == copy.copy(x)
    if type(x).__dataclass_params__.frozen:
        assert hash(x) == hash(x)
        assert len({x, copy.copy(x)}) == 2

@pytest.mark.parametrize("name", ["g", "h"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_potential_field_refuses_non_finite_entries(small_graph, name, bad):
    # A NaN entry was accepted and saved, and then `load_field` refused the file.
    flat = potential.flat_field(small_graph, 0.1)
    tables = {"g": flat.g, "h": flat.h}
    tables[name].flat[21] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        potential.PotentialField(small_graph, 0.1, tables["g"], tables["h"])
    # Written in place, the entry stays until a field is built from it.
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        flat.copy()


@pytest.mark.parametrize("scale", [np.nan, np.inf, -0.5, "1"])
def test_random_field_refuses_bad_scale(small_graph, rng, scale):
    # numpy used to raise "high - low range exceeds valid bounds", naming no
    # field, and "1" a bare TypeError.
    want = f"need a finite value >= 0, got {re.escape(repr(scale))}$"
    with pytest.raises(ValueError, match="^parameter 'scale' is invalid: " + want):
        potential.random_field(small_graph, 0.1, rng, scale=scale)


@pytest.mark.parametrize("eps", [0.0, -0.1])
def test_nonpositive_eps_rejected(small_graph, rng, eps):
    with pytest.raises(ValueError, match="eps"):
        potential.flat_field(small_graph, eps)
    with pytest.raises(ValueError, match="eps"):
        potential.random_field(small_graph, eps, rng)


@pytest.mark.parametrize("eps", ["0.05", True])
def test_field_makers_hand_eps_to_the_field_rule(small_graph, rng, eps):
    # Both makers cast eps with float() first, so "0.05" and True were fields.
    with pytest.raises(ValueError, match="^parameter 'eps' is invalid: need "):
        potential.flat_field(small_graph, eps)
    with pytest.raises(ValueError, match="^parameter 'eps' is invalid: need "):
        potential.random_field(small_graph, eps, rng)
    # An integer spacing is a number, and is stored as a float.
    assert type(potential.flat_field(small_graph, 1).eps) is float


def test_copy_is_independent(small_graph, rng):
    field = potential.random_field(small_graph, 0.1, rng)
    dup = field.copy()
    dup.g[0, 0, 0] += 1.0
    assert field.g[0, 0, 0] != dup.g[0, 0, 0]


# ---------------------------------------------------------------------------
# assembly, projection, transports
# ---------------------------------------------------------------------------


def test_assemble_decompose_round_trip(small_graph, gens, rng):
    field = potential.random_field(small_graph, 0.1, rng)
    for i in range(10):
        a = liealg.assemble_components(field.g[i], field.h[i], gens)
        g_back, h_back = liealg.project_components(a, gens)
        np.testing.assert_allclose(g_back, field.g[i], atol=1e-12)
        np.testing.assert_allclose(h_back, field.h[i], atol=1e-12)


def test_transport_generator_layout(rng):
    g_v = rng.normal(size=(4, 4))
    raw = rng.normal(size=(4, 4, 4))
    h_v = raw - np.swapaxes(raw, 1, 2)
    a = potential.transport_generators(g_v, h_v)
    assert a.shape == (4, 5, 5)
    np.testing.assert_array_equal(a, -np.swapaxes(a, 1, 2))
    for ax in range(4):
        np.testing.assert_array_equal(a[ax, :4, :4], 0.5 * h_v[ax])
        np.testing.assert_array_equal(a[ax, :4, 4], g_v[ax])
        np.testing.assert_array_equal(a[ax, 4, :4], -g_v[ax])
    g_back, h_back = potential.components_from_transport(a)
    np.testing.assert_array_equal(g_back, g_v)
    np.testing.assert_array_equal(h_back, h_v)


def test_edge_transport_is_orthogonal(small_graph, rng):
    field = potential.random_field(small_graph, 0.1, rng, scale=0.5)
    for v in range(small_graph.n_events, small_graph.n_events + 8):
        o = potential.edge_transport(field, v)
        assert liealg.unitarity_defect(o) < 1e-12


def test_array_edge_transport_matches_scalar_calls():
    g = graphlat.build_hypercubic((2, 3, 2, 2))
    field = potential.random_field(g, 0.1, np.random.default_rng(8), scale=0.5)
    verts = g.n_events + np.arange(g.n_transitions).reshape(-1, 6)[:, ::-1]
    got = potential.edge_transport(field, verts)
    assert got.shape == verts.shape + (5, 5)
    for idx, v in np.ndenumerate(verts):
        assert np.array_equal(got[idx], potential.edge_transport(field, int(v)))


@pytest.mark.parametrize("bad", ["event", "action"])
def test_array_edge_transport_rejects_other_roles(small_graph, rng, bad):
    field = potential.random_field(small_graph, 0.1, rng)
    e0, t0 = small_graph.n_events, small_graph.n_events + small_graph.n_transitions
    v = {"event": 3, "action": t0 + 2}[bad]
    with pytest.raises(graphlat.GraphError, match=f"vertex {v} is not a transition vertex"):
        potential.edge_transport(field, np.array([e0, e0 + 5, v, e0 + 1]))


# ---------------------------------------------------------------------------
# coordinate stepping
# ---------------------------------------------------------------------------


def test_flat_step_shifts_one_component_exactly():
    # Flat potential, unit auxiliary component: the step is a pure shift by
    # eps along the travel axis, with no rounding at all.
    g_v = np.eye(4)
    h_v = np.zeros((4, 4, 4))
    y = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    w = potential.step_coordinates(y, 2, g_v, h_v, 0.1)
    assert np.array_equal(w, np.array([0.0, 0.0, 0.1, 0.0, 1.0]))


def test_step_matches_exponential_to_second_order(rng):
    # The Euler step agrees with the exact orthogonal transport to O(eps^2):
    # the worst deviation stays below 10 eps^2 and shrinks with slope 2.
    eps_list = [0.1, 0.05, 0.025]
    devs = []
    for eps in eps_list:
        worst = 0.0
        for _ in range(20):
            g_v = rng.uniform(-0.3, 0.3, size=(4, 4))
            raw = rng.uniform(-0.3, 0.3, size=(4, 4, 4))
            h_v = raw - np.swapaxes(raw, 1, 2)
            y = rng.uniform(-1.0, 1.0, size=5)
            axis = int(rng.integers(0, 4))
            w = potential.step_coordinates(y, axis, g_v, h_v, eps, mode="desitter")
            a = potential.transport_generators(g_v, h_v)[axis]
            w_exact = liealg.expm5(eps * a) @ y
            worst = max(worst, float(np.linalg.norm(w - w_exact)))
        devs.append(worst)
        assert worst <= 10.0 * eps**2
    slope = np.polyfit(np.log(eps_list), np.log(devs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_step_poincare_pins_auxiliary_component(rng):
    g_v = rng.normal(size=(4, 4))
    raw = rng.normal(size=(4, 4, 4))
    h_v = raw - np.swapaxes(raw, 1, 2)
    y = np.array([0.3, -0.2, 0.5, 0.1, 1.0])
    w = potential.step_coordinates(y, 1, g_v, h_v, 0.05)
    assert w[4] == 1.0
    bad = y.copy()
    bad[4] = 0.9
    with pytest.raises(ValueError, match="auxiliary"):
        potential.step_coordinates(bad, 1, g_v, h_v, 0.05)


def test_step_desitter_auxiliary_law(rng):
    g_v = rng.normal(size=(4, 4))
    h_v = np.zeros((4, 4, 4))
    y = rng.normal(size=5)
    eps = 0.07
    w = potential.step_coordinates(y, 3, g_v, h_v, eps, mode="desitter")
    assert w[4] == y[4] - eps * float(g_v[3] @ y[:4])


def test_step_input_validation(rng):
    g_v = np.eye(4)
    h_v = np.zeros((4, 4, 4))
    y = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="axis"):
        potential.step_coordinates(y, 4, g_v, h_v, 0.1)
    with pytest.raises(ValueError, match="mode"):
        potential.step_coordinates(y, 0, g_v, h_v, 0.1, mode="static")
    with pytest.raises(ValueError, match="shape"):
        potential.step_coordinates(np.zeros(4), 0, g_v, h_v, 0.1)
    # NaN eps used to return a NaN label, axis 1.0 an IndexError and True a
    # broadcast error.
    for axis in (1.0, True, "1", None):
        with pytest.raises(ValueError, match="^parameter 'axis' is invalid: need "):
            potential.step_coordinates(y, axis, g_v, h_v, 0.1)
    # "a" raised numpy's "ufunc 'isfinite' not supported", naming nothing.
    for eps in (np.nan, np.inf, -np.inf, "a"):
        with pytest.raises(ValueError, match="^parameter 'eps' is invalid: need "):
            potential.step_coordinates(y, 0, g_v, h_v, eps)
    # An h_v of shape (4, 4) used to return (0.1, 0, 0, 0, 1), a NaN g_v a NaN
    # label, and a (3, 3) g_v numpy's broadcast error.
    nan_g, inf_h = g_v.copy(), h_v.copy()
    nan_g[0, 1], inf_h[0, 1, 2] = np.nan, np.inf
    bad = [(np.eye(3), h_v, "g_v must have shape"), (np.eye(4)[0], h_v, "g_v must have shape"),
           (nan_g, h_v, "g_v must be finite"), (g_v, np.zeros((4, 4)), "h_v must have shape"),
           (g_v, np.zeros((4, 4, 5)), "h_v must have shape"), (g_v, inf_h, "h_v must be finite")]
    for g_bad, h_bad, want in bad:
        for mode in potential.MODES:
            with pytest.raises(ValueError, match=f"^{want}"):
                potential.step_coordinates(y, 0, g_bad, h_bad, 0.1, mode=mode)
    w = potential.step_coordinates(y, np.int64(2), g_v, h_v, 0.1)
    assert np.array_equal(w, [0.0, 0.0, 0.1, 0.0, 1.0])


# ---------------------------------------------------------------------------
# relabeling
# ---------------------------------------------------------------------------


def test_relabel_commutes_with_stepping(rng):
    # Stepping then relabeling equals relabeling then stepping with the
    # transformed potential tables.  For orthogonal chi the transformed
    # torsion stays antisymmetric, so both paths use valid potentials.
    for _ in range(25):
        g_v = rng.normal(size=(4, 4))
        raw = rng.normal(size=(4, 4, 4))
        h_v = raw - np.swapaxes(raw, 1, 2)
        chi, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        omega = rng.normal(size=4)

        def relabel(y):
            out = y.copy()
            out[:4] = y[:4] @ chi.T + omega
            return out

        h_new = np.einsum("bi,aij,cj->abc", chi, h_v, chi)
        g_new = (chi @ g_v.T).T - 0.5 * np.einsum("abc,c->ab", h_new, omega)

        y = rng.normal(size=5)
        y[4] = 1.0
        eps = 0.08
        for axis in range(4):
            first = potential.step_coordinates(y, axis, g_v, h_v, eps)
            path_a = relabel(first)
            path_b = potential.step_coordinates(relabel(y), axis, g_new, h_new, eps)
            np.testing.assert_allclose(path_a, path_b, atol=1e-12)


# ---------------------------------------------------------------------------
# gauge transforms
# ---------------------------------------------------------------------------


def test_global_gauge_transform_conjugates_transports(small_graph, rng):
    field = potential.random_field(small_graph, 0.1, rng, scale=0.5)
    o = liealg.random_so5(rng)
    out = potential.gauge_transform(field, o)
    for i in range(0, small_graph.n_transitions, 7):
        a_old = potential.transport_generators(field.g[i], field.h[i])
        a_new = potential.transport_generators(out.g[i], out.h[i])
        for ax in range(4):
            np.testing.assert_allclose(a_new[ax], o @ a_old[ax] @ o.T, atol=1e-12)


def test_gauge_transform_rejects_nonorthogonal(small_graph, rng):
    field = potential.flat_field(small_graph, 0.1)
    bad = np.eye(5) + 0.01
    defect = liealg.unitarity_defect(bad)
    assert defect > liealg.DEFECT_TOL
    with pytest.raises(ValueError, match=rf"^o is not orthogonal, defect {defect:.3e}$"):
        potential.gauge_transform(field, bad)


def test_gauge_transform_shape_checks(small_graph, rng):
    field = potential.flat_field(small_graph, 0.1)
    t = small_graph.n_transitions
    want = rf"^o must have shape \(5, 5\) or \({t}, 5, 5\), got "
    for bad in (np.eye(4), np.broadcast_to(np.eye(5), (t - 1, 5, 5))):
        with pytest.raises(ValueError, match=want + re.escape(str(bad.shape)) + "$"):
            potential.gauge_transform(field, bad)


@pytest.mark.parametrize("stacked", [False, True], ids=["global", "local"])
def test_gauge_transform_rejects_nan(small_graph, stacked):
    field = potential.flat_field(small_graph, 0.1)
    o = np.eye(5)
    if stacked:
        o = np.broadcast_to(o, (small_graph.n_transitions, 5, 5)).copy()
    o[..., 3, 1] = np.nan
    with pytest.raises(ValueError, match="^o must be finite$"):
        potential.gauge_transform(field, o)


def test_constant_local_gauge_matches_global(small_graph, rng):
    # One matrix runs the per-transition formula on a zero-stride stack, so
    # it must give the same bits as the same matrix tiled at every transition.
    field = potential.random_field(small_graph, 0.1, rng, scale=0.5)
    o = liealg.random_so5(rng)
    tiled = np.broadcast_to(o, (small_graph.n_transitions, 5, 5)).copy()
    out_local = potential.gauge_transform(field, tiled)
    out_global = potential.gauge_transform(field, o)
    assert np.array_equal(out_local.g, out_global.g)
    assert np.array_equal(out_local.h, out_global.h)


def test_global_gauge_keeps_torsion_antisymmetric_and_round_trips(small_graph, rng, tmp_path):
    # The derivative term of one matrix is exactly zero, so the torsion stays
    # exactly antisymmetric and the snapshot gives back every bit.
    field = potential.random_field(small_graph, 0.1, rng, scale=0.5)
    out = potential.gauge_transform(field, liealg.random_so5(rng))
    assert not np.any(out.h + np.swapaxes(out.h, 2, 3))
    path = tmp_path / "field.txt"
    potential.save_field(out, path)
    back = potential.load_field(path, small_graph)
    assert back.g.tobytes() == out.g.tobytes()
    assert back.h.tobytes() == out.h.tobytes()


def test_smooth_local_gauge_keeps_field_flat(mid_graph):
    # Gauge transforming a flat field by a slowly varying local rotation
    # must leave the holonomy residual at the flat baseline scale.  The
    # discretization error of the derivative term shows up at O(eps^2), the
    # same order as the baseline itself, hence the factor 2 allowance.
    eps = 0.05
    field = potential.flat_field(mid_graph, eps)
    base = potential.flatness_residual(field, mid_graph).max_residual

    rng = np.random.default_rng(7)
    lengths = np.array(mid_graph.dims, dtype=float) * eps
    mats = []
    for _ in range(6):
        raw = rng.normal(size=(5, 5))
        mats.append(raw - raw.T)
    axes = rng.integers(0, 4, size=6)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=6)

    o = np.empty((mid_graph.n_transitions, 5, 5))
    for i in range(mid_graph.n_transitions):
        site, d = divmod(i, 4)
        x = np.array(_coords(site, mid_graph.dims), dtype=float)
        x[d] += 0.5
        x *= eps
        theta = np.zeros((5, 5))
        for k in range(6):
            angle = 2.0 * np.pi * x[axes[k]] / lengths[axes[k]] + phases[k]
            theta += mats[k] * np.sin(angle)
        o[i] = liealg.expm5(0.02 * theta)

    out = potential.gauge_transform(field, o)
    res = potential.flatness_residual(out, mid_graph).max_residual
    assert res <= 2.0 * base


# ---------------------------------------------------------------------------
# frame transforms of the metric potential
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "lam", [np.ones((4, 3)), np.full((4, 4), np.nan), np.eye(3)], ids=["4x3", "nan", "3x3"]
)
def test_lorentz_transform_rejects_bad_frame(small_graph, lam):
    field = potential.flat_field(small_graph, 0.1)
    with pytest.raises(ValueError, match="^lam "):
        potential.lorentz_transform_field(field, lam)


def test_lorentz_transform_field(small_graph, rng):
    field = potential.random_field(small_graph, 0.1, rng)
    lam = rng.normal(size=(4, 4))
    out = potential.lorentz_transform_field(field, lam)
    for i in range(0, small_graph.n_transitions, 9):
        np.testing.assert_allclose(
            out.g[i], lam.T @ field.g[i] @ lam, atol=1e-13
        )
    np.testing.assert_array_equal(out.h, field.h)
    assert out.h is not field.h


# ---------------------------------------------------------------------------
# flatness diagnostic
# ---------------------------------------------------------------------------


def test_flat_field_residual_small(mid_graph):
    field = potential.flat_field(mid_graph, 0.05)
    report = potential.flatness_residual(field, mid_graph)
    assert report.residuals.shape == (mid_graph.n_actions,)
    assert 0.0 < report.max_residual <= 5e-3


def test_random_field_residual_large(mid_graph, rng):
    field = potential.flat_field(mid_graph, 0.05)
    base = potential.flatness_residual(field, mid_graph).max_residual
    noisy = potential.random_field(mid_graph, 0.05, rng, scale=0.5)
    loud = potential.flatness_residual(noisy, mid_graph).max_residual
    assert loud >= 10.0 * base


def test_flatness_invariant_under_global_gauge(small_graph, rng):
    field = potential.random_field(small_graph, 0.05, rng, scale=0.5)
    before = potential.flatness_residual(field, small_graph).residuals
    o = liealg.random_so5(rng)
    after = potential.flatness_residual(
        potential.gauge_transform(field, o), small_graph
    ).residuals
    np.testing.assert_allclose(after, before, atol=1e-12)


def test_flatness_rejects_mismatched_graph(small_graph, mid_graph):
    field = potential.flat_field(small_graph, 0.05)
    message = "^PotentialField was built on a different graph$"
    with pytest.raises(graphlat.GraphError, match=message):
        potential.flatness_residual(field, mid_graph)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


def test_save_load_round_trip(small_graph, rng, tmp_path):
    field = potential.random_field(small_graph, 0.1, rng)
    path = tmp_path / "field.txt"
    potential.save_field(field, path)
    back = potential.load_field(path, small_graph)
    assert back.eps == field.eps
    assert np.array_equal(back.g, field.g)
    assert np.array_equal(back.h, field.h)


def test_load_rejects_mismatched_dims(small_graph, mid_graph, rng, tmp_path):
    field = potential.random_field(small_graph, 0.1, rng)
    path = tmp_path / "field.txt"
    potential.save_field(field, path)
    with pytest.raises(ValueError, match="dims"):
        potential.load_field(path, mid_graph)


@pytest.mark.parametrize("header", ["periodic=0", ""])
def test_load_rejects_non_periodic_header(small_graph, rng, tmp_path, header):
    field = potential.random_field(small_graph, 0.1, rng)
    path = tmp_path / "field.txt"
    potential.save_field(field, path)
    text = path.read_text()
    assert " periodic=1\n" in text
    path.write_text(text.replace(" periodic=1", f" {header}".rstrip()))
    with pytest.raises(ValueError, match="periodic"):
        potential.load_field(path, small_graph)


def test_load_rejects_truncated_file(small_graph, rng, tmp_path):
    field = potential.random_field(small_graph, 0.1, rng)
    path = tmp_path / "field.txt"
    potential.save_field(field, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError, match="transitions"):
        potential.load_field(path, small_graph)


def test_load_rejects_missing_header(small_graph, tmp_path):
    path = tmp_path / "field.txt"
    path.write_text("# no eps here\n")
    with pytest.raises(ValueError, match="eps"):
        potential.load_field(path, small_graph)


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_load_rejects_non_finite_eps(small_graph, rng, tmp_path, eps):
    field = potential.random_field(small_graph, 0.1, rng)
    path = tmp_path / "field.txt"
    potential.save_field(field, path)
    path.write_text(path.read_text().replace("eps=0.1 ", f"eps={eps} "))
    with pytest.raises(ValueError, match=f"^parameter 'eps' is invalid: need .*, got {eps}$"):
        potential.load_field(path, small_graph)


def test_load_rejects_event_vertex_row(small_graph, rng, tmp_path):
    field = potential.random_field(small_graph, 0.1, rng)
    path = tmp_path / "field.txt"
    potential.save_field(field, path)
    lines = path.read_text().splitlines()
    parts = lines[3].split()
    parts[0] = "0"
    lines[3] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="transition"):
        potential.load_field(path, small_graph)


@pytest.mark.parametrize("block", ["g", "h"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_rejects_non_finite_entries(small_graph, rng, tmp_path, block, bad):
    field = potential.random_field(small_graph, 0.1, rng)
    if block == "g":
        field.g[3, 1, 2] = bad
    else:
        field.h[3, 0, 1, 2] = bad
        field.h[3, 0, 2, 1] = -bad
    path = tmp_path / "field.txt"
    potential.save_field(field, path)
    vertex = small_graph.n_events + 3
    with pytest.raises(ValueError, match=f"^snapshot row {vertex} has non-finite entries$"):
        potential.load_field(path, small_graph)
