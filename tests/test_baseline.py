"""Tests for the embedded-lattice baselines and their violation measures."""

import numpy as np
import pytest

from graphgauge import baseline


def _gauss(x):
    return np.exp(-np.asarray(x, dtype=float) ** 2)


def _kink(x):
    return np.exp(-np.abs(np.asarray(x, dtype=float)))


def _half_square(v):
    return 0.5 * v * v


def _identity(v):
    return v


# ---------------------------------------------------------------------------
# sample grid
# ---------------------------------------------------------------------------


def test_sample_grid_covers_window():
    x = baseline._sample_grid(0.25, 0.0, (0.0, 1.0))
    np.testing.assert_allclose(x, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
    x = baseline._sample_grid(0.25, 0.1, (0.0, 1.0))
    assert x.min() >= 0.0 and x.max() <= 1.0
    np.testing.assert_allclose(np.diff(x), 0.25, atol=1e-15)
    # Maximal: one more sample on either side would leave the window.
    assert x.min() - 0.25 < 0.0
    assert x.max() + 0.25 > 1.0


def test_sample_grid_validation():
    with pytest.raises(ValueError, match="eps"):
        baseline._sample_grid(0.0, 0.0, (0.0, 1.0))
    for window in ((1.0, 0.0), (0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="^window must be finite and increasing"):
            baseline._sample_grid(0.1, 0.0, window)
    # NaN used to fail inside numpy's int conversion, an infinite eps as a
    # non-finite field value, and an infinite delta with an OverflowError.
    bad = [(np.nan, 0.0, "eps"), (np.inf, 0.0, "eps"), (0.1, np.inf, "delta"), (0.1, np.nan, "delta")]
    for eps, delta, field in bad:
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            baseline._sample_grid(eps, delta, (0.0, 1.0))
    # A grid numpy cannot hold used to fail with "Maximum allowed size exceeded".
    for eps in (1e-300, 5e-324):
        with pytest.raises(ValueError, match=r"^eps .* too small"):
            baseline._sample_grid(eps, 0.0, (0.0, 1.0))


# ---------------------------------------------------------------------------
# 1d actions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("f", [_gauss, _kink])
@pytest.mark.parametrize("delta", [0.0, 0.035])
def test_graph_action_reproduces_embedded_sum_exactly(f, delta):
    # The graph field built from the same samples must give the identical
    # floating point number, not a close one.
    eps = 0.1
    window = (-3.0, 3.0)
    s_embedded = baseline.action_1d_embedded(f, _half_square, eps, delta, window)
    gf = baseline.sample_on_lattice(f, eps, window, delta=delta)
    s_graph = baseline.action_1d_graph(gf, _half_square)
    assert s_graph == s_embedded


def test_relabel_leaves_action_bit_identical():
    gf = baseline.sample_on_lattice(_kink, 0.1, (-3.0, 3.0))
    before = baseline.action_1d_graph(gf, _half_square)
    shifted = baseline.relabel_1d(gf, 17)
    assert shifted.start_index == gf.start_index + 17
    assert baseline.action_1d_graph(shifted, _half_square) == before
    assert np.array_equal(shifted.values, gf.values)
    assert np.array_equal(shifted.weights, gf.weights)
    assert baseline.relabel_1d(gf, np.int64(-3)).start_index == gf.start_index - 3


@pytest.mark.parametrize("shift", [1.5, True, "2", 2.0, None])
def test_relabel_refuses_non_integer_shift(shift):
    # 1.5 used to shift by 1, True by 1 and "2" by 2, silently.
    gf = baseline.sample_on_lattice(_kink, 0.1, (-3.0, 3.0))
    with pytest.raises(ValueError, match="^shift must be an integer"):
        baseline.relabel_1d(gf, shift)


def test_zero_offset_sigma_is_exactly_zero():
    rep = baseline.violation_sigma_1d(_kink, _half_square, 0.1, 0.0, (-4.0, 4.0))
    assert rep.sigma == 0.0


def test_quadrature_reference_gauss():
    rep = baseline.violation_sigma_1d(_gauss, _identity, 0.1, 0.05, (0.0, 8.0))
    assert abs(rep.reference - 0.5 * np.sqrt(np.pi)) < 1e-9


def test_kink_sigma_shrinks_quadratically():
    # Half-cell offsets straddle the kink between samples; the resulting
    # sigma falls off as eps^2 with the kink's second-derivative weight.
    eps_list = [0.2, 0.1, 0.05]
    sigmas = []
    for eps in eps_list:
        rep = baseline.violation_sigma_1d(
            _kink, _half_square, eps, eps / 2.0, (-4.0, 4.0)
        )
        sigmas.append(abs(rep.sigma))
    assert sigmas[0] > sigmas[1] > sigmas[2] > 0.0
    slope = np.polyfit(np.log(eps_list), np.log(sigmas), 1)[0]
    assert 1.7 <= slope <= 2.3


def test_smooth_field_sigma_below_roundoff():
    # For an analytic field the shifted and aligned sums agree to machine
    # precision at any offset commensurate with nothing.
    rep = baseline.violation_sigma_1d(_gauss, _identity, 0.2, 0.1, (-6.0, 6.0))
    assert abs(rep.sigma) < 1e-12


def test_nonfinite_field_rejected():
    bad = lambda x: np.full(np.shape(x), np.inf)
    with pytest.raises(ValueError, match="finite"):
        baseline.action_1d_embedded(bad, _identity, 0.1, 0.0, (0.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        baseline.sample_on_lattice(bad, 0.1, (0.0, 1.0))


def test_graph_action_validates_inputs():
    gf = baseline.GraphField1D(
        values=np.array([1.0, 2.0]), weights=np.array([0.1, -0.1])
    )
    with pytest.raises(ValueError, match="positive"):
        baseline.action_1d_graph(gf, _identity)
    gf = baseline.GraphField1D(values=np.array([1.0]), weights=np.array([0.1]))
    with pytest.raises(ValueError, match="finite"):
        baseline.action_1d_graph(gf, lambda v: v * np.nan)


# ---------------------------------------------------------------------------
# 4d rotated lattice
# ---------------------------------------------------------------------------

_WIDTHS = np.array([0.1, 0.4, 0.2, 0.3])


def _aniso_gauss(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * np.sum((x / _WIDTHS) ** 2, axis=-1))


def _plane_rotation(theta):
    rot = np.eye(4)
    rot[0, 0] = rot[1, 1] = np.cos(theta)
    rot[0, 1] = -np.sin(theta)
    rot[1, 0] = np.sin(theta)
    return rot


def test_identity_rotation_sigma_is_exactly_zero():
    rep = baseline.violation_4d_embedded(_aniso_gauss, np.eye(4), 0.2, 1.2)
    assert rep.sigma == 0.0


def test_rotation_sigma_nonzero_and_shrinking():
    rot = _plane_rotation(np.deg2rad(30.0))
    coarse = baseline.violation_4d_embedded(_aniso_gauss, rot, 0.2, 1.2)
    fine = baseline.violation_4d_embedded(_aniso_gauss, rot, 0.1, 1.2)
    assert abs(coarse.sigma) > 1e-3
    assert abs(fine.sigma) < abs(coarse.sigma)
    assert coarse.extras["sites_per_axis"] == 13
    assert fine.extras["sites_per_axis"] == 25


def test_rotation_must_be_orthogonal():
    with pytest.raises(ValueError, match="orthogonal"):
        baseline.violation_4d_embedded(_aniso_gauss, np.eye(4) * 1.1, 0.2, 1.0)
    with pytest.raises(ValueError, match=r"^rotation must have shape \(4, 4\), got \(3, 3\)$"):
        baseline.violation_4d_embedded(_aniso_gauss, np.eye(3), 0.2, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rotation_with_non_finite_entry_rejected(bad):
    rot = _plane_rotation(0.3)
    rot[2, 3] = bad
    with pytest.raises(ValueError, match="^rotation must be finite$"):
        baseline.violation_4d_embedded(_aniso_gauss, rot, 0.2, 1.0)


def _five_point_action(field_fn, rot, eps, box_extent, mass):
    # The per-site reference the streamed grid replaced: the field is
    # evaluated at each site and again at each of its four forward neighbours.
    m = int(np.floor(2 * box_extent / eps + 1e-9)) + 1
    pos = -box_extent + eps * np.arange(m)
    x1, x2, x3 = np.meshgrid(pos, pos, pos, indexing="ij")
    tail = np.stack([x1, x2, x3], axis=-1)
    total = 0.0
    for x0 in pos:
        pts = np.empty(tail.shape[:-1] + (4,))
        pts[..., 0] = x0
        pts[..., 1:] = tail
        rp = pts @ rot.T
        phi = np.asarray(field_fn(rp), dtype=float)
        dens = 0.5 * (mass * mass) * phi * phi
        for mu in range(4):
            step = eps * rot[:, mu]
            phin = np.asarray(field_fn(rp + step), dtype=float)
            dens = dens + 0.5 * ((phin - phi) / eps) ** 2
        total += float(np.sum(dens))
    return eps**4 * total


@pytest.mark.parametrize("box_extent, m", [(1.0, 11), (0.9, 10)])
@pytest.mark.parametrize("theta_deg", [0.0, 30.0])
def test_embedded_action_matches_five_point_reference(box_extent, m, theta_deg):
    rot = _plane_rotation(np.deg2rad(theta_deg))
    assert baseline._sites_per_axis(0.2, box_extent) == m
    fast = baseline._embedded_action_4d(_aniso_gauss, rot, 0.2, box_extent, 0.7)
    slow = _five_point_action(_aniso_gauss, rot, 0.2, box_extent, 0.7)
    assert abs(fast - slow) <= 1e-12 * abs(slow)


def test_embedded_action_evaluates_each_grid_point_once():
    shapes = []

    def counted(x):
        shapes.append(np.shape(x))
        return _aniso_gauss(x)

    m = baseline._sites_per_axis(0.2, 1.0)
    baseline._embedded_action_4d(counted, _plane_rotation(0.4), 0.2, 1.0, 1.0)
    assert all(shape[-1] == 4 for shape in shapes)
    assert sum(int(np.prod(shape[:-1])) for shape in shapes) <= (m + 1) ** 4


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -0.1])
def test_embedded_violation_rejects_bad_eps(eps):
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        baseline.violation_4d_embedded(_aniso_gauss, np.eye(4), eps, 1.0)


@pytest.mark.parametrize("box_extent", [np.nan, np.inf, 0.0, -1.0])
def test_embedded_violation_rejects_bad_box_extent(box_extent):
    with pytest.raises(ValueError, match="box_extent must be positive and finite"):
        baseline.violation_4d_embedded(_aniso_gauss, np.eye(4), 0.2, box_extent)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
def test_embedded_violation_rejects_non_finite_action(value):
    bad = lambda x: np.full(np.shape(x)[:-1], value)
    with pytest.raises(ValueError, match="field evaluation produced non-finite values"):
        baseline.violation_4d_embedded(bad, _plane_rotation(0.3), 0.2, 1.0)
