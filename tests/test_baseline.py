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
    with pytest.raises(ValueError, match="window"):
        baseline._sample_grid(0.1, 0.0, (1.0, 0.0))


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
    with pytest.raises(ValueError, match="4x4"):
        baseline.violation_4d_embedded(_aniso_gauss, np.eye(3), 0.2, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rotation_with_non_finite_entry_rejected(bad):
    rot = _plane_rotation(0.3)
    rot[2, 3] = bad
    with pytest.raises(ValueError, match="rotation is not orthogonal, defect inf"):
        baseline.violation_4d_embedded(_aniso_gauss, rot, 0.2, 1.0)


def test_violation_report_row():
    rep = baseline.violation_sigma_1d(_kink, _half_square, 0.1, 0.05, (-4.0, 4.0))
    row = rep.row()
    assert row[0] == "oned-shift"
    assert row[1] == 0.1
    assert row[2] == 0.05
    assert row[3] == rep.sigma
