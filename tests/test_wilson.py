"""Tests for plaquette products, the block action, and its symmetries."""

import warnings

import numpy as np
import pytest

from graphgauge import graphlat, liealg, wilson

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
    n_p = len(small_graph.plaquettes())
    assert act.n_plaquettes == n_p
    assert act.raw_trace_sum == float(n_p * (n + 5))
    assert act.normalized == 0.0
    assert act.so5_loop_trace == 5.0


def test_unsupported_color_count_rejected(small_graph):
    with pytest.raises(wilson.LinkFieldError, match="N=4"):
        wilson.identity_links(small_graph, 4)


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
        (_with_nan_so5, "so5 block is not orthogonal"),
        (_load_with_nan, r"link \(0, 3\) is not unitary"),
        (_gauge_with_nan, "gauge matrices are not unitary, defect inf"),
        (_conjugate_with_nan, "conjugating matrix is not orthogonal, defect inf"),
    ],
)
def test_validators_reject_nan(small_graph, rng, tmp_path, action, message):
    lf = wilson.random_links(small_graph, 2, rng)
    with pytest.raises(wilson.LinkFieldError, match=message):
        action(lf, tmp_path)


def test_validate_nan_link_raises_without_warning(small_graph, rng):
    # The determinant check must not warn on a NaN link: under -W error the
    # warning, not the LinkFieldError, would reach the caller.
    lf = wilson.random_links(small_graph, 3, rng)
    lf.su[5, 0, 2, 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wilson.LinkFieldError, match=r"^link \(5, 1\) is not unitary, defect inf$"):
            wilson.validate_links(lf)


def test_link_accessor_checks_direction(small_graph):
    lf = wilson.identity_links(small_graph, 2)
    with pytest.raises(wilson.LinkFieldError, match="direction"):
        lf.link(0, 5)


def test_action_rejects_mismatched_graph(small_graph, mid_graph):
    lf = wilson.identity_links(small_graph, 2)
    with pytest.raises(graphlat.GraphError):
        wilson.wilson_action(lf, mid_graph, beta=1.0)


# ---------------------------------------------------------------------------
# plaquette products
# ---------------------------------------------------------------------------


def test_plaquette_product_matches_corner_walk(small_graph, rng):
    # Independent recomputation from the corner list: the loop is
    # U(c0, mu) U(c1, nu) U(c3, mu)^dag U(c0, nu)^dag where c1 and c3 are
    # the corners one step along mu and nu.
    lf = wilson.random_links(small_graph, 2, rng, so5=liealg.random_so5(rng))
    for p in small_graph.plaquettes()[::11]:
        c0, c1, _, c3 = p.corners
        mu, nu = p.plane
        want = (
            lf.su[c0, mu - 1]
            @ lf.su[c1, nu - 1]
            @ lf.su[c3, mu - 1].conj().T
            @ lf.su[c0, nu - 1].conj().T
        )
        got = wilson.plaquette_product(lf, p)
        np.testing.assert_allclose(got.su, want, atol=1e-13)
        want_o = lf.so5 @ lf.so5 @ lf.so5.T @ lf.so5.T
        np.testing.assert_allclose(got.so5, want_o, atol=1e-13)


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
    for p in small_graph.plaquettes():
        loop = wilson.plaquette_product(lf, p)
        tr_su = float(np.trace(loop.su).real)
        su_total += tr_su
        total += tr_su + float(np.trace(loop.so5))
    act = wilson.wilson_action(lf, small_graph, beta)
    assert abs(act.raw_trace_sum - total) < 1e-10 * max(1.0, abs(total))
    want_norm = beta * (act.n_plaquettes - su_total / 2.0)
    assert abs(act.normalized - want_norm) < 1e-10 * max(1.0, abs(want_norm))


def test_pure_gauge_links_have_trivial_holonomy(small_graph, rng):
    lf = wilson.pure_gauge_links(small_graph, 2, rng)
    eye = np.eye(2)
    for p in small_graph.plaquettes():
        loop = wilson.plaquette_product(lf, p)
        assert np.abs(loop.su - eye).max() < 1e-12
    act = wilson.wilson_action(lf, small_graph, beta=3.0)
    assert abs(act.normalized) < 1e-10


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


def test_load_revalidates_blocks(small_graph, rng, tmp_path):
    lf = wilson.random_links(small_graph, 2, rng)
    lf.su[1, 2] *= 2.0
    path = tmp_path / "links.txt"
    wilson.save_links(lf, path)
    with pytest.raises(wilson.LinkFieldError, match="unitary"):
        wilson.load_links(path, small_graph)
