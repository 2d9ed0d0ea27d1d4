import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from graphgauge import baseline, liealg, potential, wilson


def test_generator_shapes_and_antisymmetry(gens):
    assert gens.v.shape == (4, 5, 5)
    assert gens.m.shape == (4, 4, 5, 5)
    assert np.array_equal(gens.v, -np.swapaxes(gens.v, -1, -2))
    assert np.array_equal(gens.m, -np.swapaxes(gens.m, -1, -2))
    # m is antisymmetric in its plane labels as well
    assert np.array_equal(gens.m, -np.swapaxes(gens.m, 0, 1))


def test_generator_pairing_orthonormality(gens):
    """The pairing tr(X Y^T) makes the basis orthonormal to 1e-14."""
    for a in range(4):
        for b in range(4):
            got = liealg.trace_pair(gens.v[a], gens.v[b])
            assert abs(got - (1.0 if a == b else 0.0)) < 1e-14
    for b, c in liealg.PLANE_PAIRS:
        for d, e in liealg.PLANE_PAIRS:
            got = liealg.trace_pair(gens.m[b, c], gens.m[d, e])
            want = 1.0 if (b, c) == (d, e) else 0.0
            assert abs(got - want) < 1e-14


def test_mixed_generator_pairing_vanishes_exactly(gens):
    # V generators live in the axis-4 row/column, M generators in the 4x4
    # upper block; their entrywise products have no overlap at all.
    for a in range(4):
        for b, c in liealg.PLANE_PAIRS:
            assert liealg.trace_pair(gens.v[a], gens.m[b, c]) == 0.0


def test_trace_pair_is_positive_on_antisymmetric(rng):
    for _ in range(20):
        x = liealg.random_antisymmetric5(rng, 2.0)
        assert liealg.trace_pair(x, x) > 0
        assert abs(liealg.trace_pair(x, x) + np.trace(x @ x)) < 1e-12


def test_expm5_plane_rotation_oracle():
    """exp of theta times a plane generator is the elementary rotation."""
    theta = 0.3
    a = np.zeros((5, 5))
    a[0, 1] = theta
    a[1, 0] = -theta
    want = np.eye(5)
    want[0, 0] = want[1, 1] = np.cos(theta)
    want[0, 1] = np.sin(theta)
    want[1, 0] = -np.sin(theta)
    got = liealg.expm5(a)
    assert np.abs(got - want).max() < 1e-15


def test_expm5_matches_scipy_expm(rng):
    for _ in range(50):
        scale = rng.uniform(0.1, 10.0)
        x = liealg.random_antisymmetric5(rng, scale)
        got = liealg.expm5(x)
        want = scipy.linalg.expm(x)
        assert np.abs(got - want).max() < 5e-13


def test_expm5_of_antisymmetric_is_orthogonal(rng):
    for _ in range(50):
        q = liealg.expm5(liealg.random_antisymmetric5(rng, 3.0))
        assert liealg.unitarity_defect(q) < 1e-12
        assert abs(np.linalg.det(q) - 1.0) < 1e-12


def test_expm5_zero_is_identity():
    assert np.array_equal(liealg.expm5(np.zeros((5, 5))), np.eye(5))


def test_expm5_stack_matches_single_matrices_bitwise(rng):
    """Each matrix of a stack keeps its own squaring count, so a stack gives
    exactly the bits of per-matrix calls, zero matrices included."""
    scales = np.concatenate([np.zeros(4), 10.0 ** np.linspace(-3, 1.5, 60)])
    real = rng.normal(size=(64, 5, 5)) * scales[:, None, None]
    cplx = (rng.normal(size=(64, 3, 3)) + 1j * rng.normal(size=(64, 3, 3))) * scales[:, None, None]
    for stack in (real, cplx):
        norms = np.abs(stack).sum(axis=-1).max(axis=-1)
        counts = np.ceil(np.log2(np.maximum(norms, 0.5) / 0.5))
        assert len(set(counts.tolist())) >= 3
        want = np.stack([liealg.expm5(x) for x in stack])
        assert np.array_equal(liealg.expm5(stack), want)
        nested = stack.reshape((8, 8) + stack.shape[1:])
        assert np.array_equal(liealg.expm5(nested), want.reshape(nested.shape))


def test_orthogonality_defect_stack_matches_single_matrices(rng):
    stack = np.stack([liealg.random_so5(rng) for _ in range(10)] + [rng.normal(size=(5, 5))])
    got = liealg.unitarity_defect(stack)
    assert got.shape == (11,)
    assert np.array_equal(got, [liealg.unitarity_defect(o) for o in stack])


@pytest.mark.parametrize("n", [2, 3, 5])
def test_unitarity_defect_matches_dense_gram_product(rng, n):
    # The component-major Gram product against the stacked @ it replaced, on
    # near-unitary and far-from-unitary blocks, stacked (E, 4, N, N) like `su`.
    u = rng.normal(size=(6, 4, n, n)) + 1j * rng.normal(size=(6, 4, n, n))
    u[:3] = np.linalg.qr(u[:3])[0] * (1.0 + 1e-9 * rng.normal(size=(3, 4, 1, 1)))
    gram = np.conj(np.swapaxes(u, -1, -2)) @ u
    want = np.abs(gram - np.eye(n)).max(axis=(-2, -1))
    got = liealg.unitarity_defect(u)
    assert got.shape == (6, 4)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_determinant_matches_linalg(rng, n):
    haar = liealg.haar_random_sun(n, rng, count=64)
    loose = rng.normal(size=(64, n, n)) + 1j * rng.normal(size=(64, n, n))
    for stack in (haar, loose):
        got = liealg._cm_det(np.moveaxis(stack, 0, -1))
        np.testing.assert_allclose(got, np.linalg.det(stack), rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_defects_of_non_finite_matrices_are_infinite(bad):
    o = np.eye(5)
    o[1, 2] = bad
    assert liealg.unitarity_defect(o) == np.inf
    u = np.stack([np.eye(2, dtype=complex)] * 3)
    u[1, 0, 0] = bad
    assert np.array_equal(liealg.unitarity_defect(u), [0.0, np.inf, 0.0])


def test_defects_of_a_stack_over_several_passes(rng, monkeypatch):
    # (E, 4, 3, 3) links spanning two passes of liealg._CHUNK, with a NaN, an
    # inf and a finite defect in the second: every defect is the one its matrix
    # gets alone and the one a single pass gives, and the stack keeps its shape.
    events = liealg._CHUNK // 4 + 3
    u = liealg.haar_random_sun(3, rng, count=4 * events).reshape(events, 4, 3, 3)
    u[-1, 2, 0, 1] = np.nan
    u[-2, 1, 1, 1] = np.inf
    u[-3, 0] *= 1.0 + 1e-6
    got = liealg.unitarity_defect(u)
    assert got.shape == (events, 4)
    assert got[-1, 2] == np.inf and got[-2, 1] == np.inf
    assert np.isfinite(got).sum() == got.size - 2 and got[-3, 0] > liealg.DEFECT_TOL
    alone = [liealg.unitarity_defect(m) for m in u.reshape(-1, 3, 3)]
    assert np.array_equal(got.ravel(), alone)
    monkeypatch.setattr(liealg, "_CHUNK", got.size)
    assert np.array_equal(liealg.unitarity_defect(u), got)


def test_expm5_rejects_bad_input():
    with pytest.raises(ValueError):
        liealg.expm5(np.zeros((5, 4)))
    with pytest.raises(ValueError):
        liealg.expm5(np.full((5, 5), np.nan))
    # A string was refused for its shape, (), not for what it holds.
    with pytest.raises(ValueError, match="^a must be numeric$"):
        liealg.expm5("abc")


def test_assemble_project_round_trip(gens, rng):
    for _ in range(200):
        g = rng.normal(size=(4, 4))
        raw = rng.normal(size=(4, 4, 4))
        h = raw - np.swapaxes(raw, 1, 2)
        a = liealg.assemble_components(g, h, gens)
        g2, h2 = liealg.project_components(a, gens)
        assert np.abs(g2 - g).max() < 1e-12
        assert np.abs(h2 - h).max() < 1e-12


def test_assembly_matches_explicit_sum(gens, rng):
    """Independent reference: loop over basis elements with the 1/2 weight
    on unordered plane pairs, written without einsum."""
    g = rng.normal(size=(4, 4))
    raw = rng.normal(size=(4, 4, 4))
    h = raw - np.swapaxes(raw, 1, 2)
    want = np.zeros((4, 5, 5))
    for a in range(4):
        for b in range(4):
            want[a] += g[a, b] * gens.v[b]
        for b, c in liealg.PLANE_PAIRS:
            want[a] += 0.5 * h[a, b, c] * gens.m[b, c]
    got = liealg.assemble_components(g, h, gens)
    assert np.abs(got - want).max() < 1e-14


def test_projection_formulas_are_the_literal_ratios(gens, rng):
    # G_ab = pair(A_a, V_b) / pair(V_b, V_b) and
    # H_abc = 2 pair(A_a, M_bc) / pair(M_bc, M_bc): check against the
    # module's projector on assembled input.
    g = rng.normal(size=(4, 4))
    raw = rng.normal(size=(4, 4, 4))
    h = raw - np.swapaxes(raw, 1, 2)
    a = liealg.assemble_components(g, h, gens)
    for i in range(4):
        for b in range(4):
            ratio = liealg.trace_pair(a[i], gens.v[b]) / liealg.trace_pair(
                gens.v[b], gens.v[b]
            )
            assert abs(ratio - g[i, b]) < 1e-12
        for b, c in liealg.PLANE_PAIRS:
            ratio = 2.0 * liealg.trace_pair(a[i], gens.m[b, c]) / liealg.trace_pair(
                gens.m[b, c], gens.m[b, c]
            )
            assert abs(ratio - h[i, b, c]) < 1e-12


def test_project_rejects_matrix_outside_span(gens):
    bad = np.zeros((4, 5, 5))
    bad[0, 0, 0] = 1.0  # symmetric content, not in the antisymmetric span
    with pytest.raises(liealg.GeneratorSpanError):
        liealg.project_components(bad, gens)


def test_sun_generators_normalization():
    for n in (2, 3):
        t = liealg.sun_generators(n)
        assert t.shape[0] == n * n - 1
        for a in range(t.shape[0]):
            assert np.abs(t[a] - t[a].conj().T).max() < 1e-14
            assert abs(np.trace(t[a])) < 1e-14
            for b in range(t.shape[0]):
                got = np.trace(t[a] @ t[b]).real
                want = 0.5 if a == b else 0.0
                assert abs(got - want) < 1e-14


def test_haar_random_sun_is_special_unitary(rng):
    for n in (2, 3):
        for _ in range(50):
            u = liealg.haar_random_sun(n, rng)
            assert liealg.unitarity_defect(u) < 1e-12
            assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_unsupported_group_size_rejected(rng):
    for draw in (
        lambda: liealg.sun_generators(4),
        lambda: liealg.haar_random_sun(4, rng),
        lambda: liealg.random_sun_near_identity(4, 0.1, rng),
    ):
        want = r"^parameter 'n' is invalid: need one of \(2, 3\), got 4$"
        with pytest.raises(ValueError, match=want):
            draw()


@pytest.mark.parametrize(
    "draw, field",
    [
        (lambda rng: liealg.haar_random_sun(2, rng, count=2.5), "count"),
        (lambda rng: liealg.haar_random_sun(2, rng, count=-1), "count"),
        (lambda rng: liealg.random_sun_near_identity(2, 0.1, rng, count=True), "count"),
        (lambda rng: liealg.random_sun_near_identity(2, "a", rng), "scale"),
        (lambda rng: liealg.random_sun_near_identity(2, np.nan, rng), "scale"),
        (lambda rng: liealg.random_so5(rng, np.nan), "scale"),
        (lambda rng: liealg.random_antisymmetric5(rng, -1.0), "scale"),
        (lambda rng: liealg.sun_generators(2.0), "n"),
        (lambda rng: liealg.haar_random_sun(True, rng), "n"),
    ],
)
def test_sampler_scalars_refused_by_their_rules(rng, draw, field):
    # A bare TypeError, numpy's OverflowError or "high - low < 0" named nothing,
    # and sun_generators took the N = 2.0 that ChainConfig refuses.
    with pytest.raises(ValueError, match=f"^parameter '{field}' is invalid: need "):
        draw(rng)


def test_haar_trace_moments(rng):
    """First and second moments of tr U under Haar measure.

    For SU(2) and SU(3) alike, <tr U> = 0 and <|tr U|^2> = 1; sample means
    over 20000 draws sit within a few standard errors of that.
    """
    n_draws = 20000
    for n in (2, 3):
        traces = np.empty(n_draws, dtype=complex)
        for i in range(n_draws):
            traces[i] = np.trace(liealg.haar_random_sun(n, rng))
        assert abs(traces.mean()) < 0.05
        assert abs(np.mean(np.abs(traces) ** 2) - 1.0) < 0.05


def test_random_sun_near_identity_properties(rng):
    for n in (2, 3):
        for _ in range(20):
            u = liealg.random_sun_near_identity(n, 0.5, rng)
            assert liealg.unitarity_defect(u) < 1e-12
            assert abs(np.linalg.det(u) - 1.0) < 1e-12
        tiny = liealg.random_sun_near_identity(n, 1e-8, rng)
        assert np.abs(tiny - np.eye(n)).max() < 1e-7


@pytest.mark.parametrize("count", [1, 50])
def test_near_identity_stack_matches_single_draws(count):
    for n in (2, 3):
        rng = np.random.default_rng(3)
        singles = np.stack([liealg.random_sun_near_identity(n, 0.7, rng) for _ in range(count)])
        stack_rng = np.random.default_rng(3)
        stack = liealg.random_sun_near_identity(n, 0.7, stack_rng, count=count)
        assert stack.shape == (count, n, n)
        assert np.array_equal(stack, singles)
        # The stack leaves the generator where the single draws leave it.
        assert stack_rng.uniform() == rng.uniform()


def test_random_so5_is_special_orthogonal(rng):
    for _ in range(20):
        o = liealg.random_so5(rng)
        assert liealg.unitarity_defect(o) < 1e-12
        assert abs(np.linalg.det(o) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# small-matrix kernels against the slow references they replace
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dagger", ["", "a", "b"])
def test_cm_product_matches_stacked_matmul(rng, dagger):
    for n in (2, 3):
        a = rng.normal(size=(n, n, 5, 7)) + 1j * rng.normal(size=(n, n, 5, 7))
        b = rng.normal(size=(n, n, 5, 7)) + 1j * rng.normal(size=(n, n, 5, 7))
        left, right = np.moveaxis(a, (0, 1), (-2, -1)), np.moveaxis(b, (0, 1), (-2, -1))
        if dagger == "a":
            left = np.conj(np.swapaxes(left, -1, -2))
        if dagger == "b":
            right = np.conj(np.swapaxes(right, -1, -2))
        want = np.moveaxis(left @ right, (-2, -1), (0, 1))
        np.testing.assert_allclose(liealg._cm_product(a, b, dagger), want, rtol=0, atol=1e-14)


def _angle_cases(rng, k, per_scale=2500):
    """Uniform angles at several scales, their negatives (det Q changes sign),
    and the edge cases theta = 0, |theta| ~ 1e-8 and degenerate spectra."""
    scales = (1e-8, 1e-3, 0.1, 0.5, 1.0, 2.0)
    theta = np.concatenate([rng.uniform(-s, s, size=(per_scale, k)) for s in scales])
    special = np.zeros((4, k))
    special[1, -1] = 1e-8
    special[2, -1] = 0.7  # Q proportional to lambda_8 (or sigma_3): a double eigenvalue
    special[3, 0] = 1.3
    return np.concatenate([theta, -theta, special, -special])


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_proposals_match_eigh(rng, n):
    gens = liealg.sun_generators(n)
    theta = _angle_cases(rng, len(gens))
    assert len(theta) >= 10_000
    fast = liealg._exp_i_angles(theta)
    slow = liealg._exp_i_hermitian(np.einsum("pk,kij->pij", theta, gens))
    assert np.abs(fast - slow).max() <= 1e-14
    assert liealg.unitarity_defect(fast).max() < 1e-14
    assert np.abs(np.linalg.det(fast) - 1.0).max() < 1e-14
    if n == 3:
        # Both branches of the c0 symmetry are exercised.
        det_q = np.linalg.det(np.einsum("pk,kij->pij", theta, gens)).real
        assert (det_q > 0).sum() > 1000 and (det_q < 0).sum() > 1000
    # theta = 0 is the identity, bit for bit.
    assert np.array_equal(liealg._exp_i_angles(np.zeros(len(gens))), np.eye(n))


def test_proposals_call_no_eigh(rng, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for n in (2, 3):
        liealg.random_sun_near_identity(n, 0.5, rng, count=20)
        liealg.random_sun_near_identity(n, 0.5, rng)


# ---------------------------------------------------------------------------
# the group gate: `_as_blocks` and `_as_group` at every call site
# ---------------------------------------------------------------------------


def _assign_so5(lf, o):
    lf.so5 = o


def _validate_so5(lf, o):
    lf.so5 = o
    wilson.validate_links(lf)


# site: (make a valid input, feed it to the site, error class, what, real, checks defects).
# A stack is spoilt in its matrix 6 only; the so5 setter checks no defect.
_GATE_SITES = {
    "so5-setter": (
        lambda g, rng: liealg.random_so5(rng),
        lambda g, o: _assign_so5(wilson.identity_links(g, 2), o),
        wilson.LinkFieldError, "so5 block", True, False,
    ),
    "validate_links": (
        lambda g, rng: liealg.random_so5(rng),
        lambda g, o: _validate_so5(wilson.identity_links(g, 2), o),
        wilson.LinkFieldError, "so5 block", True, True,
    ),
    "local_gauge_links": (
        lambda g, rng: liealg.haar_random_sun(2, rng, count=g.n_events),
        lambda g, w: wilson.local_gauge_links(wilson.identity_links(g, 2), w),
        wilson.LinkFieldError, "gauge matrix stack", False, True,
    ),
    "global_so5_conjugate": (
        lambda g, rng: liealg.random_so5(rng),
        lambda g, o: wilson.global_so5_conjugate(wilson.identity_links(g, 2), o),
        wilson.LinkFieldError, "conjugating matrix", True, True,
    ),
    "gauge_transform": (
        lambda g, rng: liealg.expm5(
            np.stack([liealg.random_antisymmetric5(rng) for _ in range(g.n_transitions)])
        ),
        lambda g, o: potential.gauge_transform(potential.flat_field(g, 0.1), o),
        ValueError, "o", True, True,
    ),
    "violation_4d_embedded": (
        lambda g, rng: np.linalg.qr(rng.normal(size=(4, 4)))[0],
        lambda g, rot: baseline.violation_4d_embedded(
            lambda x: np.exp(-np.sum(np.square(x), axis=-1)), rot, 0.5, 0.5
        ),
        ValueError, "rotation", True, True,
    ),
}

# case: the gate's refusal after "{what} ", or None where the input is accepted
# with no warning.  The two complex cases apply to real-dtype sites only.
_ARRAY_CASES = {"shape": r"must have shape \(.*\), got {shape}", "nan": "must be finite",
                "inf": "must be finite", "string": "must be numeric",
                "ragged": "must be numeric", "complex": "must be real", "complex-real": None}


def _gate_input(good, case):
    """``good`` spoilt as ``case`` names: one entry, its last, for NaN and inf."""
    x = np.array(good)
    if case in ("nan", "inf"):
        x.flat[-1] = float(case)
    return {"shape": x[..., :-1], "string": "abc", "ragged": [[1.0, 2.0], [3.0]],
            "complex": x + 0.3j, "complex-real": x + 0j}.get(case, x)


def _check_gate(feed, good, error, what, case):
    bad = _gate_input(good, case)
    if _ARRAY_CASES[case] is None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            feed(bad)
        return
    want = _ARRAY_CASES[case]
    if case == "shape":
        want = want.format(shape=re.escape(str(bad.shape)))
    with pytest.raises(error, match=f"^{what} {want}$") as info:
        feed(bad)
    assert info.type is error


def _spoil(x, case):
    """``x`` with one matrix (matrix 6 of a stack) scaled off the group by ``case``."""
    x = np.array(x)
    m = x[6] if x.ndim == 3 else x
    m *= np.sqrt(1.0 + float(case[-3:]) * liealg.DEFECT_TOL)  # (s U)^dag (s U) = s^2 I
    return x


# case: the end of the refusal message, or None where the input is accepted.
_DEFECT_CASES = {"defect-1.1": r"defect 1\.100e-10", "defect-0.9": None}


@pytest.mark.parametrize(
    "site, case",
    [(site, case) for site, (*_, real, _) in _GATE_SITES.items()
     for case in ["shape", "nan", "inf", *_DEFECT_CASES, "string", "ragged"]
     + (["complex", "complex-real"] if real else [])],
)
def test_group_gate_at_every_site(small_graph, rng, site, case):
    make, feed, error, what, real, checks_defects = _GATE_SITES[site]
    good = make(small_graph, rng)
    if case in _ARRAY_CASES:
        _check_gate(lambda x: feed(small_graph, x), good, error, what, case)
    elif _DEFECT_CASES[case] is None or not checks_defects:
        feed(small_graph, _spoil(good, case))
    else:
        group = "orthogonal" if real else "unitary"
        with pytest.raises(error, match=f"^{what} is not {group}, {_DEFECT_CASES[case]}$"):
            feed(small_graph, _spoil(good, case))


def _field_with(graph, name, table):
    flat = potential.flat_field(graph, 0.1)
    return potential.PotentialField(graph, 0.1, **{"g": flat.g, "h": flat.h, name: table})


_LABEL, _G_V, _H_V = np.array([0.1, 0.2, 0.3, 0.4, 1.0]), np.eye(4), np.zeros((4, 4, 4))
_SU2 = liealg.sun_generators(2)

# site: (make a valid input, feed it to the site, what); every site is real and
# refuses with a ValueError.
_ARRAY_SITES = {
    "PotentialField-g": (
        lambda g, gens: potential.flat_field(g, 0.1).g, lambda g, gens, x: _field_with(g, "g", x),
        "g",
    ),
    "PotentialField-h": (
        lambda g, gens: potential.flat_field(g, 0.1).h, lambda g, gens, x: _field_with(g, "h", x),
        "h",
    ),
    "step_coordinates-label": (
        lambda g, gens: _LABEL,
        lambda g, gens, x: potential.step_coordinates(x, 1, _G_V, _H_V, 0.1), "label",
    ),
    "step_coordinates-g_v": (
        lambda g, gens: _G_V,
        lambda g, gens, x: potential.step_coordinates(_LABEL, 1, x, _H_V, 0.1), "g_v",
    ),
    "step_coordinates-h_v": (
        lambda g, gens: _H_V,
        lambda g, gens, x: potential.step_coordinates(_LABEL, 1, _G_V, x, 0.1), "h_v",
    ),
    "lorentz_transform_field": (
        lambda g, gens: np.eye(4),
        lambda g, gens, x: potential.lorentz_transform_field(potential.flat_field(g, 0.1), x),
        "lam",
    ),
    "assemble_components-g": (
        lambda g, gens: _G_V, lambda g, gens, x: liealg.assemble_components(x, _H_V, gens), "g",
    ),
    "assemble_components-h": (
        lambda g, gens: _H_V, lambda g, gens, x: liealg.assemble_components(_G_V, x, gens), "h",
    ),
    "project_components": (
        lambda g, gens: liealg.assemble_components(_G_V, _H_V, gens),
        lambda g, gens, x: liealg.project_components(x, gens), "a",
    ),
    "continuum_convergence": (
        lambda g, gens: np.array([0.3, 0.2, 0.4, 0.1]),
        lambda g, gens, x: wilson.continuum_convergence(
            lambda y, mu: _SU2[mu] if mu < 2 else np.zeros((2, 2)), [0.2, 0.1, 0.05],
            base_point=x,
        ),
        "base_point",
    ),
}


@pytest.mark.parametrize("case", list(_ARRAY_CASES))
@pytest.mark.parametrize("site", list(_ARRAY_SITES))
def test_array_gate_at_every_site(small_graph, gens, site, case):
    # A NaN went through project_components, assemble_components and
    # step_coordinates to NaN output, assemble_components dropped an imaginary
    # part, and a (1,) base_point was broadcast to all four components.
    make, feed, what = _ARRAY_SITES[site]
    _check_gate(lambda x: feed(small_graph, gens, x), make(small_graph, gens), ValueError,
                what, case)
