import numpy as np
import pytest
import scipy.linalg

from graphgauge import liealg


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
        assert liealg.orthogonality_defect(q) < 1e-12
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
    got = liealg.orthogonality_defect(stack)
    assert got.shape == (11,)
    assert np.array_equal(got, [liealg.orthogonality_defect(o) for o in stack])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_defects_of_non_finite_matrices_are_infinite(bad):
    o = np.eye(5)
    o[1, 2] = bad
    assert liealg.orthogonality_defect(o) == np.inf
    u = np.stack([np.eye(2, dtype=complex)] * 3)
    u[1, 0, 0] = bad
    assert np.array_equal(liealg.unitarity_defect(u), [0.0, np.inf, 0.0])


def test_expm5_rejects_bad_input():
    with pytest.raises(ValueError):
        liealg.expm5(np.zeros((5, 4)))
    with pytest.raises(ValueError):
        liealg.expm5(np.full((5, 5), np.nan))


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


def test_link_trace_matches_dense_embedding(rng):
    u = liealg.haar_random_sun(3, rng)
    o = liealg.random_so5(rng)
    link = liealg.LinkMatrix(su=u, so5=o)
    dense = np.zeros((8, 8), dtype=complex)
    dense[:3, :3] = u
    dense[3:, 3:] = o
    assert abs(liealg.link_trace(link) - np.trace(dense).real) < 1e-12


def test_random_so5_is_special_orthogonal(rng):
    for _ in range(20):
        o = liealg.random_so5(rng)
        assert liealg.orthogonality_defect(o) < 1e-12
        assert abs(np.linalg.det(o) - 1.0) < 1e-12
