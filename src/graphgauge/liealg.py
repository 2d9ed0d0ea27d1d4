"""Dense matrix algebra for the rotation-generator basis and SU(N) link blocks.

The geometric side of the engine works with antisymmetric 5x5 real matrices.
A basis for them is built from two families:

* ``V[b]``, b = 0..3: rotations mixing axis b with the auxiliary axis 4.
  These carry the metric potential.
* ``M[b, c]``, b != c: rotations in the b-c plane of the first four axes.
  These carry the torsion potential.

Entries are scaled by ``GEN_SCALE = 1/sqrt(2)`` so that the pairing
``trace_pair(X, Y) = tr(X Y^T)`` makes the basis orthonormal.  The pairing
absorbs the sign of ``tr(X Y)``, which is negative definite on antisymmetric
matrices; orthonormality statements below are always in terms of
``trace_pair``.

The gauge side uses complex SU(N) blocks, N in ``SUPPORTED_N``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GEN_SCALE = 1.0 / np.sqrt(2.0)

# Group sizes N of the SU(N) blocks: the ones with a generator basis below.
SUPPORTED_N = (2, 3)

# Basis index order for the six independent planes among the first four axes.
PLANE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class GeneratorSpanError(ValueError):
    """Raised when a matrix is not in the antisymmetric span within tolerance."""

    def __init__(self, residual: float):
        self.residual = float(residual)
        super().__init__(
            f"matrix lies outside the generator span, reconstruction residual {residual:.3e}"
        )


@dataclass(frozen=True)
class GeneratorSet:
    """Orthonormalized generator basis.

    Attributes
    ----------
    v : ndarray, shape (4, 5, 5)
        Axis-4 mixing generators, ``v[b]`` has +s at (b, 4), -s at (4, b), s = GEN_SCALE.
    m : ndarray, shape (4, 4, 5, 5)
        Plane generators stored for all ordered pairs, ``m[c, b] = -m[b, c]``
        and ``m[b, b] = 0``.
    """

    v: np.ndarray
    m: np.ndarray


def trace_pair(x: np.ndarray, y: np.ndarray) -> float:
    """Pairing tr(x y^T), evaluated as an elementwise sum."""
    return float(np.sum(x * y))


def make_generators() -> GeneratorSet:
    """Build the orthonormalized antisymmetric basis.

    Returns
    -------
    GeneratorSet
        Satisfies trace_pair(v[a], v[b]) = delta_ab,
        trace_pair(m[a,b], m[c,d]) = delta_ac delta_bd for ordered pairs a<b,
        c<d, and trace_pair(v[a], m[b,c]) = 0 exactly (disjoint sparsity).
    """
    s = GEN_SCALE
    v = np.zeros((4, 5, 5))
    for b in range(4):
        v[b, b, 4] = s
        v[b, 4, b] = -s
    m = np.zeros((4, 4, 5, 5))
    for b, c in PLANE_PAIRS:
        m[b, c, b, c] = s
        m[b, c, c, b] = -s
        m[c, b] = -m[b, c]
    return GeneratorSet(v=v, m=m)


def expm5(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a fixed-order series.

    Parameters
    ----------
    a : ndarray, shape (..., n, n)
        Real or complex square matrix, or a stack of them.  Finite entries
        required.

    Returns
    -------
    ndarray
        exp(a), per matrix of a stack.  For antisymmetric real input the
        result is orthogonal to better than 1e-12; against an independent
        reference the error stays below 1e-13 in max norm for norms up to 10.

    Notes
    -----
    Each matrix is halved until its infinity norm drops under 1/2, a
    16-term Taylor series is summed (remainder below 1e-17 at that norm),
    and the result is squared back up.  A matrix of a stack keeps its own
    squaring count, so it gets exactly the bits it would get alone.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expm5 expects square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("expm5: input has non-finite entries")
    norm = np.abs(a).sum(axis=-1).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norm, 0.5) / 0.5)).astype(int)
    b = a / (2.0 ** squarings)[..., None, None]
    result = np.eye(a.shape[-1], dtype=b.dtype)
    term = np.eye(a.shape[-1], dtype=b.dtype)
    for k in range(1, 17):
        term = term @ b / k
        result = result + term
    for i in range(int(squarings.max(initial=0))):
        result = np.where((squarings > i)[..., None, None], result @ result, result)
    return result


def assemble_components(g: np.ndarray, h: np.ndarray, gens: GeneratorSet) -> np.ndarray:
    """Assemble the four potential matrices from (G, H) component tables.

    Parameters
    ----------
    g : ndarray, shape (4, 4)
        Metric potential, g[a, b] multiplies v[b] in component a.
    h : ndarray, shape (4, 4, 4)
        Torsion potential, antisymmetric in its last two indices.
    gens : GeneratorSet

    Returns
    -------
    ndarray, shape (4, 5, 5)
        A[a] = sum_b g[a,b] v[b] + (1/2) sum_{b<c} h[a,b,c] m[b,c].
        Each independent plane is counted once, with weight 1/2; this is the
        convention under which `project_components` is the exact inverse.
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if g.shape != (4, 4) or h.shape != (4, 4, 4):
        raise ValueError("assemble_components expects g (4,4) and h (4,4,4)")
    # Full contraction double counts each plane, hence 0.25 instead of 0.5.
    return np.einsum("ab,bij->aij", g, gens.v) + 0.25 * np.einsum(
        "abc,bcij->aij", h, gens.m
    )


def project_components(a: np.ndarray, gens: GeneratorSet) -> tuple[np.ndarray, np.ndarray]:
    """Project four 5x5 matrices onto the generator basis.

    Parameters
    ----------
    a : ndarray, shape (4, 5, 5)
        Antisymmetric matrices to decompose.
    gens : GeneratorSet

    Returns
    -------
    (g, h) : ndarray pair, shapes (4, 4) and (4, 4, 4)
        g[a,b] = trace_pair(a[a], v[b]) / trace_pair(v[b], v[b]) and
        h[a,b,c] = 2 trace_pair(a[a], m[b,c]) / trace_pair(m[b,c], m[b,c])
        for b < c, extended antisymmetrically.

    Raises
    ------
    GeneratorSpanError
        If reassembling (g, h) misses the input by more than 1e-9
        in max norm (symmetric content, nonzero trace, and so on).
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (4, 5, 5):
        raise ValueError(f"project_components expects shape (4, 5, 5), got {a.shape}")
    # Every generator has the same norm; m's antisymmetry makes h antisymmetric.
    norm = trace_pair(gens.v[0], gens.v[0])
    g = np.einsum("aij,bij->ab", a, gens.v) / norm
    h = 2.0 * np.einsum("aij,bcij->abc", a, gens.m) / norm
    residual = float(np.max(np.abs(a - assemble_components(g, h, gens))))
    if residual > 1e-9:
        raise GeneratorSpanError(residual)
    return g, h


# ---------------------------------------------------------------------------
# group sampling
# ---------------------------------------------------------------------------

_PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

_GELLMANN = np.array(
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
        [
            [1 / np.sqrt(3), 0, 0],
            [0, 1 / np.sqrt(3), 0],
            [0, 0, -2 / np.sqrt(3)],
        ],
    ],
    dtype=complex,
)


def _check_n(n: int) -> None:
    if n not in SUPPORTED_N:
        raise ValueError(f"unsupported group size N={n}, expected one of {SUPPORTED_N}")


def sun_generators(n: int) -> np.ndarray:
    """Hermitian traceless basis of su(N): Pauli/2 for N=2, Gell-Mann/2 for N=3."""
    _check_n(n)
    return (_PAULI if n == 2 else _GELLMANN) / 2.0


def haar_random_sun(n: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Draw one Haar-distributed SU(N) matrix, or a stack of ``count``.

    QR of a complex Ginibre matrix with the R-diagonal phase correction gives
    Haar on U(N); dividing out an N-th root of the determinant lands on SU(N).
    A stack consumes the generator exactly as ``count`` single draws would,
    so it holds the same matrices in the same order.
    """
    _check_n(n)
    lead = () if count is None else (count,)
    parts = rng.standard_normal(lead + (2, n, n))
    z = parts[..., 0, :, :] + 1j * parts[..., 1, :, :]
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    det = np.linalg.det(q)
    return q * np.exp(-1j * (np.angle(det) / n))[..., None, None]


def random_sun_near_identity(
    n: int, scale: float, rng: np.random.Generator, count: int | None = None
) -> np.ndarray:
    """Random SU(N) element exp(i sum_k theta_k T_k), theta_k uniform in +-scale,
    or a stack of ``count`` drawn on the random stream of ``count`` single draws.

    The draw is symmetric under inversion (theta -> -theta has equal density),
    which is what the Metropolis proposal needs.
    """
    gens = sun_generators(n)
    lead = () if count is None else (count,)
    theta = rng.uniform(-scale, scale, size=lead + (len(gens),))
    return _exp_i_angles(theta, gens)


def _exp_i_angles(theta: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """exp(i sum_k theta_k T_k) for angles ``theta`` of shape (..., len(gens)).

    A stack of angles gives the same matrices as one call each.
    """
    return _exp_i_hermitian(np.einsum("...k,kij->...ij", theta, gens))


def _exp_i_hermitian(herm: np.ndarray) -> np.ndarray:
    """exp(i herm) for Hermitian matrices, through ``eigh`` matrix by matrix."""
    w, vec = np.linalg.eigh(herm)
    return (vec * np.exp(1j * w)[..., None, :]) @ np.conj(np.swapaxes(vec, -1, -2))


def random_antisymmetric5(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random antisymmetric 5x5 with independent entries uniform in +-scale."""
    upper = np.triu(rng.uniform(-scale, scale, size=(5, 5)), k=1)
    return upper - upper.T


def random_so5(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random SO(5) element, the exponential of a random antisymmetric matrix."""
    return expm5(random_antisymmetric5(rng, scale))


# Largest unitarity or orthogonality defect a link, gauge or frame matrix may
# carry; the determinant of an SU(N) link may miss 1 by ten times as much.
DEFECT_TOL = 1e-10


def unitarity_defect(u: np.ndarray):
    """Max-norm distance of u^dag u from the identity, per matrix of a stack.

    A non-finite defect (a NaN or inf entry) reads as inf, so every
    ``defect > tol`` check rejects it.
    """
    u = np.asarray(u)
    with np.errstate(invalid="ignore"):
        gram = np.conj(np.swapaxes(u, -1, -2)) @ u
    defect = np.abs(gram - np.eye(u.shape[-1])).max(axis=(-2, -1))
    return np.nan_to_num(defect, nan=np.inf, posinf=np.inf)


def orthogonality_defect(o: np.ndarray):
    """Max-norm distance of o^T o from the identity, per matrix of a stack."""
    return unitarity_defect(o)
