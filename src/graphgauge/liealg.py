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

The gauge side uses complex SU(N) blocks, N in ``SUPPORTED_N``.  Their hot
paths avoid numpy's stacked ``@``, which pays about one dispatch per 2x2 or
3x3 block:

* `_cm_product` multiplies component-major stacks, shape (N, N, ...), one
  elementwise multiply-add per inner index k, optionally daggering a factor.
  The sampler's staples, the plaquette traces and the local gauge rotation
  run on it.
* `random_sun_near_identity` builds its proposals exp(i theta.T) in closed
  form (`_exp_i_angles`): cos(r/2) + i sin(r/2) n.sigma for SU(2), and the
  Cayley-Hamilton exponential of Morningstar and Peardon for SU(3).  The
  ``eigh`` route, `_exp_i_hermitian`, stays for general Hermitian matrices:
  `wilson.continuum_convergence` calls it once per leg stack of a spacing.
* `_scratch` keeps these kernels' temporaries per owner and thread, so glibc
  does not trim them off the heap between calls only for them to fault in again.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .graphlat import _choice, _enforce, _number

GEN_SCALE = 1.0 / np.sqrt(2.0)

# Group sizes N of the SU(N) blocks: the ones with a generator basis below.
SUPPORTED_N = (2, 3)

# `_enforce` rules (field, accept, requirement) of the samplers' scalars: N, which
# `sampler` applies to n_colors as well, the half-width of a uniform draw and the
# size of a stack (None for one draw).
_N = ("n", _choice(SUPPORTED_N), f"one of {SUPPORTED_N}")
_SCALE = ("scale", _number(ge=0), "a finite value >= 0")
_STACK = _number(int, ge=0)
_COUNT = ("count", lambda x, accepted: None if x is None else _STACK(x, accepted),
          "None or an integer >= 0")

# Matrices per pass of the batched kernels (`unitarity_defect`, the SU(3)
# exponential, and `wilson`'s traces, `validate_links` and gauge rotation); no bit
# depends on it.  Passes keep temporaries under glibc's heap-trim edge (4096 SU(3)
# blocks faulted 1,120 pages per 8^4 gauge rotation plus actions, 2048 0-1), and
# halve `validate_links` at 8^4 SU(3) against one pass.  Smaller passes pay in
# dispatch.
_CHUNK = 2048

# Basis index order for the six independent planes among the first four axes.
PLANE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class GeneratorSpanError(ValueError):
    """Raised when a matrix is not in the antisymmetric span within tolerance."""

    def __init__(self, residual: float):
        self.residual = float(residual)
        super().__init__(
            f"matrix lies outside the generator span, reconstruction residual {residual:.3e}"
        )


@dataclass(frozen=True, eq=False)
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
    a = _numeric(a, "a", ValueError)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expm5 expects square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("expm5 input must be finite")
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
    g = _as_blocks(g, float, ((4, 4),), "g", ValueError)
    h = _as_blocks(h, float, ((4, 4, 4),), "h", ValueError)
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
    a = _as_blocks(a, float, ((4, 5, 5),), "a", ValueError)
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


def sun_generators(n: int) -> np.ndarray:
    """Hermitian traceless basis of su(N): Pauli/2 for N=2, Gell-Mann/2 for N=3."""
    n = _enforce((_N,), {"n": n})["n"]
    return (_PAULI if n == 2 else _GELLMANN) / 2.0


def haar_random_sun(n: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Draw one Haar-distributed SU(N) matrix, or a stack of ``count``.

    QR of a complex Ginibre matrix with the R-diagonal phase correction gives
    Haar on U(N); dividing out an N-th root of the determinant lands on SU(N).
    A stack consumes the generator exactly as ``count`` single draws would,
    so it holds the same matrices in the same order.
    """
    n, count = _enforce((_N, _COUNT), {"n": n, "count": count}).values()
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
    which is what the Metropolis proposal needs.  The exponential is built in
    closed form by `_exp_i_angles`; a stack holds the matrices its single
    draws give, bit for bit.
    """
    n, scale, count = _enforce(
        (_N, _SCALE, _COUNT), {"n": n, "scale": scale, "count": count}
    ).values()
    lead = () if count is None else (count,)
    theta = rng.uniform(-scale, scale, size=lead + (n * n - 1,))
    return _exp_i_angles(theta)


# Per thread, ``owners``: each owner's kept buffers, in a WeakKeyDictionary.
_SCRATCH = threading.local()


def _scratch(owner, kernel: str, n: int, shapes: tuple) -> list:
    """C-contiguous complex arrays of ``shapes`` for a call of ``kernel`` with N = ``n``
    in this thread, which fills them afresh.  ``owner`` is the graph whose tables the
    call reads, or the kernel's own function where it reads none; the buffers go with
    it.  They are cut from one buffer kept at the largest total size asked for, and
    cut again only when the shapes change.  Their contents never reach a caller."""
    owners = getattr(_SCRATCH, "owners", None)
    if owners is None:
        owners = _SCRATCH.owners = weakref.WeakKeyDictionary()
    kept = owners.get(owner) or owners.setdefault(owner, {})
    last = kept.get((kernel, n))
    if last is None or last[0] != shapes:
        ends = np.cumsum([np.prod(shape) for shape in shapes])
        buf = last[1] if last and last[1].size >= ends[-1] else np.empty(ends[-1], dtype=complex)
        cuts = [buf[end - np.prod(s):end].reshape(s) for end, s in zip(ends, shapes)]
        last = kept[kernel, n] = (shapes, buf, cuts)
    return last[2]


def _cm_product(a: np.ndarray, b: np.ndarray, dagger: str = "", out=None, tmp=None) -> np.ndarray:
    """Matrix product on component-major stacks of shape (N, N, ...).

    Entry [i, j, ...] of the result is sum_k a[i, k, ...] b[k, j, ...],
    accumulated one k at a time, so each step is one elementwise multiply over
    the whole stack and no (N, N, N, ...) temporary is built.  ``dagger``
    names the factors to conjugate-transpose first: "a", "b" or "".  A stack
    of 2x2 or 3x3 blocks costs a few elementwise calls, where a stacked ``@``
    pays one dispatch per block.  ``out`` and ``tmp``, C-contiguous arrays of
    the result's shape, take the result and each step's product in place of
    fresh arrays; the operations and their order are the same.
    """
    if "a" in dagger:
        a = np.conj(a).swapaxes(0, 1)
    if "b" in dagger:
        b = np.conj(b).swapaxes(0, 1)
    out = np.multiply(a[:, 0, None], b[None, 0], out=out, order="C")
    for k in range(1, a.shape[1]):
        out += np.multiply(a[:, k, None], b[None, k], out=tmp)
    return out


# Component tables of the closed-form exponentials below.  SU(2): entry (row,
# column, re/im) of the float view of exp(i theta.sigma / 2) is the component
# _SU2_PICK of (cos r/2, s theta_1, s theta_2, s theta_3) times _SU2_SIGN,
# with r = |theta| and s = sin(r/2) / r.
_SU2_PICK = np.array([[[0, 3], [2, 1]], [[2, 1], [0, 3]]])
_SU2_SIGN = np.array([[[1.0, 1.0], [1.0, 1.0]], [[-1.0, 1.0], [1.0, -1.0]]])
# SU(3): the float view of Q = sum_k theta_k lambda_k / 2, entry (row, column,
# re/im), is theta _SU3_EXT _SU3_Q.  theta _SU3_EXT = (theta_1..8, theta_8 /
# sqrt 3) has one term an entry; _SU3_Q has power-of-two coefficients and at
# most two terms an entry.  So each entry is rounded once whatever the
# summation order, and the bits do not depend on the stack size.
_SU3_EXT = np.hstack([np.eye(8), np.eye(8)[:, 7:] / np.sqrt(3.0)])
_SU3_Q = (
    np.concatenate([_GELLMANN[:7], np.zeros((1, 3, 3)), np.diag([1.0, 1.0, -2.0])[None]]) / 2.0
).view(float).reshape(9, 18)
# Morningstar-Peardon's h_j = A_j e^{2iu} + e^{-iu} (B_j + i C_j).  The rows
# (A_0..2, B_0..2 / cos w, C_0..2 / xi0(w), 9u^2 - w^2) are _SU3_H times the
# monomials (1, u, 3u, u^2, w^2, 3u^2, 9u^2, u (3u^2 + w^2)), again with
# power-of-two coefficients and at most two terms a row.
_SU3_H = np.array(
    [
        [0, 0, 0, 1, -1, 0, 0, 0],
        [0, 2, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 8, 0, 0, 0, 0],
        [0, -2, 0, 0, 0, 0, 0, 0],
        [-1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 2],
        [0, 0, 0, 0, -1, 1, 0, 0],
        [0, 0, -1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, -1, 0, 1, 0],
    ],
    dtype=float,
)
# (Re, Im) of e^{2iu} and of e^{-iu} (B + iC) as weights of the rows A, B, C,
# picked from (cos 2u, cos u, cos w, sin 2u, sin u, sin w).
_SU3_PHASE_PICK = np.array([[0, 1, 4], [3, 4, 1]])
_SU3_PHASE_SIGN = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0]])[..., None]
_TINY = np.finfo(float).tiny
# Below this w, xi0(w) = sin(w) / w is summed as its series (error under 3e-16).
_XI_SERIES_BELOW = 0.01


def _exp_i_angles(theta: np.ndarray) -> np.ndarray:
    """exp(i sum_k theta_k T_k) in the `sun_generators` basis, in closed form,
    for angles ``theta`` of shape (..., 3) (SU(2)) or (..., 8) (SU(3)).

    SU(2): cos(r/2) + i sin(r/2) n.sigma with r = |theta|, n = theta / r.
    SU(3): Cayley-Hamilton, exp(iQ) = f0 + f1 Q + f2 Q^2 with the f_j of
    Morningstar and Peardon (Phys. Rev. D 69, 054501 (2004)), evaluated at
    c0 = |det Q| and mapped back by f_j(-c0) = (-1)^j f_j(c0)^*, with a
    series for sin(w) / w at small w.  theta = 0 gives the identity exactly.

    Every step is elementwise across the stack, and the only sums over more
    than two terms run along a contiguous last axis, so a stack gives the
    same matrices as one call each, bit for bit.  SU(3) forms Q, Q^2, the
    coefficient rows and its result component-major, in passes of `_CHUNK`
    matrices whose temporaries are cut from buffers kept per thread
    (`_scratch`); no bit depends on the pass size.  It returns fresh
    (3, 3, ...) memory as a transposed view.
    """
    theta = np.asarray(theta, dtype=float)
    lead, k = theta.shape[:-1], theta.shape[-1]
    t = np.ascontiguousarray(theta.reshape(-1, k))
    if k == 3:
        return _exp_su2(t).reshape(lead + (2, 2))
    if k == 8:
        return _exp_su3(t).reshape(lead + (3, 3))
    raise ValueError(f"expected 3 or 8 angles per matrix, got {k}")


def _exp_su2(t: np.ndarray) -> np.ndarray:
    """(P, 2, 2) exponentials of the (P, 3) angles ``t``."""
    r = np.sqrt(np.einsum("pk,pk->p", t, t))
    comp = np.empty((t.shape[0], 4))
    comp[:, 0] = np.cos(0.5 * r)
    # At r = 0 the sine factor multiplies zero angles, so any finite divisor works.
    s = np.sin(0.5 * r) / np.maximum(r, _TINY)
    np.multiply(t, s[:, None], out=comp[:, 1:])
    return (np.take(comp, _SU2_PICK, axis=1) * _SU2_SIGN).view(complex)[..., 0]


def _exp_su3(t: np.ndarray) -> np.ndarray:
    """(P, 3, 3) exponentials of the (P, 8) angles ``t``: a transposed view of fresh
    component-major (3, 3, P) memory."""
    n_p = len(t)
    out = np.empty((9, n_p), dtype=complex)
    width = min(n_p, _CHUNK)
    # Per matrix: Q and Q^2 p-major and component-major and h, 39 complex, and 39
    # floats cut from the float view of 20 more.
    kept, floats = _scratch(_exp_su3, "exp", 3, ((39 * width,), (20 * width,)))
    for start in range(0, n_p, _CHUNK):
        part = t[start:start + _CHUNK]
        m = len(part)
        pm, cm = kept[:36 * m].reshape(2, 2, m, 9)
        q_pm, q2_pm = pm
        q, q2 = cm.reshape(2, 3, 3, m)
        h = kept[36 * m:39 * m].reshape(3, m)
        rowsets = floats[:20 * m].view(float)[:39 * m].reshape(39, m)
        c1_3, c0_3, root, c0_max_3, third, series = rowsets[:6]
        ang, mono, rows = rowsets[6:9], rowsets[9:17], rowsets[17:27]
        trig, phase = rowsets[27:].reshape(2, 2, 3, m)
        # q2_pm holds the angles' extension, then the product's temporaries, until
        # Q^2 is known, and terms once c0 is.
        ext = q2_pm.view(float).reshape(-1)[:9 * m].reshape(m, 9)
        terms = q2_pm.view(float).reshape(2, 3, 3, m)

        np.matmul(np.matmul(part, _SU3_EXT, out=ext), _SU3_Q, out=q_pm.view(float))
        q[...] = q_pm.reshape(m, 3, 3).transpose(1, 2, 0)
        _cm_product(q, q, out=q2, tmp=q2_pm.reshape(3, 3, m))
        q2_pm[...] = q2.reshape(9, m).T
        # c1 = tr(Q^2) / 2 = |theta|^2 / 4, and 3 c0 = 3 det Q = tr(Q^3) = the sum
        # of Q o conj(Q^2) (both Hermitian), each taken along a contiguous last axis.
        np.einsum("pk,pk->p", part, part, out=c1_3)
        c1_3 /= 12.0
        np.einsum("pk,pk->p", q_pm.view(float), q2_pm.view(float), out=c0_3)
        # |c0| / c0_max with c0_max = 2 (c1 / 3)^(3/2), clipped against rounding.
        np.sqrt(c1_3, out=root)
        np.multiply(c1_3, 6.0, out=c0_max_3)
        c0_max_3 *= root
        np.abs(c0_3, out=third)
        third /= np.maximum(c0_max_3, _TINY, out=c0_max_3)
        np.minimum(third, 1.0, out=third)
        np.arccos(third, out=third)
        third /= 3.0
        # u and w at |c0|; f_j(-c0) = (-1)^j f_j(c0)^* is the same as giving u the
        # sign of c0, since A_j, B_j and C_j are even or odd in u as (-1)^j is.
        u, w = ang[1], ang[2]
        np.cos(third, out=u)
        u *= root
        np.copysign(u, c0_3, out=u)
        np.multiply(root, np.sqrt(3.0), out=w)
        w *= np.sin(third, out=third)
        np.add(u, u, out=ang[0])
        np.cos(ang, out=trig[0])
        np.sin(ang, out=trig[1])
        mono[0] = 1.0
        mono[1] = u
        np.multiply(u, 3.0, out=mono[2])
        np.multiply(u, u, out=mono[3])
        np.multiply(w, w, out=mono[4])
        np.multiply(mono[3], 3.0, out=mono[5])
        np.multiply(mono[3], 9.0, out=mono[6])
        np.add(mono[5], mono[4], out=mono[7])
        mono[7] *= u
        w2 = mono[4]
        np.divide(w2, 120.0, out=series)
        np.subtract(1.0 / 6.0, series, out=series)
        series *= w2
        np.subtract(1.0, series, out=series)
        xi0 = np.maximum(w, _XI_SERIES_BELOW, out=c0_max_3)
        np.divide(trig[1, 2], xi0, out=xi0)
        np.copyto(xi0, series, where=w < _XI_SERIES_BELOW)
        np.matmul(_SU3_H, mono, out=rows)
        rows[3:6] *= trig[0, 2]
        rows[6:9] *= xi0
        np.take(trig.reshape(6, m), _SU3_PHASE_PICK, axis=0, out=phase)
        phase *= _SU3_PHASE_SIGN
        np.multiply(phase[:, :, None], rows[:9].reshape(3, 3, m), out=terms)
        hv = h.view(float).reshape(3, m, 2).transpose(2, 0, 1)
        np.add(terms[:, 0], terms[:, 1], out=hv)
        hv += terms[:, 2]
        # 9u^2 - w^2 >= 2 c1 vanishes only at theta = 0, where every h_j does;
        # shifting h_0 and the divisor by _TINY gives f = (1, 0, 0) there, and
        # changes no bit unless |theta| is below about 1e-140.
        hv[0, 0] += _TINY
        rows[9] += _TINY
        hv /= rows[9]
        # exp(iQ) = f0 + f1 Q + f2 Q^2 with f = h, q_pm free as the last product.
        result = out[:, start:start + m]
        np.multiply(h[1], q.reshape(9, m), out=result)
        result += np.multiply(h[2], q2.reshape(9, m), out=q_pm.reshape(9, m))
        result[::4] += h[0]
    return out.reshape(3, 3, n_p).transpose(2, 0, 1)


def _exp_i_hermitian(herm: np.ndarray) -> np.ndarray:
    """exp(i herm) for general Hermitian matrices, through ``eigh`` matrix by
    matrix: the slow reference the closed forms of `_exp_i_angles` replace."""
    w, vec = np.linalg.eigh(herm)
    return (vec * np.exp(1j * w)[..., None, :]) @ np.conj(np.swapaxes(vec, -1, -2))


def random_antisymmetric5(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random antisymmetric 5x5 with independent entries uniform in +-scale."""
    scale = _enforce((_SCALE,), {"scale": scale})["scale"]
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

    The Gram products are formed `_CHUNK` matrices at a time.  A non-finite
    defect (a NaN or inf entry) reads as inf, so every ``defect > tol`` check
    rejects it.
    """
    u = np.asarray(u)
    n = u.shape[-1]
    stack = u.reshape(-1, n, n)
    defect = np.empty(len(stack))
    for start in range(0, len(stack), _CHUNK):
        part = stack[start:start + _CHUNK].transpose(1, 2, 0)  # component-major view
        with np.errstate(invalid="ignore"):
            gram = _cm_product(part, part, "a")
            gram.reshape(n * n, -1)[::n + 1] -= 1  # the diagonal
            np.abs(gram).max(axis=(0, 1), out=defect[start:start + _CHUNK])
    return np.nan_to_num(defect.reshape(u.shape[:-2]), nan=np.inf, posinf=np.inf)


def _cm_det(m: np.ndarray) -> np.ndarray:
    """Determinant of a component-major (N, N, ...) stack, N = 2 or 3, by cofactors."""
    if len(m) == 2:
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return sum(m[0, j] * (m[1, j - 2] * m[2, j - 1] - m[1, j - 1] * m[2, j - 2]) for j in range(3))


def _numeric(x, what, error) -> np.ndarray:
    """``x`` as a bool, integer, float or complex array, else ``error`` saying that
    ``what`` must be numeric: a string is not, nor is a ragged sequence."""
    try:
        x = np.asarray(x)
        numeric = x.dtype.kind in "biufc"
    except (TypeError, ValueError):  # a ragged sequence
        numeric = False
    if not numeric:
        raise error(f"{what} must be numeric")
    return x


def _as_blocks(x, dtype, shapes, what, error) -> np.ndarray:
    """``x`` as a finite ``dtype`` array of a shape in ``shapes``, else ``error`` naming
    ``what``.  A real ``dtype`` refuses a nonzero imaginary part and drops an all-zero one."""
    x = _numeric(x, what, error)
    if x.dtype.kind == "c" and np.dtype(dtype).kind != "c":
        if (x.imag != 0).any():
            raise error(f"{what} must be real")
        x = x.real
    x = x.astype(dtype, copy=False)
    if x.shape not in shapes:
        raise error(f"{what} must have shape {' or '.join(map(str, shapes))}, got {x.shape}")
    if not np.isfinite(x).all():
        raise error(f"{what} must be finite")
    return x


def _as_group(x, dtype, shapes, what, error) -> np.ndarray:
    """`_as_blocks`, then ``error`` unless every matrix is orthogonal (a real
    ``dtype``) or unitary to within `DEFECT_TOL`."""
    x = _as_blocks(x, dtype, shapes, what, error)
    defect = unitarity_defect(x).max()
    if defect > DEFECT_TOL:
        group = "unitary" if x.dtype.kind == "c" else "orthogonal"
        raise error(f"{what} is not {group}, defect {defect:.3e}")
    return x
