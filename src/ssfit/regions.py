"""Eigenvalue regions of the complex plane defined by matrix inequalities.

A region is the set of ``z`` where the Hermitian matrix

    f(z) = M0 + M1*z + M1^T*conj(z)

is positive definite, for real generating matrices ``(M0, M1)`` with ``M0``
symmetric.  Such regions are convex and symmetric about the real axis, and
membership of an entire spectrum can be certified by a single semidefinite
system through the matrix characteristic function.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = [
    "LmiRegion",
    "half_plane",
    "left_half_plane",
    "disk",
    "cone",
    "band",
    "intersect",
    "block_diag",
    "char_fn",
    "contains",
    "matrix_char_fn",
    "eig_membership",
    "require_pd_weight",
    "require_sound_shift",
]

# Scale-aware cushion for strict definiteness tests: "> 0" is checked as
# min eigenvalue > DEFINITE_RTOL * max(1, norm).
DEFINITE_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class LmiRegion:
    """A region of the complex plane with generating matrices ``(M0, M1)``.

    Parameters
    ----------
    m0 : ndarray
        Symmetric ``m x m`` matrix.
    m1 : ndarray
        ``m x m`` matrix.
    kind : str
        Structured tag recording how the region was built (``"half_plane"``,
        ``"disk"``, ``"cone"``, ``"band"``, ``"intersect"``, ``"raw"``).
    label : str
        Free-form description.
    """

    m0: np.ndarray
    m1: np.ndarray
    kind: str = "raw"
    label: str = ""

    def __post_init__(self):
        m0 = np.atleast_2d(np.asarray(self.m0, dtype=float))
        m1 = np.atleast_2d(np.asarray(self.m1, dtype=float))
        if m0.shape != m1.shape or m0.shape[0] != m0.shape[1]:
            raise ValueError(f"generating matrices must be square and matched, "
                             f"got {m0.shape} and {m1.shape}")
        if m0.shape[0] < 1:
            raise ValueError("block dimension must be at least 1")
        if not (np.isfinite(m0).all() and np.isfinite(m1).all()):
            raise ValueError("generating matrices must be finite")
        if not np.array_equal(m0, m0.T):
            raise ValueError("m0 must be exactly symmetric")
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "m1", m1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LmiRegion):
            return NotImplemented
        return (self.kind, self.label) == (other.kind, other.label) \
            and np.array_equal(self.m0, other.m0) \
            and np.array_equal(self.m1, other.m1)

    __hash__ = None

    @property
    def m(self) -> int:
        """Block dimension of the generating matrices."""
        return self.m0.shape[0]


def half_plane(x0: float) -> LmiRegion:
    """Open right half-plane ``Re(z) > x0``."""
    return LmiRegion(np.array([[-2.0 * x0]]), np.array([[1.0]]),
                     kind="half_plane", label=f"half_plane({x0})")


def left_half_plane(x0: float = 0.0) -> LmiRegion:
    """Open left half-plane ``Re(z) < x0`` (the sign-flipped half-plane)."""
    return LmiRegion(np.array([[2.0 * x0]]), np.array([[-1.0]]),
                     kind="left_half_plane", label=f"left_half_plane({x0})")


def disk(s: float, x0: float) -> LmiRegion:
    """Open disk ``|z - x0| < s`` centered on the real axis."""
    if s <= 0:
        raise ValueError(f"disk radius must be positive, got {s}")
    m0 = np.array([[s, -x0], [-x0, s]])
    m1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    return LmiRegion(m0, m1, kind="disk", label=f"disk({s}, {x0})")


def cone(s: float, x0: float) -> LmiRegion:
    """Open conic sector ``|Im(z)| < s*(Re(z) - x0)``."""
    if s <= 0:
        raise ValueError(f"cone slope must be positive, got {s}")
    m0 = -2.0 * s * x0 * np.eye(2)
    m1 = np.array([[s, 1.0], [-1.0, s]])
    return LmiRegion(m0, m1, kind="cone", label=f"cone({s}, {x0})")


def band(s: float) -> LmiRegion:
    """Open horizontal band ``|Im(z)| < s``."""
    if s <= 0:
        raise ValueError(f"band half-width must be positive, got {s}")
    # f(z) = [[2s, 2i Im z], [-2i Im z, 2s]], eigenvalues 2s +- 2|Im z|
    m0 = 2.0 * s * np.eye(2)
    m1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return LmiRegion(m0, m1, kind="band", label=f"band({s})")


def intersect(first: LmiRegion, second: LmiRegion, *rest: LmiRegion) -> LmiRegion:
    """Intersection of regions via the direct sum of their generators."""
    regions = (first, second) + rest
    label = "intersect(" + ", ".join(r.label or r.kind for r in regions) + ")"
    return LmiRegion(block_diag(*(r.m0 for r in regions)),
                     block_diag(*(r.m1 for r in regions)),
                     kind="intersect", label=label)


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Block diagonal of square matrices whose leading stack dimensions
    broadcast."""
    lead = np.broadcast_shapes(*(np.shape(b)[:-2] for b in blocks))
    off = list(accumulate((np.shape(b)[-1] for b in blocks), initial=0))
    out = np.zeros(lead + (off[-1], off[-1]))
    for b, i, j in zip(blocks, off, off[1:]):
        out[..., i:j, i:j] = b
    return out


def char_fn(region: LmiRegion, z) -> np.ndarray:
    """Characteristic function ``f(z) = M0 + M1*z + M1^T*conj(z)``.

    ``z`` may be an array of points; the result then stacks their ``f(z)``
    along its leading axes.  The result is Hermitian exactly: entry
    ``(i, j)`` and the conjugate of entry ``(j, i)`` are assembled from
    identical floating-point products.
    """
    z = np.asarray(z, dtype=complex)[..., None, None]
    return region.m0 + region.m1 * z + region.m1.T * np.conj(z)


def contains(region: LmiRegion, z) -> bool:
    """Strict membership test: min eigenvalue of ``f(z)`` exceeds the
    scale-aware cushion ``DEFINITE_RTOL * max(1, |f(z)|)``, for every point
    when ``z`` is an array."""
    F = char_fn(region, z)
    tol = DEFINITE_RTOL * np.maximum(1.0, np.linalg.norm(F, 2, axis=(-2, -1)))
    return bool(np.all(np.linalg.eigvalsh(F)[..., 0] > tol))


def matrix_char_fn(region: LmiRegion, A: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Matrix characteristic function ``M0 (x) P + M1 (x) AP + M1^T (x) (AP)^T``.

    Returns a symmetric ``n*m x n*m`` matrix, linear in ``P`` for fixed ``A``.
    Strict feasibility of this matrix together with ``P > 0`` certifies that
    every eigenvalue of ``A`` lies in the region.  Leading stack dimensions
    of ``A`` and ``P`` broadcast, and each item of the stack is the 2-D value
    bit for bit.
    """
    A = np.asarray(A, dtype=float)
    P = np.asarray(P, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    if P.shape[-2:] != A.shape[-2:]:
        raise ValueError(f"P shape {P.shape} does not match A shape {A.shape}")
    AP = A @ P
    # block (a, b) is m0[a, b] P + m1[a, b] AP + m1[b, a] AP^T, the same
    # products and sums as the Kronecker form, broadcast over (..., a, i, b, j)
    m0 = region.m0[:, None, :, None]
    m1 = region.m1[:, None, :, None]
    m1t = region.m1.T[:, None, :, None]
    ix = (..., None, slice(None), None, slice(None))
    blocks = m0 * P[ix] + m1 * AP[ix] + m1t * AP.swapaxes(-1, -2)[ix]
    nm = region.m * A.shape[-1]
    return blocks.reshape(blocks.shape[:-4] + (nm, nm))


def eig_membership(region: LmiRegion, A: np.ndarray) -> bool:
    """Direct spectral oracle: every eigenvalue of ``A`` lies in the region.

    This is the independent check against which semidefinite feasibility is
    validated, so it goes straight through the eigenvalues.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    try:
        eigs = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigenvalue computation failed: {exc}") from exc
    return contains(region, eigs)


def require_pd_weight(weight: np.ndarray) -> None:
    """Raise ``ValueError`` unless the trace weight ``V`` is positive definite."""
    if float(np.min(np.linalg.eigvalsh(weight))) <= 0:
        raise ValueError("weight V must be positive definite")


def require_sound_shift(region: LmiRegion, shift: np.ndarray) -> None:
    """Raise ``ValueError`` unless the square shift ``M`` certifies strict
    feasibility: positive semidefinite, and either positive definite or the
    disk corner block ``[[Q, 0], [0, 0]]`` with ``Q > 0``."""
    min_eig = float(np.min(np.linalg.eigvalsh(shift)))
    if min_eig < -DEFINITE_RTOL * max(1.0, float(np.linalg.norm(shift, 2))):
        raise ValueError("shift M must be positive semidefinite")
    if min_eig <= 0 and not _is_disk_corner_shift(region, shift):
        raise ValueError(
            "semidefinite shift M accepted only in the disk corner-block "
            "form [[Q, 0], [0, 0]] with Q positive definite"
        )


def _is_disk_corner_shift(region: LmiRegion, M: np.ndarray) -> bool:
    # Disk regions admit the semidefinite shift [[Q, 0], [0, 0]] with Q > 0,
    # which still forces strict feasibility (Schur complement argument).
    if region.kind != "disk" or region.m != 2:
        return False
    n = M.shape[0] // 2
    if M.shape[0] != 2 * n:
        return False
    Q = M[:n, :n]
    if np.any(M[n:, :]) or np.any(M[:n, n:]):
        return False
    return float(np.min(np.linalg.eigvalsh(Q))) > 0
