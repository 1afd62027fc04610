"""Eigenvalue regions of the complex plane defined by matrix inequalities.

A region is the set of ``z`` where the Hermitian matrix

    f(z) = M0 + M1*z + M1^T*conj(z)

is positive definite, for real generating matrices ``(M0, M1)`` with ``M0``
symmetric.  Such regions are convex and symmetric about the real axis, and
membership of an entire spectrum can be certified by a single semidefinite
system through the matrix characteristic function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LmiRegion",
    "TightenedRegionConstraint",
    "half_plane",
    "left_half_plane",
    "disk",
    "cone",
    "band",
    "intersect",
    "char_fn",
    "contains",
    "matrix_char_fn",
    "eig_membership",
    "membership_margin",
    "tightened_residuals",
]

# Scale-aware cushion for strict definiteness tests: "> 0" is checked as
# min eigenvalue > DEFINITE_RTOL * max(1, norm).
DEFINITE_RTOL = 1e-9


@dataclass(frozen=True)
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
    params: tuple = field(default=(), compare=False)

    def __post_init__(self):
        m0 = np.atleast_2d(np.asarray(self.m0, dtype=float))
        m1 = np.atleast_2d(np.asarray(self.m1, dtype=float))
        if m0.shape != m1.shape or m0.shape[0] != m0.shape[1]:
            raise ValueError(f"generating matrices must be square and matched, "
                             f"got {m0.shape} and {m1.shape}")
        if m0.shape[0] < 1:
            raise ValueError("block dimension must be at least 1")
        if not np.array_equal(m0, m0.T):
            raise ValueError("m0 must be exactly symmetric")
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "m1", m1)

    @property
    def m(self) -> int:
        """Block dimension of the generating matrices."""
        return self.m0.shape[0]


def half_plane(x0: float) -> LmiRegion:
    """Open right half-plane ``Re(z) > x0``."""
    return LmiRegion(np.array([[-2.0 * x0]]), np.array([[1.0]]),
                     kind="half_plane", label=f"half_plane({x0})", params=(x0,))


def left_half_plane(x0: float = 0.0) -> LmiRegion:
    """Open left half-plane ``Re(z) < x0`` (the sign-flipped half-plane)."""
    return LmiRegion(np.array([[2.0 * x0]]), np.array([[-1.0]]),
                     kind="left_half_plane", label=f"left_half_plane({x0})",
                     params=(x0,))


def disk(s: float, x0: float) -> LmiRegion:
    """Open disk ``|z - x0| < s`` centered on the real axis."""
    if s <= 0:
        raise ValueError(f"disk radius must be positive, got {s}")
    m0 = np.array([[s, -x0], [-x0, s]])
    m1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    return LmiRegion(m0, m1, kind="disk", label=f"disk({s}, {x0})", params=(s, x0))


def cone(s: float, x0: float) -> LmiRegion:
    """Open conic sector ``|Im(z)| < s*(Re(z) - x0)``."""
    if s <= 0:
        raise ValueError(f"cone slope must be positive, got {s}")
    m0 = -2.0 * s * x0 * np.eye(2)
    m1 = np.array([[s, 1.0], [-1.0, s]])
    return LmiRegion(m0, m1, kind="cone", label=f"cone({s}, {x0})", params=(s, x0))


def band(s: float) -> LmiRegion:
    """Open horizontal band ``|Im(z)| < s``."""
    if s <= 0:
        raise ValueError(f"band half-width must be positive, got {s}")
    m0 = -2.0 * s * np.eye(2)
    m1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return LmiRegion(m0, m1, kind="band", label=f"band({s})", params=(s,))


def intersect(first: LmiRegion, second: LmiRegion, *rest: LmiRegion) -> LmiRegion:
    """Intersection of regions via the direct sum of their generators."""
    regions = (first, second) + rest
    dims = [r.m for r in regions]
    total = sum(dims)
    m0 = np.zeros((total, total))
    m1 = np.zeros((total, total))
    off = 0
    for r in regions:
        m0[off:off + r.m, off:off + r.m] = r.m0
        m1[off:off + r.m, off:off + r.m] = r.m1
        off += r.m
    label = "intersect(" + ", ".join(r.label or r.kind for r in regions) + ")"
    return LmiRegion(m0, m1, kind="intersect", label=label, params=tuple(regions))


def char_fn(region: LmiRegion, z: complex) -> np.ndarray:
    """Characteristic function ``f(z) = M0 + M1*z + M1^T*conj(z)``.

    The result is Hermitian exactly: entry ``(i, j)`` and the conjugate of
    entry ``(j, i)`` are assembled from identical floating-point products.
    """
    z = complex(z)
    return region.m0 + region.m1 * z + region.m1.T * np.conj(z)


def _definite_tol(F: np.ndarray, tol: float | None) -> float:
    if tol is not None:
        if tol < 0:
            raise ValueError(f"tolerance must be nonnegative, got {tol}")
        return tol
    return DEFINITE_RTOL * max(1.0, float(np.linalg.norm(F, 2)))


def contains(region: LmiRegion, z: complex, tol: float | None = None) -> bool:
    """Strict membership test: min eigenvalue of ``f(z)`` exceeds ``tol``.

    ``tol=None`` uses the scale-aware default cushion.
    """
    F = char_fn(region, z)
    return float(np.min(np.linalg.eigvalsh(F))) > _definite_tol(F, tol)


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


def eig_membership(region: LmiRegion, A: np.ndarray, tol: float | None = None) -> bool:
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
    return all(contains(region, lam, tol) for lam in eigs)


def membership_margin(region: LmiRegion, A: np.ndarray) -> float:
    """Smallest eigenvalue of ``f(lambda)`` over the spectrum of ``A``: positive
    exactly when every eigenvalue lies in the open region."""
    return min(float(np.min(np.linalg.eigvalsh(char_fn(region, lam))))
               for lam in np.linalg.eigvals(A))


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


@dataclass(frozen=True)
class TightenedRegionConstraint:
    """Closed eigenvalue constraint: ``M_D(A, P) >= M``, ``P >= 0``, ``tr(VP) <= 1/eps``.

    Parameters
    ----------
    region : LmiRegion
    shift : ndarray
        Positive semidefinite ``n*m x n*m`` shift ``M``.  A positive definite
        shift always certifies strict feasibility of the underlying region
        system; the only accepted semidefinite shape is the disk-specific
        corner block ``[[Q, 0], [0, 0]]`` with ``Q > 0``.
    weight : ndarray
        Positive definite ``n x n`` trace weight ``V``.
    epsilon : float
        Trace bound parameter, ``tr(VP) <= 1/epsilon``.
    """

    region: LmiRegion
    shift: np.ndarray
    weight: np.ndarray
    epsilon: float

    def __post_init__(self):
        shift = np.asarray(self.shift, dtype=float)
        weight = np.asarray(self.weight, dtype=float)
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if weight.ndim != 2 or weight.shape[0] != weight.shape[1]:
            raise ValueError(f"weight must be square, got shape {weight.shape}")
        require_pd_weight(weight)
        if shift.ndim != 2 or shift.shape[0] != shift.shape[1]:
            raise ValueError(f"shift must be square, got shape {shift.shape}")
        require_sound_shift(self.region, shift)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "weight", weight)

    @property
    def n(self) -> int:
        return self.weight.shape[0]


def tightened_residuals(
    c: TightenedRegionConstraint, A: np.ndarray, P: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Residuals of the tightened system at ``(A, P)``.

    Returns ``(M_D(A, P) - M, P, 1/epsilon - tr(VP))``.  Feasibility means the
    two matrices are positive semidefinite and the scalar is nonnegative.
    """
    A = np.asarray(A, dtype=float)
    P = np.asarray(P, dtype=float)
    if A.shape != (c.n, c.n) or P.shape != (c.n, c.n):
        raise ValueError(
            f"A and P must be {c.n} x {c.n}, got {A.shape} and {P.shape}"
        )
    mat = matrix_char_fn(c.region, A, P)
    if mat.shape != c.shift.shape:
        raise ValueError(
            f"shift shape {c.shift.shape} does not match block shape {mat.shape}"
        )
    slack = 1.0 / c.epsilon - float(np.trace(c.weight @ P))
    return mat - c.shift, P, slack
