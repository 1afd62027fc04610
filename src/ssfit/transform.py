"""Triangular-factor parameterization of sparse semidefinite constraints.

A constrained parameter ``theta = (beta, Sigma)`` with ``Sigma >= H(beta)``
and a coupled inequality ``A(beta, Sigma) >= 0`` is rewritten in terms of
patterned Cholesky factors ``phi = (beta, L_sigma, L_a)``.  The off-pattern
factor entries are eliminated by a forward completion that zeroes the
off-pattern entries of the reconstructed matrix, so the semidefinite
constraints hold by construction and only the pattern entries remain as
decision variables.  What is left of the coupled inequality is a set of
equality constraints in the transformed space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .indexsets import (
    IndexSet,
    PatternError,
    complement,
    project_lower,
    vecs,
)

__all__ = [
    "SingularPivotError",
    "DomainError",
    "FactorPoint",
    "ThetaPoint",
    "ConstraintSystem",
    "complete_factor",
    "reconstruct_q",
    "bmz_forward",
    "bmz_inverse",
    "sigma_factor_tangents",
    "gbmz_forward",
    "gbmz_inverse",
    "GramJacobian",
    "gram_jacobian",
    "transformed_constraints",
    "epsilon_box",
]

# Pivots smaller than this abort the completion instead of producing huge
# entries; the epsilon floor on factor diagonals keeps solves away from it.
PIVOT_MIN = 1e-12


class SingularPivotError(ZeroDivisionError):
    """A completion pivot was too close to zero."""


class DomainError(ValueError):
    """A point lies outside the domain of a factor transform."""


@dataclass(frozen=True)
class FactorPoint:
    """Transformed parameters ``(beta, L_sigma, L_a)``.

    ``L_sigma`` and ``L_a`` are lower-triangular with entries only on their
    declared patterns.  Strictly positive factor diagonals place the point in
    the open transformed domain.
    """

    beta: np.ndarray
    L_sigma: np.ndarray
    L_a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float).ravel())
        object.__setattr__(self, "L_sigma", np.asarray(self.L_sigma, dtype=float))
        object.__setattr__(self, "L_a", np.asarray(self.L_a, dtype=float))


@dataclass(frozen=True)
class ThetaPoint:
    """Original parameters ``(beta, Sigma)`` with ``Sigma`` patterned symmetric."""

    beta: np.ndarray
    Sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float).ravel())
        object.__setattr__(self, "Sigma", np.asarray(self.Sigma, dtype=float))


def complete_factor(pattern: IndexSet, L_on: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Solve for the off-pattern factor entries by forward completion.

    Given ``L_on`` lower-triangular on ``pattern`` (which must contain the
    diagonal) and symmetric ``H``, computes the unique ``L_off`` on the
    complementary pattern such that ``H + (L_on + L_off)(L_on + L_off)^T``
    has zeros at every off-pattern position.  Entries are computed in
    ascending lexicographic order:

        L_off[i, j] = -(H[i, j] + sum_k<j L[i, k] * L[j, k]) / L[j, j]

    with ``L = L_on + L_off``.

    Raises
    ------
    PatternError
        If the pattern does not contain the diagonal.
    SingularPivotError
        If a pivot ``L[j, j]`` has magnitude below ``PIVOT_MIN``.
    """
    n = pattern.n
    L_on = np.asarray(L_on, dtype=float)
    H = np.asarray(H, dtype=float)
    if L_on.shape != (n, n) or H.shape != (n, n):
        raise PatternError(
            f"expected {n} x {n} matrices, got {L_on.shape} and {H.shape}"
        )
    if not pattern.contains_diagonal():
        raise PatternError("pattern must contain every diagonal position")

    off = complement(pattern)
    L_off = np.zeros((n, n))
    if len(off) == 0:
        return L_off

    L = L_on.copy()
    for i1, j1 in off.entries:
        i, j = i1 - 1, j1 - 1
        pivot = L[j, j]
        if abs(pivot) < PIVOT_MIN:
            raise SingularPivotError(
                f"completion pivot L[{j1}, {j1}] = {pivot:.3e} is numerically singular"
            )
        acc = H[i, j] + float(np.dot(L[i, :j], L[j, :j]))
        value = -acc / pivot
        L_off[i, j] = value
        L[i, j] += value
    return L_off


def completion_is_trivial(pattern: IndexSet) -> bool:
    """True when the zero-shift completion is identically zero.

    Holds when no two pattern rows share a column strictly left of an
    off-pattern position (block-diagonal patterns in particular), so the
    completion sums vanish by induction.
    """
    mask = pattern.mask()
    for i1, j1 in complement(pattern).entries:
        i, j = i1 - 1, j1 - 1
        if np.any(mask[i, :j] & mask[j, :j]):
            return False
    return True


def reconstruct_q(H: np.ndarray, L_on: np.ndarray, L_off: np.ndarray) -> np.ndarray:
    """Rebuild ``Q = H + (L_on + L_off)(L_on + L_off)^T``, symmetrized exactly."""
    H = np.asarray(H, dtype=float)
    L_on = np.asarray(L_on, dtype=float)
    L_off = np.asarray(L_off, dtype=float)
    if H.shape != L_on.shape or H.shape != L_off.shape:
        raise PatternError(
            f"shape mismatch: H {H.shape}, L_on {L_on.shape}, L_off {L_off.shape}"
        )
    L = L_on + L_off
    Q = H + L @ L.T
    return 0.5 * (Q + Q.T)


def _chol(S: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"{what} is not positive definite") from exc


def bmz_forward(
    x: np.ndarray,
    L_on: np.ndarray,
    H_of: Callable[[np.ndarray], np.ndarray],
    pattern: IndexSet,
) -> tuple[np.ndarray, np.ndarray]:
    """Simple factor substitution: ``(x, L_on) -> (x, Q(H(x), L_on))``.

    The result satisfies ``Q > H(x)`` and has zeros at off-pattern positions.
    """
    x = np.asarray(x, dtype=float).ravel()
    H = np.asarray(H_of(x), dtype=float)
    L_off = complete_factor(pattern, L_on, H)
    return x, reconstruct_q(H, L_on, L_off)


def bmz_inverse(
    x: np.ndarray,
    Q: np.ndarray,
    H_of: Callable[[np.ndarray], np.ndarray],
    pattern: IndexSet,
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse substitution: project the Cholesky factor of ``Q - H(x)``."""
    x = np.asarray(x, dtype=float).ravel()
    Q = np.asarray(Q, dtype=float)
    H = np.asarray(H_of(x), dtype=float)
    L = _chol(Q - H, "Q - H(x)")
    return x, project_lower(pattern, L)


@dataclass(frozen=True)
class ConstraintSystem:
    """Immutable description of a constrained parameter domain.

    Bundles the pieces that define the original parameter set: the vector
    dimension ``n_beta``, the pattern and lower shift of ``Sigma``, the
    coupled semidefinite map ``psd_fn`` with its pattern, and the plain
    equality/inequality constraint functions.  Every transform, constraint
    evaluation, and bound vector is derived from this one object.

    Parameters
    ----------
    n_beta : int
        Length of the unconstrained parameter vector.
    pattern_sigma : IndexSet
        Sparsity pattern of ``Sigma`` (must contain the diagonal).
    pattern_a : IndexSet
        Sparsity pattern of the coupled map's value (must contain the
        diagonal, may have dimension zero when there is no coupled block).
    shift_fn : callable or None
        ``beta -> H(beta)`` symmetric with the Sigma pattern; ``None`` means
        identically zero.
    psd_fn : callable or None
        ``(beta, Sigma) -> A(beta, Sigma)`` symmetric with the A pattern;
        required when ``pattern_a`` is nonempty in dimension.
    eq_fn, ineq_fn : callable or None
        Plain constraints ``g(beta, Sigma) = 0`` and ``h(beta, Sigma) <= 0``.
    n_eq, n_ineq : int
        Declared output lengths of ``eq_fn`` and ``ineq_fn``.
    """

    n_beta: int
    pattern_sigma: IndexSet
    pattern_a: IndexSet
    shift_fn: Callable[[np.ndarray], np.ndarray] | None = None
    psd_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    eq_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    ineq_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    n_eq: int = 0
    n_ineq: int = 0

    def __post_init__(self):
        if self.n_beta < 0:
            raise ValueError("n_beta must be nonnegative")
        if self.pattern_sigma.n > 0 and not self.pattern_sigma.contains_diagonal():
            raise PatternError("Sigma pattern must contain the diagonal")
        if self.pattern_a.n > 0 and not self.pattern_a.contains_diagonal():
            raise PatternError("A pattern must contain the diagonal")
        if self.pattern_a.n > 0 and self.psd_fn is None:
            raise ValueError("psd_fn required when the A pattern is nonempty")
        object.__setattr__(self, "_sigma_trivial",
                           self.shift_fn is None
                           and completion_is_trivial(self.pattern_sigma))
        object.__setattr__(self, "_a_trivial",
                           completion_is_trivial(self.pattern_a)
                           if self.pattern_a.n > 0 else True)

    @property
    def n_sigma(self) -> int:
        return self.pattern_sigma.n

    @property
    def n_a(self) -> int:
        return self.pattern_a.n

    @property
    def dim(self) -> int:
        """Length of the packed decision vector."""
        return self.n_beta + len(self.pattern_sigma) + len(self.pattern_a)

    def shift(self, beta: np.ndarray) -> np.ndarray:
        if self.shift_fn is None:
            return np.zeros((self.n_sigma, self.n_sigma))
        return np.asarray(self.shift_fn(beta), dtype=float)

    def pack(self, phi: FactorPoint) -> np.ndarray:
        """Flatten a factor point into a decision vector."""
        ps, pa = self.pattern_sigma, self.pattern_a
        return np.concatenate([
            phi.beta,
            phi.L_sigma[ps._rows0, ps._cols0],
            phi.L_a[pa._rows0, pa._cols0],
        ])

    def unpack(self, x: np.ndarray) -> FactorPoint:
        """Rebuild a factor point from a decision vector."""
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dim:
            raise ValueError(f"decision vector length {x.size}, expected {self.dim}")
        nb, ks = self.n_beta, len(self.pattern_sigma)
        beta = x[:nb]
        L_sigma = np.zeros((self.n_sigma, self.n_sigma))
        ps = self.pattern_sigma
        L_sigma[ps._rows0, ps._cols0] = x[nb:nb + ks]
        L_a = np.zeros((self.n_a, self.n_a))
        pa = self.pattern_a
        L_a[pa._rows0, pa._cols0] = x[nb + ks:]
        return FactorPoint(beta, L_sigma, L_a)

    def diag_positions(self) -> np.ndarray:
        """Indices of factor-diagonal coordinates in the packed vector."""
        nb, ks = self.n_beta, len(self.pattern_sigma)
        pos_sigma = nb + np.flatnonzero(self.pattern_sigma.diag_mask)
        pos_a = nb + ks + np.flatnonzero(self.pattern_a.diag_mask)
        return np.concatenate([pos_sigma, pos_a]).astype(np.intp)


def sigma_factor_tangents(
    system: ConstraintSystem, L_sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The completed Sigma factor ``L`` of a zero-shift system and its
    tangents ``dL[k]`` along each pattern entry ``k`` of ``L_sigma``.

    A tangent is the unit at its entry plus, for a non-trivial completion,
    the derivatives of the completed entries, taken in the completion's own
    order (forward-mode differentiation of :func:`complete_factor`).
    """
    if system.shift_fn is not None:
        raise ValueError("Sigma factor tangents need a zero shift")
    ps, n = system.pattern_sigma, system.n_sigma
    dL = np.zeros((len(ps), n, n))
    dL[np.arange(len(ps)), ps._rows0, ps._cols0] = 1.0
    if getattr(system, "_sigma_trivial", False):
        return L_sigma, dL
    L = L_sigma + complete_factor(ps, L_sigma, np.zeros((n, n)))
    for i1, j1 in complement(ps).entries:
        i, j = i1 - 1, j1 - 1
        dacc = dL[:, i, :j] @ L[j, :j] + dL[:, j, :j] @ L[i, :j]
        dL[:, i, j] = -(dacc + L[i, j] * dL[:, j, j]) / L[j, j]
    return L, dL


def gbmz_forward(
    phi: FactorPoint, system: ConstraintSystem
) -> tuple[ThetaPoint, np.ndarray]:
    """Map a factor point to the original space.

    Returns ``theta = (beta, Sigma)`` with ``Sigma = H(beta) + L L^T`` built
    from the completed Sigma factor, together with the completed coupled
    block ``A_T = (L_a + L_a_off)(L_a + L_a_off)^T``.
    """
    H = system.shift(phi.beta)
    if getattr(system, "_sigma_trivial", False):
        L_off = np.zeros_like(phi.L_sigma)
    else:
        L_off = complete_factor(system.pattern_sigma, phi.L_sigma, H)
    Sigma = reconstruct_q(H, phi.L_sigma, L_off)
    if system.n_a > 0:
        Ha = np.zeros((system.n_a, system.n_a))
        if getattr(system, "_a_trivial", False):
            La_off = np.zeros_like(phi.L_a)
        else:
            La_off = complete_factor(system.pattern_a, phi.L_a, Ha)
        A_T = reconstruct_q(Ha, phi.L_a, La_off)
    else:
        A_T = np.zeros((0, 0))
    return ThetaPoint(phi.beta, Sigma), A_T


def gbmz_inverse(theta: ThetaPoint, system: ConstraintSystem) -> FactorPoint:
    """Map a strictly feasible original point to the factor space.

    Requires ``Sigma > H(beta)`` and, when a coupled block is present,
    ``A(beta, Sigma) > 0``; raises :class:`DomainError` naming the block
    that fails.
    """
    H = system.shift(theta.beta)
    L = _chol(theta.Sigma - H, "Sigma - H(beta)")
    L_sigma = project_lower(system.pattern_sigma, L)
    if system.n_a > 0:
        Amat = np.asarray(system.psd_fn(theta.beta, theta.Sigma), dtype=float)
        La = _chol(Amat, "A(beta, Sigma)")
        L_a = project_lower(system.pattern_a, La)
    else:
        L_a = np.zeros((0, 0))
    return FactorPoint(theta.beta, L_sigma, L_a)


def transformed_constraints(
    phi: FactorPoint, system: ConstraintSystem
) -> tuple[np.ndarray, np.ndarray]:
    """Equality and inequality residuals in the transformed space.

    The equality vector stacks ``g`` evaluated at the mapped point with the
    pattern entries of ``A(beta, Sigma) - A_T``; the inequality vector is
    ``h`` at the mapped point.
    """
    theta, A_T = gbmz_forward(phi, system)
    parts = []
    if system.eq_fn is not None:
        g = np.asarray(system.eq_fn(theta.beta, theta.Sigma), dtype=float).ravel()
        if g.size != system.n_eq:
            raise ValueError(f"eq_fn returned length {g.size}, declared {system.n_eq}")
        parts.append(g)
    if system.n_a > 0:
        Amat = np.asarray(system.psd_fn(theta.beta, theta.Sigma), dtype=float)
        parts.append(vecs(system.pattern_a, 0.5 * (Amat + Amat.T) - A_T))
    g_t = np.concatenate(parts) if parts else np.zeros(0)
    if system.ineq_fn is not None:
        h_t = np.asarray(system.ineq_fn(theta.beta, theta.Sigma), dtype=float).ravel()
        if h_t.size != system.n_ineq:
            raise ValueError(
                f"ineq_fn returned length {h_t.size}, declared {system.n_ineq}"
            )
    else:
        h_t = np.zeros(0)
    return g_t, h_t


def epsilon_box(system: ConstraintSystem, epsilon: float) -> np.ndarray:
    """Lower bounds on the packed vector: factor diagonals at ``epsilon``.

    Every coordinate that is a factor diagonal gets the bound ``epsilon``;
    all other coordinates are unbounded below.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    lb = np.full(system.dim, -np.inf)
    lb[system.diag_positions()] = epsilon
    return lb


@dataclass(frozen=True)
class GramJacobian:
    """Sparse Jacobian of ``vecs(pattern, L L^T)`` in the pattern entries of ``L``.

    Along pattern entry ``(i, j)`` of ``L`` the derivative of ``L L^T`` is
    ``e_i c^T + c e_i^T`` with ``c = L[:, j]``; its lower entry
    ``(max(k, i), min(k, i))`` is ``L[k, j]``, doubled on the diagonal
    ``k = i``.  Table entry ``t`` places ``L[src_rows[t], src_cols[t]] *
    scale[t]`` at Jacobian row ``rows[t]`` (a pattern position) and column
    ``cols[t]`` (a pattern entry of ``L``).  Entries that fall off the
    pattern are left out, and no position repeats.
    """

    rows: np.ndarray
    cols: np.ndarray
    src_rows: np.ndarray
    src_cols: np.ndarray
    scale: np.ndarray

    def values(self, L: np.ndarray) -> np.ndarray:
        """Jacobian values at the factor ``L`` (patterned lower-triangular)."""
        return L[self.src_rows, self.src_cols] * self.scale


def gram_jacobian(pattern: IndexSet) -> GramJacobian:
    """Index tables of :class:`GramJacobian` for one pattern."""
    n, size = pattern.n, len(pattern)
    pos = np.full((n, n), -1, dtype=np.intp)
    pos[pattern._rows0, pattern._cols0] = np.arange(size)
    i = pattern._rows0[:, None]
    j = pattern._cols0[:, None]
    k = np.arange(n)[None, :]
    shape = (size, n)
    rows = pos[np.maximum(k, i), np.minimum(k, i)]
    keep = (rows >= 0) & (pos[k, j] >= 0)
    cols = np.broadcast_to(np.arange(size)[:, None], shape)
    src_rows = np.broadcast_to(k, shape)
    src_cols = np.broadcast_to(j, shape)
    scale = np.where(k == i, 2.0, 1.0)
    return GramJacobian(rows[keep], cols[keep], src_rows[keep],
                        src_cols[keep], scale[keep])
