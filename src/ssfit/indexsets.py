"""Sparsity index sets over lower-triangular matrix positions.

An index set is an ordered collection of 1-based positions ``(i, j)`` with
``i >= j`` inside an ``n x n`` matrix.  These sets describe the sparsity
patterns of symmetric matrices and their triangular factors, and they carry
the vectorization and projection operators the rest of the package is built
on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "IndexSet",
    "PatternError",
    "full_lower",
    "diagonal",
    "empty_set",
    "direct_sum",
    "complement",
    "vecs",
    "project_lower",
]

# Relative tolerance used when checking that a matrix passed to vecs() is
# symmetric.  Round-off from matrix products must not trip the check.
SYMMETRY_RTOL = 1e-10


class PatternError(ValueError):
    """Raised for invalid index-set constructions or pattern mismatches."""


@dataclass(frozen=True)
class IndexSet:
    """An ordered set of lower-triangular positions of an ``n x n`` matrix.

    Parameters
    ----------
    n : int
        Matrix dimension.  ``n >= 0`` (zero-dimensional sets are legal).
    entries : tuple of (int, int)
        1-based positions ``(i, j)`` with ``1 <= j <= i <= n``, strictly
        ascending in lexicographic order.
    """

    n: int
    entries: tuple[tuple[int, int], ...]
    _rows0: np.ndarray = field(init=False, repr=False, compare=False)
    _cols0: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise PatternError(f"matrix dimension must be nonnegative, got {self.n}")
        entries = tuple((int(i), int(j)) for i, j in self.entries)
        prev = None
        for i, j in entries:
            if not (1 <= j <= i <= self.n):
                raise PatternError(
                    f"position ({i}, {j}) is not lower-triangular in dimension {self.n}"
                )
            if prev is not None and (i, j) <= prev:
                raise PatternError(
                    f"entries must be strictly ascending, got {prev} then ({i}, {j})"
                )
            prev = (i, j)
        object.__setattr__(self, "entries", entries)
        rows = np.array([i - 1 for i, _ in entries], dtype=np.intp)
        cols = np.array([j - 1 for _, j in entries], dtype=np.intp)
        object.__setattr__(self, "_rows0", rows)
        object.__setattr__(self, "_cols0", cols)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def diag_mask(self) -> np.ndarray:
        """Boolean mask over entries marking diagonal positions."""
        return self._rows0 == self._cols0

    def contains_diagonal(self) -> bool:
        """True when every diagonal position ``(i, i)`` is in the set."""
        return int(np.count_nonzero(self.diag_mask)) == self.n

    def mask(self) -> np.ndarray:
        """Dense boolean ``n x n`` mask of the pattern (lower triangle only)."""
        m = np.zeros((self.n, self.n), dtype=bool)
        m[self._rows0, self._cols0] = True
        return m


def full_lower(n: int) -> IndexSet:
    """Pattern of all lower-triangular positions, ``n(n+1)/2`` entries."""
    if n < 1:
        raise PatternError(f"dimension must be positive, got {n}")
    return IndexSet(n, tuple((i, j) for i in range(1, n + 1) for j in range(1, i + 1)))


def diagonal(n: int) -> IndexSet:
    """Pattern of the ``n`` diagonal positions."""
    if n < 1:
        raise PatternError(f"dimension must be positive, got {n}")
    return IndexSet(n, tuple((i, i) for i in range(1, n + 1)))


def empty_set(n: int = 0) -> IndexSet:
    """Pattern with no entries over dimension ``n``."""
    return IndexSet(n, ())


def direct_sum(first: IndexSet, second: IndexSet) -> IndexSet:
    """Block-diagonal concatenation: ``second`` shifted past ``first``.

    The result lives over dimension ``first.n + second.n`` and contains the
    entries of ``first`` followed by the entries of ``second`` offset by
    ``first.n``.
    """
    shifted = tuple((i + first.n, j + first.n) for i, j in second.entries)
    return IndexSet(first.n + second.n, first.entries + shifted)


def complement(pattern: IndexSet) -> IndexSet:
    """All lower-triangular positions of the same dimension not in ``pattern``."""
    have = set(pattern.entries)
    entries = tuple(
        (i, j)
        for i in range(1, pattern.n + 1)
        for j in range(1, i + 1)
        if (i, j) not in have
    )
    return IndexSet(pattern.n, entries)


def _check_symmetric(S: np.ndarray) -> None:
    scale = max(1.0, float(np.max(np.abs(S))) if S.size else 0.0)
    skew = float(np.max(np.abs(S - S.T))) if S.size else 0.0
    if skew > SYMMETRY_RTOL * scale:
        raise PatternError(
            f"matrix is not symmetric within tolerance (max |S - S^T| = {skew:.3e})"
        )


def vecs(pattern: IndexSet, S: np.ndarray) -> np.ndarray:
    """Vectorize the pattern entries of a symmetric matrix.

    Returns the entries ``S[i, j]`` for ``(i, j)`` in the pattern, in the
    pattern's lexicographic order.
    """
    S = np.asarray(S, dtype=float)
    if S.shape != (pattern.n, pattern.n):
        raise PatternError(
            f"matrix shape {S.shape} does not match pattern dimension {pattern.n}"
        )
    _check_symmetric(S)
    return S[pattern._rows0, pattern._cols0].copy()


def project_lower(pattern: IndexSet, M: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto lower-triangular matrices with this pattern.

    Keeps ``M[i, j]`` for ``(i, j)`` in the pattern and zeroes everything
    else, including the strict upper triangle.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (pattern.n, pattern.n):
        raise PatternError(
            f"matrix shape {M.shape} does not match pattern dimension {pattern.n}"
        )
    out = np.zeros_like(M)
    out[pattern._rows0, pattern._cols0] = M[pattern._rows0, pattern._cols0]
    return out

