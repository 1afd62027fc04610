"""Trace-minimization feasibility oracle for eigenvalue regions.

The barrier value of a matrix ``A`` against a region is

    phi(A) = min tr(V P)  subject to  M_D(A, P) >= M,  P >= h0 I

which is finite exactly when the spectrum of ``A`` lies in the region, and
whose sublevel sets ``phi(A) <= 1/eps`` are the closed tightened constraint
sets.  ``h0`` is zero, or ``RELAXED_P_FLOOR`` for the relaxed system
``M = 0``.  The program is linear in ``P``, so each query is one small
semidefinite program in ``y = svec(P)``.  When an eigenvalue of ``A`` lies
outside the region, its eigenvectors give a Farkas ray of the program in
closed form (Chilali and Gahinet 1996), which answers the query when it
passes the solve's own Farkas test.  Otherwise the program is solved by a
primal-dual interior-point method (Mehrotra predictor-corrector with the HKM
direction and SDPT3's infeasible start; Todd, Toh and Tutuncu 1998).  Its
answer carries two certificates recomputed from the iterates: the value is
``tr(V P)`` of a ``P`` whose two slacks pass Cholesky in the query's own
coordinates, and the lower bound is the objective of a dual point made
exactly feasible by scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .nlp import SolveReport
from .regions import (LmiRegion, block_diag, char_fn, matrix_char_fn,
                      require_pd_weight, require_sound_shift)

# ``solve`` is public as ``oracle.solve``; ``ssfit.solve`` is ``nlp.solve``
__all__ = ["BarrierQuery", "BarrierResult", "SdpProblem", "barrier_solve"]

# Floor on P (as P >= floor * I) used for the relaxed system M = 0, where
# plain semidefinite feasibility would be trivially satisfied by P = 0.
RELAXED_P_FLOOR = 1.0

# Interior-point stopping tests on the normalized program: relative gap and
# both residuals below STOP_TOL, or a dual iterate that is a Farkas ray to
# FARKAS_TOL; at most MAX_ITER iterations.
STOP_TOL = 1e-9
FARKAS_TOL = 1e-8
MAX_ITER = 50

# A query is converged when its value is within GAP_TOL (relative) of its
# lower bound.  Its coordinates must keep their round-off below that:
# cond(T T^T) * eps <= GAP_TOL.
GAP_TOL = 1e-6


@dataclass(frozen=True)
class BarrierQuery:
    """One trace-minimization query.

    Parameters
    ----------
    region : LmiRegion
    a_mat : ndarray
        The square matrix whose spectrum is being tested.
    shift : ndarray or float
        The semidefinite shift ``M`` (a scalar ``s`` means ``s * I``).  A
        nonzero shift must pass :func:`regions.require_sound_shift`.  A zero
        shift selects the relaxed system, which is posed with the floor
        ``P >= I`` so that ``P = 0`` cannot satisfy it vacuously.
    weight : ndarray or None
        Trace weight ``V``, identity by default.
    """

    region: LmiRegion
    a_mat: np.ndarray
    shift: np.ndarray | float
    weight: np.ndarray | None = None

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.a_mat, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        nm = n * self.region.m
        shift = float(self.shift) * np.eye(nm) if np.isscalar(self.shift) \
            else np.asarray(self.shift, dtype=float)
        if shift.shape != (nm, nm):
            raise ValueError(f"shift must be {nm} x {nm}, got {shift.shape}")
        if np.any(shift):
            require_sound_shift(self.region, shift)
        weight = np.eye(n) if self.weight is None \
            else np.asarray(self.weight, dtype=float)
        if weight.shape != (n, n):
            raise ValueError(f"weight must be {n} x {n}, got {weight.shape}")
        require_pd_weight(weight)
        object.__setattr__(self, "a_mat", A)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "weight", weight)

    @property
    def n(self) -> int:
        return self.a_mat.shape[0]


@dataclass(frozen=True)
class BarrierResult:
    """Value, certificate and lower bound of one barrier solve.

    ``value`` is ``tr(V P)`` for ``P = p_matrix`` (``inf`` and ``None`` when
    no iterate was certified), and ``lower_bound <= phi(A)`` holds whatever
    the solve's residuals.  ``report.status`` is ``converged`` when the two
    are within ``GAP_TOL`` of each other, ``infeasible`` when no ``P`` was
    certified and the dual iterates ended on a Farkas ray, and ``max-iter``
    otherwise.
    """

    value: float
    p_matrix: np.ndarray | None
    report: SolveReport
    lower_bound: float

    def verdict(self, epsilon: float) -> str:
        """``inside`` the tightened set ``phi(A) <= 1/epsilon`` when ``value``
        is (up to solver slack), ``outside`` when ``lower_bound`` exceeds
        ``1/epsilon`` (a Farkas ray gives ``inf``), else ``undecided``."""
        if not epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if self.value <= (1.0 / epsilon) * (1.0 + 1e-6):
            return "inside"
        return "outside" if self.lower_bound > 1.0 / epsilon else "undecided"


@dataclass(frozen=True)
class SdpProblem:
    """``min c^T y`` subject to ``F(y) - F_0 >= 0``, ``F(y) = sum_i y_i F_i``.

    ``blocks`` stacks the symmetric ``F_i`` as ``(k, d, d)``; ``f0`` is
    ``F_0`` and ``c`` has length ``k``.  The dual is ``max tr(F_0 X)``
    subject to ``F*(X) = c``, ``X >= 0``, with ``F*(X)_i = tr(F_i X)``.
    """

    blocks: np.ndarray
    f0: np.ndarray
    c: np.ndarray

    # the callables of an NlpProblem, which an SDP has none of: code that
    # wraps them on whatever ``solve`` receives (the benchmark's tracer)
    # finds nothing to wrap
    objective = gradient = equality = equality_jacobian = inequality = \
        inequality_jacobian = None


def _max_step(Li: np.ndarray, dX: np.ndarray) -> float:
    """Largest ``a`` with ``X + a dX >= 0``, for ``X > 0`` whose inverse
    Cholesky factor is ``Li``."""
    lam = float(np.linalg.eigvalsh(Li @ dX @ Li.T)[0])
    return np.inf if lam >= 0 else -1.0 / lam


def _farkas(FX: np.ndarray, dobj: float) -> bool:
    """Whether a dual point ``X >= 0`` with ``F*(X) = FX`` and objective
    ``dobj = tr(F_0 X) / |F_0|`` is a Farkas ray to ``FARKAS_TOL``."""
    return dobj > 0 and float(np.linalg.norm(FX)) <= FARKAS_TOL * dobj


def solve(problem: SdpProblem, y0: np.ndarray, observe) -> SolveReport:
    """Primal-dual path-following solve of one :class:`SdpProblem`.

    ``F_0`` and ``c`` are scaled to unit norm, and the path starts from
    ``(y0, S = eta I, X = xi I)`` with SDPT3's scale factors.  Each
    iteration solves a predictor and a corrector HKM direction through one
    Cholesky factor of the ``k x k`` Schur complement
    ``H_ij = tr(F_i X F_j S^-1)``, and steps ``y, S`` and ``X`` separately
    to a fraction of the distance to the boundary; both step lengths of
    ``S`` (and of ``X``) use one inverse Cholesky factor per iteration.
    ``observe(y, X)`` sees every iterate in the problem's own units.  The
    status is ``converged`` when the relative gap and both residuals are
    below ``STOP_TOL``, ``infeasible`` when ``X`` is a Farkas ray
    (:func:`_farkas`: ``tr(F_0 X) > 0`` with
    ``|F*(X)| <= FARKAS_TOL tr(F_0 X) / |F_0|``, the test a closed-form ray
    of :func:`barrier_solve` passes before any iteration), and ``max-iter``
    when neither holds after ``MAX_ITER`` iterations or a factorization
    fails first.  One loop: ``outer_iterations`` equals ``iterations``.
    """
    k, d, _ = problem.blocks.shape
    F = problem.blocks.reshape(k, d * d)
    f0_norm = float(np.linalg.norm(problem.f0))
    c_norm = float(np.linalg.norm(problem.c))
    F0 = problem.f0 / f0_norm
    c = problem.c / c_norm
    norms = np.linalg.norm(F, axis=1)
    xi = max(10.0, np.sqrt(d),
             np.sqrt(d) * float(np.max((1.0 + np.abs(c)) / (1.0 + norms))))
    eta = max(10.0, np.sqrt(d), float(np.max(norms)))
    y = np.asarray(y0, dtype=float) / f0_norm
    X = xi * np.eye(d)
    S = eta * np.eye(d)
    status = "max-iter"
    for it in range(MAX_ITER + 1):
        observe(f0_norm * y, c_norm * X)
        Rp = (y @ F).reshape(d, d) - F0 - S
        FX = F @ X.ravel()
        pobj, dobj = float(c @ y), float(np.sum(F0 * X))
        p_res = float(np.linalg.norm(Rp)) / 2.0
        d_res = float(np.linalg.norm(c - FX)) / 2.0
        if max(abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)),
               p_res, d_res) < STOP_TOL:
            status = "converged"
            break
        if _farkas(FX, dobj):
            status = "infeasible"
            break
        if it == MAX_ITER:
            break
        try:
            Si = np.linalg.inv(S)
            # inverse Cholesky factors of S and X, shared by both steps
            Ls = np.linalg.inv(np.linalg.cholesky(S))
            Lx = np.linalg.inv(np.linalg.cholesky(X))
            H = F @ (X @ problem.blocks @ Si).reshape(k, d * d).T
            L = np.linalg.cholesky(0.5 * (H + H.T))

            def direction(R):
                # R holds the S^-1 terms of the complementarity target
                r = F @ (R - X @ Rp @ Si).ravel() - c
                dy = np.linalg.solve(L.T, np.linalg.solve(L, r))
                dS = (dy @ F).reshape(d, d) + Rp
                dX = R - X - X @ dS @ Si
                return dy, dS, 0.5 * (dX + dX.T)

            dy, dS, dX = direction(np.zeros((d, d)))
            a_p = min(1.0, _max_step(Ls, dS))
            a_d = min(1.0, _max_step(Lx, dX))
            mu = float(np.sum(X * S)) / d
            mu_aff = float(np.sum((X + a_d * dX) * (S + a_p * dS))) / d
            sigma = min(1.0, max(0.0, mu_aff / mu)
                        ** max(1.0, 3.0 * min(a_p, a_d) ** 2))
            gamma = 0.9 + 0.09 * min(a_p, a_d)
            dy, dS, dX = direction(sigma * mu * Si - dX @ dS @ Si)
            a_p = min(1.0, gamma * _max_step(Ls, dS))
            a_d = min(1.0, gamma * _max_step(Lx, dX))
        except np.linalg.LinAlgError:
            break
        y = y + a_p * dy
        S = S + a_p * dS
        S = 0.5 * (S + S.T)
        X = X + a_d * dX
        X = 0.5 * (X + X.T)
    return SolveReport(
        x_star=f0_norm * y, f_star=f0_norm * c_norm * pobj,
        eq_residual_inf=f0_norm * float(np.max(np.abs(Rp))),
        in_violation_inf=0.0,
        stationarity_inf=c_norm * float(np.max(np.abs(c - FX))),
        iterations=it, outer_iterations=it, status=status)


def _svec_basis(n: int) -> np.ndarray:
    """Orthonormal basis ``(k, n, n)`` of the symmetric matrices: ``P`` is
    ``sum_i y_i E_i`` for ``y = svec(P)``."""
    rows, cols = np.tril_indices(n)
    k = rows.size
    E = np.zeros((k, n, n))
    w = np.where(rows == cols, 1.0, np.sqrt(0.5))
    E[np.arange(k), rows, cols] = w
    E[np.arange(k), cols, rows] = w
    return E


def _definite(S: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(S)
        return True
    except np.linalg.LinAlgError:
        return False


def _balance(A: np.ndarray) -> np.ndarray:
    """Scale vector ``d`` of LAPACK ``dgebal``'s scaling pass (job ``'S'``):
    ``diag(d)^-1 A diag(d)`` has rows and columns of comparable 2-norm, each
    ``d_i`` is a power of 2, and a zero row or column is left unscaled."""
    if not np.all(np.isfinite(A)):
        raise ValueError("array must not contain infs or NaNs")
    A = np.array(A, dtype=float)
    sfmin1 = np.finfo(float).tiny / np.finfo(float).eps
    sfmin2, sfmax1, sfmax2 = 2 * sfmin1, 1 / sfmin1, 0.5 / sfmin1
    d, converged = np.ones(A.shape[0]), False
    while not converged:
        converged = True
        for i in range(d.size):
            c, r = np.hypot.reduce(A[:, i]), np.hypot.reduce(A[i])
            ca, ra = np.max(np.abs(A[:, i])), np.max(np.abs(A[i]))
            if c == 0.0 or r == 0.0:
                continue
            f, g, s = 1.0, r / 2, c + r
            while c < g and max(f, c, ca) < sfmax2 and min(r, g, ra) > sfmin2:
                f, c, ca, r, g, ra = 2 * f, 2 * c, 2 * ca, r / 2, g / 2, ra / 2
            g = c / 2
            while g >= r and max(r, ra) < sfmax2 and min(f, c, g, ca) > sfmin2:
                f, c, g, ca, r, ra = f / 2, c / 2, g / 2, ca / 2, 2 * r, 2 * ra
            if (c + r >= 0.95 * s or (f < 1 and d[i] < 1 and f * d[i] <= sfmin1)
                    or (f > 1 and d[i] > 1 and d[i] >= sfmax1 / f)):
                continue
            d[i] *= f
            converged = False
            A[i] *= 1.0 / f
            A[:, i] *= f
    return d


def _coordinates(query: BarrierQuery):
    """Congruence ``T`` of the solve, and an eigenpair outside the region.

    The solve works on ``P'`` with ``P = T P' T^T``.  With eigenvectors
    ``u_i`` of ``A``, ``P = sum_i c_i u_i u_i^H`` makes ``M_D(A, P)``
    congruent to the block diagonal of the ``c_i f(lambda_i)``, so the modal
    Gram matrix with ``c_i = 1 / |lambda_min(f(lambda_i))|`` is close to the
    optimum in shape, and under its Cholesky factor ``T`` the solve sees a
    ``P'`` near the identity, however widely the optimum's eigenvalues are
    spread.  The factor serves when ``cond(T T^T) * eps <= GAP_TOL``.  A
    nearly defective ``A``, or an eigenvalue on the region's boundary, fails
    that, and the diagonal balancing of ``A`` (:func:`_balance`) is ``T``
    instead.

    The second output is ``None`` when every ``lambda_min(f(lambda_i))`` is
    positive.  Otherwise it is ``(w, v, mu)`` for the eigenvalue with the
    smallest: its left eigenvector ``w`` (``w^H A = lambda w^H``), and the
    unit ``v`` with ``v^H f(lambda) v = mu <= 0``, the data of
    :func:`_certified_ray`.
    """
    A = query.a_mat
    T = outside = None
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            lam, U = np.linalg.eig(A)
            F = char_fn(query.region, lam)
            f_min = np.linalg.eigvalsh(F)[:, 0]
            i = int(np.argmin(f_min))
            if f_min[i] <= 0:
                mu, v = np.linalg.eigh(F[i])
                if mu[0] <= 0:
                    w = np.linalg.solve(U.conj().T, np.eye(lam.size)[i])
                    outside = w, v[:, 0], float(mu[0])
            G = np.real((U / np.abs(f_min)) @ U.conj().T)
            G = 0.5 * (G + G.T)
            if np.linalg.cond(G) * np.finfo(float).eps <= GAP_TOL:
                T = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        pass
    if T is None:
        T = np.diag(_balance(A))
    return T, outside


def _certified_ray(problem: SdpProblem, w: np.ndarray, v: np.ndarray,
                   mu: float) -> bool:
    """Whether the closed-form ray of an eigenvalue outside the region
    passes :func:`solve`'s Farkas test on ``problem``.

    ``w`` is a left eigenvector of the program's ``A'`` for ``lambda``, and
    ``v`` a unit vector with ``v^H f(lambda) v = mu <= 0``.  For every
    ``P``, ``z = v (x) w`` gives ``z^H M_D(A', P) z = mu w^H P w``, so
    ``X = blkdiag(Re z z^H, -mu Re w w^H) >= 0`` has ``F*(X) = 0``; it is a
    ray when ``tr(F_0 X) > 0`` (the necessity half of Chilali and Gahinet
    1996).  Round-off in ``w`` (a nearly defective ``A``) or ``mu = 0`` with
    ``M = 0`` fails the test.
    """
    with np.errstate(invalid="ignore"):
        w = w / np.max(np.abs(w))
        z = np.kron(v, w)
        X = block_diag(np.real(np.outer(z, z.conj())),
                       -mu * np.real(np.outer(w, w.conj())))
        k, d, _ = problem.blocks.shape
        FX = problem.blocks.reshape(k, d * d) @ X.ravel()
        dobj = float(np.sum(problem.f0 * X)) \
            / float(np.linalg.norm(problem.f0))
    return _farkas(FX, dobj)


def barrier_solve(query: BarrierQuery) -> BarrierResult:
    """Solve one query as one semidefinite program in ``P``.

    The program is posed under the congruence of :func:`_coordinates`:
    ``tr(V' P')`` subject to ``M_D(T^-1 A T, P') >= M'`` and
    ``P' >= h0 T^-1 T^-T``, with ``V' = T^T V T`` and
    ``M' = (I x T)^-1 M (I x T)^-T``.  When ``A`` has an eigenvalue outside
    the region and its closed-form ray, built from the left eigenvector
    ``T^T w`` of ``T^-1 A T``, passes :func:`_certified_ray`, the query is
    answered without an iteration: ``value`` and ``lower_bound`` are
    ``inf``, ``p_matrix`` is ``None`` and the status is ``infeasible``.  Any
    other query goes to :func:`solve`.  Its iterates are certified after
    the solve, in the query's own coordinates and in ascending order of
    trace: the returned value is ``tr(V P)`` of the least-trace ``P`` (the
    earliest on ties) whose ``M_D(A, P) - M`` and ``P - h0 I`` pass
    Cholesky, else (when ``M != 0``) the last ``P`` scaled by
    ``1 + GAP_TOL/2`` if it passes, or ``inf``.  Every dual iterate
    ``X = blkdiag(Z, W)`` gives a lower bound: for ``Z >= 0`` and
    ``0 <= t <= 1 / lambda_max(V'^-1/2 M_D*(Z) V'^-1/2)``,
    ``(t Z, V' - t M_D*(Z))`` is a dual feasible point, whose objective
    ``t tr(M' Z) + tr((V' - t M_D*(Z)) h0 T^-1 T^-T)`` is at most
    ``phi(A)``.  It is linear in ``t``, so the better end is taken, and the
    largest bound over the iterates is returned.
    """
    region, A, M, V = query.region, query.a_mat, query.shift, query.weight
    n, nm = query.n, query.n * region.m
    h0 = 0.0 if np.any(M) else RELAXED_P_FLOOR
    T, outside = _coordinates(query)
    Ti = np.linalg.inv(T)
    Ki = np.kron(np.eye(region.m), Ti)
    basis = _svec_basis(n)
    Mt = Ki @ M @ Ki.T
    Mt = 0.5 * (Mt + Mt.T)
    floor = h0 * (Ti @ Ti.T)
    floor = 0.5 * (floor + floor.T)
    Vt = T.T @ V @ T
    problem = SdpProblem(
        blocks=block_diag(matrix_char_fn(region, Ti @ A @ T, basis), basis),
        f0=block_diag(Mt, floor), c=np.einsum("ij,kij->k", Vt, basis))
    if outside is not None and _certified_ray(problem, T.T @ outside[0],
                                              *outside[1:]):
        report = SolveReport(
            x_star=np.zeros(len(basis)), f_star=0.0,
            eq_residual_inf=np.inf, in_violation_inf=0.0,
            stationarity_inf=0.0, iterations=0, outer_iterations=0,
            status="infeasible")
        return BarrierResult(np.inf, None, report, np.inf)
    iterates = []
    report = solve(problem, np.zeros(len(basis)),
                   lambda y, X: iterates.append((y, X[:nm, :nm])))
    # every iterate at once: each stacked product, sum and eigensolver
    # below makes per iterate the call that a loop over them would make,
    # so the certificates keep the bits of per-iterate ones
    svec = basis.reshape(len(basis), n * n)
    Y = np.array([y for y, _ in iterates])
    P = T @ np.matmul(Y[:, None, :], svec).reshape(-1, n, n) @ T.T
    P = 0.5 * (P + np.swapaxes(P, 1, 2))
    trace = np.sum((V * P).reshape(len(P), -1), axis=1)
    # the least trace among the certified iterates, the earliest on ties
    value, p_matrix = np.inf, None
    for i in np.argsort(trace, kind="stable"):
        if np.isfinite(trace[i]) and _definite(P[i] - h0 * np.eye(n)) \
                and _definite(matrix_char_fn(region, A, P[i]) - M):
            value, p_matrix = float(trace[i]), P[i]
            break
    if value == np.inf and np.any(M) and np.isfinite(trace[-1]):
        # slacks indefinite by round-off: (1 + GAP_TOL/2) P adds (GAP_TOL/2) M
        P_s = (1.0 + GAP_TOL / 2) * P[-1]
        if _definite(P_s) and _definite(matrix_char_fn(region, A, P_s) - M):
            value, p_matrix = float(np.sum(V * P_s)), P_s
    # the dual bound of every iterate, the largest kept
    adjoint_z = problem.blocks[:, :nm, :nm].reshape(len(basis), nm * nm)
    # V' = (R^T R)^-1: lambda_max(V'^-1/2 G V'^-1/2) = lambda_max(R G R^T)
    R = np.linalg.inv(np.linalg.cholesky(V)) @ Ti.T
    lam, U = np.linalg.eigh(np.array([X for _, X in iterates]))
    Z = (U * np.maximum(lam, 0.0)[:, None, :]) @ np.swapaxes(U, 1, 2)
    z_adj = np.matmul(adjoint_z, Z.reshape(len(Z), nm * nm, 1))
    G = np.matmul(np.swapaxes(z_adj, 1, 2), svec).reshape(-1, n, n)
    g_max = np.linalg.eigvalsh(R @ G @ R.T)[:, -1]
    gain = np.sum((Mt * Z).reshape(len(Z), -1), axis=1) \
        - np.sum((floor * G).reshape(len(G), -1), axis=1)
    base, lower = float(np.sum(floor * Vt)), -np.inf
    for g, g_top in zip(gain.tolist(), g_max.tolist()):
        bound = base
        if g > 0:
            # with g_max <= 0 every t >= 0 is allowed: a Farkas ray
            bound = base + g / g_top if g_top > 0 else np.inf
        lower = max(lower, bound)
    if value < np.inf and value - lower <= GAP_TOL * value:
        status = "converged"
    elif value == np.inf and report.status == "infeasible":
        status = "infeasible"
    else:
        status = "max-iter"
    return BarrierResult(value, p_matrix, replace(report, status=status),
                         lower)
