"""Trace-minimization feasibility oracle for eigenvalue regions.

The barrier value of a matrix ``A`` against a region is

    phi(A) = inf tr(V P)  subject to  M_D(A, P) >= M,  P >= 0

which is finite exactly when the spectrum of ``A`` lies in the region, and
whose sublevel sets ``phi(A) <= 1/eps`` are the closed tightened constraint
sets.  The semidefinite program is solved through the same factor
substitution and NLP machinery used for identification, which doubles as an
integration test of that pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .indexsets import full_lower, vecs
from .nlp import PENALTY_MAX, NlpProblem, SolveOptions, SolveReport, solve
from .regions import (LmiRegion, matrix_char_fn, require_pd_weight,
                      require_sound_shift)
from .transform import ConstraintSystem, gram_jacobian, restore_factor

__all__ = ["BarrierQuery", "BarrierResult", "barrier_solve", "barrier_value",
           "region_feasible", "within_sublevel"]

# Feasibility decision threshold: after penalty escalation to PENALTY_MAX the
# query is declared infeasible when the residual still exceeds INFEAS_TOL.
INFEAS_TOL = 1e-5

# Floor on the factor diagonals of the barrier NLP.
EPSILON_FLOOR = 1e-5

# Floor on P (as P >= floor * I) used for the relaxed system M = 0, where
# plain semidefinite feasibility would be trivially satisfied by P = 0.
RELAXED_P_FLOOR = 1.0

# Solver tolerances and starting penalty of every barrier solve.
TOL_EQ = 1e-7
TOL_STAT = 1e-5
PENALTY0 = 1e2


def _options(penalty0: float, factor: float, max_outer: int,
             max_inner: int) -> SolveOptions:
    return SolveOptions(
        tol_eq=TOL_EQ, tol_in=TOL_EQ, tol_stat=TOL_STAT, penalty0=penalty0,
        penalty_factor=factor, max_outer=max_outer, max_inner=max_inner,
        init_multipliers="lsq")


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
        shift = self.shift
        if np.isscalar(shift):
            shift = float(shift) * np.eye(nm)
        shift = np.asarray(shift, dtype=float)
        if shift.shape != (nm, nm):
            raise ValueError(f"shift must be {nm} x {nm}, got {shift.shape}")
        if np.any(shift):
            require_sound_shift(self.region, shift)
        weight = self.weight
        if weight is None:
            weight = np.eye(n)
        weight = np.asarray(weight, dtype=float)
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
    """Value and certificate of one barrier solve."""

    value: float
    p_matrix: np.ndarray | None
    report: SolveReport
    feasible: bool


class _BarrierNlp:
    """Assembled NLP for one query, with analytic derivatives.

    Decision vector: pattern entries of the P factor followed by pattern
    entries of the coupled-block factor.  Both patterns are full lower
    triangles, so no completion is needed and all maps are polynomial.
    """

    def __init__(self, query: BarrierQuery):
        self.q = query
        n = query.n
        nm = n * query.region.m
        self.n, self.nm = n, nm
        self.relaxed = not np.any(query.shift)
        self.pat_p = full_lower(n)
        self.pat_a = full_lower(nm)
        self.k_p = len(self.pat_p)
        self.k_a = len(self.pat_a)
        self.dim = self.k_p + self.k_a
        self.eps = EPSILON_FLOOR
        # set from the starting point so the trace objective is O(1); the
        # reported value is rescaled on exit
        self.obj_scale = 1.0
        # symmetric basis of P and its images under M_D(A, .): columns of
        # the linear map from the lower entries of P to the pattern entries
        # of M_D(A, P)
        self._basis = [np.zeros((n, n)) for _ in self.pat_p.entries]
        for B, (i, j) in zip(self._basis, self.pat_p.entries):
            B[i - 1, j - 1] = B[j - 1, i - 1] = 1.0
        self._md_basis = [matrix_char_fn(query.region, query.a_mat, B)
                          for B in self._basis]
        self.W = np.column_stack([vecs(self.pat_a, Mb)
                                  for Mb in self._md_basis])
        # the program is positively homogeneous in (P, M): normalize the
        # shift to unit norm, then put the P iterate at unit scale (p_scale
        # read off the leading unit-scale candidate), and scale the value
        # back on exit
        self.scale = 1.0 if self.relaxed \
            else float(np.linalg.norm(query.shift, 2))
        self._set_p_scale(1.0)
        self._set_p_scale(max(
            1.0, float(np.trace(self._candidate_p()[0])) / n))
        # index tables of the vectorized d(L L^T) blocks of the Jacobian
        self._jac_p = gram_jacobian(self.pat_p)
        self._jac_a = gram_jacobian(self.pat_a)
        self._jac_cols_a = self.k_p + self._jac_a.cols

    def _set_p_scale(self, p_scale: float):
        self.p_scale = p_scale
        self._cache_key = None
        self.h0 = RELAXED_P_FLOOR / p_scale if self.relaxed else 0.0
        shift = self.q.shift / (self.scale * p_scale)
        self.shift = 0.5 * (shift + shift.T)
        self.m_vec = vecs(self.pat_a, self.shift)

    # -- packing -----------------------------------------------------------
    def _factors(self, x):
        """Read-only ``(Lp, La, P)`` at ``x``, kept for the last point."""
        key = x.tobytes()
        if key != self._cache_key:
            n, nm = self.n, self.nm
            Lp = np.zeros((n, n))
            Lp[self.pat_p._rows0, self.pat_p._cols0] = x[:self.k_p]
            La = np.zeros((nm, nm))
            La[self.pat_a._rows0, self.pat_a._cols0] = x[self.k_p:]
            P = Lp @ Lp.T
            P = 0.5 * (P + P.T) + self.h0 * np.eye(n)
            for a in (Lp, La, P):
                a.flags.writeable = False
            self._cache_key, self._cache_val = key, (Lp, La, P)
        return self._cache_val

    def split(self, x):
        return self._factors(x)[:2]

    def p_of(self, x):
        return self._factors(x)[2]

    # -- problem callables --------------------------------------------------
    def objective(self, x):
        return float(np.trace(self.q.weight @ self.p_of(x))) / self.obj_scale

    def gradient(self, x):
        Lp, _ = self.split(x)
        G = (2.0 / self.obj_scale) * self.q.weight @ Lp
        out = np.zeros(self.dim)
        out[:self.k_p] = G[self.pat_p._rows0, self.pat_p._cols0]
        return out

    def equality(self, x):
        _, La, P = self._factors(x)
        At = La @ La.T
        return self.W @ P[self.pat_p._rows0, self.pat_p._cols0] - self.m_vec \
            - At[self.pat_a._rows0, self.pat_a._cols0]

    def equality_jacobian(self, x):
        Lp, La = self.split(x)
        # dP for factor entry (i, j) is e_i c^T + c e_i^T with c = L[:, j];
        # its lower entries land at precomputed rows with the diagonal doubled
        D = np.zeros((self.k_p, self.k_p))
        D[self._jac_p.rows, self._jac_p.cols] += self._jac_p.values(Lp)
        J = np.zeros((self.k_a, self.dim))
        J[:, :self.k_p] = self.W @ D
        J[self._jac_a.rows, self._jac_cols_a] -= self._jac_a.values(La)
        return J

    # -- initialization ------------------------------------------------------
    def _candidate_p(self):
        """Feasible P candidates, best first.

        For a diagonalizable matrix with spectrum inside the region, the
        real part of the eigenvector Gram matrix makes the characteristic
        block definite; suitably scaled it clears the shift with margin and
        the start is then exactly on the equality manifold.  A scaled
        identity is the fallback.
        """
        A = self.q.a_mat
        n = self.n
        region = self.q.region
        candidates = []
        try:
            eigs, V = np.linalg.eig(A)
            f_mins = np.array([
                float(np.min(np.linalg.eigvalsh(
                    region.m0 + region.m1 * z + region.m1.T * np.conj(z))))
                for z in eigs])
            if np.all(f_mins > 0):
                # modal weights d_i give M_D(A, V diag(d) V^H) the congruent
                # form (I x V)[sum_i d_i f(lam_i)](I x V)^H; weighting by
                # 1/lambda_min(f(lam_i)) equalizes the blocks, and the exact
                # linear scaling then clears the shift with margin
                Pt = np.real((V * (1.0 / f_mins)) @ V.conj().T)
                Pt = 0.5 * (Pt + Pt.T)
                e0 = float(np.min(np.linalg.eigvalsh(
                    matrix_char_fn(region, A, Pt))))
                pmin = float(np.min(np.linalg.eigvalsh(Pt)))
                if e0 > 0 and pmin > 0:
                    shift_norm = float(np.linalg.norm(self.shift, 2))
                    if self.relaxed:
                        gamma = max(0.05 / e0, 2.0 * self.h0 / pmin)
                    else:
                        gamma = 1.05 * shift_norm / e0
                    Pt = gamma * Pt
                    emin = float(np.min(np.linalg.eigvalsh(
                        matrix_char_fn(region, A, Pt) - self.shift)))
                    if emin > 0 and float(np.min(np.linalg.eigvalsh(Pt))) \
                            > self.h0:
                        candidates.append(Pt)
        except np.linalg.LinAlgError:
            pass
        candidates.append(max(1.0, float(np.linalg.norm(A, 2)))
                          / self.p_scale * np.eye(n))
        return candidates

    def _reduced_descent(self, P0: np.ndarray):
        """Interior descent of the trace objective in the P matrix alone.

        Newton steps on ``tr(VP) - tau (logdet E(P) + logdet P)`` with a
        decreasing barrier weight; the problem is linear in P, so gradient
        and Hessian are closed-form through the basis map used for the
        equality Jacobian.  The result seeds the equality-constrained solve
        close to the optimum, which then only has to polish and certify.
        """
        n = self.n
        k = self.k_p
        basis, md_basis = self._basis, self._md_basis
        vvec = np.array([float(np.sum(self.q.weight * B)) for B in basis])

        def blocks(P):
            E = matrix_char_fn(self.q.region, self.q.a_mat, P) - self.shift
            return 0.5 * (E + E.T)

        def definite(M):
            try:
                np.linalg.cholesky(M)
                return True
            except np.linalg.LinAlgError:
                return False

        P = P0.copy()
        floor = self.h0 + self.eps ** 2

        def newton_phase(P, tau, max_steps=12):
            for _ in range(max_steps):
                E = blocks(P)
                Pf = P - floor * np.eye(n)
                if not (definite(E) and definite(Pf)):
                    return P, False
                Ei = np.linalg.inv(E)
                Pi = np.linalg.inv(Pf)
                g = vvec - tau * np.array(
                    [float(np.sum(Ei * Mb)) + float(np.sum(Pi * B))
                     for Mb, B in zip(md_basis, basis)])
                H = np.empty((k, k))
                EiM = [Ei @ Mb for Mb in md_basis]
                PiB = [Pi @ B for B in basis]
                for a in range(k):
                    for b in range(a, k):
                        H[a, b] = H[b, a] = tau * (
                            float(np.sum(EiM[a] * EiM[b].T))
                            + float(np.sum(PiB[a] * PiB[b].T)))
                try:
                    step = np.linalg.solve(H + 1e-12 * np.eye(k), -g)
                except np.linalg.LinAlgError:
                    return P, False
                newton_dec = float(-g @ step)
                if newton_dec < 0.05 * max(tau, 1e-6):
                    return P, True
                dP = sum(s * B for s, B in zip(step, basis))
                t = 1.0
                improved = False
                for _ in range(40):
                    Pt = P + t * dP
                    if definite(blocks(Pt)) \
                            and definite(Pt - floor * np.eye(n)):
                        P = Pt
                        improved = True
                        break
                    t *= 0.5
                if not improved:
                    return P, False
            return P, True

        tau = max(1e-2, float(np.trace(self.q.weight @ P)) / (10.0 * n))
        while True:
            P, ok = newton_phase(P, tau)
            if not ok or tau <= 1e-4:
                break
            tau = max(1e-4, 0.1 * tau)
        return P

    def _pack_from_p(self, P: np.ndarray) -> np.ndarray | None:
        n = self.n
        core = P - self.h0 * np.eye(n)
        lam_c = np.linalg.eigvalsh(0.5 * (core + core.T))
        if float(np.min(lam_c)) < self.eps ** 2:
            core = core + (self.eps + abs(float(np.min(lam_c)))) * np.eye(n)
        Lp = np.linalg.cholesky(0.5 * (core + core.T))
        P = core + self.h0 * np.eye(n)
        E = matrix_char_fn(self.q.region, self.q.a_mat, P) - self.shift
        lam, U = np.linalg.eigh(0.5 * (E + E.T))
        floor = max(self.eps ** 2, 1e-9 * max(1.0, float(np.max(np.abs(lam)))))
        Ec = (U * np.maximum(lam, floor)) @ U.T
        La = np.linalg.cholesky(0.5 * (Ec + Ec.T))
        x = np.empty(self.dim)
        x[:self.k_p] = Lp[self.pat_p._rows0, self.pat_p._cols0]
        x[self.k_p:] = La[self.pat_a._rows0, self.pat_a._cols0]
        if np.all(x[self.lower_bounds() > -np.inf] >= self.eps):
            return x
        return None

    def initial_point(self):
        last = None
        for i, P0 in enumerate(self._candidate_p()):
            if i == 0:  # only the modal candidate is known feasible
                P0 = self._reduced_descent(P0)
            x = self._pack_from_p(P0)
            if x is not None:
                return x
            last = P0
        x = self._pack_from_p(last + 2.0 * self.eps * np.eye(self.n))
        if x is None:
            raise RuntimeError("could not construct a valid starting point")
        return x

    def lower_bounds(self):
        lb = np.full(self.dim, -np.inf)
        lb[np.concatenate([self.pat_p.diag_mask, self.pat_a.diag_mask])] = \
            self.eps
        return lb

    def restore(self, x: np.ndarray) -> np.ndarray | None:
        """Snap an iterate back onto the equality manifold when possible.

        Keeps the P factor and recomputes the coupled-block factor from the
        characteristic residual; succeeds when that residual is (nearly)
        semidefinite, which leaves the objective value unchanged.
        """
        E = matrix_char_fn(self.q.region, self.q.a_mat, self.p_of(x)) \
            - self.shift
        La = restore_factor(E, self.eps ** 2)
        if La is None:
            return None
        out = x.copy()
        out[self.k_p:] = La[self.pat_a._rows0, self.pat_a._cols0]
        return out

    def problem(self) -> NlpProblem:
        return NlpProblem(
            dim=self.dim,
            objective=self.objective,
            equality=self.equality,
            n_eq=self.k_a,
            lower_bounds=self.lower_bounds(),
            gradient=self.gradient,
            equality_jacobian=self.equality_jacobian,
        )

    def system(self) -> ConstraintSystem:
        """The same problem stated as a generic constraint system."""
        h0 = self.h0

        def shift_fn(beta):
            return h0 * np.eye(self.n)

        shift = self.shift

        def psd_fn(beta, Sigma):
            return matrix_char_fn(self.q.region, self.q.a_mat, Sigma) - shift

        return ConstraintSystem(
            n_beta=0, pattern_sigma=self.pat_p, pattern_a=self.pat_a,
            shift_fn=shift_fn, psd_fn=psd_fn)


def barrier_solve(query: BarrierQuery) -> BarrierResult:
    """Solve one query, escalating the penalty before declaring infeasibility.

    The returned value is ``tr(V P*)`` when a feasible ``P`` is found and
    ``+inf`` when the residual stays above the infeasibility threshold after
    the penalty has been escalated to its cap.
    """
    nlp = _BarrierNlp(query)
    problem = nlp.problem()
    x0 = nlp.initial_point()
    nlp.obj_scale = max(1.0, abs(nlp.objective(x0)))
    best: tuple[float, np.ndarray, float] | None = None

    def consider(x: np.ndarray):
        nonlocal best
        if x is None:
            return
        res = float(np.max(np.abs(problem.equality(x))))
        if res <= TOL_EQ:
            f = float(problem.objective(x))
            if best is None or f < best[0]:
                best = (f, x.copy(), res)

    def certified(report: SolveReport) -> BarrierResult:
        value = nlp.scale * nlp.p_scale * nlp.obj_scale * float(report.f_star)
        return BarrierResult(value,
                             nlp.scale * nlp.p_scale * nlp.p_of(report.x_star),
                             report, True)

    def best_of(report: SolveReport) -> BarrierResult:
        f, x, res = best
        return certified(replace(report, x_star=x, f_star=f,
                                 eq_residual_inf=res, in_violation_inf=0.0))

    consider(x0)
    # a start on the manifold sits near the optimum and only needs a short
    # polish (3 outer, 80 inner); without one the query is infeasible or a
    # hard boundary case, the escalation below carries the decision, and
    # the exploratory budget is capped (8 outer, 120 inner)
    report = solve(problem, x0, _options(PENALTY0, 10.0, *(
        (3, 80) if best is not None else (8, 120))))
    if report.converged:
        return certified(report)
    consider(report.x_star)
    consider(nlp.restore(report.x_star))
    if best is not None:
        # one polish attempt from the best feasible point, which is returned
        # when the polish does not converge
        report = solve(problem, best[1], _options(
            max(PENALTY0, report.penalty), 10.0, 3, 80))
        if report.converged:
            return certified(report)
        consider(report.x_star)
        consider(nlp.restore(report.x_star))
        return best_of(report)
    # no feasible point seen: escalate the penalty 100-fold per short solve
    # up to its cap before declaring infeasibility, restoring onto the
    # manifold whenever possible
    penalty = max(PENALTY0, report.penalty)
    while penalty < PENALTY_MAX:
        penalty = min(PENALTY_MAX, penalty * 100.0)
        report = solve(problem, report.x_star,
                       _options(penalty, 100.0, 4, 60))
        penalty = max(penalty, report.penalty)
        if report.converged:
            return certified(report)
        consider(nlp.restore(report.x_star))
        if best is not None:
            return best_of(report)
    if report.eq_residual_inf > INFEAS_TOL:
        return BarrierResult(float("inf"), None, report, False)
    return certified(report)


def barrier_value(query: BarrierQuery) -> float:
    """Barrier value ``phi(A)``, or ``+inf`` when the query is infeasible."""
    return barrier_solve(query).value


def within_sublevel(value: float, epsilon: float) -> bool:
    """Sublevel-set verdict ``value <= 1/epsilon`` with solver-tolerance slack."""
    return value <= (1.0 / epsilon) * (1.0 + 1e-6)


def region_feasible(query: BarrierQuery, epsilon: float) -> bool:
    """Sublevel-set test ``phi(A) <= 1/epsilon`` of one query."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return within_sublevel(barrier_value(query), epsilon)
