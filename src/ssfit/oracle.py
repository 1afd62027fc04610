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

from dataclasses import dataclass

import numpy as np

from .indexsets import full_lower, vecs
from .nlp import NlpProblem, SolveOptions, SolveReport, solve
from .regions import LmiRegion, matrix_char_fn
from .transform import ConstraintSystem, gram_jacobian

__all__ = ["BarrierQuery", "BarrierResult", "barrier_solve", "barrier_value",
           "region_feasible"]

# Feasibility decision threshold: after penalty escalation to PENALTY_CAP the
# query is declared infeasible when the residual still exceeds INFEAS_TOL.
INFEAS_TOL = 1e-5
PENALTY_CAP = 1e8

# Floor on P (as P >= floor * I) used for the relaxed system M = 0, where
# plain semidefinite feasibility would be trivially satisfied by P = 0.
RELAXED_P_FLOOR = 1.0


@dataclass(frozen=True)
class BarrierQuery:
    """One trace-minimization query.

    Parameters
    ----------
    region : LmiRegion
    a_mat : ndarray
        The square matrix whose spectrum is being tested.
    shift : ndarray or float
        The semidefinite shift ``M`` (a scalar ``s`` means ``s * I``).  A zero
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
        weight = self.weight
        if weight is None:
            weight = np.eye(n)
        weight = np.asarray(weight, dtype=float)
        if weight.shape != (n, n):
            raise ValueError(f"weight must be {n} x {n}, got {weight.shape}")
        if float(np.min(np.linalg.eigvalsh(weight))) <= 0:
            raise ValueError("weight V must be positive definite")
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

    def __init__(self, query: BarrierQuery, epsilon_floor: float,
                 p_scale: float = 1.0):
        self.q = query
        n = query.n
        nm = n * query.region.m
        self.n, self.nm = n, nm
        self.relaxed = not np.any(query.shift)
        self.p_scale = float(max(1.0, p_scale))
        self.h0 = RELAXED_P_FLOOR / self.p_scale if self.relaxed else 0.0
        # the program is positively homogeneous in (P, M): normalize the
        # shift to unit norm and put the P iterate at unit scale (p_scale
        # estimated from a probe start), then scale the value back on exit
        self.scale = 1.0 if self.relaxed \
            else float(np.linalg.norm(query.shift, 2))
        shift = query.shift / (self.scale * self.p_scale) \
            if self.scale > 0 else query.shift
        self.pat_p = full_lower(n)
        self.pat_a = full_lower(nm)
        self.k_p = len(self.pat_p)
        self.k_a = len(self.pat_a)
        self.dim = self.k_p + self.k_a
        self.eps = epsilon_floor
        self.shift = 0.5 * (shift + shift.T)
        # set from the starting point so the trace objective is O(1); the
        # reported value is rescaled on exit
        self.obj_scale = 1.0
        # linear map: lower entries of symmetric P -> pattern entries of
        # M_D(A, P), column per symmetric basis element
        W = np.empty((self.k_a, self.k_p))
        for col, (i, j) in enumerate(self.pat_p.entries):
            B = np.zeros((n, n))
            B[i - 1, j - 1] = 1.0
            B[j - 1, i - 1] = 1.0
            W[:, col] = vecs(self.pat_a, matrix_char_fn(query.region, query.a_mat, B))
        self.W = W
        self.m_vec = vecs(self.pat_a, self.shift)
        # index tables of the vectorized d(L L^T) blocks of the Jacobian
        self._jac_p = gram_jacobian(self.pat_p)
        self._jac_a = gram_jacobian(self.pat_a)
        self._jac_cols_a = self.k_p + self._jac_a.cols

    # -- packing -----------------------------------------------------------
    def split(self, x):
        n, nm = self.n, self.nm
        Lp = np.zeros((n, n))
        Lp[self.pat_p._rows0, self.pat_p._cols0] = x[:self.k_p]
        La = np.zeros((nm, nm))
        La[self.pat_a._rows0, self.pat_a._cols0] = x[self.k_p:]
        return Lp, La

    def p_of(self, x):
        Lp, _ = self.split(x)
        P = Lp @ Lp.T
        P = 0.5 * (P + P.T)
        return P + self.h0 * np.eye(self.n)

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
        Lp, La = self.split(x)
        P = self.p_of(x)
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
        entries = self.pat_p.entries
        k = self.k_p
        basis = []
        for (i1, j1) in entries:
            B = np.zeros((n, n))
            B[i1 - 1, j1 - 1] = 1.0
            B[j1 - 1, i1 - 1] = 1.0
            basis.append(B)
        md_basis = [matrix_char_fn(self.q.region, self.q.a_mat, B)
                    for B in basis]
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
            interior = i == 0  # only the modal candidate is known feasible
            if interior:
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
        diag_p = np.flatnonzero(self.pat_p.diag_mask)
        diag_a = self.k_p + np.flatnonzero(self.pat_a.diag_mask)
        lb[diag_p] = self.eps
        lb[diag_a] = self.eps
        return lb

    def restore(self, x: np.ndarray) -> np.ndarray | None:
        """Snap an iterate back onto the equality manifold when possible.

        Keeps the P factor and recomputes the coupled-block factor from the
        characteristic residual; succeeds when that residual is (nearly)
        semidefinite, which leaves the objective value unchanged.
        """
        P = self.p_of(x)
        E = matrix_char_fn(self.q.region, self.q.a_mat, P) - self.shift
        lam, U = np.linalg.eigh(0.5 * (E + E.T))
        lam_min = float(np.min(lam))
        # the clipped amount is exactly the post-restoration residual, so
        # only near-semidefinite residuals restore usefully
        if lam_min < -1e-6 * max(1.0, float(np.max(np.abs(lam)))):
            return None
        Ec = (U * np.maximum(lam, self.eps ** 2)) @ U.T
        La = np.linalg.cholesky(0.5 * (Ec + Ec.T))
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


def barrier_solve(
    query: BarrierQuery,
    epsilon_floor: float = 1e-5,
    options: SolveOptions | None = None,
) -> BarrierResult:
    """Solve one query, escalating the penalty before declaring infeasibility.

    The returned value is ``tr(V P*)`` when a feasible ``P`` is found and
    ``+inf`` when the residual stays above the infeasibility threshold after
    the penalty has been escalated to its cap.
    """
    probe = _BarrierNlp(query, epsilon_floor)
    p_scale = max(1.0, float(np.trace(probe._candidate_p()[0])) / query.n)
    nlp = _BarrierNlp(query, epsilon_floor, p_scale=p_scale)
    problem = nlp.problem()
    base = options or SolveOptions(
        tol_eq=1e-7, tol_in=1e-7, tol_stat=1e-5,
        penalty0=1e2, penalty_factor=10.0, penalty_max=PENALTY_CAP,
        max_outer=30, max_inner=500, init_multipliers="lsq")
    x0 = nlp.initial_point()
    nlp.obj_scale = max(1.0, abs(nlp.objective(x0)))

    def value_of(f_scaled: float) -> float:
        return nlp.scale * nlp.p_scale * nlp.obj_scale * float(f_scaled)

    best: tuple[float, np.ndarray, float] | None = None

    def consider(x: np.ndarray):
        nonlocal best
        if x is None:
            return
        res = float(np.max(np.abs(problem.equality(x))))
        if res <= base.tol_eq:
            f = float(problem.objective(x))
            if best is None or f < best[0]:
                best = (f, x.copy(), res)

    def result_from(report: SolveReport, x: np.ndarray, f: float,
                    res: float) -> BarrierResult:
        rep = SolveReport(
            x_star=x, f_star=f, eq_residual_inf=res, in_violation_inf=0.0,
            stationarity_inf=report.stationarity_inf,
            iterations=report.iterations,
            outer_iterations=report.outer_iterations,
            status=report.status, penalty=report.penalty,
            n_evals=report.n_evals)
        return BarrierResult(value_of(f),
                             nlp.scale * nlp.p_scale * nlp.p_of(x), rep, True)

    consider(x0)
    if best is not None:
        # the start already sits on the manifold near the optimum, so the
        # solve only needs a short polish budget
        first = SolveOptions(
            tol_eq=base.tol_eq, tol_in=base.tol_in, tol_stat=base.tol_stat,
            penalty0=base.penalty0, penalty_factor=base.penalty_factor,
            penalty_max=base.penalty_max, max_outer=3, max_inner=80,
            init_multipliers="lsq")
    elif options is None:
        # no feasibility certificate: this is either infeasible or a hard
        # boundary case, and the escalation loop below carries the decision;
        # cap the exploratory budget
        first = SolveOptions(
            tol_eq=base.tol_eq, tol_in=base.tol_in, tol_stat=base.tol_stat,
            penalty0=base.penalty0, penalty_factor=base.penalty_factor,
            penalty_max=base.penalty_max, max_outer=8, max_inner=120,
            init_multipliers="lsq")
    else:
        first = base
    report = solve(problem, x0, first)
    if report.converged:
        return BarrierResult(value_of(report.f_star),
                             nlp.scale * nlp.p_scale * nlp.p_of(report.x_star),
                             report, True)
    consider(report.x_star)
    consider(nlp.restore(report.x_star))
    if best is not None:
        # a feasible point is in hand; one short polish attempt, then return
        # the best feasible point found
        f_b, x_b, _ = best
        opts = SolveOptions(
            tol_eq=base.tol_eq, tol_in=base.tol_in, tol_stat=base.tol_stat,
            penalty0=max(base.penalty0, report.penalty),
            penalty_factor=10.0, penalty_max=PENALTY_CAP,
            max_outer=3, max_inner=80, init_multipliers="lsq")
        rep2 = solve(problem, x_b, opts)
        if rep2.converged:
            return BarrierResult(
                value_of(rep2.f_star),
                nlp.scale * nlp.p_scale * nlp.p_of(rep2.x_star), rep2, True)
        consider(rep2.x_star)
        consider(nlp.restore(rep2.x_star))
        f_b, x_b, res_b = best
        return result_from(rep2, x_b, f_b, res_b)
    # no feasible point seen: escalate to the penalty cap before declaring
    # infeasibility, restoring onto the manifold whenever possible
    penalty = max(base.penalty0, report.penalty)
    for _ in range(8):
        restored = nlp.restore(report.x_star)
        consider(restored)
        if best is not None:
            f_b, x_b, res_b = best
            return result_from(report, x_b, f_b, res_b)
        if penalty >= PENALTY_CAP:
            break
        penalty = min(PENALTY_CAP, penalty * 100.0)
        opts = SolveOptions(
            tol_eq=base.tol_eq, tol_in=base.tol_in, tol_stat=base.tol_stat,
            penalty0=penalty, penalty_factor=100.0, penalty_max=PENALTY_CAP,
            max_outer=4, max_inner=60, init_multipliers="lsq")
        report = solve(problem, report.x_star, opts)
        penalty = max(penalty, report.penalty)
        if report.converged:
            return BarrierResult(
                value_of(report.f_star),
                nlp.scale * nlp.p_scale * nlp.p_of(report.x_star),
                report, True)
    if report.eq_residual_inf > INFEAS_TOL:
        return BarrierResult(float("inf"), None, report, False)
    return BarrierResult(value_of(report.f_star),
                         nlp.scale * nlp.p_scale * nlp.p_of(report.x_star),
                         report, True)


def barrier_value(
    query: BarrierQuery,
    epsilon_floor: float = 1e-5,
    options: SolveOptions | None = None,
) -> float:
    """Barrier value ``phi(A)``, or ``+inf`` when the query is infeasible."""
    return barrier_solve(query, epsilon_floor, options).value


def region_feasible(
    query: BarrierQuery,
    epsilon: float,
    options: SolveOptions | None = None,
) -> bool:
    """Sublevel-set test ``phi(A) <= 1/epsilon`` with solver-tolerance slack."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    value = barrier_value(query, options=options)
    return value <= (1.0 / epsilon) * (1.0 + 1e-6)
