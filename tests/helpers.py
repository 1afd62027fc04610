"""Shared synthetic fixtures and reference implementations for the tests."""

import dataclasses

import numpy as np
import scipy.signal

from ssfit import oracle, statespace
from ssfit.identify import ProblemSpec
from ssfit.indexsets import full_lower, vecs
from ssfit.nlp import NlpProblem, SolveReport
from ssfit.oracle import RELAXED_P_FLOOR
from ssfit.regions import block_diag, matrix_char_fn
from ssfit.statespace import (
    Dataset,
    LadmSpec,
    ParameterLayout,
    assemble_ladm,
    simulate,
)
from ssfit.transform import ConstraintSystem, ThetaPoint, gram_jacobian


def siso_ladm_spec():
    """Two plant states, one output disturbance, canonical form."""
    return LadmSpec(n_s=2, n_d=1, m=1, p=1, plant_form="canonical")


def siso_truth(filter_poles=(0.5, 0.6, 0.7), re=0.04):
    """A stable canonical SISO truth with placed filter poles."""
    spec = siso_ladm_spec()
    layout = ParameterLayout(spec)
    # plant poles 0.55 and 0.7: z^2 - 1.25 z + 0.385
    a_row = np.array([-0.385, 1.25])
    mats = {"A_s": a_row, "B_s": np.array([[1.0], [0.5]]),
            "K_s": np.zeros((2, 1)), "K_d": np.zeros((1, 1))}
    beta = layout.pack(mats)
    model0 = assemble_ladm(spec, ThetaPoint(beta, np.array([[re]])), layout)
    placed = scipy.signal.place_poles(model0.A.T, model0.C.T,
                                      np.asarray(filter_poles))
    K = placed.gain_matrix.T
    mats["K_s"] = K[:2]
    mats["K_d"] = K[2:]
    beta = layout.pack(mats)
    theta = ThetaPoint(beta, np.array([[re]]))
    return spec, layout, theta


def prbs(n, amplitude=1.0, hold=8, seed=0):
    """Pseudo-random binary input with the given hold length."""
    rng = np.random.default_rng(seed)
    levels = amplitude * (2.0 * rng.integers(0, 2, size=(n + hold - 1) // hold) - 1.0)
    return np.repeat(levels, hold)[:n].reshape(-1, 1)


def siso_dataset(theta, spec, layout, n=2000, seed=1, noise=True):
    model = assemble_ladm(spec, theta, layout)
    u = prbs(n, amplitude=1.0, hold=8, seed=seed)
    y = simulate(model, u, seed=seed + 1, noise=noise)
    return Dataset(u, y)


def perturbed(theta, layout, scale=0.1, seed=2):
    """Multiplicative perturbation of all parameters."""
    rng = np.random.default_rng(seed)
    beta = theta.beta * (1.0 + scale * rng.uniform(-1.0, 1.0, theta.beta.size))
    Sigma = theta.Sigma * (1.0 + scale * rng.uniform(-1.0, 1.0))
    return ThetaPoint(beta, Sigma)


def siso_problem(**kwargs) -> ProblemSpec:
    return ProblemSpec(ladm=siso_ladm_spec(), **kwargs)


def stacked(c, x0):
    """The ``(N+1, n)`` array a state scan runs on: ``x0`` in row 0 and
    ``c[0..N-1]`` below it."""
    x = np.empty((c.shape[0] + 1, x0.size))
    x[0] = x0
    x[1:] = c
    return x


def states_loop_reference(F, x):
    """The sequential state recursion ``x[k+1] = F x[k] + c[k]``, one sample
    at a time, in place on ``x = stacked(c, x0)`` like
    ``statespace._states_scan``; returns ``x[0..N]``."""
    for k in range(x.shape[0] - 1):
        x[k + 1] += F @ x[k]
    return x


def doubling_scan_reference(F, x):
    """The plain prefix-composition doubling tree over N copies of ``F``, in
    place on ``x = stacked(c, x0)``: O(N log N) matrix products, one small
    product per item and level, every level run.  It is the accuracy
    yardstick of ``statespace._states_scan``: both stay within the same
    bound of an extended-precision loop.  Above 8e6 entries of ``F`` copies
    this is the loop."""
    N, n = x.shape[0] - 1, x.shape[1]
    if N == 0:
        return x
    if N * n * n > 8_000_000:
        return states_loop_reference(F, x)
    P = np.broadcast_to(F, (N, n, n)).copy()
    d = x[1:].copy()
    offset = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while offset < N:
            head_P, tail_P = P[:-offset], P[offset:]
            new_d = np.matmul(tail_P, d[:-offset, :, None])[..., 0] + d[offset:]
            new_P = np.matmul(tail_P, head_P)
            P[offset:] = new_P
            d[offset:] = new_d
            offset *= 2
        x[1:] = np.matmul(P, x[0]) + d
    return x


def simulate_reference(model, u, seed=0, noise=True):
    """``statespace.simulate`` as numpy's ``matmul`` computes it on the
    transposed views of the small matrices; the states come from
    ``statespace._states_scan``, so the two differ only in their per-sample
    products."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    N = u.shape[0]
    if noise:
        Lc = np.linalg.cholesky(model.Re)
        e = np.random.default_rng(seed).standard_normal((N, model.p)) @ Lc.T
    else:
        e = np.zeros((N, model.p))
    x = np.empty((N + 1, model.n))
    x[0] = model.x0hat
    np.matmul(u, model.B.T, out=x[1:])
    x[1:] += e @ model.K.T
    statespace._states_scan(model.A, x)
    return x[:-1] @ model.C.T + u @ model.D.T + e


def filter_reference(model, data):
    """``statespace.filter_innovations`` as ``matmul`` computes it on the
    transposed views of the small matrices, with the states of
    ``statespace._states_scan``; returns ``(e, xhat)``."""
    G_u = model.B - model.K @ model.D
    xhat = np.empty((data.N + 1, model.n))
    xhat[0] = model.x0hat
    np.matmul(data.u, G_u.T, out=xhat[1:])
    xhat[1:] += data.y @ model.K.T
    statespace._states_scan(model.filter_matrix(), xhat)
    e = data.y - xhat[:-1] @ model.C.T - data.u @ model.D.T
    return e, xhat


def whitened_reference(e, Re):
    """The whitened innovations ``Lc^-1 e^T`` of ``statespace``'s NLL and
    identification index, by ``matmul`` on the transposed view of ``e``."""
    return np.linalg.inv(np.linalg.cholesky(Re)) @ e.T


def pack_reference(layout, grads):
    """The likelihood's beta gradient as ``layout.pack`` reads it from the
    augmented blocks' gradients, segment by segment."""
    n_s = layout.ladm.n_s
    return layout.pack({
        "A_s": grads["A"][:n_s, :n_s], "B_s": grads["B"][:n_s, :],
        "K_s": grads["K"][:n_s, :], "K_d": grads["K"][n_s:, :],
        "C_s": grads["C"][:, :n_s]})


def inner_minimize_reference(problem, x, lam, mu, rho, tol, max_iter, count,
                             redundant=None, Hinv=None):
    """The projected-BFGS inner loop as it was before each trial point was
    evaluated once: the gradient at an accepted point calls the constraints
    again, the bound mask is rebuilt per use, and a failed line search
    retries along -pg even when its direction already was -pg.
    ``nlp._inner_minimize`` must return its bytes; ``redundant`` (a list)
    gets one entry per such repeated retry, which costs 40 merit
    evaluations and changes nothing else.  ``Hinv`` is the carried
    inverse-Hessian estimate (``None``: the identity, scaled at the first
    curvature pair); the final one is returned last, ``None`` when it is
    an unscaled identity."""
    from ssfit.nlp import _al_value, _evaluate

    def _al_gradient(problem, x, lam, mu, rho):
        g = np.asarray(problem.gradient(x), dtype=float).ravel()
        if problem.n_eq:
            c = np.asarray(problem.equality(x), dtype=float).ravel()
            Jc = np.asarray(problem.equality_jacobian(x), dtype=float)
            g = g + Jc.T @ (rho * c - lam)
        if problem.n_in:
            s = np.asarray(problem.inequality(x), dtype=float).ravel()
            Js = np.asarray(problem.inequality_jacobian(x), dtype=float)
            g = g + Js.T @ np.maximum(0.0, mu + rho * s)
        return g

    def _at_bound(x, lb):
        out = np.zeros(x.size, dtype=bool)
        finite = np.isfinite(lb)
        if np.any(finite):
            tol = 1e-12 * np.maximum(1.0, np.abs(lb[finite]))
            out[finite] = x[finite] <= lb[finite] + tol
        return out

    def _projected_gradient(g, x, lb):
        pg = g.copy()
        pg[_at_bound(x, lb) & (g > 0)] = 0.0
        return pg

    lb = problem.lower_bounds
    n = x.size
    scaled = Hinv is not None
    if not scaled:
        Hinv = np.eye(n)

    def merit(xq):
        f, c, s = _evaluate(problem, xq, count)
        return _al_value(f, c, s, lam, mu, rho)

    fx = merit(x)
    g = _al_gradient(problem, x, lam, mu, rho)
    status = "ok"
    it = 0
    for it in range(1, max_iter + 1):
        pg = _projected_gradient(g, x, lb)
        pg_norm = float(np.max(np.abs(pg))) if pg.size else 0.0
        if pg_norm <= tol:
            break
        d = -Hinv @ g
        d[_at_bound(x, lb) & (d < 0)] = 0.0
        if not np.any(d) or float(g @ d) >= 0.0:
            d = -pg
            Hinv = np.eye(n)
            scaled = False

        def backtrack(direction):
            alpha = 1.0
            for _ in range(40):
                xt = np.maximum(lb, x + alpha * direction)
                gd = float(g @ (xt - x))
                ft = merit(xt)
                if gd < 0 and np.isfinite(ft) and ft <= fx + 1e-4 * gd:
                    return xt, ft
                alpha *= 0.5
            return None, None

        xt, ft = backtrack(d)
        if xt is None and d is not pg:
            if redundant is not None and np.array_equal(d, -pg):
                redundant.append(it)
            # quasi-Newton direction failed; drop the curvature estimate and
            # retry along the projected steepest descent
            Hinv = np.eye(n)
            scaled = False
            xt, ft = backtrack(-pg)
        if xt is None:
            status = "line-search-failure"
            break
        gt = _al_gradient(problem, xt, lam, mu, rho)
        sv = xt - x
        yv = gt - g
        sy = float(sv @ yv)
        if sy > 1e-10 * float(np.linalg.norm(sv)) * float(np.linalg.norm(yv)):
            if not scaled:
                Hinv = (sy / float(yv @ yv)) * np.eye(n)
                scaled = True
            Hy = Hinv @ yv
            r = 1.0 / sy
            Hinv = Hinv - r * (np.outer(sv, Hy) + np.outer(Hy, sv)) \
                + r * r * (sy + float(yv @ Hy)) * np.outer(sv, sv)
        assert ft <= fx + 1e-9 * max(1.0, abs(fx)), "merit increased on accepted step"
        x, g, fx = xt, gt, ft
    pg = _projected_gradient(g, x, lb)
    pg_norm = float(np.max(np.abs(pg))) if pg.size else 0.0
    return x, fx, pg_norm, it, status, Hinv if scaled else None


def inner_minimize_reference_adapter(problem, x, fcs, ders, lam, mu, rho, tol,
                                     max_iter, count, Hinv=None,
                                     redundant=None):
    """:func:`inner_minimize_reference` behind the protocol of
    ``nlp._inner_minimize``, as the outer loop drove it before the inner
    loop handed back its end point's ``(f, c, s)`` and derivatives: the
    start's ``fcs`` and ``ders`` are ignored (the reference evaluates and
    differentiates the start itself) and the end point is evaluated and
    differentiated once more.  That is two evaluations and two
    differentiations per outer iteration more than ``nlp.solve`` makes.
    The carried ``Hinv`` goes in and comes out as in ``_inner_minimize``."""
    from ssfit.nlp import _derivatives, _evaluate

    *out, Hinv = inner_minimize_reference(problem, x, lam, mu, rho, tol,
                                          max_iter, count, redundant, Hinv)
    return (*out, _evaluate(problem, out[0], count),
            _derivatives(problem, out[0]), Hinv)


def count_constraint_calls(problem):
    """``problem`` with its ``equality`` and ``inequality`` and its
    derivative providers wrapped to tally calls per ``(kind, x bytes)`` in
    the returned ``Counter``; the kinds are ``eq``, ``in``, ``grad``,
    ``eq_jac`` and ``in_jac``."""
    import collections

    calls = collections.Counter()

    def counted(kind, fn):
        if fn is None:
            return None

        def wrapper(x):
            calls[kind, x.tobytes()] += 1
            return fn(x)
        return wrapper

    return dataclasses.replace(
        problem, equality=counted("eq", problem.equality),
        inequality=counted("in", problem.inequality),
        gradient=counted("grad", problem.gradient),
        equality_jacobian=counted("eq_jac", problem.equality_jacobian),
        inequality_jacobian=counted("in_jac", problem.inequality_jacobian),
    ), calls


def barrier_solve_reference(query):
    """``oracle.barrier_solve`` with its certificates taken per iterate,
    inside the solve's ``observe``: an iterate's ``P`` is certified whenever
    its trace beats the best so far, and its dual bound is folded in at
    once.  The test reference for certifying the iterates after the solve.
    """
    region, A, M, V = query.region, query.a_mat, query.shift, query.weight
    n, nm = query.n, query.n * region.m
    h0 = 0.0 if np.any(M) else RELAXED_P_FLOOR
    T, outside = oracle._coordinates(query)
    Ti = np.linalg.inv(T)
    Ki = np.kron(np.eye(region.m), Ti)
    basis = oracle._svec_basis(n)
    Mt = Ki @ M @ Ki.T
    Mt = 0.5 * (Mt + Mt.T)
    floor = h0 * (Ti @ Ti.T)
    floor = 0.5 * (floor + floor.T)
    Vt = T.T @ V @ T
    problem = oracle.SdpProblem(
        blocks=block_diag(matrix_char_fn(region, Ti @ A @ T, basis), basis),
        f0=block_diag(Mt, floor), c=np.einsum("ij,kij->k", Vt, basis))
    if outside is not None and oracle._certified_ray(
            problem, T.T @ outside[0], *outside[1:]):
        report = SolveReport(
            x_star=np.zeros(len(basis)), f_star=0.0,
            eq_residual_inf=np.inf, in_violation_inf=0.0,
            stationarity_inf=0.0, iterations=0, outer_iterations=0,
            status="infeasible")
        return oracle.BarrierResult(np.inf, None, report, False, np.inf)
    adjoint_z = problem.blocks[:, :nm, :nm].reshape(len(basis), nm * nm)
    R = np.linalg.inv(np.linalg.cholesky(V)) @ Ti.T
    value, p_matrix, lower = np.inf, None, -np.inf

    def observe(y, X):
        nonlocal value, p_matrix, lower
        P = T @ np.tensordot(y, basis, 1) @ T.T
        P = 0.5 * (P + P.T)
        trace = float(np.sum(V * P))
        if trace < value and oracle._definite(P - h0 * np.eye(n)) \
                and oracle._definite(matrix_char_fn(region, A, P) - M):
            value, p_matrix = trace, P
        lam, U = np.linalg.eigh(X[:nm, :nm])
        Z = (U * np.maximum(lam, 0.0)) @ U.T
        G = np.tensordot(adjoint_z @ Z.ravel(), basis, 1)
        g_max = float(np.linalg.eigvalsh(R @ G @ R.T)[-1])
        gain = float(np.sum(Mt * Z)) - float(np.sum(floor * G))
        bound = float(np.sum(floor * Vt))
        if gain > 0:
            bound = bound + gain / g_max if g_max > 0 else np.inf
        lower = max(lower, bound)

    report = oracle.solve(problem, np.zeros(len(basis)), observe)
    if value < np.inf and value - lower <= oracle.GAP_TOL * value:
        status = "converged"
    elif value == np.inf and report.status == "infeasible":
        status = "infeasible"
    else:
        status = "max-iter"
    return oracle.BarrierResult(value, p_matrix,
                                dataclasses.replace(report, status=status),
                                value < np.inf, lower)


class ReferenceBarrierNlp:
    """A barrier query as a factor-substituted NLP, the test reference for
    ``nlp.solve`` and ``transform``.

    Decision vector: pattern entries of the factor ``Lp`` of
    ``P / (scale * p_scale) - h0 I`` followed by those of the factor ``La``
    of the coupled block ``M_D(A, P) - M`` (both scaled the same way).  Both
    patterns are full lower triangles, so no completion is needed and every
    map is polynomial, with analytic derivatives.  ``scale`` is the shift's
    norm (one for the relaxed system), and the objective is ``tr(V P)`` in
    those units divided by ``obj_scale``.
    """

    EPSILON_FLOOR = 1e-5

    def __init__(self, query, p_scale=1.0):
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
        self.eps = self.EPSILON_FLOOR
        self.obj_scale = 1.0
        # columns of the linear map from the lower entries of P to the
        # pattern entries of M_D(A, P)
        basis = [np.zeros((n, n)) for _ in self.pat_p.entries]
        for B, (i, j) in zip(basis, self.pat_p.entries):
            B[i - 1, j - 1] = B[j - 1, i - 1] = 1.0
        self.W = np.column_stack([
            vecs(self.pat_a, matrix_char_fn(query.region, query.a_mat, B))
            for B in basis])
        self.scale = 1.0 if self.relaxed \
            else float(np.linalg.norm(query.shift, 2))
        self._set_p_scale(p_scale)
        self._jac_p = gram_jacobian(self.pat_p)
        self._jac_a = gram_jacobian(self.pat_a)
        self._jac_cols_a = self.k_p + self._jac_a.cols

    def _set_p_scale(self, p_scale):
        self.p_scale = p_scale
        self._cache_key = None
        self.h0 = RELAXED_P_FLOOR / p_scale if self.relaxed else 0.0
        shift = self.q.shift / (self.scale * p_scale)
        self.shift = 0.5 * (shift + shift.T)
        self.m_vec = vecs(self.pat_a, self.shift)

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

    def value(self, x):
        """``tr(V P)`` at ``x`` in the query's units."""
        return self.scale * self.p_scale * self.obj_scale * self.objective(x)

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

    def lower_bounds(self):
        lb = np.full(self.dim, -np.inf)
        lb[np.concatenate([self.pat_p.diag_mask, self.pat_a.diag_mask])] = \
            self.eps
        return lb

    def pack(self, P):
        """The point whose ``P`` is ``P`` (in the query's units) and whose
        coupled factor is that of ``M_D(A, P) - M`` with its spectrum
        clipped below at ``eps^2``; a ``P - h0 I`` that is not definite is
        first lifted by its most negative eigenvalue plus ``eps``."""
        n = self.n
        core = P / (self.scale * self.p_scale) - self.h0 * np.eye(n)
        core = 0.5 * (core + core.T)
        lam_c = float(np.min(np.linalg.eigvalsh(core)))
        if lam_c < self.eps ** 2:
            core = core + (self.eps + abs(lam_c)) * np.eye(n)
        Lp = np.linalg.cholesky(core)
        E = matrix_char_fn(self.q.region, self.q.a_mat,
                           core + self.h0 * np.eye(n)) - self.shift
        lam, U = np.linalg.eigh(0.5 * (E + E.T))
        floor = max(self.eps ** 2, 1e-9 * max(1.0, float(np.max(np.abs(lam)))))
        Ec = (U * np.maximum(lam, floor)) @ U.T
        La = np.linalg.cholesky(0.5 * (Ec + Ec.T))
        x = np.empty(self.dim)
        x[:self.k_p] = Lp[self.pat_p._rows0, self.pat_p._cols0]
        x[self.k_p:] = La[self.pat_a._rows0, self.pat_a._cols0]
        return x

    def problem(self):
        return NlpProblem(
            dim=self.dim,
            objective=self.objective,
            equality=self.equality,
            n_eq=self.k_a,
            lower_bounds=self.lower_bounds(),
            gradient=self.gradient,
            equality_jacobian=self.equality_jacobian,
        )

    def system(self):
        """The same problem stated as a generic constraint system."""
        h0, shift = self.h0, self.shift

        def shift_fn(beta):
            return h0 * np.eye(self.n)

        def psd_fn(beta, Sigma):
            return matrix_char_fn(self.q.region, self.q.a_mat, Sigma) - shift

        return ConstraintSystem(
            n_beta=0, pattern_sigma=self.pat_p, pattern_a=self.pat_a,
            shift_fn=shift_fn, psd_fn=psd_fn)
