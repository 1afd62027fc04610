"""Constrained maximum-likelihood identification of augmented models.

Ties the pieces together: the parameter layout and covariance block form the
base constraint system; each eigenvalue-region constraint appends a Lyapunov
block to the covariance argument, a characteristic block to the coupled
semidefinite map, and a trace row to the inequalities.  The resulting
problem is transformed to factor space and handed to the solver with
closed-form derivatives (the filter adjoint and one linearization of the
polynomial constraint maps per point), and the solution is mapped back to
model matrices.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import statespace
from .indexsets import IndexSet, direct_sum, full_lower
from .nlp import NlpProblem, SolveOptions, SolveReport, solve
from .oracle import BarrierQuery, barrier_solve
from .regions import LmiRegion, block_diag, char_fn, matrix_char_fn
from .statespace import (
    Dataset,
    FilterDivergedError,
    InnovationModel,
    LadmSpec,
    ParameterLayout,
    _same_matrix,
    assemble_ladm,
    eigen_report,
    ladm_blocks,
    likelihood_gradients,
    neg_log_likelihood,
)
from .transform import (
    ConstraintSystem,
    DomainError,
    FactorPoint,
    ThetaPoint,
    epsilon_box,
    gbmz_forward,
    gbmz_inverse,
    gram_jacobian,
    sigma_factor_tangents,
)

__all__ = [
    "EigConstraintSpec",
    "ProblemSpec",
    "ExtendedProblem",
    "FitResult",
    "InitializationError",
    "extend_with_eig_constraints",
    "build_nlp",
    "fit",
    "FIT_OPTIONS",
    "varx_init",
    "epsilon_continuation",
]

TARGETS = ("open_loop", "filter", "plant_block")

# solver settings of a fit when none are given (the CLI config's defaults)
FIT_OPTIONS = SolveOptions(penalty0=100.0, max_inner=400,
                           init_multipliers="lsq")


class InitializationError(ValueError):
    """The initial parameters are unusable for the requested problem."""


@dataclass(frozen=True, eq=False)
class EigConstraintSpec:
    """One eigenvalue-region constraint on a model submatrix.

    Parameters
    ----------
    region : LmiRegion
    target : str
        Which matrix the constraint binds: ``"open_loop"`` (A),
        ``"filter"`` (A - KC) or ``"plant_block"`` (the plant submatrix).
    epsilon_i : float
        Tightening constant, finite and positive; the trace row reads
        ``tr(V P) <= 1/epsilon_i``.
    weight : ndarray or None
        Trace weight ``V`` (identity by default).
    shift : ndarray or None
        Semidefinite shift ``M`` (``epsilon_i * I`` by default).
    """

    region: LmiRegion
    target: str = "filter"
    epsilon_i: float = 0.03
    weight: np.ndarray | None = None
    shift: np.ndarray | None = None

    def __post_init__(self):
        if isinstance(self.epsilon_i, bool) or not 0 < self.epsilon_i < np.inf:
            raise ValueError(f"epsilon_i must be finite and positive, "
                             f"got {self.epsilon_i}")
        if not isinstance(self.target, str) or self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}; "
                             f"expected one of {TARGETS}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, EigConstraintSpec):
            return NotImplemented
        return (self.region, self.target, self.epsilon_i) \
            == (other.region, other.target, other.epsilon_i) \
            and _same_matrix(self.weight, other.weight) \
            and _same_matrix(self.shift, other.shift)

    __hash__ = None

    def resolve_target(self, A: np.ndarray, C: np.ndarray, K: np.ndarray,
                       n_s: int) -> np.ndarray:
        """The bound matrix of the model ``(A, C, K)``, which may carry
        leading stack dimensions."""
        if self.target == "open_loop":
            return A
        if self.target == "filter":
            return A - K @ C
        return A[..., :n_s, :n_s]

    def query(self, A: np.ndarray) -> BarrierQuery:
        """The oracle query of this constraint at its bound matrix ``A``:
        :class:`BarrierQuery` resolves the shift (``epsilon_i I`` unless
        given) and the weight, and checks both."""
        shift = self.epsilon_i if self.shift is None else self.shift
        return BarrierQuery(self.region, A, shift, self.weight)


@dataclass(frozen=True)
class ProblemSpec:
    """Complete description of one identification problem.

    ``delta_re`` is the covariance back-off (``Re >= delta * I``), realized
    as a diagonal block of the coupled semidefinite map; ``"auto"`` resolves
    to ``1e-8`` times the mean output variance, and a number must be finite
    and nonnegative.  ``epsilon`` is the floor on factor diagonals that
    closes the transformed feasible set, finite and positive; the prior
    weight ``rho`` is finite and nonnegative.
    """

    ladm: LadmSpec
    re_pattern: IndexSet | None = None
    eig_constraints: tuple[EigConstraintSpec, ...] = ()
    rho: float = 0.0
    phi_bar: FactorPoint | None = None
    epsilon: float = 1e-6
    delta_re: float | str = "auto"

    def __post_init__(self):
        object.__setattr__(self, "eig_constraints", tuple(self.eig_constraints))
        if isinstance(self.rho, bool) or not 0 <= self.rho < np.inf:
            raise ValueError(f"rho must be finite and nonnegative, "
                             f"got {self.rho}")
        if isinstance(self.epsilon, bool) or not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and positive, "
                             f"got {self.epsilon}")
        delta = self.delta_re
        if not (delta == "auto" or not isinstance(delta, (str, bool))
                and 0 <= delta < np.inf):
            raise ValueError(f"delta_re must be \"auto\" or a finite number "
                             f">= 0, got {delta}")
        pat = self.re_pattern
        if pat is not None:
            if pat.n != self.ladm.p:
                raise ValueError(
                    f"re_pattern dimension {pat.n} != output count {self.ladm.p}")
            if not pat.contains_diagonal():
                raise ValueError("re_pattern must contain the diagonal")


@dataclass(frozen=True)
class ExtendedProblem:
    """A problem with its Lyapunov blocks and constraint system materialized.

    ``queries`` holds each constraint's oracle query, its shift ``M`` and
    trace weight ``V`` resolved, at a zero bound matrix; constraint ``i``'s
    Lyapunov block of Sigma, ``queries[i].n`` wide, follows those before
    it.  ``coupled_fn(A, C, K, Sigma)`` is the coupled map at the model
    blocks ``(A, C, K)`` of a point (``system.psd_fn`` builds them from
    beta).  ``derivative_fn(A, C, K, Sigma, dSigma)`` is the closed-form
    Jacobian of the pattern entries of the coupled map followed by the
    trace rows: one column per beta coordinate, then one per symmetric
    direction ``dSigma[k]`` of Sigma.
    """

    spec: ProblemSpec
    layout: ParameterLayout
    system: ConstraintSystem
    queries: tuple[BarrierQuery, ...]
    coupled_fn: Callable[..., np.ndarray]
    derivative_fn: Callable[..., np.ndarray]

    def model_of(self, theta: ThetaPoint) -> InnovationModel:
        return assemble_ladm(self.spec.ladm, theta, self.layout)


def extend_with_eig_constraints(spec: ProblemSpec) -> ExtendedProblem:
    """Materialize the extended parameterization of a problem.

    The covariance argument grows one dense symmetric block per eigenvalue
    constraint, the coupled map gains the corresponding shifted
    characteristic block (and always carries the covariance back-off block),
    and one trace inequality row is added per constraint.  A constraint's
    shift must be nonzero: a zero shift would pose the relaxed system.
    """
    if spec.delta_re == "auto":
        raise ValueError("resolve delta_re to a number before extending")
    delta = float(spec.delta_re)
    ladm = spec.ladm
    p = ladm.p
    layout = ParameterLayout(ladm)
    zeros = (np.zeros((ladm.n, ladm.n)), np.zeros((p, ladm.n)),
             np.zeros((ladm.n, p)))

    pattern_sigma = spec.re_pattern or full_lower(p)
    pattern_a = full_lower(p)
    # one record per constraint: (spec, query, region with M0 = 0, its
    # Lyapunov block of Sigma, its characteristic block of the coupled map)
    records = []
    for c in spec.eig_constraints:
        q = c.query(c.resolve_target(*zeros, ladm.n_s))
        if not np.any(q.shift):
            raise ValueError("constraint shift must be nonzero")
        s = slice(pattern_sigma.n, pattern_sigma.n + q.n)
        a = slice(pattern_a.n, pattern_a.n + len(q.shift))
        pattern_sigma = direct_sum(pattern_sigma, full_lower(q.n))
        pattern_a = direct_sum(pattern_a, full_lower(len(q.shift)))
        records.append(
            (c, q, replace(c.region, m0=np.zeros_like(c.region.m0)), s, a))

    def coupled_fn(A, C, K, Sigma):
        out = np.zeros((pattern_a.n, pattern_a.n))
        out[:p, :p] = Sigma[:p, :p] - delta * np.eye(p)
        for c, q, _, s, a in records:
            target = c.resolve_target(A, C, K, ladm.n_s)
            out[a, a] = matrix_char_fn(c.region, target, Sigma[s, s]) - q.shift
        return out

    def psd_fn(beta, Sigma):
        A, _, C, K = ladm_blocks(layout, beta)
        return coupled_fn(A, C, K, Sigma)

    def ineq_fn(beta, Sigma):
        return np.array([np.trace(q.weight @ Sigma[s, s]) - 1.0 / c.epsilon_i
                         for c, q, _, s, _ in records])

    nb = layout.n_beta
    dA, _, dC, dK = layout.directions

    # M_D(T, P) is linear in P and, with M0 = 0, in T, and the trace rows
    # are linear in Sigma and free of beta
    def derivative_fn(A, C, K, Sigma, dSigma):
        out = np.zeros((nb + len(dSigma), pattern_a.n, pattern_a.n))
        out[nb:, :p, :p] = dSigma[:, :p, :p]
        rows = np.zeros((len(out), len(records)))
        for k, (c, q, region0, s, a) in enumerate(records):
            dP = dSigma[:, s, s]
            # d(A - K C) = (dA - dK C) - K dC
            dT = c.resolve_target(dA, C, dK, ladm.n_s)
            if c.target == "filter":
                dT = dT - K @ dC
            out[:nb, a, a] = matrix_char_fn(region0, dT, Sigma[s, s])
            out[nb:, a, a] = matrix_char_fn(
                c.region, c.resolve_target(A, C, K, ladm.n_s), dP)
            rows[nb:, k] = np.trace(q.weight @ dP, axis1=-2, axis2=-1)
        return np.concatenate(
            [out[:, pattern_a._rows0, pattern_a._cols0], rows], axis=1).T

    system = ConstraintSystem(
        n_beta=layout.n_beta,
        pattern_sigma=pattern_sigma,
        pattern_a=pattern_a,
        shift_fn=None,
        psd_fn=psd_fn,
        ineq_fn=ineq_fn if records else None,
        n_ineq=len(records),
    )
    return ExtendedProblem(
        spec=spec, layout=layout, system=system,
        queries=tuple(q for _, q, _, _, _ in records),
        coupled_fn=coupled_fn, derivative_fn=derivative_fn)


class _IdentificationNlp:
    """Callable bundle for one identification solve.

    Each decision vector maps once to a record (factors, theta, completed
    coupled block, model) that all six callables read.  The objective keeps
    its filter innovations for the gradient at the same point: the filter
    adjoint pulled back along the completed Sigma factor's tangents.  Those
    tangents, computed once per point, also serve the MAP prior and the one
    constraint Jacobian of the point (``ExtendedProblem.derivative_fn``, and
    the coupled-block factor's ``-d(L L^T)`` in the equality rows), whose
    row blocks are the equality and inequality Jacobians.
    """

    def __init__(self, ext: ExtendedProblem, data: Dataset,
                 phi_bar: FactorPoint | None):
        self.ext = ext
        self.data = data
        self.system = ext.system
        self.phi_bar = phi_bar
        self.rho = ext.spec.rho
        self.dim = self.system.dim
        self.n_eq = len(self.system.pattern_a)
        self.k_beta_sigma = self.system.n_beta + len(self.system.pattern_sigma)
        self.lower = epsilon_box(self.system, ext.spec.epsilon)
        # per-sample objective scaling keeps likelihood gradients O(1)
        # against the constraint residuals
        self.obj_scale = float(max(1, data.N))
        self._regularized = self.rho > 0 and phi_bar is not None
        if self._regularized and (
                phi_bar.beta.size != self.system.n_beta
                or phi_bar.L_sigma.shape != (self.system.n_sigma,) * 2):
            raise ValueError("phi_bar does not match the problem's layout")
        self._L_bar = (sigma_factor_tangents(self.system, phi_bar.L_sigma)[0]
                       if self._regularized else None)
        self._cache_key = None
        self._cache_val = None
        # left at the cached point by the objective and by the first
        # derivative taken there
        self._innovations = None
        self._tangents = None
        self._jacobian = None
        self._gram = gram_jacobian(self.system.pattern_a)
        self._gram_cols = self.k_beta_sigma + self._gram.cols

    def _forward(self, x: np.ndarray):
        """The record ``(phi, theta, A_T, model)`` of ``x``."""
        key = x.tobytes()
        if key != self._cache_key:
            phi = self.system.unpack(x)
            theta, A_T = gbmz_forward(phi, self.system)
            self._cache_key = key
            self._cache_val = (phi, theta, A_T, self.ext.model_of(theta))
            self._innovations = self._tangents = self._jacobian = None
        return self._cache_val

    def _sigma_tangents(self, x: np.ndarray):
        """The completed Sigma factor ``L`` at ``x`` and its tangents."""
        phi = self._forward(x)[0]
        if self._tangents is None:
            self._tangents = sigma_factor_tangents(self.system, phi.L_sigma)
        return self._tangents

    def objective(self, x: np.ndarray) -> float:
        """The NLL plus the MAP prior ``(rho/2)(|beta - beta_bar|^2 +
        |L - L_bar|_F^2)`` over the completed Sigma factors, per sample."""
        phi, _, _, model = self._forward(x)
        try:
            innovations = statespace.filter_innovations(model, self.data)
            value = neg_log_likelihood(model, self.data, innovations)
        except (ValueError, FilterDivergedError):
            return float("inf")
        self._innovations = innovations
        if self._regularized:
            dbeta = phi.beta - self.phi_bar.beta
            dL = self._sigma_tangents(x)[0] - self._L_bar
            value += 0.5 * self.rho * (float(dbeta @ dbeta)
                                       + float(np.sum(dL * dL)))
        return value / self.obj_scale

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Exact objective gradient via the filter adjoint.

        The likelihood touches only the model parameters and the leading
        covariance block; matrix gradients pull back along the layout's
        block directions and along the tangents ``dL`` of the completed
        Sigma factor ``L``, and the coupled-block factor coordinates carry
        zero gradient.  The innovations come from the objective call at
        ``x`` when there was one.
        """
        phi, theta, _, model = self._forward(x)
        grads = likelihood_gradients(model, self.data, self._innovations)
        g_beta = sum(d.reshape(len(d), -1) @ grads[name].ravel() for d, name
                     in zip(self.ext.layout.directions, "ABCK"))
        p = self.ext.spec.ladm.p
        grad_sigma = np.zeros_like(theta.Sigma)
        grad_sigma[:p, :p] = grads["Re"]
        L, dL = self._sigma_tangents(x)
        G = 2.0 * grad_sigma @ L
        if self._regularized:
            g_beta = g_beta + self.rho * (phi.beta - self.phi_bar.beta)
            G = G + self.rho * (L - self._L_bar)
        g = np.zeros(self.dim)
        g[:self.system.n_beta] = g_beta
        g[self.system.n_beta:self.k_beta_sigma] = np.einsum("kij,ij->k", dL, G)
        return g / self.obj_scale

    def equality(self, x: np.ndarray) -> np.ndarray:
        _, theta, A_T, model = self._forward(x)
        Amat = self.ext.coupled_fn(model.A, model.C, model.K, theta.Sigma)
        pa = self.system.pattern_a
        return (0.5 * (Amat + Amat.T) - A_T)[pa._rows0, pa._cols0]

    def _constraint_jacobian(self, x: np.ndarray) -> np.ndarray:
        """The ``(n_eq + n_in, dim)`` Jacobian of the equalities, then the
        trace rows: one closed-form pass along the Sigma factor's tangents,
        and the completed coupled factor's ``-d(L L^T)`` in the equality
        rows; kept with the cached point, a new matrix for each point."""
        phi, theta, _, model = self._forward(x)
        if self._jacobian is None:
            L, dL = self._sigma_tangents(x)
            Q = dL @ L.T
            J = np.zeros((self.n_eq + self.system.n_ineq, self.dim))
            J[:, :self.k_beta_sigma] = self.ext.derivative_fn(
                model.A, model.C, model.K, theta.Sigma,
                Q + np.swapaxes(Q, 1, 2))
            J[self._gram.rows, self._gram_cols] -= self._gram.values(phi.L_a)
            self._jacobian = J
        return self._jacobian

    def equality_jacobian(self, x: np.ndarray) -> np.ndarray:
        return self._constraint_jacobian(x)[:self.n_eq]

    def inequality(self, x: np.ndarray) -> np.ndarray:
        _, theta, _, _ = self._forward(x)
        return self.system.ineq_fn(theta.beta, theta.Sigma)

    def inequality_jacobian(self, x: np.ndarray) -> np.ndarray:
        return self._constraint_jacobian(x)[self.n_eq:]

    def problem(self) -> NlpProblem:
        # the back-off block keeps n_eq >= 1
        return NlpProblem(
            dim=self.dim,
            objective=self.objective,
            equality=self.equality,
            n_eq=self.n_eq,
            inequality=self.inequality if self.system.n_ineq else None,
            n_in=self.system.n_ineq,
            lower_bounds=self.lower,
            gradient=self.gradient,
            equality_jacobian=self.equality_jacobian,
            inequality_jacobian=(self.inequality_jacobian
                                 if self.system.n_ineq else None),
        )


def _check_dimensions(ladm: LadmSpec, data: Dataset) -> None:
    """``ValueError`` unless the record's dimensions are the model's."""
    m, p = data.u.shape[1], data.y.shape[1]
    if (m, p) != (ladm.m, ladm.p):
        raise ValueError(
            f"dataset has {m} input(s) and {p} output(s); the model "
            f"structure has {ladm.m} input(s) and {ladm.p} output(s)")


def build_nlp(ext: ExtendedProblem, data: Dataset) -> NlpProblem:
    """Assemble the transformed minimization problem over packed factors,
    with the MAP prior centred on ``ext.spec.phi_bar``, which ``rho > 0``
    requires (:func:`fit` centres it on its start instead)."""
    _check_dimensions(ext.spec.ladm, data)
    if ext.spec.rho > 0 and ext.spec.phi_bar is None:
        raise ValueError("rho > 0 needs a prior centre phi_bar")
    return _IdentificationNlp(ext, data, ext.spec.phi_bar).problem()


def resolve_delta(spec: ProblemSpec, data: Dataset) -> float:
    if spec.delta_re != "auto":
        return float(spec.delta_re)
    return 1e-8 * float(np.mean(np.var(data.y, axis=0)))


def _extend_theta(ext: ExtendedProblem, theta0: ThetaPoint) -> ThetaPoint:
    """Append strictly feasible Lyapunov blocks to an initial base point.

    Each block comes from a barrier solve at the initial target matrix,
    inflated away from the semidefinite boundary; trace rows are then
    verified against their bounds.
    """
    spec = ext.spec
    p = spec.ladm.p
    if theta0.Sigma.shape[0] == ext.system.n_sigma:
        return theta0
    if theta0.Sigma.shape[0] != p:
        raise InitializationError(
            f"initial Sigma must be {p} x {p} (the innovation covariance) or "
            f"the full extended block, got {theta0.Sigma.shape}")
    Re0 = theta0.Sigma
    if float(np.min(np.linalg.eigvalsh(Re0))) <= spec.delta_re:
        raise InitializationError(
            "initial innovation covariance does not clear the back-off floor")
    blocks = [Re0]
    model0 = ext.model_of(ThetaPoint(theta0.beta, Re0))
    for i, c in enumerate(spec.eig_constraints):
        q = replace(ext.queries[i], a_mat=c.resolve_target(
            model0.A, model0.C, model0.K, spec.ladm.n_s))
        res = barrier_solve(q)
        if not res.feasible:
            raise InitializationError(
                f"eigenvalue constraint {i} ({c.region.label or c.region.kind}) "
                f"is infeasible at the initial model")
        P_i = res.p_matrix
        gamma = 1.5
        budget = 1.0 / c.epsilon_i
        trace = float(np.trace(q.weight @ P_i))
        if gamma * trace > budget:
            gamma = max(1.0 + 1e-3, budget / trace * 0.999)
            if gamma * trace > budget:
                raise InitializationError(
                    f"eigenvalue constraint {i}: trace bound leaves no room "
                    f"for a strictly feasible start "
                    f"(tr(VP) = {trace:.3e}, bound = {budget:.3e})")
        blocks.append(gamma * P_i)
    return ThetaPoint(theta0.beta, block_diag(*blocks))


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters, model, and solve diagnostics."""

    theta_hat: ThetaPoint
    model: InnovationModel
    phi_hat: FactorPoint
    nll: float
    objective_value: float
    solve_report: SolveReport
    report: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.solve_report.converged


def fit(
    spec: ProblemSpec,
    data: Dataset,
    init: ThetaPoint | str = "auto",
    options: SolveOptions | None = None,
) -> FitResult:
    """Identify a model by constrained maximum likelihood.

    ``init`` is a base parameter point (beta plus innovation covariance),
    taken as given, or ``"auto"`` for the regression initializer blended
    into the constraints until its start extends.  The problem is solved once;
    a solve that does not converge returns its own last iterate, and its
    status says why it stopped.  The returned report carries the
    unregularized log-likelihood, both spectra, the iteration counts and
    per-outer-iteration ``trace`` of that solve, wall time, and constraint
    residuals.
    """
    t_start = time.perf_counter()
    _check_dimensions(spec.ladm, data)
    spec = replace(spec, delta_re=resolve_delta(spec, data))
    ext = extend_with_eig_constraints(spec)
    if isinstance(init, str):
        if init != "auto":
            raise ValueError(f"unknown init {init!r}")
        theta0 = _blend_feasible(ext, varx_init(data, spec))
    else:
        theta0 = _extend_theta(ext, init)
    try:
        phi0 = gbmz_inverse(theta0, ext.system)
    except DomainError as exc:
        raise InitializationError(
            f"initial parameters are not strictly feasible: {exc}") from exc
    phi_bar = spec.phi_bar if spec.phi_bar is not None else phi0
    nlp = _IdentificationNlp(ext, data, phi_bar)
    report = solve(nlp.problem(), ext.system.pack(phi0),
                   options or FIT_OPTIONS)
    phi_hat, theta_hat, _, model = nlp._forward(report.x_star)
    nll = neg_log_likelihood(model, data)
    eig = eigen_report(model)
    wall = time.perf_counter() - t_start
    objective_value = report.f_star * nlp.obj_scale
    info = {
        "nll": nll,
        "objective": objective_value,
        "iterations": report.iterations,
        "outer_iterations": report.outer_iterations,
        "status": report.status,
        "wall_time_s": wall,
        "eq_residual_inf": report.eq_residual_inf,
        "in_violation_inf": report.in_violation_inf,
        "stationarity_inf": report.stationarity_inf,
        "inner_capped": report.inner_capped,
        "trace": list(report.trace),
        "open_loop_eigs": eig.open_loop,
        "filter_eigs": eig.filter,
        "spectral_radius": eig.spectral_radius,
        "spectral_abscissa": eig.spectral_abscissa,
        "delta_re": spec.delta_re,
        "epsilon": spec.epsilon,
    }
    return FitResult(theta_hat, model, phi_hat, nll, objective_value,
                     report, info)


def _arx_regression(data: Dataset, order: int):
    """Stacked least squares for an autoregressive fit with ``order`` lags.

    Degenerate input-lag columns (an unexcited input) are dropped with zero
    coefficients; a degenerate output-lag column means the autoregressive
    part is unidentifiable and is an error.
    """
    y, u = data.y, data.u
    N, p = y.shape
    m = u.shape[1]
    if N <= order * (p + m) + 1:
        raise InitializationError(
            f"need more than {order * (p + m) + 1} samples, got {N}")
    rows = N - order
    X = np.empty((rows, order * (p + m)))
    is_output = np.zeros(order * (p + m), dtype=bool)
    for lag in range(1, order + 1):
        base = (lag - 1) * (p + m)
        X[:, base:base + p] = y[order - lag:N - lag]
        X[:, base + p:base + p + m] = u[order - lag:N - lag]
        is_output[base:base + p] = True
    Y = y[order:]
    spread = np.std(X, axis=0)
    scale = max(1e-12, float(np.max(spread)))
    active = spread > 1e-9 * scale
    if np.any(is_output & ~active):
        raise InitializationError(
            "regression is rank deficient: an output history column is "
            "constant (condition number inf)")
    sol, _, rank, sv = np.linalg.lstsq(X[:, active], Y, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else np.inf
    if rank < int(np.sum(active)) or cond > 1e12:
        raise InitializationError(
            f"regression is rank deficient (rank {rank} of "
            f"{int(np.sum(active))}, condition number {cond:.3e})")
    coef = np.zeros((order * (p + m), p))
    coef[active] = sol
    resid = Y - X[:, active] @ sol
    return coef, resid, cond


def varx_init(data: Dataset, spec: ProblemSpec) -> ThetaPoint:
    """Least-squares autoregressive initial guess mapped into the layout.

    A one-lag vector autoregression supplies the plant dynamics when the
    output map is the identity; the single-output canonical form uses an
    ``n_s``-lag fit realized through its impulse response.  The filter gain
    starts at zero on plant rows with a small positive diagonal on the
    disturbance rows, and the innovation covariance is the regression
    residual covariance lifted clear of the back-off floor.  The
    eigenvalue constraints play no part: :func:`fit` blends this point into
    them.
    """
    ladm = spec.ladm
    p, m, n_s, n_d = ladm.p, ladm.m, ladm.n_s, ladm.n_d
    layout = ParameterLayout(ladm)
    delta = resolve_delta(spec, data)

    if ladm.plant_form == "canonical":
        coef, resid, _ = _arx_regression(data, n_s)
        alphas = np.array([coef[(lag - 1) * (p + m), 0] for lag in range(1, n_s + 1)])
        betas = np.array([coef[(lag - 1) * (p + m) + p:(lag - 1) * (p + m) + p + m, 0]
                          for lag in range(1, n_s + 1)])
        # bottom row stores the characteristic coefficients, highest lag first
        a_row = alphas[::-1].copy()
        # with C = e1 and ones on the superdiagonal the observability matrix
        # is the identity, so B rows are the leading impulse responses
        h = np.zeros((n_s, m))
        for k in range(n_s):
            h[k] = betas[k]
            for j in range(k):
                h[k] += alphas[j] * h[k - 1 - j]
        mats = {"A_s": a_row, "B_s": h}
    else:
        coef, resid, _ = _arx_regression(data, 1)
        A1 = coef[:p].T
        B1 = coef[p:p + m].T
        if ladm.C_fixed is not None and n_s == p \
                and np.allclose(ladm.C_fixed, np.eye(p)):
            A_s, B_s = A1, B1
        else:
            # no similarity maps the regression onto this layout directly;
            # start from slow diagonal dynamics and match the input map
            # through the fixed output matrix
            A_s = 0.5 * np.eye(n_s)
            C_s = ladm.C_fixed if ladm.C_fixed is not None else np.eye(p, n_s)
            B_s = np.linalg.pinv(C_s) @ B1
        mats = {"A_s": A_s, "B_s": B_s}
        if "C_s" in layout.segments:
            mats["C_s"] = np.eye(p, n_s)
    mats.update(K_s=np.zeros((n_s, p)), K_d=0.05 * np.eye(n_d, p))

    cov = resid.T @ resid / max(1, resid.shape[0])
    lam, U = np.linalg.eigh(0.5 * (cov + cov.T))
    floor = max(2.0 * delta, 1e-10 * max(1.0, float(np.trace(cov)) / p))
    Re0 = (U * np.maximum(lam, floor)) @ U.T
    Re0 = 0.5 * (Re0 + Re0.T)

    return ThetaPoint(layout.pack(mats), Re0)


def _blend_feasible(ext: ExtendedProblem, theta: ThetaPoint) -> ThetaPoint:
    """The first point that :func:`_extend_theta` accepts, extended:
    ``theta``, else ``theta`` blended toward an end point whose constrained
    poles all sit at a real centre ``c`` inside every region, else the last
    rejection.  The end point's plant block is ``c I`` (in the canonical
    form, the companion of ``(z - c)^n_s``), with ``K_s = 0`` and ``K_d =
    (1 - c) I``: with ``Bd = 0`` and ``Cd = I`` the filter matrix is then
    block triangular with every eigenvalue at ``c``."""
    try:
        return _extend_theta(ext, theta)
    except InitializationError as exc:
        error = exc
    ladm, layout = ext.spec.ladm, ext.layout
    # a real center that sits inside every region, found by scanning
    candidates = np.linspace(-0.95, 0.95, 77)
    worst = np.min([np.linalg.eigvalsh(char_fn(c.region, candidates))[:, 0]
                    for c in ext.spec.eig_constraints], axis=0)
    best = int(np.argmax(worst))
    center = float(candidates[best])
    if worst[best] <= 0:
        raise InitializationError(
            "no real point lies inside every constraint region; supply a "
            "feasible initial model explicitly")
    mats = layout.matrices(theta.beta)
    end = layout.pack(dict(
        mats, A_s=(-np.poly(np.full(ladm.n_s, center))[:0:-1]
                   if ladm.plant_form == "canonical"
                   else center * np.eye(ladm.n_s)),
        K_s=np.zeros_like(mats["K_s"]),
        K_d=(1 - center) * np.eye(ladm.n_d, ladm.p)))
    for t in np.linspace(0.1, 1.0, 10):
        try:
            return _extend_theta(ext, ThetaPoint(
                (1 - t) * theta.beta + t * end, theta.Sigma))
        except InitializationError as exc:
            error = exc
    raise error


def epsilon_continuation(
    spec: ProblemSpec,
    data: Dataset,
    eps_schedule,
    init: ThetaPoint | str = "auto",
    options: SolveOptions | None = None,
) -> list[FitResult]:
    """Fit at a decreasing sequence of factor-diagonal floors.

    Each stage warm-starts from the previous solution.  The achieved
    objective values should be nonincreasing as the floor shrinks; a
    violation beyond solver tolerance is reported as a warning, not an
    error.
    """
    schedule = [float(e) for e in eps_schedule]
    if not schedule:
        raise ValueError("epsilon schedule is empty")
    if any(e <= 0 for e in schedule):
        raise ValueError("epsilon schedule must be positive")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("epsilon schedule must be strictly decreasing")
    results: list[FitResult] = []
    cur_init: ThetaPoint | str = init
    for eps in schedule:
        stage = replace(spec, epsilon=eps)
        res = fit(stage, data, cur_init, options)
        results.append(res)
        cur_init = res.theta_hat
    values = [r.objective_value for r in results]
    for a, b in zip(values, values[1:]):
        if b > a + 1e-5 * max(1.0, abs(a)):
            warnings.warn(
                f"objective increased along the floor schedule "
                f"({a:.6g} -> {b:.6g})", stacklevel=2)
            break
    return results
