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
from .indexsets import IndexSet, direct_sum, full_lower, vecs
from .nlp import NlpProblem, SolveOptions, SolveReport, solve
from .oracle import BarrierQuery, barrier_solve
from .regions import (LmiRegion, matrix_char_fn, membership_margin,
                      require_pd_weight, require_sound_shift)
from .statespace import (
    Dataset,
    FilterDivergedError,
    InnovationModel,
    LadmSpec,
    ParameterLayout,
    assemble_ladm,
    eigen_report,
    ladm_blocks,
    likelihood_gradients,
    neg_log_likelihood,
    regularizer,
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


@dataclass(frozen=True)
class EigConstraintSpec:
    """One eigenvalue-region constraint on a model submatrix.

    Parameters
    ----------
    region : LmiRegion
    target : str
        Which matrix the constraint binds: ``"open_loop"`` (A),
        ``"filter"`` (A - KC) or ``"plant_block"`` (the plant submatrix).
    epsilon_i : float
        Tightening constant; the trace row reads ``tr(V P) <= 1/epsilon_i``.
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
        if self.epsilon_i <= 0:
            raise ValueError(f"epsilon_i must be positive, got {self.epsilon_i}")
        if not isinstance(self.target, str) or self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}; "
                             f"expected one of {TARGETS}")

    def resolve_target(self, A: np.ndarray, C: np.ndarray, K: np.ndarray,
                       n_s: int) -> np.ndarray:
        """The bound matrix of the model ``(A, C, K)``, which may carry
        leading stack dimensions."""
        if self.target == "open_loop":
            return A
        if self.target == "filter":
            return A - K @ C
        return A[..., :n_s, :n_s]

    def target_derivative(self, dA: np.ndarray, dC: np.ndarray,
                          dK: np.ndarray, C: np.ndarray, K: np.ndarray,
                          n_s: int) -> np.ndarray:
        """The derivative of :meth:`resolve_target` along model-block
        directions ``(dA, dC, dK)`` at ``(C, K)``."""
        if self.target == "open_loop":
            return dA
        if self.target == "filter":
            return dA - dK @ C - K @ dC
        return dA[..., :n_s, :n_s]

    def target_dim(self, spec: LadmSpec) -> int:
        return spec.n_s if self.target == "plant_block" else spec.n


@dataclass(frozen=True)
class ProblemSpec:
    """Complete description of one identification problem.

    ``delta_re`` is the covariance back-off (``Re >= delta * I``), realized
    as a diagonal block of the coupled semidefinite map; ``"auto"`` resolves
    to ``1e-8`` times the mean output variance.  ``epsilon`` is the floor on
    factor diagonals that closes the transformed feasible set.
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
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
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

    ``shifts`` and ``weights`` hold each constraint's shift ``M`` and trace
    weight ``V`` with their defaults resolved.  ``derivative_fn(beta, Sigma,
    dSigma)`` is the closed-form Jacobian of the pattern entries of the
    coupled map followed by the trace rows: one column per beta coordinate,
    then one per symmetric direction ``dSigma[k]`` of Sigma.
    """

    spec: ProblemSpec
    layout: ParameterLayout
    system: ConstraintSystem
    sigma_blocks: tuple[tuple[int, int], ...]
    a_blocks: tuple[tuple[int, int], ...]
    delta_re: float
    shifts: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    derivative_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def model_of(self, theta: ThetaPoint) -> InnovationModel:
        return assemble_ladm(self.spec.ladm, theta, self.layout)


def extend_with_eig_constraints(spec: ProblemSpec) -> ExtendedProblem:
    """Materialize the extended parameterization of a problem.

    The covariance argument grows one dense symmetric block per eigenvalue
    constraint, the coupled map gains the corresponding shifted
    characteristic block (and always carries the covariance back-off block),
    and one trace inequality row is added per constraint.
    """
    if spec.delta_re == "auto":
        raise ValueError("resolve delta_re to a number before extending")
    delta = float(spec.delta_re)
    ladm = spec.ladm
    p = ladm.p
    layout = ParameterLayout(ladm)

    pattern_sigma = spec.re_pattern or full_lower(p)
    pattern_a = full_lower(p)
    sigma_blocks = [(0, p)]
    a_blocks = [(0, p)]
    resolved = []
    for c in spec.eig_constraints:
        n_i = c.target_dim(ladm)
        m_i = c.region.m
        shift = c.shift if c.shift is not None else c.epsilon_i * np.eye(n_i * m_i)
        shift = np.asarray(shift, dtype=float)
        weight = c.weight if c.weight is not None else np.eye(n_i)
        weight = np.asarray(weight, dtype=float)
        if shift.shape != (n_i * m_i, n_i * m_i):
            raise ValueError(f"constraint shift must be {n_i * m_i} square")
        if weight.shape != (n_i, n_i):
            raise ValueError(f"constraint weight must be {n_i} square")
        require_pd_weight(weight)
        require_sound_shift(c.region, shift)
        sigma_blocks.append((pattern_sigma.n, n_i))
        pattern_sigma = direct_sum(pattern_sigma, full_lower(n_i))
        a_blocks.append((pattern_a.n, n_i * m_i))
        pattern_a = direct_sum(pattern_a, full_lower(n_i * m_i))
        resolved.append((c, n_i, shift, weight,
                         replace(c.region, m0=np.zeros_like(c.region.m0))))

    # Both maps take one point or a stack: the leading dimensions of beta
    # (..., n_beta) and Sigma (..., n_sigma, n_sigma) broadcast, and each
    # item of a stack is its one-point value bit for bit.
    def psd_fn(beta, Sigma):
        lead = np.broadcast_shapes(np.shape(beta)[:-1], np.shape(Sigma)[:-2])
        out = np.zeros(lead + (pattern_a.n, pattern_a.n))
        out[..., :p, :p] = Sigma[..., :p, :p] - delta * np.eye(p)
        if resolved:
            A, _, C, K = ladm_blocks(layout, beta)
            for (c, n_i, shift, _, _), (soff, _), (aoff, asize) in zip(
                    resolved, sigma_blocks[1:], a_blocks[1:]):
                P_i = Sigma[..., soff:soff + n_i, soff:soff + n_i]
                target = c.resolve_target(A, C, K, ladm.n_s)
                out[..., aoff:aoff + asize, aoff:aoff + asize] = \
                    matrix_char_fn(c.region, target, P_i) - shift
        return out

    def ineq_fn(beta, Sigma):
        rows = np.empty(np.shape(Sigma)[:-2] + (len(resolved),))
        for k, ((c, n_i, _, weight, _), (soff, _)) in enumerate(
                zip(resolved, sigma_blocks[1:])):
            P_i = Sigma[..., soff:soff + n_i, soff:soff + n_i]
            rows[..., k] = (np.trace(weight @ P_i, axis1=-2, axis2=-1)
                            - 1.0 / c.epsilon_i)
        return rows

    # the model blocks are affine in beta, so their directions along each
    # coordinate are exact differences
    nb = layout.n_beta
    dA, _, dC, dK = (b1 - b0 for b1, b0 in zip(
        ladm_blocks(layout, np.eye(nb)), ladm_blocks(layout, np.zeros(nb))))

    # M_D(T, P) is linear in P and, with M0 = 0, in T, and the trace rows
    # are linear in Sigma and free of beta
    def derivative_fn(beta, Sigma, dSigma):
        out = np.zeros((nb + len(dSigma), pattern_a.n, pattern_a.n))
        out[nb:, :p, :p] = dSigma[:, :p, :p]
        rows = np.zeros((len(out), len(resolved)))
        if resolved:
            A, _, C, K = ladm_blocks(layout, beta)
        for k, ((c, n_i, _, weight, region0), (soff, _), (aoff, asize)) in \
                enumerate(zip(resolved, sigma_blocks[1:], a_blocks[1:])):
            P_i = Sigma[soff:soff + n_i, soff:soff + n_i]
            dP = dSigma[:, soff:soff + n_i, soff:soff + n_i]
            block = out[:, aoff:aoff + asize, aoff:aoff + asize]
            block[:nb] = matrix_char_fn(
                region0, c.target_derivative(dA, dC, dK, C, K, ladm.n_s), P_i)
            block[nb:] = matrix_char_fn(
                c.region, c.resolve_target(A, C, K, ladm.n_s), dP)
            rows[nb:, k] = np.trace(weight @ dP, axis1=-2, axis2=-1)
        return np.concatenate(
            [out[:, pattern_a._rows0, pattern_a._cols0], rows], axis=1).T

    system = ConstraintSystem(
        n_beta=layout.n_beta,
        pattern_sigma=pattern_sigma,
        pattern_a=pattern_a,
        shift_fn=None,
        psd_fn=psd_fn,
        ineq_fn=ineq_fn if resolved else None,
        n_ineq=len(resolved),
    )
    return ExtendedProblem(
        spec=spec, layout=layout, system=system,
        sigma_blocks=tuple(sigma_blocks), a_blocks=tuple(a_blocks),
        delta_re=delta, shifts=tuple(r[2] for r in resolved),
        weights=tuple(r[3] for r in resolved), derivative_fn=derivative_fn)


class _IdentificationNlp:
    """Callable bundle for one identification solve.

    The objective runs the innovation filter and keeps its innovations for
    the gradient at the same point, which is the filter adjoint pulled back
    through the completed Sigma factor's tangents.  Both constraint
    Jacobians share one closed-form derivative pass per point
    (``ExtendedProblem.derivative_fn`` along the same tangents); the
    coupled-block factor enters the equalities alone, as ``-d(L L^T)``.
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
        self._L_bar = (sigma_factor_tangents(self.system, phi_bar.L_sigma)[0]
                       if self._regularized else None)
        self._cache_key = None
        self._cache_val = None
        # filter innovations at the cached point, left by the objective,
        # and the constraint derivatives at that point, left by a Jacobian
        self._innovations = None
        self._derivatives = None
        self._gram = gram_jacobian(self.system.pattern_a)
        self._gram_cols = self.k_beta_sigma + self._gram.cols

    def _forward(self, x: np.ndarray):
        key = x.tobytes()
        if key != self._cache_key:
            phi = self.system.unpack(x)
            theta, A_T = gbmz_forward(phi, self.system)
            self._cache_key = key
            self._cache_val = (phi, theta, A_T)
            self._innovations = None
            self._derivatives = None
        return self._cache_val

    def objective(self, x: np.ndarray) -> float:
        phi, theta, _ = self._forward(x)
        model = self.ext.model_of(theta)
        try:
            innovations = statespace.filter_innovations(model, self.data)
            value = neg_log_likelihood(model, self.data, innovations)
        except (ValueError, FilterDivergedError):
            return float("inf")
        self._innovations = innovations
        if self._regularized:
            value += regularizer(phi, self.phi_bar, self.rho, self.system)
        return value / self.obj_scale

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Exact objective gradient via the filter adjoint.

        The likelihood touches only the model parameters and the leading
        covariance block; matrix gradients pull back through the (linear)
        layout and along the tangents ``dL`` of the completed Sigma factor
        ``L``, and the coupled-block factor coordinates carry zero gradient.
        The innovations come from the objective call at ``x`` when there
        was one.
        """
        phi, theta, _ = self._forward(x)
        ext = self.ext
        ladm = ext.spec.ladm
        model = ext.model_of(theta)
        grads = likelihood_gradients(model, self.data, self._innovations)
        n_s = ladm.n_s
        mats = {
            "A_s": grads["A"][:n_s, :n_s],
            "B_s": grads["B"][:n_s, :],
            "K_s": grads["K"][:n_s, :],
        }
        if ladm.n_d > 0:
            mats["K_d"] = grads["K"][n_s:, :]
        if "C_s" in ext.layout.segments:
            mats["C_s"] = grads["C"][:, :n_s]
        g_beta = ext.layout.pack(mats)
        p = ladm.p
        grad_sigma = np.zeros_like(theta.Sigma)
        grad_sigma[:p, :p] = grads["Re"]
        L, dL = sigma_factor_tangents(self.system, phi.L_sigma)
        G = 2.0 * grad_sigma @ L
        if self._regularized:
            g_beta = g_beta + self.rho * (phi.beta - self.phi_bar.beta)
            G = G + self.rho * (L - self._L_bar)
        g = np.zeros(self.dim)
        g[:self.system.n_beta] = g_beta
        g[self.system.n_beta:self.k_beta_sigma] = np.einsum("kij,ij->k", dL, G)
        return g / self.obj_scale

    def equality(self, x: np.ndarray) -> np.ndarray:
        phi, theta, A_T = self._forward(x)
        Amat = self.system.psd_fn(theta.beta, theta.Sigma)
        return vecs(self.system.pattern_a, 0.5 * (Amat + Amat.T) - A_T)

    def _constraint_derivatives(self, x: np.ndarray) -> np.ndarray:
        """Jacobian columns in (beta, L_Sigma) of the pattern entries of the
        coupled map and of the trace rows: one closed-form pass along the
        Sigma factor's tangents, kept with the cached point."""
        phi, theta, _ = self._forward(x)
        if self._derivatives is None:
            L, dL = sigma_factor_tangents(self.system, phi.L_sigma)
            Q = dL @ L.T
            self._derivatives = self.ext.derivative_fn(
                theta.beta, theta.Sigma, Q + np.swapaxes(Q, 1, 2))
        return self._derivatives

    def equality_jacobian(self, x: np.ndarray) -> np.ndarray:
        ks = self.k_beta_sigma
        J = np.zeros((self.n_eq, self.dim))
        J[:, :ks] = self._constraint_derivatives(x)[:self.n_eq]
        # the completed coupled factor contributes -d(L L^T)
        pa = self.system.pattern_a
        La = np.zeros((pa.n, pa.n))
        La[pa._rows0, pa._cols0] = x[ks:]
        J[self._gram.rows, self._gram_cols] -= self._gram.values(La)
        return J

    def inequality(self, x: np.ndarray) -> np.ndarray:
        _, theta, _ = self._forward(x)
        return self.system.ineq_fn(theta.beta, theta.Sigma)

    def inequality_jacobian(self, x: np.ndarray) -> np.ndarray:
        J = np.zeros((self.system.n_ineq, self.dim))
        J[:, :self.k_beta_sigma] = self._constraint_derivatives(x)[self.n_eq:]
        return J

    def problem(self) -> NlpProblem:
        n_eq = self.n_eq
        return NlpProblem(
            dim=self.dim,
            objective=self.objective,
            equality=self.equality if n_eq else None,
            n_eq=n_eq,
            inequality=self.inequality if self.system.n_ineq else None,
            n_in=self.system.n_ineq,
            lower_bounds=self.lower,
            gradient=self.gradient,
            equality_jacobian=self.equality_jacobian if n_eq else None,
            inequality_jacobian=(self.inequality_jacobian
                                 if self.system.n_ineq else None),
        )


def build_nlp(ext: ExtendedProblem, data: Dataset,
              phi_bar: FactorPoint | None = None) -> NlpProblem:
    """Assemble the transformed minimization problem over packed factors."""
    if data.N < 1:
        raise ValueError("dataset is empty")
    if data.u.shape[1] != ext.spec.ladm.m or data.y.shape[1] != ext.spec.ladm.p:
        raise ValueError("dataset dimensions do not match the model structure")
    return _IdentificationNlp(ext, data, phi_bar).problem()


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
    if float(np.min(np.linalg.eigvalsh(Re0))) <= ext.delta_re:
        raise InitializationError(
            "initial innovation covariance does not clear the back-off floor")
    Sigma = np.zeros((ext.system.n_sigma, ext.system.n_sigma))
    Sigma[:p, :p] = Re0
    model0 = ext.model_of(ThetaPoint(theta0.beta, Re0))
    for i, c in enumerate(spec.eig_constraints):
        target = c.resolve_target(model0.A, model0.C, model0.K,
                                  spec.ladm.n_s)
        off, size = ext.sigma_blocks[i + 1]
        weight = ext.weights[i]
        res = barrier_solve(BarrierQuery(c.region, target, ext.shifts[i],
                                         weight))
        if not res.feasible:
            raise InitializationError(
                f"eigenvalue constraint {i} ({c.region.label or c.region.kind}) "
                f"is infeasible at the initial model")
        P_i = res.p_matrix
        gamma = 1.5
        budget = 1.0 / c.epsilon_i
        trace = float(np.trace(weight @ P_i))
        if gamma * trace > budget:
            gamma = max(1.0 + 1e-3, budget / trace * 0.999)
            if gamma * trace > budget:
                raise InitializationError(
                    f"eigenvalue constraint {i}: trace bound leaves no room "
                    f"for a strictly feasible start "
                    f"(tr(VP) = {trace:.3e}, bound = {budget:.3e})")
        Sigma[off:off + size, off:off + size] = gamma * P_i
    return ThetaPoint(theta0.beta, Sigma)


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

    ``init`` is a base parameter point (beta plus innovation covariance) or
    ``"auto"`` for the regression initializer.  The problem is solved once;
    a solve that does not converge returns its own last iterate, and its
    status says why it stopped.  The returned report carries the
    unregularized log-likelihood, both spectra, the iteration counts of that
    solve, wall time, and constraint residuals.
    """
    t_start = time.perf_counter()
    if data.N < 1:
        raise ValueError("dataset is empty")
    spec = replace(spec, delta_re=resolve_delta(spec, data))
    ext = extend_with_eig_constraints(spec)
    if isinstance(init, str):
        if init != "auto":
            raise ValueError(f"unknown init {init!r}")
        theta0 = varx_init(data, spec)
    else:
        theta0 = init
    theta0 = _extend_theta(ext, theta0)
    try:
        phi0 = gbmz_inverse(theta0, ext.system)
    except DomainError as exc:
        raise InitializationError(
            f"initial parameters are not strictly feasible: {exc}") from exc
    phi_bar = spec.phi_bar if spec.phi_bar is not None else phi0
    nlp = _IdentificationNlp(ext, data, phi_bar)
    report = solve(nlp.problem(), ext.system.pack(phi0),
                   options or FIT_OPTIONS)
    phi_hat = ext.system.unpack(report.x_star)
    theta_hat, _ = gbmz_forward(phi_hat, ext.system)
    model = ext.model_of(theta_hat)
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
        "open_loop_eigs": eig.open_loop,
        "filter_eigs": eig.filter,
        "spectral_radius": eig.spectral_radius,
        "spectral_abscissa": eig.spectral_abscissa,
        "delta_re": ext.delta_re,
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
    residual covariance lifted clear of the back-off floor.  Initial points
    whose target matrices violate an eigenvalue region are blended toward a
    point inside every region until strictly feasible.
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
        mats = {"A_s": a_row, "B_s": h,
                "K_s": np.zeros((n_s, p)), "K_d": 0.05 * np.eye(n_d, p)}
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
        mats = {"A_s": A_s, "B_s": B_s,
                "K_s": np.zeros((n_s, p)), "K_d": 0.05 * np.eye(n_d, p)}
        if "C_s" in layout.segments:
            mats["C_s"] = np.eye(p, n_s)

    cov = resid.T @ resid / max(1, resid.shape[0])
    lam, U = np.linalg.eigh(0.5 * (cov + cov.T))
    floor = max(2.0 * delta, 1e-10 * max(1.0, float(np.trace(cov)) / p))
    Re0 = (U * np.maximum(lam, floor)) @ U.T
    Re0 = 0.5 * (Re0 + Re0.T)

    beta = layout.pack(mats)
    theta = ThetaPoint(beta, Re0)
    if spec.eig_constraints:
        theta = _blend_feasible(theta, spec, layout)
    return theta


def _blend_feasible(theta: ThetaPoint, spec: ProblemSpec,
                    layout: ParameterLayout) -> ThetaPoint:
    """Shrink an initial point toward a region-interior default until the
    constrained target matrices sit strictly inside every region."""
    ladm = spec.ladm

    def margins(th: ThetaPoint) -> float:
        model = assemble_ladm(ladm, th, layout)
        return min(membership_margin(
            c.region, c.resolve_target(model.A, model.C, model.K, ladm.n_s))
                   for c in spec.eig_constraints)

    if margins(theta) > 1e-3:
        return theta
    # a real center that sits inside every region, found by scanning
    candidates = np.linspace(-0.95, 0.95, 77)
    best_center, best_margin = 0.5, -np.inf
    for z in candidates:
        worst = min(
            float(np.min(np.linalg.eigvalsh(
                c.region.m0 + (c.region.m1 + c.region.m1.T) * z)))
            for c in spec.eig_constraints)
        if worst > best_margin:
            best_center, best_margin = float(z), worst
    if best_margin <= 0:
        raise InitializationError(
            "no real point lies inside every constraint region; supply a "
            "feasible initial model explicitly")
    mats = layout.matrices(theta.beta)
    for t in np.linspace(0.1, 1.0, 10):
        blended = dict(mats)
        blended["A_s"] = (1 - t) * mats["A_s"] + t * best_center * np.eye(ladm.n_s)
        blended["K_s"] = (1 - t) * mats["K_s"]
        blended["K_d"] = (1 - t) * mats["K_d"] + t * 0.05 * np.eye(ladm.n_d, ladm.p)
        cand = ThetaPoint(layout.pack(blended), theta.Sigma)
        if margins(cand) > 1e-3:
            return cand
    raise InitializationError(
        "could not blend the initial model into the constraint regions")


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
