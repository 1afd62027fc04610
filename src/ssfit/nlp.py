"""Smooth constrained minimization: augmented Lagrangian over bound constraints.

Solves problems of the form

    min f(x)  subject to  c_eq(x) = 0,  c_in(x) <= 0,  x >= lb

with a method-of-multipliers outer loop and a projected quasi-Newton (BFGS)
inner solve.  Derivatives come from user-supplied providers or central
finite differences.  The solver is deterministic and has no dependencies
beyond numpy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "NlpProblem",
    "SolveOptions",
    "SolveReport",
    "FdGradientError",
    "GradientMismatchError",
    "solve",
    "fd_gradient",
    "fd_jacobian",
    "fd_stencil",
    "preflight_gradients",
]


# Penalty cap, violation ratio that counts as progress, and the step of the
# finite differences that stand in for a missing derivative provider.
PENALTY_MAX = 1e8
VIOLATION_SHRINK = 0.25
FD_STEP = 1e-6


class FdGradientError(ArithmeticError):
    """A finite-difference stencil produced nonfinite values."""


class GradientMismatchError(ValueError):
    """A supplied derivative disagrees with its finite-difference check."""


@dataclass(frozen=True)
class NlpProblem:
    """A constrained minimization instance.

    Parameters
    ----------
    dim : int
        Decision-vector length.
    objective : callable
        ``x -> float``; may return ``+inf`` to reject a point.
    equality : callable or None
        ``x -> ndarray`` of length ``n_eq`` (feasible means zero).
    inequality : callable or None
        ``x -> ndarray`` of length ``n_in`` (feasible means <= 0).
    lower_bounds : ndarray or None
        Per-coordinate lower bounds, ``-inf`` allowed; ``None`` means
        unbounded.
    gradient : callable or None
        Optional objective gradient provider.
    equality_jacobian, inequality_jacobian : callable or None
        Optional constraint Jacobian providers (rows are constraints).
    """

    dim: int
    objective: Callable[[np.ndarray], float]
    equality: Callable[[np.ndarray], np.ndarray] | None = None
    inequality: Callable[[np.ndarray], np.ndarray] | None = None
    n_eq: int = 0
    n_in: int = 0
    lower_bounds: np.ndarray | None = None
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    equality_jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    inequality_jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("problem dimension must be positive")
        lb = self.lower_bounds
        if lb is None:
            lb = np.full(self.dim, -np.inf)
        lb = np.asarray(lb, dtype=float).ravel()
        if lb.size != self.dim:
            raise ValueError(f"lower_bounds length {lb.size}, expected {self.dim}")
        object.__setattr__(self, "lower_bounds", lb)
        if self.equality is not None and self.n_eq <= 0:
            raise ValueError("n_eq must be positive when equality is given")
        if self.inequality is not None and self.n_in <= 0:
            raise ValueError("n_in must be positive when inequality is given")


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and iteration limits for :func:`solve`."""

    tol_eq: float = 1e-7
    tol_in: float = 1e-7
    tol_stat: float = 1e-6
    max_outer: int = 50
    max_inner: int = 300
    penalty0: float = 10.0
    penalty_factor: float = 10.0
    multistart: int = 0
    multistart_spread: float = 0.1
    init_multipliers: str = "zero"
    seed: int = 0
    verbose: int = 0


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one :func:`solve` call."""

    x_star: np.ndarray
    f_star: float
    eq_residual_inf: float
    in_violation_inf: float
    stationarity_inf: float
    iterations: int
    outer_iterations: int
    status: str
    penalty: float = 0.0
    n_evals: int = 0

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def fd_gradient(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    h0: float = 1e-6,
    lower_bounds: np.ndarray | None = None,
) -> np.ndarray:
    """Finite-difference gradient: the one-output :func:`fd_jacobian`."""
    return fd_jacobian(lambda z: float(f(z)), x, 1, h0, lower_bounds)[0]


def fd_jacobian(
    fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    n_out: int,
    h0: float = 1e-6,
    lower_bounds: np.ndarray | None = None,
) -> np.ndarray:
    """Central-difference Jacobian of a vector function (rows are outputs):
    :func:`fd_stencil` with ``fn`` called once per stencil point."""
    return fd_stencil(
        lambda Z: [np.asarray(fn(z), dtype=float).ravel() for z in Z],
        x, n_out, h0, lower_bounds)


def fd_stencil(
    fn_stack: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    n_out: int,
    h0: float = 1e-6,
    lower_bounds: np.ndarray | None = None,
) -> np.ndarray:
    """Central-difference Jacobian (rows are outputs) of a function that maps
    a ``(B, k)`` stack of points to its ``(B, n_out)`` values.

    Step sizes are ``h0 * max(1, |x_i|)``.  Every stencil point moves one
    coordinate of ``x``; they are passed in one stack, coordinate by
    coordinate, the plus point before the minus point.  When
    ``lower_bounds`` is given and the centered stencil would cross a bound,
    the stencil switches to a one-sided difference on the feasible side, so
    no point below a bound is ever evaluated; the same switch handles a
    nonfinite value on one side, with ``x`` itself evaluated (once) only
    then.  A nonfinite value at ``x`` or on both sides raises
    :class:`FdGradientError` naming the coordinate.
    """
    x = np.asarray(x, dtype=float).ravel()
    k = x.size
    h = h0 * np.fmax(1.0, np.abs(x))
    has_minus = np.ones(k, dtype=bool) if lower_bounds is None \
        else x - h >= lower_bounds
    coords = np.arange(k)
    plus = coords + np.cumsum(has_minus) - has_minus
    minus = plus[has_minus] + 1
    Z = np.repeat(x[None, :], k + minus.size, axis=0)
    Z[plus, coords] += h
    Z[minus, coords[has_minus]] -= h[has_minus]
    F = np.asarray(fn_stack(Z), dtype=float).reshape(len(Z), n_out)
    fp = F[plus]
    fm = np.full((k, n_out), np.nan)
    fm[has_minus] = F[minus]
    fp_ok = np.isfinite(fp).all(axis=1)
    fm_ok = np.isfinite(fm).all(axis=1)
    central = fp_ok & fm_ok
    J = np.empty((n_out, k))
    J[:, central] = (fp[central] - fm[central]).T / (2.0 * h[central])
    if not central.all():
        f0 = np.asarray(fn_stack(x[None, :]), dtype=float).reshape(n_out)
        bad = ~central & (~(fp_ok | fm_ok) | ~np.isfinite(f0).all())
        if bad.any():
            raise FdGradientError(
                f"nonfinite finite-difference values at coordinate "
                f"{int(np.argmax(bad))}")
        ahead, back = ~central & fp_ok, ~central & ~fp_ok
        J[:, ahead] = (fp[ahead] - f0).T / h[ahead]
        J[:, back] = (f0 - fm[back]).T / h[back]
    return J


def preflight_gradients(
    problem: NlpProblem,
    x0: np.ndarray,
    n_points: int = 20,
    rtol: float = 1e-5,
    seed: int = 0,
    h0: float = 1e-6,
) -> float:
    """Check supplied derivatives against central differences.

    Samples interior points around ``x0`` and compares every supplied
    provider (objective gradient and constraint Jacobians) with its
    finite-difference counterpart.  Returns the worst relative error and
    raises :class:`GradientMismatchError` beyond ``rtol``.  With no
    providers present there is nothing to check and the result is 0.
    """
    if problem.gradient is None and problem.equality_jacobian is None \
            and problem.inequality_jacobian is None:
        return 0.0
    rng = np.random.default_rng(seed)
    lb = problem.lower_bounds
    x0 = np.asarray(x0, dtype=float).ravel()
    worst = 0.0

    def rel_err(supplied: np.ndarray, fd: np.ndarray) -> float:
        return float(np.max(np.abs(supplied - fd)) / max(1.0, float(np.max(np.abs(fd)))))

    finite_lb = np.where(np.isfinite(lb), lb, 0.0)
    floor = np.where(np.isfinite(lb),
                     finite_lb + 1e-3 * np.maximum(1.0, np.abs(finite_lb)), -np.inf)
    for _ in range(n_points):
        x = x0 + 0.05 * rng.standard_normal(x0.size) * np.maximum(1.0, np.abs(x0))
        x = np.maximum(x, floor)
        if problem.gradient is not None:
            fd = fd_gradient(problem.objective, x, h0, lb)
            worst = max(worst, rel_err(np.asarray(problem.gradient(x)).ravel(), fd))
        if problem.equality_jacobian is not None:
            fd = fd_jacobian(problem.equality, x, problem.n_eq, h0, lb)
            worst = max(worst, rel_err(np.asarray(problem.equality_jacobian(x)), fd))
        if problem.inequality_jacobian is not None:
            fd = fd_jacobian(problem.inequality, x, problem.n_in, h0, lb)
            worst = max(worst, rel_err(np.asarray(problem.inequality_jacobian(x)), fd))
    if worst > rtol:
        raise GradientMismatchError(
            f"supplied derivatives disagree with finite differences "
            f"(relative error {worst:.3e} > {rtol:.1e})"
        )
    return worst


class _Counter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


def _evaluate(problem: NlpProblem, x: np.ndarray, count: _Counter):
    count.n += 1
    f = float(problem.objective(x))
    c = (np.asarray(problem.equality(x), dtype=float).ravel()
         if problem.equality is not None else np.zeros(0))
    s = (np.asarray(problem.inequality(x), dtype=float).ravel()
         if problem.inequality is not None else np.zeros(0))
    return f, c, s


def _al_value(f, c, s, lam, mu, rho) -> float:
    if not np.isfinite(f):
        return float("inf")
    val = f
    if c.size:
        val += float(-lam @ c + 0.5 * rho * (c @ c))
    if s.size:
        t = np.maximum(0.0, mu + rho * s)
        val += float(np.sum(t * t - mu * mu)) / (2.0 * rho)
    return val


def _objective_gradient(problem, x, count):
    if problem.gradient is not None:
        return np.asarray(problem.gradient(x), dtype=float).ravel()
    count.n += 2 * x.size
    return fd_gradient(problem.objective, x, FD_STEP, problem.lower_bounds)


def _jacobian(problem, fn, jac, n_out, x, count):
    if jac is not None:
        return np.asarray(jac(x), dtype=float)
    count.n += 2 * x.size
    return fd_jacobian(fn, x, n_out, FD_STEP, problem.lower_bounds)


def _al_gradient(problem, x, lam, mu, rho, count):
    g = _objective_gradient(problem, x, count)
    if problem.n_eq:
        c = np.asarray(problem.equality(x), dtype=float).ravel()
        Jc = _jacobian(problem, problem.equality, problem.equality_jacobian,
                       problem.n_eq, x, count)
        g = g + Jc.T @ (rho * c - lam)
    if problem.n_in:
        s = np.asarray(problem.inequality(x), dtype=float).ravel()
        Js = _jacobian(problem, problem.inequality,
                       problem.inequality_jacobian, problem.n_in, x, count)
        g = g + Js.T @ np.maximum(0.0, mu + rho * s)
    return g


def _at_bound(x: np.ndarray, lb: np.ndarray) -> np.ndarray:
    out = np.zeros(x.size, dtype=bool)
    finite = np.isfinite(lb)
    if np.any(finite):
        tol = 1e-12 * np.maximum(1.0, np.abs(lb[finite]))
        out[finite] = x[finite] <= lb[finite] + tol
    return out


def _projected_gradient(g: np.ndarray, x: np.ndarray, lb: np.ndarray) -> np.ndarray:
    pg = g.copy()
    pg[_at_bound(x, lb) & (g > 0)] = 0.0
    return pg


def _inner_minimize(problem, x, lam, mu, rho, tol, max_iter, count):
    """Projected-BFGS minimization of the augmented Lagrangian over x >= lb.

    Accepted steps are monotone in the merit value by the Armijo rule; this
    is asserted each iteration.
    """
    lb = problem.lower_bounds
    n = x.size
    scaled = False
    Hinv = np.eye(n)

    def merit(xq):
        f, c, s = _evaluate(problem, xq, count)
        return _al_value(f, c, s, lam, mu, rho)

    fx = merit(x)
    g = _al_gradient(problem, x, lam, mu, rho, count)
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
            # quasi-Newton direction failed; drop the curvature estimate and
            # retry along the projected steepest descent
            Hinv = np.eye(n)
            scaled = False
            xt, ft = backtrack(-pg)
        if xt is None:
            status = "line-search-failure"
            break
        gt = _al_gradient(problem, xt, lam, mu, rho, count)
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
    return x, fx, pg_norm, it, status


def _solve_single(problem: NlpProblem, x0: np.ndarray, opts: SolveOptions) -> SolveReport:
    lb = problem.lower_bounds
    x = np.asarray(x0, dtype=float).ravel().copy()
    if x.size != problem.dim:
        raise ValueError(f"x0 has length {x.size}, expected {problem.dim}")
    if np.any(x < lb):
        warnings.warn("initial point violates lower bounds; projecting", stacklevel=2)
        x = np.maximum(x, lb)

    count = _Counter()
    f, c, s = _evaluate(problem, x, count)
    if not np.isfinite(f):
        return SolveReport(x, f, _inf_norm(c), _pos_inf_norm(s), np.inf,
                           0, 0, "domain-error", opts.penalty0, count.n)

    lam = np.zeros(problem.n_eq)
    mu = np.zeros(problem.n_in)
    if opts.init_multipliers == "lsq" and problem.n_eq:
        # least-squares multipliers make the Lagrangian stationary in the
        # tangent directions at the start, which keeps early iterates from
        # trading feasibility for objective
        g0 = _objective_gradient(problem, x, count)
        J0 = _jacobian(problem, problem.equality, problem.equality_jacobian,
                       problem.n_eq, x, count)
        lam = np.linalg.lstsq(J0.T, g0, rcond=None)[0]
    rho = opts.penalty0
    unconstrained = problem.n_eq + problem.n_in == 0
    omega = opts.tol_stat if unconstrained else max(opts.tol_stat, 1.0 / rho)
    total_inner = 0
    v_prev = np.inf
    status = "max-iter"
    pg_norm = np.inf
    outer = 0
    ls_failures = 0

    stagnant = 0
    for outer in range(1, opts.max_outer + 1):
        # once penalty escalation stops moving the violation the subproblem
        # no longer needs polish; shrink the inner budget and head straight
        # for the penalty cap to settle infeasibility quickly
        inner_budget = opts.max_inner if stagnant < 1 \
            else min(100, opts.max_inner)
        x, fx, pg_norm, inner_iters, inner_status = _inner_minimize(
            problem, x, lam, mu, rho, omega, inner_budget, count)
        total_inner += inner_iters
        f, c, s = _evaluate(problem, x, count)
        ceq = _inf_norm(c)
        cin = _pos_inf_norm(s)
        v = max(ceq, cin)
        if v > 0.98 * v_prev and v > max(0.05, 100.0 * max(opts.tol_eq,
                                                           opts.tol_in)):
            stagnant += 1
        else:
            stagnant = 0
        if opts.verbose:
            print(f"[outer {outer:2d}] f={f: .6e} viol={v:.3e} "
                  f"pg={pg_norm:.3e} rho={rho:.1e} inner={inner_iters}")
        feasible = ceq <= opts.tol_eq and cin <= opts.tol_in
        if feasible and pg_norm <= opts.tol_stat:
            # first-order multiplier update keeps the report's multipliers
            # consistent with the accepted point
            lam = lam - rho * c
            mu = np.maximum(0.0, mu + rho * s)
            status = "converged"
            break
        if inner_status == "line-search-failure":
            ls_failures += 1
            if feasible and pg_norm <= 10 * opts.tol_stat:
                # no direction improves the merit; the stationarity measure
                # is within sight of the target, so accept
                status = "converged"
                break
            if ls_failures >= 3:
                status = "line-search-failure"
                break
        else:
            ls_failures = 0
        if v <= max(VIOLATION_SHRINK * v_prev, min(opts.tol_eq, opts.tol_in)):
            lam = lam - rho * c
            mu = np.maximum(0.0, mu + rho * s)
            omega = max(opts.tol_stat, 0.2 * omega)
        else:
            if rho >= PENALTY_MAX:
                status = "max-iter"
                break
            factor = opts.penalty_factor if stagnant < 2 \
                else PENALTY_MAX / rho
            rho = min(PENALTY_MAX, rho * max(factor, opts.penalty_factor))
            omega = max(opts.tol_stat, 1.0 / rho)
        v_prev = min(v_prev, v)

    f, c, s = _evaluate(problem, x, count)
    return SolveReport(
        x_star=x,
        f_star=f,
        eq_residual_inf=_inf_norm(c),
        in_violation_inf=_pos_inf_norm(s),
        stationarity_inf=pg_norm,
        iterations=total_inner,
        outer_iterations=outer,
        status=status,
        penalty=rho,
        n_evals=count.n,
    )


def _inf_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def _pos_inf_norm(v: np.ndarray) -> float:
    return float(np.max(np.maximum(0.0, v))) if v.size else 0.0


def solve(
    problem: NlpProblem, x0: np.ndarray, options: SolveOptions | None = None
) -> SolveReport:
    """Minimize a constrained problem from the given start.

    With ``options.multistart > 0``, additional seeded perturbations of
    ``x0`` are solved and the best feasible result is returned.
    """
    opts = options or SolveOptions()
    best = _solve_single(problem, x0, opts)
    if opts.multistart > 0:
        rng = np.random.default_rng(opts.seed)
        x0 = np.asarray(x0, dtype=float).ravel()
        for _ in range(opts.multistart):
            xs = x0 + opts.multistart_spread * rng.standard_normal(x0.size) \
                * np.maximum(1.0, np.abs(x0))
            xs = np.maximum(xs, problem.lower_bounds)
            cand = _solve_single(problem, xs, opts)
            if _better(cand, best, opts):
                best = cand
    return best


def _better(a: SolveReport, b: SolveReport, opts: SolveOptions) -> bool:
    a_feas = a.eq_residual_inf <= opts.tol_eq and a.in_violation_inf <= opts.tol_in
    b_feas = b.eq_residual_inf <= opts.tol_eq and b.in_violation_inf <= opts.tol_in
    if a_feas != b_feas:
        return a_feas
    return a.f_star < b.f_star
