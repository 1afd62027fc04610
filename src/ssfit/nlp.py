"""Smooth constrained minimization: augmented Lagrangian over bound constraints.

Solves problems of the form

    min f(x)  subject to  c_eq(x) = 0,  c_in(x) <= 0,  x >= lb

with a method-of-multipliers outer loop (a plain x10 penalty update) and a
projected quasi-Newton (BFGS) inner solve.  The outer loop carries the BFGS
matrix from one subproblem to the next while the penalty stays put, and
starts from the identity again after the penalty grows.  An inner solve that
stops on ``max_inner`` above its tolerance updates no multiplier, penalty or
tolerance: the next outer iteration goes on with the same subproblem (Conn,
Gould & Toint 1991; Birgin & Martinez 2014).  Every derivative comes from a
provider the problem supplies; central finite differences only check them
(:func:`preflight_gradients`).  The solver is deterministic and has no
dependencies beyond numpy.
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
    "preflight_gradients",
]


# Penalty cap, penalty growth per outer iteration without progress, and the
# violation ratio that counts as progress.
PENALTY_MAX = 1e8
PENALTY_FACTOR = 10.0
VIOLATION_SHRINK = 0.25


class FdGradientError(ArithmeticError):
    """A finite-difference stencil produced nonfinite values."""


class GradientMismatchError(ValueError):
    """A supplied derivative disagrees with its finite-difference check."""


@dataclass(frozen=True)
class NlpProblem:
    """A constrained minimization instance.

    Every callable must be a pure function of ``x``: :func:`solve` evaluates
    each trial point once, reuses the constraint values of an accepted
    point for the gradient there, and differentiates each point once.  The
    objective gradient is required, and so is the Jacobian of each
    constraint kind that is given.

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
    gradient : callable
        ``x -> ndarray`` of length ``dim``, the objective gradient.
    equality_jacobian, inequality_jacobian : callable or None
        Constraint Jacobians (rows are constraints), required with
        ``equality`` and ``inequality`` respectively.
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
        if self.gradient is None:
            raise ValueError("the objective gradient provider is required")
        if self.equality is not None and self.equality_jacobian is None:
            raise ValueError("equality needs its equality_jacobian provider")
        if self.inequality is not None and self.inequality_jacobian is None:
            raise ValueError("inequality needs its inequality_jacobian provider")


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and iteration limits for :func:`solve`; an out-of-range
    value raises ``ValueError``."""

    tol_eq: float = 1e-7
    tol_in: float = 1e-7
    tol_stat: float = 1e-6
    max_outer: int = 50
    max_inner: int = 300
    penalty0: float = 10.0
    init_multipliers: str = "zero"

    def __post_init__(self):
        for name, low, strict in (
                ("tol_eq", 0, True), ("tol_in", 0, True), ("tol_stat", 0, True),
                ("max_outer", 1, False), ("max_inner", 1, False),
                ("penalty0", 0, True)):
            value = getattr(self, name)
            if isinstance(value, bool) \
                    or not (value > low if strict else value >= low):
                raise ValueError(f"solver {name} must be "
                                 f"{'>' if strict else '>='} {low}, got {value}")
        if self.init_multipliers not in ("zero", "lsq"):
            raise ValueError(f"solver init_multipliers must be 'zero' or "
                             f"'lsq', got {self.init_multipliers!r}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one :func:`solve` call; ``n_evals`` counts the points
    evaluated (objective and constraints at one x), not derivative calls,
    and ``inner_capped`` the inner solves that stopped on ``max_inner``
    above their tolerance.  ``trace`` holds one dict per outer iteration:
    ``f``, ``violation``, ``stationarity`` (the projected gradient) and
    ``penalty`` (the rho of that inner solve) at its end point, and its
    ``inner_iterations``, ``inner_status`` and ``capped``."""

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
    inner_capped: int = 0
    trace: tuple = ()

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
    """Central-difference Jacobian of a vector function (rows are outputs).

    Step sizes are ``h0 * max(1, |x_i|)``.  Every stencil point moves one
    coordinate of ``x``; ``fn`` is called once per point, coordinate by
    coordinate, the plus point before the minus point.  When
    ``lower_bounds`` is given and the centered stencil would cross a bound,
    the stencil switches to a one-sided difference on the feasible side, so
    no point below a bound is ever evaluated; the same switch handles a
    nonfinite value on one side, with ``x`` itself evaluated once, at the
    first coordinate that needs it.  A nonfinite value at ``x`` or on both
    sides raises :class:`FdGradientError` naming the coordinate.
    """
    x = np.asarray(x, dtype=float).ravel()
    J = np.empty((n_out, x.size))
    f0 = None
    for i in range(x.size):
        h = h0 * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += h
        fp = np.asarray(fn(xp), dtype=float).reshape(n_out)
        fm = None
        if lower_bounds is None or x[i] - h >= lower_bounds[i]:
            xm = x.copy()
            xm[i] -= h
            fm = np.asarray(fn(xm), dtype=float).reshape(n_out)
        fp_ok = bool(np.isfinite(fp).all())
        fm_ok = fm is not None and bool(np.isfinite(fm).all())
        if fp_ok and fm_ok:
            J[:, i] = (fp - fm) / (2.0 * h)
            continue
        if f0 is None:
            f0 = np.asarray(fn(x), dtype=float).reshape(n_out)
        if not (fp_ok or fm_ok) or not np.isfinite(f0).all():
            raise FdGradientError(
                f"nonfinite finite-difference values at coordinate {i}")
        J[:, i] = (fp - f0) / h if fp_ok else (f0 - fm) / h
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
    raises :class:`GradientMismatchError` beyond ``rtol``.
    """
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


_EMPTY = np.zeros(0)


def _evaluate(problem: NlpProblem, x: np.ndarray, count: _Counter):
    count.n += 1
    f = float(problem.objective(x))
    c = (np.asarray(problem.equality(x), dtype=float).ravel()
         if problem.equality is not None else _EMPTY)
    s = (np.asarray(problem.inequality(x), dtype=float).ravel()
         if problem.inequality is not None else _EMPTY)
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


def _derivatives(problem, x):
    """Raw ``(g_f, J_c, J_s)`` at ``x``: the objective gradient and the
    equality and inequality Jacobians (``None`` without such constraints)."""
    g = np.asarray(problem.gradient(x), dtype=float).ravel()
    Jc = np.asarray(problem.equality_jacobian(x), dtype=float) \
        if problem.n_eq else None
    Js = np.asarray(problem.inequality_jacobian(x), dtype=float) \
        if problem.n_in else None
    return g, Jc, Js


def _al_gradient(fcs, ders, lam, mu, rho):
    """AL gradient from the raw ``(f, c, s)`` and ``(g_f, J_c, J_s)`` of a
    point."""
    _, c, s = fcs
    g, Jc, Js = ders
    if Jc is not None:
        g = g + Jc.T @ (rho * c - lam)
    if Js is not None:
        g = g + Js.T @ np.maximum(0.0, mu + rho * s)
    return g


def _inner_minimize(problem, x, fcs, ders, lam, mu, rho, tol, max_iter,
                    count, Hinv=None):
    """Projected-BFGS minimization of the augmented Lagrangian over x >= lb.

    Accepted steps are monotone in the merit value by the Armijo rule; this
    is asserted each iteration.  Each trial point is evaluated once: the
    gradient at an accepted point reuses the constraint values of its merit.
    ``fcs`` and ``ders`` are the raw ``(f, c, s)`` of :func:`_evaluate` and
    ``(g_f, J_c, J_s)`` of :func:`_derivatives` at the start ``x``, and the
    end point's come back with it, so the caller evaluates and
    differentiates no point again.

    ``Hinv`` is the inverse-Hessian estimate to start from, as a previous
    call returned it; ``None`` starts from the identity and scales it at the
    first curvature pair.  The final estimate comes back last (``None`` when
    the loop ended on an unscaled identity), so the caller can carry the
    curvature into the next subproblem; :func:`solve` does so while the
    penalty is unchanged.  A non-descent direction or a failed line search
    still resets it to the identity.  Status ``ok`` with a projected
    gradient above ``tol`` means the loop stopped on ``max_iter``; the
    caller then updates no multiplier or penalty and calls again on the same
    subproblem.
    """
    lb = problem.lower_bounds
    n = x.size
    # on a bound: within 1e-12 * max(1, |lb|) of it (NaN edge: no bound)
    finite = np.isfinite(lb)
    edge = np.full(n, np.nan)
    edge[finite] = lb[finite] + 1e-12 * np.maximum(1.0, np.abs(lb[finite]))
    scaled = Hinv is not None
    if not scaled:
        Hinv = np.eye(n)

    def backtrack(direction):
        alpha = 1.0
        for _ in range(40):
            xt = np.maximum(lb, x + alpha * direction)
            gd = float(g @ (xt - x))
            trial = _evaluate(problem, xt, count)
            ft = _al_value(*trial, lam, mu, rho)
            if gd < 0 and np.isfinite(ft) and ft <= fx + 1e-4 * gd:
                return xt, ft, trial
            alpha *= 0.5
        return None

    fx = _al_value(*fcs, lam, mu, rho)
    g = _al_gradient(fcs, ders, lam, mu, rho)
    status = "ok"
    it = 0
    for it in range(1, max_iter + 1):
        at_bound = x <= edge
        pg = np.where(at_bound & (g > 0), 0.0, g)  # projected gradient
        pg_norm = _inf_norm(pg)
        if pg_norm <= tol:
            break
        d = -Hinv @ g
        d[at_bound & (d < 0)] = 0.0
        if not np.any(d) or float(g @ d) >= 0.0:
            d = -pg
            Hinv = np.eye(n)
            scaled = False

        trial = backtrack(d)
        if trial is None and not np.array_equal(d, -pg):
            # quasi-Newton direction failed; drop the curvature estimate and
            # retry along the projected steepest descent, unless it was that
            Hinv = np.eye(n)
            scaled = False
            trial = backtrack(-pg)
        if trial is None:
            status = "line-search-failure"
            break
        xt, ft, fcs_t = trial
        ders_t = _derivatives(problem, xt)
        gt = _al_gradient(fcs_t, ders_t, lam, mu, rho)
        sv = xt - x
        yv = gt - g
        sy = float(sv @ yv)
        if sy > 1e-10 * float(np.linalg.norm(sv)) * float(np.linalg.norm(yv)):
            if not scaled:
                Hinv = (sy / float(yv @ yv)) * np.eye(n)
                scaled = True
            Hy = Hinv @ yv
            r = 1.0 / sy
            Hinv = Hinv - r * (sv[:, None] * Hy + Hy[:, None] * sv) \
                + r * r * (sy + float(yv @ Hy)) * (sv[:, None] * sv)
        assert ft <= fx + 1e-9 * max(1.0, abs(fx)), "merit increased on accepted step"
        x, g, fx, fcs, ders = xt, gt, ft, fcs_t, ders_t
    pg_norm = _inf_norm(np.where((x <= edge) & (g > 0), 0.0, g))
    return x, fx, pg_norm, it, status, fcs, ders, Hinv if scaled else None


def solve(
    problem: NlpProblem, x0: np.ndarray, options: SolveOptions | None = None
) -> SolveReport:
    """Minimize a constrained problem from the given start.

    A start below its lower bounds is projected onto them, with a warning
    charged to the caller.
    """
    opts = options or SolveOptions()
    lb = problem.lower_bounds
    x = np.asarray(x0, dtype=float).ravel().copy()
    if x.size != problem.dim:
        raise ValueError(f"x0 has length {x.size}, expected {problem.dim}")
    if np.any(x < lb):
        warnings.warn("initial point violates lower bounds; projecting", stacklevel=2)
        x = np.maximum(x, lb)

    count = _Counter()
    fcs = _evaluate(problem, x, count)
    f, c, s = fcs
    if not np.isfinite(f):
        return SolveReport(x, f, _inf_norm(c), _pos_inf_norm(s), np.inf,
                           0, 0, "domain-error", opts.penalty0, count.n)

    ders = _derivatives(problem, x)
    lam = np.zeros(problem.n_eq)
    mu = np.zeros(problem.n_in)
    if opts.init_multipliers == "lsq" and problem.n_eq:
        # least-squares multipliers make the Lagrangian stationary in the
        # tangent directions at the start, which keeps early iterates from
        # trading feasibility for objective
        g0, J0, _ = ders
        lam = np.linalg.lstsq(J0.T, g0, rcond=None)[0]
    rho = opts.penalty0
    unconstrained = problem.n_eq + problem.n_in == 0
    omega = opts.tol_stat if unconstrained else max(opts.tol_stat, 1.0 / rho)
    total_inner = 0
    inner_capped = 0
    v_prev = np.inf
    status = "max-iter"
    ls_failures = 0
    Hinv = None
    trace = []
    for outer in range(1, opts.max_outer + 1):
        x, fx, pg_norm, inner_iters, inner_status, fcs, ders, Hinv = \
            _inner_minimize(problem, x, fcs, ders, lam, mu, rho, omega,
                            opts.max_inner, count, Hinv)
        total_inner += inner_iters
        # an "ok" inner solve above its tolerance stopped on max_inner
        capped = inner_status == "ok" and pg_norm > omega
        inner_capped += capped
        f, c, s = fcs
        ceq = _inf_norm(c)
        cin = _pos_inf_norm(s)
        v = max(ceq, cin)
        trace.append({"f": f, "violation": v, "stationarity": pg_norm,
                      "penalty": float(rho), "inner_iterations": inner_iters,
                      "inner_status": inner_status, "capped": capped})
        feasible = ceq <= opts.tol_eq and cin <= opts.tol_in
        if feasible and pg_norm <= opts.tol_stat:
            status = "converged"
            break
        if inner_status == "line-search-failure":
            ls_failures += 1
            if ls_failures >= 3:
                status = "line-search-failure"
                break
        else:
            ls_failures = 0
        if capped:
            # finish this subproblem before judging its multipliers
            continue
        if v <= max(VIOLATION_SHRINK * v_prev, min(opts.tol_eq, opts.tol_in)):
            lam = lam - rho * c
            mu = np.maximum(0.0, mu + rho * s)
            omega = max(opts.tol_stat, 0.2 * omega)
        else:
            if rho >= PENALTY_MAX:
                break
            rho = min(PENALTY_MAX, rho * PENALTY_FACTOR)
            omega = max(opts.tol_stat, 1.0 / rho)
            # the rho J^T J term of the merit's Hessian grew tenfold
            Hinv = None
        v_prev = min(v_prev, v)

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
        inner_capped=inner_capped,
        trace=tuple(trace),
    )


def _inf_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def _pos_inf_norm(v: np.ndarray) -> float:
    return float(np.max(np.maximum(0.0, v))) if v.size else 0.0
