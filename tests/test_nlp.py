import functools
import re

import numpy as np
import pytest

from ssfit import nlp
from ssfit.nlp import (
    FdGradientError,
    GradientMismatchError,
    NlpProblem,
    SolveOptions,
    SolveReport,
    fd_gradient,
    fd_jacobian,
    preflight_gradients,
    solve,
)
from helpers import (count_constraint_calls, inner_minimize_reference,
                     inner_minimize_reference_adapter)


def _mixed(z):
    return float(np.sin(z[0]) + z[1] ** 3 * np.exp(z[2]))


def _mixed_gradient(z):
    return np.array([[np.cos(z[0]), 3.0 * z[1] ** 2 * np.exp(z[2]),
                      z[1] ** 3 * np.exp(z[2])]])


X_MIXED = np.array([0.0, 0.7, -1.3])
# the backward difference in coordinate 1, the side left when the plus
# point is nonfinite
_BACK = _mixed_gradient(X_MIXED)
_BACK[0, 1] = (_mixed(X_MIXED) - _mixed(X_MIXED - [0.0, 1e-6, 0.0])) / 1e-6

# the cases of TestFdGradient as the finite-difference rule sees them:
# function, point, output count, keyword arguments and the outcome, the
# Jacobian (to 1e-8) or the error message; plus a nonfinite value at x and
# a coordinate with both sides nonfinite after central ones
FD_CASES = {
    "quadratic": (lambda x: x[0] ** 2, np.array([3.0]), 1, {}, [[6.0]]),
    "constant": (lambda x: 7.0, np.array([1.0, -2.0, 0.5]), 1, {},
                 [[0.0, 0.0, 0.0]]),
    "sine": (lambda x: np.sin(x[0]), np.array([0.0]), 1, {}, [[1.0]]),
    "nonfinite-coordinate": (
        lambda x: np.nan if abs(x[1]) > 0.0 else 0.0, np.array([0.0, 0.0]),
        1, {}, "nonfinite finite-difference values at coordinate 1"),
    # forward from the bound: (h^2 - 0) / h
    "one-sided-near-bound": (
        lambda x: np.inf if x[0] < 0 else x[0] ** 2, np.array([0.0]), 1,
        {"lower_bounds": np.array([0.0])}, [[1e-6]]),
    "jacobian": (lambda x: np.array([x[0] * x[1], x[0] + 2 * x[1]]),
                 np.array([2.0, 3.0]), 2, {}, [[3.0, 2.0], [1.0, 2.0]]),
    "never-below-bound": (
        lambda x: np.array([np.nan if x[0] > 0 else 1.0, x[1]]),
        np.array([0.0, 1.0]), 2, {"lower_bounds": np.array([0.0, -np.inf])},
        "nonfinite finite-difference values at coordinate 0"),
    "gradient-central": (_mixed, X_MIXED, 1, {"h0": 1e-6},
                         _mixed_gradient(X_MIXED)),
    "gradient-bound": (_mixed, X_MIXED, 1,
                       {"h0": 1e-6,
                        "lower_bounds": np.array([0.0, -np.inf, -np.inf])},
                       _mixed_gradient(X_MIXED)),
    "gradient-nonfinite-side": (
        lambda z: np.inf if z[1] > 0.7 else _mixed(z), X_MIXED, 1,
        {"h0": 1e-6}, _BACK),
    "nonfinite-at-x": (
        lambda z: np.array([np.inf if z[0] == 1.0 or z[0] > 1.0 else z[0],
                            z[1]]),
        np.array([1.0, 2.0]), 2, {},
        "nonfinite finite-difference values at coordinate 0"),
    "both-sides-later": (
        lambda z: np.array([z[0], np.nan if z[2] != -1.0 else z[1]]),
        np.array([0.5, 2.0, -1.0]), 2, {},
        "nonfinite finite-difference values at coordinate 2"),
}


class TestFdGradient:
    def test_quadratic(self):
        g = fd_gradient(lambda x: float(x[0] ** 2), np.array([3.0]))
        assert g[0] == pytest.approx(6.0, abs=1e-8)

    def test_constant(self):
        g = fd_gradient(lambda x: 7.0, np.array([1.0, -2.0, 0.5]))
        assert np.allclose(g, 0.0)

    def test_sine_at_zero(self):
        g = fd_gradient(lambda x: float(np.sin(x[0])), np.array([0.0]))
        assert g[0] == pytest.approx(1.0, abs=1e-9)

    def test_nonfinite_coordinate_reported(self):
        def f(x):
            return float("nan") if abs(x[1]) > 0.0 else 0.0

        with pytest.raises(FdGradientError, match="coordinate 1"):
            fd_gradient(f, np.array([0.0, 0.0]))

    def test_one_sided_near_bound(self):
        lb = np.array([0.0])

        def f(x):
            return float("inf") if x[0] < 0 else float(x[0] ** 2)

        g = fd_gradient(f, np.array([0.0]), lower_bounds=lb)
        assert abs(g[0]) < 1e-5

    def test_jacobian(self):
        def fn(x):
            return np.array([x[0] * x[1], x[0] + 2 * x[1]])

        J = fd_jacobian(fn, np.array([2.0, 3.0]), 2)
        assert np.allclose(J, [[3.0, 2.0], [1.0, 2.0]], atol=1e-7)

    def test_jacobian_never_evaluates_below_the_bound(self):
        lb = np.array([0.0, -np.inf])
        seen = []

        def fn(x):
            seen.append(x.copy())
            return np.array([np.nan if x[0] > 0 else 1.0, x[1]])

        with pytest.raises(FdGradientError, match="coordinate 0"):
            fd_jacobian(fn, np.array([0.0, 1.0]), 2, lower_bounds=lb)
        assert seen and all(x[0] >= 0.0 for x in seen)

    @pytest.mark.parametrize("case", ["central", "bound", "nonfinite-side"])
    def test_gradient_is_the_one_row_jacobian(self, case):
        x = np.array([0.0, 0.7, -1.3])
        lb = np.array([0.0, -np.inf, -np.inf]) if case == "bound" else None

        def f(z):
            if case == "nonfinite-side" and z[1] > 0.7:
                return float("inf")
            return float(np.sin(z[0]) + z[1] ** 3 * np.exp(z[2]))

        J = fd_jacobian(lambda z: float(f(z)), x, 1, 1e-6, lb)
        assert np.array_equal(fd_gradient(f, x, 1e-6, lb), J[0])

    @pytest.mark.parametrize("case", sorted(FD_CASES))
    def test_outcome_of_each_case(self, case):
        fn, x, n_out, kwargs, expected = FD_CASES[case]

        def outcome(run):
            try:
                return run()
            except FdGradientError as exc:
                return str(exc)

        J = outcome(lambda: fd_jacobian(fn, x, n_out, **kwargs))
        if isinstance(expected, str):
            assert isinstance(J, str) and J == expected
        else:
            assert J.shape == np.shape(expected)
            assert np.max(np.abs(J - expected)) <= 1e-8
        if n_out == 1:
            g = outcome(lambda: fd_gradient(lambda z: float(fn(z)), x,
                                            **kwargs))
            assert g == J if isinstance(J, str) \
                else np.array_equal(g, J[0])


def _solve_cases():
    """The problems of the solve tests below, a supplied gradient of the
    wrong sign (every line search fails), and both constraint kinds at
    once, each with closed-form derivative providers: name -> (problem,
    start, options)."""
    def rosenbrock(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    def rosenbrock_gradient(x):
        return np.array([-400.0 * x[0] * (x[1] - x[0] ** 2)
                         - 2.0 * (1.0 - x[0]), 200.0 * (x[1] - x[0] ** 2)])

    return {
        "unconstrained": (NlpProblem(
            dim=1, objective=lambda x: float((x[0] - 1.0) ** 2),
            gradient=lambda x: 2.0 * (x - 1.0)), [5.0], None),
        "circle": (NlpProblem(
            dim=2, objective=lambda x: float(x[0] + x[1]),
            gradient=lambda x: np.ones(2),
            equality=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
            n_eq=1, equality_jacobian=lambda x: 2.0 * x[None, :]),
            [1.0, 0.0], None),
        "active-bound": (NlpProblem(
            dim=1, objective=lambda x: float(x[0]),
            gradient=lambda x: np.ones(1),
            lower_bounds=np.array([0.5])), [2.0], None),
        "inequality": (NlpProblem(
            dim=1, objective=lambda x: float((x[0] - 2.0) ** 2),
            gradient=lambda x: 2.0 * (x - 2.0),
            inequality=lambda x: np.array([x[0] - 1.0]), n_in=1,
            inequality_jacobian=lambda x: np.ones((1, 1))), [-1.0], None),
        "rosenbrock": (NlpProblem(
            dim=2, objective=rosenbrock, gradient=rosenbrock_gradient),
            [-1.2, 1.0], SolveOptions(max_inner=500)),
        "mixed": (NlpProblem(
            dim=2, objective=lambda x: float(x @ x),
            gradient=lambda x: 2.0 * x,
            equality=lambda x: np.array([x[0] + x[1] - 1.0]), n_eq=1,
            equality_jacobian=lambda x: np.ones((1, 2)),
            lower_bounds=np.array([0.8, -np.inf])), [0.9, 0.5], None),
        "cliff": (NlpProblem(
            dim=1, objective=lambda x: float(x[0] ** 2) if x[0] >= 0.5
            else float("inf"), gradient=lambda x: 2.0 * x,
            lower_bounds=np.array([0.5])), [3.0], None),
        "double-well": (NlpProblem(
            dim=1, objective=lambda x: float((x[0] ** 2 - 1.0) ** 2
                                             + 0.2 * x[0]),
            gradient=lambda x: 4.0 * x * (x * x - 1.0) + 0.2),
            [0.9], None),
        "wrong-sign-gradient": (NlpProblem(
            dim=1, objective=lambda x: float(x @ x),
            gradient=lambda x: -2.0 * x), [1.0], None),
        "providers": (NlpProblem(
            dim=3, objective=lambda x: float(x @ x - x[2]),
            gradient=lambda x: 2.0 * x - np.array([0.0, 0.0, 1.0]),
            equality=lambda x: np.array([x[0] * x[1] - 0.5]), n_eq=1,
            equality_jacobian=lambda x: np.array([[x[1], x[0], 0.0]]),
            inequality=lambda x: np.array([x[2] - x[0], x[1] - 2.0]),
            n_in=2,
            inequality_jacobian=lambda x: np.array([[-1.0, 0.0, 1.0],
                                                    [0.0, 1.0, 0.0]]),
            lower_bounds=np.array([0.1, -np.inf, 0.0])),
            [1.0, 1.0, 0.5], None),
    }


SOLVE_CASES = _solve_cases()


def _solve_case(case):
    problem, x0, opts = SOLVE_CASES[case]
    return solve(problem, np.array(x0, dtype=float), opts)


class TestSolveAnalytic:
    def test_unconstrained_quadratic(self):
        rep = _solve_case("unconstrained")
        assert rep.converged
        assert rep.x_star[0] == pytest.approx(1.0, abs=1e-6)
        assert rep.f_star == pytest.approx(0.0, abs=1e-10)

    def test_equality_on_circle(self):
        rep = _solve_case("circle")
        assert rep.converged
        assert np.allclose(rep.x_star, [-np.sqrt(0.5), -np.sqrt(0.5)], atol=1e-5)
        assert rep.eq_residual_inf <= 1e-7
        assert rep.inner_capped == 0

    def test_active_lower_bound(self):
        rep = _solve_case("active-bound")
        assert rep.converged
        assert rep.x_star[0] == pytest.approx(0.5, abs=1e-9)

    def test_inequality(self):
        # min (x-2)^2 s.t. x <= 1
        rep = _solve_case("inequality")
        assert rep.converged
        assert rep.x_star[0] == pytest.approx(1.0, abs=1e-5)
        assert rep.in_violation_inf <= 1e-7

    def test_rosenbrock_with_gradient(self):
        rep = _solve_case("rosenbrock")
        assert rep.converged
        assert np.allclose(rep.x_star, [1.0, 1.0], atol=1e-4)

    def test_mixed_constraints_and_bounds(self):
        # min x0^2 + x1^2  s.t. x0 + x1 = 1, x0 >= 0.8  ->  x = (0.8, 0.2)
        rep = _solve_case("mixed")
        assert rep.converged
        assert np.allclose(rep.x_star, [0.8, 0.2], atol=1e-5)


class TestReportContract:
    def test_converged_respects_tolerances(self):
        problem = NlpProblem(
            dim=2,
            objective=lambda x: float((x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2),
            gradient=lambda x: 2.0 * (x - np.array([1.0, -2.0])),
            equality=lambda x: np.array([x[0] - x[1] - 4.0]),
            n_eq=1,
            equality_jacobian=lambda x: np.array([[1.0, -1.0]]),
        )
        opts = SolveOptions()
        rep = solve(problem, np.array([0.0, 0.0]), opts)
        assert isinstance(rep, SolveReport)
        assert rep.converged
        assert rep.eq_residual_inf <= opts.tol_eq
        assert rep.in_violation_inf <= opts.tol_in
        assert rep.stationarity_inf <= 10 * opts.tol_stat

    def test_domain_error_at_start(self):
        problem = NlpProblem(dim=1, objective=lambda x: float("nan"),
                             gradient=lambda x: np.zeros(1))
        rep = solve(problem, np.array([0.0]))
        assert rep.status == "domain-error"
        assert rep.trace == ()

    def test_x0_projected_with_warning(self):
        problem = NlpProblem(
            dim=1, objective=lambda x: float(x[0] ** 2),
            gradient=lambda x: 2.0 * x, lower_bounds=np.array([1.0]))
        with pytest.warns(UserWarning, match="violates lower bounds") as record:
            rep = solve(problem, np.array([-5.0]))
        assert rep.x_star[0] == pytest.approx(1.0, abs=1e-8)
        # the warning names the caller of solve
        assert [w.filename for w in record] == [__file__]

    def test_nonfinite_rejected_in_line_search(self):
        # objective is +inf left of 0.5 but the minimum sits at the cliff
        rep = _solve_case("cliff")
        assert rep.x_star[0] == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("case", list(SOLVE_CASES))
    def test_trace_has_one_row_per_outer_iteration(self, case, capsys):
        rep = _solve_case(case)
        assert len(rep.trace) == rep.outer_iterations
        assert sum(row["inner_iterations"] for row in rep.trace) \
            == rep.iterations
        assert sum(row["capped"] for row in rep.trace) == rep.inner_capped
        for row in rep.trace:
            assert {key: type(value) for key, value in row.items()} == {
                "f": float, "violation": float, "stationarity": float,
                "penalty": float, "inner_iterations": int,
                "inner_status": str, "capped": bool}
            assert row["inner_status"] in ("ok", "line-search-failure")
        # the last row is the report's end point, bit for bit
        last = rep.trace[-1]
        bits = [np.float64(v).tobytes() for v in (
            last["f"], last["stationarity"], last["violation"])]
        assert bits == [np.float64(v).tobytes() for v in (
            rep.f_star, rep.stationarity_inf,
            max(rep.eq_residual_inf, rep.in_violation_inf))]
        if rep.status != "max-iter":  # it ended before any penalty update
            assert last["penalty"] == rep.penalty
        # the report is the solve's only output
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("penalty0, outer", [(10.0, 9), (100.0, 8)])
    def test_infeasible_equality_ends_at_the_penalty_cap(self, penalty0,
                                                         outer):
        # x^2 + 1 = 0 has no solution: the first outer iteration updates the
        # multiplier, each later one multiplies the penalty by 10 up to the
        # cap, and the one that finds it at the cap ends the solve
        problem = NlpProblem(
            dim=1, objective=lambda x: float((x[0] - 1.0) ** 2),
            gradient=lambda x: 2.0 * (x - 1.0),
            equality=lambda x: np.array([x[0] ** 2 + 1.0]), n_eq=1,
            equality_jacobian=lambda x: 2.0 * x[None, :])
        rep = solve(problem, np.array([1.0]), SolveOptions(penalty0=penalty0))
        assert rep.status == "max-iter"
        assert rep.penalty == nlp.PENALTY_MAX
        assert rep.outer_iterations == outer
        assert rep.eq_residual_inf >= 1.0

    @pytest.mark.parametrize("case", ["circle", "rosenbrock", "providers"])
    def test_capped_inner_solves_continue_one_subproblem(self, case):
        # one inner step per outer iteration never reaches omega here, so
        # no multiplier, penalty or tolerance moves and each outer iteration
        # goes on from the carried BFGS matrix: eight of them are one inner
        # solve of eight steps, bit for bit
        problem, x0, _ = SOLVE_CASES[case]
        capped = solve(problem, np.array(x0, dtype=float),
                       SolveOptions(max_inner=1, max_outer=8))
        whole = solve(problem, np.array(x0, dtype=float),
                      SolveOptions(max_inner=8, max_outer=1))
        assert (capped.status, capped.inner_capped, capped.outer_iterations,
                capped.iterations) == ("max-iter", 8, 8, 8)
        assert capped.penalty == SolveOptions().penalty0
        assert capped.x_star.tobytes() == whole.x_star.tobytes()
        assert (capped.iterations, capped.n_evals) \
            == (whole.iterations, whole.n_evals)
        assert whole.inner_capped == 1

    @pytest.mark.parametrize("case", ["circle", "mixed", "providers"])
    def test_matrix_carried_while_the_penalty_holds(self, case, monkeypatch):
        # each inner solve starts from the matrix the previous one returned,
        # unless the penalty grew in between: then from the identity
        calls = []
        inner = nlp._inner_minimize

        def recorded(*args):
            out = inner(*args)
            calls.append((args[6], args[10], out[7]))  # rho, Hinv in, out
            return out

        monkeypatch.setattr(nlp, "_inner_minimize", recorded)
        problem, x0, opts = SOLVE_CASES[case]
        solve(problem, np.array(x0, dtype=float), opts)
        assert calls[0][1] is None
        pairs = list(zip(calls, calls[1:]))
        assert any(b[0] == a[0] for a, b in pairs)
        assert any(b[0] > a[0] for a, b in pairs)
        for (rho, _, carried), (rho_next, start, _) in pairs:
            assert start is (carried if rho_next == rho else None)


    @pytest.mark.parametrize("field, value", [
        ("tol_eq", 0.0), ("tol_in", -1e-7), ("tol_stat", float("nan")),
        ("max_outer", 0), ("max_inner", -3), ("penalty0", 0.0),
        ("penalty0", -10.0), ("init_multipliers", "least-squares"),
        ("max_inner", True), ("penalty0", True), ("tol_eq", True)])
    def test_options_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"solver {field} must be"):
            SolveOptions(**{field: value})


class TestPreflight:
    def test_accepts_consistent_gradient(self):
        problem = NlpProblem(
            dim=2,
            objective=lambda x: float(x @ x),
            gradient=lambda x: 2.0 * x,
        )
        worst = preflight_gradients(problem, np.array([1.0, -2.0]))
        assert worst <= 1e-5

    def test_rejects_wrong_gradient(self):
        problem = NlpProblem(
            dim=2,
            objective=lambda x: float(x @ x),
            gradient=lambda x: 2.5 * x,
        )
        with pytest.raises(GradientMismatchError):
            preflight_gradients(problem, np.array([1.0, -2.0]))

    def test_checks_jacobians(self):
        problem = NlpProblem(
            dim=2,
            objective=lambda x: float(x @ x),
            gradient=lambda x: 2.0 * x,
            equality=lambda x: np.array([x[0] * x[1]]),
            n_eq=1,
            equality_jacobian=lambda x: np.array([[x[1], x[0]]]),
        )
        assert preflight_gradients(problem, np.array([0.7, 0.4])) <= 1e-5

    def test_problem_without_providers_rejected(self):
        # there is no finite-difference stand-in for a missing provider, so
        # a problem without one cannot be built
        def objective(x):
            return float(x @ x)

        def gradient(x):
            return 2.0 * x

        def constraint(x):
            return x[:1]

        def jacobian(x):
            return np.eye(1)

        for kwargs, match in [
                ({}, "gradient"),
                ({"gradient": gradient, "equality": constraint, "n_eq": 1},
                 "equality_jacobian"),
                ({"gradient": gradient, "equality": constraint, "n_eq": 1,
                  "equality_jacobian": jacobian, "inequality": constraint,
                  "n_in": 1}, "inequality_jacobian")]:
            with pytest.raises(ValueError, match=match):
                NlpProblem(dim=1, objective=objective, **kwargs)


def _constraint_calls(problem, calls):
    """The set of call totals of the problem's constraints: one number when
    its equality and inequality were called equally often, none without
    constraints."""
    kinds = [kind for kind, n in (("eq", problem.n_eq), ("in", problem.n_in))
             if n]
    return {sum(n for (k, _), n in calls.items() if k == kind)
            for kind in kinds}


class TestOneEvaluationPerPoint:
    # Constraint calls are counted in total, not per point: with exact
    # derivatives two line searches can propose the same x (the inequality
    # case tries x = 2.0 twice in its first inner solve), and each such
    # trial is its own evaluation.
    @pytest.mark.parametrize("case", ["circle", "inequality", "providers"])
    def test_constraints_evaluated_once_per_point(self, case):
        problem, x0, _ = SOLVE_CASES[case]
        x0 = np.asarray(x0, dtype=float)
        lam, mu = np.full(problem.n_eq, 0.3), np.full(problem.n_in, 0.2)
        counted, calls = count_constraint_calls(problem)
        count = nlp._Counter()
        fcs = nlp._evaluate(counted, x0, count)
        ders = nlp._derivatives(counted, x0)
        out = nlp._inner_minimize(counted, x0, fcs, ders, lam, mu, 10.0, 1e-8,
                                  50, count)
        assert out[3] > 1
        assert _constraint_calls(problem, calls) == {count.n}
        # the loop before the change called them again at each point it
        # differentiated
        counted, calls = count_constraint_calls(problem)
        count = nlp._Counter()
        inner_minimize_reference(counted, x0, lam, mu, 10.0, 1e-8, 50, count)
        gradients = sum(n for (kind, _), n in calls.items() if kind == "grad")
        assert gradients > 1
        assert _constraint_calls(problem, calls) == {count.n + gradients}

    @pytest.mark.parametrize("case", list(SOLVE_CASES))
    def test_solve_evaluates_constraints_once_per_point(self, case):
        # over a whole solve each evaluation calls each constraint once and
        # nothing else calls them; that the outer loop evaluates no inner
        # end point again is pinned by the evaluation count of
        # test_solve_matches_reference_inner_loop
        problem, x0, opts = SOLVE_CASES[case]
        counted, calls = count_constraint_calls(problem)
        report = solve(counted, np.array(x0, dtype=float), opts)
        assert report.outer_iterations >= 1
        assert _constraint_calls(problem, calls) <= {report.n_evals}
        assert max(n for (kind, _), n in calls.items()
                   if kind in ("grad", "eq_jac", "in_jac")) == 1

    @pytest.mark.parametrize("init", ["zero", "lsq"])
    @pytest.mark.parametrize("case", ["circle", "mixed", "providers"])
    def test_solve_differentiates_once_per_point(self, case, init):
        # the objective gradient and each constraint Jacobian once per point
        # over a whole solve: the start (the lsq multipliers share it) and
        # each accepted point, the end of one inner solve being the start of
        # the next
        problem, x0, _ = SOLVE_CASES[case]
        counted, calls = count_constraint_calls(problem)
        report = solve(counted, np.array(x0, dtype=float),
                       SolveOptions(init_multipliers=init))
        assert report.outer_iterations > 1
        derivatives = [n for (kind, _), n in calls.items()
                       if kind in ("grad", "eq_jac", "in_jac")]
        assert len(derivatives) > report.outer_iterations
        assert max(derivatives) == 1

    def test_failed_steepest_line_search_not_repeated(self):
        # the gradient has the wrong sign, so the first direction is -pg and
        # all 40 backtracking steps fail; one merit evaluation is the start
        problem, x0, _ = SOLVE_CASES["wrong-sign-gradient"]
        x0 = np.array(x0)
        args = (np.zeros(0), np.zeros(0), 10.0, 1e-8, 10)
        count = nlp._Counter()
        fcs = nlp._evaluate(problem, x0, count)
        ders = nlp._derivatives(problem, x0)
        x, fx, _, it, status, _, _, Hinv = nlp._inner_minimize(
            problem, x0, fcs, ders, *args, count)
        assert (it, status, count.n) == (1, "line-search-failure", 41)
        ref_count, redundant = nlp._Counter(), []
        ref = inner_minimize_reference(problem, x0, *args, ref_count,
                                       redundant)
        assert ref_count.n == 81 and redundant == [1]
        assert x.tobytes() == ref[0].tobytes() and fx == ref[1]
        # the failed searches reset the matrix: nothing to carry
        assert Hinv is None and ref[5] is None

    def test_failed_quasi_newton_search_retries_steepest_descent(self):
        # a carried 1e20 I sends every quasi-Newton trial past |x| = 10,
        # where the objective is +inf: all 40 steps fail, the matrix is
        # dropped and the steepest-descent search reaches x = 0 at its
        # second step
        problem = NlpProblem(
            dim=1, objective=lambda x: np.inf if abs(x[0]) >= 10
            else float(x @ x), gradient=lambda x: 2.0 * x)
        x0 = np.array([1.0])
        count = nlp._Counter()
        fcs = nlp._evaluate(problem, x0, count)
        ders = nlp._derivatives(problem, x0)
        x, fx, _, it, status, _, _, Hinv = nlp._inner_minimize(
            problem, x0, fcs, ders, np.zeros(0), np.zeros(0), 10.0, 1e-8, 10,
            count, 1e20 * np.eye(1))
        assert (status, it, x.tolist(), fx) == ("ok", 2, [0.0], 0.0)
        assert count.n == 1 + 40 + 2
        # the curvature pair of the accepted step rescales the identity
        assert Hinv.tolist() == [[0.5]]

    @pytest.mark.parametrize("case", list(SOLVE_CASES))
    def test_solve_matches_reference_inner_loop(self, case, monkeypatch):
        problem, x0, opts = SOLVE_CASES[case]
        new = solve(problem, np.array(x0, dtype=float), opts)
        redundant = []
        monkeypatch.setattr(nlp, "_inner_minimize", functools.partial(
            inner_minimize_reference_adapter, redundant=redundant))
        ref = solve(problem, np.array(x0, dtype=float), opts)
        assert new.x_star.tobytes() == ref.x_star.tobytes()
        assert np.float64(new.f_star).tobytes() \
            == np.float64(ref.f_star).tobytes()
        assert (new.iterations, new.outer_iterations, new.status) \
            == (ref.iterations, ref.outer_iterations, ref.status)
        assert (new.eq_residual_inf, new.in_violation_inf,
                new.stationarity_inf, new.penalty) \
            == (ref.eq_residual_inf, ref.in_violation_inf,
                ref.stationarity_inf, ref.penalty)
        assert new.trace == ref.trace
        # only the repeated steepest-descent retries (40 each) and the two
        # evaluations per outer iteration at the inner end point are gone
        assert ref.n_evals - new.n_evals \
            == 40 * len(redundant) + 2 * new.outer_iterations
        if case == "wrong-sign-gradient":
            assert redundant


def _square(**fields) -> NlpProblem:
    return NlpProblem(**{"dim": 2, "objective": lambda x: float(x @ x),
                         "gradient": lambda x: 2.0 * x, **fields})


@pytest.mark.parametrize("build, message", [
    (lambda: _square(dim=0), "problem dimension must be positive"),
    (lambda: _square(lower_bounds=np.zeros(3)),
     "lower_bounds length 3, expected 2"),
    (lambda: _square(equality=lambda x: x[:1],
                     equality_jacobian=lambda x: np.eye(1, 2)),
     "n_eq must be positive when equality is given"),
    (lambda: _square(inequality=lambda x: x[:1],
                     inequality_jacobian=lambda x: np.eye(1, 2)),
     "n_in must be positive when inequality is given"),
    (lambda: solve(_square(), np.zeros(3)), "x0 has length 3, expected 2"),
], ids=["dim-zero", "lower_bounds-length", "equality-without-n_eq",
        "inequality-without-n_in", "x0-length"])
def test_problem_and_solve_reject_inconsistent_sizes(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
