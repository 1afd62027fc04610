import functools

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
from helpers import (count_constraint_calls, fd_jacobian_reference,
                     inner_minimize_reference, inner_minimize_reference_adapter)


def _mixed(z):
    return float(np.sin(z[0]) + z[1] ** 3 * np.exp(z[2]))


# the cases of TestFdGradient as the stencil rule sees them: function, point,
# output count and keyword arguments, plus a nonfinite value at x and a
# coordinate with both sides nonfinite after central ones
FD_CASES = {
    "quadratic": (lambda x: x[0] ** 2, np.array([3.0]), 1, {}),
    "constant": (lambda x: 7.0, np.array([1.0, -2.0, 0.5]), 1, {}),
    "sine": (lambda x: np.sin(x[0]), np.array([0.0]), 1, {}),
    "nonfinite-coordinate": (
        lambda x: np.nan if abs(x[1]) > 0.0 else 0.0, np.array([0.0, 0.0]),
        1, {}),
    "one-sided-near-bound": (
        lambda x: np.inf if x[0] < 0 else x[0] ** 2, np.array([0.0]), 1,
        {"lower_bounds": np.array([0.0])}),
    "jacobian": (lambda x: np.array([x[0] * x[1], x[0] + 2 * x[1]]),
                 np.array([2.0, 3.0]), 2, {}),
    "never-below-bound": (
        lambda x: np.array([np.nan if x[0] > 0 else 1.0, x[1]]),
        np.array([0.0, 1.0]), 2, {"lower_bounds": np.array([0.0, -np.inf])}),
    "gradient-central": (_mixed, np.array([0.0, 0.7, -1.3]), 1,
                         {"h0": 1e-6}),
    "gradient-bound": (_mixed, np.array([0.0, 0.7, -1.3]), 1,
                       {"h0": 1e-6,
                        "lower_bounds": np.array([0.0, -np.inf, -np.inf])}),
    "gradient-nonfinite-side": (
        lambda z: np.inf if z[1] > 0.7 else _mixed(z),
        np.array([0.0, 0.7, -1.3]), 1, {"h0": 1e-6}),
    "nonfinite-at-x": (
        lambda z: np.array([np.inf if z[0] == 1.0 or z[0] > 1.0 else z[0],
                            z[1]]),
        np.array([1.0, 2.0]), 2, {}),
    "both-sides-later": (
        lambda z: np.array([z[0], np.nan if z[2] != -1.0 else z[1]]),
        np.array([0.5, 2.0, -1.0]), 2, {}),
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
    def test_stacked_rule_matches_the_per_coordinate_loop(self, case):
        fn, x, n_out, kwargs = FD_CASES[case]

        def outcome(run):
            try:
                return run().tobytes()
            except FdGradientError as exc:
                return str(exc)

        expected = outcome(
            lambda: fd_jacobian_reference(fn, x, n_out, **kwargs))
        assert outcome(lambda: fd_jacobian(fn, x, n_out, **kwargs)) == expected
        if n_out == 1:
            assert outcome(lambda: fd_gradient(
                lambda z: float(fn(z)), x, **kwargs)) == expected


class TestSolveAnalytic:
    def test_unconstrained_quadratic(self):
        problem = NlpProblem(dim=1, objective=lambda x: float((x[0] - 1.0) ** 2))
        rep = solve(problem, np.array([5.0]))
        assert rep.converged
        assert rep.x_star[0] == pytest.approx(1.0, abs=1e-6)
        assert rep.f_star == pytest.approx(0.0, abs=1e-10)

    def test_equality_on_circle(self):
        problem = NlpProblem(
            dim=2,
            objective=lambda x: float(x[0] + x[1]),
            equality=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
            n_eq=1,
        )
        rep = solve(problem, np.array([1.0, 0.0]))
        assert rep.converged
        assert np.allclose(rep.x_star, [-np.sqrt(0.5), -np.sqrt(0.5)], atol=1e-5)
        assert rep.eq_residual_inf <= 1e-7

    def test_active_lower_bound(self):
        problem = NlpProblem(
            dim=1,
            objective=lambda x: float(x[0]),
            lower_bounds=np.array([0.5]),
        )
        rep = solve(problem, np.array([2.0]))
        assert rep.converged
        assert rep.x_star[0] == pytest.approx(0.5, abs=1e-9)

    def test_inequality(self):
        # min (x-2)^2 s.t. x <= 1
        problem = NlpProblem(
            dim=1,
            objective=lambda x: float((x[0] - 2.0) ** 2),
            inequality=lambda x: np.array([x[0] - 1.0]),
            n_in=1,
        )
        rep = solve(problem, np.array([-1.0]))
        assert rep.converged
        assert rep.x_star[0] == pytest.approx(1.0, abs=1e-5)
        assert rep.in_violation_inf <= 1e-7

    def test_rosenbrock_with_gradient(self):
        def f(x):
            return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

        def g(x):
            return np.array([
                -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                200.0 * (x[1] - x[0] ** 2),
            ])

        problem = NlpProblem(dim=2, objective=f, gradient=g)
        rep = solve(problem, np.array([-1.2, 1.0]),
                    SolveOptions(max_inner=500))
        assert rep.converged
        assert np.allclose(rep.x_star, [1.0, 1.0], atol=1e-4)

    def test_mixed_constraints_and_bounds(self):
        # min x0^2 + x1^2  s.t. x0 + x1 = 1, x0 >= 0.8  ->  x = (0.8, 0.2)
        problem = NlpProblem(
            dim=2,
            objective=lambda x: float(x @ x),
            equality=lambda x: np.array([x[0] + x[1] - 1.0]),
            n_eq=1,
            lower_bounds=np.array([0.8, -np.inf]),
        )
        rep = solve(problem, np.array([0.9, 0.5]))
        assert rep.converged
        assert np.allclose(rep.x_star, [0.8, 0.2], atol=1e-5)


class TestReportContract:
    def test_converged_respects_tolerances(self):
        problem = NlpProblem(
            dim=2,
            objective=lambda x: float((x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2),
            equality=lambda x: np.array([x[0] - x[1] - 4.0]),
            n_eq=1,
        )
        opts = SolveOptions()
        rep = solve(problem, np.array([0.0, 0.0]), opts)
        assert isinstance(rep, SolveReport)
        assert rep.converged
        assert rep.eq_residual_inf <= opts.tol_eq
        assert rep.in_violation_inf <= opts.tol_in
        assert rep.stationarity_inf <= 10 * opts.tol_stat

    def test_domain_error_at_start(self):
        problem = NlpProblem(dim=1, objective=lambda x: float("nan"))
        rep = solve(problem, np.array([0.0]))
        assert rep.status == "domain-error"

    def test_x0_projected_with_warning(self):
        problem = NlpProblem(
            dim=1, objective=lambda x: float(x[0] ** 2),
            lower_bounds=np.array([1.0]))
        with pytest.warns(UserWarning):
            rep = solve(problem, np.array([-5.0]))
        assert rep.x_star[0] == pytest.approx(1.0, abs=1e-8)

    def test_nonfinite_rejected_in_line_search(self):
        # objective is +inf left of 0.5 but the minimum sits at the cliff
        def f(x):
            return float(x[0] ** 2) if x[0] >= 0.5 else float("inf")

        problem = NlpProblem(dim=1, objective=f,
                             lower_bounds=np.array([0.5]))
        rep = solve(problem, np.array([3.0]))
        assert rep.x_star[0] == pytest.approx(0.5, abs=1e-6)

    def test_multistart_finds_better_basin(self):
        # double well with a poor start; multistart should reach the deeper well
        def f(x):
            return float((x[0] ** 2 - 1.0) ** 2 + 0.2 * x[0])

        problem = NlpProblem(dim=1, objective=f)
        opts = SolveOptions(multistart=8, multistart_spread=1.5, seed=3)
        rep = solve(problem, np.array([0.9]), opts)
        assert rep.x_star[0] == pytest.approx(-1.025, abs=0.05)


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
            equality=lambda x: np.array([x[0] * x[1]]),
            n_eq=1,
            equality_jacobian=lambda x: np.array([[x[1], x[0]]]),
        )
        assert preflight_gradients(problem, np.array([0.7, 0.4])) <= 1e-5

    def test_no_providers_trivially_passes(self):
        problem = NlpProblem(dim=1, objective=lambda x: float(x[0] ** 2))
        assert preflight_gradients(problem, np.array([1.0])) == 0.0


def _solve_cases():
    """The problems of the solve tests above, a supplied gradient of the
    wrong sign (every line search fails), and both constraint kinds with
    Jacobian providers: name -> (problem, start, options)."""
    def rosenbrock(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    def rosenbrock_gradient(x):
        return np.array([-400.0 * x[0] * (x[1] - x[0] ** 2)
                         - 2.0 * (1.0 - x[0]), 200.0 * (x[1] - x[0] ** 2)])

    return {
        "unconstrained": (NlpProblem(
            dim=1, objective=lambda x: float((x[0] - 1.0) ** 2)),
            [5.0], None),
        "circle": (NlpProblem(
            dim=2, objective=lambda x: float(x[0] + x[1]),
            equality=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
            n_eq=1), [1.0, 0.0], None),
        "active-bound": (NlpProblem(
            dim=1, objective=lambda x: float(x[0]),
            lower_bounds=np.array([0.5])), [2.0], None),
        "inequality": (NlpProblem(
            dim=1, objective=lambda x: float((x[0] - 2.0) ** 2),
            inequality=lambda x: np.array([x[0] - 1.0]), n_in=1),
            [-1.0], None),
        "rosenbrock": (NlpProblem(
            dim=2, objective=rosenbrock, gradient=rosenbrock_gradient),
            [-1.2, 1.0], SolveOptions(max_inner=500)),
        "mixed": (NlpProblem(
            dim=2, objective=lambda x: float(x @ x),
            equality=lambda x: np.array([x[0] + x[1] - 1.0]), n_eq=1,
            lower_bounds=np.array([0.8, -np.inf])), [0.9, 0.5], None),
        "cliff": (NlpProblem(
            dim=1, objective=lambda x: float(x[0] ** 2) if x[0] >= 0.5
            else float("inf"), lower_bounds=np.array([0.5])), [3.0], None),
        "double-well": (NlpProblem(
            dim=1, objective=lambda x: float((x[0] ** 2 - 1.0) ** 2
                                             + 0.2 * x[0])),
            [0.9], SolveOptions(multistart=8, multistart_spread=1.5,
                                seed=3)),
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


class TestOneEvaluationPerPoint:
    # interior finite-difference stencils and Jacobian providers; a
    # one-sided stencil at a bound maps x itself by the rule of fd_jacobian
    @pytest.mark.parametrize("case", ["circle", "inequality", "providers"])
    def test_constraints_evaluated_once_per_point(self, case):
        problem, x0, _ = SOLVE_CASES[case]
        x0 = np.asarray(x0, dtype=float)
        lam, mu = np.full(problem.n_eq, 0.3), np.full(problem.n_in, 0.2)
        counted, calls = count_constraint_calls(problem)
        fcs = nlp._evaluate(counted, x0, nlp._Counter())
        ders = nlp._derivatives(counted, x0, nlp._Counter())
        out = nlp._inner_minimize(counted, x0, fcs, ders, lam, mu, 10.0, 1e-8,
                                  50, nlp._Counter())
        assert out[3] > 1
        assert max(calls.values()) == 1
        # the loop before the change called them twice at accepted points
        counted, calls = count_constraint_calls(problem)
        inner_minimize_reference(counted, x0, lam, mu, 10.0, 1e-8, 50,
                                 nlp._Counter())
        assert max(calls.values()) == 2

    @pytest.mark.parametrize("case", list(SOLVE_CASES))
    def test_solve_evaluates_constraints_once_per_point(self, case,
                                                        monkeypatch):
        # over a whole solve: the start and every trial point once, the end
        # point of each inner solve included.  Finite-difference stencils
        # call the uncounted constraints: a one-sided stencil at a bound
        # maps x itself (fd_jacobian).
        problem, x0, opts = SOLVE_CASES[case]
        counted, calls = count_constraint_calls(problem)
        plain = {counted.equality: problem.equality,
                 counted.inequality: problem.inequality}
        monkeypatch.setattr(nlp, "fd_jacobian", lambda fn, *args: fd_jacobian(
            plain.get(fn, fn), *args))
        report = solve(counted, np.array(x0, dtype=float), opts)
        assert report.outer_iterations >= 1
        assert max(calls.values(), default=1) == 1

    @pytest.mark.parametrize("init", ["zero", "lsq"])
    @pytest.mark.parametrize("case", ["circle", "mixed", "providers"])
    def test_solve_differentiates_once_per_point(self, case, init,
                                                 monkeypatch):
        # the objective gradient and each constraint Jacobian, from a
        # provider or by finite differences, once per point over a whole
        # solve: the start (the lsq multipliers share it) and each accepted
        # point, the end of one inner solve being the start of the next
        problem, x0, _ = SOLVE_CASES[case]
        counted, calls = count_constraint_calls(problem)
        kinds = {counted.equality: "eq_jac", counted.inequality: "in_jac"}

        def counted_fd_gradient(f, x, *args):
            calls["grad", x.tobytes()] += 1
            return fd_gradient(f, x, *args)

        def counted_fd_jacobian(fn, x, *args):
            if fn in kinds:  # not the objective inside fd_gradient
                calls[kinds[fn], x.tobytes()] += 1
            return fd_jacobian(fn, x, *args)

        monkeypatch.setattr(nlp, "fd_gradient", counted_fd_gradient)
        monkeypatch.setattr(nlp, "fd_jacobian", counted_fd_jacobian)
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
        ders = nlp._derivatives(problem, x0, count)
        x, fx, _, it, status, _, _ = nlp._inner_minimize(problem, x0, fcs,
                                                         ders, *args, count)
        assert (it, status, count.n) == (1, "line-search-failure", 41)
        ref_count, redundant = nlp._Counter(), []
        ref = inner_minimize_reference(problem, x0, *args, ref_count,
                                       redundant)
        assert ref_count.n == 81 and redundant == [1]
        assert x.tobytes() == ref[0].tobytes() and fx == ref[1]

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
        # only the repeated steepest-descent retries (40 each) and the two
        # evaluations and two differentiations per outer iteration at the
        # inner end point are gone; a differentiation costs 2 evaluations
        # per coordinate for each derivative without a provider
        fd_pieces = (problem.gradient is None) \
            + (problem.n_eq > 0 and problem.equality_jacobian is None) \
            + (problem.n_in > 0 and problem.inequality_jacobian is None)
        assert ref.n_evals - new.n_evals \
            == 40 * len(redundant) \
            + 2 * new.outer_iterations * (1 + 2 * problem.dim * fd_pieces)
        if case == "wrong-sign-gradient":
            assert redundant
