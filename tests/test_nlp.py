import numpy as np
import pytest

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
