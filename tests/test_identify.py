from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    perturbed,
    siso_dataset,
    siso_ladm_spec,
    siso_problem,
    siso_truth,
)
from ssfit.identify import (
    EigConstraintSpec,
    InitializationError,
    ProblemSpec,
    _IdentificationNlp,
    build_nlp,
    epsilon_continuation,
    extend_with_eig_constraints,
    fit,
    resolve_delta,
    varx_init,
)
from ssfit import statespace
from ssfit.indexsets import full_lower, vecs
from ssfit.nlp import SolveOptions, fd_jacobian
from ssfit.regions import cone, disk, eig_membership, half_plane, intersect
from ssfit.statespace import (
    Dataset,
    FilterDivergedError,
    LadmSpec,
    ParameterLayout,
    assemble_ladm,
    filter_innovations,
    identification_index,
    neg_log_likelihood,
)
from ssfit.transform import (
    ThetaPoint,
    gbmz_forward,
    gbmz_inverse,
    transformed_constraints,
)


def tclab_like_spec(**kwargs) -> ProblemSpec:
    ladm = LadmSpec(n_s=2, n_d=2, m=2, p=2, C_fixed=np.eye(2))
    return ProblemSpec(ladm=ladm, delta_re=1e-10, **kwargs)


class TestExtension:
    def test_no_constraints_unchanged(self):
        ext = extend_with_eig_constraints(tclab_like_spec())
        assert ext.system.n_sigma == 2
        assert ext.system.n_a == 2
        assert ext.system.n_ineq == 0

    def test_half_plane_on_filter(self):
        # scalar-block region on the 4x4 filter matrix of the 2+2 model
        spec = tclab_like_spec(eig_constraints=(
            EigConstraintSpec(half_plane(0.3), "filter", 0.03),))
        ext = extend_with_eig_constraints(spec)
        assert ext.system.n_sigma == 2 + 4
        assert ext.system.n_a == 2 + 4
        assert ext.system.n_ineq == 1
        assert len(ext.system.pattern_sigma) == 3 + 10
        assert len(ext.system.pattern_a) == 3 + 10

    def test_disk_block_dims(self):
        spec = tclab_like_spec(eig_constraints=(
            EigConstraintSpec(disk(0.998, 0.0), "filter", 0.03),))
        ext = extend_with_eig_constraints(spec)
        # disk has block dimension 2, so the coupled block is 8x8
        assert ext.system.n_a == 2 + 8
        assert len(ext.system.pattern_a) == 3 + 36

    def test_plant_block_target(self):
        spec = tclab_like_spec(eig_constraints=(
            EigConstraintSpec(disk(0.9, 0.0), "plant_block", 0.05),))
        ext = extend_with_eig_constraints(spec)
        assert ext.system.n_sigma == 2 + 2
        assert ext.system.n_a == 2 + 4

    @pytest.mark.parametrize("kind", ["negative-shift", "singular-weight"])
    def test_unsound_shift_or_weight_rejected(self, kind):
        n, m = 3, 2
        shift = -0.05 * np.eye(n * m) if kind == "negative-shift" else None
        weight = np.diag([1.0, 1.0, 0.0]) if kind == "singular-weight" \
            else None
        spec = siso_problem(delta_re=1e-8, eig_constraints=(
            EigConstraintSpec(disk(0.5, 0.0), "filter", 0.05,
                              weight=weight, shift=shift),))
        with pytest.raises(ValueError, match="positive"):
            extend_with_eig_constraints(spec)

    @pytest.mark.parametrize("target", [lambda model: model.A, 5, "custom"])
    def test_target_is_one_of_the_named_matrices(self, target):
        with pytest.raises(ValueError, match="unknown target"):
            EigConstraintSpec(disk(0.5, 0.0), target, 0.05)

    def test_requires_numeric_delta(self):
        with pytest.raises(ValueError, match="delta_re"):
            extend_with_eig_constraints(siso_problem())


class TestBuildNlp:
    def test_decision_dimension(self):
        spec = tclab_like_spec(eig_constraints=(
            EigConstraintSpec(half_plane(0.3), "filter", 0.03),))
        ext = extend_with_eig_constraints(spec)
        data = Dataset(np.zeros((10, 2)), np.ones((10, 2)))
        problem = build_nlp(ext, data)
        assert problem.dim == ext.layout.n_beta \
            + len(ext.system.pattern_sigma) + len(ext.system.pattern_a)

    def test_equality_residual_at_feasible_start(self):
        spec, layout, theta = siso_truth()
        pspec = siso_problem(
            delta_re=1e-8,
            eig_constraints=(EigConstraintSpec(disk(0.95, 0.0), "filter", 0.05),))
        ext = extend_with_eig_constraints(pspec)
        from ssfit.identify import _extend_theta
        theta_ext = _extend_theta(ext, theta)
        phi0 = gbmz_inverse(theta_ext, ext.system)
        data = siso_dataset(theta, spec, layout, n=50)
        nlp = _IdentificationNlp(ext, data, phi0)
        g = nlp.equality(ext.system.pack(phi0))
        assert float(np.max(np.abs(g))) <= 1e-9

    def test_equality_matches_generic_transform(self):
        rng = np.random.default_rng(40)
        pspec = siso_problem(
            delta_re=1e-8,
            eig_constraints=(EigConstraintSpec(half_plane(0.2), "filter", 0.05),))
        ext = extend_with_eig_constraints(pspec)
        data = Dataset(np.zeros((5, 1)), np.ones((5, 1)))
        nlp = _IdentificationNlp(ext, data, None)
        lb = nlp.lower
        for _ in range(5):
            x = rng.standard_normal(ext.system.dim)
            x[lb > -np.inf] = rng.uniform(0.3, 1.2, int(np.sum(lb > -np.inf)))
            phi = ext.system.unpack(x)
            g_t, h_t = transformed_constraints(phi, ext.system)
            assert np.allclose(nlp.equality(x), g_t, atol=1e-12)
            assert np.allclose(nlp.inequality(x), h_t, atol=1e-12)

    def test_hybrid_jacobians_match_fd(self):
        from ssfit.nlp import fd_jacobian, preflight_gradients

        pspec = siso_problem(
            delta_re=1e-8,
            eig_constraints=(EigConstraintSpec(half_plane(0.2), "filter", 0.05),))
        ext = extend_with_eig_constraints(pspec)
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=60)
        from ssfit.identify import _extend_theta
        theta_ext = _extend_theta(ext, theta)
        phi0 = gbmz_inverse(theta_ext, ext.system)
        nlp = _IdentificationNlp(ext, data, phi0)
        worst = preflight_gradients(nlp.problem(), ext.system.pack(phi0),
                                    n_points=5, seed=7)
        assert worst <= 1e-5

    def test_rho_zero_is_pure_likelihood(self):
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=80)
        pspec = siso_problem(delta_re=1e-8, rho=0.0)
        ext = extend_with_eig_constraints(pspec)
        from ssfit.identify import _extend_theta
        phi0 = gbmz_inverse(_extend_theta(ext, theta), ext.system)
        nlp = _IdentificationNlp(ext, data, phi0)
        model = assemble_ladm(spec, theta, layout)
        direct = neg_log_likelihood(model, data)
        # the solver sees a per-sample-normalized objective; undoing the
        # declared scale must reproduce the likelihood exactly
        composed = nlp.objective(ext.system.pack(phi0)) * nlp.obj_scale
        assert composed == pytest.approx(direct, rel=1e-9)


def test_custom_shift_and_weight_reach_the_barrier_query(monkeypatch):
    from ssfit import identify
    from ssfit.identify import _extend_theta

    spec, layout, theta = siso_truth()
    shift = np.diag([0.02, 0.03, 0.04, 0.05, 0.06, 0.07])
    weight = np.diag([1.0, 2.0, 3.0])
    pspec = siso_problem(delta_re=1e-8, eig_constraints=(
        EigConstraintSpec(disk(0.95, 0.0), "filter", 0.05,
                          weight=weight, shift=shift),))
    ext = extend_with_eig_constraints(pspec)
    seen = []
    original = identify.barrier_solve

    def recording_solve(query):
        seen.append(query)
        return original(query)

    monkeypatch.setattr(identify, "barrier_solve", recording_solve)
    theta_ext = _extend_theta(ext, theta)
    assert len(seen) == 1
    assert np.array_equal(seen[0].shift, shift)
    assert np.array_equal(seen[0].weight, weight)
    # the trace row is read with the same weight
    P = ext.lyapunov_block(theta_ext.Sigma, 0)
    assert float(np.trace(weight @ P)) <= 1.0 / 0.05


def _fit_start(region, n=120, seed=7):
    """The identification NLP of ``fit`` at its start, and that start."""
    from ssfit.identify import _extend_theta, resolve_delta

    spec, layout, theta = siso_truth(filter_poles=(0.45, 0.55, 0.65))
    data = siso_dataset(theta, spec, layout, n=n, seed=seed)
    pspec = siso_problem(eig_constraints=(
        EigConstraintSpec(region, "filter", 0.05),))
    pspec = replace(pspec, delta_re=resolve_delta(pspec, data))
    ext = extend_with_eig_constraints(pspec)
    phi0 = gbmz_inverse(_extend_theta(ext, theta), ext.system)
    return _IdentificationNlp(ext, data, phi0), ext.system.pack(phi0)


def _random_point(ladm, constraints, seed=3):
    """The identification NLP of a model structure on a tiny record, and a
    random point of it with every factor diagonal inside its box."""
    pspec = ProblemSpec(ladm=ladm, eig_constraints=constraints, delta_re=1e-8)
    ext = extend_with_eig_constraints(pspec)
    data = Dataset(np.zeros((5, ladm.m)), np.ones((5, ladm.p)))
    nlp = _IdentificationNlp(ext, data, None)
    rng = np.random.default_rng(seed)
    x = 0.5 * rng.standard_normal(ext.system.dim)
    boxed = nlp.lower > -np.inf
    x[boxed] = rng.uniform(0.3, 1.2, int(np.sum(boxed)))
    return nlp, x


def _overflowing_side():
    """The fit start of the disk case with the Re factor diagonal so large
    that the symmetrized map overflows at its plus point only."""
    nlp, x = _fit_start(disk(0.95, 0.0))
    x = x.copy()
    x[nlp.system.n_beta] = np.sqrt(np.finfo(float).max / 2) * (1 - 1e-7)
    return nlp, x


# stencil structures: targets, regions, constraint counts, plant forms,
# disturbance and output counts, and a nonfinite stencil side
STENCIL_CASES = {
    "disk": lambda: _fit_start(disk(0.95, 0.0)),
    "intersect": lambda: _fit_start(
        intersect(half_plane(0.3), disk(0.998, 0.0))),
    "cone": lambda: _fit_start(cone(1.0, 0.0)),
    "open_loop": lambda: _random_point(siso_ladm_spec(), (
        EigConstraintSpec(disk(1.05, 0.0), "open_loop", 0.05),)),
    "plant_block": lambda: _random_point(siso_ladm_spec(), (
        EigConstraintSpec(cone(1.0, 0.1), "plant_block", 0.05),)),
    "two-constraints": lambda: _random_point(siso_ladm_spec(), (
        EigConstraintSpec(disk(0.95, 0.0), "filter", 0.05),
        EigConstraintSpec(half_plane(0.2), "plant_block", 0.03))),
    "full-free-C_s": lambda: _random_point(LadmSpec(n_s=2, n_d=1, m=1, p=1), (
        EigConstraintSpec(intersect(half_plane(0.3), disk(0.998, 0.0)),
                          "filter", 0.05),)),
    "n_d=0": lambda: _random_point(LadmSpec(n_s=3, n_d=0, m=1, p=1), (
        EigConstraintSpec(disk(0.9, 0.1), "open_loop", 0.05),)),
    "p=2": lambda: _random_point(LadmSpec(n_s=2, n_d=2, m=2, p=2), (
        EigConstraintSpec(disk(0.95, 0.0), "filter", 0.05),
        EigConstraintSpec(cone(1.0, 0.0), "plant_block", 0.1))),
    "nonfinite-side": _overflowing_side,
}


def _reference_jacobians(nlp, x):
    """The constraint Jacobians as the previous implementation formed them:
    differences over the full forward map, and the -d(L L^T) block of the
    coupled factor by a loop over pattern entries."""
    system = nlp.system
    ks = nlp.k_beta_sigma
    pat = system.pattern_a

    def forward(z):
        xx = x.copy()
        xx[:ks] = z
        theta, _ = gbmz_forward(system.unpack(xx), system)
        return theta

    def psd(z):
        theta = forward(z)
        Amat = system.psd_fn(theta.beta, theta.Sigma)
        return vecs(pat, 0.5 * (Amat + Amat.T))

    def ineq(z):
        theta = forward(z)
        return system.ineq_fn(theta.beta, theta.Sigma)

    J_eq = np.zeros((len(pat), system.dim))
    J_eq[:, :ks] = fd_jacobian(psd, x[:ks], len(pat), nlp.fd_step,
                               nlp.lower[:ks])
    La = system.unpack(x).L_a
    a_pos = {e: i for i, e in enumerate(pat.entries)}
    for col, (r1, s1) in enumerate(pat.entries):
        r = r1 - 1
        c = La[:, s1 - 1]
        for k in np.flatnonzero(c):
            a, b = (k + 1, r1) if k >= r else (r1, k + 1)
            row = a_pos.get((a, b))
            if row is not None:
                J_eq[row, ks + col] -= 2.0 * c[k] if k == r else c[k]
    J_in = np.zeros((system.n_ineq, system.dim))
    J_in[:, :ks] = fd_jacobian(ineq, x[:ks], system.n_ineq, nlp.fd_step,
                               nlp.lower[:ks])
    return J_eq, J_in


class TestLeanHotPaths:
    """The evaluation shortcuts leave every value handed to the solver
    bit-for-bit unchanged."""

    # the overflowing stencil side warns in numpy
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", list(STENCIL_CASES))
    @pytest.mark.parametrize("at_bound", [False, True],
                             ids=["interior", "diagonal-at-bound"])
    def test_constraint_jacobians_bit_identical(self, case, at_bound):
        nlp, x = STENCIL_CASES[case]()
        ks = nlp.k_beta_sigma
        if at_bound:
            # a Lyapunov-factor diagonal on its floor: one-sided stencil
            pos = [int(i) for i in nlp.system.diag_positions() if i < ks][-1]
            x = x.copy()
            x[pos] = nlp.lower[pos]
            h = nlp.fd_step * max(1.0, abs(x[pos]))
            assert x[pos] - h < nlp.lower[pos]
        J_eq, J_in = _reference_jacobians(nlp, x)
        assert np.any(J_eq[:, ks:])
        if case == "nonfinite-side":
            # the plus point overflows, so the stencil goes one-sided
            i = nlp.system.n_beta
            xp = x.copy()
            xp[i] += nlp.fd_step * x[i]
            assert not np.all(np.isfinite(nlp.equality(xp)))
            assert np.all(np.isfinite(nlp.equality(x)))
            assert np.all(np.isfinite(J_eq)) and np.any(J_eq[:, i])
        assert np.array_equal(nlp.equality_jacobian(x), J_eq)
        assert np.array_equal(nlp.inequality_jacobian(x), J_in)
        # the stencils leave the evaluation cache alone
        nlp.objective(x)
        key = nlp._cache_key
        nlp.equality_jacobian(x)
        nlp.inequality_jacobian(x)
        assert nlp._cache_key == key

    def test_one_constraint_stencil_per_point(self, monkeypatch):
        from ssfit import identify

        # the fit-active start: N = 300, data seed 7, disk(0.95, 0)
        nlp, x = _fit_start(disk(0.95, 0.0), n=300, seed=7)
        nlp.equality(x)
        calls = []
        original = identify.sigma_forward

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(identify, "sigma_forward", counted)
        nlp.equality_jacobian(x)
        nlp.inequality_jacobian(x)
        # only the stencil points that move the Sigma factor map Sigma
        assert len(calls) == 2 * len(nlp.system.pattern_sigma)

    def test_gradient_reuses_objective_innovations(self, monkeypatch):
        nlp, x = _fit_start(disk(0.95, 0.0))
        x = x + 1e-3
        calls = []
        original = statespace.filter_innovations

        def counted(model, data):
            calls.append(1)
            return original(model, data)

        monkeypatch.setattr(statespace, "filter_innovations", counted)
        assert np.isfinite(nlp.objective(x))
        g = nlp.gradient(x)
        assert len(calls) == 1
        fresh = _IdentificationNlp(nlp.ext, nlp.data, nlp.phi_bar)
        g_ref = fresh.gradient(x)
        assert len(calls) == 2
        assert np.array_equal(g, g_ref)

    def test_diverging_objective_leaves_no_innovations(self):
        nlp, x = _fit_start(disk(0.95, 0.0))
        assert np.isfinite(nlp.objective(x))
        x_div = x.copy()
        # an unstable companion row makes the filter blow up
        x_div[:2] = [0.0, 5.0]
        assert nlp.objective(x_div) == float("inf")
        assert nlp._innovations is None
        with pytest.raises(FilterDivergedError):
            nlp.gradient(x_div)


class TestVarxInit:
    def test_recovers_varx_truth(self):
        # identity-output full form: the one-lag regression is consistent
        rng = np.random.default_rng(41)
        ladm = LadmSpec(n_s=2, n_d=0, m=1, p=2, C_fixed=np.eye(2))
        layout = ParameterLayout(ladm)
        A_true = np.array([[0.6, 0.2], [-0.1, 0.5]])
        B_true = np.array([[1.0], [0.4]])
        N = 20000
        u = rng.standard_normal((N, 1))
        y = np.zeros((N, 2))
        x = np.zeros(2)
        for k in range(N):
            y[k] = x + 0.05 * rng.standard_normal(2)
            x = A_true @ y[k] + B_true @ u[k]
        data = Dataset(u, y)
        pspec = ProblemSpec(ladm=ladm, delta_re=1e-10)
        theta = varx_init(data, pspec)
        mats = layout.matrices(theta.beta)
        assert np.allclose(mats["A_s"], A_true, atol=0.05)
        assert np.allclose(mats["B_s"], B_true, atol=0.05)

    def test_white_noise_gives_near_zero_dynamics(self):
        rng = np.random.default_rng(42)
        ladm = LadmSpec(n_s=2, n_d=0, m=1, p=2, C_fixed=np.eye(2))
        layout = ParameterLayout(ladm)
        N = 20000
        y = rng.standard_normal((N, 2)) * np.array([1.0, 0.5])
        data = Dataset(np.zeros((N, 1)), y)
        theta = varx_init(data, ProblemSpec(ladm=ladm, delta_re=1e-10))
        mats = layout.matrices(theta.beta)
        assert float(np.max(np.abs(mats["A_s"]))) < 0.05
        assert np.allclose(theta.Sigma, np.cov(y.T), atol=0.05)

    def test_constant_output_rank_error(self):
        ladm = LadmSpec(n_s=1, n_d=1, m=1, p=1, C_fixed=np.ones((1, 1)))
        data = Dataset(np.zeros((50, 1)), np.ones((50, 1)))
        with pytest.raises(InitializationError, match="rank|condition"):
            varx_init(data, ProblemSpec(ladm=ladm))

    def test_canonical_form_initializer(self):
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=2000, seed=5)
        theta0 = varx_init(data, siso_problem())
        model0 = assemble_ladm(spec, theta0, layout)
        # the guess must at least be usable: finite likelihood, stable filter
        assert np.isfinite(neg_log_likelihood(model0, data))

    def test_blend_into_region(self):
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=1500, seed=6)
        region = intersect(half_plane(0.3), disk(0.998, 0.0))
        pspec = siso_problem(eig_constraints=(
            EigConstraintSpec(region, "filter", 0.03),))
        theta0 = varx_init(data, pspec)
        model0 = assemble_ladm(spec, theta0, layout)
        assert eig_membership(region, model0.filter_matrix(), tol=0.0)


class TestFit:
    def test_fit_from_truth_does_not_regress(self):
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=400, seed=3)
        model_true = assemble_ladm(spec, theta, layout)
        nll_true = neg_log_likelihood(model_true, data)
        result = fit(siso_problem(), data, init=theta,
                     options=SolveOptions(max_inner=200, init_multipliers="lsq"))
        assert result.nll <= nll_true + 1e-6

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 1)), np.zeros((0, 1)))

    def test_infeasible_init_reports_block(self):
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=200, seed=4)
        bad = ThetaPoint(theta.beta, np.array([[1e-12]]))
        with pytest.raises(InitializationError):
            fit(siso_problem(), data, init=bad)

    def test_constrained_fit_respects_region(self):
        spec, layout, theta = siso_truth(filter_poles=(0.45, 0.55, 0.65))
        data = siso_dataset(theta, spec, layout, n=300, seed=7)
        region = disk(0.95, 0.0)
        pspec = siso_problem(eig_constraints=(
            EigConstraintSpec(region, "filter", 0.05),))
        result = fit(pspec, data, init=theta,
                     options=SolveOptions(max_inner=250, init_multipliers="lsq"))
        eigs = np.linalg.eigvals(result.model.filter_matrix())
        assert np.all(np.abs(eigs) <= 0.95 + 1e-6)


class TestContinuation:
    def test_schedule_validation(self):
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=100)
        with pytest.raises(ValueError):
            epsilon_continuation(siso_problem(), data, [])
        with pytest.raises(ValueError):
            epsilon_continuation(siso_problem(), data, [1e-2, 1e-2])
        with pytest.raises(ValueError):
            epsilon_continuation(siso_problem(), data, [1e-2, -1.0])

    def test_single_entry_equals_fit(self):
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=200, seed=8)
        opts = SolveOptions(max_inner=150, init_multipliers="lsq")
        results = epsilon_continuation(siso_problem(), data, [1e-6],
                                       init=theta, options=opts)
        single = fit(siso_problem(epsilon=1e-6), data, init=theta, options=opts)
        assert len(results) == 1
        assert results[0].objective_value == pytest.approx(
            single.objective_value, rel=1e-9)


class TestPacking:
    def test_layout_roundtrip(self):
        rng = np.random.default_rng(43)
        for ladm in (siso_ladm_spec(),
                     LadmSpec(n_s=3, n_d=2, m=2, p=2, C_fixed=None),
                     LadmSpec(n_s=2, n_d=2, m=1, p=2, C_fixed=np.eye(2))):
            layout = ParameterLayout(ladm)
            beta = rng.standard_normal(layout.n_beta)
            mats = layout.matrices(beta)
            assert np.allclose(layout.pack(mats), beta)
            sizes = sum(int(np.prod(shape))
                        for _, shape in layout.segments.values())
            assert sizes == layout.n_beta

    def test_delta_resolution(self):
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=100, seed=9)
        d = resolve_delta(siso_problem(), data)
        assert d == pytest.approx(1e-8 * np.var(data.y), rel=0.2)
        assert resolve_delta(siso_problem(delta_re=1e-5), data) == 1e-5
