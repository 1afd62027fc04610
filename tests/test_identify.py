from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from ssfit import identify, statespace
from ssfit.indexsets import IndexSet, diagonal, full_lower, vecs
from ssfit.nlp import (SolveOptions, fd_gradient, fd_jacobian,
                       preflight_gradients)
from ssfit.regions import (band, cone, disk, eig_membership, half_plane,
                           intersect)
from ssfit.statespace import (
    Dataset,
    FilterDivergedError,
    LadmSpec,
    ParameterLayout,
    assemble_ladm,
    filter_innovations,
    identification_index,
    neg_log_likelihood,
    regularizer,
)
from ssfit.transform import (
    ThetaPoint,
    epsilon_box,
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
    off, size = ext.sigma_blocks[1]
    P = theta_ext.Sigma[off:off + size, off:off + size]
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


def _random_point(ladm, constraints, seed=3, re_pattern=None, rho=0.0):
    """The identification NLP of a model structure on a short random record,
    and a random point of it with every factor diagonal inside its box; the
    prior of a positive ``rho`` is another such point."""
    pspec = ProblemSpec(ladm=ladm, eig_constraints=constraints, delta_re=1e-8,
                        re_pattern=re_pattern, rho=rho)
    ext = extend_with_eig_constraints(pspec)
    rng = np.random.default_rng(seed)
    boxed = epsilon_box(ext.system, pspec.epsilon) > -np.inf

    def point():
        x = 0.5 * rng.standard_normal(ext.system.dim)
        x[boxed] = rng.uniform(0.3, 1.2, int(np.sum(boxed)))
        return x

    x = point()
    phi_bar = ext.system.unpack(point()) if rho > 0 else None
    data = Dataset(rng.standard_normal((8, ladm.m)),
                   rng.standard_normal((8, ladm.p)))
    return _IdentificationNlp(ext, data, phi_bar), x


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
    """The yardstick of the closed-form constraint Jacobians: central
    differences over the full forward map (no lower bounds, one-sided only
    beside a nonfinite side), and the -d(L L^T) block of the coupled factor
    by a loop over pattern entries."""
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
    J_eq[:, :ks] = fd_jacobian(psd, x[:ks], len(pat))
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
    J_in[:, :ks] = fd_jacobian(ineq, x[:ks], system.n_ineq)
    return J_eq, J_in


def _assert_close(J, J_ref, rtol):
    assert J.shape == J_ref.shape
    scale = max(1.0, float(np.max(np.abs(J_ref), initial=0.0)))
    assert float(np.max(np.abs(J - J_ref), initial=0.0)) <= rtol * scale


DISK_CONSTRAINT = (EigConstraintSpec(disk(0.95, 0.0), "filter", 0.05),)
# a p = 3 pattern without (3, 2): rows 2 and 3 share column 1, so the
# completion of the Re factor is not zero
NONTRIVIAL_RE = IndexSet(3, ((1, 1), (2, 1), (2, 2), (3, 1), (3, 3)))


class TestClosedForms:
    """The constraint Jacobians and the objective gradient of a fit are
    closed forms; central differences are their yardstick."""

    # the overflowing reference side warns in numpy
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", list(STENCIL_CASES))
    @pytest.mark.parametrize("at_bound", [False, True],
                             ids=["interior", "at-bound"])
    def test_jacobians_match_fd_reference(self, case, at_bound):
        nlp, x = STENCIL_CASES[case]()
        ks = nlp.k_beta_sigma
        if at_bound:
            # a Lyapunov-factor diagonal on its floor
            pos = [int(i) for i in nlp.system.diag_positions() if i < ks][-1]
            x = x.copy()
            x[pos] = nlp.lower[pos]
        J_eq, J_in = _reference_jacobians(nlp, x)
        assert np.any(J_eq[:, ks:])
        eq, ineq = nlp.equality_jacobian(x), nlp.inequality_jacobian(x)
        if case == "nonfinite-side":
            # the plus point overflows, so the reference goes one-sided in
            # that column; the closed form stays finite and agrees with it
            i = nlp.system.n_beta
            xp = x.copy()
            xp[i] += 1e-6 * x[i]
            assert not np.all(np.isfinite(nlp.equality(xp)))
            assert np.all(np.isfinite(eq)) and np.any(eq[:, i])
            for J, J_ref in ((eq, J_eq), (ineq, J_in)):
                for col in range(J.shape[1]):
                    _assert_close(J[:, col], J_ref[:, col], 1e-6)
        else:
            _assert_close(eq, J_eq, 1e-8)
            _assert_close(ineq, J_in, 1e-8)
        # the Jacobians leave the evaluation cache alone
        nlp.objective(x)
        key = nlp._cache_key
        nlp.equality_jacobian(x)
        nlp.inequality_jacobian(x)
        assert nlp._cache_key == key

    def test_one_derivative_pass_per_point(self, monkeypatch):
        # the fit-active start: N = 300, data seed 7, disk(0.95, 0)
        nlp, x = _fit_start(disk(0.95, 0.0), n=300, seed=7)
        nlp.equality(x)
        calls = []
        original = identify.sigma_factor_tangents

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(identify, "sigma_factor_tangents", counted)
        J_eq = nlp.equality_jacobian(x)
        J_in = nlp.inequality_jacobian(x)
        # one pass serves both Jacobians, and a repeated request reuses it
        assert len(calls) == 1
        assert np.array_equal(nlp.equality_jacobian(x), J_eq)
        assert np.array_equal(nlp.inequality_jacobian(x), J_in)
        assert len(calls) == 1
        # a new point gets a new pass
        nlp.inequality_jacobian(x + 1e-3)
        assert len(calls) == 2

    def test_preflight_at_the_fit_active_start(self):
        nlp, x = _fit_start(disk(0.95, 0.0), n=300, seed=7)
        assert preflight_gradients(nlp.problem(), x, n_points=3) <= 1e-8


REGION_KINDS = {
    "half_plane": lambda r: half_plane(-r),
    "disk": lambda r: disk(0.5 + r, 0.1 * r),
    "cone": lambda r: cone(0.5 + r, -r),
    "band": lambda r: band(0.5 + r),
    "intersect": lambda r: intersect(half_plane(-r), disk(1.0 + r, 0.0)),
}


@st.composite
def identification_problems(draw):
    """A random model structure with one eigenvalue constraint, an optional
    Re pattern (the p = 3 non-trivial one among them) and prior weight."""
    re_kind = draw(st.sampled_from(("none", "diagonal", "nontrivial")))
    canonical = re_kind == "none" and draw(st.booleans())
    p = 3 if re_kind == "nontrivial" else 1 if canonical \
        else draw(st.integers(1, 3))
    n_s = draw(st.integers(2 if canonical else 1, 3))
    ladm = LadmSpec(
        n_s=n_s, n_d=draw(st.sampled_from((0, p))),
        m=draw(st.integers(1, 2)), p=p,
        plant_form="canonical" if canonical else "full",
        C_fixed=None if canonical or draw(st.booleans()) else np.eye(p, n_s))
    region = REGION_KINDS[draw(st.sampled_from(sorted(REGION_KINDS)))](
        draw(st.floats(0.0, 0.5)))
    constraint = EigConstraintSpec(region, draw(st.sampled_from(
        identify.TARGETS)), 0.05)
    re_pattern = {"none": None, "diagonal": diagonal(p),
                  "nontrivial": NONTRIVIAL_RE}[re_kind]
    rho = draw(st.sampled_from((0.0, 0.8)))
    seed = draw(st.integers(0, 2**16))
    return ladm, constraint, re_pattern, rho, seed


@settings(max_examples=30, derandomize=True, deadline=None)
@given(identification_problems())
def test_fit_derivatives_match_finite_differences(problem):
    ladm, constraint, re_pattern, rho, seed = problem
    nlp, x = _random_point(ladm, (constraint,), seed, re_pattern, rho)
    assert preflight_gradients(nlp.problem(), x, n_points=2, rtol=1e-6,
                               seed=seed) <= 1e-6


class TestLeanHotPaths:
    """The evaluation shortcuts leave every value handed to the solver
    unchanged."""

    def test_nontrivial_sigma_pattern_maps_each_row(self, monkeypatch):
        nlp, x = _random_point(LadmSpec(n_s=2, n_d=3, m=1, p=3),
                               DISK_CONSTRAINT, re_pattern=NONTRIVIAL_RE)
        assert not nlp.system._sigma_trivial
        J_eq, J_in = _reference_jacobians(nlp, x)
        tangents = []
        original = identify.sigma_factor_tangents

        def recorded(*args):
            out = original(*args)
            tangents.append(out[1])
            return out

        monkeypatch.setattr(identify, "sigma_factor_tangents", recorded)
        _assert_close(nlp.equality_jacobian(x), J_eq, 1e-8)
        _assert_close(nlp.inequality_jacobian(x), J_in, 1e-8)
        # one pass maps every Sigma-factor entry, and the completed entry
        # (3, 2) moves with the entries of the rows it is built from
        assert len(tangents) == 1
        dL = tangents[0]
        assert dL.shape[0] == len(nlp.system.pattern_sigma)
        assert np.any(dL[:, 2, 1] != 0.0)

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


class TestObjectivePaths:
    """The MAP regularizer in the objective and in its adjoint gradient,
    and the adjoint gradient under a non-trivial Sigma completion."""

    @staticmethod
    def _map_start(constraints, rho):
        """The extended problem at the fit start of the SISO truth, that
        start, and a prior whose beta is shifted by 0.1 N(0, 1)."""
        from ssfit.identify import _extend_theta

        spec, layout, theta = siso_truth(filter_poles=(0.45, 0.55, 0.65))
        data = siso_dataset(theta, spec, layout, n=120, seed=7)
        pspec = siso_problem(eig_constraints=constraints, rho=rho)
        pspec = replace(pspec, delta_re=resolve_delta(pspec, data))
        ext = extend_with_eig_constraints(pspec)
        phi0 = gbmz_inverse(_extend_theta(ext, theta), ext.system)
        rng = np.random.default_rng(11)
        phi_bar = replace(phi0, beta=phi0.beta
                          + 0.1 * rng.standard_normal(phi0.beta.size))
        return ext, data, phi0, phi_bar

    @pytest.mark.parametrize("constraints", [(), DISK_CONSTRAINT],
                             ids=["unconstrained", "disk"])
    def test_map_gradient_matches_fd(self, constraints):
        ext, data, phi0, phi_bar = self._map_start(constraints, 2.5)
        problem = build_nlp(ext, data, phi_bar)
        worst = preflight_gradients(problem, ext.system.pack(phi0),
                                    n_points=5, seed=7)
        assert worst <= 1e-5

    @pytest.mark.parametrize("constraints", [(), DISK_CONSTRAINT],
                             ids=["unconstrained", "disk"])
    def test_map_objective_adds_the_regularizer(self, constraints):
        ext, data, phi0, phi_bar = self._map_start(constraints, 2.5)
        ext_ml = extend_with_eig_constraints(replace(ext.spec, rho=0.0))
        nlp = _IdentificationNlp(ext, data, phi_bar)
        nlp_ml = _IdentificationNlp(ext_ml, data, phi_bar)
        x = ext.system.pack(phi0)
        x[:nlp.k_beta_sigma] *= 1.0 + 0.01 * np.random.default_rng(12) \
            .standard_normal(nlp.k_beta_sigma)
        added = regularizer(ext.system.unpack(x), phi_bar, 2.5, ext.system)
        assert added > 0
        assert nlp.objective(x) - nlp_ml.objective(x) \
            == pytest.approx(added / nlp.obj_scale, rel=1e-9)


    def test_fd_gradient_under_nontrivial_sigma_completion(self):
        nlp, x = _random_point(LadmSpec(n_s=2, n_d=3, m=1, p=3),
                               DISK_CONSTRAINT, re_pattern=NONTRIVIAL_RE,
                               rho=0.7)
        assert not nlp.system._sigma_trivial
        assert np.isfinite(nlp.objective(x))
        g = nlp.gradient(x)
        ks = nlp.k_beta_sigma
        assert np.all(g[ks:] == 0.0)
        assert np.any(g[:ks] != 0.0)
        _assert_close(g, fd_gradient(nlp.objective, x), 1e-8)
        assert preflight_gradients(nlp.problem(), x, n_points=3) <= 1e-8

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

    def test_unconverged_fit_is_one_solve(self, monkeypatch):
        # case A on a shorter record with a small budget stops max-iter at a
        # point whose coupled factor could be restored onto the equality
        # manifold; the fit still returns that one solve as it ended
        spec, layout, theta = siso_truth(filter_poles=(0.45, 0.55, 0.65))
        data = siso_dataset(theta, spec, layout, n=150, seed=7)
        pspec = siso_problem(eig_constraints=(
            EigConstraintSpec(disk(0.95, 0.0), "filter", 0.05),))
        reports = []
        solve = identify.solve

        def counted(*args, **kwargs):
            reports.append(solve(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(identify, "solve", counted)
        result = fit(pspec, data, init=theta, options=SolveOptions(
            max_inner=30, max_outer=2, init_multipliers="lsq"))
        assert len(reports) == 1
        (report,) = reports
        assert report.status == "max-iter"
        assert result.solve_report.x_star.tobytes() == report.x_star.tobytes()
        assert (result.report["iterations"], result.report["outer_iterations"],
                result.report["status"]) \
            == (report.iterations, report.outer_iterations, "max-iter")


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
