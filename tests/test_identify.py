import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    pack_reference,
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
from ssfit.oracle import BarrierQuery, barrier_solve
from ssfit.regions import (LmiRegion, band, cone, disk, eig_membership,
                           half_plane, intersect)
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
    complete_factor,
    epsilon_box,
    gbmz_forward,
    gbmz_inverse,
    transformed_constraints,
)


def tclab_like_spec(**kwargs) -> ProblemSpec:
    ladm = LadmSpec(n_s=2, n_d=2, m=2, p=2, C_fixed=np.eye(2))
    return ProblemSpec(ladm=ladm, delta_re=1e-10, **kwargs)


class TestSpecEquality:
    """Constraint specs compare by value, their weight and shift too."""

    @staticmethod
    def spec(**kwargs):
        return EigConstraintSpec(disk(0.95, 0.0), "filter", 0.05, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"weight": np.eye(3)}, {"shift": 0.05 * np.eye(6)},
        {"weight": np.diag([1.0, 2.0, 3.0]), "shift": 0.1 * np.eye(6)}])
    def test_equal_matrices_compare_equal(self, kwargs):
        assert self.spec(**kwargs) == self.spec(**kwargs)
        assert not self.spec(**kwargs) != self.spec(**kwargs)

    @pytest.mark.parametrize("kwargs, other", [
        ({"weight": np.eye(3)}, {"weight": 2.0 * np.eye(3)}),
        ({"weight": np.eye(3)}, {}),
        ({"weight": np.eye(3)}, {"weight": np.eye(2)}),
        ({"shift": 0.05 * np.eye(6)}, {"shift": 0.06 * np.eye(6)}),
        ({"shift": 0.05 * np.eye(6)}, {}),
        ({"weight": np.eye(3)}, {"shift": np.eye(3)})])
    def test_other_matrices_differ(self, kwargs, other):
        assert self.spec(**kwargs) != self.spec(**other)
        assert self.spec(**other) != self.spec(**kwargs)

    def test_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(self.spec(weight=np.eye(3)))

    def test_problem_specs_compare_their_constraints(self):
        def problem(scale):
            return siso_problem(eig_constraints=(
                self.spec(weight=scale * np.eye(3)),))

        assert problem(1.0) == problem(1.0)
        assert problem(1.0) != problem(2.0)


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

    def test_queries_carry_the_resolved_shift_and_weight(self):
        spec = tclab_like_spec(eig_constraints=(
            EigConstraintSpec(disk(0.9, 0.0), "plant_block", 0.05),
            EigConstraintSpec(half_plane(0.3), "filter", 0.03)))
        q_plant, q_filter = extend_with_eig_constraints(spec).queries
        assert np.array_equal(q_plant.shift, 0.05 * np.eye(4))
        assert np.array_equal(q_plant.weight, np.eye(2))
        assert np.array_equal(q_filter.shift, 0.03 * np.eye(4))
        assert np.array_equal(q_filter.weight, np.eye(4))

    def test_zero_shift_rejected(self):
        # a zero shift would pose the oracle's relaxed system, whose floor
        # P >= I the trace rows do not carry
        spec = siso_problem(delta_re=1e-8, eig_constraints=(
            EigConstraintSpec(disk(0.5, 0.0), "filter", 0.05,
                              shift=np.zeros((6, 6))),))
        with pytest.raises(ValueError, match="shift must be nonzero"):
            extend_with_eig_constraints(spec)


@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: siso_problem(epsilon=np.nan), "epsilon",
                 id="epsilon-nan"),
    pytest.param(lambda: siso_problem(epsilon=np.inf), "epsilon",
                 id="epsilon-inf"),
    pytest.param(lambda: siso_problem(epsilon=0.0), "epsilon",
                 id="epsilon-0"),
    pytest.param(lambda: siso_problem(rho=np.nan), "rho", id="rho-nan"),
    pytest.param(lambda: siso_problem(rho=np.inf), "rho", id="rho-inf"),
    pytest.param(lambda: siso_problem(rho=-1.0), "rho", id="rho-negative"),
    pytest.param(lambda: siso_problem(delta_re=np.nan), "delta_re",
                 id="delta_re-nan"),
    pytest.param(lambda: siso_problem(delta_re=np.inf), "delta_re",
                 id="delta_re-inf"),
    pytest.param(lambda: siso_problem(delta_re=-1.0), "delta_re",
                 id="delta_re-negative"),
    pytest.param(lambda: siso_problem(delta_re="automatic"), "delta_re",
                 id="delta_re-string"),
    pytest.param(lambda: siso_problem(delta_re=True), "delta_re",
                 id="delta_re-bool"),
    pytest.param(lambda: siso_problem(epsilon=True), "epsilon",
                 id="epsilon-bool"),
    pytest.param(lambda: siso_problem(rho=False), "rho", id="rho-bool"),
    pytest.param(lambda: EigConstraintSpec(disk(0.5, 0.0), "filter", True),
                 "epsilon_i", id="epsilon_i-bool"),
    pytest.param(lambda: EigConstraintSpec(disk(0.5, 0.0), "filter", np.nan),
                 "epsilon_i", id="epsilon_i-nan"),
    pytest.param(lambda: EigConstraintSpec(disk(0.5, 0.0), "filter", np.inf),
                 "epsilon_i", id="epsilon_i-inf"),
    pytest.param(lambda: disk(np.inf, 0.0), "generating matrices",
                 id="disk-radius-inf"),
    pytest.param(lambda: half_plane(np.nan), "generating matrices",
                 id="half_plane-nan"),
    pytest.param(lambda: LmiRegion(np.eye(1), [[np.inf]]),
                 "generating matrices", id="region-m1-inf"),
])
def test_nonfinite_or_out_of_range_spec_value_names_its_field(build, field):
    with pytest.raises(ValueError, match=f"^{field} must be .*finite"):
        build()


@pytest.mark.parametrize("re_pattern, message", [
    (full_lower(1), "re_pattern dimension 1 != output count 2"),
    (IndexSet(2, ((2, 1),)), "re_pattern must contain the diagonal"),
], ids=["dimension", "no-diagonal"])
def test_problem_spec_rejects_a_foreign_re_pattern(re_pattern, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ProblemSpec(ladm=LadmSpec(n_s=2, n_d=0, m=1, p=2),
                    re_pattern=re_pattern)


def _constrained_siso():
    """A disk-constrained SISO problem, its truth and a 120-sample record."""
    spec, layout, theta = siso_truth()
    data = siso_dataset(theta, spec, layout, n=120, seed=3)
    ext = extend_with_eig_constraints(siso_problem(
        delta_re=1e-8,
        eig_constraints=(EigConstraintSpec(disk(0.95, 0.0), "filter", 0.05),)))
    return ext, theta, data


@pytest.mark.parametrize("call, error, message", [
    (lambda ext, theta, data: fit(ext.spec, data, init="regression"),
     ValueError, "unknown init 'regression'"),
    (lambda ext, theta, data: identify._extend_theta(
        ext, ThetaPoint(theta.beta, np.eye(2))), InitializationError,
     "initial Sigma must be 1 x 1 (the innovation covariance) or the full "
     "extended block, got (2, 2)"),
    (lambda ext, theta, data: identify._extend_theta(
        ext, ThetaPoint(theta.beta, np.array([[1e-9]]))), InitializationError,
     "initial innovation covariance does not clear the back-off floor"),
    (lambda ext, theta, data: varx_init(
        Dataset(data.u[:5], data.y[:5]), ext.spec), InitializationError,
     "need more than 5 samples, got 5"),
], ids=["fit-init-unknown", "extend-Sigma-size", "extend-Re-below-floor",
        "varx_init-short-record"])
def test_identify_rejects_an_unusable_start(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(*_constrained_siso())


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
    p, n = pspec.ladm.p, ext.queries[0].n
    P = theta_ext.Sigma[p:p + n, p:p + n]
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


def _likelihood_only(nlp):
    """The NLP of ``nlp``'s problem without its prior."""
    ext = extend_with_eig_constraints(replace(nlp.ext.spec, rho=0.0))
    return _IdentificationNlp(ext, nlp.data, None)


def _prior_by_hand(nlp, x):
    """``(rho/2)(|beta - beta_bar|^2 + |L - L_bar|_F^2)`` at ``x``, with
    each Sigma factor completed by ``transform.complete_factor``."""
    system, bar = nlp.system, nlp.phi_bar
    phi = system.unpack(x)

    def completed(L_on):
        return L_on + complete_factor(system.pattern_sigma, L_on,
                                      np.zeros_like(L_on))

    dbeta = phi.beta - bar.beta
    dL = completed(phi.L_sigma) - completed(bar.L_sigma)
    return 0.5 * nlp.rho * (float(dbeta @ dbeta) + float(np.sum(dL * dL)))


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
        calls = {"ladm_blocks": 0, "assemble_ladm": 0,
                 "sigma_factor_tangents": 0}
        for module, name in ((statespace, "ladm_blocks"),
                             (identify, "ladm_blocks"),
                             (identify, "assemble_ladm"),
                             (identify, "sigma_factor_tangents")):
            def counted(*args, _original=getattr(module, name), _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        once = dict.fromkeys(calls, 1)
        # one record and one derivative pass serve all six callables
        assert np.isfinite(nlp.objective(x))
        for name in ("gradient", "equality", "inequality"):
            getattr(nlp, name)(x)
        J_eq = nlp.equality_jacobian(x)
        J_in = nlp.inequality_jacobian(x)
        assert calls == once
        # a repeated request reuses them
        assert np.array_equal(nlp.equality_jacobian(x), J_eq)
        assert np.array_equal(nlp.inequality_jacobian(x), J_in)
        assert calls == once
        # a new point gets a new record and a new pass
        nlp.inequality_jacobian(x + 1e-3)
        assert calls == dict.fromkeys(calls, 2)

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
    # the canonical form in half the draws; it has a single output
    canonical = draw(st.sampled_from((True, False)))
    re_kind = draw(st.sampled_from(("none", "diagonal") if canonical
                                   else ("none", "diagonal", "nontrivial")))
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


@settings(max_examples=30, derandomize=True, deadline=None)
@given(identification_problems())
def test_layout_directions_are_the_affine_blocks(problem):
    ladm, constraint, re_pattern, rho, seed = problem
    nlp, x = _random_point(ladm, (constraint,), seed, re_pattern, rho)
    layout = nlp.ext.layout
    beta = nlp.system.unpack(x).beta
    # each coordinate drives one block entry with coefficient 1
    counts = sum(np.count_nonzero(d.reshape(len(beta), -1), axis=1)
                 for d in layout.directions)
    assert np.all(counts == 1)
    assert all(set(np.unique(d)) <= {0.0, 1.0} for d in layout.directions)
    for block, offset, d in zip(
            statespace.ladm_blocks(layout, beta),
            statespace.ladm_blocks(layout, np.zeros_like(beta)),
            layout.directions):
        assert np.array_equal(block, offset + np.tensordot(beta, d, 1))
    # the objective's pull-back is pack on the hand-sliced block gradients
    lik = _IdentificationNlp(nlp.ext, nlp.data, None)
    try:
        grads = statespace.likelihood_gradients(lik._forward(x)[3], nlp.data)
    except FilterDivergedError:
        return
    assert np.array_equal(lik.gradient(x)[:layout.n_beta],
                          pack_reference(layout, grads) / lik.obj_scale)


NLP_CALLABLES = ("objective", "gradient", "equality", "equality_jacobian",
                 "inequality", "inequality_jacobian")


def _outcome(fn, x):
    """The bytes of ``fn(x)``, or the type of the error it raises."""
    try:
        return np.asarray(fn(x)).tobytes()
    except FilterDivergedError as exc:
        return type(exc)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(identification_problems(),
       st.permutations(range(2 * len(NLP_CALLABLES))))
def test_point_record_matches_fresh_evaluations(problem, order):
    ladm, constraint, re_pattern, rho, seed = problem
    nlp, x = _random_point(ladm, (constraint,), seed, re_pattern, rho)
    y = x * (1.0 + 0.01 * np.random.default_rng(seed).standard_normal(x.size))
    # the six callables at two points, interleaved in a drawn order
    for i in order:
        point, name = (x, y)[i % 2], NLP_CALLABLES[i // 2]
        fresh = _IdentificationNlp(nlp.ext, nlp.data, nlp.phi_bar)
        assert _outcome(getattr(nlp, name), point) \
            == _outcome(getattr(fresh, name), point), name


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

    @staticmethod
    def _with_prior(ext, phi_bar):
        return replace(ext, spec=replace(ext.spec, phi_bar=phi_bar))

    def test_build_nlp_poses_the_problem_fit_solves(self, monkeypatch):
        ext, data, phi0, phi_bar = self._map_start(DISK_CONSTRAINT, 1.0)
        ext = self._with_prior(ext, phi_bar)
        posed = []

        class Posed(Exception):
            pass

        def capture(problem, x0, options):
            posed.append(problem)
            raise Posed

        monkeypatch.setattr(identify, "solve", capture)
        theta = siso_truth(filter_poles=(0.45, 0.55, 0.65))[2]
        with pytest.raises(Posed):
            fit(ext.spec, data, init=theta)
        x0 = ext.system.pack(phi0)
        assert build_nlp(ext, data).objective(x0) \
            == posed[0].objective(x0)

    def test_build_nlp_needs_a_prior_centre_when_rho_is_positive(self):
        ext, data, _, _ = self._map_start((), 1.0)
        with pytest.raises(ValueError, match="phi_bar"):
            build_nlp(ext, data)

    @pytest.mark.parametrize("constraints", [(), DISK_CONSTRAINT],
                             ids=["unconstrained", "disk"])
    def test_map_gradient_matches_fd(self, constraints):
        ext, data, phi0, phi_bar = self._map_start(constraints, 2.5)
        problem = build_nlp(self._with_prior(ext, phi_bar), data)
        worst = preflight_gradients(problem, ext.system.pack(phi0),
                                    n_points=5, seed=7)
        assert worst <= 1e-5

    @pytest.mark.parametrize("constraints", [(), DISK_CONSTRAINT],
                             ids=["unconstrained", "disk"])
    def test_map_objective_adds_the_regularizer(self, constraints):
        ext, data, phi0, phi_bar = self._map_start(constraints, 2.5)
        nlp = _IdentificationNlp(ext, data, phi_bar)
        x = ext.system.pack(phi0)
        x[:nlp.k_beta_sigma] *= 1.0 + 0.01 * np.random.default_rng(12) \
            .standard_normal(nlp.k_beta_sigma)
        added = _prior_by_hand(nlp, x)
        assert added > 0
        assert nlp.objective(x) - _likelihood_only(nlp).objective(x) \
            == pytest.approx(added / nlp.obj_scale, rel=1e-9)

    @pytest.mark.parametrize("re_pattern", [None, NONTRIVIAL_RE],
                             ids=["full", "nontrivial"])
    def test_prior_at_and_beside_its_point(self, re_pattern):
        ladm = LadmSpec(n_s=2, n_d=3, m=1, p=3)
        nlp, x = _random_point(ladm, DISK_CONSTRAINT, seed=5,
                               re_pattern=re_pattern, rho=3.0)
        ml = _likelihood_only(nlp).objective(x)
        at_prior = _IdentificationNlp(nlp.ext, nlp.data, nlp.system.unpack(x))
        assert at_prior.objective(x) == ml
        # a prior that differs in beta alone adds (rho/2)|d|^2
        d = np.zeros(nlp.system.n_beta)
        d[:2] = [0.5, -1.0]
        beside = replace(nlp.system.unpack(x), beta=x[:d.size] + d)
        shifted = _IdentificationNlp(nlp.ext, nlp.data, beside)
        assert (shifted.objective(x) - ml) * nlp.obj_scale \
            == pytest.approx(0.5 * 3.0 * 1.25, rel=1e-12)
        # a random prior adds its distance over the completed factors
        added = _prior_by_hand(nlp, x)
        assert added > 0
        assert (nlp.objective(x) - ml) * nlp.obj_scale \
            == pytest.approx(added, rel=1e-9)

    def test_mismatched_prior_rejected_before_the_solve(self, monkeypatch):
        ext, data, phi0, _ = self._map_start(DISK_CONSTRAINT, 2.5)
        wrong = replace(phi0, beta=np.zeros(phi0.beta.size + 1))
        with pytest.raises(ValueError, match="phi_bar"):
            build_nlp(self._with_prior(ext, wrong), data)

        def no_solve(*args, **kwargs):
            raise AssertionError("the solve started")

        monkeypatch.setattr(identify, "solve", no_solve)
        theta = siso_truth()[2]
        for bad in (wrong, replace(phi0, L_sigma=np.eye(1))):
            with pytest.raises(ValueError, match="phi_bar"):
                fit(replace(ext.spec, phi_bar=bad), data, init=theta)

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

    @pytest.mark.parametrize("C_fixed", [None, np.array([[1.0, 0.0]])],
                             ids=["C_s-free", "C_s-fixed"])
    def test_full_form_fallback_start_fits(self, C_fixed):
        # two plant states behind one output: no similarity maps the one-lag
        # regression onto this layout, so the start is slow diagonal
        # dynamics with the input map matched through the output map
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=600)
        ladm = LadmSpec(n_s=2, n_d=1, m=1, p=1, C_fixed=C_fixed)
        layout = ParameterLayout(ladm)
        pspec = ProblemSpec(ladm=ladm)
        theta0 = varx_init(data, pspec)
        assert np.array_equal(layout.matrices(theta0.beta)["A_s"],
                              0.5 * np.eye(2))
        start = neg_log_likelihood(assemble_ladm(ladm, theta0, layout), data)
        result = fit(pspec, data)
        assert result.converged
        assert result.nll < start

    def test_regression_alone(self):
        # the constraints do not move the regression's point
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=600)
        pspec = siso_problem(eig_constraints=(
            EigConstraintSpec(disk(0.9, 0.0), "filter", 0.05),))
        theta0, plain = varx_init(data, pspec), varx_init(data, siso_problem())
        assert theta0.beta.tobytes() == plain.beta.tobytes()
        assert theta0.Sigma.tobytes() == plain.Sigma.tobytes()


class _Started(Exception):
    """Raised by a stub solver with the start it was handed."""


def auto_start(pspec: ProblemSpec, data: Dataset):
    """The model and extended point of ``fit(init="auto")``'s start, taken
    from the solver's first argument; the fit has checked the point with
    ``gbmz_inverse`` before it gets there."""
    def stop(problem, x0, options):
        raise _Started(x0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identify, "solve", stop)
        with pytest.raises(_Started) as started:
            fit(pspec, data)
    ext = extend_with_eig_constraints(
        replace(pspec, delta_re=resolve_delta(pspec, data)))
    theta, _ = gbmz_forward(ext.system.unpack(started.value.args[0]),
                            ext.system)
    return ext, theta, ext.model_of(theta)


def assert_strictly_inside(ext, theta, model):
    """Every constrained spectrum is inside its region, and every trace row
    below its bound."""
    for c in ext.spec.eig_constraints:
        target = c.resolve_target(model.A, model.C, model.K, ext.spec.ladm.n_s)
        assert eig_membership(c.region, target)
    assert np.all(ext.system.ineq_fn(theta.beta, theta.Sigma) < 0)


def tclab_like_data(N: int = 2000) -> Dataset:
    """A record of a 2 x 2 model of ``tclab_like_spec``'s structure."""
    ladm = tclab_like_spec().ladm
    layout = ParameterLayout(ladm)
    theta = ThetaPoint(layout.pack({
        "A_s": np.array([[0.8, 0.1], [0.0, 0.7]]), "B_s": np.eye(2),
        "K_s": 0.3 * np.eye(2), "K_d": 0.2 * np.eye(2)}), 0.01 * np.eye(2))
    u = 2.0 * np.random.default_rng(0).integers(0, 2, (N, 2)) - 1.0
    return Dataset(u, statespace.simulate(
        assemble_ladm(ladm, theta, layout), u, seed=3))


# ROADMAP item 3's cases: filter regions that exclude 0.95, the integrators'
# filter pole at the regression start (K_d = 0.05 I)
ITEM3_CASES = {
    "siso-disk-0.9": ("siso", disk(0.9, 0.0)),
    "siso-disk-0.95": ("siso", disk(0.95, 0.0)),
    "siso-intersect": ("siso", intersect(half_plane(0.3), disk(0.85, 0.0))),
    "mimo-disk-0.9": ("mimo", disk(0.9, 0.0)),
    "mimo-disk-0.7": ("mimo", disk(0.7, 0.0)),
}


@pytest.mark.parametrize("case", list(ITEM3_CASES))
def test_auto_start_blends_into_filter_regions(case):
    kind, region = ITEM3_CASES[case]
    constraints = (EigConstraintSpec(region, "filter", 0.05),)
    if kind == "siso":
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=600)
        pspec = siso_problem(eig_constraints=constraints)
    else:
        data = tclab_like_data()
        pspec = tclab_like_spec(eig_constraints=constraints)
    assert_strictly_inside(*auto_start(pspec, data))


# the blend's end point puts every filter pole at the one centre c of a
# region; that triple pole of a nonnormal filter matrix needs tr(VP) = 28.1,
# 312 and 664 in these regions, against the bound 1/epsilon_i = 20 (ROADMAP
# item 3(b))
SMALL_REGION_CASES = {
    "disk-0.5-at--0.6": disk(0.5, -0.6),
    "disk-0.3-at--0.6": disk(0.3, -0.6),
    "disk-0.2-at-0": disk(0.2, 0.0),
}


def test_auto_start_refuses_regions_without_a_real_centre():
    # Re z > 0.96 holds no point of the centre scan over [-0.95, 0.95]
    spec, layout, theta = siso_truth()
    data = siso_dataset(theta, spec, layout, n=600)
    pspec = siso_problem(eig_constraints=(
        EigConstraintSpec(half_plane(0.96), "filter", 0.05),))
    with pytest.raises(InitializationError, match=re.escape(
            "no real point lies inside every constraint region")):
        fit(pspec, data)


@pytest.mark.xfail(raises=InitializationError, strict=True,
                   reason="the blend's end point leaves no room under the "
                          "trace bound")
@pytest.mark.parametrize("case", list(SMALL_REGION_CASES))
def test_auto_start_blends_into_small_filter_regions(case):
    spec, layout, theta = siso_truth()
    data = siso_dataset(theta, spec, layout, n=600)
    pspec = siso_problem(eig_constraints=(
        EigConstraintSpec(SMALL_REGION_CASES[case], "filter", 0.05),))
    assert_strictly_inside(*auto_start(pspec, data))


@st.composite
def truths_in_regions(draw):
    """Three distinct real filter poles of the SISO truth and a region drawn
    around them, with its tightening constant and a record seed."""
    poles = [0.05 * k for k in draw(st.lists(
        st.integers(-10, 18), min_size=3, max_size=3, unique=True))]
    lo = min(poles)
    room = draw(st.floats(0.02, 0.3))
    kind = draw(st.sampled_from(("disk", "half_plane", "intersect", "cone")))
    if kind == "disk":
        x0 = draw(st.floats(-0.2, 0.2))
        region = disk(max(abs(z - x0) for z in poles) + room, x0)
    elif kind == "half_plane":
        region = half_plane(lo - room)
    elif kind == "cone":
        region = cone(draw(st.floats(0.5, 3.0)), lo - room)
    else:
        region = intersect(half_plane(lo - room), disk(
            max(abs(z) for z in poles) + draw(st.floats(0.02, 0.3)), 0.0))
    epsilon_i = draw(st.sampled_from((0.03, 0.05)))
    return poles, region, epsilon_i, draw(st.integers(0, 2**16))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(truths_in_regions())
def test_auto_start_extends_on_regions_around_the_truth(case):
    poles, region, epsilon_i, seed = case
    spec, layout, theta = siso_truth(filter_poles=poles)
    res = barrier_solve(BarrierQuery(
        region, assemble_ladm(spec, theta, layout).filter_matrix(),
        epsilon_i * np.eye(3 * region.m)))
    # the tightened set holds the truth with room, not just the region
    assume(1.5 * res.value <= 1.0 / epsilon_i)
    data = siso_dataset(theta, spec, layout, n=300, seed=seed)
    assert_strictly_inside(*auto_start(siso_problem(eig_constraints=(
        EigConstraintSpec(region, "filter", epsilon_i),)), data))


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

    @pytest.mark.parametrize("m, p", [(1, 2), (2, 1)])
    def test_record_of_other_dimensions_rejected(self, monkeypatch, m, p):
        def no_init(*args):
            raise AssertionError("the initializer ran")

        monkeypatch.setattr(identify, "varx_init", no_init)
        rng = np.random.default_rng(3)
        data = Dataset(rng.standard_normal((200, m)),
                       rng.standard_normal((200, p)))
        message = (f"dataset has {m} input\\(s\\) and {p} output\\(s\\); "
                   f"the model structure has 1 input\\(s\\) and 1 output")
        with pytest.raises(ValueError, match=message):
            fit(siso_problem(), data)
        ext = extend_with_eig_constraints(siso_problem(delta_re=1e-8))
        with pytest.raises(ValueError, match=message):
            build_nlp(ext, data)

    def test_infeasible_init_reports_block(self):
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=200, seed=4)
        bad = ThetaPoint(theta.beta, np.array([[1e-12]]))
        with pytest.raises(InitializationError):
            fit(siso_problem(), data, init=bad)

    def test_explicit_init_is_never_blended(self):
        # the regression point's filter pole 0.95 is outside the disk; only
        # the auto start blends it
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=600)
        pspec = siso_problem(eig_constraints=(
            EigConstraintSpec(disk(0.9, 0.0), "filter", 0.05),))
        with pytest.raises(InitializationError, match=(
                r"eigenvalue constraint 0 \(disk\(0.9, 0.0\)\) is "
                r"infeasible at the initial model")):
            fit(pspec, data, init=varx_init(data, pspec))

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
        # the SLSQP optimum of bench/reference.json ("fit-active")
        assert result.solve_report.status == "converged"
        assert result.nll == pytest.approx(-325.797320660, rel=1e-6)

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
