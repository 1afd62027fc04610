import functools

import numpy as np
import pytest

from helpers import (ReferenceBarrierNlp, count_constraint_calls,
                     inner_minimize_reference_adapter)
from ssfit import nlp as nlp_module
from ssfit.oracle import (BarrierQuery, _balance, barrier_solve,
                          barrier_value, region_feasible)
from ssfit.regions import (cone, disk, eig_membership, half_plane, intersect,
                           left_half_plane)
from ssfit.transform import transformed_constraints


def spectrum_matrix(rng, eigs_real, eigs_complex=()):
    """Real matrix with the given real eigenvalues and conjugate pairs."""
    blocks = [np.array([[lam]]) for lam in eigs_real]
    for z in eigs_complex:
        a, b = z.real, z.imag
        blocks.append(np.array([[a, b], [-b, a]]))
    n = sum(b.shape[0] for b in blocks)
    J = np.zeros((n, n))
    off = 0
    for b in blocks:
        k = b.shape[0]
        J[off:off + k, off:off + k] = b
        off += k
    V = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    return V @ J @ np.linalg.inv(V)


class TestBarrierAnalytic:
    def test_disk_scalar_value(self):
        q = BarrierQuery(disk(1.0, 0.0), np.array([[0.5]]), 0.1 * np.eye(2))
        value = barrier_value(q)
        assert value == pytest.approx(0.2, rel=1e-8)

    def test_weight_scaling(self):
        A = np.array([[0.5]])
        v1 = barrier_value(BarrierQuery(disk(1.0, 0.0), A, 0.1 * np.eye(2),
                                        np.array([[1.0]])))
        v2 = barrier_value(BarrierQuery(disk(1.0, 0.0), A, 0.1 * np.eye(2),
                                        np.array([[2.0]])))
        assert v2 == pytest.approx(2.0 * v1, rel=1e-8)

    def test_eigenvalue_outside_gives_inf(self):
        q = BarrierQuery(disk(1.0, 0.0), np.array([[1.2]]), 1e-3 * np.eye(2))
        assert barrier_value(q) == np.inf

    def test_feasible_p_returned_definite(self):
        q = BarrierQuery(half_plane(0.0), np.array([[0.8]]), 0.05 * np.eye(1))
        res = barrier_solve(q)
        assert res.feasible
        assert np.min(np.linalg.eigvalsh(res.p_matrix)) > 0

    def test_defective_pair_inside_the_disk(self):
        """A defective pair at 0.612 inside disk(0.9, 0)."""
        A = np.array([[0.8487359511693996, 2.4255827058407897],
                      [-0.023098333132860777, 0.37533583549211585]])
        shift = 0.01968960371375985
        res = barrier_solve(BarrierQuery(disk(0.9, 0.0), A,
                                         shift * np.eye(4)))
        assert res.feasible
        assert res.value == pytest.approx(4.488981, rel=1e-6)
        assert np.min(np.linalg.eigvalsh(res.p_matrix)) > 0


class TestBalancing:
    # scipy casts its unused permutation output from NaN
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_scale_vector_equals_lapack_gebal(self):
        # the fallback coordinates are LAPACK dgebal's scaling pass, bit for
        # bit, on badly scaled matrices with and without a zero row or column
        import scipy.linalg

        rng = np.random.default_rng(36)
        for trial in range(400):
            n = int(rng.integers(2, 7))
            exponents = rng.uniform(-8.0, 8.0, (n, n)) \
                + rng.uniform(-6.0, 6.0, (n, 1)) + rng.uniform(-6.0, 6.0, (1, n))
            if trial % 4 == 3:
                exponents = 25.0 * rng.uniform(-6.0, 6.0, (n, n))
            A = rng.standard_normal((n, n)) * 10.0 ** exponents
            if trial % 3 == 1:
                A[int(rng.integers(n))] = 0.0
            if trial % 5 == 2:
                A[:, int(rng.integers(n))] = 0.0
            _, (scale, _) = scipy.linalg.matrix_balance(A, permute=False,
                                                        separate=True)
            assert np.array_equal(_balance(A), scale), A

    def test_nonfinite_matrix_rejected(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            _balance(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestRegionFeasible:
    def test_sublevel_membership(self):
        q = BarrierQuery(disk(1.0, 0.0), np.array([[0.5]]), 0.1 * np.eye(2))
        assert region_feasible(q, 1.0)       # 0.2 <= 1
        assert not region_feasible(q, 10.0)  # 0.2 > 0.1

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(30)
        A = spectrum_matrix(rng, [0.5], [complex(0.3, 0.2)])
        q = BarrierQuery(disk(0.9, 0.0), A, 1e-3 * np.eye(A.shape[0] * 2))
        feas = [region_feasible(q, eps)
                for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
        # once feasible at some epsilon, feasible at every smaller epsilon
        assert feas == sorted(feas)
        assert feas[-1]

    def test_epsilon_validation(self):
        q = BarrierQuery(half_plane(0.0), np.array([[1.0]]), 0.1 * np.eye(1))
        with pytest.raises(ValueError):
            region_feasible(q, 0.0)


class TestShiftAndWeightRules:
    @pytest.mark.parametrize("shift, weight, match", [
        # without the shift rule this query read feasible with value 1.5e-11,
        # although 0.9 lies outside the disk |z| < 0.5
        (-0.05, None, "positive semidefinite"),
        (np.diag([0.1, 0.1, 0.1, 0.0, 0.1, 0.1]), None, "corner-block"),
        (0.03, np.diag([1.0, 1.0, 0.0]), "weight V must be positive definite"),
    ])
    def test_unsound_query_rejected(self, shift, weight, match):
        with pytest.raises(ValueError, match=match):
            barrier_solve(BarrierQuery(disk(0.5, 0.0), np.diag([0.9, 0.8, 0.7]),
                                       shift, weight))

    @pytest.mark.parametrize("shift", [
        0.0,                                           # the relaxed system
        0.03 * np.eye(6),
        np.diag([0.03, 0.03, 0.03, 0.0, 0.0, 0.0]),    # disk corner block
    ])
    def test_sound_shifts_accepted(self, shift):
        BarrierQuery(disk(0.5, 0.0), np.diag([0.4, 0.3, 0.2]), shift)


class TestJordanCounterexample:
    def test_infeasible_for_all_shifts(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        region = left_half_plane(0.0)
        for shift in (0.0, 1e-4, 1e-2):
            q = BarrierQuery(region, A, shift * np.eye(2))
            assert barrier_value(q) == np.inf

    def test_relaxed_feasible_strictly_inside(self):
        # diagonalizable spectrum strictly inside the left half-plane is
        # feasible for the relaxed system (zero shift, P floored)
        rng = np.random.default_rng(31)
        A = spectrum_matrix(rng, [-0.5], [complex(-1.0, 0.7)])
        q = BarrierQuery(left_half_plane(0.0), A, 0.0)
        assert barrier_value(q) < np.inf


class TestOracleAgreement:
    @pytest.mark.parametrize("region,inside,outside", [
        (half_plane(0.1),
         ([0.5, 0.9], [complex(0.7, 0.4)]),
         ([-0.2, 0.9], [complex(0.7, 0.4)])),
        (disk(0.9, 0.0),
         ([0.5, -0.3], [complex(0.2, 0.5)]),
         ([1.3, 0.5], [complex(0.2, 0.5)])),
        (cone(1.0, 0.0),
         ([0.4, 1.0], [complex(0.8, 0.3)]),
         ([0.4, 1.0], [complex(0.3, 0.9)])),
    ])
    def test_agreement_with_direct_spectrum(self, region, inside, outside):
        rng = np.random.default_rng(32)
        for _ in range(5):
            A_in = spectrum_matrix(rng, *inside)
            assert eig_membership(region, A_in)
            q = BarrierQuery(region, A_in, 1e-4 * np.eye(A_in.shape[0] * region.m))
            assert region_feasible(q, 1e-4)
            A_out = spectrum_matrix(rng, *outside)
            assert not eig_membership(region, A_out)
            q = BarrierQuery(region, A_out, 1e-4 * np.eye(A_out.shape[0] * region.m))
            assert barrier_value(q) == np.inf


# one query per region kind, inside and outside alternating
REFERENCE_QUERIES = {
    "half_plane": (half_plane(0.1), ([0.5, 0.9], [complex(0.7, 0.4)])),
    "disk": (disk(0.9, 0.0), ([1.3, 0.5], [complex(0.2, 0.5)])),
    "cone": (cone(1.0, 0.0), ([0.4, 1.0], [complex(0.8, 0.3)])),
    "intersect": (intersect(half_plane(0.3), disk(0.998, 0.0)),
                  ([0.1, 0.9], [complex(0.7, 0.4)])),
}

# the options of the reference NLP's solves: the oracle's before it was
# one semidefinite program
REFERENCE_OPTIONS = nlp_module.SolveOptions(
    tol_eq=1e-7, tol_in=1e-7, tol_stat=1e-5, penalty0=1e2, max_outer=8,
    max_inner=120, init_multipliers="lsq")


def _reference_query(kind):
    region, eigs = REFERENCE_QUERIES[kind]
    A = spectrum_matrix(np.random.default_rng(32), *eigs)
    return BarrierQuery(region, A, 1e-4 * np.eye(A.shape[0] * region.m))


def _reference(q):
    """The reference NLP of a query at unit P scale, its start, and the
    oracle's answer: the start is the oracle's P where the query is inside
    and the identity where it is not."""
    res = barrier_solve(q)
    P = res.p_matrix if res.feasible else np.eye(q.n)
    nlp = ReferenceBarrierNlp(q)
    nlp._set_p_scale(max(1.0, float(np.trace(P)) / (nlp.scale * q.n)))
    x0 = nlp.pack(P)
    nlp.obj_scale = max(1.0, abs(nlp.objective(x0)))
    return nlp, x0, res


class TestPipelineEquivalence:
    def test_fast_path_matches_generic_transform(self):
        # the assembled NLP must agree with the generic constraint-system
        # route at random factor points
        rng = np.random.default_rng(33)
        A = spectrum_matrix(rng, [0.4, -0.2, 0.6])
        q = BarrierQuery(disk(0.9, 0.0), A, 1e-3 * np.eye(6))
        nlp = ReferenceBarrierNlp(q)
        system = nlp.system()
        for _ in range(10):
            x = rng.standard_normal(nlp.dim)
            x[nlp.lower_bounds() > -np.inf] = rng.uniform(0.2, 1.5)
            phi = system.unpack(np.concatenate([np.zeros(0), x]))
            g_t, _ = transformed_constraints(phi, system)
            assert np.allclose(nlp.equality(x), g_t, rtol=1e-12, atol=1e-12)

    def test_analytic_derivatives_match_fd(self):
        from ssfit.nlp import preflight_gradients

        rng = np.random.default_rng(34)
        A = spectrum_matrix(rng, [0.3], [complex(0.1, 0.4)])
        q = BarrierQuery(half_plane(0.0), A, 0.01 * np.eye(3))
        nlp, x0, _ = _reference(q)
        worst = preflight_gradients(nlp.problem(), x0, n_points=5)
        assert worst <= 1e-5


class TestOneEvaluationPerPoint:
    def test_constraints_evaluated_once_per_point(self):
        nlp, x0, _ = _reference(_reference_query("cone"))
        problem, calls = count_constraint_calls(nlp.problem())
        fcs = nlp_module._evaluate(problem, x0, nlp_module._Counter())
        ders = nlp_module._derivatives(problem, x0)
        out = nlp_module._inner_minimize(
            problem, x0, fcs, ders, np.zeros(nlp.k_a), np.zeros(0), 1e2, 1e-8,
            40, nlp_module._Counter())
        assert out[3] > 1
        assert max(calls.values()) == 1
        # a whole solve too: the end point of each inner solve is the start
        # of the next, evaluated once
        problem, calls = count_constraint_calls(nlp.problem())
        report = nlp_module.solve(problem, x0, nlp_module.SolveOptions(
            max_outer=6, max_inner=40))
        assert report.outer_iterations > 1
        assert max(calls.values()) == 1

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_factor_cache_coherent(self, relaxed):
        q = _reference_query("intersect")
        if relaxed:
            # the floor h0 of P is nonzero only in the relaxed system
            q = BarrierQuery(q.region, q.a_mat, 0.0)
        nlp = ReferenceBarrierNlp(q)
        x1 = nlp.pack(np.eye(q.n))
        x2 = x1 + 1e-3 * np.random.default_rng(5).standard_normal(nlp.dim)
        names = ("split", "p_of", "objective", "gradient", "equality",
                 "equality_jacobian")

        def outputs(obj, name, x):
            out = getattr(obj, name)(x)
            return out if name == "split" else (out,)

        def check(x, p_scale):
            for name in names:
                fresh = ReferenceBarrierNlp(q)
                fresh._set_p_scale(p_scale)
                for a, b in zip(outputs(nlp, name, x),
                                outputs(fresh, name, x)):
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

        for x in (x1, x2, x1):
            check(x, nlp.p_scale)
        # h0 moves with the P scale, so the cached P must too
        nlp.p_of(x1)
        nlp._set_p_scale(2.0 * nlp.p_scale)
        for x in (x1, x2):
            check(x, nlp.p_scale)
        Lp, La = nlp.split(x1)
        for cached in (Lp, La, nlp.p_of(x1)):
            with pytest.raises(ValueError):
                cached[0, 0] = 1.0

    @pytest.mark.parametrize("kind", list(REFERENCE_QUERIES))
    def test_query_matches_reference_inner_loop(self, kind, monkeypatch):
        nlp, x0, _ = _reference(_reference_query(kind))
        problem = nlp.problem()
        new = nlp_module.solve(problem, x0, REFERENCE_OPTIONS)
        redundant = []
        monkeypatch.setattr(nlp_module, "_inner_minimize", functools.partial(
            inner_minimize_reference_adapter, redundant=redundant))
        ref = nlp_module.solve(problem, x0, REFERENCE_OPTIONS)
        assert new.x_star.tobytes() == ref.x_star.tobytes()
        assert np.float64(new.f_star).tobytes() \
            == np.float64(ref.f_star).tobytes()
        assert (new.iterations, new.outer_iterations, new.status) \
            == (ref.iterations, ref.outer_iterations, ref.status)
        assert ref.n_evals - new.n_evals \
            == 40 * len(redundant) + 2 * new.outer_iterations


# inside queries the oracle once rejected: (1) and (2) returned inf through
# its penalty escalation, and the intersect query (query 11 of the
# benchmark's oracle batch at seed 34, optimal P spanning 3e-3 to 1e4) read
# 27 543 > 1/eps; an SLSQP point on the same problem had tr(V P) = 2328.2
FOUND_HALF_PLANE = BarrierQuery(
    half_plane(0.1),
    np.array([[-2.6603324196076046, 0.6780687062483817, -4.264356213036075],
              [7.007886193002048, 2.8466351877204072, 9.45406342718638],
              [1.1278814936412518, -0.9268910367518693, 2.0211610248949032]]),
    0.0005334963558189334 * np.eye(3),
    np.array([[2.218295400618753, -1.7441164875370156, -1.9250616718319165],
              [-1.7441164875370156, 2.4789619178881694, 3.4910842476997854],
              [-1.9250616718319165, 3.4910842476997854, 6.42824612472724]]))
FOUND_RELAXED_DISK = BarrierQuery(
    disk(0.9, 0.0),
    np.array([[3.1795333568398956, 8.429175693236601],
              [-0.9460908206881096, -2.4683921913019993]]),
    0.0,
    np.array([[1.4468652000051792, -3.6451687023699564],
              [-3.6451687023699564, 10.066680850656518]]))
WIDE_INTERSECT = BarrierQuery(
    intersect(half_plane(0.3), disk(0.998, 0.0)),
    np.array([[-109.1636201681114, -134.4101029793602, -396.44798271148085],
              [-123.49186270121652, -150.954347653803, -446.3930609353075],
              [72.20692288376698, 88.53343855188697, 261.521747428268]]),
    1e-4 * np.eye(9))


class TestCertificates:
    def test_lower_bound_below_value(self):
        rng = np.random.default_rng(35)
        queries = []
        for region, inside, outside in (
                (half_plane(0.1), ([0.5, 0.9], [complex(0.7, 0.4)]),
                 ([-0.2, 0.9], [complex(0.7, 0.4)])),
                (disk(0.9, 0.0), ([0.5, -0.3], [complex(0.2, 0.5)]),
                 ([1.3, 0.5], [complex(0.2, 0.5)])),
                (cone(1.0, 0.0), ([0.4, 1.0], [complex(0.8, 0.3)]),
                 ([0.4, 1.0], [complex(0.3, 0.9)])),
                (intersect(half_plane(0.3), disk(0.998, 0.0)),
                 ([0.4, 0.9], [complex(0.7, 0.4)]),
                 ([0.1, 0.9], [complex(0.7, 0.4)]))):
            for _ in range(4):
                for eigs, is_in in ((inside, True), (outside, False)):
                    A = spectrum_matrix(rng, *eigs)
                    nm = A.shape[0] * region.m
                    for shift in (1e-4 * np.eye(nm), 0.0):
                        queries.append((BarrierQuery(region, A, shift), is_in))
        queries += [(FOUND_HALF_PLANE, True), (FOUND_RELAXED_DISK, True),
                    (WIDE_INTERSECT, True)]
        gaps = []
        for q, is_in in queries:
            res = barrier_solve(q)
            assert res.lower_bound <= res.value
            assert res.feasible == is_in
            if res.report.status == "converged":
                gaps.append((res.value - res.lower_bound) / res.value)
            if is_in and q is not WIDE_INTERSECT:
                assert res.report.status == "converged"
        assert max(gaps) <= 1e-6

    def test_inside_queries_once_rejected(self):
        import scipy.linalg

        q = FOUND_HALF_PLANE
        P = scipy.linalg.solve_continuous_lyapunov(
            q.a_mat - 0.1 * np.eye(3), q.shift)
        lyapunov = float(np.trace(q.weight @ P))
        assert lyapunov == pytest.approx(5.058419975, rel=1e-9)
        assert barrier_value(q) == pytest.approx(lyapunov, rel=1e-6)
        res = barrier_solve(FOUND_RELAXED_DISK)
        assert res.feasible
        assert res.value == pytest.approx(691.2339, rel=1e-6)
        res = barrier_solve(WIDE_INTERSECT)
        assert res.lower_bound <= res.value <= 2328.2

    @pytest.mark.parametrize("kind", list(REFERENCE_QUERIES))
    def test_reference_nlp_not_below_lower_bound(self, kind):
        nlp, x0, res = _reference(_reference_query(kind))
        report = nlp_module.solve(nlp.problem(), x0, REFERENCE_OPTIONS)
        if report.eq_residual_inf <= REFERENCE_OPTIONS.tol_eq:
            assert nlp.value(report.x_star) \
                >= res.lower_bound * (1.0 - 1e-6)
        assert res.feasible == (report.eq_residual_inf
                                <= REFERENCE_OPTIONS.tol_eq)
