import functools

import numpy as np
import pytest

from helpers import count_constraint_calls, inner_minimize_reference_adapter
from ssfit import nlp as nlp_module
from ssfit.oracle import BarrierQuery, _BarrierNlp, barrier_solve, barrier_value, region_feasible
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
        assert value == pytest.approx(0.2, abs=2e-3)

    def test_weight_scaling(self):
        A = np.array([[0.5]])
        v1 = barrier_value(BarrierQuery(disk(1.0, 0.0), A, 0.1 * np.eye(2),
                                        np.array([[1.0]])))
        v2 = barrier_value(BarrierQuery(disk(1.0, 0.0), A, 0.1 * np.eye(2),
                                        np.array([[2.0]])))
        assert v2 == pytest.approx(2.0 * v1, rel=1e-2)

    def test_eigenvalue_outside_gives_inf(self):
        q = BarrierQuery(disk(1.0, 0.0), np.array([[1.2]]), 1e-3 * np.eye(2))
        assert barrier_value(q) == np.inf

    def test_feasible_p_returned_definite(self):
        q = BarrierQuery(half_plane(0.0), np.array([[0.8]]), 0.05 * np.eye(1))
        res = barrier_solve(q)
        assert res.feasible
        assert np.min(np.linalg.eigvalsh(res.p_matrix)) > 0

    def test_penalty_escalation_reaches_a_feasible_point(self, monkeypatch):
        """A defective pair at 0.612 inside disk(0.9, 0): the first solve
        ends without a feasible point, so the verdict comes from a solve at
        an escalated penalty."""
        from ssfit import oracle

        calls = []
        original = oracle.solve

        def counted(problem, x0, options):
            report = original(problem, x0, options)
            calls.append((options.penalty0, report.penalty))
            return report

        monkeypatch.setattr(oracle, "solve", counted)
        A = np.array([[0.8487359511693996, 2.4255827058407897],
                      [-0.023098333132860777, 0.37533583549211585]])
        shift = 0.01968960371375985
        res = barrier_solve(BarrierQuery(disk(0.9, 0.0), A,
                                         shift * np.eye(4)))
        assert len(calls) >= 2
        # escalation starts above the penalty the first solve ended at
        assert calls[1][0] > calls[0][1]
        assert res.feasible
        assert np.isfinite(res.value) and res.value <= 1.0 / shift
        assert np.min(np.linalg.eigvalsh(res.p_matrix)) > 0


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


class TestPipelineEquivalence:
    def test_fast_path_matches_generic_transform(self):
        # the assembled NLP must agree with the generic constraint-system
        # route at random factor points
        rng = np.random.default_rng(33)
        A = spectrum_matrix(rng, [0.4, -0.2, 0.6])
        q = BarrierQuery(disk(0.9, 0.0), A, 1e-3 * np.eye(6))
        nlp = _BarrierNlp(q)
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
        nlp = _BarrierNlp(q)
        worst = preflight_gradients(nlp.problem(), nlp.initial_point(), n_points=5)
        assert worst <= 1e-5


# one query per region kind, inside and outside alternating
REFERENCE_QUERIES = {
    "half_plane": (half_plane(0.1), ([0.5, 0.9], [complex(0.7, 0.4)])),
    "disk": (disk(0.9, 0.0), ([1.3, 0.5], [complex(0.2, 0.5)])),
    "cone": (cone(1.0, 0.0), ([0.4, 1.0], [complex(0.8, 0.3)])),
    "intersect": (intersect(half_plane(0.3), disk(0.998, 0.0)),
                  ([0.1, 0.9], [complex(0.7, 0.4)])),
}


def _reference_query(kind):
    region, eigs = REFERENCE_QUERIES[kind]
    A = spectrum_matrix(np.random.default_rng(32), *eigs)
    return BarrierQuery(region, A, 1e-4 * np.eye(A.shape[0] * region.m))


class TestOneEvaluationPerPoint:
    def test_constraints_evaluated_once_per_point(self):
        nlp = _BarrierNlp(_reference_query("cone"))
        x0 = nlp.initial_point()
        problem, calls = count_constraint_calls(nlp.problem())
        fcs = nlp_module._evaluate(problem, x0, nlp_module._Counter())
        ders = nlp_module._derivatives(problem, x0, nlp_module._Counter())
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
        nlp = _BarrierNlp(q)
        x1 = nlp.initial_point()
        x2 = x1 + 1e-3 * np.random.default_rng(5).standard_normal(nlp.dim)
        names = ("split", "p_of", "objective", "gradient", "equality",
                 "equality_jacobian")

        def outputs(obj, name, x):
            out = getattr(obj, name)(x)
            return out if name == "split" else (out,)

        def check(x, p_scale):
            for name in names:
                fresh = _BarrierNlp(q)
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
        q = _reference_query(kind)
        new = barrier_solve(q)
        redundant = []
        monkeypatch.setattr(nlp_module, "_inner_minimize", functools.partial(
            inner_minimize_reference_adapter, redundant=redundant))
        ref = barrier_solve(q)
        assert np.float64(new.value).tobytes() \
            == np.float64(ref.value).tobytes()
        assert new.feasible == ref.feasible
        if ref.p_matrix is not None:
            assert new.p_matrix.tobytes() == ref.p_matrix.tobytes()
        a, b = new.report, ref.report
        assert a.x_star.tobytes() == b.x_star.tobytes()
        assert (a.iterations, a.outer_iterations, a.status) \
            == (b.iterations, b.outer_iterations, b.status)
        assert b.n_evals - a.n_evals \
            == 40 * len(redundant) + 2 * a.outer_iterations
