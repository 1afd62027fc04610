"""Acceptance suite: one test per shipped criterion, each timed and printed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its runtime.
"""

import json
import os
import time

import numpy as np
import pytest

from helpers import (ReferenceBarrierNlp, perturbed, prbs, siso_dataset,
                     siso_problem, siso_truth)
from ssfit.identify import (
    EigConstraintSpec,
    _IdentificationNlp,
    _extend_theta,
    epsilon_continuation,
    extend_with_eig_constraints,
    fit,
)
from ssfit.indexsets import complement, vecs
from ssfit.nlp import SolveOptions, fd_gradient, preflight_gradients
from ssfit.oracle import BarrierQuery, barrier_solve, region_feasible
from ssfit.regions import cone, disk, half_plane, intersect, left_half_plane
from ssfit.statespace import (
    Dataset,
    LadmSpec,
    ParameterLayout,
    _states_scan,
    assemble_ladm,
    filter_innovations,
    identification_index,
    neg_log_likelihood,
)
from ssfit.transform import (
    ThetaPoint,
    bmz_forward,
    bmz_inverse,
    complete_factor,
    gbmz_forward,
    gbmz_inverse,
    reconstruct_q,
)
from test_indexsets import random_pattern
from test_transform import random_instance, toy_system


def report(criterion: str, elapsed: float, budget: float, detail: str = ""):
    line = f"[{criterion}] PASS in {elapsed:.1f}s (budget {budget:.0f}s)"
    if detail:
        line += f" - {detail}"
    print(line)
    assert elapsed < budget, f"{criterion} exceeded its runtime budget"


class TestCriterion1Completion:
    def test_completion_identity_and_dominance(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(100)
        worst_resid = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 9))
            pattern, L_on, H = random_instance(rng, n)
            L_off = complete_factor(pattern, L_on, H)
            Q = reconstruct_q(H, L_on, L_off)
            off = complement(pattern)
            scale = max(1.0, float(np.max(np.abs(Q))))
            if len(off):
                resid = float(np.max(np.abs(vecs(off, Q)))) / scale
                worst_resid = max(worst_resid, resid)
                assert resid <= 1e-10
            # Q - H equals the factor Gram matrix exactly, so its spectrum
            # is the squared singular values of the completed factor
            sv = np.linalg.svd(L_on + L_off, compute_uv=False)
            assert float(sv[-1]) ** 2 > 0
            lam = np.linalg.eigvalsh(Q - H)
            assert float(np.min(lam)) > -1e-9 * max(
                1.0, float(np.linalg.norm(Q - H, 2)))
        report("criterion 1: Cholesky completion", time.perf_counter() - t0,
               5.0, f"worst off-pattern residual {worst_resid:.2e}")


class TestCriterion2RoundTrips:
    def test_simple_and_generalized_bijections(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            pattern = random_pattern(rng, n)
            W = rng.standard_normal((n, n))
            Hc = 0.1 * (W + W.T)

            def H_of(b, Hc=Hc, n=n):
                return Hc + 0.1 * (float(np.sum(b)) if b.size else 0.0) * np.eye(n)

            L = np.zeros((n, n))
            L[pattern._rows0, pattern._cols0] = rng.standard_normal(len(pattern))
            L[np.arange(n), np.arange(n)] = rng.uniform(0.2, 1.5, size=n)
            x = rng.standard_normal(2)
            _, Q = bmz_forward(x, L, H_of, pattern)
            _, L_back = bmz_inverse(x, Q, H_of, pattern)
            assert np.allclose(L_back, L, rtol=1e-8, atol=1e-10)
            _, Q_back = bmz_forward(x, L_back, H_of, pattern)
            assert np.allclose(Q_back, Q, rtol=1e-8, atol=1e-10)
        system = toy_system()
        for _ in range(100):
            b = float(rng.uniform(0.1, 1.0))
            beta = np.array([b, b])
            X = rng.standard_normal((2, 2))
            Sigma = X @ X.T + (1.5 + 0.1 * b) * np.eye(2)
            theta = ThetaPoint(beta, Sigma)
            phi = gbmz_inverse(theta, system)
            theta_back, _ = gbmz_forward(phi, system)
            assert np.allclose(theta_back.Sigma, theta.Sigma,
                               rtol=1e-8, atol=1e-10)
            phi_back = gbmz_inverse(theta_back, system)
            assert np.allclose(phi_back.L_sigma, phi.L_sigma,
                               rtol=1e-8, atol=1e-10)
            assert np.allclose(phi_back.L_a, phi.L_a, rtol=1e-8, atol=1e-10)
        report("criterion 2: bijection round trips", time.perf_counter() - t0,
               5.0)


def spectrum_in_zone(rng, region_kind, inside: bool):
    """One real eigenvalue and one conjugate pair with margin 0.05."""
    margin = 0.05
    while True:
        re1 = rng.uniform(-1.5, 1.8)
        re2 = rng.uniform(-1.5, 1.8)
        im2 = rng.uniform(0.05, 1.5)
        if region_kind == "half_plane":  # Re(z) > 0.1
            d = [re1 - 0.1, re2 - 0.1]
        elif region_kind == "disk":  # |z| < 0.9
            d = [0.9 - abs(re1), 0.9 - np.hypot(re2, im2)]
        else:  # cone slope 1 at origin: |Im| < Re
            d = [(re1 - 0) / np.sqrt(2.0), (re2 - im2) / np.sqrt(2.0)]
        d = np.array(d)
        if inside and np.all(d >= margin):
            break
        if not inside and np.all(d >= -0.6) and np.min(d) <= -margin:
            break
    J = np.zeros((3, 3))
    J[0, 0] = re1
    J[1:, 1:] = [[re2, im2], [-im2, re2]]
    V = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    return V @ J @ np.linalg.inv(V)


REGIONS = {
    "half_plane": half_plane(0.1),
    "disk": disk(0.9, 0.0),
    "cone": cone(1.0, 0.0),
}


class TestCriterion3And4Oracle:
    def test_oracle_agreement_and_definiteness(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(102)
        eps_test = 1e-4
        p_mins = []
        for kind, region in REGIONS.items():
            nm = 3 * region.m
            for _ in range(50):
                A = spectrum_in_zone(rng, kind, inside=True)
                res = barrier_solve(BarrierQuery(region, A, eps_test * np.eye(nm)))
                assert res.value <= 1.0 / eps_test * (1.0 + 1e-6), \
                    f"{kind}: feasible point rejected (phi = {res.value})"
                p_mins.append(float(np.min(np.linalg.eigvalsh(res.p_matrix))))
            for _ in range(50):
                A = spectrum_in_zone(rng, kind, inside=False)
                res = barrier_solve(BarrierQuery(region, A, eps_test * np.eye(nm)))
                assert res.value == np.inf, \
                    f"{kind}: infeasible point accepted (phi = {res.value})"
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert barrier_solve(
            BarrierQuery(left_half_plane(0.0), jordan, 0.0)).value == np.inf
        elapsed = time.perf_counter() - t0
        report("criterion 3: eigenvalue-region oracle agreement", elapsed,
               120.0, "150 feasible + 150 infeasible + Jordan block")
        # criterion 4 piggybacks on the feasible certificates gathered above
        violations = sum(1 for v in p_mins if v <= 0)
        assert violations == 0
        report("criterion 4: definiteness propagation", elapsed, 120.0,
               f"min eig(P) over 150 certificates: {min(p_mins):.3e}")


class TestCriterion5EpsilonMonotone:
    def test_value_and_feasibility_monotone(self):
        t0 = time.perf_counter()
        # toy problem with very quiet innovations so the factor floor binds
        # at the large end of the schedule
        ladm = LadmSpec(n_s=1, n_d=1, m=1, p=1, plant_form="canonical")
        layout = ParameterLayout(ladm)
        beta = layout.pack({"A_s": np.array([0.7]), "B_s": np.array([[1.0]]),
                            "K_s": np.array([[0.1]]), "K_d": np.array([[0.3]])})
        theta = ThetaPoint(beta, np.array([[0.0025]]))
        model = assemble_ladm(ladm, theta, layout)
        u = prbs(300, amplitude=1.0, hold=8, seed=200)
        from ssfit.identify import ProblemSpec
        from ssfit.statespace import simulate
        y = simulate(model, u, seed=201)
        data = Dataset(u, y)
        pspec = ProblemSpec(ladm=ladm)
        schedule = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        results = epsilon_continuation(pspec, data, schedule, init=theta)
        values = [r.objective_value for r in results]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-5, f"mu increased: {a} -> {b}"
        # the floor genuinely binds at the top of the schedule
        assert values[0] > values[-1] + 1e-3
        # region feasibility is monotone in the tightening parameter on a
        # fixed interior matrix
        A = np.array([[0.5, 0.1], [0.0, 0.4]])
        region = disk(0.9, 0.0)
        feas = [region_feasible(BarrierQuery(region, A, 1e-3 * np.eye(4)), e)
                for e in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
        assert feas == sorted(feas)
        assert feas[-1]
        report("criterion 5: floor continuation monotone",
               time.perf_counter() - t0, 120.0,
               f"mu: {values[0]:.4f} -> {values[-1]:.4f}")


class TestCriterion6UnconstrainedMl:
    def test_fit_beats_truth(self):
        t0 = time.perf_counter()
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=2000, seed=11)
        nll_true = neg_log_likelihood(assemble_ladm(spec, theta, layout), data)
        theta0 = perturbed(theta, layout, 0.1, seed=12)
        result = fit(siso_problem(), data, init=theta0)
        assert result.nll <= nll_true
        e, _ = filter_innovations(result.model, data)
        q, _ = identification_index(e, result.model.Re)
        mean_q = float(np.mean(q))
        assert abs(mean_q - 1.0) <= 0.1
        report("criterion 6: synthetic unconstrained ML",
               time.perf_counter() - t0, 60.0,
               f"nll {result.nll:.2f} <= truth {nll_true:.2f}, "
               f"mean q = {mean_q:.3f}")


class TestCriterion7ConstrainedMl:
    def test_filter_eigenvalues_respect_region(self):
        t0 = time.perf_counter()
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=2000, seed=11)
        theta0 = perturbed(theta, layout, 0.05, seed=13)
        region = intersect(half_plane(0.3), disk(0.998, 0.0))
        pspec = siso_problem(
            eig_constraints=(EigConstraintSpec(region, "filter", 0.03),),
            epsilon=1e-6)
        result = fit(pspec, data, init=theta0)
        eigs = np.linalg.eigvals(result.model.filter_matrix())
        assert np.all(eigs.real >= 0.3 - 1e-6), f"Re bound violated: {eigs}"
        assert np.all(np.abs(eigs) <= 0.998 + 1e-6), f"modulus bound: {eigs}"
        nm = 3 * region.m
        confirmed = region_feasible(
            BarrierQuery(region, result.model.filter_matrix(),
                         0.03 * np.eye(nm)), 0.03)
        assert confirmed
        report("criterion 7: synthetic constrained ML",
               time.perf_counter() - t0, 180.0,
               f"filter eigs {np.round(eigs, 4)}")


class TestCriterion8GradientPreflight:
    def test_supplied_gradients_match_fd(self):
        t0 = time.perf_counter()
        # fallback micro-tests
        assert fd_gradient(lambda x: float(x[0] ** 2), np.array([3.0]))[0] \
            == pytest.approx(6.0, abs=1e-8)
        assert np.allclose(fd_gradient(lambda x: 5.0, np.ones(3)), 0.0)
        assert fd_gradient(lambda x: float(np.sin(x[0])), np.array([0.0]))[0] \
            == pytest.approx(1.0, abs=1e-9)
        # the built identification problem carries providers for the
        # objective gradient and both constraint Jacobians
        spec, layout, theta = siso_truth()
        data = siso_dataset(theta, spec, layout, n=150, seed=14)
        region = intersect(half_plane(0.3), disk(0.998, 0.0))
        pspec = siso_problem(
            delta_re=1e-8,
            eig_constraints=(EigConstraintSpec(region, "filter", 0.03),))
        ext = extend_with_eig_constraints(pspec)
        theta_ext = _extend_theta(ext, theta)
        phi0 = gbmz_inverse(theta_ext, ext.system)
        nlp = _IdentificationNlp(ext, data, phi0)
        worst = preflight_gradients(nlp.problem(), ext.system.pack(phi0),
                                    n_points=20, rtol=1e-5, seed=15)
        # and the oracle's reference NLP carries analytic derivatives
        q = BarrierQuery(disk(0.9, 0.0), np.diag([0.5, -0.2, 0.3]),
                         1e-3 * np.eye(6))
        onlp = ReferenceBarrierNlp(q)
        worst_o = preflight_gradients(
            onlp.problem(), onlp.pack(barrier_solve(q).p_matrix),
            n_points=20, rtol=1e-5, seed=16)
        report("criterion 8: gradient preflight", time.perf_counter() - t0,
               30.0, f"worst relative error {max(worst, worst_o):.2e}")


class TestCriterion9Duality:
    def test_injected_innovations_recovered(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(103)
        from test_statespace import random_model
        for trial in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            p = int(rng.integers(1, 3))
            model = random_model(rng, n=n, m=m, p=p)
            N = 300
            u = rng.standard_normal((N, m))
            Lc = np.linalg.cholesky(model.Re)
            gen = np.random.default_rng(5000 + trial)
            e_true = gen.standard_normal((N, p)) @ Lc.T
            c = u @ model.B.T + e_true @ model.K.T
            x = _states_scan(model.A, c, model.x0hat)
            y = x[:-1] @ model.C.T + u @ model.D.T + e_true
            e_rec, _ = filter_innovations(model, Dataset(u, y))
            rel = np.max(np.abs(e_rec - e_true)) / max(1.0, np.max(np.abs(e_true)))
            assert rel <= 1e-10
        report("criterion 9: simulate/filter duality",
               time.perf_counter() - t0, 5.0)


class TestCriterion10CliPipeline:
    def run_pipeline(self, tmp_path, tag):
        from ssfit.cli import main

        fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
        truth = os.path.join(fixtures, "truth_model.json")
        config = os.path.join(fixtures, "config_unconstrained.json")
        base = tmp_path / tag
        base.mkdir()
        sim = str(base / "sim.csv")
        assert main(["simulate", "--model", truth, "--out", sim,
                     "--seed", "21", "--gen-samples", "600"]) == 0
        run = str(base / "run")
        assert main(["fit", "--config", config, "--data", sim,
                     "--out", run]) == 0
        model_path = os.path.join(run, "model.json")
        ev = str(base / "eval")
        assert main(["eval", "--model", model_path, "--data", sim,
                     "--out", ev]) == 0
        assert main(["eig", "--model", model_path,
                     "--region", "intersect(half_plane 0.3, disk 0.998 0)",
                     "--epsilon", "0.03"]) == 0
        report_doc = json.loads(
            (base / "run" / "fit_report.json").read_text())
        report_doc.pop("wall_time_s")
        summary = json.loads((base / "eval" / "eval_summary.json").read_text())
        model_bytes = open(model_path, "rb").read()
        return report_doc, summary, model_bytes

    def test_pipeline_deterministic(self, tmp_path):
        t0 = time.perf_counter()
        r1, s1, m1 = self.run_pipeline(tmp_path, "run1")
        r2, s2, m2 = self.run_pipeline(tmp_path, "run2")
        assert m1 == m2
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)
        report("criterion 10: CLI end-to-end pipeline",
               time.perf_counter() - t0, 120.0,
               f"L_N = {s1['nll']:.4f}")
