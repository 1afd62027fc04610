import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import doubling_scan_reference, states_loop_reference
from ssfit import statespace
from ssfit.indexsets import empty_set, full_lower
from ssfit.statespace import (
    Dataset,
    EigenReport,
    FilterDivergedError,
    InnovationModel,
    LadmSpec,
    ParameterLayout,
    STATE_BLOWUP,
    _check_states,
    _states_scan,
    assemble_ladm,
    eigen_report,
    filter_innovations,
    identification_index,
    likelihood_gradients,
    neg_log_likelihood,
    regularizer,
    simulate,
)
from ssfit.transform import ConstraintSystem, FactorPoint, ThetaPoint


def longdouble_loop(F, c, x0):
    """The sequential recursion in extended precision (``np.longdouble``)."""
    F = F.astype(np.longdouble)
    x = np.empty((c.shape[0] + 1, x0.size), dtype=np.longdouble)
    x[0] = x0
    for k in range(c.shape[0]):
        x[k + 1] = F @ x[k] + c[k]
    return x


def first_bad_row(x):
    """The first row with an entry past ``STATE_BLOWUP`` or nonfinite."""
    with np.errstate(invalid="ignore"):
        bad = ~(np.abs(x) <= STATE_BLOWUP).all(axis=1)
    return int(np.argmax(bad)) if bad.any() else None


def random_model(rng, n=3, m=1, p=1, stable_filter=True):
    A = 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
    rho_ol = float(np.max(np.abs(np.linalg.eigvals(A))))
    if rho_ol >= 0.95:
        A *= 0.9 / (rho_ol + 0.05)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    D = np.zeros((p, m))
    K = 0.3 * rng.standard_normal((n, p))
    X = rng.standard_normal((p, p))
    Re = X @ X.T + 0.5 * np.eye(p)
    x0 = rng.standard_normal(n)
    model = InnovationModel(A, B, C, D, x0, K, Re)
    if stable_filter:
        rho = np.max(np.abs(np.linalg.eigvals(model.filter_matrix())))
        if rho >= 0.95:
            K = K * (0.5 / (rho + 0.05))
            model = InnovationModel(A, B, C, D, x0, K, Re)
            rho = np.max(np.abs(np.linalg.eigvals(model.filter_matrix())))
            if rho >= 0.95:
                A = A * (0.9 / (rho + 0.05))
                model = InnovationModel(A, B, C, D, x0, K, Re)
    return model


class TestRecursionKernels:
    def test_scan_matches_loop(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            N = int(rng.integers(1, 200))
            F = rng.standard_normal((n, n))
            rho = float(np.max(np.abs(np.linalg.eigvals(F))))
            F *= 0.95 / max(rho, 0.1)
            c = rng.standard_normal((N, n))
            x0 = rng.standard_normal(n)
            assert np.allclose(_states_scan(F, c, x0),
                               states_loop_reference(F, c, x0),
                               rtol=1e-10, atol=1e-12)

    def test_empty_horizon(self):
        x = _states_scan(np.eye(2), np.zeros((0, 2)), np.ones(2))
        assert x.shape == (1, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_scan_accuracy(self, n):
        """Within 16 eps (1 + log2 N) max|x| of an extended-precision loop
        for a stable ``F`` (spectral radius 0.95), as is the plain doubling
        tree; past the blow-up bound (spectral radius 3) the first offending
        row is the tree's and the loop's.  The contiguous ``F`` and the
        transposed view the adjoint passes."""
        rng = np.random.default_rng(100 + n)
        eps = np.finfo(float).eps
        for N in (0, 1, 2, 3, 255, 256, 257, 3000):
            for rho in (0.95, 3.0):
                F = rng.standard_normal((n, n))
                F *= rho / max(float(np.max(np.abs(np.linalg.eigvals(F)))),
                               1e-3)
                c = rng.standard_normal((N, n))
                for x0 in (np.zeros(n), rng.standard_normal(n)):
                    for G in (F, F.T):
                        got = _states_scan(G, c, x0)
                        tree = doubling_scan_reference(G, c, x0)
                        if rho > 1.0:
                            with np.errstate(over="ignore", invalid="ignore"):
                                loop = states_loop_reference(G, c, x0)
                            assert first_bad_row(got) == first_bad_row(tree) \
                                == first_bad_row(loop)
                            continue
                        exact = longdouble_loop(G, c, x0)
                        bound = 16 * eps * (1 + np.log2(max(N, 1))) \
                            * float(np.max(np.abs(exact)))
                        for x in (got, tree):
                            assert float(np.max(np.abs(x - exact))) <= bound
                if rho > 1.0 and N == 3000:
                    assert first_bad_row(got) is not None

    def test_scan_peak_memory(self):
        """One scan holds the output and one product at a time."""
        rng = np.random.default_rng(7)
        N, n = 200_000, 3
        F = 0.3 * rng.standard_normal((n, n))
        c = rng.standard_normal((N, n))
        x0 = rng.standard_normal(n)
        tracemalloc.start()
        try:
            _states_scan(F, c, x0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (N + 1) * n * 8

    def test_check_states_names_first_offending_row(self):
        x = np.zeros((10, 3))
        x[6, 1] = np.nan
        with pytest.raises(FilterDivergedError) as info:
            _check_states(x)
        assert info.value.k == 6
        x[4, 2] = -2 * STATE_BLOWUP
        with pytest.raises(FilterDivergedError) as info:
            _check_states(x)
        assert info.value.k == 4
        x[4, 2] = -STATE_BLOWUP
        x[6, 1] = STATE_BLOWUP
        _check_states(x)

    @pytest.mark.parametrize("seed", range(4))
    def test_divergence_index_matches_doubling_tree(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n=3, m=1, p=1, stable_filter=False)
        A = model.A * 3.0 / float(np.max(np.abs(np.linalg.eigvals(model.A))))
        model = InnovationModel(A, model.B, model.C, model.D, model.x0hat,
                                model.K, model.Re)
        u = rng.standard_normal((500, 1))
        data = Dataset(u, rng.standard_normal((500, 1)))

        def diverged_at():
            ks = []
            for run in (lambda: simulate(model, u, seed=seed),
                        lambda: filter_innovations(model, data)):
                with pytest.raises(FilterDivergedError) as info:
                    run()
                ks.append(info.value.k)
            return ks

        got = diverged_at()
        monkeypatch.setattr(statespace, "_states_scan", doubling_scan_reference)
        assert got == diverged_at()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_chunks_match_loop(self, n):
        """Records across the levels of the scan, from one sample to
        several powers of two."""
        rng = np.random.default_rng(40 + n)
        for N in (1, 2, 7, 8, 63, 64, 65, 300):
            for rho in (0.95, 1.0):
                F = rng.standard_normal((n, n))
                F *= rho / max(float(np.max(np.abs(np.linalg.eigvals(F)))),
                               1e-3)
                c = rng.standard_normal((N, n))
                for x0 in (np.zeros(n), rng.standard_normal(n)):
                    for G in (F, F.T):
                        assert np.allclose(_states_scan(G, c, x0),
                                           states_loop_reference(G, c, x0),
                                           rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_divergence_in_a_later_chunk_matches_loop(self, seed, monkeypatch):
        # spectral radius 3 passes the blow-up bound some 25 samples in
        rng = np.random.default_rng(seed)
        model = random_model(rng, n=3, m=1, p=1, stable_filter=False)
        A = model.A * 3.0 / float(np.max(np.abs(np.linalg.eigvals(model.A))))
        model = InnovationModel(A, model.B, model.C, model.D, model.x0hat,
                                model.K, model.Re)
        u = rng.standard_normal((200, 1))
        data = Dataset(u, rng.standard_normal((200, 1)))

        def diverged_at():
            ks = []
            for run in (lambda: simulate(model, u, seed=seed),
                        lambda: filter_innovations(model, data)):
                with pytest.raises(FilterDivergedError) as info:
                    run()
                ks.append(info.value.k)
            return ks

        got = diverged_at()
        assert min(got) > 7
        monkeypatch.setattr(statespace, "_states_scan", states_loop_reference)
        assert got == diverged_at()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_in_chunks_matches_loop(self, bad):
        rng = np.random.default_rng(50)
        F = rng.standard_normal((3, 3))
        F *= 0.9 / float(np.max(np.abs(np.linalg.eigvals(F))))
        x0 = rng.standard_normal(3)
        # first sample, two in the middle, last sample
        for k in (0, 27, 28, 59):
            c = rng.standard_normal((60, 3))
            c[k, 1] = bad
            for G in (F, F.T):
                with np.errstate(invalid="ignore", over="ignore"):
                    got = _states_scan(G, c, x0)
                    want = states_loop_reference(G, c, x0)
                finite = np.isfinite(want)
                assert np.array_equal(np.isfinite(got), finite)
                if np.isnan(bad):
                    assert np.array_equal(np.isnan(got), np.isnan(want))
                assert not finite[k + 1, 1] and not finite[k + 2:].any()
                assert np.allclose(got[finite], want[finite],
                                   rtol=1e-10, atol=1e-12)


class TestSimulate:
    def test_zero_everything(self):
        model = random_model(np.random.default_rng(0))
        model = InnovationModel(model.A, model.B, model.C, model.D,
                                np.zeros(model.n), model.K, model.Re)
        y = simulate(model, np.zeros((50, model.m)), noise=False)
        assert np.array_equal(y, np.zeros((50, model.p)))

    def test_noise_free_matches_convolution(self):
        rng = np.random.default_rng(21)
        model = random_model(rng)
        model = InnovationModel(model.A, model.B, model.C, np.zeros((1, 1)),
                                np.zeros(model.n), model.K, model.Re)
        N = 40
        u = rng.standard_normal((N, 1))
        y = simulate(model, u, noise=False)
        # y_k = sum_{j=1..k} C A^(j-1) B u_{k-j}
        for k in (0, 1, 5, N - 1):
            acc = np.zeros(1)
            for j in range(1, k + 1):
                acc += (model.C @ np.linalg.matrix_power(model.A, j - 1)
                        @ model.B @ u[k - j])
            assert np.allclose(y[k], acc, rtol=1e-9, atol=1e-12)

    def test_seed_replay(self):
        model = random_model(np.random.default_rng(1))
        u = np.ones((100, 1))
        y1 = simulate(model, u, seed=42)
        y2 = simulate(model, u, seed=42)
        assert np.array_equal(y1, y2)

    def test_noise_requires_pd(self):
        model = random_model(np.random.default_rng(2))
        bad = InnovationModel(model.A, model.B, model.C, model.D,
                              model.x0hat, model.K, np.zeros((1, 1)))
        with pytest.raises(ValueError):
            simulate(bad, np.zeros((10, 1)), noise=True)


class TestFilter:
    def test_noise_free_round_trip(self):
        rng = np.random.default_rng(22)
        model = random_model(rng)
        u = rng.standard_normal((100, 1))
        y = simulate(model, u, noise=False)
        e, xhat = filter_innovations(model, Dataset(u, y))
        assert xhat.shape == (101, model.n)
        assert float(np.max(np.abs(e))) < 1e-9

    def test_duality_20_models(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            p = int(rng.integers(1, 3))
            model = random_model(rng, n=n, m=m, p=p)
            N = 200
            u = rng.standard_normal((N, m))
            Lc = np.linalg.cholesky(model.Re)
            gen = np.random.default_rng(1000 + trial)
            e_true = gen.standard_normal((N, p)) @ Lc.T
            c = u @ model.B.T + e_true @ model.K.T
            x = _states_scan(model.A, c, model.x0hat)
            y = x[:-1] @ model.C.T + u @ model.D.T + e_true
            e_rec, _ = filter_innovations(model, Dataset(u, y))
            rel = np.max(np.abs(e_rec - e_true)) / max(1.0, np.max(np.abs(e_true)))
            assert rel <= 1e-10

    def test_k_zero_open_loop(self):
        rng = np.random.default_rng(24)
        model = random_model(rng)
        model0 = InnovationModel(model.A, model.B, model.C, model.D,
                                 model.x0hat, np.zeros((model.n, model.p)),
                                 model.Re)
        u = rng.standard_normal((50, 1))
        y = rng.standard_normal((50, 1))
        e, xhat = filter_innovations(model0, Dataset(u, y))
        x = _states_scan(model0.A, u @ model0.B.T, model0.x0hat)
        assert np.allclose(xhat, x)
        assert np.allclose(e, y - x[:-1] @ model0.C.T)

    def test_divergence_reported(self):
        model = InnovationModel(np.array([[2.0]]), np.eye(1), np.eye(1),
                                np.zeros((1, 1)), np.array([10.0]),
                                np.zeros((1, 1)), np.eye(1))
        data = Dataset(np.zeros((200, 1)), np.zeros((200, 1)))
        # open loop doubling from 10 crosses 1e12 near step 37
        with pytest.raises(FilterDivergedError):
            filter_innovations(model, data)


class TestLikelihood:
    def scalar_model(self, re):
        return InnovationModel(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                               np.zeros((1, 1)), np.zeros(1),
                               np.zeros((1, 1)), np.array([[re]]))

    def test_zero_innovation(self):
        model = self.scalar_model(1.0)
        data = Dataset(np.zeros((1, 1)), np.zeros((1, 1)))
        assert neg_log_likelihood(model, data) == pytest.approx(0.0)

    def test_unit_innovation(self):
        model = self.scalar_model(1.0)
        data = Dataset(np.zeros((1, 1)), np.ones((1, 1)))
        assert neg_log_likelihood(model, data) == pytest.approx(0.5)

    def test_log_det_term(self):
        model = self.scalar_model(float(np.exp(2.0)))
        data = Dataset(np.zeros((2, 1)), np.zeros((2, 1)))
        assert neg_log_likelihood(model, data) == pytest.approx(2.0)

    def test_translation_identity(self):
        # three samples, Re = 1: adding c to the innovations changes the value
        # by (1/2) sum((e+c)^2 - e^2); with C = 0 the innovations are the data
        model = self.scalar_model(1.0)
        e = np.array([0.3, -1.2, 0.7])
        c = 0.45
        base = neg_log_likelihood(model, Dataset(np.zeros((3, 1)), e[:, None]))
        shifted = neg_log_likelihood(
            model, Dataset(np.zeros((3, 1)), (e + c)[:, None]))
        assert shifted - base == pytest.approx(0.5 * np.sum((e + c) ** 2 - e ** 2))

    def test_unstable_filter_gives_inf(self):
        model = InnovationModel(np.array([[2.0]]), np.eye(1), np.eye(1),
                                np.zeros((1, 1)), np.array([10.0]),
                                np.zeros((1, 1)), np.eye(1))
        data = Dataset(np.zeros((200, 1)), np.zeros((200, 1)))
        assert neg_log_likelihood(model, data) == np.inf

    def test_indefinite_re_rejected(self):
        model = self.scalar_model(1.0)
        bad = InnovationModel(model.A, model.B, model.C, model.D, model.x0hat,
                              model.K, np.array([[-1.0]]))
        with pytest.raises(ValueError):
            neg_log_likelihood(bad, Dataset(np.zeros((2, 1)), np.zeros((2, 1))))


def triangular_solve_reference(model, data):
    """NLL, gradient and per-sample index through scipy's triangular and
    Cholesky solves on the ``(p, N)`` innovations."""
    import scipy.linalg

    e, xhat = filter_innovations(model, data)
    Lc = np.linalg.cholesky(model.Re)
    z = scipy.linalg.solve_triangular(Lc, e.T, lower=True)
    nll = data.N * float(np.sum(np.log(np.diag(Lc)))) + 0.5 * float(np.sum(z * z))
    w = scipy.linalg.cho_solve((Lc, True), e.T).T
    F = model.filter_matrix()
    lam = _states_scan(F.T, -(w @ model.C)[::-1], np.zeros(model.n))[::-1]
    mix = w + lam[1:] @ model.K
    Re_inv_S = scipy.linalg.cho_solve((Lc, True), e.T @ e)
    dRe = 0.5 * (data.N * np.eye(model.p) - Re_inv_S)
    dRe = scipy.linalg.cho_solve((Lc, True), dRe.T).T
    grad = {"A": lam[1:].T @ xhat[:-1], "B": lam[1:].T @ data.u,
            "K": lam[1:].T @ e, "C": -mix.T @ xhat[:-1], "D": -mix.T @ data.u,
            "x0hat": lam[0], "Re": 0.5 * (dRe + dRe.T)}
    return nll, grad, np.sum(z * z, axis=0)


class TestWhitening:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
    def test_matches_triangular_solves(self, p, cond):
        # W = Lc^-1 applied by matmul gives the NLL, its gradient and the
        # identification index of triangular solves to 1e-10 relative
        rng = np.random.default_rng(int(40 + 10 * p + np.log10(cond)))
        base = random_model(rng, n=3, m=2, p=p)
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        Re = 0.7 * (Q * np.geomspace(1.0, 1.0 / cond, p)) @ Q.T
        model = InnovationModel(base.A, base.B, base.C, base.D, base.x0hat,
                                base.K, 0.5 * (Re + Re.T))
        u = rng.standard_normal((400, 2))
        data = Dataset(u, simulate(model, u, seed=p))
        nll, grad, q = triangular_solve_reference(model, data)
        e, _ = filter_innovations(model, data)
        assert abs(neg_log_likelihood(model, data) - nll) <= 1e-10 * abs(nll)
        index, _ = identification_index(e, model.Re)
        assert np.linalg.norm(index - q) <= 1e-10 * np.linalg.norm(q)
        got = likelihood_gradients(model, data)
        for name in ("A", "B", "C", "D", "K", "x0hat"):
            err = np.linalg.norm(got[name] - grad[name])
            assert err <= 1e-10 * np.linalg.norm(grad[name]), name
        # the Re gradient (N Re^-1 - Re^-1 S Re^-1) / 2 cancels near the
        # data's covariance: at cond 1e8 both evaluations are up to 3e-6
        # (relative) off a 50-digit one, so their difference is held to
        # cond(Re) * eps times the size of the two terms
        Re_inv = np.linalg.inv(model.Re)
        terms = np.linalg.norm(data.N * Re_inv) \
            + np.linalg.norm(Re_inv @ (e.T @ e) @ Re_inv)
        bound = max(1e-10 * np.linalg.norm(grad["Re"]),
                    np.linalg.cond(model.Re) * np.finfo(float).eps * terms)
        assert np.linalg.norm(got["Re"] - grad["Re"]) <= bound


class TestLadm:
    def test_scalar_assembly(self):
        spec = LadmSpec(n_s=1, n_d=1, m=1, p=1, Bd=np.zeros((1, 1)),
                        Cd=np.ones((1, 1)), C_fixed=np.ones((1, 1)))
        layout = ParameterLayout(spec)
        beta = layout.pack({"A_s": np.array([[0.7]]), "B_s": np.array([[1.0]]),
                            "K_s": np.array([[0.2]]), "K_d": np.array([[0.1]])})
        theta = ThetaPoint(beta, np.array([[0.5]]))
        model = assemble_ladm(spec, theta, layout)
        assert np.allclose(model.A, [[0.7, 0.0], [0.0, 1.0]])
        assert np.allclose(model.B.ravel(), [1.0, 0.0])
        assert np.allclose(model.C, [[1.0, 1.0]])
        assert model.Re[0, 0] == 0.5

    def test_integrator_eigenvalues(self):
        rng = np.random.default_rng(25)
        spec = LadmSpec(n_s=3, n_d=2, m=2, p=2, C_fixed=None)
        layout = ParameterLayout(spec)
        beta = rng.standard_normal(layout.n_beta)
        theta = ThetaPoint(beta, np.eye(2))
        model = assemble_ladm(spec, theta, layout)
        eigs = np.linalg.eigvals(model.A)
        assert np.sum(np.isclose(eigs, 1.0)) >= 2

    def test_characteristic_polynomial_factors(self):
        rng = np.random.default_rng(26)
        spec = LadmSpec(n_s=2, n_d=2, m=1, p=2)
        layout = ParameterLayout(spec)
        beta = rng.standard_normal(layout.n_beta)
        theta = ThetaPoint(beta, np.eye(2))
        model = assemble_ladm(spec, theta, layout)
        A_s = layout.matrices(beta)["A_s"]
        expected = np.concatenate([np.linalg.eigvals(A_s), [1.0, 1.0]])
        got = np.linalg.eigvals(model.A)
        assert np.allclose(np.sort_complex(got), np.sort_complex(expected))

    def test_canonical_form(self):
        spec = LadmSpec(n_s=2, n_d=1, m=1, p=1, plant_form="canonical")
        layout = ParameterLayout(spec)
        beta = np.zeros(layout.n_beta)
        mats = layout.matrices(beta)
        sl, _ = layout.segments["A_s"]
        beta[sl] = [0.1, 0.2]
        mats = layout.matrices(beta)
        assert np.allclose(mats["A_s"], [[0.0, 1.0], [0.1, 0.2]])
        assert np.allclose(mats["C_s"], [[1.0, 0.0]])

    def test_canonical_requires_siso_output(self):
        with pytest.raises(ValueError):
            LadmSpec(n_s=2, n_d=2, m=1, p=2, plant_form="canonical")

    @pytest.mark.parametrize("spec", [
        LadmSpec(n_s=2, n_d=1, m=1, p=1, plant_form="canonical"),
        LadmSpec(n_s=3, n_d=2, m=2, p=2),
        LadmSpec(n_s=2, n_d=0, m=1, p=2, C_fixed=np.ones((2, 2))),
        LadmSpec(n_s=2, n_d=1, m=2, p=2, Bd=np.ones((2, 1)),
                 Cd=np.array([[1.0], [0.5]])),
    ])
    def test_matches_validated_model(self, spec):
        rng = np.random.default_rng(27)
        layout = ParameterLayout(spec)
        X = rng.standard_normal((spec.p + 2, spec.p + 2))
        theta = ThetaPoint(rng.standard_normal(layout.n_beta), X @ X.T)
        model = assemble_ladm(spec, theta, layout)
        ref = InnovationModel(model.A, model.B, model.C, model.D, model.x0hat,
                              model.K, theta.Sigma[:spec.p, :spec.p])
        for name in ("A", "B", "C", "D", "x0hat", "K", "Re"):
            got, want = getattr(model, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), name

    def test_nonsymmetric_sigma_block_rejected_like_validated_model(self):
        spec = LadmSpec(n_s=1, n_d=1, m=1, p=2, Cd=np.ones((2, 1)))
        layout = ParameterLayout(spec)
        Sigma = np.array([[1.0, 0.2], [0.3, 1.0]])
        theta = ThetaPoint(np.zeros(layout.n_beta), Sigma)
        with pytest.raises(ValueError) as lean:
            assemble_ladm(spec, theta, layout)
        with pytest.raises(ValueError) as full:
            InnovationModel(np.eye(2), np.zeros((2, 1)), np.ones((2, 2)),
                            np.zeros((2, 1)), np.zeros(2), np.zeros((2, 2)),
                            Sigma)
        assert str(lean.value) == str(full.value) == "Re must be symmetric"

    def test_huge_finite_re_is_symmetrized_without_overflow(self):
        big = np.finfo(float).max
        Re = np.array([[big, 0.5 * big], [0.5 * big, big]])
        near = Re.copy()
        near[0, 1] *= 1.0 - 1e-12
        exact, mean = (InnovationModel(np.eye(2), np.ones((2, 1)), np.eye(2),
                                       np.zeros((2, 1)), np.zeros(2),
                                       np.zeros((2, 2)), given).Re
                       for given in (Re, near))
        assert np.array_equal(exact, Re)
        assert np.isfinite(mean).all() and np.array_equal(mean, mean.T)

    def test_symmetry_check_is_allclose(self):
        # the elementwise check accepts and rejects exactly what allclose did
        rng = np.random.default_rng(28)
        base = rng.standard_normal((3, 3))
        base = base + base.T
        inf, nan = np.inf, np.nan
        cases = [base, np.diag([inf, 1.0, -inf]), np.diag([nan, 1.0, 1.0]),
                 np.array([[1.0, inf], [inf, 1.0]]),
                 np.array([[1.0, inf], [-inf, 1.0]]),
                 np.array([[1.0, inf], [1.0, 1.0]]),
                 np.array([[inf, 1.0], [1.0 + 1e-3, 2.0]])]
        for scale in (1e-12, 1e-10, 1e-6, 1e-5, 1e-3, 1.0):
            for E in (np.triu(np.ones((3, 3)), 1), rng.standard_normal((3, 3))):
                cases.append(base + scale * E)
                cases.append(1e6 * base + scale * 1e6 * E)
        verdicts = set()
        for Re in cases:
            p = Re.shape[0]
            spec = LadmSpec(n_s=p, n_d=0, m=1, p=p)
            layout = ParameterLayout(spec)
            theta = ThetaPoint(np.zeros(layout.n_beta), Re)
            atol = 1e-10 * max(1.0, float(np.max(np.abs(Re))))
            with np.errstate(invalid="ignore"), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = bool(np.allclose(Re, Re.T, atol=atol))
            try:
                assemble_ladm(spec, theta, layout)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == expected, Re
            verdicts.add(expected)
        assert verdicts == {True, False}


class TestRegularizer:
    def setup_method(self):
        self.system = ConstraintSystem(
            n_beta=1, pattern_sigma=full_lower(2), pattern_a=empty_set(0))
        self.phi = FactorPoint(np.array([1.0]), 2.0 * np.eye(2), np.zeros((0, 0)))
        self.phi_bar = FactorPoint(np.array([0.0]), 2.0 * np.eye(2), np.zeros((0, 0)))

    def test_zero_rho(self):
        assert regularizer(self.phi, self.phi_bar, 0.0, self.system) == 0.0

    def test_zero_at_prior(self):
        assert regularizer(self.phi, self.phi, 3.0, self.system) == 0.0

    def test_beta_distance(self):
        assert regularizer(self.phi, self.phi_bar, 2.0, self.system) \
            == pytest.approx(1.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            phi = FactorPoint(rng.standard_normal(1),
                              np.tril(rng.standard_normal((2, 2))) + 2 * np.eye(2),
                              np.zeros((0, 0)))
            assert regularizer(phi, self.phi_bar, 0.7, self.system) >= 0.0

    def test_layout_mismatch(self):
        other = FactorPoint(np.array([0.0, 0.0]), 2.0 * np.eye(2), np.zeros((0, 0)))
        with pytest.raises(ValueError):
            regularizer(self.phi, other, 1.0, self.system)


class TestIdentificationIndex:
    def test_zero_innovations(self):
        q, _ = identification_index(np.zeros((5, 2)), np.eye(2))
        assert np.array_equal(q, np.zeros(5))

    def test_scalar_value(self):
        q, _ = identification_index(2.0 * np.ones((3, 1)), np.eye(1))
        assert np.allclose(q, 4.0)

    def test_chi_square_mean(self):
        rng = np.random.default_rng(28)
        p = 2
        X = rng.standard_normal((p, p))
        Re = X @ X.T + np.eye(p)
        Lc = np.linalg.cholesky(Re)
        e = rng.standard_normal((5000, p)) @ Lc.T
        q, _ = identification_index(e, Re)
        assert abs(np.mean(q) - p) / p < 0.1

    def test_moving_average_windows(self):
        q, avg = identification_index(np.ones((10, 1)), np.eye(1), windows=(1, 3))
        assert np.allclose(avg[1], q)
        assert np.isnan(avg[3][0]) and np.isnan(avg[3][1])
        assert np.allclose(avg[3][2:], 1.0)

    def test_window_too_long(self):
        with pytest.raises(ValueError):
            identification_index(np.ones((5, 1)), np.eye(1), windows=(6,))


class TestEigenReport:
    def test_k_zero_spectra_equal(self):
        model = random_model(np.random.default_rng(29))
        model0 = InnovationModel(model.A, model.B, model.C, model.D,
                                 model.x0hat, np.zeros((model.n, model.p)),
                                 model.Re)
        rep = eigen_report(model0)
        assert np.allclose(rep.open_loop, rep.filter)

    def test_ladm_unfiltered_integrators(self):
        spec = LadmSpec(n_s=1, n_d=1, m=1, p=1, C_fixed=np.ones((1, 1)))
        layout = ParameterLayout(spec)
        beta = layout.pack({"A_s": np.array([[0.5]]), "B_s": np.array([[1.0]]),
                            "K_s": np.array([[0.0]]), "K_d": np.array([[0.0]])})
        model = assemble_ladm(spec, ThetaPoint(beta, np.eye(1)), layout)
        rep = eigen_report(model)
        assert np.any(np.isclose(rep.filter, 1.0))

    def test_scalar_filter_eig(self):
        model = InnovationModel(np.array([[0.9]]), np.eye(1), np.eye(1),
                                np.zeros((1, 1)), np.zeros(1),
                                np.array([[0.5]]), np.eye(1))
        rep = eigen_report(model)
        assert rep.filter[0] == pytest.approx(0.4)
        assert isinstance(rep, EigenReport)
        assert rep.spectral_radius["filter"] == pytest.approx(0.4)
