import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (doubling_scan_reference, filter_reference, perturbed,
                     simulate_reference, siso_dataset, siso_truth, stacked,
                     states_loop_reference, whitened_reference)
from ssfit import statespace
from ssfit.statespace import (
    Dataset,
    EigenReport,
    FilterDivergedError,
    InnovationModel,
    LadmSpec,
    ParameterLayout,
    STATE_BLOWUP,
    STOP_TEST_SAMPLES,
    _check_states,
    _states_scan,
    assemble_ladm,
    eigen_report,
    filter_innovations,
    identification_index,
    ladm_blocks,
    likelihood_gradients,
    neg_log_likelihood,
    simulate,
)
from ssfit.transform import ThetaPoint


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


@st.composite
def stop_rule_cases(draw):
    """A stable ``F`` (n <= 4, spectral radius in [0.05, 0.99]) that is
    non-normal through a superdiagonal coupling up to 4, possibly with a
    conjugate pair, rotated by a random orthogonal matrix; a record long
    enough for the scan's stop test; and ``c``, ``x0``."""
    n = draw(st.integers(1, 4))
    rho = draw(st.floats(0.05, 0.99))
    coupling = draw(st.floats(0.0, 4.0))
    N = draw(st.integers(STOP_TEST_SAMPLES, 3 * STOP_TEST_SAMPLES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = np.diag(rho * rng.uniform(-1.0, 1.0, n)) + coupling * np.eye(n, k=1)
    T[0, 0] = rho
    if n > 1 and draw(st.booleans()):
        angle = draw(st.floats(0.0, np.pi))
        T[:2, :2] = rho * np.array([[np.cos(angle), -np.sin(angle)],
                                    [np.sin(angle), np.cos(angle)]])
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q @ T @ Q.T, rng.standard_normal((N, n)), rng.standard_normal(n)


def power_growth(F):
    """Peak of ``max(||F^k||_inf, ||F^k||_1)`` over ``k >= 0``.  Once a power
    has norm at most 1, no later power exceeds the peak so far
    (``F^m = F^k F^(m-k)``), so the search ends there."""
    growth, P = 1.0, np.eye(F.shape[0])
    while True:
        P = P @ F
        norm = max(float(np.abs(P).sum(axis=1).max()),
                   float(np.abs(P).sum(axis=0).max()))
        if norm <= 1.0:
            return growth
        growth = max(growth, norm)


# spectral radius 0.79, power norms peaking at 35 (power_growth): the doubling
# scan misses 16 eps (1 + log2 N) max|x| by 1.3x here, early stop or not, and
# by 1.8x at N = 300, where it never tests for an early stop
NONNORMAL_CASE = (
    np.array([[-0.57796346, 2.332191, 1.70006916],
              [-1.84196353, 0.74171584, -1.67246912],
              [1.47197641, -0.29733732, 1.70917208]]),
    np.random.default_rng(0).standard_normal((STOP_TEST_SAMPLES, 3)),
    np.random.default_rng(1).standard_normal(3))


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
            assert np.allclose(_states_scan(F, stacked(c, x0)),
                               states_loop_reference(F, stacked(c, x0)),
                               rtol=1e-10, atol=1e-12)

    def test_empty_horizon(self):
        x = _states_scan(np.eye(2), stacked(np.zeros((0, 2)), np.ones(2)))
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
                        got = _states_scan(G, stacked(c, x0))
                        tree = doubling_scan_reference(G, stacked(c, x0))
                        if rho > 1.0:
                            with np.errstate(over="ignore", invalid="ignore"):
                                loop = states_loop_reference(G, stacked(c, x0))
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
        # a long record stops once ||F^(2o)||_inf <= eps/2: spectral radius
        # 0.7 and 0.95, and a non-normal F whose powers grow before they
        # decay (spectral radius 0.6)
        N = 20_000
        nonnormal = 0.6 * np.eye(n) + 4.0 * np.eye(n, k=1)
        for F in (0.7, 0.95, nonnormal):
            if np.isscalar(F):
                rho = F
                F = rng.standard_normal((n, n))
                F *= rho / max(float(np.max(np.abs(np.linalg.eigvals(F)))),
                               1e-3)
            elif n == 1:
                continue
            else:
                F4 = np.linalg.matrix_power(F, 4)
                assert float(np.abs(F4).sum(axis=1).max()) > 1.0
            c = rng.standard_normal((N, n))
            x0 = rng.standard_normal(n)
            for G in (F, F.T):
                got = _states_scan(G, stacked(c, x0))
                exact = longdouble_loop(G, c, x0)
                bound = 16 * eps * (1 + np.log2(N)) \
                    * float(np.max(np.abs(exact)))
                assert float(np.max(np.abs(got - exact))) <= bound

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(stop_rule_cases())
    @example(NONNORMAL_CASE)
    def test_stop_rule_accuracy(self, case):
        """Stopping early moves no state by more than eps * max|x| from the
        full-depth scan, and the scan stays within test_scan_accuracy's
        bound of an extended-precision loop times the peak growth of F's
        powers, for F and its transpose.  The doubling scan itself needs
        that factor: at full depth it misses the plain bound by up to 5x on
        strongly non-normal F (``NONNORMAL_CASE``) at any record length."""
        F, c, x0 = case
        eps = np.finfo(float).eps
        bound = 16 * eps * (1 + np.log2(c.shape[0])) * power_growth(F)
        for G in (F, F.T):
            got = _states_scan(G, stacked(c, x0))
            with mock.patch.object(statespace, "STOP_TEST_SAMPLES", np.inf):
                full = _states_scan(G, stacked(c, x0))
            exact = longdouble_loop(G, c, x0)
            scale = float(np.max(np.abs(exact)))
            assert float(np.max(np.abs(got - full))) <= eps * scale
            assert float(np.max(np.abs(got - exact))) <= bound * scale

    def test_scan_peak_memory(self):
        """A scan runs in place: beyond its input it holds one product at a
        time."""
        rng = np.random.default_rng(7)
        N, n = 200_000, 3
        F = 0.3 * rng.standard_normal((n, n))
        x = stacked(rng.standard_normal((N, n)), rng.standard_normal(n))
        tracemalloc.start()
        try:
            _states_scan(F, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * (N + 1) * n * 8

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
                        got = _states_scan(G, stacked(c, x0))
                        want = states_loop_reference(G, stacked(c, x0))
                        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

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
                    got = _states_scan(G, stacked(c, x0))
                    want = states_loop_reference(G, stacked(c, x0))
                finite = np.isfinite(want)
                assert np.array_equal(np.isfinite(got), finite)
                if np.isnan(bad):
                    assert np.array_equal(np.isnan(got), np.isnan(want))
                assert not finite[k + 1, 1] and not finite[k + 2:].any()
                assert np.allclose(got[finite], want[finite],
                                   rtol=1e-10, atol=1e-12)


class TestLongRecord:
    """N = 20 000 with a stable filter: the scan stops once the powers of
    ``F`` have decayed below round-off."""

    N = 20_000

    def test_nan_reaches_the_loops_first_bad_row(self, monkeypatch):
        rng = np.random.default_rng(60)
        model = random_model(rng, n=3, m=1, p=1)
        u = rng.standard_normal((self.N, 1))
        data = Dataset(u, simulate(model, u, seed=1))
        u[10_000, 0] = np.nan
        data.u[10_000, 0] = np.nan

        def diverged_at():
            ks = []
            for run in (lambda: simulate(model, u, seed=1),
                        lambda: filter_innovations(model, data)):
                with pytest.raises(FilterDivergedError) as info:
                    run()
                ks.append(info.value.k)
            return ks

        got = diverged_at()
        monkeypatch.setattr(statespace, "_states_scan", states_loop_reference)
        assert got == diverged_at() == [10_001, 10_001]
        # the loop carries the NaN to the last state, the scan only as far
        # as the levels it ran reach
        x = stacked(np.where(np.isnan(u), np.nan, 0.0) @ model.B.T,
                    model.x0hat)
        with np.errstate(invalid="ignore"):
            assert np.isnan(states_loop_reference(model.A, x.copy())[-1]).all()
            assert np.isfinite(_states_scan(model.A, x)[-1]).all()

    def test_adjoint_gradient_matches_full_depth(self, monkeypatch):
        spec, layout, theta = siso_truth()
        model = assemble_ladm(spec, perturbed(theta, layout), layout)
        data = siso_dataset(theta, spec, layout, n=self.N, seed=21)
        got = likelihood_gradients(model, data)
        nll = neg_log_likelihood(model, data)
        monkeypatch.setattr(statespace, "_states_scan", states_loop_reference)
        want = likelihood_gradients(model, data)
        assert abs(nll - neg_log_likelihood(model, data)) <= 1e-10 * abs(nll)
        for name, g in want.items():
            err = np.linalg.norm(got[name] - g)
            assert err <= 1e-10 * np.linalg.norm(g), name


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
            x = _states_scan(model.A, stacked(c, model.x0hat))
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
        x = _states_scan(model0.A, stacked(u @ model0.B.T, model0.x0hat))
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
    lam = _states_scan(
        F.T, stacked(-(w @ model.C)[::-1], np.zeros(model.n)))[::-1]
    mix = w + lam[1:] @ model.K
    Re_inv_S = scipy.linalg.cho_solve((Lc, True), e.T @ e)
    dRe = 0.5 * (data.N * np.eye(model.p) - Re_inv_S)
    dRe = scipy.linalg.cho_solve((Lc, True), dRe.T).T
    grad = {"A": lam[1:].T @ xhat[:-1], "B": lam[1:].T @ data.u,
            "K": lam[1:].T @ e, "C": -mix.T @ xhat[:-1], "D": -mix.T @ data.u,
            "x0hat": lam[0], "Re": 0.5 * (dRe + dRe.T)}
    return nll, grad, np.sum(z * z, axis=0)


def laid_out(a, layout):
    """``a`` as a C-ordered array, a Fortran-ordered one, or a column slice
    of a wider C-ordered array."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    wide = np.zeros((a.shape[0], a.shape[1] + 3))
    wide[:, 2:2 + a.shape[1]] = a
    return wide[:, 2:2 + a.shape[1]]


class TestForwardBits:
    """The forward paths' per-sample products (``np.dot`` on C-ordered small
    operands) give the bits of ``matmul`` on the transposed views, the
    formulas of ``helpers.simulate_reference`` and ``filter_reference``.

    One exception: a one-sample record with ``m`` or ``p`` above 1.  Each
    of its products has a single row, which numpy hands to BLAS ``gemv``,
    and OpenBLAS's ``gemv`` kernel (and with it the fused multiply-adds)
    follows the small operand's layout.  There the two agree to a few ulps.
    """

    @pytest.mark.parametrize("m,p", [(1, 1), (2, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("N", [1, 2, 300, 4095, 4096, 20_000])
    def test_same_bits_as_matmul_on_views(self, m, p, N):
        rng = np.random.default_rng(1000 * N + 10 * m + p)
        base = random_model(rng, n=3, m=m, p=p)
        model = InnovationModel(base.A, base.B, base.C,
                                rng.standard_normal((p, m)), base.x0hat,
                                base.K, base.Re)
        u0 = rng.standard_normal((N, m))
        y0 = simulate_reference(model, u0, seed=N)

        def same(got, want):
            if N > 1 or m == p == 1:
                return np.array_equal(got, want)
            tol = 8 * np.finfo(float).eps
            return np.allclose(got, want, rtol=tol,
                               atol=tol * float(np.max(np.abs(want))))

        for layout in ("C", "F", "slice"):
            u, y = laid_out(u0, layout), laid_out(y0, layout)
            assert same(simulate(model, u, seed=N),
                        simulate_reference(model, u, seed=N))
            data = Dataset(u, y)
            e, xhat = filter_innovations(model, data)
            e_ref, xhat_ref = filter_reference(model, data)
            assert same(e, e_ref) and same(xhat, xhat_ref)
            # the whitening itself is exact on any record: compare it on
            # the filter's own innovations
            z = whitened_reference(e, model.Re)
            logdet = 2.0 * float(np.sum(np.log(np.diag(
                np.linalg.cholesky(model.Re)))))
            nll = 0.5 * N * logdet + 0.5 * float(np.sum(z * z))
            assert neg_log_likelihood(model, data) == nll
            assert np.array_equal(identification_index(e, model.Re)[0],
                                  np.sum(z * z, axis=0))


def whitening_case(p, cond):
    """A model with ``m = 2`` whose ``Re`` has condition number ``cond``, and
    400 samples simulated from it."""
    rng = np.random.default_rng(int(40 + 10 * p + np.log10(cond)))
    base = random_model(rng, n=3, m=2, p=p)
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    Re = 0.7 * (Q * np.geomspace(1.0, 1.0 / cond, p)) @ Q.T
    model = InnovationModel(base.A, base.B, base.C, base.D, base.x0hat,
                            base.K, 0.5 * (Re + Re.T))
    u = rng.standard_normal((400, 2))
    return model, Dataset(u, simulate(model, u, seed=p))


def assert_gradient_matches(got, grad):
    for name in ("A", "B", "C", "D", "K", "x0hat"):
        err = np.linalg.norm(got[name] - grad[name])
        assert err <= 1e-10 * np.linalg.norm(grad[name]), name


class TestWhitening:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
    def test_matches_triangular_solves(self, p, cond):
        # W = Lc^-1 applied by matmul gives the NLL, its gradient and the
        # identification index of triangular solves to 1e-10 relative
        model, data = whitening_case(p, cond)
        nll, grad, q = triangular_solve_reference(model, data)
        e, _ = filter_innovations(model, data)
        assert abs(neg_log_likelihood(model, data) - nll) <= 1e-10 * abs(nll)
        index, _ = identification_index(e, model.Re)
        assert np.linalg.norm(index - q) <= 1e-10 * np.linalg.norm(q)
        got = likelihood_gradients(model, data)
        assert_gradient_matches(got, grad)
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

    @pytest.mark.parametrize("layout", ["F", "slice"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_adjoint_on_noncontiguous_records(self, p, layout):
        # the adjoint contracts lambda with the record as it is stored:
        # a Fortran-ordered record or a column slice gives the gradient of
        # the triangular solves to the same 1e-10
        model, data = whitening_case(p, 1e4)
        data = Dataset(laid_out(data.u, layout), laid_out(data.y, layout))
        _, grad, _ = triangular_solve_reference(model, data)
        assert_gradient_matches(likelihood_gradients(model, data), grad)


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

    @pytest.mark.parametrize("kwargs, message", [
        # a 2 x 3 Bd holds n_s * n_d = 6 entries, but not as 3 x 2
        (dict(n_s=3, n_d=2, m=1, p=2, Bd=np.arange(6.0).reshape(2, 3),
              Cd=np.eye(2)), r"Bd has shape \(2, 3\), expected \(3, 2\)"),
        # a 1 x 3 Cd is a row, not the column p = 3 asks for
        (dict(n_s=1, n_d=1, m=1, p=3, Cd=np.ones((1, 3))),
         r"Cd has shape \(1, 3\), expected \(3, 1\)"),
        (dict(n_s=2, n_d=1, m=1, p=1, Bd=np.ones(3)),
         r"Bd has shape \(1, 3\), expected \(2, 1\)"),
        (dict(n_s=2, n_d=0, m=1, p=1, Bd=np.zeros((1, 0))),
         r"Bd has shape \(1, 0\), expected \(2, 0\)"),
    ])
    def test_disturbance_maps_need_their_exact_shape(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            LadmSpec(**kwargs)

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


@pytest.mark.parametrize("kwargs, message", [
    ({"n_s": 0, "n_d": 0, "m": 1, "p": 1},
     "dimensions must be positive (n_d may be zero)"),
    ({"n_s": 1, "n_d": 0, "m": 1, "p": 1, "plant_form": "modal"},
     "unknown plant_form 'modal'"),
    ({"n_s": 2, "n_d": 0, "m": 1, "p": 1, "plant_form": "canonical",
      "C_fixed": np.ones((1, 2))}, "canonical plant form fixes C_s itself"),
    ({"n_s": 2, "n_d": 1, "m": 1, "p": 2},
     "default Cd is the identity; give Cd when n_d != p"),
], ids=["n_s-zero", "plant_form-unknown", "canonical-with-C_fixed",
        "n_d-not-p-without-Cd"])
def test_ladm_spec_rejects_an_inconsistent_structure(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        LadmSpec(**kwargs)


TWO_OUTPUTS = LadmSpec(n_s=2, n_d=0, m=1, p=2)


@pytest.mark.parametrize("spec, Sigma, message", [
    (LadmSpec(n_s=1, n_d=0, m=1, p=2), np.eye(2),
     "layout was built for a different model structure"),
    (TWO_OUTPUTS, np.eye(1), "Sigma must contain a leading 2 x 2 block"),
    (TWO_OUTPUTS, np.ones((3, 1)), "Re has shape (2, 1), expected (2, 2)"),
], ids=["foreign-layout", "Sigma-1x1", "Sigma-one-column"])
def test_assemble_ladm_rejects(spec, Sigma, message):
    layout = ParameterLayout(TWO_OUTPUTS)
    theta = ThetaPoint(np.zeros(layout.n_beta), Sigma)
    with pytest.raises(ValueError, match=re.escape(message)):
        assemble_ladm(spec, theta, layout)


def test_layout_without_disturbances_has_an_empty_K_d_segment():
    layout = ParameterLayout(TWO_OUTPUTS)
    sl, shape = layout.segments["K_d"]
    assert shape == (0, 2) and sl.stop == sl.start
    beta = np.arange(1.0, layout.n_beta + 1)
    mats = layout.matrices(beta)
    assert mats["K_d"].shape == (0, 2)
    assert np.array_equal(layout.pack(mats), beta)
    _, _, _, K = ladm_blocks(layout, beta)
    assert np.array_equal(K, mats["K_s"])
