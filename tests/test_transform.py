import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ssfit.indexsets import (
    PatternError,
    complement,
    diagonal,
    direct_sum,
    empty_set,
    full_lower,
    project_lower,
    vecs,
)
from ssfit.transform import (
    ConstraintSystem,
    DomainError,
    FactorPoint,
    SingularPivotError,
    ThetaPoint,
    complete_factor,
    completion_is_trivial,
    epsilon_box,
    gbmz_forward,
    gbmz_inverse,
    reconstruct_q,
    sigma_factor_tangents,
    transformed_constraints,
)
from test_indexsets import random_pattern


def random_instance(rng, n):
    """Random (pattern, L_on, H) with safe pivots."""
    pattern = random_pattern(rng, n, require_diag=True)
    L = np.zeros((n, n))
    L[pattern._rows0, pattern._cols0] = rng.standard_normal(len(pattern))
    L[np.arange(n), np.arange(n)] = rng.uniform(0.1, 2.0, size=n)
    X = rng.standard_normal((n, n))
    H = 0.5 * (X + X.T)
    H *= 1.0 / max(1.0, np.linalg.norm(H, 2))
    return pattern, L, H


def one_block_forward(x, L, H_of, pattern):
    """The simple substitution ``(x, L) -> (x, H(x) + L L^T)`` completed off
    ``pattern``: :func:`gbmz_forward` on a system with no coupled block."""
    system = ConstraintSystem(x.size, pattern, empty_set(0), shift_fn=H_of)
    theta, _ = gbmz_forward(FactorPoint(x, L, np.zeros((0, 0))), system)
    return theta.beta, theta.Sigma


def one_block_inverse(x, Q, H_of, pattern):
    """Inverse of :func:`one_block_forward` through :func:`gbmz_inverse`."""
    system = ConstraintSystem(x.size, pattern, empty_set(0), shift_fn=H_of)
    phi = gbmz_inverse(ThetaPoint(x, Q), system)
    return phi.beta, phi.L_sigma


class TestCompleteFactor:
    def test_hand_example(self):
        pattern = diagonal(2)
        L_on = np.eye(2)
        H = np.array([[0.0, 0.5], [0.5, 0.0]])
        L_off = complete_factor(pattern, L_on, H)
        assert L_off[1, 0] == pytest.approx(-0.5)
        Q = reconstruct_q(H, L_on, L_off)
        assert np.allclose(Q, np.diag([1.0, 1.25]))
        assert abs(Q[1, 0]) < 1e-15

    def test_full_pattern_no_work(self):
        pattern = full_lower(3)
        L_on = np.tril(np.ones((3, 3)))
        L_off = complete_factor(pattern, L_on, np.zeros((3, 3)))
        assert np.array_equal(L_off, np.zeros((3, 3)))

    def test_zero_shift_diagonal(self):
        pattern = diagonal(4)
        L_on = np.diag([1.0, 0.5, 2.0, 0.3])
        L_off = complete_factor(pattern, L_on, np.zeros((4, 4)))
        assert np.array_equal(L_off, np.zeros((4, 4)))

    def test_singular_pivot(self):
        # entry (3,2) divides by the zero second pivot
        pattern = diagonal(3)
        X = np.ones((3, 3))
        with pytest.raises(SingularPivotError):
            complete_factor(pattern, np.diag([1.0, 0.0, 1.0]), X - np.diag([1.0] * 3))

    def test_missing_diagonal_rejected(self):
        pattern = empty_set(2)
        with pytest.raises(PatternError):
            complete_factor(pattern, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_completion_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            pattern, L_on, H = random_instance(rng, n)
            L_off = complete_factor(pattern, L_on, H)
            Q = reconstruct_q(H, L_on, L_off)
            off = complement(pattern)
            scale = max(1.0, float(np.max(np.abs(Q))))
            if len(off):
                assert float(np.max(np.abs(vecs(off, Q)))) <= 1e-10 * scale
            # Q - H equals L L^T exactly, so its eigenvalues are the squared
            # singular values of the completed factor; check dominance there
            # (eigvalsh on the assembled product dips below zero by round-off)
            sv = np.linalg.svd(L_on + L_off, compute_uv=False)
            assert float(sv[-1]) ** 2 > 0

    def test_uniqueness_perturbation(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = 5
            pattern, L_on, H = random_instance(rng, n)
            off = complement(pattern)
            if not len(off):
                continue
            L_off = complete_factor(pattern, L_on, H)
            k = int(rng.integers(len(off)))
            i, j = off.entries[k]
            bumped = L_off.copy()
            bumped[i - 1, j - 1] += 1e-3
            Q = reconstruct_q(H, L_on, bumped)
            assert float(np.max(np.abs(vecs(off, Q)))) > 1e-8


class TestSimpleTransform:
    def test_forward_full_pattern_recovers(self):
        rng = np.random.default_rng(13)
        n = 4
        X = rng.standard_normal((n, n))
        Q0 = X @ X.T + n * np.eye(n)
        L = np.linalg.cholesky(Q0)
        x = rng.standard_normal(2)
        x_out, Q = one_block_forward(x, L, lambda b: np.zeros((n, n)),
                                     full_lower(n))
        assert np.array_equal(x_out, x)
        assert np.allclose(Q, Q0)

    def test_inverse_identity_shift(self):
        x, L = one_block_inverse(np.zeros(0), np.eye(2),
                                 lambda b: np.zeros((2, 2)), diagonal(2))
        assert np.allclose(L, np.eye(2))

    def test_inverse_hand_example(self):
        Q = np.diag([1.0, 1.25])
        H = np.array([[0.0, 0.5], [0.5, 0.0]])
        _, L = one_block_inverse(np.zeros(0), Q, lambda b: H, diagonal(2))
        assert np.allclose(L, np.eye(2))

    def test_inverse_rejects_indefinite(self):
        with pytest.raises(DomainError):
            one_block_inverse(np.zeros(0), np.diag([1.0, -1.0]),
                              lambda b: np.zeros((2, 2)), diagonal(2))

    def test_round_trips(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            pattern = random_pattern(rng, n)
            nb = int(rng.integers(0, 3))
            W = rng.standard_normal((n, n))
            Hc = 0.1 * (W + W.T)

            def H_of(b, Hc=Hc, n=n):
                scale = float(np.sum(b)) if b.size else 0.0
                return Hc + 0.1 * scale * np.eye(n)

            L = np.zeros((n, n))
            L[pattern._rows0, pattern._cols0] = rng.standard_normal(len(pattern))
            L[np.arange(n), np.arange(n)] = rng.uniform(0.2, 1.5, size=n)
            x = rng.standard_normal(nb)
            _, Q = one_block_forward(x, L, H_of, pattern)
            _, L_back = one_block_inverse(x, Q, H_of, pattern)
            assert np.allclose(L_back, L, rtol=1e-8, atol=1e-10)
            _, Q_again = one_block_forward(x, L_back, H_of, pattern)
            assert np.allclose(Q_again, Q, rtol=1e-8, atol=1e-10)

    def test_pattern_preserved(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            pattern, L_on, H = random_instance(rng, n)
            H = project_lower(pattern, H)
            H = H + H.T - np.diag(np.diag(H))
            _, Q = one_block_forward(np.zeros(0), L_on, lambda b, H=H: H,
                                     pattern)
            off = complement(pattern)
            if len(off):
                assert float(np.max(np.abs(vecs(off, Q)))) <= 1e-10 * max(
                    1.0, float(np.max(np.abs(Q))))


def toy_system(with_a=True, with_g=False):
    """Sigma is 2x2 full, H depends on beta, coupled block is 2x2 full."""
    pattern_sigma = full_lower(2)
    pattern_a = full_lower(2) if with_a else empty_set(0)

    def shift_fn(beta):
        return 0.1 * float(beta[0]) * np.eye(2)

    def psd_fn(beta, Sigma):
        return Sigma + float(beta[1]) * np.eye(2)

    def eq_fn(beta, Sigma):
        return np.array([beta[0] - beta[1]])

    return ConstraintSystem(
        n_beta=2,
        pattern_sigma=pattern_sigma,
        pattern_a=pattern_a,
        shift_fn=shift_fn,
        psd_fn=psd_fn if with_a else None,
        eq_fn=eq_fn if with_g else None,
        n_eq=1 if with_g else 0,
    )


class TestGeneralizedTransform:
    def test_trivial_scalar(self):
        system = ConstraintSystem(
            n_beta=1, pattern_sigma=diagonal(1), pattern_a=empty_set(0))
        phi = FactorPoint(np.array([3.0]), np.array([[2.0]]), np.zeros((0, 0)))
        theta, A_T = gbmz_forward(phi, system)
        assert theta.beta[0] == 3.0
        assert theta.Sigma[0, 0] == pytest.approx(4.0)
        assert A_T.shape == (0, 0)

    def test_a_block_positive_definite(self):
        rng = np.random.default_rng(16)
        system = toy_system()
        for _ in range(50):
            phi = FactorPoint(
                rng.uniform(0.1, 1.0, size=2),
                np.tril(rng.standard_normal((2, 2))) + 2 * np.eye(2),
                np.tril(rng.standard_normal((2, 2))) + 2 * np.eye(2),
            )
            _, A_T = gbmz_forward(phi, system)
            assert np.min(np.linalg.eigvalsh(A_T)) > 0

    def test_round_trip_both_orders(self):
        rng = np.random.default_rng(17)
        system = toy_system()
        for _ in range(100):
            phi = FactorPoint(
                rng.uniform(0.1, 1.0, size=2),
                np.tril(rng.standard_normal((2, 2))) + 2 * np.eye(2),
                np.tril(rng.standard_normal((2, 2))) + 2 * np.eye(2),
            )
            theta, _ = gbmz_forward(phi, system)
            # the A factor is not free: build the consistent phi first
            phi_c = gbmz_inverse(theta, system)
            theta2, _ = gbmz_forward(phi_c, system)
            assert np.allclose(theta2.beta, theta.beta)
            assert np.allclose(theta2.Sigma, theta.Sigma, rtol=1e-8, atol=1e-10)
            phi_c2 = gbmz_inverse(theta2, system)
            assert np.allclose(phi_c2.L_sigma, phi_c.L_sigma, rtol=1e-8, atol=1e-10)
            assert np.allclose(phi_c2.L_a, phi_c.L_a, rtol=1e-8, atol=1e-10)

    def test_inverse_identity_case(self):
        system = ConstraintSystem(
            n_beta=0, pattern_sigma=full_lower(2), pattern_a=full_lower(2),
            psd_fn=lambda b, S: np.eye(2))
        phi = gbmz_inverse(ThetaPoint(np.zeros(0), np.eye(2)), system)
        assert np.allclose(phi.L_sigma, np.eye(2))
        assert np.allclose(phi.L_a, np.eye(2))

    def test_inverse_boundary_rejected(self):
        system = toy_system()
        theta = ThetaPoint(np.array([10.0, 0.0]), np.eye(2))
        with pytest.raises(DomainError, match="Sigma"):
            gbmz_inverse(theta, system)

    def test_inverse_names_a_block(self):
        system = toy_system()
        theta = ThetaPoint(np.array([0.0, -10.0]), np.eye(2))
        with pytest.raises(DomainError, match="A\\("):
            gbmz_inverse(theta, system)


class TestTransformedConstraints:
    def test_empty_system(self):
        system = ConstraintSystem(
            n_beta=1, pattern_sigma=diagonal(1), pattern_a=empty_set(0))
        phi = FactorPoint(np.array([0.0]), np.array([[1.0]]), np.zeros((0, 0)))
        g_t, h_t = transformed_constraints(phi, system)
        assert g_t.size == 0 and h_t.size == 0

    def test_full_pattern_count(self):
        system = toy_system(with_g=True)
        phi = FactorPoint(np.array([0.5, 0.5]), 2 * np.eye(2), 2 * np.eye(2))
        g_t, _ = transformed_constraints(phi, system)
        assert g_t.size == 1 + 3

    def test_zero_residual_at_consistent_point(self):
        rng = np.random.default_rng(18)
        system = toy_system(with_g=True)
        for _ in range(20):
            b = float(rng.uniform(0.1, 1.0))
            beta = np.array([b, b])
            X = rng.standard_normal((2, 2))
            Sigma = X @ X.T + (1.0 + 0.1 * b) * np.eye(2)
            theta = ThetaPoint(beta, Sigma)
            phi = gbmz_inverse(theta, system)
            g_t, _ = transformed_constraints(phi, system)
            assert float(np.max(np.abs(g_t))) <= 1e-9 * max(
                1.0, float(np.max(np.abs(Sigma))))


class TestEpsilonBox:
    def test_diag_bounds(self):
        system = ConstraintSystem(
            n_beta=0, pattern_sigma=diagonal(2), pattern_a=empty_set(0))
        lb = epsilon_box(system, 1e-6)
        assert lb.tolist() == [1e-6, 1e-6]

    def test_with_a_block(self):
        system = ConstraintSystem(
            n_beta=1, pattern_sigma=diagonal(2), pattern_a=full_lower(2),
            psd_fn=lambda b, S: np.eye(2))
        lb = epsilon_box(system, 1e-6)
        assert lb.size == 1 + 2 + 3
        assert np.isneginf(lb[0])
        assert lb[1] == lb[2] == 1e-6
        # within the A factor, entries (1,1) and (2,2) are bounded
        assert lb[3] == 1e-6 and np.isneginf(lb[4]) and lb[5] == 1e-6

    def test_epsilon_positive_required(self):
        system = ConstraintSystem(
            n_beta=0, pattern_sigma=diagonal(1), pattern_a=empty_set(0))
        with pytest.raises(ValueError):
            epsilon_box(system, 0.0)


class TestPacking:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(19)
        system = toy_system()
        phi = FactorPoint(
            rng.standard_normal(2),
            np.tril(rng.standard_normal((2, 2))),
            np.tril(rng.standard_normal((2, 2))),
        )
        x = system.pack(phi)
        assert x.size == system.dim == 2 + 3 + 3
        phi2 = system.unpack(x)
        assert np.array_equal(phi2.beta, phi.beta)
        assert np.array_equal(phi2.L_sigma, phi.L_sigma)
        assert np.array_equal(phi2.L_a, phi.L_a)


class TestSigmaFactorTangents:
    @staticmethod
    def _system(pattern):
        return ConstraintSystem(n_beta=0, pattern_sigma=pattern,
                                pattern_a=empty_set(0))

    def test_matches_central_differences_of_the_completion(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 8:
            n = int(rng.integers(3, 6))
            pattern, L_on, _ = random_instance(rng, n)
            system = self._system(pattern)
            if system._sigma_trivial:
                continue
            checked += 1

            def completed(entries):
                Lp = np.zeros((n, n))
                Lp[pattern._rows0, pattern._cols0] = entries
                return Lp + complete_factor(pattern, Lp, np.zeros((n, n)))

            L, dL = sigma_factor_tangents(system, L_on)
            z = L_on[pattern._rows0, pattern._cols0]
            assert np.array_equal(L, completed(z))
            for k in range(len(pattern)):
                h = 1e-6 * max(1.0, abs(z[k]))
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                fd = (completed(zp) - completed(zm)) / (2.0 * h)
                scale = max(1.0, float(np.max(np.abs(fd))))
                assert float(np.max(np.abs(dL[k] - fd))) <= 1e-8 * scale

    def test_trivial_pattern_gives_units(self):
        pattern = direct_sum(diagonal(2), full_lower(2))
        system = self._system(pattern)
        assert system._sigma_trivial
        L_on = np.zeros((4, 4))
        L_on[pattern._rows0, pattern._cols0] = np.arange(1.0, len(pattern) + 1)
        L, dL = sigma_factor_tangents(system, L_on)
        assert np.array_equal(L, L_on)
        units = np.zeros((len(pattern), 4, 4))
        units[np.arange(len(pattern)), pattern._rows0, pattern._cols0] = 1.0
        assert np.array_equal(dL, units)

    def test_shifted_system_rejected(self):
        with pytest.raises(ValueError, match="zero shift"):
            sigma_factor_tangents(toy_system(), np.eye(2))


@st.composite
def factor_points_with_completion(draw):
    """A Sigma-only system whose completion is non-trivial (a pattern that
    makes it so, or a nonzero constant shift) and a factor point on it."""
    n = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pattern = random_pattern(rng, n)
    shifted = draw(st.booleans())
    assume(shifted or not completion_is_trivial(pattern))
    H = None
    if shifted:
        X = rng.standard_normal((n, n))
        H = 0.5 * (X + X.T) / max(1.0, float(np.linalg.norm(X, 2)))
    L = np.zeros((n, n))
    L[pattern._rows0, pattern._cols0] = rng.uniform(-1.0, 1.0, len(pattern))
    L[np.arange(n), np.arange(n)] = rng.uniform(0.5, 2.0, n)
    system = ConstraintSystem(
        n_beta=0, pattern_sigma=pattern, pattern_a=empty_set(0),
        shift_fn=None if H is None else (lambda beta: H))
    return system, FactorPoint(np.zeros(0), L, np.zeros((0, 0)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(factor_points_with_completion())
def test_inverse_undoes_forward_under_a_nontrivial_completion(case):
    system, phi = case
    theta, _ = gbmz_forward(phi, system)
    Sigma_off = theta.Sigma[~(system.pattern_sigma.mask()
                              | system.pattern_sigma.mask().T)]
    assert np.all(np.abs(Sigma_off) <= 1e-12 * np.max(np.abs(theta.Sigma)))
    back = gbmz_inverse(theta, system)
    assert np.allclose(back.L_sigma, phi.L_sigma, rtol=1e-8, atol=1e-10)
