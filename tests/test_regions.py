import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ssfit.identify import EigConstraintSpec
from ssfit.io import parse_region
from ssfit.regions import (
    LmiRegion,
    band,
    block_diag,
    char_fn,
    cone,
    contains,
    disk,
    eig_membership,
    half_plane,
    intersect,
    left_half_plane,
    matrix_char_fn,
    require_pd_weight,
    require_sound_shift,
)
from test_oracle import spectrum_matrix


class TestCharFn:
    def test_half_plane_at_one(self):
        F = char_fn(half_plane(0.0), 1.0)
        assert F.shape == (1, 1)
        assert F[0, 0] == pytest.approx(2.0)

    def test_disk_at_zero(self):
        assert np.allclose(char_fn(disk(1.0, 0.0), 0.0), np.eye(2))

    def test_cone_at_i(self):
        F = char_fn(cone(1.0, 0.0), 1j)
        expected = np.array([[0.0, 2.0j], [-2.0j, 0.0]])
        assert np.allclose(F, expected)

    def test_hermitian_exactly(self):
        rng = np.random.default_rng(0)
        for region in (half_plane(0.3), disk(0.9, 0.1), cone(2.0, -0.5), band(1.5)):
            for _ in range(50):
                z = complex(rng.standard_normal(), rng.standard_normal())
                F = char_fn(region, z)
                assert np.array_equal(F, F.conj().T)


class TestPresets:
    def test_half_plane_generators(self):
        r = half_plane(0.3)
        assert np.allclose(r.m0, [[-0.6]])
        assert np.allclose(r.m1, [[1.0]])

    def test_disk_generators(self):
        r = disk(0.998, 0.0)
        assert np.allclose(r.m0, [[0.998, 0.0], [0.0, 0.998]])
        assert np.allclose(r.m1, [[0.0, 1.0], [0.0, 0.0]])

    def test_band_generators(self):
        assert np.allclose(band(2.0).m0, 4.0 * np.eye(2))
        assert contains(band(2.0), 1.5j) and not contains(band(2.0), 2.5j)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            disk(0.0, 0.0)
        with pytest.raises(ValueError):
            cone(-1.0, 0.0)
        with pytest.raises(ValueError):
            band(0.0)


class TestContains:
    def test_half_plane_interior(self):
        assert contains(half_plane(0.0), 1.0)

    def test_half_plane_boundary_strict(self):
        assert not contains(half_plane(0.0), 0.0)

    def test_disk_outside(self):
        assert not contains(disk(0.998, 0.0), 1.0)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        regions = [half_plane(-0.2), disk(1.5, 0.3), cone(0.7, 0.0), band(0.8)]
        for region in regions:
            for _ in range(100):
                z = complex(*rng.standard_normal(2))
                assert contains(region, z) == contains(region, np.conj(z))


class TestIntersect:
    def test_dimensions(self):
        r = intersect(half_plane(0.3), disk(0.998, 0.0))
        assert r.m == 3

    def test_membership_example(self):
        r = intersect(half_plane(0.3), disk(0.998, 0.0))
        assert contains(r, 0.5)

    def test_self_intersection_semantics(self):
        r0 = disk(0.9, 0.1)
        r = intersect(r0, r0)
        rng = np.random.default_rng(4)
        for _ in range(200):
            z = complex(*(2.0 * rng.standard_normal(2)))
            assert contains(r, z) == contains(r0, z)

    def test_conjunction_on_random_points(self):
        r1, r2 = half_plane(0.1), disk(1.2, 0.0)
        r = intersect(r1, r2)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            z = complex(*(2.0 * rng.standard_normal(2)))
            assert contains(r, z) == (contains(r1, z) and contains(r2, z))


class TestBlockDiag:
    def test_blocks_on_the_diagonal_zeros_elsewhere(self):
        a, b = np.arange(4.0).reshape(2, 2), np.array([[7.0]])
        assert np.array_equal(block_diag(a, b), [[0.0, 1.0, 0.0],
                                                  [2.0, 3.0, 0.0],
                                                  [0.0, 0.0, 7.0]])

    def test_stacks_broadcast_item_by_item(self):
        rng = np.random.default_rng(6)
        stack = rng.standard_normal((4, 3, 2, 2))
        fixed = rng.standard_normal((3, 3))
        row = rng.standard_normal((3, 1, 1))
        out = block_diag(stack, fixed, row)
        assert out.shape == (4, 3, 6, 6)
        for i in range(4):
            for j in range(3):
                assert np.array_equal(
                    out[i, j], block_diag(stack[i, j], fixed, row[j]))


class TestEquality:
    """Regions compare by value: generating matrices, kind and label."""

    def test_equal_regions_compare_equal(self):
        assert disk(1.0, 0.0) == disk(1.0, 0.0)
        assert not disk(1.0, 0.0) != disk(1.0, 0.0)
        assert cone(1.0, 0.1) == LmiRegion(cone(1.0, 0.1).m0,
                                           cone(1.0, 0.1).m1, "cone",
                                           "cone(1.0, 0.1)")

    @pytest.mark.parametrize("other", [
        disk(1.0, 0.1), disk(0.9, 0.0), cone(1.0, 0.0),
        LmiRegion(disk(1.0, 0.0).m0, disk(1.0, 0.0).m1),
        intersect(disk(1.0, 0.0), disk(1.0, 0.0)), "disk(1.0, 0.0)"])
    def test_another_parameter_differs(self, other):
        assert disk(1.0, 0.0) != other
        assert not disk(1.0, 0.0) == other

    def test_parsed_text_equals_its_constructor(self):
        built = intersect(half_plane(0.3), disk(0.998, 0.0))
        assert parse_region("intersect(half_plane 0.3, disk 0.998 0)") \
            == built
        assert parse_region("intersect(half_plane 0.3, disk 0.9 0)") != built

    def test_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(disk(1.0, 0.0))

    def test_constraint_specs_with_default_weight_and_shift(self):
        assert EigConstraintSpec(disk(0.95, 0.0), "filter", 0.05) \
            == EigConstraintSpec(disk(0.95, 0.0), "filter", 0.05)
        assert EigConstraintSpec(disk(0.95, 0.0), "filter", 0.05) \
            != EigConstraintSpec(disk(0.9, 0.0), "filter", 0.05)


class TestMatrixCharFn:
    def test_disk_scalar(self):
        M = matrix_char_fn(disk(1.0, 0.0), np.array([[0.0]]), np.array([[1.0]]))
        assert np.allclose(M, np.eye(2))

    def test_half_plane_scalar(self):
        M = matrix_char_fn(half_plane(0.0), np.array([[1.0]]), np.array([[2.0]]))
        assert np.allclose(M, [[4.0]])

    def test_disk_block_structure(self):
        rng = np.random.default_rng(6)
        n = 4
        A = rng.standard_normal((n, n))
        X = rng.standard_normal((n, n))
        P = X @ X.T + n * np.eye(n)
        M = matrix_char_fn(disk(1.0, 0.0), A, P)
        AP = A @ P
        expected = np.block([[P, AP], [AP.T, P]])
        assert np.allclose(M, expected)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for region in (half_plane(0.0), disk(2.0, -1.0), cone(1.0, 0.2)):
            A = rng.standard_normal((3, 3))
            X = rng.standard_normal((3, 3))
            P = 0.5 * (X + X.T)
            M = matrix_char_fn(region, A, P)
            assert np.allclose(M, M.T, atol=1e-14)

    def test_scalar_consistency(self):
        rng = np.random.default_rng(8)
        for region in (half_plane(-0.3), disk(1.0, 0.0), cone(0.8, 0.0), band(1.0)):
            for _ in range(20):
                a = float(rng.standard_normal())
                p = float(rng.uniform(0.1, 3.0))
                M = matrix_char_fn(region, np.array([[a]]), np.array([[p]]))
                assert np.allclose(M, p * char_fn(region, a).real)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            matrix_char_fn(disk(1.0, 0.0), np.eye(2), np.eye(3))

    @pytest.mark.parametrize("region", [
        half_plane(0.3), left_half_plane(-0.2), disk(0.9, 0.1),
        cone(1.5, -0.2), band(0.7),
        intersect(half_plane(0.3), disk(0.998, 0.0), cone(1.0, 0.0)),
        LmiRegion(np.array([[1.0, 0.3], [0.3, -2.0]]),
                  np.array([[0.5, -1.2], [0.7, 2.0]])),
    ], ids=lambda r: r.kind)
    def test_bit_identical_to_kronecker_form(self, region):
        rng = np.random.default_rng(9)
        for n in range(1, 5):
            A = rng.standard_normal((n, n))
            X = rng.standard_normal((n, n))
            for P in (X @ X.T, X):
                AP = A @ P
                kron = np.kron(region.m0, P) + np.kron(region.m1, AP) \
                    + np.kron(region.m1.T, AP.T)
                assert np.array_equal(matrix_char_fn(region, A, P), kron)

    @pytest.mark.parametrize("region", [
        half_plane(0.3), disk(0.9, 0.1),
        intersect(half_plane(0.3), disk(0.998, 0.0)),
    ], ids=["m=1", "m=2", "m=3"])
    def test_stack_is_the_per_item_value(self, region):
        rng = np.random.default_rng(region.m)
        for n in (1, 2, 4):
            A = rng.standard_normal((3, 2, n + 1, n + 1))
            X = rng.standard_normal((2, n, n))
            P = X @ X.swapaxes(1, 2)
            # leading blocks of larger matrices, as the plant-block target
            # and the Lyapunov blocks of Sigma are
            A = A[..., :n, :n]
            M = matrix_char_fn(region, A, P)
            nm = n * region.m
            assert M.shape == (3, 2, nm, nm)
            for i in range(3):
                for j in range(2):
                    assert np.array_equal(
                        M[i, j], matrix_char_fn(region, A[i, j], P[j]))
            # one operand fixed, the other stacked
            assert np.array_equal(matrix_char_fn(region, A[1, 0], P)[1],
                                  matrix_char_fn(region, A[1, 0], P[1]))
            assert np.array_equal(matrix_char_fn(region, A[:, 1], P[0])[2],
                                  matrix_char_fn(region, A[2, 1], P[0]))

    def test_stack_shape_mismatch(self):
        with pytest.raises(ValueError, match="square"):
            matrix_char_fn(disk(1.0, 0.0), np.zeros((2, 3, 2)), np.eye(2))
        with pytest.raises(ValueError, match="does not match"):
            matrix_char_fn(disk(1.0, 0.0), np.zeros((2, 3, 3)), np.eye(2))


class TestEigMembership:
    def test_diagonal_inside_disk(self):
        assert eig_membership(disk(1.0, 0.0), np.diag([0.5, -0.2]))

    def test_jordan_block_on_left_half_plane_boundary(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not eig_membership(left_half_plane(0.0), A)

    def test_scalar_boundary(self):
        assert not eig_membership(half_plane(0.3), np.array([[0.3]]))


def spectral_margin(region, A):
    """Smallest eigenvalue of ``f(lambda)`` over the spectrum of ``A``:
    positive exactly when every eigenvalue lies in the open region."""
    return float(np.linalg.eigvalsh(char_fn(region, np.linalg.eigvals(A))).min())


class TestMembershipMargin:
    @pytest.mark.parametrize("region", [
        half_plane(0.3), half_plane(-0.2), left_half_plane(0.0),
        disk(0.998, 0.0), disk(0.9, 0.1), disk(1.5, 0.3), cone(1.0, 0.0),
        cone(0.7, 0.0), band(0.8), intersect(half_plane(0.3), disk(0.998, 0.0)),
        intersect(half_plane(0.1), disk(1.2, 0.0)),
    ])
    def test_positive_margin_is_membership(self, region):
        rng = np.random.default_rng(6)
        for _ in range(60):
            A = rng.standard_normal((3, 3))
            margin = spectral_margin(region, A)
            if abs(margin) < 1e-6:
                continue  # the direct check's cushion decides on the boundary
            assert (margin > 0) == eig_membership(region, A)

    def test_examples(self):
        assert spectral_margin(half_plane(0.0), np.array([[0.5]])) \
            == pytest.approx(1.0)
        assert eig_membership(half_plane(0.0), np.array([[0.5]]))
        assert spectral_margin(disk(1.0, 0.0), np.diag([0.5, -0.2])) \
            == pytest.approx(0.5)
        assert eig_membership(disk(1.0, 0.0), np.diag([0.5, -0.2]))
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert spectral_margin(left_half_plane(0.0), A) == 0.0
        assert not eig_membership(left_half_plane(0.0), A)


def tightened_residuals(region, shift, weight, epsilon, A, P):
    """Residuals of the tightened system ``M_D(A, P) >= M``, ``P >= 0``,
    ``tr(VP) <= 1/epsilon``: feasible when the two matrices are positive
    semidefinite and the scalar is nonnegative."""
    return (matrix_char_fn(region, A, P) - shift, P,
            1.0 / epsilon - float(np.trace(weight @ P)))


class TestTightened:
    def test_residual_example(self):
        m_res, p_res, slack = tightened_residuals(
            half_plane(0.0), np.array([[0.1]]), np.array([[1.0]]), 0.5,
            np.array([[1.0]]), np.array([[1.0]]))
        assert m_res[0, 0] == pytest.approx(1.9)
        assert p_res[0, 0] == pytest.approx(1.0)
        assert slack == pytest.approx(1.0)

    def test_zero_p_infeasible(self):
        m_res, _, _ = tightened_residuals(
            disk(1.0, 0.0), 0.1 * np.eye(2), np.eye(1), 1.0,
            np.array([[0.5]]), np.array([[0.0]]))
        assert np.allclose(m_res, -0.1 * np.eye(2))

    def test_satisfied_residuals_imply_membership(self):
        # random A with spectrum inside the disk, P from a feasibility-style
        # construction; when all three residuals check out, the direct
        # spectral test must agree
        rng = np.random.default_rng(9)
        region = disk(1.0, 0.0)
        hits = 0
        for _ in range(100):
            n = 3
            V = rng.standard_normal((n, n))
            lam = rng.uniform(-0.8, 0.8, size=n)
            A = V @ np.diag(lam) @ np.linalg.inv(V)
            X = rng.standard_normal((n, n))
            P = X @ X.T + 0.5 * np.eye(n)
            m_res, p_res, slack = tightened_residuals(
                region, 1e-6 * np.eye(2 * n), np.eye(n), 1e-4, A, P)
            if (np.min(np.linalg.eigvalsh(m_res)) >= 0
                    and np.min(np.linalg.eigvalsh(p_res)) >= 0 and slack >= 0):
                hits += 1
                assert eig_membership(region, A)
        assert hits > 5

    def test_definiteness_propagation(self):
        # feasible tightened residuals with a definite shift force P and the
        # characteristic block to be definite
        rng = np.random.default_rng(10)
        region = half_plane(0.1)
        for _ in range(200):
            A = np.diag(rng.uniform(0.3, 1.5, size=3))
            X = rng.standard_normal((3, 3))
            P = X @ X.T + 0.2 * np.eye(3)
            m_res, p_res, slack = tightened_residuals(
                region, 0.01 * np.eye(3), np.eye(3), 1e-3, A, P)
            if (np.min(np.linalg.eigvalsh(m_res)) >= 0
                    and np.min(np.linalg.eigvalsh(p_res)) >= 0 and slack >= 0):
                assert np.min(np.linalg.eigvalsh(P)) > 0
                assert np.min(np.linalg.eigvalsh(
                    matrix_char_fn(region, A, P))) > 0

    def test_shift_validation(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            require_sound_shift(half_plane(0.0), -0.1 * np.eye(1))
        with pytest.raises(ValueError, match="positive definite"):
            require_pd_weight(np.diag([1.0, 0.0]))
        # general semidefinite shifts are rejected outside the disk form
        M = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="disk corner-block"):
            require_sound_shift(band(1.0), M)
        # the disk corner-block form is the documented exception
        corner = np.zeros((2, 2))
        corner[0, 0] = 1.0
        require_sound_shift(disk(1.0, 0.0), corner)
        require_pd_weight(np.eye(1))


# region builders over three parameters in [0, 1], each with its signed
# distance of a point z from the boundary: positive inside, and for a point
# outside a lower bound on its distance from the region (exact for all but
# the cone, whose outside value is the distance to its boundary lines)
def _cone_distance(s, x0, z):
    return (s * (z.real - x0) - abs(z.imag)) / np.hypot(1.0, s)


REGION_DISTANCES = {
    "half_plane": lambda a, b, c: (half_plane(a - 0.5),
                                   lambda z: z.real - (a - 0.5)),
    "left_half_plane": lambda a, b, c: (left_half_plane(a - 0.5),
                                        lambda z: (a - 0.5) - z.real),
    "disk": lambda a, b, c: (disk(0.3 + a, b - 0.5),
                             lambda z: 0.3 + a - abs(z - (b - 0.5))),
    "cone": lambda a, b, c: (cone(0.3 + 2.0 * a, b - 0.5),
                             lambda z: _cone_distance(0.3 + 2.0 * a, b - 0.5,
                                                      z)),
    "band": lambda a, b, c: (band(0.2 + a), lambda z: 0.2 + a - abs(z.imag)),
    "intersect": lambda a, b, c: (
        intersect(half_plane(a - 0.5), disk(0.5 + b, 0.0), band(0.3 + c)),
        lambda z: min(z.real - (a - 0.5), 0.5 + b - abs(z), 0.3 + c
                      - abs(z.imag))),
}


def regions_with_distance(kind):
    unit = st.floats(0.0, 1.0)
    return st.builds(REGION_DISTANCES[kind], unit, unit, unit)


@pytest.mark.parametrize("kind", sorted(REGION_DISTANCES))
@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), k=st.integers(1, 3),
       seed=st.integers(0, 2**16), a=st.floats(-3.0, 3.0),
       b=st.floats(-3.0, 3.0))
def test_matrix_char_fn_is_linear_and_stacks(kind, data, n, k, seed, a, b):
    region, _ = data.draw(regions_with_distance(kind))
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((k, n, n))
    X = rng.standard_normal((2, k, n, n))
    P1, P2 = X + X.swapaxes(-1, -2)
    M1, M2 = matrix_char_fn(region, A, P1), matrix_char_fn(region, A, P2)
    M = matrix_char_fn(region, A, a * P1 + b * P2)
    scale = max(1.0, float(np.max(np.abs(a * M1))),
                float(np.max(np.abs(b * M2))))
    assert np.allclose(M, a * M1 + b * M2, rtol=0.0, atol=1e-12 * scale)
    for i in range(k):
        assert np.array_equal(M1[i], matrix_char_fn(region, A[i], P1[i]))
        # one A against a stack of P broadcasts to the same values
        assert np.array_equal(matrix_char_fn(region, A[0], P1)[i],
                              matrix_char_fn(region, A[0], P1[i]))


MARGIN = 0.05


@pytest.mark.parametrize("kind", sorted(REGION_DISTANCES))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16),
       points=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(0.0, 1.5)),
                       min_size=1, max_size=3))
def test_positive_margin_iff_membership_off_the_boundary(kind, data, seed,
                                                         points):
    # a real matrix with the drawn spectrum (an imaginary part below 0.05
    # reads as a real eigenvalue), each eigenvalue at least MARGIN from
    # the boundary
    region, distance = data.draw(regions_with_distance(kind))
    eigs = [complex(re, im if im >= 0.05 else 0.0) for re, im in points]
    assume(all(abs(distance(z)) >= MARGIN for z in eigs))
    A = spectrum_matrix(np.random.default_rng(seed),
                        [z.real for z in eigs if not z.imag],
                        [z for z in eigs if z.imag])
    inside = all(distance(z) > 0 for z in eigs)
    assert (spectral_margin(region, A) > 0) == inside
    assert eig_membership(region, A) == inside


@pytest.mark.parametrize("m0, m1, message", [
    (np.eye(2), np.eye(1),
     "generating matrices must be square and matched, got (2, 2) and (1, 1)"),
    (np.zeros((0, 0)), np.zeros((0, 0)), "block dimension must be at least 1"),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2),
     "m0 must be exactly symmetric"),
], ids=["mismatched", "empty", "m0-not-symmetric"])
def test_lmi_region_rejects_malformed_generators(m0, m1, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        LmiRegion(m0, m1)
