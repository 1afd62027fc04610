import numpy as np
import pytest
from hypothesis import given, strategies as st

from ssfit.indexsets import (
    IndexSet,
    PatternError,
    complement,
    diagonal,
    direct_sum,
    empty_set,
    full_lower,
    project_lower,
    vecs,
)


def random_pattern(rng, n, require_diag=True):
    all_entries = [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]
    keep = [e for e in all_entries if (e[0] == e[1] and require_diag) or rng.random() < 0.5]
    return IndexSet(n, tuple(sorted(keep)))


class TestConstructors:
    def test_full_lower_2(self):
        assert full_lower(2).entries == ((1, 1), (2, 1), (2, 2))

    def test_full_lower_1(self):
        assert full_lower(1).entries == ((1, 1),)

    def test_full_lower_3_count(self):
        s = full_lower(3)
        assert len(s) == 6
        assert s.entries[-1] == (3, 3)

    def test_full_lower_invalid(self):
        with pytest.raises(PatternError):
            full_lower(0)

    def test_diagonal(self):
        assert diagonal(2).entries == ((1, 1), (2, 2))
        assert diagonal(1).entries == ((1, 1),)
        assert len(diagonal(4)) == 4
        with pytest.raises(PatternError):
            diagonal(0)

    def test_invalid_entries(self):
        with pytest.raises(PatternError):
            IndexSet(2, ((1, 2),))
        with pytest.raises(PatternError):
            IndexSet(2, ((2, 1), (1, 1)))
        with pytest.raises(PatternError):
            IndexSet(2, ((1, 1), (1, 1)))


class TestAlgebra:
    def test_direct_sum_diag(self):
        s = direct_sum(diagonal(1), diagonal(1))
        assert s.entries == ((1, 1), (2, 2))

    def test_direct_sum_mixed(self):
        s = direct_sum(full_lower(2), diagonal(1))
        assert s.entries == ((1, 1), (2, 1), (2, 2), (3, 3))

    def test_direct_sum_identity(self):
        s = full_lower(3)
        assert direct_sum(s, empty_set(0)) == s

    def test_complement_diag(self):
        assert complement(diagonal(2)).entries == ((2, 1),)

    def test_complement_full_is_empty(self):
        assert len(complement(full_lower(4))) == 0

    def test_complement_empty_is_full(self):
        assert complement(empty_set(2)) == full_lower(2)

    @given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
    def test_complement_involution(self, n, pyrng):
        rng = np.random.default_rng(pyrng.randint(0, 2**31))
        s = random_pattern(rng, n, require_diag=False)
        assert complement(complement(s)) == s

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    def test_direct_sum_sizes(self, n, m):
        a, b = full_lower(n), diagonal(m)
        assert len(direct_sum(a, b)) == len(a) + len(b)
        assert len(a) + len(complement(a)) == n * (n + 1) // 2

    def test_sortedness_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = random_pattern(rng, 6)
            t = direct_sum(s, complement(s))
            assert list(t.entries) == sorted(t.entries)


class TestVecsProject:
    def test_vecs_diag(self):
        S = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert vecs(diagonal(2), S).tolist() == [1.0, 3.0]

    def test_vecs_full(self):
        S = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert vecs(full_lower(2), S).tolist() == [1.0, 2.0, 3.0]

    def test_vecs_empty(self):
        assert vecs(empty_set(2), np.zeros((2, 2))).size == 0

    def test_vecs_asymmetric_rejected(self):
        with pytest.raises(PatternError):
            vecs(diagonal(2), np.array([[1.0, 2.0], [0.0, 3.0]]))

    def test_vecs_dim_mismatch(self):
        with pytest.raises(PatternError):
            vecs(diagonal(3), np.eye(2))

    def test_project_lower_diag(self):
        M = np.array([[1.0, 0.0], [5.0, 2.0]])
        assert np.array_equal(project_lower(diagonal(2), M), np.diag([1.0, 2.0]))

    def test_project_lower_identity_on_pattern(self):
        M = np.tril(np.arange(9.0).reshape(3, 3) + 1)
        assert np.array_equal(project_lower(full_lower(3), M), M)
