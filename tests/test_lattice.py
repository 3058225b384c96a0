"""Tests for the real-lattice machinery.

Oracle values: the Alamouti generator/Gram/volume figures and the hexagonal
Gram matrix were computed by hand from the interleaving isometry; box minima
were independently brute-forced before being frozen here.
"""

import itertools
import json
import math

import numpy as np
import pytest

from stlattice import lattice
from stlattice.lattice import (
    WeightBasis,
    generator_matrix,
    lattice_profile,
    min_rank_difference,
    min_rank_sampled,
    profile_from_generator,
    unvectorize,
    vectorize,
)

I2 = np.eye(2)
ALAMOUTI_MATS = [
    np.eye(2),
    np.diag([1j, -1j]),
    np.array([[0, -1], [1, 0]], dtype=complex),
    np.array([[0, 1j], [1j, 0]]),
]


def alamouti_basis():
    return WeightBasis("alamouti", ALAMOUTI_MATS)


class TestVectorize:
    def test_identity(self):
        assert np.array_equal(vectorize(I2), [1, 0, 0, 0, 0, 0, 1, 0])

    def test_antisymmetric_basis_matrix(self):
        B3 = np.array([[0, -1], [1, 0]], dtype=complex)
        assert np.array_equal(vectorize(B3), [0, 0, 1, 0, -1, 0, 0, 0])

    def test_isometry_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rows, cols = rng.integers(1, 5, size=2)
            U = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            assert np.linalg.norm(vectorize(U)) == pytest.approx(
                np.linalg.norm(U, "fro"), rel=1e-12
            )

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        U = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        assert np.allclose(unvectorize(vectorize(U), 3, 2), U)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            vectorize(np.array([[np.nan, 0], [0, 0]]))


class TestWeightBasis:
    def test_dimensions(self):
        b = alamouti_basis()
        assert (b.n_t, b.T, b.k) == (2, 2, 4)

    def test_rejects_dependent_matrices(self):
        with pytest.raises(ValueError, match="dependent"):
            WeightBasis("bad", [I2, 2 * I2])

    def test_rejects_too_many_matrices(self):
        mats = [np.zeros((1, 1), dtype=complex) for _ in range(3)]
        mats[0][0, 0] = 1
        mats[1][0, 0] = 1j
        mats[2][0, 0] = 1 + 1j
        with pytest.raises(ValueError):
            WeightBasis("bad", mats)

    def test_combination(self):
        b = alamouti_basis()
        X = b.combination([1, 2, 3, 4])
        expected = np.array([[1 + 2j, -3 + 4j], [3 + 4j, 1 - 2j]])
        assert np.allclose(X, expected)

    def test_json_round_trip(self):
        b = alamouti_basis()
        data = json.loads(b.to_json())
        assert data["nt"] == 2 and data["T"] == 2 and data["k"] == 4
        again = WeightBasis.from_json(b.to_json())
        for m1, m2 in zip(b.mats, again.mats):
            assert np.array_equal(m1, m2)

    def test_json_rejects_mismatched_counts(self):
        data = alamouti_basis().to_json_dict()
        data["k"] = 3
        with pytest.raises(ValueError):
            WeightBasis.from_json_dict(data)


class TestLatticeProfile:
    def test_alamouti_gram_and_volume(self):
        prof = lattice_profile(alamouti_basis(), det_search_bound=0)
        assert np.allclose(prof.gram, 2 * np.eye(4), atol=1e-12)
        assert prof.volume == pytest.approx(4.0, abs=1e-9)

    def test_alamouti_generator_columns(self):
        gen = generator_matrix(alamouti_basis())
        assert gen.shape == (8, 4)
        assert np.array_equal(gen[:, 2], [0, 0, 1, 0, -1, 0, 0, 0])

    def test_hexagonal_lattice(self):
        gen = np.array([[1.0, -0.5], [0.0, np.sqrt(3) / 2]])
        prof = profile_from_generator(gen)
        assert np.allclose(prof.gram, [[1, -0.5], [-0.5, 1]], atol=1e-12)
        assert float(np.linalg.det(prof.gram)) == pytest.approx(0.75, abs=1e-12)
        assert prof.volume == pytest.approx(np.sqrt(3) / 2, abs=1e-12)

    def test_alamouti_min_det(self):
        prof = lattice_profile(alamouti_basis(), det_search_bound=2)
        assert prof.min_det_est == pytest.approx(1.0, abs=1e-9)
        # delta = 1 / 4^(1/4) = 1/sqrt(2); eta = 1 / 4
        assert prof.delta == pytest.approx(1 / np.sqrt(2), rel=1e-9)
        assert prof.eta == pytest.approx(0.25, rel=1e-9)

    def test_delta_eta_identity(self):
        prof = lattice_profile(alamouti_basis(), det_search_bound=2)
        n = 2
        assert prof.delta**2 == pytest.approx(prof.eta ** (1.0 / n), rel=1e-9)

    def test_min_det_non_increasing_in_bound(self):
        b = alamouti_basis()
        vals = [
            lattice_profile(b, det_search_bound=bound).min_det_est
            for bound in (1, 2, 3)
        ]
        assert vals[0] >= vals[1] >= vals[2]
        assert vals[2] == pytest.approx(1.0, abs=1e-9)

    def test_volume_unimodular_invariance(self):
        rng = np.random.default_rng(3)
        b = alamouti_basis()
        vol = lattice_profile(b, det_search_bound=0).volume
        # random integer matrix with determinant +-1, built from elementary ops
        U = np.eye(4, dtype=int)
        for _ in range(20):
            i, j = rng.integers(0, 4, size=2)
            if i != j:
                U[i] += int(rng.integers(-2, 3)) * U[j]
        assert abs(round(np.linalg.det(U))) == 1
        mats = [sum(int(U[i, j]) * b.mats[j] for j in range(4)) for i in range(4)]
        vol2 = lattice_profile(WeightBasis("alamouti-u", mats), det_search_bound=0).volume
        assert vol2 == pytest.approx(vol, rel=1e-9)

    def test_nonsquare_has_no_det_fields(self):
        mats = [np.array([[1, 0, 0], [0, 1, 0]], dtype=complex),
                np.array([[1j, 0, 0], [0, 1j, 0]])]
        prof = lattice_profile(WeightBasis("wide", mats))
        assert prof.min_det_est is None and prof.delta is None and prof.eta is None

    def test_box_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            lattice_profile(alamouti_basis(), det_search_bound=2, max_candidates=10)


class TestMinRank:
    def test_alamouti_full_diversity(self):
        assert min_rank_difference(alamouti_basis(), search_bound=1) == 2

    def test_rank_one_member(self):
        b = WeightBasis("diag-units", [np.diag([1.0 + 0j, 0]), np.diag([0, 1.0 + 0j])])
        assert min_rank_difference(b, search_bound=1) == 1
        assert min_rank_sampled(b, search_bound=1, max_nonzeros=1, n_random=0) == 1

    def test_sampled_matches_exact_on_small_code(self):
        b = alamouti_basis()
        assert min_rank_sampled(b, search_bound=1, max_nonzeros=2, n_random=1000) == 2

    def test_vacuous_searches_are_rejected(self):
        # A bound-0 box holds no nonzero vector; returning min(n_t, T) would
        # certify full diversity for a code whose minimum rank is 1.
        b = WeightBasis("diag-units", [np.diag([1.0 + 0j, 0]), np.diag([0, 1.0 + 0j])])
        with pytest.raises(ValueError, match="no coefficient vector"):
            min_rank_difference(b, search_bound=0)
        with pytest.raises(ValueError, match="no coefficient vector"):
            min_rank_sampled(b, search_bound=0)
        with pytest.raises(ValueError, match="no coefficient vector"):
            min_rank_sampled(b, search_bound=1, max_nonzeros=0, n_random=0)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
    def test_zero_codeword_has_rank_zero(self, shape):
        # a dependent basis (as loaded from JSON) has a nonzero z with a zero
        # codeword; square and wide stacks must both report rank 0
        b = WeightBasis("dup", [np.eye(*shape), np.eye(*shape)], allow_dependent=True)
        assert min_rank_difference(b, search_bound=1) == 0
        assert min_rank_sampled(b, search_bound=1, max_nonzeros=2, n_random=0) == 0

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            min_rank_difference(alamouti_basis(), search_bound=-1)
        with pytest.raises(ValueError, match="nonnegative"):
            min_rank_sampled(alamouti_basis(), search_bound=-1)


def _small_integer_basis(rng, n_t, T, k):
    """Random independent basis with sparse Gaussian-integer entries, so
    that rank drops and exact determinant values occur in small boxes."""
    while True:
        re, im = rng.choice([-1, 0, 0, 1], size=(2, k, n_t, T))
        mats = re + 1j * im
        try:
            return WeightBasis("small", list(mats))
        except ValueError:
            continue


def _brute_force(basis, bound):
    """(min |det|^2 or None, min rank) over every nonzero z in the box."""
    min_det, min_rank = np.inf, min(basis.n_t, basis.T)
    for z in itertools.product(range(-bound, bound + 1), repeat=basis.k):
        if any(z):
            X = basis.combination(z)
            if basis.n_t == basis.T:
                min_det = min(min_det, abs(np.linalg.det(X)) ** 2)
            min_rank = min(min_rank, int(np.linalg.matrix_rank(X)))
    return (min_det if basis.n_t == basis.T else None), min_rank


class TestCoefficientEngine:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 3), (2, 4)])
    @pytest.mark.parametrize("bound", [1, 2])
    def test_box_searches_match_brute_force(self, shape, bound):
        rng = np.random.default_rng(100 * shape[0] + 10 * shape[1] + bound)
        for k in range(1, 5):
            if k > 2 * shape[0] * shape[1]:
                continue
            b = _small_integer_basis(rng, *shape, k)
            min_det, min_rank = _brute_force(b, bound)
            assert min_rank_difference(b, search_bound=bound) == min_rank
            # exhausting every support makes the sampled search exact
            assert min_rank_sampled(b, bound, max_nonzeros=k, n_random=0) == min_rank
            prof = lattice_profile(b, det_search_bound=bound)
            if min_det is None:
                assert prof.min_det_est is None
            else:
                assert prof.min_det_est == pytest.approx(min_det, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("bound", [1, 2])
    def test_box_holds_one_of_each_antipodal_pair(self, k, bound):
        rows = np.concatenate(list(lattice._coefficient_box(k, bound, 10**6)))
        got = {tuple(int(v) for v in z) for z in rows}
        assert len(got) == len(rows) == ((2 * bound + 1) ** k - 1) // 2
        full = set(itertools.product(range(-bound, bound + 1), repeat=k)) - {(0,) * k}
        assert got | {tuple(-v for v in z) for z in got} == full

    @pytest.mark.parametrize("k,bound,max_nonzeros", [(4, 1, 4), (5, 2, 3), (3, 3, 2)])
    def test_sparse_box_holds_one_of_each_antipodal_pair(self, monkeypatch, k, bound, max_nonzeros):
        # a tiny chunk exercises both the value split and the support split
        monkeypatch.setattr(lattice, "_CHUNK", 7)
        chunks = list(lattice._sparse_box(k, bound, max_nonzeros))
        assert all(0 < len(c) <= 7 for c in chunks)
        rows = np.concatenate(chunks)
        got = {tuple(int(v) for v in z) for z in rows}
        expected = sum(
            math.comb(k, m) * (2 * bound) ** m // 2 for m in range(1, max_nonzeros + 1)
        )
        assert len(got) == len(rows) == expected
        for z in got:
            nonzero = [v for v in z if v]
            assert 1 <= len(nonzero) <= max_nonzeros and nonzero[0] > 0
            assert max(abs(v) for v in z) <= bound
