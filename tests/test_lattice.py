"""Tests for the real-lattice machinery.

Oracle values: the Alamouti generator/Gram/volume figures and the hexagonal
Gram matrix were computed by hand from the interleaving isometry; box minima
were independently brute-forced before being frozen here.
"""

import copy
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stlattice import decodability, lattice, simulate
from stlattice.algebra import golden_algebra
from stlattice.codebook import REGISTRY, build
from stlattice.lattice import (
    WeightBasis,
    generator_matrix,
    lattice_profile,
    min_rank_difference,
    min_rank_sampled,
    profile_from_generator,
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


@st.composite
def finite_matrices(draw):
    """Complex matrices up to 4x4 over all finite doubles, signed zeros too."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts).view(complex).reshape(rows, cols)


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

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            vectorize(np.array([[np.nan, 0], [0, 0]]))

    def test_rejects_a_stack(self):
        with pytest.raises(ValueError, match="expects a matrix"):
            vectorize(np.zeros((2, 2, 2)))

    @given(finite_matrices())
    def test_round_trip_keeps_every_bit(self, U):
        # read back as (Re, Im) pairs, column by column: signed zeros survive
        back = vectorize(U).view(complex).reshape(U.shape[::-1]).T
        assert back.shape == U.shape and back.tobytes() == U.tobytes()


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

    @pytest.mark.parametrize(
        "mats, match",
        [
            ([], "at least one matrix"),
            ([np.ones(2)], "2-D"),
            ([I2, np.ones((2, 3))], "share one shape"),
            ([I2, np.diag([1.0, np.nan])], "finite"),
        ],
        ids=["none", "one_d", "mixed_shapes", "nan"],
    )
    def test_rejects_malformed_matrices(self, mats, match):
        with pytest.raises(ValueError, match=match):
            WeightBasis("bad", mats)

    def test_combination_rejects_a_wrong_length(self):
        with pytest.raises(ValueError, match="expected 4 coefficients"):
            alamouti_basis().combination([1, 2, 3])

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    @pytest.mark.blas_bits
    def test_combination_is_the_one_row_codeword(self, name):
        # One codeword builder: combination is _codewords on one row, bit
        # for bit, under any kernel.
        b = build(name)
        rng = np.random.default_rng(23)
        for s in rng.choice([-3.0, -1.0, 1.0, 3.0], size=(50, b.k)):
            want = lattice._codewords(b.mats, s[None])[0]
            assert b.combination(s).tobytes() == want.tobytes()
            assert b.combination(s.astype(int)).tobytes() == want.tobytes()

    def test_json_round_trip(self):
        b = alamouti_basis()
        data = json.loads(b.to_json())
        assert data["nt"] == 2 and data["T"] == 2 and data["k"] == 4
        again = WeightBasis.from_json(b.to_json())
        for m1, m2 in zip(b.mats, again.mats):
            assert np.array_equal(m1, m2)

    def test_small_weights_build(self):
        # the rank test is relative: golden's weights at 2^-35 are as
        # independent as at scale 1
        golden = build("golden")
        small = WeightBasis("golden-small", [m * 2.0**-35 for m in golden.mats])
        assert small.rank == golden.rank == golden.k

    @pytest.mark.parametrize("e", [-40, 0, 40])
    def test_dependent_basis_rejected_at_any_scale(self, e):
        g = build("golden").mats
        for mats in ([I2, 2 * I2], [g[0], g[1], g[0] + g[1]]):
            with pytest.raises(ValueError, match="dependent"):
                WeightBasis("bad", [m * 2.0**e for m in mats])

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_json_round_trip_keeps_every_bit(self, name):
        b = build(name)
        assert WeightBasis.from_json(b.to_json()).mats.tobytes() == b.mats.tobytes()

    @pytest.mark.parametrize("name", [*sorted(REGISTRY), "signed-zeros"])
    def test_json_is_the_per_entry_serialization(self, name):
        if name in REGISTRY:
            b = build(name)
        else:
            # rows (-0 + i, -0 - 0i) and (2 - 0i, -0 - 0i): every zero keeps its sign
            parts = np.array([[-0.0, 1.0, -0.0, -0.0], [2.0, -0.0, -0.0, -0.0]])
            b = WeightBasis(name, [parts.view(complex), I2])
            assert "-0.0" in b.to_json()
        per_entry = {
            "name": b.name,
            "nt": b.n_t,
            "T": b.T,
            "k": b.k,
            "mats": [
                [[[float(z.real), float(z.imag)] for z in row] for row in m] for m in b.mats
            ],
        }
        assert b.to_json() == json.dumps(per_entry)

    def test_mats_is_one_read_only_array(self):
        given = [m.copy() for m in ALAMOUTI_MATS]
        b = WeightBasis("alamouti", given)
        assert b.mats.shape == (4, 2, 2) and b.mats.dtype == complex
        assert not b.mats.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            b.mats[0, 0, 0] = 5
        given[0][0, 0] = 5  # a copy: the caller's matrices do not reach it
        for i, m in enumerate(ALAMOUTI_MATS):
            assert np.array_equal(b.mats[i], m)

    def test_json_rejects_mismatched_counts(self):
        data = alamouti_basis().to_json_dict()
        data["k"] = 3
        with pytest.raises(ValueError):
            WeightBasis.from_json_dict(data)


def _array_holders():
    """One instance of each frozen dataclass whose fields hold arrays."""
    basis = build("alamouti")
    algebra = golden_algebra()
    return [
        basis,
        lattice_profile(basis, det_search_bound=0),
        decodability.hurwitz_radon(basis),
        decodability.sample_r_matrix(basis),
        algebra.field,
        algebra,
        simulate._plan(basis, None),
    ]


class TestIdentityEquality:
    @pytest.mark.parametrize("obj", _array_holders(), ids=lambda o: type(o).__name__)
    def test_equal_only_to_itself_and_hashable(self, obj):
        # The generated __eq__ compared array fields and raised ValueError,
        # and the generated __hash__ raised TypeError.
        twin = copy.copy(obj)
        assert obj == obj and obj != twin
        assert len({obj, obj, twin}) == 2


class TestLatticeProfile:
    def test_alamouti_gram_and_volume(self):
        prof = lattice_profile(alamouti_basis(), det_search_bound=0)
        assert np.allclose(prof.gram, 2 * np.eye(4), atol=1e-12)
        assert prof.volume == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_generator_is_the_per_weight_vectorize(self, name):
        b = build(name)
        want = np.column_stack([vectorize(m) for m in b.mats])
        got = generator_matrix(b)
        assert got.flags.c_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("e", [-300, -40])
    def test_volume_survives_gram_determinant_underflow(self, e):
        # det(Gram) of srinath_rajan's generator (k = 16, full rank) times
        # 2^e underflows to 0 at both scales; the volume is 2^(k e) times
        # the unscaled one.  At e = -300 that is below the smallest double,
        # and the volume is refused where it used to read 0.0.
        gen = generator_matrix(build("srinath_rajan"))
        assert np.linalg.det(np.ldexp(gen, e).T @ np.ldexp(gen, e)) == 0.0
        want = math.ldexp(profile_from_generator(gen).volume, gen.shape[1] * e)
        if want == 0.0:
            with pytest.raises(ValueError, match="the lattice volume, .*, underflows a float"):
                profile_from_generator(np.ldexp(gen, e))
        else:
            scaled = profile_from_generator(np.ldexp(gen, e)).volume
            assert scaled == pytest.approx(want, rel=1e-12)

    def test_subnormal_volume_is_refused(self):
        # Four independent unit weights of a 2x3 code times 1e-80: the
        # volume, 1e-320, is subnormal, with three significant digits left.
        # It used to be returned, and printed by the CLI with exit 0.
        units = [(0, 0, 1), (0, 0, 1j), (1, 1, 1), (0, 2, 1)]
        mats = [np.zeros((2, 3), dtype=complex) for _ in units]
        for m, (i, j, v) in zip(mats, units):
            m[i, j] = v * 1e-80
        gen = generator_matrix(WeightBasis("tiny", mats))
        with pytest.raises(ValueError, match=r"the lattice volume, exp\(-736\.8.*\), underflows"):
            profile_from_generator(gen)

    def test_rank_deficient_generator_rejected(self):
        # iterated's 32 weights span 16 real dimensions; its Gram matrix is
        # singular only up to rounding, so the determinant alone gave a volume
        with pytest.raises(ValueError, match="degenerate.* 32 .* 16 "):
            lattice_profile(build("iterated"), det_search_bound=0)

    def test_generator_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="generator must be a matrix"):
            profile_from_generator(np.ones(3))

    def test_singular_gram_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            profile_from_generator(np.array([[1.0, 2.0], [2.0, 4.0]]))

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

    @pytest.mark.parametrize("scale, figure", [(1e20, "eta"), (1e40, "volume"), (1e-80, "volume")])
    def test_figures_out_of_the_float_range_are_refused(self, scale, figure):
        # golden's weights times scale: at 1e20, eta = min_det^4 / volume
        # overflowed (OverflowError), at 1e40 the volume's exp does (with a
        # RuntimeWarning), and at 1e-80 the volume underflowed to 0
        # (ZeroDivisionError in delta).  profile_from_generator refuses both
        # volumes, before and after np.exp; lattice_profile refuses eta.
        b = WeightBasis("scaled", list(build("golden").mats * scale))
        with pytest.raises(ValueError, match=figure):
            lattice_profile(b, 1)

    def test_box_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(lattice, "MAX_CANDIDATES", 10)
        msg = "holds 624 vectors which exceeds the cap of 20; lower the bound$"
        with pytest.raises(ValueError, match=msg):
            lattice_profile(alamouti_basis(), det_search_bound=2)

    def test_negative_bound_rejected_for_every_shape(self):
        wide = WeightBasis("wide", [np.array([[1, 0, 0], [0, 1, 0]], dtype=complex)])
        for basis in (alamouti_basis(), wide):
            with pytest.raises(ValueError, match="search bound must be nonnegative"):
                lattice_profile(basis, det_search_bound=-5)


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

    def test_search_of_only_zero_draws_says_so(self):
        # One draw of k = 1 from the unit box: seed 0 draws a nonzero
        # vector, seed 1 the zero vector, with the bound and the count not 0.
        one = WeightBasis("one", [np.eye(2, dtype=complex)])
        assert min_rank_sampled(one, 1, 0, 1, 0) == 2
        msg = "^no coefficient vector to search: each of the 1 draws was the zero vector$"
        with pytest.raises(ValueError, match=msg):
            min_rank_sampled(one, 1, 0, 1, 1)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
    def test_zero_codeword_has_rank_zero(self, shape):
        # a dependent basis (as loaded from JSON) has a nonzero z with a zero
        # codeword; square and wide stacks must both report rank 0
        b = WeightBasis("dup", [np.eye(*shape), np.eye(*shape)], allow_dependent=True)
        assert min_rank_difference(b, search_bound=1) == 0
        assert min_rank_sampled(b, search_bound=1, max_nonzeros=2, n_random=0) == 0

    def test_zero_codeword_across_the_split_has_rank_zero(self, monkeypatch):
        # With a 3-row lo table (288 bytes), three random weights are hi
        # digits and the fourth, -B_1, the lo digit: z = (1, 0, 0, 1) has a
        # zero codeword whose split |det|^2 is rounding of the cancelling
        # halves (8e-31) and whose ||X||_F^2 is 0, so only the split's error
        # bound sends it to the SVD.
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", 288)
        rng = np.random.default_rng(3)
        mats = list(rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2)))
        b = WeightBasis("cancel", [*mats, -mats[0]], allow_dependent=True)
        assert min_rank_difference(b, search_bound=1) == 0

    def test_dependent_basis_sweeps_on_past_rank_one(self):
        # z = (1, 0, 0), of rank 1, comes before z = (0, 1, -1), whose
        # codeword is zero; a dependent basis must not stop at rank 1.
        b = WeightBasis("dep", [np.diag([1.0, 0.0]), I2, I2], allow_dependent=True)
        assert min_rank_sampled(b, 1, 3, 1000) == 0
        assert min_rank_difference(b, search_bound=1) == 0
        # with one nonzero entry no codeword is zero
        assert min_rank_sampled(b, 1, 1, 0) == 1

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            min_rank_difference(alamouti_basis(), search_bound=-1)
        with pytest.raises(ValueError, match="nonnegative"):
            min_rank_sampled(alamouti_basis(), search_bound=-1)

    def test_sampled_refuses_negative_counts(self):
        # A negative count is refused, not swept as 0.
        for kwargs in ({"max_nonzeros": -1}, {"n_random": -1}):
            name = next(iter(kwargs))
            with pytest.raises(ValueError, match=f"^{name} must be nonnegative$"):
                min_rank_sampled(alamouti_basis(), 1, **kwargs)

    def test_sampled_sweeps_at_most_k_nonzeros(self):
        # A vector of k = 4 entries has at most 4 nonzeros, so nonzero counts
        # past k add no vector and must add no work.
        assert min_rank_sampled(build("alamouti"), 1, max_nonzeros=30, n_random=0) == 2

    def test_sampled_refuses_a_search_over_the_cap(self, monkeypatch):
        # 7^16 / 2 sparse vectors: min_rank_difference refuses that box too.
        with pytest.raises(ValueError, match="exceeds the cap of 25000000"):
            min_rank_sampled(build("srinath_rajan"), 3, max_nonzeros=16, n_random=0)
        # 4 sparse vectors plus the random ones, against a cap of 10
        monkeypatch.setattr(lattice, "MAX_CANDIDATES", 10)
        assert min_rank_sampled(alamouti_basis(), 1, 1, n_random=6) == 2
        msg = "^sampled search holds 11 vectors which exceeds the cap of 10; lower the bound, "
        with pytest.raises(ValueError, match=msg):
            min_rank_sampled(alamouti_basis(), 1, 1, n_random=7)


def _small_integer_basis(rng, n_t, T, k):
    """Random independent basis with sparse Gaussian-integer entries, so
    that rank drops and exact determinant values occur in small boxes."""
    if k > 2 * n_t * T:
        raise ValueError(f"{k} matrices cannot be independent in a {n_t}x{T} space")
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
    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4), (2, 3), (2, 4)])
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
        blocks = list(lattice._coefficient_box(k, bound, 7))
        assert all(len(c) == 7 for c in blocks[:-1]) and 0 < len(blocks[-1]) <= 7
        rows = np.concatenate(blocks)
        got = {tuple(int(v) for v in z) for z in rows}
        assert len(got) == len(rows) == ((2 * bound + 1) ** k - 1) // 2
        full = set(itertools.product(range(-bound, bound + 1), repeat=k)) - {(0,) * k}
        assert got | {tuple(-v for v in z) for z in got} == full

    @pytest.mark.parametrize("k,bound,max_nonzeros", [(4, 1, 4), (5, 2, 3), (3, 3, 2)])
    def test_sparse_box_holds_one_of_each_antipodal_pair(self, k, bound, max_nonzeros):
        # a tiny block exercises both the value split and the support split
        blocks = list(lattice._sparse_box(k, bound, max_nonzeros, 7))
        assert all(0 < len(c) <= 7 for c in blocks)
        rows = np.concatenate(blocks)
        got = {tuple(int(v) for v in z) for z in rows}
        expected = sum(
            math.comb(k, m) * (2 * bound) ** m // 2 for m in range(1, max_nonzeros + 1)
        )
        assert len(got) == len(rows) == expected
        for z in got:
            nonzero = [v for v in z if v]
            assert 1 <= len(nonzero) <= max_nonzeros and nonzero[0] > 0
            assert max(abs(v) for v in z) <= bound


def _div_mod_digits(base, k, start, stop, chunk):
    """The k base-``base`` digits of every index, one div/mod per digit."""
    powers = base ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for lo in range(start, stop, chunk):
        ids = np.arange(lo, min(lo + chunk, stop), dtype=np.int64)
        yield (ids[:, None] // powers[None, :]) % base


@st.composite
def radix_ranges(draw):
    base = draw(st.integers(1, 7))
    k = draw(st.integers(0, 6))
    start = draw(st.integers(0, base**k))
    stop = draw(st.integers(start, base**k))
    values = np.array(draw(st.permutations(range(base)))) - 0.5
    return values, k, start, stop, draw(st.integers(1, 80))


class TestMixedRadix:
    @given(radix_ranges())
    # blocks of 7 start inside every digit's cycle; the three leading
    # digits run longer than a block, the two trailing ones repeat in it
    @example((np.array([2.0, -1.0, 0.5]), 5, 100, 243, 7))
    def test_matches_div_mod_formula(self, args):
        values, k, start, stop, chunk = args
        got = list(lattice._mixed_radix(values, k, start, stop, chunk))
        want = [values[d] for d in _div_mod_digits(len(values), k, start, stop, chunk)]
        assert [c.shape for c in got] == [c.shape for c in want]
        for g, w in zip(got, want):
            assert g.dtype == values.dtype and np.array_equal(g, w)


def sweep_products(basis, block):
    """The codewords _sweep forms from one block of coefficient rows."""
    seen = []

    def record(mats):
        seen.append(mats.copy())
        return 0.0

    lattice._sweep(basis, [block], record, np.inf, -np.inf, lattice._EMPTY_BOX)
    return np.concatenate(seen)


class TestSweepLayout:
    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_digit_major_chunk_gives_the_c_ordered_products(self, monkeypatch, name):
        # The enumerator yields the transpose of a digit-major block; the
        # product must not depend on the layout, bit for bit.
        # Only the first blocks are taken, so the cap may exceed any box.
        monkeypatch.setattr(lattice, "MAX_CANDIDATES", 10**30)
        basis = build(name)
        rows = lattice._block_rows(basis)
        blocks = [
            *itertools.islice(lattice._coefficient_box(basis.k, 1, rows), 2),
            next(lattice._coefficient_box(basis.k, 2, rows)),
        ]
        for block in blocks:
            assert block.flags.f_contiguous and not block.flags.c_contiguous
            got = sweep_products(basis, block)
            want = sweep_products(basis, np.ascontiguousarray(block))
            assert got.tobytes() == want.tobytes()


class TestSweepBlocks:
    """Blocks of one row, of 7 rows (so the last block of a box is short)
    and of the default size give the same bits."""

    SETTINGS = [1, 7, None]

    def _each_setting(self, monkeypatch, basis):
        """Patch in each block size in turn; yield the patch context and the
        block size in rows.  The default is a power of two, so 7 rows are
        set by patching _block_rows itself."""
        for rows in self.SETTINGS:
            with monkeypatch.context() as m:
                if rows is not None:
                    m.setattr(lattice, "_block_rows", lambda basis: rows)
                yield m, lattice._block_rows(basis)

    def test_block_is_a_power_of_two(self):
        # A codeword's last bits can depend on the row count of its product:
        # silver's unit box formed in 227-row blocks moved some under the
        # Haswell and Prescott kernels, where blocks of 2, 4, 8, 16, 2,048
        # and 8,192 rows kept every bit.
        bases = [build(name) for name in REGISTRY]
        bases.append(_small_integer_basis(np.random.default_rng(3), 3, 3, 4))
        got = {}
        for b in bases:
            rows, size = lattice._block_rows(b), b.mats[0].nbytes
            assert rows & (rows - 1) == 0, b.name
            assert rows * size <= lattice._BLOCK_BYTES < 2 * rows * size, b.name
            got[b.n_t] = rows
        assert got == {2: 8192, 3: 2048, 4: 2048, 12: 128}

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4), (2, 3)])
    @pytest.mark.blas_bits
    def test_same_bits_at_every_block_size(self, monkeypatch, shape):
        rng = np.random.default_rng(sum(shape))
        b = _small_integer_basis(rng, *shape, 4)
        results = []
        for _ in self._each_setting(monkeypatch, b):
            det = lattice._min_abs_det_sq(b, 2) if b.n_t == b.T else 0.0
            results.append((
                det.hex(),
                min_rank_difference(b, search_bound=2),
                min_rank_sampled(b, 2, max_nonzeros=2, n_random=300, seed=3),
            ))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("name", ["golden", "silver"])
    def test_registry_code_keeps_its_bits(self, monkeypatch, name):
        b = build(name)
        want = _lapack_min_abs_det_sq(b, 1).hex()
        for _ in self._each_setting(monkeypatch, b):
            assert lattice._min_abs_det_sq(b, 1).hex() == want

    @staticmethod
    def _rank_one_basis(columns):
        """B_4 = 2i B_1, each weight padded with zero columns to columns.
        Of the 40 rows of the unit box, row 5, z = (0, 1, -1, 0) with
        codeword diag(0, 2), is the first of rank 1.  The weights are
        independent, so no codeword is zero and rank 1 ends the sweep."""
        J = np.array([[0, -1], [1, 0]], dtype=complex)
        pad = [np.pad(w, ((0, 0), (0, columns - 2))) for w in (J, I2, np.diag([1.0, -1.0]), 2j * J)]
        b = WeightBasis("rank-one", pad)
        rows_z = np.concatenate(list(lattice._coefficient_box(4, 1, 40)))
        ranks = np.linalg.matrix_rank(np.tensordot(rows_z, b.mats, axes=1))
        first = int(np.argmax(ranks < 2))
        assert (len(rows_z), first, ranks[first], ranks.min()) == (40, 5, 1, 1)
        return b, first

    @pytest.mark.blas_bits
    def test_sweep_stops_at_the_block_of_a_mid_chunk_rank_one_codeword(self, monkeypatch):
        # A 2x3 basis takes _sweep, whose stop ends it at _rank_floor.
        b, first = self._rank_one_basis(3)
        reduce = lattice._min_rank_of_block
        for m, rows in self._each_setting(monkeypatch, b):
            seen = []

            def counted(mats, limit):
                seen.append(len(mats))
                return reduce(mats, limit)

            m.setattr(lattice, "_min_rank_of_block", counted)
            assert min_rank_difference(b, search_bound=1) == 1
            # the sweep returns at the end of the block that holds row 5
            assert sum(seen) == min(-(-(first + 1) // rows) * rows, 40)

    @pytest.mark.blas_bits
    def test_stops_at_the_block_of_a_mid_chunk_rank_one_codeword(self, monkeypatch):
        # The 2x2 basis takes _split_box.  By default the whole box is one
        # block of lo rows; 288 bytes hold a 3-row lo table and 3 hi rows a
        # block (blocks of 1, then 9 rows); 160 bytes hold no lo table, and
        # a block is 5 hi rows.
        b, first = self._rank_one_basis(2)
        split_box = lattice._split_box
        for block_bytes, blocks in ((None, [40]), (288, [1, 9]), (160, [5, 5])):
            seen = []

            def counted(*args):
                for block in split_box(*args):
                    seen.append(block[2].size)
                    yield block

            with monkeypatch.context() as m:
                if block_bytes is not None:
                    m.setattr(lattice, "_BLOCK_BYTES", block_bytes)
                m.setattr(lattice, "_split_box", counted)
                assert min_rank_difference(b, search_bound=1) == 1
            # the sweep returns at the end of the block that holds row 5
            assert seen == blocks and sum(seen[:-1]) <= first < sum(seen)


class TestClosedFormDet:
    @pytest.mark.parametrize("side", [2, 4])
    @pytest.mark.parametrize("e", [-60, 0, 60])
    def test_matches_lapack(self, side, e):
        rng = np.random.default_rng([side, e + 60])
        X = rng.normal(size=(3000, side, side)) + 1j * rng.normal(size=(3000, side, side))
        X[::7, -1] = X[::7, 0]  # exactly singular rows
        X[1::7, -1] = 3 * X[1::7, 0] + 1e-9 * X[1::7, -1]  # nearly singular rows
        X = np.ldexp(X.real, e) + 1j * np.ldexp(X.imag, e)
        # relative to ||X||_F^n, which bounds |det X| and the rounding of both
        err = np.abs(lattice._det(X) - np.linalg.det(X))
        assert np.all(err <= 1e-12 * np.linalg.norm(X, axis=(1, 2)) ** side)


def _lapack_min_abs_det_sq(basis, bound):
    """The sweep _min_abs_det_sq replaced: LAPACK's det of every codeword,
    each built by tensordot in blocks of 65,536 rows, not the sweep's."""
    best = np.inf
    for z in lattice._coefficient_box(basis.k, bound, 1 << 16):
        mats = np.tensordot(z, basis.mats, axes=1)
        best = min(best, float((np.abs(np.linalg.det(mats)) ** 2).min()))
    return best


@pytest.mark.blas_bits
class TestMinAbsDetSq:
    @pytest.mark.parametrize("bound", [1, 2, 3])
    @pytest.mark.parametrize("name", ["alamouti", "golden", "silver"])
    def test_bit_equal_to_lapack_sweep(self, name, bound):
        b = build(name)
        got = lattice._min_abs_det_sq(b, bound)
        assert got.hex() == _lapack_min_abs_det_sq(b, bound).hex()

    def test_bit_equal_on_small_and_dependent_bases(self):
        rng = np.random.default_rng(11)
        bases = [_small_integer_basis(rng, n, n, k) for n in (2, 3, 4, 5) for k in (1, 2, 4)]
        g = build("golden").mats
        bases += [
            # zero codewords, exact and up to rounding
            WeightBasis("dup", [I2, I2], allow_dependent=True),
            WeightBasis("golden-dep", [g[0], g[1], g[0] + g[1]], allow_dependent=True),
        ]
        # scaling by a power of two is exact; the per-sweep slack scales too
        bases += [
            WeightBasis(f"{b.name}*2^{e}", list(np.ldexp(1.0, e) * b.mats), allow_dependent=True)
            for b in (bases[1], bases[4], bases[-1])
            for e in (-20, 20)
        ]
        bases.append(WeightBasis("golden*2^-20", list(np.ldexp(1.0, -20) * build("golden").mats)))
        for b in bases:
            for bound in (1, 2):
                got = lattice._min_abs_det_sq(b, bound)
                assert got.hex() == _lapack_min_abs_det_sq(b, bound).hex(), b.name

    def test_side_five_takes_one_lapack_det_per_codeword(self, monkeypatch):
        # Past side 4 every codeword goes to LAPACK once, and no pre-filter
        # sends a row a second time.
        b = _small_integer_basis(np.random.default_rng(5), 5, 5, 4)
        det, calls = np.linalg.det, []

        def spy(mats):
            calls.append(len(mats))
            return det(mats)

        monkeypatch.setattr(np.linalg, "det", spy)
        lattice._min_abs_det_sq(b, 2)
        assert sum(calls) == (5**4 - 1) // 2 == 312

    def test_side_five_sweep_stops_at_the_block_of_a_singular_codeword(self, monkeypatch):
        # I, diag(1, ..., 5) and iI: of the 13 rows of the unit box, in
        # blocks of 4 (1600 bytes of 5x5 codewords), only row 5, z = (1, -1,
        # 0) with codeword diag(0, -1, -2, -3, -4), is singular.  Its |det|^2
        # is 0.0, which no later block can undercut, so the sweep ends with
        # the second block.
        b = WeightBasis("diag-5", [np.eye(5), np.diag([1.0, 2, 3, 4, 5]), 1j * np.eye(5)])
        rows = np.concatenate(list(lattice._coefficient_box(3, 1, 13)))
        dets = np.linalg.det(np.tensordot(rows, b.mats, axes=1))
        assert (len(rows), np.flatnonzero(dets == 0).tolist()) == (13, [5])
        reduce, seen = lattice._lapack_min_abs_det_sq, []

        def counted(mats):
            seen.append(len(mats))
            return reduce(mats)

        monkeypatch.setattr(lattice, "_BLOCK_BYTES", 1600)
        monkeypatch.setattr(lattice, "_lapack_min_abs_det_sq", counted)
        assert lattice._block_rows(b) == 4
        assert lattice._min_abs_det_sq(b, 1) == 0.0
        assert seen == [4, 4]


@st.composite
def split_pairs(draw):
    """A random square basis of side 1 to 4 scaled by 2^e, a split of its k
    digits into h hi and k - h lo ones, a bound, and hi and lo rows of the
    box.  Drawn with cancellation, lo weight 0 is minus hi weight 0 plus 0
    (a dependent basis) or 1e-9 times a random weight, and four pairs of
    rows put equal coefficients on the two, so that A + B is 0 or nearly."""
    n, h, m = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    bound, e = draw(st.integers(1, 4)), draw(st.integers(-20, 20))
    cancel = draw(st.sampled_from([None, 0.0, 1e-9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = rng.normal(size=(h + m, n, n)) + 1j * rng.normal(size=(h + m, n, n))
    z_hi = rng.integers(-bound, bound + 1, size=(8, h)).astype(float)
    z_lo = rng.integers(-bound, bound + 1, size=(8, m)).astype(float)
    z_hi[0] = bound  # a corner of the box
    z_lo[0] = bound
    if cancel is not None and h:
        mats[h] = cancel * mats[h] - mats[0]
        z_hi[4:, 1:], z_lo[4:] = 0, 0
        z_lo[4:, 0] = z_hi[4:, 0]
    basis = WeightBasis("random", list(np.ldexp(1.0, e) * mats), allow_dependent=True)
    return basis, h, bound, z_hi, z_lo


def _split_products(basis, h, z_hi, z_lo):
    """The split's determinant, hi-row-major, with LAPACK's det of the
    _codewords product of the same coefficient rows."""
    lead = lattice._codewords(basis.mats[:h], z_hi)
    det = lattice._lead_rows(lead) @ lattice._trail(lattice._codewords(basis.mats[h:], z_lo))
    rows = lattice._pair_rows(z_hi, z_lo, *np.indices((len(z_hi), len(z_lo))).reshape(2, -1))
    lapack = np.linalg.det(lattice._codewords(basis.mats, rows))
    return (det[0::2] + 1j * det[1::2]).ravel(), rows, lapack


@pytest.mark.blas_bits
class TestSplit:
    @given(split_pairs())
    def test_determinant_is_within_its_bound_of_lapack(self, args):
        basis, h, bound, z_hi, z_lo = args
        split, _, lapack = _split_products(basis, h, z_hi, z_lo)
        norm = lattice._box_norm(basis, bound)
        assert np.all(np.abs(split - lapack) <= lattice._SPLIT_ERR * norm**basis.n_t)
        # and |det|^2, squared as _split_box squares it, within the slack
        est = np.square(split.real) + np.square(split.imag)
        assert np.all(np.abs(est - np.abs(lapack) ** 2) <= lattice._det_slack(basis, bound))

    @pytest.mark.parametrize("block_bytes", [None, 96, 288, 1000, 3200])
    @pytest.mark.parametrize("n, k, bound", [(1, 2, 3), (2, 4, 1), (2, 5, 2), (3, 3, 1), (4, 4, 1)])
    def test_half_box_is_the_coefficient_box(self, monkeypatch, block_bytes, n, k, bound):
        # Tables of every size, down to no lo digit (96 bytes): the blocks'
        # pairs, hi row by hi row, are _coefficient_box's rows in order,
        # each with the |det|^2 of its codeword.  Each product has the row
        # count it had when every product formed its own lead rows: one
        # row at the hi midpoint if there is a lo digit, then the hi rows
        # max(1, _BLOCK_BYTES // (32 lo_count)) at a time.  At 3200 bytes
        # the (2, 5, 2) box's lead blocks span two products of 4 hi rows,
        # and its last one a product of 4 and a short one of 2.
        if block_bytes is not None:
            monkeypatch.setattr(lattice, "_BLOCK_BYTES", block_bytes)
        lead_rows, leads = lattice._lead_rows, []
        monkeypatch.setattr(lattice, "_lead_rows", lambda A: leads.append(len(A)) or lead_rows(A))
        b = _small_integer_basis(np.random.default_rng(n * k), n, n, k)
        got, est = [], []
        for z_hi, z_lo, block in lattice._split_box(b, bound):
            got.append(lattice._pair_rows(z_hi, z_lo, *np.indices(block.shape).reshape(2, -1)))
            est.append(block)
        want = np.concatenate(list(lattice._coefficient_box(k, bound, 7)))
        assert np.concatenate(got).tobytes() == want.tobytes()
        m, base = k - z_hi.shape[1], 2 * bound + 1
        hi_rows, half = max(1, lattice._BLOCK_BYTES // (32 * base**m)), base ** (k - m) // 2
        sizes = [1] * (m > 0) + [min(hi_rows, half - at) for at in range(0, half, hi_rows)]
        assert [len(block) for block in est] == sizes
        assert sum(leads) == sum(sizes)
        if (block_bytes, n, k, bound) == (3200, 2, 5, 2):
            assert sizes[-3:] == [4, 4, 2] and leads[-1] == 6 and len(leads) == 9 < len(sizes)
        lapack = np.abs(np.linalg.det(lattice._codewords(b.mats, want))) ** 2
        est = np.concatenate([block.ravel() for block in est])
        assert np.all(np.abs(est - lapack) <= lattice._det_slack(b, bound))

    @pytest.mark.parametrize("bound", [1, 2, 3])
    @pytest.mark.parametrize(
        "name, scale, least", [("alamouti", 1, 1), ("golden", 1, 1), ("silver", 7, 4)]
    )
    def test_every_est_is_near_its_exact_value(self, name, scale, least, bound):
        # scale |det X|^2 is an integer for every codeword of these codes:
        # each est of the split lies within _det_slack of its rounded value,
        # the least rounded value is least / scale, and min_det_est lies
        # within the same slack of it.
        b = build(name)
        slack, exact = lattice._det_slack(b, bound), np.inf
        for *_, est in lattice._split_box(b, bound):
            rounded = np.round(est * scale) / scale
            assert np.all(np.abs(est - rounded) <= slack)
            exact = min(exact, rounded.min())
        assert exact == least / scale
        assert abs(lattice_profile(b, bound).min_det_est - exact) <= slack

    def test_checks_the_bound_as_the_box_does(self, monkeypatch):
        b = alamouti_basis()
        with pytest.raises(ValueError, match="search bound must be nonnegative"):
            next(lattice._split_box(b, -1))
        with pytest.raises(ValueError, match="no coefficient vector"):
            next(lattice._split_box(b, 0))
        monkeypatch.setattr(lattice, "MAX_CANDIDATES", 10)
        with pytest.raises(ValueError, match="holds 624 vectors which exceeds the cap of 20"):
            next(lattice._split_box(b, 2))

    @staticmethod
    def _sweep_places(monkeypatch, b, bound, rows):
        """_block_rows patched to rows (None keeps it); returns the rows of
        the first three blocks and the last block of the sweep of
        _coefficient_box (of every block in a box of at most four), each
        row's (block row count, place) in the sweep, and each row's
        codeword from its block."""
        if rows is not None:
            monkeypatch.setattr(lattice, "_block_rows", lambda basis: rows)
        rows = lattice._block_rows(b)
        blocks = list(itertools.islice(lattice._coefficient_box(b.k, bound, rows), 4))
        count = ((2 * bound + 1) ** b.k - 1) // 2
        last = (count - 1) // rows * rows
        if last >= 4 * rows:
            values = np.arange(-bound, bound + 1.0)
            blocks[3] = next(lattice._mixed_radix(values, b.k, count + 1 + last, 2 * count + 1, rows))
        z = np.concatenate(blocks)
        where = [(len(block), r) for block in blocks for r in range(len(block))]
        want = np.concatenate([lattice._codewords(b.mats, block) for block in blocks])
        return z, where, want

    @pytest.mark.parametrize("rows", [None, 7])
    @pytest.mark.parametrize("name, bound", [("golden", 1), ("silver", 1), ("srinath_rajan", 1)])
    def test_recheck_keeps_the_sweeps_codeword_bits(self, monkeypatch, name, bound, rows):
        # Rows of the first blocks and the short last one, given in random
        # order and batches, get the codewords of the sweep's own blocks,
        # bit for bit.  The 7-row setting moved a last bit of silver's
        # min_det_est under the Haswell kernel when the recheck formed rows
        # at other places than the sweep's.
        b = build(name)
        z, _, want = self._sweep_places(monkeypatch, b, bound, rows)
        pick = np.random.default_rng(1).permutation(len(z))
        seen = []
        lattice._recheck(b, bound, np.array_split(z[pick], 5), lambda X: seen.append(X) or 0, 1)
        got = sorted(X.tobytes() for X in np.concatenate(seen))
        assert got == sorted(X.tobytes() for X in want[pick])

    @pytest.mark.parametrize("rows", [None, 7])
    @pytest.mark.parametrize("n, k, bound", [(2, 4, 1), (2, 4, 2), (3, 3, 2)])
    def test_recheck_forms_each_row_at_its_sweep_place(self, monkeypatch, n, k, bound, rows):
        # Kernel-free: every product that _recheck forms has the row count of
        # a sweep block and holds each row at its place in that block, built
        # digit-major; a row shared by no place is zero.
        b = _small_integer_basis(np.random.default_rng(k), n, n, k)
        z, where, _ = self._sweep_places(monkeypatch, b, bound, rows)
        place = {row.tobytes(): w for row, w in zip(z, where)}
        codewords, products = lattice._codewords, []

        def spy(mats, block):
            products.append(block.copy(order="A"))
            return codewords(mats, block)

        monkeypatch.setattr(lattice, "_codewords", spy)
        pick = np.random.default_rng(2).permutation(len(z))[: len(z) // 2 + 1]
        lattice._recheck(b, bound, np.array_split(z[pick], 3), lambda X: 0, 1)
        got = []
        for block in products:
            assert block.flags.f_contiguous
            for r, row in enumerate(block):
                if row.any():
                    assert place[row.tobytes()] == (len(block), r)
                    got.append(row.tobytes())
        assert sorted(got) == sorted(row.tobytes() for row in z[pick])


@st.composite
def small_boxes(draw):
    """A random square basis of side 1 to 4, weights scaled by 2^e, and a
    bound, its box at most 312 rows; one draw in three makes weight 1 the
    negative of weight 0, so that the box holds zero codewords."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    bound, e = draw(st.integers(1, 2)), draw(st.integers(-20, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    re, im = np.ldexp(rng.normal(size=(2, k, n, n)), e)
    mats = re + 1j * im
    if k > 1 and draw(st.integers(0, 2)) == 0:
        mats[1] = -mats[0]
    return WeightBasis("random", list(mats), allow_dependent=True), bound


class TestDetSlack:
    @given(small_boxes())
    def test_bounds_every_rows_slack_and_keeps_a_superset(self, args):
        # Each row's own slack, _DET_SLACK times its own norm bound
        # sum_i |z_i| ||B_i||_F to the power 2n, is within the sweep's one
        # slack.  So _near_least, against its running least, keeps every row
        # that the per-row rule keeps against the whole box, and with them
        # the row of LAPACK's least value.
        basis, bound = args
        blocks = list(lattice._split_box(basis, bound))
        rows = np.concatenate(
            [lattice._pair_rows(z_hi, z_lo, *np.indices(est.shape).reshape(2, -1))
             for z_hi, z_lo, est in blocks]
        )
        est = np.concatenate([est.ravel() for *_, est in blocks])
        norms = np.sqrt(lattice._fro_sq(basis.mats))
        own = lattice._DET_SLACK * (np.abs(rows) @ norms) ** (2 * basis.n_t)
        assert np.all(own <= lattice._det_slack(basis, bound))
        kept_per_row = {tuple(z) for z in rows[~(est - own > np.min(est + own))]}
        kept = np.concatenate(list(lattice._near_least(basis, bound)))
        assert kept_per_row <= {tuple(z) for z in kept}
        lapack = np.abs(np.linalg.det(lattice._codewords(basis.mats, kept))) ** 2
        assert lapack.min().hex() == _lapack_min_abs_det_sq(basis, bound).hex()


class TestRankLimit:
    @given(small_boxes())
    def test_box_norm_bounds_every_codeword_and_the_sweep_keeps_the_least_rank(self, args):
        # The full-rank limit of _min_rank_sweep rests on ||X||_F <= N for
        # every codeword of the box.  With max_nonzeros = k and no draws the
        # whole box goes through the sweep, which finds the least rank that
        # _least_rank finds over every codeword.
        basis, bound = args
        z = np.concatenate(list(lattice._coefficient_box(basis.k, bound, 512)))
        mats = lattice._codewords(basis.mats, z)
        assert np.all(lattice._fro_sq(mats) <= lattice._box_norm(basis, bound) ** 2)
        assert min_rank_sampled(basis, bound, basis.k, 0) == lattice._least_rank(mats)

    def test_mimo_relay_sends_the_same_rows_to_the_svd(self, monkeypatch):
        # At n = 12 the limit is above the |det| of each of the 20,576 rows,
        # so every row takes the per-row test, which sends these 20 to the
        # SVD, as it did with no limit.  A limit of 0 would send none of
        # them, and the limit alone all 20,576.
        least, seen = lattice._least_rank, []
        monkeypatch.setattr(lattice, "_least_rank", lambda X: seen.append(len(X)) or least(X))
        assert min_rank_sampled(build("mimo_relay"), 1, 2, 20_000) == 12
        assert sum(seen) == 20


@pytest.mark.blas_bits
class TestBoxProducers:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("k", [3, 16])
    def test_random_box_rows_are_the_filtered_draws(self, k, seed):
        # k = 3 draws zero rows in every block, k = 16 (3^-16 a row) none.
        # Each block is one draw of rows int64 rows (mimo_relay's block at
        # k = 3, a 4x4 code's at k = 16), zero rows dropped; _codewords
        # converts them to float.  Concatenated, they are the rows of one
        # whole draw.
        rows = {3: 128, 16: 2048}[k]
        n_random = 3 * rows + 5
        whole = np.random.default_rng(seed).integers(-1, 2, size=(n_random, k))
        want = whole[np.any(whole, axis=1)]
        got = list(lattice._random_box(k, 1, n_random, seed, rows))
        assert len(got) == -(-n_random // rows)
        assert all(c.dtype == np.int64 for c in got)
        assert np.concatenate(got).tobytes() == want.tobytes()
        assert all(len(c) < rows for c in got[:2]) == (k == 3)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_integer_rows_give_the_float_rows_codewords(self, name):
        # _codewords converts each block of int64 draws to float; every block
        # must reach the reduction with the bits of its float rows.
        basis = build(name)
        rows = lattice._block_rows(basis)
        draws = list(lattice._random_box(basis.k, 2, 5 * rows // 2, 5, rows))
        assert len(draws) == 3 and all(c.dtype == np.int64 for c in draws)

        def blocks(chunks):
            seen = []

            def record(mats):
                seen.append(mats.tobytes())
                return 1

            lattice._sweep(basis, chunks, record, 2, 0, lattice._EMPTY_BOX)
            return seen

        got = blocks(iter(draws))
        assert got == blocks(c.astype(float) for c in draws)
        assert len(got) == 3

    def test_random_box_keeps_a_row_whose_square_sum_wraps(self, monkeypatch):
        # (2^32)^2 is 0 modulo 2^64: past k bound^2 < 2^64 the zero rows are
        # found entry by entry.
        class Draws:
            def integers(self, low, high, size):
                return np.array([[2**32], [0], [-3]])[: size[0]]

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Draws())
        got = list(lattice._random_box(1, 2**32, 3, 0, 4))
        assert np.concatenate(got).tolist() == [[2**32], [-3]]

    def test_default_cap_covers_the_k16_unit_box(self):
        rows = lattice._block_rows(build("srinath_rajan"))
        block = next(lattice._coefficient_box(16, 1, rows))
        assert block.shape == (rows, 16) == (2048, 16)
        with pytest.raises(ValueError, match="exceeds the cap"):
            next(lattice._coefficient_box(24, 1, rows))


class TestOneBlockInFlight:
    """Traced peaks of the box sweeps: a producer that held its last block
    while it built the next, a float copy of more than a block of integer
    draws, or a sweep that took more than a block's rows at a time, would
    take each past its bound."""

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_min_rank_sampled(self):
        # 500,000 random draws of k = 16 in blocks of 2,048 rows (0.25 MiB):
        # a traced peak of 1.0 MiB, 1.75 MiB as a process's first sweep.
        # Draws of 4,096 rows cut into blocks peaked at 2.0 MiB, and draws
        # of 65,536 rows at 8.9 MiB.
        basis = build("srinath_rajan")
        peak = self.traced_peak(min_rank_sampled, basis, 1, 3, 500_000)
        assert peak <= 3 * 2**20

    def test_lattice_profile(self):
        # golden's bound-3 box by split minors: a lo table of 2,401 rows of
        # 6 minors (0.2 MiB), the lead rows of all 1,200 hi rows, one lead
        # block (0.22 MiB), and products of 6 hi rows (0.25 MiB, each
        # holding its |det|^2); then the recheck of the 7,936 kept rows,
        # held as digits (62 KiB), in products of 8,192 rows (0.5 MiB, and
        # 0.5 MiB of codewords, whose held rows are copied out a quarter
        # block at a time): a traced peak of 1.5 MiB.
        # 65,536-row chunks (4 MiB) cut into blocks peaked at 5.9 MiB.
        basis = build("golden")
        assert self.traced_peak(lattice_profile, basis, 3) <= 3 * 2**20

    def test_lattice_profile_of_a_k16_unit_box(self):
        # srinath_rajan's unit box by split minors: a lo table of 243 rows
        # of 70 minors (0.27 MiB); a lead block of one product's 67 hi rows,
        # its minors (0.15 MiB), whose lead rows are dropped before the
        # yield, and its product (0.25 MiB), which holds its |det|^2 and is
        # held with the last block's; a recheck product of 2,048 rows
        # (0.25 MiB, and 0.5 MiB of codewords, whose held rows are copied
        # out a quarter block at a time): a traced peak of 1.5 MiB (1.4 MiB
        # with |det|^2 a second array, 1.7 MiB with the lead rows held).
        # The whole lo table of the even split, 6,561 rows, would take
        # 7 MiB alone.
        basis = build("srinath_rajan")
        assert self.traced_peak(lattice_profile, basis, 1) <= 2 * 2**20

    def test_min_rank_difference_of_a_k16_unit_box(self):
        # As test_lattice_profile_of_a_k16_unit_box, but no row's |det|^2
        # is at or below the full-rank limit, so no codeword is formed.  The
        # traced peak, 1.2 MiB, is in building the lo table: its 243 rows'
        # minors (0.26 MiB), their signed complements and the real table
        # (0.26 MiB each), and the cofactor expansion's terms.  Between
        # blocks 0.54 MiB is held, mostly the table and a block's product,
        # which holds its |det|^2.
        basis = build("srinath_rajan")
        assert self.traced_peak(min_rank_difference, basis, 1) <= 2 * 2**20
