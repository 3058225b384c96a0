"""Tests for the real-lattice machinery.

Oracle values: the Alamouti generator/Gram/volume figures and the hexagonal
Gram matrix were computed by hand from the interleaving isometry; box minima
were independently brute-forced before being frozen here.
"""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stlattice import lattice
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
        assert WeightBasis.from_json(b.to_json())._stack.tobytes() == b._stack.tobytes()

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

    @pytest.mark.parametrize("e", [-300, -40])
    def test_volume_survives_gram_determinant_underflow(self, e):
        # det(Gram) of srinath_rajan's generator (k = 16, full rank) times
        # 2^e underflows to 0 at both scales; the volume is 2^(k e) times
        # the unscaled one (below the smallest double at e = -300)
        gen = generator_matrix(build("srinath_rajan"))
        assert np.linalg.det(np.ldexp(gen, e).T @ np.ldexp(gen, e)) == 0.0
        volume = profile_from_generator(gen).volume
        scaled = profile_from_generator(np.ldexp(gen, e)).volume
        assert scaled == pytest.approx(math.ldexp(volume, gen.shape[1] * e), rel=1e-12)

    def test_rank_deficient_generator_rejected(self):
        # iterated's 32 weights span 16 real dimensions; its Gram matrix is
        # singular only up to rounding, so the determinant alone gave a volume
        with pytest.raises(ValueError, match="degenerate.* 32 .* 16 "):
            lattice_profile(build("iterated"), det_search_bound=0)

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
        rows = np.concatenate(list(lattice._coefficient_box(k, bound)))
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


def sweep_products(basis, chunk):
    """The codewords _sweep forms from one chunk of coefficient rows, every
    block of them in order."""
    seen = []
    lattice._sweep(basis, [chunk], lambda mats: seen.append(mats.copy()) or 0.0, np.inf)
    return np.concatenate(seen)


class TestSweepLayout:
    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_digit_major_chunk_gives_the_c_ordered_products(self, monkeypatch, name):
        # The enumerator yields the transpose of a digit-major block; the
        # product must not depend on the layout, bit for bit.  Blocks of
        # 4096 rows keep mimo_relay's codewords to a few MB.
        monkeypatch.setattr(lattice, "_CHUNK", 4096)
        # Only the first chunks are taken, so the cap may exceed any box.
        monkeypatch.setattr(lattice, "MAX_CANDIDATES", 10**30)
        basis = build(name)
        chunks = [
            *itertools.islice(lattice._coefficient_box(basis.k, 1), 2),
            next(lattice._coefficient_box(basis.k, 2)),
        ]
        for chunk in chunks:
            assert chunk.flags.f_contiguous and not chunk.flags.c_contiguous
            got = sweep_products(basis, chunk)
            want = sweep_products(basis, np.ascontiguousarray(chunk))
            assert got.tobytes() == want.tobytes()


class TestSweepBlocks:
    """Blocks of one row, of 7 rows in 30-row chunks (so the last block of
    every chunk is short) and of the default size give the same bits."""

    SETTINGS = [(1, 30), (7, 30), (None, None)]

    def _each_setting(self, monkeypatch, basis):
        """Patch in each setting in turn; yield the patch context and the
        block and chunk sizes in rows."""
        for rows, chunk in self.SETTINGS:
            with monkeypatch.context() as m:
                if rows is not None:
                    m.setattr(lattice, "_BLOCK_BYTES", rows * 16 * basis.n_t * basis.T)
                    m.setattr(lattice, "_CHUNK", chunk)
                yield m, lattice._BLOCK_BYTES // (16 * basis.n_t * basis.T), lattice._CHUNK

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4), (2, 3)])
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

    def test_stops_at_the_block_of_a_mid_chunk_rank_one_codeword(self, monkeypatch):
        # B_4 = 2 B_1.  Of the 40 rows of the unit box, row 5, z = (0, 1, -1,
        # 0) with codeword diag(0, 2), is the first of rank 1; none is zero.
        J = np.array([[0, -1], [1, 0]], dtype=complex)
        b = WeightBasis("dep", [J, I2, np.diag([1.0, -1.0]), 2 * J], allow_dependent=True)
        rows_z = np.concatenate(list(lattice._coefficient_box(4, 1)))
        ranks = np.linalg.matrix_rank(np.tensordot(rows_z, b._stack, axes=1))
        first = int(np.argmax(ranks < 2))
        assert (len(rows_z), first, ranks[first], ranks.min()) == (40, 5, 1, 1)
        reduce = lattice._min_rank_of_chunk
        for m, rows, chunk in self._each_setting(monkeypatch, b):
            seen = []

            def counted(mats):
                seen.append(len(mats))
                return reduce(mats)

            m.setattr(lattice, "_min_rank_of_chunk", counted)
            assert min_rank_difference(b, search_bound=1) == 1
            # the sweep returns at the end of the block that holds row 5
            assert sum(seen) == min(-(-(first + 1) // rows) * rows, chunk, 40)


class TestClosedFormDet:
    @pytest.mark.parametrize("side", [2, 3, 4])
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
    each built by tensordot."""
    best = np.inf
    for z in lattice._coefficient_box(basis.k, bound):
        mats = np.tensordot(z, basis._stack, axes=1)
        best = min(best, float((np.abs(np.linalg.det(mats)) ** 2).min()))
    return best


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
            WeightBasis(f"{b.name}*2^{e}", list(np.ldexp(1.0, e) * b._stack), allow_dependent=True)
            for b in (bases[1], bases[4], bases[-1])
            for e in (-20, 20)
        ]
        bases.append(WeightBasis("golden*2^-20", list(np.ldexp(1.0, -20) * build("golden")._stack)))
        for b in bases:
            for bound in (1, 2):
                got = lattice._min_abs_det_sq(b, bound)
                assert got.hex() == _lapack_min_abs_det_sq(b, bound).hex(), b.name


@st.composite
def boxed_codewords(draw):
    """A random square stack with weights scaled by 2^e, a bound and rows z
    of its box, the box's corners among them."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    bound, e = draw(st.integers(1, 4)), draw(st.integers(-20, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    re, im = np.ldexp(rng.normal(size=(2, k, n, n)), e)
    basis = WeightBasis("random", list(re + 1j * im), allow_dependent=True)
    z = rng.integers(-bound, bound + 1, size=(64, k))
    z[:16] = bound * rng.choice([-1, 1], size=(16, k))
    return basis, bound, z.astype(float)


class TestDetSlack:
    @given(boxed_codewords())
    def test_bounds_every_rows_slack_and_keeps_a_superset(self, args):
        basis, bound, z = args
        X = sweep_products(basis, z)
        n = basis.n_t
        own = lattice._DET_SLACK * lattice._fro_sq(X) ** n
        slack = lattice._det_slack(basis, bound)
        assert np.all(own <= slack)
        est = np.abs(lattice._det(X)) ** 2
        kept_per_row = ~(est - own > np.min(est + own))
        kept = ~(est - slack > np.min(est) + slack)
        assert np.all(kept[kept_per_row])
        lapack = float((np.abs(np.linalg.det(X)) ** 2).min())
        assert lattice._min_abs_det_sq_of_chunk(X, slack).hex() == lapack.hex()


class TestBoxProducers:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("k", [3, 16])
    def test_random_box_rows_are_the_filtered_draws(self, k, seed):
        # k = 3 draws zero rows in every chunk, k = 16 (3^-16 a row) none.
        # The rows are the int64 draws; _sweep converts them block by block.
        n_random = 2 * lattice._CHUNK + 5
        rng = np.random.default_rng(seed)
        want = []
        for lo in range(0, n_random, lattice._CHUNK):
            size = min(lattice._CHUNK, n_random - lo)
            chunk = rng.integers(-1, 2, size=(size, k))
            want.append(chunk[np.any(chunk, axis=1)])
        got = list(lattice._random_box(k, 1, n_random, seed))
        assert [len(c) for c in got] == [len(c) for c in want]
        assert all(g.dtype == w.dtype == np.int64 for g, w in zip(got, want))
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        assert all(len(c) < lattice._CHUNK for c in got[:2]) == (k == 3)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_integer_rows_give_the_float_rows_codewords(self, monkeypatch, name):
        # _sweep converts each block of int64 draws to float; every block
        # must reach the reduction with the bits of the float chunk's block.
        monkeypatch.setattr(lattice, "_CHUNK", 300)
        basis = build(name)
        rows = lattice._BLOCK_BYTES // (16 * basis.n_t * basis.T)
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", min(rows, 128) * 16 * basis.n_t * basis.T)
        draws = list(lattice._random_box(basis.k, 2, 700, 5))
        assert len(draws) == 3 and all(c.dtype == np.int64 for c in draws)

        def blocks(chunks):
            seen = []

            def record(mats):
                seen.append(mats.tobytes())
                return 1

            lattice._sweep(basis, chunks, record, 2)
            return seen

        got = blocks(iter(draws))
        assert got == blocks(c.astype(float) for c in draws)
        assert len(got) == sum(-(-len(c) // min(rows, 128)) for c in draws)

    def test_default_cap_covers_the_k16_unit_box(self):
        chunk = next(lattice._coefficient_box(16, 1))
        assert chunk.shape == (lattice._CHUNK, 16)
        with pytest.raises(ValueError, match="exceeds the cap"):
            next(lattice._coefficient_box(24, 1))


class TestOneChunkInFlight:
    """Traced peaks of the box sweeps: a producer that held its last chunk
    while it built the next, or a float copy of a whole chunk of integer
    draws, would take each past its bound."""

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_min_rank_sampled(self):
        # 500,000 random draws of k = 16: one 65,536-row chunk is 8 MiB.
        basis = build("srinath_rajan")
        peak = self.traced_peak(min_rank_sampled, basis, 1, 3, 500_000)
        assert peak <= 12 * 2**20

    def test_lattice_profile(self):
        # golden's bound-3 box: one 65,536-row float chunk is 4 MiB.
        basis = build("golden")
        assert self.traced_peak(lattice_profile, basis, 3) <= 8 * 2**20
