"""Tests for the channel simulator and the two decoders.

Oracle values: decoder agreement is checked decoder-against-decoder (the
exhaustive search is the reference); calibration ratios follow from log10
arithmetic and were verified by hand before freezing.
"""

import hashlib
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stlattice import codebook, decodability, lattice, simulate
from stlattice.decodability import (
    SIGMA_H,
    _check_ordering,
    _mask_to_indices,
    _factor,
    _r_blocks,
    classify,
    r_matrix,
)
from stlattice.lattice import WeightBasis, vectorize
from stlattice.simulate import (
    Alphabet,
    ChannelConfig,
    DecodeResult,
    calibrate_noise,
    default_config,
    draw_channel,
    ml_exhaustive,
    pam,
    run_campaign,
    sphere_decode,
)

_CACHE = {}


def code(name):
    if name not in _CACHE:
        _CACHE[name] = codebook.build(name)
    return _CACHE[name]


def noisy_trial(basis, alphabet, cfg, sigma_n, key):
    """One deterministic (H, s, Y) draw following the campaign stream."""
    rng = np.random.default_rng(key)
    H = draw_channel(cfg, rng)
    s = rng.choice(np.array(sorted(alphabet.values)), size=basis.k)
    noise = sigma_n * (
        rng.normal(size=(cfg.n_r, basis.T))
        + 1j * rng.normal(size=(cfg.n_r, basis.T))
    )
    Y = H @ basis.combination(s) + noise
    return H, s, Y


class _FirstBlockSeen(Exception):
    """Raised by a spy to stop a campaign at its first block of trials."""


class TestAlphabet:
    def test_pam_values(self):
        assert pam(2).values == (-1, 1)
        assert pam(4).values == (-3, -1, 1, 3)
        assert pam(8).size == 8

    def test_pam_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            pam(3)
        with pytest.raises(ValueError):
            pam(0)

    def test_rejects_asymmetric_set(self):
        with pytest.raises(ValueError, match="symmetric"):
            Alphabet((1, 2))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            Alphabet((1, 1, -1))

    def test_zero_only_set_is_symmetric(self):
        assert Alphabet((0,)).values == (0,)

    @pytest.mark.parametrize("values", [(1.5, -1.5), (0.5, -0.5), (-1, 1, float("inf"))])
    def test_rejects_values_that_are_not_integers(self, values):
        with pytest.raises(ValueError, match="integers"):
            Alphabet(values)

    def test_integral_floats_are_kept(self):
        assert Alphabet((2.0, -2.0)).values == (-2, 2)

    def test_values_are_held_ascending(self):
        assert Alphabet((3, -1, 1, -3)).values == pam(4).values
        assert Alphabet((0, 7, -1, 1, -7)).values == (-7, -1, 0, 1, 7)

    def test_a_shuffled_set_decodes_as_pam(self):
        # Every consumer reads the values in ascending order: the walk's
        # centres, the grid's lexicographic tie-break, the campaign's draws.
        basis, shuffled = code("alamouti"), Alphabet((3, -1, -3, 1))
        cfg = default_config(basis, (0, 10), trials=20, seed=4)
        for key in range(20):
            H, _, Y = noisy_trial(basis, pam(4), cfg, 0.8, [9, key])
            for decode in (ml_exhaustive, sphere_decode):
                assert decode(Y, H, basis, shuffled) == decode(Y, H, basis, pam(4))
        campaigns = [
            run_campaign(basis, a, cfg).to_csv()
            for a in (shuffled, pam(4))
        ]
        assert campaigns[0] == campaigns[1]
        # A tie goes to the vector that is least in ascending value order.
        three = WeightBasis("three", [np.eye(2), 1j * np.eye(2), np.diag([1.0, -1.0])])
        zero = np.zeros((1, 2))
        assert ml_exhaustive(zero, zero, three, shuffled).coeffs == (-3, -3, -3)
        single = WeightBasis("single", [np.diag([1.0, 0.0])])
        assert sphere_decode(np.zeros((2, 2)), np.eye(2), single, shuffled).coeffs == (-1,)

    def test_pam_size_follows_the_same_rule(self):
        # the CLI parses the size with float(), so pam sees 4.0 or 2.5
        assert pam(4.0) == pam(4)
        with pytest.raises(ValueError, match="PAM size"):
            pam(2.5)


class TestChannelConfig:
    def test_rejects_short_coherence(self):
        with pytest.raises(ValueError, match="static"):
            ChannelConfig(n_t=2, n_r=1, T=1, snr_db_grid=(0,), trials=1, seed=0)

    def test_rejects_no_receive_antenna(self):
        with pytest.raises(ValueError, match="receive antenna"):
            ChannelConfig(n_t=2, n_r=0, T=2, snr_db_grid=(0,), trials=1, seed=0)

    def test_rejects_negative_trials(self):
        with pytest.raises(ValueError, match="negative"):
            ChannelConfig(n_t=2, n_r=1, T=2, snr_db_grid=(0,), trials=-1, seed=0)

    def test_rejects_negative_seed(self):
        # It used to pass, and the campaign's stream then failed with numpy's
        # "expected non-negative integer", which names no argument.
        with pytest.raises(ValueError, match="seed cannot be negative"):
            ChannelConfig(n_t=2, n_r=1, T=2, snr_db_grid=(0,), trials=1, seed=-1)
        with pytest.raises(ValueError, match="seed cannot be negative"):
            default_config(code("alamouti"), (0,), 1, -1)

    @pytest.mark.parametrize("grid", [(-np.inf,), (np.nan,), (0.0, np.nan)])
    def test_rejects_nan_and_minus_inf_snr(self, grid):
        with pytest.raises(ValueError, match="SNR"):
            ChannelConfig(n_t=2, n_r=1, T=2, snr_db_grid=grid, trials=1, seed=0)

    def test_default_receive_antennas(self):
        assert default_config(code("alamouti"), (0,), 1, 0).n_r == 1
        assert default_config(code("golden"), (0,), 1, 0).n_r == 2
        assert default_config(code("simo_relay"), (0,), 1, 0).n_r == 2


class TestDrawChannel:
    def test_scale_is_sigma_h(self):
        cfg = ChannelConfig(n_t=2, n_r=3, T=2, snr_db_grid=(0,), trials=1, seed=0)
        rng = np.random.default_rng(5)
        want = SIGMA_H * (rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
        assert np.array_equal(draw_channel(cfg, 5), want)

    def test_deterministic_for_fixed_state(self):
        cfg = ChannelConfig(n_t=2, n_r=2, T=2, snr_db_grid=(0,), trials=1, seed=0)
        assert np.array_equal(draw_channel(cfg, [5, 0, 3]), draw_channel(cfg, [5, 0, 3]))

    def test_unit_mean_square_entry(self):
        cfg = ChannelConfig(n_t=50, n_r=100, T=50, snr_db_grid=(0,), trials=1, seed=0)
        rng = np.random.default_rng(11)
        acc = 0.0
        for _ in range(20):
            H = draw_channel(cfg, rng)
            acc += float(np.mean(np.abs(H) ** 2))
        assert acc / 20 == pytest.approx(1.0, rel=0.02)


class TestCalibration:
    def test_zero_db_balances_signal_and_noise(self):
        basis = code("alamouti")
        cfg = default_config(basis, (0.0,), 1, 9)
        sigma_n = calibrate_noise(basis, pam(4), cfg, 0.0, samples=50_000)
        # independent estimate of the signal power
        rng = np.random.default_rng(999)
        mats = np.stack(basis.mats)
        s = rng.choice(np.array([-3.0, -1.0, 1.0, 3.0]), size=(20_000, 4))
        X = np.einsum("sk,kij->sij", s, mats)
        H = SIGMA_H * (
            rng.normal(size=(20_000, 1, 2)) + 1j * rng.normal(size=(20_000, 1, 2))
        )
        sig = float(np.mean(np.sum(np.abs(H @ X) ** 2, axis=(1, 2))))
        ratio = sig / (2.0 * cfg.n_r * cfg.T * sigma_n**2)
        assert abs(10 * np.log10(ratio)) <= 0.1

    @pytest.mark.parametrize("snr", [-np.inf, np.nan])
    def test_rejects_nan_and_minus_inf_snr(self, snr):
        basis = code("alamouti")
        cfg = default_config(basis, (0.0,), 1, 9)
        with pytest.raises(ValueError, match="SNR"):
            calibrate_noise(basis, pam(2), cfg, snr, samples=20_000)

    def test_three_db_shift_scales_noise_by_sqrt2(self):
        basis = code("alamouti")
        cfg = default_config(basis, (0.0,), 1, 9)
        s0 = calibrate_noise(basis, pam(2), cfg, 0.0, samples=20_000)
        s3 = calibrate_noise(basis, pam(2), cfg, 10 * np.log10(2), samples=20_000)
        assert s0 / s3 == pytest.approx(np.sqrt(2), rel=1e-12)

    def test_doubling_signal_doubles_noise_scale(self):
        basis = code("alamouti")
        cfg = default_config(basis, (0.0,), 1, 9)
        s1 = calibrate_noise(basis, Alphabet((-1, 1)), cfg, 0.0, samples=20_000)
        s2 = calibrate_noise(basis, Alphabet((-2, 2)), cfg, 0.0, samples=20_000)
        assert s2 / s1 == pytest.approx(2.0, rel=1e-12)

    def test_rejects_zero_power_alphabet(self):
        basis = code("alamouti")
        cfg = default_config(basis, (0.0,), 1, 9)
        with pytest.raises(ValueError, match="power"):
            calibrate_noise(basis, Alphabet((0,)), cfg, 0.0)

    def test_rejects_thin_sampling(self):
        basis = code("alamouti")
        cfg = default_config(basis, (0.0,), 1, 9)
        with pytest.raises(ValueError, match="10"):
            calibrate_noise(basis, pam(2), cfg, 0.0, samples=100)

    @pytest.mark.parametrize("n_t, T", [(2, 4), (3, 3)])
    def test_rejects_a_config_shaped_unlike_the_basis(self, n_t, T):
        # golden is 2 x 2.  A T = 4 config ran every row 3.01 dB above its
        # snr_db, and a 3 x 3 config failed inside numpy's matmul.
        basis = code("golden")
        cfg = ChannelConfig(n_t=n_t, n_r=2, T=T, snr_db_grid=(10.0,), trials=1, seed=0)
        shapes = rf"n_t x T = {n_t} x {T}, but the basis has 2 x 2"
        with pytest.raises(ValueError, match=shapes):
            calibrate_noise(basis, pam(4), cfg, 10.0, samples=20_000)
        with pytest.raises(ValueError, match=shapes):
            run_campaign(basis, pam(4), cfg)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize(
        "name", ["alamouti", "golden", "silver", "srinath_rajan", "mimo_relay"]
    )
    def test_matches_exact_signal_power(self, name, seed):
        # With independent zero-mean symbols and i.i.d. channel entries,
        # E||HX||^2 = 2 n_r sigma_h^2 E[s^2] sum_i ||B_i||_F^2 exactly.
        basis = code(name)
        cfg = default_config(basis, (10.0,), 1, seed)
        values = np.array(pam(4).values, dtype=float)
        energy = sum(np.linalg.norm(m) ** 2 for m in basis.mats)
        exact = np.sqrt(
            SIGMA_H**2 * np.mean(values**2) * energy / (10.0 * basis.T)
        )
        sigma_n = calibrate_noise(basis, pam(4), cfg, 10.0, samples=20_000)
        assert sigma_n == pytest.approx(exact, rel=0.01)

    @pytest.mark.parametrize(
        "alphabet",
        [pam(2), pam(4), pam(8), Alphabet((-7, -1, 0, 1, 7))],
        ids=["2", "4", "8", "five_point"],
    )
    @pytest.mark.parametrize("name", sorted(codebook.REGISTRY))
    @pytest.mark.blas_bits
    def test_blocks_keep_the_bits_of_the_dense_einsum(self, name, alphabet):
        # 20,513 samples end in a second chunk of 513: one full block of
        # symbols and channels, then a block of one row.
        basis = code(name)
        for seed, samples in ((0, 10_000), (5, 10_000), (5, 20_513)):
            cfg = default_config(basis, (0.0,), 1, seed)
            got = simulate._mean_signal_power(basis, alphabet, cfg, samples)
            want = _whole_draw_signal_power(basis, alphabet, cfg, samples)
            assert got.hex() == want.hex(), (seed, samples)

    @pytest.mark.parametrize("name", ["golden", "mimo_relay"])
    @pytest.mark.blas_bits
    def test_blocks_keep_the_bits_over_several_chunks(self, name):
        basis = code(name)
        cfg = default_config(basis, (0.0,), 1, 2)
        got = simulate._mean_signal_power(basis, pam(4), cfg, 45_001)
        want = _whole_draw_signal_power(basis, pam(4), cfg, 45_001)
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("alphabet", [pam(2), pam(4)], ids=["2", "4"])
    @pytest.mark.parametrize("name", sorted(codebook.REGISTRY))
    @pytest.mark.blas_bits
    def test_dots_match_the_whole_chunk_sum(self, name, alphabet):
        # The per-antenna dots sum in another order than one np.sum over the
        # chunk's |HX|^2, so only the last bits may differ.
        basis = code(name)
        for seed in (0, 3):
            cfg = default_config(basis, (0.0,), 1, seed)
            got = simulate._mean_signal_power(basis, alphabet, cfg, 20_513)
            want = _whole_draw_signal_power(basis, alphabet, cfg, 20_513, _whole_chunk_sum)
            assert got == pytest.approx(want, rel=1e-14, abs=0), seed

    @staticmethod
    def traced_peak(name):
        basis = code(name)
        cfg = default_config(basis, (10.0,), 1, 0)
        tracemalloc.start()
        try:
            calibrate_noise(basis, pam(2), cfg, 10.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_mimo_relay_calibration_memory(self):
        # The dense einsum held two 20,000 x 288 codeword chunks at once, a
        # traced peak of 95.9 MiB.  Whole-chunk float symbols (3.7 MiB) and
        # complex channels (3.7 MiB) took it to 11.9 MiB, and a chunk-sized
        # array of |HX|^2 (1.8 MiB) to 6.6 MiB.  A chunk holds its symbols as
        # uint8 indices (0.5 MiB) and the channels' real parts (1.8 MiB).
        # With one block's codewords (1.1 MiB) and one dot per receive
        # antenna, the peak is 4.8 MiB (5.5 MiB when the call also loads
        # numpy.random, as a fresh process's first does).
        assert self.traced_peak("mimo_relay") <= 6 * 2**20

    def test_srinath_rajan_calibration_memory(self):
        # A search-workload code: 6.8 MiB with whole-chunk float symbols and
        # complex channels, 3.6 MiB drawn block by block, 3.1 MiB with each
        # block's codewords one product, 1.9 MiB (2.7 MiB in a fresh process)
        # with no chunk-sized |HX|^2 array.
        assert self.traced_peak("srinath_rajan") <= 3 * 2**20


def _antenna_dots(H, X):
    """_chunk_power's reduction of a chunk's channels and codewords: each
    _BLOCK block's HX formed one receive antenna at a time and summed by one
    np.vdot into the chunk's subtotal."""
    total = 0.0
    for lo in range(0, len(X), simulate._BLOCK):
        rows = slice(lo, lo + simulate._BLOCK)
        for i in range(H.shape[1]):
            HX = H[rows, i : i + 1] @ X[rows]
            total += np.vdot(HX, HX).real
    return total


def _whole_chunk_sum(H, X):
    """The chunk's |HX|^2 formed whole and summed by one np.sum, as the
    calibration did before its per-antenna dots."""
    return float(np.sum(np.abs(H @ X) ** 2))


def _whole_draw_signal_power(basis, alphabet, cfg, samples, reduce=_antenna_dots):
    """_mean_signal_power with each chunk's symbols and channels drawn
    whole, as it was, and reduced by reduce(H, X).  The codewords come from
    lattice._codewords over the same _BLOCK rows, whose bits can depend on
    the rows multiplied together."""
    values = np.array(sorted(alphabet.values), dtype=float)
    rng = np.random.default_rng([cfg.seed, simulate._CALIBRATION_STREAM])
    total = 0.0
    for done in range(0, samples, 20_000):
        n = min(20_000, samples - done)
        s = rng.choice(values, size=(n, basis.k))
        blocks = range(0, n, simulate._BLOCK)
        X = np.concatenate([lattice._codewords(basis.mats, s[lo : lo + simulate._BLOCK]) for lo in blocks])
        shape = (n, cfg.n_r, cfg.n_t)
        H = SIGMA_H * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        total += reduce(H, X)
    return total / samples


class TestMLExhaustive:
    def test_noiseless_recovery(self):
        basis = code("alamouti")
        cfg = default_config(basis, (0.0,), 1, 0)
        H = draw_channel(cfg, 1)
        s = (1, -3, 3, -1)
        Y = H @ basis.combination(s)
        res = ml_exhaustive(Y, H, basis, pam(4))
        assert res.coeffs == s
        assert res.metric <= 1e-12
        assert res.nodes_visited == 4**4

    def test_metric_matches_codeword_distance(self):
        basis = code("golden")
        cfg = default_config(basis, (10.0,), 1, 0)
        sigma_n = calibrate_noise(basis, pam(2), cfg, 10.0, samples=20_000)
        H, _, Y = noisy_trial(basis, pam(2), cfg, sigma_n, [1, 0, 0])
        res = ml_exhaustive(Y, H, basis, pam(2))
        direct = np.linalg.norm(Y - H @ basis.combination(res.coeffs), "fro") ** 2
        assert res.metric == pytest.approx(direct, rel=1e-9)

    def test_vectorized_equivalence(self):
        basis = code("golden")
        cfg = default_config(basis, (0.0,), 1, 0)
        rng = np.random.default_rng(21)
        for _ in range(20):
            H = draw_channel(cfg, rng)
            s = rng.choice(np.array([-3.0, -1.0, 1.0, 3.0]), size=basis.k)
            X = basis.combination(s)
            B = np.column_stack([vectorize(H @ m) for m in basis.mats])
            lhs = np.linalg.norm(H @ X, "fro")
            rhs = np.linalg.norm(B @ s)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_search_space_guard(self):
        basis = code("golden")
        cfg = default_config(basis, (0.0,), 1, 0)
        H = draw_channel(cfg, 1)
        with pytest.raises(ValueError, match="guard"):
            ml_exhaustive(np.zeros((cfg.n_r, 2)), H, basis, pam(16))

    def test_tie_breaks_to_lexicographically_smallest(self):
        basis = WeightBasis(
            "single", [np.array([[1, 0], [0, 0]], dtype=complex)]
        )
        res = ml_exhaustive(np.zeros((2, 2)), np.eye(2), basis, pam(2))
        assert res.coeffs == (-1,)

    def test_tie_breaks_to_lexicographically_smallest_over_three_coefficients(self):
        # H = 0 makes every grid point a tie at metric 0
        basis = WeightBasis("three", [np.eye(2), 1j * np.eye(2), np.diag([1.0, -1.0])])
        res = ml_exhaustive(np.zeros((1, 2)), np.zeros((1, 2)), basis, pam(4))
        assert res.coeffs == (-3, -3, -3)

    def test_many_ties_keep_memory_bounded(self):
        # H = 0 ties all 4^10 grid rows at metric 0.  Keeping every row in
        # the tie window took seconds and hundreds of MB here.
        rng = np.random.default_rng(0)
        mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(10)]
        basis = WeightBasis("random", mats)
        tracemalloc.start()
        try:
            res = ml_exhaustive(np.zeros((1, 3)), np.zeros((1, 3)), basis, pam(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.coeffs == (-3,) * 10
        assert res.metric == 0.0
        assert peak < 50e6

    def test_largest_grid_holds_no_grid_sized_array(self):
        # A PAM-4 grid at the 2^24 guard.  One float per grid point would
        # take 128 MiB; the bounds, hi residuals, lo products and a block's
        # terms peak at about 4 MiB here.
        rng = np.random.default_rng(12)
        basis = WeightBasis("twelve", rng.normal(size=(12, 2, 4)) + 1j * rng.normal(size=(12, 2, 4)))
        H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        Y = H @ basis.combination(rng.choice([-3, -1, 1, 3], 12))
        Y = Y + 0.3 * (rng.normal(size=Y.shape) + 1j * rng.normal(size=Y.shape))
        tracemalloc.start()
        try:
            res = ml_exhaustive(Y, H, basis, pam(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.coeffs == sphere_decode(Y, H, basis, pam(4)).coeffs
        assert res.nodes_visited == 4**12
        assert peak < 8 * 2**20

    def test_rejects_mismatched_received_block(self):
        basis = code("alamouti")
        with pytest.raises(ValueError, match="shape"):
            ml_exhaustive(np.zeros((1, 3)), np.eye(2)[:1], basis, pam(2))

    def test_matches_brute_force_over_the_grid(self):
        rng = np.random.default_rng(44)
        basis = code("alamouti")
        cfg = default_config(basis, (0.0,), 1, 0)
        values = sorted(pam(4).values)
        for _ in range(10):
            H = draw_channel(cfg, rng)
            Y = rng.normal(size=(cfg.n_r, 2)) + 1j * rng.normal(size=(cfg.n_r, 2))
            # first minimum in lexicographic grid order
            best = min(
                itertools.product(values, repeat=basis.k),
                key=lambda s: np.linalg.norm(Y - H @ basis.combination(s)) ** 2,
            )
            res = ml_exhaustive(Y, H, basis, pam(4))
            assert res.coeffs == best
            direct = np.linalg.norm(Y - H @ basis.combination(best)) ** 2
            assert res.metric == pytest.approx(direct, rel=1e-9)


def grid_ml_exhaustive(Y, H, basis, alphabet):
    """The chunked grid that ml_exhaustive replaced: each block of at most
    2^14 grid rows takes its metrics from the direct product S B^T."""
    values = np.array(alphabet.values, dtype=float)
    B, y = simulate._real_model(Y, H, basis, alphabet, range(basis.k))
    L, k = len(values), basis.k
    powers = L ** np.arange(k - 1, -1, -1)
    best_metric, near = np.inf, []
    for lo in range(0, L**k, simulate._CHUNK):
        ids = np.arange(lo, min(lo + simulate._CHUNK, L**k))
        S = values[(ids[:, None] // powers) % L]
        resid = y[None, :] - S @ B.T
        metrics = np.einsum("ij,ij->i", resid, resid)
        best_metric = min(best_metric, float(metrics.min()))
        keep = metrics <= best_metric * (1.0 + simulate._TIE_TOL)
        near.extend(zip(metrics[keep].tolist(), S[keep]))
    metric, row = next(
        c for c in near if c[0] <= best_metric * (1.0 + simulate._TIE_TOL)
    )
    return tuple(int(v) for v in row), metric


@st.composite
def grids_past_one_block(draw):
    """A random complex basis whose grid fills one _CHUNK block (PAM-4,
    k = 7) or passes it (PAM-4, k = 8; (-2, 0, 2), k = 10), with B_H wide,
    square or tall (for k = 8, 2 n_r T = 4 leaves the lo columns no
    complement), and a noisy or noiseless trial or a zero channel, which
    ties every row, all scaled by 2^e with e in {-20, 0, 20}."""
    alphabet, k = draw(st.sampled_from(((pam(4), 7), (pam(4), 8), (Alphabet((-2, 0, 2)), 10))))
    n_r, T = draw(st.sampled_from(((1, 2), (2, 2), (3, 2), (1, 3), (1, 5), (2, 5))))
    assume(k <= 4 * T)  # independent 2 x T weights
    kind = draw(st.sampled_from(("noisy", "noiseless", "zero_channel", "zero_channel_noisy")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = WeightBasis("drawn", rng.normal(size=(k, 2, T)) + 1j * rng.normal(size=(k, 2, T)))
    H = rng.normal(size=(n_r, 2)) + 1j * rng.normal(size=(n_r, 2))
    if kind.startswith("zero_channel"):
        H = np.zeros_like(H)
    Y = H @ basis.combination(rng.choice(np.array(alphabet.values), k))
    if kind.endswith("noisy"):
        sigma = rng.choice([0.3, 1.0, 3.0])
        Y = Y + sigma * (rng.normal(size=Y.shape) + 1j * rng.normal(size=Y.shape))
    scale = 2.0 ** draw(st.sampled_from((-20, 0, 20)))
    return basis, alphabet, H * scale, Y * scale, scale


@pytest.mark.blas_bits
class TestMLMatchesGrid:
    """The pruned split-digit search returns the direct grid's coefficients
    exactly; its metric sums in another order, so it is held to 1e-12."""

    @settings(max_examples=60)
    @given(grids_past_one_block())
    def test_pruned_grid_equals_plain_grid(self, problem):
        basis, alphabet, H, Y, scale = problem
        coeffs, metric = grid_ml_exhaustive(Y, H, basis, alphabet)
        res = ml_exhaustive(Y, H, basis, alphabet)
        assert res.coeffs == coeffs
        assert res.metric == pytest.approx(metric, rel=1e-12, abs=1e-12 * scale * scale)
        assert res.nodes_visited == alphabet.size**basis.k

    def test_near_tie_across_hi_rows(self):
        # Unit weights on distinct entries, H = I: every coefficient meets its
        # own entry of Y.  The lo entries and three hi entries hold alphabet
        # values, and an entry no weight reaches holds 100, so the bound of a
        # hi row is its least metric.  The first digit's entry, -2 + d, puts
        # s_1 = -1 a relative 5e-10 below s_1 = -3: inside the tie window,
        # and past the rounding guard, so the earlier hi row wins only if
        # the seed window keeps its tie factor.
        entries = [(1, 1), (1, 2), (2, 0), (2, 1), (0, 0), (0, 1), (0, 2), (1, 0)]
        mats = np.zeros((8, 3, 3))
        for mat, entry in zip(mats, entries):
            mat[entry] = 1.0
        basis = WeightBasis("entries", mats)
        d = 5e-10 * (1 + 100.0**2) / 4
        Y = np.ones((3, 3))
        Y[1, 1], Y[2, 2] = -2.0 + d, 100.0
        coeffs, _ = grid_ml_exhaustive(Y, np.eye(3), basis, pam(4))
        res = ml_exhaustive(Y, np.eye(3), basis, pam(4))
        assert coeffs == res.coeffs == (-3, 1, 1, 1, 1, 1, 1, 1)

    @pytest.mark.parametrize(
        "name, alphabet",
        [("alamouti", pam(4)), ("golden", pam(4)), ("silver", pam(2))],
    )
    @pytest.mark.parametrize("snr", [0.0, 10.0, 20.0])
    def test_registry_codes(self, name, alphabet, snr):
        basis = code(name)
        cfg = default_config(basis, (snr,), 1, 0)
        sigma_n = calibrate_noise(basis, alphabet, cfg, snr, samples=20_000)
        for t in range(4):
            H, _, Y = noisy_trial(basis, alphabet, cfg, sigma_n, [11, 0, t])
            coeffs, metric = grid_ml_exhaustive(Y, H, basis, alphabet)
            res = ml_exhaustive(Y, H, basis, alphabet)
            assert res.coeffs == coeffs
            assert res.metric == pytest.approx(metric, rel=1e-12)

    def test_partial_blocks(self):
        # 3^10 grid points: 3^5 = 243 hi rows and 243 lo rows.  A block
        # holds 67 hi rows, which do not divide 243, so the live hi rows
        # can end in a partial block.
        rng = np.random.default_rng(29)
        mats = rng.normal(size=(10, 3, 3)) + 1j * rng.normal(size=(10, 3, 3))
        basis = WeightBasis("ten", mats)
        alphabet = Alphabet((-2, 0, 2))
        for t in range(3):
            H = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
            Y = H @ basis.combination(rng.choice([-2, 0, 2], 10))
            Y = Y + 0.5 * (rng.normal(size=Y.shape) + 1j * rng.normal(size=Y.shape))
            coeffs, metric = grid_ml_exhaustive(Y, H, basis, alphabet)
            res = ml_exhaustive(Y, H, basis, alphabet)
            assert res.coeffs == coeffs
            assert res.metric == pytest.approx(metric, rel=1e-12)
            assert res.nodes_visited == 3**10


class TestMLIndexDecode:
    """A grid row is its lexicographic index: hi row h and lo row l make
    row h L^m + l, m = _ml_split(L, k), and the row's coefficients are the
    values of its k base-L digits."""

    @pytest.mark.parametrize("size", [2, 3, 4, 8])
    @pytest.mark.parametrize("k", [1, 5, 8])
    def test_ml_split_rule(self, size, k):
        # A grid of one _CHUNK block is all lo digits; a larger one splits
        # its digits evenly.
        m = simulate._ml_split(size, k)
        assert m == (k if size**k <= simulate._CHUNK else (k + 1) // 2)

    @pytest.mark.parametrize("size, k, m", [(2, 14, 14), (200, 3, 1), (4096, 2, 1)])
    def test_ml_split_edges(self, size, k, m):
        # 2^14 points is one block; 200^2 points would pass _CHUNK, so
        # 200^3 keeps one lo digit; 4096^2 is the guard itself.
        assert simulate._ml_split(size, k) == m

    @pytest.mark.parametrize("grid", ["alamouti", "golden", "random"])
    def test_planted_rows_decode(self, grid):
        # Noiseless trials at the first row, the last row of the first hi
        # row and the first of the second (one grid row apart; a one-block
        # grid has no second), the last row, and row 1, whose digits do not
        # read the same backwards.
        if grid == "random":
            rng = np.random.default_rng(3)
            mats = rng.normal(size=(10, 3, 3)) + 1j * rng.normal(size=(10, 3, 3))
            basis, alphabet = WeightBasis("ten", mats), Alphabet((-2, 0, 2))
            H = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        else:
            basis, alphabet = code(grid), pam(4)
            H = draw_channel(default_config(basis, (0.0,), 1, 0), 5)
        L, k = alphabet.size, basis.k
        m = simulate._ml_split(L, k)
        assert (m < k) == (grid != "alamouti")
        for row in sorted({0, 1, L**m - 1, L**m, L**k - 1} - {L**k}):
            s = next(itertools.islice(itertools.product(alphabet.values, repeat=k), row, None))
            res = ml_exhaustive(H @ basis.combination(s), H, basis, alphabet)
            assert res.coeffs == s
            assert res.nodes_visited == L**k


def left_to_right_metric(Y, H, basis, alphabet, coeffs):
    """The metric of one grid row in Python floats: the residual
    r = y - s_1 b_1 - s_2 b_2 - ... over its hi digits and the product
    p = b_1 s_1 + b_2 s_2 + ... over its lo digits, each added in that
    order, then (r_1 - p_1)^2 + (r_2 - p_2)^2 + ..., left to right."""
    B, y = simulate._real_model(Y, H, basis, alphabet, range(basis.k))
    h = basis.k - simulate._ml_split(alphabet.size, basis.k)
    metric = 0.0
    for b, r in zip(B.tolist(), y.tolist()):
        for bj, c in zip(b[:h], coeffs[:h]):
            r -= bj * c
        p = b[h] * coeffs[h]
        for bj, c in zip(b[h + 1 :], coeffs[h + 1 :]):
            p += bj * c
        metric += (r - p) * (r - p)
    return metric


@pytest.mark.blas_bits
class TestMLMetric:
    """The reported metric is the sum of squares of the winner's residual
    entries, added left to right with no fused multiply-add, from hi
    residuals and lo products formed by elementwise passes, so for the same
    B_H its bits depend neither on the BLAS kernel nor on the machine's
    SIMD width."""

    @pytest.mark.parametrize(
        "name, alphabet",
        [("alamouti", pam(4)), ("golden", pam(4)), ("golden", pam(2)), ("silver", pam(2))],
    )
    def test_left_to_right_sum_of_squares(self, name, alphabet):
        basis = code(name)
        cfg = default_config(basis, (10.0,), 1, 0)
        sigma_n = calibrate_noise(basis, alphabet, cfg, 10.0, samples=20_000)
        for t in range(6):
            H, s, Y = noisy_trial(basis, alphabet, cfg, sigma_n, [13, 0, t])
            if t == 0:
                H = np.zeros_like(H)  # every row ties
            elif t == 1:
                Y = H @ basis.combination(s)  # noiseless
            res = ml_exhaustive(Y, H, basis, alphabet)
            want = left_to_right_metric(Y, H, basis, alphabet, res.coeffs)
            assert res.metric.hex() == want.hex()

    def test_partial_blocks(self):
        # 3^10 grid points, 243 hi rows by 243 lo rows, in blocks of 67 hi rows
        rng = np.random.default_rng(31)
        mats = rng.normal(size=(10, 3, 3)) + 1j * rng.normal(size=(10, 3, 3))
        basis = WeightBasis("ten", mats)
        alphabet = Alphabet((-2, 0, 2))
        for _ in range(3):
            H = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
            Y = H @ basis.combination(rng.choice([-2, 0, 2], 10))
            Y = Y + 0.5 * (rng.normal(size=Y.shape) + 1j * rng.normal(size=Y.shape))
            res = ml_exhaustive(Y, H, basis, alphabet)
            want = left_to_right_metric(Y, H, basis, alphabet, res.coeffs)
            assert res.metric.hex() == want.hex()


class TestSphereDecode:
    def test_matches_exhaustive_on_alamouti(self):
        basis = code("alamouti")
        cfg = default_config(basis, (10.0,), 1, 0)
        sigma_n = calibrate_noise(basis, pam(4), cfg, 10.0, samples=20_000)
        nodes_sphere = 0
        nodes_ml = 0
        for t in range(300):
            H, _, Y = noisy_trial(basis, pam(4), cfg, sigma_n, [7, 0, t])
            a = ml_exhaustive(Y, H, basis, pam(4))
            b = sphere_decode(Y, H, basis, pam(4))
            assert a.coeffs == b.coeffs
            nodes_ml += a.nodes_visited
            nodes_sphere += b.nodes_visited
        assert nodes_sphere < 0.1 * nodes_ml

    def test_matches_exhaustive_on_golden(self):
        basis = code("golden")
        cfg = default_config(basis, (12.0,), 1, 0)
        sigma_n = calibrate_noise(basis, pam(2), cfg, 12.0, samples=20_000)
        for t in range(200):
            H, _, Y = noisy_trial(basis, pam(2), cfg, sigma_n, [9, 0, t])
            a = ml_exhaustive(Y, H, basis, pam(2))
            b = sphere_decode(Y, H, basis, pam(2))
            assert a.coeffs == b.coeffs

    def test_ordering_does_not_change_the_answer(self):
        basis = code("silver")
        cfg = default_config(basis, (10.0,), 1, 0)
        sigma_n = calibrate_noise(basis, pam(2), cfg, 10.0, samples=20_000)
        ordering = (4, 5, 6, 7, 0, 1, 2, 3)
        for t in range(50):
            H, _, Y = noisy_trial(basis, pam(2), cfg, sigma_n, [3, 0, t])
            a = sphere_decode(Y, H, basis, pam(2))
            b = sphere_decode(Y, H, basis, pam(2), ordering)
            assert a.coeffs == b.coeffs

    def test_parallel_groups_beat_binary_exhaustive_count(self):
        basis = code("alamouti")
        cfg = default_config(basis, (10.0,), 1, 0)
        sigma_n = calibrate_noise(basis, pam(2), cfg, 10.0, samples=20_000)
        H, _, Y = noisy_trial(basis, pam(2), cfg, sigma_n, [2, 0, 0])
        res = sphere_decode(Y, H, basis, pam(2))
        assert res.nodes_visited < 2**4

    def test_tie_breaks_to_lexicographically_smallest(self):
        basis = WeightBasis(
            "single", [np.array([[1, 0], [0, 0]], dtype=complex)]
        )
        res = sphere_decode(np.zeros((2, 2)), np.eye(2), basis, pam(2))
        assert res.coeffs == (-1,)

    def test_exact_ties_resolve_lexicographically_despite_rounding(self):
        # (-1, 1, -1) and (-1, 1, 1) both have metric 7 exactly, but the
        # sphere decoder's rotated sums round them apart.
        basis = WeightBasis(
            "tie", [[[1 - 1j, 1 + 1j]], [[1 - 1j, -1 + 1j]], [[1 - 1j, -1j]]]
        )
        H = np.array([[1j]])
        Y = np.zeros((1, 2))
        ml = ml_exhaustive(Y, H, basis, pam(2))
        sp = sphere_decode(Y, H, basis, pam(2))
        assert ml.coeffs == sp.coeffs == (-1, 1, -1)
        assert ml.metric == sp.metric == 7.0

    def test_rejects_rank_deficient_span(self):
        basis = code("iterated")
        cfg = default_config(basis, (0.0,), 1, 0)
        H = draw_channel(cfg, 4)
        with pytest.raises(ValueError, match="rank-deficient"):
            sphere_decode(np.zeros((cfg.n_r, basis.T)), H, basis, pam(2))

    def test_rejects_underdetermined_system(self):
        basis = code("golden")
        H = draw_channel(
            ChannelConfig(n_t=2, n_r=1, T=2, snr_db_grid=(0,), trials=1, seed=0), 1
        )
        with pytest.raises(ValueError, match="rank-deficient"):
            sphere_decode(np.zeros((1, 2)), H, basis, pam(2))

    def test_weak_channel_decodes(self):
        # The R-factor cutoff had an absolute floor, so at 2^-40 every entry
        # was masked and a full-rank channel raised "rank-deficient".
        basis = code("golden")
        cfg = default_config(basis, (10.0,), 1, 0)
        sigma_n = calibrate_noise(basis, pam(4), cfg, 10.0, samples=20_000)
        scale = 2.0**-40
        for t in range(5):
            H, _, Y = noisy_trial(basis, pam(4), cfg, sigma_n, [4, 0, t])
            expected = ml_exhaustive(Y, H, basis, pam(4)).coeffs
            assert ml_exhaustive(Y * scale, H * scale, basis, pam(4)).coeffs == expected
            assert sphere_decode(Y * scale, H * scale, basis, pam(4)).coeffs == expected

    def test_rejects_bad_ordering(self):
        basis = code("alamouti")
        with pytest.raises(ValueError, match="permutation"):
            sphere_decode(np.zeros((1, 2)), draw_channel(
                default_config(basis, (0,), 1, 0), 1), basis, pam(2), (0, 1))


ALPHABETS = (pam(2), pam(4), Alphabet((-2, 0, 2)))
RECEIVED = ("noisy", "zero_block", "integer_zero_block", "integer_midpoint")


@st.composite
def decoding_problems(draw):
    """A random independent Gaussian-integer basis with k <= 10 and at most
    2^16 grid points, alphabet, ordering, channel and received block, the
    last two scaled by 2^e with |e| <= 40.  Besides noisy blocks, the draws
    force ties: a zero block makes s and -s tie, and integer channels with
    integer blocks make the metrics exact, so distinct vectors can tie;
    scaling by a power of two keeps every tie."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    n_t = draw(st.integers(1, 3))
    T = draw(st.integers(n_t, 3))
    k_cap = 1
    while k_cap < min(10, 2 * n_t * T) and alphabet.size ** (k_cap + 1) <= 2**16:
        k_cap += 1
    # Half the draws take the largest k, so grids beyond one 2^14-row block
    # (L^k > 2^14, split into leading and trailing digits) come up often.
    k = draw(st.one_of(st.just(k_cap), st.integers(1, k_cap)))
    size = 2 * k * n_t * T
    parts = np.array(draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size)))
    mats = (parts[:size // 2] + 1j * parts[size // 2:]).reshape(k, n_t, T)
    gen = np.stack([vectorize(m) for m in mats], axis=1)
    assume(np.linalg.matrix_rank(gen) == k)
    basis = WeightBasis("drawn", mats)
    ordering = draw(st.permutations(range(k)))
    received = draw(st.sampled_from(RECEIVED))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_r = -(-k // (2 * T)) + draw(st.integers(0, 1))
    shape = (n_r, n_t)
    if received.startswith("integer"):
        H = rng.integers(-1, 2, shape) + 1j * rng.integers(-1, 2, shape)
    else:
        H = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assume(not r_matrix(basis, H, ordering).rank_deficient)
    values = np.array(alphabet.values)
    if received == "noisy":
        sigma = rng.choice([0.0, 0.3, 1.0, 3.0])
        noise = rng.normal(size=(n_r, T)) + 1j * rng.normal(size=(n_r, T))
        Y = H @ basis.combination(rng.choice(values, k)) + sigma * noise
    elif received == "integer_midpoint":
        Y = H @ basis.combination(rng.choice(values, k) + rng.choice(values, k)) / 2
    else:
        Y = np.zeros((n_r, T))
    scale = 2.0 ** draw(st.integers(-40, 40))
    H, Y = H * scale, Y * scale
    return basis, alphabet, ordering, H, Y


class TestSphereDecodeIsExact:
    @given(decoding_problems())
    def test_matches_exhaustive(self, problem):
        basis, alphabet, ordering, H, Y = problem
        ml = ml_exhaustive(Y, H, basis, alphabet)
        sp = sphere_decode(Y, H, basis, alphabet, ordering)
        assert sp.coeffs == ml.coeffs
        assert sp.metric == pytest.approx(ml.metric, rel=1e-9, abs=1e-12)
        assert sp.nodes_visited > 0
        assert sp.nodes_visited % alphabet.size == 0


def reference_sphere_block(R, z, values, lex_perm):
    """simulate._sphere_block as it was before its children were walked
    outward from t: every expansion computes all L distances and visits the
    children in the order of a stable sort on them."""
    kc, L = R.shape[0], len(values)
    children = range(L)
    vals = values.tolist()
    centers = (R.diagonal()[:, None] * values).tolist()
    s = np.zeros(kc)
    interference = [R[l, l + 1 :].dot for l in range(kc)]
    above = [s[l + 1 :] for l in range(kc)]
    dists, partials, pending = [None] * kc, [0.0] * kc, [None] * kc
    radius = best_metric = np.inf
    near, nodes = [], 0
    level, nd = kc, 0.0
    while True:
        level -= 1
        t = z[level] - float(interference[level](above[level]))
        d = [(c - t) * (c - t) for c in centers[level]]
        nodes += L
        dists[level] = d
        partials[level] = nd
        pending[level] = iter(sorted(children, key=d.__getitem__))
        while True:
            ci = next(pending[level], None)
            if ci is None or (nd := partials[level] + dists[level][ci]) > radius:
                level += 1
                if level == kc:
                    return min(near, key=lambda leaf: tuple(leaf[1][lex_perm]))[1], nodes
                continue
            s[level] = vals[ci]
            if level:
                break
            if nd < best_metric:
                best_metric = nd
                radius = nd * (1.0 + simulate._TIE_TOL)
                near = [leaf for leaf in near if leaf[0] <= radius]
            near.append((nd, s.copy()))


WALK_ALPHABETS = ((-1, 1), (-3, -1, 1, 3), (-2, 0, 2), (-5, -1, 1, 5))


@st.composite
def search_blocks(draw):
    """One block's R (upper triangular, k <= 5, positive diagonal, as
    decodability._factor gives it), Q^T y, sorted alphabet and
    lexicographic order, R and Q^T y scaled by 2^e with |e| <= 40.  Gaussian R with noisy, zero or far
    (|z_l| from 2^45 to 2^60 |R_ll|; past about 2^50 the rounding merges
    distances) Q^T y;
    or integer R with Q^T y at exact midpoints of the lattice, where the
    distances tie across t."""
    values = np.array(draw(st.sampled_from(WALK_ALPHABETS)), dtype=float)
    kc = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("noisy", "zero", "far", "integer_midpoint")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "integer_midpoint":
        R = np.triu(rng.integers(-2, 3, (kc, kc))).astype(float)
        R[np.diag_indices(kc)] = rng.integers(1, 3, kc)
        z = R @ (rng.choice(values, kc) + rng.choice(values, kc)) / 2
    else:
        R = np.triu(rng.normal(size=(kc, kc)))
        R[np.diag_indices(kc)] = 0.1 + np.abs(rng.normal(size=kc))
        if kind == "noisy":
            z = R @ rng.choice(values, kc) + rng.choice([0.1, 1.0, 3.0]) * rng.normal(size=kc)
        elif kind == "zero":
            z = np.zeros(kc)
        else:
            z = R.diagonal() * rng.uniform(-1, 1, kc) * 2.0 ** rng.integers(45, 61, kc)
    scale = 2.0 ** draw(st.integers(-40, 40))
    return R * scale, (z * scale).tolist(), values, rng.permutation(kc)


class SpyRow(np.ndarray):
    """An R whose rows record, at each expansion, the symbols fixed above
    the expanded node, in the list `seen` that its views share."""

    def __array_finalize__(self, obj):
        self.seen = getattr(obj, "seen", None)

    def dot(self, other):
        self.seen.append(tuple(other.tolist()))
        return np.ndarray.dot(self, other)


def expansions(search, R, z, values, lex_perm):
    """search's result, and the symbols above each node it expanded, in the
    order it expanded them."""
    spy = R.view(SpyRow)
    spy.seen = []
    return search(spy, z, values, lex_perm), spy.seen


def top_level_order(search, r, t, values):
    """The top level's children, in the order `search` expands them, of the
    2 x 2 block whose top level has R_11 = r and sees t.  The lower level
    sits 2^20 from every centre, so every leaf's metric is about 2^40 and
    the tie window lets every top-level child be expanded."""
    R = np.array([[1.0, 0.0], [0.0, r]])
    _, seen = expansions(search, R, [2.0**20, t], values, np.arange(2))
    return [above[0] for above in seen if above]


def stable_sort_order(r, t, values):
    vals = values.tolist()
    d = [(c - t) * (c - t) for c in (r * values).tolist()]
    return [vals[i] for i in sorted(range(len(vals)), key=d.__getitem__)]


@pytest.mark.blas_bits
class TestSphereWalk:
    """_sphere_block walks each level's children outward from t instead of
    sorting their distances; it visits the same nodes in the same order."""

    @given(search_blocks())
    def test_matches_the_sorted_loop(self, block):
        (s, nodes), walked = expansions(simulate._sphere_block, *block)
        (s_ref, nodes_ref), sorted_ = expansions(reference_sphere_block, *block)
        assert s.tobytes() == s_ref.tobytes()
        assert nodes == nodes_ref
        assert walked == sorted_

    @given(search_blocks(), st.integers(1, 2**5 - 1))
    def test_a_negative_level_is_sorted_exactly(self, block, flipped):
        # No stage hands the walk a negative diagonal, but one still gives
        # the sorted loop's nodes: it takes the sort path every time.  A
        # negated row of R with its entry of Q^T y is the same search.
        R, z, values, lex_perm = block
        sign = np.where([flipped >> l & 1 for l in range(len(z))], -1.0, 1.0)
        mirrored = (sign[:, None] * R, (sign * z).tolist(), values, lex_perm)
        assume(sign.min() < 0)
        (s, nodes), walked = expansions(simulate._sphere_block, *mirrored)
        (s_ref, nodes_ref), sorted_ = expansions(reference_sphere_block, *block)
        assert s.tobytes() == s_ref.tobytes()
        assert nodes == nodes_ref
        assert walked == sorted_

    @pytest.mark.parametrize("r", [0.75, -0.75, 2.0**-30, -4.0])
    def test_a_cross_side_tie_takes_the_lower_index(self, r):
        # t = 0 lies exactly between the centres of -1 and 1, and of -3 and
        # 3: the stable sort takes -1 before 1 and -3 before 3.
        values = np.array([-3.0, -1.0, 1.0, 3.0])
        expected = stable_sort_order(r, 0.0, values)
        assert expected == [-1.0, 1.0, -3.0, 3.0]
        assert top_level_order(reference_sphere_block, r, 0.0, values) == expected
        assert top_level_order(simulate._sphere_block, r, 0.0, values) == expected

    @pytest.mark.parametrize("r", [0.75, -0.75, 1.0, -1.0])
    @pytest.mark.parametrize("values", [(-3.0, -1.0, 1.0, 3.0), (-5.0, -1.0, 1.0, 5.0)])
    def test_a_same_side_tie_follows_the_stable_sort(self, r, values):
        # At t = 2^55 R_11 the centres all lie on one side of t, and the
        # rounding merges their differences from t, so distances tie.  A walk
        # outward from t would meet the tied children from the far end, in
        # descending alphabet order; the stable sort takes them ascending.
        values = np.array(values)
        t = 2.0**55 * r
        expected = stable_sort_order(r, t, values)
        assert expected != values[::-1].tolist()
        assert top_level_order(reference_sphere_block, r, t, values) == expected
        assert top_level_order(simulate._sphere_block, r, t, values) == expected


def per_block_qr_decode(Y, H, basis, alphabet, ordering=None):
    """sphere_decode as it was when every block of a split R was factorised
    again from its own columns of B_H."""
    k = basis.k
    order = _check_ordering(ordering, k)
    values = np.array(alphabet.values, dtype=float)
    B, y = simulate._real_model(Y, H, basis, alphabet, order)
    R, z, zero_mask, rank_deficient = _factor(B, y)
    if rank_deficient:
        raise ValueError("rank-deficient equivalent channel")
    blocks = _r_blocks(zero_mask)
    s_hat = np.zeros(k)
    total_nodes = 0
    for comp in blocks:
        block = list(_mask_to_indices(comp))
        if len(blocks) > 1:
            R, z, _, _ = _factor(B[:, block], y)
        lex_perm = np.argsort([order[p] for p in block])
        s_hat[block], nodes = simulate._sphere_block(R, z.tolist(), values, lex_perm)
        total_nodes += nodes
    resid = y - B @ s_hat
    return DecodeResult(
        coeffs=tuple(s_hat[np.argsort(order)].astype(int).tolist()),
        metric=float(resid @ resid),
        nodes_visited=total_nodes,
    )


class TestOneFactorisation:
    """Every block of a split R is read off the one QR of B_H, with the
    decisions, metric bits and node counts of a QR per block."""

    @pytest.mark.parametrize(
        "name, size, ordered",
        [
            ("alamouti", 2, False),
            ("alamouti", 4, False),
            ("mimo_relay", 2, True),
            ("mimo_relay", 2, False),
        ],
    )
    def test_matches_a_qr_per_block(self, name, size, ordered):
        basis, alphabet = code(name), pam(size)
        ordering = classify(basis).ordering if ordered else None
        cfg = default_config(basis, (), 1, 0)
        for snr in (0.0, 10.0, 20.0):
            sigma_n = calibrate_noise(basis, alphabet, cfg, snr, samples=20_000)
            for t in range(100):
                H, _, Y = noisy_trial(basis, alphabet, cfg, sigma_n, [5, int(snr), t])
                assert len(_r_blocks(r_matrix(basis, H, ordering).zero_mask)) > 1
                a = sphere_decode(Y, H, basis, alphabet, ordering)
                b = per_block_qr_decode(Y, H, basis, alphabet, ordering)
                assert a.coeffs == b.coeffs
                assert a.metric.hex() == b.metric.hex()
                assert a.nodes_visited == b.nodes_visited

    @pytest.mark.parametrize("name", ["alamouti", "golden", "mimo_relay"])
    def test_one_qr_per_decode(self, name, monkeypatch):
        basis = code(name)
        cfg = default_config(basis, (10.0,), 1, 0)
        H, _, Y = noisy_trial(basis, pam(2), cfg, 0.3, [6, 0, 0])
        calls = []
        real = np.linalg.qr

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        sphere_decode(Y, H, basis, pam(2))
        assert calls == [(2 * cfg.n_r * basis.T, basis.k)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def one_trial_stages(Y, H, basis, order):
    """B_H, iota(Y), R and Q^T y of one trial as sphere_decode formed them
    before a campaign stacked its stages: B_H from one vectorize of the
    products H B_i side by side, and one raw QR whose rows with a negative
    diagonal entry are negated in R and in Q^T y."""
    HB = H @ basis.mats[list(order)]
    side_by_side = HB.transpose(1, 0, 2).reshape(HB.shape[1], -1)
    B = np.ascontiguousarray(vectorize(side_by_side).reshape(len(HB), -1).T)
    y = vectorize(Y)
    Q, R = np.linalg.qr(B, mode="reduced")
    sign = np.where(np.diag(R) < 0, -1.0, 1.0)
    return B, y, sign[:, None] * R, sign * (Q.T @ y)


def one_trial_decode(Y, H, basis, alphabet, order):
    """sphere_decode on one_trial_stages, each block cut out of R with np.ix_."""
    B, y, R, z = one_trial_stages(Y, H, basis, order)
    comps = decodability._graph(basis)[1]
    comp_at = np.array([next(c for c, m in enumerate(comps) if m >> s & 1) for s in order])
    blocks = [np.flatnonzero(comp_at == c) for c in dict.fromkeys(comp_at.tolist())]
    values = np.array(sorted(alphabet.values), dtype=float)
    s_hat = np.zeros(basis.k)
    total_nodes = 0
    for block in blocks:
        R_b = R[np.ix_(block, block)] if len(blocks) > 1 else R
        lex_perm = np.argsort([order[p] for p in block])
        s_hat[block], nodes = simulate._sphere_block(R_b, z[block].tolist(), values, lex_perm)
        total_nodes += nodes
    resid = y - B @ s_hat
    return DecodeResult(
        coeffs=tuple(s_hat[np.argsort(order)].astype(int).tolist()),
        metric=float(resid @ resid),
        nodes_visited=total_nodes,
    )


@pytest.mark.blas_bits
class TestStackedStages:
    """A campaign forms the stages of a block of trials in stacked calls;
    every trial gets the bits of the one-trial stages, and the same
    decisions, metric bits and node counts as the one-trial decoder."""

    @pytest.mark.parametrize("name", sorted(codebook.REGISTRY))
    def test_match_the_one_trial_stages(self, name):
        basis, alphabet = code(name), pam(2)
        plan = simulate._plan(basis, classify(basis).ordering)
        cfg = default_config(basis, (), 1, 0)
        draws = [noisy_trial(basis, alphabet, cfg, 0.3, [17, t]) for t in range(200)]
        H = np.stack([h for h, _, _ in draws])
        Y = np.stack([y for _, _, y in draws])
        B, y = simulate._real_model(Y, H, basis, alphabet, plan.order)
        R, z, zero_mask, deficient = _factor(B, y)
        assert B.flags.c_contiguous
        for t in range(len(draws)):
            B1, y1 = simulate._real_model(Y[t], H[t], basis, alphabet, plan.order)
            R1, z1, zero_mask1, deficient1 = _factor(B1, y1)
            ref_B, ref_y, ref_R, ref_z = one_trial_stages(Y[t], H[t], basis, plan.order)
            assert B1.flags.c_contiguous
            assert same_bits(B[t], B1) and same_bits(B1, ref_B)
            assert same_bits(y[t], y1) and same_bits(y1, ref_y)
            assert same_bits(R[t], R1) and same_bits(R1, ref_R)
            assert same_bits(z[t], z1) and same_bits(z1, ref_z)
            assert same_bits(zero_mask[t], zero_mask1) and deficient[t] == deficient1
        if name == "iterated":  # its real span is deficient: so is every channel
            assert deficient.all()
            with pytest.raises(ValueError, match="rank-deficient"):
                simulate._sphere_stages(Y, H, basis, alphabet, plan)
            with pytest.raises(ValueError, match="rank-deficient"):
                sphere_decode(Y[0], H[0], basis, alphabet, plan.order)
            return
        _, _, R_blocks, z_blocks = simulate._sphere_stages(Y, H, basis, alphabet, plan)
        values = np.array(alphabet.values, dtype=float)
        for t in range(len(draws)):
            B1, y1, R1_blocks, z1_blocks = simulate._sphere_stages(
                Y[t], H[t], basis, alphabet, plan
            )
            _, _, ref_R, ref_z = one_trial_stages(Y[t], H[t], basis, plan.order)
            for (block, _), R_b, z_b, R1_b, z1_b in zip(
                plan.blocks, R_blocks, z_blocks, R1_blocks, z1_blocks
            ):
                assert same_bits(R_b[t], R1_b) and same_bits(R1_b, ref_R[np.ix_(block, block)])
                assert same_bits(z_b[t], z1_b) and same_bits(z1_b, ref_z[block])
            s_hat, coeffs, nodes = simulate._sphere_search(
                [R_b[t] for R_b in R_blocks], [z_b[t] for z_b in z_blocks], values, plan
            )
            resid = y[t] - B[t] @ s_hat
            stacked = (coeffs, float(resid @ resid).hex(), nodes)
            one = sphere_decode(Y[t], H[t], basis, alphabet, plan.order)
            ref = one_trial_decode(Y[t], H[t], basis, alphabet, plan.order)
            assert stacked == (one.coeffs, one.metric.hex(), one.nodes_visited)
            assert stacked == (ref.coeffs, ref.metric.hex(), ref.nodes_visited)


def perturbed_alamouti(eps):
    """Alamouti with eps * B_0 added to B_1: only weights 0 and 1 couple,
    with a coupling of relative size about eps."""
    mats = list(code("alamouti").mats)
    mats[1] = mats[1] + eps * mats[0]
    return WeightBasis(f"alamouti+{eps:g}*B_0", mats)


class TestOneOrthogonalityVerdict:
    """The weights' orthogonality graph is both classify's groups and
    sphere_decode's split.  Couplings near TOL = 1e-9 are too close to call
    and are left out."""

    @pytest.mark.parametrize("eps", [1e-11, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3])
    def test_groups_are_the_decoders_blocks(self, eps):
        basis, alphabet = perturbed_alamouti(eps), pam(4)
        groups = classify(basis).groups
        cfg = default_config(basis, (), 1, 0)
        for t in range(50):
            H, _, Y = noisy_trial(basis, alphabet, cfg, 0.5, [11, 0, t])
            blocks = _r_blocks(r_matrix(basis, H).zero_mask)
            assert tuple(_mask_to_indices(m) for m in blocks) == groups
            ml = ml_exhaustive(Y, H, basis, alphabet)
            assert sphere_decode(Y, H, basis, alphabet).coeffs == ml.coeffs

    def test_a_plan_that_drops_a_coupling_is_refused(self, monkeypatch):
        basis, alphabet = perturbed_alamouti(1e-3), pam(2)
        H, _, Y = noisy_trial(basis, alphabet, default_config(basis, (), 1, 0), 0.3, [6, 0, 0])
        sphere_decode(Y, H, basis, alphabet)
        singletons = tuple(1 << i for i in range(basis.k))
        monkeypatch.setattr(simulate, "_graph", lambda b: (None, singletons))
        # A fresh basis: the first one keeps the plan of its own graph.
        with pytest.raises(ValueError, match="couples"):
            sphere_decode(Y, H, perturbed_alamouti(1e-3), alphabet)

    @pytest.mark.parametrize("name", ["alamouti", "golden"])
    def test_one_graph_per_basis_per_campaign(self, name, monkeypatch):
        basis = codebook.build(name)  # no orthogonality graph kept on it yet
        calls = []
        real = decodability.hurwitz_radon

        def spy(b):
            calls.append(b is basis)
            return real(b)

        monkeypatch.setattr(decodability, "hurwitz_radon", spy)
        cfg = default_config(basis, (0.0, 10.0), trials=5, seed=1)
        run_campaign(basis, pam(2), cfg, decoder="sphere")
        assert calls == [True]


class TestDecodePlan:
    def test_built_once_per_basis_and_ordering(self, monkeypatch):
        basis, alphabet = codebook.build("golden"), pam(4)  # no plan kept on it yet
        ordering = list(reversed(range(basis.k)))
        cfg = default_config(basis, (), 1, 0)
        builds = []
        real = simulate._build_plan

        def spy(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(simulate, "_build_plan", spy)
        for t in range(50):
            H, _, Y = noisy_trial(basis, alphabet, cfg, 0.3, [13, 0, t])
            sphere_decode(Y, H, basis, alphabet, ordering)
        assert len(builds) == 1
        # The ordering is still validated on every call.
        with pytest.raises(ValueError, match="permutation"):
            sphere_decode(Y, H, basis, alphabet, [0] * basis.k)
        # Another ordering gets its own plan.
        assert sphere_decode(Y, H, basis, alphabet) == sphere_decode(Y, H, basis, alphabet)
        assert len(builds) == 2


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["H", "Y"])
    def test_decoders_reject(self, where, bad):
        basis = code("alamouti")
        H = draw_channel(default_config(basis, (0.0,), 1, 0), 1)
        Y = H @ basis.combination((1, -1, 1, -1))
        (H if where == "H" else Y)[0, 1] = bad
        for decode in (sphere_decode, ml_exhaustive):
            with pytest.raises(ValueError, match="finite"):
                decode(Y, H, basis, pam(2))

    def test_decoders_reject_mismatched_channel(self):
        basis = code("alamouti")
        for decode in (sphere_decode, ml_exhaustive):
            with pytest.raises(ValueError, match="columns"):
                decode(np.zeros((2, 2)), np.eye(2, 3), basis, pam(2))


class TestOverflowingInputs:
    @pytest.mark.parametrize("Y, H", [(1e200, 1.0), (1.0, 1e200), (1e155, 1.0)])
    def test_decoders_reject_a_metric_that_would_overflow(self, Y, H):
        basis = code("alamouti")
        Y, H = np.full((1, 2), Y, dtype=complex), np.full((1, 2), H, dtype=complex)
        for decode in (sphere_decode, ml_exhaustive):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="overflow"):
                    decode(Y, H, basis, pam(4))

    def test_large_finite_inputs_below_the_bound_decode(self):
        basis = code("alamouti")
        H = np.ones((1, 2), dtype=complex)
        Y = H @ basis.combination((3, -1, 1, -3))
        for scale in (1e-150, 1e100):
            a = ml_exhaustive(scale * Y, H, basis, pam(4))
            b = sphere_decode(scale * Y, H, basis, pam(4))
            assert a.coeffs == b.coeffs


class TestCampaign:
    def test_zero_trials_gives_empty_table(self):
        basis = code("alamouti")
        cfg = default_config(basis, (0.0, 10.0), trials=0, seed=1)
        camp = run_campaign(basis, pam(2), cfg)
        assert camp.rows == ()
        assert camp.to_csv() == (
            "snr_db,trials,cer_ml,cer_sphere,nodes_mean,nodes_max,seconds\n"
        )

    def test_identical_seeds_identical_csv(self):
        basis = code("alamouti")
        cfg = default_config(basis, (0.0, 20.0), trials=60, seed=5)
        a = run_campaign(basis, pam(2), cfg)
        b = run_campaign(basis, pam(2), cfg)
        assert a.to_csv() == b.to_csv()

    def test_error_rate_falls_with_snr(self):
        basis = code("alamouti")
        cfg = default_config(basis, (0.0, 20.0), trials=300, seed=8)
        camp = run_campaign(basis, pam(2), cfg)
        low, high = camp.rows[0], camp.rows[1]
        assert high[2] < low[2]
        assert high[2] <= 0.02

    def test_single_decoder_leaves_other_column_empty(self):
        basis = code("alamouti")
        cfg = default_config(basis, (10.0,), trials=5, seed=2)
        camp = run_campaign(basis, pam(2), cfg, decoder="ml")
        line = camp.to_csv().splitlines()[1]
        fields = line.split(",")
        assert fields[3] == ""
        assert fields[6] == "0.000"
        assert int(fields[5]) == 2**4

    def test_calibrates_once_per_campaign(self, monkeypatch):
        basis = code("alamouti")
        alphabet = pam(2)
        cfg = default_config(basis, (0.0, 6.0, 12.0), trials=20, seed=4)
        calls = []
        estimate = simulate._mean_signal_power

        def counted(*args):
            calls.append(args)
            return estimate(*args)

        monkeypatch.setattr(simulate, "_mean_signal_power", counted)
        camp = run_campaign(basis, alphabet, cfg)
        assert len(calls) == 1
        ordering = classify(basis).ordering
        rows = []
        for si, snr_db in enumerate(cfg.snr_db_grid):
            sigma_n = calibrate_noise(basis, alphabet, cfg, snr_db)
            err_ml = err_sp = 0
            nodes = []
            for t in range(cfg.trials):
                H, s, Y = noisy_trial(basis, alphabet, cfg, sigma_n, [cfg.seed, si, t])
                truth = tuple(int(v) for v in s)
                err_ml += ml_exhaustive(Y, H, basis, alphabet).coeffs != truth
                res = sphere_decode(Y, H, basis, alphabet, ordering)
                err_sp += res.coeffs != truth
                nodes.append(res.nodes_visited)
            rows.append((snr_db, cfg.trials, err_ml / cfg.trials,
                         err_sp / cfg.trials, float(np.mean(nodes)), max(nodes)))
        assert camp.rows == tuple(rows)

    @pytest.mark.parametrize(
        "name, decoder, snr_db, trials, csv",
        [
            pytest.param(
                "srinath_rajan", "sphere", 10.0, 40,
                "snr_db,trials,cer_ml,cer_sphere,nodes_mean,nodes_max,seconds\n"
                "10.00,40,,0.900000,3870.300,46168,0.000\n",
                id="srinath_rajan",
            ),
            pytest.param(
                "mido_a4", "sphere", 10.0, 40,
                "snr_db,trials,cer_ml,cer_sphere,nodes_mean,nodes_max,seconds\n"
                "10.00,40,,0.875000,9245.400,137188,0.000\n",
                id="mido_a4",
            ),
            pytest.param(
                "silver", "sphere", 20.0, 10,
                "snr_db,trials,cer_ml,cer_sphere,nodes_mean,nodes_max,seconds\n"
                "20.00,10,,0.000000,51.200,156,0.000\n",
                id="silver",
            ),
            pytest.param(
                "golden", "both", 20.0, 10,
                "snr_db,trials,cer_ml,cer_sphere,nodes_mean,nodes_max,seconds\n"
                "20.00,10,0.000000,0.000000,56.800,164,0.000\n",
                id="golden",
            ),
        ],
    )
    @pytest.mark.blas_bits
    def test_pins_the_search_tree(self, name, decoder, snr_db, trials, csv):
        # Node counts are part of the CSV: a faster search must visit the
        # same tree.  Seed 0 and the default 100k calibration samples.
        basis = code(name)
        cfg = default_config(basis, (snr_db,), trials=trials, seed=0)
        assert run_campaign(basis, pam(4), cfg, decoder=decoder).to_csv() == csv

    @pytest.mark.parametrize(
        "name, alphabet, decoder, snrs, seed, digest",
        [
            pytest.param(
                "golden", 4, "both", (0, 10, 20), 0,
                "23d93fee3a4f83bba513bf16dc6d7816228db0596d3bd36f361dc1c039984dd7",
                id="golden-seed0",
            ),
            pytest.param(
                "alamouti", 4, "both", (0, 10, 20), 0,
                "64f91eaf4f93565a7c8f4e50a8047b24c08eb7e3b529e88c59312ceab4f97d27",
                id="alamouti-seed0",
            ),
            pytest.param(
                "silver", 4, "sphere", (0, 20), 0,
                "d3bc86a90661cd89c99fcfde7c4d57a26c59b5888c4571de15834e3316ceda66",
                id="silver-seed0",
            ),
            pytest.param(
                "mimo_relay", 2, "sphere", (0, 10, 20), 0,
                "bb2cacc3ca259e75d4c8acf0f09faf9feb9453725c0f3cb07288c4b20af0dd06",
                id="mimo_relay-seed0",
            ),
            pytest.param(
                "srinath_rajan", 4, "sphere", (10,), 0,
                "235bad66d36336d8fed18ff0e6cb6d3e952c98c227243b380954ca04a997b9bb",
                id="srinath_rajan-seed0",
            ),
            pytest.param(
                "mido_a4", 4, "sphere", (10,), 0,
                "53d0a9c88c124561445405c3e158988077d274ecbe8bd6c4c5d6db12bd9235ed",
                id="mido_a4-seed0",
            ),
            pytest.param(
                "golden", 4, "both", (0, 10, 20), 3,
                "36b00ad95a0c3349cb2a9ec385e32fc0beee3474706bbe9a62b2d88401a6b7f2",
                id="golden-seed3",
            ),
            pytest.param(
                "alamouti", 4, "both", (0, 10, 20), 3,
                "832bdad3a24462a5aac6078a8fcb4899a19cdf75f010c86841e791acbc084190",
                id="alamouti-seed3",
            ),
            pytest.param(
                "silver", 4, "sphere", (0, 20), 3,
                "facf2ca1c830c2d655f052495fbc46985cb916ea40d009aa15a7484fefcb9135",
                id="silver-seed3",
            ),
            pytest.param(
                "mimo_relay", 2, "sphere", (0, 10, 20), 3,
                "63bf3abd8c03f9ca93532d3c5cd4c3c30baef241e0abee07399cd0f46093521f",
                id="mimo_relay-seed3",
            ),
            pytest.param(
                "srinath_rajan", 4, "sphere", (10,), 3,
                "652bd6c58ee38ea2400c2506c20396addfd9974f9d1001db3528625e826a0e55",
                id="srinath_rajan-seed3",
            ),
            pytest.param(
                "mido_a4", 4, "sphere", (10,), 3,
                "ccc7d61bebfa9f37b4c5a5cc34596ddcac276f92f45494841f18a01dfdf51290",
                id="mido_a4-seed3",
            ),
        ],
    )
    @pytest.mark.blas_bits
    def test_pins_the_campaign_bytes(self, name, alphabet, decoder, snrs, seed, digest):
        # The campaign table in CHANGES.md: 30 trials a point and the
        # default 100k calibration samples.
        basis = code(name)
        cfg = default_config(basis, snrs, trials=30, seed=seed)
        csv = run_campaign(basis, pam(alphabet), cfg, decoder=decoder).to_csv()
        assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == digest

    # SHA-256 of the 200 codewords per code, under OpenBLAS's SkylakeX,
    # Haswell, Prescott and SandyBridge kernels: a codeword is the one-row
    # real product of lattice._codewords, whose last bits depend on the
    # kernel (see ROADMAP).
    CODEWORD_DIGESTS = {
        "alamouti": ("d1afebea328d1d977e6393caa0a3fab99c0a007f69229ed0bdbee9a4ead650e0",),
        "golden": ("12b7692a6d3dd0700cb0e6f6b5da16daab4b034c8880c65ed62898bdaec259b8",),
        "iterated": (
            "29d0d90ef2d8e487e88dd0175205f02877e03424b84a801da664e2d3dc5cdf12",  # SkylakeX
            "bfdd04d413c9c0c5fe392ac1c2197fec411011305b5f53f01bf1c6b7a6340fc6",  # Haswell
            "2ac3656557513f7a527d39aaa256b5e1e522dbbd1048e0d455d960b59cabb07d",  # Prescott, SandyBridge
        ),
        "mido_a4": (
            "924efc47360b68cf7e32233bf71f60fa2d15f492399b029977336c0c6ebff1de",  # SkylakeX
            "ad57a899823b058617014e6dda9618ded32cf240319db2dcebec3d163eb699ba",  # Haswell
            "a1e65f74444102630cbcbc518d0e2e2011ab9e45b88f130ff44d79377af84ca0",  # Prescott, SandyBridge
        ),
        "mimo_relay": (
            "308025689ce4782f2ee222574e1632c1eabc1cb435b440a0eb9b5fc4afef935a",  # SkylakeX
            "a30dbe6354243568c6bb1074d93c71dfd6606ef6a575852db5b2749516cc9479",  # Haswell
            "6a993728fa742e75012bc8c41a67cb37c4ac0039eae2f70e52eca399ac209a69",  # Prescott, SandyBridge
        ),
        "silver": (
            "e7de486f4737a06b7ae4d3803c2a55ec03a88bf8d58ea55a88aecbe82106d7b5",  # SkylakeX
            "1d682cb8b3b4d7cb156dcb87c6e823c34289b3b104c394ef25fe1478af47eecd",  # Haswell
            "51353a72caa9f9e9c28d4e5513470e03a23eca851497232fe2160147a1bbb245",  # Prescott, SandyBridge
        ),
        "simo_relay": (
            "369317a0b9b33144869b403ec5c38cdcee9bc3fe00ccee2deadfea4e4a5aca09",  # SkylakeX
            "2ac22170e344dc0c42e9e0d48892cfbb9ff15b3efcaaf85fa32ac3d8c91f7e14",  # Haswell
            "1a1740bca555b8485e6212f07c5e77c6e747f87ff00a1ecfea838bd11d931928",  # Prescott, SandyBridge
        ),
        "srinath_rajan": (
            "77615722c1ff8f414ea5049a1b7a6d9f1b8d287f322c939c7f954c97e474930e",  # SkylakeX
            "ff68ca489033f2554fb7603d211d0c9a7c122359b483e07ee925bb7e2f589d94",  # Haswell
            "8bb1b87ee4eff794d8aed0b21f862fe54c1d677d5054c8703e792396259e96d3",  # Prescott, SandyBridge
        ),
    }

    @pytest.mark.parametrize("name", sorted(codebook.REGISTRY))
    @pytest.mark.blas_bits
    def test_pins_the_codeword_bits(self, name, monkeypatch):
        # Decisions and node counts can hide a codeword's last bits: one
        # stacked product of a block's rows moves X on silver, mido_a4,
        # simo_relay, mimo_relay and iterated, yet keeps every campaign
        # CSV.  So the 200 codewords basis.combination(s) of the PAM-4
        # stream [0, 0, trial] are pinned, and the noiseless received
        # blocks that the campaign forms for its first block of trials must
        # be H X with those X, bit for bit, under any kernel.
        basis = code(name)
        values = np.array(sorted(pam(4).values), dtype=int)
        cfg = default_config(basis, (np.inf,), trials=200, seed=0)
        H, X = [], []
        for trial in range(cfg.trials):
            rng = np.random.default_rng([cfg.seed, 0, trial])
            H.append(draw_channel(cfg, rng))
            X.append(basis.combination(rng.choice(values, size=basis.k)))
        digest = hashlib.sha256(b"".join(x.tobytes() for x in X)).hexdigest()
        assert digest in self.CODEWORD_DIGESTS[name]
        received = []

        def capture(Y, *args):
            received.append(np.array(Y))
            raise _FirstBlockSeen

        monkeypatch.setattr(simulate, "_real_model", capture)
        with pytest.raises(_FirstBlockSeen):
            run_campaign(basis, pam(4), cfg, decoder="sphere")
        (Y,) = received
        n = len(Y)
        assert same_bits(Y, np.stack(H[:n]) @ np.stack(X[:n]))

    @pytest.mark.parametrize("decoder", ["ml", "both"])
    def test_ml_guard_fails_before_calibrating(self, decoder, monkeypatch):
        basis = code("mimo_relay")  # 4^24 grid points
        cfg = default_config(basis, (10.0,), trials=5, seed=0)
        calls = []
        estimate = simulate._mean_signal_power

        def counted(*args):
            calls.append(args)
            return estimate(*args)

        monkeypatch.setattr(simulate, "_mean_signal_power", counted)
        with pytest.raises(ValueError, match="2\\^24 guard"):
            run_campaign(basis, pam(4), cfg, decoder=decoder)
        assert calls == []

    def test_one_qr_per_block_of_trials(self, monkeypatch):
        basis = code("mimo_relay")
        cfg = default_config(basis, (0.0, 10.0), trials=60, seed=0)
        calls = []
        real = np.linalg.qr

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        run_campaign(basis, pam(2), cfg, decoder="sphere")
        # A block holds about _BLOCK_BYTES of B_H, Q and R: 8 k (2 dim + k)
        # bytes a trial, 37 trials for mimo_relay.
        dim = 2 * cfg.n_r * basis.T
        per_block = lattice._BLOCK_BYTES // (8 * basis.k * (2 * dim + basis.k))
        assert 1 < per_block < cfg.trials
        blocks = [(per_block, dim, basis.k), (cfg.trials - per_block, dim, basis.k)]
        assert calls == blocks * len(cfg.snr_db_grid)

    def test_rejects_unknown_decoder(self):
        basis = code("alamouti")
        cfg = default_config(basis, (0.0,), trials=1, seed=0)
        with pytest.raises(ValueError, match="decoder"):
            run_campaign(basis, pam(2), cfg, decoder="turbo")
