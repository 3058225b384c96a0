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
from hypothesis import assume, given
from hypothesis import strategies as st

from stlattice import codebook, decodability, lattice, simulate
from stlattice.decodability import (
    SIGMA_H,
    _check_ordering,
    _mask_to_indices,
    _r_blocks,
    _thresholded_r,
    classify,
    r_matrix,
)
from stlattice.lattice import WeightBasis, _mixed_radix, vectorize
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
        assert Alphabet((2.0, -2.0)).values == (2, -2)

    def test_pam_size_follows_the_same_rule(self):
        # the CLI parses the size with float(), so pam sees 4.0 or 2.5
        assert pam(4.0) == pam(4)
        with pytest.raises(ValueError, match="PAM size"):
            pam(2.5)


class TestChannelConfig:
    def test_rejects_short_coherence(self):
        with pytest.raises(ValueError, match="static"):
            ChannelConfig(n_t=2, n_r=1, T=1, snr_db_grid=(0,), trials=1, seed=0)

    def test_rejects_negative_trials(self):
        with pytest.raises(ValueError, match="negative"):
            ChannelConfig(n_t=2, n_r=1, T=2, snr_db_grid=(0,), trials=-1, seed=0)

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
        with pytest.raises(ValueError, match="10"):
            run_campaign(basis, pam(2), cfg, calibration_samples=100)

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
            run_campaign(basis, pam(4), cfg, calibration_samples=20_000)

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

    @pytest.mark.parametrize("name", sorted(codebook.REGISTRY))
    def test_real_einsum_keeps_every_bit(self, name):
        basis = code(name)
        for size in (2, 4):
            for seed in (0, 3, 7):
                cfg = default_config(basis, (0.0,), 1, seed)
                got = simulate._mean_signal_power(basis, pam(size), cfg, 10_000)
                want = _complex_einsum_signal_power(basis, pam(size), cfg, 10_000)
                assert got.hex() == want.hex(), (size, seed)


    @pytest.mark.parametrize("size", [2, 4, 8])
    @pytest.mark.parametrize("name", sorted(codebook.REGISTRY))
    def test_blocks_keep_the_bits_of_the_dense_einsum(self, name, size):
        basis = code(name)
        for seed in (0, 5):
            cfg = default_config(basis, (0.0,), 1, seed)
            got = simulate._mean_signal_power(basis, pam(size), cfg, 10_000)
            want = _real_einsum_signal_power(basis, pam(size), cfg, 10_000)
            assert got.hex() == want.hex(), seed

    @pytest.mark.parametrize("name", ["golden", "mimo_relay"])
    def test_blocks_keep_the_bits_over_several_chunks(self, name):
        basis = code(name)
        cfg = default_config(basis, (0.0,), 1, 2)
        got = simulate._mean_signal_power(basis, pam(4), cfg, 45_001)
        want = _real_einsum_signal_power(basis, pam(4), cfg, 45_001)
        assert got.hex() == want.hex()

    def test_mimo_relay_calibration_memory(self):
        # The dense einsum held two 20,000 x 288 codeword chunks at once, a
        # traced peak of 95.9 MiB; one block of 512 codewords is 1.2 MB.
        # With one chunk's symbols (3.7 MiB), channels (3.7 MiB) and powers
        # (1.8 MiB) held at a time, the peak is 12.6 MiB; holding the last
        # chunk while the next is drawn, or building the channels through
        # complex temporaries, took it to 18.5 MiB.
        basis = code("mimo_relay")
        cfg = default_config(basis, (10.0,), 1, 0)
        tracemalloc.start()
        try:
            calibrate_noise(basis, pam(2), cfg, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * 2**20


@st.composite
def codeword_problems(draw):
    """A random stack with a random zero pattern and weights across 2^+-20,
    and symbols from a random alphabet, up to three blocks of them."""
    k, n_t, T = draw(st.integers(1, 12)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]))
    shape = (k, 2 * n_t * T)
    flat = rng.normal(size=shape) * 2.0 ** rng.integers(-20, 21, shape)
    flat[rng.random(shape) >= density] = 0.0
    alphabet = draw(st.sampled_from(ALPHABETS + (pam(8), Alphabet((-7, -1, 0, 1, 7)))))
    n = draw(st.integers(1, 3 * simulate._BLOCK))
    s = rng.choice(np.array(alphabet.values, dtype=float), size=(n, k))
    return s, flat.view(complex).reshape(k, n_t, T)


class TestCodewordBlocks:
    @given(codeword_problems())
    def test_equals_the_plain_loop_bit_for_bit(self, problem):
        s, stack = problem
        flat = stack.view(float).reshape(len(stack), -1)
        want = np.zeros((len(s), flat.shape[1]))
        for k in range(len(flat)):
            want = want + s[:, k, None] * flat[k]
        got, end = [], 0
        for rows, X in simulate._codeword_blocks(s, stack):
            assert rows.start == end and X.shape == (rows.stop - end,) + stack.shape[1:]
            got.append(X.view(float).reshape(len(X), -1).copy())
            end = rows.stop
        assert end == len(s)
        assert np.concatenate(got).tobytes() == want.tobytes()


def _real_einsum_signal_power(basis, alphabet, cfg, samples):
    """_mean_signal_power as it was, with one dense real einsum per chunk."""
    values = np.array(sorted(alphabet.values), dtype=float)
    rng = np.random.default_rng([cfg.seed, simulate._CALIBRATION_STREAM])
    flat = basis._stack.view(float).reshape(basis.k, -1)
    total = 0.0
    for done in range(0, samples, 20_000):
        n = min(20_000, samples - done)
        s = rng.choice(values, size=(n, basis.k))
        X = np.einsum("sk,ke->se", s, flat).view(complex).reshape(n, basis.n_t, basis.T)
        shape = (n, cfg.n_r, cfg.n_t)
        H = SIGMA_H * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        total += float(np.sum(np.abs(H @ X) ** 2))
    return total / samples


def _complex_einsum_signal_power(basis, alphabet, cfg, samples):
    """_mean_signal_power as it was, with a complex einsum for the codewords."""
    values = np.array(sorted(alphabet.values), dtype=float)
    rng = np.random.default_rng([cfg.seed, simulate._CALIBRATION_STREAM])
    total = 0.0
    for done in range(0, samples, 20_000):
        n = min(20_000, samples - done)
        s = rng.choice(values, size=(n, basis.k))
        X = np.einsum("sk,kij->sij", s, basis._stack)
        Hr = rng.normal(size=(n, cfg.n_r, cfg.n_t))
        Hi = rng.normal(size=(n, cfg.n_r, cfg.n_t))
        H = SIGMA_H * (Hr + 1j * Hi)
        total += float(np.sum(np.abs(H @ X) ** 2))
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
        assert peak < 50e6

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
    values, B, y = simulate._real_model(Y, H, basis, alphabet, range(basis.k))
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


class TestMLMatchesGrid:
    """The split-digit search returns the direct grid's coefficients
    exactly; its metric sums in another order, so it is held to 1e-12."""

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
        # 3^10 grid points: 3^8 = 6561 trailing rows, which do not divide
        # 2^14, so the nine leading rows go in blocks of 2, 2, 2, 2 and 1.
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


def left_to_right_metric(Y, H, basis, alphabet, coeffs):
    """The metric of one grid row, summed in Python one real dimension at a
    time, from residuals and lo products formed as ml_exhaustive forms them:
    the hi rows' block through the enumerator, and the whole lo table."""
    values, B, y = simulate._real_model(Y, H, basis, alphabet, range(basis.k))
    L, k = len(values), basis.k
    m = simulate._table_width(L, k, simulate._CHUNK)
    per_block = simulate._CHUNK // L**m
    index = 0
    for c in coeffs:
        index = index * L + list(values).index(c)
    hi, lo = divmod(index, L**m)
    blocks = list(_mixed_radix(values, k - m, 0, L ** (k - m), per_block))
    r = (y - blocks[hi // per_block] @ B[:, : k - m].T)[hi % per_block]
    S_lo = next(_mixed_radix(values, m, 0, L**m, L**m))
    p = (B[:, k - m :] @ S_lo.T)[:, lo]
    metric = 0.0
    for ri, pi in zip(r.tolist(), p.tolist()):
        metric += (ri - pi) * (ri - pi)
    return metric


class TestMLMetric:
    """The reported metric is the sum of squares of the winner's residual
    entries, added left to right with no fused multiply-add, so its bits
    do not depend on the machine's SIMD width."""

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
        # 3^10 grid points in blocks of two hi rows and a last one
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
    """One block's R (upper triangular, k <= 5, diagonal entries of both
    signs), Q^T y, sorted alphabet and lexicographic order, R and Q^T y
    scaled by 2^e with |e| <= 40.  Gaussian R with noisy, zero or far
    (|z_l| from 2^45 to 2^60 |R_ll|; past about 2^50 the rounding merges
    distances) Q^T y;
    or integer R with Q^T y at exact midpoints of the lattice, where the
    distances tie across t."""
    values = np.array(draw(st.sampled_from(WALK_ALPHABETS)), dtype=float)
    kc = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("noisy", "zero", "far", "integer_midpoint")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signs = rng.choice([-1.0, 1.0], kc)
    if kind == "integer_midpoint":
        R = np.triu(rng.integers(-2, 3, (kc, kc))).astype(float)
        R[np.diag_indices(kc)] = signs * rng.integers(1, 3, kc)
        z = R @ (rng.choice(values, kc) + rng.choice(values, kc)) / 2
    else:
        R = np.triu(rng.normal(size=(kc, kc)))
        R[np.diag_indices(kc)] = signs * (0.1 + np.abs(rng.normal(size=kc)))
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
    values, B, y = simulate._real_model(Y, H, basis, alphabet, order)
    Q, R = np.linalg.qr(B, mode="reduced")
    _, zero_mask, rank_deficient = _thresholded_r(R)
    if rank_deficient:
        raise ValueError("rank-deficient equivalent channel")
    blocks = _r_blocks(zero_mask)
    s_hat = np.zeros(k)
    total_nodes = 0
    for comp in blocks:
        block = list(_mask_to_indices(comp))
        if len(blocks) > 1:
            Q, R = np.linalg.qr(B[:, block], mode="reduced")
        lex_perm = np.argsort([order[p] for p in block])
        s_hat[block], nodes = simulate._sphere_block(R, (Q.T @ y).tolist(), values, lex_perm)
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
    """B_H, iota(Y), Q, R and Q^T y of one trial as sphere_decode formed them
    before a campaign stacked its stages: B_H from one vectorize of the
    products H B_i side by side."""
    HB = H @ basis._stack[list(order)]
    side_by_side = HB.transpose(1, 0, 2).reshape(HB.shape[1], -1)
    B = np.ascontiguousarray(vectorize(side_by_side).reshape(len(HB), -1).T)
    y = vectorize(Y)
    Q, R = np.linalg.qr(B, mode="reduced")
    return B, y, Q, R, Q.T @ y


def one_trial_decode(Y, H, basis, alphabet, order):
    """sphere_decode on one_trial_stages, each block cut out of R with np.ix_."""
    B, y, _, R, z = one_trial_stages(Y, H, basis, order)
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
        values, B, y = simulate._real_model(Y, H, basis, alphabet, plan.order)
        Q, R = np.linalg.qr(B, mode="reduced")
        _, zero_mask, deficient = _thresholded_r(R)
        assert B.flags.c_contiguous
        for t in range(len(draws)):
            _, B1, y1 = simulate._real_model(Y[t], H[t], basis, alphabet, plan.order)
            Q1, R1 = np.linalg.qr(B1, mode="reduced")
            _, zero_mask1, deficient1 = _thresholded_r(R1)
            ref_B, ref_y, _, _, ref_z = one_trial_stages(Y[t], H[t], basis, plan.order)
            assert B1.flags.c_contiguous
            assert same_bits(B[t], B1) and same_bits(B1, ref_B)
            assert same_bits(y[t], y1) and same_bits(y1, ref_y)
            assert same_bits(Q[t], Q1) and same_bits(R[t], R1)
            assert same_bits(zero_mask[t], zero_mask1) and deficient[t] == deficient1
        if name == "iterated":  # its real span is deficient: so is every channel
            assert deficient.all()
            with pytest.raises(ValueError, match="rank-deficient"):
                simulate._sphere_stages(Y, H, basis, alphabet, plan)
            with pytest.raises(ValueError, match="rank-deficient"):
                sphere_decode(Y[0], H[0], basis, alphabet, plan.order)
            return
        _, _, _, R_blocks, z_blocks = simulate._sphere_stages(Y, H, basis, alphabet, plan)
        for t in range(len(draws)):
            _, B1, y1, R1_blocks, z1_blocks = simulate._sphere_stages(
                Y[t], H[t], basis, alphabet, plan
            )
            _, _, _, ref_R, ref_z = one_trial_stages(Y[t], H[t], basis, plan.order)
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
        with pytest.raises(ValueError, match="couples"):
            sphere_decode(Y, H, basis, alphabet)

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
        run_campaign(basis, pam(2), cfg, decoder="sphere", calibration_samples=10_000)
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
        a = run_campaign(basis, pam(2), cfg, calibration_samples=10_000)
        b = run_campaign(basis, pam(2), cfg, calibration_samples=10_000)
        assert a.to_csv() == b.to_csv()

    def test_error_rate_falls_with_snr(self):
        basis = code("alamouti")
        cfg = default_config(basis, (0.0, 20.0), trials=300, seed=8)
        camp = run_campaign(basis, pam(2), cfg, calibration_samples=10_000)
        low, high = camp.rows[0], camp.rows[1]
        assert high[2] < low[2]
        assert high[2] <= 0.02

    def test_single_decoder_leaves_other_column_empty(self):
        basis = code("alamouti")
        cfg = default_config(basis, (10.0,), trials=5, seed=2)
        camp = run_campaign(basis, pam(2), cfg, decoder="ml", calibration_samples=10_000)
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
        camp = run_campaign(basis, alphabet, cfg, calibration_samples=10_000)
        assert len(calls) == 1
        ordering = classify(basis).ordering
        rows = []
        for si, snr_db in enumerate(cfg.snr_db_grid):
            sigma_n = calibrate_noise(basis, alphabet, cfg, snr_db, samples=10_000)
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
    def test_pins_the_campaign_bytes(self, name, alphabet, decoder, snrs, seed, digest):
        # The campaign table in CHANGES.md: 30 trials a point and the
        # default 100k calibration samples.
        basis = code(name)
        cfg = default_config(basis, snrs, trials=30, seed=seed)
        csv = run_campaign(basis, pam(alphabet), cfg, decoder=decoder).to_csv()
        assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == digest

    # SHA-256 of the 200 codewords per code, under OpenBLAS's Haswell,
    # Prescott and SandyBridge kernels: a codeword is a complex matrix-vector
    # product, whose last bits depend on the kernel (see ROADMAP).
    CODEWORD_DIGESTS = {
        "alamouti": ("d1afebea328d1d977e6393caa0a3fab99c0a007f69229ed0bdbee9a4ead650e0",),
        "golden": ("12b7692a6d3dd0700cb0e6f6b5da16daab4b034c8880c65ed62898bdaec259b8",),
        "iterated": (
            "1cf6da2ffdcbb41fb710dc621466f0ad62be90b65fea54d1f79043b13f437b44",
            "2ac3656557513f7a527d39aaa256b5e1e522dbbd1048e0d455d960b59cabb07d",
            "5aa63174ac6073cb86a80a263f6fb0e5019c3ef655eedaf129f032518f6fa5e8",
        ),
        "mido_a4": (
            "c2392b1efb221b8b031f9d0555512fe5dc176afe36f5bf838b6986a330c49f41",
            "a1e65f74444102630cbcbc518d0e2e2011ab9e45b88f130ff44d79377af84ca0",
        ),
        "mimo_relay": (
            "b32465fee8e7c95b489cc326b804f73eebca9904ab41d1afa9499e3333cbcd5f",
            "6a993728fa742e75012bc8c41a67cb37c4ac0039eae2f70e52eca399ac209a69",
            "0a9d9cf5bf36b2a7c118e5c4d8787a0961c8ea98d60ac43836c4aa30d6283cac",
        ),
        "silver": (
            "b4f3e07e9fb110497ede9351068f4579699fe196663cb925e7249a5119566348",
            "51353a72caa9f9e9c28d4e5513470e03a23eca851497232fe2160147a1bbb245",
            "07aed6fab8ae0b0f714b00dd665ad1ffa33ff1e797c22181753804a5c5d143e4",
        ),
        "simo_relay": (
            "85eafd59cad03239e53703f551eb504b1d2fc678467c8626218a4d51a6731d76",
            "1a1740bca555b8485e6212f07c5e77c6e747f87ff00a1ecfea838bd11d931928",
            "2ac22170e344dc0c42e9e0d48892cfbb9ff15b3efcaaf85fa32ac3d8c91f7e14",
        ),
        "srinath_rajan": (
            "77615722c1ff8f414ea5049a1b7a6d9f1b8d287f322c939c7f954c97e474930e",
            "8bb1b87ee4eff794d8aed0b21f862fe54c1d677d5054c8703e792396259e96d3",
        ),
    }

    @pytest.mark.parametrize("name", sorted(codebook.REGISTRY))
    def test_pins_the_codeword_bits(self, name, monkeypatch):
        # Decisions and node counts can hide a codeword's last bits: under
        # the Haswell kernel a stacked tensordot (a zgemm) moves X on
        # silver, simo_relay, mimo_relay and iterated, yet keeps every
        # campaign CSV.  So the 200 codewords basis.combination(s) of the
        # PAM-4 stream [0, 0, trial] are pinned, and the noiseless received
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
            run_campaign(basis, pam(4), cfg, decoder="sphere", calibration_samples=10_000)
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
            run_campaign(basis, pam(4), cfg, decoder=decoder, calibration_samples=10_000)
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
        run_campaign(basis, pam(2), cfg, decoder="sphere", calibration_samples=10_000)
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
