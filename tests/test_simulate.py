"""Tests for the channel simulator and the two decoders.

Oracle values: decoder agreement is checked decoder-against-decoder (the
exhaustive search is the reference); calibration ratios follow from log10
arithmetic and were verified by hand before freezing.
"""

import itertools

import numpy as np
import pytest

from stlattice import codebook, simulate
from stlattice.decodability import classify
from stlattice.lattice import WeightBasis, vectorize
from stlattice.simulate import (
    Alphabet,
    ChannelConfig,
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


class TestChannelConfig:
    def test_rejects_short_coherence(self):
        with pytest.raises(ValueError, match="static"):
            ChannelConfig(n_t=2, n_r=1, T=1, snr_db_grid=(0,), trials=1, seed=0)

    def test_rejects_negative_trials(self):
        with pytest.raises(ValueError, match="negative"):
            ChannelConfig(n_t=2, n_r=1, T=2, snr_db_grid=(0,), trials=-1, seed=0)

    def test_default_receive_antennas(self):
        assert default_config(code("alamouti"), (0,), 1, 0).n_r == 1
        assert default_config(code("golden"), (0,), 1, 0).n_r == 2
        assert default_config(code("simo_relay"), (0,), 1, 0).n_r == 2


class TestDrawChannel:
    def test_zero_scale_gives_zero_matrix(self):
        cfg = ChannelConfig(
            n_t=2, n_r=3, T=2, snr_db_grid=(0,), trials=1, seed=0, sigma_h=0.0
        )
        assert np.array_equal(draw_channel(cfg, 0), np.zeros((3, 2)))

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
        H = cfg.sigma_h * (
            rng.normal(size=(20_000, 1, 2)) + 1j * rng.normal(size=(20_000, 1, 2))
        )
        sig = float(np.mean(np.sum(np.abs(H @ X) ** 2, axis=(1, 2))))
        ratio = sig / (2.0 * cfg.n_r * cfg.T * sigma_n**2)
        assert abs(10 * np.log10(ratio)) <= 0.1

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
            cfg.sigma_h**2 * np.mean(values**2) * energy / (10.0 * basis.T)
        )
        sigma_n = calibrate_noise(basis, pam(4), cfg, 10.0, samples=20_000)
        assert sigma_n == pytest.approx(exact, rel=0.01)


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

    def test_rejects_bad_ordering(self):
        basis = code("alamouti")
        with pytest.raises(ValueError, match="permutation"):
            sphere_decode(np.zeros((1, 2)), draw_channel(
                default_config(basis, (0,), 1, 0), 1), basis, pam(2), (0, 1))


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
        prof = classify(basis)
        ordering = [i for g in prof.groups for i in g] + list(prof.conditioned)
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

    def test_rejects_unknown_decoder(self):
        basis = code("alamouti")
        cfg = default_config(basis, (0.0,), trials=1, seed=0)
        with pytest.raises(ValueError, match="decoder"):
            run_campaign(basis, pam(2), cfg, decoder="turbo")
