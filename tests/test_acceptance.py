"""End-to-end gate for the shipped toolkit.

One test per contract item, so ``pytest -v`` prints one pass/fail line
for each.  Every check pins the expected value together with its
tolerance, and the items that carry a wall-clock budget enforce it with
a monotonic timer around the computation they name.

The checks deliberately go through the public package surface (build,
classify, r_matrix, lattice figures, decoders, campaign) rather than
internals, so a pass here certifies the same code paths a user runs.  The
one exception is codebook._inner, the relay codes' degree-2 block, which
test_11 checks against the left-regular representation.
"""

import time
from functools import lru_cache

import numpy as np

from stlattice import (
    IteratedMapSpec,
    bounds_check,
    build,
    classify,
    default_config,
    draw_channel,
    generator_matrix,
    golden_algebra,
    iterate,
    lattice_profile,
    min_rank_difference,
    min_rank_sampled,
    ml_exhaustive,
    pam,
    profile_from_generator,
    r_matrix,
    relay_algebra,
    run_campaign,
    sample_r_matrix,
    sphere_decode,
)
from stlattice.codebook import _inner

ZOO = (
    "alamouti",
    "golden",
    "silver",
    "srinath_rajan",
    "mido_a4",
    "simo_relay",
    "mimo_relay",
    "iterated",
)


@lru_cache(maxsize=None)
def code(name):
    if name == "mimo_relay":
        return build({"family": name, "params": {"M": 3}})
    return build(name)


@lru_cache(maxsize=None)
def profile(name):
    return classify(code(name))


def channel(basis, n_r, rng):
    """One Rayleigh channel for the basis from the public sampler."""
    return draw_channel(default_config(basis, (), trials=0, seed=0, n_r=n_r), rng)


def test_01_alamouti_four_groups_and_diagonal_r():
    """Four single-symbol groups, k' = 1, and a diagonal R with equal
    diagonal entries (relative spread <= 1e-6) on 100 random channels,
    all inside one second."""
    t0 = time.monotonic()
    basis = build("alamouti")
    prof = classify(basis)
    assert prof.family == "multi_group"
    assert len(prof.groups) == 4
    assert all(len(g) == 1 for g in prof.groups)
    assert prof.k_prime == 1
    rng = np.random.default_rng(101)
    for _ in range(100):
        H = channel(basis, 1, rng)
        rp = r_matrix(basis, H)
        off = np.abs(rp.R - np.diag(np.diag(rp.R)))
        assert off.max() <= 1e-9 * np.abs(rp.R).max()
        diag = np.diag(rp.R)
        assert np.ptp(diag) <= 1e-6 * diag.mean()
    assert time.monotonic() - t0 < 1.0


def test_02_golden_block_orthogonal_profile():
    """k' = 6 with block-orthogonal parameters (2, 2, 2) and the
    fast-decodable flag off, inside one second."""
    t0 = time.monotonic()
    prof = classify(build("golden"))
    assert prof.family == "block_orthogonal"
    assert prof.k_prime == 6
    assert prof.bo_params == (2, 2, 2)
    assert prof.fast_decodable is False
    assert time.monotonic() - t0 < 1.0


def test_03_silver_conditional_profile():
    """k' = 5 and a 37.5 percent reduction under the ordering found by
    the separator search, inside ten seconds."""
    t0 = time.monotonic()
    prof = classify(build("silver"))
    assert prof.family == "conditional_multi_group"
    assert prof.k_prime == 5
    assert prof.reduction_pct == 37.5
    assert time.monotonic() - t0 < 10.0


def test_04_srinath_rajan_profile_and_r_pattern():
    """Conditional 4-group profile (size-2 groups, 8 conditioned
    symbols, k' = 10, 37.5 percent reduction) whose sampled R mask
    reproduces the block pattern: four 2x2 diagonal blocks, zeros
    between groups, an unconstrained trailing 8x8 block, and nothing
    below the diagonal.  Inside thirty seconds."""
    t0 = time.monotonic()
    basis = build("srinath_rajan")
    prof = classify(basis)
    assert prof.family == "conditional_multi_group"
    assert len(prof.groups) == 4
    assert all(len(g) == 2 for g in prof.groups)
    assert len(prof.conditioned) == 8
    assert prof.k_prime == 10
    assert prof.reduction_pct == 37.5

    order = prof.ordering
    mask = sample_r_matrix(basis, ordering=order, trials=20, seed=3).zero_mask
    k = basis.k
    # Entries the pattern forbids must vanish on every sampled channel.
    forbidden = np.zeros((k, k), dtype=bool)
    forbidden[np.tril_indices(k, -1)] = True
    for i in range(8):
        for j in range(i + 1, 8):
            if j // 2 != i // 2:
                forbidden[i, j] = True
    assert mask[forbidden].all()
    # Entries the pattern relies on must survive: group blocks and the
    # diagonal of the conditioned block.
    for b in range(4):
        assert not mask[2 * b, 2 * b + 1]
    assert not mask.diagonal().any()
    # Conditioning is real work: the coupling block carries energy.
    assert not mask[:8, 8:].all()
    assert time.monotonic() - t0 < 30.0


def test_05_iterated_two_group_profile():
    """The 32-coefficient doubled code splits into two 16-symbol groups
    straight from the orthogonality graph (k' = 16, 50 percent
    reduction), inside sixty seconds."""
    t0 = time.monotonic()
    prof = classify(build("iterated"))
    assert prof.family == "multi_group"
    assert len(prof.groups) == 2
    assert all(len(g) == 16 for g in prof.groups)
    assert prof.k_prime == 16
    assert prof.reduction_pct == 50.0
    assert time.monotonic() - t0 < 60.0


def test_06_mido_a4_block_orthogonal_profile():
    """k' = 12 and a 25 percent reduction for the 16-coefficient 4x2
    code, inside thirty seconds."""
    t0 = time.monotonic()
    prof = classify(build("mido_a4"))
    assert prof.family == "block_orthogonal"
    assert prof.k_prime == 12
    assert prof.reduction_pct == 25.0
    assert time.monotonic() - t0 < 30.0


def test_07_simo_relay_profile():
    """Full lattice rank 16 with a conditional 4-group profile and
    k' = 10, inside thirty seconds."""
    t0 = time.monotonic()
    basis = code("simo_relay")
    assert np.linalg.matrix_rank(generator_matrix(basis)) == 16
    prof = classify(basis)
    assert prof.family == "conditional_multi_group"
    assert len(prof.groups) == 4
    assert prof.k_prime == 10
    assert time.monotonic() - t0 < 30.0


def test_08_mimo_relay_profile():
    """Full lattice rank 24 with four groups, k' = 6, and a 75 percent
    reduction, inside sixty seconds."""
    t0 = time.monotonic()
    basis = code("mimo_relay")
    assert np.linalg.matrix_rank(generator_matrix(basis)) == 24
    prof = classify(basis)
    assert prof.family == "multi_group"
    assert len(prof.groups) == 4
    assert prof.k_prime == 6
    assert prof.reduction_pct == 75.0
    assert time.monotonic() - t0 < 60.0


def test_09_lattice_figures():
    """Alamouti lattice volume 4 within 1e-9; hexagonal Gram
    determinant 3/4 within 1e-12."""
    vol = lattice_profile(build("alamouti")).volume
    assert abs(vol - 4.0) <= 1e-9
    hexagonal = np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])
    gram = profile_from_generator(hexagonal).gram
    assert abs(np.linalg.det(gram) - 0.75) <= 1e-12


def test_10_sphere_decoder_matches_exhaustive_ml():
    """Sphere and exhaustive decoders agree on every one of 1000
    Alamouti trials (4-point alphabet) and 500 golden trials (2-point
    alphabet), and the Alamouti sphere search visits fewer than 10
    percent of the exhaustive grid."""
    runs = (("alamouti", pam(4), 1000, 1, 0.7), ("golden", pam(2), 500, 2, 0.5))
    for name, alphabet, trials, n_r, sigma in runs:
        basis = code(name)
        order = profile(name).ordering
        values = np.array(alphabet.values, dtype=float)
        nodes_sphere = 0
        nodes_ml = 0
        for t in range(trials):
            rng = np.random.default_rng([17, t])
            H = channel(basis, n_r, rng)
            s = rng.choice(values, size=basis.k)
            X = np.tensordot(s, np.stack(basis.mats), axes=1)
            noise = rng.normal(size=(n_r, basis.T)) + 1j * rng.normal(
                size=(n_r, basis.T)
            )
            Y = H @ X + sigma * noise / np.sqrt(2.0)
            ml = ml_exhaustive(Y, H, basis, alphabet)
            sp = sphere_decode(Y, H, basis, alphabet, ordering=order)
            assert sp.coeffs == ml.coeffs
            nodes_sphere += sp.nodes_visited
            nodes_ml += ml.nodes_visited
        if name == "alamouti":
            assert nodes_sphere < 0.1 * nodes_ml


def test_11_structural_property_suite():
    """Doubling inherits mutual orthogonality (50 random orthogonal
    pairs, residual below 1e-9); every shipped profile respects the
    group bound; the full-rate codes respect the complexity floor; the
    full-diversity codes reach minimum rank difference n over the
    unit coefficient box; the balanced degree-2 representation keeps
    the determinant within 1e-9 on 100 random elements."""
    # Doubling inheritance: B = A W with W anti-Hermitian is mutually
    # orthogonal to A, and both doubled placements stay orthogonal.
    spec = IteratedMapSpec(tau=np.conj, zeta=-1.0, theta_prime=2.0)
    rng = np.random.default_rng(2024)
    zero = np.zeros((2, 2))
    for _ in range(50):
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        B = A @ (1j * (G + G.conj().T))
        for Ma, Mb in (
            (iterate(A, zero, spec), iterate(B, zero, spec)),
            (iterate(zero, A, spec), iterate(zero, B, spec)),
        ):
            delta = np.linalg.norm(Ma @ Mb.conj().T + Mb @ Ma.conj().T) ** 2
            assert delta <= 1e-9

    # Group bound for every shipped code; complexity floor for the two
    # full-rate square codes.
    for name in ZOO:
        assert bounds_check(profile(name), code(name).n_t) == []
    for name in ("golden", "silver"):
        assert bounds_check(profile(name), 2, full_rate=True) == []

    # Minimum rank difference equals the matrix side for the
    # full-diversity codes.  Codes with at most 16 coefficients are
    # enumerated exhaustively over the unit box; the 24-coefficient
    # relay code is certified on all sparse vectors (up to three
    # nonzeros) plus 200000 seeded random vectors.
    for name in ("alamouti", "golden", "silver"):
        assert min_rank_difference(code(name), search_bound=1) == 2
    for name in ("srinath_rajan", "mido_a4", "simo_relay"):
        assert min_rank_difference(code(name), search_bound=1) == 4
    assert (
        min_rank_sampled(
            code("mimo_relay"),
            search_bound=1,
            max_nonzeros=3,
            n_random=200_000,
            seed=7,
        )
        == 12
    )

    # Determinant agreement between the left-regular representation and
    # the balanced degree-2 block that the relay codes are built from.
    rng = np.random.default_rng(31)
    for alg in (golden_algebra(), relay_algebra()):
        t = np.sqrt(complex(-alg.gamma))
        for _ in range(50):
            x = rng.integers(-3, 4, size=(alg.n, alg.dim_L)).astype(float)
            d1 = np.linalg.det(alg.left_regular(x))
            block = sum(
                x[comp, b] * _inner(alg.field, 0, b, comp, t)
                for comp in range(2)
                for b in range(alg.dim_L)
            )
            d2 = np.linalg.det(block)
            assert abs(d1 - d2) <= 1e-9 * max(1.0, abs(d1))


def test_12_campaigns_reproduce_bit_identical_csv():
    """Two campaigns built from scratch with the same seed emit
    byte-identical CSV text."""
    outputs = []
    for _ in range(2):
        basis = build("alamouti")
        cfg = default_config(basis, snr_db_grid=(0.0, 6.0, 12.0), trials=40, seed=11)
        campaign = run_campaign(basis, pam(4), cfg, calibration_samples=20_000)
        outputs.append(campaign.to_csv())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 4
