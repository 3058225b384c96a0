"""Tests for decodability classification and R-matrix structure.

Oracle values: the Alamouti delta matrix follows by hand from the
anticommutators of its four unitary weights; the family, grouping, and
complexity order of each shipped code were derived from the conjugation
pattern of the underlying construction and cross-checked numerically
before being frozen here.
"""

import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stlattice import codebook, decodability, simulate
from stlattice.decodability import (
    SIGMA_H,
    DecodabilityProfile,
    _adjacency_bits,
    _default_n_r,
    _exact_separator,
    _mask_to_indices,
    bounds_check,
    classify,
    hurwitz_radon,
    r_matrix,
    sample_r_matrix,
)
from stlattice.lattice import WeightBasis, _equivalent_channel
from stlattice.simulate import default_config, draw_channel, ml_exhaustive, pam, sphere_decode

I2 = np.eye(2, dtype=complex)

_CACHE = {}


def zoo(name):
    """Build and classify a shipped family once per test session."""
    if name not in _CACHE:
        basis = codebook.build(name)
        _CACHE[name] = (basis, classify(basis))
    return _CACHE[name]


def channel(basis, n_r, rng):
    """One Rayleigh channel for the basis from the package's sampler."""
    return draw_channel(default_config(basis, (), trials=0, seed=0, n_r=n_r), rng)


# family, k_prime, groups, conditioned, reduction_pct, fast_decodable, bo_params
FROZEN = {
    "alamouti": (
        "multi_group", 1, ((0,), (1,), (2,), (3,)), (), 75.0, True, None,
    ),
    "golden": (
        "block_orthogonal", 6, ((4, 6), (5, 7), (0, 2), (1, 3)), (),
        25.0, False, (2, 2, 2),
    ),
    "silver": (
        "conditional_multi_group", 5, ((4,), (5,), (6,), (7,)), (0, 1, 2, 3),
        37.5, True, None,
    ),
    "srinath_rajan": (
        "conditional_multi_group", 10,
        ((8, 10), (9, 11), (12, 14), (13, 15)), (0, 1, 2, 3, 4, 5, 6, 7),
        37.5, True, None,
    ),
    "mido_a4": (
        "block_orthogonal", 12,
        ((4, 5, 6, 7), (12, 13, 14, 15), (0, 1, 2, 3), (8, 9, 10, 11)), (),
        25.0, True, (2, 2, 4),
    ),
    "simo_relay": (
        "conditional_multi_group", 10,
        ((2, 3), (6, 7), (10, 11), (14, 15)), (0, 1, 4, 5, 8, 9, 12, 13),
        37.5, True, None,
    ),
    "mimo_relay": (
        "multi_group", 6,
        ((0, 1, 2, 18, 19, 20), (3, 4, 5, 21, 22, 23),
         (6, 7, 8, 12, 13, 14), (9, 10, 11, 15, 16, 17)), (),
        75.0, True, None,
    ),
    "iterated": (
        "multi_group", 16,
        ((0, 1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21, 24, 25, 28, 29),
         (2, 3, 6, 7, 10, 11, 14, 15, 18, 19, 22, 23, 26, 27, 30, 31)), (),
        50.0, True, None,
    ),
}


class TestAdjacencyBits:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(3)
        for k in (1, 7, 8, 9, 16, 70):
            adjacency = rng.random((k, k)) < 0.3
            expected = [
                sum(1 << j for j in range(k) if adjacency[i, j]) for i in range(k)
            ]
            assert _adjacency_bits(adjacency) == expected


def pair_loop_delta(basis):
    """The pair loop that hurwitz_radon's row form replaced: one
    anticommutator and one np.linalg.norm per pair i <= j."""
    mats, k = basis.mats, basis.k
    delta = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            M = mats[i] @ mats[j].conj().T + mats[j] @ mats[i].conj().T
            delta[i, j] = delta[j, i] = np.linalg.norm(M) ** 2
    return delta


def random_bases():
    rng = np.random.default_rng(28)
    for n_t, T in ((3, 3), (2, 4)):
        for k in (1, 5, 9):
            re, im = rng.normal(size=(2, k, n_t, T))
            yield WeightBasis(f"random-{n_t}x{T}-{k}", list(re + 1j * im))


class TestHurwitzRadon:
    @pytest.mark.parametrize(
        "basis",
        [codebook.build(name) for name in codebook.REGISTRY] + list(random_bases()),
        ids=lambda b: b.name,
    )
    def test_matches_the_pair_loop(self, basis):
        hr, reference = hurwitz_radon(basis), pair_loop_delta(basis)
        # each entry within 1e-15 of its own value: a zero stays zero
        assert np.all(np.abs(hr.delta - reference) <= 1e-15 * reference)
        assert np.array_equal(hr.delta, hr.delta.T)
        energy = np.array([np.linalg.norm(m) ** 2 for m in basis.mats])
        adjacency = reference > decodability.TOL**2 * np.outer(energy, energy)
        np.fill_diagonal(adjacency, False)
        assert np.array_equal(hr.adjacency, adjacency)

    def test_one_row_of_pairs_in_flight(self):
        # A stack of all k^2 anticommutators of mimo_relay alone is 1.27 MiB.
        basis = codebook.build("mimo_relay")
        hurwitz_radon(basis)
        tracemalloc.start()
        try:
            hurwitz_radon(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_alamouti_mutually_orthogonal(self):
        basis, _ = zoo("alamouti")
        hr = hurwitz_radon(basis)
        # unitary 2x2 weights: delta_ii = ||2 B B^H||_F^2 = ||2 I||_F^2 = 8
        assert np.allclose(np.diag(hr.delta), 8.0, atol=1e-12)
        off = hr.delta - np.diag(np.diag(hr.delta))
        assert np.max(np.abs(off)) == 0.0
        assert not hr.adjacency.any()

    def test_scaled_identity_pair_orthogonal(self):
        hr = hurwitz_radon(WeightBasis("pair", [I2, 1j * I2]))
        assert hr.delta[0, 1] == 0.0
        assert not hr.adjacency[0, 1]

    def test_golden_graph_has_edges(self):
        basis, _ = zoo("golden")
        hr = hurwitz_radon(basis)
        assert hr.adjacency.any()
        assert np.array_equal(hr.adjacency, hr.adjacency.T)
        assert not hr.adjacency.diagonal().any()

    def test_delta_symmetric_nonnegative(self):
        basis, _ = zoo("silver")
        hr = hurwitz_radon(basis)
        assert np.array_equal(hr.delta, hr.delta.T)
        assert (hr.delta >= 0).all()

    def test_arrays_are_frozen(self):
        basis, _ = zoo("alamouti")
        hr = hurwitz_radon(basis)
        with pytest.raises(ValueError):
            hr.delta[0, 0] = 5.0

    def test_graph_ignores_weight_scale(self):
        # delta_ij scales by s_i^2 s_j^2, so a cutoff relative to the
        # largest delta would drop the edges between the smallest weights.
        basis, _ = zoo("golden")
        scale = 2.0 ** np.array([-12, 12, -9, 3, 10, -12, 0, 6])
        scaled = WeightBasis("golden-scaled", [m * s for m, s in zip(basis.mats, scale)])
        assert np.array_equal(
            hurwitz_radon(scaled).adjacency, hurwitz_radon(basis).adjacency
        )


class TestClassifyZoo:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_profile(self, name):
        basis, prof = zoo(name)
        family, k_prime, groups, conditioned, reduction, fast, bo = FROZEN[name]
        assert prof.family == family
        assert prof.k_prime == k_prime
        assert prof.groups == groups
        assert prof.conditioned == conditioned
        assert prof.reduction_pct == pytest.approx(reduction, abs=1e-9)
        assert prof.fast_decodable is fast
        assert prof.bo_params == bo

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_groups_and_conditioned_partition_coefficients(self, name):
        basis, prof = zoo(name)
        assert sorted(prof.ordering) == list(range(basis.k))

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_ordering_is_groups_then_conditioned(self, name):
        _, prof = zoo(name)
        grouped = [i for g in prof.groups for i in g]
        assert prof.ordering == tuple(grouped) + prof.conditioned

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_complexity_order_at_most_k(self, name):
        basis, prof = zoo(name)
        assert 1 <= prof.k_prime <= basis.k

    def test_unstructured_basis_reports_none(self):
        # a chain of three plus a triangle closure: fully connected graph
        mats = [I2, np.array([[1, 1], [0, 1]], dtype=complex),
                np.array([[1, 0], [1, 1]], dtype=complex)]
        prof = classify(WeightBasis("dense", mats))
        # k = 3 still admits a one-symbol separator, so check a 2x2 clique
        assert prof.family in ("conditional_multi_group", "none")
        assert prof.k_prime <= 3


class TestClassifyValidation:
    @pytest.mark.parametrize("name", ["alamouti", "golden"])
    def test_rejects_zero_trials_before_any_work(self, name, monkeypatch):
        basis = codebook.build(name)  # no orthogonality graph kept on it yet

        def no_work(*args, **kwargs):
            raise AssertionError("classify did work before checking trials")

        monkeypatch.setattr(decodability, "hurwitz_radon", no_work)
        with pytest.raises(ValueError, match="trial"):
            classify(basis, trials=0)

    @pytest.mark.parametrize("name", ["alamouti", "golden"])
    def test_rejects_a_negative_seed_before_any_work(self, name, monkeypatch):
        # alamouti samples no R, so it took seed=-1; golden failed in the
        # sampler with numpy's "expected non-negative integer".
        basis = codebook.build(name)

        def no_work(*args, **kwargs):
            raise AssertionError("classify did work before checking the seed")

        monkeypatch.setattr(decodability, "hurwitz_radon", no_work)
        with pytest.raises(ValueError, match="seed cannot be negative"):
            classify(basis, seed=-1)
        with pytest.raises(ValueError, match="seed cannot be negative"):
            sample_r_matrix(basis, seed=-1)


def plain_components(adjacency, vertices):
    """Components of the subgraph on vertices, by depth-first search."""
    left = set(vertices)
    comps = []
    while left:
        stack = [min(left)]
        comp = set(stack)
        left -= comp
        while stack:
            v = stack.pop()
            for u in sorted(left):
                if adjacency[v, u]:
                    left.discard(u)
                    comp.add(u)
                    stack.append(u)
        comps.append(frozenset(comp))
    return comps


def brute_separator(adjacency):
    """Minimum (k', gamma) over every proper vertex subset gamma whose
    removal leaves at least two components; None when there is none.

    Ties go to the lexicographically smallest gamma, except that a gamma
    leaving only isolated vertices (|gamma| = k' - 1) loses to any other:
    the search stops before the size that can at best tie.
    """
    k = len(adjacency)
    keys = []
    for size in range(1, k):
        for gamma in itertools.combinations(range(k), size):
            comps = plain_components(adjacency, set(range(k)) - set(gamma))
            if len(comps) >= 2:
                k_prime = size + max(map(len, comps))
                keys.append((k_prime, size == k_prime - 1, gamma))
    best = min(keys, default=None)
    return None if best is None else (best[0], best[2])


def random_graph(rng, k, density):
    upper = np.triu(rng.random((k, k)) < density, 1)
    return upper | upper.T


def cycle_graph(k):
    adjacency = np.zeros((k, k), dtype=bool)
    for v in range(k):
        adjacency[v, (v + 1) % k] = adjacency[(v + 1) % k, v] = True
    return adjacency


def component_sets(masks):
    return {frozenset(_mask_to_indices(m)) for m in masks}


class TestSeparators:
    def graphs(self):
        rng = np.random.default_rng(5)
        for k in range(2, 10):
            for density in (0.3, 0.5, 0.8):
                yield random_graph(rng, k, density)
        # cycles and complete bipartite graphs: many separators tie on k'
        for k in range(3, 10):
            yield cycle_graph(k)
            side = np.arange(k) < k // 2
            yield side[:, None] != side[None, :]

    def test_exact_matches_brute_force(self):
        for adjacency in self.graphs():
            k = len(adjacency)
            found = _exact_separator(_adjacency_bits(adjacency), k)
            expected = brute_separator(adjacency)
            if expected is None:
                assert found is None
                continue
            gamma_mask, k_prime, comps = found
            assert (k_prime, _mask_to_indices(gamma_mask)) == expected
            rest = set(range(k)) - set(expected[1])
            assert component_sets(comps) == set(plain_components(adjacency, rest))


def hub_and_blocks_basis(per_block):
    """The 4x4 all-ones hub, then per_block unit weights (E_rc, then i*E_rc,
    column by column) on each of the two diagonal 2x2 blocks.  The hub
    touches every weight; without it the graph falls into the blocks'
    columns, four weights each, so the hub alone is the best separator."""
    mats = [np.ones((4, 4), dtype=complex)]
    for off, n in zip((0, 2), per_block):
        units = []
        for c, r, z in itertools.product(range(2), range(2), (1, 1j)):
            W = np.zeros((4, 4), dtype=complex)
            W[off + r, off + c] = z
            units.append(W)
        mats += units[:n]
    return WeightBasis("hub", mats)


class TestSeparatorLimit:
    def test_beyond_the_limit_a_connected_graph_is_none(self):
        basis = hub_and_blocks_basis((8, 8))
        assert basis.k == decodability.EXACT_SEPARATOR_LIMIT + 1
        prof = classify(basis)
        assert (prof.family, prof.k_prime) == ("none", 17)
        assert prof.groups == (tuple(range(17)),) and prof.conditioned == ()

    def test_at_the_limit_the_exact_search_decides(self):
        basis = hub_and_blocks_basis((8, 7))
        assert basis.k == decodability.EXACT_SEPARATOR_LIMIT
        gamma_mask, k_prime, _ = _exact_separator(decodability._graph(basis)[0], basis.k)
        prof = classify(basis)
        assert (prof.family, prof.k_prime) == ("conditional_multi_group", k_prime)
        assert prof.conditioned == _mask_to_indices(gamma_mask) == (0,)
        assert k_prime == 5


def loop_exact_separator(bits, k):
    """The subset loop that _exact_separator replaced: every Gamma in
    itertools.combinations order, one component search per Gamma."""
    full = (1 << k) - 1
    singles = [1 << v for v in range(k)]
    best = None
    for size in range(1, k - 1):
        if best is not None and size + 1 >= best[0][0]:
            break
        for gamma in itertools.combinations(singles, size):
            mask = sum(gamma)
            comps = decodability._components_of_mask(full ^ mask, bits)
            if len(comps) < 2:
                continue
            key = (size + max(c.bit_count() for c in comps), gamma)
            if best is None or key < best[0]:
                best = (key, mask, comps)
    return None if best is None else (best[1], best[0][0], best[2])


class TestExactSeparatorMatchesLoop:
    """The batched search returns the loop's separator, k' and components,
    in the same order, bit for bit."""

    @pytest.mark.parametrize(
        "name", [n for n in sorted(codebook.REGISTRY) if codebook.build(n).k <= 16]
    )
    def test_registry_graphs(self, name):
        basis, _ = zoo(name)
        bits = _adjacency_bits(hurwitz_radon(basis).adjacency)
        assert _exact_separator(bits, basis.k) == loop_exact_separator(bits, basis.k)

    def test_random_graphs(self):
        rng = np.random.default_rng(17)
        for k in range(2, 17):
            # the loop takes up to 0.25 s a graph at k = 16
            for density in (0.3, 0.5, 0.8) * (4 if k <= 12 else 1):
                bits = _adjacency_bits(random_graph(rng, k, density))
                assert _exact_separator(bits, k) == loop_exact_separator(bits, k)

    def test_structured_graphs(self):
        # many separators tie on k' in cycles and complete bipartite graphs
        for k in range(3, 13):
            side = np.arange(k) < k // 2
            for adjacency in (cycle_graph(k), side[:, None] != side[None, :]):
                bits = _adjacency_bits(adjacency)
                assert _exact_separator(bits, k) == loop_exact_separator(bits, k)


def loop_block_test(zero_mask, part1, part2):
    """Reference for the block-orthogonal R test, pair by pair: no
    nonzero entry may link two blocks of one part, and some must link
    the parts."""
    blocks = [_mask_to_indices(m) for m in sorted(part1) + sorted(part2)]
    ordering = [sym for b in blocks for sym in b]
    pos = {sym: idx for idx, sym in enumerate(ordering)}
    block_of = {sym: idx for idx, b in enumerate(blocks) for sym in b}
    coupling = False
    for i_sym, j_sym in itertools.permutations(ordering, 2):
        bi, bj = block_of[i_sym], block_of[j_sym]
        if bi == bj or pos[i_sym] >= pos[j_sym]:
            continue
        if zero_mask[pos[i_sym], pos[j_sym]]:
            continue
        if (bi < len(part1)) == (bj < len(part1)):
            return False
        coupling = True
    return coupling


class TestBlockOrthogonalCheck:
    def test_matches_pairwise_loop(self, monkeypatch):
        # Part one {0, 5}, {2, 7}; the separator {1, 3, 4, 6} splits along
        # its edges 1-4 and 3-6, so the R ordering is 0 5 2 7 1 4 3 6.
        part1 = [0b00100001, 0b10000100]
        gamma = 0b01011010
        adjacency = np.zeros((8, 8), dtype=bool)
        for a, b in ((1, 4), (3, 6)):
            adjacency[a, b] = adjacency[b, a] = True
        bits = _adjacency_bits(adjacency)
        part2 = [0b00010010, 0b01001000]
        rng = np.random.default_rng(9)
        verdicts = set()
        for density in (0.5, 0.9, 0.97, 1.0):
            for _ in range(150):
                zero_mask = rng.random((8, 8)) < density
                monkeypatch.setattr(
                    decodability,
                    "sample_r_matrix",
                    lambda *args, **kwargs: SimpleNamespace(zero_mask=zero_mask),
                )
                found = decodability._block_orthogonal_check(
                    None, gamma, part1, bits, trials=1, seed=0
                )
                expected = loop_block_test(zero_mask, part1, part2)
                assert (found is not None) == expected
                verdicts.add(expected)
                if found is not None:
                    assert found == ((2, 2, 2), 6, ((0, 5), (2, 7), (1, 4), (3, 6)))
        assert verdicts == {True, False}


class TestRMatrix:
    def test_alamouti_diagonal_every_channel(self):
        basis, _ = zoo("alamouti")
        rng = np.random.default_rng(0)
        for _ in range(100):
            H = channel(basis, 1, rng)
            prof = r_matrix(basis, H)
            R = prof.R
            off = R - np.diag(np.diag(R))
            assert np.max(np.abs(off)) <= 1e-9 * max(1.0, np.abs(R).max())
            # unitary weights make every diagonal entry equal to ||H||_F
            d = np.diag(R)
            assert np.ptp(d) <= 1e-6 * d.mean()
            assert d[0] == pytest.approx(np.linalg.norm(H), rel=1e-12)
            assert not prof.rank_deficient

    def test_unit_weight_pair_identity_r(self):
        mats = [np.array([[1, 0], [0, 0]], dtype=complex),
                np.array([[0, 1], [0, 0]], dtype=complex)]
        prof = r_matrix(WeightBasis("units", mats), np.eye(2))
        assert np.allclose(prof.R, np.eye(2), atol=1e-12)
        assert not prof.zero_mask[0, 0] and prof.zero_mask[0, 1]
        assert not prof.rank_deficient

    def test_ordering_is_applied(self):
        mats = [np.array([[2, 0], [0, 0]], dtype=complex),
                np.array([[0, 1], [0, 0]], dtype=complex)]
        prof = r_matrix(WeightBasis("units", mats), np.eye(2), ordering=(1, 0))
        assert prof.R[0, 0] == pytest.approx(1.0)
        assert prof.R[1, 1] == pytest.approx(2.0)

    def test_rejects_bad_ordering(self):
        basis, _ = zoo("alamouti")
        with pytest.raises(ValueError, match="permutation"):
            r_matrix(basis, I2, ordering=(0, 0, 1, 2))
        with pytest.raises(ValueError, match="permutation"):
            r_matrix(basis, I2, ordering=(0, 1))

    def test_rejects_mismatched_channel(self):
        basis, _ = zoo("alamouti")
        with pytest.raises(ValueError, match="columns"):
            r_matrix(basis, np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_channel(self, bad):
        basis, _ = zoo("golden")
        H = channel(basis, 2, np.random.default_rng(0))
        H[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            r_matrix(basis, H)

    def test_deficient_span_is_flagged(self):
        basis, _ = zoo("iterated")
        rng = np.random.default_rng(1)
        H = channel(basis, 4, rng)
        assert r_matrix(basis, H).rank_deficient

    @pytest.mark.parametrize("name", ["golden", "srinath_rajan"])
    def test_weak_channel_keeps_its_pattern(self, name):
        # The cutoff had an absolute floor of tol, so a channel scaled by
        # 2^-40 masked every entry of R and read as rank-deficient.
        basis, _ = zoo(name)
        H = channel(basis, _default_n_r(basis), np.random.default_rng(5))
        strong = r_matrix(basis, H)
        for exponent in (-40, 40):
            weak = r_matrix(basis, H * 2.0**exponent)
            assert np.array_equal(weak.zero_mask, strong.zero_mask)
            assert not weak.rank_deficient
        zero = r_matrix(basis, np.zeros_like(H))
        assert zero.rank_deficient and zero.zero_mask.all()

    def test_srinath_rajan_block_pattern(self):
        basis, prof = zoo("srinath_rajan")
        ordering = prof.ordering
        sampled = sample_r_matrix(basis, ordering, trials=20, seed=3)
        mask = sampled.zero_mask
        group_of = {}
        for g_idx, g in enumerate(prof.groups):
            for sym in g:
                group_of[sym] = g_idx
        # leading 8x8: 2x2 diagonal blocks, zeros across groups
        for a in range(8):
            for b in range(a + 1, 8):
                same = group_of[ordering[a]] == group_of[ordering[b]]
                assert mask[a, b] == (not same)
        # trailing 8x8 on the conditioned symbols keeps a nonzero diagonal
        # and genuine interactions (it is unconstrained, not block-diagonal)
        tail = mask[8:16, 8:16]
        assert not tail.diagonal().any()
        assert not tail[np.triu_indices(8, k=1)].all()
        # the coupling block ties the groups to the conditioned symbols
        assert not mask[:8, 8:].all()
        # exact zeros below the diagonal
        assert mask[np.tril_indices(16, k=-1)].all()


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def sign_pass_r_matrix(basis, H, ordering):
    """r_matrix as it was before the one R stage: LAPACK's R, zero-padded to
    k x k, with the mask and the deficiency flag read off it, and then each
    row multiplied by the sign of its diagonal entry (+1 for a zero)."""
    k = basis.k
    R = np.linalg.qr(_equivalent_channel(basis, H, ordering), mode="r")
    R = np.concatenate([R, np.zeros((k - len(R), k))]) if len(R) < k else R
    mag = np.abs(R)
    zero_mask = mag <= decodability.TOL * mag.max()
    signs = np.sign(np.diag(R).copy())
    signs[signs == 0] = 1.0
    return signs[:, None] * R, zero_mask, bool(np.diag(zero_mask).any())


@st.composite
def channel_stacks(draw):
    """A registry basis, an ordering of its coefficients, and a stack of 1
    to 5 Rayleigh channels with 1 to 3 receive antennas: too few rows pad R
    and flag it deficient."""
    basis, _ = zoo(draw(st.sampled_from(sorted(codebook.REGISTRY))))
    ordering = tuple(draw(st.permutations(range(basis.k))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 3)), basis.n_t)
    return basis, ordering, decodability._rayleigh(shape, rng, SIGMA_H)


class TestFactor:
    """One stage factors every R: the stacked call gives each channel
    r_matrix's R, mask and flag, and those keep the bits of the sign pass
    r_matrix made on LAPACK's R."""

    @pytest.mark.blas_bits
    @given(channel_stacks())
    def test_stacked_r_is_r_matrix(self, case):
        basis, ordering, H = case
        R, z, zero_mask, deficient = decodability._factor(
            _equivalent_channel(basis, H, ordering)
        )
        assert z is None
        assert R.shape == (len(H), basis.k, basis.k)
        assert (np.diagonal(R, axis1=-2, axis2=-1) >= 0).all()
        for t in range(len(H)):
            prof = r_matrix(basis, H[t], ordering)
            ref_R, ref_mask, ref_deficient = sign_pass_r_matrix(basis, H[t], ordering)
            assert same_bits(R[t], prof.R) and same_bits(prof.R, ref_R)
            assert same_bits(zero_mask[t], prof.zero_mask)
            assert same_bits(prof.zero_mask, ref_mask)
            assert deficient[t] == prof.rank_deficient == ref_deficient


class TestSampleRMatrix:
    @pytest.mark.blas_bits
    @given(
        st.sampled_from(sorted(codebook.REGISTRY)),
        st.randoms(use_true_random=False),
        st.integers(1, 25),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_channel_loop(self, name, random, trials, seed):
        # The definition before the channels were stacked: one r_matrix, as
        # it then was, per channel, summed in trial order.
        basis, _ = zoo(name)
        ordering = random.sample(range(basis.k), basis.k)
        shape = (_default_n_r(basis), basis.n_t)
        acc = mask = None
        deficient = False
        for trial in range(trials):
            H = decodability._rayleigh(shape, np.random.default_rng([seed, trial]), SIGMA_H)
            R, zero_mask, rank_deficient = sign_pass_r_matrix(basis, H, ordering)
            acc = np.abs(R) if acc is None else acc + np.abs(R)
            mask = zero_mask if mask is None else (mask & zero_mask)
            deficient = deficient or rank_deficient
        sampled = sample_r_matrix(basis, ordering, trials=trials, seed=seed)
        assert same_bits(sampled.R, acc / trials)
        assert same_bits(sampled.zero_mask, mask)
        assert sampled.rank_deficient == deficient

    def test_deterministic(self):
        basis, _ = zoo("golden")
        a = sample_r_matrix(basis, trials=5, seed=11)
        b = sample_r_matrix(basis, trials=5, seed=11)
        assert np.array_equal(a.R, b.R)
        assert np.array_equal(a.zero_mask, b.zero_mask)

    def test_alamouti_sampled_mask_is_diagonal(self):
        basis, _ = zoo("alamouti")
        prof = sample_r_matrix(basis, trials=10, seed=2)
        assert not prof.zero_mask.diagonal().any()
        off = prof.zero_mask.copy()
        np.fill_diagonal(off, True)
        assert off.all()
        assert not prof.rank_deficient

    def test_rejects_zero_trials(self):
        basis, _ = zoo("alamouti")
        with pytest.raises(ValueError, match="trial"):
            sample_r_matrix(basis, trials=0)

    @pytest.mark.parametrize("name", sorted(codebook.REGISTRY))
    def test_matches_its_per_trial_draw_loop(self, name):
        # The per-trial loop with its Rayleigh draw written out in full:
        # sample_r_matrix must give the same R and zero_mask, bit for bit.
        basis, _ = zoo(name)
        shape = (_default_n_r(basis), basis.n_t)
        acc = mask = None
        for trial in range(20):
            rng = np.random.default_rng([0, trial])
            H = (1.0 / np.sqrt(2.0)) * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
            prof = r_matrix(basis, H)
            acc = np.abs(prof.R) if acc is None else acc + np.abs(prof.R)
            mask = prof.zero_mask if mask is None else (mask & prof.zero_mask)
        sampled = sample_r_matrix(basis)
        assert np.array_equal(sampled.R, acc / 20)
        assert np.array_equal(sampled.zero_mask, mask)


def old_rayleigh(shape, rng, sigma_h):
    """The Rayleigh draw as one complex expression, with its temporaries."""
    return sigma_h * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


@pytest.mark.blas_bits
class TestRayleigh:
    """_rayleigh fills one complex array in place; it must keep the bits of
    the complex expression and leave the stream where that left it."""

    @pytest.mark.parametrize("shape", [(1, 2), (3, 2), (4, 4), (7, 1, 2), (300, 2, 4)])
    @pytest.mark.parametrize("sigma_h", [decodability.SIGMA_H, 1.0, 0.3])
    def test_equals_the_complex_expression(self, shape, sigma_h):
        for seed in (0, 1, 7, [16001, 0x5EED], [3, 1, 4]):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = decodability._rayleigh(shape, rng, sigma_h)
            want = old_rayleigh(shape, ref, sigma_h)
            assert got.dtype == want.dtype and got.shape == want.shape == shape
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
            assert rng.normal(size=5).tobytes() == ref.normal(size=5).tobytes()

    @pytest.mark.parametrize("name", sorted(codebook.REGISTRY))
    def test_keeps_the_channel_samplers_bits(self, name):
        basis, _ = zoo(name)
        cfg = default_config(basis, (), trials=0, seed=0)
        for key in ([0, 0, 0], [5, 2, 9], 11):
            want = old_rayleigh((cfg.n_r, cfg.n_t), np.random.default_rng(key), SIGMA_H)
            assert draw_channel(cfg, key).tobytes() == want.tobytes()
        acc = mask = None
        for trial in range(5):
            H = old_rayleigh((cfg.n_r, cfg.n_t), np.random.default_rng([3, trial]), SIGMA_H)
            prof = r_matrix(basis, H)
            acc = np.abs(prof.R) if acc is None else acc + np.abs(prof.R)
            mask = prof.zero_mask if mask is None else (mask & prof.zero_mask)
        sampled = sample_r_matrix(basis, trials=5, seed=3)
        assert sampled.R.tobytes() == (acc / 5).tobytes()
        assert sampled.zero_mask.tobytes() == mask.tobytes()

    @pytest.mark.parametrize("n", [1, 511, 1025, 20_000])
    @pytest.mark.parametrize("name", ["golden", "mimo_relay"])
    def test_calibration_channels_are_the_whole_draw(self, monkeypatch, name, n):
        # A calibration chunk draws its symbols, every real channel part,
        # then each block's imaginary parts.  Its blocks of channels,
        # concatenated, must be one old_rayleigh draw after one choice of
        # the symbols, and leave the stream where that left it.
        basis, _ = zoo(name)
        cfg = default_config(basis, (), trials=0, seed=0)
        values = np.array(sorted(pam(4).values), dtype=float)
        seen = []

        def spy(*args):
            seen.append(decodability._rayleigh(*args))
            return seen[-1]

        monkeypatch.setattr(simulate, "_rayleigh", spy)
        for seed in (0, [16001, 0x5EED]):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            seen.clear()
            simulate._chunk_power(basis, values, cfg, rng, n)
            ref.choice(values, size=(n, basis.k))
            want = old_rayleigh((n, cfg.n_r, cfg.n_t), ref, SIGMA_H)
            assert len(seen) == -(-n // simulate._BLOCK)
            assert np.concatenate(seen).tobytes() == want.tobytes()
            assert rng.normal(size=5).tobytes() == ref.normal(size=5).tobytes()


class TestOrthogonalityImpliesZeroEntry:
    """A vanishing anticommutator forces a vanishing R entry whenever the
    coefficients are ordered group-by-group with the conditioned block last."""

    @pytest.mark.parametrize(
        "name", ["alamouti", "golden", "silver", "srinath_rajan", "simo_relay"]
    )
    def test_profile_aligned_ordering(self, name):
        basis, prof = zoo(name)
        hr = hurwitz_radon(basis)
        ordering = prof.ordering
        pos = {sym: idx for idx, sym in enumerate(ordering)}
        k = basis.k
        n_r = max(1, -(-k // (2 * basis.T)))
        rng = np.random.default_rng(17)
        for _ in range(100):
            H = channel(basis, n_r, rng)
            R = r_matrix(basis, H, ordering).R
            norm = np.linalg.norm(R)
            for i in range(k):
                for j in range(i + 1, k):
                    if hr.adjacency[i, j]:
                        continue
                    a, b = sorted((pos[i], pos[j]))
                    assert abs(R[a, b]) <= 1e-6 * norm


class TestInvariances:
    def test_basis_permutation(self):
        basis, prof = zoo("silver")
        perm = (3, 0, 6, 1, 7, 2, 5, 4)
        permuted = WeightBasis("silver-perm", [basis.mats[i] for i in perm])
        other = classify(permuted)
        assert other.family == prof.family
        assert other.k_prime == prof.k_prime
        assert sorted(len(g) for g in other.groups) == sorted(
            len(g) for g in prof.groups
        )
        assert len(other.conditioned) == len(prof.conditioned)
        # Every shipped code under random permutations with power-of-two
        # rescaling (exact in floating point).  A permutation may pick a
        # different separator of the same size, so groups are not compared.
        rng = np.random.default_rng(7)
        for name in codebook.REGISTRY:
            basis, prof = zoo(name)
            for _ in range(5):
                perm = rng.permutation(basis.k)
                scale = 2.0 ** rng.integers(-8, 9, size=basis.k)
                mats = [basis.mats[i] * s for i, s in zip(perm, scale)]
                dependent = basis.rank < basis.k
                other = classify(WeightBasis(name, mats, allow_dependent=dependent))
                assert (other.family, other.k_prime) == (prof.family, prof.k_prime), name
        # The verdict must not depend on how the coefficients are numbered:
        # every ordering of the star's weights is one group of three.
        star = synthetic_star_basis()
        for perm in itertools.permutations(range(star.k)):
            other = classify(WeightBasis("star-perm", [star.mats[i] for i in perm]))
            assert (other.family, other.k_prime) == ("multi_group", 3), perm

    @settings(max_examples=48)
    @given(st.sampled_from(sorted(FROZEN)), st.data())
    def test_relabelling_keeps_the_verdict(self, name, data):
        basis, prof = zoo(name)
        perm = data.draw(st.permutations(range(basis.k)))
        relabelled = WeightBasis(
            name, basis.mats[perm], allow_dependent=basis.rank < basis.k
        )
        other = classify(relabelled)
        assert (other.family, other.k_prime, other.bo_params) == (
            prof.family, prof.k_prime, prof.bo_params,
        )
        # weight j of the relabelled basis is weight perm[j] of the original
        groups = {frozenset(perm[j] for j in g) for g in other.groups}
        if prof.family == "multi_group":
            assert groups == set(map(frozenset, prof.groups))
        if prof.family == "conditional_multi_group":
            # The tie-break picks the least separator in the new labels,
            # which may be another one of the same size: it must still
            # split the original graph into the groups, at the same k'.
            gamma = sum(1 << perm[j] for j in other.conditioned)
            bits, _ = decodability._graph(basis)
            rest = decodability._components_of_mask(((1 << basis.k) - 1) & ~gamma, bits)
            assert component_sets(rest) == groups
            assert len(other.conditioned) == len(prof.conditioned)

    def test_small_weights_keep_their_family(self):
        basis, prof = zoo("golden")
        small = WeightBasis("golden-small", [m * 2.0**-10 for m in basis.mats])
        other = classify(small)
        assert (other.family, other.k_prime) == (prof.family, prof.k_prime)

    def test_global_unitary(self):
        basis, prof = zoo("golden")
        U = np.linalg.qr(
            np.array([[1 + 2j, 0.5 - 1j], [-0.3 + 0.7j, 2 - 0.1j]])
        )[0]
        rotated = WeightBasis("golden-rot", [U @ m for m in basis.mats])
        hr0 = hurwitz_radon(basis)
        hr1 = hurwitz_radon(rotated)
        assert np.allclose(hr0.delta, hr1.delta, atol=1e-9 * hr0.delta.max())
        other = classify(rotated)
        assert other.family == prof.family
        assert other.k_prime == prof.k_prime
        assert other.bo_params == prof.bo_params


def synthetic_star_basis():
    """Two components: a star on {0, 1, 2} with center 2, and isolated 3."""
    mats = [
        I2,
        np.diag([1j, -1j]),
        np.array([[1, 1], [0, 1]], dtype=complex),
        np.array([[0, 1j], [1j, 0]]),
    ]
    return WeightBasis("star", mats)


def alamouti_mixes(*rows):
    """Weights sum(alamouti[j] for j in row): the alamouti weights are
    pairwise orthogonal, so two mixes are joined in the graph exactly when
    they share a weight."""
    basis, _ = zoo("alamouti")
    return [sum(basis.mats[j] for j in row) for row in rows]


def complete_basis():
    """Three weights sharing the first alamouti weight: a triangle graph,
    which no vertex separates."""
    return WeightBasis("triangle", alamouti_mixes((0,), (0, 1), (0, 2)))


def empirical_split_basis():
    """The 4-cycle 0-2-1-3 with the chord 2-3: the separator {2, 3} is
    connected in the graph, but once 0 and 1 are projected out their
    columns are orthogonal, so only the sampled R factor splits it."""
    return WeightBasis("split", alamouti_mixes((0,), (1,), (0, 1, 2), (0, 1, 3)))


class TestFastGroupRefinement:
    def test_off_by_default(self):
        prof = classify(synthetic_star_basis())
        assert prof.family == "multi_group"
        assert prof.k_prime == 3
        assert prof.groups == ((0, 1, 2), (3,))


class TestDerivedFigures:
    """reduction_pct and fast_decodable follow from k' and the k that the
    groups and conditioned set partition."""

    SYNTHETIC = {
        "star": (synthetic_star_basis, "multi_group"),
        "triangle": (complete_basis, "none"),
        "split": (empirical_split_basis, "block_orthogonal"),
    }

    @pytest.mark.parametrize("name", sorted(codebook.REGISTRY) + sorted(SYNTHETIC))
    def test_figures_follow_from_k_prime(self, name):
        if name in self.SYNTHETIC:
            make, family = self.SYNTHETIC[name]
            basis = make()
            prof = classify(basis)
            assert prof.family == family
        else:
            basis, prof = zoo(name)
        assert prof._k == basis.k
        assert prof.reduction_pct == 100 * (1 - prof.k_prime / basis.k)
        assert prof.fast_decodable == (prof.k_prime < basis.k - 2)

    def test_split_basis_is_split_by_the_sampled_r(self, monkeypatch):
        splits = []
        real = decodability._empirical_split

        def spy(*args, **kwargs):
            splits.append(real(*args, **kwargs))
            return splits[-1]

        monkeypatch.setattr(decodability, "_empirical_split", spy)
        prof = classify(empirical_split_basis())
        assert splits == [[0b0100, 0b1000]]
        assert (prof.k_prime, prof.bo_params) == (3, (2, 2, 1))


class TestBoundsCheck:
    def test_shipped_codes_within_group_bound(self):
        for name in ("alamouti", "golden", "silver"):
            basis, prof = zoo(name)
            assert bounds_check(prof, 2) == []

    def test_full_rate_floor_respected_by_golden(self):
        _, prof = zoo("golden")
        assert bounds_check(prof, 2, full_rate=True) == []

    def test_violations_are_named(self):
        prof = DecodabilityProfile(
            family="multi_group",
            groups=tuple((i,) for i in range(8)),
            conditioned=(),
            k_prime=4,
        )
        assert prof.reduction_pct == 50.0
        assert prof.fast_decodable is True
        assert bounds_check(prof, 2, full_rate=True) == [
            "group bound", "full-rate floor",
        ]

    def test_block_orthogonal_counts_parts_not_blocks(self):
        _, prof = zoo("golden")
        # four stored blocks, but the bound sees the two R parts
        assert len(prof.groups) == 4
        assert bounds_check(prof, 2) == []


class TestJsonView:
    def test_block_orthogonal_fields(self):
        _, prof = zoo("golden")
        data = prof.to_json_dict()
        assert data["family"] == "block_orthogonal"
        assert data["bo_params"] == [2, 2, 2]
        assert data["groups"] == [list(g) for g in prof.groups]
        assert "levels" not in data

    def test_conditional_fields(self):
        _, prof = zoo("silver")
        data = prof.to_json_dict()
        assert data["conditioned"] == [0, 1, 2, 3]
        assert "bo_params" not in data
        assert data["k_prime"] == 5


def _random_unitary(rng, n):
    """The Q factor of a complex Gaussian matrix."""
    return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]


@st.composite
def planted_2x2(draw):
    """A 2x2 basis with a planted orthogonality graph, and what was planted.

    Two groups of one or two real mixtures of their own alamouti weights,
    {B1, B2} and {B3, B4}: the four are unitary and pairwise orthogonal, so
    two mixtures a, b of one pair have a b^H + b a^H = 2 (a . b) I, and
    mixing directions 0.3 to 1.2 rad apart are independent and joined in the
    graph.  Then 0 to 2 dense random separator weights, joined to every
    weight, then B -> U B V by random unitaries, which keeps the graph, and
    shuffled labels.  Returns (basis, family, groups, separators, k')."""
    sizes = draw(st.tuples(st.integers(1, 2), st.integers(1, 2)))
    n_sep = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seeds, _ = zoo("alamouti")
    mats, planted = [], []
    for pair, size in zip((seeds.mats[:2], seeds.mats[2:]), sizes):
        turns = rng.uniform(0, 2 * np.pi) + np.cumsum([0, *rng.uniform(0.3, 1.2, size - 1)])
        gains = rng.uniform(0.5, 2.0, size)
        mats += [g * (np.cos(t) * pair[0] + np.sin(t) * pair[1]) for t, g in zip(turns, gains)]
        planted.append(range(len(mats) - size, len(mats)))
    planted.append(range(len(mats), len(mats) + n_sep))
    mats += list(rng.normal(size=(n_sep, 2, 2)) + 1j * rng.normal(size=(n_sep, 2, 2)))
    U, V = _random_unitary(rng, 2), _random_unitary(rng, 2)
    perm = rng.permutation(len(mats))
    basis = WeightBasis("planted", [U @ mats[i] @ V for i in perm])
    label = np.argsort(perm)  # weight i of mats is weight label[i] of the basis
    *groups, separators = (tuple(sorted(label[i] for i in p)) for p in planted)
    family = "conditional_multi_group" if n_sep else "multi_group"
    return basis, family, tuple(sorted(groups)), separators, max(sizes) + n_sep


class TestPlantedStructure:
    """Property tests over planted 2x2 bases: multi_group without separator
    weights, conditional_multi_group with them.  block_orthogonal is out of
    scope: it needs a two-part plant like golden's, and none is built."""

    @settings(max_examples=50)
    @given(planted_2x2())
    def test_classify_finds_the_plant(self, plant):
        basis, family, groups, separators, k_prime = plant
        prof = classify(basis)
        # Every separator holds the dense weights, and no group weight added
        # to them lowers k': the planted k' is the least, so it is found.
        assert (prof.family, prof.k_prime) == (family, k_prime)
        assert (prof.groups, prof.conditioned) == (groups, separators)

    @settings(max_examples=50)
    @given(planted_2x2(), st.data())
    def test_relabelling_permutes_the_groups(self, plant, data):
        basis, *_ = plant
        prof = classify(basis)
        perm = data.draw(st.permutations(range(basis.k)))
        other = classify(WeightBasis("relabelled", basis.mats[perm]))
        assert (other.family, other.k_prime) == (prof.family, prof.k_prime)
        # weight j of the relabelled basis is weight perm[j] of the plant
        assert {tuple(sorted(perm[j] for j in g)) for g in other.groups} == set(prof.groups)
        assert tuple(sorted(perm[j] for j in other.conditioned)) == prof.conditioned

    @settings(max_examples=50)
    @given(planted_2x2(), st.sampled_from([pam(2), pam(4)]), st.data())
    def test_sphere_decode_is_ml_under_either_ordering(self, plant, alphabet, data):
        basis, family, groups, *_ = plant
        prof = classify(basis)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_r = -(-basis.k // 4) + data.draw(st.integers(0, 1))
        H = rng.normal(size=(n_r, 2)) + 1j * rng.normal(size=(n_r, 2))
        assume(not r_matrix(basis, H).rank_deficient)
        sent = basis.combination(rng.choice(np.array(alphabet.values), basis.k))
        noise = rng.normal(size=(n_r, 2)) + 1j * rng.normal(size=(n_r, 2))
        Y = H @ sent + data.draw(st.sampled_from([0.0, 0.3, 1.0])) * noise
        want = ml_exhaustive(Y, H, basis, alphabet).coeffs
        for ordering in (prof.ordering, data.draw(st.permutations(range(basis.k)))):
            # one search tree per planted group when there is no separator
            blocks = len(groups) if family == "multi_group" else 1
            assert len(simulate._plan(basis, ordering).blocks) == blocks
            assert sphere_decode(Y, H, basis, alphabet, ordering).coeffs == want
