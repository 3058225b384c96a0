"""Tests for the shipped code constructors and matrix-level operators.

Oracle values: the Alamouti, Golden, and Silver weight matrices were written
out by hand from the codeword parametrizations (one real coefficient set to 1
at a time); the diagonal-embedding entries of the 4x4 family follow from the
four conjugates of t1 = 1 + i*(1 - theta) with theta the golden ratio.
"""

import numpy as np
import pytest

from stlattice import codebook
from stlattice.codebook import (
    CodeDescriptor,
    IteratedMapSpec,
    build,
    iterate,
    quaternionic_embed,
    weights_from_linear_map,
)
from stlattice.algebra import mimo_relay_field, relay_field
from stlattice.lattice import min_rank_difference, min_rank_sampled

THETA = (1 + np.sqrt(5)) / 2
THBAR = (1 - np.sqrt(5)) / 2

ALAMOUTI_MATS = [
    np.eye(2),
    np.diag([1j, -1j]),
    np.array([[0, -1], [1, 0]], dtype=complex),
    np.array([[0, 1j], [1j, 0]]),
]


class TestAlamouti:
    def test_exact_weights(self):
        b = codebook.alamouti()
        assert b.k == 4
        for got, want in zip(b.mats, ALAMOUTI_MATS):
            assert np.allclose(got, want, atol=1e-12)

    def test_codeword_shape(self):
        X = codebook.alamouti().combination([1, 2, 3, 4])
        assert np.allclose(X, [[1 + 2j, -3 + 4j], [3 + 4j, 1 - 2j]])


class TestGolden:
    def test_exact_weights(self):
        b = codebook.golden()
        expect = [
            np.eye(2),
            1j * np.eye(2),
            np.diag([THETA, THBAR]),
            np.diag([1j * THETA, 1j * THBAR]),
            np.array([[0, 1j], [1, 0]]),
            np.array([[0, -1], [1j, 0]]),
            np.array([[0, 1j * THBAR], [THETA, 0]]),
            np.array([[0, -THBAR], [1j * THETA, 0]]),
        ]
        assert b.k == 8
        for got, want in zip(b.mats, expect):
            assert np.allclose(got, want, atol=1e-12)

    def test_codeword_layout(self):
        # [[x0 + theta x1, gamma (x2 + sigma(theta) x3)],
        #  [x2 + theta x3, x0 + sigma(theta) x1]] at x0=1, x1=2, x2=3, x3=4
        X = codebook.golden().combination([1, 0, 2, 0, 3, 0, 4, 0])
        want = np.array(
            [
                [1 + THETA * 2, 1j * (3 + THBAR * 4)],
                [3 + THETA * 4, 1 + THBAR * 2],
            ]
        )
        assert np.allclose(X, want, atol=1e-12)

    def test_custom_gamma(self):
        b = codebook.golden(gamma=2 + 1j)
        assert np.allclose(b.mats[4], [[0, 2 + 1j], [1, 0]], atol=1e-12)


class TestSilver:
    def test_first_block_is_orthogonal_design(self):
        b = codebook.silver()
        assert b.k == 8
        for got, want in zip(b.mats[:4], ALAMOUTI_MATS):
            assert np.allclose(got, want, atol=1e-12)

    def test_mixed_twisted_weight(self):
        b = codebook.silver()
        want = np.array([[1 + 1j, -1 + 2j], [-1 - 2j, -1 + 1j]]) / np.sqrt(7)
        assert np.allclose(b.mats[4], want, atol=1e-12)

    def test_full_diversity(self):
        assert min_rank_difference(codebook.silver(), search_bound=1) == 2


class TestSrinathRajan:
    def test_first_weight_is_diagonal_of_conjugates(self):
        b = codebook.srinath_rajan()
        assert b.k == 16
        m = b.mats[0]
        assert np.allclose(m - np.diag(np.diag(m)), 0, atol=1e-12)
        t1 = 1 + 1j * (1 - THETA)
        t1_tau = 1 + 1j * (1 - THBAR)
        assert np.allclose(
            np.diag(m), [t1, np.conj(t1), t1_tau, np.conj(t1_tau)], atol=1e-12
        )

    def test_third_symbol_occupies_antidiagonal_slots(self):
        m = codebook.srinath_rajan().mats[8]
        t1 = 1 + 1j * (1 - THETA)
        t1_tau = 1 + 1j * (1 - THBAR)
        assert m[2, 0] == pytest.approx(t1, abs=1e-12)
        assert m[3, 1] == pytest.approx(np.conj(t1), abs=1e-12)
        assert m[0, 2] == pytest.approx(1j * t1_tau, abs=1e-12)
        assert m[1, 3] == pytest.approx(1j * np.conj(t1_tau), abs=1e-12)
        filled = {(2, 0), (3, 1), (0, 2), (1, 3)}
        for r in range(4):
            for c in range(4):
                if (r, c) not in filled:
                    assert m[r, c] == 0

    def test_full_diversity_sampled(self):
        b = codebook.srinath_rajan()
        assert min_rank_sampled(b, search_bound=1, n_random=500) == 4


class TestQuaternionicEmbed:
    def test_identity_is_fixed(self):
        assert np.allclose(quaternionic_embed(np.eye(4), -8 / 9), np.eye(4), atol=1e-12)

    def test_similarity_preserves_spectrum(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        Y = quaternionic_embed(X, -8 / 9)
        assert np.linalg.det(Y) == pytest.approx(np.linalg.det(X), abs=1e-9)
        key = lambda z: (round(z.real, 6), round(z.imag, 6))
        assert np.allclose(
            sorted(np.linalg.eigvals(Y), key=key),
            sorted(np.linalg.eigvals(X), key=key),
            atol=1e-7,
        )

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            quaternionic_embed(np.eye(2), -1.0)


class TestMidoA4:
    def test_every_block_is_quaternionic(self):
        b = codebook.mido_a4()
        assert b.k == 16
        for W in b.mats:
            for bi in range(2):
                for bj in range(2):
                    blk = W[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2]
                    assert blk[1, 1] == pytest.approx(np.conj(blk[0, 0]), abs=1e-9)
                    assert blk[0, 1] == pytest.approx(-np.conj(blk[1, 0]), abs=1e-9)

    def test_full_diversity_sampled(self):
        b = codebook.mido_a4()
        assert min_rank_sampled(b, search_bound=1, n_random=500) == 4


class TestSimoRelay:
    def test_shape_and_rank(self):
        b = codebook.simo_relay()
        assert b.k == 16
        assert b.mats[0].shape == (4, 4)
        assert b.rank == 16

    def test_first_weight_is_identity(self):
        assert np.allclose(codebook.simo_relay().mats[0], np.eye(4), atol=1e-12)

    def test_block_diagonal_with_two_populated_blocks(self):
        for W in codebook.simo_relay().mats:
            assert np.allclose(W[0:2, 2:4], 0, atol=1e-12)
            assert np.allclose(W[2:4, 0:2], 0, atol=1e-12)
            assert np.abs(W[0:2, 0:2]).max() > 1e-12
            assert np.abs(W[2:4, 2:4]).max() > 1e-12

    def test_full_diversity_sampled(self):
        b = codebook.simo_relay()
        assert min_rank_sampled(b, search_bound=1, n_random=500) == 4


class TestMimoRelay:
    def test_shape_and_rank(self):
        b = codebook.mimo_relay()
        assert b.k == 24
        assert b.mats[0].shape == (12, 12)
        assert b.rank == 24

    def test_block_diagonal_with_three_populated_blocks(self):
        for W in codebook.mimo_relay().mats:
            for a in range(3):
                for c in range(3):
                    blk = W[4 * a : 4 * a + 4, 4 * c : 4 * c + 4]
                    if a == c:
                        assert np.abs(blk).max() > 1e-12
                    else:
                        assert np.allclose(blk, 0, atol=1e-12)

    def test_five_round_variant(self):
        b = codebook.mimo_relay(M=5)
        assert b.k == 40
        assert b.mats[0].shape == (20, 20)
        assert b.rank == 40

    def test_rejects_M_whose_2M_plus_1_is_not_a_prime(self):
        # p = 2M + 1 is derived, so the message names M
        with pytest.raises(ValueError, match="M = 1"):
            codebook.mimo_relay(M=1)  # p = 3 < 5
        with pytest.raises(ValueError, match="M = 4"):
            codebook.mimo_relay(M=4)  # p = 9
        with pytest.raises(ValueError, match=r"does not accept parameters \['p'\]"):
            build({"family": "mimo_relay", "params": {"M": 3, "p": 7}})

    def test_rejects_negative_scaling_tower(self):
        # p = 5 puts xi below 1, so the doubling scalar square is negative
        with pytest.raises(ValueError, match="positive"):
            codebook.mimo_relay(M=2)


class TestIterated:
    def test_shape_and_deficient_rank(self):
        b = codebook.iterated()
        assert b.k == 32
        assert b.mats[0].shape == (4, 4)
        assert b.rank == 16

    def test_row_blocks_split_by_symbol_half(self):
        b = codebook.iterated()
        for i in range(16):
            assert np.allclose(b.mats[i][2:4, :], 0, atol=1e-12)
        for i in range(16, 32):
            assert np.allclose(b.mats[i][0:2, :], 0, atol=1e-12)


def eta_rows(field, M):
    """Embedding rows 0, eta(0), ..., eta^{M-1}(0)."""
    rows = [0]
    for _ in range(M - 1):
        rows.append(field.autos["eta"][rows[-1]])
    return rows


class TestRelayFormulas:
    """Every entry of the relay stacks against the docstring formulas, with ==.

    v and sv are read from the field's embedding table at an embedding row r
    and at sigma(r), for all basis elements b at once.  The inner 2x2 block
    is diag(v, sv) for the first component and [[0, -t*sv], [t*v, 0]] for
    the second, with t = sqrt(-gamma); every other entry is 0.
    """

    def test_simo_relay(self):
        field = relay_field(radical_basis=True)
        t = np.sqrt(2 / np.sqrt(5))
        d = field.dim
        want = np.zeros((2 * d, 4, 4), dtype=complex)
        for j, r in enumerate(eta_rows(field, 2)):
            v, sv = field.full_emb[r], field.full_emb[field.autos["sigma"][r]]
            a, c = 2 * j, 2 * j + 1
            want[:d, a, a], want[:d, c, c] = v, sv
            want[d:, a, c], want[d:, c, a] = -t * sv, t * v
        assert np.array_equal(codebook.simo_relay()._stack, want)

    @pytest.mark.parametrize("M", [3, 5])
    def test_mimo_relay(self, M):
        # block j holds [[X, 0], [0, tau(X)]] for the X slot and
        # [[0, zeta*s*tau(Y)], [s*Y, 0]] for the Y slot, zeta = -1 and
        # s = sqrt(theta'); tau(X) is X with v and sv swapped
        field = mimo_relay_field(2 * M + 1)
        xi = field.full_emb[0, 1].real
        t, s = np.sqrt(2 / (1 + xi)), np.sqrt(3 * (xi - 1))
        d = field.dim
        want = np.zeros((4 * d, 4 * M, 4 * M), dtype=complex)
        X0, X1, Y0, Y1 = (want[i * d : (i + 1) * d] for i in range(4))
        for j, r in enumerate(eta_rows(field, M)):
            v, sv = field.full_emb[r], field.full_emb[field.autos["sigma"][r]]
            o0, o1, o2, o3 = range(4 * j, 4 * j + 4)
            X0[:, o0, o0], X0[:, o1, o1], X0[:, o2, o2], X0[:, o3, o3] = v, sv, sv, v
            X1[:, o0, o1], X1[:, o1, o0] = -t * sv, t * v
            X1[:, o2, o3], X1[:, o3, o2] = -t * v, t * sv
            Y0[:, o0, o2], Y0[:, o1, o3] = -s * sv, -s * v
            Y0[:, o2, o0], Y0[:, o3, o1] = s * v, s * sv
            Y1[:, o0, o3], Y1[:, o1, o2] = -s * (-t * v), -s * (t * sv)
            Y1[:, o2, o1], Y1[:, o3, o0] = s * (-t * sv), s * (t * v)
        assert np.array_equal(codebook.mimo_relay(M=M)._stack, want)

    def test_iterated(self):
        # [[X1, tau(X1)], [X2, tau(X2)]]: X at row 0, tau(X) at row tau(0)
        field = relay_field()
        t = np.sqrt(2 / np.sqrt(5))
        d = field.dim
        want = np.zeros((4 * d, 4, 4), dtype=complex)
        for half in range(2):
            a, c = 2 * half, 2 * half + 1
            first, second = want[a * d : c * d], want[c * d : (c + 1) * d]
            for col, r in ((0, 0), (2, field.autos["tau"][0])):
                v, sv = field.full_emb[r], field.full_emb[field.autos["sigma"][r]]
                first[:, a, col], first[:, c, col + 1] = v, sv
                second[:, a, col + 1], second[:, c, col] = -t * sv, t * v
        assert np.array_equal(codebook.iterated()._stack, want)


class TestIterateMap:
    def spec(self):
        return IteratedMapSpec(
            tau=np.conj, theta=-2.0, zeta=-1.0, theta_prime=2.0
        )

    def test_zero_second_argument_gives_block_diagonal(self):
        X = np.array([[1 + 2j, 3], [4, 5 - 1j]])
        out = iterate(X, np.zeros((2, 2)), self.spec())
        assert np.allclose(out[0:2, 0:2], X)
        assert np.allclose(out[0:2, 2:4], 0)
        assert np.allclose(out[2:4, 0:2], 0)
        assert np.allclose(out[2:4, 2:4], np.conj(X))

    def test_balanced_block_signs(self):
        X = np.eye(2, dtype=complex)
        Y = np.array([[0, 1 + 1j], [2, 0]])
        out = iterate(X, Y, self.spec())
        s = np.sqrt(2.0)
        assert np.allclose(out[0:2, 2:4], -s * np.conj(Y))
        assert np.allclose(out[2:4, 0:2], s * Y)

    def test_plain_map_uses_theta(self):
        X = np.eye(2, dtype=complex)
        Y = np.array([[0, 1j], [1, 0]])
        out = iterate(X, Y, self.spec(), balanced=False)
        assert np.allclose(out[0:2, 2:4], -2.0 * np.conj(Y))
        assert np.allclose(out[2:4, 0:2], Y)

    def test_determinant_lands_in_fixed_field(self):
        # real theta and entrywise conjugation force a real determinant
        rng = np.random.default_rng(9)
        spec = self.spec()
        for _ in range(25):
            X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            Y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            for balanced in (True, False):
                d = np.linalg.det(iterate(X, Y, spec, balanced=balanced))
                assert abs(d.imag) <= 1e-9 * max(1.0, abs(d))

    def test_mutual_orthogonality_is_inherited(self):
        spec = self.spec()
        doubled = [iterate(m, np.zeros((2, 2)), spec) for m in ALAMOUTI_MATS]
        for i in range(4):
            for j in range(i + 1, 4):
                anti = (
                    doubled[i] @ doubled[j].conj().T
                    + doubled[j] @ doubled[i].conj().T
                )
                assert np.linalg.norm(anti) <= 1e-12

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="square"):
            iterate(np.eye(2), np.eye(3), self.spec())

    def test_rejects_non_involution(self):
        bad = IteratedMapSpec(tau=lambda A: A + 1, zeta=-1.0, theta_prime=2.0)
        with pytest.raises(ValueError, match="involution"):
            iterate(np.eye(2), np.eye(2), bad)

    def test_balanced_needs_scaling_data(self):
        spec = IteratedMapSpec(tau=np.conj, theta=-2.0)
        with pytest.raises(ValueError, match="balanced"):
            iterate(np.eye(2), np.eye(2), spec)

    def test_plain_needs_theta(self):
        spec = IteratedMapSpec(tau=np.conj, zeta=-1.0, theta_prime=2.0)
        with pytest.raises(ValueError, match="theta"):
            iterate(np.eye(2), np.eye(2), spec, balanced=False)


class TestIteratedMapSpec:
    def test_rejects_bad_zeta(self):
        with pytest.raises(ValueError, match="zeta"):
            IteratedMapSpec(tau=np.conj, zeta=0.5)

    def test_rejects_nonpositive_theta_prime(self):
        with pytest.raises(ValueError, match="positive"):
            IteratedMapSpec(tau=np.conj, theta_prime=-1.0)

    def test_rejects_inconsistent_triple(self):
        with pytest.raises(ValueError, match="zeta"):
            IteratedMapSpec(tau=np.conj, theta=2.0, zeta=-1.0, theta_prime=2.0)


class TestWeightsFromLinearMap:
    def test_rejects_nonlinear_map(self):
        def fn(s):
            return np.array([[s[0] ** 2, s[1]], [0, 1]], dtype=complex)

        with pytest.raises(ValueError, match="linear"):
            weights_from_linear_map(fn, 2, "bad")


class TestBuildRegistry:
    def test_build_from_name(self):
        assert build("alamouti").k == 4

    def test_build_from_dict_with_params(self):
        b = build({"family": "golden", "params": {"gamma": 2 + 1j}})
        assert np.allclose(b.mats[4], [[0, 2 + 1j], [1, 0]], atol=1e-12)

    def test_build_from_descriptor(self):
        b = build(CodeDescriptor("mimo_relay", {"M": 3}))
        assert b.k == 24

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown code family"):
            build("nope")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="parameters"):
            build(CodeDescriptor("golden", {"shininess": 1}))

    def test_registry_covers_all_families(self):
        assert sorted(codebook.REGISTRY) == [
            "alamouti",
            "golden",
            "iterated",
            "mido_a4",
            "mimo_relay",
            "silver",
            "simo_relay",
            "srinath_rajan",
        ]
