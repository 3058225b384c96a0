"""Tests for the cyclic algebras and number fields behind the code families."""

import numpy as np
import pytest

from stlattice.algebra import (
    CyclicAlgebra,
    NumberField,
    alamouti_algebra,
    golden_algebra,
    mido_algebra,
    mimo_relay_algebra,
    mimo_relay_field,
    relay_algebra,
    relay_field,
)
from stlattice.codebook import _inner

RNG = np.random.default_rng(20240817)


def degree3_algebra(gamma=2.0):
    """(Q(xi)/Q, xi -> xi^2 - 2, gamma) with xi = 2cos(2pi/7), degree 3."""
    ms = [1, 2, 3]
    rows = []
    for m in ms:
        xi = 2 * np.cos(2 * np.pi * m / 7)
        rows.append([1, xi, xi**2])
    # doubling map folds m to min(2m mod 7, 7 - 2m mod 7): 1->2->3->1
    perm = tuple(ms.index(min(2 * m % 7, 7 - 2 * m % 7)) for m in ms)
    field = NumberField(full_emb=np.array(rows), autos={"sigma": perm})
    return CyclicAlgebra(field, n=3, gamma=gamma, gamma_coeffs=np.array([gamma, 0.0, 0.0]))


ONE_COEFFS = {
    "alamouti": (alamouti_algebra, [1.0, 0.0]),
    "golden": (golden_algebra, [1.0, 0.0, 0.0, 0.0]),
    "mido": (mido_algebra, np.array([4.0, 3.0, 2.0, 1.0]) / 5.0),
    "relay": (relay_algebra, [1.0] + [0.0] * 7),
    "mimo_relay": (mimo_relay_algebra, [1.0] + [0.0] * 5),
    "degree3": (degree3_algebra, [1.0, 0.0, 0.0]),
}


def random_element(alg, scale=3):
    return RNG.integers(-scale, scale + 1, size=(alg.n, alg.dim_L)).astype(float)


class TestLeftRegular:
    def test_hamiltonian_display(self):
        # x = x0 + e*x1 maps to [[x0, -conj(x1)], [x1, conj(x0)]]
        alg = alamouti_algebra()
        x0, x1 = 1 + 2j, 3 - 4j
        rho = alg.left_regular([[x0.real, x0.imag], [x1.real, x1.imag]])
        expected = np.array([[x0, -np.conj(x1)], [x1, np.conj(x0)]])
        assert np.allclose(rho, expected, atol=1e-12)

    def test_degree3_first_row_pattern(self):
        alg = degree3_algebra(gamma=2.0)
        x = random_element(alg)
        rho = alg.left_regular(x)
        rows = alg.sigma_rows()

        def emb(comp, j):
            return alg.full_emb[rows[j]] @ x[comp]

        assert np.isclose(rho[0, 0], emb(0, 0))
        assert np.isclose(rho[0, 1], 2.0 * emb(2, 1))
        assert np.isclose(rho[0, 2], 2.0 * emb(1, 2))
        assert np.isclose(rho[1, 0], emb(1, 0))
        assert np.isclose(rho[2, 1], emb(1, 1))
        assert np.isclose(rho[2, 2], emb(0, 2))

    @pytest.mark.parametrize("name", sorted(ONE_COEFFS))
    def test_identity_maps_to_identity(self, name):
        ctor, one = ONE_COEFFS[name]
        alg = ctor()
        x = np.zeros((alg.n, alg.dim_L))
        x[0] = one
        assert np.allclose(alg.left_regular(x), np.eye(alg.n), atol=1e-9)

    @pytest.mark.parametrize("name", sorted(ONE_COEFFS))
    def test_multiplicative(self, name):
        ctor, _ = ONE_COEFFS[name]
        alg = ctor()
        for _ in range(5):
            x, y = random_element(alg), random_element(alg)
            z = alg.multiply(x, y)
            lhs = alg.left_regular(x) @ alg.left_regular(y)
            rhs = alg.left_regular(z)
            assert np.allclose(lhs, rhs, atol=1e-6 * max(1, np.abs(lhs).max()))

    def test_golden_theta_norm_trace(self):
        alg = golden_algebra()
        x = np.zeros((2, 4))
        x[0, 1] = 1.0  # x = theta
        rho = alg.left_regular(x)
        assert np.isclose(np.linalg.det(rho), -1.0, atol=1e-12)
        assert np.isclose(np.trace(rho), 1.0, atol=1e-12)

    def test_alamouti_i_norm_trace(self):
        alg = alamouti_algebra()
        rho = alg.left_regular([[0.0, 1.0], [0.0, 0.0]])  # x = i
        assert np.isclose(np.linalg.det(rho), 1.0, atol=1e-12)
        assert np.isclose(np.trace(rho), 0.0, atol=1e-12)

    def test_element_shape_validated(self):
        alg = alamouti_algebra()
        with pytest.raises(ValueError):
            alg.left_regular([1.0, 0.0])


def balanced_block(alg, x):
    """The balanced degree-2 block of x that the relay codes ship: the sum
    of x[comp, b] times codebook._inner at the canonical row, with
    t = sqrt(-gamma)."""
    t = np.sqrt(complex(-alg.gamma))
    return sum(
        x[comp, b] * _inner(alg.field, 0, b, comp, t)
        for comp in range(2)
        for b in range(alg.dim_L)
    )


class TestBalancedRep:
    @pytest.mark.parametrize("name", ["alamouti", "golden", "relay", "mimo_relay"])
    def test_det_matches_left_regular(self, name):
        ctor, _ = ONE_COEFFS[name]
        alg = ctor()
        for _ in range(25):
            x = random_element(alg)
            d1 = np.linalg.det(alg.left_regular(x))
            d2 = np.linalg.det(balanced_block(alg, x))
            assert np.isclose(d1, d2, atol=1e-7 * max(1, abs(d1)))

    def test_real_scaling_for_negative_gamma(self):
        alg = relay_algebra()
        x = np.zeros((2, alg.dim_L))
        x[1, 0] = 1.0  # x = e
        rep = balanced_block(alg, x)
        t = np.sqrt(2 / np.sqrt(5))
        expected = np.array([[0, -t], [t, 0]])
        assert np.allclose(rep, expected, atol=1e-12)


def sigma_values(alg, coeffs):
    """Values of sigma(x) under every embedding: x's values, permuted."""
    return (alg.full_emb @ np.asarray(coeffs, dtype=float))[list(alg.sigma_perm)]


class TestFieldOps:
    def test_golden_sigma_on_theta(self):
        # sigma(theta) = 1 - theta, at the sigma row and under every embedding
        alg = golden_algebra()
        theta, one_minus_theta = [0.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0]
        got = alg.full_emb[alg.sigma_rows()[1]] @ theta
        assert np.isclose(got, alg.full_emb[0] @ one_minus_theta, atol=1e-12)
        assert np.allclose(
            sigma_values(alg, theta), alg.full_emb @ one_minus_theta, atol=1e-12
        )

    def test_relay_sigma_fixes_i_flips_t3(self):
        alg = relay_algebra()
        i_vec = np.zeros(8)
        i_vec[2] = 1.0
        assert np.allclose(sigma_values(alg, i_vec), alg.full_emb @ i_vec, atol=1e-12)
        t3_vec = np.zeros(8)
        t3_vec[4] = 1.0
        expected = np.zeros(8)
        expected[0], expected[4] = 1.0, -1.0  # sigma(t3) = 1 - t3
        assert np.allclose(sigma_values(alg, t3_vec), alg.full_emb @ expected, atol=1e-12)

    def test_theta_squared(self):
        # theta^2 = 1 + theta under every embedding
        emb = golden_algebra().full_emb
        theta = emb @ [0.0, 1.0, 0.0, 0.0]
        assert np.allclose(theta**2, emb @ [1.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_relay_field_automorphism_rows(self):
        field = relay_field()
        assert field.row_after(0, "sigma", "sigma") == 0
        assert field.row_after(0, "sigma") == 1  # flips sqrt-3
        assert field.row_after(0, "tau") == 2  # flips i
        assert field.row_after(0, "eta") == 4  # flips sqrt5 only
        assert field.row_after(0, "eta", "eta") == 0

    def test_relay_field_radical_basis(self):
        field = relay_field(radical_basis=True)
        # second half of the basis carries sqrt-3 in place of (1+sqrt-3)/2
        assert np.allclose(field.full_emb[0, 4], 1j * np.sqrt(3), atol=1e-12)
        # still rank 8 over the reals
        stacked = np.vstack([field.full_emb.real, field.full_emb.imag])
        assert np.linalg.matrix_rank(stacked) == 8

    def test_orbit_walks_from_the_canonical_row(self):
        assert relay_field().orbit("eta", 3) == [0, 4, 0]
        assert relay_field().orbit("sigma", 0) == []
        assert mimo_relay_field(11).orbit("eta", 6) == [0, 2, 6, 4, 8, 0]

    def test_mimo_relay_eta_cycles_three_blocks(self):
        field = mimo_relay_field()
        r = 0
        seen = [r]
        for _ in range(2):
            r = field.row_after(r, "eta")
            seen.append(r)
        assert len(set(seen)) == 3
        assert field.row_after(seen[-1], "eta") == 0


def gaussian_field(sigma):
    """Q(i) at its two embeddings, with sigma given as a row table."""
    return NumberField(full_emb=np.array([[1, 1j], [1, -1j]]), autos={"sigma": sigma})


class TestValidation:
    def test_sigma_order_check(self):
        with pytest.raises(ValueError, match="permutation"):
            gaussian_field((0, 0))
        with pytest.raises(ValueError, match="order"):
            CyclicAlgebra(gaussian_field((1, 0)), n=3, gamma=-1)

    def test_gamma_coeffs_consistency(self):
        with pytest.raises(ValueError, match="disagree"):
            CyclicAlgebra(
                gaussian_field((1, 0)), n=2, gamma=-1, gamma_coeffs=np.array([1.0, 0.0])
            )

    def test_mimo_relay_field_rejects_bad_p(self):
        with pytest.raises(ValueError):
            mimo_relay_field(6)
        with pytest.raises(ValueError):
            mimo_relay_field(17)  # doubling map is not transitive mod 17

    def test_mimo_relay_field_accepts_p11(self):
        field = mimo_relay_field(11)
        assert field.dim == 10
