"""Constructors for the shipped space-time block code families.

Each constructor returns a WeightBasis: the complex weight matrices obtained
by setting one real coefficient of the codeword parametrization to 1 and the
rest to 0.  Real and imaginary parts of a complex information symbol count as
separate coefficients throughout, so a family with q complex symbols exposes
k = 2q weight matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .algebra import (
    NumberField,
    _is_prime,
    _perm_power,
    alamouti_algebra,
    golden_algebra,
    mido_algebra,
    mimo_relay_field,
    relay_field,
)
from .lattice import WeightBasis

__all__ = [
    "CodeDescriptor",
    "IteratedMapSpec",
    "REGISTRY",
    "alamouti",
    "build",
    "golden",
    "iterate",
    "iterated",
    "mido_a4",
    "mimo_relay",
    "quaternionic_embed",
    "silver",
    "simo_relay",
    "srinath_rajan",
]


def weights_from_linear_map(fn: Callable, k: int, name: str) -> WeightBasis:
    """Weight matrices of a codeword map that is linear over the reals."""
    mats = [np.asarray(fn(unit), dtype=complex) for unit in np.eye(k)]
    rng = np.random.default_rng(0)
    for _ in range(3):
        s = rng.normal(size=k)
        direct = np.asarray(fn(s), dtype=complex)
        combo = sum(c * B for c, B in zip(s, mats))
        if not np.allclose(direct, combo, atol=1e-9 * max(1.0, np.abs(direct).max())):
            raise ValueError("codeword map is not linear in the real coefficients")
    return WeightBasis(name, mats)


# ----------------------------------------------------------------------
# 2x2 families.


def _regular_weights(alg, order) -> list:
    """left_regular images of the unit coefficients at (comp, b), in order."""
    mats = []
    for comp, b in order:
        x = np.zeros((alg.n, alg.dim_L))
        x[comp, b] = 1.0
        mats.append(alg.left_regular(x))
    return mats


def alamouti() -> WeightBasis:
    """The rank-4 orthogonal 2x2 code from the Hamiltonian quaternions."""
    return WeightBasis("alamouti", _regular_weights(alamouti_algebra(), np.ndindex(2, 2)))


def golden(gamma: complex = 1j) -> WeightBasis:
    """The rank-8 2x2 code over Q(i, sqrt5) with non-norm element gamma.

    Codewords are [[x0 + theta*x1, gamma*(x2 + sigma(theta)*x3)],
    [x2 + theta*x3, x0 + sigma(theta)*x1]] with Gaussian-integer symbols;
    coefficients are ordered x0, x1, x2, x3 with the real part first.
    """
    order = [(0, 0), (0, 2), (0, 1), (0, 3), (1, 0), (1, 2), (1, 1), (1, 3)]
    return WeightBasis("golden", _regular_weights(golden_algebra(gamma), order))


def silver() -> WeightBasis:
    """The rank-8 2x2 code built from two orthogonal blocks and a twist.

    The second block runs through the unitary mixing matrix
    (1/sqrt7) [[1+i, -1+2i], [1+2i, 1-i]] and is twisted by diag(1, -1);
    the 1/sqrt7 normalization is absorbed into the weight matrices.
    """
    s7 = np.sqrt(7.0)
    twist = np.diag([1.0, -1.0])

    def codeword(s):
        x1, x2 = s[0] + 1j * s[1], s[2] + 1j * s[3]
        x3, x4 = s[4] + 1j * s[5], s[6] + 1j * s[7]
        block_a = np.array([[x1, -np.conj(x2)], [x2, np.conj(x1)]])
        z1 = ((1 + 1j) * x3 + (-1 + 2j) * x4) / s7
        z2 = ((1 + 2j) * x3 + (1 - 1j) * x4) / s7
        block_b = np.array([[z1, -np.conj(z2)], [z2, np.conj(z1)]])
        return block_a + twist @ block_b

    return weights_from_linear_map(codeword, 8, "silver")


# ----------------------------------------------------------------------
# 4x4 families.


def srinath_rajan() -> WeightBasis:
    """The rank-16 4x4 code with symbols x_i = x_{i1}*t1 + x_{i2}*t2.

    t1 = 1 + i*(1 - theta), t2 = t1*theta with theta the golden ratio.
    sigma is complex conjugation and tau flips sqrt5; each symbol occupies
    one position per column through its four conjugates.
    """
    sqrt5 = np.sqrt(5.0)
    theta, thbar = (1 + sqrt5) / 2, (1 - sqrt5) / 2
    # embedding keys: (conjugate i, flip sqrt5)
    t1 = {
        (0, 0): 1 + 1j * (1 - theta),
        (1, 0): 1 - 1j * (1 - theta),
        (0, 1): 1 + 1j * (1 - thbar),
        (1, 1): 1 - 1j * (1 - thbar),
    }
    t2 = {key: v * (thbar if key[1] else theta) for key, v in t1.items()}

    def times_i(tab):
        return {key: (-1j if key[0] else 1j) * v for key, v in tab.items()}

    basis_tables = [t1, times_i(t1), t2, times_i(t2)]
    IDN, SIG, TAU, TSG = (0, 0), (1, 0), (0, 1), (1, 1)
    placements = [
        [((0, 0), IDN, 1), ((1, 1), SIG, 1), ((2, 2), TAU, 1), ((3, 3), TSG, 1)],
        [((1, 0), IDN, 1), ((0, 1), SIG, -1), ((3, 2), TAU, 1), ((2, 3), TSG, -1)],
        [((2, 0), IDN, 1), ((3, 1), SIG, 1), ((0, 2), TAU, 1j), ((1, 3), TSG, 1j)],
        [((3, 0), IDN, 1), ((2, 1), SIG, -1), ((1, 2), TAU, 1j), ((0, 3), TSG, -1j)],
    ]
    mats = []
    for i in range(4):
        for tab in basis_tables:
            mat = np.zeros((4, 4), dtype=complex)
            for pos, emb, mult in placements[i]:
                mat[pos] = mult * tab[emb]
            mats.append(mat)
    return WeightBasis("srinath_rajan", mats)


def quaternionic_embed(X, gamma: complex) -> np.ndarray:
    """Conjugate a 4x4 representation into quaternionic 2x2-block form.

    The conjugator is B*P with P the permutation sending row i (1-indexed)
    to (i+1)/2 for odd i and (i+4)/2 for even i, and
    B = diag(sqrt|gamma|, |gamma|, sqrt|gamma|, |gamma|).  Similarity
    preserves determinants and eigenvalues.
    """
    X = np.asarray(X, dtype=complex)
    if X.shape != (4, 4):
        raise ValueError("the quaternionic embedding expects a 4x4 matrix")
    n = 4
    P = np.zeros((n, n))
    for i in range(1, n + 1):
        j = (i + 1) // 2 if i % 2 else (i + n) // 2
        P[i - 1, j - 1] = 1.0
    g = abs(gamma)
    B = np.diag([np.sqrt(g), g, np.sqrt(g), g])
    BP = B @ P
    return BP @ X @ np.linalg.inv(BP)


def mido_a4(gamma: float = -8.0 / 9.0) -> WeightBasis:
    """The rank-16 4x4 code from the degree-4 cyclic algebra over Q(zeta5),
    conjugated into quaternionic block form."""
    mats = _regular_weights(mido_algebra(gamma), np.ndindex(4, 4))
    return WeightBasis("mido_a4", [quaternionic_embed(X, gamma) for X in mats])


# ----------------------------------------------------------------------
# Distributed (relay) families and the iterated construction.


def _inner(field: NumberField, row: int, b: int, comp: int, t: float) -> np.ndarray:
    """Inner 2x2 block of basis element b at embedding row.

    With v and sv the values of b at row and at its sigma image, component
    0 gives diag(v, sv) and component 1 gives [[0, -t*sv], [t*v, 0]].
    """
    v = field.full_emb[row, b]
    sv = field.full_emb[field.row_after(row, "sigma"), b]
    if comp == 0:
        return np.array([[v, 0], [0, sv]])
    return np.array([[0, -t * sv], [t * v, 0]])


def _eta_orbit(field: NumberField, M: int) -> list:
    """Rows 0, eta(0), ..., eta^{M-1}(0); eta^M must return to row 0."""
    eta = field.autos["eta"]
    if M < 1 or _perm_power(eta, M)[0] != 0:
        raise ValueError(f"eta does not return to the canonical embedding after {M} steps")
    return [_perm_power(eta, j)[0] for j in range(M)]


def _blockdiag(blocks) -> np.ndarray:
    """Square blocks of one side placed along the diagonal."""
    n = len(blocks[0])
    out = np.zeros((len(blocks) * n, len(blocks) * n), dtype=complex)
    for j, blk in enumerate(blocks):
        out[j * n : (j + 1) * n, j * n : (j + 1) * n] = blk
    return out


def simo_relay() -> WeightBasis:
    """Block-diagonal rank-16 4x4 code for M = 2 rounds of a 2x2 inner code.

    The tower is Q(sqrt5, i, sqrt-3) with inner automorphism sigma flipping
    sqrt-3 and block automorphism eta flipping sqrt5, whose fixed field in
    Q(sqrt5, i) is Q(i); gamma = -2/sqrt5.  The scalar t = sqrt(-gamma) is
    evaluated once at the canonical embedding and held fixed by eta (the
    customary convention for radicals adjoined on top of the tower), so
    every relay block scales its off-diagonal pair by the same real t.  The
    symbol lattice uses the suborder basis (1, t5, i, i*t5) x (1, sqrt-3):
    each basis element is purely real or purely imaginary at every
    embedding, which is what separates the conditioned sqrt-3 half from the
    four two-symbol groups.

    Weight (comp, b) holds at diagonal block j the inner block diag(v, sv)
    for comp 0 and [[0, -t*sv], [t*v, 0]] for comp 1, where v and sv are
    the values of basis element b at the embedding row eta^j(0) and at its
    sigma image.
    """
    field = relay_field(radical_basis=True)
    t = np.sqrt(2 / np.sqrt(5))  # sqrt(-gamma), gamma = -2/sqrt5
    rows = _eta_orbit(field, 2)
    mats = [
        _blockdiag([_inner(field, r, b, comp, t) for r in rows])
        for comp in range(2)
        for b in range(field.dim)
    ]
    return WeightBasis("simo_relay", mats)


def mimo_relay(M: int = 3) -> WeightBasis:
    """Block-diagonal rank-8M code with M blocks of a doubled 2x2 inner code.

    Built over Q(xi, sqrt-5) with xi = zeta_p + zeta_p^{-1} and p = 2M + 1
    prime; gamma = -2/(1+xi) and the doubling block combines an inner pair
    (X, Y) with scalars from theta = -theta' and theta' = 3(xi-1) > 0.
    The scalars sqrt(-gamma) and sqrt(theta') are evaluated at the canonical
    embedding and reused in every block.

    Weight (part, comp, b) holds at diagonal block j the 4x4 block
    [[X, 0], [0, tau(X)]] for part 0 and [[0, zeta*s*tau(X)], [s*X, 0]]
    for part 1, with zeta = -1 and s = sqrt(theta').  X is simo_relay's
    inner block (comp, b) at the embedding row eta^j(0), and tau(X) is the
    one at its sigma image.
    """
    p = 2 * M + 1
    if p < 5 or not _is_prime(p):
        raise ValueError(f"2M+1 must be a prime >= 5, but M = {M} gives {p}")
    field = mimo_relay_field(p)
    d = field.dim
    xi = float(field.full_emb[0, 1].real)
    gamma = -2.0 / (1 + xi)
    t = np.sqrt(-gamma)
    theta_prime = 3 * (xi - 1)
    if theta_prime <= 0:
        raise ValueError("theta' is not positive at the canonical embedding")
    s = np.sqrt(theta_prime)
    zeta = -1.0
    rows = _eta_orbit(field, M)
    mats = []
    for part in range(2):  # 0: X slot, 1: Y slot of the doubling map
        for comp in range(2):
            for b in range(d):
                blocks = []
                for r in rows:
                    # tau(X) of the doubling map is the inner block at the
                    # sigma row, since sigma is an involution
                    X = _inner(field, r, b, comp, t)
                    tX = _inner(field, field.row_after(r, "sigma"), b, comp, t)
                    if part == 0:
                        blocks.append(_blockdiag([X, tX]))
                    else:  # swapping the column halves gives [[0, zeta*s*tX], [s*X, 0]]
                        blocks.append(_blockdiag([zeta * s * tX, s * X])[:, [2, 3, 0, 1]])
                mats.append(_blockdiag(blocks))
    return WeightBasis("mimo_relay", mats)


def iterated() -> WeightBasis:
    """The 32-coefficient 4x4 code [[X1, tau(X1)], [X2, tau(X2)]].

    X1, X2 are inner 2x2 codewords over Q(sqrt5, i, sqrt-3) with
    gamma = -2/sqrt5, and tau flips i while fixing sqrt5, sqrt-3, and
    sqrt(-gamma).  tau acts on every inner basis element as a sign, so the
    32 weight matrices are pairwise dependent over the reals (the lattice
    rank is 16) and the orthogonality graph splits into the two tau-sign
    classes of 16 coefficients each.
    """
    field = relay_field()
    sg, ta = field.autos["sigma"], field.autos["tau"]
    if [sg[ta[r]] for r in range(field.dim)] != [ta[sg[r]] for r in range(field.dim)]:
        raise ValueError("tau and sigma do not commute on the embeddings")
    t = np.sqrt(2 / np.sqrt(5))  # sqrt(-gamma), gamma = -2/sqrt5
    r_ta = field.row_after(0, "tau")
    mats = []
    for rows in (slice(0, 2), slice(2, 4)):
        for comp in range(2):
            for b in range(field.dim):
                W = np.zeros((4, 4), dtype=complex)
                W[rows, 0:2] = _inner(field, 0, b, comp, t)
                W[rows, 2:4] = _inner(field, r_ta, b, comp, t)
                mats.append(W)
    return WeightBasis("iterated", mats, allow_dependent=True)


# ----------------------------------------------------------------------
# Generic matrix-level operators.


@dataclass(frozen=True)
class IteratedMapSpec:
    """Data for the doubling maps: (X, Y) -> [[X, theta*tau(Y)], [Y, tau(X)]]
    and the balanced variant using zeta*sqrt(theta') and sqrt(theta')."""

    tau: Callable
    theta: complex | None = None
    zeta: complex | None = None
    theta_prime: float | None = None

    def __post_init__(self):
        if self.zeta is not None:
            if not any(abs(self.zeta - u) < 1e-12 for u in (1, -1, 1j, -1j)):
                raise ValueError("zeta must be one of 1, -1, i, -i")
        if self.theta_prime is not None and self.theta_prime <= 0:
            raise ValueError("theta_prime must be positive")
        if (
            self.theta is not None
            and self.zeta is not None
            and self.theta_prime is not None
        ):
            if abs(self.theta - self.zeta * self.theta_prime) > 1e-9 * (
                1 + abs(self.theta)
            ):
                raise ValueError("theta must equal zeta * theta_prime")


def iterate(X, Y, spec: IteratedMapSpec, balanced: bool = True) -> np.ndarray:
    """Double a pair of square matrices into a 2n x 2n block matrix."""
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    Y = np.atleast_2d(np.asarray(Y, dtype=complex))
    if X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise ValueError("X and Y must be square matrices of equal size")
    tX = np.asarray(spec.tau(X), dtype=complex)
    tY = np.asarray(spec.tau(Y), dtype=complex)
    scale = 1 + max(np.abs(X).max(), np.abs(Y).max())
    if not (
        np.allclose(spec.tau(tX), X, atol=1e-9 * scale)
        and np.allclose(spec.tau(tY), Y, atol=1e-9 * scale)
    ):
        raise ValueError("tau is not an involution on the supplied entries")
    if balanced:
        if spec.zeta is None or spec.theta_prime is None:
            raise ValueError("the balanced map needs zeta and theta_prime")
        s = np.sqrt(spec.theta_prime)
        return np.block([[X, spec.zeta * s * tY], [s * Y, tX]])
    if spec.theta is None:
        raise ValueError("the plain map needs theta")
    return np.block([[X, spec.theta * tY], [Y, tX]])


# ----------------------------------------------------------------------
# Registry.


@dataclass(frozen=True)
class CodeDescriptor:
    family: str
    params: dict = dataclass_field(default_factory=dict)


REGISTRY = {
    "alamouti": (alamouti, ()),
    "golden": (golden, ("gamma",)),
    "silver": (silver, ()),
    "srinath_rajan": (srinath_rajan, ()),
    "mido_a4": (mido_a4, ("gamma",)),
    "simo_relay": (simo_relay, ()),
    "mimo_relay": (mimo_relay, ("M",)),
    "iterated": (iterated, ()),
}


def build(desc) -> WeightBasis:
    """Build a WeightBasis from a family name, dict, or CodeDescriptor."""
    if isinstance(desc, str):
        desc = CodeDescriptor(desc)
    elif isinstance(desc, dict):
        desc = CodeDescriptor(desc.get("family", ""), desc.get("params") or {})
    if desc.family not in REGISTRY:
        raise ValueError(
            f"unknown code family '{desc.family}'; known families: {sorted(REGISTRY)}"
        )
    ctor, allowed = REGISTRY[desc.family]
    params = dict(desc.params or {})
    unknown = set(params) - set(allowed)
    if unknown:
        raise ValueError(
            f"family '{desc.family}' does not accept parameters {sorted(unknown)}"
        )
    return ctor(**params)
