"""Cyclic algebras over number fields with numeric embeddings.

An algebra element is a matrix of rational coefficients over a fixed Q-basis
of the maximal subfield L.  Its NumberField stores the values of every basis
element under a full set of embeddings L -> C; Galois automorphisms then act
by permuting embeddings, and field products act pointwise on value vectors.
This avoids a symbolic number-field engine while keeping every identity exact
up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CyclicAlgebra",
    "NumberField",
    "alamouti_algebra",
    "golden_algebra",
    "mido_algebra",
    "relay_field",
    "relay_algebra",
    "mimo_relay_field",
    "mimo_relay_algebra",
]

TOL = 1e-9


def _check_perm(perm, d):
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(d)):
        raise ValueError("automorphism table is not a permutation of the embeddings")
    return perm


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % f for f in range(2, int(p**0.5) + 1))


def _perm_power(perm, j):
    idx = list(range(len(perm)))
    for _ in range(j):
        idx = [perm[r] for r in idx]
    return idx


@dataclass(frozen=True, eq=False)
class NumberField:
    """A field L given by the values of its Q-basis under a full embedding
    set, plus the index permutations of the automorphisms used by the code
    constructors.

    full_emb[r, b] is the value of the b-th basis element under the r-th
    embedding; row 0 is the canonical embedding used for codeword entries.
    autos[name] encodes tau_r compose a = tau_{autos[name][r]}.
    """

    full_emb: np.ndarray
    autos: dict

    def __post_init__(self):
        emb = np.array(self.full_emb, dtype=complex)
        if emb.ndim != 2 or emb.shape[0] != emb.shape[1]:
            raise ValueError("full_emb must be square with one row per basis element")
        emb.setflags(write=False)
        object.__setattr__(self, "full_emb", emb)
        object.__setattr__(
            self, "autos", {k: _check_perm(v, len(emb)) for k, v in self.autos.items()}
        )

    @property
    def dim(self) -> int:
        return len(self.full_emb)

    def row_after(self, row: int, *auto_names) -> int:
        """Embedding row of tau_row composed with the named automorphisms.

        row_after(r, 'sigma', 'eta') returns r' with
        tau_r(sigma(eta(x))) = tau_{r'}(x) for all x.
        """
        for name in auto_names:
            row = self.autos[name][row]
        return row

    def orbit(self, name: str, steps: int) -> list:
        """Rows 0, a(0), ..., a^{steps-1}(0) of the automorphism a = autos[name]."""
        rows, row = [], 0
        for _ in range(steps):
            rows.append(row)
            row = self.autos[name][row]
        return rows


@dataclass(frozen=True, eq=False)
class CyclicAlgebra:
    """Cyclic algebra (L/K, sigma, gamma) of degree n over the field L.

    sigma is the field's automorphism named "sigma", so sigma^j images are
    read off by walking its permutation.  gamma_coeffs expresses gamma in
    the L-basis (needed only for products).
    """

    field: NumberField
    n: int
    gamma: complex
    gamma_coeffs: np.ndarray | None = None

    def __post_init__(self):
        if "sigma" not in self.field.autos:
            raise ValueError("the field has no automorphism named 'sigma'")
        d = self.dim_L
        if _perm_power(self.sigma_perm, self.n) != list(range(d)):
            raise ValueError("sigma does not have order dividing n on the embeddings")
        if self.gamma_coeffs is not None:
            gc = np.asarray(self.gamma_coeffs, dtype=float)
            if gc.shape != (d,):
                raise ValueError("gamma_coeffs must have one entry per basis element")
            if abs(self.full_emb[0] @ gc - self.gamma) > TOL * (1 + abs(self.gamma)):
                raise ValueError("gamma_coeffs disagree with the gamma value")
            gc.setflags(write=False)
            object.__setattr__(self, "gamma_coeffs", gc)

    @property
    def full_emb(self) -> np.ndarray:
        return self.field.full_emb

    @property
    def sigma_perm(self) -> tuple:
        return self.field.autos["sigma"]

    @property
    def dim_L(self) -> int:
        return self.field.dim

    def element(self, coeffs) -> np.ndarray:
        """Validate and return an (n, dim_L) rational coefficient matrix."""
        arr = np.asarray(coeffs, dtype=float)
        if arr.shape != (self.n, self.dim_L):
            raise ValueError(
                f"element coefficients must have shape ({self.n}, {self.dim_L})"
            )
        return arr

    def sigma_rows(self) -> list:
        """Embedding-row index of sigma^j composed with the canonical row."""
        return self.field.orbit("sigma", self.n)

    def left_regular(self, x) -> np.ndarray:
        """The n x n matrix of left multiplication in the canonical embedding.

        Entry (i, j) holds sigma^j(x_{(i-j) mod n}), multiplied by gamma
        strictly above the diagonal.
        """
        x = self.element(x)
        rows = self.sigma_rows()
        out = np.empty((self.n, self.n), dtype=complex)
        for i in range(self.n):
            for j in range(self.n):
                v = self.full_emb[rows[j]] @ x[(i - j) % self.n]
                out[i, j] = self.gamma * v if i < j else v
        return out

    def multiply(self, x, y) -> np.ndarray:
        """Algebra product of two elements, as coefficient matrices.

        Components follow from e*lambda = sigma(lambda)*e and e^n = gamma:
        z_m = sum_l gamma^[m<l] sigma^l(x_{(m-l) mod n}) y_l.
        """
        if self.gamma_coeffs is None:
            raise ValueError("products need gamma expressed in the L-basis")
        x, y = self.element(x), self.element(y)
        d = self.dim_L
        xvals = self.full_emb @ x.T  # (d_embeddings, n_components)
        yvals = self.full_emb @ y.T
        gvals = self.full_emb @ self.gamma_coeffs
        z = np.zeros((self.n, d))
        for m in range(self.n):
            acc = np.zeros(d, dtype=complex)
            for l in range(self.n):
                perm = _perm_power(self.sigma_perm, l)
                term = xvals[perm, (m - l) % self.n] * yvals[:, l]
                if m < l:
                    term = term * gvals
                acc += term
            z[m] = _solve_real(self.full_emb, acc)
        return z


def _solve_real(emb: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Solve emb @ c = values for a real coefficient vector c."""
    A = np.vstack([emb.real, emb.imag])
    b = np.concatenate([values.real, values.imag])
    c, residuals, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < emb.shape[1]:
        raise ValueError("embedding matrix does not determine coefficients")
    if np.linalg.norm(A @ c - b) > 1e-6 * (1 + np.linalg.norm(b)):
        raise ValueError("values are inconsistent with any element of L")
    return c


# ----------------------------------------------------------------------
# Shipped algebra instances.


def alamouti_algebra() -> CyclicAlgebra:
    """(Q(i)/Q, conjugation, -1): the Hamiltonian quaternions."""
    field = NumberField(full_emb=np.array([[1, 1j], [1, -1j]]), autos={"sigma": (1, 0)})
    return CyclicAlgebra(field, n=2, gamma=-1, gamma_coeffs=np.array([-1.0, 0.0]))


def golden_algebra(gamma: complex = 1j) -> CyclicAlgebra:
    """(Q(i,sqrt5)/Q(i), theta -> 1-theta, gamma), default gamma = i.

    Basis 1, theta, i, i*theta with theta the golden ratio; embeddings are
    indexed by the sign choices for i and sqrt5.
    """
    theta = (1 + np.sqrt(5)) / 2
    thetabar = (1 - np.sqrt(5)) / 2
    rows = []
    for ei in (1, -1):
        for e5 in (theta, thetabar):
            rows.append([1, e5, ei * 1j, ei * 1j * e5])
    emb = np.array(rows)
    # row order: (i, theta), (i, thetabar), (-i, theta), (-i, thetabar)
    gamma = complex(gamma)
    gamma_coeffs = None
    if abs(gamma - 1j) < TOL:
        gamma_coeffs = np.array([0.0, 0.0, 1.0, 0.0])
    elif abs(gamma.imag) < TOL:
        gamma_coeffs = np.array([gamma.real, 0.0, 0.0, 0.0])
    field = NumberField(full_emb=emb, autos={"sigma": (1, 0, 3, 2)})
    return CyclicAlgebra(field, n=2, gamma=gamma, gamma_coeffs=gamma_coeffs)


def mido_algebra(gamma: float = -8.0 / 9.0) -> CyclicAlgebra:
    """(Q(zeta5)/Q, zeta5 -> zeta5^3, gamma) over the difference basis.

    Basis 1-zeta5, zeta5-zeta5^2, zeta5^2-zeta5^3, zeta5^3-zeta5^4;
    embeddings send zeta5 to its m-th power, m = 1..4.
    """
    zeta = np.exp(2j * np.pi / 5)
    powers = [1, 2, 3, 4]
    rows = []
    for m in powers:
        z = zeta**m
        rows.append([1 - z, z - z**2, z**2 - z**3, z**3 - z**4])
    emb = np.array(rows)
    # sigma: zeta5 -> zeta5^3 maps embedding m to embedding (3m mod 5)
    perm = [powers.index((3 * m) % 5) for m in powers]
    value = complex(gamma)
    if value.imag != 0 or value == 0:
        raise ValueError(f"gamma must be a nonzero real number, not {gamma}")
    gamma = value.real
    # gamma is rational: 1 = (1/5)(4,3,2,1) in the difference basis
    one = np.array([4.0, 3.0, 2.0, 1.0]) / 5.0
    field = NumberField(full_emb=emb, autos={"sigma": tuple(perm)})
    return CyclicAlgebra(field, n=4, gamma=gamma, gamma_coeffs=gamma * one)


def relay_field(radical_basis: bool = False) -> NumberField:
    """Q(sqrt5, i, sqrt-3) with automorphisms sigma, tau, and eta.

    sigma flips sqrt-3 (the inner degree-2 generator), tau flips i only,
    and eta flips sqrt5 only (the relay block automorphism, fixing Q(i)
    on the middle field Q(sqrt5, i)).  Basis: (1, t5, i, i*t5) times
    (1, t3) with t5 = (1+sqrt5)/2 and t3 = (1+sqrt-3)/2; radical_basis
    swaps the second factor for (1, sqrt-3), the suborder whose basis
    elements are purely real or purely imaginary at every embedding.
    Embedding rows run over the sign choices (e5, ei, e3) in
    lexicographic order with + first.
    """
    t5p, t5m = (1 + np.sqrt(5)) / 2, (1 - np.sqrt(5)) / 2
    s3 = 1j * np.sqrt(3)
    signs = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    rows = []
    for e5, ei, e3 in signs:
        t5 = t5m if e5 else t5p
        iv = -1j if ei else 1j
        rad = -s3 if e3 else s3
        second = rad if radical_basis else (1 + rad) / 2
        four = [1, t5, iv, iv * t5]
        rows.append([b * t for t in (1, second) for b in four])
    emb = np.array(rows)
    idx = {s: r for r, s in enumerate(signs)}
    sigma = [idx[(a, b, 1 - c)] for a, b, c in signs]
    tau = [idx[(a, 1 - b, c)] for a, b, c in signs]
    eta = [idx[(1 - a, b, c)] for a, b, c in signs]
    return NumberField(
        full_emb=emb,
        autos={"sigma": tuple(sigma), "tau": tuple(tau), "eta": tuple(eta)},
    )


def relay_algebra() -> CyclicAlgebra:
    """Degree-2 algebra (Q(sqrt5,i,sqrt-3) / Q(sqrt5,i), sigma, -2/sqrt5)."""
    field = relay_field()
    gc = np.zeros(field.dim)
    gc[0], gc[1] = 0.4, -0.8  # -2/sqrt5 = (2 - 4*t5)/5
    return CyclicAlgebra(field, n=2, gamma=-2 / np.sqrt(5), gamma_coeffs=gc)


def mimo_relay_field(p: int = 7) -> NumberField:
    """Q(xi, omega) with xi = zeta_p + zeta_p^-1 and omega = sqrt(-5).

    sigma flips omega; eta sends xi to xi^2 - 2, cycling the real embeddings
    of the maximal real subfield.  Requires the doubling map to act
    transitively on the xi-conjugates, which holds for the shipped p = 7.
    """
    if p < 5 or not _is_prime(p):
        raise ValueError("p must be a prime >= 5")
    M = (p - 1) // 2
    signs = [(m, e) for m in range(1, M + 1) for e in (0, 1)]
    idx = {s: r for r, s in enumerate(signs)}
    sigma = [idx[(m, 1 - e)] for m, e in signs]
    # eta: m -> 2m (mod p, folded to 1..M), which must cycle row 0 through
    # all M conjugates
    eta = [idx[(min(2 * m % p, p - 2 * m % p), e)] for m, e in signs]
    omega = 1j * np.sqrt(5)
    rows = []
    for m, e in signs:
        xi = 2 * np.cos(2 * np.pi * m / p)
        w = -omega if e else omega
        xs = [xi**t for t in range(M)]
        rows.append([b * w**u for u in (0, 1) for b in xs])
    field = NumberField(full_emb=np.array(rows), autos={"sigma": tuple(sigma), "eta": tuple(eta)})
    if len(set(field.orbit("eta", M))) < M:
        raise ValueError(
            f"the doubling map is not transitive on the conjugates: M = {M}, 2M+1 = {p}"
        )
    return field


def mimo_relay_algebra() -> CyclicAlgebra:
    """Degree-2 algebra (Q(xi,omega) / Q(xi), sigma, -2/(1+xi)) for p = 7."""
    field = mimo_relay_field(7)
    xi = 2 * np.cos(2 * np.pi / 7)
    gc = np.zeros(field.dim)
    # 1/(1+xi) = 2 - xi^2 from xi^3 + xi^2 - 2xi - 1 = 0
    gc[0], gc[2] = -4.0, 2.0
    return CyclicAlgebra(field, n=2, gamma=-2 / (1 + xi), gamma_coeffs=gc)
