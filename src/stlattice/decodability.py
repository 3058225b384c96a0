"""Decoding-complexity analysis of weight-matrix bases.

The central object is the quadratic form delta_ij = ||B_i B_j^H + B_j B_i^H||_F^2:
delta_ij = 0 is equivalent to the columns of the equivalent real channel
matrix B_H being orthogonal for every channel H, which is what lets a sphere
decoder split the symbol tree.  The orthogonality graph (edges where
sqrt(delta_ij) > TOL ||B_i||_F ||B_j||_F) is built once per basis and is both
classify's groups and the sphere decoder's split.  Classification walks it:
components give parallel groups, a small vertex separator gives a conditioned
group, and an empirically verified zero pattern of the R factor gives the
block-orthogonal refinement that the quadratic form alone cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import WeightBasis, _equivalent_channel, _fro_sq

__all__ = [
    "DecodabilityProfile",
    "HurwitzRadonProfile",
    "RMatrixProfile",
    "bounds_check",
    "classify",
    "hurwitz_radon",
    "r_matrix",
    "sample_r_matrix",
]

TOL = 1e-9
#: Largest k that gets a separator search: it builds three 2^k-entry int64
#: tables, 1.5 MiB at k = 16.
EXACT_SEPARATOR_LIMIT = 16


# ----------------------------------------------------------------------
# Hurwitz-Radon quadratic form and its graph.


@dataclass(frozen=True, eq=False)
class HurwitzRadonProfile:
    """delta matrix and the thresholded orthogonality graph."""

    delta: np.ndarray
    adjacency: np.ndarray

    def __post_init__(self):
        for name in ("delta", "adjacency"):
            arr = getattr(self, name)
            arr.setflags(write=False)


def hurwitz_radon(basis: WeightBasis) -> HurwitzRadonProfile:
    """delta_ij = ||B_i B_j^H + B_j B_i^H||_F^2 with edges where its square
    root exceeds TOL * ||B_i||_F * ||B_j||_F, so rescaling a weight keeps the
    graph and the cutoff is on the scale of the R factors' threshold."""
    mats = basis.mats
    herm = np.swapaxes(mats.conj(), -1, -2)
    delta = np.empty((basis.k, basis.k))
    # One row of pairs (i, j >= i) at a time, so only k - i products are held.
    for i in range(basis.k):
        M = mats[i] @ herm[i:] + mats[i:] @ herm[i]
        delta[i, i:] = delta[i:, i] = _fro_sq(M)
    energy = _fro_sq(mats)
    adjacency = delta > TOL * TOL * np.outer(energy, energy)
    np.fill_diagonal(adjacency, False)
    return HurwitzRadonProfile(delta=delta, adjacency=adjacency)


def _graph(basis: WeightBasis):
    """The orthogonality graph as (row bits, components as bitmasks),
    computed on the first call and kept on the basis."""
    graph = getattr(basis, "_orthogonality", None)
    if graph is None:
        bits = tuple(_adjacency_bits(hurwitz_radon(basis).adjacency))
        graph = bits, tuple(_components_of_mask((1 << basis.k) - 1, bits))
        object.__setattr__(basis, "_orthogonality", graph)
    return graph


def _adjacency_bits(adjacency: np.ndarray) -> list:
    """Row i as the integer with bit j set where adjacency[i, j] holds."""
    packed = np.packbits(np.asarray(adjacency, dtype=bool), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _components_of_mask(avail: int, bits: list) -> list:
    """Connected components of the induced subgraph, as bitmasks by lowest vertex."""
    comps = []
    rem = avail
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= bits[v] & avail & ~comp
            comp |= nxt
            frontier = nxt
        comps.append(comp)
        rem &= ~comp
    return comps


def _r_blocks(zero_mask: np.ndarray) -> list:
    """Column blocks of an R factor that no entry above its zero threshold
    links, as bitmasks in order of their lowest column."""
    interact = ~(zero_mask & zero_mask.T)
    return _components_of_mask((1 << len(zero_mask)) - 1, _adjacency_bits(interact))


def _mask_to_indices(mask: int) -> tuple:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def _exact_separator(bits: list, k: int):
    """Smallest-complexity separator by subset enumeration.

    Returns (gamma_mask, k_prime, components) for the separator minimizing
    |Gamma| + largest remaining component, ties broken by the
    lexicographically smallest Gamma (as an index set).  The search stops
    before the first size that cannot lower k', so a Gamma that leaves only
    isolated vertices wins a tie only against others like it.  None when
    no proper subset disconnects the graph.

    Every Gamma of one size is tested at once: a breadth-first search from
    each row's lowest remaining vertex over a 2^k table of neighbourhoods
    (nbr[m] is the union of bits[v] for v in m) marks the rows that split,
    and only those are peeled for their largest component.  Among equal
    sizes the lexicographically smallest index set has the largest
    bit-reversed mask.  The tables live for one call.
    """
    full = (1 << k) - 1
    nbr, pop, rev = (np.zeros(1 << k, dtype=np.int64) for _ in range(3))
    for v in range(k):
        lo, hi = 1 << v, 1 << (v + 1)
        nbr[lo:hi] = nbr[:lo] | bits[v]
        pop[lo:hi] = pop[:lo] + 1
        rev[lo:hi] = rev[:lo] | (1 << (k - 1 - v))
    best = None  # ((k_prime, gamma as indices), gamma_mask)
    for size in range(1, k - 1):
        if best is not None and size + 1 >= best[0][0]:
            break
        gammas = np.flatnonzero(pop == size)
        avail = full ^ gammas
        comp = _grow(avail & -avail, avail, nbr)
        split = comp != avail
        if not split.any():
            continue
        gammas, avail, comp = gammas[split], avail[split], comp[split]
        largest = pop[comp]
        rem = avail & ~comp
        while (live := np.flatnonzero(rem)).size:
            left = rem[live]
            comp = _grow(left & -left, avail[live], nbr)
            largest[live] = np.maximum(largest[live], pop[comp])
            rem[live] = left & ~comp
        k_prime = size + int(largest.min())
        ties = gammas[largest == k_prime - size]
        mask = int(ties[np.argmax(rev[ties])])
        key = (k_prime, _mask_to_indices(mask))
        if best is None or key < best[0]:
            best = (key, mask)
    if best is None:
        return None
    (k_prime, _), mask = best
    return mask, k_prime, _components_of_mask(full ^ mask, bits)


def _grow(comp: np.ndarray, avail: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Each row's component: comp grown through the neighbourhood table
    inside avail until it stops changing."""
    while True:
        nxt = (comp | nbr[comp]) & avail
        if np.array_equal(nxt, comp):
            return comp
        comp = nxt


# ----------------------------------------------------------------------
# R-matrix structure.


@dataclass(frozen=True, eq=False)
class RMatrixProfile:
    """Upper-triangular factor pattern of the equivalent channel matrix."""

    R: np.ndarray
    zero_mask: np.ndarray
    rank_deficient: bool

    def __post_init__(self):
        self.R.setflags(write=False)
        self.zero_mask.setflags(write=False)


def _check_ordering(ordering, k: int) -> tuple:
    if ordering is None:
        return tuple(range(k))
    ordering = tuple(int(i) for i in ordering)
    if sorted(ordering) != list(range(k)):
        raise ValueError("ordering must be a permutation of the coefficient indices")
    return ordering


def _factor(B: np.ndarray, y=None):
    """The one R stage: R, Q^T y (None without y), the zero mask and the
    deficiency flag of B or of a stack of them (..., rows, k), from one QR.
    Where R[l, l] < 0, row l of R and entry l of Q^T y are negated (exactly),
    so R has a nonnegative diagonal; R is zero-padded to k x k.  The mask
    holds the entries at most TOL times the largest |r| of their own factor,
    with no absolute floor, and a factor with a masked diagonal entry is
    deficient.  A stacked call gives each factor the bits of its own call."""
    Q, R = np.linalg.qr(B, mode="reduced")
    sign = np.where(np.diagonal(R, axis1=-2, axis2=-1) < 0, -1.0, 1.0)
    R *= sign[..., None]
    z = None if y is None else (np.swapaxes(Q, -1, -2) @ y[..., None])[..., 0] * sign
    k = R.shape[-1]
    if R.shape[-2] < k:
        R = np.concatenate([R, np.zeros((*R.shape[:-2], k - R.shape[-2], k))], axis=-2)
    mag = np.abs(R)
    zero_mask = mag <= TOL * mag.max(axis=(-2, -1), keepdims=True)
    return R, z, zero_mask, np.diagonal(zero_mask, axis1=-2, axis2=-1).any(axis=-1)


def r_matrix(basis: WeightBasis, H, ordering=None) -> RMatrixProfile:
    """QR structure of B_H = [vec(H B_1) ... vec(H B_k)] under an ordering.

    The R factor has a nonnegative diagonal (_factor); zero_mask marks
    entries at most TOL times the largest |r|.  rank_deficient is set when
    some diagonal entry vanishes at that tolerance (for a basis whose real
    span is deficient this happens for every channel).
    """
    order = _check_ordering(ordering, basis.k)
    R, _, zero_mask, deficient = _factor(_equivalent_channel(basis, H, order))
    return RMatrixProfile(R=R, zero_mask=zero_mask, rank_deficient=bool(deficient))


def _check_samples(trials: int, seed: int) -> None:
    if trials < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        raise ValueError("seed cannot be negative")


def _default_n_r(basis: WeightBasis) -> int:
    return max(1, -(-basis.k // (2 * basis.T)))


SIGMA_H = 1.0 / np.sqrt(2.0)  # channel scale per real dimension: E|h|^2 = 1


def _rayleigh(shape, rng, sigma_h: float, real=None) -> np.ndarray:
    """Rayleigh channels of any shape: independent N(0, sigma_h^2) real and
    imaginary parts, the real parts drawn first.  Given the real parts'
    standard normal draws already made, it draws the imaginary parts only.

    sigma_h times each draw is written straight into its half of one
    complex array, so only one draw is held beside it.  That equals
    sigma_h * (re + 1j * im) bit for bit, except that a draw of exactly
    +-0 may come out with the other sign of zero.
    """
    H = np.empty(shape, dtype=complex)
    np.multiply(rng.normal(size=shape) if real is None else real, sigma_h, out=H.real)
    np.multiply(rng.normal(size=shape), sigma_h, out=H.imag)
    return H


def sample_r_matrix(
    basis: WeightBasis,
    ordering=None,
    trials: int = 20,
    seed: int = 0,
) -> RMatrixProfile:
    """Average |R| over random channels at the default receive count, the
    channel of trial t drawn from the stream [seed, t] and all factored in
    one _factor call; zero_mask is ANDed across trials."""
    _check_samples(trials, seed)
    shape = (_default_n_r(basis), basis.n_t)
    rngs = (np.random.default_rng([seed, t]) for t in range(trials))
    H = np.stack([_rayleigh(shape, rng, SIGMA_H) for rng in rngs])
    B = _equivalent_channel(basis, H, _check_ordering(ordering, basis.k))
    R, _, zero_mask, deficient = _factor(B)
    return RMatrixProfile(np.abs(R).sum(axis=0) / trials, zero_mask.all(0), bool(deficient.any()))


# ----------------------------------------------------------------------
# Classification.


@dataclass(frozen=True)
class DecodabilityProfile:
    """Family, symbol grouping, and complexity order of a basis.

    groups and conditioned partition the k coefficient indices, so the
    reduction and the fast-decodable flag follow from k and k'."""

    family: str
    groups: tuple
    conditioned: tuple
    k_prime: int
    bo_params: tuple | None = None

    @property
    def _k(self) -> int:
        return sum(map(len, self.groups)) + len(self.conditioned)

    @property
    def reduction_pct(self) -> float:
        return 100.0 * (1.0 - self.k_prime / self._k)

    @property
    def ordering(self) -> tuple:
        """The decode ordering: the grouped symbols, then the conditioned."""
        return tuple(i for g in self.groups for i in g) + self.conditioned

    @property
    def fast_decodable(self) -> bool:
        return self.k_prime < self._k - 2

    def to_json_dict(self) -> dict:
        out = {
            "family": self.family,
            "groups": [list(g) for g in self.groups],
            "conditioned": list(self.conditioned),
            "k_prime": self.k_prime,
            "reduction_pct": self.reduction_pct,
            "fast_decodable": self.fast_decodable,
        }
        if self.bo_params is not None:
            out["bo_params"] = list(self.bo_params)
        return out


def _uniform_blocks(masks: list):
    """(count, size) when all bitmask blocks share one size, else None."""
    sizes = {m.bit_count() for m in masks}
    if len(sizes) != 1:
        return None
    return len(masks), sizes.pop()


def _block_orthogonal_check(
    basis: WeightBasis,
    gamma_mask: int,
    part1: list,
    bits: list,
    trials: int,
    seed: int,
):
    """Try to confirm a two-part block-orthogonal R structure.

    Part one is the non-separator components; part two splits the separator
    by its induced subgraph (or, if that subgraph is connected, by the
    empirically zero R entries).  Confirmation requires the sampled R to be
    block-diagonal inside each part with a uniform block size and to couple
    the two parts somewhere.  Only the two-components case is upgraded:
    with three or more components the conditional description already
    carries the finer group structure at the same complexity order.
    Returns (bo_params, k_prime, ordered_blocks) or None.
    """
    shape = _uniform_blocks(part1)
    if shape is None or shape[0] != 2 or gamma_mask.bit_count() != shape[0] * shape[1]:
        return None
    part2 = _components_of_mask(gamma_mask, bits)
    if len(part2) == 1:
        part2 = _empirical_split(basis, gamma_mask, trials, seed)
    if part2 is None or _uniform_blocks(part2) != shape:
        return None
    blocks = tuple(_mask_to_indices(m) for m in sorted(part1) + sorted(part2))
    ordering = [sym for b in blocks for sym in b]
    zero_mask = sample_r_matrix(basis, ordering, trials=trials, seed=seed).zero_mask
    block = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    part = block >= len(part1)
    links = np.triu(~zero_mask, 1) & (block[:, None] != block[None, :])
    # Each part must stay block-diagonal, and the two parts must couple.
    if not links.any() or np.any(links & (part[:, None] == part[None, :])):
        return None
    n_blocks, p = shape
    return (2, n_blocks, p), n_blocks * p + p, blocks


def _empirical_split(basis: WeightBasis, gamma_mask: int, trials: int, seed: int):
    """Split a separator into blocks using the sampled R zero pattern."""
    symbols = _mask_to_indices(gamma_mask)
    rest = [i for i in range(basis.k) if i not in symbols]
    ordering = rest + list(symbols)
    prof = sample_r_matrix(basis, ordering, trials=trials, seed=seed)
    comps = _r_blocks(prof.zero_mask[len(rest) :, len(rest) :])
    if len(comps) < 2:
        return None
    return [sum(1 << symbols[v] for v in _mask_to_indices(c)) for c in comps]


def classify(basis: WeightBasis, trials: int = 20, seed: int = 0) -> DecodabilityProfile:
    """Classify a basis into a decodability family with its complexity order.

    Components of the orthogonality graph (see hurwitz_radon; built once per
    basis, and the sphere decoder splits on the same components) give
    parallel groups.  A connected graph of at most EXACT_SEPARATOR_LIMIT
    coefficients gets the exact separator search and the block-orthogonal
    confirmation against R factors sampled at trials channels from seed; a
    larger one, or one that no separator splits, is family none with
    k' = k.  trials must be at least 1 and seed nonnegative, whether or not
    R is sampled.
    """
    _check_samples(trials, seed)
    k = basis.k
    bits, comps = _graph(basis)
    if len(comps) >= 2:
        k_prime = max(c.bit_count() for c in comps)
        return DecodabilityProfile("multi_group", tuple(map(_mask_to_indices, comps)), (), k_prime)

    found = _exact_separator(bits, k) if k <= EXACT_SEPARATOR_LIMIT else None
    if found is None:
        return DecodabilityProfile("none", (tuple(range(k)),), (), k)
    gamma_mask, k_prime, comps = found
    bo = _block_orthogonal_check(basis, gamma_mask, comps, bits, trials, seed)
    if bo is not None and bo[1] <= k_prime:
        bo_params, bo_k_prime, blocks = bo
        return DecodabilityProfile("block_orthogonal", blocks, (), bo_k_prime, bo_params)
    return DecodabilityProfile(
        "conditional_multi_group",
        tuple(map(_mask_to_indices, comps)),
        _mask_to_indices(gamma_mask),
        k_prime,
    )


# ----------------------------------------------------------------------
# Bounds.


def _two_adic(n: int) -> int:
    v = 0
    while n % 2 == 0 and n > 0:
        n //= 2
        v += 1
    return v


def bounds_check(profile: DecodabilityProfile, n: int, full_rate: bool = False) -> list:
    """Names of violated structural bounds, empty when none.

    The group bound caps the number of decoding groups at 2*nu_2(n) + 4;
    the full-rate floor says a full-rate code cannot have k' below n^2 + 1.
    """
    violations = []
    if profile.family != "none" and profile.groups:
        g = len(profile.groups)
        if profile.family == "block_orthogonal" and profile.bo_params is not None:
            g = profile.bo_params[0]
        if g > 2 * _two_adic(n) + 4:
            violations.append("group bound")
    if full_rate and profile.k_prime < n * n + 1:
        violations.append("full-rate floor")
    return violations
