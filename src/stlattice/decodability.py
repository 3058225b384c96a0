"""Decoding-complexity analysis of weight-matrix bases.

The central object is the quadratic form delta_ij = ||B_i B_j^H + B_j B_i^H||_F^2:
delta_ij = 0 is equivalent to the columns of the equivalent real channel
matrix B_H being orthogonal for every channel H, which is what lets a sphere
decoder split the symbol tree.  Classification walks the orthogonality graph:
components give parallel groups, a small vertex separator gives a conditioned
group, and an empirically verified zero pattern of the R factor gives the
block-orthogonal refinement that the quadratic form alone cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import WeightBasis, _equivalent_channel

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
EXACT_SEPARATOR_LIMIT = 16


# ----------------------------------------------------------------------
# Hurwitz-Radon quadratic form and its graph.


@dataclass(frozen=True)
class HurwitzRadonProfile:
    """delta matrix and the thresholded orthogonality graph."""

    delta: np.ndarray
    adjacency: np.ndarray
    tol: float

    def __post_init__(self):
        for name in ("delta", "adjacency"):
            arr = getattr(self, name)
            arr.setflags(write=False)


def hurwitz_radon(basis: WeightBasis, tol: float = TOL) -> HurwitzRadonProfile:
    """delta_ij = ||B_i B_j^H + B_j B_i^H||_F^2 with edges where it exceeds
    tol scaled by the largest entry."""
    mats = basis.mats
    k = basis.k
    delta = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            M = mats[i] @ mats[j].conj().T + mats[j] @ mats[i].conj().T
            delta[i, j] = delta[j, i] = np.linalg.norm(M) ** 2
    cutoff = tol * max(1.0, float(delta.max()))
    adjacency = delta > cutoff
    np.fill_diagonal(adjacency, False)
    return HurwitzRadonProfile(delta=delta, adjacency=adjacency, tol=cutoff)


def _adjacency_bits(adjacency: np.ndarray) -> list:
    """Row i as the integer with bit j set where adjacency[i, j] holds."""
    packed = np.packbits(np.asarray(adjacency, dtype=bool), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _components_of_mask(avail: int, bits: list) -> list:
    """Connected components of the induced subgraph, as bitmasks."""
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


def _mask_to_indices(mask: int) -> tuple:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def _exact_separator(bits: list, k: int):
    """Smallest-complexity separator by subset enumeration.

    Returns (gamma_mask, k_prime) for the separator minimizing
    |Gamma| + largest remaining component, ties broken by the
    lexicographically smallest Gamma (as an index set).  None when no
    proper subset disconnects the graph.
    """
    full = (1 << k) - 1
    best = None  # (k_prime, sorted gamma indices, gamma_mask)
    subsets_by_size = [[] for _ in range(k)]
    for mask in range(1, full):
        subsets_by_size[bin(mask).count("1")].append(mask)
    for size in range(1, k - 1):
        if best is not None and size + 1 >= best[0]:
            break
        for gamma in subsets_by_size[size]:
            avail = full & ~gamma
            comps = _components_of_mask(avail, bits)
            if len(comps) < 2:
                continue
            k_prime = size + max(bin(c).count("1") for c in comps)
            key = (k_prime, _mask_to_indices(gamma))
            if best is None or key < (best[0], best[1]):
                best = (k_prime, _mask_to_indices(gamma), gamma)
    if best is None:
        return None
    return best[2], best[0]


def _greedy_separator(bits: list, k: int):
    """Heuristic separator: repeatedly remove the highest-degree vertex."""
    full = (1 << k) - 1
    avail = full
    gamma = 0
    while True:
        comps = _components_of_mask(avail, bits)
        if len(comps) >= 2:
            break
        if bin(avail).count("1") <= 2:
            return None
        degrees = [
            (bin(bits[v] & avail).count("1"), v)
            for v in _mask_to_indices(avail)
        ]
        _, victim = max(degrees, key=lambda t: (t[0], -t[1]))
        avail &= ~(1 << victim)
        gamma |= 1 << victim
    comps = _components_of_mask(avail, bits)
    k_prime = bin(gamma).count("1") + max(bin(c).count("1") for c in comps)
    return gamma, k_prime


def _orthogonal_prefix(vertices: tuple, adjacency: np.ndarray) -> int:
    """Length of the longest prefix of the group whose members are pairwise
    non-adjacent (levels removable from the group's decoding tree)."""
    count = 0
    for idx, v in enumerate(vertices):
        if any(adjacency[v, u] for u in vertices[:idx]):
            break
        count += 1
    return count


# ----------------------------------------------------------------------
# R-matrix structure.


@dataclass(frozen=True)
class RMatrixProfile:
    """Upper-triangular factor pattern of the equivalent channel matrix."""

    R: np.ndarray
    zero_mask: np.ndarray
    rank_deficient: bool
    ordering: tuple

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


def _thresholded_r(B: np.ndarray, tol: float):
    """QR factor R of B, zero-padded to k x k, with the mask of entries at
    most tol times the largest |r| and whether a diagonal entry is masked."""
    k = B.shape[1]
    R = np.linalg.qr(B, mode="r")
    if R.shape[0] < k:
        R = np.vstack([R, np.zeros((k - R.shape[0], k))])
    scale = max(1.0, float(np.abs(R).max()))
    zero_mask = np.abs(R) <= tol * scale
    return R, zero_mask, bool(np.any(np.diag(zero_mask)))


def r_matrix(basis: WeightBasis, H, ordering=None, tol: float = TOL) -> RMatrixProfile:
    """QR structure of B_H = [vec(H B_1) ... vec(H B_k)] under an ordering.

    The R factor is sign-normalized to a nonnegative diagonal; zero_mask
    marks entries below tol scaled by the largest |r|.  rank_deficient is
    set when some diagonal entry vanishes at that tolerance (for a basis
    whose real span is deficient this happens for every channel).
    """
    order = _check_ordering(ordering, basis.k)
    R, zero_mask, rank_deficient = _thresholded_r(_equivalent_channel(basis, H, order), tol)
    signs = np.sign(np.diag(R).copy())
    signs[signs == 0] = 1.0
    R = signs[:, None] * R
    return RMatrixProfile(
        R=R, zero_mask=zero_mask, rank_deficient=rank_deficient, ordering=order
    )


def _default_n_r(basis: WeightBasis) -> int:
    return max(1, -(-basis.k // (2 * basis.T)))


def draw_channel(n_r: int, n_t: int, rng, sigma_h: float = 1.0 / np.sqrt(2.0)) -> np.ndarray:
    """Rayleigh channel: entries with independent N(0, sigma_h^2) real and
    imaginary parts, the real parts drawn first."""
    shape = (n_r, n_t)
    return sigma_h * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def sample_r_matrix(
    basis: WeightBasis,
    ordering=None,
    trials: int = 20,
    seed: int = 0,
    n_r: int | None = None,
    tol: float = TOL,
) -> RMatrixProfile:
    """Average |R| over random channels; zero_mask is ANDed across trials."""
    if trials < 1:
        raise ValueError("need at least one trial")
    n_r = _default_n_r(basis) if n_r is None else n_r
    order = _check_ordering(ordering, basis.k)
    acc = None
    mask = None
    deficient = False
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        H = draw_channel(n_r, basis.n_t, rng)
        prof = r_matrix(basis, H, order, tol)
        acc = np.abs(prof.R) if acc is None else acc + np.abs(prof.R)
        mask = prof.zero_mask if mask is None else (mask & prof.zero_mask)
        deficient = deficient or prof.rank_deficient
    return RMatrixProfile(
        R=acc / trials, zero_mask=mask, rank_deficient=deficient, ordering=order
    )


# ----------------------------------------------------------------------
# Classification.


@dataclass(frozen=True)
class DecodabilityProfile:
    """Family, symbol grouping, and complexity order of a basis."""

    family: str
    groups: tuple
    conditioned: tuple
    k_prime: int
    reduction_pct: float
    fast_decodable: bool
    levels: tuple | None = None
    bo_params: tuple | None = None

    def to_json_dict(self) -> dict:
        out = {
            "family": self.family,
            "groups": [list(g) for g in self.groups],
            "conditioned": list(self.conditioned),
            "k_prime": self.k_prime,
            "reduction_pct": self.reduction_pct,
            "fast_decodable": self.fast_decodable,
        }
        if self.levels is not None:
            out["levels"] = list(self.levels)
        if self.bo_params is not None:
            out["bo_params"] = list(self.bo_params)
        return out


def _uniform_blocks(masks: list):
    """(count, size) when all bitmask blocks share one size, else None."""
    sizes = {bin(m).count("1") for m in masks}
    if len(sizes) != 1:
        return None
    return len(masks), sizes.pop()


def _sorted_groups(masks: list) -> tuple:
    groups = [_mask_to_indices(m) for m in masks]
    return tuple(sorted(groups))


def _block_orthogonal_check(
    basis: WeightBasis,
    hr: HurwitzRadonProfile,
    gamma_mask: int,
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
    k = basis.k
    full = (1 << k) - 1
    avail = full & ~gamma_mask
    part1 = _components_of_mask(avail, bits)
    shape1 = _uniform_blocks(part1)
    if shape1 is None or shape1[0] != 2:
        return None
    n_blocks, p = shape1
    if bin(gamma_mask).count("1") != n_blocks * p:
        return None
    part2 = _components_of_mask(gamma_mask, bits)
    if len(part2) == 1:
        part2 = _empirical_split(basis, gamma_mask, trials, seed)
        if part2 is None:
            return None
    shape2 = _uniform_blocks(part2)
    if shape2 != (n_blocks, p):
        return None
    part1 = sorted(part1)
    part2 = sorted(part2)
    ordering = []
    for m in part1 + part2:
        ordering.extend(_mask_to_indices(m))
    prof = sample_r_matrix(basis, ordering, trials=trials, seed=seed)
    pos = {sym: idx for idx, sym in enumerate(ordering)}
    blocks = part1 + part2
    block_of = {}
    for b_idx, m in enumerate(blocks):
        for sym in _mask_to_indices(m):
            block_of[sym] = b_idx
    part_of = lambda b_idx: 0 if b_idx < len(part1) else 1
    coupling = False
    for i_sym in range(k):
        for j_sym in range(k):
            bi, bj = block_of[i_sym], block_of[j_sym]
            if bi == bj:
                continue
            i_pos, j_pos = pos[i_sym], pos[j_sym]
            if i_pos >= j_pos:
                continue
            if part_of(bi) == part_of(bj):
                if not prof.zero_mask[i_pos, j_pos]:
                    return None  # parts must stay internally block-diagonal
            elif not prof.zero_mask[i_pos, j_pos]:
                coupling = True
    if not coupling:
        return None
    k_prime = n_blocks * p + p
    return (2, n_blocks, p), k_prime, tuple(_mask_to_indices(m) for m in blocks)


def _empirical_split(basis: WeightBasis, gamma_mask: int, trials: int, seed: int):
    """Split a separator into blocks using the sampled R zero pattern."""
    symbols = _mask_to_indices(gamma_mask)
    rest = [i for i in range(basis.k) if i not in symbols]
    ordering = rest + list(symbols)
    prof = sample_r_matrix(basis, ordering, trials=trials, seed=seed)
    offset = len(rest)
    m = len(symbols)
    adj = np.zeros((m, m), dtype=bool)
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            i_pos, j_pos = offset + min(a, b), offset + max(a, b)
            if not prof.zero_mask[i_pos, j_pos]:
                adj[a, b] = True
    bits = _adjacency_bits(adj)
    comps = _components_of_mask((1 << m) - 1, bits)
    if len(comps) < 2:
        return None
    out = []
    for comp in comps:
        mask = 0
        for v in _mask_to_indices(comp):
            mask |= 1 << symbols[v]
        out.append(mask)
    return out


def classify(
    basis: WeightBasis,
    trials: int = 20,
    seed: int = 0,
    tol: float = TOL,
    refine_fast_group: bool = False,
) -> DecodabilityProfile:
    """Classify a basis into a decodability family with its complexity order.

    Components of the orthogonality graph give parallel groups; a connected
    graph triggers the separator search (exact up to 16 coefficients, greedy
    beyond) and the block-orthogonal confirmation against sampled R factors.
    The fast-group refinement (per-group removable levels) changes reported
    complexity orders, so it only runs when refine_fast_group is set.
    """
    hr = hurwitz_radon(basis, tol)
    k = basis.k
    bits = _adjacency_bits(hr.adjacency)
    full = (1 << k) - 1
    comps = _components_of_mask(full, bits)

    if len(comps) >= 2:
        groups = _sorted_groups(comps)
        k_prime = max(len(g) for g in groups)
        profile = DecodabilityProfile(
            family="multi_group",
            groups=groups,
            conditioned=(),
            k_prime=k_prime,
            reduction_pct=_reduction(k, k_prime),
            fast_decodable=k_prime < k - 2,
        )
        return _maybe_refine(profile, hr, k, refine_fast_group)

    if k <= EXACT_SEPARATOR_LIMIT:
        found = _exact_separator(bits, k)
    else:
        found = _greedy_separator(bits, k)

    bo = None
    if found is not None:
        gamma_mask, cond_k_prime = found
        bo = _block_orthogonal_check(basis, hr, gamma_mask, bits, trials, seed)
        if bo is not None and bo[1] <= cond_k_prime:
            bo_params, bo_k_prime, blocks = bo
            return DecodabilityProfile(
                family="block_orthogonal",
                groups=blocks,
                conditioned=(),
                k_prime=bo_k_prime,
                reduction_pct=_reduction(k, bo_k_prime),
                fast_decodable=bo_k_prime < k - 2,
                bo_params=bo_params,
            )
        avail = full & ~gamma_mask
        groups = _sorted_groups(_components_of_mask(avail, bits))
        profile = DecodabilityProfile(
            family="conditional_multi_group",
            groups=groups,
            conditioned=_mask_to_indices(gamma_mask),
            k_prime=cond_k_prime,
            reduction_pct=_reduction(k, cond_k_prime),
            fast_decodable=cond_k_prime < k - 2,
        )
        return _maybe_refine(profile, hr, k, refine_fast_group)

    return DecodabilityProfile(
        family="none",
        groups=(tuple(range(k)),),
        conditioned=(),
        k_prime=k,
        reduction_pct=0.0,
        fast_decodable=False,
    )


def _reduction(k: int, k_prime: int) -> float:
    return 100.0 * (1.0 - k_prime / k)


def _maybe_refine(
    profile: DecodabilityProfile,
    hr: HurwitzRadonProfile,
    k: int,
    refine_fast_group: bool,
) -> DecodabilityProfile:
    """Fast-group refinement: remove per-group parallel levels from k'.

    Within a group, a set of pairwise-orthogonal members can be decoded in
    parallel at the bottom of the tree, removing L_i levels.  This changes
    the reported complexity order, so it is opt-in.
    """
    if not refine_fast_group:
        return profile
    levels = tuple(
        _orthogonal_prefix(g, hr.adjacency) for g in profile.groups
    )
    if not any(lv >= 2 for lv in levels):
        return profile
    residual = max(len(g) - lv for g, lv in zip(profile.groups, levels))
    k_prime = max(1, len(profile.conditioned) + residual)
    if k_prime >= profile.k_prime:
        return profile
    return DecodabilityProfile(
        family="fast_group",
        groups=profile.groups,
        conditioned=profile.conditioned,
        k_prime=k_prime,
        reduction_pct=_reduction(k, k_prime),
        fast_decodable=k_prime < k - 2,
        levels=levels,
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
