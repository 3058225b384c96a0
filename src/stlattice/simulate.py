"""Rayleigh-fading MIMO simulation with exhaustive ML and sphere decoding.

The codeword map is linear in the real coefficients, so decoding reduces to
the real linear model iota(Y) = B_H s + n with B_H = [vec(H B_1) ... ].
The sphere decoder is exact maximum likelihood: an iterative best-first
depth-first loop whose radius starts infinite and shrinks at each accepted
leaf; nodes_visited counts the whole alphabet at every expanded node.
The decoder searches each component of the weights' orthogonality graph (the
groups classify reports) as its own column block, which is where the
classified group structure shows up as measured effort.

A campaign decodes each SNR point's trials in blocks.  A block's received
blocks, equivalent channels, overflow and finiteness checks, QR factors,
R thresholds and plan checks are formed in stacked calls, through the same
stages that ml_exhaustive and sphere_decode run on one trial; only the
searches run trial by trial.  Each codeword is its own trial's one-row
lattice._codewords product: stacked, its bits could differ.  The other
stacked BLAS and LAPACK calls give every trial the bits of its own call.
The tests check that, and CI runs them under OpenBLAS's Prescott,
SandyBridge and Haswell kernels too; another BLAS could differ in the last
bits.  ml_exhaustive forms its metrics from B_H and iota(Y) without BLAS,
so they take no other bits from the kernel than B_H's own.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from operator import sub

import numpy as np

from .decodability import (
    SIGMA_H,
    _check_ordering,
    _default_n_r,
    _factor,
    _graph,
    _mask_to_indices,
    _rayleigh,
    classify,
)
from .lattice import (
    _BLOCK_BYTES,
    WeightBasis,
    _codewords,
    _equivalent_channel,
    _vectorize_stack,
)

__all__ = [
    "Alphabet",
    "ChannelConfig",
    "DecodeResult",
    "SimCampaign",
    "calibrate_noise",
    "default_config",
    "draw_channel",
    "ml_exhaustive",
    "pam",
    "run_campaign",
    "sphere_decode",
]

ML_SPACE_LIMIT = 2**24
#: Monte Carlo samples behind every campaign's noise calibration.
CALIBRATION_SAMPLES = 100_000
_CALIBRATION_STREAM = 0x5EED
_CHUNK = 1 << 14
_BLOCK = 512  # calibration samples per codeword block
# Metrics within this relative distance of the minimum tie: the decoders sum
# in different orders, so an exact tie can differ in the last bits.
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class Alphabet:
    """Finite signalling set for the real coefficients, symmetric about 0
    and held in ascending order, the order every decoder and draw reads."""

    values: tuple

    def __post_init__(self):
        if not all(float(v).is_integer() for v in self.values):
            raise ValueError("alphabet values must be integers")
        vals = tuple(sorted(int(v) for v in self.values))
        if len(vals) == 0 or len(set(vals)) != len(vals):
            raise ValueError("alphabet needs distinct values")
        if any(-v not in vals for v in vals):
            raise ValueError("alphabet must be symmetric around the origin")
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return len(self.values)


def pam(size: int = 4) -> Alphabet:
    """The size-point pulse-amplitude set {..., -3, -1, 1, 3, ...}."""
    if size < 2 or size % 2:
        raise ValueError("PAM size must be a positive even number")
    return Alphabet(tuple(range(1 - int(size), int(size), 2)))


@dataclass(frozen=True)
class ChannelConfig:
    """Static Rayleigh block-fading channel and campaign parameters; the
    channel scale is decodability.SIGMA_H."""

    n_t: int
    n_r: int
    T: int
    snr_db_grid: tuple
    trials: int
    seed: int

    def __post_init__(self):
        if self.T < self.n_t:
            raise ValueError("the channel must stay static for T >= n_t uses")
        if self.n_r < 1:
            raise ValueError("need at least one receive antenna")
        if self.trials < 0:
            raise ValueError("trials cannot be negative")
        if self.seed < 0:
            raise ValueError("seed cannot be negative")
        object.__setattr__(
            self, "snr_db_grid", tuple(_check_snr(x) for x in self.snr_db_grid)
        )


def _check_snr(snr_db) -> float:
    """An SNR in dB as a float; +inf is the noiseless point."""
    snr_db = float(snr_db)
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValueError("SNR values must be numbers or +inf dB, not NaN or -inf")
    return snr_db


def default_config(
    basis: WeightBasis,
    snr_db_grid,
    trials: int,
    seed: int,
    n_r: int | None = None,
) -> ChannelConfig:
    """Config sized to the basis; n_r defaults to the smallest count that
    makes the equivalent real channel matrix square or tall."""
    return ChannelConfig(
        n_t=basis.n_t,
        n_r=_default_n_r(basis) if n_r is None else n_r,
        T=basis.T,
        snr_db_grid=tuple(snr_db_grid),
        trials=trials,
        seed=seed,
    )


@dataclass(frozen=True)
class DecodeResult:
    coeffs: tuple
    metric: float
    nodes_visited: int


def draw_channel(cfg: ChannelConfig, rng_state) -> np.ndarray:
    """One n_r x n_t channel draw; real and imaginary parts are
    independent N(0, SIGMA_H^2)."""
    # default_rng hands a Generator back unchanged and seeds anything else.
    return _rayleigh((cfg.n_r, cfg.n_t), np.random.default_rng(rng_state), SIGMA_H)


def _mean_signal_power(
    basis: WeightBasis, alphabet: Alphabet, cfg: ChannelConfig, samples: int
) -> float:
    """Monte Carlo estimate of E||HX||_F^2 over symbols and channels; an
    estimate that is not above 0 (no signal power) raises.

    The stream is seeded by cfg.seed alone, so the estimate does not depend
    on the SNR; one chunk of 20,000 samples is summed at a time (_chunk_power).
    """
    if (cfg.n_t, cfg.T) != (basis.n_t, basis.T):
        raise ValueError(
            f"channel config has n_t x T = {cfg.n_t} x {cfg.T}, "
            f"but the basis has {basis.n_t} x {basis.T}"
        )
    if samples < 10_000:
        raise ValueError("calibration needs at least 10^4 samples")
    values = np.array(alphabet.values, dtype=float)
    rng = np.random.default_rng([cfg.seed, _CALIBRATION_STREAM])
    total = 0.0
    for done in range(0, samples, 20_000):
        total += _chunk_power(basis, values, cfg, rng, min(20_000, samples - done))
    if not total > 0:
        raise ValueError("the basis and alphabet carry no signal power")
    return total / samples


def _chunk_power(basis: WeightBasis, values, cfg: ChannelConfig, rng, n: int) -> float:
    """The sum of ||HX||_F^2 over n samples, symbols drawn before channels.
    The symbols are alphabet indices in the smallest unsigned dtype, drawn
    _BLOCK rows a call: rng.choice(values) is values at rng.integers(0, L),
    and a split draw continues the stream.  The channels' real parts are
    drawn whole, then each block's imaginary parts.  Per block, X is one
    _codewords product, and each receive antenna's row of HX, vector-matrix
    products rather than a zgemm per sample, is summed by one dot."""
    L, k = len(values), basis.k
    digits = np.empty((n, k), dtype=np.min_scalar_type(L))
    for lo in range(0, n, _BLOCK):
        digits[lo : lo + _BLOCK] = rng.integers(0, L, size=(min(_BLOCK, n - lo), k))
    real = rng.normal(size=(n, cfg.n_r, cfg.n_t))
    total = 0.0
    for lo in range(0, n, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        H = _rayleigh(real[rows].shape, rng, SIGMA_H, real[rows])
        X = _codewords(basis.mats, values[digits[rows]])
        for i in range(cfg.n_r):
            HX = H[:, i : i + 1] @ X
            total += np.vdot(HX, HX).real
    return float(total)


def calibrate_noise(
    basis: WeightBasis,
    alphabet: Alphabet,
    cfg: ChannelConfig,
    snr_db: float,
    samples: int = CALIBRATION_SAMPLES,
) -> float:
    """Noise scale sigma_n with E||HX||^2 / E||N||^2 equal to the target.

    The signal power is estimated empirically (at least 10^4 samples); the
    noise power is the exact n_r * T * 2 * sigma_n^2, so the returned scale
    satisfies the ratio to Monte Carlo accuracy.
    """
    snr_db = _check_snr(snr_db)
    return _noise_scale(_mean_signal_power(basis, alphabet, cfg, samples), cfg, snr_db)


def _noise_scale(mean_sig: float, cfg: ChannelConfig, snr_db: float) -> float:
    """sigma_n that puts the noise power n_r * T * 2 * sigma_n^2 at
    mean_sig / 10^(snr_db / 10)."""
    target = 10.0 ** (snr_db / 10.0)
    return float(np.sqrt(mean_sig / (target * 2.0 * cfg.n_r * cfg.T)))


def _real_model(Y, H, basis: WeightBasis, alphabet: Alphabet, order):
    """B_H with its columns in order, and iota(Y), for one trial or a stack
    of trials (leading axes shared by Y and H).

    A finite Y or H so large that a metric could overflow is rejected
    before any product is formed.  Every entry of y - B_H s is at most
    e = |Y| + k |s| 2 n_t |H| |B_i| in modulus (each |.| the largest real or
    imaginary part of the trial's own block), and the metrics and the
    sphere decoder's partial distances stay below (k + 1) 2 n_r T e^2.
    """
    H = np.atleast_2d(np.asarray(H, dtype=complex))
    Y = np.atleast_2d(np.asarray(Y, dtype=complex))
    if Y.shape != (*H.shape[:-1], basis.T):
        raise ValueError(
            f"received block has shape {Y.shape}, expected {(*H.shape[:-1], basis.T)}"
        )
    # The largest |real part| or |imaginary part| of each trial's Y and H;
    # the B_i's is basis._peak.
    peak_y, peak_h = (
        np.abs(np.ascontiguousarray(A).view(float)).max(axis=(-2, -1), initial=0.0)
        for A in (Y, H)
    )
    # Non-finite entries are left to the finiteness checks below.
    finite = np.isfinite(peak_y) & np.isfinite(peak_h)
    peak_s = max(map(abs, alphabet.values))
    with np.errstate(over="ignore", invalid="ignore"):
        e = peak_y + basis.k * peak_s * 2 * basis.n_t * peak_h * basis._peak
        fits = (basis.k + 1) * 2 * Y.shape[-2] * Y.shape[-1] * e * e <= sys.float_info.max
    if (finite & ~fits).any():
        raise ValueError("received block or channel too large: the metric would overflow")
    B = _equivalent_channel(basis, H, order)
    if not np.isfinite(Y).all():
        raise ValueError("matrix entries must be finite")
    return B, _vectorize_stack(Y)


def _ml_split(L: int, k: int) -> int:
    """The number m of trailing (lo) digits of the L^k grid; its other
    k - m digits are the leading (hi) ones.  A grid past the 2^24 guard
    raises.

    A grid of at most _CHUNK rows is all lo digits: one empty hi row.  A
    larger grid splits its digits evenly, m = ceil(k / 2) lo digits, or
    fewer if L^m would pass _CHUNK, but at least one: the hi rows are then
    few enough to bound one by one, and a block holds whole hi rows.
    """
    if L**k > ML_SPACE_LIMIT:
        raise ValueError(f"exhaustive search space {L}^{k} exceeds the 2^24 guard")
    m = k
    if L**k > _CHUNK:
        m = (k + 1) // 2
        while m > 1 and L**m > _CHUNK:
            m -= 1
    return m


def ml_exhaustive(Y, H, basis: WeightBasis, alphabet: Alphabet) -> DecodeResult:
    """Global minimizer of ||Y - HX||_F^2 over the full coefficient grid.

    Metrics within a relative 1e-9 of the minimum tie, and ties go to the
    lexicographically smallest coefficient vector.  Guarded to
    |S|^k <= 2^24 grid points; nodes_visited reports the grid size.

    The grid splits into leading (hi) and trailing (lo) digits (_ml_split).
    A hi row s_hi has the residual r = y - s_1 b_1 - s_2 b_2 - ... over its
    columns of B, and a lo row the product p = b_1 s_1 + b_2 s_2 + ... over
    the lo columns, each formed by one elementwise pass a term, in that
    order.  Every metric is (r_1 - p_1)^2 + (r_2 - p_2)^2 + ..., summed left
    to right, one real dimension a pass along the grid rows.  No BLAS
    kernel forms a metric from B and y and no multiply-add is fused, so a
    row's metric has the same bits on every machine for the same B and y,
    whichever rows are formed with it; it can differ from the direct
    ||y - B s||^2 in its last bits.

    No lo row can take a hi row's metric below ||W^T r||^2, W the
    orthogonal complement of the lo columns (_hi_bounds).  The hi row of
    least bound is evaluated first, and its least metric sets a seed
    window; only the hi rows whose bound, less a rounding guard, lies in
    that window are evaluated, in lexicographic order.  Rows run in that
    order, so the winner is the first row in the final tie window, and it
    lies strictly below every row before it.  Only such rows are kept,
    each while it stays in the window: memory does not grow with the
    number of tied rows.
    """
    values = np.array(alphabet.values, dtype=float)
    B, y = _real_model(Y, H, basis, alphabet, range(basis.k))
    m = _ml_split(len(values), basis.k)
    return _ml_search(B, y, values, m, *_ml_rows(B, y, values, m))


def _digit_tree(start, prods, op) -> np.ndarray:
    """start op b_1 s_1 op b_2 s_2 op ... for every grid row s over the
    digits of prods, in lexicographic order, for one trial or a stack of
    them; prods[..., j, :, :] holds b_j times each value, and entry
    (..., i, x) of start or of the result is real dimension i at row x.
    Each digit takes one elementwise pass, which extends every row of the
    digits before it by each value of its own."""
    out = start
    for j in range(prods.shape[-3]):
        p = prods[..., j, :, :]
        out = op(out[..., None], p[..., None, :]).reshape(*p.shape[:-1], -1)
    return out


def _ml_rows(B, y, values, m: int):
    """The residuals R = y - s_1 b_1 - s_2 b_2 - ... of every hi row and the
    products P = b_1 s_1 + b_2 s_2 + ... of every lo row (_digit_tree), for
    one trial or a stack of trials (leading axes of B and y)."""
    k = B.shape[-1]
    prods = np.swapaxes(B, -1, -2)[..., None] * values
    return (
        _digit_tree(y[..., None], prods[..., : k - m, :, :], np.subtract),
        _digit_tree(prods[..., k - m, :, :], prods[..., k - m + 1 :, :, :], np.add),
    )


def _hi_bounds(B, y, values, R, m: int):
    """Each hi row's lower bound ||W^T r||^2 on its metrics, r its residual
    (a column of R), and the guard on the bound's rounding.

    W holds the last dim - m columns of a complete QR of B_lo, so it is
    orthogonal to every lo column at any rank (empty if dim <= m: every
    bound is then 0), and ||W^T r|| = ||W^T (r - B_lo s_lo)|| is at most
    the root of every metric of the hi row.  One float per hi row, read off
    B and y alone.

    The guard, to first order in u = 2^-53, with n = dim and the scale
    S = ||y|| + max|v| sum_j ||b_j||, which bounds ||y - B s|| on the grid:
     - the QR: LAPACK's Householder QR has an exactly orthogonal Q with
       B_lo + E = Q R', ||e_j|| <= 8 m n u ||b_j||, each computed column of
       Q within 8 m n u of Q's (Higham, Thm 19.4, its small constant taken
       as 8).  The exact complement W' of B_lo + E gives W'^T B_lo s_lo
       within 8 m n u S of 0, and the computed W moves W^T r by at most
       sqrt(n) 8 m n u S;
     - the rows: p = B_lo s_lo is formed within m u S, the product W^T r
       within n^(3/2) u S and the sum of its squares moves its root by
       n u S / 2; the metric's n differences and squares move its root by
       (n + 2) u S at most.
    So sqrt(bound) <= sqrt(metric) + e S for each metric of the hi row, with
    e = (1 + sqrt(n)) 8 m n u + (n^(3/2) + 3 n / 2 + m + 2) u
    <= 8 (n + k)^(5/2) u.  A window w is a metric times 1 + _TIE_TOL, so
    sqrt(w) <= 1.01 S and (sqrt(w) + e S)^2 <= w + 3 e S^2: a bound above
    w + 3 e S^2 puts every metric of its hi row above w.  The guard,
    32 (n + k)^3 u S^2, is at least 3 e S^2.
    """
    n, k = B.shape
    W = np.linalg.qr(B[:, k - m :], mode="complete")[0][:, m:]
    gap = W.T @ R
    scale = np.linalg.norm(y) + np.abs(values).max() * np.linalg.norm(B, axis=0).sum()
    return np.einsum("ij,ij->j", gap, gap), (n + k) ** 3 * 2.0**-48 * scale * scale


def _ml_search(B, y, values, m: int, R, P) -> DecodeResult:
    """ml_exhaustive's grid search on one trial's B, y and _ml_rows.  Hi
    row h and lo row l make grid row h L^m + l, and a row's coefficients
    are the values of its k base-L digits."""
    L, k = len(values), B.shape[1]
    live = np.arange(L ** (k - m))
    per_block = min(max(1, _CHUNK // L**m), len(live))
    buf = np.empty((len(P), per_block, L**m))

    def metrics_of(rows):
        sq = buf[:, : len(rows)]
        np.square(np.subtract(R[:, rows, None], P[:, None], out=sq), out=sq)
        metrics = sq[0]
        for term in sq[1:]:
            metrics += term
        return metrics

    if len(live) > 1:
        bound, guard = _hi_bounds(B, y, values, R, m)
        window = float(metrics_of([bound.argmin()]).min()) * (1.0 + _TIE_TOL)
        # The final window is at most this seed window.  A skipped hi row has
        # every metric above the seed window, so above the final one: it can
        # neither win nor, lying above every candidate, hold a winner back.
        live = np.flatnonzero(bound - guard <= window)
    # The grid's first row stands in at an infinite metric, in case no
    # metric is finite.
    best_metric, kept = np.inf, [(np.inf, 0)]
    for start in range(0, len(live), per_block):
        rows = live[start : start + per_block]
        metrics = metrics_of(rows)
        lowest = best_metric
        best_metric = min(best_metric, float(metrics.min()))
        if best_metric == lowest:
            continue  # no row below the running minimum: nothing to keep
        window = best_metric * (1.0 + _TIE_TOL)
        kept = [c for c in kept if c[0] <= window]
        # Candidates lie in the window and below every earlier block.  A row
        # above the window is above every candidate and cannot hold one
        # back, so scanning the candidates finds every row that lowers the
        # running minimum.
        hi, lo = np.nonzero((metrics <= window) & (metrics < lowest))
        for h, l, dist in zip(rows[hi].tolist(), lo.tolist(), metrics[hi, lo].tolist()):
            if dist < lowest:
                lowest = dist
                kept.append((dist, h * L**m + l))
    metric, row = kept[0]
    coeffs = tuple(int(values[d]) for d in np.unravel_index(row, (L,) * k))
    return DecodeResult(coeffs=coeffs, metric=metric, nodes_visited=L**k)


def _sphere_block(R, z, values, lex_perm):
    """Exact depth-first search on one upper-triangular block.

    An iterative Schnorr-Euchner loop (Agrell, Eriksson, Vardy and Zeger,
    IEEE T-IT 2002): children are visited in order of increasing partial
    distance, equal distances in alphabet order (a stable sort's order), the
    radius starts infinite and shrinks to the tie window of the best leaf,
    and the first child beyond it ends its level.  Of the leaves in the
    final window, the lexicographically smallest in the coefficients'
    original positions wins.  nodes_visited counts the whole alphabet, L
    children, at each expanded node.

    Children are generated on demand: a child's distance is computed when
    the walk reaches it, and most expansions stop after one or two.  R has
    a nonnegative diagonal (decodability._factor), so every level's centres
    R[l, l] v ascend in alphabet order.  Rounding is monotone, so the
    distances are weakly valley-shaped: they fall weakly up to t and rise
    weakly after it.  A walk outward from t, with a pointer on each side
    taking the nearer head and the left one on a tie (the lower alphabet
    index), gives the stable sort's order, unless two children on one side
    tie: the stable sort takes the lower index first, a walk going left the
    higher.  Such a tie needs the rounding to merge two distances.  With
    a = R[l, l], g the alphabet's smallest gap and V its largest
    |value|, it cannot while |t| <= far = a (2^47 g - V) and a g >= 2^-500:
    each centre and each difference from t is then rounded by under a g / 30,
    so the differences on one side stay over a g / 2 apart and about
    2^47 a g at most, and their squares stay normal and apart by far more
    than a rounding.  An expansion beyond far sorts its distances and walks
    them in that order, which stays exact.
    R and z are finite, with finite partial distances, as _real_model
    guarantees.
    """
    kc, L = R.shape[0], len(values)
    inf = float("inf")
    vals = values.tolist()
    diag = R.diagonal().tolist()
    # The centres R[l, l] * v, between infinite sentinels.  No walk takes
    # one: the radius is finite from the first leaf on, before any level can
    # run out of children.
    walks = [[-inf, *[a * v for v in vals], inf] for a in diag]
    walk_vals = [0.0, *vals, 0.0]
    gap = min(map(sub, vals[1:], vals), default=inf)
    reach = gap * 2.0**47 - max(map(abs, vals))
    # Within far no two children on one side of t tie; -1 sorts every time.
    far = [a * reach if a * gap >= 2.0**-500 else -1.0 for a in diag]
    s = np.zeros(kc)
    # R[l, l+1:] @ s[l+1:] stays a numpy dot, bound to views made once.  A
    # Python sum could round differently: numpy's 1-D dot is itself
    # kernel-dependent, and differs from a left-to-right sum from length 2
    # under OpenBLAS's SkylakeX kernel and from length 3 under Prescott, but
    # matches it below length 16 under Haswell and SandyBridge.
    interference = [R[l, l + 1 :].dot for l in range(kc)]
    above = [s[l + 1 :] for l in range(kc)]
    frames = []
    radius = best_metric = inf
    near, nodes = [], 0
    level, partial = kc - 1, 0.0
    while True:
        # Expand the node fixed one level up, at partial distance `partial`:
        # the walk's heads are the centres either side of t.
        t = z[level] - float(interference[level](above[level]))
        nodes += L
        if abs(t) <= far[level]:
            cl, vl = walks[level], walk_vals
            hi = bisect_left(cl, t)
            lo = hi - 1
        else:
            # The stable sort's order, walked as one side.
            row = walks[level][1:-1]
            d = [(c - t) * (c - t) for c in row]
            order = sorted(range(L), key=d.__getitem__)
            cl = [-inf, *[row[i] for i in order], inf]
            vl = [0.0, *[vals[i] for i in order], 0.0]
            lo, hi = 0, 1
        e = cl[lo] - t
        d_lo = e * e
        e = cl[hi] - t
        d_hi = e * e
        while True:
            # The next child is the nearer head, the left one on a tie.
            if d_lo <= d_hi:
                nd = partial + d_lo
                if nd <= radius:
                    s[level] = vl[lo]
                    lo -= 1
                    e = cl[lo] - t
                    d_lo = e * e
            else:
                nd = partial + d_hi
                if nd <= radius:
                    s[level] = vl[hi]
                    hi += 1
                    e = cl[hi] - t
                    d_hi = e * e
            if nd > radius:
                level += 1
                if level == kc:
                    return min(near, key=lambda leaf: tuple(leaf[1][lex_perm]))[1], nodes
                cl, vl, t, lo, hi, d_lo, d_hi, partial = frames.pop()
                continue
            if level:
                break
            if nd < best_metric:
                best_metric = nd
                radius = nd * (1.0 + _TIE_TOL)
                near = [leaf for leaf in near if leaf[0] <= radius]
            near.append((nd, s.copy()))
        frames.append((cl, vl, t, lo, hi, d_lo, d_hi, partial))
        level -= 1
        partial = nd


@dataclass(frozen=True, eq=False)
class _Plan:
    """The column order, its inverse, the R entries that would couple two
    blocks, and per block its columns and its symbols' lexicographic order."""

    order: tuple
    inverse: np.ndarray
    coupling: np.ndarray
    blocks: tuple


def _plan(basis: WeightBasis, ordering) -> _Plan:
    """The decode plan of the ordering, which is validated on every call.
    The plan of the last ordering asked for is kept on the basis."""
    order = _check_ordering(ordering, basis.k)
    kept = getattr(basis, "_decode_plan", None)
    if kept is None or kept.order != order:
        kept = _build_plan(_graph(basis)[1], order)
        object.__setattr__(basis, "_decode_plan", kept)
    return kept


def _build_plan(components, order: tuple) -> _Plan:
    """The graph's components (bitmasks) at their columns under the order,
    as blocks in order of their lowest column."""
    comp_of = {s: c for c, m in enumerate(components) for s in _mask_to_indices(m)}
    # comp_at[p]: the component of the symbol in column p
    comp_at = np.array([comp_of[s] for s in order])
    cols = [np.flatnonzero(comp_at == c) for c in dict.fromkeys(comp_at.tolist())]
    return _Plan(
        order=order,
        inverse=np.argsort(order),
        coupling=comp_at[:, None] != comp_at,
        blocks=tuple((b, np.argsort([order[p] for p in b])) for b in cols),
    )


def _sphere_stages(Y, H, basis: WeightBasis, alphabet: Alphabet, plan: _Plan):
    """B_H, iota(Y), and per block its R and its rows of Q^T y (as lists),
    for one trial or a stack of them, from one decodability._factor call:
    R has a nonnegative diagonal.

    R, thresholded at decodability.TOL, only rejects a rank-deficient
    channel and checks the plan: an entry that couples two blocks raises
    ValueError.  In a stack, the first trial that fails raises.
    """
    B, y = _real_model(Y, H, basis, alphabet, plan.order)
    R, z, zero_mask, deficient = _factor(B, y)
    failed = deficient | (~zero_mask & plan.coupling).any(axis=(-2, -1))
    if failed.any():
        if deficient.flat[failed.argmax()]:
            raise ValueError("rank-deficient equivalent channel")
        raise ValueError("the R factor couples symbols that the orthogonality graph separates")
    if len(plan.blocks) == 1:
        return B, y, [R], [z.tolist()]
    R_blocks = [np.ascontiguousarray(R[..., b[:, None], b]) for b, _ in plan.blocks]
    return B, y, R_blocks, [z[..., b].tolist() for b, _ in plan.blocks]


def _sphere_search(R_blocks, z_blocks, values, plan: _Plan):
    """One trial's symbols in column order, its coefficients in their own
    order, and nodes_visited: each block searched on its own R and Q^T y."""
    s_hat = np.zeros(len(plan.order))
    total_nodes = 0
    for (cols, lex_perm), R_b, z_b in zip(plan.blocks, R_blocks, z_blocks):
        s_hat[cols], nodes = _sphere_block(R_b, z_b, values, lex_perm)
        total_nodes += nodes
    return s_hat, tuple(s_hat[plan.inverse].astype(int).tolist()), total_nodes


def sphere_decode(Y, H, basis: WeightBasis, alphabet: Alphabet, ordering=None) -> DecodeResult:
    """Exact ML by sphere search, split across independent column blocks.

    The blocks are the orthogonality graph's components (decodability._graph)
    at their columns under the ordering, so nodes_visited reflects the
    parallel decoding trees that the classification promises.  Every block
    reads its R and Q^T y off the one factorisation.  R, thresholded at
    decodability.TOL, only rejects a rank-deficient channel and checks the
    plan: an entry that couples two blocks raises ValueError.
    """
    plan = _plan(basis, ordering)
    B, y, R_blocks, z_blocks = _sphere_stages(Y, H, basis, alphabet, plan)
    values = np.array(alphabet.values, dtype=float)
    s_hat, coeffs, nodes = _sphere_search(R_blocks, z_blocks, values, plan)
    resid = y - B @ s_hat
    return DecodeResult(coeffs=coeffs, metric=float(resid @ resid), nodes_visited=nodes)


# ----------------------------------------------------------------------
# Campaigns.

CSV_COLUMNS = ("snr_db", "trials", "cer_ml", "cer_sphere", "nodes_mean", "nodes_max", "seconds")


@dataclass(frozen=True)
class SimCampaign:
    """Per-SNR error rates and decoder-effort statistics.

    Rows hold (snr_db, trials, cer_ml, cer_sphere, nodes_mean, nodes_max);
    a disabled decoder leaves its rate as None.  The seconds column is
    pinned to zero in the CSV so that equal seeds give byte-identical
    files; wall time is not part of the reproducibility contract.
    """

    rows: tuple

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for snr_db, trials, cer_ml, cer_sphere, nodes_mean, nodes_max in self.rows:
            lines.append(
                ",".join(
                    [
                        f"{snr_db:.2f}",
                        str(trials),
                        "" if cer_ml is None else f"{cer_ml:.6f}",
                        "" if cer_sphere is None else f"{cer_sphere:.6f}",
                        f"{nodes_mean:.3f}",
                        str(nodes_max),
                        "0.000",
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def run_campaign(
    basis: WeightBasis,
    alphabet: Alphabet,
    cfg: ChannelConfig,
    decoder: str = "both",
) -> SimCampaign:
    """Monte Carlo error-rate sweep over the SNR grid.

    Each trial draws its channel, coefficients, and noise from the stream
    seeded by (seed, snr index, trial index), in that order, so results are
    independent of execution schedule.  The noise is calibrated once, from
    CALIBRATION_SAMPLES samples.  The sphere decoder runs with the
    classified profile's ordering (groups, then conditioned).  Under
    "both", a trial whose two exact decisions differ raises ValueError.

    The trials of an SNR point are decoded in blocks of about _BLOCK_BYTES
    of B_H, Q and R factors.  Each block forms its received blocks, real
    models and QR factors in stacked calls, through the stages that
    ml_exhaustive and sphere_decode run on one trial, and only the searches
    run trial by trial.  The ML grids' hi residuals and lo products
    (_ml_rows) are formed for about _BLOCK_BYTES of them at a time; they
    are elementwise, so every trial gets the bits of its own call.  Each
    codeword stays one trial's own product: a stacked one would be a
    matrix product with other bits.
    """
    if decoder not in ("ml", "sphere", "both"):
        raise ValueError("decoder must be one of 'ml', 'sphere', 'both'")
    want_ml = decoder in ("ml", "both")
    want_sp = decoder in ("sphere", "both")
    if cfg.trials == 0 or not cfg.snr_db_grid:
        return SimCampaign(rows=())
    k, T = basis.k, basis.T
    dim = 2 * cfg.n_r * T
    values = np.array(alphabet.values, dtype=float)
    if want_ml:
        L = len(values)
        m = _ml_split(L, k)
        # The trials whose hi residuals and lo products fill _BLOCK_BYTES
        ml_block = max(1, _BLOCK_BYTES // (8 * dim * (L ** (k - m) + L**m)))
    if want_sp:
        plan = _plan(basis, classify(basis).ordering)
    per_block = max(1, _BLOCK_BYTES // (8 * k * (2 * dim + k)))
    mean_sig = _mean_signal_power(basis, alphabet, cfg, CALIBRATION_SAMPLES)
    rows = []
    for si, snr_db in enumerate(cfg.snr_db_grid):
        sigma_n = _noise_scale(mean_sig, cfg, snr_db)
        err_ml = 0
        err_sp = 0
        node_counts = []
        for start in range(0, cfg.trials, per_block):
            n = min(per_block, cfg.trials - start)
            H = np.empty((n, cfg.n_r, cfg.n_t), dtype=complex)
            X = np.empty((n, cfg.n_t, T), dtype=complex)
            noise = np.empty((n, cfg.n_r, T), dtype=complex)
            S = np.empty((n, k), dtype=int)
            for i in range(n):
                rng = np.random.default_rng([cfg.seed, si, start + i])
                H[i] = draw_channel(cfg, rng)
                S[i] = rng.choice(values, size=k)
                X[i] = basis.combination(S[i])
                noise[i] = _rayleigh((cfg.n_r, T), rng, sigma_n)
            Y = H @ X + noise
            truths, ml_coeffs = [tuple(s) for s in S.tolist()], []
            if want_ml:
                B, y = _real_model(Y, H, basis, alphabet, range(k))
                for i, truth in enumerate(truths):
                    if i % ml_block == 0:
                        R, P = _ml_rows(B[i : i + ml_block], y[i : i + ml_block], values, m)
                    res = _ml_search(B[i], y[i], values, m, R[i % ml_block], P[i % ml_block])
                    err_ml += res.coeffs != truth
                    ml_coeffs.append(res.coeffs)
                    if not want_sp:
                        node_counts.append(res.nodes_visited)
            if want_sp:
                _, _, R_blocks, z_blocks = _sphere_stages(Y, H, basis, alphabet, plan)
                for i, truth in enumerate(truths):
                    _, coeffs, nodes = _sphere_search(
                        [R_b[i] for R_b in R_blocks], [z_b[i] for z_b in z_blocks], values, plan
                    )
                    if want_ml and coeffs != ml_coeffs[i]:
                        at = f"SNR index {si}, trial {start + i} of seed {cfg.seed}"
                        raise ValueError(f"the sphere decoder and ML decided apart at {at}")
                    err_sp += coeffs != truth
                    node_counts.append(nodes)
        rows.append(
            (
                float(snr_db),
                cfg.trials,
                err_ml / cfg.trials if want_ml else None,
                err_sp / cfg.trials if want_sp else None,
                float(np.mean(node_counts)),
                int(max(node_counts)),
            )
        )
    return SimCampaign(rows=tuple(rows))
