"""Rayleigh-fading MIMO simulation with exhaustive ML and sphere decoding.

The codeword map is linear in the real coefficients, so decoding reduces to
the real linear model iota(Y) = B_H s + n with B_H = [vec(H B_1) ... ].
The sphere decoder is exact maximum likelihood: an iterative best-first
depth-first loop whose radius starts infinite and shrinks at each accepted
leaf; nodes_visited counts every child whose partial distance was computed.
When the R factor splits into independent column blocks the decoder searches
each block separately, which is where the classified group structure shows
up as measured effort.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .decodability import (
    SIGMA_H,
    TOL,
    _check_ordering,
    _default_n_r,
    _mask_to_indices,
    _r_blocks,
    _rayleigh,
    _thresholded_r,
    classify,
)
from .lattice import WeightBasis, _equivalent_channel, _mixed_radix, vectorize

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
_CALIBRATION_STREAM = 0x5EED
_CHUNK = 1 << 14
# Metrics within this relative distance of the minimum tie: the decoders sum
# in different orders, so an exact tie can differ in the last bits.
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class Alphabet:
    """Finite signalling set for the real coefficients, symmetric about 0."""

    values: tuple

    def __post_init__(self):
        if not all(float(v).is_integer() for v in self.values):
            raise ValueError("alphabet values must be integers")
        vals = tuple(int(v) for v in self.values)
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
    return Alphabet(tuple(range(-(size - 1), size, 2)))


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
    """Monte Carlo estimate of E||HX||_F^2 over symbols and channels.

    The stream is seeded by cfg.seed alone, so the estimate does not depend
    on the SNR it is used for.  The codewords X are a real einsum of the
    symbols with the stack's float view, viewed back as complex: with real
    symbols it adds the same products over k in the same order as a complex
    einsum, so X has the same bits, in about a third of the time.
    """
    if (cfg.n_t, cfg.T) != (basis.n_t, basis.T):
        raise ValueError(
            f"channel config has n_t x T = {cfg.n_t} x {cfg.T}, "
            f"but the basis has {basis.n_t} x {basis.T}"
        )
    if samples < 10_000:
        raise ValueError("calibration needs at least 10^4 samples")
    values = np.array(sorted(alphabet.values), dtype=float)
    if np.max(np.abs(values)) == 0:
        raise ValueError("the alphabet carries no signal power")
    rng = np.random.default_rng([cfg.seed, _CALIBRATION_STREAM])
    flat = basis._stack.view(float).reshape(basis.k, -1)
    total = 0.0
    done = 0
    while done < samples:
        n = min(20_000, samples - done)
        s = rng.choice(values, size=(n, basis.k))
        X = np.einsum("sk,ke->se", s, flat).view(complex).reshape(n, basis.n_t, basis.T)
        H = _rayleigh((n, cfg.n_r, cfg.n_t), rng, SIGMA_H)
        total += float(np.sum(np.abs(H @ X) ** 2))
        done += n
    return total / samples


def calibrate_noise(
    basis: WeightBasis,
    alphabet: Alphabet,
    cfg: ChannelConfig,
    snr_db: float,
    samples: int = 100_000,
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
    """The sorted alphabet, B_H with its columns in order, and iota(Y).

    A finite Y or H so large that a metric could overflow is rejected
    before any product is formed.  Every entry of y - B_H s is at most
    e = |Y| + k |s| 2 n_t |H| |B_i| in modulus (each |.| the largest real or
    imaginary part), and the metrics and the sphere decoder's partial
    distances stay below (k + 1) 2 n_r T e^2.
    """
    H = np.atleast_2d(np.asarray(H, dtype=complex))
    Y = np.atleast_2d(np.asarray(Y, dtype=complex))
    if Y.shape != (H.shape[0], basis.T):
        raise ValueError(
            f"received block has shape {Y.shape}, expected {(H.shape[0], basis.T)}"
        )
    values = np.array(sorted(alphabet.values), dtype=float)
    # The largest |real part| or |imaginary part| of Y and of H (a trailing
    # zero keeps H's segment non-empty); the B_i's is basis._peak.
    parts = np.abs(np.concatenate((Y, H, [0j]), axis=None).view(float))
    peak_y, peak_h = np.maximum.reduceat(parts, (0, 2 * Y.size)).tolist()
    # Non-finite entries are left to the finiteness checks below.
    if math.isfinite(peak_y) and math.isfinite(peak_h):
        peak_s = max(map(abs, alphabet.values))
        e = peak_y + basis.k * peak_s * 2 * basis.n_t * peak_h * basis._peak
        if not (basis.k + 1) * 2 * Y.size * e * e <= sys.float_info.max:
            raise ValueError("received block or channel too large: the metric would overflow")
    return values, _equivalent_channel(basis, H, order), vectorize(Y)


def ml_exhaustive(Y, H, basis: WeightBasis, alphabet: Alphabet) -> DecodeResult:
    """Global minimizer of ||Y - HX||_F^2 over the full coefficient grid.

    Metrics within a relative 1e-9 of the minimum tie, and ties go to the
    lexicographically smallest coefficient vector.  Guarded to
    |S|^k <= 2^24 grid points; nodes_visited reports the grid size.

    The grid splits into leading (hi) and trailing (lo) digits, with at
    most 2^14 lo rows.  The lo products P = B_lo S_lo^T are formed once, one
    row per real dimension; each block of hi rows (at most 2^14 grid rows a
    block) takes its residuals r = y - S_hi B_hi^T, and every metric is
    (r_1 - P_1)^2 + (r_2 - P_2)^2 + ..., summed left to right, one real
    dimension a pass along the grid rows.  The sum has that order, with no
    fused multiply-add, whatever the SIMD width.  The reported metric can
    therefore differ from the direct ||y - B s||^2 in its last bits.

    Rows run in lexicographic order, so the winner is the first row in the
    final tie window, and it lies strictly below every row before it.  Only
    such rows are kept, each while it stays in the window: memory does not
    grow with the number of tied rows.
    """
    values, B, y = _real_model(Y, H, basis, alphabet, range(basis.k))
    L, k = len(values), basis.k
    total = L**k
    if total > ML_SPACE_LIMIT:
        raise ValueError(
            f"exhaustive search space {L}^{k} exceeds the 2^24 guard"
        )
    m = _table_width(L, k, _CHUNK)
    S_lo = next(_mixed_radix(values, m, 0, L**m, L**m))
    P = B[:, k - m :] @ S_lo.T
    B_hi = B[:, : k - m]
    per_block = _CHUNK // L**m
    metrics_buf, diff_buf = np.empty((2, per_block, L**m))
    # The grid's first row stands in at an infinite metric, in case no
    # metric is finite.
    best_metric, kept = np.inf, [(np.inf, np.full(k, values[0]))]
    for S_hi in _mixed_radix(values, k - m, 0, L ** (k - m), per_block):
        r = y - S_hi @ B_hi.T
        metrics, diff = metrics_buf[: len(r)], diff_buf[: len(r)]
        np.square(np.subtract(r[:, :1], P[0], out=metrics), out=metrics)
        for i in range(1, len(P)):
            np.subtract(r[:, i : i + 1], P[i], out=diff)
            metrics += np.square(diff, out=diff)
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
        for h, l, dist in zip(hi.tolist(), lo.tolist(), metrics[hi, lo].tolist()):
            if dist < lowest:
                lowest = dist
                kept.append((dist, np.concatenate([S_hi[h], S_lo[l]])))
    metric, row = kept[0]
    return DecodeResult(coeffs=tuple(int(v) for v in row), metric=metric, nodes_visited=total)


def _table_width(base: int, k: int, chunk: int) -> int:
    """The largest m <= k with base^m <= chunk: how many low digits fit in
    one table."""
    m = 0
    while m < k and base ** (m + 1) <= chunk:
        m += 1
    return m


def _sphere_block(R, z, values, lex_perm):
    """Exact depth-first search on one upper-triangular block.

    An iterative Schnorr-Euchner loop (Agrell, Eriksson, Vardy and Zeger,
    IEEE T-IT 2002): children are visited in order of increasing partial
    distance (a stable sort), the radius starts infinite and shrinks to the
    tie window of the best leaf, and the first child beyond it ends its
    level.  Of the leaves in the final window, the lexicographically smallest
    in the coefficients' original positions wins.  nodes_visited counts
    every child whose partial distance was computed: the whole alphabet at
    each expanded node.
    """
    kc, L = R.shape[0], len(values)
    children = range(L)
    vals = values.tolist()
    # R[l, l] * values for every level in one numpy call, however small.
    centers = (R.diagonal()[:, None] * values).tolist()
    s = np.zeros(kc)
    # R[l, l+1:] @ s[l+1:] stays a numpy dot, bound to views made once: a
    # Python sum rounds differently and would move ties and nodes_visited.
    interference = [R[l, l + 1 :].dot for l in range(kc)]
    above = [s[l + 1 :] for l in range(kc)]
    dists, partials, pending = [None] * kc, [0.0] * kc, [None] * kc
    radius = best_metric = np.inf
    near, nodes = [], 0
    level, nd = kc, 0.0
    while True:
        # Expand the child just fixed one level up, at partial distance nd.
        level -= 1
        t = z[level] - float(interference[level](above[level]))
        d = [(c - t) * (c - t) for c in centers[level]]
        nodes += L
        dists[level] = d
        partials[level] = nd
        pending[level] = iter(sorted(children, key=d.__getitem__))
        while True:
            ci = next(pending[level], None)
            if ci is None or (nd := partials[level] + dists[level][ci]) > radius:
                level += 1
                if level == kc:
                    return min(near, key=lambda leaf: tuple(leaf[1][lex_perm]))[1], nodes
                continue
            s[level] = vals[ci]
            if level:
                break
            if nd < best_metric:
                best_metric = nd
                radius = nd * (1.0 + _TIE_TOL)
                near = [leaf for leaf in near if leaf[0] <= radius]
            near.append((nd, s.copy()))


def sphere_decode(
    Y, H, basis: WeightBasis, alphabet: Alphabet, ordering=None, tol: float = TOL
) -> DecodeResult:
    """Exact ML by sphere search, split across independent column blocks.

    The QR factor of the ordered equivalent channel matrix is thresholded
    into connected column blocks; blocks that do not interact are searched
    separately, so nodes_visited reflects the parallel decoding trees that
    the classification promises (one block reuses the full factorisation).
    Rank-deficient equivalent channels are rejected.
    """
    k = basis.k
    order = _check_ordering(ordering, k)
    values, B, y = _real_model(Y, H, basis, alphabet, order)
    Q, R = np.linalg.qr(B, mode="reduced")
    _, zero_mask, rank_deficient = _thresholded_r(R, tol)
    if rank_deficient:
        raise ValueError("rank-deficient equivalent channel")
    blocks = _r_blocks(zero_mask)
    s_hat = np.zeros(k)
    total_nodes = 0
    for comp in blocks:
        block = list(_mask_to_indices(comp))
        if len(blocks) > 1:
            Q, R = np.linalg.qr(B[:, block], mode="reduced")
        lex_perm = np.argsort([order[p] for p in block])
        s_hat[block], nodes = _sphere_block(R, (Q.T @ y).tolist(), values, lex_perm)
        total_nodes += nodes
    resid = y - B @ s_hat
    return DecodeResult(
        coeffs=tuple(s_hat[np.argsort(order)].astype(int).tolist()),
        metric=float(resid @ resid),
        nodes_visited=total_nodes,
    )


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
    calibration_samples: int = 100_000,
) -> SimCampaign:
    """Monte Carlo error-rate sweep over the SNR grid.

    Each trial draws its channel, coefficients, and noise from the stream
    seeded by (seed, snr index, trial index), in that order, so results are
    independent of execution schedule.  The sphere decoder runs with the
    classified group-then-conditioned ordering.
    """
    if decoder not in ("ml", "sphere", "both"):
        raise ValueError("decoder must be one of 'ml', 'sphere', 'both'")
    want_ml = decoder in ("ml", "both")
    want_sp = decoder in ("sphere", "both")
    if cfg.trials == 0 or not cfg.snr_db_grid:
        return SimCampaign(rows=())
    ordering = None
    if want_sp:
        prof = classify(basis)
        ordering = [i for g in prof.groups for i in g] + list(prof.conditioned)
    values = np.array(sorted(alphabet.values), dtype=int)
    mean_sig = _mean_signal_power(basis, alphabet, cfg, calibration_samples)
    rows = []
    for si, snr_db in enumerate(cfg.snr_db_grid):
        sigma_n = _noise_scale(mean_sig, cfg, snr_db)
        err_ml = 0
        err_sp = 0
        node_counts = []
        for trial in range(cfg.trials):
            rng = np.random.default_rng([cfg.seed, si, trial])
            H = draw_channel(cfg, rng)
            s = rng.choice(values, size=basis.k)
            X = basis.combination(s)
            noise = sigma_n * (
                rng.normal(size=(cfg.n_r, basis.T))
                + 1j * rng.normal(size=(cfg.n_r, basis.T))
            )
            Y = H @ X + noise
            truth = tuple(int(v) for v in s)
            if want_ml:
                res = ml_exhaustive(Y, H, basis, alphabet)
                err_ml += res.coeffs != truth
                if not want_sp:
                    node_counts.append(res.nodes_visited)
            if want_sp:
                res = sphere_decode(Y, H, basis, alphabet, ordering)
                err_sp += res.coeffs != truth
                node_counts.append(res.nodes_visited)
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
