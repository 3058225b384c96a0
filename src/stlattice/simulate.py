"""Rayleigh-fading MIMO simulation with exhaustive ML and sphere decoding.

The codeword map is linear in the real coefficients, so decoding reduces to
the real linear model iota(Y) = B_H s + n with B_H = [vec(H B_1) ... ].
The sphere decoder is exact maximum likelihood: depth-first with best-first
child ordering and an infinite initial radius that shrinks at each leaf.
When the R factor splits into independent column blocks the decoder searches
each block separately, which is where the classified group structure shows
up as measured effort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decodability import (
    _adjacency_bits,
    _check_ordering,
    _components_of_mask,
    _default_n_r,
    _mask_to_indices,
    classify,
)
from .decodability import draw_channel as _draw_channel
from .lattice import WeightBasis, _equivalent_channel, vectorize

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


@dataclass(frozen=True)
class Alphabet:
    """Finite signalling set for the real coefficients, symmetric about 0."""

    values: tuple

    def __post_init__(self):
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
    """Static Rayleigh block-fading channel and campaign parameters."""

    n_t: int
    n_r: int
    T: int
    snr_db_grid: tuple
    trials: int
    seed: int
    sigma_h: float = 1.0 / np.sqrt(2.0)

    def __post_init__(self):
        if self.T < self.n_t:
            raise ValueError("the channel must stay static for T >= n_t uses")
        if self.n_r < 1:
            raise ValueError("need at least one receive antenna")
        if self.trials < 0:
            raise ValueError("trials cannot be negative")
        if self.sigma_h < 0:
            raise ValueError("sigma_h cannot be negative")
        object.__setattr__(
            self, "snr_db_grid", tuple(float(x) for x in self.snr_db_grid)
        )


def default_config(
    basis: WeightBasis,
    snr_db_grid,
    trials: int,
    seed: int,
    n_r: int | None = None,
    sigma_h: float = 1.0 / np.sqrt(2.0),
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
        sigma_h=sigma_h,
    )


@dataclass(frozen=True)
class DecodeResult:
    coeffs: tuple
    metric: float
    nodes_visited: int


def draw_channel(cfg: ChannelConfig, rng_state) -> np.ndarray:
    """One n_r x n_t channel draw; real and imaginary parts are
    independent N(0, sigma_h^2)."""
    # default_rng hands a Generator back unchanged and seeds anything else.
    return _draw_channel(cfg.n_r, cfg.n_t, np.random.default_rng(rng_state), cfg.sigma_h)


def _mean_signal_power(
    basis: WeightBasis, alphabet: Alphabet, cfg: ChannelConfig, samples: int
) -> float:
    """Monte Carlo estimate of E||HX||_F^2 over symbols and channels.

    The stream is seeded by cfg.seed alone, so the estimate does not depend
    on the SNR it is used for.
    """
    if samples < 10_000:
        raise ValueError("calibration needs at least 10^4 samples")
    values = np.array(sorted(alphabet.values), dtype=float)
    if np.max(np.abs(values)) == 0:
        raise ValueError("the alphabet carries no signal power")
    rng = np.random.default_rng([cfg.seed, _CALIBRATION_STREAM])
    mats = np.stack(basis.mats)
    total = 0.0
    done = 0
    while done < samples:
        n = min(20_000, samples - done)
        s = rng.choice(values, size=(n, basis.k))
        X = np.einsum("sk,kij->sij", s, mats)
        Hr = rng.normal(size=(n, cfg.n_r, cfg.n_t))
        Hi = rng.normal(size=(n, cfg.n_r, cfg.n_t))
        H = cfg.sigma_h * (Hr + 1j * Hi)
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
    return _noise_scale(_mean_signal_power(basis, alphabet, cfg, samples), cfg, snr_db)


def _noise_scale(mean_sig: float, cfg: ChannelConfig, snr_db: float) -> float:
    """sigma_n that puts the noise power n_r * T * 2 * sigma_n^2 at
    mean_sig / 10^(snr_db / 10)."""
    target = 10.0 ** (snr_db / 10.0)
    return float(np.sqrt(mean_sig / (target * 2.0 * cfg.n_r * cfg.T)))


def _check_inputs(Y, H, basis: WeightBasis):
    H = np.atleast_2d(np.asarray(H, dtype=complex))
    Y = np.atleast_2d(np.asarray(Y, dtype=complex))
    if H.shape[1] != basis.n_t:
        raise ValueError(f"channel has {H.shape[1]} columns, expected {basis.n_t}")
    if Y.shape != (H.shape[0], basis.T):
        raise ValueError(
            f"received block has shape {Y.shape}, expected {(H.shape[0], basis.T)}"
        )
    return Y, H


def ml_exhaustive(Y, H, basis: WeightBasis, alphabet: Alphabet) -> DecodeResult:
    """Global minimizer of ||Y - HX||_F^2 over the full coefficient grid.

    Ties go to the lexicographically smallest coefficient vector.  Guarded
    to |S|^k <= 2^24 grid points; nodes_visited reports the grid size.
    """
    Y, H = _check_inputs(Y, H, basis)
    values = np.array(sorted(alphabet.values), dtype=float)
    L, k = len(values), basis.k
    total = L**k
    if total > ML_SPACE_LIMIT:
        raise ValueError(
            f"exhaustive search space {L}^{k} exceeds the 2^24 guard"
        )
    B = _equivalent_channel(basis, H, range(k))
    y = vectorize(Y)
    place = L ** np.arange(k - 1, -1, -1, dtype=np.int64)
    best_metric = np.inf
    best_idx = -1
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = (idx[:, None] // place) % L
        S = values[digits]
        resid = y[None, :] - S @ B.T
        metrics = np.einsum("ij,ij->i", resid, resid)
        pos = int(np.argmin(metrics))
        if metrics[pos] < best_metric:
            best_metric = float(metrics[pos])
            best_idx = int(idx[pos])
    digits = (best_idx // place) % L
    coeffs = tuple(int(values[d]) for d in digits)
    return DecodeResult(coeffs=coeffs, metric=best_metric, nodes_visited=total)


def _sphere_block(R, z, values, lex_perm):
    """Exact depth-first search on one upper-triangular block.

    Children are visited in order of increasing partial distance, the radius
    shrinks at every accepted leaf, and equal-metric leaves fall back to the
    lexicographic order of the coefficients in their original positions.
    nodes_visited counts every child whose partial distance was computed.
    """
    kc = R.shape[0]
    best_metric = np.inf
    best_vec = None
    best_key = None
    nodes = 0
    s_vec = np.zeros(kc)

    def descend(level, partial):
        nonlocal best_metric, best_vec, best_key, nodes
        t = z[level] - R[level, level + 1 :] @ s_vec[level + 1 :]
        dists = (R[level, level] * values - t) ** 2
        nodes += len(values)
        for ci in np.argsort(dists, kind="stable"):
            nd = partial + dists[ci]
            if nd > best_metric:
                break
            s_vec[level] = values[ci]
            if level == 0:
                key = tuple(s_vec[lex_perm])
                if nd < best_metric or (
                    nd == best_metric and (best_key is None or key < best_key)
                ):
                    best_metric = nd
                    best_vec = s_vec.copy()
                    best_key = key
            else:
                descend(level - 1, nd)

    descend(kc - 1, 0.0)
    return best_vec, nodes


def sphere_decode(
    Y, H, basis: WeightBasis, alphabet: Alphabet, ordering=None, tol: float = 1e-9
) -> DecodeResult:
    """Exact ML by sphere search, split across independent column blocks.

    The QR factor of the ordered equivalent channel matrix is thresholded
    into connected column blocks; blocks that do not interact are searched
    separately, so nodes_visited reflects the parallel decoding trees that
    the classification promises.  Rank-deficient equivalent channels are
    rejected.
    """
    Y, H = _check_inputs(Y, H, basis)
    k = basis.k
    order = _check_ordering(ordering, k)
    values = np.array(sorted(alphabet.values), dtype=float)
    B = _equivalent_channel(basis, H, order)
    y = vectorize(Y)
    if B.shape[0] < k:
        raise ValueError("rank-deficient equivalent channel: more coefficients than observations")
    R = np.linalg.qr(B, mode="r")
    scale = max(1.0, float(np.abs(R).max()))
    if np.any(np.abs(np.diag(R)) <= tol * scale):
        raise ValueError("rank-deficient equivalent channel")
    interact = np.abs(R) > tol * scale
    np.fill_diagonal(interact, False)
    interact |= interact.T
    s_hat = np.zeros(k)
    total_nodes = 0
    for comp in _components_of_mask((1 << k) - 1, _adjacency_bits(interact)):
        block = list(_mask_to_indices(comp))
        cols = B[:, block]
        Q, Rc = np.linalg.qr(cols, mode="reduced")
        z = Q.T @ y
        orig = np.array([order[p] for p in block])
        s_block, nodes = _sphere_block(Rc, z, values, np.argsort(orig))
        total_nodes += nodes
        for p, v in zip(block, s_block):
            s_hat[p] = v
    coeffs = np.zeros(k, dtype=int)
    for pos, idx in enumerate(order):
        coeffs[idx] = int(round(s_hat[pos]))
    resid = y - B @ s_hat
    return DecodeResult(
        coeffs=tuple(int(c) for c in coeffs),
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
