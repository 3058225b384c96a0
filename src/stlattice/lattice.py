"""Real lattice machinery for matrix codes.

A linear space-time code is the set of real-integer combinations of k fixed
complex weight matrices.  Identifying each matrix with a real vector through
the column-wise re/im interleaving isometry turns the code into a lattice in
R^(2*n_t*T); this module computes the generator and Gram matrices of that
lattice, its volume, and the determinant-based figures of merit.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "WeightBasis",
    "LatticeProfile",
    "vectorize",
    "generator_matrix",
    "lattice_profile",
    "profile_from_generator",
    "min_rank_difference",
    "min_rank_sampled",
]

#: Relative singular-value threshold below which a direction counts as zero.
RANK_TOL = 1e-9

#: Cap on the number of coefficient vectors enumerated in the
#: minimum-determinant / minimum-rank searches: one of each +-z pair, so
#: the unit box of a k = 16 code (21,523,360 vectors) is within it.
MAX_CANDIDATES = 25_000_000


def vectorize(U: np.ndarray) -> np.ndarray:
    """Map a complex matrix to the real vector (Re u11, Im u11, Re u21, ...).

    Entries are taken column by column; the Euclidean norm of the output
    equals the Frobenius norm of the input.
    """
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2:
        raise ValueError("vectorize expects a matrix")
    if not np.all(np.isfinite(U)):
        raise ValueError("matrix entries must be finite")
    return _vectorize_stack(U)


def _vectorize_stack(U: np.ndarray) -> np.ndarray:
    """vectorize of every matrix of a stack (..., rows, cols), unchecked, as
    a fresh (..., 2 * rows * cols) array: the float view of the transposes,
    which run down each column, real part then imaginary part."""
    return np.swapaxes(U, -1, -2).copy().view(float).reshape(*U.shape[:-2], -1)


@dataclass(frozen=True, eq=False)
class WeightBasis:
    """The k complex n_t x T weight matrices defining a code, held as one
    read-only (k, n_t, T) array mats: mats[i] is B_i."""

    name: str
    mats: np.ndarray
    n_t: int = field(init=False)
    T: int = field(init=False)
    k: int = field(init=False)
    rank: int = field(init=False)

    def __init__(self, name: str, mats, allow_dependent: bool = False):
        arrs = [np.asarray(m, dtype=complex) for m in mats]
        if not arrs:
            raise ValueError("a weight basis needs at least one matrix")
        shape = arrs[0].shape
        if len(shape) != 2:
            raise ValueError("weight matrices must be 2-D")
        if any(m.shape != shape for m in arrs):
            raise ValueError("all weight matrices must share one shape")
        stack = np.stack(arrs)  # a copy: the caller's matrices stay apart
        # The largest |real part| or |imaginary part|: NaN or inf if any
        # entry is not finite.
        peak = float(np.abs(stack.view(float)).max())
        if not np.isfinite(peak):
            raise ValueError("weight matrix entries must be finite")
        stack.setflags(write=False)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "mats", stack)
        object.__setattr__(self, "_peak", peak)
        object.__setattr__(self, "n_t", shape[0])
        object.__setattr__(self, "T", shape[1])
        object.__setattr__(self, "k", len(arrs))
        if not allow_dependent and self.k > 2 * self.n_t * self.T:
            raise ValueError(
                f"{self.k} matrices cannot be independent in a "
                f"{self.n_t}x{self.T} space (max {2 * self.n_t * self.T})"
            )
        # Relative to the largest singular value alone, so that rescaling
        # every weight never changes the verdict.
        rank = int(_ranks(generator_matrix(self)[None])[0])
        object.__setattr__(self, "rank", rank)
        if rank < self.k and not allow_dependent:
            raise ValueError("weight matrices are linearly dependent over the reals")

    def combination(self, coeffs) -> np.ndarray:
        """Return sum_i coeffs[i] * B_i as a complex matrix (one _codewords row)."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.k,):
            raise ValueError(f"expected {self.k} coefficients")
        return _codewords(self, coeffs[None])[0]

    # JSON schema: {name, nt, T, k, mats: [[[re, im], ...], ...]}, row-major.
    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "nt": self.n_t,
            "T": self.T,
            "k": self.k,
            "mats": self.mats.view(float).reshape(self.k, self.n_t, self.T, 2).tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "WeightBasis":
        mats = [
            np.array([[complex(re, im) for re, im in row] for row in m])
            for m in data["mats"]
        ]
        # a basis that was buildable once should round-trip even if dependent
        basis = cls(data.get("name", ""), mats, allow_dependent=True)
        for key, value in (("nt", basis.n_t), ("T", basis.T), ("k", basis.k)):
            if key in data and data[key] != value:
                raise ValueError(f"JSON field {key}={data[key]} does not match matrices ({value})")
        return basis

    @classmethod
    def from_json(cls, text: str) -> "WeightBasis":
        return cls.from_json_dict(json.loads(text))


def generator_matrix(basis: WeightBasis) -> np.ndarray:
    """Stack the vectorized weight matrices as columns: 2*n_t*T by k."""
    return np.ascontiguousarray(_vectorize_stack(basis.mats).T)


def _equivalent_channel(basis: WeightBasis, H, order) -> np.ndarray:
    """Equivalent real channel B_H = [vectorize(H B_i) for i in order], one
    C-contiguous matrix per channel of a stack H (..., n_r, n_t); the
    channels are validated before the product.  Each product H B_i has the
    bits of its own matmul, whatever the stack."""
    H = np.atleast_2d(np.asarray(H, dtype=complex))
    if H.shape[-1] != basis.n_t:
        raise ValueError(f"channel has {H.shape[-1]} columns, expected {basis.n_t}")
    if not np.isfinite(H).all():
        raise ValueError("channel entries must be finite")
    columns = _vectorize_stack(H[..., None, :, :] @ basis.mats[list(order)])
    if not np.isfinite(columns).all():
        raise ValueError("matrix entries must be finite")
    return np.ascontiguousarray(np.swapaxes(columns, -1, -2))


@dataclass(frozen=True, eq=False)
class LatticeProfile:
    """Generator/Gram data and figures of merit for a code lattice.

    For non-square codewords the determinant-based fields are None: the
    minimum determinant is only defined for n_t = T.
    """

    gen: np.ndarray
    gram: np.ndarray
    volume: float
    min_det_est: float | None = None
    delta: float | None = None
    eta: float | None = None


#: Bytes of codewords that a sweep forms and reduces at a time, so that a
#: block and the temporaries of its reduction stay in cache.
_BLOCK_BYTES = 1 << 19


def _block_rows(basis: WeightBasis) -> int:
    """Rows of every box-sweep block: the largest power of two whose
    codewords fit in _BLOCK_BYTES, at least one.  A codeword's last bits can
    depend on its product's row count; power-of-two counts have kept them."""
    return 1 << (max(1, _BLOCK_BYTES // basis.mats[0].nbytes).bit_length() - 1)


def _mixed_radix(values, k: int, start: int, stop: int, rows: int):
    """Yield the rows (values[d_1], ..., values[d_k]) of the k base-len(values)
    digits, most significant first, of every index in [start, stop), in
    blocks of rows rows (the last may be shorter).

    Each block is built digit-major, as a k x n array whose transpose is
    yielded, so every pass runs along the block's rows.  Digit j runs
    through values with each value repeated r = base^(k-1-j) times.  A
    column whose run is at least the longest block holds at most two runs
    and is filled with them.  Any other column is periodic: its cycle,
    tabulated once per call for one period plus the longest block, is
    copied in by one slice from the block's offset in the period.

    One block is held at a time: each is built in _radix_block, so the
    generator keeps no name bound to a block it has yielded.
    """
    base = len(values)
    runs = [base ** (k - 1 - j) for j in range(k)]
    longest = min(rows, stop - start)
    cycles = {
        run: np.resize(np.repeat(values, run), base * run + longest - 1)
        for run in runs
        if run < longest
    }
    for lo in range(start, stop, rows):
        yield _radix_block(values, runs, cycles, lo, min(rows, stop - lo))


def _radix_block(values, runs, cycles, lo: int, n: int) -> np.ndarray:
    """The n rows of _mixed_radix from index lo, as the transpose of a
    digit-major block."""
    base = len(values)
    block = np.empty((len(runs), n), dtype=values.dtype)
    for col, run in zip(block, runs):
        at = lo % (base * run)
        if run in cycles:
            col[:] = cycles[run][at : at + n]
            continue
        digit, into = divmod(at, run)
        head = min(run - into, n)
        col[:head] = values[digit]
        col[head:] = values[(digit + 1) % base]
    return block.T


def _check_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")


def _check_cap(search: str, vectors: int, cap: int, lower: str) -> None:
    if vectors > cap:
        msg = f"{search} holds {vectors} vectors which exceeds the cap of {cap}; lower {lower}"
        raise ValueError(msg)


def _coefficient_box(k: int, bound: int, rows: int):
    """Yield blocks of at most rows coefficient rows covering ||z||_inf <= bound.

    Only one representative of each antipodal pair {z, -z} is produced (the
    determinant modulus and the rank are symmetric under negation), realized
    by enumerating the lexicographic first half of the box.  The box may
    hold at most 2 * MAX_CANDIDATES nonzero vectors.  One block is held at
    a time, as _mixed_radix yields them.
    """
    _check_nonnegative("search bound", bound)
    base = 2 * bound + 1
    total = base**k - 1
    _check_cap("coefficient box", total, 2 * MAX_CANDIDATES, "the bound")
    # Vectors whose mixed-radix index lies in the upper half have a positive
    # leading nonzero entry; the zero vector sits exactly at the midpoint.
    mid = total // 2  # index of the zero vector
    yield from _mixed_radix(np.arange(base, dtype=float) - bound, k, mid + 1, total + 1, rows)


def _sweep(basis: WeightBasis, blocks, reduce, best, stop=None):
    """Fold min(best, reduce(codewords)) over the blocks of coefficient rows
    z that a producer yields, _block_rows(basis) rows at most; returns early
    at stop.  Each block's codewords are formed by _codewords (which turns
    integer rows to float), reduced and checked before the next is asked
    for, so no reduction streams more than one block through memory."""
    empty = True
    for z in blocks:
        empty = False
        best = min(best, reduce(_codewords(basis, z)))
        if stop is not None and best <= stop:
            return best
    if empty:
        raise ValueError("no coefficient vector to search: the bound is 0 or none was requested")
    return best


def _codewords(basis: WeightBasis, z: np.ndarray) -> np.ndarray:
    """The codewords sum_i z_i B_i of the rows z, the one builder: z as float
    times the weights' float view, viewed back as complex, (n, n_t, T).  A
    row's bits can depend on the rows multiplied with it."""
    flat = basis.mats.view(float).reshape(basis.k, -1)
    return (z.astype(float, copy=False) @ flat).view(complex).reshape(-1, basis.n_t, basis.T)


#: Bound, relative to ||X||_F^(2n), on how far the closed form and LAPACK
#: can each put |det X|^2 from its exact value on sides up to 4: about 4500
#: ulps, several times the worst case of LU with partial pivoting (growth at
#: most 8) and of the expansion, whose terms sum to at most ||X||_F^n.
_DET_SLACK = 1e-12


def _det(mats: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices: closed forms for sides
    2 and 4 (side 4 by a Laplace expansion in 2x2 minors), LAPACK otherwise."""
    side = mats.shape[-1]
    if side not in (2, 4):
        return np.linalg.det(mats)
    # a[i][j] is the view mats[:, i, j]: entry (i, j) of every matrix
    a = [[mats[:, i, j] for j in range(side)] for i in range(side)]

    def minor(r, i, j):  # rows r and r + 1, columns i and j
        return a[r][i] * a[r + 1][j] - a[r][j] * a[r + 1][i]

    if side == 2:
        return minor(0, 0, 1)
    return (
        minor(0, 0, 1) * minor(2, 2, 3)
        - minor(0, 0, 2) * minor(2, 1, 3)
        + minor(0, 0, 3) * minor(2, 1, 2)
        + minor(0, 1, 2) * minor(2, 0, 3)
        - minor(0, 1, 3) * minor(2, 0, 2)
        + minor(0, 2, 3) * minor(2, 0, 1)
    )


def _fro_sq(mats: np.ndarray) -> np.ndarray:
    """||X||_F^2 of every matrix in a stack."""
    flat = np.ascontiguousarray(mats).reshape(len(mats), -1).view(float)
    return np.einsum("ij,ij->i", flat, flat)


def _min_abs_det_sq_of_block(mats: np.ndarray, slack: float) -> float:
    """min |det X|^2 over a stack, as LAPACK's det gives it.

    The closed form ranks the stack; LAPACK then runs only on the rows
    whose closed-form value, within slack of rounding, could still be the
    least.  slack must be at least every row's _DET_SLACK * ||X||_F^(2n).
    A row is kept unless est - slack > min(est) + slack; the rule with each
    row's own slack keeps a row unless est - own > min(est + own), and
    since est - slack <= est - own and min(est + own) <= min(est) + slack,
    every row that rule keeps is kept here, the row of LAPACK's least value
    among them.  A row whose values are not finite is kept.
    """
    est = np.abs(_det(mats)) ** 2
    keep = ~(est - slack > np.min(est) + slack)
    return float((np.abs(np.linalg.det(mats[keep])) ** 2).min())


def _det_slack(basis: WeightBasis, bound: int) -> float:
    """_DET_SLACK * (bound * sum_i ||B_i||_F)^(2n): every codeword of the box
    has ||sum z_i B_i||_F <= bound * sum_i ||B_i||_F, so this bounds every
    row's slack.  The factor 1 + 1e-9 covers the rounding of the computed
    norms and codewords, some 10^-13 relative."""
    norms = np.sqrt(_fro_sq(basis.mats))
    return _DET_SLACK * (bound * float(norms.sum()) * (1 + 1e-9)) ** (2 * basis.n_t)


def _min_abs_det_sq(basis: WeightBasis, bound: int) -> float:
    """min |det(sum z_i B_i)|^2 over the box, bit for bit the least of
    LAPACK's values over every codeword, at the cost of the closed form plus
    LAPACK on the few rows near each block's minimum; those rows never
    outlive their block."""
    blocks = _coefficient_box(basis.k, bound, _block_rows(basis))
    slack = _det_slack(basis, bound)
    return _sweep(basis, blocks, lambda mats: _min_abs_det_sq_of_block(mats, slack), np.inf)


def lattice_profile(basis: WeightBasis, det_search_bound: int = 2) -> LatticeProfile:
    """Compute generator, Gram, volume, and determinant figures of a code.

    min_det_est is the minimum of |det(sum z_i B_i)|^2 over nonzero integer
    vectors z with ||z||_inf <= det_search_bound, an upper bound on the true
    lattice infimum.  delta = min_det_est / volume^(1/(2n)) and
    eta = min_det_est^(2n) / volume with n = n_t.  A det_search_bound of 0
    skips the determinant fields; a negative one is refused for every shape.
    """
    _check_nonnegative("search bound", det_search_bound)
    prof = profile_from_generator(generator_matrix(basis))
    if basis.n_t != basis.T or det_search_bound == 0:
        return prof
    n, volume = basis.n_t, prof.volume
    min_det = _min_abs_det_sq(basis, det_search_bound)
    return replace(
        prof,
        min_det_est=min_det,
        delta=min_det / volume ** (1.0 / (2 * n)),
        eta=min_det ** (2 * n) / volume,
    )


def profile_from_generator(gen: np.ndarray) -> LatticeProfile:
    """Profile a plain real lattice given by generator columns.

    Covers lattices that do not come from a weight basis (for example the
    hexagonal lattice in the plane); only gram/volume fields are filled.
    """
    gen = np.asarray(gen, dtype=float)
    if gen.ndim != 2:
        raise ValueError("generator must be a matrix")
    k, rank = gen.shape[1], int(_ranks(gen[None])[0])
    if rank < k:
        raise ValueError(
            f"degenerate lattice: the {k} generator columns span only {rank} "
            "real dimensions"
        )
    gram = gen.T @ gen
    # From the log-determinant, which neither underflows nor overflows
    # where det(Gram) itself would at large k or extreme scales.
    sign, logdet = np.linalg.slogdet(gram)
    if sign <= 0:
        raise ValueError("degenerate lattice: Gram matrix is not positive definite")
    return LatticeProfile(gen=gen, gram=gram, volume=float(np.exp(logdet / 2)))


def _ranks(mats: np.ndarray) -> np.ndarray:
    svals = np.linalg.svd(mats, compute_uv=False)
    cutoff = RANK_TOL * svals.max(axis=1, keepdims=True)
    return (svals > cutoff).sum(axis=1)


def _min_rank_of_block(mats: np.ndarray) -> int:
    """Minimum rank across a stack of matrices.

    Fast path for square stacks: a clearly nonzero determinant certifies
    full rank; only the near-singular members go through the SVD.
    """
    side = mats.shape[-1]
    if mats.shape[-2] != side:
        return int(_ranks(mats).min())
    dets = np.abs(_det(mats))
    scale = np.sqrt(_fro_sq(mats) / side) + 1e-300
    # <=, not <: for a zero codeword both sides underflow to 0
    suspicious = dets <= 1e-6 * scale**side
    if not suspicious.any():
        return side
    return int(_ranks(mats[suspicious]).min())


def min_rank_difference(basis: WeightBasis, search_bound: int = 1) -> int:
    """Smallest rank of sum z_i B_i over nonzero integer z, ||z||_inf bounded.

    Exact over the enumerated box.  A result equal to min(n_t, T) certifies
    full diversity within the box.
    """
    return _min_rank_sweep(basis, _coefficient_box(basis.k, search_bound, _block_rows(basis)))


def _min_rank_sweep(basis: WeightBasis, blocks) -> int:
    """The least rank over the blocks' codewords, ending at the least one
    possible: 0 if the weights are dependent, else 1."""
    stop = 1 if basis.rank == basis.k else 0
    return _sweep(basis, blocks, _min_rank_of_block, min(basis.n_t, basis.T), stop)


def _sparse_box(k: int, bound: int, max_nonzeros: int, rows: int):
    """Yield the vectors with 1..max_nonzeros <= k nonzero entries in
    [-bound, bound], one of each antipodal pair (positive first nonzero), in
    blocks of at most rows rows: one block of values at as many supports as
    fit.  Each block is built in _scatter, so the generator holds none it
    has yielded."""
    base = 2 * bound
    vals = np.delete(np.arange(-bound, bound + 1.0), bound)
    for nnz in range(1, max_nonzeros + 1):
        # digits in the upper half of the base^nnz range pick a positive
        # first value; every nonzero pattern comes once per support
        for values in _mixed_radix(vals, nnz, base**nnz // 2, base**nnz, rows):
            supports = itertools.combinations(range(k), nnz)
            while group := list(itertools.islice(supports, rows // len(values))):
                yield _scatter(k, group, values)


def _scatter(k: int, supports: list, values: np.ndarray) -> np.ndarray:
    """Rows of length k holding each row of values at each support, support
    by support."""
    cols = np.repeat(np.array(supports), len(values), axis=0)
    z = np.zeros((len(cols), k))
    np.put_along_axis(z, cols, np.tile(values, (len(supports), 1)), axis=1)
    return z


def _random_box(k: int, bound: int, n_random: int, seed: int, rows: int):
    """Yield seeded uniform draws from the box as int64 rows, one draw of
    rows rows a block with its zero vectors dropped; _codewords converts
    them to float.  A split draw continues the same stream, so the blocks
    hold the rows of one whole draw."""
    rng = np.random.default_rng(seed)
    for lo in range(0, n_random, rows):
        z = rng.integers(-bound, bound + 1, size=(min(rows, n_random - lo), k))
        nonzero = np.any(z, axis=1)
        if not nonzero.all():
            z = z[nonzero]
        if len(z):
            yield z


def min_rank_sampled(
    basis: WeightBasis,
    search_bound: int = 1,
    max_nonzeros: int = 4,
    n_random: int = 1_000_000,
    seed: int = 0,
) -> int:
    """Lower-effort variant of :func:`min_rank_difference` for large k.

    Exhausts all coefficient vectors with at most ``max_nonzeros`` nonzero
    entries and adds ``n_random`` seeded dense random vectors.  The result is
    an upper bound on the true minimum rank over the box; it is exact on the
    sparse subset.  The two together may hold at most MAX_CANDIDATES vectors.
    """
    _check_nonnegative("search bound", search_bound)
    _check_nonnegative("max_nonzeros", max_nonzeros)
    _check_nonnegative("n_random", n_random)
    k, max_nonzeros = basis.k, min(max_nonzeros, basis.k)
    sparse = sum(math.comb(k, m) * (2 * search_bound) ** m // 2 for m in range(1, max_nonzeros + 1))
    _check_cap(
        "sampled search", sparse + n_random, MAX_CANDIDATES, "the bound, max_nonzeros or n_random"
    )
    rows = _block_rows(basis)
    blocks = itertools.chain(
        _sparse_box(k, search_bound, max_nonzeros, rows),
        _random_box(k, search_bound, n_random, seed, rows),
    )
    return _min_rank_sweep(basis, blocks)
