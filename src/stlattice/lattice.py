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


@dataclass(frozen=True)
class WeightBasis:
    """Ordered list of k complex n_t x T weight matrices defining a code."""

    name: str
    mats: tuple
    n_t: int = field(init=False)
    T: int = field(init=False)
    k: int = field(init=False)
    rank: int = field(init=False)

    def __init__(self, name: str, mats, allow_dependent: bool = False):
        arrs = tuple(np.array(m, dtype=complex) for m in mats)
        if not arrs:
            raise ValueError("a weight basis needs at least one matrix")
        shape = arrs[0].shape
        if len(shape) != 2:
            raise ValueError("weight matrices must be 2-D")
        if any(m.shape != shape for m in arrs):
            raise ValueError("all weight matrices must share one shape")
        # One read-only (k, n_t, T) stack; mats are its per-matrix views.
        stack = np.stack(arrs)
        # The largest |real part| or |imaginary part|: NaN or inf if any
        # entry is not finite.
        peak = float(np.abs(stack.view(float)).max())
        if not np.isfinite(peak):
            raise ValueError("weight matrix entries must be finite")
        stack.setflags(write=False)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "mats", tuple(stack))
        object.__setattr__(self, "_stack", stack)
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
        """Return sum_i coeffs[i] * B_i as a complex matrix."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.k,):
            raise ValueError(f"expected {self.k} coefficients")
        return np.tensordot(coeffs, self._stack, axes=1)

    # JSON schema: {name, nt, T, k, mats: [[[re, im], ...], ...]}, row-major.
    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "nt": self.n_t,
            "T": self.T,
            "k": self.k,
            "mats": [
                [[[float(z.real), float(z.imag)] for z in row] for row in m]
                for m in self.mats
            ],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

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
    return np.column_stack([vectorize(m) for m in basis.mats])


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
    columns = _vectorize_stack(H[..., None, :, :] @ basis._stack[list(order)])
    if not np.isfinite(columns).all():
        raise ValueError("matrix entries must be finite")
    return np.ascontiguousarray(np.swapaxes(columns, -1, -2))


@dataclass(frozen=True)
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


#: Chunk size for vectorized sweeps over coefficient boxes.
_CHUNK = 65536

#: Bytes of codewords that a sweep forms and reduces at a time, so that a
#: block and the temporaries of its reduction stay in cache.
_BLOCK_BYTES = 1 << 19


def _mixed_radix(values, k: int, start: int, stop: int, chunk: int):
    """Yield the rows (values[d_1], ..., values[d_k]) of the k base-len(values)
    digits, most significant first, of every index in [start, stop), in
    blocks of at most chunk rows.

    Each block is built digit-major, as a k x n array whose transpose is
    yielded, so every pass runs along the block's rows.  Digit j runs
    through values with each value repeated r = base^(k-1-j) times.  A
    column whose run is at least the longest block holds at most two runs
    and is filled with them.  Any other column is periodic: one period of
    its cycle, tabulated once per call, is copied in from the block's
    offset, and the filled prefix is doubled until the column is full.

    One block is held at a time: each is built in _radix_block, so the
    generator keeps no name bound to a block it has yielded.
    """
    base = len(values)
    runs = [base ** (k - 1 - j) for j in range(k)]
    longest = min(chunk, stop - start)
    cycles = {run: np.repeat(values, run) for run in runs if run < longest}
    for lo in range(start, stop, chunk):
        yield _radix_block(values, runs, cycles, lo, min(chunk, stop - lo))


def _radix_block(values, runs, cycles, lo: int, n: int) -> np.ndarray:
    """The n rows of _mixed_radix from index lo, as the transpose of a
    digit-major block."""
    base = len(values)
    block = np.empty((len(runs), n), dtype=values.dtype)
    for col, run in zip(block, runs):
        digit, into = divmod(lo % (base * run), run)
        if run not in cycles:
            head = min(run - into, n)
            col[:head] = values[digit]
            col[head:] = values[(digit + 1) % base]
            continue
        cycle = cycles[run]
        at = digit * run + into
        head = min(len(cycle) - at, n)
        col[:head] = cycle[at : at + head]
        filled = min(len(cycle), n)
        col[head:filled] = cycle[: filled - head]
        while filled < n:
            step = min(filled, n - filled)
            col[filled : filled + step] = col[:step]
            filled += step
    return block.T


def _check_bound(bound: int) -> None:
    if bound < 0:
        raise ValueError("search bound must be nonnegative")


def _coefficient_box(k: int, bound: int):
    """Yield integer coefficient chunks covering the box ||z||_inf <= bound.

    Only one representative of each antipodal pair {z, -z} is produced (the
    determinant modulus and the rank are symmetric under negation), realized
    by enumerating the lexicographic first half of the box.  The box may
    hold at most 2 * MAX_CANDIDATES nonzero vectors.  One chunk is held at
    a time, as _mixed_radix yields them.
    """
    _check_bound(bound)
    base = 2 * bound + 1
    total = base**k - 1
    if total > 2 * MAX_CANDIDATES:
        raise ValueError(
            f"coefficient box holds {total} vectors which exceeds the cap of "
            f"{2 * MAX_CANDIDATES}; lower the bound"
        )
    # Vectors whose mixed-radix index lies in the upper half have a positive
    # leading nonzero entry; the zero vector sits exactly at the midpoint.
    mid = total // 2  # index of the zero vector
    yield from _mixed_radix(np.arange(base, dtype=float) - bound, k, mid + 1, total + 1, _CHUNK)


def _sweep(basis: WeightBasis, chunks, reduce, best, stop=None):
    """Fold min(best, reduce(codewords)) over blocks of coefficient rows z,
    each turned into the codewords sum_i z_i B_i; returns early at stop.

    Each chunk is cut into blocks of about _BLOCK_BYTES of codewords, at
    least one row, and every block is formed, reduced and checked against
    stop before the next, so no reduction streams a whole chunk through
    memory.  A chunk of integers is converted to float one block at a time,
    so its float form is never built whole (for a float chunk the
    conversion is a no-op).  The sweep drops a finished chunk before it
    asks for the next, so with a producer that keeps none, one chunk is
    held at a time.

    The codewords are one real product of z with the stack's float view,
    viewed back as complex.  With z real, a complex tensordot would add the
    same real products in the same order, and BLAS gives the two the same
    bits at several times the speed.
    """
    flat = basis._stack.view(float).reshape(basis.k, -1)
    shape = (-1, basis.n_t, basis.T)
    rows = max(1, _BLOCK_BYTES // flat[0].nbytes)
    empty = True
    for chunk in chunks:
        empty = False
        for lo in range(0, len(chunk), rows):
            best = min(best, reduce(_codewords(chunk[lo : lo + rows], flat, shape)))
            if stop is not None and best <= stop:
                return best
        del chunk
    if empty:
        raise ValueError("no coefficient vector to search: the bound is 0 or none was requested")
    return best


def _codewords(z: np.ndarray, flat: np.ndarray, shape: tuple) -> np.ndarray:
    """The codewords of the coefficient rows z, converted to float here: z
    times the stack's float view, viewed back as complex in shape."""
    return (z.astype(float, copy=False) @ flat).view(complex).reshape(shape)


#: Bound, relative to ||X||_F^(2n), on how far the closed form and LAPACK
#: can each put |det X|^2 from its exact value on sides up to 4: about 4500
#: ulps, several times the worst case of LU with partial pivoting (growth at
#: most 8) and of the expansion, whose terms sum to at most ||X||_F^n.
_DET_SLACK = 1e-12


def _det(mats: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices: closed forms for sides
    2 to 4 (side 4 by a Laplace expansion in 2x2 minors), LAPACK otherwise."""
    side = mats.shape[-1]
    if not 2 <= side <= 4:
        return np.linalg.det(mats)
    a = np.moveaxis(mats, 0, -1)  # a[i, j] holds entry (i, j) of every matrix

    def minor(r, i, j):  # rows r and r + 1, columns i and j
        return a[r, i] * a[r + 1, j] - a[r, j] * a[r + 1, i]

    if side == 2:
        return minor(0, 0, 1)
    if side == 3:
        return a[0, 0] * minor(1, 1, 2) - a[0, 1] * minor(1, 0, 2) + a[0, 2] * minor(1, 0, 1)
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


def _min_abs_det_sq_of_chunk(mats: np.ndarray, slack: float) -> float:
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
    norms = np.sqrt(_fro_sq(basis._stack))
    return _DET_SLACK * (bound * float(norms.sum()) * (1 + 1e-9)) ** (2 * basis.n_t)


def _min_abs_det_sq(basis: WeightBasis, bound: int) -> float:
    """min |det(sum z_i B_i)|^2 over the box, bit for bit the least of
    LAPACK's values over every codeword, at the cost of the closed form plus
    LAPACK on the few rows near each block's minimum; those rows never
    outlive their block."""
    chunks = _coefficient_box(basis.k, bound)
    slack = _det_slack(basis, bound)
    return _sweep(basis, chunks, lambda mats: _min_abs_det_sq_of_chunk(mats, slack), np.inf)


def lattice_profile(basis: WeightBasis, det_search_bound: int = 2) -> LatticeProfile:
    """Compute generator, Gram, volume, and determinant figures of a code.

    min_det_est is the minimum of |det(sum z_i B_i)|^2 over nonzero integer
    vectors z with ||z||_inf <= det_search_bound, an upper bound on the true
    lattice infimum.  delta = min_det_est / volume^(1/(2n)) and
    eta = min_det_est^(2n) / volume with n = n_t.  A det_search_bound of 0
    skips the determinant fields; a negative one is refused for every shape.
    """
    _check_bound(det_search_bound)
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


def _min_rank_of_chunk(mats: np.ndarray) -> int:
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
    chunks = _coefficient_box(basis.k, search_bound)
    return _sweep(basis, chunks, _min_rank_of_chunk, min(basis.n_t, basis.T), stop=1)


def _sparse_box(k: int, bound: int, max_nonzeros: int):
    """Yield chunks of the vectors with 1..max_nonzeros nonzero entries in
    [-bound, bound], one of each antipodal pair (positive first nonzero).
    One chunk is held at a time: each is built in _scatter, so the
    generator keeps no name bound to a chunk it has yielded."""
    base = 2 * bound
    vals = np.delete(np.arange(-bound, bound + 1.0), bound)
    for nnz in range(1, max_nonzeros + 1):
        # digits in the upper half of the base^nnz range pick a positive
        # first value; every nonzero pattern comes once per support
        for values in _mixed_radix(vals, nnz, base**nnz // 2, base**nnz, _CHUNK):
            supports = itertools.combinations(range(k), nnz)
            per_chunk = _CHUNK // len(values)  # >= 1: values has at most _CHUNK rows
            while block := list(itertools.islice(supports, per_chunk)):
                yield _scatter(k, block, values)


def _scatter(k: int, supports: list, values: np.ndarray) -> np.ndarray:
    """Rows of length k holding each row of values at each support, support
    by support."""
    cols = np.repeat(np.array(supports), len(values), axis=0)
    z = np.zeros((len(cols), k))
    np.put_along_axis(z, cols, np.tile(values, (len(supports), 1)), axis=1)
    return z


def _random_box(k: int, bound: int, n_random: int, seed: int):
    """Yield seeded uniform draws from the box as int64 rows, zero vectors
    dropped; _sweep converts them to float block by block.  One chunk is
    held at a time: the generator drops each chunk it has yielded before it
    draws the next."""
    rng = np.random.default_rng(seed)
    for lo in range(0, n_random, _CHUNK):
        size = min(_CHUNK, n_random - lo)
        chunk = rng.integers(-bound, bound + 1, size=(size, k))
        nonzero = np.any(chunk, axis=1)
        if not nonzero.all():
            chunk = chunk[nonzero]
        if len(chunk):
            yield chunk
        del chunk


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
    sparse subset.
    """
    _check_bound(search_bound)
    chunks = itertools.chain(
        _sparse_box(basis.k, search_bound, max_nonzeros),
        _random_box(basis.k, search_bound, n_random, seed),
    )
    return _sweep(basis, chunks, _min_rank_of_chunk, min(basis.n_t, basis.T), stop=1)
