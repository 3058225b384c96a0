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
    "unvectorize",
    "generator_matrix",
    "lattice_profile",
    "profile_from_generator",
    "min_rank_difference",
    "min_rank_sampled",
]

#: Relative singular-value threshold below which a direction counts as zero.
RANK_TOL = 1e-9

#: Default cap on the number of coefficient vectors enumerated in the
#: minimum-determinant / minimum-rank searches.
MAX_CANDIDATES = 5_000_000


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
    cols = U.T.reshape(-1)  # column-major traversal
    out = np.empty(2 * cols.size)
    out[0::2] = cols.real
    out[1::2] = cols.imag
    return out


def unvectorize(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vectorize` for a matrix of known shape."""
    v = np.asarray(v, dtype=float)
    if v.size != 2 * rows * cols:
        raise ValueError("vector length does not match the requested shape")
    z = v[0::2] + 1j * v[1::2]
    return z.reshape(cols, rows).T


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
        for m in arrs:
            if m.shape != shape:
                raise ValueError("all weight matrices must share one shape")
            if not np.all(np.isfinite(m)):
                raise ValueError("weight matrix entries must be finite")
        for m in arrs:
            m.setflags(write=False)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "mats", arrs)
        object.__setattr__(self, "n_t", shape[0])
        object.__setattr__(self, "T", shape[1])
        object.__setattr__(self, "k", len(arrs))
        if not allow_dependent and self.k > 2 * self.n_t * self.T:
            raise ValueError(
                f"{self.k} matrices cannot be independent in a "
                f"{self.n_t}x{self.T} space (max {2 * self.n_t * self.T})"
            )
        gen = generator_matrix(self)
        rank = int(
            np.linalg.matrix_rank(gen, tol=RANK_TOL * max(1.0, _spectral(gen)))
        )
        object.__setattr__(self, "rank", rank)
        if rank < self.k and not allow_dependent:
            raise ValueError("weight matrices are linearly dependent over the reals")

    def combination(self, coeffs) -> np.ndarray:
        """Return sum_i coeffs[i] * B_i as a complex matrix."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.k,):
            raise ValueError(f"expected {self.k} coefficients")
        return np.tensordot(coeffs, np.stack(self.mats), axes=1)

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


def _spectral(A: np.ndarray) -> float:
    return float(np.linalg.norm(A, 2)) if A.size else 0.0


def generator_matrix(basis: WeightBasis) -> np.ndarray:
    """Stack the vectorized weight matrices as columns: 2*n_t*T by k."""
    return np.column_stack([vectorize(m) for m in basis.mats])


def _equivalent_channel(basis: WeightBasis, H, order) -> np.ndarray:
    """Equivalent real channel B_H = [vectorize(H B_i) for i in order];
    the channel is validated before the product."""
    H = np.atleast_2d(np.asarray(H, dtype=complex))
    if H.shape[1] != basis.n_t:
        raise ValueError(f"channel has {H.shape[1]} columns, expected {basis.n_t}")
    if not np.all(np.isfinite(H)):
        raise ValueError("channel entries must be finite")
    HB = H @ np.stack(basis.mats)[list(order)]
    # Side by side, the products' column-major traversal runs through
    # H B_i one after another, so one vectorize yields every column.
    side_by_side = HB.transpose(1, 0, 2).reshape(HB.shape[1], -1)
    return np.ascontiguousarray(vectorize(side_by_side).reshape(len(HB), -1).T)


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


def _mixed_radix(base: int, k: int, start: int, stop: int, chunk: int):
    """Yield the k base-``base`` digits, most significant first, of every
    index in [start, stop), as int64 rows in blocks of at most chunk."""
    powers = base ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for lo in range(start, stop, chunk):
        ids = np.arange(lo, min(lo + chunk, stop), dtype=np.int64)
        yield (ids[:, None] // powers[None, :]) % base


def _coefficient_box(k: int, bound: int, max_candidates: int):
    """Yield integer coefficient chunks covering the box ||z||_inf <= bound.

    Only one representative of each antipodal pair {z, -z} is produced (the
    determinant modulus and the rank are symmetric under negation), realized
    by enumerating the lexicographic first half of the box.
    """
    if bound < 0:
        raise ValueError("search bound must be nonnegative")
    base = 2 * bound + 1
    total = base**k - 1
    if total > 2 * max_candidates:
        raise ValueError(
            f"coefficient box holds {total} vectors which exceeds the cap of "
            f"{2 * max_candidates}; lower the bound or raise max_candidates"
        )
    # Vectors whose mixed-radix index lies in the upper half have a positive
    # leading nonzero entry; the zero vector sits exactly at the midpoint.
    mid = total // 2  # index of the zero vector
    for digits in _mixed_radix(base, k, mid + 1, total + 1, _CHUNK):
        yield digits.astype(float) - bound


def _sweep(basis: WeightBasis, chunks, reduce, best, stop=None):
    """Fold min(best, reduce(codewords)) over chunks of coefficient rows z,
    each turned into the codewords sum_i z_i B_i; returns early at stop."""
    stack = np.stack(basis.mats)
    empty = True
    for chunk in chunks:
        empty = False
        best = min(best, reduce(np.tensordot(chunk, stack, axes=1)))
        if stop is not None and best <= stop:
            break
    if empty:
        raise ValueError("no coefficient vector to search: the bound is 0 or none was requested")
    return best


def _min_abs_det_sq(basis: WeightBasis, bound: int, max_candidates: int) -> float:
    return _sweep(
        basis,
        _coefficient_box(basis.k, bound, max_candidates),
        lambda mats: float((np.abs(np.linalg.det(mats)) ** 2).min()),
        np.inf,
    )


def lattice_profile(
    basis: WeightBasis,
    det_search_bound: int = 2,
    max_candidates: int = MAX_CANDIDATES,
) -> LatticeProfile:
    """Compute generator, Gram, volume, and determinant figures of a code.

    min_det_est is the minimum of |det(sum z_i B_i)|^2 over nonzero integer
    vectors z with ||z||_inf <= det_search_bound, an upper bound on the true
    lattice infimum.  delta = min_det_est / volume^(1/(2n)) and
    eta = min_det_est^(2n) / volume with n = n_t.  A det_search_bound of 0
    skips the determinant fields.
    """
    prof = profile_from_generator(generator_matrix(basis))
    if basis.n_t != basis.T or det_search_bound == 0:
        return prof
    n, volume = basis.n_t, prof.volume
    min_det = _min_abs_det_sq(basis, det_search_bound, max_candidates)
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
    gram = gen.T @ gen
    det_gram = float(np.linalg.det(gram))
    if det_gram <= 0:
        raise ValueError("degenerate lattice: Gram matrix is not positive definite")
    return LatticeProfile(gen=gen, gram=gram, volume=float(np.sqrt(det_gram)))


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
    dets = np.abs(np.linalg.det(mats))
    scale = np.linalg.norm(mats, axis=(-2, -1)) / np.sqrt(side) + 1e-300
    # <=, not <: for a zero codeword both sides underflow to 0
    suspicious = dets <= 1e-6 * scale**side
    if not suspicious.any():
        return side
    return int(_ranks(mats[suspicious]).min())


def min_rank_difference(
    basis: WeightBasis,
    search_bound: int = 1,
    max_candidates: int = MAX_CANDIDATES,
) -> int:
    """Smallest rank of sum z_i B_i over nonzero integer z, ||z||_inf bounded.

    Exact over the enumerated box.  A result equal to min(n_t, T) certifies
    full diversity within the box.
    """
    chunks = _coefficient_box(basis.k, search_bound, max_candidates)
    return _sweep(basis, chunks, _min_rank_of_chunk, min(basis.n_t, basis.T), stop=1)


def _sparse_box(k: int, bound: int, max_nonzeros: int):
    """Yield chunks of the vectors with 1..max_nonzeros nonzero entries in
    [-bound, bound], one of each antipodal pair (positive first nonzero)."""
    base = 2 * bound
    vals = np.delete(np.arange(-bound, bound + 1.0), bound)
    for nnz in range(1, max_nonzeros + 1):
        # digits in the upper half of the base^nnz range pick a positive
        # first value; every nonzero pattern comes once per support
        for digits in _mixed_radix(base, nnz, base**nnz // 2, base**nnz, _CHUNK):
            values = vals[digits]
            supports = itertools.combinations(range(k), nnz)
            per_chunk = _CHUNK // len(values)  # >= 1: values has at most _CHUNK rows
            while block := list(itertools.islice(supports, per_chunk)):
                cols = np.repeat(np.array(block), len(values), axis=0)
                z = np.zeros((len(cols), k))
                np.put_along_axis(z, cols, np.tile(values, (len(block), 1)), axis=1)
                yield z


def _random_box(k: int, bound: int, n_random: int, seed: int):
    """Yield seeded uniform draws from the box, zero vectors dropped."""
    rng = np.random.default_rng(seed)
    for lo in range(0, n_random, _CHUNK):
        size = min(_CHUNK, n_random - lo)
        chunk = rng.integers(-bound, bound + 1, size=(size, k)).astype(float)
        chunk = chunk[np.any(chunk, axis=1)]
        if len(chunk):
            yield chunk


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
    if search_bound < 0:
        raise ValueError("search bound must be nonnegative")
    chunks = itertools.chain(
        _sparse_box(basis.k, search_bound, max_nonzeros),
        _random_box(basis.k, search_bound, n_random, seed),
    )
    return _sweep(basis, chunks, _min_rank_of_chunk, min(basis.n_t, basis.T), stop=1)
