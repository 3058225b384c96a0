"""Real lattice machinery for matrix codes.

A linear space-time code is the set of real-integer combinations of k fixed
complex weight matrices.  Identifying each matrix with a real vector through
the column-wise re/im interleaving isometry turns the code into a lattice in
R^(2*n_t*T); this module computes the generator and Gram matrices of that
lattice, its volume, and the determinant-based figures of merit.
"""

from __future__ import annotations

import functools
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
        return _codewords(self.mats, coeffs[None])[0]

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
    and is filled with them.  Any other column is periodic: its period,
    tabulated once per call, is copied in from the block's offset in it,
    then as whole periods by one broadcast, then as the start of one more.

    One block is held at a time: each is built in _radix_block, so the
    generator keeps no name bound to a block it has yielded.
    """
    base = len(values)
    runs = [base ** (k - 1 - j) for j in range(k)]
    longest = min(rows, stop - start)
    periods = {run: np.repeat(values, run) for run in runs if run < longest}
    for lo in range(start, stop, rows):
        yield _radix_block(values, runs, periods, lo, min(rows, stop - lo))


def _radix_block(values, runs, periods, lo: int, n: int) -> np.ndarray:
    """The n rows of _mixed_radix from index lo, as the transpose of a
    digit-major block."""
    base = len(values)
    block = np.empty((len(runs), n), dtype=values.dtype)
    for col, run in zip(block, runs):
        at = lo % (base * run)
        if run in periods:
            period = periods[run]
            head = min(len(period) - at, n)
            whole = head + (n - head) // len(period) * len(period)
            col[:head] = period[at : at + head]
            col[head:whole].reshape(-1, len(period))[:] = period
            col[whole:] = period[: n - whole]
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


def _box_base(k: int, bound: int) -> int:
    """The digit base 2 * bound + 1 of the box ||z||_inf <= bound, once the
    bound is checked to be nonnegative and the box's 2 * MAX_CANDIDATES
    cap on nonzero vectors is checked."""
    _check_nonnegative("search bound", bound)
    base = 2 * bound + 1
    _check_cap("coefficient box", base**k - 1, 2 * MAX_CANDIDATES, "the bound")
    return base


def _coefficient_box(k: int, bound: int, rows: int):
    """Yield blocks of at most rows coefficient rows covering ||z||_inf <= bound.

    Only one representative of each antipodal pair {z, -z} is produced (the
    determinant modulus and the rank are symmetric under negation), realized
    by enumerating the lexicographic first half of the box.  The box may
    hold at most 2 * MAX_CANDIDATES nonzero vectors.  One block is held at
    a time, as _mixed_radix yields them.
    """
    base = _box_base(k, bound)
    total = base**k - 1
    # Vectors whose mixed-radix index lies in the upper half have a positive
    # leading nonzero entry; the zero vector sits exactly at the midpoint.
    mid = total // 2  # index of the zero vector
    yield from _mixed_radix(np.arange(base, dtype=float) - bound, k, mid + 1, total + 1, rows)


_EMPTY_BOX = "no coefficient vector to search: the bound is 0 or none was requested"


def _sweep(basis: WeightBasis, blocks, reduce, best, stop, empty: str):
    """Fold min(best, reduce(codewords)) over the blocks of coefficient rows
    z that a producer yields, _block_rows(basis) rows at most; returns early
    at stop, and raises ValueError(empty) if there is no block.  Each
    block's codewords are formed by _codewords (which turns integer rows to
    float), reduced and checked before the next is asked for, so no
    reduction streams more than one block through memory."""
    z = None
    for z in blocks:
        best = min(best, reduce(_codewords(basis.mats, z)))
        if best <= stop:
            return best
    if z is None:
        raise ValueError(empty)
    return best


def _codewords(mats: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The codewords sum_i z_i B_i of the rows z over the weights mats
    (k, n_t, T), the one builder: z as float times the weights' float view,
    viewed back as complex, (n, n_t, T).  A row's bits can depend on the
    rows multiplied with it."""
    # sized, not -1: the stack may be empty (a split with no hi digit)
    flat = mats.reshape(len(mats), mats.shape[1] * mats.shape[2]).view(float)
    return (z.astype(float, copy=False) @ flat).view(complex).reshape(-1, *mats.shape[1:])


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


#: Square sides up to which the box sweeps of min_det_est and
#: min_rank_difference take their determinants by split minors
#: (_split_box); larger sides and non-square codes form every codeword.
_SPLIT_SIDES = 4

#: Bound, relative to N^n, on how far the split's determinant of a box
#: codeword lies from LAPACK's det of its _codewords product X, for sides n
#: up to 4; N = _box_norm(basis, bound) bounds ||X||_F over the box.
#: Derivation, to first order in u = 2^-53, with W = bound * sum_i |B_i|
#: entrywise (so ||W||_F <= N) and per(|M|) <= the product of M's row
#: 1-norms <= ||M||_F^n, at n = 4:
#:  - inputs: the hi part A, the lo part B and X are products of at most
#:    k <= 16 terms (the cap allows no larger box), each within k u W of
#:    its exact value, so |det(A + B) - det X| <= 2 n k u per(W) <= 128 u N^n;
#:  - the split: its terms are the Leibniz products of A + B, whose moduli
#:    sum to at most per(W) <= N^n.  Each passes through at most n - 1
#:    rounded complex products (sqrt(5) u each) and 6 additions in the two
#:    cofactor expansions, then the real product: one rounded product and
#:    139 additions, in any order, for each of Re and Im, sqrt(2) times
#:    that together.  So 7 + 6 + 198 < 211 u N^n;
#:  - LAPACK: LU with partial pivoting (growth at most 8) is the exact LU
#:    of X + E with ||E||_F <= 4 u * 4 * 4 * 8 ||X||_F, which moves det X by
#:    at most ||adj X||_F ||E||_F <= 512 u N^n, plus 4 u for the pivots'
#:    product.
#: So the two lie within (128 + 211 + 516) u N^n < 9.5e-14 N^n of each
#: other, half this bound.
_SPLIT_ERR = 2e-13

#: Bound, relative to N^(2n), on how far the split's |det X|^2 lies from
#: LAPACK's: | |d|^2 - |d'|^2 | <= |d - d'| (|d| + |d'|) with |d - d'| <=
#: _SPLIT_ERR N^n and |d'| <= N^n, so at most 4.01e-13 N^(2n) with a few
#: ulps for the squares, 2.5 times below this.
_DET_SLACK = 1e-12


def _box_norm(basis: WeightBasis, bound: int) -> float:
    """N = bound * sum_i ||B_i||_F: every codeword of the box has ||X||_F
    <= N.  The factor 1 + 1e-9 covers the rounding of the computed norms
    and codewords, some 10^-13 relative."""
    return bound * float(np.sqrt(_fro_sq(basis.mats)).sum()) * (1 + 1e-9)


@functools.lru_cache(maxsize=None)
def _laplace(n: int):
    """Index tables of the Laplace expansion of a side-n determinant,

        det(A + B) = sum over I, J with |I| = |J| of
                     (-1)^(sum I + sum J) det A[I, J] det B[I', J'],

    I' and J' the complements: C(2n, n) terms.  The pairs (I, J) run by
    size, then I, then J, each in itertools.combinations order, so the
    empty pair comes first.  Returns (steps, sign, complement).  Each step
    (start, stop, entries, minors) fills the columns of one size r >= 1 by
    the cofactor expansion along I's first row: the sum over c of (-1)^c
    times entry entries[p, c] of the flattened matrix times the column
    minors[p, c] of size r - 1.  sign is each pair's (-1)^(sum I + sum J),
    and complement[t] is the column of pair t's complement."""
    sets = [list(itertools.combinations(range(n), r)) for r in range(n + 1)]
    pairs = [(I, J) for r in range(n + 1) for I in sets[r] for J in sets[r]]
    column = {pair: t for t, pair in enumerate(pairs)}
    steps = []
    for r in range(1, n + 1):
        sized = [(I, J) for I, J in pairs if len(I) == r]
        entries = [[I[0] * n + j for j in J] for I, J in sized]
        minors = [[column[I[1:], J[:c] + J[c + 1 :]] for c in range(r)] for I, J in sized]
        start = column[sized[0]]
        steps.append((start, start + len(sized), np.array(entries), np.array(minors)))
    sign = np.array([(-1.0) ** (sum(I) + sum(J)) for I, J in pairs])
    rest = set(range(n))
    complement = [
        column[tuple(sorted(rest - set(I))), tuple(sorted(rest - set(J)))] for I, J in pairs
    ]
    return steps, sign, np.array(complement)


def _minors(mats: np.ndarray) -> np.ndarray:
    """Every square minor det X[I, J] of each matrix X of a side-n stack,
    as a (len(mats), C(2n, n)) array in _laplace's column order."""
    n = mats.shape[-1]
    steps, sign, _ = _laplace(n)
    flat = mats.reshape(len(mats), n * n)
    table = np.empty((len(mats), len(sign)), dtype=complex)
    table[:, 0] = 1
    for start, stop, entries, minors in steps:
        terms = flat[:, entries] * table[:, minors]
        terms[..., 1::2] *= -1
        table[:, start:stop] = terms.sum(axis=-1)
    return table


def _trail(lo: np.ndarray) -> np.ndarray:
    """The lo table of _split_box for a stack of lo codewords B: column j
    holds sign_t minor_t'(B_j) for each pair t, real parts over imaginary
    parts, (2 C(2n, n), len(lo))."""
    _, sign, complement = _laplace(lo.shape[-1])
    table = (_minors(lo)[:, complement] * sign).T
    return np.concatenate([table.real, table.imag])


def _lead_rows(hi: np.ndarray) -> np.ndarray:
    """The lead rows of _split_box for a stack of hi codewords A: the minors
    of A = hi[i] as rows 2i and 2i + 1 of [[Re, -Im], [Im, Re]], so that
    their product with a lo table trail holds Re det(A + B) in row 2i and
    Im det(A + B) in row 2i + 1, a column for each lo codeword B."""
    lead = _minors(hi)
    lead = np.concatenate([lead.real, -lead.imag, lead.imag, lead.real], axis=1)
    return lead.reshape(2 * len(hi), -1)


def _abs_sq(det: np.ndarray) -> np.ndarray:
    """|det|^2 from the rows of real and imaginary parts of a lead product,
    in place: the squares of the odd rows are added into the even rows,
    whose view is returned, so no second array is formed."""
    np.square(det, out=det)
    est = det[0::2]
    est += det[1::2]
    return est


def _split_box(basis: WeightBasis, bound: int):
    """|det X|^2 of every codeword X of _coefficient_box's half box, one
    block at a time, for a square basis of side n <= _SPLIT_SIDES.

    The k digits split into h leading (hi) and m trailing (lo) ones, m the
    most whose lo table of C(2n, n) complex minors fits in _BLOCK_BYTES.  A
    codeword X = A + B, A from the hi digits and B from the lo ones, has
    det X = sum_t sign_t minor_t(A) minor_t'(B), t' the complement of t
    (_laplace).  So one complex product of a block of hi rows' minors with
    the lo table of signed complementary minors, built once, gives det X
    for every codeword in the block.  It is taken as one real product, of
    the minors' real and imaginary parts stacked as [[Re, -Im], [Im, Re]]
    (_lead_rows) with the table's real part over its imaginary part.  A
    product takes as many hi rows as keep it within half of _BLOCK_BYTES,
    and its |det|^2 is formed in it (_abs_sq).  The hi codewords and their
    lead rows are formed once per lead block, of as many products' hi rows
    as keep the lead rows within half of _BLOCK_BYTES, and each product
    takes its rows from them.  While a block is in flight, the table, the
    lead rows and the caller's last |det|^2 (its product) are held; a lead
    block of one product holds no lead rows across the yield.

    The half box is every pair with hi above its midpoint (the zero vector's
    digits), plus the pairs with hi at it and lo above its midpoint: the
    latter come first, as one block, then the hi rows in order.  Yields
    (z_hi, z_lo, est), est[i, j] = |det X|^2 for the codeword of z_hi[i]
    followed by z_lo[j].  The bound is checked as _coefficient_box checks
    it, and a bound of 0 raises.
    """
    base = _box_base(basis.k, bound)
    if base == 1:
        raise ValueError(_EMPTY_BOX)
    m, terms = 0, math.comb(2 * basis.n_t, basis.n_t)
    while m < basis.k and base ** (m + 1) * 16 * terms <= _BLOCK_BYTES:
        m += 1
    h, lo_count = basis.k - m, base**m
    values = np.arange(base, dtype=float) - bound
    z_lo = next(_mixed_radix(values, m, 0, lo_count, lo_count))
    trail = _trail(_codewords(basis.mats[h:], z_lo))
    hi_rows = max(1, _BLOCK_BYTES // (32 * lo_count))
    # a hi row's lead rows take 32 terms bytes
    lead_rows = hi_rows * max(1, _BLOCK_BYTES // (64 * terms * hi_rows))
    leads = _mixed_radix(values, h, base**h // 2 + 1, base**h, lead_rows)
    first = [(np.zeros((1, h)), slice(lo_count // 2 + 1, None))] if m else []
    for z_lead, cols in itertools.chain(first, ((z, slice(None)) for z in leads)):
        rows = _lead_rows(_codewords(basis.mats[:h], z_lead))
        for at in range(0, len(z_lead), hi_rows):
            det = rows[2 * at : 2 * (at + hi_rows)] @ trail[:, cols]
            if at + hi_rows >= len(z_lead):
                del rows  # the lead block's last product
            yield z_lead[at : at + hi_rows], z_lo[cols], _abs_sq(det)


def _recheck(basis: WeightBasis, bound: int, batches, reduce, best):
    """Fold min(best, reduce(codewords)) over the codewords of the rows of
    the box ||z||_inf <= bound that batches yields.

    Each codeword is formed where the sweep of _coefficient_box in blocks
    of _block_rows(basis) rows forms it: at its row's place in its block,
    in a digit-major product of that block's row count (the last block's
    may be smaller), the other rows zero.  A codeword's last bits can
    depend on its place and on its product's row count, not on the other
    rows, so each keeps the sweep's bits.  Rows are held as their digits,
    in the least integer type, until a block's count of them is held; then,
    and at the end, each product takes one held row at each place of one
    row count, until fewer are held.  So at most a block's rows and one
    batch are held, and rows that share a place, as a box's least-|det|
    rows often do, take few products."""
    rows, base = _block_rows(basis), 2 * bound + 1
    count = (base**basis.k - 1) // 2  # rows of the half box
    last = (count - 1) // rows * rows  # offset of its last block
    step = max(1, rows // 4)  # held rows whose codewords reduce takes at once
    # the digits' weights in a row's mixed-radix index, exact in float
    # below the box cap
    weights = base ** np.arange(basis.k - 1, -1, -1.0)
    held, n_held = [], 0
    for batch in itertools.chain(batches, [None]):
        if batch is not None:
            held.append((batch + bound).astype(np.min_scalar_type(2 * bound)))
            n_held += len(batch)
        while n_held >= rows or (batch is None and n_held):
            digits = np.concatenate(held)
            offset = (digits @ weights).astype(np.int64) - (count + 1)
            size = np.where(offset < last, rows, count - last)
            group = np.flatnonzero(size == size[0])
            at = np.full(size[0], -1)
            at[offset[group] % rows] = group  # one row of the group per place
            place = np.flatnonzero(at >= 0)
            put = at[place]
            codewords = _codewords(basis.mats, _placed(digits[put], place, size[0], bound))
            for i in range(0, len(place), step):
                best = min(best, reduce(codewords[place[i : i + step]]))
            del codewords  # before the next product is formed
            held = [np.delete(digits, put, axis=0)]
            n_held = len(held[0])
    return best


def _placed(digits, place, size: int, bound: int) -> np.ndarray:
    """A digit-major block of size rows, zero but at rows place, which
    hold the coefficient rows of the digits."""
    block = np.zeros((digits.shape[1], size))
    block[:, place] = digits.T
    block[:, place] -= bound
    return block.T


def _pair_rows(z_hi, z_lo, hi, lo) -> np.ndarray:
    """The coefficient rows of the pairs (z_hi[hi], z_lo[lo])."""
    return np.concatenate([z_hi[hi], z_lo[lo]], axis=1)


def _lapack_min_abs_det_sq(mats: np.ndarray) -> float:
    """min |det X|^2 over a stack, by LAPACK's det of every matrix."""
    return float((np.abs(np.linalg.det(mats)) ** 2).min())


def _min_abs_det_sq(basis: WeightBasis, bound: int) -> float:
    """min |det(sum z_i B_i)|^2 over the box, bit for bit the least of
    LAPACK's values over every codeword.

    Sides above _SPLIT_SIDES take LAPACK's det once per codeword.  Smaller
    sides take est = |det|^2 of every codeword from _split_box, and LAPACK
    rechecks the rows that _near_least keeps.
    """
    if basis.n_t > _SPLIT_SIDES:
        blocks = _coefficient_box(basis.k, bound, _block_rows(basis))
        # no |det|^2 lies below 0.0, so stopping there changes no value
        return _sweep(basis, blocks, _lapack_min_abs_det_sq, np.inf, 0.0, _EMPTY_BOX)
    return _recheck(basis, bound, _near_least(basis, bound), _lapack_min_abs_det_sq, np.inf)


def _near_least(basis: WeightBasis, bound: int):
    """Yield, block by block of _split_box, the coefficient rows whose est =
    |det|^2 is within 2 slack of least, the smallest est so far: every row
    but those with est > least + 2 slack.

    slack = _det_slack bounds every row's |est - LAPACK|, so a row dropped
    against the row r of least est has LAPACK's value above est - slack >
    est(r) + slack, hence above LAPACK's value at r (the threshold's own
    rounding is an ulp of it, against a slack 2.5 times the bound).  r was
    kept in its own block, when least was its est.  So the least LAPACK
    value is among the kept rows.  A row whose est is not finite is kept.
    """
    slack = _det_slack(basis, bound)
    least = np.inf
    for z_hi, z_lo, est in _split_box(basis, bound):
        least = min(least, float(est.min()))
        yield _kept_rows(z_hi, z_lo, est, least + 2 * slack)


def _kept_rows(z_hi, z_lo, est, limit: float) -> np.ndarray:
    """The coefficient rows of the pairs whose est is not above limit (a
    non-finite est is kept), hi row by hi row, found in one flat pass."""
    return _pair_rows(z_hi, z_lo, *np.divmod(np.flatnonzero(~(est > limit)), len(z_lo)))


def _det_slack(basis: WeightBasis, bound: int) -> float:
    """_DET_SLACK * N^(2n), N = _box_norm(basis, bound): the bound on every
    box codeword's |est - LAPACK| in _min_abs_det_sq."""
    return _DET_SLACK * _box_norm(basis, bound) ** (2 * basis.n_t)


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
    n, min_det = basis.n_t, _min_abs_det_sq(basis, det_search_bound)
    try:
        eta = min_det ** (2 * n) / prof.volume
    except OverflowError:
        eta = math.inf
    delta = min_det / prof.volume ** (1.0 / (2 * n))
    for name, value in (("min_det_est", min_det), ("delta", delta), ("eta", eta)):
        # a finite, nonzero min_det_est must give finite, nonzero figures
        if not math.isfinite(value) or value == 0 < min_det:
            raise ValueError(f"{name} is out of the float range at this scale of the weights")
    return replace(prof, min_det_est=min_det, delta=delta, eta=eta)


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
    if logdet / 2 > np.log(np.finfo(float).max):  # before np.exp, which would warn
        raise ValueError(f"the lattice volume, exp({logdet / 2:.6g}), overflows a float")
    volume = float(np.exp(logdet / 2))
    if volume < np.finfo(float).tiny:  # subnormal or 0: few or no digits left
        raise ValueError(f"the lattice volume, exp({logdet / 2:.6g}), underflows a float")
    return LatticeProfile(gram=gram, volume=volume)


def _ranks(mats: np.ndarray) -> np.ndarray:
    svals = np.linalg.svd(mats, compute_uv=False)
    cutoff = RANK_TOL * svals.max(axis=1, keepdims=True)
    return (svals > cutoff).sum(axis=1)


def _least_rank(mats: np.ndarray) -> int:
    """The least _ranks value over a stack."""
    return int(_ranks(mats).min())


def _min_rank_of_block(mats: np.ndarray, limit: float) -> int:
    """Minimum rank across a stack of matrices.

    Fast path for square stacks: a clearly nonzero determinant certifies
    full rank; only the near-singular members go through the SVD.  A row
    with |det X| > limit passes without its norm; limit is at least every
    row's own bound below (_min_rank_sweep), so the rest take that bound
    and exactly its rows reach the SVD.

    |det X| > 1e-6 scale^n, scale^2 = ||X||_F^2 / n, certifies at every
    side: AM-GM over the other n - 1 singular values gives sigma_min /
    sigma_max > 1e-6 (n - 1)^((n-1)/2) / n^(n/2), about 0.6e-6 / sqrt(n)
    (1.8e-7 at n = 12, mimo_relay), far above RANK_TOL.
    """
    side = mats.shape[-1]
    if mats.shape[-2] != side:
        return _least_rank(mats)
    dets = np.abs(_det(mats))
    near = dets <= limit
    if not near.any():
        return side
    mats, dets = mats[near], dets[near]
    scale = np.sqrt(_fro_sq(mats) / side) + 1e-300
    # <=, not <: for a zero codeword both sides underflow to 0
    suspicious = dets <= 1e-6 * scale**side
    if not suspicious.any():
        return side
    return _least_rank(mats[suspicious])


def min_rank_difference(basis: WeightBasis, search_bound: int = 1) -> int:
    """Smallest rank of sum z_i B_i over nonzero integer z, ||z||_inf bounded.

    Exact over the enumerated box.  A result equal to min(n_t, T) certifies
    full diversity within the box.
    """
    if basis.n_t == basis.T <= _SPLIT_SIDES:
        return _min_rank_split(basis, search_bound)
    blocks = _coefficient_box(basis.k, search_bound, _block_rows(basis))
    return _min_rank_sweep(basis, blocks, search_bound, _EMPTY_BOX)


def _rank_floor(basis: WeightBasis) -> int:
    """The least rank a codeword of nonzero z can have: 0 if the weights are
    dependent, else 1; a search that reaches it ends."""
    return 1 if basis.rank == basis.k else 0


def _min_rank_sweep(basis: WeightBasis, blocks, bound: int, empty: str) -> int:
    """The least rank over the blocks' codewords, rows of the box
    ||z||_inf <= bound, ending at _rank_floor; _sweep raises
    ValueError(empty) if there is no block."""
    # A square codeword X with |det X| above limit passes the per-row test
    # of _min_rank_of_block.  Derivation, with N = _box_norm(basis, bound):
    #  - ||X||_F <= N for every codeword of the box, with a margin of 1e-9
    #    relative for the rounding of the codewords and their norms;
    #  - so a row's scale sqrt(||X||_F^2 / n) + 1e-300, as computed, is at
    #    most N / sqrt(n) + 1e-300, and its bound 1e-6 scale^n at most limit
    #    = 1e-6 (N / sqrt(n) + 1e-300)^n: the power is monotone, and its few
    #    ulps of rounding are far inside the margin.  An infinite limit
    #    sends every row to the per-row test.
    side = basis.T
    with np.errstate(over="ignore"):
        limit = 1e-6 * (np.float64(_box_norm(basis, bound)) / math.sqrt(side) + 1e-300) ** side
    reduce = functools.partial(_min_rank_of_block, limit=limit)
    return _sweep(basis, blocks, reduce, min(basis.n_t, basis.T), _rank_floor(basis), empty)


def _min_rank_split(basis: WeightBasis, bound: int) -> int:
    """min_rank_difference over the box by _split_box, side n <= 4: rows
    whose est = |det|^2 is not above limit go to _ranks, _block_rows(basis)
    at a time, and the sweep ends at _rank_floor."""
    # Rows above the limit have full rank, as _ranks finds it.  Derivation,
    # with N = _box_norm(basis, bound):
    #  - sigma_max(X) <= ||X||_F <= N for X from any _codewords product, so
    #    |det X| <= sigma_min N^(n-1);
    #  - the split's |det| lies within (128 + 211) u N^n < _SPLIT_ERR N^n / 2
    #    of det X (_SPLIT_ERR's first two terms), so one above (2 RANK_TOL +
    #    _SPLIT_ERR) N^n gives sigma_min > 2 RANK_TOL N >= 2 RANK_TOL sigma_max;
    #  - the SVD's rounding, some 1e-15 sigma_max, and est's few ulps fit in
    #    the factor 2 and in _SPLIT_ERR's slack.  A non-finite est is kept.
    limit = ((2 * RANK_TOL + _SPLIT_ERR) * _box_norm(basis, bound) ** basis.n_t) ** 2
    floor, best, rows = _rank_floor(basis), basis.n_t, _block_rows(basis)
    for z_hi, z_lo, est in _split_box(basis, bound):
        near = _kept_rows(z_hi, z_lo, est, limit)
        for at in range(0, len(near), rows):
            best = min(best, _least_rank(_codewords(basis.mats, near[at : at + rows])))
            if best <= floor:
                return best
    return best


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
    hold the rows of one whole draw.

    A row is zero where its sum of squares is, one pass along the block:
    the int64 sum, which wraps modulo 2^64, is 0 only at z = 0 while
    k bound^2 < 2^64.  Larger bounds test each entry."""
    rng = np.random.default_rng(seed)
    squares = k * bound * bound < 2**64
    for lo in range(0, n_random, rows):
        z = rng.integers(-bound, bound + 1, size=(min(rows, n_random - lo), k))
        nonzero = np.einsum("ij,ij->i", z, z) != 0 if squares else np.any(z, axis=1)
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
    empty = _EMPTY_BOX
    if search_bound and n_random:  # then only zero draws leave no row
        empty = f"no coefficient vector to search: each of the {n_random} draws was the zero vector"
    return _min_rank_sweep(basis, blocks, search_bound, empty)
