"""Randomized compression operators with E[Phi^T Phi] = I.

Three families are provided:

* ``gaussian`` -- dense i.i.d. N(0, 1/m) entries, never held: an apply
  draws Phi again in row blocks and needs two blocks plus its outputs;
* ``ros`` -- randomized orthogonal system: sign flips, a normalized
  Walsh-Hadamard transform on the zero-padded power-of-two length, and
  uniform row subsampling without replacement, scaled so that
  E[Phi^T Phi] = I on the original coordinates, never formed as a matrix;
  apply never forms the padding either: it transforms the M rows in place,
  in power-of-two pieces and cache-sized blocks of rows, runs the stages
  above a block only for the sampled rows, combines only those, and is
  bit-identical to the plain stage-by-stage butterfly on the padded length;
  the caller and one worker thread share the work;
* ``count`` -- count sketch, one random +/-1 entry per column, held as a
  sparse CSC matrix and applied in O(nnz).

Randomness is drawn from a counter-based Philox generator keyed by
``(seed, kind)``; ``ros`` and ``count`` realize theirs at construction and
``gaussian`` draws the same numbers afresh on every apply, so applying any
operator is deterministic and safe to parallelize over column blocks.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .exceptions import DimensionError

KINDS = ("gaussian", "ros", "count")  # index = generator stream, so only append


@dataclass(frozen=True)
class SketchSpec:
    """Declarative description of a compression operator.

    Equal specs always realize bit-identical operators.
    """

    kind: str
    m: int
    M: int
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sketch kind {self.kind!r}; expected one of {KINDS}")
        if not (1 <= self.m <= self.M):
            raise ValueError(f"need 1 <= m <= M, got m={self.m}, M={self.M}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "m": self.m, "M": self.M, "seed": self.seed})

    @classmethod
    def from_json(cls, text: str) -> "SketchSpec":
        data = json.loads(text)
        return cls(kind=data["kind"], m=int(data["m"]), M=int(data["M"]), seed=int(data["seed"]))


def _spec_rng(spec: SketchSpec) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=int(spec.seed), spawn_key=(KINDS.index(spec.kind),))
    return np.random.Generator(np.random.Philox(seq))


def next_pow_two(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    return 1 << (n - 1).bit_length()


# bytes of one working block of the transform: small enough to stay in a
# per-core L2 cache, large enough that numpy's per-call cost is negligible
_BLOCK_BYTES = 1 << 20
# bytes of one block of Gaussian rows: drawing it far outlasts a thread handoff
_GAUSSIAN_BLOCK_BYTES = 32 << 20


def _block_rows(row_bytes: int, budget: int) -> int:
    """Largest power of two number of rows, at least 1, that fit ``budget``."""
    rows = max(1, budget // max(row_bytes, 1))
    return 1 << (rows.bit_length() - 1)


def _phase_rows(n: int, w: int) -> int:
    """Rows B of one phase-1 block of the transform of an (n, w) array: a
    power of two that fits a cache block, or n when the whole array fits
    one or a single row does not."""
    B = min(n, _block_rows(8 * w, _BLOCK_BYTES))
    return n if B == 1 else B


def _scratch(size: int) -> np.ndarray:
    """Scratch for ``_butterflies`` on ``size`` elements: half of them, so
    that each stage runs in one piece, but at most a quarter block."""
    return np.empty(max(1, min(size // 2, _BLOCK_BYTES // 32)))


def _halves(pool, work, items: range) -> None:
    """``work`` on the first half of ``items`` in the worker of the
    one-thread ``pool`` and on the rest in the caller, or on all of them in
    the caller when ``pool`` is None. An error on either side is raised."""
    if pool is None:
        work(items)
        return
    first = pool.submit(work, items[: len(items) // 2])
    work(items[len(items) // 2 :])
    first.result()


def _butterflies(a: np.ndarray, t: np.ndarray) -> None:
    """Every stage of the transform on the rows of a C-contiguous ``a``, in
    place: stage h replaces each pair (x, y) of rows h apart within blocks
    of 2h rows by (x + y, x - y). ``t`` is scratch, at least one element; a
    stage whose x half outgrows it runs in pieces of at most its size."""
    n, w = a.shape
    h = 1
    while h < n and w:
        pairs = a.reshape(n // (2 * h), 2, h * w)
        groups = max(1, t.size // (h * w))
        cols = min(h * w, t.size)
        for g in range(0, len(pairs), groups):
            for c in range(0, h * w, cols):
                piece = pairs[g : g + groups, :, c : c + cols]
                x, y = piece[:, 0], piece[:, 1]
                diff = t[: x.size].reshape(x.shape)
                np.subtract(x, y, out=diff)
                np.add(x, y, out=x)
                y[...] = diff
        h *= 2


def _fwht_inplace(
    a: np.ndarray, rows: np.ndarray | None = None, pool=None
) -> np.ndarray | None:
    """Unnormalized Walsh-Hadamard transform of the rows of a C-contiguous
    2-D ``a``, in place and in cache-sized blocks. Given ``rows``, returns
    those rows of the transform as a new array instead and leaves ``a`` as
    scratch.

    With B rows per block, H_n = (H_{n/B} (x) I_B)(I_{n/B} (x) H_B). Phase 1
    runs the stages h < B on each block of B contiguous rows. Phase 2 runs
    the stages h >= B, which mix only rows whose index has the same inner
    part r mod B: for a chunk of inner indices it copies those rows into a
    contiguous buffer, transforms it (recursively, so it too stays in
    blocks) and writes it back; given ``rows``, it runs only the inner
    indices of ``rows`` and writes row r // B of each straight into the
    output. The butterflies and their order are those of ``_butterflies`` on
    the whole array, so the result is bit-identical to it.

    With a one-thread ``pool``, the caller and its worker each take half of
    phase 1's blocks and of phase 2's chunks. Each thread's scratch stays
    within half a block, so the two together hold at most one block: a
    quarter block in phase 1, and in phase 2 a buffer of at most a third of
    a block and half as much again for its butterflies. Only when the rows
    of one inner index outgrow a third of a block does a thread hold those
    rows and half as much again. Recursive calls run on the calling thread
    only: a worker waiting on its own pool would wait forever.
    """
    n, w = a.shape
    B = _phase_rows(n, w)
    if B == n:
        _butterflies(a, _scratch(a.size))
        return None if rows is None else a[rows]

    def phase1(starts):
        t = _scratch(B * w)
        for start in starts:
            _butterflies(a[start : start + B], t)

    _halves(pool, phase1, range(0, n, B))
    outer = n // B
    blocks = a.reshape(outer, B, w)  # blocks[i, k] is row i B + k
    if rows is None:
        inner = np.arange(B)
    else:
        inner = np.unique(rows & (B - 1))
        pos = np.searchsorted(inner, rows & (B - 1))
        out = np.empty((len(rows), w))
    # 12 bytes per buffered element: 8 for it and 4 for butterfly scratch
    per = max(1, min(_BLOCK_BYTES // 2 // (12 * w * outer), -(-len(inner) // 2)))

    def phase2(starts):
        buf = np.empty(outer * per * w)
        for lo in starts:
            idx = inner[lo : lo + per]
            part = buf[: outer * len(idx) * w].reshape(outer, len(idx), w)
            np.take(blocks, idx, axis=1, out=part, mode="clip")
            _fwht_inplace(part.reshape(outer, -1))
            if rows is None:
                blocks[:, lo : lo + per] = part
            else:
                kept = np.flatnonzero((pos >= lo) & (pos < lo + per))
                out[kept] = part[rows[kept] // B, pos[kept] - lo]

    _halves(pool, phase2, range(0, len(inner), per))
    return None if rows is None else out


def _padded_rows(a: np.ndarray, rows: np.ndarray, pool=None) -> np.ndarray:
    """Rows ``rows`` (mod n) of H_n [a; 0], the transform of the C-contiguous
    2-D ``a`` zero-padded to n = next_pow_two(len(a)), without forming the
    padding. Overwrites ``a``; ``pool`` is passed on to ``_fwht_inplace``.

    With h = n/2 and a = [a1; a2], the stages below h transform a1 and
    [a2; 0] apart, and row j of H_h [a2; 0] is row j mod n2 of H_n2 [a2; 0],
    n2 = next_pow_two(len(a2)), since its stages from n2 on pair it only with
    zeros. That tail is found by the same rule, and the top stage gives row r
    as Y1[j] + Y2[j] for r < h and Y1[j] - Y2[j] otherwise, j = r mod h. Each
    kept row sees the butterflies of the padded transform, so the result is
    bit-identical to it.
    """
    n = next_pow_two(len(a))
    rows = rows & (n - 1)
    if n == len(a):
        return _fwht_inplace(a, rows, pool)
    h = n // 2
    j = rows & (h - 1)
    out = _fwht_inplace(a[:h], j, pool)
    tail = _padded_rows(a[h:], j, pool)
    # the padded stages n2 .. h/2 add a +0 partner to row j wherever its bit
    # is clear, which turns a -0.0 into +0.0; repeat that on the kept rows
    skipped = h - next_pow_two(len(a) - h)
    np.add(tail, 0.0, out=tail, where=((j & skipped) != skipped)[:, None])
    # Y1 - Y2 is Y1 + (-Y2) exactly
    np.negative(tail, out=tail, where=(rows >= h)[:, None])
    out += tail
    return out


def fwht(x: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis 0.

    The leading dimension must be a power of two. ``fwht(fwht(x)) == n * x``.
    Returns a new array; ``x`` is never changed.
    """
    out = np.array(x, dtype=float, order="C")
    n = out.shape[0]
    if n & (n - 1):
        raise DimensionError(f"length {n} is not a power of two")
    with ThreadPoolExecutor(1) as pool:
        _fwht_inplace(out.reshape(n, math.prod(out.shape[1:])), pool=pool)
    return out


class SketchOperator:
    """A realized compression matrix Phi, applied as a linear map.

    ``gaussian`` and ``ros`` keep ``matrix = None`` and apply Phi without
    holding it, so an apply's memory follows from (m, M, N). ``count`` and
    ``identity_sketch`` hold it in CSC form, one entry per column, so
    building it sorts nothing and applying it reads X row by row in order,
    adding each row into the small m-row output. CSR gathers the rows of X
    in random order instead, at a speed that moves with where X's pages land
    in memory. Each output row sums its terms in the same order either way,
    so the result is bit-identical.
    """

    def __init__(self, spec: SketchSpec | None, matrix):
        self.spec = spec  # None when no spec realizes this operator
        self.matrix = matrix

    def _check_rows(self, X, rows, name):
        X = np.asarray(X, dtype=float)
        if X.ndim not in (1, 2):
            raise DimensionError(f"{name} must be a vector or matrix")
        if X.shape[0] != rows:
            raise DimensionError(f"{name} has {X.shape[0]} rows, operator expects {rows}")
        return X

    def apply(self, X):
        X = self._check_rows(X, self.matrix.shape[1], "input")
        return self.matrix @ X

    def apply_each(self, *Xs) -> tuple:
        """Each ``self.apply(X)``, bit for bit; ``gaussian`` draws Phi once for all."""
        return tuple(self.apply(X) for X in Xs)

    def apply_transpose(self, Y):
        Y = self._check_rows(Y, self.matrix.shape[0], "input")
        return self.matrix.T @ Y

    def materialize(self) -> np.ndarray:
        """Dense m x M matrix of the operator (testing / small sizes only)."""
        return self.apply(np.eye(self.spec.M if self.matrix is None else self.matrix.shape[1]))


class RosSketch(SketchOperator):
    """Sign flips + normalized Walsh-Hadamard transform + row subsampling.

    Inputs are zero-padded to the next power of two; the combined scaling
    1/sqrt(m) makes E[Phi^T Phi] = I on the unpadded coordinates, and the
    full-sampling case m = M = M_pad gives an exactly orthogonal operator.
    Phi is never formed, and ``apply`` never forms the padding: it needs one
    M-row copy of its input, a few m-row arrays and scratch of one cache
    block, which it shares out between the calling thread and the one worker
    that each apply starts and joins.
    """

    def __init__(self, spec: SketchSpec, signs: np.ndarray, rows: np.ndarray):
        super().__init__(spec, matrix=None)
        self.signs = signs  # +/-1 per input coordinate, length M
        self.rows = rows  # sampled transform rows, length m, drawn from M_pad
        self.m_pad = next_pow_two(spec.M)

    def apply(self, X):
        X = self._check_rows(X, self.spec.M, "input")
        flat = X.ndim == 1
        Xm = X.reshape(self.spec.M, -1)
        signed = np.empty(Xm.shape)

        def flip(part):
            part = slice(part.start, part.stop)
            np.multiply(self.signs[part, None], Xm[part], out=signed[part])

        with ThreadPoolExecutor(1) as pool:
            _halves(pool, flip, range(self.spec.M))
            out = _padded_rows(signed, self.rows, pool)
        out /= math.sqrt(self.spec.m)
        return out.reshape(-1) if flat else out

    def apply_transpose(self, Y):
        Y = self._check_rows(Y, self.spec.m, "input")
        flat = Y.ndim == 1
        Ym = Y.reshape(self.spec.m, -1)
        scattered = np.zeros((self.m_pad, Ym.shape[1]))
        scattered[self.rows] = Ym
        with ThreadPoolExecutor(1) as pool:
            _fwht_inplace(scattered, pool=pool)
        out = self.signs[:, None] * scattered[: self.spec.M] / math.sqrt(self.spec.m)
        return out.reshape(-1) if flat else out


class GaussianSketch(SketchOperator):
    """Dense i.i.d. N(0, 1/m) entries, drawn again on every apply in row
    blocks, as one ``standard_normal((m, M))`` draws them."""

    def _each_block(self, use) -> None:
        """Call ``use(rows, Phi[rows])`` on each block in order while a worker
        thread draws the next one into the other buffer. Blocks start every
        ``step`` rows (a power of two that fits the budget, 4 to m) and the
        last one takes the rest: shorter blocks run other BLAS kernels (gemv,
        small-matrix), whose sums differ in the last bits from Phi @ X's."""
        m, M = self.spec.m, self.spec.M
        step = min(m, max(4, _block_rows(8 * M, _GAUSSIAN_BLOCK_BYTES)))
        bounds = [*range(0, m - step + 1, step), m]
        rng = _spec_rng(self.spec)
        buffers = np.empty((min(2, len(bounds) - 1), m - bounds[-2], M))

        def draw(k):
            block = buffers[k % 2][: bounds[k + 1] - bounds[k]]
            rng.standard_normal(out=block)
            block /= math.sqrt(m)
            return block

        with ThreadPoolExecutor(1) as pool:
            pending = pool.submit(draw, 0)
            for k in range(len(bounds) - 1):
                block = pending.result()
                if k + 2 < len(bounds):
                    pending = pool.submit(draw, k + 1)
                use(slice(bounds[k], bounds[k + 1]), block)

    def apply(self, X):
        return self.apply_each(X)[0]

    def apply_each(self, *Xs) -> tuple:
        Xs = [self._check_rows(X, self.spec.M, "input") for X in Xs]
        outs = tuple(np.empty((self.spec.m,) + X.shape[1:]) for X in Xs)

        def use(rows, block):
            for X, out in zip(Xs, outs):
                np.matmul(block, X, out=out[rows])

        self._each_block(use)
        return outs

    def apply_transpose(self, Y):
        Y = self._check_rows(Y, self.spec.m, "input")
        out = np.zeros((self.spec.M,) + Y.shape[1:])
        self._each_block(lambda rows, block: np.add(out, block.T @ Y[rows], out=out))
        return out


def _count_matrix(m: int, rows: np.ndarray, signs: np.ndarray) -> sparse.csc_matrix:
    """m-row CSC matrix whose column j holds ``signs[j]`` in row ``rows[j]``."""
    return sparse.csc_matrix((signs, rows, np.arange(len(rows) + 1)), shape=(m, len(rows)))


def make_sketch(spec: SketchSpec) -> SketchOperator:
    """Realize the operator described by ``spec``."""
    if spec.kind == "gaussian":
        return GaussianSketch(spec, matrix=None)
    rng = _spec_rng(spec)
    if spec.kind == "ros":
        signs = rng.integers(0, 2, size=spec.M) * 2.0 - 1.0
        rows = rng.choice(next_pow_two(spec.M), size=spec.m, replace=False)
        return RosSketch(spec, signs, rows)
    rows = rng.integers(0, spec.m, size=spec.M)
    signs = rng.integers(0, 2, size=spec.M) * 2.0 - 1.0
    return SketchOperator(spec, _count_matrix(spec.m, rows, signs))


def identity_sketch(M: int) -> SketchOperator:
    """The exact M x M identity, held like a count sketch. No spec realizes
    it, so its ``spec`` is None."""
    return SketchOperator(None, _count_matrix(M, np.arange(M), np.ones(M)))


def sketch_flops_estimate(spec: SketchSpec, N: int, nnz: int | None = None) -> float:
    """Rough flop count of applying the operator to an M x N matrix."""
    if spec.kind == "gaussian":
        return float(spec.m) * spec.M * N
    if spec.kind == "ros":
        # what RosSketch.apply runs on each power-of-two piece of n rows:
        # phase 1's log2 B stages on every row, phase 2's log2(n/B) stages on
        # the n/B rows of each of at most min(m, B) inner indices, and one
        # add per kept row to combine the piece with its tail
        def piece(n):
            B = _phase_rows(n, N)
            return n * math.log2(B) + min(spec.m, B) * (n // B) * math.log2(n // B)

        flops, rows = 0.0, spec.M
        while rows & (rows - 1):
            h = next_pow_two(rows) // 2
            flops += piece(h) + spec.m
            rows -= h
        return (flops + piece(rows)) * N
    if nnz is None:
        raise ValueError("count sketch estimate needs the nonzero count")
    return float(nnz)
