"""Randomized compression operators with E[Phi^T Phi] = I.

Three families are provided:

* ``gaussian`` -- dense i.i.d. N(0, 1/m) entries, never held: an apply
  draws Phi again in row blocks and needs two blocks plus its outputs;
* ``ros`` -- randomized orthogonal system: sign flips, a normalized
  Walsh-Hadamard transform on the zero-padded power-of-two length, and
  uniform row subsampling without replacement, scaled so that
  E[Phi^T Phi] = I on the original coordinates; neither Phi nor the
  padding is formed: one pass flips and transforms each block of the M
  rows of all inputs together, then each sampled row's rows of the blocks
  meet in one butterfly tree, bit-identical to the plain stage-by-stage
  butterfly on the padded length; the pass and the trees each split their
  work between the caller and one worker thread;
* ``count`` -- count sketch, one random +/-1 entry per column, held as a
  sparse CSC matrix and applied in O(nnz), in one pass over the input's
  row blocks on two threads (Clarkson & Woodruff 2013).

Randomness is drawn from a counter-based Philox generator keyed by
``(seed, kind)``; ``ros`` and ``count`` realize theirs at construction and
``gaussian`` draws the same numbers afresh on every apply, so applying any
operator is deterministic and safe to parallelize over column blocks.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.sparse._sparsetools import csc_matvecs

from .core import _BLOCK_BYTES, _PASS_ROWS, _halves, _pipelined
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
        for name in ("m", "M", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer as int, for to_json
        if not (1 <= self.m <= self.M and self.seed >= 0):
            raise ValueError(f"need 1 <= m <= M and seed >= 0, got {self}")

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "m": self.m, "M": self.M, "seed": self.seed})

    @classmethod
    def from_json(cls, text: str) -> "SketchSpec":
        data = json.loads(text)
        return cls(kind=data["kind"], m=data["m"], M=data["M"], seed=data["seed"])


def _spec_rng(spec: SketchSpec) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=int(spec.seed), spawn_key=(KINDS.index(spec.kind),))
    return np.random.Generator(np.random.Philox(seq))


def next_pow_two(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    return 1 << (n - 1).bit_length()


# bytes of one block of Gaussian rows: drawing it far outlasts a thread handoff
_GAUSSIAN_BLOCK_BYTES = 32 << 20


def _block_rows(row_bytes: int, budget: int) -> int:
    """Largest power of two number of rows, at least 1, that fit ``budget``."""
    rows = max(1, budget // max(row_bytes, 1))
    return 1 << (rows.bit_length() - 1)


def _ros_blocks(m: int, M: int, w: int) -> tuple[int, int, int]:
    """(H, blocks, last) of a ros apply on M rows of width w: H is the least
    power of two from a cache block's rows up at which the m kept rows' trees
    (m n / H leaves of w values, n = next_pow_two(M)) hold at most M rows; the
    ceil(M / H) blocks of H rows end in one zero-padded to ``last``, a power of two."""
    n = next_pow_two(M)
    H = min(n, _block_rows(8 * w, _BLOCK_BYTES))
    while H * M < m * n:
        H *= 2
    blocks = -(-M // H)
    return H, blocks, next_pow_two(M - (blocks - 1) * H)


# elements of numpy's ufunc buffer while a thread runs ros work: numpy copies a
# strided operand whose contiguous run is shorter than its buffer (8,192 by
# default) through that buffer, which made the butterfly stages with h w
# under about 3,000 take about twice as long as the higher ones; at 256 those
# copies are short. A multiple of 16, as numpy 1.x requires. Buffering moves
# no bit: ros runs elementwise ufuncs only.
_UFUNC_BUFSIZE = 256


@contextmanager
def _small_ufunc_buffer():
    """numpy's ufunc buffer at ``_UFUNC_BUFSIZE`` elements in this thread for
    the body, then the thread's own size again, even on an error. The size
    is per thread (a worker starts at numpy's default), so each half of a
    split sets it itself. Not ``np.errstate``: numpy 1.x's does not restore
    the buffer size."""
    old = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


def _tree_rows(m: int, blocks: int, w: int) -> int:
    """Kept rows per chunk of a ros apply's trees: a chunk gathers leaves of
    blocks x w values per row, and about two block budgets of them let each
    chunk's twenty-odd numpy calls carry data rather than call overhead. At
    most ceil(m / 2), so both halves of the split get work, or m when one
    block makes the trees a gather, which needs no worker."""
    per = 2 * _BLOCK_BYTES // max(1, 8 * blocks * w)
    return max(1, min(per, m if blocks == 1 else -(-m // 2)))


def _butterflies(a: np.ndarray, t: np.ndarray, h: int = 1) -> None:
    """The stages from h on of the transform on the rows of a C-contiguous
    ``a``, in place: stage h replaces each pair (x, y) of rows h apart within
    blocks of 2h rows by (x + y, x - y). ``t`` is scratch, at least one
    element; a stage whose x half outgrows it runs in pieces of at most its
    size."""
    n, w = a.shape
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


def _signed_blocks(signs: np.ndarray, Xs, H: int) -> np.ndarray:
    """``signs * X`` of the M-row 2-D inputs ``Xs`` side by side in one new
    C-contiguous array, its last block alone zero-padded to a power of two
    rows, with every stage below H of the transform run on each block of H
    rows. ``_halves`` gives the caller and its worker half of the blocks:
    each flips a block, then runs the stages below B, a cache block's rows,
    on each B rows and B .. H/2 on the block while it is in cache, with a
    small ufunc buffer (``_small_ufunc_buffer``). These are the butterflies
    of ``_butterflies`` on the whole array, bit for bit."""
    M, w = len(Xs[0]), sum(X.shape[1] for X in Xs)
    tail = (M - 1) // H * H  # the last block's first row
    out = np.empty((tail + next_pow_two(M - tail), w))
    B = min(H, _block_rows(8 * w, _BLOCK_BYTES))
    parts = np.split(out, np.cumsum([X.shape[1] for X in Xs])[:-1], axis=1)

    @_small_ufunc_buffer()
    def work(starts):
        t = np.empty(max(1, min(H * w // 2, _BLOCK_BYTES // 32)))
        for lo in starts:
            block, hi = out[lo : lo + H], min(lo + H, M)
            for X, part in zip(Xs, parts):
                np.multiply(signs[lo:hi, None], X[lo:hi], out=part[lo:hi])
            block[hi - lo :] = 0.0
            for sub in range(0, len(block), B):
                _butterflies(block[sub : sub + B], t)
            _butterflies(block, t, B)

    _halves(work, range(0, M, H))
    return out


def fwht(x: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis 0.

    The leading dimension must be a power of two. ``fwht(fwht(x)) == n * x``.
    Returns a new array; ``x`` is never changed.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        raise DimensionError("input must have at least one dimension")
    n = x.shape[0]
    if n < 1 or n & (n - 1):
        raise DimensionError(f"length {n} is not a power of two")
    # one block of n rows; multiplying by 1.0 is exact
    return _signed_blocks(np.ones(n), [x.reshape(n, math.prod(x.shape[1:]))], n).reshape(x.shape)


class SketchOperator:
    """A realized compression matrix Phi, applied as a linear map, forward
    only: the estimators need Phi A and Phi b, never Phi^T. Each kind
    implements one pass, ``_pass(X, b=None)``: ``(Phi X,)``, or
    ``(Phi X, Phi b, X^T b)`` given b, Phi X bit-identical either way.

    ``gaussian`` and ``ros`` keep ``matrix = None`` and apply Phi without
    holding it, so an apply's memory follows from (m, M, N). ``count`` and
    ``identity_sketch`` hold it in CSC form, one entry per column, so
    building it sorts nothing and Phi's block on input rows lo:hi is a slice
    of its arrays. Their pass adds the blocks with scipy's private
    ``csc_matvecs``, which adds into an existing output and releases the
    GIL (README gives the cost of the public routes). Beyond its m x w
    outputs it needs an m x w partial (M x w for ``identity_sketch``)
    and, for an input that is not C-contiguous, half a block budget of
    scratch per half.
    """

    def __init__(self, spec: SketchSpec | None, matrix):
        self.spec = spec  # None when no spec realizes this operator
        self.matrix = matrix
        self.M = matrix.shape[1] if spec is None else spec.M  # input rows

    def _check_rows(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim not in (1, 2):
            raise DimensionError("input must be a vector or matrix")
        if X.shape[0] != self.M:
            raise DimensionError(f"input has {X.shape[0]} rows, operator expects {self.M}")
        return X

    def apply(self, X):
        return self._pass(X)[0]

    def _pass(self, X, b=None) -> tuple:
        """One pass over X's row blocks (half a budget, at least
        ``_PASS_ROWS`` rows) split by ``_halves``: each half adds its blocks
        in order, and ``b_k @ X_k``, into outputs of its own, and the
        worker's are added to the caller's. The split depends on X's shape
        alone, and a block that is not C-contiguous is copied first, so
        neither b nor X's layout moves a bit."""
        X = self._check_rows(X)
        m, w = self.matrix.shape[0], math.prod(X.shape[1:])
        step = max(_PASS_ROWS, _BLOCK_BYTES // (16 * max(w, 1)))
        ptr = np.arange(step + 1, dtype=self.matrix.indices.dtype)

        def work(starts):
            if not starts:
                return ()
            outs = [np.zeros((m,) + X.shape[1:])]
            outs += [] if b is None else [np.zeros(m), np.zeros(w)]
            scratch = None if X.flags.c_contiguous else np.empty(step * w)
            for lo in starts:
                X_k = X[lo : lo + step]
                if not X_k.flags.c_contiguous:
                    X_k = scratch[: X_k.size].reshape(X_k.shape)
                    X_k[...] = X[lo : lo + step]
                n = len(X_k)
                phi_k = (ptr, self.matrix.indices[lo : lo + n], self.matrix.data[lo : lo + n])
                csc_matvecs(m, n, w, *phi_k, X_k, outs[0])
                if b is not None:
                    csc_matvecs(m, n, 1, *phi_k, b[lo : lo + n], outs[1])
                    outs[2] += b[lo : lo + n] @ X_k
            return outs

        first, last = _halves(work, range(0, self.M, step))
        for out, part in zip(last, first):
            out += part
        return tuple(last)

    def materialize(self) -> np.ndarray:
        """Dense m x M matrix of the operator (testing / small sizes only)."""
        return self.apply(np.eye(self.M))


class RosSketch(SketchOperator):
    """Sign flips + normalized Walsh-Hadamard transform + row subsampling.

    Inputs are zero-padded to the next power of two n; the combined scaling
    1/sqrt(m) makes E[Phi^T Phi] = I on the unpadded coordinates, and the
    full-sampling case m = M = n gives an exactly orthogonal operator.
    Phi is never formed, nor is the padding beyond the last block.

    With blocks of H rows (``_ros_blocks``), H_n = (H_{n/H} (x) I_H)
    (I_{n/H} (x) H_H). ``_pass`` flips the signs of X and b into the
    columns of one M-row array whose last block alone is zero-padded, to
    a power of two, and transforms each block (``_signed_blocks``). Kept row
    r = J H + k is then row J of H_{n/H} over the rows k of the blocks: a
    tree that adds or subtracts pairs of them, one level per bit of J, where
    a node with no partner meets a zero block. These are the butterflies of
    the plain stage-by-stage transform on the padded length that reach row
    r, so Phi X and Phi b are each bit-identical to it, with or without b.

    The trees run in chunks of kept rows (``_tree_rows``) whose leaves take
    about two block budgets per thread, and each thread runs its share of
    the transform and of the trees with a small ufunc buffer
    (``_small_ufunc_buffer``); neither moves a bit. It needs that array,
    under half a block of zero rows, transform scratch within the block
    budget, the leaves (at most about M rows, by the rule for H), its
    output and a copy of each input's columns of it.
    """

    def __init__(self, spec: SketchSpec, signs: np.ndarray, rows: np.ndarray):
        super().__init__(spec, matrix=None)
        self.signs = signs  # +/-1 per input coordinate, length M
        self.rows = rows  # sampled transform rows, length m, drawn from n

    def _pass(self, X, b=None) -> tuple:
        X = self._check_rows(X)
        Xs = [X] if b is None else [X, b]
        widths = [1 if Y.ndim == 1 else Y.shape[1] for Y in Xs]
        m, w = self.spec.m, sum(widths)
        H, blocks, last = _ros_blocks(m, self.M, w)
        signed = _signed_blocks(self.signs, [Y.reshape(len(Y), k) for Y, k in zip(Xs, widths)], H)
        per = _tree_rows(m, blocks, w)

        @_small_ufunc_buffer()
        def tree(starts):
            nodes = np.empty(blocks * per * w)
            for lo in starts:
                r = self.rows[lo : lo + per]
                # row r mod H of each block of H rows, and r mod last of the last
                idx = np.arange(blocks)[:, None] * H + (r & (H - 1))
                idx[-1] = (blocks - 1) * H + (r & (last - 1))
                leaves = nodes[: idx.size * w].reshape(blocks, len(r), w)
                np.take(signed, idx, axis=0, out=leaves, mode="clip")
                # add and subtract masked: numpy 2.4 in-place negative misreads strided views
                bit, count, step = last, blocks, 1  # a level's nodes: leaves[::step]
                while bit < H or count > 1:
                    clear = ((r & bit) == 0)[:, None]
                    if count % 2 or bit < H:
                        lone = leaves[(count - 1) * step]
                        np.add(lone, 0.0, out=lone, where=clear)
                    if bit >= H:
                        half = count // 2
                        x = leaves[0 : 2 * half * step : 2 * step]
                        y = leaves[step : 2 * half * step : 2 * step]
                        np.add(x, y, out=x, where=clear)
                        np.subtract(x, y, out=x, where=~clear)
                        count, step = count - half, 2 * step
                    bit *= 2
                np.divide(leaves[0], math.sqrt(m), out=out[lo : lo + per])

        out = np.empty((m, w))
        _halves(tree, range(0, m, per))
        parts = np.split(out, np.cumsum(widths)[:-1], axis=1)
        outs = tuple(np.ascontiguousarray(p).reshape((m,) + Y.shape[1:]) for Y, p in zip(Xs, parts))
        return outs if b is None else (*outs, X.T @ b)


class GaussianSketch(SketchOperator):
    """Dense i.i.d. N(0, 1/m) entries, drawn again on every apply in row
    blocks, as one ``standard_normal((m, M))`` draws them."""

    def _each_block(self, use) -> None:
        """Call ``use(rows, Phi[rows])`` on each block in order while a worker
        thread draws the next one into the other buffer (``_pipelined``, so
        BLAS is held at one thread meanwhile). Blocks start every
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
            return slice(bounds[k], bounds[k + 1]), block

        _pipelined(draw, lambda drawn: use(*drawn), range(len(bounds) - 1))

    def _pass(self, X, b=None) -> tuple:
        X = self._check_rows(X)
        Xs = [X] if b is None else [X, b]
        outs = tuple(np.empty((self.spec.m,) + Y.shape[1:]) for Y in Xs)

        def use(rows, block):
            for Y, out in zip(Xs, outs):
                np.matmul(block, Y, out=out[rows])

        self._each_block(use)
        return outs if b is None else (*outs, X.T @ b)


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
        # what RosSketch._pass runs on X: every stage below H on each block
        # of H rows, the last block's on its `last` rows, and the blocks - 1
        # butterflies of each kept row's tree
        H, blocks, last = _ros_blocks(spec.m, spec.M, N)
        tree = spec.m * (blocks - 1)
        return ((blocks - 1) * H * math.log2(H) + last * math.log2(last) + tree) * N
    if nnz is None:
        raise ValueError("count sketch estimate needs the nonzero count")
    return float(nnz)
