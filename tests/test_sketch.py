import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import hadamard

from sketchls import (
    DimensionError,
    LSProblem,
    SketchedProblem,
    SketchSpec,
    fwht,
    identity_sketch,
    make_sketch,
    sketch_flops_estimate,
)
from sketchls import sketch
from sketchls.sketch import _BLOCK_BYTES, KINDS, _spec_rng, next_pow_two


def count_thread_starts(monkeypatch) -> list:
    """The threads started from now on, in a list that grows as they start."""
    starts, start = [], threading.Thread.start

    def counted(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


def scatter_add(op, X, lo, hi):
    """Phi X over rows lo:hi of X as an in-order scatter-add of its signed rows."""
    out = np.zeros((op.matrix.shape[0],) + X.shape[1:])
    signs = op.matrix.data[lo:hi].reshape((-1,) + (1,) * (X.ndim - 1))
    np.add.at(out, op.matrix.indices[lo:hi], signs * X[lo:hi])
    return out


def butterfly_reference(X):
    """The transform stage by stage: stage h maps each pair (x, y) of rows
    h apart within blocks of 2h rows to (x + y, x - y)."""
    n = X.shape[0]
    a = np.array(X, dtype=float).reshape(n, -1)
    h = 1
    while h < n:
        pairs = a.reshape(n // (2 * h), 2, h, -1)
        a = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1)
        h *= 2
    return a.reshape(X.shape)


class TestSketchSpec:
    def test_round_trips_through_json(self):
        spec = SketchSpec(kind="ros", m=10, M=100, seed=7)
        assert SketchSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "fourier", "m": 2, "M": 4, "seed": 0},
            {"kind": "gaussian", "m": 0, "M": 4, "seed": 0},
            {"kind": "gaussian", "m": 5, "M": 4, "seed": 0},
            {"kind": "gaussian", "m": 2, "M": 4, "seed": -1},
            {"kind": "ros", "m": 2, "M": 4, "seed": 1.5},
            {"kind": "ros", "m": True, "M": 4, "seed": 0},
            {"kind": "ros", "m": "2", "M": 4, "seed": 0},
            {"kind": "ros", "m": 2, "M": 4.0, "seed": 0},
            {"kind": "ros", "m": 1, "M": np.True_, "seed": 0},
            {"kind": "ros", "m": 2, "M": 4, "seed": np.float64(1.0)},
            {"kind": "ros", "m": 2, "M": 4, "seed": None},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SketchSpec(**kwargs)

    def test_takes_numpy_integers_as_int(self):
        spec = SketchSpec(kind="ros", m=np.int64(3), M=np.int32(8), seed=np.uint8(1))
        assert spec == SketchSpec(kind="ros", m=3, M=8, seed=1)
        assert all(type(v) is int for v in (spec.m, spec.M, spec.seed))
        assert SketchSpec.from_json(spec.to_json()) == spec
        with pytest.raises(ValueError):
            SketchSpec.from_json('{"kind": "ros", "m": 3, "M": 8, "seed": 1.5}')


class TestFwht:
    @pytest.mark.parametrize("n", [1, 2, 4, 32, 128])
    def test_matches_dense_hadamard(self, n):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 3))
        assert_allclose(fwht(X), hadamard(n) @ X, atol=1e-10)

    def test_vector_input(self):
        v = np.arange(8.0)
        assert_allclose(fwht(v), hadamard(8) @ v, atol=1e-12)

    def test_involution_up_to_scale(self):
        v = np.random.default_rng(0).standard_normal(16)
        assert_allclose(fwht(fwht(v)), 16 * v, atol=1e-10)

    @pytest.mark.parametrize(
        "shape",
        [
            (2**12, 64),  # 2,048-row blocks: both phases run
            (32, _BLOCK_BYTES // 32),  # 4-row blocks: phase 2 runs in blocks too
            (4, _BLOCK_BYTES // 8 + 1),  # one row is wider than a block
            (2**15,),
        ],
    )
    def test_bit_identical_to_stage_by_stage(self, shape):
        X = np.random.default_rng(1).standard_normal(shape)
        out = fwht(X)
        assert out.shape == X.shape
        assert out.tobytes() == butterfly_reference(X).tobytes()

    @pytest.mark.parametrize("shape", [(2**10, 256), (32, _BLOCK_BYTES // 32)])
    def test_matches_dense_hadamard_across_blocks(self, shape):
        X = np.random.default_rng(2).standard_normal(shape)
        atol = 1e-12 * np.abs(X).sum(axis=0).max()
        assert_allclose(fwht(X), hadamard(shape[0]) @ X, rtol=1e-12, atol=atol)

    def test_leaves_input_unchanged(self):
        rng = np.random.default_rng(3)
        for X in (rng.standard_normal(64), np.asfortranarray(rng.standard_normal((2**12, 64)))):
            before = X.copy(order="A")
            out = fwht(X)
            assert X.tobytes(order="A") == before.tobytes(order="A")
            assert X.flags.f_contiguous == before.flags.f_contiguous
            assert out.tobytes() == butterfly_reference(before).tobytes()

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DimensionError):
            fwht(np.ones(6))

    def test_rejects_a_scalar(self):
        with pytest.raises(DimensionError):
            fwht(np.float64(1.0))

    def test_next_pow_two(self):
        assert [next_pow_two(n) for n in (1, 2, 3, 100, 128)] == [1, 2, 4, 128, 128]


class TestApply:
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_maps_to_zero(self, kind):
        op = make_sketch(SketchSpec(kind=kind, m=4, M=10, seed=1))
        assert_allclose(op.apply(np.zeros((10, 3))), 0.0, atol=0.0)

    def test_count_apply_is_an_ordered_scatter_add(self):
        # each output row sums its signed input rows in input order, so the
        # product is bit-identical to an in-order scatter-add, for matrices,
        # vectors and Fortran-ordered input alike
        rng = np.random.default_rng(4)
        M, m = 500, 23
        op = make_sketch(SketchSpec(kind="count", m=m, M=M, seed=9))
        rows, signs = op.matrix.indices, op.matrix.data
        for X in (rng.standard_normal((M, 5)), rng.standard_normal(M),
                  np.asfortranarray(rng.standard_normal((M, 3)))):
            expected = np.zeros((m,) + X.shape[1:])
            np.add.at(expected, rows, signs.reshape((M,) + (1,) * (X.ndim - 1)) * X)
            assert op.apply(X).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("M", [4097, 5097])
    def test_count_apply_is_a_two_half_scatter_add(self, monkeypatch, M):
        # a 16-row budget gives 512-row blocks (the _PASS_ROWS floor), 9 or
        # 10 of them; the worker takes the first 4 or 5, and each half is an
        # in-order scatter-add, P their sum. q rides on A's blocks.
        monkeypatch.setattr(sketch, "_BLOCK_BYTES", 16 * 8 * 64)
        rng = np.random.default_rng(M)
        A, b = rng.standard_normal((M, 64)), rng.standard_normal(M)
        op = make_sketch(SketchSpec(kind="count", m=200, M=M, seed=3))
        split = -(-M // 512) // 2 * 512
        sp = SketchedProblem.from_problem(LSProblem(A=A, b=b), op)
        for X, out in ((A, sp.P), (b, sp.q)):
            expected = scatter_add(op, X, split, M) + scatter_add(op, X, 0, split)
            assert out.tobytes() == expected.tobytes()
        assert op.apply(A).tobytes() == sp.P.tobytes()

    def test_count_apply_starts_one_worker_and_leaves_none(self, monkeypatch):
        # at 64 columns 3,000 rows are three 1,024-row blocks; a vector of
        # them is one block, and so is any input of under 512 rows
        op = make_sketch(SketchSpec(kind="count", m=50, M=3000, seed=1))
        X = np.ones((3000, 64))
        problem = LSProblem(A=np.eye(3000, 64) + X, b=np.ones(3000))
        starts = count_thread_starts(monkeypatch)
        op.apply(np.ones(3000))
        make_sketch(SketchSpec(kind="count", m=50, M=500, seed=1)).apply(np.ones((500, 64)))
        assert starts == []
        op.apply(X)
        assert len(starts) == 1
        SketchedProblem.from_problem(problem, op)
        assert len(starts) == 2

        before = threading.active_count()
        caller, matvecs = threading.current_thread(), sketch.csc_matvecs

        def fail_in_worker(*args):
            if threading.current_thread() is not caller:
                raise RuntimeError("stop in the worker's half")
            matvecs(*args)

        monkeypatch.setattr(sketch, "csc_matvecs", fail_in_worker)
        with pytest.raises(RuntimeError, match="worker's half"):
            op.apply(X)
        assert threading.active_count() == before

    def test_identity_helper(self):
        op = identity_sketch(5)
        X = np.random.default_rng(0).standard_normal((5, 2))
        assert np.array_equal(op.apply(X), X)

    @pytest.mark.parametrize("kind", KINDS + (None,))
    def test_spec_realizes_the_operator(self, kind):
        # an operator either has no spec or is exactly what its spec realizes
        op = identity_sketch(6) if kind is None else make_sketch(SketchSpec(kind, 4, 6, 3))
        assert op.spec is None or (
            make_sketch(op.spec).materialize().tobytes() == op.materialize().tobytes()
        )
        assert op.materialize().shape == ((6, 6) if kind is None else (4, 6))

    def test_gaussian_norm_is_unbiased(self):
        # Monte-Carlo estimate of E ||Phi v||^2 = 1 over many seeds
        M, m = 64, 32
        v = np.zeros(M)
        v[5] = 0.6
        v[40] = 0.8
        acc = 0.0
        for seed in range(1000):
            op = make_sketch(SketchSpec(kind="gaussian", m=m, M=M, seed=seed))
            acc += np.linalg.norm(op.apply(v)) ** 2
        assert 0.95 <= acc / 1000 <= 1.05

    @pytest.mark.parametrize("kind", KINDS)
    def test_linear_in_input(self, kind):
        rng = np.random.default_rng(2)
        op = make_sketch(SketchSpec(kind=kind, m=6, M=20, seed=3))
        X, Y = rng.standard_normal((20, 4)), rng.standard_normal((20, 4))
        assert_allclose(op.apply(X + Y), op.apply(X) + op.apply(Y), atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_row_count_mismatch(self, kind):
        op = make_sketch(SketchSpec(kind=kind, m=4, M=10, seed=1))
        with pytest.raises(DimensionError):
            op.apply(np.ones((11, 2)))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("M", [8, 2**12 + 1, 2**20 + 3])
    def test_zero_columns(self, kind, M):
        op = make_sketch(SketchSpec(kind=kind, m=3, M=M, seed=0))
        assert op.apply(np.ones((M, 0))).shape == (3, 0)
        with pytest.raises(DimensionError):
            fwht(np.ones(0))

    @pytest.mark.parametrize("kind", KINDS)
    def test_deterministic_given_spec(self, kind):
        spec = SketchSpec(kind=kind, m=7, M=33, seed=123)
        X = np.random.default_rng(4).standard_normal((33, 5))
        out1 = make_sketch(spec).apply(X)
        out2 = make_sketch(spec).apply(X)
        assert np.array_equal(out1, out2)

    @pytest.mark.parametrize("kind", KINDS)
    def test_independent_of_column_blocking(self, kind):
        rng = np.random.default_rng(5)
        op = make_sketch(SketchSpec(kind=kind, m=9, M=40, seed=6))
        X = rng.standard_normal((40, 7))
        whole = op.apply(X)
        blocked = np.hstack([op.apply(X[:, :3]), op.apply(X[:, 3:])])
        assert_allclose(whole, blocked, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize(
        "M",
        [
            2**12,  # a power of two: no tail
            2**12 + 1,  # a one-row tail
            2**12 + 2**11 + 3,  # two levels of tail
            3,
        ],
    )
    @pytest.mark.parametrize("layout", ["vector", "matrix", "fortran"])
    def test_ros_apply_matches_padded_transform_bitwise(self, M, layout):
        # with 64 columns both phases of the blocked transform run; columns
        # of zeros of either sign check the sign of each exact zero
        rng = np.random.default_rng(M)
        op = make_sketch(SketchSpec(kind="ros", m=min(M, 300), M=M, seed=5))
        if layout == "vector":
            X = rng.standard_normal(M)
        else:
            X = rng.standard_normal((M, 64))
            X[:, 32:] = rng.choice([0.0, -0.0], size=(M, 32))
            if layout == "fortran":
                X = np.asfortranarray(X)
        padded = np.zeros((next_pow_two(M),) + X.shape[1:])
        padded[:M] = op.signs.reshape((M,) + (1,) * (X.ndim - 1)) * X
        expected = fwht(padded)[op.rows] / math.sqrt(op.spec.m)
        assert op.apply(X).tobytes() == expected.tobytes()

    def test_ros_apply_allocates_no_padded_buffer(self):
        # memory is predictable from (m, M, N): one M-row copy of the input
        # and bounded scratch, not the 2^13-row zero-padded buffer
        M, N = 2**12 + 1, 64
        op = make_sketch(SketchSpec(kind="ros", m=300, M=M, seed=0))
        X = np.random.default_rng(0).standard_normal((M, N))
        tracemalloc.start()
        try:
            op.apply(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * M * N * 8

    def test_ros_apply_splits_and_prunes_within_the_bound(self):
        # 8 blocks of 2,048 rows split between two threads, and the 300
        # kept rows' trees over them in 2 chunks of 150, one per thread,
        # whose leaves take 0.6 MB each
        M, N = 2**14, 64
        op = make_sketch(SketchSpec(kind="ros", m=300, M=M, seed=0))
        X = np.random.default_rng(0).standard_normal((M, N))
        tracemalloc.start()
        try:
            op.apply(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * M * N * 8

    # With the block budget patched to 16 rows of 64 columns, 64-column
    # inputs get cache blocks of B = 16 rows inside blocks of H = 256 or 512
    # rows, so the stages above B run, and the trees run in chunks of 2 kept
    # rows (16 blocks at 2^12 rows, 13 at 2^12 + 2^11 + 3) or 3 (9 blocks at
    # 2^12 + 1); at 2^12 + 1 and 2^12 + 2^11 + 3 rows the last block holds 1
    # or 4 rows, so lone tree nodes meet zero blocks and take their sign of zero.
    # Vectors get B = H = 1,024. With a budget of 1,024 rows, 64-column
    # inputs get B = H = 1,024 and vectors one block.
    @pytest.mark.parametrize("budget_rows", [16, 1024])
    @pytest.mark.parametrize("M", [2**12, 2**12 + 1, 2**12 + 2**11 + 3])
    @pytest.mark.parametrize("layout", ["vector", "matrix", "fortran"])
    def test_ros_apply_matches_butterflies_across_blocks(
        self, monkeypatch, budget_rows, M, layout
    ):
        monkeypatch.setattr(sketch, "_BLOCK_BYTES", budget_rows * 8 * 64)
        rng = np.random.default_rng(M + budget_rows)
        op = make_sketch(SketchSpec(kind="ros", m=200, M=M, seed=5))
        if layout == "vector":
            X = rng.standard_normal(M)
        else:
            X = rng.standard_normal((M, 64))
            X[:, 32:] = rng.choice([0.0, -0.0], size=(M, 32))
            if layout == "fortran":
                X = np.asfortranarray(X)
        padded = np.zeros((next_pow_two(M),) + X.shape[1:])
        padded[:M] = op.signs.reshape((M,) + (1,) * (X.ndim - 1)) * X
        expected = butterfly_reference(padded)[op.rows] / math.sqrt(op.spec.m)
        assert op.apply(X).tobytes() == expected.tobytes()

    def test_ros_apply_each_holds_one_signed_copy(self):
        # A and b side by side in one M-row array, not a copy of each
        M, N = 2**14, 64
        op = make_sketch(SketchSpec(kind="ros", m=300, M=M, seed=0))
        rng = np.random.default_rng(0)
        A, b = rng.standard_normal((M, N)), rng.standard_normal(M)
        tracemalloc.start()
        try:
            op._pass(A, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * M * (N + 1) * 8

    def test_ros_apply_each_starts_two_workers(self, monkeypatch):
        # one for the flips and block transforms of A and b, one for the trees
        M = 2**14
        op = make_sketch(SketchSpec(kind="ros", m=300, M=M, seed=1))
        assert sketch._ros_blocks(300, M, 65)[1] > 1
        starts = count_thread_starts(monkeypatch)
        op._pass(np.ones((M, 64)), np.ones(M))
        assert len(starts) == 2

    def test_one_block_starts_no_thread(self, monkeypatch):
        # a split of fewer than two items runs in the caller
        op = make_sketch(SketchSpec(kind="ros", m=9, M=40, seed=2))
        assert sketch._ros_blocks(9, 40, 6)[1] == 1
        starts = count_thread_starts(monkeypatch)
        fwht(np.ones((8, 1)))
        op._pass(np.ones((40, 5)), np.ones(40))
        assert starts == []

    def test_ros_apply_leaves_no_thread(self, monkeypatch):
        M = 2**14
        op = make_sketch(SketchSpec(kind="ros", m=300, M=M, seed=1))
        X = np.ones((M, 64))
        before = threading.active_count()
        op.apply(X)
        assert threading.active_count() == before
        with pytest.raises(DimensionError):
            op.apply(np.ones((M + 1, 2)))
        assert threading.active_count() == before

        caller = threading.current_thread()
        butterflies = sketch._butterflies

        def fail_in_worker(a, t, h=1):
            if threading.current_thread() is not caller:
                raise RuntimeError("stop in the worker's share")
            butterflies(a, t, h)

        monkeypatch.setattr(sketch, "_butterflies", fail_in_worker)
        with pytest.raises(RuntimeError, match="worker's share"):
            op.apply(X)
        assert threading.active_count() == before

    # Neither a small ufunc buffer nor the tree chunk moves a bit: numpy's
    # default buffer, and chunks of 1 and of ceil(m / 2) kept rows, give the
    # same P, q, c, apply and fwht as the padded stage-by-stage butterfly.
    # At these M the matrices' last block holds 1 row, whose tree nodes meet
    # zero blocks, or 3 rows padded to 4; the vectors make one block of
    # 8,192 rows, zero-padded from M.
    @pytest.mark.parametrize(
        "patch",
        [
            {},
            {"_UFUNC_BUFSIZE": 8192},  # numpy's default
            {"_tree_rows": lambda m, blocks, w: 1},
            {"_tree_rows": lambda m, blocks, w: -(-m // 2)},
        ],
        ids=["as-is", "default-buffer", "chunk-1", "chunk-half"],
    )
    @pytest.mark.parametrize("M", [2**12 + 1, 2**12 + 2**11 + 3])
    @pytest.mark.parametrize("layout", ["vector", "matrix", "fortran"])
    def test_ros_speedups_move_no_bit(self, monkeypatch, patch, M, layout):
        rng = np.random.default_rng(M)
        op = make_sketch(SketchSpec(kind="ros", m=200, M=M, seed=5))
        n = next_pow_two(M)
        Z = rng.standard_normal((n, 64))
        Z[:, 32:] = rng.choice([0.0, -0.0], size=(n, 32))
        Z = {"vector": Z[:, 0], "matrix": Z, "fortran": np.asfortranarray(Z)}[layout]
        X, b = Z[:M], rng.choice([1.0, 0.0, -0.0], size=M)
        padded = np.zeros_like(Z, order="C")
        padded[:M] = op.signs.reshape((M,) + (1,) * (X.ndim - 1)) * X

        def kept(Y):
            return (butterfly_reference(Y)[op.rows] / math.sqrt(op.spec.m)).tobytes()

        for name, value in patch.items():
            monkeypatch.setattr(sketch, name, value)
        P, q, c = op._pass(X, b)
        assert P.tobytes() == op.apply(X).tobytes() == kept(padded)
        assert q.tobytes() == kept(np.concatenate([op.signs * b, np.zeros(n - M)]))
        assert c.tobytes() == (X.T @ b).tobytes()
        assert fwht(Z).tobytes() == butterfly_reference(Z).tobytes()

    @pytest.mark.parametrize("fail_in", [None, "worker", "caller"])
    def test_ros_puts_back_each_threads_ufunc_buffer(self, monkeypatch, fail_in):
        # each half of a split runs with the small buffer and then has its
        # thread's own size again, also when a half raises
        M = 2**14
        op = make_sketch(SketchSpec(kind="ros", m=300, M=M, seed=1))
        X = np.ones((M, 64))
        caller = threading.current_thread()
        during, after = set(), set()  # (in the caller, numpy's buffer size)
        butterflies, halves = sketch._butterflies, sketch._halves

        def watched_butterflies(a, t, h=1):
            in_caller = threading.current_thread() is caller
            during.add((in_caller, np.getbufsize()))
            if fail_in == ("caller" if in_caller else "worker"):
                raise RuntimeError("stop in one half")
            butterflies(a, t, h)

        def watched_halves(work, items):
            def run(part):
                try:
                    return work(part)
                finally:
                    after.add((threading.current_thread() is caller, np.getbufsize()))

            return halves(run, items)

        monkeypatch.setattr(sketch, "_butterflies", watched_butterflies)
        monkeypatch.setattr(sketch, "_halves", watched_halves)
        old = np.setbufsize(4096)
        try:
            if fail_in is None:
                op.apply(X)
                op._pass(X, np.ones(M))
                fwht(X)
            else:
                with pytest.raises(RuntimeError, match="one half"):
                    op.apply(X)
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(old)
        small = sketch._UFUNC_BUFSIZE
        assert during == {(True, small), (False, small)}
        assert after == {(True, 4096), (False, 8192)}  # a worker starts at numpy's default

    # 3 blocks, the last of 18 rows; one block; budgets of 1 and 2 rows
    # (4-row blocks, the last of 6 rows); and at the real budget one 32-row
    # block plus one row, which drawn and multiplied apart went to gemv and
    # changed its bits. Blocks as small as the patched budgets make are GEMMs
    # small enough for OpenBLAS's small-matrix kernels, which at width 8
    # change the last bits; no block of the real budget is that small.
    @pytest.mark.parametrize(
        "m, M, budget_rows",
        [(50, 3000, 16), (50, 3000, None), (50, 3000, 1), (50, 3000, 2), (33, 100_000, None)],
    )
    @pytest.mark.parametrize("layout", ["vector", "matrix", "fortran"])
    def test_gaussian_apply_matches_dense_product_bitwise(
        self, monkeypatch, m, M, budget_rows, layout
    ):
        if budget_rows is not None:
            monkeypatch.setattr(sketch, "_GAUSSIAN_BLOCK_BYTES", budget_rows * 8 * M)
        spec = SketchSpec(kind="gaussian", m=m, M=M, seed=4)
        phi = _spec_rng(spec).standard_normal((m, M)) / math.sqrt(m)
        rng = np.random.default_rng(8)
        X = rng.standard_normal(M) if layout == "vector" else rng.standard_normal((M, 6))
        if layout == "fortran":
            X = np.asfortranarray(X)
        b = rng.standard_normal(M)
        op = make_sketch(spec)
        assert op.matrix is None
        assert op.apply(X).tobytes() == (phi @ X).tobytes()
        P, q, _ = op._pass(X, b)
        assert P.tobytes() == (phi @ X).tobytes() and q.tobytes() == (phi @ b).tobytes()

    # The pass from_problem takes, given b, against apply on each input.
    # Beyond one 40-row block: the shapes and patched budgets of
    # test_ros_apply_matches_butterflies_across_blocks, where ros gets other
    # blocks for A and b side by side than for each alone. A held Phi forms
    # Phi b on A's blocks, so only its P is apply's, bit for bit.
    @pytest.mark.parametrize("kind", KINDS + (None,))
    def test_apply_each_is_apply_on_each(self, monkeypatch, kind):
        rng = np.random.default_rng(9)
        cases = [(None, 40, 9, "matrix")] + [
            (budget_rows, M, 200, layout)
            for budget_rows in (16, 1024)
            for M in (2**12, 2**12 + 1, 2**12 + 2**11 + 3)
            for layout in ("matrix", "fortran")
        ]
        for budget_rows, M, m, layout in cases:
            if budget_rows is not None:
                monkeypatch.setattr(sketch, "_BLOCK_BYTES", budget_rows * 8 * 64)
            op = identity_sketch(M) if kind is None else make_sketch(SketchSpec(kind, m, M, 2))
            A, b = rng.standard_normal((M, 64 if budget_rows else 5)), rng.standard_normal(M)
            if budget_rows is not None:
                A[:, 32:] = rng.choice([0.0, -0.0], size=(M, 32))
            if layout == "fortran":
                A = np.asfortranarray(A)
            P, q, c = op._pass(A, b)
            assert P.tobytes() == op.apply(A).tobytes()
            if op.matrix is None:
                assert q.tobytes() == op.apply(b).tobytes() and c.tobytes() == (A.T @ b).tobytes()
            else:
                assert np.allclose(q, op.apply(b), rtol=0, atol=1e-12 * np.linalg.norm(b))
                assert np.allclose(c, A.T @ b, rtol=0, atol=1e-12 * np.linalg.norm(A.T @ b))
            assert P.flags.c_contiguous and q.flags.c_contiguous

    def test_gaussian_apply_holds_two_blocks_not_phi(self, monkeypatch):
        # memory is predictable from (m, M, N): two row blocks of Phi and the
        # output, not the m x M matrix
        monkeypatch.setattr(sketch, "_GAUSSIAN_BLOCK_BYTES", 1 << 20)
        m, M, N = 512, 20_000, 8
        X = np.random.default_rng(0).standard_normal((M, N))
        tracemalloc.start()
        try:
            make_sketch(SketchSpec(kind="gaussian", m=m, M=M, seed=0)).apply(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * m * M * 8

    def test_gaussian_block_is_not_overwritten_while_in_use(self, monkeypatch):
        # the worker draws the next block while the caller still reads this one
        monkeypatch.setattr(sketch, "_GAUSSIAN_BLOCK_BYTES", 8 * 8 * 2000)  # 8, 8 and 14 rows
        spec = SketchSpec(kind="gaussian", m=30, M=2000, seed=2)
        phi = _spec_rng(spec).standard_normal((30, 2000)) / math.sqrt(30)
        seen = []

        def use(rows, block):
            first = block.copy()
            time.sleep(0.01)  # far longer than drawing one block
            seen.append(first.tobytes() == block.tobytes() == phi[rows].tobytes())

        make_sketch(spec)._each_block(use)
        assert seen == [True] * 3

    def test_gaussian_apply_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(sketch, "_GAUSSIAN_BLOCK_BYTES", 4 * 8 * 500)  # 4-row blocks
        op = make_sketch(SketchSpec(kind="gaussian", m=30, M=500, seed=1))
        before = threading.active_count()
        op.apply(np.ones((500, 2)))
        assert threading.active_count() == before
        with pytest.raises(DimensionError):
            op.apply(np.ones((501, 2)))
        assert threading.active_count() == before

        def fail(rows, block):
            raise RuntimeError("stop mid-stream")

        with pytest.raises(RuntimeError):
            op._each_block(fail)  # an error between blocks still joins the worker
        assert threading.active_count() == before

    def test_vector_round_trip_shape(self):
        op = make_sketch(SketchSpec(kind="ros", m=3, M=10, seed=0))
        v = np.ones(10)
        assert op.apply(v).shape == (3,)


class TestDistributionalInvariants:
    @pytest.mark.parametrize("kind", KINDS)
    def test_gram_is_unbiased(self, kind):
        # small-sample version; the acceptance suite runs the full-size check
        M, m, reps = 16, 8, 400
        acc = np.zeros((M, M))
        for seed in range(reps):
            dense = make_sketch(SketchSpec(kind=kind, m=m, M=M, seed=seed)).materialize()
            acc += dense.T @ dense
        assert np.abs(acc / reps - np.eye(M)).max() <= 0.15

    def test_count_sketch_unit_diagonal(self):
        for seed in range(20):
            op = make_sketch(SketchSpec(kind="count", m=6, M=17, seed=seed))
            gram_diag = np.diag(op.materialize().T @ op.materialize())
            assert np.array_equal(gram_diag, np.ones(17))

    def test_ros_full_sampling_is_orthogonal(self):
        for M in (8, 64, 2**9):  # at 2^9 columns both phases of the transform run
            op = make_sketch(SketchSpec(kind="ros", m=M, M=M, seed=11))
            dense = op.materialize()
            assert np.abs(dense.T @ dense - np.eye(M)).max() <= 1e-10

    def test_count_sketch_with_empty_buckets(self):
        M = m = 40
        op = make_sketch(SketchSpec(kind="count", m=m, M=M, seed=0))
        assert len(np.unique(op.matrix.indices)) < m  # some bucket is empty
        dense = op.materialize()
        assert dense.shape == (m, M)
        assert np.array_equal(np.diag(dense.T @ dense), np.ones(M))
        X = np.random.default_rng(0).standard_normal((M, 3))
        assert op.apply(X).shape == (m, 3)
        assert_allclose(op.apply(X), dense @ X, atol=1e-12)

    def test_ros_padding_keeps_columns_unit_norm_in_expectation(self):
        # M strictly below the padded size exercises the zero-padding path
        M, m, reps = 5, 5, 600
        acc = np.zeros((M, M))
        for seed in range(reps):
            dense = make_sketch(SketchSpec(kind="ros", m=m, M=M, seed=seed)).materialize()
            acc += dense.T @ dense
        assert np.abs(acc / reps - np.eye(M)).max() <= 0.15


class TestFlopsEstimate:
    def test_gaussian_product(self):
        spec = SketchSpec(kind="gaussian", m=10, M=100, seed=0)
        assert sketch_flops_estimate(spec, N=5) == 5000

    def test_ros_padded_formula(self):
        # 100 rows of 2 columns fit one cache block, so H = 128: one block,
        # zero-padded from 100 to 128 rows, 7 stages on each row, and no
        # tree to combine blocks; 1,792 flops
        spec = SketchSpec(kind="ros", m=10, M=100, seed=0)
        assert sketch_flops_estimate(spec, N=2) == (128 * 7) * 2

    def test_ros_counts_only_kept_inner_indices(self):
        # 2^17 rows of 50 columns: cache blocks of 2,048 rows, and H = 2,048
        # since 200 kept rows x 64 blocks is below 2^17 rows; 11 stages on
        # every row, then 63 butterflies in each kept row's tree over the 64
        # blocks; 72,719,600 flops
        spec = SketchSpec(kind="ros", m=200, M=2**17, seed=0)
        assert sketch_flops_estimate(spec, N=50) == (2**17 * 11 + 200 * 63) * 50

    def test_count_uses_nnz(self):
        spec = SketchSpec(kind="count", m=10, M=100, seed=0)
        assert sketch_flops_estimate(spec, N=3, nnz=12345) == 12345
        with pytest.raises(ValueError):
            sketch_flops_estimate(spec, N=3)


def test_apply_cost_ordering():
    # loose machine-dependent check: count < ros < gaussian on a tall apply
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8192, 64))
    best = {}
    for kind in KINDS:
        times = []
        for seed in range(5):
            start = time.perf_counter()
            op = make_sketch(SketchSpec(kind=kind, m=640, M=8192, seed=seed))
            op.apply(X)
            times.append(time.perf_counter() - start)
        best[kind] = min(times)
    assert best["count"] < best["ros"] < best["gaussian"]
