"""Properties every sketch kind keeps, over small random shapes.

Each example draws a kind, 1 <= m <= M <= 70, a seed and up to three input
columns (0 columns means a vector). The runs are derandomized and keep no
example database.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchls import SketchSpec, make_sketch
from sketchls.sketch import KINDS

PROPERTY_SETTINGS = settings(max_examples=60, deadline=500, derandomize=True, database=None)


@st.composite
def sketch_cases(draw):
    M = draw(st.integers(1, 70))
    spec = SketchSpec(
        kind=draw(st.sampled_from(KINDS)),
        m=draw(st.integers(1, M)),
        M=M,
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    k = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def block(rows):
        return rng.standard_normal((rows, k) if k else rows)

    return spec, block(spec.M), block(spec.M), block(spec.m)


@PROPERTY_SETTINGS
@given(sketch_cases())
def test_transpose_is_the_adjoint(case):
    spec, X, _, Y = case
    op = make_sketch(spec)
    lhs = float(np.sum(op.apply(X) * Y))
    rhs = float(np.sum(X * op.apply_transpose(Y)))
    phi_norm = np.linalg.norm(op.materialize(), 2)
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(X) * np.linalg.norm(Y) * phi_norm


@PROPERTY_SETTINGS
@given(sketch_cases(), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
def test_apply_is_linear(case, a, b):
    spec, X, Z, _ = case
    op = make_sketch(spec)
    gap = np.linalg.norm(op.apply(a * X + b * Z) - (a * op.apply(X) + b * op.apply(Z)))
    phi_norm = np.linalg.norm(op.materialize(), 2)
    assert gap <= 1e-12 * phi_norm * (abs(a) * np.linalg.norm(X) + abs(b) * np.linalg.norm(Z))


@PROPERTY_SETTINGS
@given(sketch_cases())
def test_equal_specs_apply_byte_identically(case):
    spec, X, _, Y = case
    first, second = make_sketch(spec), make_sketch(SketchSpec.from_json(spec.to_json()))
    assert first.apply(X).tobytes() == second.apply(X).tobytes()
    assert first.apply_transpose(Y).tobytes() == second.apply_transpose(Y).tobytes()
