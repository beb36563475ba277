"""Properties every sketch kind keeps, over small random shapes.

Each example draws a kind, 1 <= m <= M <= 70, a seed and up to three input
columns (0 columns means a vector). The runs are derandomized and keep no
example database.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from sketchls import SketchSpec, make_sketch
from sketchls.sketch import KINDS, _spec_rng, next_pow_two

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

    return spec, block(spec.M), block(spec.M)


def dense_phi(spec, op):
    """Phi built without ``apply``: ros from its sampled Hadamard rows and
    signs, gaussian and count from their generator drawn again in
    ``make_sketch``'s order."""
    m, M = spec.m, spec.M
    if spec.kind == "ros":
        return hadamard(next_pow_two(M))[op.rows][:, :M] * op.signs / math.sqrt(m)
    rng = _spec_rng(spec)
    if spec.kind == "gaussian":
        return rng.standard_normal((m, M)) / math.sqrt(m)
    rows = rng.integers(0, m, size=M)
    signs = rng.integers(0, 2, size=M) * 2.0 - 1.0
    phi = np.zeros((m, M))
    phi[rows, np.arange(M)] = signs
    return phi


@PROPERTY_SETTINGS
@given(sketch_cases())
def test_apply_matches_dense_phi(case):
    spec, X, _ = case
    op = make_sketch(spec)
    phi = dense_phi(spec, op)
    gap = np.linalg.norm(op.apply(X) - phi @ X)
    assert gap <= 1e-12 * np.linalg.norm(phi, 2) * np.linalg.norm(X)


@PROPERTY_SETTINGS
@given(sketch_cases(), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
def test_apply_is_linear(case, a, b):
    spec, X, Z = case
    op = make_sketch(spec)
    gap = np.linalg.norm(op.apply(a * X + b * Z) - (a * op.apply(X) + b * op.apply(Z)))
    phi_norm = np.linalg.norm(op.materialize(), 2)
    assert gap <= 1e-12 * phi_norm * (abs(a) * np.linalg.norm(X) + abs(b) * np.linalg.norm(Z))


@PROPERTY_SETTINGS
@given(sketch_cases())
def test_equal_specs_apply_byte_identically(case):
    spec, X, _ = case
    first, second = make_sketch(spec), make_sketch(SketchSpec.from_json(spec.to_json()))
    assert first.apply(X).tobytes() == second.apply(X).tobytes()
