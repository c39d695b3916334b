"""Shared hypothesis strategies for small shapes and their indices, and the
points [I | A] at which the oracle samples Grassmannian tangent spaces."""

from hypothesis import strategies as st

from grassdef import GrassShape, SegreVeroneseShape, enumerate_indices


@st.composite
def grass_shapes(draw, max_r: int = 3, max_n: int = 8):
    r = draw(st.integers(1, min(max_r, (max_n - 1) // 2)))
    n = draw(st.integers(2 * r + 1, max_n))
    return GrassShape(r, n)


@st.composite
def sv_shapes(draw, max_factors: int = 3, max_n: int = 3, max_d: int = 3):
    t = draw(st.integers(1, max_factors))
    ns = tuple(draw(st.integers(1, max_n)) for _ in range(t))
    ds = tuple(draw(st.integers(1, max_d)) for _ in range(t))
    return SegreVeroneseShape(ns, ds)


@st.composite
def shape_with_index(draw, shapes):
    shape = draw(shapes)
    index = draw(st.sampled_from(enumerate_indices(shape)))
    return shape, index


@st.composite
def shape_with_index_pair(draw, shapes):
    shape = draw(shapes)
    indices = enumerate_indices(shape)
    return shape, draw(st.sampled_from(indices)), draw(st.sampled_from(indices))


def full_point(shape, A):
    """The point [I | A] of the Pluecker map of the shape, flattened row by
    row, for the (r+1)(n-r) entries of A in the same order."""
    size, free = shape.r + 1, shape.n - shape.r
    return tuple(
        v
        for i in range(size)
        for v in [int(c == i) for c in range(size)] + list(A[i * free : (i + 1) * free])
    )
