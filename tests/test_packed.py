"""Property tests of the packed-integer kernels of ``snaction``: the slot
encoding the chart tables are built with, on random column tables, and
matrix products on them, with entries and column sums larger than the
chart's."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from springerrep import snaction

from bruteforce import chart_columns, column_product, encoded_tables, unpack_columns


@st.composite
def sparse_generators(draw, max_dim):
    """One to three square generators of one drawn dimension, as sparse
    columns of up to 3 entries with coefficients -3..3, sorted by row."""
    dim = draw(st.integers(1, max_dim))
    column = st.lists(st.tuples(st.integers(0, dim - 1), st.integers(-3, 3)),
                      max_size=3, unique_by=lambda entry: entry[0])
    return tuple(draw(st.lists(
        st.lists(column.map(lambda c: tuple(sorted(c))), min_size=dim, max_size=dim).map(tuple),
        min_size=1, max_size=3)))


@st.composite
def tables_and_words(draw):
    generators = draw(sparse_generators(4))
    word = draw(st.lists(st.integers(1, len(generators)), max_size=6))
    return generators, tuple(word)


# a 1 x 1 generator 2: its powers reach R^m exactly, the edge of the width rule
@example((((((0, 2),),),), (1, 1, 1)))
@example((((((0, -2),),), (((0, 1),),)), (1, 2, 1, 1)))
@settings(max_examples=200, deadline=None)
@given(tables_and_words())
def test_packed_product_decodes_to_the_reference(case):
    generators, word = case
    dim = len(generators[0])
    tables = encoded_tables(0, generators)
    w = tables.width(len(word))
    packed = snaction._identity(range(dim), dim, w)
    expected = tuple(((c, 1),) for c in range(dim))
    for letter in word:
        packed = snaction._times(packed, tables.generators[letter - 1])
        expected = column_product(expected, generators[letter - 1])
    assert unpack_columns(packed, w, dim) == expected


# an empty column (the final zero slot), a -1 and a +1 term in one column (an
# extra slot in the first layer), and a lone 0 entry (an extra of coefficient 0)
@example((((),),))
@example(((((0, -1), (1, 1)), ((1, 0),)),))
@settings(max_examples=200, deadline=None)
@given(sparse_generators(8))
def test_slot_encoding_round_trips(generators):
    # decoding gives the columns back, R is their largest abs-sum, and _step
    # on every basis vector is the sparse column
    tables = encoded_tables(0, generators)
    assert chart_columns(tables) == generators
    assert tables.radius == max(sum(abs(e) for _, e in column) for g in generators for column in g)
    for g, columns in zip(tables.generators, generators):
        for c, column in enumerate(columns):
            expected: dict[int, int] = {}
            for r, e in column:
                expected[r] = expected.get(r, 0) + e
            assert snaction._step(g, ((c, 1),)) == expected
            assert snaction._step(g, ((c, 5),)) == {r: 5 * e for r, e in expected.items()}
