"""Property tests of the packed-integer kernels of ``snaction``: matrix
products on random column tables, with entries and column sums larger than
the chart's, and the strand swap on random signed digit vectors."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from springerrep import snaction
from springerrep.matchings import transpose_mask

from bruteforce import column_product, unpack_columns


@st.composite
def tables_and_words(draw):
    dim = draw(st.integers(1, 4))
    column = st.lists(st.tuples(st.integers(0, dim - 1), st.integers(-3, 3)),
                      max_size=3, unique_by=lambda entry: entry[0])
    generators = draw(st.lists(
        st.lists(column.map(lambda c: tuple(sorted(c))), min_size=dim, max_size=dim).map(tuple),
        min_size=1, max_size=3))
    word = draw(st.lists(st.integers(1, len(generators)), max_size=6))
    return tuple(generators), tuple(word)


# a 1 x 1 generator 2: its powers reach R^m exactly, the edge of the width rule
@example((((((0, 2),),),), (1, 1, 1)))
@example((((((0, -2),),), (((0, 1),),)), (1, 2, 1, 1)))
@settings(max_examples=200, deadline=None)
@given(tables_and_words())
def test_packed_product_decodes_to_the_reference(case):
    generators, word = case
    dim = len(generators[0])
    w = snaction._Tables(0, (), {}, generators).width(len(word))
    packed = snaction._identity(range(dim), dim, w)
    expected = tuple(((c, 1),) for c in range(dim))
    for letter in word:
        packed = snaction._times(packed, generators[letter - 1])
        expected = column_product(expected, generators[letter - 1])
    assert unpack_columns(packed, w, dim) == expected


@st.composite
def digit_vectors(draw):
    n = draw(st.integers(2, 8))
    radius = draw(st.integers(1, 9))
    digits = draw(st.dictionaries(st.integers(0, (1 << n) - 1),
                                  st.integers(-radius, radius).filter(bool), max_size=40))
    return n, radius, digits


# every digit at -R: the bias must lift all of them without a borrow
@example((3, 4, dict.fromkeys(range(8), -4)))
@example((2, 2, {1: 2, 2: -2}))
@settings(max_examples=200, deadline=None)
@given(digit_vectors())
def test_strand_swap_decodes_to_transpose_mask(case):
    n, radius, digits = case
    # the digit width of a generator of column sum R
    w = snaction._Tables(0, (), {}, ((((0, radius),),),)).width(1)
    packed = sum(d << w * u for u, d in digits.items())
    for i in range(1, n):
        (swapped,) = unpack_columns([snaction._swap(packed, snaction._swap_masks(n, w, i))], w, 1 << n)
        assert dict(swapped) == {transpose_mask(u, 0b11 << (i - 1)): d for u, d in digits.items()}
