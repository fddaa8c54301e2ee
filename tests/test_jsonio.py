import itertools

import pytest

from springerrep import DottedMatching, Tabloid, TwoRowTableau, expand
from springerrep.formal import FormalSum
from springerrep.jsonio import (
    diagram_sum_to_obj,
    dumps,
    formal_plain,
    matching_from_obj,
    matching_plain,
    matching_sum_to_obj,
    matching_to_obj,
    rows_plain,
    tableau_to_obj,
    tabloid_sum_to_obj,
    undot_plain,
)
from springerrep.jsonio import matching_codes_from_obj
from springerrep.rewriting import _encode, _merge
from springerrep.specht import matching_generator

from bruteforce import matching_sum_from_obj, perfect_matchings, tableau_from_obj


FIGURE = DottedMatching.make(6, [(1, 6), (2, 3), (4, 5)], [(2, 3)])


def test_matching_json_matches_documented_encoding():
    assert dumps(matching_to := matching_sum_to_obj(FormalSum({FIGURE: 1}))) == (
        '{"terms":[{"coef":1,"matching":'
        '{"n":6,"arcs":[[1,6],[2,3],[4,5]],"dotted":[[2,3]]}}]}'
    )
    assert matching_codes_from_obj(matching_to) == {(6, 2): {_encode(FIGURE): 1}}


def test_matching_round_trip():
    obj = matching_to_obj((6, *_encode(FIGURE)))
    assert obj == {"n": 6, "arcs": [[1, 6], [2, 3], [4, 5]], "dotted": [[2, 3]]}
    assert matching_from_obj(obj) == FIGURE
    # dotted defaults to empty
    assert matching_from_obj({"n": 2, "arcs": [[1, 2]]}).dotted == frozenset()


def test_tableau_round_trip():
    t = TwoRowTableau(6, (3, 6))
    obj = tableau_to_obj(t)
    assert dumps(obj) == '{"n":6,"bottom":[3,6]}'
    assert tableau_from_obj(obj) == t


def test_diagram_sum_encoding():
    m = DottedMatching.make(4, [(1, 2), (3, 4)])
    obj = diagram_sum_to_obj(expand(m), n=4)
    assert dumps(obj) == (
        '{"n":4,"terms":['
        '{"coef":1,"undot":[1,3]},{"coef":-1,"undot":[2,3]},'
        '{"coef":-1,"undot":[1,4]},{"coef":1,"undot":[2,4]}]}'
    )


def test_tabloid_sum_encoding():
    m = DottedMatching.make(4, [(1, 2), (3, 4)])
    obj = tabloid_sum_to_obj(matching_generator(m), n=4, k=2)
    assert obj["n"] == 4 and obj["k"] == 2
    assert obj["terms"][0] == {"coef": 1, "bottom": [1, 3]}


def test_decode_errors():
    with pytest.raises(ValueError):
        matching_from_obj({"arcs": [[1, 2]]})
    with pytest.raises(ValueError):
        matching_from_obj({"n": 2, "arcs": [[1, 2, 3]]})
    with pytest.raises(ValueError):
        tableau_from_obj({"n": 2, "bottom": "x"})
    with pytest.raises(ValueError):
        matching_codes_from_obj({"terms": [{"coef": "one", "matching": {"n": 0, "arcs": []}}]})
    with pytest.raises(ValueError):
        matching_codes_from_obj({})


@pytest.mark.parametrize("obj", (
    {"n": "4", "arcs": [[1, 2], [3, 4]], "dotted": []},
    {"n": True, "arcs": [[1, 2]]},
    {"n": 4.0, "arcs": [[1, 2], [3, 4]]},
    {"n": 4, "arcs": [[True, 2], [3, 4]]},
    {"n": 4, "arcs": [[1, 2], [3, 4]], "dotted": [[1, False]]},
    {"n": 4, "arcs": [[1, 2.0], [3, 4]]},
))
def test_decode_rejects_non_integer_vertices(obj):
    with pytest.raises(ValueError):
        matching_from_obj(obj)


@pytest.mark.parametrize("coef", (True, False, 1.0, "1", None))
def test_decode_rejects_non_integer_coef(coef):
    with pytest.raises(ValueError, match="coef"):
        matching_codes_from_obj({"terms": [{"coef": coef, "matching": {"n": 2, "arcs": [[1, 2]]}}]})


def test_plain_renderings():
    assert matching_plain((6, *_encode(FIGURE))) == "(1,6) (2,3)* (4,5)"
    star_on_top = DottedMatching.make(6, [(1, 6), (2, 3), (4, 5)], [(1, 6)])
    assert matching_plain((6, *_encode(star_on_top))) == "(1,6)* (2,3) (4,5)"
    assert matching_plain((6, 0b000111, None)) == matching_plain((6, 0b000111, 0)) == "(1,6) (2,5) (3,4)"
    assert matching_to_obj((6, 0b000111, None)) == {"n": 6, "arcs": [[1, 6], [2, 5], [3, 4]]}
    assert matching_plain((0, 0, 0)) == "(empty)"
    assert rows_plain(TwoRowTableau(6, (3, 6))) == "1 2 4 5|3 6"
    assert rows_plain(TwoRowTableau(4, ())) == "1 2 3 4|"
    assert rows_plain(Tabloid(4, (3, 1))) == "2 4|1 3"
    assert undot_plain(Tabloid(4, (2, 4))) == "{2,4}"
    v = FormalSum([(Tabloid(2, (1,)), -1), (Tabloid(2, (2,)), 1)])
    assert formal_plain(v.sorted_terms(), undot_plain) == "-1 {1}  +1 {2}"
    assert formal_plain([], undot_plain) == "0"


def make_or_error(n, arcs, dotted):
    try:
        m = DottedMatching.make(n, arcs, dotted)
    except ValueError as err:
        return str(err)
    return (m.n, *_encode(m))


def code_or_error(n, arcs, dotted):
    try:
        [((size, _), codes)] = matching_codes_from_obj(
            {"terms": [{"coef": 1, "matching": {"n": n, "arcs": arcs, "dotted": dotted}}]}).items()
        [code] = codes
        return size, *code
    except ValueError as err:
        return str(err)


def every_dotting(arcs):
    return [list(dots) for r in range(len(arcs) + 1) for dots in itertools.combinations(arcs, r)]


@pytest.mark.parametrize("n", range(0, 9, 2))
def test_code_decoder_agrees_with_make_on_every_perfect_matching(n):
    # crossing matchings included: the same code or the same refusal, word for word
    outcomes = set()
    for arcs in perfect_matchings(n):
        wire = [list(a) for a in arcs]
        for dotted in every_dotting(wire):
            expected = make_or_error(n, arcs, dotted)
            assert code_or_error(n, wire, dotted) == expected
            outcomes.add(type(expected))
    assert outcomes == ({tuple, str} if n >= 4 else {tuple})


@pytest.mark.parametrize("n, arcs, dotted", [
    (6, [[6, 1], [3, 2], [5, 4]], [[3, 2]]),  # reversed pairs are read as arcs (accepted)
    (6, [[1, 6], [2, 3], [4, 5]], [[3, 2]]),  # (accepted)
    (4, [[0, 1], [2, 3]], []),  # out of range
    (4, [[1, 2], [3, 5]], []),
    (4, [[-1, 2], [3, 4]], []),
    (4, [[1, 2], [2, 3]], []),  # repeated vertex
    (4, [[1, 2], [3, 3]], []),
    (4, [[1, 2]], []),  # wrong arc count
    (4, [[1, 2], [3, 4], [1, 2]], []),
    (2, [], []),
    (5, [[1, 2], [3, 4]], []),  # odd or negative n
    (-2, [], []),
    (10 ** 12, [[1, 2]], []),
    (4, [[1, 2], [3, 4]], [[1, 4]]),  # a dotted pair that is not an arc
    (4, [[1, 2], [3, 4]], [[2, 3], [4, 3]]),
    (8, [[1, 6], [2, 3], [4, 7], [5, 8]], [[2, 3]]),  # crossing
])
def test_code_decoder_agrees_with_make_on_malformed_input(n, arcs, dotted):
    result = code_or_error(n, arcs, dotted)
    assert result == make_or_error(n, arcs, dotted)
    assert isinstance(result, tuple) == (n == 6)
    if n == 6:
        assert result == (6, 0b001011, 0b000010)


def both_decoders(*matchings):
    """One sum of these matchings through matching_codes_from_obj, and through
    matching_sum_from_obj with each term's code read off its object and merged
    by ``rewriting._merge``: the per-degree codes or the error message of each."""
    obj = {"terms": [{"coef": 1, "matching": m} for m in matchings]}
    try:
        codes = matching_codes_from_obj(obj)
    except ValueError as err:
        codes = str(err)
    try:
        matching_sum_from_obj(obj)
    except ValueError as err:
        return codes, str(err)
    return codes, _merge(((m.n, *_encode(m)), 1) for m in map(matching_from_obj, matchings))


SIDE = {"n": 4, "arcs": [[1, 2], [3, 4]], "dotted": [[1, 2]]}
CROSSING = {"n": 4, "arcs": [[1, 3], [2, 4]]}
FIGURE_WIRE = {"n": 6, "arcs": [[1, 6], [2, 3], [4, 5]], "dotted": [[2, 3]]}


@pytest.mark.parametrize("matchings, refused", [
    # a later term whose pairs equal the first's as numbers, but are not ints
    ((SIDE, {"n": 4, "arcs": [[1, 2.0], [3, 4]]}), True),
    ((SIDE, {"n": 4, "arcs": [[True, 2], [3, 4]]}), True),
    ((SIDE, {"n": 4.0, "arcs": [[1, 2], [3, 4]]}), True),
    ((SIDE, {"n": 4, "arcs": [[1, 2], [3, 4]], "dotted": [[1, 2.0]]}), True),
    ((CROSSING, CROSSING), True),
    ((SIDE, CROSSING, CROSSING), True),
    # dotted pairs that are not arcs, on a shape already seen
    ((SIDE, {"n": 4, "arcs": [[1, 2], [3, 4]], "dotted": [[2, 3]]}), True),
    ((SIDE, {"n": 4, "arcs": [[1, 2], [3, 4]], "dotted": [[4, 3], [3, 2], [1, 4]]}), True),
    # the same arcs under another key, and a dot given twice
    ((FIGURE_WIRE,
      {"n": 6, "arcs": [[6, 1], [3, 2], [5, 4]], "dotted": [[3, 2]]},
      {"n": 6, "arcs": [[4, 5], [1, 6], [2, 3]], "dotted": [[2, 3], [3, 2]]},
      FIGURE_WIRE), False),
    ((SIDE, SIDE, {"n": 4, "arcs": [[1, 2], [3, 4]], "dotted": [[3, 4], [1, 2], [4, 3]]}), False),
])
def test_code_decoder_reuses_shapes_without_changing_outcomes(matchings, refused):
    codes, expected = both_decoders(*matchings)
    assert codes == expected
    assert isinstance(codes, str) == refused
