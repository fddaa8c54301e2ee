import ast
import itertools
from pathlib import Path

import pytest

from springerrep import DottedMatching, TwoRowTableau
from springerrep.formal import FormalSum
from springerrep.jsonio import (
    dumps,
    formal_plain,
    matching_plain,
    matching_sum_to_obj,
    matching_to_obj,
    rows_plain,
    subset_plain,
    subset_sum_to_obj,
    tableau_to_obj,
    undot_plain,
)
from springerrep.jsonio import matching_codes_from_obj
from springerrep.linediagrams import expand_code
from springerrep.codes import subset_mask
from springerrep.matchings import encode as _encode
from springerrep.specht import code_generator_masks

from bruteforce import matching_sum_from_obj, perfect_matchings, tableau_from_obj


FIGURE = DottedMatching.make(6, [(1, 6), (2, 3), (4, 5)], [(2, 3)])


def matching_code(obj):
    """A wire matching decoded as the one-term sum of it, as ``expand`` reads its input."""
    [code] = matching_codes_from_obj({"terms": [{"coef": 1, "matching": obj}]})
    return code


def test_matching_json_matches_documented_encoding():
    assert dumps(matching_to := matching_sum_to_obj(FormalSum({FIGURE: 1}))) == (
        '{"terms":[{"coef":1,"matching":'
        '{"n":6,"arcs":[[1,6],[2,3],[4,5]],"dotted":[[2,3]]}}]}'
    )
    assert matching_codes_from_obj(matching_to) == {_encode(FIGURE): 1}


def test_matching_round_trip():
    obj = matching_to_obj(_encode(FIGURE))
    assert obj == {"n": 6, "arcs": [[1, 6], [2, 3], [4, 5]], "dotted": [[2, 3]]}
    assert matching_code(obj) == _encode(FIGURE)
    # dotted defaults to empty
    assert matching_code({"n": 2, "arcs": [[1, 2]]}) == (0b01, 0)


def test_tableau_round_trip():
    obj = tableau_to_obj(6, subset_mask((3, 6)))
    assert dumps(obj) == '{"n":6,"bottom":[3,6]}'
    assert tableau_from_obj(obj) == TwoRowTableau(6, (3, 6))


def test_diagram_sum_encoding():
    m = DottedMatching.make(4, [(1, 2), (3, 4)])
    obj = subset_sum_to_obj({"n": 4}, "undot", sorted(expand_code(*_encode(m)).items()))
    assert dumps(obj) == (
        '{"n":4,"terms":['
        '{"coef":1,"undot":[1,3]},{"coef":-1,"undot":[2,3]},'
        '{"coef":-1,"undot":[1,4]},{"coef":1,"undot":[2,4]}]}'
    )


def test_tabloid_sum_encoding():
    m = DottedMatching.make(4, [(1, 2), (3, 4)])
    obj = subset_sum_to_obj({"n": 4, "k": 2}, "bottom", sorted(code_generator_masks(*_encode(m)).items()))
    assert list(obj) == ["n", "k", "terms"] and obj["n"] == 4 and obj["k"] == 2
    assert obj["terms"][0] == {"coef": 1, "bottom": [1, 3]}


def test_decode_errors():
    with pytest.raises(ValueError):
        matching_code({"arcs": [[1, 2]]})
    with pytest.raises(ValueError):
        matching_code({"n": 2, "arcs": [[1, 2, 3]]})
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
        matching_code(obj)


@pytest.mark.parametrize("coef", (True, False, 1.0, "1", None))
def test_decode_rejects_non_integer_coef(coef):
    with pytest.raises(ValueError, match="coef"):
        matching_codes_from_obj({"terms": [{"coef": coef, "matching": {"n": 2, "arcs": [[1, 2]]}}]})


def test_plain_renderings():
    assert matching_plain(_encode(FIGURE)) == "(1,6) (2,3)* (4,5)"
    star_on_top = DottedMatching.make(6, [(1, 6), (2, 3), (4, 5)], [(1, 6)])
    assert matching_plain(_encode(star_on_top)) == "(1,6)* (2,3) (4,5)"
    assert matching_plain((0b000111, None)) == matching_plain((0b000111, 0)) == "(1,6) (2,5) (3,4)"
    assert matching_to_obj((0b000111, None)) == {"n": 6, "arcs": [[1, 6], [2, 5], [3, 4]]}
    assert matching_plain((0, 0)) == "(empty)"
    assert matching_to_obj((0, None)) == {"n": 0, "arcs": []}
    assert rows_plain(6, subset_mask((3, 6))) == "1 2 4 5|3 6"
    assert rows_plain(4, 0) == "1 2 3 4|"
    assert rows_plain(4, subset_mask((3, 1))) == "2 4|1 3"
    assert undot_plain(subset_mask((2, 4))) == "{2,4}" and undot_plain(0) == "{}"
    assert subset_plain(subset_mask((2, 4))) == "2 4" and subset_plain(0) == ""
    assert formal_plain([(0b01, -1), (0b10, 1)], undot_plain) == "-1 {1}  +1 {2}"
    assert formal_plain([], undot_plain) == "0"


def make_or_error(n, arcs, dotted):
    try:
        m = DottedMatching.make(n, arcs, dotted)
    except ValueError as err:
        return str(err)
    return _encode(m)


def code_or_error(n, arcs, dotted):
    try:
        [code] = matching_codes_from_obj(
            {"terms": [{"coef": 1, "matching": {"n": n, "arcs": arcs, "dotted": dotted}}]})
        return code
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
        assert result == (0b001011, 0b000010)


def message_or(decode, obj):
    try:
        return decode(obj)
    except ValueError as err:
        return str(err)


def both_decoders(*matchings):
    """One sum of these matchings through matching_codes_from_obj, and what it must
    give: the codes of the merged terms of the reference matching_sum_from_obj, or,
    where the reference refuses, the message of the first term that the decoder
    refuses when it meets that term alone, with no shape seen before."""
    obj = {"terms": [{"coef": 1, "matching": m} for m in matchings]}
    codes = message_or(matching_codes_from_obj, obj)
    try:
        return codes, {_encode(m): coef for m, coef in matching_sum_from_obj(obj)}
    except ValueError:
        alone = (message_or(matching_code, m) for m in matchings)
        return codes, next(outcome for outcome in alone if isinstance(outcome, str))


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


def test_the_wire_layer_does_not_import_the_rewriting_kernel():
    source = Path(__file__).resolve().parents[1] / "src" / "springerrep" / "jsonio.py"
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):  # relative names resolved in springerrep
            package = (("springerrep." if node.level else "") + (node.module or "")).rstrip(".")
            names = [package, *(f"{package}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any(name.split(".")[:2] == ["springerrep", "rewriting"] for name in names), ast.unparse(node)
