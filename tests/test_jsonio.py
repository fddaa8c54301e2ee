import pytest

from springerrep import DottedMatching, TwoRowTableau, expand
from springerrep.formal import FormalSum
from springerrep.jsonio import (
    diagram_sum_to_obj,
    dumps,
    formal_plain,
    matching_from_obj,
    matching_plain,
    matching_sum_from_obj,
    matching_sum_to_obj,
    tableau_plain,
    tableau_to_obj,
    tabloid_sum_to_obj,
    undot_plain,
)
from springerrep.specht import matching_generator

from bruteforce import tableau_from_obj


FIGURE = DottedMatching.make(6, [(1, 6), (2, 3), (4, 5)], [(2, 3)])


def test_matching_json_matches_documented_encoding():
    assert dumps(matching_to := matching_sum_to_obj(FormalSum.single(FIGURE))) == (
        '{"terms":[{"coef":1,"matching":'
        '{"n":6,"arcs":[[1,6],[2,3],[4,5]],"dotted":[[2,3]]}}]}'
    )
    assert matching_sum_from_obj(matching_to) == FormalSum.single(FIGURE)


def test_matching_round_trip():
    from springerrep.jsonio import matching_to_obj

    obj = matching_to_obj(FIGURE)
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
    obj = diagram_sum_to_obj(expand(m))
    assert dumps(obj) == (
        '{"n":4,"terms":['
        '{"coef":1,"undot":[1,3]},{"coef":-1,"undot":[2,3]},'
        '{"coef":-1,"undot":[1,4]},{"coef":1,"undot":[2,4]}]}'
    )


def test_tabloid_sum_encoding():
    m = DottedMatching.make(4, [(1, 2), (3, 4)])
    obj = tabloid_sum_to_obj(matching_generator(m))
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
        matching_sum_from_obj({"terms": [{"coef": "one", "matching": {"n": 0, "arcs": []}}]})
    with pytest.raises(ValueError):
        matching_sum_from_obj({})


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
        matching_sum_from_obj({"terms": [{"coef": coef, "matching": {"n": 2, "arcs": [[1, 2]]}}]})


def test_plain_renderings():
    assert matching_plain(FIGURE) == "(1,6) (2,3)* (4,5)"
    star_on_top = DottedMatching.make(6, [(1, 6), (2, 3), (4, 5)], [(1, 6)])
    assert matching_plain(star_on_top) == "(1,6)* (2,3) (4,5)"
    assert tableau_plain(TwoRowTableau(6, (3, 6))) == "1 2 4 5|3 6"
    assert tableau_plain(TwoRowTableau(4, ())) == "1 2 3 4|"
    from springerrep.linediagrams import UndotSet

    assert undot_plain(UndotSet(4, (2, 4))) == "{2,4}"
    v = FormalSum([(UndotSet(2, (1,)), -1), (UndotSet(2, (2,)), 1)])
    assert formal_plain(v, undot_plain) == "-1 {1}  +1 {2}"
    assert formal_plain(FormalSum.zero(), undot_plain) == "0"
