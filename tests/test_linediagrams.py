import itertools
import random

import pytest

from springerrep import (
    Tabloid,
    echelon_certificate,
    expand,
)
from springerrep.linediagrams import code_expansion_masks
from springerrep.formal import FormalSum
from springerrep.codes import standard_codes
from springerrep.matchings import encode, enumerate_standard
from springerrep.perms import Permutation, parse_permutation

from bruteforce import (
    compare_undot_sets,
    insert_arc,
    insert_arc_consistency,
    left_count,
    m_,
    negated_lead,
    permute_diagram,
    undot_sets,
)


def u_(n, *members):
    return Tabloid(n, members)


def test_undot_sets_examples():
    assert undot_sets(m_(4, [(1, 2), (3, 4)], [(1, 2), (3, 4)])) == [u_(4)]
    assert undot_sets(m_(4, [(1, 2), (3, 4)], [(3, 4)])) == [u_(4, 1), u_(4, 2)]
    both = undot_sets(m_(4, [(1, 2), (3, 4)]))
    assert set(both) == {u_(4, 1, 3), u_(4, 1, 4), u_(4, 2, 3), u_(4, 2, 4)}


def test_undot_sets_requires_standard():
    with pytest.raises(ValueError):
        undot_sets(m_(4, [(1, 4), (2, 3)], [(2, 3)]))


def test_left_count():
    m = m_(4, [(1, 2), (3, 4)], [(3, 4)])
    assert left_count(m, u_(4, 2)) == 0
    assert left_count(m, u_(4, 1)) == 1
    nest = m_(4, [(1, 4), (2, 3)])
    assert left_count(nest, u_(4, 1, 2)) == 2
    assert left_count(nest, u_(4, 3, 4)) == 0
    with pytest.raises(ValueError):
        left_count(m, u_(4, 3))  # endpoint of a dotted arc
    with pytest.raises(ValueError):
        left_count(nest, u_(4, 1))


def test_expand_examples():
    dotted = m_(4, [(1, 2), (3, 4)], [(1, 2), (3, 4)])
    assert expand(dotted) == FormalSum({u_(4): 1})

    worked = m_(4, [(1, 2), (3, 4)], [(3, 4)])
    assert expand(worked) == FormalSum([(u_(4, 2), 1), (u_(4, 1), -1)])

    square = m_(4, [(1, 2), (3, 4)])
    assert expand(square) == FormalSum([
        (u_(4, 2, 4), 1), (u_(4, 1, 4), -1), (u_(4, 2, 3), -1), (u_(4, 1, 3), 1),
    ])


def test_expansion_masks_examples():
    # strand x at bit x-1; product order over the arcs, left endpoint first
    assert code_expansion_masks(*encode(m_(4, [(1, 2), (3, 4)], [(1, 2), (3, 4)]))) == {0: 1}
    assert code_expansion_masks(*encode(m_(4, [(1, 2), (3, 4)], [(3, 4)]))) == {0b01: -1, 0b10: 1}
    assert list(code_expansion_masks(*encode(m_(4, [(1, 2), (3, 4)]))).items()) == [
        (0b0101, 1), (0b1001, -1), (0b0110, -1), (0b1010, 1),
    ]


@pytest.mark.parametrize("n", range(0, 9, 2))
def test_expand_shape(n):
    for k in range(n // 2 + 1):
        for m in enumerate_standard(n, k):
            v = expand(m)
            assert len(v) == 2 ** k
            assert all(c in (-1, 1) for _, c in v)
            # the all-right-endpoints term is maximal and carries +1
            lead = max((u for u, _ in v), key=lambda u: tuple(sorted(u.bottom, reverse=True)))
            assert lead.bottom == m.right_undotted()
            assert v.coefficient(lead) == 1


def test_distinct_standard_matchings_have_distinct_leads():
    for n in (2, 4, 6, 8):
        for k in range(n // 2 + 1):
            leads = {m.right_undotted() for m in enumerate_standard(n, k)}
            assert len(leads) == len(enumerate_standard(n, k))


def test_compare_undot_sets():
    assert compare_undot_sets(u_(4, 1, 4), u_(4, 2, 4)) == -1
    assert compare_undot_sets(u_(4, 2, 4), u_(4, 2, 4)) == 0
    assert compare_undot_sets(u_(4, 2, 3), u_(4, 1, 4)) == -1
    assert compare_undot_sets(u_(4, 2, 4), u_(4, 1, 4)) == 1
    with pytest.raises(ValueError):
        compare_undot_sets(u_(4, 1), u_(4, 1, 2))


def test_permute_diagram_examples():
    v = expand(m_(4, [(1, 2), (3, 4)], [(3, 4)]))  # l{2} - l{1}
    identity = Permutation.identity(4)
    assert permute_diagram(identity, v) == v
    assert permute_diagram(Permutation.simple(4, 1), v) == -1 * v
    # a 3-cycle moves the single dot-free strand from position 1 to 2
    w = parse_permutation("(1 2 3)", n=4)
    assert permute_diagram(w, FormalSum({u_(4, 1): 1})) == FormalSum({u_(4, 2): 1})


def test_permute_diagram_is_group_action():
    rng = random.Random(3)
    n = 6
    sets = [u_(n, *s) for s in itertools.combinations(range(1, n + 1), 2)]
    v = FormalSum([(s, rng.randint(-3, 3)) for s in sets])
    for _ in range(10):
        images1 = list(range(1, n + 1))
        images2 = list(range(1, n + 1))
        rng.shuffle(images1)
        rng.shuffle(images2)
        w1, w2 = Permutation(tuple(images1)), Permutation(tuple(images2))
        assert permute_diagram(w1, permute_diagram(w2, v)) == permute_diagram(w1 * w2, v)


def test_insert_arc_examples():
    empty = m_(0, [])
    two = insert_arc(empty, (1, 2), dotted=True)
    assert two.arcs == ((1, 2),) and two.dotted == frozenset({(1, 2)})
    assert insert_arc_consistency(empty, (1, 2), dotted=True)

    assert insert_arc_consistency(two, (1, 2), dotted=False)
    one_undotted = m_(2, [(1, 2)])
    assert insert_arc_consistency(one_undotted, (3, 4), dotted=False)


def test_insert_arc_rejects_invalid():
    base = m_(2, [(1, 2)])
    with pytest.raises(ValueError):
        insert_arc(base, (1, 3), dotted=False)  # would cross the shifted arc
    # a dotted old arc ends up nested below the inserted arc
    dotted_base = m_(2, [(1, 2)], [(1, 2)])
    with pytest.raises(ValueError):
        insert_arc(dotted_base, (1, 4), dotted=False)
    with pytest.raises(ValueError):
        insert_arc(base, (0, 2), dotted=False)
    # dotted on top of an undotted nest stays standard
    nested = insert_arc(base, (1, 4), dotted=True)
    assert nested.arcs == ((1, 4), (2, 3)) and nested.dotted == frozenset({(1, 4)})


@pytest.mark.parametrize("n", (2, 4, 6))
def test_insert_arc_consistency_exhaustive(n):
    for k in range(n // 2 + 1):
        for m in enumerate_standard(n, k):
            for i in range(1, n + 2):
                for j in range(i + 1, n + 3):
                    for dotted in (False, True):
                        try:
                            insert_arc(m, (i, j), dotted)
                        except ValueError:
                            continue
                        assert insert_arc_consistency(m, (i, j), dotted)


@pytest.mark.parametrize("n", range(0, 9, 2))
def test_echelon_certificate(n):
    for k in range(n // 2 + 1):
        assert echelon_certificate(n, k)


def test_echelon_certificate_examples():
    assert echelon_certificate(4, 2)
    assert echelon_certificate(8, 0)
    assert echelon_certificate(6, 3)


def test_echelon_gate_fires_on_a_negated_lead(monkeypatch, capsys):
    import springerrep.linediagrams as ld
    from springerrep.cli import main

    monkeypatch.setattr(ld, "code_expansion_masks", negated_lead(ld.code_expansion_masks))
    assert not echelon_certificate(4, 1)
    assert main(["verify", "--suite", "echelon", "--max-n", "4"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("broken", ["shifted", "reversed"])
def test_echelon_checks_each_lead_and_the_row_order(monkeypatch, broken):
    import springerrep.linediagrams as ld

    if broken == "shifted":  # leads +1 and increasing, one strand right of U_M
        real = ld.code_expansion_masks
        monkeypatch.setattr(ld, "code_expansion_masks",
                            lambda *code: {mask << 1: coef for mask, coef in real(*code).items()})
    else:  # each row leads at U_M with +1, but the leads decrease
        monkeypatch.setattr(ld, "standard_codes", lambda n, k: standard_codes(n, k)[::-1])
    assert not echelon_certificate(4, 1)
