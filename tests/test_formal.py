import pytest

from springerrep.formal import FormalSum

from bruteforce import map_basis


def test_zero_coefficients_are_dropped():
    assert FormalSum([("a", 1), ("a", -1)]) == FormalSum.zero()
    assert not FormalSum({"a": 0})
    assert len(FormalSum([("a", 2), ("b", 0), ("a", -1)])) == 1


def test_arithmetic():
    v = FormalSum({"a": 2, "b": -1})
    w = FormalSum({"b": 1, "c": 3})
    assert v + w == FormalSum({"a": 2, "c": 3})
    assert v - v == FormalSum.zero()
    assert -v == FormalSum({"a": -2, "b": 1})
    assert 3 * v == FormalSum({"a": 6, "b": -3})
    assert 0 * v == FormalSum.zero()
    assert v.coefficient("a") == 2
    assert v.coefficient("missing") == 0


def test_only_integer_coefficients():
    with pytest.raises(TypeError):
        FormalSum({"a": 0.5})


def test_map_basis_is_linear():
    v = FormalSum({"a": 2, "b": -3})
    image = map_basis(v, lambda x: FormalSum({x.upper(): 1, "shared": 1}))
    assert image == FormalSum({"A": 2, "B": -3, "shared": -1})


def test_sorted_terms_are_deterministic():
    left = FormalSum({"b": 1}) + FormalSum({"a": 1})
    right = FormalSum({"a": 1}) + FormalSum({"b": 1})
    assert left.sorted_terms() == right.sorted_terms() == [("a", 1), ("b", 1)]


def test_single():
    assert FormalSum.single("x", -2) == FormalSum({"x": -2})
