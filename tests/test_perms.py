import itertools

import pytest

from springerrep.perms import Permutation, parse_permutation


def test_basic_operations():
    w = Permutation((2, 3, 1, 4))
    assert w(1) == 2 and w(3) == 1
    assert w.inverse() * w == Permutation.identity(4)
    assert w * w.inverse() == Permutation.identity(4)
    assert w.cycle_type() == (3, 1)
    assert Permutation.simple(4, 2).images == (1, 3, 2, 4)


def test_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation.simple(4, 4)
    with pytest.raises(ValueError):
        Permutation((2, 3)) * Permutation((1,))


@pytest.mark.parametrize("images", [(1, 2.0), (1.0,), (True,), (2, True)])
def test_permutation_refuses_images_that_are_not_ints(images):
    # each sorts equal to 1..n, so it used to construct
    with pytest.raises(ValueError, match="is not an integer"):
        Permutation(images)


def test_reduced_word_reconstructs_every_permutation_up_to_s6():
    for n in range(1, 7):
        for images in itertools.permutations(range(1, n + 1)):
            w = Permutation(images)
            word = w.reduced_word()
            rebuilt = Permutation.identity(n)
            for letter in word:  # leftmost factor applied last
                rebuilt = rebuilt * Permutation.simple(n, letter)
            assert rebuilt == w
            # reduced: length equals the inversion number
            assert len(word) == sum(images[a] > images[b] for a in range(n) for b in range(a + 1, n))


def test_reduced_word_convention_pin():
    # the 3-cycle 1->2->3->1 is s_1 s_2: s_2 first, then s_1
    assert Permutation((2, 3, 1)).reduced_word() == (1, 2)


def test_parse_cycle_notation():
    w = parse_permutation("(1 2)(3 4 5)")
    assert w.images == (2, 1, 4, 5, 3)
    assert parse_permutation("(1 2)", n=4).images == (2, 1, 3, 4)
    assert parse_permutation("(2,6,5,4,3)", n=6).images == (1, 6, 2, 3, 4, 5)


def test_parse_one_line_notation():
    assert parse_permutation("2 1 4 5 3").images == (2, 1, 4, 5, 3)
    assert parse_permutation("2,1", n=2).images == (2, 1)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_permutation("")
    with pytest.raises(ValueError):
        parse_permutation("(1 2")
    with pytest.raises(ValueError):
        parse_permutation("(1 2)(2 3)")
    with pytest.raises(ValueError):
        parse_permutation("(1 5)", n=4)
    with pytest.raises(ValueError):
        parse_permutation("1 2 3", n=4)


@pytest.mark.parametrize("text", ("x", "(1 x)", "2 1 x", "1.5 2", "(1 2)(3 4.0)",
                                  "\u0662 1", "(1 \u0662)"))  # Arabic-Indic digit two
def test_parse_names_the_accepted_forms_for_non_integer_entries(text):
    with pytest.raises(ValueError, match="cycle notation .* or one-line notation") as info:
        parse_permutation(text)
    assert str(info.value).endswith(f"with positive integer entries; got {text!r}")
