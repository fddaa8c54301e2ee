"""Property tests of the wire decoders: every payload decodes or is refused.

``matching_codes_from_obj``, the package's one formal-sum decoder, decodes
and merges in one pass.  On every payload drawn here it must accept exactly
what ``bruteforce.matching_sum_from_obj``, a decoder written from the
definitions, accepts, and return the codes of the reference's merged terms in
merge order (cancelled codes and zero coefficients dropped), which
``rewriting._by_degree`` files in order of the degrees of the reference's
objects; or raise ``ValueError`` (which the CLI turns into exit 2) where the
reference refuses, never anything else.  The messages are pinned by the
golden CLI table and ``tests/test_jsonio.py``.
"""

import json
import subprocess
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from springerrep.formal import FormalSum
from springerrep.jsonio import matching_codes_from_obj
from springerrep.rewriting import _by_degree, _encode, reduce_to_standard

from bruteforce import cap_memory, matching_sum_from_obj

VALID = {"terms": [
    {"coef": 2, "matching": {"n": 6, "arcs": [[1, 6], [2, 3], [4, 5]], "dotted": [[2, 3]]}},
    {"coef": -1, "matching": {"n": 6, "arcs": [[1, 2], [3, 4], [5, 6]], "dotted": [[3, 4]]}},
]}

KEYS = st.sampled_from(("terms", "coef", "matching", "n", "arcs", "dotted")) | st.text(max_size=3)
SCALARS = (st.none() | st.booleans() | st.integers(-2, 8) | st.integers()
           | st.floats() | st.text(max_size=3))
JSON_TREES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=20,
)
FUZZ = settings(max_examples=300, database=None, deadline=None)


def node_paths(obj, prefix=()):
    yield prefix
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from node_paths(value, prefix + (key,))


def mutated(obj, path, value, delete):
    """A copy of obj with the node at path replaced by value, or removed."""
    if not path:
        return value
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    head, rest = path[0], path[1:]
    if delete and not rest:
        del copy[head]
    else:
        copy[head] = mutated(obj[head], rest, value, delete)
    return copy


def message_or(decode, obj):
    try:
        return decode(obj)
    except ValueError as err:
        return str(err)


def ordered(degrees):
    """Per-degree dicts as nested item lists, so that order counts in a comparison."""
    return [(degree, list(codes.items())) for degree, codes in degrees.items()]


def agreed(obj):
    """Check the decoder against the reference on obj; its degrees, or None if refused."""
    result = message_or(matching_codes_from_obj, obj)
    expected = message_or(matching_sum_from_obj, obj)
    assert isinstance(result, str) == isinstance(expected, str)
    if isinstance(result, str):
        return None
    assert isinstance(expected, FormalSum)
    assert list(result.items()) == [(_encode(m), coef) for m, coef in expected]
    degrees = _by_degree(result.items())
    assert list(degrees) == list(dict.fromkeys((m.n, m.k) for m, _ in expected))
    for (n, k), codes in degrees.items():
        for (opens, dots), coef in codes.items():
            assert all(type(x) is int for x in (opens, dots, coef)) and coef
            assert (n, k) == (2 * opens.bit_count(), opens.bit_count() - dots.bit_count())
    return degrees


def test_the_valid_sum_decodes():
    assert len(matching_sum_from_obj(VALID)) == sum(map(len, agreed(VALID).values())) == 2


@FUZZ
@given(JSON_TREES)
def test_arbitrary_trees_decode_or_are_refused(obj):
    agreed(obj)
    agreed({"terms": [obj]})
    agreed({"terms": [{"coef": 1, "matching": obj}]})


@FUZZ
@given(st.data())
def test_mutated_sums_decode_or_are_refused(data):
    path = data.draw(st.sampled_from(list(node_paths(VALID))))
    obj = mutated(VALID, path, data.draw(JSON_TREES), data.draw(st.booleans()) and bool(path))
    if agreed(obj) is not None:
        try:
            reduced = reduce_to_standard(matching_sum_from_obj(obj))
        except ValueError:  # inhomogeneous
            return
        assert isinstance(reduced, FormalSum)


# The first term again, so that the decoder meets an arc list it has seen; a
# second degree; the first term's code cancelled (reversed pairs, the same
# code), so that the merge drops it and the degree of the n = 4 term comes
# first; and that code again, which must come back after the second term's.
MERGING = {"terms": [
    VALID["terms"][0],
    {"coef": 3, "matching": {"n": 4, "arcs": [[1, 2], [3, 4]]}},
    VALID["terms"][1],
    VALID["terms"][0],
    {"coef": -4, "matching": {"n": 6, "arcs": [[6, 1], [3, 2], [5, 4]], "dotted": [[3, 2]]}},
    {"coef": 5, "matching": VALID["terms"][0]["matching"]},
]}


def test_the_merging_sum_drops_its_cancelled_code():
    assert ordered(agreed(MERGING)) == [((4, 2), [((0b0101, 0), 3)]),
                                        ((6, 2), [((0b010101, 0b000100), -1), ((0b001011, 0b000010), 5)])]


@FUZZ
@given(st.data())
def test_code_decoder_agrees_with_the_object_decoder(data):
    path = data.draw(st.sampled_from(list(node_paths(MERGING))))
    agreed(mutated(MERGING, path, data.draw(JSON_TREES), data.draw(st.booleans()) and bool(path)))


@pytest.mark.parametrize("payload", (
    {"terms": {"coef": 1}},
    {"terms": [{"coef": 1, "matching": {"n": 6, "arcs": [[1, 4], [2, 5], [3, 6]]}}]},
    {"terms": [{"coef": 1, "matching": {"n": 6, "arcs": [[1, 6], [2, 3], [4, 5]],
                                        "dotted": [[2, 3, 4]]}}]},
    {"terms": [{"coef": 1, "matching": {"n": 4, "arcs": [[1, 2], [3, 4]]}}, VALID["terms"][0]]},
    {"terms": [{"coef": 1, "matching": {"n": 1000000000000, "arcs": [[1, 2]]}}]},
    [VALID],
))
def test_reduce_exits_2_on_malformed_payloads(tmp_path, payload):
    source = tmp_path / "sum.json"
    source.write_text(json.dumps(payload))
    proc = subprocess.run([sys.executable, "-m", "springerrep.cli", "reduce", "--input", str(source)],
                          capture_output=True, text=True, timeout=60, preexec_fn=cap_memory)
    assert proc.returncode == 2 and proc.stdout == "" and proc.stderr.startswith("error: ")
