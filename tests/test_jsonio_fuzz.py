"""Property tests of the wire decoders: every payload decodes or is refused.

``matching_codes_from_obj``, the package's one formal-sum decoder, must
return its ``((n, opens, dots), coef)`` terms or raise ``ValueError`` (which
the CLI turns into exit 2), never anything else, and so must the object
reference ``bruteforce.matching_sum_from_obj``; the two must agree term by
term or refuse with the same message.
"""

import json
import subprocess
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from springerrep.formal import FormalSum
from springerrep.jsonio import matching_codes_from_obj, matching_from_obj
from springerrep.rewriting import _encode, reduce_to_standard

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


def decodes_or_refuses(obj):
    try:
        result = matching_sum_from_obj(obj)
    except ValueError:
        return None
    assert isinstance(result, FormalSum)
    return result


def codes_or_refuses(obj):
    try:
        result = matching_codes_from_obj(obj)
    except ValueError:
        return None
    assert isinstance(result, list)
    for (n, opens, dots), coef in result:
        assert all(type(x) is int for x in (n, opens, dots, coef))
    return result


def test_the_valid_sum_decodes():
    assert len(decodes_or_refuses(VALID)) == len(codes_or_refuses(VALID)) == 2


@FUZZ
@given(JSON_TREES)
def test_arbitrary_trees_decode_or_are_refused(obj):
    for decode in (decodes_or_refuses, codes_or_refuses):
        decode(obj)
        decode({"terms": [obj]})
        decode({"terms": [{"coef": 1, "matching": obj}]})


@FUZZ
@given(st.data())
def test_mutated_sums_decode_or_are_refused(data):
    path = data.draw(st.sampled_from(list(node_paths(VALID))))
    obj = mutated(VALID, path, data.draw(JSON_TREES), data.draw(st.booleans()) and bool(path))
    result = decodes_or_refuses(obj)
    if result is not None:
        try:
            reduced = reduce_to_standard(result)
        except ValueError:  # inhomogeneous
            return
        assert isinstance(reduced, FormalSum)


# the first term again, so that the code decoder meets an arc list it has seen
REPEATED = {"terms": [*VALID["terms"], VALID["terms"][0]]}


def message_or(decode, obj):
    try:
        return decode(obj)
    except ValueError as err:
        return str(err)


def object_term_code(entry):
    m = matching_from_obj(entry["matching"])
    return (m.n, *_encode(m)), entry["coef"]


@FUZZ
@given(st.data())
def test_code_decoder_agrees_with_the_object_decoder(data):
    path = data.draw(st.sampled_from(list(node_paths(REPEATED))))
    obj = mutated(REPEATED, path, data.draw(JSON_TREES), data.draw(st.booleans()) and bool(path))
    expected = message_or(matching_sum_from_obj, obj)
    if not isinstance(expected, str):
        expected = list(map(object_term_code, obj["terms"]))
    assert message_or(matching_codes_from_obj, obj) == expected


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
