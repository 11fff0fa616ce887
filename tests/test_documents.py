"""Document schema round-trips, strict and lenient parse modes."""

import json
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from label_oracle import (
    dump_document,
    fset_of,
    pairs_of,
    presentation_of,
    project_F,
    table,
    triples_of,
)

from trigon.cli import present
from trigon.documents import (
    Document,
    load_document,
    parse_document,
)
from trigon.errors import ParseError
from trigon.pairset import FSet
from trigon.tripres import TrianglePresentation

SQUARE_F = FSet.from_labels((1, 2), [(1, 1), (1, 2), (2, 1), (2, 2)])
SQUARE_T = TrianglePresentation.from_labels((1, 2), [(1, 1, 2), (2, 2, 2)])
SQUARE_META = {"note": "square link"}


def dump(doc, meta):
    """The program's text of a document whose F is the pairs of its T."""
    if doc.F != project_F(doc.T):
        raise ValueError("present writes the pairs of T as F")
    return "".join(present(doc.T, meta, "json"))


def square_doc():
    return Document(F=SQUARE_F, T=SQUARE_T)


@pytest.mark.parametrize("which", [1, 3, 4])
def test_dump_parse_round_trip(which):
    T = table(which)
    doc = Document(F=project_F(T), T=T)
    assert parse_document(dump(doc, {"table": which})) == doc


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(dump(square_doc(), SQUARE_META))
    assert load_document(path) == square_doc()


def test_document_requires_shared_labels():
    with pytest.raises(ValueError):
        Document(F=SQUARE_F, T=table(3))


def test_schema_fields_written():
    blob = json.loads(dump(square_doc(), SQUARE_META))
    assert set(blob) == {"n", "labels", "F", "T", "meta"}
    assert blob["n"] == 2 and blob["labels"] == [1, 2]
    # only canonical representatives are serialized
    assert blob["T"] == [[1, 1, 2], [2, 2, 2]]
    assert blob["meta"] == SQUARE_META


def test_a_document_holds_F_and_T_a_row_at_a_time():
    """Each part of a document's text holds at most one row of F or of T,
    so no one text of either array is held beside its rows: table 3's plane
    of order 2 has 3 pairs and 1 canonical triple a point, 21 and 7 in
    all, and an array bracket is a part of its own."""
    T = table(3)
    parts = present(T, {}, "json")
    blob = json.loads("".join(parts))
    assert (len(blob["F"]), len(blob["T"])) == (21, 7)
    assert max(part.count("[") for part in parts) == 3


def test_parse_accepts_full_closure_strictly():
    blob = {
        "n": 2, "labels": [1, 2],
        "F": [[1, 1], [1, 2], [2, 1], [2, 2]],
        "T": [[1, 1, 2], [1, 2, 1], [2, 1, 1], [2, 2, 2]],
    }
    doc = parse_document(json.dumps(blob))
    assert doc.T == SQUARE_T


def test_parse_partial_closure_is_flag_controlled():
    blob = {
        "n": 2, "labels": [1, 2],
        "F": [[1, 1], [1, 2], [2, 1], [2, 2]],
        "T": [[1, 1, 2], [1, 2, 1], [2, 2, 2]],
    }
    text = json.dumps(blob)
    with pytest.raises(ParseError):
        parse_document(text)
    with pytest.warns(UserWarning):
        doc = parse_document(text, strict=False)
    assert doc.T == SQUARE_T


def test_labels_default_to_one_based_range():
    blob = {"n": 2, "F": [[1, 2]], "T": []}
    doc = parse_document(json.dumps(blob))
    assert doc.F.labels == doc.T.labels == (1, 2)
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps({"n": 2, "F": [[0, 1]], "T": []}))
    assert "F[0]" in str(err.value)


@pytest.mark.parametrize(
    "blob, needle",
    [
        ([], "top level"),
        ({"labels": [1]}, "missing key 'n'"),
        ({"n": -1}, "negative"),
        ({"n": 2, "labels": [1]}, "labels"),
        ({"n": 2, "labels": [1, 1]}, "duplicates"),
        ({"n": 2, "labels": [1, "a"]}, "integers"),
        ({"n": 1, "labels": [1], "F": [[1]], "T": []}, "F[0]"),
        ({"n": 1, "labels": [1], "F": [], "T": [[1, 1]]}, "T[0]"),
        ({"n": 1, "labels": [1], "F": [], "T": [[1, 1, 2]]}, "T[0]"),
        ({"n": 1, "labels": [1], "F": [], "T": [], "meta": 3}, "meta"),
        ({"n": 10**30, "F": [], "T": []}, "without a label list"),
    ],
)
def test_parse_errors_name_the_location(blob, needle):
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(blob))
    assert needle in str(err.value)


def test_syntax_error_position_reported():
    with pytest.raises(ParseError) as err:
        parse_document("{not json")
    assert "line 1" in str(err.value)


@pytest.mark.parametrize(
    "blob, needle",
    [
        ({"n": True, "F": [], "T": []}, "document.n"),
        ({"n": 2, "labels": [0, True], "F": [], "T": []}, "labels"),
        ({"n": 3, "labels": [0, 1, 2], "F": [[True, 2]], "T": []}, "F[0]"),
        ({"n": 3, "labels": [0, 1, 2], "F": [], "T": [[0, False, 2]]}, "T[0]"),
    ],
)
def test_json_booleans_are_not_integers(blob, needle):
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(blob))
    assert needle in str(err.value)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_over_shuffled_labels(data):
    """Random position pairs and rotation-closed position triples over a
    label list that is not 1..n come back from the label-level writer and
    parse unchanged, and the triples with their own pairs from dump."""
    n = data.draw(st.integers(min_value=1, max_value=6))
    labels = data.draw(
        st.lists(st.integers(-20, 20), min_size=n, max_size=n, unique=True)
    )
    assume(labels != list(range(1, n + 1)))
    pos = st.integers(min_value=0, max_value=n - 1)
    pairs = data.draw(st.frozensets(st.tuples(pos, pos)))
    seeds = data.draw(st.frozensets(st.tuples(pos, pos, pos), max_size=8))
    triples = frozenset(
        r for i, j, k in seeds for r in ((i, j, k), (j, k, i), (k, i, j))
    )
    T = presentation_of(labels, triples)
    meta = {"seed": len(seeds)}
    doc = Document(F=fset_of(labels, pairs), T=T)
    back = parse_document(dump_document(doc.F, T, meta))
    assert pairs_of(back.F) == pairs and triples_of(back.T) == triples
    assert back == doc
    own = Document(F=project_F(T), T=T)
    assert parse_document(dump(own, meta)) == own


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
DELETE = object()
# lists of short integer lists, so that pairs and triples with unknown
# labels, wrong lengths and duplicates come up often
NEAR_ENTRIES = st.lists(
    st.lists(st.integers(min_value=-1, max_value=4), max_size=4), max_size=6
)


@settings(max_examples=300, deadline=None)
@given(
    replaced=st.dictionaries(
        st.sampled_from(["n", "labels", "F", "T", "meta"]),
        st.one_of(st.just(DELETE), JSON_VALUES, NEAR_ENTRIES),
        min_size=1,
    ),
    strict=st.booleans(),
)
def test_malformed_documents_raise_parse_error(replaced, strict):
    """Random JSON values in place of the document's keys, or the keys
    deleted, either parse or raise ParseError, never another exception."""
    blob = {
        "n": 3, "labels": [2, 4, 3],
        "F": [[2, 4], [4, 3], [3, 2]], "T": [[2, 4, 3]], "meta": {},
    }
    for key, value in replaced.items():
        if value is DELETE:
            del blob[key]
        else:
            blob[key] = value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            parse_document(json.dumps(blob), strict=strict)
        except ParseError:
            pass
