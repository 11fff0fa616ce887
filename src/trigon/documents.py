"""JSON presentation documents: explicit labels, pair set, canonical triples."""

from __future__ import annotations

import json
import warnings
from functools import partial
from itertools import groupby
from operator import itemgetter

from .errors import ParseError
from .linkgraph import FSet
from .record import Record
from .tripres import TrianglePresentation, rep_entries


# without a label list, n alone names the index set 1..n; the largest n it
# may name, so a few bytes cannot ask for gigabytes of labels
MAX_UNLABELED_N = 1 << 16


class Document(Record, eq=True):
    """A pair set and a presentation over one explicit label list; the
    document's free-form meta object is checked and not kept."""

    F: FSet
    T: TrianglePresentation

    def __init__(self, F, T):
        if F.labels != T.labels:
            raise ValueError("F and T must share one label list")
        super().__init__(F, T)


def json_writer(labels, pairs, level):
    """The document's entry renderer, separator and assembler over labels
    and the sorted position pairs of its F, at nesting depth level (1
    inside a top-level array): the entry of a canonical triple is its entry
    of the T array, "" for any other triple, and entries join by commas.
    The document holds labels explicit, the pairs, the joined entries and
    meta, all in labels, as json.dumps(blob, sort_keys=True, indent=2)
    writes it at that depth, with no trailing newline.  Each label is
    rendered once, and the F and labels arrays once per writer: F as the
    text of each row of pairs, which every document takes as its parts, so
    no one text of F is held beside its rows, and labels as one text; meta
    goes through json.dumps and is indented to its depth.  assemble takes
    the parts of the join and returns the document's text as a list of
    parts, in order, so a stream writes them as they are."""
    lab = [json.dumps(a) for a in labels]
    # a newline and the indent of the document's keys, of the entries of its
    # arrays, and of the labels inside an entry of F or T
    key, entry, cell = ("\n" + "  " * (level + d) for d in (1, 2, 3))
    f_rows = []
    for _, row in groupby(pairs, itemgetter(0)):
        f_rows += (",", ",".join(
            [f"{entry}[{cell}{lab[i]},{cell}{lab[j]}{entry}]" for i, j in row]
        ))
    f_array = _array(f_rows[1:], key)
    labels_array = "".join(_array([",".join(entry + a for a in lab)], key))

    def triple(i, j, k):
        return f"{entry}[{cell}{lab[i]},{cell}{lab[j]},{cell}{lab[k]}{entry}]"

    def assemble(body, meta):
        fields = (
            ("F", f_array),
            ("T", _array(body, key)),
            ("labels", [labels_array]),
            ("meta", [json.dumps(meta, sort_keys=True, indent=2).replace("\n", key)]),
            ("n", [str(len(lab))]),
        )
        parts = ["{"]
        for name, value in fields:
            parts += (key, f'"{name}": ', *value, ",")
        parts[-1] = key[:-2] + "}"
        return parts

    return partial(rep_entries, triple), ",", assemble


def _array(body, close) -> list:
    """The parts of a JSON array whose joined entries, each a newline, its
    indent and its value, are the parts of body: those between the
    brackets, the closing one after close, or "[]" when they are empty."""
    return ["[", *body, close, "]"] if any(body) else ["[]"]


def _is_int(x):
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(x, int) and not isinstance(x, bool)


def _expect(blob, key, kind, where):
    if key not in blob:
        raise ParseError(f"{where}: missing key {key!r}")
    value = blob[key]
    ok = _is_int(value) if kind is int else isinstance(value, kind)
    if not ok:
        raise ParseError(f"{where}.{key}: expected {kind.__name__}")
    return value


def parse_document(text: str, strict: bool = True) -> Document:
    """Read the document schema back; strict mode insists the triple list is
    either a full rotation closure or exactly the canonical representatives,
    while lenient mode closes anything else with a warning."""
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(
            f"line {err.lineno} column {err.colno}: {err.msg}"
        ) from None
    except RecursionError:
        raise ParseError("document: nested too deeply to read") from None
    if not isinstance(blob, dict):
        raise ParseError("top level: expected an object")
    n = _expect(blob, "n", int, "document")
    if n < 0:
        raise ParseError("document.n: negative")
    if "labels" in blob:
        labels = _expect(blob, "labels", list, "document")
        if len(labels) != n:
            raise ParseError(f"document.labels: {len(labels)} entries, n = {n}")
        if not all(_is_int(l) for l in labels):
            raise ParseError("document.labels: entries must be integers")
        if len(set(labels)) != n:
            raise ParseError("document.labels: duplicates")
    elif n > MAX_UNLABELED_N:
        raise ParseError(
            f"document.n: {n} exceeds {MAX_UNLABELED_N} without a label list"
        )
    else:
        labels = list(range(1, n + 1))
    known = set(labels)
    pairs = []
    for i, entry in enumerate(_expect(blob, "F", list, "document")):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"F[{i}]: expected a pair")
        for x in entry:
            if not _is_int(x) or x not in known:
                raise ParseError(f"F[{i}]: index {x} outside the label set")
        pairs.append(tuple(entry))
    triples = []
    for i, entry in enumerate(_expect(blob, "T", list, "document")):
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(f"T[{i}]: expected a triple")
        for x in entry:
            if not _is_int(x) or x not in known:
                raise ParseError(f"T[{i}]: index {x} outside the label set")
        triples.append(tuple(entry))
    if not isinstance(blob.get("meta", {}), dict):
        raise ParseError("document.meta: expected an object")
    T = TrianglePresentation.from_labels(labels, triples)
    listed = set(triples)
    lab = T.labels
    canonical = set(rep_entries(lambda *t: tuple(lab[x] for x in t), T.walk())) - {""}
    # every listed triple lies in the closure, so equal sizes mean equal sets
    if len(listed) != sum(map(len, T.out)) and listed != canonical:
        if strict:
            raise ParseError(
                "T: not rotation-closed and not the canonical representatives"
            )
        warnings.warn("triple list was not rotation-closed; closing it")
    F = FSet.from_labels(labels, pairs)
    return Document(F=F, T=T)


def load_document(path, strict: bool = True) -> Document:
    """Read and parse the document at path; a path that cannot be opened (a
    missing file, a directory, a path through a file) is a ParseError."""
    try:
        fh = open(path)
    except OSError as err:
        raise ParseError(str(err)) from None
    with fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ParseError(str(err)) from None
    return parse_document(text, strict=strict)
