"""The label boundary of the position-indexed core: documents, tables,
exports and verify's violation data against the label-level oracle, and the
document commands on one label list against another, on label lists that
are not range(n)."""

import json
import random

import pytest
import label_oracle as oracle

from trigon.catalog import table
from trigon.cli import kappa_spec_of, run
from trigon.documents import Document, dump_document, parse_document
from trigon.grouptools import export_presentation
from trigon.linkgraph import FSet
from trigon.oppmodel import opp_datum
from trigon.singer import quad_datum, singer_datum
from trigon.tripres import TrianglePresentation, format_table, verify


def first_choice(datum):
    signs = datum.signs()
    return signs.build(next(signs.choices()))


def broken_singer_q2():
    """The all-plus q = 2 presentation with one triple dropped, so one
    rotation loses its successor and one pair its third, plus a triple on
    a pair outside F and a second third for one pair of F, which stays
    broken when a document closes the set."""
    t = first_choice(singer_datum(2))
    i, j, k = sorted(t.triples)[1]
    kept = sorted(t.triples)[1:] + [(0, 0, 0), (i, j, (k + 1) % 7)]
    return TrianglePresentation(t.labels, frozenset(kept))


PRESENTATIONS = {
    "square": lambda: TrianglePresentation.from_labels(
        (1, 2), [(1, 1, 2), (2, 2, 2)]
    ),
    "table 4": lambda: table(4),
    "table 5": lambda: table(5),
    "singer q=3 kappa -1": lambda: singer_datum(3).signs().build({1: -1}),
    "quad q=2 mixed": lambda: quad_datum(2).signs().build(
        {(0, 9): 1, (1, 9): 1, (2, 9): -1}
    ),
    "opp q=4": lambda: first_choice(opp_datum(4)),
    "broken singer q=2": broken_singer_q2,
}

PAIR_SETS = {"broken singer q=2": lambda: singer_datum(2).F()}


def label_lists(n):
    shuffled = random.Random(n).sample(range(3 * n + 1), n)
    return {"one-based": list(range(1, n + 1)), "shuffled": shuffled}


def cases():
    for name in sorted(PRESENTATIONS):
        for kind in ("one-based", "shuffled"):
            yield pytest.param(name, kind, id=f"{name}-{kind}")


def case(name, kind):
    """(F, T) over the chosen label list; F is the presentation's own pair
    set unless the presentation is broken on purpose."""
    base = PRESENTATIONS[name]()
    labels = label_lists(base.n)[kind]
    T = oracle.relabel(base, labels)
    if name in PAIR_SETS:
        pairs = PAIR_SETS[name]().pairs
        F = FSet.from_labels(labels, [(labels[i], labels[j]) for i, j in pairs])
    else:
        F = oracle.project_F(T)
    return F, T


@pytest.mark.parametrize("name, kind", cases())
def test_writers_match_label_level_code(name, kind):
    F, T = case(name, kind)
    if kind == "shuffled":
        assert list(T.labels) != sorted(T.labels)
    meta = {"case": name}
    assert dump_document(Document(F=F, T=T, meta=meta)) == oracle.dump_document(
        F, T, meta
    )
    assert format_table(T) == oracle.format_table(T)
    for fmt in ("gap", "json"):
        assert export_presentation(T, fmt) == oracle.export_presentation(T, fmt)


@pytest.mark.parametrize("name, kind", cases())
def test_violation_data_matches_label_level_code(name, kind):
    F, T = case(name, kind)
    got = verify(F, T)
    assert got == oracle.verify(F, T)
    assert bool(got) == (name in PAIR_SETS)
    if got:
        assert {v.axiom for v in got} == {1, 2, 3}


@pytest.mark.parametrize("name, kind", cases())
def test_documents_parse_back_to_positions(name, kind):
    F, T = case(name, kind)
    doc = parse_document(dump_document(Document(F=F, T=T, meta={})))
    assert doc.F == F and doc.labels == T.labels
    closed = TrianglePresentation.from_labels(T.labels, oracle.label_triples(T))
    assert doc.T == closed


def write_document(tmp_path, name, kind):
    F, T = case(name, kind)
    path = tmp_path / f"{kind}.json"
    path.write_text(dump_document(Document(F=F, T=T, meta={"case": name})))
    return path


LABEL_FREE_COMMANDS = [
    ["graph"],
    ["graph", "--metrics"],
    ["graph", "--format", "json", "--metrics"],
    ["enumerate"],
    ["classify"],
]


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_label_free_commands_ignore_the_label_list(tmp_path, capsys, name):
    """Commands that print no label give the same exit code and stdout on
    the document over labels 1..n and over a shuffled label list."""
    paths = [
        write_document(tmp_path, name, kind) for kind in ("one-based", "shuffled")
    ]
    for args in LABEL_FREE_COMMANDS:
        seen = []
        for path in paths:
            code = run(args + ["--from-json", str(path)])
            seen.append((code, capsys.readouterr().out))
        assert seen[0] == seen[1], args


AXIOM_NAMES = {1: "projection", 2: "uniqueness", 3: "rotation"}


@pytest.mark.parametrize("name, kind", cases())
def test_verify_command_prints_the_oracle_violations(tmp_path, capsys, name, kind):
    """verify --from-json prints the label oracle's violations of the parsed
    document, in labels."""
    path = write_document(tmp_path, name, kind)
    doc = parse_document(path.read_text())
    want = oracle.verify(doc.F, doc.T)
    assert bool(want) == (name in PAIR_SETS)
    if want:
        assert {v.axiom for v in want} >= {1, 2}
    text = "".join(
        f"axiom {v.axiom} ({AXIOM_NAMES[v.axiom]}) violated at {v.data}\n"
        for v in want
    )
    assert run(["verify", "--from-json", str(path)]) == (1 if want else 0)
    assert capsys.readouterr().out == (text or "ok\n")


FAMILIES = [
    ("singer", 2, singer_datum),
    ("singer", 3, singer_datum),
    ("singer", 4, singer_datum),
    ("quad", 2, quad_datum),
    ("opp", 4, opp_datum),
    ("opp", 7, opp_datum),
]


@pytest.mark.parametrize(
    "model, q, datum", FAMILIES, ids=[f"{m}-q{q}" for m, q, _ in FAMILIES]
)
def test_family_json_matches_document_round_trip(capsys, model, q, datum):
    """The family JSON equals each document dumped by the label-level code,
    loaded, and written again as one array."""
    signs = datum(q).signs()
    blobs = []
    for kappa in signs.choices():
        T = signs.build(kappa)
        meta = {"model": model, "q": q, "kappa": kappa_spec_of(kappa)}
        blobs.append(json.loads(oracle.dump_document(oracle.project_F(T), T, meta)))
    blobs.sort(key=lambda b: b["meta"]["kappa"])
    want = json.dumps(blobs, sort_keys=True, indent=2) + "\n"
    assert run([model, "--q", str(q), "--all-kappa", "--format", "json"]) == 0
    assert capsys.readouterr().out == want
    spec = blobs[-1]["meta"]["kappa"]
    assert run([model, "--q", str(q), "--kappa", spec, "--format", "json"]) == 0
    one = json.dumps(blobs[-1], sort_keys=True, indent=2) + "\n"
    assert capsys.readouterr().out == one
