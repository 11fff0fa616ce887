"""The label boundary of the position-indexed core: documents, tables,
exports and verify's violation data against the label-level oracle, and the
document commands on one label list against another, on label lists that
are not range(n).  Also FSet's out-lists against the pair-set oracle: the
link graph, rho, the enumeration and verify on random pair sets, and the
pair sets the constructions build."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import label_oracle as oracle

from trigon.cli import kappa_spec_of, present, run
from trigon.documents import parse_document
from trigon.grouptools import export_presentation
from trigon.oppmodel import _building_fset, opp_datum
from trigon.pairset import apply_rho, from_F
from trigon.singer import quad_datum, singer_datum
from trigon.tripres import TrianglePresentation, verify


def first_choice(datum):
    signs = datum.signs()
    return signs.build(next(signs.choices()))


def broken_singer_q2():
    """The all-plus q = 2 presentation with one triple dropped, so one
    rotation loses its successor and one pair its third, plus a triple on
    a pair outside F and a second third for one pair of F, which stays
    broken when a document closes the set."""
    t = first_choice(singer_datum(2))
    i, j, k = sorted(oracle.triples_of(t))[1]
    kept = sorted(oracle.triples_of(t))[1:] + [(0, 0, 0), (i, j, (k + 1) % 7)]
    return oracle.presentation_of(t.labels, kept)


PRESENTATIONS = {
    "square": lambda: TrianglePresentation.from_labels(
        (1, 2), [(1, 1, 2), (2, 2, 2)]
    ),
    "table 4": lambda: oracle.table(4),
    "table 5": lambda: oracle.table(5),
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
    set and T is rotation-closed unless the presentation is broken on
    purpose."""
    base = PRESENTATIONS[name]()
    labels = label_lists(base.n)[kind]
    T = oracle.relabel(base, labels)
    if name in PAIR_SETS:
        F = oracle.fset_of(labels, oracle.pairs_of(PAIR_SETS[name]()))
    else:
        F = oracle.project_F(T)
    return F, T


# meta values whose JSON text the document writer must leave as json writes
# it: escaped non-ASCII text, floats, null, booleans, nesting, empty objects
METAS = [
    {},
    {
        "text": "\u03ba = -1, gr\u00fc\u00dfe \u2603",
        "float": 0.1,
        "tiny": -2.5e-07,
        "none": None,
        "flags": [True, False],
        "nested": [1, [2.5, {"k": [None]}], {}, []],
        "dict": {"b": {"a": {}}, "A": "x"},
        "empty": {},
    },
]


def closure(T):
    """T closed by rotation, as a document holds it."""
    return TrianglePresentation.from_labels(T.labels, oracle.label_triples(T))


# presentations whose rows the presenter must join right, each with the
# label triples its document lists: none, an empty row between two others,
# and a pair with two thirds, listed neither closed nor as the canonical
# representatives, so that only --lenient reads it
ROW_CASES = {
    "empty": ((), []),
    "empty row": ((5, 9, 2), [(5, 5, 5), (2, 2, 2)]),
    "two thirds": ((1, 2), [(1, 1, 2), (1, 2, 1), (1, 1, 1), (2, 2, 2)]),
}


@pytest.mark.parametrize(
    "name, kind",
    [*cases(), *(pytest.param(name, "one-based", id=name) for name in ROW_CASES)],
)
def test_writers_match_label_level_code(tmp_path, capsys, name, kind):
    """The writers on rotation-closed presentations, the only ones a
    document or a construction gives them, against the label-level code,
    and export on the presentation's document."""
    if name in ROW_CASES:
        labels, listed = ROW_CASES[name]
        T = TrianglePresentation.from_labels(labels, listed)
    else:
        T = case(name, kind)[1]
        if name in PAIR_SETS:
            T = closure(T)
    F = oracle.project_F(T)
    if kind == "shuffled":
        assert list(T.labels) != sorted(T.labels)
    # labels are never the positions, so a writer that skips the label
    # lookup fails
    assert T.n == 0 or list(T.labels) != list(range(T.n))
    for meta in [{"case": name}, *METAS]:
        assert "".join(present(T, meta, "json")) == oracle.dump_document(F, T, meta)
    assert "".join(present(T, None, "table")) == oracle.format_table(T)
    assert "".join(present(T, None, "gap")) == oracle.export_presentation(T, "gap")
    assert export_presentation(T) == oracle.export_presentation(T, "json")
    blob = json.loads(oracle.dump_document(F, T, {"case": name}))
    if name in ROW_CASES:
        blob["T"] = [list(t) for t in ROW_CASES[name][1]]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(blob))
    lenient = ["--lenient"] if name == "two thirds" else []
    if lenient:
        assert run(["export", "--from-json", str(path)]) == 2
        capsys.readouterr()
    for fmt in ("table", "gap", "json"):
        assert run(["export", "--from-json", str(path), "--format", fmt, *lenient]) == 0
        want = oracle.format_table(T) if fmt == "table" else (
            oracle.export_presentation(T, fmt))
        assert capsys.readouterr().out == want


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
    doc = parse_document(oracle.dump_document(F, T, {}))
    assert doc.F == F and doc.T.labels == T.labels
    closed = closure(T)
    assert doc.T == closed
    own = parse_document("".join(present(closed, {}, "json")))
    assert own.F == oracle.project_F(closed) and own.T == closed


def write_document(tmp_path, name, kind):
    F, T = case(name, kind)
    path = tmp_path / f"{kind}.json"
    path.write_text(oracle.dump_document(F, T, {"case": name}))
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


BENCHMARK_FAMILIES = [
    ("singer", 13, singer_datum),
    ("quad", 3, quad_datum),
    ("opp", 13, opp_datum),
]


@pytest.mark.parametrize(
    "model, q, datum",
    FAMILIES + BENCHMARK_FAMILIES,
    ids=[f"{m}-q{q}" for m, q, _ in FAMILIES + BENCHMARK_FAMILIES],
)
def test_sign_choices_come_in_sorted_spec_order(model, q, datum):
    """--all-kappa writes each presentation as it is built, in the order of
    choices(), and promises sorted spec order."""
    specs = [kappa_spec_of(k) for k in datum(q).signs().choices()]
    assert specs == sorted(specs)


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


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_out_lists_match_the_pair_set_oracle(data):
    """from_F, apply_rho, the census's covers and verify against the pair-set
    oracle on up to 6 points.  F is the pairs of random triples plus random
    pairs, so that it often admits presentations; T is those triples'
    rotations with some dropped, plus stray triples."""
    n = data.draw(st.integers(min_value=1, max_value=6))
    point = st.integers(min_value=0, max_value=n - 1)
    seeds = data.draw(st.lists(st.tuples(point, point, point), max_size=8))
    closed = {r for i, j, k in seeds for r in ((i, j, k), (j, k, i), (k, i, j))}
    extra = data.draw(st.sets(st.tuples(point, point), max_size=2 * n))
    pairs = {(i, j) for i, j, _ in closed} | extra
    F = oracle.fset_of(range(10, 10 + n), pairs)
    assert oracle.pairs_of(F) == pairs
    assert all(js == sorted(set(js)) for js in F.out)
    assert from_F(F).adj == oracle.from_F(F).adj
    assert apply_rho(F) == oracle.transpose(F)
    assert [oracle.triples_of(t) for t in oracle.presentations(F)] == [
        oracle.triples_of(t) for t in oracle.exact_covers(F)
    ]
    dropped = data.draw(st.sets(st.sampled_from(sorted(closed)), max_size=2)
                        if closed else st.just(set()))
    stray = data.draw(st.sets(st.tuples(point, point, point), max_size=2))
    T = oracle.presentation_of(F.labels, closed - dropped | stray)
    assert verify(F, T) == oracle.verify(F, T)


@pytest.mark.parametrize(
    "make",
    [lambda: singer_datum(3).F(), lambda: quad_datum(2).F(),
     lambda: opp_datum(5).F(), lambda: _building_fset(3)],
    ids=["singer q=3", "quad q=2", "opp q=5", "building q=3"],
)
def test_built_out_lists_match_the_pair_set_oracle(make):
    """The out-lists the builders emit are sorted with no repeats, and give
    the link graph and rho of their pair sets."""
    F = make()
    assert all(js == sorted(set(js)) for js in F.out)
    assert F == oracle.fset_of(F.labels, oracle.pairs_of(F))
    assert from_F(F).adj == oracle.from_F(F).adj
    assert apply_rho(F) == oracle.transpose(F)
