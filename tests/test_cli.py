"""Exit codes, byte determinism, golden tables, and subcommand output."""

import gc
import hashlib
import importlib
import io
import json
import os
import pkgutil
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from label_oracle import fset_of, pairs_of, triples_of
import trigon
from trigon import autosearch, census, cli, exoticity, fgroup, oppmodel, pairset, singer
from trigon.autosearch import Automorphisms
from trigon.catalog import TABLE_TEXTS
from trigon.census import AutFull
from trigon.cli import kappa_spec_of, parse_kappa_spec, run
from trigon.documents import parse_document
from trigon.exoticity import ProbeCheckFailed
from trigon.errors import (BadCongruence, CheckFailed, DegreeMismatch, KappaSpecError,
                           NotPrime, NotPrimitive, ParseError, ReduciblePolynomial,
                           TooLarge, TwistCheckFailed, UsageError)
from trigon.fgroup import Datum
from trigon.permgrp import Perm
from trigon.singer import quad_datum, singer_datum

GOLDEN = Path(__file__).parent / "golden"

SQUARE_BLOB = {
    "n": 2, "labels": [1, 2],
    "F": [[1, 1], [1, 2], [2, 1], [2, 2]],
    "T": [[1, 1, 2], [2, 2, 2]],
    "meta": {},
}


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def transposition(n, a, b):
    """The permutation of range(n) that swaps a and b."""
    images = list(range(n))
    images[a], images[b] = b, a
    return Perm(images)


@pytest.fixture
def square_path(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE_BLOB))
    return str(path)


def test_kappa_spec_grammar():
    singer5 = singer_datum(5).signs()
    assert singer5.keys == (1, 17)
    assert parse_kappa_spec("+1", singer_datum(4).signs()) == {9: 1}
    assert parse_kappa_spec("-1", singer5) == {1: -1, 17: -1}
    assert parse_kappa_spec("1:+1;17:-1", singer5) == {1: 1, 17: -1}
    quad2 = quad_datum(2).signs()
    assert parse_kappa_spec("0,9:+;1,9:+;2,9:-", quad2) == {
        (0, 9): 1, (1, 9): 1, (2, 9): -1,
    }
    round_trip = {(0, 9): 1, (1, 9): -1, (2, 9): -1}
    assert parse_kappa_spec(kappa_spec_of(round_trip), quad2) == round_trip
    for bad in ("1", "1:+2", "x:+1", "1:+1;1:-1", "1:+1", "1:+1;0,17:-1"):
        with pytest.raises(KappaSpecError):
            parse_kappa_spec(bad, singer5)


@pytest.mark.parametrize("which", [1, 2, 3, 4, 5])
def test_tables_match_committed_golden_files(which, capsys):
    code, out, _ = invoke(capsys, ["tables", "--which", str(which)])
    assert code == 0
    assert out == (GOLDEN / f"table{which}.txt").read_text() == TABLE_TEXTS[which]


def test_identical_arguments_identical_bytes(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = invoke(capsys, ["singer", "--q", "4", "--all-kappa",
                                       "--format", "json"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_singer_default_is_all_plus_table(capsys):
    code, out, _ = invoke(capsys, ["singer", "--q", "2"])
    assert code == 0 and out == TABLE_TEXTS[3]


def test_singer_all_kappa_json_family(capsys):
    code, out, _ = invoke(capsys, ["singer", "--q", "4", "--all-kappa",
                                   "--format", "json"])
    assert code == 0
    family = json.loads(out)
    assert [doc["meta"]["kappa"] for doc in family] == ["9:+1", "9:-1"]
    for doc in family:
        parsed = parse_document(json.dumps(doc))
        assert len(triples_of(parsed.T)) == 105
        assert doc["meta"]["model"] == "singer" and doc["meta"]["q"] == 4


def test_quad_kappa_choices_reproduce_tables(capsys):
    code, out, _ = invoke(capsys, ["quad", "--q", "2"])
    assert code == 0 and out == TABLE_TEXTS[1]
    code, out, _ = invoke(
        capsys,
        ["quad", "--q", "2", "--kappa", "0,9:+1;1,9:+1;2,9:-1"],
    )
    assert code == 0 and out == TABLE_TEXTS[2]


def test_enumerate_counts_line(capsys, tmp_path):
    doc_path = tmp_path / "exquad.json"
    code, _, _ = invoke(capsys, ["quad", "--q", "2", "--format", "json",
                                 "-o", str(doc_path)])
    assert code == 0
    code, out, _ = invoke(capsys, ["enumerate", "--from-json", str(doc_path)])
    assert code == 0
    assert out == "8 presentations, 2 isomorphism classes\n"
    code, out, _ = invoke(capsys, ["classify", "--from-json", str(doc_path)])
    assert code == 0
    assert out.splitlines() == [
        "class 1: orbit size 2, stabilizer order 126",
        "class 2: orbit size 6, stabilizer order 42",
        "total: 8 presentations in 2 classes",
    ]


def test_verify_paths(capsys, square_path, tmp_path):
    code, out, _ = invoke(capsys, ["verify", "--from-json", square_path])
    assert code == 0 and out == "ok\n"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SQUARE_BLOB, "T": [[1, 1, 2]]}))
    code, out, _ = invoke(capsys, ["verify", "--from-json", str(bad)])
    assert code == 1
    assert "axiom 2 (uniqueness)" in out


def test_lenient_warning_is_one_stderr_line(tmp_path):
    """A lenient parse that closes the triple list says so in one 'trigon
    <cmd>: warning:' line, free of source paths and line numbers."""
    path = tmp_path / "open.json"
    path.write_text(json.dumps({**SQUARE_BLOB, "T": [[1, 1, 2], [1, 2, 1], [2, 2, 2]]}))
    for cmd, out in (
        ("verify", "ok\n"),
        ("enumerate", "2 presentations, 1 isomorphism classes\n"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "trigon.cli", cmd, "--from-json", str(path),
             "--lenient"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (0, out)
        assert proc.stderr == (
            f"trigon {cmd}: warning: triple list was not rotation-closed; "
            "closing it\n"
        )


def test_opp_checklist(capsys):
    code, out, _ = invoke(capsys, ["opp", "--q", "2"])
    assert code == 0
    assert out.count("pass") == 7 and "FAIL" not in out
    assert out.rstrip().endswith("zuk gap > 1/2: False")
    code, out, _ = invoke(capsys, ["opp", "--q", "5", "--check"])
    assert code == 0
    assert out.rstrip().endswith("zuk gap > 1/2: True")


@pytest.mark.parametrize("mode", [["--kappa", "+1"], ["--all-kappa"]])
def test_opp_family_without_a_folding_exits_two(capsys, mode):
    code, out, err = invoke(capsys, ["opp", "--q", "5", *mode])
    assert (code, out) == (2, "")
    assert err == "trigon opp: q = 5 is not 1 mod 3, so there is no folding\n"


@pytest.mark.parametrize("mode, other", [
    (["--all-kappa"], "--all-kappa"), (["--kappa", "+1"], "--kappa"),
], ids=["all-kappa", "kappa"])
def test_opp_check_takes_no_sign_choice(capsys, mode, other):
    """The checklist builds no presentation, so a sign choice beside
    --check is a usage error, not an option it ignores."""
    code, out, err = invoke(capsys, ["opp", "--q", "13", "--check", *mode])
    assert (code, out) == (2, "")
    assert err.endswith(
        f"trigon opp: error: argument {other}: not allowed with argument --check\n"
    )


@pytest.mark.parametrize("argv", [
    ["singer", "--q", "7"], ["quad", "--q", "2"], ["opp", "--q", "7"],
    ["exotic", "--q", "7"], ["exotic", "--q", "7", "--bounds"],
], ids=["singer", "quad", "opp", "exotic", "exotic-bounds"])
def test_an_empty_kappa_is_a_usage_error(capsys, argv):
    """--kappa "" names no choice: it is parsed like any other spec and
    refused, not read as the all-plus choice or as no --kappa at all."""
    code, out, err = invoke(capsys, [*argv, "--kappa", ""])
    assert (code, out) == (2, "")
    assert err == f"trigon {argv[0]}: item '' is not 'key:sign'\n"



def test_a_kappa_of_two_dashes_is_a_usage_error(capsys):
    """--kappa=-- passes the text '--' to the sign-spec parser, which
    refuses it in one line; argparse passed an empty list, which ended in
    a traceback."""
    code, out, err = invoke(capsys, ["singer", "--q", "7", "--kappa=--"])
    assert (code, out, err) == (2, "", "trigon singer: item '--' is not 'key:sign'\n")

def test_a_closed_pipe_ends_the_family_with_141():
    """A reader that closes stdout early stops the family with exit 141,
    as SIGPIPE would, and no traceback on stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "trigon.cli", "singer", "--q", "13", "--all-kappa"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert head.startswith(b"kappa 1:+1;")
    assert (proc.returncode, err) == (141, b"")


class CountingWriter(io.RawIOBase):
    """A raw stream that keeps what it is given and counts its write calls,
    as a file descriptor counts write(2) calls."""

    def __init__(self):
        self.calls = 0
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.calls += 1
        self.data += b
        return len(b)


def test_a_family_is_written_in_chunks(monkeypatch):
    """Under PYTHONUNBUFFERED stdout is a write-through text layer over the
    descriptor, so each text handed to it is one write(2).  The family's
    thousands of texts reach it as writes of 64 KiB or more, but for the
    last, with the bytes the benchmark's reference pins."""
    key = "singer --q 13 --all-kappa --format json"
    reference = json.loads((Path(__file__).resolve().parent.parent
                            / "perfbench" / "reference.json").read_text())
    want = reference["invocations"][key]
    raw = CountingWriter()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
        raw, encoding="utf-8", write_through=True))
    assert run(key.split()) == want["exit"] == 0
    assert len(raw.data) == want["bytes"]
    assert hashlib.sha256(raw.data).hexdigest() == want["sha256"]
    assert raw.calls <= -(-len(raw.data) // 65_536) + 1


def test_exotic_certificates_and_bounds(capsys):
    code, out, _ = invoke(capsys, ["exotic", "--q", "2", "--all-kappa",
                                   "--bounds"])
    assert code == 0
    blob = json.loads(out)
    assert blob["bounds"] == {
        "exotic_kappa_lower": -4, "qi_class_lower": "-1/12", "vacuous": True,
    }
    certs = blob["certificates"]
    assert [c["kappa"] for c in certs] == ["1:+1", "1:-1"]
    for cert in certs:
        assert cert["verdict"] == "Inconclusive" and cert["member"]
        assert cert["q0_order"] == 6 and cert["q"] == 2
    assert certs[0]["sigma_cycles"] == "(0 1 2)"


def test_exotic_q5_verdicts(capsys):
    code, out, _ = invoke(capsys, ["exotic", "--q", "5", "--all-kappa"])
    assert code == 0
    verdicts = {
        c["kappa"]: c["verdict"] for c in json.loads(out)["certificates"]
    }
    assert verdicts == {
        "1:+1;17:+1": "Inconclusive",
        "1:+1;17:-1": "Exotic",
        "1:-1;17:+1": "Exotic",
        "1:-1;17:-1": "Inconclusive",
    }



@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
@pytest.mark.parametrize("mode", [["--all-kappa"], ["--all-kappa", "--bounds"],
                                  ["--kappa", "+1"]],
                         ids=["all-kappa", "all-kappa-bounds", "kappa"])
def test_exotic_writes_one_json_dumps_text(capsys, q, mode):
    """The certificates are written as they are made, and their text is
    still that of one json.dumps of the whole document."""
    code, out, err = invoke(capsys, ["exotic", "--q", str(q), *mode])
    assert (code, err) == (0, "")
    blob = json.loads(out)
    assert out == json.dumps(blob, sort_keys=True, indent=2) + "\n"
    assert ("bounds" in blob) == ("--bounds" in mode)
    assert len(blob["certificates"]) == (
        2 ** singer.r_of_q(q) if "--all-kappa" in mode else 1)


def test_exotic_failure_part_way_keeps_the_certificates_made(capsys,
                                                             monkeypatch):
    """--all-kappa writes each certificate as it is made: the two made
    before a failed check are on stdout, and the run exits 1."""
    full = invoke(capsys, ["exotic", "--q", "5", "--all-kappa"])[1]
    made = []
    certificate = exoticity.exotic_certificate

    def third_fails(probe, kappa):
        if len(made) == 2:
            raise ProbeCheckFailed("third certificate")
        made.append(kappa)
        return certificate(probe, kappa)

    monkeypatch.setattr(exoticity, "exotic_certificate", third_fails)
    code, out, err = invoke(capsys, ["exotic", "--q", "5", "--all-kappa"])
    assert (code, err) == (1, "trigon exotic: third certificate\n")
    assert full.startswith(out) and out.count('"kappa"') == 2
    assert full[len(out):].startswith(",\n    {")

def test_graph_outputs(capsys, square_path):
    code, out, _ = invoke(capsys, ["graph", "--from-json", square_path])
    assert code == 0 and out == "1 3\n1 4\n2 3\n2 4\n"
    code, out, _ = invoke(capsys, ["graph", "--from-json", square_path,
                                   "--metrics", "--spectrum"])
    assert code == 0
    assert "girth: 4" in out and "diameter: 2" in out
    assert out.rstrip().endswith("spectrum: 0.0 1.0 1.0 2.0")
    code, out, _ = invoke(capsys, ["graph", "--from-json", square_path,
                                   "--format", "json", "--metrics"])
    blob = json.loads(out)
    assert blob["vertices"] == 4 and len(blob["edges"]) == 4
    assert blob["metrics"]["girth"] == 4 and blob["metrics"]["biregular"] == [2, 2]


def test_graph_spectrum_prints_no_negative_zero(capsys, tmp_path):
    """The Fano link graph's least eigenvalue is a LAPACK value within about
    1e-16 of 0, of either sign; it prints as 0.0 in text and in JSON."""
    code, doc, _ = invoke(capsys, ["singer", "--q", "2", "--format", "json"])
    path = tmp_path / "fano.json"
    path.write_text(doc)
    argv = ["graph", "--from-json", str(path), "--spectrum"]
    code, out, _ = invoke(capsys, argv)
    assert code == 0
    assert out.splitlines()[-1].startswith("spectrum: 0.0 0.52859548 ")
    code, out, _ = invoke(capsys, argv + ["--format", "json"])
    assert code == 0 and "-0.0" not in out
    assert '"spectrum": [\n    0.0,\n    0.52859548,' in out


@pytest.mark.parametrize(
    "blob",
    [SQUARE_BLOB, {**SQUARE_BLOB, "T": [[1, 1, 2]]}],
    ids=["square", "square-missing-a-third"],
)
@pytest.mark.parametrize(
    "command",
    [["verify"], ["enumerate"], ["classify"],
     ["graph", "--metrics", "--spectrum"], ["graph", "--format", "json"]],
    ids=["verify", "enumerate", "classify", "graph", "graph-json"],
)
def test_a_repeated_pair_is_read_once(capsys, tmp_path, blob, command):
    """A document whose F lists the pair (2, 2) twice reads as the same
    document without the repeat: same stdout, same exit code.  Without the
    third T gives (2, 2), verify names the pair once."""
    outputs = []
    for pairs in (blob["F"], blob["F"] + [[2, 2]]):
        path = tmp_path / f"{len(pairs)}.json"
        path.write_text(json.dumps({**blob, "F": pairs}))
        outputs.append(invoke(capsys, [command[0], "--from-json", str(path),
                                       *command[1:]])[:2])
    assert outputs[0] == outputs[1]


def test_export_formats(capsys, square_path):
    code, out, _ = invoke(capsys, ["export", "--from-json", square_path])
    assert code == 0
    assert out == "F := FreeGroup(2);\nG := F / [ F.1*F.1*F.2, F.2*F.2*F.2 ];\n"
    code, out, _ = invoke(capsys, ["export", "--from-json", square_path,
                                   "--format", "json"])
    assert json.loads(out) == {"n": 2, "relators": [[1, 1, 2], [2, 2, 2]]}
    code, out, _ = invoke(capsys, ["export", "--from-json", square_path,
                                   "--format", "table"])
    assert out == "(1,1,2) (1,2,1)\n(2,1,1) (2,2,2)\n"


# documents whose T is not one third per pair of F: (1, 1) with two thirds,
# and triples on pairs outside F, which close to give (2, 1) two thirds
BAD_DOCUMENTS = {
    "two-thirds": (
        {"n": 2, "F": [[1, 1], [1, 2], [2, 1], [2, 2]], "T": [[1, 1, 2], [1, 1, 1]]},
        "axiom 2 (uniqueness) violated at (1, 1)\n"
        "axiom 2 (uniqueness) violated at (2, 2)\n",
        "F := FreeGroup(2);\nG := F / [ F.1*F.1*F.1, F.1*F.1*F.2 ];\n",
        '{"n": 2, "relators": [[1, 1, 1], [1, 1, 2]]}\n',
        "(1,1,1) (1,1,2) (1,2,1)\n(2,1,1)\n",
    ),
    "outside-F": (
        {"n": 3, "F": [[1, 1], [1, 2], [2, 1]],
         "T": [[1, 1, 2], [3, 3, 3], [1, 3, 2]]},
        "axiom 1 (projection) violated at (1, 3, 2)\n"
        "axiom 1 (projection) violated at (3, 2, 1)\n"
        "axiom 1 (projection) violated at (3, 3, 3)\n"
        "axiom 2 (uniqueness) violated at (2, 1)\n",
        "F := FreeGroup(3);\nG := F / [ F.1*F.1*F.2, F.1*F.3*F.2, F.3*F.3*F.3 ];\n",
        '{"n": 3, "relators": [[1, 1, 2], [1, 3, 2], [3, 3, 3]]}\n',
        "(1,1,2) (1,2,1) (1,3,2)\n(2,1,1) (2,1,3)\n(3,2,1) (3,3,3)\n",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
def test_documents_with_a_pair_of_two_thirds(capsys, tmp_path, name):
    """verify names the violations and export writes every triple of a
    document whose T gives a pair two thirds, with exact bytes."""
    blob, violations, gap, relators, table = BAD_DOCUMENTS[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    doc = ["--from-json", str(path)]
    assert invoke(capsys, ["verify", *doc]) == (1, violations, "")
    assert invoke(capsys, ["export", *doc]) == (0, gap, "")
    assert invoke(capsys, ["export", *doc, "--format", "json"]) == (0, relators, "")
    assert invoke(capsys, ["export", *doc, "--format", "table"]) == (0, table, "")


def test_output_path_flag(capsys, tmp_path):
    target = tmp_path / "t3.txt"
    code, out, _ = invoke(capsys, ["tables", "--which", "3", "-o", str(target)])
    assert code == 0 and out == ""
    assert target.read_text() == TABLE_TEXTS[3]


@pytest.mark.parametrize(
    "argv",
    [
        ["exotic", "--q", "2"],
        ["singer", "--q", "2", "--kappa", "7:+1"],
        ["singer", "--q", "6"],
        ["opp", "--q", "3", "--kappa", "+1"],
        ["verify", "--from-json", "/no/such/file.json"],
        ["singer"],
        ["tables", "--which", "9"],
        ["singer", "--q", "2", "--kappa", "+1", "--all-kappa"],
        ["singer", "--q", "2", "--workers", "2"],
        ["enumerate", "--from-json", "{doc}", "--most-constrained"],
        ["singer", "--q", "2", "--modulus", "1,1"],
        ["singer", "--q", "2", "--modulus", "1,0,0,1"],
        ["singer", "--q", "3", "--modulus", "2,0,1,1"],
        ["verify", "--from-json", "{binary}"],
        ["singer", "--q", "2", "-o", "/no/such/dir/out.txt"],
        ["singer", "--q", "2", "-o", "{dir}"],
        ["verify", "--from-json", "{dir}"],
        ["verify", "--from-json", "{binary}/doc.json"],
    ],
)
def test_usage_errors_exit_two(capsys, square_path, tmp_path, argv):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe not utf-8")
    argv = [a.format(doc=square_path, binary=binary, dir=tmp_path) for a in argv]
    code, _, _ = invoke(capsys, argv)
    assert code == 2


@pytest.mark.parametrize("command", ["singer", "quad", "exotic"])
def test_bad_modulus_names_the_option_type(capsys, command):
    """argparse names a --modulus it cannot read by the type function, so
    the message says modulus, not a private helper's name."""
    code, out, err = invoke(capsys, [command, "--q", "2", "--modulus", "1,1,a"])
    assert (code, out) == (2, "")
    assert err.endswith(
        "error: argument --modulus: invalid modulus value: '1,1,a'\n"
    )


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["singer", "--q", "2", "-o", "{dir}"], "Is a directory"),
        (["verify", "--from-json", "{dir}"], "Is a directory"),
        (["verify", "--from-json", "{file}/doc.json"], "Not a directory"),
        (["verify", "--from-json", "{dir}/missing.json"], "No such file"),
        (["tables", "--which", "1", "-o", ""], "No such file"),
    ],
)
def test_unopenable_paths_exit_two_with_one_line(capsys, tmp_path, argv, reason):
    """An -o or --from-json path that cannot be opened is a usage error
    reported in one line, not a traceback; an empty -o path is one, not
    stdout."""
    file = tmp_path / "file.json"
    file.write_text("{}")
    argv = [a.format(dir=tmp_path, file=file) for a in argv]
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"trigon {argv[0]}: ") and err.count("\n") == 1
    assert reason in err


@pytest.mark.parametrize(
    "command", ["verify", "classify", "enumerate", "export", "graph"])
def test_deeply_nested_document_exits_two(capsys, tmp_path, command):
    """json.loads gives up on 2,000 nested arrays with a RecursionError; a
    document it cannot read is a ParseError, reported in one line."""
    path = tmp_path / "nested.json"
    path.write_text('{"n":1,"F":' + "[" * 2000 + "]" * 2000 + ',"T":[]}')
    code, out, err = invoke(capsys, [command, "--from-json", str(path)])
    assert (code, out) == (2, "")
    assert err == f"trigon {command}: document: nested too deeply to read\n"


USAGE_ERRORS = [ParseError, KappaSpecError, TooLarge, BadCongruence, NotPrime,
                ReduciblePolynomial, DegreeMismatch, NotPrimitive]


@pytest.mark.parametrize("error", USAGE_ERRORS)
def test_named_user_errors_exit_two(capsys, monkeypatch, square_path, error):
    def handler(args):
        raise error("too big")

    monkeypatch.setitem(cli._HANDLERS, "classify", handler)
    code, out, err = invoke(capsys, ["classify", "--from-json", square_path])
    assert (code, out, err) == (2, "", "trigon classify: too big\n")


def test_usage_errors_are_one_class():
    """Exit 2 is UsageError: these eight errors of the package, and only
    these, derive from it, and no failed check does."""
    classes = {
        obj
        for info in pkgutil.iter_modules(trigon.__path__)
        for obj in vars(importlib.import_module(f"trigon.{info.name}")).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
    }
    assert {c for c in classes if issubclass(c, UsageError)} == {
        UsageError, *USAGE_ERRORS}
    checks = {c for c in classes if issubclass(c, CheckFailed)}
    assert TwistCheckFailed in checks
    assert not any(issubclass(c, UsageError) for c in checks)


@pytest.mark.parametrize("command", ["classify", "enumerate"])
def test_pair_set_over_the_limit_exits_two(capsys, monkeypatch, tmp_path, command):
    """The complete digraph on 10 points has |Aut+(F)| = 10!; the guard
    stops it before the witness search and the enumeration, even with no
    presentation given."""

    def no_search(*args):
        raise AssertionError("a search started after the size guard")

    monkeypatch.setattr(census, "_exact_covers", no_search)
    monkeypatch.setattr(autosearch, "find_isomorphism", no_search)
    n = 10
    pairs = [[i, j] for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    path = tmp_path / "complete10.json"
    path.write_text(json.dumps({"n": n, "F": pairs, "T": []}))
    code, out, err = invoke(capsys, [command, "--from-json", str(path)])
    assert (code, out) == (2, "")
    assert err == (f"trigon {command}: the digraph has at least 3628800 "
                   "automorphisms, more than the limit 1000000\n")


@pytest.mark.parametrize("command", ["classify", "enumerate"])
@pytest.mark.parametrize("n, message", [
    (200, "the digraph has at least 3628800 automorphisms, more than the "
          "limit 1000000"),
    (2000, "the search path on 2000 vertices is more than 100 levels deep; "
           "the limit is 200000 levels x vertices"),
    (65536, "the search path on 65536 vertices is more than 3 levels deep; "
            "the limit is 200000 levels x vertices"),
])
def test_empty_pair_sets_exit_two_in_a_fresh_process(tmp_path, command, n,
                                                     message):
    """An empty F on n points has |Aut+(F)| = n! and a leftmost path n - 1
    levels deep.  The search refuses once the order it has found passes
    the limit, after ten levels, or once the path would pass its entry
    limit, whichever comes first; the whole group's chain took 58 s at
    n = 200, and n = 2,000 overflowed the recursion of the descent."""
    path = tmp_path / f"empty{n}.json"
    path.write_text(json.dumps({"n": n, "F": [], "T": []}))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "trigon.cli", command, "--from-json", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"trigon {command}: {message}\n"
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert cpu < 1.0


@pytest.mark.parametrize("command, model, covers, pairs", [
    ("classify", "opp", 488, 4096), ("enumerate", "singer", 430, 4641),
])
def test_covers_over_the_limit_exit_two_in_a_fresh_process(
        tmp_path, command, model, covers, pairs):
    """The q = 16 documents of opp and singer pass the |Aut+(F)| guard, but
    their compatible presentations are too many to list (2^80 for opp):
    classify grew past 1.3 GB in 30 s.  The listing stops with one line
    once it would pass the cover limit, after about a second of CPU."""
    path = tmp_path / f"{model}16.json"
    argv = [model, "--q", "16", "--kappa", "+1", "--format", "json"]
    assert run([*argv, "-o", str(path)]) == 0
    assert covers * pairs <= census._COVER_LIMIT < (covers + 1) * pairs
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "trigon.cli", command, "--from-json", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"trigon {command}: F has more than {covers} compatible presentations "
        f"of {pairs} thirds; the limit is {census._COVER_LIMIT} thirds in all\n"
    )
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert cpu < 3.0


@pytest.mark.parametrize(
    "model, q, presentations, size",
    [("quad", 4, 2**13, 4641), ("quad", 5, 2**42, 16926),
     ("singer", 25, 2**8, 16926)],
)
def test_family_over_the_limit_exits_two(capsys, monkeypatch, model, q,
                                         presentations, size):
    """quad --q 4 --all-kappa asks for 8,192 presentations, quad --q 5 for
    2^42 and singer --q 25, the first singer q refused, for 256; the guard
    reads q alone, so it refuses before the datum and its field search."""

    def no_datum(q, modulus):
        raise AssertionError("the datum was built before the size guard")

    monkeypatch.setattr(singer, "singer_datum", no_datum)
    monkeypatch.setattr(singer, "quad_datum", no_datum)
    code, out, err = invoke(capsys, [model, "--q", str(q), "--all-kappa"])
    assert (code, out) == (2, "")
    total = presentations * size
    assert total > cli._FAMILY_TRIPLE_LIMIT
    assert err == (
        f"trigon {model}: --all-kappa would build {presentations} presentations "
        f"of {size} triples, {total} triples in all; the limit is "
        f"{cli._FAMILY_TRIPLE_LIMIT}\n"
    )


@pytest.mark.parametrize("model, q", [
    *(("singer", q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)),
    *(("quad", q) for q in (2, 3, 4)),
])
def test_family_guard_from_q_counts_the_built_family(monkeypatch, model, q):
    """The keys and the presentation size that singer and quad --all-kappa
    check from q alone are those of the family the datum then builds."""
    seen = []

    def stop(keys, size):
        seen.append((keys, size))
        raise TooLarge("stop")

    monkeypatch.setattr(cli, "_check_family_size", stop)
    assert run([model, "--q", str(q), "--all-kappa"]) == 2
    family = (singer_datum if model == "singer" else quad_datum)(q).signs()
    assert seen == [(len(family.keys), family.G.n * len(family.S))]


def test_family_refuses_from_q_in_a_fresh_process():
    """quad --q 11 --all-kappa spent 3 s of CPU, most of it in the Conway
    search for GF(11^6), before the family guard read the built datum; now
    the refusal costs a start."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "trigon.cli", "quad", "--q", "11", "--all-kappa"],
        capture_output=True, text=True, timeout=60,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (proc.returncode, proc.stdout) == (2, "")
    # r(11) = 4 keys on each of the 111 cosets; 14,763 x 122 triples each
    count, size = 2 ** (4 * 111), 14763 * 122
    assert proc.stderr == (
        f"trigon quad: --all-kappa would build {count} presentations of "
        f"{size} triples, {count * size} triples in all; the limit is "
        f"{cli._FAMILY_TRIPLE_LIMIT}\n"
    )
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert cpu < 1.0


@pytest.mark.parametrize(
    "argv, m, s",
    [
        (["singer", "--q", "163"], 26733, 164),
        (["singer", "--q", "169", "--kappa", "+1"], 28731, 170),
        (["singer", "--q", "169", "--all-kappa"], 28731, 170),
        (["quad", "--q", "13", "--format", "json"], 28731, 170),
        (["exotic", "--q", "169", "--kappa", "+1"], 28731, 170),
    ],
)
def test_presentation_over_the_limit_exits_two(capsys, monkeypatch, argv, m,
                                               s):
    """singer --q 163 is the first singer q and quad --q 13 the first quad q
    whose one presentation, |G| x |S| triples, is over the family limit; the
    guard reads q alone, so it refuses before the datum and its field
    search, in every mode.  exotic builds the singer datum, so it refuses
    the same q."""

    def no_datum(q, modulus):
        raise AssertionError("the datum was built before the size guard")

    monkeypatch.setattr(singer, "singer_datum", no_datum)
    monkeypatch.setattr(singer, "quad_datum", no_datum)
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (2, "")
    assert m * s > cli._FAMILY_TRIPLE_LIMIT
    assert err == (
        f"trigon {argv[0]}: q = {argv[2]} would build presentations of "
        f"{m} x {s} = {m * s} triples; the limit is {cli._FAMILY_TRIPLE_LIMIT}\n"
    )


@pytest.mark.parametrize("argv", [["singer", "--q", "157"], ["quad", "--q", "11"],
                                  ["exotic", "--q", "157", "--kappa", "+1"]])
def test_presentation_limit_admits_the_q_below(capsys, monkeypatch, argv):
    """singer --q 157 and quad --q 11 are the largest q under the limit: the
    guard lets them, and exotic --q 157, through to the datum."""

    def reached(q, modulus):
        raise KappaSpecError(f"datum reached at q = {q}")

    monkeypatch.setattr(singer, "singer_datum", reached)
    monkeypatch.setattr(singer, "quad_datum", reached)
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"trigon {argv[0]}: datum reached at q = {argv[2]}\n"


@pytest.mark.parametrize("q, choices", [(47, 2**16), (53, 2**18), (256, 2**85)])
def test_exotic_all_kappa_over_the_limit_exits_two(capsys, monkeypatch, q,
                                                   choices):
    """The guard reads q alone, so it refuses before the datum and its
    field search (47 s for GF(2^24) at q = 256), and before the probe."""

    def no_datum(q, modulus):
        raise AssertionError("the datum was built before the size guard")

    def no_probe(d):
        raise AssertionError("the probe was built before the size guard")

    monkeypatch.setattr(singer, "singer_datum", no_datum)
    monkeypatch.setattr(exoticity, "build_probe", no_probe)
    code, out, err = invoke(capsys, ["exotic", "--q", str(q), "--all-kappa"])
    assert (code, out) == (2, "")
    assert err == (
        f"trigon exotic: --all-kappa would certify 2^{choices.bit_length() - 1} "
        f"sign choices; the limit is {cli._CERTIFICATE_LIMIT}\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["--q", "50021", "--all-kappa"],
     "--all-kappa would certify 2^16674 sign choices; the limit is 16384"),
    (["--q", "1000000007", "--all-kappa"],
     "--all-kappa would certify 2^333333336 sign choices; the limit is 16384"),
    (["--q", "1000000007", "--kappa", "+1"],
     "q = 1000000007 would build presentations of 1000000015000000057 x "
     "1000000008 = 1000000023000000177000000456 triples; the limit is 4000000"),
], ids=["all-kappa-50021", "all-kappa-1000000007", "kappa-1000000007"])
def test_exotic_refuses_a_large_q_at_once_in_a_fresh_process(argv, message):
    """The --all-kappa guard compares r(q) with the bit length of the
    limit, so neither it nor --kappa computes 2^r(q), which has more digits
    than Python converts to text at q = 50021 and takes seconds and 150 MB
    at q = 1000000007.  Each refusal is one line and takes a start's CPU
    time."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "trigon.cli", "exotic", *argv],
        capture_output=True, text=True, timeout=60,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"trigon exotic: {message}\n"
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert cpu < 1.0


def test_exotic_all_kappa_limit_admits_every_q_up_to_43():
    powers = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
              37, 41, 43, 47, 49, 53]
    admitted = [q for q in powers
                if 2 ** singer.r_of_q(q) <= cli._CERTIFICATE_LIMIT]
    assert admitted == powers[:powers.index(43) + 1]


def test_internal_value_error_is_not_a_usage_error(monkeypatch, square_path):
    def handler(args):
        raise ValueError("internal")

    monkeypatch.setitem(cli._HANDLERS, "classify", handler)
    with pytest.raises(ValueError, match="internal"):
        run(["classify", "--from-json", square_path])


@pytest.mark.parametrize(
    "broken,message",
    [
        ("neighbors", "are not the copies"),
        ("side swap", "swaps the sides"),
        ("lambda", "does not preserve its neighbors"),
    ],
)
def test_broken_probe_invariant_exits_one(capsys, monkeypatch, broken, message):
    n = 7  # points of the Fano plane; link vertices n.. are the lines
    lam = [n + s for s in singer_datum(2).S]
    other_line = min(set(range(n, 2 * n)) - set(lam))
    if broken == "neighbors":
        real_from_F = exoticity.from_F

        def from_F(F):
            link = real_from_F(F)
            adj0 = sorted(set(link.adj[0]) - {lam[0]} | {other_line})
            return pairset.LinkGraph((adj0,) + link.adj[1:])

        monkeypatch.setattr(exoticity, "from_F", from_F)
    else:
        cycle = (1, other_line) if broken == "side swap" else (lam[0], other_line)
        monkeypatch.setattr(
            exoticity, "automorphism_generators",
            lambda adj, colors: Automorphisms(
                (transposition(len(adj), *cycle),), 2),
        )
    assert not issubclass(ProbeCheckFailed, ValueError)
    code, out, err = invoke(capsys, ["exotic", "--q", "2", "--kappa", "+1"])
    assert code == 1
    assert out == ""
    assert message in err


def broken_quad(q, modulus=None):
    # 20 lies in the coset of 2; file it under the coset of 0
    d = quad_datum(q, modulus)
    index = d.H.coset_index[:20] + (0,)
    H = fgroup.SubgroupDatum(d.H.parent, d.H.members, index)
    return Datum(d.q, d.G, d.S, H, d.lam)


def test_broken_twist_axioms_exit_one(capsys, monkeypatch):
    monkeypatch.setattr(singer, "quad_datum", broken_quad)
    assert not issubclass(TwistCheckFailed, ValueError)
    code, out, err = invoke(
        capsys, ["quad", "--q", "2", "--kappa", "0,9:+1;1,9:+1;2,9:-1"]
    )
    assert code == 1
    assert out == ""
    assert "broke its axioms" in err


def test_broken_twist_part_way_keeps_the_family_written_so_far(capsys,
                                                              monkeypatch):
    """--all-kappa writes each presentation as it is built: the all-plus
    choice passes its check and is on stdout before the next one fails."""
    monkeypatch.setattr(singer, "quad_datum", broken_quad)
    code, out, err = invoke(capsys, ["quad", "--q", "2", "--all-kappa"])
    assert code == 1
    assert out == "kappa 0,9:+1;1,9:+1;2,9:+1\n" + TABLE_TEXTS[1]
    assert "broke its axioms" in err


def test_broken_folding_map_exits_one(capsys, monkeypatch):
    def broken_singer(q, modulus=None):
        d = singer_datum(q, modulus)
        return Datum(d.q, d.G, d.S, d.H, {s: s for s in d.S})

    monkeypatch.setattr(singer, "singer_datum", broken_singer)
    code, out, err = invoke(capsys, ["singer", "--q", "3"])
    assert code == 1
    assert out == ""
    assert "s*lam(s)*lam^2(s) != 1" in err


def test_disconnected_opposition_graph_fails_its_checklist(capsys, monkeypatch):
    real_F = Datum.F

    def F(self):
        full = real_F(self)
        return fset_of(full.labels, {p for p in pairs_of(full) if p[0] != 0})

    monkeypatch.setattr(Datum, "F", F)
    code, out, err = invoke(capsys, ["opp", "--check", "--q", "7"])
    assert code == 1
    assert err == ""
    assert "FAIL  connected: expected True, got False" in out
    assert "FAIL  spectral gap 1-sqrt(q)/q: expected 0.622036, got 0.000000" in out
    assert out.rstrip().endswith("zuk gap > 1/2: False")


def test_non_biregular_opposition_graph_is_an_internal_error(monkeypatch):
    """Without one degree per side the coset group cannot be transitive, so
    the exact gap raises ValueError, which is not a usage error."""
    real_F = Datum.F

    def F(self):
        full = real_F(self)
        return fset_of(full.labels, pairs_of(full) - {min(pairs_of(full))})

    monkeypatch.setattr(Datum, "F", F)
    with pytest.raises(ValueError, match="biregular bipartite"):
        run(["opp", "--check", "--q", "7"])


@pytest.mark.parametrize(
    "mode", [[], ["--check"], ["--kappa", "+1"], ["--all-kappa"]],
    ids=["default", "check", "kappa", "all-kappa"],
)
def test_opp_over_the_group_limit_exits_two(capsys, monkeypatch, mode):
    """q = 83 is the first prime power whose link graph, q^3 edges, is
    refused; the guard comes before the field, so before --all-kappa's
    family check."""

    def no_field(q):
        raise AssertionError("the field was built before the size guard")

    monkeypatch.setattr(oppmodel, "field_tables", no_field)
    monkeypatch.setattr(fgroup, "field_tables", no_field)
    assert 81 ** 3 <= oppmodel._EDGE_LIMIT < 83 ** 3
    code, out, err = invoke(capsys, ["opp", "--q", "83", *mode])
    assert (code, out) == (2, "")
    assert err == (
        "trigon opp: q = 83 would build a link graph of q^3 = 571787 "
        f"edges; the limit is {oppmodel._EDGE_LIMIT}\n"
    )


@pytest.mark.parametrize(
    "n, flags, refused",
    [(2049, ["--metrics"], True),
     (2049, ["--spectrum", "--format", "json"], True),
     (2049, [], False),
     (2048, ["--metrics", "--spectrum"], False)],
    ids=["metrics", "spectrum", "edges-only", "at-the-limit"],
)
def test_graph_measures_at_most_the_vertex_limit(capsys, monkeypatch, tmp_path,
                                                 n, flags, refused):
    """--metrics and --spectrum refuse a link graph over 4,096 vertices
    before it is built; the edge list alone is not refused."""

    class Built(Exception):
        pass

    def from_F(F):
        raise Built

    monkeypatch.setattr(pairset, "from_F", from_F)
    assert cli._GRAPH_VERTEX_LIMIT == 4096
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"n": n, "F": [], "T": [], "meta": {}}))
    argv = ["graph", "--from-json", str(path), *flags]
    if not refused:
        with pytest.raises(Built):
            run(argv)
        return
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (
        f"trigon graph: the link graph has {2 * n} vertices; --metrics and "
        "--spectrum take at most 4096\n"
    )


def test_broken_subspace_model_exits_one(capsys, monkeypatch):
    real = oppmodel._building_fset

    def building_fset(q):
        F = real(q)
        return fset_of(F.labels, pairs_of(F) - {min(pairs_of(F))})

    monkeypatch.setattr(oppmodel, "_building_fset", building_fset)
    code, out, err = invoke(capsys, ["opp", "--check", "--q", "4"])
    assert code == 1
    assert out == ""
    assert "coset model disagrees with the subspace model" in err


def test_broken_difference_set_exits_one(capsys, monkeypatch):
    real = singer._trace_zero_exponents
    monkeypatch.setattr(
        singer, "_trace_zero_exponents", lambda gf, q, m: real(gf, q, m)[:-1]
    )
    code, out, err = invoke(capsys, ["singer", "--q", "3"])
    assert code == 1
    assert out == ""
    assert "difference set size 3 != q+1" in err


@pytest.mark.parametrize("command", ["classify", "enumerate"])
def test_broken_counting_identity_exits_one(capsys, monkeypatch, tmp_path, command):
    doc_path = tmp_path / "exquad.json"
    assert run(["quad", "--q", "2", "--format", "json", "-o", str(doc_path)]) == 0
    trivial = AutFull(generators=(), order=1, witness=None)
    real = census._orbit_stabilizer
    monkeypatch.setattr(
        census, "_orbit_stabilizer",
        lambda F, thirds, full: (real(F, thirds, full)[0], trivial),
    )
    code, out, err = invoke(capsys, [command, "--from-json", str(doc_path)])
    assert code == 1
    assert out == ""
    assert "is not orbit size 2 times stabilizer order 1" in err


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "trigon.cli", "tables", "--which", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == TABLE_TEXTS[4]


@pytest.mark.parametrize(
    "argv, code, out, err",
    [(["tables", "--which", "4"], 0, TABLE_TEXTS[4], ""),
     (["verify", "--from-json", "{bad}"], 1,
      "axiom 2 (uniqueness) violated at (2, 2)\n", ""),
     (["singer", "--q", "6"], 2, "", "trigon singer: 6 is not a prime power\n")],
    ids=["ok", "failed-check", "usage"],
)
def test_main_exits_with_the_collector_frozen(tmp_path, argv, code, out, err):
    """main freezes the collector after run has written the output and
    before the exit, so an atexit hook sees a frozen generation; the exit
    still runs the hooks, flushes stdout and keeps run's exit code."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SQUARE_BLOB, "T": [[1, 1, 2]]}))
    argv = [a.format(bad=bad) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import atexit, gc, sys, trigon.cli; "
         "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, "
         "file=sys.stderr)); "
         f"sys.argv = ['trigon', *{argv!r}]; trigon.cli.main()"],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, out, err + "frozen True\n")


def test_run_leaves_the_collector_unfrozen(capsys):
    """Tests and the benchmark's tracer call run in a process that goes on,
    which would keep every object a freeze there left behind."""
    before = gc.get_freeze_count()
    code, out, _ = invoke(capsys, ["tables", "--which", "4"])
    assert (code, out) == (0, TABLE_TEXTS[4])
    assert gc.get_freeze_count() == before


def test_start_up_leaves_numpy_out():
    """Only linkgraph's spectrum functions use numpy, and they import it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, trigon.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")


@pytest.mark.parametrize(
    "argv, loaded",
    [(["opp", "--check", "--q", "9"], False),
     (["graph", "--from-json", "{doc}", "--spectrum"], True)],
    ids=["opp-check", "graph-spectrum"],
)
def test_only_the_spectrum_loads_numpy(square_path, argv, loaded):
    """opp --check takes its gap from exact integers; graph --spectrum is
    the one command that reads numpy."""
    argv = [a.format(doc=square_path) for a in argv] + ["-o", os.devnull]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from trigon.cli import run; "
         f"code = run({argv!r}); print(code, 'numpy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, f"0 {loaded}\n")


SYMMETRY = {"trigon.autosearch", "trigon.permgrp"}
CONSTRUCTIONS = {"trigon.exoticity", "trigon.oppmodel", "trigon.singer"}
MODULES = {
    f"trigon.{path.stem}"
    for path in Path(cli.__file__).parent.glob("*.py")
    if path.stem != "__init__"
}
# the modules import trigon.cli loads, pinned: its top imports only the
# standard library and the errors that run maps to exit codes
IMPORT = {"trigon.cli", "trigon.errors"}
# the modules a family writer loads, pinned: a writer pulls in no other
JSON_FAMILY = {"trigon.cli", "trigon.documents", "trigon.errors", "trigon.ffield",
               "trigon.fgroup", "trigon.pairset", "trigon.record",
               "trigon.singer", "trigon.tripres"}
GAP_FAMILY = {"trigon.cli", "trigon.errors", "trigon.ffield", "trigon.fgroup",
              "trigon.grouptools", "trigon.oppmodel", "trigon.pairset",
              "trigon.record", "trigon.tripres"}
# standard modules no command loads: dataclasses brings inspect, ast, dis
# and tokenize, and argparse brings gettext and, once a parser is built,
# locale.  fractions, with decimal, is for exotic --bounds only
NEVER = {"argparse", "dataclasses", "gettext", "locale"}


@pytest.mark.parametrize(
    "argv, absent",
    [(None, NEVER | {"fractions"} | MODULES - IMPORT),
     (["opp", "--check", "--q", "9"],
      SYMMETRY | NEVER
      | {"fractions", "trigon.catalog", "trigon.census", "trigon.exoticity",
         "trigon.grouptools", "trigon.singer", "trigon.tripres"}),
     (["singer", "--q", "7", "--all-kappa"],
      SYMMETRY | NEVER
      | {"trigon.census", "trigon.exoticity", "trigon.grouptools",
         "trigon.linkgraph", "trigon.oppmodel", "trigon.documents"}),
     (["singer", "--q", "7", "--kappa", "+1"],
      SYMMETRY | NEVER
      | {"trigon.census", "trigon.exoticity", "trigon.grouptools",
         "trigon.linkgraph", "trigon.oppmodel", "trigon.documents"}),
     (["singer", "--q", "7", "--kappa", "-1", "--format", "json"],
      SYMMETRY | NEVER
      | {"trigon.census", "trigon.exoticity", "trigon.grouptools",
         "trigon.linkgraph", "trigon.oppmodel"}),
     (["export", "--from-json", "{doc}", "--format", "gap"],
      CONSTRUCTIONS | SYMMETRY | NEVER
      | {"trigon.catalog", "trigon.ffield", "trigon.fgroup"}),
     (["classify", "--from-json", "{doc}"],
      CONSTRUCTIONS | NEVER
      | {"trigon.ffield", "trigon.fgroup", "trigon.grouptools",
         "trigon.linkgraph"}),
     (["exotic", "--q", "7", "--kappa", "+1"],
      NEVER | {"fractions", "trigon.catalog", "trigon.census", "trigon.documents",
               "trigon.grouptools", "trigon.linkgraph", "trigon.oppmodel",
               "trigon.tripres"}),
     (["quad", "--q", "2", "--all-kappa", "--format", "json"],
      NEVER | MODULES - JSON_FAMILY),
     (["opp", "--q", "7", "--all-kappa", "--format", "gap"],
      NEVER | MODULES - GAP_FAMILY),
     (["tables", "--which", "3"],
      NEVER | MODULES - IMPORT - {"trigon.catalog"})],
    ids=["import", "opp-check", "singer-all-kappa", "singer-kappa-table",
         "singer-kappa-json", "export-gap", "classify", "exotic",
         "quad-all-kappa-json", "opp-all-kappa-gap", "tables"],
)
def test_each_command_imports_only_what_it_runs(square_path, argv, absent):
    """The cli handlers, census, linkgraph and oppmodel import the modules
    they run, so a command does not compile the symmetry search, the graph
    measurements or a construction it never calls, nor a standard module it
    does not need; this is what a fresh process holds after the command."""
    run_code = "0"
    if argv is not None:
        argv = [a.format(doc=square_path) for a in argv] + ["-o", os.devnull]
        run_code = f"trigon.cli.run({argv!r})"
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, trigon.cli; code = {run_code}; "
         "print(code, *sorted(sys.modules))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    assert "trigon.cli" in loaded
    assert sorted(absent & set(loaded)) == []


def test_which_choices_are_the_catalog_tables():
    """tables --which lists its choices as a literal, so that the parser
    does not load catalog; they must be the catalog's keys."""
    which = next(o for o in cli._COMMANDS["tables"][1] if o[1] == "which")
    assert list(which[3]) == sorted(TABLE_TEXTS)


@pytest.mark.parametrize("q, code", [(42853, 0), (42859, 2)])
def test_bounds_limit_in_a_fresh_process(q, code):
    """--bounds writes 2^r(q) - e(q-1)q(q+1) in full; r(42853) = 14284 is the
    last r whose 2^r Python converts to text by default, and r(42859) =
    14286 is refused with one line, not a conversion traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "trigon.cli", "exotic", "--q", str(q), "--bounds"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code
    if code == 0:
        bounds = json.loads(proc.stdout)["bounds"]
        assert bounds["exotic_kappa_lower"] == 2 ** 14284 - 42852 * 42853 * 42854
        assert proc.stderr == ""
    else:
        assert proc.stdout == ""
        assert proc.stderr == (
            "trigon exotic: --bounds at q = 42859 would write 2^14286; the "
            "limit is 2^14284, 4,300 digits\n"
        )


def test_opp_group_limit_in_a_fresh_process():
    """q = 128 would build a link graph of 2,097,152 edges; the guard exits
    before the field is made."""
    proc = subprocess.run(
        [sys.executable, "-m", "trigon.cli", "opp", "--check", "--q", "128"],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "trigon opp: q = 128 would build a link graph of q^3 = 2097152 "
        "edges; the limit is 531441\n"
    )
