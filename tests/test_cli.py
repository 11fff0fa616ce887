"""Exit codes, byte determinism, golden tables, and subcommand output."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from trigon import cli, exoticity, fgroup, linkgraph, oppmodel, singer, tripres
from trigon.catalog import TABLE_TEXTS
from trigon.cli import KappaSpecError, kappa_spec_of, parse_kappa_spec, run
from trigon.documents import parse_document
from trigon.exoticity import ProbeCheckFailed
from trigon.ffield import DegreeMismatch, NotPrime, ReduciblePolynomial
from trigon.fgroup import Datum
from trigon.linkgraph import AutFull, FSet
from trigon.permgrp import Perm, bsgs_build
from trigon.singer import quad_datum, singer_datum
from trigon.tripres import BadCongruence, TooLarge, TwistCheckFailed

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
        assert len(parsed.T.triples) == 105
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


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["singer", "--q", "2", "-o", "{dir}"], "Is a directory"),
        (["verify", "--from-json", "{dir}"], "Is a directory"),
        (["verify", "--from-json", "{file}/doc.json"], "Not a directory"),
        (["verify", "--from-json", "{dir}/missing.json"], "No such file"),
    ],
)
def test_unopenable_paths_exit_two_with_one_line(capsys, tmp_path, argv, reason):
    """An -o or --from-json path that cannot be opened is a usage error
    reported in one line, not a traceback."""
    file = tmp_path / "file.json"
    file.write_text("{}")
    argv = [a.format(dir=tmp_path, file=file) for a in argv]
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"trigon {argv[0]}: ") and err.count("\n") == 1
    assert reason in err


@pytest.mark.parametrize(
    "error",
    [NotPrime, ReduciblePolynomial, DegreeMismatch, TooLarge, BadCongruence],
)
def test_named_user_errors_exit_two(capsys, monkeypatch, square_path, error):
    def handler(args):
        raise error("too big")

    monkeypatch.setitem(cli._HANDLERS, "classify", handler)
    code, out, err = invoke(capsys, ["classify", "--from-json", square_path])
    assert (code, out, err) == (2, "", "trigon classify: too big\n")


@pytest.mark.parametrize("command", ["classify", "enumerate"])
def test_pair_set_over_the_limit_exits_two(capsys, monkeypatch, tmp_path, command):
    """The complete digraph on 10 points has |Aut+(F)| = 10!; the guard
    stops it before the enumeration, even with no presentation given."""

    def no_search(F):
        raise AssertionError("the enumeration started before the size guard")

    monkeypatch.setattr(tripres, "_exact_covers", no_search)
    n = 10
    pairs = [[i, j] for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    path = tmp_path / "complete10.json"
    path.write_text(json.dumps({"n": n, "F": pairs, "T": []}))
    code, out, err = invoke(capsys, [command, "--from-json", str(path)])
    assert (code, out) == (2, "")
    assert err == f"trigon {command}: |Aut+(F)| = 3628800 exceeds 1000000\n"


@pytest.mark.parametrize(
    "q, presentations, size", [(4, 2**13, 4641), (5, 2**42, 16926)]
)
def test_family_over_the_limit_exits_two(capsys, monkeypatch, q, presentations,
                                         size):
    """quad --q 4 --all-kappa asks for 8,192 presentations and quad --q 5
    for 2^42; the guard refuses both before the first build."""

    def no_build(self, kappa):
        raise AssertionError("a presentation was built before the size guard")

    monkeypatch.setattr(fgroup.SignFamily, "build", no_build)
    code, out, err = invoke(capsys, ["quad", "--q", str(q), "--all-kappa"])
    assert (code, out) == (2, "")
    total = presentations * size
    assert total > cli._FAMILY_TRIPLE_LIMIT
    assert err == (
        f"trigon quad: --all-kappa would build {presentations} presentations "
        f"of {size} triples, {total} triples in all; the limit is "
        f"{cli._FAMILY_TRIPLE_LIMIT}\n"
    )


@pytest.mark.parametrize(
    "argv, m, s",
    [
        (["singer", "--q", "163"], 26733, 164),
        (["singer", "--q", "169", "--kappa", "+1"], 28731, 170),
        (["singer", "--q", "169", "--all-kappa"], 28731, 170),
        (["quad", "--q", "13", "--format", "json"], 28731, 170),
    ],
)
def test_presentation_over_the_limit_exits_two(capsys, monkeypatch, argv, m,
                                               s):
    """singer --q 163 is the first singer q and quad --q 13 the first quad q
    whose one presentation, |G| x |S| triples, is over the family limit; the
    guard reads q alone, so it refuses before the datum and its field
    search, in every mode."""

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


@pytest.mark.parametrize("argv", [["singer", "--q", "157"], ["quad", "--q", "11"]])
def test_presentation_limit_admits_the_q_below(capsys, monkeypatch, argv):
    """singer --q 157 and quad --q 11 are the largest q under the limit: the
    guard lets them through to the datum."""

    def reached(q, modulus):
        raise KappaSpecError(f"datum reached at q = {q}")

    monkeypatch.setattr(singer, "singer_datum", reached)
    monkeypatch.setattr(singer, "quad_datum", reached)
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"trigon {argv[0]}: datum reached at q = {argv[2]}\n"


@pytest.mark.parametrize("q, choices", [(47, 2**16), (53, 2**18)])
def test_exotic_all_kappa_over_the_limit_exits_two(capsys, monkeypatch, q,
                                                   choices):
    """The guard refuses before the probe is built."""

    def no_probe(d):
        raise AssertionError("the probe was built before the size guard")

    monkeypatch.setattr(exoticity, "build_probe", no_probe)
    code, out, err = invoke(capsys, ["exotic", "--q", str(q), "--all-kappa"])
    assert (code, out) == (2, "")
    assert err == (
        f"trigon exotic: --all-kappa would certify {choices} sign choices; "
        f"the limit is {cli._CERTIFICATE_LIMIT}\n"
    )


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
            return replace(link, adj=(adj0,) + link.adj[1:])

        monkeypatch.setattr(exoticity, "from_F", from_F)
    else:
        cycle = (1, other_line) if broken == "side swap" else (lam[0], other_line)
        monkeypatch.setattr(
            exoticity, "automorphism_generators",
            lambda adj, colors: [Perm.from_cycles(len(adj), [cycle])],
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
    return replace(d, H=replace(d.H, coset_index=index))


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
        return replace(d, lam={s: s for s in d.S})

    monkeypatch.setattr(singer, "singer_datum", broken_singer)
    code, out, err = invoke(capsys, ["singer", "--q", "3"])
    assert code == 1
    assert out == ""
    assert "s*lam(s)*lam^2(s) != 1" in err


def test_disconnected_opposition_graph_fails_its_checklist(capsys, monkeypatch):
    real_F = Datum.F

    def F(self):
        full = real_F(self)
        return FSet(full.labels, frozenset(p for p in full.pairs if p[0] != 0))

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
        return FSet(full.labels, full.pairs - {min(full.pairs)})

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

    def no_field(p, e):
        raise AssertionError("the field was built before the size guard")

    monkeypatch.setattr(oppmodel, "make_field", no_field)
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

    monkeypatch.setattr(linkgraph, "from_F", from_F)
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
        return FSet(F.labels, F.pairs - {min(F.pairs)})

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
    trivial = AutFull(plus=bsgs_build(21, []), witness=None)
    real = tripres._orbit_stabilizer
    monkeypatch.setattr(
        tripres, "_orbit_stabilizer",
        lambda ptrip, full: (real(ptrip, full)[0], trivial),
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
# the modules a family writer loads, pinned: a writer pulls in no other
JSON_FAMILY = {"trigon.catalog", "trigon.cli", "trigon.documents", "trigon.ffield",
               "trigon.fgroup", "trigon.linkgraph", "trigon.singer",
               "trigon.tripres"}
GAP_FAMILY = {"trigon.catalog", "trigon.cli", "trigon.ffield", "trigon.fgroup",
              "trigon.grouptools", "trigon.linkgraph", "trigon.oppmodel",
              "trigon.tripres"}


@pytest.mark.parametrize(
    "argv, absent",
    [(None, SYMMETRY | CONSTRUCTIONS | {"trigon.documents", "trigon.fgroup",
                                        "trigon.grouptools"}),
     (["opp", "--check", "--q", "9"],
      SYMMETRY | {"trigon.exoticity", "trigon.grouptools", "trigon.singer"}),
     (["singer", "--q", "7", "--all-kappa"],
      SYMMETRY | {"trigon.exoticity", "trigon.grouptools", "trigon.oppmodel",
                  "trigon.documents"}),
     (["classify", "--from-json", "{doc}"],
      CONSTRUCTIONS | {"trigon.grouptools", "trigon.fgroup"}),
     (["exotic", "--q", "7", "--kappa", "+1"],
      {"trigon.documents", "trigon.grouptools", "trigon.oppmodel"}),
     (["quad", "--q", "2", "--all-kappa", "--format", "json"],
      MODULES - JSON_FAMILY),
     (["opp", "--q", "7", "--all-kappa", "--format", "gap"],
      MODULES - GAP_FAMILY)],
    ids=["import", "opp-check", "singer-all-kappa", "classify", "exotic",
         "quad-all-kappa-json", "opp-all-kappa-gap"],
)
def test_each_command_imports_only_what_it_runs(square_path, argv, absent):
    """The cli handlers and linkgraph import the modules they run, so a
    command does not compile the symmetry search or a construction it never
    calls; this is what a fresh process holds after the command."""
    run_code = "0"
    if argv is not None:
        argv = [a.format(doc=square_path) for a in argv] + ["-o", os.devnull]
        run_code = f"trigon.cli.run({argv!r})"
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, trigon.cli; code = {run_code}; "
         "print(code, *sorted(m for m in sys.modules if m.startswith('trigon.')))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    assert "trigon.cli" in loaded
    assert sorted(absent & set(loaded)) == []


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
