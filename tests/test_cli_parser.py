"""trigon.cli reads argv against its table of commands as argparse read the
parser it replaced: cli_oracle builds that parser, and every generated argv
must give the same exit code, the same namespace on success and the same
last stderr line on an error."""

import argparse
import contextlib
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_oracle import _build_parser
from trigon import cli


def _subparsers():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


ORACLE = _subparsers()
COMMANDS = list(ORACLE)
VALUES = ["7", "x", "-1", "-", "+1", "9:-1;15:+1", "1,0,1", "1,a", "",
          "-1.5", "3 4"]
# values in and out of the --which and --format choices
CHOICES = ["1", "5", "0", "6", "table", "json", "gap", "yaml"]
# unknown tokens, '--', and -h in the forms that print help or fail
OTHER = ["--workers", "-x", "-q", "foo", "--", "-1x", "--=x", "-", "-h",
         "--he", "-hx", "-ho", "--help=x"]


def _options(command):
    """The option strings of a command's parser, each of its long ones cut
    to every prefix past '--': unique, ambiguous and exact names."""
    strings = [s for a in ORACLE[command]._actions for s in a.option_strings
               if s not in ("-h", "--help")]
    names = set(strings)
    for s in strings:
        if s.startswith("--"):
            names.update(s[:k] for k in range(3, len(s)))
    return sorted(names)


def _required(command):
    return [a.option_strings[0] for a in ORACLE[command]._actions if a.required]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS + ["sing", "foo", "", None]))
    vocab = command if command in ORACLE else draw(st.sampled_from(COMMANDS))
    names = _options(vocab)
    value = st.sampled_from(VALUES + CHOICES)
    tokens = []
    if draw(st.booleans()):
        for name in _required(vocab):
            tokens += [name, draw(st.sampled_from(["7", "3", "doc.json"]))]
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from(names))
        form = draw(st.sampled_from(["alone", "value", "equals", "joined",
                                     "other", "bare"]))
        if form == "alone":
            tokens.append(name)
        elif form == "value":
            tokens += [name, draw(value)]
        elif form == "equals":
            tokens.append(f"{name}={draw(value)}")
        elif form == "joined":
            tokens.append("-o" + draw(value))
        elif form == "other":
            tokens.append(draw(st.sampled_from(OTHER)))
        else:
            tokens.append(draw(value))
    tokens = draw(st.permutations(tokens)) if draw(st.booleans()) else tokens
    return tokens if command is None else [command, *tokens]


def _outcome(parse):
    """(exit code, namespace or None, stdout, stderr) of one reading."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, values = parse()
    return code, values, out.getvalue(), err.getvalue()


def ours(argv):
    seen = []

    def dispatch(args):
        seen.append(vars(args))
        return 0

    with mock.patch.object(cli, "_dispatch", dispatch):
        return _outcome(lambda: (cli.run(argv), seen[0] if seen else None))


def oracle(argv):
    def parse():
        try:
            return 0, vars(_build_parser().parse_args(argv))
        except SystemExit as stop:
            return stop.code or 0, None

    return _outcome(parse)


@settings(max_examples=500, deadline=None)
@given(argvs())
def test_argv_reads_as_the_argparse_oracle_read_it(argv):
    code, values, out, err = ours(argv)
    want_code, want_values, want_out, want_err = oracle(argv)
    assert code == want_code
    assert values == want_values
    if code == 2:
        assert out == ""
        assert err.splitlines()[-1] == want_err.splitlines()[-1]
    elif values is None:
        # -h: usage on stdout, as the oracle printed its help
        assert want_out.startswith("usage: trigon")
        assert out.startswith("usage: trigon") and err == ""


@pytest.mark.parametrize("argv", [
    ["singer", "--q", "7", "--kappa", "-1"],
    ["singer", "--q", "7", "--kappa=-1"],
    ["singer", "--q", "7", "--kappa", "-"],
    ["singer", "--q", "-1", "--kappa", "+1"],
    ["singer", "--q", "7", "--kap", "9:-1;15:+1", "--fo", "json"],
    ["singer", "--q", "7", "--q", "8", "-o", "a", "--out=b"],
    ["tables", "--which", "3", "-oPATH"],
    ["tables", "--which", "3", "-o", "-1"],
    ["export", "--from-json", "doc.json", "--f", "gap"],
    ["singer", "--q", "7", "-1"],
    ["singer", "--all-kappa", "--q"],
    ["opp", "--q", "13", "--check", "--kappa", "+1"],
    ["graph", "--from-json", "a", "--m", "--s", "--spectrum=1"],
    ["sing", "--q", "7"],
    ["--q", "7", "singer"],
    [],
], ids=repr)
def test_spellings_read_as_the_oracle_read_them(argv):
    """The spellings the README lists, and the errors next to them."""
    code, values, out, err = ours(argv)
    want_code, want_values, _, want_err = oracle(argv)
    assert (code, values) == (want_code, want_values)
    assert err.splitlines()[-1:] == want_err.splitlines()[-1:]


@pytest.mark.parametrize("command", [None, *COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_option(command, flag):
    argv = [flag] if command is None else [command, flag]
    code, values, out, err = ours(argv)
    assert (code, values, err) == (0, None, "")
    assert out.startswith("usage: trigon")
    if command is None:
        assert all(name in out for name in COMMANDS)
    else:
        for option in cli._COMMANDS[command][1]:
            assert all(s in out for s in option[0].split("/"))

