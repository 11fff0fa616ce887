"""Command-line drivers: constructions, verification, certificates, tables.

The module top imports no parser library: run reads argv against
_COMMANDS, one table of the commands and their options, in about 0.05 ms,
where the standard library's parser took 2 ms to import and 4-5 ms to build
and run (cached bytecode, 2-core Xeon, Python 3.11).  Beside the standard
library the top imports only the errors run maps to exit codes; each
handler imports the modules it runs.  Where bytecode is not cached, every
start compiles each module it imports, so a subcommand should not pay for a
symmetry search or a construction it never calls.

An exit costs too: the interpreter's final collections walk every object
still alive, about a tenth of a short command.  main, the console script's
entry, freezes the collector once the output is written, so a process skips
them; stdio is still flushed and atexit handlers still run.  run does not
freeze, since tests and the benchmark's tracer call it in a process that
goes on."""

from __future__ import annotations

import gc
import math
import os
import sys
import warnings
from itertools import chain, repeat
from types import SimpleNamespace

from .errors import CheckFailed, KappaSpecError, TooLarge, UsageError


def parse_kappa_spec(text, family):
    """'+1' or '-1' for a constant choice, else ';'-joined 'key:sign' items;
    a key is an orbit minimum or a 'rep,min' coset pair.  The parsed keys
    must cover the sign family's keys exactly."""
    text = text.strip()
    if text in ("+1", "+", "-1", "-"):
        sign = 1 if text.startswith("+") else -1
        return {k: sign for k in family.keys}
    kappa = {}
    for item in text.split(";"):
        item = item.strip()
        head, sep, sign_text = item.rpartition(":")
        if not sep:
            raise KappaSpecError(f"item {item!r} is not 'key:sign'")
        if sign_text in ("+1", "+", "1"):
            sign = 1
        elif sign_text in ("-1", "-"):
            sign = -1
        else:
            raise KappaSpecError(f"bad sign {sign_text!r} in {item!r}")
        try:
            nums = tuple(int(x) for x in head.split(","))
        except ValueError:
            raise KappaSpecError(f"bad key {head!r} in {item!r}") from None
        key = nums[0] if len(nums) == 1 else nums
        if key in kappa:
            raise KappaSpecError(f"duplicate key {head!r}")
        kappa[key] = sign
    family.check(kappa)
    return kappa


def kappa_spec_of(kappa):
    """Canonical spec text, keys sorted; inverse of parse_kappa_spec."""
    items = []
    for key in sorted(kappa):
        head = ",".join(str(x) for x in key) if isinstance(key, tuple) else str(key)
        items.append(f"{head}:{'+1' if kappa[key] == 1 else '-1'}")
    return ";".join(items)


# the most triples --all-kappa builds, over all its presentations together,
# and the most one singer or quad presentation has; exotic refuses the q
# singer refuses.  A family is written a choice at a time: opp --q 25
# --all-kappa --format json writes exactly this many, 247 MB, in 0.35-0.39 s
# of CPU and 23 MB (peak RSS of a fresh process).  One presentation is held
# whole, and its text as the texts of its rows, so for it this bounds
# memory, at 85-130 bytes a triple: singer --q 157 --kappa +1 (3,919,506
# triples; q = 163 is refused) peaks at 251 MB as a table, 211 MB as gap and
# 387 MB as json, and singer --q 67 (309,876) at 34, 31 and 45 MB (peak RSS,
# 2-core Xeon, Python 3.11).
_FAMILY_TRIPLE_LIMIT = 4_000_000

# the most sign choices exotic --all-kappa certifies.  Each certificate is
# written as it is made, so the limit bounds time, not memory: at q = 43
# (16,384 choices) the run takes 1.7-2.0 s of CPU and 20.5 MB and writes
# 6 MB, where holding every certificate for one JSON text took 80.5 MB;
# q = 47 (65,536), with the limit raised, took 5.5 s and 22.1 MB, and
# q = 53 would make 262,144 (peak RSS of fresh processes, 2-core Xeon,
# Python 3.11).  Every q <= 43 fits.
_CERTIFICATE_LIMIT = 16_384

# the largest r(q) exotic --bounds evaluates.  2^r(q) then has 4,300
# decimal digits, the most Python (3.11 on) converts to text by default, and
# no number the bounds write is larger; the last q admitted is 42,853
_BOUNDS_R_LIMIT = 14_284

# the most link-graph vertices graph --metrics or --spectrum measures.  The
# spectrum takes a dense (2n)^2 float matrix and the metrics one BFS per
# vertex: singer --q 43 (3,786 vertices) took 4.7 s and 390 MB under
# --spectrum and 8.0 s and 79 MB under --metrics, and singer --q 47 (4,514)
# is the first singer document refused (2-core Xeon, Python 3.11).
_GRAPH_VERTEX_LIMIT = 4_096


def _check_presentation_size(q, order):
    """Refuse q, after checking that it is a prime power and before the
    field search, if one presentation on the plane of the given order has
    more than _FAMILY_TRIPLE_LIMIT triples, |G| x |S| = m x (order + 1);
    else return that size."""
    from .ffield import factor_prime_power

    factor_prime_power(q)
    m, s = order * order + order + 1, order + 1
    if m * s > _FAMILY_TRIPLE_LIMIT:
        raise TooLarge(
            f"q = {q} would build presentations of {m} x {s} = {m * s} "
            f"triples; the limit is {_FAMILY_TRIPLE_LIMIT}"
        )
    return m * s


def _check_family_size(keys, size):
    """Refuse an --all-kappa family of 2^keys presentations of size triples
    each if it has more than _FAMILY_TRIPLE_LIMIT triples in all.  singer
    and quad know their keys from q, so they refuse before the field
    search."""
    count = 2 ** keys
    if count * size > _FAMILY_TRIPLE_LIMIT:
        raise TooLarge(
            f"--all-kappa would build {count} presentations of {size} "
            f"triples, {count * size} triples in all; the limit is "
            f"{_FAMILY_TRIPLE_LIMIT}"
        )


def _writer(fmt, labels, pairs, level):
    """The entry renderer, separator and assembler of the format's writer
    over the labels; only json reads pairs, the sorted position pairs of F,
    and level, the nesting depth of its documents."""
    if fmt == "table":
        from .tripres import table_writer

        return table_writer(labels)
    if fmt == "gap":
        from .grouptools import gap_writer

        return gap_writer(len(labels))
    if fmt == "json":
        from .documents import json_writer

        return json_writer(labels, pairs, level)
    raise ValueError(f"unknown format {fmt!r}")


def present(T, meta, fmt):
    """The text of one presentation, as a list of parts.  Its walk goes to
    the format's writer a row at a time: each row's entries are joined by
    the writer's separator, and the rows that are not empty, the separator
    between each two, are the parts of the join the assembler takes, so no
    list of every entry and no one text of them all is held.  A JSON
    document takes the pairs of T's rows as its F, a pair with two thirds
    once, and ends with a newline."""
    pairs = ((i, j) for i, js in enumerate(T.out) for j in dict.fromkeys(js))
    entries, sep, assemble = _writer(fmt, T.labels, pairs, 0)
    body = []
    for i, (js, ks) in enumerate(zip(T.out, T.third)):
        row = sep.join(filter(None, entries(list(zip(repeat(i), js, ks)))))
        if row:
            body += (sep, row)
    parts = assemble(body[1:], meta)
    return parts + ["\n"] if fmt == "json" else parts


def _present_family(model, q, family, fmt):
    """The text of each sign choice's presentation, made once its choice
    passes its check, as one list of parts: its head, then its presentation,
    a JSON document as its parts, so that its T array is written as joined
    once.  The entry of each slot of the family is rendered once per sign, on
    first need, and one list holds the entry each slot takes; a choice
    re-picks the slots of the keys whose sign differs from the choice
    before it, then joins that list by the writer's separator.  choices()
    yields the choices in sorted spec order, which is the order they are
    written in."""
    pairs = ((x, y) for x, y, _ in family.slots)
    entries, sep, assemble = _writer(fmt, range(family.G.n), pairs, 1)
    rendered, key_slots, picks = {}, family.key_slots, None

    def entries_of(sign):
        if sign not in rendered:
            rendered[sign] = entries(family.slot_triples(sign))
        return rendered[sign]

    for index, kappa in enumerate(family.choices()):
        signs = family.key_signs(kappa)
        if picks is None:
            # the all-plus entries, which the keys a choice puts at -1 replace
            picks, prev = entries_of(1)[:], [1] * len(signs)
        for slots, sign, old in zip(key_slots, signs, prev):
            if sign != old:
                new = entries_of(sign)
                for r in slots:
                    picks[r] = new[r]
        prev = signs
        spec = kappa_spec_of(kappa)
        meta = {"model": model, "q": q, "kappa": spec}
        if fmt == "json":
            head = ",\n  " if index else "[\n  "
        else:
            head = ("\n" if index else "") + ("# " if fmt == "gap" else "")
            head += f"kappa {spec}\n"
        yield [head, *assemble([sep.join(filter(None, picks))], meta)]
    if fmt == "json":
        yield ["\n]\n"]


def _family_output(model, q, family, args):
    if args.all_kappa:
        _check_family_size(len(family.keys), family.G.n * len(family.S))
        return chain.from_iterable(_present_family(model, q, family, args.format))
    kappa = parse_kappa_spec("+1" if args.kappa is None else args.kappa, family)
    meta = {"model": model, "q": q, "kappa": kappa_spec_of(kappa)}
    return present(family.build(kappa), meta, args.format)


def _cmd_tables(args):
    from .catalog import TABLE_TEXTS

    return 0, TABLE_TEXTS[args.which]


def _cmd_singer(args):
    from .singer import r_of_q, singer_datum

    size = _check_presentation_size(args.q, args.q)
    if args.all_kappa:
        _check_family_size(r_of_q(args.q), size)
    d = singer_datum(args.q, args.modulus)
    return 0, _family_output("singer", d.q, d.signs(), args)


def _cmd_quad(args):
    from .singer import quad_datum, r_of_q

    size = _check_presentation_size(args.q, args.q ** 2)
    if args.all_kappa:
        # the r(q) folding orbits on each of the q^2 - q + 1 cosets of H
        _check_family_size(r_of_q(args.q) * (args.q ** 2 - args.q + 1), size)
    d = quad_datum(args.q, args.modulus)
    return 0, _family_output("quad", d.q, d.signs(), args)


def _fmt_value(v):
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _cmd_opp(args):
    from .oppmodel import opp_datum, opp_properties

    if args.kappa is None and not args.all_kappa:
        report = opp_properties(args.q)
        lines = [f"opposition model q = {report.q}"]
        for name, want, got, ok in report.rows:
            lines.append(
                f"{'pass' if ok else 'FAIL'}  {name}: "
                f"expected {_fmt_value(want)}, got {_fmt_value(got)}"
            )
        lines.append(f"zuk gap > 1/2: {report.zuk}")
        return (0 if report.ok else 1), "\n".join(lines) + "\n"
    d = opp_datum(args.q)
    return 0, _family_output("opp", d.q, d.signs(), args)


def _document(args):
    from .documents import load_document

    return load_document(args.from_json, strict=not args.lenient)


def _cmd_enumerate(args):
    from .census import classify

    doc = _document(args)
    classes = classify(doc.F)
    found = sum(c.orbit_size for c in classes)
    return 0, f"{found} presentations, {len(classes)} isomorphism classes\n"


def _cmd_classify(args):
    from .census import classify

    doc = _document(args)
    classes = classify(doc.F)
    lines = []
    total = 0
    for i, c in enumerate(classes, start=1):
        total += c.orbit_size
        lines.append(
            f"class {i}: orbit size {c.orbit_size}, "
            f"stabilizer order {c.aut_order}"
        )
    lines.append(f"total: {total} presentations in {len(classes)} classes")
    return 0, "\n".join(lines) + "\n"


def _cmd_verify(args):
    from .tripres import verify

    doc = _document(args)
    violations = verify(doc.F, doc.T)
    if not violations:
        return 0, "ok\n"
    names = {1: "projection", 2: "uniqueness", 3: "rotation"}
    lines = [
        f"axiom {v.axiom} ({names[v.axiom]}) violated at {v.data}"
        for v in violations
    ]
    return 1, "\n".join(lines) + "\n"


def _cmd_exotic(args):
    import json

    from .exoticity import build_probe, exotic_lower_bounds
    from .singer import r_of_q, singer_datum

    if args.kappa is None and not (args.all_kappa or args.bounds):
        raise KappaSpecError("pass --kappa, --all-kappa, or --bounds")
    out = {}
    if args.bounds:
        r = r_of_q(args.q)
        if r > _BOUNDS_R_LIMIT:
            raise TooLarge(
                f"--bounds at q = {args.q} would write 2^{r}; the limit is "
                f"2^{_BOUNDS_R_LIMIT}, 4,300 digits"
            )
        b = exotic_lower_bounds(args.q)
        out["bounds"] = {
            "exotic_kappa_lower": b.exotic_kappa_lower,
            "qi_class_lower": str(b.qi_class_lower),
            "vacuous": b.vacuous,
        }
    if args.kappa is None and not args.all_kappa:
        return 0, json.dumps(out, sort_keys=True, indent=2) + "\n"
    # both refusals come before the field search, which at q = 256 alone
    # takes 47 s; 2^r exceeds the limit iff r reaches its bit length, so 2^r
    # is never computed
    if args.all_kappa:
        r = r_of_q(args.q)
        if r >= _CERTIFICATE_LIMIT.bit_length():
            raise TooLarge(
                f"--all-kappa would certify 2^{r} sign choices; the "
                f"limit is {_CERTIFICATE_LIMIT}"
            )
    _check_presentation_size(args.q, args.q)
    d = singer_datum(args.q, args.modulus)
    family = d.signs()
    if args.all_kappa:
        kappas = family.choices()
    else:
        kappas = [parse_kappa_spec(args.kappa, family)]
    probe = build_probe(d)
    return 0, _certificate_texts(out, probe, kappas)


def _certificate_texts(out, probe, kappas):
    """The text of json.dumps(out with its "certificates" list, sort_keys=True,
    indent=2) and a newline, a certificate at a time as each is made, so
    that no list of them is held.  The list's key sorts after "bounds",
    out's only other key, and a certificate's lines sit two levels deep."""
    import json

    from .exoticity import exotic_certificate

    head = json.dumps(out, sort_keys=True, indent=2)[:-2] + "," if out else "{"
    yield head + '\n  "certificates": [\n    '
    q0_order = probe.q0.order()
    for index, kappa in enumerate(kappas):
        c = exotic_certificate(probe, kappa)
        blob = {
            "q": c.q,
            "kappa": kappa_spec_of(dict(c.kappa)),
            "sigma_cycles": c.sigma.cycle_string(),
            "member": c.member,
            "verdict": c.verdict,
            "q0_order": q0_order,
        }
        text = json.dumps(blob, sort_keys=True, indent=2).replace("\n", "\n    ")
        yield ",\n    " + text if index else text
    yield "\n  ]\n}\n"


def _cmd_export(args):
    doc = _document(args)
    if args.format == "json":
        from .grouptools import export_presentation

        return 0, export_presentation(doc.T)
    return 0, present(doc.T, None, args.format)


def _json_extent(v):
    return "inf" if v == math.inf else v


def _cmd_graph(args):
    import json

    from .linkgraph import export_edge_list, metrics, spectrum
    from .pairset import from_F

    doc = _document(args)
    if (args.show_metrics or args.spectrum) and 2 * doc.F.n > _GRAPH_VERTEX_LIMIT:
        raise TooLarge(
            f"the link graph has {2 * doc.F.n} vertices; --metrics and "
            f"--spectrum take at most {_GRAPH_VERTEX_LIMIT}"
        )
    g = from_F(doc.F)
    met = metrics(g) if args.show_metrics else None
    eigs = None
    if args.spectrum:
        # + 0.0 turns the -0.0 of a tiny negative eigenvalue into 0.0
        eigs = [round(x, 8) + 0.0 for x in spectrum(g)]
    if args.format == "json":
        blob = {
            "points": g.n,
            "vertices": 2 * g.n,
            "edges": [[v + 1, w + 1] for v, w in g.edges()],
        }
        if met is not None:
            blob["metrics"] = {
                "connected": met.connected,
                "girth": _json_extent(met.girth),
                "diameter": _json_extent(met.diameter),
                "degree_profile": [list(pair) for pair in met.degree_profile],
                "biregular": list(met.biregular) if met.biregular else None,
            }
        if eigs is not None:
            blob["spectrum"] = eigs
        return 0, json.dumps(blob, sort_keys=True, indent=2) + "\n"
    parts = [export_edge_list(g)]
    if met is not None:
        parts.append(
            "connected: {0}\ngirth: {1}\ndiameter: {2}\n"
            "degree profile: {3}\nbiregular: {4}\n".format(
                met.connected, met.girth, met.diameter,
                met.degree_profile, met.biregular,
            )
        )
    if eigs is not None:
        parts.append("spectrum: " + " ".join(str(x) for x in eigs) + "\n")
    return 0, "\n".join(parts)


_HANDLERS = {
    "tables": _cmd_tables,
    "singer": _cmd_singer,
    "quad": _cmd_quad,
    "opp": _cmd_opp,
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "exotic": _cmd_exotic,
    "export": _cmd_export,
    "graph": _cmd_graph,
}


def modulus(text):
    """The --modulus coefficients, low degree first; a usage error names the
    type by this function's name."""
    return tuple(int(x) for x in text.split(","))


def _value(name, type=str, choices=None, default=None, required=False,
           group=None):
    dest = name.split("/")[-1][2:].replace("-", "_")
    return name, dest, type, choices, default, required, group


def _flag(name, dest=None, group=None):
    return name, dest or name[2:].replace("-", "_"), None, None, False, False, group


_Q = _value("--q", type=int, required=True)
_MODULUS = _value("--modulus", type=modulus)
_KAPPA = _value("--kappa", group="kappa")
_ALL_KAPPA = _flag("--all-kappa", group="kappa")
_FROM_JSON = _value("--from-json", required=True)
_LENIENT = _flag("--lenient")
_OUT = _value("-o/--out")
_FORMAT = _value("--format", choices=("table", "json", "gap"), default="table")
_HELP = ("-h/--help", "help", None, None, None, False, None)

# The commands in the order usage lists them, each with its help line and
# options.  An option is (name, dest, type, choices, default, required,
# group): name is its option strings joined by '/', a short one first;
# type reads its value, None for a flag, which stores True; choices, if not
# None, holds every value it takes; and the options of one named group
# exclude each other.
_COMMANDS = {
    "singer": ("difference-set presentations on Z/m",
               (_Q, _MODULUS, _KAPPA, _ALL_KAPPA, _FORMAT, _OUT)),
    "quad": ("coset-twisted presentations on Z/(q^4+q^2+1)",
             (_Q, _MODULUS, _KAPPA, _ALL_KAPPA, _FORMAT, _OUT)),
    # a checklist builds no presentation, so it takes no sign choice
    "opp": ("opposition-model checklist and presentations",
            (_Q, _KAPPA, _ALL_KAPPA, _flag("--check", group="kappa"), _FORMAT,
             _OUT)),
    "enumerate": ("count presentations and classes", (_FROM_JSON, _LENIENT, _OUT)),
    "classify": ("isomorphism classes on a pair set", (_FROM_JSON, _LENIENT, _OUT)),
    "verify": ("check the three presentation axioms", (_FROM_JSON, _LENIENT, _OUT)),
    "exotic": ("membership certificates and bounds",
               (_Q, _MODULUS, _flag("--bounds"), _KAPPA, _ALL_KAPPA, _OUT)),
    # --which takes the keys of catalog.TABLE_TEXTS, which only the tables
    # handler loads
    "tables": ("reproduce a committed table byte-exactly",
               (_value("--which", type=int, choices=(1, 2, 3, 4, 5),
                       required=True), _OUT)),
    "export": ("presentation text for a document",
               (_FROM_JSON, _LENIENT,
                _value("--format", choices=("gap", "json", "table"),
                       default="gap"), _OUT)),
    "graph": ("edge list, metrics, and spectrum",
              (_FROM_JSON, _flag("--metrics", "show_metrics"), _flag("--spectrum"),
               _LENIENT, _value("--format", choices=("table", "json"),
                                default="table"), _OUT)),
}


class _ParseExit(Exception):
    """The end of a run that argv alone decides, args (code, text): 0 with
    the help text for stdout, or 2 with a usage error's text for stderr."""


def _usage(command):
    """The usage line: every option string, the required options bare and
    the options of one group between one pair of brackets."""
    if command is None:
        return "usage: trigon [-h] {" + ",".join(_COMMANDS) + "} ..."
    words, last = ["usage: trigon", command, "[-h]"], None
    for word, dest, kind, choices, _, required, group in _COMMANDS[command][1]:
        if choices:
            word += " {" + ",".join(map(str, choices)) + "}"
        elif kind is not None:
            word += " " + dest.upper()
        if group is not None and group == last:
            words[-1] = f"{words[-1][:-1]} | {word}]"
        else:
            words.append(word if required else f"[{word}]")
        last = group
    return " ".join(words)


def _help(command):
    """-h: the usage line, then the command's help line, or every command's."""
    if command is None:
        lines = ["Triangle presentations, their links, and exoticness probes.",
                 "", "commands:",
                 *(f"  {name:<9}  {line}" for name, (line, _) in _COMMANDS.items())]
    else:
        lines = [_COMMANDS[command][0]]
    return _ParseExit(0, _usage(command) + "\n\n" + "\n".join(lines) + "\n")


def _error(command, message):
    prog = "trigon" if command is None else f"trigon {command}"
    return _ParseExit(2, f"{_usage(command)}\n{prog}: error: {message}\n")


def _is_negative_number(token):
    """Whether token is a negative number: '^-\\d+$|^-\\d*\\.\\d+$', where
    $ also matches before a last newline."""
    number = token[1:].removesuffix("\n")
    return number.replace(".", "", 1).isdecimal() and not number.endswith(".")


def _classify(command, token, strings):
    """How a token reads against the option strings: None for a
    value, else (option, its string, the value the token holds or None),
    where option is None for an unknown one.  A long option may be given by
    a prefix of its name that no other name has; a short one may take its
    value in the same token, -oPATH; a negative number or a token with a
    space in it is a value."""
    if not token.startswith("-") or token == "-":
        return None
    head, eq, tail = token.partition("=")
    if head in strings:
        return strings[head], head, tail if eq else None
    if token[1] != "-":
        # every short option string is one letter
        if token[:2] in strings:
            return strings[token[:2]], token[:2], token[2:]
    else:
        found = [s for s in strings if s.startswith(head)]
        if len(found) > 1:
            raise _error(command, f"ambiguous option: {token} could match "
                                  f"{', '.join(found)}")
        if found:
            return strings[found[0]], found[0], tail if eq else None
    if _is_negative_number(token) or " " in token:
        return None
    return None, token, None


def _expand(command, strings, found, following):
    """The (option, value text) pairs that one option token stands for, and
    whether it takes the token after it, following (None if that is not a
    value).  A short flag with a tail goes on to the option the tail's
    first character names, as -ho PATH does."""
    option, string, text = found
    pairs = []
    while True:
        # a flag's type is None
        if text is None:
            if option[2] is None:
                return pairs + [(option, None)], False
            if following is None:
                raise _error(command, f"argument {option[0]}: expected one "
                                      "argument")
            return pairs + [(option, following)], True
        if option[2] is not None:
            return pairs + [(option, text)], False
        if string[1] != "-" and text:
            pairs.append((option, None))
            string = "-" + text[0]
            if string in strings:
                option, text = strings[string], text[1:] or None
                continue
        raise _error(command, f"argument {option[0]}: ignored explicit "
                              f"argument {text!r}")


def _take(command, options, option, text, values):
    """Store one option's value in values, the dests given so far, after
    the checks the parser makes: its type, its choices, its group."""
    name, dest, kind, choices, _, _, group = option
    if option is _HELP:
        raise _help(command)
    if kind is None:
        value = True
    else:
        try:
            value = kind(text)
        except (TypeError, ValueError):
            raise _error(command, f"argument {name}: invalid {kind.__name__} "
                                  f"value: {text!r}") from None
        if choices is not None and value not in choices:
            raise _error(command, f"argument {name}: invalid choice: "
                                  f"{value!r} (choose from "
                                  f"{', '.join(map(repr, choices))})")
    if group is not None:
        for other in options:
            if other[6] == group and other is not option and other[1] in values:
                raise _error(command, f"argument {name}: not allowed with "
                                      f"argument {other[0]}")
    values[dest] = value


def _read_options(command, tokens, strings, options, stop):
    """The values of the options in tokens, the tokens no option takes and
    the index reading ended at: the first value or '--' if stop, as the
    first token no option takes names the command, else the end, as no
    command has a positional argument.  Every token before the first '--'
    is classified before any is taken, so an ambiguous one is refused
    first; '--' and the tokens after it are values.  An option given twice
    keeps its last value."""
    end = tokens.index("--") if "--" in tokens else len(tokens)
    found = [_classify(command, token, strings) for token in tokens[:end]]
    values, extras, i = {}, [], 0
    while i < len(tokens):
        item = found[i] if i < end else None
        if item is None and stop:
            break
        i += 1
        if item is None or item[0] is None:
            extras.append(tokens[i - 1])
            continue
        following = tokens[i] if i < end and found[i] is None else None
        pairs, took = _expand(command, strings, item, following)
        i += took
        for option, text in pairs:
            _take(command, options, option, text, values)
    return values, extras, i


def _parse(argv):
    """The namespace of an invocation, read from argv against _COMMANDS;
    raises _ParseExit for -h and for a usage error."""
    top = {"-h": _HELP, "--help": _HELP}
    _, extras, i = _read_options(None, argv, top, (), True)
    if argv[i:] in ([], ["--"]):
        raise _error(None, "the following arguments are required: subcommand")
    command = argv[i]
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _error(None, f"argument subcommand: invalid choice: {command!r} "
                           f"(choose from {choices})")
    options = _COMMANDS[command][1]
    strings = dict(top)
    for option in options:
        strings.update(dict.fromkeys(option[0].split("/"), option))
    values, more, _ = _read_options(command, argv[i + 1:], strings, options, False)
    missing = [o[0] for o in options if o[5] and o[1] not in values]
    if missing:
        raise _error(command, "the following arguments are required: "
                              + ", ".join(missing))
    if extras + more:
        raise _error(None, "unrecognized arguments: " + " ".join(extras + more))
    return SimpleNamespace(subcommand=command,
                           **{o[1]: values.get(o[1], o[4]) for o in options})


# the least characters _write_parts hands a stream at once, but for the last
# write: under PYTHONUNBUFFERED each write to stdout is one write(2)
_CHUNK = 65_536


def _write_parts(fh, parts):
    """Write the texts of parts, taken as they are made, joined into writes
    of at least _CHUNK characters; the texts made before an error that
    stops parts are still written."""
    buf, size = [], 0
    try:
        for part in parts:
            buf.append(part)
            size += len(part)
            if size >= _CHUNK:
                text, buf, size = "".join(buf), [], 0
                fh.write(text)
    finally:
        if buf:
            fh.write("".join(buf))


def _dispatch(args):
    """Run the handler and write its output: one text, or an iterator of
    texts (--all-kappa), written in chunks as they are made; 141, as a shell
    reports a process that SIGPIPE ends, where stdout is a pipe whose reader
    closed it.  A warning the handler raises becomes one 'trigon <cmd>:
    warning:' line on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            code, text = _HANDLERS[args.subcommand](args)
            parts = [text] if isinstance(text, str) else text
            if args.out is not None:
                try:
                    fh = open(args.out, "w")
                except OSError as err:
                    print(f"trigon {args.subcommand}: {err}", file=sys.stderr)
                    return 2
                with fh:
                    _write_parts(fh, parts)
            else:
                try:
                    _write_parts(sys.stdout, parts)
                    sys.stdout.flush()
                except BrokenPipeError:
                    # the reader is gone: make no more texts, and send what
                    # is still buffered to devnull, so that the interpreter's
                    # flush at exit cannot raise again
                    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                    return 141
            return code
        finally:
            for w in caught:
                print(f"trigon {args.subcommand}: warning: {w.message}",
                      file=sys.stderr)


def run(argv):
    """Dispatch one invocation; 0 ok, 1 failed check, 2 usage, 141 stdout
    closed by its reader."""
    try:
        args = _parse(argv)
    except _ParseExit as stop:
        code, text = stop.args
        print(text, end="", file=sys.stderr if code else sys.stdout)
        return code
    try:
        return _dispatch(args)
    except UsageError as err:
        print(f"trigon {args.subcommand}: {err}", file=sys.stderr)
        return 2
    except CheckFailed as err:
        print(f"trigon {args.subcommand}: {err}", file=sys.stderr)
        return 1


def main():
    code = run(sys.argv[1:])
    # the output is written: skip the exit's collections over every live object
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
