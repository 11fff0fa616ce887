"""Command-line drivers: constructions, verification, certificates, tables.

The module top imports only what builds the parser and the errors run maps
to exit codes; each handler imports the modules it runs.  Where bytecode is
not cached, every start compiles each module it imports, so a subcommand
should not pay for a symmetry search or a construction it never calls.

An exit costs too: the interpreter's final collections walk every object
still alive, about a tenth of a short command.  main, the console script's
entry, freezes the collector once the output is written, so a process skips
them; stdio is still flushed and atexit handlers still run.  run does not
freeze, since tests and the benchmark's tracer call it in a process that
goes on."""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import warnings
from itertools import chain, repeat

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

# the most sign choices exotic --all-kappa certifies.  The certificates go
# into one JSON text, so they are all held at once: at q = 43
# (16,384 choices) the run takes 1.5-1.8 s of CPU and 83 MB and writes
# 6 MB; q = 47 (65,536), with the limit raised, took 6.1-6.7 s and 297 MB,
# and q = 53 would make 262,144 (2-core Xeon, Python 3.11).  Every q <= 43
# fits.
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

    from .exoticity import build_probe, exotic_certificate, exotic_lower_bounds
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
    if args.kappa is not None or args.all_kappa:
        # both refusals come before the field search, which at q = 256
        # alone takes 47 s; 2^r exceeds the limit iff r reaches its bit
        # length, so 2^r is never computed
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
        certs = [exotic_certificate(probe, k) for k in kappas]
        blobs = [
            {
                "q": c.q,
                "kappa": kappa_spec_of(dict(c.kappa)),
                "sigma_cycles": c.sigma.cycle_string(),
                "member": c.member,
                "verdict": c.verdict,
                "q0_order": probe.q0.order(),
            }
            for c in certs
        ]
        out["certificates"] = blobs
    return 0, json.dumps(out, sort_keys=True, indent=2) + "\n"


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
    """The --modulus coefficients, low degree first; argparse names the
    type by this function in its usage error."""
    return tuple(int(x) for x in text.split(","))


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="trigon",
        description="Triangle presentations, their links, and exoticness probes.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, formats=("table", "json", "gap")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("-o", "--out", help="write output to this path")

    def kappa_opts(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--kappa", help="sign spec, e.g. '+1' or '9:+1;15:-1'")
        group.add_argument("--all-kappa", action="store_true")
        return group

    p = sub.add_parser("singer", help="difference-set presentations on Z/m")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--modulus", type=modulus)
    kappa_opts(p)
    common(p)

    p = sub.add_parser("quad", help="coset-twisted presentations on Z/(q^4+q^2+1)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--modulus", type=modulus)
    kappa_opts(p)
    common(p)

    p = sub.add_parser("opp", help="opposition-model checklist and presentations")
    p.add_argument("--q", type=int, required=True)
    # a checklist builds no presentation, so it takes no sign choice
    kappa_opts(p).add_argument("--check", action="store_true",
                               help="run the property checklist (the default mode)")
    common(p)

    p = sub.add_parser("enumerate", help="count presentations and classes")
    p.add_argument("--from-json", required=True)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("-o", "--out")

    p = sub.add_parser("classify", help="isomorphism classes on a pair set")
    p.add_argument("--from-json", required=True)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("-o", "--out")

    p = sub.add_parser("verify", help="check the three presentation axioms")
    p.add_argument("--from-json", required=True)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("-o", "--out")

    p = sub.add_parser("exotic", help="membership certificates and bounds")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--modulus", type=modulus)
    p.add_argument("--bounds", action="store_true")
    kappa_opts(p)
    p.add_argument("-o", "--out")

    p = sub.add_parser("tables", help="reproduce a committed table byte-exactly")
    # the keys of catalog.TABLE_TEXTS, which only the tables handler loads
    p.add_argument("--which", type=int, choices=(1, 2, 3, 4, 5), required=True)
    p.add_argument("-o", "--out")

    p = sub.add_parser("export", help="presentation text for a document")
    p.add_argument("--from-json", required=True)
    p.add_argument("--lenient", action="store_true")
    common(p, formats=("gap", "json", "table"))

    p = sub.add_parser("graph", help="edge list, metrics, and spectrum")
    p.add_argument("--from-json", required=True)
    p.add_argument("--metrics", dest="show_metrics", action="store_true")
    p.add_argument("--spectrum", action="store_true")
    p.add_argument("--lenient", action="store_true")
    common(p, formats=("table", "json"))

    return ap


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
            if args.out:
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
        args = _build_parser().parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
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
