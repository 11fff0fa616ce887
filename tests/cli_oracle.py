"""The command line's parser as argparse built it, kept as the oracle that
trigon.cli's own reading of argv is checked against: the same namespace on
success, and the same last stderr line and exit code on an error."""

import argparse

from trigon.cli import modulus


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
