"""The --all-kappa writer and SignFamily's slots against the per-choice path
they replaced: each choice built by its own walk of the cosets of H, checked,
sorted and rendered on its own.  That builder and plain renderers of its
sorted triples are kept here as the oracle."""

import json
from itertools import chain, groupby
from operator import itemgetter

import pytest

from label_oracle import coset_steps, fset_of, pairs_of, presentation_of, triples_of
from trigon.cli import kappa_spec_of, run
from trigon.fgroup import SignFamily, SubgroupDatum, make_cyclic, subgroup
from trigon.oppmodel import opp_datum
from trigon.singer import quad_datum, singer_datum
from trigon.tripres import TwistCheckFailed, _violations


def walk_triples(family, kappa, rule=coset_steps):
    """The twisted triples of one choice, unchecked: the cosets of H are
    walked in turn, and the pairs (x, xs) of a coset take their thirds from
    the steps rule gives on that coset."""
    G, S = family.G, family.S
    steps = rule(family, kappa)
    cosets = [[] for _ in steps]
    for x, c in enumerate(family.H.coset_index):
        cosets[c].append(x)
    triples = set()
    for a, s in enumerate(S):
        for xs, step in zip(cosets, steps):
            ys = list(map(G.right(s).__getitem__, xs))
            triples.update(zip(xs, ys, map(G.right(step[a]).__getitem__, ys)))
    return frozenset(triples)


def oracle_family_text(model, q, family, fmt):
    """The --all-kappa text of a family whose choices all pass their check:
    one walk, sort and render per choice, in choices() order.  The labels are the
    positions 0..n-1, so a triple is written as it is held."""
    n = family.G.n
    texts, blobs = [], []
    for kappa in family.choices():
        triples = sorted(walk_triples(family, kappa))
        reps = sorted({min(t, t[1:] + t[:1], t[2:] + t[:2]) for t in triples})
        spec = kappa_spec_of(kappa)
        if fmt == "json":
            blobs.append({
                "F": [[i, j] for i, j, _ in triples],
                "T": [list(t) for t in reps],
                "labels": list(range(n)),
                "meta": {"model": model, "q": q, "kappa": spec},
                "n": n,
            })
        elif fmt == "gap":
            words = ", ".join(
                f"F.{i + 1}*F.{j + 1}*F.{k + 1}" for i, j, k in reps
            )
            texts.append(
                f"# kappa {spec}\nF := FreeGroup({n});\nG := F / [ {words} ];\n"
            )
        else:
            rows = groupby(triples, key=itemgetter(0))
            table = "\n".join(
                " ".join(f"({i},{j},{k})" for i, j, k in row) for _, row in rows
            )
            texts.append(f"kappa {spec}\n{table}\n")
    if fmt == "json":
        return json.dumps(blobs, sort_keys=True, indent=2) + "\n"
    return "\n".join(texts)


TWISTED_DATA = {
    **{f"singer q={q}": ("singer", singer_datum, q) for q in (2, 3, 4, 5, 7, 8, 9)},
    **{f"quad q={q}": ("quad", quad_datum, q) for q in (2, 3)},
    **{f"opp q={q}": ("opp", opp_datum, q) for q in (4, 7, 13)},
}


@pytest.mark.parametrize("name", sorted(TWISTED_DATA))
def test_all_kappa_matches_the_per_choice_oracle(capsys, name):
    """Every choice builds the walk's triples, and each format's --all-kappa
    bytes are the oracle's per-choice texts joined."""
    model, make, q = TWISTED_DATA[name]
    family = make(q).signs()
    for kappa in family.choices():
        assert triples_of(family.build(kappa)) == walk_triples(family, kappa)
    for fmt in ("table", "json", "gap"):
        code = run([model, "--q", str(q), "--all-kappa", "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        assert out == oracle_family_text(model, q, make(q).signs(), fmt), fmt


def misfiled_quad():
    # 20 lies in the coset of 2; file it under the coset of 0
    d = quad_datum(2)
    H = SubgroupDatum(d.G, d.H.members, d.H.coset_index[:20] + (0,))
    return SignFamily(d.G, d.S, d.lam, H)


def misfiled_exquad():
    g = make_cyclic(21)
    s = [7, 9, 14, 15, 18]
    h = subgroup(g, [3])
    wrong = SubgroupDatum(g, h.members, h.coset_index[:20] + (0,))
    return SignFamily(g, s, {x: (4 * x) % 21 for x in s}, wrong)


def one_forward_step(monkeypatch):
    """A twist that steps one s of a twisted orbit by lam(s) under either
    sign: the all-plus choice closes, and a choice that puts -1 on the
    orbit's key leaves rotations of that one key open.  The family's twist
    and the oracle's rule are bent alike."""
    family = singer_datum(3).signs()
    S, lam = family.S, family.lam
    a = next(a for a, s in enumerate(S) if s in family.orbit_min)
    real = SignFamily.twist

    def forward(steps):
        return steps[:a] + (lam[S[a]],) + steps[a + 1:]

    monkeypatch.setattr(SignFamily, "twist", lambda self, kappa: forward(real(self, kappa)))
    return family, lambda family, kappa: list(map(forward, coset_steps(family, kappa)))


BROKEN = {
    "misfiled coset, quad q=2": lambda monkeypatch: (misfiled_quad(), coset_steps),
    "misfiled coset, exquad": lambda monkeypatch: (misfiled_exquad(), coset_steps),
    "one forward step, singer q=3": one_forward_step,
}


@pytest.mark.parametrize("name", sorted(BROKEN))
@pytest.mark.parametrize("order", ["choices", "reversed"])
def test_broken_data_fail_exactly_where_violations_say(monkeypatch, name, order):
    """Each choice of a broken datum passes or fails exactly as _violations
    of its walked triples says, with _violations' text, whichever choices
    one family object was asked for before."""
    family, rule = BROKEN[name](monkeypatch)
    kappas = list(family.choices())
    if order == "reversed":
        kappas.reverse()
    failed = 0
    for kappa in kappas:
        triples = walk_triples(family, kappa, rule)
        fout = fset_of(range(family.G.n), {(i, j) for i, j, _ in triples}).out
        found = _violations(fout, presentation_of(range(family.G.n), triples))
        if not found:
            assert triples_of(family.build(kappa)) == triples
            assert len(family.slot_signs(kappa)) == len(triples)
            continue
        failed += 1
        want = f"twisted presentation broke its axioms: {found[:3]}"
        for check in (family.build, family.slot_signs):
            with pytest.raises(TwistCheckFailed) as err:
                check(kappa)
            assert str(err.value) == want
    assert 0 < failed < len(kappas)


def test_slots_are_the_sorted_pairs_of_F():
    d = opp_datum(7)
    family = d.signs()
    pairs = [(x, y) for x, y, _ in family.slots]
    assert pairs == sorted(pairs_of(d.F()))
    assert all(family.G.right(family.S[a])[x] == y for x, y, a in family.slots)
    kappa = dict(zip(family.keys, chain([-1], [1] * len(family.keys))))
    signs = family.slot_signs(kappa)
    built = triples_of(family.build(kappa))
    picked = {
        t for sign in (1, -1)
        for t, s in zip(family.slot_triples(sign), signs) if s == sign
    }
    assert picked == built
