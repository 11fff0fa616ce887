"""The --all-kappa writer and SignFamily's slots against the per-choice path
they replaced: each choice built by its own walk of the cosets of H, checked,
sorted and rendered on its own.  That builder and plain renderers of its
sorted triples are kept here as the oracle."""

import json
import random
from itertools import chain, groupby
from operator import itemgetter

import pytest

from label_oracle import coset_steps, fset_of, pairs_of, presentation_of, triples_of
from trigon.cli import _present_family, kappa_spec_of, run
from trigon.errors import TwistCheckFailed
from trigon.fgroup import SignFamily, SubgroupDatum, make_cyclic, subgroup
from trigon.oppmodel import opp_datum
from trigon.singer import quad_datum, singer_datum
from trigon.tripres import _violations


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


def oracle_choice_text(model, q, family, kappa, fmt, rule=coset_steps):
    """The presentation text --all-kappa writes for one choice, after its
    head: one walk, sort and render.  The labels are the positions 0..n-1,
    so a triple is written as it is held."""
    n = family.G.n
    triples = sorted(walk_triples(family, kappa, rule))
    reps = sorted({min(t, t[1:] + t[:1], t[2:] + t[:2]) for t in triples})
    if fmt == "json":
        blob = {
            "F": [[i, j] for i, j, _ in triples],
            "T": [list(t) for t in reps],
            "labels": list(range(n)),
            "meta": {"model": model, "q": q, "kappa": kappa_spec_of(kappa)},
            "n": n,
        }
        # the document as an entry of a top-level array, "[\n  " ... "\n]"
        return json.dumps([blob], sort_keys=True, indent=2)[4:-2]
    if fmt == "gap":
        words = ", ".join(f"F.{i + 1}*F.{j + 1}*F.{k + 1}" for i, j, k in reps)
        return f"F := FreeGroup({n});\nG := F / [ {words} ];\n"
    rows = groupby(triples, key=itemgetter(0))
    table = "\n".join(" ".join(f"({i},{j},{k})" for i, j, k in row) for _, row in rows)
    return table + "\n"


def oracle_head(fmt, index, kappa):
    """What --all-kappa writes before the text of its index-th choice."""
    if fmt == "json":
        return ",\n  " if index else "[\n  "
    head = f"{'# ' if fmt == 'gap' else ''}kappa {kappa_spec_of(kappa)}\n"
    return ("\n" if index else "") + head


def oracle_family_text(model, q, family, fmt, kappas=None, rule=coset_steps):
    """The --all-kappa text of the kappas, by default every choice in
    choices() order, all of which pass their check."""
    kappas = list(family.choices()) if kappas is None else kappas
    text = "".join(
        oracle_head(fmt, index, kappa)
        + oracle_choice_text(model, q, family, kappa, fmt, rule)
        for index, kappa in enumerate(kappas)
    )
    return text + "\n]\n" if fmt == "json" else text


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


def bend_one_step(monkeypatch):
    """Bend every family's twist to step the first s of S in a twisted
    orbit by lam(s) under either sign: the all-plus choice closes, and a
    choice that puts -1 on that orbit's key leaves rotations of that one
    key open.  Returns the bend, (family, steps) -> bent steps."""
    real = SignFamily.twist

    def forward(family, steps):
        S = family.S
        a = next(a for a, s in enumerate(S) if s in family.orbit_min)
        return steps[:a] + (family.lam[S[a]],) + steps[a + 1:]

    monkeypatch.setattr(SignFamily, "twist",
                        lambda self, kappa: forward(self, real(self, kappa)))
    return forward


def one_forward_step(monkeypatch):
    """bend_one_step on the Singer family at q = 3; the family's twist and
    the oracle's rule are bent alike."""
    forward = bend_one_step(monkeypatch)
    return singer_datum(3).signs(), lambda family, kappa: [
        forward(family, steps) for steps in coset_steps(family, kappa)
    ]


def walk_violations(family, kappa, rule):
    """_violations of the walked triples of one choice."""
    triples = walk_triples(family, kappa, rule)
    fout = fset_of(range(family.G.n), {(i, j) for i, j, _ in triples}).out
    return _violations(fout, presentation_of(range(family.G.n), triples))


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
        found = walk_violations(family, kappa, rule)
        if not found:
            assert triples_of(family.build(kappa)) == triples
            signs = family.key_signs(kappa)
            assert len(signs) == len(family.key_slots)
            assert sum(map(len, family.key_slots)) == len(triples)
            continue
        failed += 1
        want = f"twisted presentation broke its axioms: {found[:3]}"
        for check in (family.build, family.key_signs):
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
    places = sorted(chain.from_iterable(family.key_slots))
    assert places == list(range(len(family.slots)))
    kappa = dict(zip(family.keys, chain([-1], [1] * len(family.keys))))
    signs = family.key_signs(kappa)
    built = triples_of(family.build(kappa))
    picked = {
        family.slot_triples(sign)[r] for sign in (1, -1)
        for s, slots in zip(signs, family.key_slots) if s == sign for r in slots
    }
    assert picked == built


@pytest.mark.parametrize("name", ["opp q=7", "quad q=3", "singer q=7"])
@pytest.mark.parametrize("fmt", ["table", "json", "gap"])
def test_each_choice_matches_the_oracle_in_a_shuffled_order(monkeypatch, name, fmt):
    """The writer re-picks only the slots of the keys whose sign differs
    from the choice before; in a shuffled order keys flip to -1 and back to
    +1 out of binary order, and each choice's head and text are still its
    own."""
    model, make, q = TWISTED_DATA[name]
    family = make(q).signs()
    kappas = list(family.choices())
    random.Random(q).shuffle(kappas)
    monkeypatch.setattr(SignFamily, "choices", lambda self: iter(kappas))
    texts = list(_present_family(model, q, family, fmt))
    if fmt == "json":
        assert texts.pop() == ["\n]\n"]
    assert len(texts) == len(kappas)
    for index, ((head, *body), kappa) in enumerate(zip(texts, kappas)):
        assert head == oracle_head(fmt, index, kappa)
        assert "".join(body) == oracle_choice_text(model, q, family, kappa, fmt)


@pytest.mark.parametrize("fmt", ["table", "json", "gap"])
def test_a_failed_choice_leaves_the_choices_before_it_on_stdout(
        capsys, monkeypatch, fmt):
    """A twist check that fails part way ends the family with exit 1 and
    its message on stderr, after exactly the texts of the choices that
    passed before it."""
    family, rule = one_forward_step(monkeypatch)
    kappas = list(family.choices())
    first = next(
        i for i, kappa in enumerate(kappas) if walk_violations(family, kappa, rule)
    )
    assert 0 < first < len(kappas)
    code = run(["singer", "--q", "3", "--all-kappa", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("trigon singer: twisted presentation broke")
    want = oracle_family_text("singer", 3, family, fmt, kappas[:first], rule)
    assert captured.out == (want[:-len("\n]\n")] if fmt == "json" else want)
