"""Triangle presentation axioms, enumeration, stabilizers, constructions."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_oracle import aut_plus
from label_oracle import (
    act,
    coset_steps,
    exact_covers,
    fset_of,
    image_triples,
    on_rows,
    orbit_stabilizer,
    pairs_of,
    presentation_of,
    presentations,
    project_F,
    thirds_of,
    triples_of,
)
from trigon import autosearch, census, tripres
from trigon.census import AutFull, aut_full, classify
from trigon.cli import present
from trigon.errors import (
    CheckFailed,
    KappaSpecError,
    LambdaConditionFailed,
    TooLarge,
    TwistCheckFailed,
)
from trigon.fgroup import (
    FiniteGroup,
    SignFamily,
    SubgroupDatum,
    _check_lambda,
    lambda_orbits,
    make_cyclic,
    subgroup,
)
from trigon.oppmodel import opp_datum
from trigon.pairset import FSet, apply_rho
from trigon.permgrp import Perm, PermGroup, bsgs_build
from trigon.singer import quad_datum, singer_datum
from trigon.tripres import TrianglePresentation, Violation, rep_entries, verify

SQUARE_F = FSet.from_labels((1, 2), [(1, 1), (1, 2), (2, 1), (2, 2)])
SQUARE_T = TrianglePresentation.from_labels((1, 2), [(1, 1, 2), (2, 2, 2)])
ALT_F = FSet.from_labels(
    range(1, 5), [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
)


def singer_f_q2():
    return FSet.from_labels(
        range(7), [(x, (x + s) % 7) for x in range(7) for s in (1, 2, 4)]
    )


def klein_group():
    return FiniteGroup(n=4, translation=lambda s: [x ^ s for x in range(4)])


def generating_set(G):
    """A small generating set, greedily taking the least element not yet
    generated; build_from_lambda checks left translation by it."""
    gens = []
    have = subgroup(G, gens)
    while have.order < G.n:
        gens.append(next(a for a in range(G.n) if a not in have))
        have = subgroup(G, gens)
    return gens


def build_from_lambda(G, S, lam):
    """T = {(x, xs, xs*lam(s))} by a tuple loop, after checking that G's
    left translations fix it; the oracle for SignFamily.build's all-plus
    choice."""
    S = _check_lambda(G, S, lam)
    triples = set()
    for x in range(G.n):
        for s in S:
            xs = G.mul(x, s)
            triples.add((x, xs, G.mul(xs, lam[s])))
    T = presentation_of(tuple(range(G.n)), triples)
    for g in generating_set(G):
        moved = image_triples(triples_of(T), [G.mul(g, a) for a in range(G.n)])
        if moved != triples_of(T):
            raise CheckFailed(f"left translation by {g} moves T")
    return T


def exquad():
    g = make_cyclic(21)
    s = [7, 9, 14, 15, 18]
    lam = {x: (4 * x) % 21 for x in s}
    return g, s, lam


def reps(T):
    """The canonical reps of T: its sorted triples filtered by rep_entries."""
    return [r for r in rep_entries(lambda *t: t, sorted(triples_of(T))) if r]


def test_rotation_closure_and_reps():
    t = TrianglePresentation.from_labels((1, 2, 3), [(1, 2, 3)])
    assert triples_of(t) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    assert t.out == ([1], [2], [0]) and t.third == ([2], [0], [1])
    assert reps(t) == [(0, 1, 2)]
    with pytest.raises(ValueError, match="unknown labels"):
        TrianglePresentation.from_labels((1, 2), [(1, 2, 3)])
    shuffled = TrianglePresentation.from_labels((9, 3, 5), [(5, 9, 3)])
    assert triples_of(shuffled) == {(2, 0, 1), (0, 1, 2), (1, 2, 0)}
    assert reps(shuffled) == [(0, 1, 2)]


def test_rotation_open_set_fails_axiom_three():
    f = FSet.from_labels((1, 2, 3), [(1, 2), (2, 3), (3, 1)])
    t = presentation_of((1, 2, 3), {(0, 1, 2)})
    assert triples_of(t) == {(0, 1, 2)}
    assert verify(f, t) == [
        Violation(3, (1, 2, 3)), Violation(2, (2, 3)), Violation(2, (3, 1)),
    ]


def test_verify_square():
    assert verify(SQUARE_F, SQUARE_T) == []
    broken = TrianglePresentation.from_labels((1, 2), [(1, 1, 2)])
    bad = verify(SQUARE_F, broken)
    assert Violation(2, (2, 2)) in bad


def test_verify_projection_axiom():
    f = FSet.from_labels((1, 2, 3), [(1, 2), (2, 3), (3, 1)])
    t = TrianglePresentation.from_labels((1, 2, 3), [(1, 3, 2)])
    bad = verify(f, t)
    assert any(v.axiom == 1 for v in bad)


def test_project_f():
    assert project_F(SQUARE_T) == SQUARE_F
    empty = presentation_of((1, 2), ())
    assert project_F(empty) == FSet((1, 2), ([], []))


def test_act_rho_fixes_square_t():
    assert triples_of(act(SQUARE_T, Perm((0, 1)), use_rho=True)) == triples_of(SQUARE_T)


def test_enumerate_square():
    out = presentations(SQUARE_F)
    assert len(out) == 2
    assert any(triples_of(t) == triples_of(SQUARE_T) for t in out)
    for t in out:
        assert verify(SQUARE_F, t) == []


def test_enumerate_alt():
    out = presentations(ALT_F)
    assert len(out) == 2
    t1, t2 = out
    assert triples_of(act(t1, Perm((0, 1, 3, 2)))) == triples_of(t2)


def test_enumerate_no_presentation():
    f = FSet.from_labels((1, 2), [(1, 1), (2, 1), (2, 2)])
    assert presentations(f) == []
    assert classify(f) == []


def test_enumerate_singer_q2():
    out = presentations(singer_f_q2())
    assert len(out) == 2
    cls = classify(singer_f_q2())
    assert [(c.orbit_size, c.aut_order) for c in cls] == [(2, 21)]


def complete_digraph(n):
    return FSet.from_labels(
        range(n), [(i, j) for i in range(n) for j in range(n) if i != j]
    )


def test_size_guard_runs_before_the_enumeration(monkeypatch):
    """|Aut+(F)| = 10! is over the limit, so classify stops before the
    witness search and the exact cover, which on this F runs for minutes."""

    def no_search(*args):
        raise AssertionError("a search started after the size guard")

    monkeypatch.setattr(census, "_exact_covers", no_search)
    monkeypatch.setattr(autosearch, "find_isomorphism", no_search)
    with pytest.raises(TooLarge, match="at least 3628800 automorphisms, more "
                       "than the limit 1000000"):
        classify(complete_digraph(10))


def test_stabilizer_alt():
    t1 = presentations(ALT_F)[0]
    st = census._orbit_stabilizer(ALT_F, thirds_of(t1), aut_full(ALT_F))[1]
    assert bsgs_build(ALT_F.n, st.generators).order() == 12
    assert st.witness is not None
    assert triples_of(act(t1, st.witness, use_rho=True)) == triples_of(t1)
    assert st.order == 24


def test_classify_alt():
    cls = classify(ALT_F)
    assert [(c.orbit_size, c.aut_order) for c in cls] == [(2, 24)]
    assert aut_full(ALT_F).order == 48


def test_classify_square():
    cls = classify(SQUARE_F)
    assert [(c.orbit_size, c.aut_order) for c in cls] == [(2, 2)]


def test_isomorphic_alt_pair():
    """The two presentations on ALT_F fill the one orbit classify walks."""
    t1, t2 = presentations(ALT_F)
    cls = classify(ALT_F)
    assert [(triples_of(on_rows(ALT_F, c.thirds)), c.orbit_size) for c in cls] == [
        (triples_of(t1), 2)
    ]
    assert triples_of(t2) != triples_of(t1)


def test_build_from_lambda_z3():
    g = make_cyclic(3)
    t = build_from_lambda(g, [1, 2], {1: 1, 2: 2})
    assert triples_of(t) == {
        (0, 1, 2), (1, 2, 0), (2, 0, 1),
        (0, 2, 1), (2, 1, 0), (1, 0, 2),
    }
    assert verify(project_F(t), t) == []


def test_build_from_lambda_empty():
    g = make_cyclic(3)
    t = build_from_lambda(g, [], {})
    assert triples_of(t) == frozenset()
    assert project_F(t).out == ([], [], [])


def test_build_from_lambda_klein_matches_alt():
    g = klein_group()
    t = build_from_lambda(g, [1, 2, 3], {1: 2, 2: 3, 3: 1})
    f = project_F(t)
    assert f.out == ALT_F.out
    assert triples_of(t) in {triples_of(T) for T in presentations(ALT_F)}


def test_build_from_lambda_rejects_bad_map():
    g = make_cyclic(3)
    with pytest.raises(LambdaConditionFailed):
        build_from_lambda(g, [1, 2], {1: 2, 2: 1})
    with pytest.raises(LambdaConditionFailed):
        build_from_lambda(g, [1, 2], {1: 1})


def test_exquad_f_invariants():
    g, s, lam = exquad()
    t1 = build_from_lambda(g, s, lam)
    f = project_F(t1)
    assert len(pairs_of(f)) == 105
    assert aut_plus(f).order() == 126
    af = aut_full(f)
    assert af.witness is not None and af.order == 252


def test_lambda_orbits_exquad():
    _, s, lam = exquad()
    assert lambda_orbits(s, lam) == [(7,), (9, 15, 18), (14,)]


def exquad_kappa(*minus):
    """The full sign choice on the three cosets of <3> in exquad's group:
    -1 on the cosets of the representatives in minus, +1 elsewhere."""
    return {(c, 9): -1 if c in minus else 1 for c in range(3)}


def test_build_t_kappa_all_plus_collapses():
    g, s, lam = exquad()
    h = subgroup(g, [3])
    t1 = build_from_lambda(g, s, lam)
    family = SignFamily(g, s, lam, h)
    assert family.keys == ((0, 9), (1, 9), (2, 9))
    assert triples_of(family.build(exquad_kappa())) == triples_of(t1)
    whole = SignFamily(g, s, lam, subgroup(g, [1]))
    assert whole.keys == (9,)
    assert triples_of(whole.build({9: 1})) == triples_of(t1)


def test_build_t_kappa_twist():
    g, s, lam = exquad()
    h = subgroup(g, [3])
    t1 = build_from_lambda(g, s, lam)
    t2 = SignFamily(g, s, lam, h).build(exquad_kappa(2))
    assert len(triples_of(t1) ^ triples_of(t2)) == 42
    coset2 = {x for x in range(21) if x % 3 == 2}
    for a, b, c in triples_of(t1) - triples_of(t2):
        assert {a, b, c} <= coset2
    f = project_F(t1)
    assert verify(f, t2) == []
    full = aut_full(f)
    st1 = census._orbit_stabilizer(f, thirds_of(t1), full)[1]
    st2 = census._orbit_stabilizer(f, thirds_of(t2), full)[1]
    assert st1.order == 126 and st1.witness is None
    assert st2.order == 42 and st2.witness is None
    orbits = [set(walk(f, c.thirds, full)[0]) for c in classify(f)]
    assert [(triples_of(t1) in o, triples_of(t2) in o) for o in orbits] == [
        (True, False), (False, True)
    ]


def test_exquad_classification():
    g, s, lam = exquad()
    f = project_F(build_from_lambda(g, s, lam))
    out = presentations(f)
    assert len(out) == 8
    cls = classify(f)
    assert [(c.orbit_size, c.aut_order) for c in cls] == [(2, 126), (6, 42)]


def test_t_kappa_subgroup_invariance():
    g, s, lam = exquad()
    h = subgroup(g, [3])
    t2 = SignFamily(g, s, lam, h).build(exquad_kappa(2))
    shift3 = Perm(tuple((a + 3) % 21 for a in range(21)))
    shift1 = Perm(tuple((a + 1) % 21 for a in range(21)))
    assert triples_of(act(t2, shift3)) == triples_of(t2)
    assert triples_of(act(t2, shift1)) != triples_of(t2)


def test_t_kappa_validation():
    """A sign on a fixed point, on an orbit outside H, on a non-canonical
    coset representative, or a value other than +1 or -1 is a usage error
    of the sign family."""
    g, s, lam = exquad()
    family = SignFamily(g, s, lam, subgroup(g, [3]))
    with pytest.raises(KappaSpecError, match=r"unknown \[\(0, 7\)\]"):
        family.build({**exquad_kappa(), (0, 7): -1})
    small = SignFamily(g, s, lam, subgroup(g, [7]))
    assert small.keys == ()
    with pytest.raises(KappaSpecError, match=r"unknown \[\(0, 9\)\]"):
        small.build({(0, 9): -1})
    with pytest.raises(KappaSpecError, match=r"missing \[\(2, 9\)\]"):
        family.build({(0, 9): 1, (1, 9): 1, (5, 9): -1})
    with pytest.raises(KappaSpecError, match="not a sign"):
        family.build({**exquad_kappa(), (2, 9): 0})
    assert issubclass(KappaSpecError, ValueError)
    assert issubclass(LambdaConditionFailed, CheckFailed)
    assert not issubclass(LambdaConditionFailed, ValueError)


def test_sign_family_rejects_a_broken_folding():
    g, s, lam = exquad()
    h = subgroup(g, [3])
    with pytest.raises(LambdaConditionFailed, match=r"s\*lam\(s\)\*lam\^2\(s\)"):
        SignFamily(g, s, {**lam, 7: 14, 14: 7}, h)
    with pytest.raises(LambdaConditionFailed, match="domain"):
        SignFamily(g, s, {x: lam[x] for x in s if x != 7}, h)


def test_twist_check_reports_open_rotation():
    """A coset index that puts 20 in the wrong coset untwists the triples
    that start at 20, so the twisted triples through 20 lose a rotation."""
    g, s, lam = exquad()
    h = subgroup(g, [3])
    wrong = SubgroupDatum(g, h.members, h.coset_index[:20] + (0,))
    with pytest.raises(TwistCheckFailed, match="axiom=3"):
        SignFamily(g, s, lam, wrong).build(exquad_kappa(2))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_build_check_matches_violations(data):
    """The oracle's one-map check passes exactly when _violations finds
    nothing against the triples' own pair set: on rotation closures of
    random and diagonal triples, with rotations dropped and second thirds
    added."""
    n = data.draw(st.integers(min_value=1, max_value=6))
    pos = st.integers(min_value=0, max_value=n - 1)
    seeds = data.draw(st.lists(st.tuples(pos, pos, pos), max_size=6))
    seeds += [(i, i, i) for i in data.draw(st.lists(pos, max_size=2))]
    triples = {r for i, j, k in seeds for r in ((i, j, k), (j, k, i), (k, i, j))}
    if triples:
        ordered = sorted(triples)
        triples -= data.draw(st.sets(st.sampled_from(ordered), max_size=2))
        for i, j, k in data.draw(st.lists(st.sampled_from(ordered), max_size=1)):
            other = data.draw(pos)
            triples |= {(i, j, other), (j, other, i), (other, i, j)}
    fout = fset_of(range(n), {(i, j) for i, j, _ in triples}).out
    T = presentation_of(range(n), triples)
    assert closed_and_unique(triples) == (not tripres._violations(fout, T))


def closed_and_unique(triples):
    """Whether triples pass the axioms against their own pair set, by one
    pair -> third map: third[j, k] == i for every (i, j, k) puts (j, k, i),
    then (k, i, j) in triples and makes third[i, j] == k, so a pair with a
    second third k' would need third[i, j] == k' as well."""
    third = {(i, j): k for i, j, k in triples}
    return all(third.get((j, k)) == i for i, j, k in triples)


def oracle_build_T_kappa(family, kappa, rule=coset_steps):
    """The twisted triples from a tuple loop, two products per triple, with
    the steps rule gives on each coset; None when they fail
    closed_and_unique."""
    G, H = family.G, family.H
    steps = [tuple(zip(family.S, row)) for row in rule(family, kappa)]
    triples = set()
    for x in range(G.n):
        for s, step in steps[H.coset_index[x]]:
            xs = G.mul(x, s)
            triples.add((x, xs, G.mul(xs, step)))
    return frozenset(triples) if closed_and_unique(triples) else None


TWISTED_DATA = {
    **{f"singer q={q}": (singer_datum, q) for q in (2, 3, 4, 5, 7, 8, 9)},
    **{f"quad q={q}": (quad_datum, q) for q in (2, 3)},
    **{f"opp q={q}": (opp_datum, q) for q in (4, 7, 13)},
}


@pytest.mark.parametrize("name", sorted(TWISTED_DATA))
def test_build_t_kappa_matches_the_tuple_loop(name):
    make, q = TWISTED_DATA[name]
    family = make(q).signs()
    for kappa in family.choices():
        assert triples_of(family.build(kappa)) == oracle_build_T_kappa(family, kappa)


@pytest.mark.parametrize("broken", ["one inverse step", "a step outside S"])
def test_a_twist_that_breaks_closure_names_its_violations(monkeypatch, broken):
    """A twist that gives one s of a folding orbit lam^2(s) while the rest
    of its orbit keeps lam, or a step outside S, leaves rotations open; the
    build raises with the violations _violations names."""
    family = singer_datum(3).signs()
    real = SignFamily.twist
    S, lam = family.S, family.lam
    a = next(a for a, s in enumerate(S) if lam[s] != s)
    outside = next(x for x in range(family.G.n) if x not in S)

    def bend(steps):
        steps = list(steps)
        steps[a] = lam[lam[S[a]]] if broken == "one inverse step" else outside
        return tuple(steps)

    monkeypatch.setattr(SignFamily, "twist", lambda self, kappa: bend(real(self, kappa)))
    kappa = next(family.choices())
    def bent(family, kappa):
        return list(map(bend, coset_steps(family, kappa)))

    assert oracle_build_T_kappa(family, kappa, bent) is None
    with pytest.raises(TwistCheckFailed, match=r"\[Violation\(axiom=3, data="):
        family.build(kappa)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.tuples(*[st.integers(0, 3)] * 3), max_size=12))
def test_canonical_reps_match_the_least_rotation(triples):
    """On random sets over four points, so with repeated entries and ties:
    rep_entries keeps exactly the triples that are the least of their
    rotations, closed under rotation or not, and on a rotation closure the
    kept triples are the sorted least rotations."""
    def least(t):
        i, j, k = t
        return min(t, (j, k, i), (k, i, j))

    ordered = sorted(triples)
    assert rep_entries(lambda *t: t, ordered) == [
        t if t == least(t) else "" for t in ordered
    ]
    closed = {least(t)[r:] + least(t)[:r] for t in triples for r in range(3)}
    T = presentation_of(tuple(range(4)), closed)
    assert reps(T) == sorted({least(t) for t in triples})


def test_generating_set():
    assert generating_set(make_cyclic(21)) == [1]
    assert generating_set(klein_group()) == [1, 2]


def test_format_table_square():
    assert "".join(present(SQUARE_T, None, "table")) == (
        "(1,1,2) (1,2,1)\n(2,1,1) (2,2,2)\n"
    )


def brute_presentations(f):
    """All compatible presentations by filtering rotation-orbit subsets."""
    n = f.n
    labels = f.labels
    orbits = set()
    for t in itertools.product(labels, repeat=3):
        i, j, k = t
        orbits.add(min((i, j, k), (j, k, i), (k, i, j)))
    orbits = sorted(orbits)
    found = []
    for mask in range(1 << len(orbits)):
        chosen = [orbits[b] for b in range(len(orbits)) if (mask >> b) & 1]
        t = TrianglePresentation.from_labels(labels, chosen)
        if verify(f, t) == []:
            found.append(triples_of(t))
    return sorted(found, key=sorted)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_enumerate_matches_brute_force(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=n),
                st.integers(min_value=1, max_value=n),
            ),
            max_size=n * n,
            unique=True,
        )
    )
    f = FSet.from_labels(range(1, n + 1), pairs)
    out = sorted((triples_of(t) for t in presentations(f)), key=sorted)
    assert out == brute_presentations(f)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_enumeration_closed_under_aut(data):
    f = singer_f_q2()
    out = presentations(f)
    keys = {triples_of(t) for t in out}
    af = aut_full(f)
    t = out[data.draw(st.integers(min_value=0, max_value=len(out) - 1))]
    for g in af.generators:
        assert triples_of(act(t, g)) in keys
    if af.witness is not None:
        assert triples_of(act(t, af.witness, use_rho=True)) in keys


def oracle_stabilizer(f, t):
    """Aut+(T) and the rho witness by relabeling T through act for every
    element of Aut+(F) and of its sorted rho coset."""
    a = aut_plus(f)
    tref = triples_of(t)
    keep = [s for s in a.elements() if triples_of(act(t, s)) == tref]
    plus = bsgs_build(f.n, [s for s in keep if not s.is_identity()])
    full = aut_full(f)
    witness = None
    if full.witness is not None:
        cands = sorted((g * full.witness for g in a.elements()),
                       key=lambda p: p.images)
        for s in cands:
            if triples_of(act(t, s, use_rho=True)) == tref:
                witness = s
                break
    return plus, witness


def oracle_classify(f):
    """Orbits of Aut(F) by act relabelings, over the oracle enumeration:
    (representative triples, orbit size, Aut+(T) elements, whether a rho
    witness exists)."""
    allt = exact_covers(f)
    index = {triples_of(t): i for i, t in enumerate(allt)}
    full = aut_full(f)
    movers = [(g, False) for g in full.generators]
    if full.witness is not None:
        movers.append((full.witness, True))
    seen = set()
    out = []
    for start in range(len(allt)):
        if start in seen:
            continue
        orbit = {start}
        queue = [start]
        for i in queue:
            for g, use_rho in movers:
                j = index[triples_of(act(allt[i], g, use_rho))]
                if j not in orbit:
                    orbit.add(j)
                    queue.append(j)
        seen |= orbit
        rep = allt[min(orbit)]
        plus, witness = oracle_stabilizer(f, rep)
        out.append((triples_of(rep), len(orbit), _elements(f.n, plus),
                    witness is not None))
    return out


def _elements(n, group):
    """The elements of a group's diagonal part on n points, sorted."""
    return sorted(p.images for p in bsgs_build(n, group.generators).elements())


DIFFERENTIAL_F = {
    "singer q=2": lambda: singer_datum(2).F(),
    "singer q=3": lambda: singer_datum(3).F(),
    "singer q=4": lambda: singer_datum(4).F(),
    "quad q=2": lambda: quad_datum(2).F(),
    "opp q=3": lambda: opp_datum(3).F(),
    "alt": lambda: ALT_F,
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_F))
def test_enumerate_matches_set_based_dfs(name):
    f = DIFFERENTIAL_F[name]()
    want = [triples_of(t) for t in exact_covers(f)]
    assert [triples_of(t) for t in presentations(f)] == want


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_enumerate_matches_set_based_dfs_on_random_pair_sets(data):
    """The most-constrained order against the first-free-pair oracle, up to
    5 points with diagonal pairs.  F is the pairs of random triples plus a
    few random pairs, so that it often admits presentations."""
    n = data.draw(st.integers(min_value=1, max_value=5))
    point = st.integers(min_value=0, max_value=n - 1)
    triples = data.draw(st.lists(st.tuples(point, point, point), max_size=8))
    extra = data.draw(st.sets(st.tuples(point, point), max_size=n))
    pairs = {p for i, j, k in triples for p in ((i, j), (j, k), (k, i))}
    f = FSet.from_labels(range(n), pairs | extra)
    want = [triples_of(t) for t in exact_covers(f)]
    assert [triples_of(t) for t in presentations(f)] == want


# pair sets where the branching order matters most, with their presentation
# counts: the first-free-pair order visits 312,822 nodes on opp q=7 against
# 344 most-constrained, and takes about 10 s on singer q=8 and over 290 s on
# opp q=13, where exact_covers cannot follow
LARGE_F = {
    "opp q=7": (lambda: opp_datum(7).F(), 4),
    "singer q=8": (lambda: singer_datum(8).F(), 8),
    "opp q=13": (lambda: opp_datum(13).F(), 16),
}


@pytest.mark.parametrize("name", sorted(LARGE_F))
def test_enumerate_counts_on_large_pair_sets(name):
    make, count = LARGE_F[name]
    f = make()
    out = presentations(f)
    assert len(out) == count
    assert all(verify(f, t) == [] for t in out)


def scan_every_node(F):
    """The thirds of the compatible presentations, one per pair in out-list
    order, sorted, and the number of search nodes, by the column rule that _exact_covers replaced:
    every node scans all free pairs for the one with the fewest live
    thirds, the first in sorted order on a tie, stopping at one with at
    most one.  The bitmasks and the stack are _exact_covers' own."""
    out = [sum(1 << j for j in js) for js in F.out]
    inn = [sum(1 << i for i in is_) for is_ in apply_rho(F).out]
    third = {}
    nodes = 0

    def most_constrained():
        nonlocal nodes
        nodes += 1
        best, fewest = None, F.n + 1
        for i in range(F.n):
            heads = out[i]
            while heads:
                low = heads & -heads
                heads ^= low
                j = low.bit_length() - 1
                live = out[j] & inn[i]
                if live.bit_count() < fewest:
                    if live.bit_count() <= 1:
                        return i, j, live
                    best, fewest = (i, j, live), live.bit_count()
        return best

    keys, chosen = [], []
    node = most_constrained()
    while True:
        if node is None:
            keys.append(tuple(
                third[i, j] for i, js in enumerate(F.out) for j in js
            ))
        elif node[2]:
            i, j, live = node
            low = live & -live
            k = low.bit_length() - 1
            for u, w, x in ((i, j, k), (j, k, i), (k, i, j)):
                out[u] &= ~(1 << w)
                inn[w] &= ~(1 << u)
                third[u, w] = x
            chosen.append((i, j, k, live ^ low))
            node = most_constrained()
            continue
        if not chosen:
            return sorted(keys), nodes
        i, j, k, live = chosen.pop()
        for u, w in ((i, j), (j, k), (k, i)):
            out[u] |= 1 << w
            inn[w] |= 1 << u
        node = (i, j, live)


# the pair sets of the benchmark's census documents, and singer q=8
COVER_F = {
    "singer q=5": lambda: singer_datum(5).F(),
    "singer q=7": lambda: singer_datum(7).F(),
    "opp q=7": lambda: opp_datum(7).F(),
    "quad q=2": lambda: quad_datum(2).F(),
    "singer q=8": lambda: singer_datum(8).F(),
}


@pytest.mark.parametrize("name", sorted(COVER_F))
def test_exact_covers_match_the_scan_at_every_node(monkeypatch, name):
    """Forced pairs first gives the same sorted covers as a full scan at
    every node, with no more full scans than that search has nodes."""
    f = COVER_F[name]()
    want, nodes = scan_every_node(f)
    scans = []
    full_scan = census._most_constrained

    def counted(out, inn):
        scans.append(None)
        return full_scan(out, inn)

    monkeypatch.setattr(census, "_most_constrained", counted)
    assert census._exact_covers(f) == want
    assert 0 < len(scans) <= nodes


def test_classify_singer_q8():
    classes = classify(singer_datum(8).F())
    assert sorted(c.orbit_size for c in classes) == [2, 6]


def _fixes(t, witness):
    """Whether the rho witness carries t onto itself; which witness of the
    coset comes back is not part of the contract."""
    return triples_of(act(t, witness, use_rho=True)) == triples_of(t)


def test_cover_limit_admits_exactly_its_thirds(monkeypatch):
    """singer --q 8 has 8 covers of 657 pairs: a limit of 8 x 657 thirds
    lists them all, one third less refuses the eighth."""
    f = singer_datum(8).F()
    monkeypatch.setattr(census, "_COVER_LIMIT", 8 * 657)
    assert len(census._exact_covers(f)) == 8
    monkeypatch.setattr(census, "_COVER_LIMIT", 8 * 657 - 1)
    with pytest.raises(TooLarge, match="more than 7 compatible presentations "
                                       "of 657 thirds"):
        census._exact_covers(f)


def test_classify_holds_each_cover_in_one_form():
    """classify on the singer --q 9 pair set, 512 covers of 910 pairs, peaks
    at no more than 16 traced bytes per listed third: a cover is one tuple of
    thirds from the listing to its class, with no presentation and no row
    lists made beside it (31.5 bytes a third when it made both)."""
    f = singer_datum(9).F()
    tracemalloc.start()
    try:
        classes = classify(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    thirds = sum(c.orbit_size for c in classes) * sum(map(len, f.out))
    assert thirds == 512 * 910
    assert peak <= 16 * thirds


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_F))
def test_classify_matches_act_relabelings(name):
    f = DIFFERENTIAL_F[name]()
    full = aut_full(f)
    got = []
    for c in classify(f):
        st = census._orbit_stabilizer(f, c.thirds, full)[1]
        rep = on_rows(f, c.thirds)
        assert c.aut_order == st.order
        assert st.witness is None or _fixes(rep, st.witness)
        got.append((triples_of(rep), c.orbit_size,
                    _elements(f.n, st), st.witness is not None))
    assert got == oracle_classify(f)


CENSUS_F = {
    "singer q=5": lambda: singer_datum(5).F(),
    "singer q=7": lambda: singer_datum(7).F(),
    "opp q=7": lambda: opp_datum(7).F(),
}


@pytest.mark.parametrize("name", sorted(CENSUS_F))
def test_census_stabilizers_match_act_relabelings(name):
    """The benchmark's census pair sets, where exact_covers is too slow:
    each class of the census against oracle_stabilizer."""
    f = CENSUS_F[name]()
    classes = classify(f)
    assert sum(c.orbit_size for c in classes) == len(presentations(f))
    full = aut_full(f)
    for c in classes:
        st = census._orbit_stabilizer(f, c.thirds, full)[1]
        rep = on_rows(f, c.thirds)
        plus, witness = oracle_stabilizer(f, rep)
        assert _elements(f.n, st) == _elements(f.n, plus)
        assert (st.witness is None) == (witness is None)
        assert st.witness is None or _fixes(rep, st.witness)
        assert c.aut_order == st.order


def _closure(n, movers):
    """The subgroup of Sym(n) x Z/2 that the (images, bit) pairs generate."""
    group = {(tuple(range(n)), 0)}
    queue = list(group)
    for g, a in queue:
        for h, b in movers:
            x = (tuple(h[i] for i in g), a ^ b)
            if x not in group:
                group.add(x)
                queue.append(x)
    return group


def walk(F, thirds, full):
    """The orbit of the presentation with these thirds, one per pair of F,
    under the thirds-key walk, as triple sets in walk order, and its
    stabilizer."""
    orbit, stab = census._orbit_stabilizer(F, thirds, full)
    return [triples_of(on_rows(F, x)) for x in orbit], stab


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_orbit_stabilizer_matches_brute_force(data):
    """The orbit and the stabilizer from Schreier generators against the
    whole group, listed by closure, on arbitrary thirds of every pair."""
    n = data.draw(st.integers(min_value=2, max_value=4))
    movers = data.draw(st.lists(
        st.tuples(st.permutations(range(n)), st.integers(0, 1)),
        min_size=1, max_size=3,
    ))
    F = fset_of(range(n), itertools.product(range(n), repeat=2))
    thirds = data.draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    T = on_rows(F, thirds)
    ptrip = triples_of(T)
    group = _closure(n, movers)
    plus = []
    for g, b in sorted(group):
        if not b and not bsgs_build(n, plus).contains(Perm(g)):
            plus.append(Perm(g))
    swaps = sorted(g for g, b in group if b)
    full = AutFull(tuple(plus), len(group),
                   Perm(swaps[-1]) if swaps else None)
    orbit, stab = walk(F, tuple(thirds), full)
    images = {image_triples(ptrip, g, b) for g, b in group}
    fixing = {(g, b) for g, b in group if image_triples(ptrip, g, b) == ptrip}
    assert sorted(orbit, key=sorted) == sorted(images, key=sorted)
    assert _elements(n, stab) == sorted(g for g, b in fixing if not b)
    assert (stab.witness is None) == all(not b for _, b in fixing)
    assert stab.witness is None or (stab.witness.images, 1) in fixing


def test_orbit_stabilizer_takes_products_of_coordinate_swaps():
    """Every Schreier generator of this orbit swaps the coordinates, so the
    order-2 Aut+(T) comes only from products of two of them.  On the
    diagonal pair set, T marks point 4 by the triple (4, 4, 4) and sends
    every other point but 3 to 3, which the group fixes."""
    full = AutFull((Perm((2, 5, 4, 3, 0, 1)),), 12, Perm((0, 5, 4, 3, 2, 1)))
    F = fset_of(range(6), [(x, x) for x in range(6)])
    T = on_rows(F, [3, 3, 3, 3, 4, 3])
    orbit, stab = walk(F, thirds_of(T), full)
    assert len(orbit) * stab.order == full.order == 12
    assert _elements(6, stab) == [(0, 1, 2, 3, 4, 5), (0, 5, 2, 3, 4, 1)]
    assert image_triples(triples_of(T), stab.witness.images, True) == triples_of(T)


def relabelled(F, seed):
    """F over the same labels, its positions moved by a random permutation."""
    perm = random.Random(seed).sample(range(F.n), F.n)
    return fset_of(F.labels, {(perm[i], perm[j]) for i, j in pairs_of(F)})


WALK_F = {
    "complete digraph on 4": lambda: complete_digraph(4),
    "singer q=2": lambda: singer_datum(2).F(),
    "singer q=3": lambda: singer_datum(3).F(),
    "quad q=2": lambda: quad_datum(2).F(),
}


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("name", sorted(WALK_F))
def test_walk_matches_the_triple_set_walk(name, seed):
    """The thirds-key walk against the triple-set walk it replaced, from
    every presentation on the census pair sets and on random relabellings
    of them: the same orbit in the same order, the same stabilizer order
    and the same witness, bit-1 moves included."""
    F = WALK_F[name]()
    if seed is not None:
        F = relabelled(F, seed)
    full = aut_full(F)
    found = presentations(F)
    assert found
    for T in found:
        orbit, stab = walk(F, thirds_of(T), full)
        want, want_stab = orbit_stabilizer(triples_of(T), full, F.n)
        assert orbit == want
        assert stab.order == want_stab.order
        assert stab.witness == want_stab.witness


def test_classify_lists_no_group_elements(monkeypatch):
    def no_elements(self):
        raise AssertionError("PermGroup.elements was called")

    monkeypatch.setattr(PermGroup, "elements", no_elements)
    for f in (ALT_F, quad_datum(2).F()):
        classes = classify(f)
        full = aut_full(f)
        for c in classes:
            st = census._orbit_stabilizer(f, c.thirds, full)[1]
            assert st.order == c.aut_order


def test_broken_counting_identity_raises(monkeypatch):
    trivial = AutFull(generators=(), order=1, witness=None)
    real = census._orbit_stabilizer
    monkeypatch.setattr(
        census, "_orbit_stabilizer",
        lambda F, thirds, full: (real(F, thirds, full)[0], trivial),
    )
    assert not issubclass(CheckFailed, ValueError)
    with pytest.raises(CheckFailed, match="orbit size 2 times stabilizer order 1"):
        classify(ALT_F)


def test_translation_check_raises(monkeypatch):
    g = make_cyclic(3)
    real = presentation_of
    monkeypatch.setitem(globals(), "generating_set", lambda G: [1])
    monkeypatch.setitem(
        globals(), "presentation_of",
        lambda labels, triples: real(labels, {(0, 0, 1)}),
    )
    with pytest.raises(CheckFailed, match="left translation"):
        build_from_lambda(g, [1, 2], {1: 1, 2: 2})
