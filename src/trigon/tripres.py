"""Triangle presentations: axioms, actions, enumeration, and classification."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .autosearch import find_isomorphism
from .fgroup import FiniteGroup, SubgroupDatum, subgroup
from .linkgraph import FSet, apply_rho, aut_full, aut_plus, digraph_of
from .permgrp import Perm, PermGroup, bsgs_build


class IncompatiblePresentation(ValueError):
    """Raised when an operation needs verify(F, T) to pass and it does not."""


class LambdaConditionFailed(ValueError):
    """Raised when the folding map breaks its defining identities."""


class OrbitNotInSubgroup(ValueError):
    """Raised when a sign table references an orbit outside the subgroup."""


class SearchTooLarge(ValueError):
    """Raised when an element-by-element search would exceed its bound."""


class KappaSpecError(ValueError):
    """A sign choice whose keys do not match the datum's orbit keys."""


class TwistCheckFailed(Exception):
    """A twisted presentation built from a valid folding fails its axioms."""


@dataclass(frozen=True)
class TrianglePresentation:
    """A rotation-closed set of triples over a fixed labeled index set."""

    labels: tuple
    triples: frozenset

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        closed = set()
        lab = set(self.labels)
        for i, j, k in self.triples:
            for t in ((i, j, k), (j, k, i), (k, i, j)):
                if t[0] not in lab or t[1] not in lab or t[2] not in lab:
                    raise ValueError(f"triple {t} uses unknown labels")
                closed.add(t)
        object.__setattr__(self, "triples", frozenset(closed))

    @property
    def n(self) -> int:
        return len(self.labels)

    def position(self) -> dict:
        return {a: i for i, a in enumerate(self.labels)}

    def position_triples(self) -> frozenset:
        pos = self.position()
        return frozenset((pos[a], pos[b], pos[c]) for a, b, c in self.triples)

    def canonical_reps(self) -> list:
        """Lexicographically smallest rotation of each orbit, sorted."""
        pos = self.position()

        def key(t):
            return (pos[t[0]], pos[t[1]], pos[t[2]])

        reps = {
            min(((i, j, k), (j, k, i), (k, i, j)), key=key)
            for i, j, k in self.triples
        }
        return sorted(reps, key=key)

    def __repr__(self):
        return (
            f"TrianglePresentation(n={self.n}, "
            f"orbits={len(self.canonical_reps())})"
        )


@dataclass(frozen=True)
class Violation:
    """One broken presentation axiom: 1 projection, 2 uniqueness, 3 rotation."""

    axiom: int
    data: tuple


def verify(F: FSet, T: TrianglePresentation) -> list[Violation]:
    """All axiom violations of T against F; empty means compatible."""
    if F.n != T.n:
        raise ValueError("index sets differ in size")
    fpairs = F.position_pairs()
    ptrip = T.position_triples()
    out = []
    for t in sorted(ptrip):
        i, j, k = t
        if (i, j) not in fpairs:
            out.append(Violation(1, _labels_of(T, t)))
        if (j, k, i) not in ptrip:
            out.append(Violation(3, _labels_of(T, t)))
    for i, j in sorted(fpairs):
        ks = [k for k in range(T.n) if (i, j, k) in ptrip]
        if len(ks) != 1:
            out.append(Violation(2, (F.labels[i], F.labels[j])))
    return out


def _labels_of(T, t):
    return tuple(T.labels[i] for i in t)


def project_F(T: TrianglePresentation) -> FSet:
    """The pair set {(i,j) : (i,j,k) in T}."""
    return FSet(T.labels, frozenset((i, j) for i, j, _ in T.triples))


def act(T: TrianglePresentation, sigma: Perm, use_rho: bool = False):
    """sigma T = {(si,sj,sk)}; with use_rho apply (i,j,k) -> (j,i,k) first."""
    pos = T.position()
    lab = T.labels
    trip = T.triples
    if use_rho:
        trip = {(j, i, k) for i, j, k in trip}
    return TrianglePresentation(
        lab,
        frozenset(
            (lab[sigma(pos[a])], lab[sigma(pos[b])], lab[sigma(pos[c])])
            for a, b, c in trip
        ),
    )


def enumerate_all(F: FSet, most_constrained: bool = False):
    """Every triangle presentation compatible with F, in a canonical order.

    Exact cover: the chosen triple for a pair (i,j) covers (i,j), (j,k) and
    (k,i) at once, so each pair is consumed exactly once; the toggle only
    changes the branching order, never the result set.
    """
    n = F.n
    fpairs = F.position_pairs()
    pairlist = sorted(fpairs)
    cand = {
        (i, j): [
            k for k in range(n) if (j, k) in fpairs and (k, i) in fpairs
        ]
        for i, j in pairlist
    }
    results = []
    covered: set = set()
    chosen: list = []

    def next_pair():
        free = [p for p in pairlist if p not in covered]
        if not free:
            return None
        if not most_constrained:
            return free[0]
        return min(
            free,
            key=lambda p: (
                sum(1 for k in cand[p] if _orbit_free(p, k)),
                p,
            ),
        )

    def _orbit_free(p, k):
        i, j = p
        return (j, k) not in covered and (k, i) not in covered

    def dfs():
        p = next_pair()
        if p is None:
            results.append(frozenset(chosen))
            return
        i, j = p
        for k in cand[p]:
            need = {(i, j), (j, k), (k, i)}
            if any(q in covered for q in need):
                continue
            covered.update(need)
            chosen.append((i, j, k))
            dfs()
            chosen.pop()
            covered.difference_update(need)

    dfs()
    out = [
        TrianglePresentation(
            F.labels,
            frozenset(
                (F.labels[i], F.labels[j], F.labels[k]) for i, j, k in r
            ),
        )
        for r in set(results)
    ]
    out.sort(key=lambda t: sorted(t.position_triples()))
    return out


@dataclass(frozen=True, eq=False)
class TStabilizer:
    """Stabilizer of T: the diagonal part and an optional rho-coset witness."""

    plus: PermGroup
    rho_witness: Perm | None

    @property
    def order(self) -> int:
        return self.plus.order() * (2 if self.rho_witness is not None else 1)


def stabilizer_of_T(F: FSet, T: TrianglePresentation, limit: int = 10**6):
    """Aut+(T) by filtering Aut+(F), plus a triple-preserving sigma rho."""
    if verify(F, T):
        raise IncompatiblePresentation("T fails its axioms against F")
    A = aut_plus(F)
    if A.order() > limit:
        raise SearchTooLarge(f"|Aut+(F)| = {A.order()} exceeds {limit}")
    tref = T.position_triples()
    keep = [
        s
        for s in A.elements()
        if act(T, s).position_triples() == tref
    ]
    plus = bsgs_build(F.n, [s for s in keep if not s.is_identity()])
    full = aut_full(F)
    rho_witness = None
    if full.has_rho_part:
        w0 = full.witness
        cands = sorted((a * w0 for a in A.elements()), key=lambda p: p.images)
        for s in cands:
            if act(T, s, use_rho=True).position_triples() == tref:
                rho_witness = s
                break
    return TStabilizer(plus=plus, rho_witness=rho_witness)


@dataclass(frozen=True, eq=False)
class TClass:
    """One isomorphism class of presentations on a fixed F."""

    representative: TrianglePresentation
    orbit_size: int
    aut_order: int


def classify(F: FSet, limit: int = 10**6) -> list[TClass]:
    """Orbits of Aut(F) on all compatible presentations.

    The counting identity sum(|Aut(F)| / |Aut(T)|) = #presentations is
    asserted on every run.
    """
    allt = enumerate_all(F)
    if not allt:
        return []
    key_of = {i: tuple(sorted(t.position_triples())) for i, t in enumerate(allt)}
    index = {k: i for i, k in key_of.items()}
    full = aut_full(F)
    movers = [(g, False) for g in full.plus.generators]
    if full.has_rho_part:
        movers.append((full.witness, True))
    seen = [False] * len(allt)
    classes = []
    for start in range(len(allt)):
        if seen[start]:
            continue
        orbit = {start}
        queue = [start]
        for i in queue:
            for g, use_rho in movers:
                moved = act(allt[i], g, use_rho)
                j = index[tuple(sorted(moved.position_triples()))]
                if j not in orbit:
                    orbit.add(j)
                    queue.append(j)
        for i in orbit:
            seen[i] = True
        rep = allt[min(orbit)]
        st = stabilizer_of_T(F, rep, limit)
        cls = TClass(
            representative=rep, orbit_size=len(orbit), aut_order=st.order
        )
        assert full.order == cls.orbit_size * cls.aut_order
        classes.append(cls)
    assert sum(c.orbit_size for c in classes) == len(allt)
    return classes


def _check_lambda(G: FiniteGroup, S, lam) -> list:
    S = sorted(S)
    if sorted(lam) != S:
        raise LambdaConditionFailed("domain of the folding map is not S")
    for s in S:
        if lam[s] not in set(S):
            raise LambdaConditionFailed(f"image of {s} leaves S")
    for s in S:
        t = lam[s]
        if G.mul(G.mul(s, t), lam[t]) != G.id:
            raise LambdaConditionFailed(
                f"s*lam(s)*lam^2(s) != 1 at s = {s}"
            )
    return S


def generating_set(G: FiniteGroup) -> list[int]:
    """A small generating set, greedily taking the least element not yet
    generated."""
    gens: list[int] = []
    have = subgroup(G, gens)
    while have.order < G.n:
        for a in range(G.n):
            if a not in have:
                gens.append(a)
                break
        have = subgroup(G, gens)
    return gens


def build_from_lambda(G: FiniteGroup, S, lam) -> TrianglePresentation:
    """T = {(x, xs, xs*lam(s))}; G acts by left translation and fixes T."""
    S = _check_lambda(G, S, lam)
    triples = set()
    for x in range(G.n):
        for s in S:
            xs = G.mul(x, s)
            triples.add((x, xs, G.mul(xs, lam[s])))
    T = TrianglePresentation(tuple(range(G.n)), frozenset(triples))
    for g in generating_set(G):
        tr = Perm(tuple(G.mul(g, a) for a in range(G.n)))
        assert act(T, tr).triples == T.triples
    return T


def lambda_orbits(S, lam) -> list[tuple]:
    """Cycle partition of S under the folding map, each orbit sorted."""
    left = set(S)
    orbits = []
    while left:
        s = min(left)
        orb = [s]
        t = lam[s]
        while t != s:
            orb.append(t)
            t = lam[t]
        left.difference_update(orb)
        orbits.append(tuple(sorted(orb)))
    return sorted(orbits)


def build_T_kappa(
    G: FiniteGroup, S, lam, H: SubgroupDatum, kappa
) -> TrianglePresentation:
    """The sign-twisted presentation: on orbits inside H, a -1 entry of kappa
    swaps the folding map for its inverse on the listed coset.

    kappa keys are (minimal coset representative, minimal orbit element);
    missing keys default to +1.
    """
    S = _check_lambda(G, S, lam)
    for s in S:
        if lam[lam[lam[s]]] != s:
            raise LambdaConditionFailed("folding map must have order dividing 3")
        t = lam[s]
        if G.mul(G.mul(s, lam[t]), t) != G.id:
            raise LambdaConditionFailed(
                f"s*lam^2(s)*lam(s) != 1 at s = {s}"
            )
    orbits = lambda_orbits(S, lam)
    members = set(H.members)
    in_h = {
        o: (len(o) == 3 and all(s in members for s in o)) for o in orbits
    }
    orbit_of = {s: o for o in orbits for s in o}
    rep_of = H.reps
    reps = set(rep_of)
    for (rep, omin), sign in kappa.items():
        hit = [o for o in orbits if min(o) == omin]
        if not hit or not in_h[hit[0]]:
            raise OrbitNotInSubgroup(
                f"kappa references orbit {omin} outside the subgroup"
            )
        if rep not in reps:
            raise ValueError(f"{rep} is not a canonical coset representative")
        if sign not in (1, -1):
            raise ValueError(f"kappa value {sign} is not a sign")
    triples = set()
    for x in range(G.n):
        rep = rep_of[H.coset_index[x]]
        for s in S:
            o = orbit_of[s]
            step = lam[s]
            if in_h[o] and kappa.get((rep, min(o)), 1) == -1:
                step = lam[lam[s]]
            xs = G.mul(x, s)
            triples.add((x, xs, G.mul(xs, step)))
    T = TrianglePresentation(tuple(range(G.n)), frozenset(triples))
    bad = verify(project_F(T), T)
    if bad:
        raise TwistCheckFailed(f"twisted presentation broke its axioms: {bad[:3]}")
    return T


@dataclass(frozen=True, eq=False)
class SignFamily:
    """The sign twists of one folded datum: one sign per length-3 folding
    orbit inside H, for each coset of H.  A key is the orbit minimum when H
    has one coset, else the pair (coset representative, orbit minimum)."""

    G: FiniteGroup
    S: tuple
    lam: dict
    H: SubgroupDatum
    keys: tuple = field(init=False)

    def __post_init__(self):
        mins = [
            o[0] for o in lambda_orbits(self.S, self.lam)
            if len(o) == 3 and all(s in self.H for s in o)
        ]
        if self.H.index > 1:
            mins = sorted((rep, omin) for rep in self.H.reps for omin in mins)
        object.__setattr__(self, "keys", tuple(mins))

    def check(self, kappa) -> None:
        """Raise KappaSpecError unless kappa maps exactly the keys to signs."""
        keys = set(self.keys)
        if set(kappa) != keys:
            missing = [k for k in self.keys if k not in kappa]
            unknown = [k for k in kappa if k not in keys]
            raise KappaSpecError(
                f"kappa keys do not match the orbit keys {list(self.keys)}: "
                f"missing {missing}, unknown {unknown}"
            )
        for key, sign in kappa.items():
            if sign not in (1, -1):
                raise KappaSpecError(f"kappa value {sign!r} at {key} is not a sign")

    def choices(self):
        """All 2^len(keys) sign choices, the all-plus choice first."""
        for signs in product((1, -1), repeat=len(self.keys)):
            yield dict(zip(self.keys, signs))

    def build(self, kappa) -> TrianglePresentation:
        """The twisted presentation of one checked sign choice."""
        self.check(kappa)
        if self.H.index == 1:
            kappa = {(0, omin): sign for omin, sign in kappa.items()}
        return build_T_kappa(self.G, self.S, self.lam, self.H, kappa)


def isomorphic_T(F1, T1, F2, T2, limit: int = 10**6):
    """The lexicographically least witness (sigma, used_rho) carrying T1 to
    T2, diagonal branch before the coordinate-swapping one; None if neither
    branch works."""
    if F1.n != F2.n:
        return None
    A = aut_plus(F1)
    if A.order() > limit:
        raise SearchTooLarge(f"|Aut+(F1)| = {A.order()} exceeds {limit}")
    t2 = T2.position_triples()
    o2, i2 = digraph_of(F2)
    for use_rho in (False, True):
        base = apply_rho(F1) if use_rho else F1
        o1, i1 = digraph_of(base)
        w0 = find_isomorphism(F1.n, o1, i1, o2, i2)
        if w0 is None:
            continue
        cands = sorted((a * w0 for a in A.elements()), key=lambda p: p.images)
        for s in cands:
            if act(T1, s, use_rho).position_triples() == t2:
                return (s, use_rho)
    return None


def format_table(T: TrianglePresentation) -> str:
    """Rows grouped by first coordinate, triples sorted by second."""
    pos = T.position()
    rows: dict[int, list] = {}
    for t in T.triples:
        rows.setdefault(pos[t[0]], []).append(t)
    lines = []
    for i in sorted(rows):
        row = sorted(rows[i], key=lambda t: (pos[t[1]], pos[t[2]]))
        lines.append(" ".join(f"({a},{b},{c})" for a, b, c in row))
    return "\n".join(lines) + "\n"
