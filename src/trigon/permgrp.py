"""Permutation groups on 0-based points with a deterministic stabilizer chain.

Permutations are stored as image tuples, so g maps i to g.images[i].  Products
compose left to right: (g * h) applies g first.  The Schreier-Sims chain always
picks the smallest moved point as the next base point (after any caller-supplied
hint), which makes orders, transversals and element enumeration reproducible.
"""

from __future__ import annotations


class InvalidPermutation(ValueError):
    pass


class NotInvariant(ValueError):
    pass


class Perm:
    """A permutation of {0, ..., n-1} as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise InvalidPermutation(f"not a permutation: {images}")
        self.images = images

    @classmethod
    def _trusted(cls, images: tuple) -> Perm:
        """Wrap an image tuple that is a permutation by construction, without
        the check in __init__; for products, inverses and identities."""
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, n: int) -> Perm:
        return cls._trusted(tuple(range(n)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: Perm) -> Perm:
        if other.degree != self.degree:
            raise InvalidPermutation("degree mismatch in product")
        oth = other.images
        return Perm._trusted(tuple([oth[i] for i in self.images]))

    def inverse(self) -> Perm:
        return Perm._trusted(_inverse_images(self.images))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        """The cycles of 0-based points, "()" for the identity."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, cyc)) + ")" for cyc in cycs)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm{self.images}"


class PermGroup:
    """A permutation group presented by a base and strong generating set.

    Level i of the chain is base[i] and its orbit under the stabilizer of
    base[:i]: transversals[i] maps each orbit point b to the images of the
    transversal element u with u(base[i]) = b, and inverses[i] maps b to
    the images of u^-1."""

    def __init__(self, degree, generators, strong_generators, base,
                 transversals, inverses):
        self.degree = degree
        self.generators = tuple(generators)
        self.strong_generators = tuple(strong_generators)
        self.base = tuple(base)
        self._transversals = transversals
        self._inverses = inverses

    def order(self) -> int:
        n = 1
        for t in self._transversals:
            n *= len(t)
        return n

    def strip(self, g: Perm):
        """Sift g through the chain, returning (residue, stop level)."""
        residue, level = _sift(g.images, self.base, self._inverses)
        return Perm._trusted(residue), level

    def contains(self, g: Perm) -> bool:
        if g.degree != self.degree:
            return False
        residue, _ = self.strip(g)
        return residue.is_identity()

    def orbit(self, point: int) -> list[int]:
        seen = {point}
        queue = [point]
        for b in queue:
            for g in self.generators:
                c = g.images[b]
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
        return sorted(seen)

    def orbits(self) -> list[list[int]]:
        left = set(range(self.degree))
        out = []
        while left:
            orb = self.orbit(min(left))
            out.append(orb)
            left -= set(orb)
        return out

    def elements(self):
        """All group elements, in chain order."""

        def walk(level):
            if level == len(self.base):
                yield Perm.identity(self.degree)
                return
            for u in self._transversals[level].values():
                u = Perm._trusted(u)
                for h in walk(level + 1):
                    yield h * u

        return list(walk(0))

    def stabilizer(self, point: int) -> PermGroup:
        """The stabilizer of a point: levels 1 and up of a chain based there.

        The strong generators that fix base[0] generate the first stabilizer,
        and the later levels hold orbits of the group they generate.
        """
        chain = bsgs_build(self.degree, self.generators, base_hint=(point,))
        sub = [g for g in chain.strong_generators if g.images[point] == point]
        return PermGroup(
            self.degree, sub, sub, chain.base[1:], chain._transversals[1:],
            chain._inverses[1:],
        )

    def restrict(self, points) -> PermGroup:
        """The image of the action on an invariant list of points."""
        points = list(points)
        rgens = restricted_generators(self.generators, points)
        return bsgs_build(len(points), rgens)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order()})"


def _inverse_images(images) -> tuple:
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return tuple(inv)


def _sift(g, base, inverses):
    """Sift the images g through a chain given by its base and inverse
    transversals: (residue images, stop level)."""
    for i, (point, inv) in enumerate(zip(base, inverses)):
        b = g[point]
        if b != point:
            u = inv.get(b)
            if u is None:
                return g, i
            g = tuple([u[x] for x in g])
    return g, len(base)


def restricted_generators(generators, points) -> list[Perm]:
    """The action of each generator on a list of points, as a permutation of
    positions in that list; raises NotInvariant if a point leaves the list."""
    points = list(points)
    pos = {p: i for i, p in enumerate(points)}
    out = []
    for g in generators:
        if any(g.images[p] not in pos for p in points):
            raise NotInvariant(f"{g} does not preserve {points}")
        out.append(Perm(pos[g.images[p]] for p in points))
    return out


def bsgs_build(degree: int, generators, base_hint=()) -> PermGroup:
    """Deterministic Schreier-Sims construction of a stabilizer chain
    (Seress, Permutation Group Algorithms, 4.2), built incrementally.

    The input generators are kept once each, in input order, and sifted
    into the chain; each residue that is not the identity becomes a strong
    generator.  A strong generator h that fixes base[:j] joins levels
    lo..j.  Each of those orbits grows from its old points by h and from
    its new points by all of the level's generators, so a transversal
    element, once made, never changes.

    Then the levels are checked from the last to the first.  Each pair
    (orbit point b, generator s) of a level is checked once, by sifting the
    Schreier generator u_b s u_{s(b)}^-1 from the next level; a pair whose
    s made the point s(b) gives the identity and is skipped.  A residue h
    that is not the identity, stopped at level j, joins levels i+1..j, and
    the check resumes at level j.  A pair once checked stays checked: its
    sift meets the same transversal elements as before.  Levels 0..i do
    not take h, since h lies in the group of level i's generators and so
    of theirs: their orbits stay closed, and by Schreier's lemma their
    pairs without h still generate each stabilizer.

    After the points of base_hint, a new level's base point is the
    smallest point that its first strong generator moves."""
    ident = tuple(range(degree))
    gens = {}
    for g in generators:
        if g.degree != degree:
            raise InvalidPermutation(f"degree {g.degree}, expected {degree}")
        if g.images != ident:
            gens.setdefault(g.images, g)

    base: list[int] = []
    transversals: list[dict] = []
    inverses: list[dict] = []
    strong: list[Perm] = []
    # per level: its generators as (images, inverse images), its orbit in
    # the order found, the pair (b, generator index) that found each point
    # but the base point, and per generator how many points it is checked at
    level_gens: list[list] = []
    orbits: list[list] = []
    found_by: list[dict] = []
    checked: list[list] = []

    def add_level(point):
        base.append(point)
        transversals.append({point: ident})
        inverses.append({point: ident})
        level_gens.append([])
        orbits.append([point])
        found_by.append({})
        checked.append([])

    for point in base_hint:
        if point not in base:
            add_level(point)

    def insert(h, lo, j):
        if j == len(base):
            add_level(next(p for p, c in enumerate(h) if p != c))
        strong.append(Perm._trusted(h))
        h_inv = _inverse_images(h)
        for k in range(lo, j + 1):
            gk = level_gens[k]
            gk.append((h, h_inv))
            checked[k].append(0)
            t, inv, orbit, by = transversals[k], inverses[k], orbits[k], found_by[k]
            new, old = len(gk) - 1, len(orbit)
            pos = 0
            while pos < len(orbit):
                b = orbit[pos]
                ub, ib = t[b], inv[b]
                for r in range(new if pos < old else 0, len(gk)):
                    s, s_inv = gk[r]
                    c = s[b]
                    if c not in t:
                        t[c] = tuple([s[x] for x in ub])
                        inv[c] = tuple([ib[x] for x in s_inv])
                        by[c] = (b, r)
                        orbit.append(c)
                pos += 1

    def check(i):
        """(residue, stop level) of the first unchecked pair of level i
        whose Schreier generator does not sift to the identity, or None."""
        t, inv, orbit, by, done = (
            transversals[i], inverses[i], orbits[i], found_by[i], checked[i]
        )
        below_base, below_inv = base[i + 1:], inverses[i + 1:]
        for r, (s, _) in enumerate(level_gens[i]):
            while done[r] < len(orbit):
                b = orbit[done[r]]
                done[r] += 1
                c = s[b]
                if by.get(c) == (b, r):
                    continue
                ic = inv[c]
                h, j = _sift(tuple([ic[s[x]] for x in t[b]]), below_base, below_inv)
                if h != ident:
                    return h, i + 1 + j
        return None

    for g in gens:
        h, j = _sift(g, base, inverses)
        if h != ident:
            insert(h, 0, j)

    i = len(base) - 1
    while i >= 0:
        found = check(i)
        if found is None:
            i -= 1
        else:
            insert(found[0], i + 1, found[1])
            i = found[1]

    return PermGroup(
        degree, gens.values(), strong, base, transversals, inverses
    )
