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
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm._trusted(tuple(inv))

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
    """A permutation group presented by a base and strong generating set."""

    def __init__(self, degree, generators, strong_generators, base, transversals):
        self.degree = degree
        self.generators = tuple(generators)
        self.strong_generators = tuple(strong_generators)
        self.base = tuple(base)
        self._transversals = transversals

    def order(self) -> int:
        n = 1
        for t in self._transversals:
            n *= len(t)
        return n

    def strip(self, g: Perm):
        """Sift g through the chain, returning (residue, stop level)."""
        return _sift(g, self.base, self._transversals)

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
                for h in walk(level + 1):
                    yield h * u

        return list(walk(0))

    def stabilizer(self, point: int) -> PermGroup:
        """The stabilizer of a point: levels 1 and up of a chain based there.

        The strong generators that fix base[0] generate the first stabilizer,
        and the later transversals were built from exactly those generators.
        """
        chain = bsgs_build(self.degree, self.generators, base_hint=(point,))
        sub = [g for g in chain.strong_generators if g.images[point] == point]
        return PermGroup(
            self.degree, sub, sub, chain.base[1:], chain._transversals[1:]
        )

    def restrict(self, points) -> PermGroup:
        """The image of the action on an invariant list of points."""
        points = list(points)
        rgens = restricted_generators(self.generators, points)
        return bsgs_build(len(points), rgens)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order()})"


def _sift(g, base, transversals, start=0):
    """Sift g through a chain from level start: (residue, stop level)."""
    for i in range(start, len(base)):
        b = g.images[base[i]]
        t = transversals[i]
        if b not in t:
            return g, i
        g = g * t[b].inverse()
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
    """Deterministic Schreier-Sims construction of a stabilizer chain."""
    input_gens = []
    for g in generators:
        if g.degree != degree:
            raise InvalidPermutation(f"degree {g.degree}, expected {degree}")
        if not g.is_identity() and g not in input_gens:
            input_gens.append(g)

    ident = Perm.identity(degree)
    base: list[int] = []
    strong: list[Perm] = []
    transversals: list[dict[int, Perm]] = []

    for pt in base_hint:
        if pt not in base:
            base.append(pt)
            transversals.append({pt: ident})

    def level_gens(i):
        prefix = base[:i]
        return [
            s for s in strong if all(s.images[b] == b for b in prefix)
        ]

    def rebuild_transversal(i):
        gens_i = level_gens(i)
        t = {base[i]: ident}
        queue = [base[i]]
        for b in queue:
            for s in gens_i:
                c = s.images[b]
                if c not in t:
                    t[c] = t[b] * s
                    queue.append(c)
        transversals[i] = t

    def insert(h, j):
        # h fixes base[:j]; it becomes a strong generator on levels 0..j
        if j == len(base):
            base.append(min(p for p in range(degree) if h.images[p] != p))
            transversals.append({base[-1]: ident})
        strong.append(h)
        for k in range(j + 1):
            rebuild_transversal(k)

    for g in input_gens:
        h, j = _sift(g, base, transversals)
        if not h.is_identity():
            insert(h, j)

    # verify Schreier generators bottom-up, inserting residues as found
    i = len(base) - 1
    while i >= 0:
        modified = False
        gens_i = level_gens(i)
        for b in list(transversals[i].keys()):
            u = transversals[i][b]
            for s in gens_i:
                sg = u * s * transversals[i][s.images[b]].inverse()
                if sg.is_identity():
                    continue
                h, j = _sift(sg, base, transversals, i + 1)
                if not h.is_identity():
                    insert(h, j)
                    i = j
                    modified = True
                    break
            if modified:
                break
        if not modified:
            i -= 1

    return PermGroup(degree, input_gens, strong, base, transversals)


def closure_elements(degree: int, generators) -> list[Perm]:
    """Brute-force closure of at most 10^6 elements, for cross-checks."""
    seen = {Perm.identity(degree)}
    queue = list(seen)
    for g in queue:
        for s in generators:
            h = g * s
            if h not in seen:
                if len(seen) >= 10**6:
                    raise ValueError("closure exceeded 10^6 elements")
                seen.add(h)
                queue.append(h)
    return sorted(seen, key=lambda p: p.images)
