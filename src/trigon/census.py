"""The census of a pair set F: its symmetries Aut(F) in Sym(n) x Z/2, every
compatible triangle presentation, by exact cover, and their classes under
Aut(F), by one orbit walk each.  A presentation is the tuple of its thirds,
one per pair of F in out-list order, from the listing to its class."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import CheckFailed, TooLarge
from .pairset import FSet, apply_rho
from .record import Record

if TYPE_CHECKING:
    from .permgrp import Perm, PermGroup

# the largest |Aut+(F)| classify accepts.  A walk holds its orbit, at most
# 2 |Aut+(F)| keys of one third per pair of F, at once: a key and its
# permutation take 4.2 KB on singer --q 7 (456 pairs), so such an orbit
# there would take 8.4 GB, had _COVER_LIMIT not refused its listing
# (classify on it peaks at 16 MB)
_AUT_LIMIT = 10**6

# the most thirds, covers x |F|, that the exact cover lists.  Every orbit
# classify walks lies in that list, so this bounds the walk's keys too.  A
# listed third takes 8.3 bytes, a slot of its cover's tuple: the opp and
# singer --q 16 documents (4,096 and 4,641 pairs) are refused after 0.5 and
# 0.35 s of CPU, at 32 MB.  classify adds an orbit's keys, 11.8 traced bytes
# a third in all on singer --q 9 (512 covers of 910 pairs, peak 20.5 MB), so
# an F at the limit whose one orbit is the whole listing would take about
# 50 MB (peak RSS of a fresh process, 2-core Xeon, Python 3.11)
_COVER_LIMIT = 2_000_000


def _exact_covers(F: FSet) -> list[tuple]:
    """The compatible presentations, each the tuple of its thirds, one per
    pair of F in out-list order, in sorted order.

    Knuth's Algorithm X, after a column rule that looks first where a
    choice cut: out[v] is the bitmask of the heads w of the free pairs
    (v, w), at first F.out[v], and inn[v] that of the tails u of the free
    pairs (u, v), at first the transpose's list; the live thirds of a free
    pair (i, j) are out[j] & inn[i], the k with (j, k) and (k, i) both free.
    Choosing (i, j, k) clears the bits of its three pairs, one pair when
    i = j = k, and backtracking sets them again.  Clearing (u, w) cuts a
    live third only of the free pairs (a, u) and (w, a) for a in
    inn[u] & out[w].  So after a choice the node branches on the first of
    those, per cleared pair in (i, j), (j, k), (k, i) order and per a
    ascending, with at most one live third; only if there is none does
    _most_constrained scan every free pair.  Either way the search tree
    depends on F alone.

    A cover gives each pair one third, so its key is the third that its
    branch last wrote for each pair.  Each cover is reached once, as the
    branches of a node give its pair different thirds.  The stack is a
    list, not recursion: a branch is |F|/3 choices deep.
    """
    out = [sum(1 << j for j in js) for js in F.out]
    inn = [sum(1 << i for i in is_) for is_ in apply_rho(F).out]
    pairs = [(i, j) for i, js in enumerate(F.out) for j in js]
    third = {}
    size = len(pairs)
    most = _COVER_LIMIT // max(size, 1)

    def forced(cleared):
        """(a, b, live thirds) of the first pair that clearing cut to at
        most one live third; None if there is none."""
        for u, w in cleared:
            cut = inn[u] & out[w]
            while cut:
                low = cut & -cut
                cut ^= low
                a = low.bit_length() - 1
                live = out[u] & inn[a]
                if live & (live - 1) == 0:
                    return a, u, live
                live = out[a] & inn[w]
                if live & (live - 1) == 0:
                    return w, a, live
        return None

    keys = []
    chosen: list = []  # per level (i, j, k, live thirds not yet tried)
    node = _most_constrained(out, inn)
    while True:
        if node is None:
            if len(keys) >= most:
                raise TooLarge(
                    f"F has more than {most} compatible presentations of "
                    f"{size} thirds; the limit is {_COVER_LIMIT} thirds in all"
                )
            keys.append(tuple(map(third.__getitem__, pairs)))
        elif node[2]:
            i, j, live = node
            low = live & -live
            k = low.bit_length() - 1
            cleared = ((i, j), (j, k), (k, i))
            for (u, w), x in zip(cleared, (k, i, j)):
                out[u] &= ~(1 << w)
                inn[w] &= ~(1 << u)
                third[u, w] = x
            chosen.append((i, j, k, live ^ low))
            node = forced(cleared) or _most_constrained(out, inn)
            continue
        if not chosen:
            return sorted(keys)
        i, j, k, live = chosen.pop()
        for u, w in ((i, j), (j, k), (k, i)):
            out[u] |= 1 << w
            inn[w] |= 1 << u
        node = (i, j, live)


def _most_constrained(out, inn):
    """(i, j, live thirds) of the free pair with the fewest live thirds, the
    first in sorted order on a tie, from the bitmasks of _exact_covers;
    None if no pair is free."""
    best = None
    fewest = len(out) + 1
    for i, (heads, tails) in enumerate(zip(out, inn)):
        while heads:
            low = heads & -heads
            heads ^= low
            j = low.bit_length() - 1
            live = out[j] & tails
            count = live.bit_count()
            if count < fewest:
                if count <= 1:
                    return i, j, live
                best, fewest = (i, j, live), count
    return best


def aut_plus(F: FSet) -> PermGroup:
    """Stabilizer of F in Sym(n) under the diagonal action, as a group of
    position permutations."""
    from .autosearch import automorphism_generators
    from .permgrp import bsgs_build

    return bsgs_build(F.n, automorphism_generators(F.out))


class AutFull(Record, eq=False):
    """A group inside Sym(n) x Z/2, such as Aut(F) or the stabilizer of a
    presentation: the diagonal part plus an optional coordinate-swapping
    coset, given by one witness in it."""

    plus: PermGroup
    witness: Perm | None

    @property
    def order(self) -> int:
        return self.plus.order() * (2 if self.witness is not None else 1)


def aut_full(F: FSet) -> AutFull:
    from .autosearch import find_isomorphism

    witness = find_isomorphism(apply_rho(F).out, F.out)
    return AutFull(plus=aut_plus(F), witness=witness)


def _orbit_stabilizer(F: FSet, thirds: tuple, full: AutFull):
    """The orbit under Aut(F) of the presentation T on F with these thirds,
    one per pair of F in out-list order, in walk order, and its stabilizer,
    from the Schreier generators of that walk.  An orbit member is the
    tuple of its thirds in the same order.

    (g, 1) is g after the coordinate swap, so (g, a) * (h, b) = (g*h, a ^ b).
    The walk moves by the generators of Aut+(F) with bit 0 and full.witness
    with bit 1.  (g, b) carries the pair (i, j) with third k to (g(i), g(j)),
    or to (g(j), g(i)) when b = 1, with third g(k): entry t of a moved key
    is g of entry source[t], for a source built once per generator.  The
    walk keeps a (u_x, b_x) carrying T to each key x; a move x -> y by
    (g, b) gives the Schreier generator (u_x * g * u_y^-1, b_x ^ b ^ b_y)
    (Seress, Permutation Group Algorithms, 4.2).  The first bit-1 one, t, is
    the witness; Aut+(T) is generated by the bit-0 ones e, t*e*t^-1, and
    t*s and s*t^-1 for each bit-1 s (Reidemeister-Schreier)."""
    from .permgrp import Perm, bsgs_build

    pairs = [(i, j) for i, js in enumerate(F.out) for j in js]
    slot = {p: s for s, p in enumerate(pairs)}
    moves = [(g, 0) for g in full.plus.generators]
    if full.witness is not None:
        moves.append((full.witness, 1))
    for r, (g, b) in enumerate(moves):
        v = g.inverse().images
        moves[r] += ([slot[(v[j], v[i]) if b else (v[i], v[j])] for i, j in pairs],)
    degree = full.plus.degree
    orbit = [thirds]
    walk = {orbit[0]: (Perm.identity(degree), 0)}
    schreier = {}
    for x in orbit:
        ux, bx = walk[x]
        for g, b, source in moves:
            y = tuple(map(g.images.__getitem__, map(x.__getitem__, source)))
            if y not in walk:
                walk[y] = (ux * g, bx ^ b)
                orbit.append(y)
                continue
            uy, by = walk[y]
            schreier[ux * g * uy.inverse(), bx ^ b ^ by] = None
    plus = [s for s, bit in schreier if not bit]
    swaps = [s for s, bit in schreier if bit]
    witness = swaps[0] if swaps else None
    if witness is not None:
        w_inv = witness.inverse()
        plus += [witness * e * w_inv for e in plus]
        plus += [witness * s for s in swaps] + [s * w_inv for s in swaps]
    return orbit, AutFull(plus=bsgs_build(degree, plus), witness=witness)


class TClass(Record, eq=False):
    """One isomorphism class of presentations on a fixed F, with the thirds
    of its first presentation, one per pair of F in out-list order."""

    thirds: tuple
    orbit_size: int
    aut_order: int


def classify(F: FSet) -> list[TClass]:
    """Orbits of Aut(F) on all compatible presentations, each represented by
    its first presentation in _exact_covers' order.

    |Aut+(F)| is checked against _AUT_LIMIT before the enumeration starts.
    orbit * stabilizer = |Aut(F)| per class and the sum of the orbits are
    checked on every run; a failure raises CheckFailed.
    """
    full = aut_full(F)
    order = full.plus.order()
    if order > _AUT_LIMIT:
        raise TooLarge(f"|Aut+(F)| = {order} exceeds {_AUT_LIMIT}")
    covers = _exact_covers(F)
    left = set(covers)
    classes = []
    for thirds in covers:
        if thirds not in left:
            continue
        orbit, st = _orbit_stabilizer(F, thirds, full)
        left.difference_update(orbit)
        if full.order != len(orbit) * st.order:
            raise CheckFailed(
                f"|Aut(F)| = {full.order} is not orbit size {len(orbit)} "
                f"times stabilizer order {st.order}"
            )
        classes.append(TClass(thirds, len(orbit), st.order))
    total = sum(c.orbit_size for c in classes)
    if total != len(covers):
        raise CheckFailed(
            f"orbit sizes sum to {total}, not to {len(covers)} presentations"
        )
    return classes
