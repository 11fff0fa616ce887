"""The pair set F and its bipartite link graph, all that a family build or
the exotic probe reads of F, apart from the measurements in linkgraph."""

from __future__ import annotations

from .record import Record


class FSet(Record, eq=True):
    """A set of ordered pairs over a fixed labeled index set, held as one
    sorted out-list per 0-based position: out[i] lists, with no repeats, the
    j with (i, j) in F.  Labels appear only in documents and in verify's
    violation data.

    The constructor takes the out-lists as a builder makes them and does
    not check them; from_labels is the one way in from label pairs."""

    labels: tuple
    out: tuple

    @classmethod
    def from_labels(cls, labels, pairs) -> FSet:
        """The pair set of the label pairs, over the label list; a repeated
        pair is held once."""
        labels = tuple(labels)
        pos = {a: i for i, a in enumerate(labels)}
        if len(pos) != len(labels):
            raise ValueError("duplicate labels")
        out = [set() for _ in labels]
        for a, b in pairs:
            if a not in pos or b not in pos:
                raise ValueError(f"pair ({a},{b}) uses unknown labels")
            out[pos[a]].add(pos[b])
        return cls(labels, tuple(map(sorted, out)))

    @property
    def n(self) -> int:
        return len(self.labels)

    def __repr__(self):
        return f"FSet(n={self.n}, pairs={sum(map(len, self.out))})"


def apply_rho(F: FSet) -> FSet:
    """The transpose set rho(F) = {(j,i)}.  Filled in i order, its lists
    come out sorted."""
    inn = [[] for _ in F.out]
    for i, js in enumerate(F.out):
        for j in js:
            inn[j].append(i)
    return FSet(F.labels, tuple(inn))


class LinkGraph(Record, eq=False):
    """Bipartite graph on {0..2n-1}: point i joined to line j+n iff (i,j) in
    F, held as one sorted neighbor list per vertex."""

    adj: tuple

    @property
    def n(self) -> int:
        return len(self.adj) // 2

    def edges(self) -> list:
        return [(v, w) for v in range(self.n) for w in self.adj[v]]

    @property
    def bipartite(self) -> bool:
        """Whether each point's neighbors are lines and each line's points;
        the lists are sorted, so their ends decide."""
        n = self.n
        return (all(ws[0] >= n for ws in self.adj[:n] if ws)
                and all(ws[-1] < n for ws in self.adj[n:] if ws))

    def __repr__(self):
        return f"LinkGraph(n={self.n}, edges={len(self.edges())})"


def from_F(F: FSet) -> LinkGraph:
    """The link graph of F: the point lists are F's out-lists shifted by n,
    the line lists its transpose."""
    # one int object per vertex, however many lists hold it, as in apply_rho
    lines = list(range(F.n, 2 * F.n))
    return LinkGraph(
        tuple(list(map(lines.__getitem__, js)) for js in F.out)
        + apply_rho(F).out
    )
