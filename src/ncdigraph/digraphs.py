"""Ordered graphs and digraphs with direct, oracle-grade property checks.

Vertices are 1..n.  Two arcs/edges cross when
min{i,j} < min{k,l} < max{i,j} < max{k,l}.  Each of the eight family
properties is decided here by one search that returns its forbidden
configuration, the arcs of the digraph that violate it, or None; a digraph
has the property when the search finds nothing.  The latent module
re-derives the properties from bracket strings and is validated against
these searches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional


class PropertyId(Enum):
    OUT = "OUT"
    INV = "INV"
    ORIENTED = "ORIENTED"
    PROJ_W = "PROJ_W"
    ACYC_D = "ACYC_D"
    ACYC_U = "ACYC_U"
    CONN_W = "CONN_W"
    UNAMB_S = "UNAMB_S"

    def __str__(self) -> str:
        return self.value


ALL_PROPERTIES = tuple(PropertyId)


def parse_property_set(text: str) -> frozenset:
    """Parse comma-separated property names, with composite family aliases."""
    aliases = {
        "polytree": {PropertyId.CONN_W, PropertyId.ACYC_U, PropertyId.UNAMB_S,
                     PropertyId.ACYC_D, PropertyId.ORIENTED},
        "mixed-tree": {PropertyId.CONN_W, PropertyId.ACYC_U, PropertyId.UNAMB_S},
        "multitree": {PropertyId.ACYC_D, PropertyId.UNAMB_S, PropertyId.ORIENTED},
        "wc-dag": {PropertyId.CONN_W, PropertyId.ACYC_D, PropertyId.ORIENTED},
        "out-tree": {PropertyId.OUT, PropertyId.CONN_W, PropertyId.ACYC_U,
                     PropertyId.UNAMB_S, PropertyId.ACYC_D, PropertyId.ORIENTED},
    }
    props: set[PropertyId] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part in aliases:
            props |= aliases[part]
        else:
            try:
                props.add(PropertyId(part.upper().replace("-", "_")))
            except ValueError:
                raise ValueError(f"unknown property or family name: {part!r}")
    return frozenset(props)


@dataclass(frozen=True)
class Digraph:
    n: int
    arcs: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        for (u, v) in self.arcs:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"arc ({u},{v}) out of range 1..{self.n}")

    def sorted_arcs(self) -> list:
        return sorted(self.arcs)

    def reverse(self) -> "Digraph":
        return Digraph(self.n, frozenset((v, u) for (u, v) in self.arcs))


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset  # of (u, v) with u <= v; (v, v) is a self-loop

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        for (u, v) in self.edges:
            if not (1 <= u <= v <= self.n):
                raise ValueError(f"edge {{{u},{v}}} out of range 1..{self.n}")

    def sorted_edges(self) -> list:
        return sorted(self.edges)


def make_digraph(n: int, arcs: Iterable, allow_loops: bool = False) -> Digraph:
    arcset = set()
    for (u, v) in arcs:
        u, v = int(u), int(v)
        if u == v and not allow_loops:
            raise ValueError(f"self-loop ({u},{v}) not allowed")
        arcset.add((u, v))
    return Digraph(n, frozenset(arcset))


def make_graph(n: int, edges: Iterable) -> Graph:
    edgeset = set()
    for (u, v) in edges:
        u, v = int(u), int(v)
        edgeset.add((min(u, v), max(u, v)))
    return Graph(n, frozenset(edgeset))


def underlying(g: Digraph) -> Graph:
    return Graph(g.n, frozenset((min(u, v), max(u, v)) for (u, v) in g.arcs))


def _spans_cross(a, b) -> bool:
    a1, a2 = min(a), max(a)
    b1, b2 = min(b), max(b)
    return a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2


def is_noncrossing(g) -> bool:
    """True iff no two arcs/edges interleave.  Accepts Digraph or Graph.

    One walk over the spans sorted by (left, -right) with a stack of the
    right ends of the open spans, innermost on top: a span crosses one of
    them iff it ends past the innermost that is still open at its left end.
    """
    spans = {(min(u, v), max(u, v)) for (u, v) in
             (g.arcs if isinstance(g, Digraph) else g.edges)}
    open_ends: list = []
    for left, right in sorted(spans, key=lambda span: (span[0], -span[1])):
        while open_ends and open_ends[-1] <= left:
            open_ends.pop()
        if open_ends and right > open_ends[-1]:
            return False
        open_ends.append(right)
    return True


# ---------------------------------------------------------------------------
# Properties.  Each property is one search for its forbidden configuration:
# a sorted list of arcs of g that violates it, or None when there is none.

def _out_adj(g: Digraph) -> list:
    adj: list = [[] for _ in range(g.n + 1)]
    for (u, v) in g.arcs:
        adj[u].append(v)
    return adj


def _depth_first(adj: list, root: int, state: list, parent: list) -> Iterator:
    """Walk from root with an explicit stack.  An arc (x, w) to an unreached
    vertex w extends the current path (parent[w] = x; state[w] is 1 while w
    is on the path and 2 once left); every other arc (x, w) is yielded."""
    state[root] = 1
    stack = [(root, iter(adj[root]))]
    while stack:
        x, heads = stack[-1]
        for w in heads:
            if state[w]:
                yield x, w
            else:
                state[w] = 1
                parent[w] = x
                stack.append((w, iter(adj[w])))
                break
        else:
            state[x] = 2
            stack.pop()


def _two_arcs_into_one_vertex(g: Digraph) -> Optional[list]:
    tail: dict = {}
    for (u, v) in g.arcs:
        if v in tail:
            return sorted([(tail[v], v), (u, v)])
        tail[v] = u
    return None


def _arc_without_reverse(g: Digraph) -> Optional[list]:
    for (u, v) in g.arcs:
        if (v, u) not in g.arcs:
            return [(u, v)]
    return None


def _arc_with_reverse(g: Digraph) -> Optional[list]:
    for (u, v) in g.arcs:
        if (v, u) in g.arcs:
            return sorted({(u, v), (v, u)})
    return None


def _covering_arc_after_covered(g: Digraph) -> Optional[list]:
    # arcs k->j and j->i where span(j,i) properly covers span(k,j)
    adj = _out_adj(g)
    for (k, j) in g.arcs:
        for i in adj[j]:
            if k != i and min(i, j) <= k <= max(i, j):
                return sorted([(k, j), (j, i)])
    return None


def _directed_cycle(g: Digraph) -> Optional[list]:
    adj = _out_adj(g)
    state = [0] * (g.n + 1)
    parent = [0] * (g.n + 1)
    for root in range(1, g.n + 1):
        if state[root]:
            continue
        for (x, w) in _depth_first(adj, root, state, parent):
            if state[w] == 1:  # w is on the path to x
                cycle = [(x, w)]
                while x != w:
                    cycle.append((parent[x], x))
                    x = parent[x]
                return sorted(cycle)
    return None


def _undirected_cycle(g: Digraph) -> Optional[list]:
    root = list(range(g.n + 1))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    joined: list = []  # one arc per span, forming a forest
    for (u, v) in g.arcs:
        if u == v or (u > v and (v, u) in g.arcs):
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            joined.append((u, v))
            continue
        # (u, v) closes a cycle with the one forest path from u to v
        adj: dict = {}
        for arc in joined:
            adj.setdefault(arc[0], []).append((arc[1], arc))
            adj.setdefault(arc[1], []).append((arc[0], arc))
        via = {u: None}
        stack = [u]
        while v not in via:
            x = stack.pop()
            for (y, arc) in adj[x]:
                if y not in via:
                    via[y] = (x, arc)
                    stack.append(y)
        cycle = [(u, v)]
        x = v
        while x != u:
            x, arc = via[x]
            cycle.append(arc)
        return sorted(cycle)
    return None


def _disconnection(g: Digraph) -> Optional[list]:
    # the arcs of vertex 1's weak component, when it misses a vertex
    adj: list = [[] for _ in range(g.n + 1)]
    for (u, v) in g.arcs:
        adj[u].append(v)
        adj[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) == g.n:
        return None
    return sorted((u, v) for (u, v) in g.arcs if u in seen)


def _two_simple_paths(g: Digraph) -> Optional[list]:
    """Two repeat-free directed paths with the same ends.  Per source u, the
    depth-first walk keeps one path to each vertex it reaches.  An arc back
    onto the current path closes a cycle; an arc to a vertex already left is
    a second simple path to it."""
    adj = _out_adj(g)
    parent = [0] * (g.n + 1)
    for u in range(1, g.n + 1):
        state = [0] * (g.n + 1)
        for (x, w) in _depth_first(adj, u, state, parent):
            if state[w] == 2:
                arcs = {(x, w)}
                for y in (x, w):
                    while y != u:
                        arcs.add((parent[y], y))
                        y = parent[y]
                return sorted(arcs)
    return None


_WITNESS = {
    PropertyId.OUT: _two_arcs_into_one_vertex,
    PropertyId.INV: _arc_without_reverse,
    PropertyId.ORIENTED: _arc_with_reverse,
    PropertyId.PROJ_W: _covering_arc_after_covered,
    PropertyId.ACYC_D: _directed_cycle,
    PropertyId.ACYC_U: _undirected_cycle,
    PropertyId.CONN_W: _disconnection,
    PropertyId.UNAMB_S: _two_simple_paths,
}


def check_property(g: Digraph, p: PropertyId) -> bool:
    return _WITNESS[p](g) is None


def find_forbidden_configuration(g: Digraph, p: PropertyId) -> Optional[list]:
    """The sorted arcs of a configuration of g that violates p, or None when
    g has p."""
    return _WITNESS[p](g)


def uacyclic_chain_scan(g: Graph) -> bool:
    """Logspace-style ACYC_U test: walk the longest-edge chain under each
    covering edge and report a cycle when it reaches the far endpoint."""
    edges = g.edges
    for (u, y) in edges:
        if not u < y:
            continue
        v, p = u, u
        while p != -1:
            v, p = p, -1
            for vv in range(v + 1, y + 1):
                if (min(v, vv), max(v, vv)) in edges and (v, vv) != (u, y):
                    if vv == y:
                        return False
                    p = vv
    return True


def _pair_list(n: int) -> list:
    return [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]


def _noncrossing_arc_sets(n: int, options) -> Iterator[frozenset]:
    """The arc sets of all noncrossing choices of one option per vertex pair,
    lexicographic in the option vector over pairs (1,2),(1,3),...,(n-1,n).
    options(u, v) lists a pair's arc tuples, the empty one first."""
    pairs = _pair_list(n)
    crossing = [[j for j, q in enumerate(pairs) if j < i and _spans_cross(p, q)]
                for i, p in enumerate(pairs)]
    opts = [options(u, v) for (u, v) in pairs]
    # depth-first walk with an explicit stack, so n is not bounded by the
    # recursion limit
    chosen: list = []  # per decided pair: its arcs
    tried = [0]        # per open depth: options tried so far
    while tried:
        i = len(tried) - 1
        if i == len(pairs) or tried[i] == len(opts[i]):
            if i == len(pairs):
                yield frozenset(itertools.chain.from_iterable(chosen))
            tried.pop()
            if chosen:  # undo the choice for pairs[i - 1]
                chosen.pop()
            continue
        k = tried[i]
        tried[i] += 1
        if k and any(chosen[j] for j in crossing[i]):
            continue
        chosen.append(opts[i][k])
        tried.append(0)


def enumerate_noncrossing_digraphs(n: int) -> Iterator[Digraph]:
    """All loop-free noncrossing digraphs on n vertices, lexicographic in the
    pair-state vector over pairs (1,2),(1,3),...,(n-1,n) with the states
    absent < forward < backward < bidirectional."""
    for arcs in _noncrossing_arc_sets(
            n, lambda u, v: ((), ((u, v),), ((v, u),), ((u, v), (v, u)))):
        yield Digraph(n, arcs)


def enumerate_noncrossing_graphs(n: int, with_loops: bool = False) -> Iterator[Graph]:
    """All noncrossing graphs on n vertices by edge subsets (loops optional)."""
    loop_sets = ([()] if not with_loops else
                 [ls for k in range(0, n + 1)
                  for ls in itertools.combinations(range(1, n + 1), k)])
    for edges in _noncrossing_arc_sets(n, lambda u, v: ((), ((u, v),))):
        for loops in loop_sets:
            yield Graph(n, edges | {(v, v) for v in loops})


def count_noncrossing_digraphs_bruteforce(n: int) -> int:
    """Independent counting oracle: iterate all 4^C(n,2) pair assignments and
    reject any with two crossing active pairs (conflict-graph filter)."""
    pairs = _pair_list(n)
    conflicts = [(i, j) for i, p in enumerate(pairs)
                 for j, q in enumerate(pairs) if i < j and _spans_cross(p, q)]
    count = 0
    for assignment in itertools.product(range(4), repeat=len(pairs)):
        if any(assignment[i] and assignment[j] for (i, j) in conflicts):
            continue
        count += 1
    return count
