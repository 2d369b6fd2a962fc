"""Ordered graphs and digraphs with direct, oracle-grade property checks.

Vertices are 1..n.  Two arcs/edges cross when
min{i,j} < min{k,l} < max{i,j} < max{k,l}.  The eight family properties are
decided here by direct algorithms (scans, DFS, union-find, exhaustive
path counting); the latent module re-derives them from bracket strings and
is validated against these implementations.
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
    """True iff no two arcs/edges interleave.  Accepts Digraph or Graph."""
    spans = {(min(u, v), max(u, v)) for (u, v) in
             (g.arcs if isinstance(g, Digraph) else g.edges)}
    for a, b in itertools.combinations(sorted(spans), 2):
        if _spans_cross(a, b):
            return False
    return True


def _underlying_adj(g: Digraph) -> dict:
    adj: dict[int, set] = {v: set() for v in range(1, g.n + 1)}
    for (u, v) in g.arcs:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _out_adj(g: Digraph) -> dict:
    adj: dict[int, set] = {v: set() for v in range(1, g.n + 1)}
    for (u, v) in g.arcs:
        adj[u].add(v)
    return adj


def _is_out(g: Digraph) -> bool:
    indeg = {v: 0 for v in range(1, g.n + 1)}
    for (u, v) in g.arcs:
        indeg[v] += 1
        if indeg[v] > 1:
            return False
    return True


def _is_inverse(g: Digraph) -> bool:
    return all((v, u) in g.arcs for (u, v) in g.arcs)


def _is_oriented(g: Digraph) -> bool:
    return all((v, u) not in g.arcs for (u, v) in g.arcs)


def _is_weakly_projective(g: Digraph) -> bool:
    # forbidden: arcs k->j and j->i where span(j,i) properly covers span(k,j)
    for (k, j) in g.arcs:
        for (j2, i) in g.arcs:
            if j2 != j or (k, j) == (j, i):
                continue
            lo, hi = min(i, j), max(i, j)
            if lo <= k <= hi and (min(k, j), max(k, j)) != (lo, hi):
                return False
    return True


def _is_dag(g: Digraph) -> bool:
    adj = _out_adj(g)
    color = {v: 0 for v in adj}  # 0 new, 1 on stack, 2 done
    for root in adj:
        if color[root]:
            continue
        stack = [(root, iter(adj[root]))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == 1:
                    return False
                if color[w] == 0:
                    color[w] = 1
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                stack.pop()
    return True


def _find_directed_cycle(g: Digraph) -> Optional[list]:
    adj = _out_adj(g)
    color = {v: 0 for v in adj}
    parent: dict[int, int] = {}
    for root in adj:
        if color[root]:
            continue
        stack = [(root, iter(sorted(adj[root])))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == 1:
                    cycle = [(v, w)]
                    x = v
                    while x != w:
                        cycle.append((parent[x], x))
                        x = parent[x]
                    cycle.reverse()
                    return cycle
                if color[w] == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, iter(sorted(adj[w]))))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                stack.pop()
    return None


def _is_uacyclic(g: Digraph) -> bool:
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in {(min(u, v), max(u, v)) for (u, v) in g.arcs if u != v}:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _is_weakly_connected(g: Digraph) -> bool:
    if g.n == 1:
        return True
    adj = _underlying_adj(g)
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def _count_simple_paths(adj: dict, u: int, v: int, limit: int = 2) -> int:
    """Number of repeat-free directed paths u -> v, counting up to limit."""
    count = 0
    stack = [(u, frozenset([u]))]
    while stack:
        x, used = stack.pop()
        for y in adj[x]:
            if y == v:
                count += 1
                if count >= limit:
                    return count
            elif y not in used:
                stack.append((y, used | {y}))
    return count


def _is_strongly_unambiguous(g: Digraph) -> bool:
    # at most one repeat-free directed path for every ordered vertex pair
    adj = _out_adj(g)
    for u in range(1, g.n + 1):
        for v in range(1, g.n + 1):
            if u != v and _count_simple_paths(adj, u, v) > 1:
                return False
    return True


_CHECKS = {
    PropertyId.OUT: _is_out,
    PropertyId.INV: _is_inverse,
    PropertyId.ORIENTED: _is_oriented,
    PropertyId.PROJ_W: _is_weakly_projective,
    PropertyId.ACYC_D: _is_dag,
    PropertyId.ACYC_U: _is_uacyclic,
    PropertyId.CONN_W: _is_weakly_connected,
    PropertyId.UNAMB_S: _is_strongly_unambiguous,
}


def check_property(g: Digraph, p: PropertyId) -> bool:
    return _CHECKS[p](g)


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


def find_forbidden_configuration(g: Digraph, p: PropertyId) -> Optional[list]:
    """Concrete witness (a list of arcs) when the nonlocal property fails."""
    if p == PropertyId.ACYC_D:
        return _find_directed_cycle(g)
    if p == PropertyId.ACYC_U:
        return _find_underlying_cycle(g)
    if p == PropertyId.CONN_W:
        return _find_disconnection(g)
    if p == PropertyId.UNAMB_S:
        return _find_ambiguity(g)
    raise ValueError(f"no forbidden-configuration detector for {p}")


def _find_underlying_cycle(g: Digraph) -> Optional[list]:
    rep: dict[tuple, tuple] = {}
    for (u, v) in g.arcs:
        if u != v:
            rep.setdefault((min(u, v), max(u, v)), (u, v))
    adj: dict[int, list] = {v: [] for v in range(1, g.n + 1)}
    for (a, b) in rep:
        adj[a].append(b)
        adj[b].append(a)
    parent: dict[int, int] = {}
    for root in range(1, g.n + 1):
        if root in parent:
            continue
        parent[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w == parent[v]:
                    continue
                if w in parent:
                    # path v..root meets path w..root: assemble the cycle
                    av, aw = [v], [w]
                    x = v
                    while parent[x]:
                        x = parent[x]
                        av.append(x)
                    x = w
                    while parent[x]:
                        x = parent[x]
                        aw.append(x)
                    common = next(x for x in av if x in set(aw))
                    path_v = av[:av.index(common) + 1]
                    path_w = aw[:aw.index(common) + 1]
                    verts = path_v + path_w[::-1][1:]
                    arcs = []
                    for a, b in zip(verts, verts[1:] + verts[:1]):
                        arcs.append(rep[(min(a, b), max(a, b))])
                    return arcs
                parent[w] = v
                stack.append(w)
    return None


def _find_disconnection(g: Digraph) -> Optional[list]:
    if _is_weakly_connected(g):
        return None
    adj = _underlying_adj(g)
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    block = seen if len(seen) < g.n else set(range(1, g.n + 1)) - seen
    return [a for a in g.sorted_arcs() if a[0] in block and a[1] in block]


def _find_ambiguity(g: Digraph) -> Optional[list]:
    adj = _out_adj(g)
    for u in range(1, g.n + 1):
        for v in range(1, g.n + 1):
            if u == v:
                continue
            paths = _enumerate_simple_paths(adj, u, v, 2)
            if len(paths) > 1:
                arcs = {a for path in paths for a in path}
                return sorted(arcs)
    return None


def _enumerate_simple_paths(adj: dict, u: int, v: int, limit: int) -> list:
    found: list = []

    def rec(x, used, path):
        if len(found) >= limit:
            return
        for y in sorted(adj[x]):
            if y == v:
                found.append(tuple(path + [(x, y)]))
                if len(found) >= limit:
                    return
            elif y not in used:
                rec(y, used | {y}, path + [(x, y)])

    rec(u, frozenset([u]), [])
    return found
