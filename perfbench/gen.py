"""Seeded, constructive generators of benchmark inputs.

Every noncrossing graph on ordered vertices 1..n is a subgraph of some
triangulation of the convex polygon 1..n (the outer edges (i, i+1) and
(1, n) plus n - 3 pairwise noncrossing diagonals).  The generator draws a
random triangulation, picks a subset of its edges by kind, and orients the
chosen edges, so every draw is noncrossing by construction and none is
rejected.  Rejection sampling of uniform pair states never finishes at
n >= 12, and uniform draws that do finish satisfy none of the eight
properties, so scans would exit at once.
"""

from __future__ import annotations

import random

from oracles import ALL_FLAGS

# Kinds of generated digraphs, cycled in this order by the classify
# workload.  Trees and forests are oriented spanning trees (polytrees);
# "out-tree" orients a tree away from a root; "dag" orients by a random
# topological order; "symmetric" makes every edge bidirectional (INV);
# "mixed" gives each edge a random pair state.
KINDS = ("out-tree", "polytree", "forest", "dag", "symmetric", "mixed")


def triangulation(rng: random.Random, n: int) -> list:
    """Edges (u, v), u < v, of a random triangulation of the n-gon."""
    edges = [(i, i + 1) for i in range(1, n)]
    if n >= 3:
        edges.append((1, n))
    stack = [(1, n)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        k = rng.randrange(i + 1, j)
        for (a, b) in ((i, k), (k, j)):
            if b - a >= 2:
                edges.append((a, b))
            stack.append((a, b))
    return edges


def spanning_tree(rng: random.Random, n: int, edges: list) -> list:
    """Random spanning tree of a connected edge list (Kruskal on a shuffle)."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = list(edges)
    rng.shuffle(order)
    tree = []
    for (u, v) in order:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v))
    return tree


def orient_away(tree: list, root: int) -> set:
    """Arcs of an undirected tree oriented away from root."""
    adj: dict = {}
    for (u, v) in tree:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    arcs, seen, stack = set(), {root}, [root]
    while stack:
        x = stack.pop()
        for y in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                arcs.add((x, y))
                stack.append(y)
    return arcs


def noncrossing_arcs(rng: random.Random, n: int, kind: str) -> frozenset:
    """Arc set of a random noncrossing loop-free digraph of the given kind."""
    tri = triangulation(rng, n)
    if kind == "out-tree":
        return frozenset(orient_away(spanning_tree(rng, n, tri),
                                     rng.randrange(1, n + 1)))
    if kind in ("polytree", "forest"):
        tree = spanning_tree(rng, n, tri)
        if kind == "forest":
            tree = [e for e in tree if rng.random() < 0.8]
        return frozenset((u, v) if rng.random() < 0.5 else (v, u)
                         for (u, v) in tree)
    if kind == "dag":
        # a spanning tree plus a few extra edges: dense DAGs make the
        # direct UNAMB_S check enumerate exponentially many paths
        chosen = set(spanning_tree(rng, n, tri))
        chosen |= {e for e in tri if rng.random() < 0.1}
        rank = list(range(n))
        rng.shuffle(rank)
        return frozenset((u, v) if rank[u - 1] < rank[v - 1] else (v, u)
                         for (u, v) in chosen)
    if kind == "symmetric":
        chosen = [e for e in tri if rng.random() < 0.5]
        return frozenset(a for (u, v) in chosen for a in ((u, v), (v, u)))
    if kind == "mixed":
        arcs = set()
        for (u, v) in tri:
            state = rng.randrange(4)
            if state in (1, 3):
                arcs.add((u, v))
            if state in (2, 3):
                arcs.add((v, u))
        return frozenset(arcs)
    raise ValueError(f"unknown kind {kind!r}")


def int_weights(rng: random.Random, n: int) -> dict:
    """Integer arc weights 0..99 on every ordered pair of distinct vertices."""
    return {(i, j): rng.randrange(100)
            for i in range(1, n + 1) for j in range(1, n + 1) if i != j}


def decimal_weights(rng: random.Random, n: int) -> dict:
    """Two-decimal arc weights as strings, read by the CLI as fractions."""
    return {(i, j): f"{rng.randrange(10000) / 100:.2f}"
            for i in range(1, n + 1) for j in range(1, n + 1) if i != j}


def lexicon_flags(k: int, n: int) -> dict:
    """The k-th lexicon on n vertices: each vertex allows four of the five
    flags.  k -> k * a + b mod 5**n is a bijection (a is prime to 5), so
    distinct k < 5**n give distinct lexicons and every request misses the
    automaton cache."""
    x = (k * 2654435761 + 40503) % 5 ** n
    flags = {}
    for v in range(1, n + 1):
        x, dropped = divmod(x, 5)
        flags[v] = frozenset(f for j, f in enumerate(ALL_FLAGS) if j != dropped)
    return flags
