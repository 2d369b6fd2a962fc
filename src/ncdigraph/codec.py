"""Bijective bracket encoding of noncrossing graphs and digraphs.

Per vertex i, the encoder emits closers for edges {j,i} with j running from
i-1 down to 1, then openers for edges {i,j} with j from n down to i+1, then
``[]`` for a self-loop, then the separator ``{}`` unless i = n.  For
digraphs the bracket pair carries the arc orientation::

    / >   (i,j) in A, (j,i) not in A
    < \\   (i,j) not in A, (j,i) in A
    [ ]   both

Decoding is a single stack pass; ``{`` advances the vertex counter and ``}``
is otherwise ignored (but must immediately follow ``{``).
"""

from __future__ import annotations

from .digraphs import Digraph, Graph, is_noncrossing

OPENERS = "[/<"
CLOSERS = "]>\\"
KIND = {"]": "[", ">": "/", "\\": "<"}


class CodecError(ValueError):
    pass


def _orientation_brackets(g: Digraph, u: int, v: int) -> tuple:
    fwd = (u, v) in g.arcs
    bwd = (v, u) in g.arcs
    if fwd and bwd:
        return "[", "]"
    if fwd:
        return "/", ">"
    if bwd:
        return "<", "\\"
    raise AssertionError("no arc between endpoints")


def encode_graph(g: Graph) -> str:
    if not is_noncrossing(g):
        raise CodecError("graph has crossing edges")
    out = []
    for i in range(1, g.n + 1):
        for j in range(i - 1, 0, -1):
            if (j, i) in g.edges:
                out.append("]")
        for j in range(g.n, i, -1):
            if (i, j) in g.edges:
                out.append("[")
        if (i, i) in g.edges:
            out.append("[]")
        if i < g.n:
            out.append("{}")
    return "".join(out)


def encode_digraph(g: Digraph) -> str:
    if not is_noncrossing(g):
        raise CodecError("digraph has crossing arcs")
    out = []
    for i in range(1, g.n + 1):
        for j in range(i - 1, 0, -1):
            if (j, i) in g.arcs or (i, j) in g.arcs:
                out.append(_orientation_brackets(g, j, i)[1])
        for j in range(g.n, i, -1):
            if (i, j) in g.arcs or (j, i) in g.arcs:
                out.append(_orientation_brackets(g, i, j)[0])
        if (i, i) in g.arcs:
            out.append("[]")
        if i < g.n:
            out.append("{}")
    return "".join(out)


def decode_graph(s: str) -> Graph:
    n = 1
    edges = set()
    stack: list = []
    prev = ""
    for c in s:
        if prev == "{" and c != "}":
            raise CodecError("'{' must be immediately followed by '}'")
        if c == "[":
            stack.append(n)
        elif c == "]":
            if not stack:
                raise CodecError("unbalanced ']'")
            i = stack.pop()
            edges.add((i, n))
        elif c == "{":
            n += 1
        elif c == "}":
            if prev != "{":
                raise CodecError("'}' must immediately follow '{'")
        else:
            raise CodecError(f"unexpected character {c!r} in graph string")
        prev = c
    if prev == "{":
        raise CodecError("'{' must be immediately followed by '}'")
    if stack:
        raise CodecError("unclosed '['")
    return Graph(n, frozenset(edges))


def decode_digraph(s: str, allow_loops: bool = True) -> Digraph:
    n = 1
    arcs = set()
    stack: list = []
    prev = ""
    for c in s:
        if prev == "{" and c != "}":
            raise CodecError("'{' must be immediately followed by '}'")
        if c in OPENERS:
            stack.append((c, n))
        elif c in CLOSERS:
            if not stack:
                raise CodecError(f"unbalanced {c!r}")
            kind, i = stack.pop()
            if kind != KIND[c]:
                raise CodecError(f"{c!r} closes {KIND[c]!r}, found {kind!r}")
            if i == n and not allow_loops:
                raise CodecError("self-loop in loop-free mode")
            if c == ">":
                arcs.add((i, n))
            elif c == "\\":
                arcs.add((n, i))
            else:
                arcs.add((i, n))
                arcs.add((n, i))
        elif c == "{":
            n += 1
        elif c == "}":
            if prev != "{":
                raise CodecError("'}' must immediately follow '{'")
        else:
            raise CodecError(f"unexpected character {c!r} in digraph string")
        prev = c
    if prev == "{":
        raise CodecError("'{' must be immediately followed by '}'")
    if stack:
        raise CodecError("unclosed opening bracket")
    return Digraph(n, frozenset(arcs))


def glue(g1: Graph, g2: Graph) -> Graph:
    """Identify vertex n of g1 with vertex 1 of g2 (concatenation law)."""
    shift = g1.n - 1
    edges = set(g1.edges)
    for (u, v) in g2.edges:
        edges.add((u + shift, v + shift))
    return Graph(g1.n + g2.n - 1, frozenset(edges))
