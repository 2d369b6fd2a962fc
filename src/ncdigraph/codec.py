"""Bijective bracket encoding of noncrossing graphs and digraphs.

Per vertex i, the encoder emits closers for edges {j,i} with j running from
i-1 down to 1, then openers for edges {i,j} with j from n down to i+1, then
``[]`` for a self-loop, then the separator ``{}`` unless i = n (``layout``
holds this order for both encoders and the latent encoding).  For digraphs
the bracket pair carries the arc orientation::

    / >   (i,j) in A, (j,i) not in A
    < \\   (i,j) not in A, (j,i) in A
    [ ]   both

Decoding is a single stack pass; ``{`` advances the vertex counter and ``}``
is otherwise ignored (but must immediately follow ``{``).  The pass rejects
every string no digraph encodes to: a second bracket pair over one span, a
self-loop written other than ``[]``, and anything but ``{`` or the end of
the string after a self-loop.  A graph string is
a digraph string over ``[ ] { }`` alone, read through its underlying graph.
"""

from __future__ import annotations

from .digraphs import Digraph, Graph, is_noncrossing, underlying

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


def layout(n: int, spans, loops=()) -> list:
    """The items of the base bracket string in order: ("close", j, i) and
    ("open", i, j) for spans (i, j) with i < j, ("loop", i) and the
    separator ("sep",).  This is the one place that knows the order."""
    closers: list = [[] for _ in range(n + 1)]
    openers: list = [[] for _ in range(n + 1)]
    for (i, j) in sorted(spans, reverse=True):
        closers[j].append(("close", i, j))
        openers[i].append(("open", i, j))
    items: list = []
    for i in range(1, n + 1):
        items += closers[i]
        items += openers[i]
        if i in loops:
            items.append(("loop", i))
        if i < n:
            items.append(("sep",))
    return items


def encode_graph(g: Graph) -> str:
    if not is_noncrossing(g):
        raise CodecError("graph has crossing edges")
    tokens = {"close": "]", "open": "[", "loop": "[]", "sep": "{}"}
    return "".join(tokens[it[0]] for it in layout(
        g.n, [(u, v) for (u, v) in g.edges if u < v],
        {u for (u, v) in g.edges if u == v}))


def encode_digraph(g: Digraph) -> str:
    if not is_noncrossing(g):
        raise CodecError("digraph has crossing arcs")
    spans = {(min(u, v), max(u, v)) for (u, v) in g.arcs if u != v}
    out = []
    for it in layout(g.n, spans, {u for (u, v) in g.arcs if u == v}):
        if it[0] == "close":
            out.append(_orientation_brackets(g, it[1], it[2])[1])
        elif it[0] == "open":
            out.append(_orientation_brackets(g, it[1], it[2])[0])
        else:
            out.append("[]" if it[0] == "loop" else "{}")
    return "".join(out)


def decode_graph(s: str) -> Graph:
    bad = next((c for c in s if c not in "[]{}"), None)
    if bad is not None:
        raise CodecError(f"unexpected character {bad!r} in graph string")
    return underlying(decode_digraph(s))


def decode_digraph(s: str, allow_loops: bool = True) -> Digraph:
    n = 1
    arcs = set()
    stack: list = []
    spans = set()
    prev = ""
    for c in s:
        if prev == "{" and c != "}":
            raise CodecError("'{' must be immediately followed by '}'")
        if (n, n) in spans and prev == "]" and c != "{":
            raise CodecError(f"{c!r} after the self-loop of vertex {n}")
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
            if i == n and (c != "]" or prev != "["):
                raise CodecError(f"the self-loop of vertex {n} must be written '[]'")
            if (i, n) in spans:
                raise CodecError(f"a second bracket pair over vertices {i} and {n}")
            spans.add((i, n))
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
