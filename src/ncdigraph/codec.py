"""Bijective bracket encoding of noncrossing graphs and digraphs.

Per vertex i, the encoder emits closers for edges {j,i} with j running from
i-1 down to 1, then openers for edges {i,j} with j from n down to i+1, then
``[]`` for a self-loop, then the separator ``{}`` unless i = n.  ``layout``
holds this order, with each pair's orientation, for both encoders and the
latent encoding.  For digraphs the bracket pair carries the arc
orientation, as ``PAIRS`` states; a graph is encoded as the digraph with
both arcs of each edge, so its pairs are all ``[ ]``.  Decoding is a
single stack pass; ``{`` advances the vertex counter and ``}`` is otherwise
ignored (but must immediately follow ``{``).  The pass rejects every
string no digraph encodes to: a second bracket pair over one span, a
self-loop written other than ``[]``, and anything but ``{`` or the end of
the string after a self-loop.  A graph string is a digraph string over
``[ ] { }`` alone, read through its underlying graph.
"""

from __future__ import annotations

from typing import NamedTuple

from .digraphs import Digraph, Graph, is_noncrossing, underlying

FORWARD = "forward"
BACKWARD = "backward"
BIDIRECTIONAL = "bidirectional"


class BracketPair(NamedTuple):
    """What a bracket pair over vertices u < v means: its opener and
    closer, and whether it stands for the arc (u, v) and the arc (v, u)."""

    opener: str
    closer: str
    forward: bool
    backward: bool


# The one statement of each orientation's pair; every other map of
# brackets, orientations and arcs is derived from it.
PAIRS = {FORWARD: BracketPair("/", ">", True, False),
         BACKWARD: BracketPair("<", "\\", False, True),
         BIDIRECTIONAL: BracketPair("[", "]", True, True)}

OPENERS = "".join(p.opener for p in PAIRS.values())
CLOSERS = "".join(p.closer for p in PAIRS.values())
ORIENTATION_OF_BASE = {b: o for o, p in PAIRS.items() for b in (p.opener, p.closer)}
PARTNER = {"{": "}", "}": "{", **{p.opener: p.closer for p in PAIRS.values()},
           **{p.closer: p.opener for p in PAIRS.values()}}  # separator halves too
_ORIENTATION_OF_ARCS = {(p.forward, p.backward): o for o, p in PAIRS.items()}


class CodecError(ValueError):
    pass


def pair_arcs(orientation: str, u: int, v: int) -> tuple:
    """The arcs a pair of `orientation` over vertices u < v stands for."""
    p = PAIRS[orientation]
    return ((u, v),) * p.forward + ((v, u),) * p.backward


def pair_orientations(arcs) -> dict:
    """{(i, j): its pair's orientation} for each span i < j that an arc of
    the set `arcs` joins: the one place that reads an orientation off arcs."""
    spans = {(u, v) if u < v else (v, u) for (u, v) in arcs if u != v}
    return {s: _ORIENTATION_OF_ARCS[s in arcs, s[::-1] in arcs] for s in spans}


def layout(n: int, pairs: dict, loops=()) -> list:
    """The items of the base bracket string in order: ("close", (i, j), o)
    and ("open", (i, j), o) for each span (i, j) of `pairs`, o its pair's
    orientation, ("loop", i) for i in `loops` and the separator ("sep",).
    This is the one place that knows the order."""
    closers: list = [[] for _ in range(n + 1)]
    openers: list = [[] for _ in range(n + 1)]
    for span in sorted(pairs, reverse=True):
        o = pairs[span]
        closers[span[1]].append(("close", span, o))
        openers[span[0]].append(("open", span, o))
    items: list = []
    for i in range(1, n + 1):
        items += closers[i]
        items += openers[i]
        if i in loops:
            items.append(("loop", i))
        if i < n:
            items.append(("sep",))
    return items


def _encode(n: int, pairs: dict, loops) -> str:
    out = []
    for it in layout(n, pairs, loops):
        kind = it[0]
        if kind == "close":
            out.append(PAIRS[it[2]].closer)
        elif kind == "open":
            out.append(PAIRS[it[2]].opener)
        else:
            out.append("[]" if kind == "loop" else "{}")
    return "".join(out)


def encode_graph(g: Graph) -> str:
    """The digraph encoding with every edge a bidirectional pair."""
    if not is_noncrossing(g):
        raise CodecError("graph has crossing edges")
    return _encode(g.n, {(u, v): BIDIRECTIONAL for (u, v) in g.edges if u < v},
                   {u for (u, v) in g.edges if u == v})


def encode_digraph(g: Digraph) -> str:
    if not is_noncrossing(g):
        raise CodecError("digraph has crossing arcs")
    return _encode(g.n, pair_orientations(g.arcs), {u for (u, v) in g.arcs if u == v})


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
            if kind != PARTNER[c]:
                raise CodecError(f"{c!r} closes {PARTNER[c]!r}, found {kind!r}")
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
