"""Text formats: digraph files, weight matrices and lexicon files.

Digraph file: line 1 is ``n <count>``; every further non-empty, non-``#``
line is ``<u> <v>`` for the arc u->v.  Undirected edges are serialized as
two arcs.  Weight file: line 1 ``n <count>``, then ``<i> <j> <weight>`` with
plain decimal weights such as ``3``, ``0.25`` or ``.5`` (no exponent or
ratio; missing pairs default to 0).  Lexicon file: ``<vertex>
<flags>`` with flags among in-left, in-right, out-left, out-right, bidir;
omitted vertices are unrestricted.  A pair or vertex given twice is an
error.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .digraphs import Digraph, Graph, make_digraph


class FormatError(ValueError):
    pass


# a plain signed decimal: no exponent, ratio, nan or inf
_DECIMAL = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)", re.ASCII)


def _data_lines(text: str) -> list:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _vertex_count(lines: list, kind: str) -> int:
    """The n of the first line, which must be exactly ``n <count>``."""
    if not lines or not lines[0].startswith("n "):
        raise FormatError(f"{kind} file must start with 'n <count>'")
    parts = lines[0].split()
    if len(parts) != 2:
        raise FormatError(f"malformed vertex count line: {lines[0]!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise FormatError(f"malformed vertex count line: {lines[0]!r}") from None


def _vertices(words: list, line: str, kind: str) -> tuple:
    """The vertex numbers `words` of a data line of a `kind` file."""
    try:
        return tuple(map(int, words))
    except ValueError:
        raise FormatError(f"malformed {kind} line: {line!r}") from None


def parse_digraph(text: str, allow_loops: bool = True) -> Digraph:
    lines = _data_lines(text)
    n = _vertex_count(lines, "digraph")
    arcs = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"malformed digraph line: {line!r}")
        arcs.append(_vertices(parts, line, "digraph"))
    try:
        return make_digraph(n, arcs, allow_loops=allow_loops)
    except ValueError as exc:
        raise FormatError(str(exc))


def format_digraph(g: Digraph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"{u} {v}" for (u, v) in g.sorted_arcs()]
    return "\n".join(lines) + "\n"


def format_graph(g: Graph) -> str:
    """Graphs serialize as inverse digraphs: one arc each way per edge."""
    lines = [f"n {g.n}"]
    for (u, v) in g.sorted_edges():
        lines.append(f"{u} {v}")
        if u != v:
            lines.append(f"{v} {u}")
    return "\n".join(lines) + "\n"


def parse_weights(text: str):
    from .inference import WeightMatrix
    lines = _data_lines(text)
    n = _vertex_count(lines, "weight")
    weights = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"malformed weight line: {line!r}")
        arc = _vertices(parts[:2], line, "weight")
        if arc in weights:
            raise FormatError(f"repeated weight line: {line!r}")
        if not _DECIMAL.fullmatch(parts[2]):
            raise FormatError(f"weight is not a decimal number: {line!r}")
        weights[arc] = Fraction(parts[2])
    return WeightMatrix(n, weights)  # checks each weight's position and sign


def parse_lexicon(text: str):
    from .inference import LEX_FLAGS, LexicalConstraint
    flags = {}
    for line in _data_lines(text):
        parts = line.replace(",", " ").split()
        if not parts:
            raise FormatError(f"malformed lexicon line: {line!r}")
        (v,) = _vertices(parts[:1], line, "lexicon")
        chosen = frozenset(parts[1:])
        if not chosen <= LEX_FLAGS:
            raise FormatError(f"unknown lexicon flags in {line!r}")
        if v in flags:
            raise FormatError(f"repeated lexicon line: {line!r}")
        flags[v] = chosen
    return LexicalConstraint(flags)
