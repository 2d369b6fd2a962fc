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


def parse_digraph(text: str, allow_loops: bool = True) -> Digraph:
    lines = _data_lines(text)
    if not lines or not lines[0].startswith("n "):
        raise FormatError("digraph file must start with 'n <count>'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise FormatError("malformed vertex count line")
    arcs = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"malformed arc line: {line!r}")
        arcs.append((int(parts[0]), int(parts[1])))
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
    if not lines or not lines[0].startswith("n "):
        raise FormatError("weight file must start with 'n <count>'")
    n = int(lines[0].split()[1])
    weights = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"malformed weight line: {line!r}")
        arc = int(parts[0]), int(parts[1])
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
        v = int(parts[0])
        chosen = frozenset(parts[1:])
        if not chosen <= LEX_FLAGS:
            raise FormatError(f"unknown lexicon flags in {line!r}")
        if v in flags:
            raise FormatError(f"repeated lexicon line: {line!r}")
        flags[v] = chosen
    return LexicalConstraint(flags)
