"""Generic arc-factored max-weight inference over noncrossing digraph
families.

The search space is the language D_55 ∩ Reg_lat ∩ (family constraints) ∩
(lexical constraints) of encodings of n-vertex digraphs, represented as a
Bar-Hillel product of the Dyck grammar with a recognizer.  The recognizer is
the minimal integer table of Reg_lat ∩ (family constraints), built once per
family.  The chart reads nothing else of the latent alphabet: it takes the
states and symbols from the table, and each opener's closer column from the
table's own index, so it compiles any table of paired brackets.
Counts and parses (`count_family_strings`, `parse_max`) replay the chart of
a coarser table, `coarse_automaton(n, family)`, since a maximum or a count
needs no annotation that no constraint of the family reads.  It is the
family table projected through a map on its edge pairs that keeps each
bracket's base, so each pair's orientation and arcs (`TableDfa.project`):
the first of (base, prime), (base, prime, loose) and (base, prime, the
classes the family's forbidden factors name) whose chart derives as many
strings at n as the family table's, else the family table itself.  The
counts are `_span_count`s, the chart's cell counts with positions dropped,
so this certificate compiles no program.  It makes the coarse chart exact:
the bases fix the digraph, so the projection π is injective on the family
language L, and the coarse language D′ ∩ T′ holds π(L); equal counts make
it π(L) at n, and the chart over the deterministic T′ is unambiguous, so
its counts, lexicon counts, max keys and tie-break are the family table's.
`build_intersection_grammar` compiles the family tables themselves,
`count_up_sets` span-counts them, and every scan steps them.  Chart
items are (vertex, state) nodes: the vertex comes from the chart's position,
so the chart itself fixes the vertex count (n - 1 boundary pairs), and
every bracket pair knows its vertex endpoints and its arc weights.  The
chart is compiled once per (n, family) into a weight-independent program.
Each span has P(a, b) cells that join the span's bracket pairs with end
nodes a and b, and S cells that join P(a, b) with the S cells continuing
from b; a pair's inside is the S row of the node after its opener.  The
joins thus meet endpoints, not pairs (the arc item split from the sequence
item, as in Eisner 1996), and the program has the shape of the grammar it
materializes.  A cell's count depends only on its span and end states, so
the compiler counts the cells with positions dropped (`_span_tables`),
then walks down from the final cells and makes only the cells whose counts
are positive: the program is the reduced chart, each cell one row, the
join of its (left, right) operand pairs.  A bracket pair enters as a pair
cell per (orientation, u, v), which the algebra fills when a replay starts,
so pair values, P(a, b) and S cells all have the one row shape.  Many cells
differ only in their state labels and join the same operands, so every
algebra gives them one value; the compile hash-conses them, so in the
cached program such cells are one cell (maximal sharing), and all empty
cells are one identity cell.  In that program cell 0 is the identity,
cells 1..P are the pair cells and the last cell is the answer: as in
semiring parsing (Goodman 1999), the start symbol's value is one more chart
item, the join of the final cells.  That one program serves counting (a
replay with integer counts) and max-weight parsing (a replay with integer
max-plus keys).
The rows come in level batches: a row's level is one more than the highest
level of its operands, the identity and the pair cells being level 0, and
a batch holds the rows of one level and one term count, so no row of a
batch reads another.  A batch holds the program's own rows, not a copy of
them, and the rows keep the order hash-consing made them in.  A
replay makes one call per batch to the algebra's kernel for the batch's
term count, a function that loops over the rows and writes each row's k
products and their join out term by term: a balanced sum for counts, a
chain of compares for max keys.  The replay compiles it: the first replay
under an algebra that meets a batch of k terms generates the kernel and
keeps it in the algebra's plain dict, so a count compiles no max kernel
and a parse no count kernel.
Grammar materialization reads the productions off the labelled groups of
the family table's compile, and each labelled cell's count off its shared
cell in one count replay; it caches that labelled compile per (n, family),
apart from the coarse programs that counts and parses share.
The lexicon is not compiled in: whether a pair is allowed depends only on
its orientation and its two vertices, so the algebras apply it to the pair
cells.
A max key is the scaled weight times n² less the arc count, a small
integer, so the integer maximum has the maximum weight and then the fewest
arcs.  The rest of the documented tie-break, the lexicographically smallest
sorted arc list, is taken after the replay by a walk down from the answer
cell that follows only tight terms, whose operands sum to their row's key:
those make up exactly the best derivations.  One pass back up the walked
rows then keeps the largest arc mask at each.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Optional

from .cfg import Grammar, TableDfa
from .codec import BACKWARD, FORWARD, PAIRS, pair_arcs
from .digraphs import (Digraph, PropertyId, check_property,
                       enumerate_noncrossing_digraphs)
from .latent import (BOUNDARY_CLOSE, BOUNDARY_OPEN, CLASSES, FORBIDDEN,
                     LatentBracket, constraint_dfa, reg_lat)


class NoParseError(ValueError):
    """The requested family is empty for this input."""


@dataclass(frozen=True)
class WeightMatrix:
    n: int
    w: dict  # (i, j) -> nonnegative finite real weight, diagonal absent

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be at least 1, got {self.n}")
        for (i, j), val in self.w.items():
            if i == j:
                raise ValueError("diagonal weights are not allowed")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"weight index ({i},{j}) out of range")
            if not isinstance(val, numbers.Real):
                raise ValueError(f"weight {val!r} at ({i},{j}) is not a real number")
            try:
                Fraction(val)
            except (ValueError, OverflowError):
                raise ValueError(f"weight {val!r} at ({i},{j}) is not finite") from None
            if val < 0:
                raise ValueError("weights must be nonnegative")

    def get(self, i: int, j: int):
        return self.w.get((i, j), 0)


LEX_FLAGS = frozenset({"in-left", "in-right", "out-left", "out-right", "bidir"})

# the flag an edge bracket needs at the vertex it sits on
_FLAG_OF_BASE = {"/": "out-right", "<": "in-right", ">": "in-left",
                 "\\": "out-left", "[": "bidir", "]": "bidir"}


@dataclass(frozen=True)
class LexicalConstraint:
    flags: dict  # vertex -> frozenset of allowed flags; absent = unrestricted

    def key(self) -> tuple:
        return tuple(sorted((v, tuple(sorted(f))) for v, f in self.flags.items()))

    def allowed(self, vertex: int) -> frozenset:
        return self.flags.get(vertex, LEX_FLAGS)

    def permits(self, b: LatentBracket, vertex: int) -> bool:
        return b.is_boundary or _FLAG_OF_BASE[b.base] in self.allowed(vertex)

    def allows(self, orientation: str, u: int, v: int) -> bool:
        """Whether u allows the opener and v > u the closer of this pair."""
        pair = PAIRS[orientation]
        return (_FLAG_OF_BASE[pair.opener] in self.allowed(u)
                and _FLAG_OF_BASE[pair.closer] in self.allowed(v))


@dataclass(frozen=True)
class ParseResult:
    digraph: Digraph
    weight: object  # int or Fraction


@lru_cache(maxsize=None)
def family_automaton(req: frozenset) -> TableDfa:
    """Minimal table of Reg_lat ∩ (the constraints in `req`) over the latent
    alphabet.  It knows no vertex count and no lexicon, so one table serves
    the family at every n."""
    auto = reg_lat()
    for p in sorted(req, key=lambda p: p.value):
        auto = auto.product(constraint_dfa(p))
    return auto


@lru_cache(maxsize=None)
def _projections(req: frozenset) -> tuple:
    """The family table of `req` projected by each distinct candidate key
    on edge pairs, coarsest first: (base, prime), (base, prime, loose),
    and (base, prime, the membership of opener and closer in each class
    that the family's forbidden factors name).  A projection keeps the
    boundary pair and maps each edge pair to the first pair of the
    alphabet with the pair's key, so its symbols are real brackets, and
    it keeps each base, so each pair's orientation and arcs."""
    names = sorted({name for p in req for factor in FORBIDDEN[p] for name in factor
                    if name in CLASSES})
    keys = (lambda o, c: (o.base, o.primed),
            lambda o, c: (o.base, o.primed, o.loose),
            lambda o, c: (o.base, o.primed, *(CLASSES[name](b) for name in names
                                              for b in (o, c))))
    auto = family_automaton(req)
    syms = auto.symbols  # each opener followed by its closer
    images: dict = {}  # an ordered set of the distinct images
    for key in keys:
        first: dict = {}  # key -> column of the first opener with it
        image = list(syms)
        for a, b in enumerate(syms):
            if b.is_opener:
                rep = first.setdefault(key(b, syms[a + 1]), a)
                image[a], image[a + 1] = syms[rep], syms[rep + 1]
        images.setdefault(tuple(image), None)
    return tuple(auto.project(image) for image in images)


@lru_cache(maxsize=None)
def coarse_automaton(n: int, req: frozenset) -> TableDfa:
    """The table that counts and parses of the family `req` at n replay:
    the coarsest of its projections (`_projections`) whose chart derives
    as many strings at n as the family table's (`_span_count`), else the
    family table itself.  Equal counts make the coarse chart exact, by the
    argument of the module docstring."""
    auto = family_automaton(req)
    want = _span_count(auto, n)
    for coarse in _projections(req):
        if _span_count(coarse, n) == want:
            return coarse
    return auto


def _closers(auto: TableDfa) -> dict:
    """{opener: the column of its closer} over the symbols of `auto`, read
    from the table itself, so any table of paired brackets has them."""
    return {b: auto.index[b.partner()] for b in auto.symbols if b.is_opener}


def _moves(auto: TableDfa) -> tuple:
    """Per state of `auto`: the state after a boundary pair {} (-1 if
    dead), and the live openers as (opener, state after it, column of its
    closer).  The closer columns come from `_closers`, once per table."""
    lb, rb = auto.index[BOUNDARY_OPEN], auto.index[BOUNDARY_CLOSE]
    boundary = [-1 if row[lb] < 0 else auto.delta[row[lb]][rb] for row in auto.delta]
    columns = [(auto.index[b], b, c) for b, c in _closers(auto).items()]
    openers = [[(b, row[a], c) for a, b, c in columns if row[a] >= 0] for row in auto.delta]
    return boundary, openers


def _span_tables(auto: TableDfa, n: int) -> tuple:
    """(rows, folds): rows[s][qa][qc] counts the derivations of the chart's
    S cells of span s < n from state qa to qc, folds[s][qa][qb] those of its
    P cells, by `_compile`'s row rules with the positions dropped, since a
    cell's count depends only on its span and end states.  Only positive
    counts are stored, and folds[0] is None."""
    delta = auto.delta
    boundary, moves = _moves(auto)
    inside = {q1 for row in moves for _o, q1, _c in row}
    states = range(len(delta))
    rows = [{q: {q: 1} for q in states}]  # span -> head -> {end: count}
    folds: list = [None]  # span -> head -> {end: count of its P cells}

    def join(qa, s, spans):
        ends: dict = {}
        for p in spans:
            for qb, x in folds[p].get(qa, {}).items():
                for qc, y in rows[s - p].get(qb, {}).items():
                    ends[qc] = ends.get(qc, 0) + x * y
        return ends

    for s in range(1, n):
        if s == 1:
            row = {qa: {boundary[qa]: 1} for qa in inside if boundary[qa] >= 0}
            fold = {qa: {qb: 1} for qa, qb in enumerate(boundary) if qb >= 0}
        else:
            row = {qa: join(qa, s, range(1, s)) for qa in inside}
            fold = {}
        for qa in states:
            for _o, q1, close in moves[qa]:
                for q2, x in row.get(q1, {}).items():
                    qb = delta[q2][close]
                    if qb >= 0:
                        ends = fold.setdefault(qa, {})
                        ends[qb] = ends.get(qb, 0) + x
        folds.append(fold)
        row.update((qa, join(qa, s, range(1, s + 1))) for qa in states if qa not in inside)
        rows.append(row)
    return rows, folds


def _span_count(auto: TableDfa, n: int) -> int:
    """The number of strings the chart of `_compile(n, auto)` derives, read
    off `_span_tables` without making a positional cell."""
    rows, _folds = _span_tables(auto, n)
    return sum(x for qc, x in rows[n - 1][auto.start].items() if auto.final[qc])


def _compile(n: int, auto: TableDfa):
    """The reduced span DP over (vertex, state) nodes for n vertices and
    the table `auto` as one program of grouped joins, independent of
    weights and lexicon: the states and each pair's closer come from the
    table, the vertices from the chart.  `auto` may be any table of paired
    brackets that holds the boundary pair, not only a family table.
    Returns (program, (cell_keys, shared, groups, openers, finals)):

    - program = (ncells, pair_cells, rows, batches), the hash-consed
      reduced chart that `_replay` runs.  Cell 0 is the identity, the
      empty fragment.  pair_cells lists (cell, orientation, u, v) for
      cells 1..P, each filled by the algebra with the value of a bracket
      pair of that orientation over vertices u < v.  Every other cell is
      written by one program row (dst, l0 .. l(k-1), r0 .. r(k-1)): the
      join over i < k of cell li followed by cell ri.  rows[i] writes cell
      P + 1 + i, so a traceback finds a cell's row by one subtraction.
      batches lists (k, rows of one level and term count k) in level
      order, each holding the rows themselves in program order, so each
      batch reads only cells that earlier batches set.  The last row
      writes the last cell, the answer: the start symbol S0, which joins
      each final's cell with the identity.  An empty family has no finals
      and no root row, so its answer stays the algebra's zero.
    - The rest labels the cells for grammar materialization: cell_keys[c]
      = (kind, a, b), a and b the (vertex, state) nodes at the ends of the
      cell (a pair cell has the orientation and (u, v) instead); groups
      maps each cell a join writes to its (lefts, rights), in post-order,
      so a group's operands come before it; openers[c] lists for a P(a, b)
      cell the opener of each of its pairs, None for a boundary pair;
      finals lists (final state, cell); shared[c] is the program cell of
      cell c.

    Each node heads one row of S cells, by its state: a node right after
    an opener starts pair insides, every other node sequences.  S(a, b) of
    span s joins each P(a, m) of span p with the S cell from m to b: p < s
    in an inside row, whose span-1 cell is the boundary pair itself, and
    p ≤ s in a sequence row, where p = s continues with the empty S(b, b).
    P(a, b) joins each pair cell with the pair's inside, and at span 1 the
    boundary pair with S(b, b).  A walk down from the finals S((1, start),
    (n, qf)), on a stack of its own, makes the cells in post-order and
    takes only terms whose two operands have positive `_span_tables`
    counts, so every cell it makes counts > 0 and is read by a final.  It
    names a cell by an int, `code`, and makes each cell's terms once per
    (kind, span, end states) at vertex 0, moving them by `shift` per vertex.

    One pass over the groups, in post-order, then hash-conses them: all
    empty cells (S(a, a) and the boundary pairs) are the identity and pair
    cells are 1..P.  A group's terms are mapped to shared cells and
    sorted, kept as a multiset so that counts stay exact; a one-term group
    with the identity on a side is the cell on the other side, and a group
    whose terms were seen before is the cell they made.  The root group
    comes after this pass, so no cell is merged into the answer.  Each
    shared group's level is one more than its operands' highest, and the
    batches gather the rows by (level, term count).  Every group feeds
    the root, so the root alone has the top level and writes the last
    cell.
    """
    delta = auto.delta
    boundary, moves = _moves(auto)
    inside = {q1 for row in moves for _o, q1, _c in row}
    counts, folds = _span_tables(auto, n)
    kinds = ("S", "P", "{}", *PAIRS)  # a pair cell's kind is its orientation
    nq, nv = len(delta), n + 1

    def code(kind, u, qa, v, qb):
        """The int that stands for the cell (kinds[kind], (u, qa), (v, qb))."""
        return (((kind * nv + u) * nv + v) * nq + qa) * nq + qb

    def decode(c):
        """The (kind, u, qa, v, qb) that `code` made c from."""
        rest, qb = divmod(c, nq)
        rest, qa = divmod(rest, nq)
        rest, v = divmod(rest, nv)
        return (*divmod(rest, nv), qa, v, qb)

    def row(s, q):
        """The kind of the S cell of span s from state q: an inside row's
        span-1 cell is its boundary pair."""
        return 2 if s == 1 and q in inside else 0

    shift = code(0, 1, 0, 1, 0)  # the same cell one vertex to the right is this much more
    shapes: dict = {}  # cell at vertex 0 -> (lefts, rights, openers of a P cell) at vertex 0

    def shape(kind, s, qa):
        """Fill `shapes` for the cells (kinds[kind], (0, qa), (s, qb)) of every qb."""
        by_end: dict = {}  # qb -> [(left, right, opener)]
        if kind == 0:
            for p in range(1, s if qa in inside else s + 1):
                for qm in folds[p].get(qa, ()):
                    left = code(1, 0, qa, p, qm)
                    right = code(row(s - p, qm), p, qm, s, 0)
                    for qc in counts[s - p].get(qm, ()):
                        by_end.setdefault(qc, []).append((left, right + qc, None))
        else:
            if s == 1 and boundary[qa] >= 0:
                qb = boundary[qa]
                by_end[qb] = [(code(2, 0, qa, 1, qb), code(0, 1, qb, 1, qb), None)]
            for o, q1, close in moves[qa]:
                left = code(kinds.index(o.orientation), 0, 0, s, 0)
                right = code(row(s, q1), 0, q1, s, 0)
                for q2 in counts[s].get(q1, ()):
                    qb = delta[q2][close]
                    if qb >= 0:
                        by_end.setdefault(qb, []).append((left, right + q2, o))
        for qb, got in by_end.items():
            lefts, rights, pair_openers = zip(*got)
            shapes[code(kind, 0, qa, s, qb)] = lefts, rights, pair_openers if kind else None

    def expand(c):
        """The terms of the cell c at vertex 0 and the distance in codes to
        its own vertex, or None for an empty cell or a pair."""
        kind, u, qa, v, _qb = decode(c)
        if kind > 1 or u == v:
            return None
        if c - u * shift not in shapes:
            shape(kind, v - u, qa)
        return shapes[c - u * shift], u * shift

    ends = [(qf, code(row(n - 1, auto.start), 1, auto.start, n, qf))
            for qf in counts[n - 1].get(auto.start, ()) if auto.final[qf]]
    ids: dict = {}  # cell -> its labelled id, in post-order
    todo: dict = {}  # cell -> `expand(cell)`, while its operands are walked
    groups: dict = {}  # cell -> (lefts, rights), in post-order
    openers: dict = {}  # P cell -> opener of each of its pairs
    stack = [c for _qf, c in ends]
    while stack:
        c = stack[-1]
        if c in ids:
            stack.pop()
        elif c not in todo and (got := expand(c)):
            todo[c] = got
            (lefts, rights, _o), move = got
            stack += [x + move for x in lefts + rights if x + move not in ids]
        else:
            stack.pop()
            d = ids[c] = len(ids)
            if got := todo.pop(c, None):
                (lefts, rights, pair_openers), move = got
                groups[d] = ([ids[x + move] for x in lefts], [ids[x + move] for x in rights])
                if pair_openers is not None:
                    openers[d] = pair_openers
    finals = [(qf, ids[c]) for qf, c in ends]
    nodes = [[(u, q) for q in range(nq)] for u in range(nv)]  # interned
    keys = [(kinds[kind], nodes[u][qa], nodes[v][qb]) if kind < 3 else ("pair", kinds[kind], (u, v))
            for kind, u, qa, v, qb in map(decode, ids)]
    del counts, folds, shapes, ids, nodes

    # hash-cons the cells in post-order
    shared = [0] * len(keys)  # the empty cells stay the identity
    pair_cells = [(c, key[1], *key[2]) for c, key in enumerate(keys) if key[0] == "pair"]
    for i, (c, _o, _u, _v) in enumerate(pair_cells, 1):
        shared[c] = i
    made: dict = {}  # sorted terms as (l0 .. l(k-1), r0 .. r(k-1)) -> shared cell
    rows = []  # the operands of each shared group, in program order
    level = [0] * (len(pair_cells) + 1)  # shared cell -> 1 + its operands' top level
    at = shared.__getitem__
    for dst, (lefts, rights) in groups.items():
        terms = sorted(zip(map(at, lefts), map(at, rights)))
        if len(terms) == 1 and 0 in terms[0]:
            left, right = terms[0]
            shared[dst] = right if left == 0 else left
            continue
        lefts, rights = zip(*terms)
        operands = lefts + rights
        c = made.get(operands)
        if c is None:
            c = made[operands] = len(level)
            level.append(1 + max(map(level.__getitem__, operands)))
            rows.append(operands)
        shared[dst] = c
    if finals:
        roots = tuple(shared[c] for _qf, c in finals)
        level.append(1 + max(map(level.__getitem__, roots)))
        rows.append(roots + (0,) * len(finals))

    del made  # so that the rows below replace the operands, not copy them

    # prefix each row with the cell it writes and gather the rows of each
    # (level, term count) in program order; every other group feeds the
    # root, so the root is alone in the last batch
    first = len(pair_cells) + 1  # the first row's cell
    batches: dict = {}
    for i, operands in enumerate(rows):
        row = rows[i] = (first + i, *operands)
        batches.setdefault((level[first + i], len(operands) >> 1), []).append(row)
    rows = tuple(rows)
    # an empty family has no root row, so its answer is one more cell
    ncells = first + len(rows) + (not finals)
    program = (ncells, tuple((i, o, u, v) for i, (_c, o, u, v) in enumerate(pair_cells, 1)),
               rows, tuple((k, tuple(batch)) for (_level, k), batch in sorted(batches.items())))
    return program, (keys, shared, groups, openers, finals)


# the two templates every kernel's source is made from, given only its term
# count k: the function, and the product of one term's two operands
_KERNEL = "def kernel(c, rows):\n    for d, {lefts}, {rights} in rows:\n        {body}\n"
_TERM = "c[l{i}] {times} c[r{i}]"


def _kernel(algebra: type, k: int):
    """The unrolled batch kernel of k terms for `algebra`: kernel(c, rows)
    sets, for each row (d, l0 .. l(k-1), r0 .. r(k-1)) of `rows`, c[d] to
    the join over i < k of c[li] ⊗ c[ri], written out term by term, so a
    row costs no call and no inner iterator.  The algebra gives the product
    operator `times` and `join(terms)`, the statements that join the source
    of k terms into c[d].  `_replay` calls it for each term count its
    algebra's `kernels` lacks."""
    terms = [_TERM.format(i=i, times=algebra.times) for i in range(k)]
    source = _KERNEL.format(lefts=", ".join(f"l{i}" for i in range(k)),
                            rights=", ".join(f"r{i}" for i in range(k)),
                            body="\n        ".join(algebra.join(terms)))
    scope: dict = {}
    exec(compile(source, f"<{algebra.__name__}.kernels[{k}]>", "exec"), scope)
    return scope["kernel"]


def _sum_tree(terms: list) -> str:
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    return f"({_sum_tree(terms[:mid])} + {_sum_tree(terms[mid:])})"


class _CountAlgebra:
    """Derivation counts; a pair the lexicon forbids counts 0.  A kernel
    sums its products by a balanced tree of + whose depth is O(log k): a
    chained sum of some thousand terms nests too deep to compile."""

    kernels: dict = {}  # term count -> batch kernel, filled by _replay
    times = "*"
    zero = 0
    empty = 1

    @staticmethod
    def join(terms: list) -> list:
        return [f"c[d] = {_sum_tree(terms)}"]

    def __init__(self, lex: Optional[LexicalConstraint] = None):
        self.lex = lex

    def pairs(self, pair_cells: tuple) -> list:
        """The count of each pair cell (c, orientation, u, v): 1, or 0
        where the lexicon forbids the pair."""
        lex = self.lex
        return [int(lex is None or lex.allows(o, u, v)) for _c, o, u, v in pair_cells]


class _MaxAlgebra:
    """Values are integer keys of arc sets A:

        key(A) = W(A)·n² − |A|

    W is the arc-weight sum scaled to an integer by the least common
    multiple of the weights' denominators (integer weights are used as
    they are).  A set has at most n² − n arcs, so the larger key has the
    larger weight, then fewer arcs, and equal keys have equal weights and
    arc counts.  The arc list that breaks the last tie is not in the key:
    `parse_max` takes it from the tight terms of the replayed cells.

    A pair the lexicon forbids gets the key −(W_total+2)·n², where W_total
    is the sum of all scaled weights.  Every legal key is above −n², since
    W(A) ≥ 0 and |A| < n².  A set with a forbidden pair sums at most
    W_total·n² over its legal arcs plus at least one forbidden key, so it
    lies below −n²: then the lexicon leaves no member of the family.

    A kernel takes the maximum of its sums by a chain of compares, one
    statement per term, and so builds no argument tuple and makes no call
    to max().  On a tie it keeps the earlier term's key, which equals the
    later one's.
    """

    kernels: dict = {}  # term count -> batch kernel, filled by _replay
    times = "+"
    zero = -math.inf
    empty = 0

    @staticmethod
    def join(terms: list) -> list:
        return [f"m = {terms[0]}", *(f"if (x := {t}) > m: m = x" for t in terms[1:]),
                "c[d] = m"]

    def __init__(self, w: WeightMatrix, lex: Optional[LexicalConstraint] = None):
        if all(isinstance(v, int) for v in w.w.values()):
            self.scaled = w.w
        else:
            exact = {ij: Fraction(v) for ij, v in w.w.items()}
            scale = math.lcm(*(f.denominator for f in exact.values()))
            self.scaled = {ij: int(f * scale) for ij, f in exact.items()}
        self.nn = w.n * w.n
        self.lex = lex

    def pairs(self, pair_cells: tuple) -> list:
        """The key each pair cell (c, orientation, u, v) adds: its arcs'
        scaled weight times n² less its arc count, or the forbidden key."""
        weight, nn, lex = self.scaled.get, self.nn, self.lex
        forbidden = -(sum(self.scaled.values()) + 2) * nn
        keys = []
        for _c, o, u, v in pair_cells:
            if lex is not None and not lex.allows(o, u, v):
                keys.append(forbidden)
            elif o == FORWARD:
                keys.append(weight((u, v), 0) * nn - 1)
            elif o == BACKWARD:
                keys.append(weight((v, u), 0) * nn - 1)
            else:
                keys.append((weight((u, v), 0) + weight((v, u), 0)) * nn - 2)
        return keys


_PROGRAMS: dict = {}  # (n, family) -> replay program on the coarse table
_CHARTS: dict = {}  # (n, family) -> labelled compile of the family table


def _program(n: int, req: Iterable = ()) -> tuple:
    """The cached replay program of (n, family) on `coarse_automaton(n,
    family)`, without the labels `_compile` returns with it."""
    key = (n, frozenset(req))
    program = _PROGRAMS.get(key)
    if program is None:
        program = _PROGRAMS[key] = _compile(n, coarse_automaton(*key))[0]
    return program


def _replay(program: tuple, algebra) -> list:
    """Values of every cell of `program` under `algebra`, by replaying it
    without touching the automaton again: the identity and the pair cells
    from the algebra's `empty` and one `pairs` call, then one kernel call
    per batch, the
    algebra's unrolled join for the batch's term count, looped over the
    batch's rows.  The rows of a batch read only cells of lower levels, so
    the batches replay in program order.  The product distributes over the
    join, so joining the pairs of one P(a, b) before they meet their
    continuations keeps every value exact.  The last cell is the answer,
    the join over the whole language.

    The kernels are read from the algebra's plain dict, which the
    interpreter indexes fastest.  A batch whose term count the dict lacks
    compiles the algebra's kernel first, so an algebra compiles only the
    kernels of the programs it runs."""
    ncells, pair_cells, _rows, batches = program
    cells = [algebra.zero] * ncells
    cells[0] = algebra.empty
    cells[1:len(pair_cells) + 1] = algebra.pairs(pair_cells)
    kernels = algebra.kernels
    for k, batch in batches:
        kernel = kernels.get(k)
        if kernel is None:
            kernel = kernels[k] = _kernel(type(algebra), k)
        kernel(cells, batch)
    return cells


def _check(n: int, lex: Optional[LexicalConstraint]) -> None:
    """Reject a vertex count below 1 or a lexicon vertex outside 1..n,
    before anything is compiled or cached."""
    if n < 1:
        raise ValueError(f"vertex count must be at least 1, got {n}")
    if lex is not None:
        for v in sorted(lex.flags):
            if not 1 <= v <= n:
                raise ValueError(f"lexicon vertex {v} out of range 1..{n}")


def count_family_strings(n: int, req: Iterable = (), lex: Optional[LexicalConstraint] = None) -> int:
    """Size of the intersection language (= number of family members)."""
    _check(n, lex)
    return _replay(_program(n, req), _CountAlgebra(lex))[-1]


def count_up_sets(n: int, props: Iterable) -> dict:
    """{req: count_family_strings(n, req)} for every subset req of
    `props`: the up-set families, each the digraphs that have at least
    the properties of req.  The subsets are walked depth first, adding
    properties in `p.value` order, so each family's table is its parent's
    table times one constraint table, as `family_automaton` folds it.
    Each table is counted by `_span_count`, so no program is compiled.
    Only the tables on the current path are alive at a time, and none is
    cached: 2^|props| families would otherwise leave 2^|props| tables
    behind."""
    _check(n, None)
    props = sorted(set(props), key=lambda p: p.value)
    counts: dict = {}

    def walk(req: frozenset, auto: TableDfa, first: int) -> None:
        counts[req] = _span_count(auto, n)
        for i in range(first, len(props)):
            walk(req | {props[i]}, auto.product(constraint_dfa(props[i])), i + 1)

    walk(frozenset(), reg_lat(), 0)
    return counts


def build_intersection_grammar(n: int, req: Iterable = (),
                               lex: Optional[LexicalConstraint] = None) -> Grammar:
    """Materialized Bar-Hillel product grammar for the family language,
    reduced: every nonterminal is reachable from the start and productive.

    Nonterminals are ("S"|"P", (u, q), (v, q')): a vertex span u..v and
    the family table's states at its ends; terminals are latent brackets.
    The productions are read off the compiler's labelled groups, whose
    cells keep their state labels: a join into an S cell gives S → P S, a
    pair gives P → { }, P → opener S closer or, when its inside is a
    boundary pair, P → opener { } closer, a span-0 cell gives S → ε and a
    final gives S0 → S.  A labelled cell counts what its shared cell counts
    in one replay of the program.  The joins, pairs and finals that count
    0 under the lexicon are left out, and so is every nonterminal only
    they reach.  The productions come in this order: S0 → S per final,
    then each reached group's in the reverse of the compile's post-order,
    which puts a group before the groups it reads, then S → ε per reached
    span-0 cell.  So the start's productions come first, and a production
    that names a nonterminal comes before that nonterminal's own.  The
    order depends on no hash seed: the compile and this pass walk ints,
    lists and insertion-ordered dicts.
    The grammar reads the family table's states, so it keeps that
    labelled compile per (n, family) in a cache of its own, apart from the
    coarse programs that counts and parses replay.
    """
    _check(n, lex)
    key = (n, frozenset(req))
    auto = family_automaton(key[1])
    chart = _CHARTS.get(key)
    if chart is None:
        chart = _CHARTS[key] = _compile(n, auto)
    program, (cell_keys, shared, groups, openers, finals) = chart
    counts = _replay(program, _CountAlgebra(lex))

    def count(c):
        return counts[shared[c]]

    def nt(c):
        kind, a, b = cell_keys[c]
        return ("P" if kind == "P" else "S", a, b)

    start = ("S0",)
    closer = {b: auto.symbols[c] for b, c in _closers(auto).items()}
    productions: dict = {}  # an ordered set, in walk order
    reached = bytearray(len(cell_keys))
    for _qf, c in finals:
        if count(c):
            reached[c] = 1
            productions[start, (nt(c),)] = None
    # a group reads only earlier cells, so a backward pass reaches them all
    for dst, (lefts, rights) in reversed(groups.items()):
        if not reached[dst]:
            continue
        pair_openers = openers.get(dst)
        for i, (left, right) in enumerate(zip(lefts, rights)):
            if not (count(left) and count(right)):
                continue
            if pair_openers is None:
                reached[left] = reached[right] = 1
                rhs = (nt(left), nt(right))
            elif (o := pair_openers[i]) is None:
                rhs = (BOUNDARY_OPEN, BOUNDARY_CLOSE)
            elif cell_keys[right][0] == "{}":
                rhs = (o, BOUNDARY_OPEN, BOUNDARY_CLOSE, closer[o])
            else:
                reached[right] = 1
                rhs = (o, nt(right), closer[o])
            productions[nt(dst), rhs] = None
    productions.update(dict.fromkeys((nt(c), ()) for c, (kind, a, b) in enumerate(cell_keys)
                                     if reached[c] and kind == "S" and a == b))
    if not productions:
        # empty language: the start expands only to an unproductive marker
        productions[start, (("DEAD",),)] = None
        productions[("DEAD",), (("DEAD",),)] = None
    return Grammar(start, tuple(productions))


def _tight_arcs(program: tuple, cells: list, n: int) -> frozenset:
    """The arcs of the tie-break's choice among the best derivations, from
    the max keys `cells` of a replay of `program`.

    A term of a row is tight when its two operands' keys sum to the row's
    key.  The best derivations of a cell are exactly those that take a
    tight term and then a best derivation of each operand, so a walk down
    from the answer cell that follows only tight terms visits them all,
    and they share one weight and one arc count.  One pass up the visited
    rows, in cell order (operands come first), then gives each the largest
    arc mask over its tight terms: bit n²−1−r for the arc of rank
    r = (i−1)·n + (j−1), so of two arc sets of one size the larger mask
    holds the smallest arc of their symmetric difference and is the
    lexicographically smaller sorted list.  The operands of a term have
    disjoint arcs, so their masks add."""
    _ncells, pair_cells, rows, _batches = program
    first = len(pair_cells) + 1  # the first row's cell
    nn = n * n
    mask = {0: 0}  # the identity and each reached pair cell -> its arc mask
    tight: dict = {}  # visited row cell -> its tight terms
    todo = [len(cells) - 1]
    while todo:
        d = todo.pop()
        if d in tight:
            continue
        row = rows[d - first]
        k = len(row) >> 1
        best = cells[d]
        terms = tight[d] = [(l, r) for l, r in zip(row[1:k + 1], row[k + 1:])
                            if cells[l] + cells[r] == best]
        for term in terms:
            for c in term:
                if c >= first:
                    todo.append(c)
                elif c not in mask:
                    mask[c] = _pair_mask(n, *pair_cells[c - 1][1:])
    for d in sorted(tight):
        mask[d] = max([mask[l] + mask[r] for l, r in tight[d]])
    best = mask[len(cells) - 1]
    arcs = []
    while best:
        r = nn - best.bit_length()  # the rank of the highest set bit
        arcs.append((r // n + 1, r % n + 1))
        best ^= 1 << (nn - 1 - r)
    return frozenset(arcs)


@lru_cache(maxsize=None)
def _pair_mask(n: int, orientation: str, u: int, v: int) -> int:
    """The arc mask (see `_tight_arcs`) of a bracket pair of `orientation`
    over vertices u < v of n."""
    return sum(1 << (n * n - 1 - (i - 1) * n - (j - 1)) for i, j in pair_arcs(orientation, u, v))


def parse_max(w: WeightMatrix, req: Iterable = (),
              lex: Optional[LexicalConstraint] = None) -> ParseResult:
    """Exact argmax of the arc-weight sum over the requested family."""
    _check(w.n, lex)
    program = _program(w.n, req)
    cells = _replay(program, _MaxAlgebra(w, lex))
    if cells[-1] < -w.n * w.n:
        raise NoParseError("the requested family is empty for this input")
    arcs = _tight_arcs(program, cells, w.n)
    return ParseResult(Digraph(w.n, arcs), sum(w.get(i, j) for (i, j) in sorted(arcs)))


@lru_cache(maxsize=None)
def _family_table(n: int) -> list:
    """Cached (arcs tuple, satisfied property set) for brute-force search."""
    out = []
    for g in enumerate_noncrossing_digraphs(n):
        props = frozenset(p for p in PropertyId if check_property(g, p))
        out.append((tuple(sorted(g.arcs)), props))
    return out


@lru_cache(maxsize=None)
def _family_members(n: int, req: frozenset) -> tuple:
    """The family's arc lists in tie-break order (fewest arcs, then the
    smallest sorted list), and for each the flat ranks (i-1)·n + (j-1) of
    its arcs."""
    members = sorted((arcs for arcs, props in _family_table(n) if req <= props),
                     key=lambda arcs: (len(arcs), arcs))
    return tuple(members), tuple(tuple((i - 1) * n + j - 1 for (i, j) in arcs)
                                 for arcs in members)


def brute_force_max(w: WeightMatrix, req: Iterable = ()) -> ParseResult:
    """Testing oracle: argmax by enumeration and direct property filters,
    with the same tie-breaking rule as parse_max."""
    if w.n > 6:
        raise ValueError("brute force is limited to n <= 6")
    n = w.n
    members, ranks = _family_members(n, frozenset(req))
    if not members:
        raise NoParseError("the requested family is empty for this input")
    flat = [0] * (n * n)
    for (i, j), val in w.w.items():
        flat[(i - 1) * n + j - 1] = val
    scores = list(map(sum, map(map, repeat(flat.__getitem__), ranks)))
    # the first maximum is the tie-break's choice among the heaviest members
    arcs = members[scores.index(max(scores))]
    return ParseResult(Digraph(n, frozenset(arcs)), sum(w.get(i, j) for (i, j) in arcs))
