"""Generic arc-factored max-weight inference over noncrossing digraph
families.

The search space is the language D_55 ∩ Reg_lat ∩ (family constraints) ∩
(lexical constraints) of encodings of n-vertex digraphs, represented as a
Bar-Hillel product of the Dyck grammar with a recognizer.  The recognizer is
the minimal integer table of Reg_lat ∩ (family constraints), built once per
family.  Chart items are (vertex, state) nodes: the vertex comes from the
chart's position, so the chart itself fixes the vertex count (n - 1 boundary
pairs), and every bracket pair knows its vertex endpoints and its arc
weights.  Items are computed by increasing vertex span in one bottom-up
pass, compiled once per (n, family) into a weight-independent program.  Each
span has P(a, b) cells that join the span's bracket pairs with end nodes a
and b, and S cells that join P(a, b) with the S cells continuing from b; a
pair's inside is the S row of the node after its opener.  The joins thus
meet endpoints, not pairs (the arc item split from the sequence item, as in
Eisner 1996), and the program has the shape of the grammar it materializes.
The compiler keeps only the cells that feed a final cell, so the program is
the reduced chart, and it stores each kept cell as one group: the join of
its (left, right) operand pairs.  A bracket pair enters as a pair cell per
(orientation, u, v), which the algebra fills when a replay starts, so pair
values, P(a, b) and S cells all have the one group shape and a replay is
one loop over the groups.  Many cells differ only in their state labels and
join the same operands, so every algebra gives them one value; the program
that is cached and replayed is the hash-consed reduced chart, in which such
cells are one cell (maximal sharing), and all empty cells are one identity
cell.  That one program serves counting (a replay with integer counts) and
max-weight parsing (a replay with integer max-plus keys).  Grammar
materialization reads the unshared reduced program, whose groups are the
productions.
The lexicon is not compiled in: whether a pair is allowed depends only on
its orientation and its two vertices, so the algebras apply it to the pair
cells.
A max key packs the scaled weight, the arc count and an arc bitmask into one
Python integer, so the integer maximum is the documented tie-break (maximum
weight, then fewest arcs, then lexicographically smallest sorted arc list)
and the best arc set is decoded from the winning key's low bits.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Iterable, Optional

from .cfg import Grammar, ProductDfa, TableDfa
from .chains import BACKWARD, BIDIRECTIONAL, FORWARD
from .digraphs import (Digraph, PropertyId, check_property,
                       enumerate_noncrossing_digraphs)
from .latent import (BOUNDARY_CLOSE, BOUNDARY_OPEN, CLOSER_BASE, OPENER_BASE,
                     LatentBracket, alphabet, constraint_dfa, reg_lat)


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
        return (_FLAG_OF_BASE[OPENER_BASE[orientation]] in self.allowed(u)
                and _FLAG_OF_BASE[CLOSER_BASE[orientation]] in self.allowed(v))


@dataclass(frozen=True)
class ParseResult:
    digraph: Digraph
    weight: object  # int or Fraction


@lru_cache(maxsize=None)
def family_automaton(req: frozenset) -> TableDfa:
    """Minimal table of Reg_lat ∩ (the constraints in `req`) over the latent
    alphabet.  It knows no vertex count and no lexicon, so one table serves
    the family at every n."""
    comps = [reg_lat()] + [constraint_dfa(p) for p in sorted(req, key=lambda p: p.value)]
    return TableDfa.compile(ProductDfa(comps), alphabet())


class _Intersection:
    """The span DP over (vertex, state) nodes for one (n, req): the states
    come from the family table, the vertices from the chart."""

    def __init__(self, n: int, req: Iterable = ()):
        self.n = n
        self.auto = auto = family_automaton(frozenset(req))
        lb, rb = auto.index[BOUNDARY_OPEN], auto.index[BOUNDARY_CLOSE]
        # per state: the state after a boundary pair {} (-1 if dead) and the
        # live openers as (opener, state after it, column of its closer)
        self.boundary = [-1 if row[lb] < 0 else auto.delta[row[lb]][rb]
                         for row in auto.delta]
        self.openers = [[(b, q2, auto.index[b.partner()])
                         for b, q2 in zip(auto.symbols, row) if q2 >= 0 and b.is_opener]
                        for row in auto.delta]
        self._prog = None

    def _live(self) -> list:
        """live[u]: the states the chart may meet at vertex u.  Edge brackets
        keep the vertex and a boundary pair moves to the next one; a closer
        counts once its opener was met at an earlier vertex, and matching
        the brackets is left to the chart."""
        live = [set() for _ in range(self.n + 1)]
        frontier = {self.auto.start}
        closable: set = set()  # closer columns of openers met so far
        for u in range(1, self.n + 1):
            seen = live[u] = set(frontier)
            todo = list(frontier)
            met = set()
            while todo:
                q = todo.pop()
                nxt = {self.auto.delta[q][c] for c in closable}
                for (_o, q1, c) in self.openers[q]:
                    nxt.add(q1)
                    met.add(c)
                for q2 in nxt - seen - {-1}:
                    seen.add(q2)
                    todo.append(q2)
            closable |= met
            frontier = {self.boundary[q] for q in seen} - {-1}
        return live

    def _compile(self):
        """The reduced span DP as one program of grouped joins, compiled
        once per (n, family) and independent of weights and lexicon.
        Returns (program, cell_keys, openers):

        - program = (ncells, empty_cells, pair_cells, groups, finals).
          empty_cells start as the empty fragment; pair_cells lists
          (cell, orientation, u, v), a cell the algebra fills with the value
          of a bracket pair of that orientation over vertices u < v.  Every
          other cell is the destination of one group (dst, lefts, rights):
          the join over i of cell lefts[i] followed by cell rights[i].  The
          groups come in span order, so each reads cells already set.
          finals lists (final state, cell).
        - cell_keys[c] = (kind, a, b), a and b the (vertex, state) nodes at
          the ends of the cell (a pair cell has the orientation and (u, v)
          instead), and openers[c] lists for a P(a, b) cell the opener of
          each of its pairs, None for a boundary pair.  Only grammar
          materialization reads them and this program, so what is cached
          is the shared program alone (`_share`), without them.

        Each node heads one row of S cells, by its state: a node right
        after an opener starts pair insides, every other node sequences.
        Each span joins the inside rows (a P cell of a shorter span
        followed by an S cell; at span 1, a boundary cell), then makes its
        P(a, b) cells (a pair cell followed by the pair's inside, or a
        boundary cell followed by the empty S cell at b), then joins the
        sequence rows (P(a, b) of the span or a shorter one followed by
        the S cell continuing from b).  A cell is made only where a join
        writes it, so every cell counts > 0; a backward pass from the
        finals then keeps only the cells some final reads, so the program
        is the reduced chart.
        """
        n, delta = self.n, self.auto.delta
        live = self._live()
        inside = {q1 for moves in self.openers for _o, q1, _c in moves}
        cell_ids: dict = {}
        groups: dict = {}  # written cell -> (lefts, rights), by first write
        openers: dict = {}  # P cell -> opener of each of its pairs

        def cell(kind, a, b):
            return cell_ids.setdefault((kind, a, b), len(cell_ids))

        def join(s, spans, heads_inside):
            for p in spans:
                for (a, b), f in p_cells[p].items():
                    rest = rows[s - p].get(b)
                    if not rest or (a[1] in inside) != heads_inside:
                        continue
                    row = rows[s].setdefault(a, {})
                    for c, src in rest.items():
                        dst = row.get(c)
                        if dst is None:
                            dst = row[c] = cell("S", a, c)
                            groups[dst] = ([], [])
                        lefts, rights = groups[dst]
                        lefts.append(f)
                        rights.append(src)

        def fold(s, a, b, left, right, opener):
            f = p_cells[s].get((a, b))
            if f is None:
                f = p_cells[s][a, b] = cell("P", a, b)
                groups[f], openers[f] = ([], []), []
            groups[f][0].append(left)
            groups[f][1].append(right)
            openers[f].append(opener)

        empty_cells = []
        rows = [dict() for _ in range(n)]  # span -> a -> {b: S cell}
        for u in range(1, n + 1):
            for q in live[u]:
                a = (u, q)
                c = cell("S", a, a)
                rows[0][a] = {a: c}
                empty_cells.append(c)
        p_cells = [dict() for _ in range(n)]  # span -> (a, b) -> P cell
        for s in range(1, n):
            join(s, range(1, s), True)
            if s == 1:
                # boundary pairs; each is also the whole inside of a span-1
                # edge pair
                for u in range(1, n):
                    for q in live[u]:
                        if self.boundary[q] < 0:
                            continue
                        a, b = (u, q), (u + 1, self.boundary[q])
                        c = cell("{}", a, b)
                        empty_cells.append(c)
                        if q in inside:
                            rows[s][a] = {b: c}
                        fold(s, a, b, c, rows[0][b][b], None)
            for u in range(1, n - s + 1):
                v = u + s
                for qa in live[u]:
                    for (o, q1, close) in self.openers[qa]:
                        for (_v, q2), ccell in rows[s].get((u, q1), {}).items():
                            qb = delta[q2][close]
                            if qb >= 0:
                                k = cell("pair", o.orientation, (u, v))
                                fold(s, (u, qa), (v, qb), k, ccell, o)
            join(s, range(1, s + 1), False)
        whole = rows[n - 1].get((1, self.auto.start), {})
        finals = [(qf, c) for (_n, qf), c in whole.items() if self.auto.final[qf]]

        # every input of a group was written earlier, so one backward pass
        # marks all that some final reads
        needed = bytearray(len(cell_ids))
        for _qf, c in finals:
            needed[c] = 1
        for dst, (lefts, rights) in reversed(groups.items()):
            if needed[dst]:
                for c in lefts:
                    needed[c] = 1
                for c in rights:
                    needed[c] = 1
        keys = [key for key, c in cell_ids.items() if needed[c]]
        renum = [-1] * len(cell_ids)
        for i, c in enumerate(c for c in range(len(cell_ids)) if needed[c]):
            renum[c] = i
        at = renum.__getitem__
        program = (len(keys),
                   tuple(at(c) for c in empty_cells if needed[c]),
                   tuple((at(c), key[1], *key[2]) for key, c in cell_ids.items()
                         if key[0] == "pair" and needed[c]),
                   tuple((at(dst), tuple(map(at, lefts)), tuple(map(at, rights)))
                         for dst, (lefts, rights) in groups.items() if needed[dst]),
                   tuple((qf, at(c)) for qf, c in finals))
        if self._prog is None:
            self._prog = _share(program)
        return program, keys, {at(f): ops for f, ops in openers.items() if needed[f]}

    def _program(self):
        """The cached replay program: the hash-consed reduced chart.  The
        unshared program, its cell keys and openers are not kept."""
        if self._prog is None:
            self._compile()
        return self._prog

    def replay(self, algebra, program=None) -> list:
        """Values of every cell of `program` (by default the cached shared
        one) under `algebra`, by replaying it without touching the
        automaton again: one join per group.  concat distributes over
        joinall, so joining the pairs of one P(a, b) before they meet their
        continuations keeps every value exact."""
        ncells, empty_cells, pair_cells, groups, _finals = program or self._program()
        cells = [algebra.zero] * ncells
        empty = algebra.empty()
        for c in empty_cells:
            cells[c] = empty
        for c, o, u, v in pair_cells:
            cells[c] = algebra.pair(o, u, v)
        get, concat, joinall = cells.__getitem__, algebra.concat, algebra.joinall
        for dst, lefts, rights in groups:
            cells[dst] = joinall(map(concat, map(get, lefts), map(get, rights)))
        return cells

    def totals(self, algebra) -> dict:
        """Aggregated values over the whole language, keyed by final state."""
        cells = self.replay(algebra)
        return {qf: cells[c] for qf, c in self._program()[4]}


def _share(program):
    """The hash-consed form of a reduced program: each set of cells that
    every algebra gives one value becomes one cell.  All empty cells (S(a, a)
    and the boundary pairs) are one identity cell; pair cells stay one per
    (orientation, u, v).  Taken in program order, a group's operands are
    mapped to their shared cells and its terms sorted into a tuple, kept as
    a multiset so that counts stay exact.  A group whose one term has the
    identity on a side is the cell on the other side, and a group whose
    term tuple was seen before is the cell that tuple made.  The cells no
    final reads any more are then dropped, as in the compiler."""
    ncells, empty_cells, pair_cells, groups, finals = program
    canon = [-1] * ncells
    for c in empty_cells:
        canon[c] = 0
    made = {}  # term tuple -> shared cell
    shared = []  # (shared cell, lefts, rights), in program order
    for i, (c, _o, _u, _v) in enumerate(pair_cells, 1):
        canon[c] = i
    at = canon.__getitem__
    for dst, lefts, rights in groups:
        terms = tuple(sorted(zip(map(at, lefts), map(at, rights))))
        if len(terms) == 1 and 0 in terms[0]:
            left, right = terms[0]
            canon[dst] = right if left == 0 else left
            continue
        c = made.get(terms)
        if c is None:
            c = made[terms] = len(pair_cells) + 1 + len(shared)
            shared.append((c, *zip(*terms)))
        canon[dst] = c
    finals = [(qf, at(c)) for qf, c in finals]

    # shared cells are numbered in program order, so one backward pass
    # marks all that some final reads, and renumbering keeps terms sorted
    needed = bytearray(len(pair_cells) + 1 + len(shared))
    for _qf, c in finals:
        needed[c] = 1
    for dst, lefts, rights in reversed(shared):
        if needed[dst]:
            for c in lefts:
                needed[c] = 1
            for c in rights:
                needed[c] = 1
    at = list(accumulate(needed, initial=0)).__getitem__
    return (sum(needed),
            (0,) if needed[0] else (),
            tuple((at(i), *pair[1:]) for i, pair in enumerate(pair_cells, 1)
                  if needed[i]),
            tuple((at(dst), tuple(map(at, lefts)), tuple(map(at, rights)))
                  for dst, lefts, rights in shared if needed[dst]),
            tuple((qf, at(c)) for qf, c in finals))


class _CountAlgebra:
    """Derivation counts; a pair the lexicon forbids counts 0."""

    concat = operator.mul
    joinall = sum
    zero = 0

    def __init__(self, lex: Optional[LexicalConstraint] = None):
        self.lex = lex

    def empty(self):
        return 1

    def pair(self, orientation, u, v):
        return int(self.lex is None or self.lex.allows(orientation, u, v))


class _MaxAlgebra:
    """Values are integer keys of arc sets A:

        key(A) = W(A)·M1 − |A|·M2 + mask(A)

    W is the arc-weight sum scaled to an integer by the least common
    multiple of the weights' denominators (integer weights are used as
    they are).  mask sets bit N−1−r for each arc, where r(i, j) = (i−1)·n +
    (j−1) is the arc's rank in sorted order and N = n².  M2 = 2^N and M1 =
    (n²+2)·M2 keep the three fields apart, so the larger key has the larger
    weight, then fewer arcs, then the larger mask.  Of two arc sets of one
    size, the lexicographically smaller sorted list is the one holding the
    smallest arc of their symmetric difference, which is the one with the
    larger mask.  The two parts of a concat have disjoint arcs, so adding
    their keys unions their masks.

    A pair the lexicon forbids gets the key −(W_total+2)·M1, where W_total
    is the sum of all scaled weights.  Every legal key is above −M1, since
    W(A) ≥ 0 and |A| ≤ n² − n.  A set with a forbidden pair sums less than
    (W_total+1)·M1 over its legal arcs plus at least one forbidden key, so
    it lies below −M1: then the lexicon leaves no member of the family.
    """

    concat = operator.add
    joinall = max
    zero = -math.inf

    def __init__(self, w: WeightMatrix, lex: Optional[LexicalConstraint] = None):
        n = self.n = w.n
        nn = n * n
        m2 = self.m2 = 1 << nn
        m1 = self.m1 = (nn + 2) * m2
        if all(isinstance(v, int) for v in w.w.values()):
            scaled = w.w
        else:
            exact = {ij: Fraction(v) for ij, v in w.w.items()}
            scale = math.lcm(*(f.denominator for f in exact.values()))
            scaled = {ij: int(f * scale) for ij, f in exact.items()}
        weight = scaled.get
        forbidden = -(sum(scaled.values()) + 2) * m1
        self._pair = keys = {}  # (orientation, u, v) -> key added by that pair
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                # one-arc keys of (u, v) and (v, u), of ranks r and r'
                fwd = weight((u, v), 0) * m1 - m2 + (1 << (nn - u * n + n - v))
                bwd = weight((v, u), 0) * m1 - m2 + (1 << (nn - v * n + n - u))
                for o, key in ((FORWARD, fwd), (BACKWARD, bwd), (BIDIRECTIONAL, fwd + bwd)):
                    keys[o, u, v] = key if lex is None or lex.allows(o, u, v) else forbidden

    def empty(self):
        return 0

    def pair(self, orientation, u, v):
        return self._pair[orientation, u, v]

    def arcs(self, key: int) -> frozenset:
        """The arc set whose mask is the low field of `key`."""
        n, mask = self.n, key % self.m2
        return frozenset((r // n + 1, r % n + 1) for r in range(n * n)
                         if mask >> (n * n - 1 - r) & 1)


_INTERSECTION_CACHE: dict = {}


def _intersection(n: int, req: Iterable = (),
                  lex: Optional[LexicalConstraint] = None) -> _Intersection:
    if n < 1:
        raise ValueError(f"vertex count must be at least 1, got {n}")
    if lex is not None:
        for v in sorted(lex.flags):
            if not 1 <= v <= n:
                raise ValueError(f"lexicon vertex {v} out of range 1..{n}")
    key = (n, frozenset(req))
    if key not in _INTERSECTION_CACHE:
        _INTERSECTION_CACHE[key] = _Intersection(*key)
    return _INTERSECTION_CACHE[key]


def count_family_strings(n: int, req: Iterable = (), lex: Optional[LexicalConstraint] = None) -> int:
    """Size of the intersection language (= number of family members)."""
    inter = _intersection(n, req, lex)
    return sum(inter.totals(_CountAlgebra(lex)).values())


def build_intersection_grammar(n: int, req: Iterable = (),
                               lex: Optional[LexicalConstraint] = None) -> Grammar:
    """Materialized Bar-Hillel product grammar for the family language,
    reduced: every nonterminal is reachable from the start and productive.

    Nonterminals are ("S"|"P", (u, q), (v, q')): a vertex span u..v and
    the family table's states at its ends; terminals are latent brackets.
    The productions are read off the unshared reduced program, whose cells
    keep their state labels: a join into an S cell gives S → P S, a pair
    gives P → { }, P → opener S closer or, when its inside is a boundary
    pair, P → opener { } closer, a span-0 cell gives S → ε and a final
    gives S0 → S.  The joins, pairs and finals that count 0 under the
    lexicon are left out, and so is every nonterminal only they reach.
    """
    inter = _intersection(n, req, lex)
    program, cell_keys, openers = inter._compile()
    _ncells, empty_cells, _pairs, groups, finals = program
    cells = inter.replay(_CountAlgebra(lex), program)

    def nt(c):
        kind, a, b = cell_keys[c]
        return ("P" if kind == "P" else "S", a, b)

    start = ("S0",)
    productions = set()
    reached = bytearray(len(cells))
    for _qf, c in finals:
        if cells[c]:
            reached[c] = 1
            productions.add((start, (nt(c),)))
    # a group reads only earlier cells, so a backward pass reaches them all
    for dst, lefts, rights in reversed(groups):
        if not reached[dst]:
            continue
        pair_openers = openers.get(dst)
        for i, (left, right) in enumerate(zip(lefts, rights)):
            if not (cells[left] and cells[right]):
                continue
            if pair_openers is None:
                reached[left] = reached[right] = 1
                rhs = (nt(left), nt(right))
            elif (o := pair_openers[i]) is None:
                rhs = (BOUNDARY_OPEN, BOUNDARY_CLOSE)
            elif cell_keys[right][0] == "{}":
                rhs = (o, BOUNDARY_OPEN, BOUNDARY_CLOSE, o.partner())
            else:
                reached[right] = 1
                rhs = (o, nt(right), o.partner())
            productions.add((nt(dst), rhs))
    productions.update((nt(c), ()) for c in empty_cells
                       if reached[c] and cell_keys[c][0] == "S")
    if not productions:
        # empty language: the start expands only to an unproductive marker
        productions.add((start, (("DEAD",),)))
        productions.add((("DEAD",), (("DEAD",),)))
    return Grammar(start, tuple(sorted(productions, key=repr)))


def parse_max(w: WeightMatrix, req: Iterable = (),
              lex: Optional[LexicalConstraint] = None) -> ParseResult:
    """Exact argmax of the arc-weight sum over the requested family."""
    inter = _intersection(w.n, req, lex)
    alg = _MaxAlgebra(w, lex)
    best = max(inter.totals(alg).values(), default=None)
    if best is None or best < -alg.m1:
        raise NoParseError("the requested family is empty for this input")
    arcs = alg.arcs(best)
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
