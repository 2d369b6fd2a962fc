"""Generic arc-factored max-weight inference over noncrossing digraph
families.

The search space is the language D_55 ∩ Reg_lat ∩ G_n ∩ (family
constraints) ∩ (lexical constraints), represented as a Bar-Hillel product of
the Dyck grammar with the product recognizer.  Brackets are positioned:
automaton states carry the separator count, so every bracket pair knows its
vertex endpoints and contributes its arc weights to the objective.  Items
are computed strictly by increasing vertex span, so the dynamic program is
a single bottom-up pass.  It is compiled once per search space into a
weight-independent op schedule, and that one schedule serves counting (a
replay with integer counts), max-weight parsing (a replay with integer
max-plus keys) and grammar materialization (its ops read as productions).
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
from typing import Iterable, Optional

from .cfg import Dfa, Grammar, ProductDfa
from .chains import (BACKWARD, BIDIRECTIONAL, COVER_CYCLE, COVER_NONE,
                     COVER_TWO_TURN, FORWARD, first_state, segment_profile,
                     state_by_name)
from .digraphs import (Digraph, PropertyId, check_property,
                       enumerate_noncrossing_digraphs)
from .latent import (BOUNDARY_CLOSE, BOUNDARY_OPEN, LOOSE, LatentBracket,
                     OPENER_BASE, constraint_dfa, reg_lat)


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


@dataclass(frozen=True)
class LexicalConstraint:
    flags: dict  # vertex -> frozenset of allowed flags; absent = unrestricted

    def key(self) -> tuple:
        return tuple(sorted((v, tuple(sorted(f))) for v, f in self.flags.items()))

    def allowed(self, vertex: int) -> frozenset:
        return self.flags.get(vertex, LEX_FLAGS)

    def permits(self, b: LatentBracket, vertex: int) -> bool:
        if b.is_boundary:
            return True
        flags = self.allowed(vertex)
        if b.orientation == BIDIRECTIONAL:
            return "bidir" in flags
        if b.base == "/":
            return "out-right" in flags
        if b.base == "<":
            return "in-right" in flags
        if b.base == ">":
            return "in-left" in flags
        return "out-left" in flags  # "\\"


@dataclass(frozen=True)
class ParseResult:
    digraph: Digraph
    weight: object  # int or Fraction


class CounterDfa(Dfa):
    """G_n: exactly n-1 boundary pairs (counts opening boundary brackets)."""

    def __init__(self, n: int):
        self.n = n
        self.start = 0

    def step(self, q, b):
        if b.base == "{":
            return q + 1 if q + 1 <= self.n - 1 else None
        return q

    def is_final(self, q) -> bool:
        return q == self.n - 1


def vertex_language(n: int) -> CounterDfa:
    return CounterDfa(n)


class LexDfa(Dfa):
    def __init__(self, lex: LexicalConstraint):
        self.lex = lex
        self.start = 0

    def step(self, q, b):
        if b.base == "{":
            return q + 1
        if not b.is_boundary and not self.lex.permits(b, q + 1):
            return None
        return q

    def is_final(self, q) -> bool:
        return True


def family_automaton(n: int, req: Iterable = (), lex: Optional[LexicalConstraint] = None) -> ProductDfa:
    comps = [reg_lat(), CounterDfa(n)]
    comps += [constraint_dfa(p) for p in sorted(req, key=lambda p: p.value)]
    if lex is not None:
        comps.append(LexDfa(lex))
    return ProductDfa(comps)


_COVERS_BY_ORIENT = {
    FORWARD: (COVER_NONE, COVER_CYCLE, COVER_TWO_TURN),
    BACKWARD: (COVER_NONE, COVER_CYCLE, COVER_TWO_TURN),
    BIDIRECTIONAL: (COVER_NONE, COVER_CYCLE),
}


@lru_cache(maxsize=None)
def _opener_candidates(regstate) -> tuple:
    """Openers whose forced annotations are consistent with the left
    context summarized by a Reg_lat state."""
    kind = regstate[0]
    if kind == "{":
        return ()
    out = []
    for orient in (FORWARD, BACKWARD, BIDIRECTIONAL):
        for cov in _COVERS_BY_ORIENT[orient]:
            profile = segment_profile(orient, cov)
            if kind in ("start", "opener"):
                chain, primed = first_state(profile).name, True
            elif kind == "}":
                chain, primed = LOOSE, False
            else:
                _, mark, _ = regstate
                if mark == LOOSE:
                    chain, primed = LOOSE, False
                else:
                    chain, primed = state_by_name(mark).step(profile).name, False
            out.append(LatentBracket(OPENER_BASE[orient], chain, primed, cov))
    return tuple(out)


class _Intersection:
    """Reachable fragment of the Bar-Hillel product for one (n, req, lex)."""

    def __init__(self, n: int, req: Iterable = (), lex: Optional[LexicalConstraint] = None):
        self.n = n
        self.req = frozenset(req)
        self.auto = family_automaton(n, self.req, lex)
        self._step_cache: dict = {}
        self._prog = None
        self._explore()

    def step(self, q, b):
        key = (q, b)
        if key not in self._step_cache:
            self._step_cache[key] = self.auto.step(q, b)
        return self._step_cache[key]

    def count_of(self, q) -> int:
        return q[1]

    def _explore(self):
        seen = {self.auto.start}
        openers: set = set()
        changed = True
        while changed:
            changed = False
            for q in list(seen):
                cands = list(_opener_candidates(q[0]))
                cands += [BOUNDARY_OPEN, BOUNDARY_CLOSE]
                cands += [o.partner() for o in openers]
                for b in cands:
                    q2 = self.step(q, b)
                    if q2 is None:
                        continue
                    if b.is_opener and b not in openers:
                        openers.add(b)
                        changed = True
                    if q2 not in seen:
                        seen.add(q2)
                        changed = True
        self.states = seen
        self.openers = openers

    def _compile(self):
        """Weight-independent op schedule of the span DP, by increasing
        vertex span.  Returns (program, cell_keys, pair_index):

        - program = (ncells, empty_cells, span_ops, finals).  empty_cells
          start as the empty fragment.  span_ops[s - 1] = (content_ops,
          pairs, seq_ops): an op (dst, pid, src) joins pair pid followed by
          cell src into cell dst; pairs defines the span's pairs in pid
          order, None for a boundary pair, else (orientation, u, v, content
          cell).  A content cell of span s holds the insides of the edge
          pairs of span s, built from shorter pairs.  finals lists
          (final state, cell).
        - cell_keys[c] = (kind, span, qa, qb) and pair_index[s] lists
          (qa, qb, pid, opener or None, content cell) for span s: the
          product states at the ends of cells and pairs.  Only grammar
          materialization reads them, so _program does not keep them.

        A state's counter component is its vertex count, so a fragment's
        span is the count difference of its ends.
        """
        n = self.n
        cell_ids: dict = {}

        def cell(kind, s, qa, qb):
            return cell_ids.setdefault((kind, s, qa, qb), len(cell_ids))

        def join(kind, s, spans, rows):
            ops = []
            for p in spans:
                for (qa, qb, pid, _o, _c) in pair_index[p]:
                    rest = seq_rows[s - p].get(qb)
                    if not rest:
                        continue
                    row = rows.setdefault(qa, {})
                    for qc, src in rest.items():
                        dst = row.get(qc)
                        if dst is None:
                            dst = row[qc] = cell(kind, s, qa, qc)
                        ops.append((dst, pid, src))
            return ops

        empty_cells = []
        seq_rows = [dict() for _ in range(n)]  # span -> qa -> {qb: cell}
        for q in self.states:
            c = cell("seq", 0, q, q)
            seq_rows[0][q] = {q: c}
            empty_cells.append(c)
        pair_index = [[] for _ in range(n)]
        npairs = 0
        span_ops = []
        for s in range(1, n):
            content_rows: dict = {}
            content_ops = join("content", s, range(1, s), content_rows)
            entries, pairs = pair_index[s], []
            if s == 1:
                # boundary pairs; each is also the whole inside of a span-1
                # edge pair
                for q in self.states:
                    q1 = self.step(q, BOUNDARY_OPEN)
                    q2 = None if q1 is None else self.step(q1, BOUNDARY_CLOSE)
                    if q2 is not None:
                        entries.append((q, q2, npairs, None, None))
                        pairs.append(None)
                        npairs += 1
                        c = cell("content", 1, q, q2)
                        content_rows[q] = {q2: c}
                        empty_cells.append(c)
            for qa in self.states:
                u = self.count_of(qa) + 1
                v = u + s
                if v > n:
                    continue
                for o in _opener_candidates(qa[0]):
                    q1 = self.step(qa, o)
                    if q1 is None:
                        continue
                    closer = o.partner()
                    for q2, ccell in content_rows.get(q1, {}).items():
                        qb = self.step(q2, closer)
                        if qb is None:
                            continue
                        entries.append((qa, qb, npairs, o, ccell))
                        pairs.append((o.orientation, u, v, ccell))
                        npairs += 1
            seq_ops = join("seq", s, range(1, s + 1), seq_rows[s])
            span_ops.append((content_ops, pairs, seq_ops))
        finals = [(qf, c) for qf, c in seq_rows[n - 1].get(self.auto.start, {}).items()
                  if self.auto.is_final(qf)]
        program = (len(cell_ids), empty_cells, span_ops, finals)
        return program, list(cell_ids), pair_index

    def _program(self):
        """The cached op schedule; the state endpoints are not kept."""
        if self._prog is None:
            self._prog = self._compile()[0]
        return self._prog

    def replay(self, algebra) -> tuple:
        """Values of every cell and pair under `algebra`, by replaying the
        op schedule without touching the automaton again."""
        ncells, empty_cells, span_ops, _finals = self._program()
        cells = [None] * ncells
        empty = algebra.empty()
        for c in empty_cells:
            cells[c] = empty
        pairvals: list = []
        pair_alg = algebra.pair
        concat = algebra.concat
        joinval = algebra.joinval
        # Every cell and pair the compiler creates gets a value: each op reads
        # pairs and cells of earlier spans or of this span's earlier phase,
        # and each of those was written.  So only a cell's first write needs
        # a test.
        for (content_ops, pairs, seq_ops) in span_ops:
            for (dst, pid, src) in content_ops:
                val = concat(pairvals[pid], cells[src])
                cur = cells[dst]
                cells[dst] = val if cur is None else joinval(cur, val)
            pairvals += [empty if d is None else pair_alg(d[0], d[1], d[2], cells[d[3]])
                         for d in pairs]
            for (dst, pid, src) in seq_ops:
                val = concat(pairvals[pid], cells[src])
                cur = cells[dst]
                cells[dst] = val if cur is None else joinval(cur, val)
        return cells, pairvals

    def totals(self, algebra) -> dict:
        """Aggregated values over the whole language, keyed by final state."""
        cells, _pairvals = self.replay(algebra)
        return {qf: cells[c] for qf, c in self._program()[3]}


class _CountAlgebra:
    concat = operator.mul
    joinval = operator.add

    def empty(self):
        return 1

    def pair(self, orientation, u, v, content):
        return content


class _MaxAlgebra:
    """Values are integer keys of arc sets A:

        key(A) = W(A)·M1 − |A|·M2 + mask(A)

    W is the arc-weight sum scaled to an integer by the least common
    multiple of the weights' denominators.  mask sets bit N−1−r for each
    arc, where r(i, j) = (i−1)·n + (j−1) is the arc's rank in sorted order
    and N = n².  M2 = 2^N and M1 = (n²+2)·M2 keep the three fields apart, so
    the larger key has the larger weight, then fewer arcs, then the larger
    mask.  Of two arc sets of one size, the lexicographically smaller
    sorted list is the one holding the smallest arc of their symmetric
    difference, which is the one with the larger mask.  The two parts of a
    concat have disjoint arcs, so adding their keys unions their masks.
    """

    concat = operator.add
    joinval = max

    def __init__(self, w: WeightMatrix):
        n = self.n = w.n
        m2 = self.m2 = 1 << (n * n)
        m1 = (n * n + 2) * m2
        scale = math.lcm(*(Fraction(v).denominator for v in w.w.values()))
        self._arc = {}  # (i, j) -> key of the one-arc set {(i, j)}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    r = (i - 1) * n + (j - 1)
                    weight = int(Fraction(w.get(i, j)) * scale)
                    self._arc[i, j] = weight * m1 - m2 + (1 << (n * n - 1 - r))

    def empty(self):
        return 0

    def pair(self, orientation, u, v, content):
        if orientation == FORWARD:
            return content + self._arc[u, v]
        if orientation == BACKWARD:
            return content + self._arc[v, u]
        return content + self._arc[u, v] + self._arc[v, u]

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
    key = (n, frozenset(req), lex.key() if lex is not None else None)
    if key not in _INTERSECTION_CACHE:
        _INTERSECTION_CACHE[key] = _Intersection(n, req, lex)
    return _INTERSECTION_CACHE[key]


def count_family_strings(n: int, req: Iterable = (), lex: Optional[LexicalConstraint] = None) -> int:
    """Size of the intersection language (= number of family members)."""
    inter = _intersection(n, req, lex)
    return sum(inter.totals(_CountAlgebra()).values())


def build_intersection_grammar(n: int, req: Iterable = (),
                               lex: Optional[LexicalConstraint] = None) -> Grammar:
    """Materialized Bar-Hillel product grammar for the family language.

    Nonterminals are ("S"|"P", state, state) pairs over the product
    recognizer Reg_lat ∩ G_n ∩ constraints; terminals are latent brackets.
    The productions are read off the compiled op schedule: a sequence op
    gives S → P S, a pair gives P → { } or P → opener S closer, a span-0
    cell gives S → ε and a final gives S0 → S.
    """
    inter = _intersection(n, req, lex)
    (_ncells, _empty, span_ops, finals), cell_keys, pair_index = inter._compile()

    def seq_nt(c):
        return ("S",) + cell_keys[c][2:]

    productions = {(("S", qa, qb), ()) for (_k, s, qa, qb) in cell_keys if s == 0}
    for (_content_ops, _pairs, seq_ops) in span_ops:
        productions.update(
            (seq_nt(dst), (("P", cell_keys[dst][2], cell_keys[src][2]), seq_nt(src)))
            for (dst, _pid, src) in seq_ops)
    for entries in pair_index:
        for (qa, qb, _pid, opener, ccell) in entries:
            rhs = ((BOUNDARY_OPEN, BOUNDARY_CLOSE) if opener is None
                   else (opener, seq_nt(ccell), opener.partner()))
            productions.add((("P", qa, qb), rhs))
    start = ("S0",)
    productions.update((start, (seq_nt(c),)) for (_qf, c) in finals)
    if not finals:
        # empty language: the start expands only to an unproductive marker
        productions.add((start, (("DEAD",),)))
        productions.add((("DEAD",), (("DEAD",),)))
    return Grammar(start, tuple(sorted(productions, key=repr)))


def parse_max(w: WeightMatrix, req: Iterable = (),
              lex: Optional[LexicalConstraint] = None) -> ParseResult:
    """Exact argmax of the arc-weight sum over the requested family."""
    inter = _intersection(w.n, req, lex)
    alg = _MaxAlgebra(w)
    totals = inter.totals(alg)
    if not totals:
        raise NoParseError("the requested family is empty for this input")
    arcs = alg.arcs(max(totals.values()))
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
def _brute_arrays(n: int):
    import numpy as np

    table = _family_table(n)
    rows = len(table)
    prop_bits = np.zeros(rows, dtype=np.uint16)
    arc_rows, arc_cols = [], []
    for r, (arcs, props) in enumerate(table):
        mask = 0
        for k, p in enumerate(PropertyId):
            if p in props:
                mask |= 1 << k
        prop_bits[r] = mask
        for (i, j) in arcs:
            arc_rows.append(r)
            arc_cols.append((i - 1) * n + (j - 1))
    order = sorted(range(rows), key=lambda r: (len(table[r][0]), table[r][0]))
    tie_rank = np.empty(rows, dtype=np.int64)
    for rank, r in enumerate(order):
        tie_rank[r] = rank
    return (np.asarray(arc_rows, dtype=np.int64),
            np.asarray(arc_cols, dtype=np.int64), prop_bits, tie_rank)


def brute_force_max(w: WeightMatrix, req: Iterable = ()) -> ParseResult:
    """Testing oracle: argmax by enumeration and direct property filters,
    with the same tie-breaking rule as parse_max."""
    if w.n > 6:
        raise ValueError("brute force is limited to n <= 6")
    req = frozenset(req)
    if all(isinstance(v, int) for v in w.w.values()):
        return _brute_force_max_int(w, req)
    best = None  # (weight, arc count, sorted arcs)
    for arcs, props in _family_table(w.n):
        if not req <= props:
            continue
        weight = sum(w.get(i, j) for (i, j) in arcs)
        if best is None or weight > best[0] or (
                weight == best[0] and (len(arcs), arcs) < best[1:]):
            best = (weight, len(arcs), arcs)
    if best is None:
        raise NoParseError("the requested family is empty for this input")
    return ParseResult(Digraph(w.n, frozenset(best[2])), best[0])


def _brute_force_max_int(w: WeightMatrix, req: frozenset) -> ParseResult:
    import numpy as np

    n = w.n
    table = _family_table(n)
    arc_rows, arc_cols, prop_bits, tie_rank = _brute_arrays(n)
    wvec = np.zeros(n * n, dtype=np.int64)
    for (i, j), val in w.w.items():
        wvec[(i - 1) * n + (j - 1)] = val
    scores = np.zeros(len(table), dtype=np.int64)
    np.add.at(scores, arc_rows, wvec[arc_cols])
    reqmask = 0
    for k, p in enumerate(PropertyId):
        if p in req:
            reqmask |= 1 << k
    ok = (prop_bits & np.uint16(reqmask)) == np.uint16(reqmask)
    if not ok.any():
        raise NoParseError("the requested family is empty for this input")
    cand = np.flatnonzero(ok)
    best = scores[cand].max()
    cand = cand[scores[cand] == best]
    r = int(cand[np.argmin(tie_rank[cand])])
    return ParseResult(Digraph(n, frozenset(table[r][0])), int(best))
