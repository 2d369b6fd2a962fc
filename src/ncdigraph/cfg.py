"""Context-free machinery: grammars, Dyck languages, recognizers, and the
homomorphic representation h(D ∩ Reg) of the encoded-graph language.

Grammars are plain production lists over hashable symbols; a symbol is a
nonterminal iff it appears on a left-hand side.  Recognizers follow a small
DFA protocol (``start``, ``step``, ``is_final``) so they can be intersected
by product construction and multiplied into grammars.  Derivation counts,
membership and string counts by length read one chart, filled by a loop from
the last position to the first, for any grammar with finite counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence
from weakref import WeakValueDictionary


@dataclass(frozen=True)
class Grammar:
    start: Hashable
    productions: tuple  # of (lhs, rhs-tuple)

    def __post_init__(self):
        lhs_set = {lhs for lhs, _ in self.productions}
        if self.start not in lhs_set:
            raise ValueError("start symbol has no productions")

    @property
    def nonterminals(self) -> frozenset:
        return frozenset(lhs for lhs, _ in self.productions)

    @property
    def terminals(self) -> frozenset:
        nts = self.nonterminals
        return frozenset(sym for _, rhs in self.productions
                         for sym in rhs if sym not in nts)

    def by_lhs(self) -> dict:
        table: dict = {}
        for lhs, rhs in self.productions:
            table.setdefault(lhs, []).append(tuple(rhs))
        return table


@dataclass(frozen=True)
class DyckSpec:
    pairs: tuple  # of (opener, closer)

    def __post_init__(self):
        openers = [o for o, _ in self.pairs]
        closers = [c for _, c in self.pairs]
        symbols = openers + closers
        if len(set(symbols)) != len(symbols):
            raise ValueError("bracket symbol used twice in Dyck specification")
        # built once here, not on every dyck_check; not fields, so equality,
        # hashing and repr still read only the pairs
        object.__setattr__(self, "_closer_of", dict(self.pairs))
        object.__setattr__(self, "_closers", frozenset(closers))

    def closer_of(self) -> dict:
        return dict(self._closer_of)

    def symbols(self) -> frozenset:
        return frozenset(s for pair in self.pairs for s in pair)


def dyck_check(spec: DyckSpec, s: Sequence) -> bool:
    closer_of, closers = spec._closer_of.get, spec._closers
    stack: list = []
    for sym in s:
        closer = closer_of(sym)
        if closer is not None:
            stack.append(closer)
        elif sym in closers:
            if not stack or stack.pop() != sym:
                return False
        else:
            return False
    return not stack


@dataclass(frozen=True)
class Homomorphism:
    mapping: tuple  # of (extended symbol, image symbol or None for erasure)

    def table(self) -> dict:
        return dict(self.mapping)

    def apply(self, s: Sequence) -> tuple:
        table = self.table()
        out = []
        for sym in s:
            img = table[sym]
            if img is not None:
                out.append(img)
        return tuple(out)


class Dfa:
    """Deterministic recognizer protocol.  Subclasses define transitions;
    ``step`` returns None for the dead state."""

    start: Hashable = None

    def step(self, q, sym):
        raise NotImplementedError

    def is_final(self, q) -> bool:
        raise NotImplementedError

    def accepts(self, s: Sequence) -> bool:
        q = self.start
        for sym in s:
            q = self.step(q, sym)
            if q is None:
                return False
        return self.is_final(q)


class ProductDfa(Dfa):
    def __init__(self, components: Sequence[Dfa]):
        self.components = tuple(components)
        self.start = tuple(c.start for c in self.components)

    def step(self, q, sym):
        out = []
        for comp, qc in zip(self.components, q):
            qn = comp.step(qc, sym)
            if qn is None:
                return None
            out.append(qn)
        return tuple(out)

    def is_final(self, q) -> bool:
        return all(c.is_final(qc) for c, qc in zip(self.components, q))


class _Columns:
    """The {symbol: column} dict of a symbol tuple.  Every table over the
    tuple holds the one instance and the cache holds it weakly, so it
    lives as long as such a table does: a one-off table, such as the one
    `latent.alphabet()` compiles over every candidate bracket, leaves no
    entry behind."""

    __slots__ = ("index", "__weakref__")

    def __init__(self, symbols: tuple):
        self.index = {sym: a for a, sym in enumerate(symbols)}


_COLUMNS: WeakValueDictionary = WeakValueDictionary()  # symbols -> _Columns


class TableDfa(Dfa):
    """Minimal recognizer with integer states over a fixed symbol list.

    ``delta[q][a]`` is the successor of state q on ``symbols[a]``, -1 for the
    dead state, and ``final[q]`` flags the accepting states.  Every state is
    reachable from ``start`` (state 0) and, unless the language is empty,
    can reach a final state.  ``index`` maps each symbol to its column; it
    is shared, so it must not be changed.
    """

    start = 0

    def __init__(self, symbols: Sequence, delta: tuple, final: tuple):
        self.symbols = tuple(symbols)
        columns = _COLUMNS.get(self.symbols)
        if columns is None:
            columns = _COLUMNS[self.symbols] = _Columns(self.symbols)
        self._columns = columns  # keeps the shared index cached
        self.index = columns.index
        self.delta = delta
        self.final = final

    @classmethod
    def compile(cls, dfa: Dfa, symbols: Sequence) -> "TableDfa":
        """Tabulate the states of `dfa` reachable over `symbols` breadth
        first and minimize them (`_minimal`)."""
        symbols = tuple(symbols)
        ids = {dfa.start: 1}
        order = [dfa.start]
        arcs = [[]]  # per state: (symbol index, successor) of its live moves
        for q in order:  # grows while it is walked: breadth-first
            row = []
            for a, sym in enumerate(symbols):
                q2 = dfa.step(q, sym)
                if q2 is not None:
                    if q2 not in ids:
                        ids[q2] = len(order) + 1
                        order.append(q2)
                    row.append((a, ids[q2]))
            arcs.append(row)
        return cls._minimal(symbols, arcs, [False] + [dfa.is_final(q) for q in order])

    def product(self, other: "TableDfa") -> "TableDfa":
        """The minimal table of the intersection of two tables over the
        same symbols: the pairs of states reachable breadth first, with a
        move on each column where both tables have one, minimized
        (`_minimal`)."""
        if other.symbols != self.symbols:
            raise ValueError("product of tables over different symbols")
        ny = len(other.delta)
        live = [[(a, x2) for a, x2 in enumerate(row) if x2 >= 0] for row in self.delta]
        ids = [0] * (len(self.delta) * ny)  # pair x·ny + y -> state, 0 if unseen
        ids[0] = 1
        order = [0]
        arcs = [[]]
        for xy in order:  # grows while it is walked: breadth-first
            x, y = divmod(xy, ny)
            row_y = other.delta[y]
            row = []
            for a, x2 in live[x]:
                y2 = row_y[a]
                if y2 >= 0:
                    k = x2 * ny + y2
                    q2 = ids[k]
                    if not q2:
                        q2 = ids[k] = len(order) + 1
                        order.append(k)
                    row.append((a, q2))
            arcs.append(row)
        final = [False] + [self.final[xy // ny] and other.final[xy % ny] for xy in order]
        return self._minimal(self.symbols, arcs, final)

    def project(self, image: Sequence) -> "TableDfa":
        """The minimal table of the image of this table's language under a
        map on its columns: column a reads image[a], and the new symbols
        are the images in order of first appearance.  The subset
        construction walks the sets of states reachable breadth first,
        with a move on each new symbol from the states that move on one of
        its preimages, and `_minimal` merges equivalent sets."""
        symbols = tuple(dict.fromkeys(image))
        column = {sym: b for b, sym in enumerate(symbols)}
        preimages = [[] for _ in symbols]
        for a, sym in enumerate(image):
            preimages[column[sym]].append(a)
        ids = {frozenset({self.start}): 1}
        order = list(ids)
        arcs = [[]]
        for states in order:  # grows while it is walked: breadth-first
            rows = [self.delta[q] for q in states]
            row = []
            for b, cols in enumerate(preimages):
                nxt = frozenset(r[a] for r in rows for a in cols if r[a] >= 0)
                if nxt:
                    q2 = ids.get(nxt)
                    if q2 is None:
                        q2 = ids[nxt] = len(order) + 1
                        order.append(nxt)
                    row.append((b, q2))
            arcs.append(row)
        final = [False] + [any(self.final[q] for q in states) for states in order]
        return self._minimal(symbols, arcs, final)

    @classmethod
    def _minimal(cls, symbols: tuple, arcs: list, final: list) -> "TableDfa":
        """The minimal table of a tabulated recognizer whose state 1 is the
        start, its other states numbered breadth first: arcs[q] lists the
        (symbol index, successor) of each live move of state q, and
        final[q] flags the accepting ones.  Moore refinement merges
        equivalent states.  The dead state takes part as state 0 (block
        0), so the states that cannot reach a final state merge into it;
        block b > 0 becomes state b - 1.  Blocks are numbered by their
        first state in breadth-first order, so the numbering is the
        minimal recognizer's breadth-first order, whatever table it was
        minimized from."""
        block = [int(f) for f in final]
        nblocks = 0
        while nblocks < len(set(block)):
            nblocks = len(set(block))
            sigs: dict = {}
            block = [sigs.setdefault((block[q], tuple((a, block[q2]) for a, q2 in arcs[q]
                                                      if block[q2])), len(sigs))
                     for q in range(len(arcs))]
        if block[1] == 0:  # empty language
            return cls(symbols, ((-1,) * len(symbols),), (False,))
        reps = [block.index(b) for b in range(1, nblocks)]
        delta = []
        for q in reps:
            row = [-1] * len(symbols)
            for a, q2 in arcs[q]:
                row[a] = block[q2] - 1
            delta.append(tuple(row))
        return cls(symbols, tuple(delta), tuple(final[q] for q in reps))

    def step(self, q, sym):
        a = self.index.get(sym)
        q2 = -1 if a is None else self.delta[q][a]
        return None if q2 < 0 else q2

    def is_final(self, q) -> bool:
        return self.final[q]


# ---------------------------------------------------------------------------
# The explicit grammars for encoded noncrossing graphs.

def grammar_nc_graph() -> Grammar:
    """S -> [S']S | {}S | eps,  S' -> [S']T | {}S,  T -> [S']S | {}S."""
    return Grammar("S", (
        ("S", ("[", "S'", "]", "S")),
        ("S", ("{", "}", "S")),
        ("S", ()),
        ("S'", ("[", "S'", "]", "T")),
        ("S'", ("{", "}", "S")),
        ("T", ("[", "S'", "]", "S")),
        ("T", ("{", "}", "S")),
    ))


def grammar_dyck2() -> Grammar:
    """The two-pair Dyck language D_2: S -> [S]S | {S}S | eps."""
    return Grammar("S", (
        ("S", ("[", "S", "]", "S")),
        ("S", ("{", "S", "}", "S")),
        ("S", ()),
    ))


def _same_position_components(table: dict) -> list:
    """Strongly connected components of the reads at one start position,
    each read before its readers, with whether it is a cycle.  X reads Y
    there when Y can begin a right-hand side of X after nullable symbols."""
    nullable: set = set()
    grew = True
    while grew:
        grew = False
        for x, rhss in table.items():
            if x not in nullable and any(all(s in nullable for s in rhs) for rhs in rhss):
                nullable.add(x)
                grew = True
    reads: dict = {x: set() for x in table}
    for x, rhss in table.items():
        for rhs in rhss:
            for s in rhs:
                if s in table:
                    reads[x].add(s)
                if s not in nullable:
                    break
    # Tarjan's algorithm on an explicit stack: a component is complete,
    # and emitted, once every component it reads is
    index: dict = {}
    low: dict = {}
    stack: list = []
    components = []
    for root in table:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(reads[root]))]
        while work:
            x, todo = work[-1]
            for y in todo:
                if y not in index:
                    index[y] = low[y] = len(index)
                    stack.append(y)
                    work.append((y, iter(reads[y])))
                    break
                if y in low:  # still on the stack
                    low[x] = min(low[x], index[y])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[x])
                if low[x] == index[x]:
                    members = [stack.pop()]
                    while members[-1] != x:
                        members.append(stack.pop())
                    for y in members:
                        del low[y]
                    components.append((members, len(members) > 1 or x in reads[x]))
    return components


def _end_counts(g: Grammar, length: int, match) -> dict:
    """Per nonterminal X, a dict from each end k to the number of derivations
    of positions 0..k-1 from X, where terminal a may sit at position i iff
    ``match(i, a)``.  Start positions run from right to left.  At each one
    the nonterminals are evaluated once each, every one after those it
    reads at that position; only the members of a cycle of such reads are
    recomputed until none changes, so left recursion settles and an
    unproductive cycle counts 0.  Finite counts settle within one round per
    (member, end) pair; change after that raises."""
    table = g.by_lhs()
    components = _same_position_components(table)
    rows: list = [None] * (length + 1)  # rows[i][X][k]: derivations of i..k-1

    def evaluate(i, x):
        total: dict = {}
        for rhs in table[x]:
            ends = {i: 1}
            for sym in rhs:
                nxt: dict = {}
                for k, c in ends.items():
                    if sym in table:
                        for k2, c2 in rows[k][sym].items():
                            nxt[k2] = nxt.get(k2, 0) + c * c2
                    elif k < length and match(k, sym):
                        nxt[k + 1] = c
                ends = nxt
                if not ends:
                    break
            for k, c in ends.items():
                total[k] = total.get(k, 0) + c
        return total

    for i in range(length, -1, -1):
        row = rows[i] = {}
        for members, cyclic in components:
            if not cyclic:
                row[members[0]] = evaluate(i, members[0])
                continue
            row.update(dict.fromkeys(members, {}))
            for _round in range(len(members) * (length - i + 1) + 1):
                before = [row[x] for x in members]
                for x in members:
                    row[x] = evaluate(i, x)
                if [row[x] for x in members] == before:
                    break
            else:
                raise ValueError("the grammar has infinitely many derivations of a span")
    return rows[0]


def derivation_count(g: Grammar, s: Sequence) -> int:
    """Number of distinct derivation trees (= leftmost derivations) of s.

    Exact big-integer arithmetic for s of any length; the grammar may be
    left-recursive, and the count of every span must be finite.
    """
    s = tuple(s)
    return _end_counts(g, len(s), lambda i, a: s[i] == a)[g.start].get(len(s), 0)


def membership(g: Grammar, s: Sequence) -> bool:
    return derivation_count(g, s) > 0


def string_counts_by_length(g: Grammar, max_len: int) -> list:
    """Number of derivations per yield length, 0..max_len (equals the number
    of strings when the grammar is unambiguous)."""
    ends = _end_counts(g, max_len, lambda i, a: True)[g.start]
    return [ends.get(k, 0) for k in range(max_len + 1)]


# ---------------------------------------------------------------------------
# Chomsky-Schützenberger representation for the encoded-graph language:
# L = h(D_3 ∩ Reg).  The primed pair marks non-loose chain starts (a pair
# whose opener sits at string start or right after another opener).

class GraphReg(Dfa):
    """Local discipline for primed graph bracketings.

    Rules: ``{`` pairs immediately with ``}``; the opener at string start or
    after another opener is primed, after ``}`` or a closer it is plain; no
    empty bracket pair; no closer directly after a primed closer (that shape
    would duplicate an edge).
    """

    START, BRACE, SEP, OPENER, CLOSER, CLOSER_P = range(6)
    start = START

    def step(self, q, sym):
        if q is None:
            return None
        if sym == "{":
            return self.BRACE if q != self.BRACE else None
        if sym == "}":
            return self.SEP if q == self.BRACE else None
        if q == self.BRACE:
            return None
        if sym in ("[", "['"):
            if q in (self.START, self.OPENER):
                return self.OPENER if sym == "['" else None
            return self.OPENER if sym == "[" else None
        if sym in ("]", "]'"):
            if q in (self.START, self.OPENER, self.CLOSER_P):
                return None
            return self.CLOSER_P if sym == "]'" else self.CLOSER
        return None

    def is_final(self, q) -> bool:
        return q in (self.START, self.SEP, self.CLOSER, self.CLOSER_P)


def cs_components_graph() -> tuple:
    """Dyck spec D_3, recognizer Reg and homomorphism h with
    h(D_3 ∩ Reg) equal to the encoded loop-free noncrossing graphs."""
    d3 = DyckSpec((("[", "]"), ("['", "]'"), ("{", "}")))
    h = Homomorphism((("[", "["), ("['", "["), ("]", "]"), ("]'", "]"),
                      ("{", "{"), ("}", "}")))
    return d3, GraphReg(), h


def tokenize_primed(text: str) -> tuple:
    """Split a primed graph bracketing into tokens, e.g. "['['{}]'" ."""
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c not in "[]{}":
            raise ValueError(f"unexpected character {c!r}")
        if i + 1 < len(text) and text[i + 1] == "'" and c in "[]":
            out.append(c + "'")
            i += 2
        else:
            out.append(c)
            i += 1
    return tuple(out)


def dyck_preimage_count(base: Sequence, pairs: dict, image: dict,
                        regs: Sequence[Dfa], limit: int) -> int:
    """|h^-1(base) ∩ D ∩ regs| counted up to `limit`.

    pairs[c] lists the (opener, closer) pairs of D whose opener h maps to c,
    and image[closer] = h(closer).  An opener in base branches over pairs[c];
    the Dyck stack, a linked list of closers, fixes each closer.  The search
    is depth first with an explicit stack, so base may be of any length.
    """
    found = 0
    todo = [(0, tuple(r.start for r in regs), None)]
    while todo and found < limit:
        i, states, stack = todo.pop()
        if i == len(base):
            if stack is None and all(r.is_final(q) for r, q in zip(regs, states)):
                found += 1
            continue
        if base[i] in pairs:
            moves = [(o, (c, stack)) for o, c in pairs[base[i]]]
        elif stack is not None and image[stack[0]] == base[i]:
            moves = [(stack[0], stack[1])]
        else:
            continue
        for tok, rest in moves:
            nxt = []
            for r, q in zip(regs, states):
                q2 = r.step(q, tok)
                if q2 is None:
                    break
                nxt.append(q2)
            else:
                todo.append((i + 1, tuple(nxt), rest))
    return found


# h^-1 of the graph brackets under the D_3 of cs_components_graph
_GRAPH_PAIRS = {"[": (("[", "]"), ("['", "]'")), "{": (("{", "}"),)}
_GRAPH_IMAGE = {"]": "]", "]'": "]", "}": "}"}


def graph_preimage_count(base: str, extra: Sequence[Dfa] = (), limit: int = 2) -> int:
    """|h^-1(base) ∩ D_3 ∩ Reg ∩ extra| counted up to `limit`."""
    return dyck_preimage_count(base, _GRAPH_PAIRS, _GRAPH_IMAGE,
                               [GraphReg(), *extra], limit)


def reg_strings(reg: Dfa, d: DyckSpec, max_len: int) -> Iterable[tuple]:
    """All strings of D ∩ Reg up to max_len, by pruned depth-first search."""
    closer_of = d.closer_of()
    syms = sorted(d.symbols(), key=str)

    def rec(prefix, q, stack):
        if not stack and reg.is_final(q):
            yield tuple(prefix)
        if len(prefix) >= max_len:
            return
        for sym in syms:
            if sym in closer_of:
                if len(prefix) + len(stack) + 2 > max_len:
                    continue
            else:
                if not stack or stack[-1] != sym:
                    continue
            q2 = reg.step(q, sym)
            if q2 is None:
                continue
            if sym in closer_of:
                stack.append(closer_of[sym])
                prefix.append(sym)
                yield from rec(prefix, q2, stack)
                prefix.pop()
                stack.pop()
            else:
                stack.pop()
                prefix.append(sym)
                yield from rec(prefix, q2, stack)
                prefix.pop()
                stack.append(sym)

    yield from rec([], reg.start, [])
