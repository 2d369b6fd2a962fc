"""Latent bracketing: annotated brackets that make nonlocal digraph
properties locally testable.

Each edge bracket pair carries (i) the state of its maximal linear chain
after this edge, or a loose marker ``.`` when the chain starts right after a
``}``; (ii) a prime on the pair that begins a non-loose chain; (iii) a cover
class recording what the edge covers (see ``chains.cover_class``).  Opener
and closer of a pair carry identical annotations, so the Dyck check
transports chain states from left to right.  ``Reg_lat`` validates the
annotations against their left context; the family constraints of the
axiomatization are then forbidden-factor scans over adjacent brackets.
``RegLat`` and ``ConstraintDfa`` define these recognizers; callers step
their cached minimal tables, ``reg_lat()`` and ``constraint_dfa(p)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from . import chains
from .chains import (BACKWARD, BIDIRECTIONAL, COVER_CYCLE, COVER_NONE,
                     COVER_TWO_TURN, FORWARD, ChainState, cover_class,
                     first_state, segment_profile, state_by_name)
from .cfg import Dfa, DyckSpec, TableDfa, dyck_preimage_count
from .codec import layout
from .digraphs import Digraph, PropertyId, is_noncrossing

OPENER_BASE = {FORWARD: "/", BACKWARD: "<", BIDIRECTIONAL: "["}
CLOSER_BASE = {FORWARD: ">", BACKWARD: "\\", BIDIRECTIONAL: "]"}
ORIENT_OF_BASE = {"/": FORWARD, ">": FORWARD, "<": BACKWARD, "\\": BACKWARD,
                  "[": BIDIRECTIONAL, "]": BIDIRECTIONAL}

LOOSE = "."

_COVER_SUFFIX = {COVER_NONE: "", COVER_CYCLE: "*", COVER_TWO_TURN: "^"}
_SUFFIX_COVER = {v: k for k, v in _COVER_SUFFIX.items()}


@dataclass(frozen=True)
class LatentBracket:
    base: str                 # one of { } [ ] / > < \
    chain: Optional[str]      # chain state name, "." for loose, None for {}
    primed: bool = False
    cover: Optional[str] = None  # None | "cyc" | "cyc2"

    # Brackets key the recognizer tables and the Dyck map, so each one's
    # hash is computed once.  It is not a field: equality and repr still
    # read the four fields, and a pickle rebuilds it from them, since
    # string hashes differ between processes.
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.base, self.chain,
                                                self.primed, self.cover)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return LatentBracket, (self.base, self.chain, self.primed, self.cover)

    @property
    def is_boundary(self) -> bool:
        return self.base in "{}"

    @property
    def is_opener(self) -> bool:
        return self.base in "[/<"

    @property
    def is_closer(self) -> bool:
        return self.base in "]>\\"

    @property
    def orientation(self) -> str:
        return ORIENT_OF_BASE[self.base]

    @property
    def loose(self) -> bool:
        return self.chain == LOOSE

    @property
    def state(self) -> Optional[ChainState]:
        if self.chain is None or self.chain == LOOSE:
            return None
        return state_by_name(self.chain)

    @property
    def token(self) -> str:
        if self.is_boundary:
            return self.base
        mark = LOOSE if self.loose else self.chain + ("'" if self.primed else "")
        return self.base + mark + _COVER_SUFFIX[self.cover]

    def partner(self) -> "LatentBracket":
        """The matching bracket of the pair (same annotations)."""
        if self.is_boundary:
            return LatentBracket("}" if self.base == "{" else "{", None)
        o = self.orientation
        base = CLOSER_BASE[o] if self.is_opener else OPENER_BASE[o]
        return LatentBracket(base, self.chain, self.primed, self.cover)

    def __str__(self) -> str:
        return self.token


BOUNDARY_OPEN = LatentBracket("{", None)
BOUNDARY_CLOSE = LatentBracket("}", None)

LatentString = tuple  # of LatentBracket


def bracket_valid(b: LatentBracket) -> bool:
    if b.is_boundary:
        return b.chain is None and not b.primed and b.cover is COVER_NONE
    if b.chain is None:
        return False
    if b.cover == COVER_TWO_TURN and b.orientation == BIDIRECTIONAL:
        return False
    if b.loose:
        return not b.primed
    return b.chain in chains.STATE_NAMES


def alphabet() -> tuple:
    """All well-formed latent brackets (the D_55-style inventory)."""
    out = [BOUNDARY_OPEN, BOUNDARY_CLOSE]
    for orient in (FORWARD, BACKWARD, BIDIRECTIONAL):
        covers = (COVER_NONE, COVER_CYCLE)
        if orient != BIDIRECTIONAL:
            covers = (COVER_NONE, COVER_CYCLE, COVER_TWO_TURN)
        marks = [(LOOSE, False)]
        for st in chains.STATES:
            marks.append((st.name, False))
            marks.append((st.name, True))
        for (chain, primed) in marks:
            for cov in covers:
                for base in (OPENER_BASE[orient], CLOSER_BASE[orient]):
                    out.append(LatentBracket(base, chain, primed, cov))
    return tuple(out)


def d55() -> DyckSpec:
    """Dyck language over annotated bracket pairs plus the boundary pair."""
    pairs = [(BOUNDARY_OPEN, BOUNDARY_CLOSE)]
    for b in alphabet():
        if b.is_opener:
            pairs.append((b, b.partner()))
    return DyckSpec(tuple(pairs))


def h_lat(s: Sequence) -> str:
    """Erase all annotations, keeping the base bracket string."""
    return "".join(b.base for b in s)


_TOKEN_RE = re.compile(r"([{}\[\]/><\\])(\.|[A-Za-z]'?)?([*^])?")


def parse_latent(text: str) -> LatentString:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"cannot read latent token at ...{text[pos:pos+8]!r}")
        base, mark, cov = m.group(1), m.group(2), m.group(3)
        if base in "{}":
            if mark or cov:
                raise ValueError("boundary brackets carry no annotation")
            out.append(LatentBracket(base, None))
        else:
            if not mark:
                raise ValueError(f"edge bracket {base!r} lacks a chain mark")
            if mark == LOOSE:
                b = LatentBracket(base, LOOSE, False, _SUFFIX_COVER[cov or ""])
            else:
                primed = mark.endswith("'")
                b = LatentBracket(base, mark.rstrip("'"), primed,
                                  _SUFFIX_COVER[cov or ""])
            if not bracket_valid(b):
                raise ValueError(f"invalid latent bracket {b.token!r}")
            out.append(b)
        pos = m.end()
    return tuple(out)


def latent_to_str(s: Sequence) -> str:
    return "".join(b.token for b in s)


# ---------------------------------------------------------------------------
# Encoding: compute the unique annotation of a digraph's bracket string.

def _orientation(g: Digraph, u: int, v: int) -> str:
    fwd, bwd = (u, v) in g.arcs, (v, u) in g.arcs
    if fwd and bwd:
        return BIDIRECTIONAL
    return FORWARD if fwd else BACKWARD


@dataclass
class _EdgeInfo:
    loose: bool
    state: Optional[ChainState]
    primed: bool
    cover: Optional[str]
    chain_id: int


def _annotate(g: Digraph) -> tuple:
    """Returns (codec layout items, per-edge info keyed by (u,v) span); a
    separator item stands for the boundary pair b{ b}."""
    if any(u == v for (u, v) in g.arcs):
        raise ValueError("latent encoding requires a loop-free digraph")
    if not is_noncrossing(g):
        raise ValueError("latent encoding requires a noncrossing digraph")
    items = layout(g.n, {(min(u, v), max(u, v)) for (u, v) in g.arcs})
    open_pos = {}
    close_pos = {}
    for pos, it in enumerate(items):
        if it[0] == "open":
            open_pos[it[1:]] = pos
        elif it[0] == "close":
            close_pos[it[1:]] = pos
    info: dict = {}
    next_chain = 0
    for pos, it in enumerate(items):
        if it[0] != "close":
            continue
        e = it[1:]
        orient = _orientation(g, *e)
        prev_c = items[close_pos[e] - 1] if close_pos[e] > 0 else None
        if prev_c is not None and prev_c[0] == "close" and not info[prev_c[1:]].loose:
            cov = cover_class(orient, info[prev_c[1:]].state.projection)
        else:
            cov = COVER_NONE
        profile = segment_profile(orient, cov)
        p_o = open_pos[e]
        prev_o = items[p_o - 1] if p_o > 0 else None
        if prev_o is None or prev_o[0] == "open":
            info[e] = _EdgeInfo(False, first_state(profile), True, cov, next_chain)
            next_chain += 1
        elif prev_o[0] == "sep":
            info[e] = _EdgeInfo(True, None, False, cov, next_chain)
            next_chain += 1
        else:  # continuation of the chain ending at the preceding closer
            prev_info = info[prev_o[1:]]
            if prev_info.loose:
                info[e] = _EdgeInfo(True, None, False, cov, prev_info.chain_id)
            else:
                info[e] = _EdgeInfo(False, prev_info.state.step(profile), False,
                                    cov, prev_info.chain_id)
    return items, info


def latent_encode(g: Digraph) -> LatentString:
    items, info = _annotate(g)
    out = []
    for it in items:
        if it[0] == "sep":
            out += (BOUNDARY_OPEN, BOUNDARY_CLOSE)
        else:
            e = it[1:]
            rec = info[e]
            orient = _orientation(g, *e)
            base = OPENER_BASE[orient] if it[0] == "open" else CLOSER_BASE[orient]
            chain = LOOSE if rec.loose else rec.state.name
            out.append(LatentBracket(base, chain, rec.primed, rec.cover))
    return tuple(out)


def maximal_chains(g: Digraph) -> list:
    """Maximal linear chains as (edge tuple in left-to-right order, loose)."""
    items, info = _annotate(g)
    groups: dict = {}
    for pos, it in enumerate(items):
        if it[0] == "open":
            rec = info[it[1:]]
            groups.setdefault(rec.chain_id, (rec.loose, []))[1].append(it[1:])
    return [(tuple(edges), loose)
            for cid, (loose, edges) in sorted(groups.items())]


# ---------------------------------------------------------------------------
# Bracket classes (Table-1 style pattern vocabulary).

def in_B(b) -> bool:
    return b.is_boundary


def in_R(b) -> bool:
    return b.is_closer


def in_R_loose(b) -> bool:
    return b.base == "}" or (b.is_closer and b.loose)


def in_R_nonloose(b) -> bool:
    return b.is_closer and not b.loose


def in_L_slash(b) -> bool:
    return b.base in "[/"


def in_L_less(b) -> bool:
    return b.base in "[<"


def in_R_greater(b) -> bool:
    return b.base in "]>"


def in_R_backslash(b) -> bool:
    return b.base in "]\\"


def in_Sigma_in(b) -> bool:
    return in_L_less(b) or in_R_greater(b)


def in_Sigma_or(b) -> bool:
    return b.base in "/><\\"


def in_Sigma_inv(b) -> bool:
    return b.base in "[]"


def _tracked(b) -> Optional[ChainState]:
    return b.state if in_R_nonloose(b) else None


def in_R_right(b) -> bool:
    st = _tracked(b)
    return st is not None and st.fwd


def in_R_left(b) -> bool:
    st = _tracked(b)
    return st is not None and st.bwd


def in_R_vergent(b) -> bool:
    st = _tracked(b)
    return (st is not None and not b.primed
            and st.ambiguous_with_forward_cover
            and st.ambiguous_with_backward_cover)


def in_R_left2(b) -> bool:
    st = _tracked(b)
    return (st is not None and st.ambiguous_with_forward_cover
            and not st.fwd and not st.ambiguous_with_backward_cover)


def in_R_right2(b) -> bool:
    st = _tracked(b)
    return (st is not None and st.ambiguous_with_backward_cover
            and not st.bwd and not st.ambiguous_with_forward_cover)


CLASS_PREDICATES = {
    "L_/": in_L_slash,
    "L_<": in_L_less,
    "R_>": in_R_greater,
    "R_\\": in_R_backslash,
    "B": in_B,
    "R": in_R,
    "R_loose": in_R_loose,
    "R_nonloose": in_R_nonloose,
    "R_right": in_R_right,
    "R_left": in_R_left,
    "R_right2": in_R_right2,
    "R_left2": in_R_left2,
    "R_vergent": in_R_vergent,
    "Sigma_in": in_Sigma_in,
    "Sigma_or": in_Sigma_or,
    "Sigma_inv": in_Sigma_inv,
    "B_bar": lambda b: not in_B(b),
}


def bracket_classes() -> dict:
    """The named classes as concrete bracket sets over the full inventory."""
    inv = alphabet()
    return {name: frozenset(b for b in inv if pred(b))
            for name, pred in CLASS_PREDICATES.items()}


# Forbidden adjacent factors per property: (first class, second class).
ADJACENT_FORBIDDEN = {
    PropertyId.ACYC_U: ((in_R_nonloose, in_R),),
    PropertyId.ACYC_D: ((in_R_right, in_R_backslash), (in_R_left, in_R_greater)),
    PropertyId.UNAMB_S: ((in_R_right, in_R_greater), (in_R_left, in_R_backslash),
                         (in_R_vergent, in_R), (in_R_left2, in_R_greater),
                         (in_R_right2, in_R_backslash)),
    PropertyId.PROJ_W: ((in_L_slash, in_L_less), (in_R_greater, in_R_backslash)),
}

# Properties that fail on a single forbidden symbol.
SYMBOL_FORBIDDEN = {
    PropertyId.ACYC_D: in_Sigma_inv,
    PropertyId.INV: in_Sigma_or,
    PropertyId.ORIENTED: in_Sigma_inv,
}


class ConstraintDfa(Dfa):
    """Linear scan for one property over latent brackets."""

    def __init__(self, prop: PropertyId):
        self.prop = prop
        self.adjacent = ADJACENT_FORBIDDEN.get(prop, ())
        self.symbol = SYMBOL_FORBIDDEN.get(prop)
        self.start = ("start",)

    def step(self, q, b):
        if self.symbol is not None and self.symbol(b):
            return None
        if self.prop == PropertyId.OUT:
            seen = 0 if q[0] == "start" else q[1]
            if in_B(b):
                return ("run", 0)
            if in_Sigma_in(b):
                return None if seen else ("run", 1)
            return ("run", seen)
        if self.prop == PropertyId.CONN_W:
            if in_B(b) and (q[0] == "start" or q[1] == "loose"):
                return None  # a boundary bracket at the start or after R_loose
            cls = ("loose" if in_R_loose(b) else
                   "bound" if in_B(b) else "other")
            return ("run", cls)
        # adjacency-pattern properties: the state keeps, per forbidden
        # factor, whether the previous bracket is in its first class
        if q[0] != "start":
            for hit, (_first, second) in zip(q[1], self.adjacent):
                if hit and second(b):
                    return None
        return ("run", tuple(first(b) for first, _ in self.adjacent))

    def is_final(self, q) -> bool:
        if self.prop == PropertyId.CONN_W:
            return q[0] == "start" or q[1] == "other"
        return True


@lru_cache(maxsize=None)
def constraint_dfa(prop: PropertyId) -> TableDfa:
    """The minimal table of prop's scan over the alphabet, built once."""
    return TableDfa.compile(ConstraintDfa(prop), alphabet())


def constraint_accepts(prop: PropertyId, s: Sequence) -> bool:
    """Table-1 constraint language for prop, as a linear scan.  The string is
    assumed to lie in D_55 ∩ Reg_lat."""
    return constraint_dfa(prop).accepts(s)


# ---------------------------------------------------------------------------
# Reg_lat: deterministic validation of annotations against left context.

class RegLat(Dfa):
    """States summarize the previous bracket; annotations are verified
    locally.  Accepted strings, intersected with D_55, are exactly the
    latent encodings of loop-free noncrossing digraphs."""

    start = ("start",)

    def step(self, q, b):
        if not bracket_valid(b):
            return None
        kind = q[0]
        if b.base == "{":
            return None if kind == "{" else ("{",)
        if b.base == "}":
            return ("}",) if kind == "{" else None
        if kind == "{":
            return None
        if b.is_opener:
            if kind in ("start", "opener"):
                if b.loose or not b.primed:
                    return None
                expect = first_state(segment_profile(b.orientation, b.cover))
                return ("opener",) if b.state == expect else None
            if kind == "}":
                return ("opener",) if b.loose else None
            # after a closer: chain continuation
            _, mark, primed = q
            if mark == LOOSE:
                return ("opener",) if b.loose else None
            if b.loose or b.primed:
                return None
            expect = state_by_name(mark).step(
                segment_profile(b.orientation, b.cover))
            return ("opener",) if b.state == expect else None
        # closer
        if kind in ("start", "opener"):
            return None  # nothing to close, or an empty pair (a self-loop)
        if kind == "}":
            expect_cover = COVER_NONE
        else:
            _, mark, primed = q
            if primed:
                return None  # closing over a primed closer duplicates an edge
            if mark == LOOSE:
                expect_cover = COVER_NONE
            else:
                expect_cover = cover_class(b.orientation,
                                           state_by_name(mark).projection)
        if b.cover != expect_cover:
            return None
        return ("closer", b.chain, b.primed)

    def is_final(self, q) -> bool:
        return q[0] in ("start", "}", "closer")


@lru_cache(maxsize=None)
def reg_lat() -> TableDfa:
    """The minimal table of Reg_lat over the alphabet, built once."""
    return TableDfa.compile(RegLat(), alphabet())


@lru_cache(maxsize=None)
def _dyck_pairs() -> tuple:
    """The (opener, closer) pairs of D_55 by opener base, and each closer's
    base."""
    pairs: dict = {}
    for o, c in d55().pairs:
        pairs.setdefault(o.base, []).append((o, c))
    return pairs, {c: c.base for group in pairs.values() for _o, c in group}


def preimage_count(base: str, extra: Sequence[Dfa] = (), limit: int = 2) -> int:
    """|h_lat^-1(base) ∩ D_55 ∩ Reg_lat ∩ extra| counted up to limit.

    Openers branch over the alphabet's brackets of their base, of which
    Reg_lat keeps those consistent with the left context; closers are
    pinned by the Dyck stack.
    """
    pairs, image = _dyck_pairs()
    return dyck_preimage_count(base, pairs, image, [reg_lat(), *extra], limit)
