"""Latent bracketing: annotated brackets that make nonlocal digraph
properties locally testable.

Each edge bracket pair carries (i) the state of its maximal linear chain
after this edge, or a loose marker ``.`` when the chain starts right after a
``}``; (ii) a prime on the pair that begins a non-loose chain; (iii) a cover
class recording what the edge covers (see ``chains.cover_class``).  Opener
and closer of a pair carry identical annotations, so the Dyck check
transports chain states from left to right.  A bracket's base means what
the codec's ``PAIRS`` states (its orientation, its partner and the arcs of
its pair), and the encoder reads each pair's orientation off the codec's
``layout``.  ``Reg_lat`` validates the annotations against their left
context.  Each family constraint of the axiomatization is then Table 1 as
data: ``FORBIDDEN`` lists, per property, factors ``first gap* last`` over
the named bracket classes of ``CLASSES``, where ``first`` may be the start
anchor ``^``, ``last`` the end anchor ``$``, and an empty gap makes
``first`` and ``last`` adjacent.  A string has the property iff it
contains none of them.  ``RegLat`` and the one generic scanner
``ConstraintDfa`` define these recognizers; callers step their cached
minimal tables, ``reg_lat()`` and ``constraint_dfa(p)``, over
``alphabet()``, the 162 brackets Reg_lat can read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .chains import (COVER_CYCLE, COVER_NONE, COVER_TWO_TURN, LOOSE, STATES,
                     ChainState, cover_class, first_state, segment_profile,
                     state_by_name)
from .cfg import Dfa, DyckSpec, TableDfa, dyck_preimage_count
from .codec import (BIDIRECTIONAL, CLOSERS, OPENERS, ORIENTATION_OF_BASE, PAIRS,
                    PARTNER, layout, pair_orientations)
from .digraphs import Digraph, PropertyId, is_noncrossing

_COVER_SUFFIX = {COVER_NONE: "", COVER_CYCLE: "*", COVER_TWO_TURN: "^"}


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
        return self.base in OPENERS

    @property
    def is_closer(self) -> bool:
        return self.base in CLOSERS

    @property
    def orientation(self) -> str:
        return ORIENTATION_OF_BASE[self.base]

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
        return LatentBracket(PARTNER[self.base], self.chain, self.primed, self.cover)

    def __str__(self) -> str:
        return self.token


BOUNDARY_OPEN = LatentBracket("{", None)
BOUNDARY_CLOSE = LatentBracket("}", None)

LatentString = tuple  # of LatentBracket


def bracket_valid(b: LatentBracket) -> bool:
    """Whether a bracket of base × chain mark × prime × cover is well
    formed: a loose chain has no prime, and a bidirectional pair no
    two-turn cover.  RegLat reads no other bracket."""
    return not (b.loose and b.primed
                or b.cover == COVER_TWO_TURN and b.orientation == BIDIRECTIONAL)


@lru_cache(maxsize=None)
def alphabet() -> tuple:
    """The 162 latent brackets Reg_lat can read, each opener followed by
    its closer: the boundary pair, and each edge pair whose opener has a
    live move in Reg_lat's minimal table over the plain product of base,
    chain mark, prime and cover, where `RegLat` rejects the ill-formed."""
    inventory = [LatentBracket(base, chain, primed, cover)
                 for pair in PAIRS.values()
                 for chain in (LOOSE, *(st.name for st in STATES))
                 for primed in (False, True) for cover in _COVER_SUFFIX
                 for base in (pair.opener, pair.closer)]
    table = TableDfa.compile(RegLat(), [BOUNDARY_OPEN, BOUNDARY_CLOSE, *inventory])
    live = {table.symbols[a] for row in table.delta for a, q in enumerate(row) if q >= 0}
    return (BOUNDARY_OPEN, BOUNDARY_CLOSE,
            *(b for o in inventory if o.is_opener and o in live for b in (o, o.partner())))


def d55() -> DyckSpec:
    """Dyck language over the pairs of alphabet(): the boundary pair and
    the 80 edge pairs Reg_lat can read."""
    syms = alphabet()
    return DyckSpec(tuple(zip(syms[::2], syms[1::2])))


def h_lat(s: Sequence) -> str:
    """Erase all annotations, keeping the base bracket string."""
    return "".join(b.base for b in s)


_TOKEN_RE = re.compile(r"([{}\[\]/><\\])(\.|[A-Za-z]'?)?([*^])?")


@lru_cache(maxsize=None)
def _bracket_of_token() -> dict:
    return {b.token: b for b in alphabet()}


def parse_latent(text: str) -> LatentString:
    """The brackets of a token string, each alphabet()'s own object.  A
    token outside alphabet(), well formed or not, raises ValueError."""
    bracket_of = _bracket_of_token()
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"cannot read latent token at ...{text[pos:pos+8]!r}")
        b = bracket_of.get(m.group())
        if b is None:
            raise ValueError(f"invalid latent bracket {m.group()!r}")
        out.append(b)
        pos = m.end()
    return tuple(out)


def latent_to_str(s: Sequence) -> str:
    return "".join(b.token for b in s)


# ---------------------------------------------------------------------------
# Encoding: compute the unique annotation of a digraph's bracket string.

@dataclass
class _EdgeInfo:
    loose: bool
    state: Optional[ChainState]
    primed: bool
    cover: Optional[str]
    chain_id: int


def _annotate(g: Digraph) -> tuple:
    """Returns (codec layout items, per-edge info keyed by (u,v) span); a
    separator item stands for the boundary pair b{ b}, and a pair item
    carries its orientation."""
    if any(u == v for (u, v) in g.arcs):
        raise ValueError("latent encoding requires a loop-free digraph")
    if not is_noncrossing(g):
        raise ValueError("latent encoding requires a noncrossing digraph")
    items = layout(g.n, pair_orientations(g.arcs))
    open_pos = {it[1]: pos for pos, it in enumerate(items) if it[0] == "open"}
    info: dict = {}
    next_chain = 0
    for pos, it in enumerate(items):
        if it[0] != "close":
            continue
        _kind, e, orient = it
        prev_c = items[pos - 1] if pos > 0 else None
        if prev_c is not None and prev_c[0] == "close" and not info[prev_c[1]].loose:
            cov = cover_class(orient, info[prev_c[1]].state.projection)
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
            prev_info = info[prev_o[1]]
            if prev_info.loose:
                info[e] = _EdgeInfo(True, None, False, cov, prev_info.chain_id)
            else:
                info[e] = _EdgeInfo(False, prev_info.state.step(profile), False,
                                    cov, prev_info.chain_id)
    return items, info


@lru_cache(maxsize=None)
def _bracket_of_fields() -> dict:
    """{(base, chain, primed, cover): bracket} over alphabet()."""
    return {(b.base, b.chain, b.primed, b.cover): b for b in alphabet()}


def latent_encode(g: Digraph) -> LatentString:
    """The latent string of g, made of alphabet()'s own brackets, as
    parse_latent's are, so a table lookup of it finds each one by identity
    and never falls through to the dataclass equality."""
    items, info = _annotate(g)
    bracket_of = _bracket_of_fields()
    out = []
    for it in items:
        if it[0] == "sep":
            out += (BOUNDARY_OPEN, BOUNDARY_CLOSE)
        else:
            kind, e, orient = it
            rec = info[e]
            base = PAIRS[orient].opener if kind == "open" else PAIRS[orient].closer
            chain = LOOSE if rec.loose else rec.state.name
            out.append(bracket_of[base, chain, rec.primed, rec.cover])
    return tuple(out)


def maximal_chains(g: Digraph) -> list:
    """Maximal linear chains as (edge tuple in left-to-right order, loose)."""
    items, info = _annotate(g)
    groups: dict = {}
    for pos, it in enumerate(items):
        if it[0] == "open":
            rec = info[it[1]]
            groups.setdefault(rec.chain_id, (rec.loose, []))[1].append(it[1])
    return [(tuple(edges), loose)
            for cid, (loose, edges) in sorted(groups.items())]


# ---------------------------------------------------------------------------
# Table 1 as data: the bracket classes, and the factors each property forbids.

def _tracked(test):
    """The class of non-loose closers whose chain state st and prime pass
    test(st, primed)."""
    return lambda b: b.is_closer and not b.loose and test(b.state, b.primed)


CLASSES = {
    "Sigma": lambda b: True,
    "B": lambda b: b.is_boundary,
    "B_bar": lambda b: not b.is_boundary,
    "R": lambda b: b.is_closer,
    "R_loose": lambda b: b.base == "}" or (b.is_closer and b.loose),
    "R_nonloose": lambda b: b.is_closer and not b.loose,
    "L_/": lambda b: b.base in "[/",
    "L_<": lambda b: b.base in "[<",
    "R_>": lambda b: b.base in "]>",
    "R_\\": lambda b: b.base in "]\\",
    "Sigma_in": lambda b: b.base in "[<]>",
    "Sigma_or": lambda b: b.base in "/><\\",
    "Sigma_inv": lambda b: b.base in "[]",
    "R_right": _tracked(lambda st, primed: st.fwd),
    "R_left": _tracked(lambda st, primed: st.bwd),
    "R_vergent": _tracked(lambda st, primed: not primed
                          and st.ambiguous_with_forward_cover
                          and st.ambiguous_with_backward_cover),
    "R_left2": _tracked(lambda st, primed: st.ambiguous_with_forward_cover
                        and not st.fwd and not st.ambiguous_with_backward_cover),
    "R_right2": _tracked(lambda st, primed: st.ambiguous_with_backward_cover
                         and not st.bwd and not st.ambiguous_with_forward_cover),
}


def bracket_classes() -> dict:
    """The named classes as concrete bracket sets over alphabet()."""
    return {name: frozenset(filter(pred, alphabet()))
            for name, pred in CLASSES.items()}


START, END = "^", "$"

# Per property, the forbidden factors (first, gap, last): a string has the
# property iff it contains no first gap* last.  first may be START and last
# END; gap None means first and last are adjacent.
FORBIDDEN = {
    PropertyId.OUT: (("Sigma_in", "B_bar", "Sigma_in"),),
    PropertyId.INV: ((START, "Sigma", "Sigma_or"),),
    PropertyId.ORIENTED: ((START, "Sigma", "Sigma_inv"),),
    PropertyId.PROJ_W: (("L_/", None, "L_<"), ("R_>", None, "R_\\")),
    PropertyId.ACYC_D: ((START, "Sigma", "Sigma_inv"), ("R_right", None, "R_\\"),
                        ("R_left", None, "R_>")),
    PropertyId.ACYC_U: (("R_nonloose", None, "R"),),
    PropertyId.CONN_W: ((START, None, "B"), ("R_loose", None, "B"),
                        ("R_loose", None, END), ("B", None, END)),
    PropertyId.UNAMB_S: (("R_right", None, "R_>"), ("R_left", None, "R_\\"),
                         ("R_vergent", None, "R"), ("R_left2", None, "R_>"),
                         ("R_right2", None, "R_\\")),
}


class ConstraintDfa(Dfa):
    """Linear scan for one property: it rejects the first forbidden factor
    first gap* last of FORBIDDEN[prop] that the string completes.  The
    state holds one bit per factor, armed while the prefix read ends in
    first gap*, so that a bracket of last would complete it; a START factor
    is armed before the first bracket, and an END factor rejects the
    string if it is armed at its end."""

    def __init__(self, prop: PropertyId):
        self.factors = tuple(
            (None if first == START else CLASSES[first],
             CLASSES[gap] if gap else (lambda b: False),
             None if last == END else CLASSES[last])
            for first, gap, last in FORBIDDEN[prop])
        self.start = tuple(first == START for first, _, _ in FORBIDDEN[prop])

    def step(self, q, b):
        for armed, (_first, _gap, last) in zip(q, self.factors):
            if armed and last is not None and last(b):
                return None
        return tuple((first is not None and first(b)) or (armed and gap(b))
                     for armed, (first, gap, _last) in zip(q, self.factors))

    def is_final(self, q) -> bool:
        return not any(armed and last is None
                       for armed, (_first, _gap, last) in zip(q, self.factors))


@lru_cache(maxsize=None)
def constraint_dfa(prop: PropertyId) -> TableDfa:
    """The minimal table of prop's scan over the alphabet, built once."""
    return TableDfa.compile(ConstraintDfa(prop), alphabet())


def constraint_accepts(prop: PropertyId, s: Sequence) -> bool:
    """Whether s avoids every factor first gap* last that Table 1 forbids
    for prop, anchors included, by a scan of its cached table.  The string
    is assumed to lie in D_55 ∩ Reg_lat."""
    return constraint_dfa(prop).accepts(s)


# ---------------------------------------------------------------------------
# Reg_lat: deterministic validation of annotations against left context.

class RegLat(Dfa):
    """States summarize the previous bracket; annotations are verified
    locally, and a bracket `bracket_valid` rejects is read nowhere.
    Accepted strings, intersected with D_55, are exactly the latent
    encodings of loop-free noncrossing digraphs.  The brackets it can read
    make up alphabet()."""

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
    """The minimal table of Reg_lat over the alphabet (23 states), built
    once."""
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
