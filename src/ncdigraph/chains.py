"""Incremental classification of underlying chains.

A maximal linear chain of a noncrossing digraph is a maximal left-to-right
run of edges in which consecutive edges share a vertex and no edge is
properly covered by an edge that fails to cover the whole run.  Chains are
classified incrementally, edge by edge, by a deterministic automaton.  The
state of a chain prefix records exactly what a covering edge needs to know
about it:

* ``fwd`` / ``bwd``   -- a directed path runs along the whole prefix,
  left-to-right / right-to-left;
* ``div`` / ``con``   -- some vertex of the prefix reaches the left end
  backwards and the right end forwards (divergent), or is reached from the
  left end and from the right end (convergent);
* ``amb_f`` / ``amb_b`` -- adding an external strand across the prefix
  endpoints (forward / backward) creates two distinct repeat-free directed
  paths between some vertex pair;
* ``pend_f`` / ``pend_b`` -- same, but the second path threads through the
  interior of an edge that covers a two-turn chain.

Edges enter the automaton as segment profiles.  A plain edge contributes
its own orientation; an edge that closes an underlying cycle with the chain
it covers contributes the cycle's connectivity as well (see
``cover_class``).  Loose chains (those starting right after a ``}``) are
never paired with a covering edge, so they are not tracked at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import BACKWARD, BIDIRECTIONAL, FORWARD, PAIRS

# Cover classes: extra latent information carried by an edge about the chain
# it covers.  COVER_NONE also applies when the edge covers no chain at all.
COVER_NONE = None
COVER_CYCLE = "cyc"     # covered chain adds the missing strand direction
COVER_TWO_TURN = "cyc2"  # covered chain is two-turn: ambiguity is pending


@dataclass(frozen=True)
class SegmentProfile:
    """What one edge (with its covered chain, if any) contributes."""

    fwd: bool
    bwd: bool
    pend_f: bool
    pend_b: bool


# a plain edge's strands are the arcs of its pair
_PLAIN = {o: SegmentProfile(p.forward, p.backward, False, False) for o, p in PAIRS.items()}


@dataclass(frozen=True)
class ChainState:
    fwd: bool
    bwd: bool
    div: bool
    con: bool
    amb_f: bool
    amb_b: bool
    pend_f: bool
    pend_b: bool

    def step(self, p: SegmentProfile) -> "ChainState":
        return ChainState(
            fwd=self.fwd and p.fwd,
            bwd=self.bwd and p.bwd,
            div=(self.div and p.fwd) or (self.bwd and p.bwd),
            con=(self.con and p.bwd) or (self.fwd and p.fwd),
            amb_f=(self.amb_f and p.bwd) or (self.div and p.fwd),
            amb_b=(self.amb_b and p.fwd) or (self.con and p.bwd),
            pend_f=(self.pend_f and p.bwd) or (p.pend_f and self.bwd),
            pend_b=(self.pend_b and p.fwd) or (p.pend_b and self.fwd),
        )

    def mirror(self) -> "ChainState":
        return ChainState(self.bwd, self.fwd, self.con, self.div,
                          self.amb_b, self.amb_f, self.pend_b, self.pend_f)

    @property
    def ambiguous_with_forward_cover(self) -> bool:
        return self.amb_f or self.pend_f

    @property
    def ambiguous_with_backward_cover(self) -> bool:
        return self.amb_b or self.pend_b

    @property
    def projection(self) -> str:
        """Four-bit class visible to covering edges, named F f I Q q C E e Z."""
        key = (self.fwd, self.bwd,
               self.ambiguous_with_forward_cover,
               self.ambiguous_with_backward_cover)
        return _PROJ_NAME[key]

    @property
    def name(self) -> str:
        return _STATE_NAME[self]

    def __repr__(self) -> str:
        return f"ChainState({self.name})"


def first_state(p: SegmentProfile) -> ChainState:
    strand = p.fwd or p.bwd
    return ChainState(fwd=p.fwd, bwd=p.bwd, div=strand, con=strand,
                      amb_f=p.fwd, amb_b=p.bwd,
                      pend_f=p.pend_f, pend_b=p.pend_b)


# Projections: (fwd, bwd, amb with forward cover, amb with backward cover).
_PROJ_NAME = {
    (True, False, True, False): "F",
    (False, True, False, True): "f",
    (True, True, True, True): "I",
    (True, False, True, True): "Q",
    (False, True, True, True): "q",
    (False, False, True, True): "C",
    (False, False, False, True): "E",
    (False, False, True, False): "e",
    (False, False, False, False): "Z",
}

_PROJ_BITS = {name: key for key, name in _PROJ_NAME.items()}


def cover_class(orientation: str, covered_projection: str | None) -> str | None:
    """Latent class an edge must carry about the chain it covers.

    ``None`` when the covered chain adds nothing an outer scan could use
    (or when nothing is covered).
    """
    if covered_projection is None:
        return COVER_NONE
    af, ab = _PLAIN[orientation].fwd, _PLAIN[orientation].bwd
    cf, cb, caf, cab = _PROJ_BITS[covered_projection]
    fwd, bwd = af or cf, ab or cb
    pend_f = caf and not fwd
    pend_b = cab and not bwd
    if pend_f or pend_b:
        return COVER_TWO_TURN
    if (fwd, bwd) == (af, ab):
        return COVER_NONE
    return COVER_CYCLE


def segment_profile(orientation: str, cls: str | None) -> SegmentProfile:
    if cls is COVER_NONE:
        return _PLAIN[orientation]
    if cls == COVER_CYCLE:
        return SegmentProfile(True, True, False, False)
    if cls == COVER_TWO_TURN:
        # the covered two-turn chain leaves ambiguity pending against the
        # strand the edge does not have
        p = _PLAIN[orientation]
        if p.fwd and p.bwd:
            raise ValueError("a bidirectional edge never carries the two-turn class")
        return SegmentProfile(p.fwd, p.bwd, p.bwd, p.fwd)
    raise ValueError(f"unknown cover class {cls!r}")


ALL_PROFILES = tuple(sorted(
    set(_PLAIN.values())
    | {SegmentProfile(True, False, False, True), SegmentProfile(False, True, True, False)},
    key=lambda p: (p.fwd, p.bwd, p.pend_f, p.pend_b),
))


class _Initial:
    """Pre-chain states: 0 starts non-loose chains, 1 loose chains."""

    def __init__(self, label: str):
        self.label = label

    def __repr__(self) -> str:
        return f"ChainStart({self.label})"


ZERO = _Initial("0")
ONE = _Initial("1")
LOOSE = "."


def chain_step(state, direction):
    """One transition of the chain automaton.

    ``state`` is ``ZERO``, ``ONE``, ``LOOSE`` or a ``ChainState``; loose
    chains stay untracked (``LOOSE``).
    """
    if state is ONE or state == LOOSE:
        return LOOSE
    p = _PLAIN[direction]
    if state is ZERO:
        return first_state(p)
    return state.step(p)


def _compute_names() -> dict[ChainState, str]:
    f_ = first_state(_PLAIN[FORWARD])
    b_ = first_state(_PLAIN[BACKWARD])
    i_ = first_state(_PLAIN[BIDIRECTIONAL])
    seeds = {
        f_: "F",
        b_: "f",
        i_: "I",
        f_.step(_PLAIN[BIDIRECTIONAL]): "Q",
        b_.step(_PLAIN[BIDIRECTIONAL]): "q",
        f_.step(_PLAIN[BACKWARD]): "C",
        b_.step(_PLAIN[FORWARD]): "c",
        f_.step(_PLAIN[BACKWARD]).step(_PLAIN[FORWARD]): "E",
        b_.step(_PLAIN[FORWARD]).step(_PLAIN[BACKWARD]): "e",
        f_.step(_PLAIN[BACKWARD]).step(_PLAIN[FORWARD]).step(_PLAIN[BACKWARD]): "Z",
        first_state(SegmentProfile(True, False, False, True)): "P",
        first_state(SegmentProfile(False, True, True, False)): "p",
    }
    names: dict[ChainState, str] = {}
    for state, nm in seeds.items():
        names.setdefault(state, nm)
    pool = iter("GHJKLMNRSTUVWXYBD")

    def ensure(state: ChainState) -> None:
        if state in names:
            return
        m = state.mirror()
        if m in names:
            nm = names[m]
            names[state] = nm.swapcase() if nm.swapcase() != nm else nm
            return
        upper = next(pool)
        names[state] = upper
        if m != state:
            names[m] = upper.lower()

    queue = [first_state(p) for p in ALL_PROFILES]
    seen = set()
    while queue:
        state = queue.pop(0)
        if state in seen:
            continue
        seen.add(state)
        ensure(state)
        for p in ALL_PROFILES:
            queue.append(state.step(p))
    return names


_STATE_NAME = _compute_names()

STATES = tuple(_STATE_NAME)

_NAME_STATE = {}
for _s, _n in _STATE_NAME.items():
    if _n in _NAME_STATE and _NAME_STATE[_n] != _s:
        raise AssertionError(f"duplicate chain state name {_n}")
    _NAME_STATE[_n] = _s


STATE_NAMES = frozenset(_NAME_STATE)


def state_by_name(name: str) -> ChainState:
    return _NAME_STATE[name]
