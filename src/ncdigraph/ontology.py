"""Classification of noncrossing digraphs into property-conjunction families,
lattice construction and family counting.

A family count is the size of the family's language on the inference chart,
so counting enumerates nothing.  The lattice lists every digraph's exact
signature and is built by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .digraphs import (ALL_PROPERTIES, Digraph, PropertyId, check_property,
                       enumerate_noncrossing_digraphs)
from .inference import count_family_strings

# The six properties of the ontology figure, in signature-letter order.
SIX_PROPERTIES = (PropertyId.CONN_W, PropertyId.UNAMB_S, PropertyId.ORIENTED,
                  PropertyId.ACYC_U, PropertyId.OUT, PropertyId.ACYC_D)
SIGNATURE_LETTERS = "CUOATD"


def signature_string(sig: frozenset) -> str:
    return "".join(letter if prop in sig else "-"
                   for prop, letter in zip(SIX_PROPERTIES, SIGNATURE_LETTERS))


def _sig(*letters: str) -> frozenset:
    table = dict(zip(SIGNATURE_LETTERS, SIX_PROPERTIES))
    return frozenset(table[c] for c in letters)


FAMILY_NAMES = {
    _sig(): "nc-digraph",
    _sig("C"): "w.c. digraph",
    _sig("U"): "unambiguous",
    _sig("O"): "oriented",
    _sig("A", "U"): "m-forest",
    _sig("T", "U"): "out",
    _sig("C", "U"): "w.c. unambiguous",
    _sig("C", "O"): "w.c. oriented",
    _sig("U", "O"): "unambiguous oriented",
    _sig("D", "O"): "dag",
    _sig("T", "U", "O"): "out oriented",
    _sig("T", "A", "U"): "out m-forest",
    _sig("A", "C", "U"): "mixed tree",
    _sig("D", "U", "O"): "multitree",
    _sig("D", "C", "O"): "w.c. dag",
    _sig("C", "U", "O"): "w.c. unambiguous oriented",
    _sig("T", "A", "C", "U"): "out mixed tree",
    _sig("T", "C", "U", "O"): "w.c. out oriented",
    _sig("D", "C", "U", "O"): "w.c. multitree",
    _sig("A", "D", "U", "O"): "oriented forest",
    _sig("A", "D", "C", "U", "O"): "polytree",
    _sig("T", "A", "D", "U", "O"): "out oriented forest",
    _sig("T", "A", "D", "C", "U", "O"): "out oriented tree",
}


@dataclass(frozen=True)
class FamilyClass:
    signature: frozenset  # subset of SIX_PROPERTIES
    count: int
    name: Optional[str] = None


@dataclass(frozen=True)
class Lattice:
    n: int
    classes: tuple  # of FamilyClass
    order: tuple    # Hasse pairs (i, j): classes[i].signature < classes[j].signature


def classify(g: Digraph) -> frozenset:
    """All eight properties the digraph satisfies."""
    return frozenset(p for p in ALL_PROPERTIES if check_property(g, p))


@lru_cache(maxsize=None)
def build_lattice(n: int) -> Lattice:
    """The exact-signature classes of the n-vertex digraphs over the six
    properties, by enumeration, ordered by signature size and letters, with
    the Hasse edges of strict signature inclusion."""
    counts: dict = {}
    for g in enumerate_noncrossing_digraphs(n):
        sig = frozenset(p for p in SIX_PROPERTIES if check_property(g, p))
        counts[sig] = counts.get(sig, 0) + 1
    classes = tuple(FamilyClass(sig, count, FAMILY_NAMES.get(sig))
                    for sig, count in sorted(counts.items(), key=lambda kv: (
                        len(kv[0]), signature_string(kv[0]))))
    # Hasse reduction of strict signature inclusion
    edges = []
    for i, a in enumerate(classes):
        for j, b in enumerate(classes):
            if a.signature < b.signature:
                if not any(a.signature < c.signature < b.signature
                           for c in classes):
                    edges.append((i, j))
    return Lattice(n, classes, tuple(edges))


def count_family(n: int, req: frozenset) -> int:
    """Noncrossing loop-free digraphs on n vertices satisfying every
    property in req (upward-closed family count), counted on the chart."""
    return count_family_strings(n, req)


def sequence(req: frozenset, n_max: int) -> list:
    return [count_family(n, req) for n in range(1, n_max + 1)]
