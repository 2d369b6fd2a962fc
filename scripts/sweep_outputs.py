#!/usr/bin/env python3
"""Print what the public API returns on a fixed, seeded grid of inputs, and
last the sha256 of every line printed before it.

The grid covers family counts, max-weight parses, intersection grammars,
lattices, the three encoders and the maximal chains, the last two up to
n = 100, so two source trees whose last lines agree return the same results
on all of it.  It reads only public names, so it runs unchanged on older
trees.  Run it from the repository root as
``PYTHONPATH=src python scripts/sweep_outputs.py``; it takes a few seconds.
"""

import hashlib
import random
from fractions import Fraction

from ncdigraph import (Digraph, LexicalConstraint, NoParseError, WeightMatrix,
                       build_intersection_grammar, build_lattice,
                       count_family_strings, encode_digraph, encode_graph,
                       latent_encode, latent_to_str, maximal_chains, parse_max,
                       parse_property_set, underlying)
from ncdigraph.inference import LEX_FLAGS
from ncdigraph.ontology import signature_string

FAMILIES = ("", "OUT", "INV", "ORIENTED", "PROJ_W", "ACYC_D", "ACYC_U", "CONN_W",
            "UNAMB_S", "polytree", "mixed-tree", "multitree", "wc-dag", "out-tree",
            "OUT,PROJ_W", "ORIENTED,ACYC_U,CONN_W")


def lexicon(rng: random.Random, n: int) -> LexicalConstraint:
    """Three allowed flags at about half of the vertices."""
    flags = sorted(LEX_FLAGS)
    return LexicalConstraint({v: frozenset(rng.sample(flags, 3))
                              for v in range(1, n + 1) if rng.random() < 0.5})


def weights(rng: random.Random, n: int, kind: str) -> WeightMatrix:
    draw = {"0..99": lambda: rng.randrange(100), "0/1": lambda: rng.randrange(2),
            "fraction": lambda: Fraction(rng.randrange(30), rng.randrange(1, 8))}[kind]
    return WeightMatrix(n, {(i, j): draw() for i in range(1, n + 1)
                            for j in range(1, n + 1) if i != j})


def digraph(rng: random.Random, n: int, loops: bool) -> Digraph:
    """A noncrossing digraph: spans taken left to right where they cross
    none taken before, each given a random orientation."""
    density = rng.choice((0.2, 0.5, 0.9))
    spans: list = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < density and not any(
                    a < i < b < j or i < a < j < b for a, b in spans):
                spans.append((i, j))
    arcs = set()
    for i, j in spans:
        o = rng.randrange(3)
        if o != 1:
            arcs.add((i, j))
        if o != 0:
            arcs.add((j, i))
    if loops:
        arcs |= {(v, v) for v in range(1, n + 1) if rng.random() < 0.3}
    return Digraph(n, frozenset(arcs))


def lines():
    rng = random.Random(2017)
    for spec in FAMILIES:
        req = parse_property_set(spec)
        for n in range(1, 8):
            lex = lexicon(rng, n)
            yield (f"count\t{spec}\t{n}\t{count_family_strings(n, req)}"
                   f"\t{count_family_strings(n, req, lex)}")
        for n in range(1, 10):
            for kind in ("0..99", "0/1", "fraction"):
                w = weights(rng, n, kind)
                for lex in (None, lexicon(rng, n)):
                    try:
                        got = parse_max(w, req, lex)
                        out = f"{sorted(got.digraph.arcs)}\t{got.weight!r}"
                    except NoParseError:
                        out = "NoParseError"
                    yield f"parse\t{spec}\t{n}\t{kind}\t{lex is not None}\t{out}"
        for n in range(1, 5):
            for lex in (None, lexicon(rng, n)):
                g = build_intersection_grammar(n, req, lex)
                text = repr((g.start, g.productions)).encode()
                yield (f"grammar\t{spec}\t{n}\t{lex is not None}\t{len(g.productions)}"
                       f"\t{hashlib.sha256(text).hexdigest()}")
    for n in (5, 8):
        lat = build_lattice(n)
        for c in lat.classes:
            yield f"lattice\t{n}\t{signature_string(c.signature)}\t{c.count}\t{c.name or ''}"
        yield f"lattice\t{n}\torder\t{list(lat.order)}"
    for n in (*range(1, 13), 16, 24, 32, 48, 100):
        for _ in range(20):
            g = digraph(rng, n, loops=True)
            loop_free = Digraph(n, frozenset((u, v) for u, v in g.arcs if u != v))
            yield (f"encode\t{n}\t{encode_digraph(g)}\t{encode_graph(underlying(g))}"
                   f"\t{latent_to_str(latent_encode(loop_free))}\t{maximal_chains(loop_free)}")


def main() -> None:
    digest = hashlib.sha256()
    for line in lines():
        print(line)
        digest.update(line.encode() + b"\n")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
