import random

import pytest

from ncdigraph.digraphs import Digraph, enumerate_noncrossing_digraphs


@pytest.fixture(scope="session")
def digraphs_by_n():
    """Noncrossing digraph lists for small n, shared across tests."""
    return {n: list(enumerate_noncrossing_digraphs(n)) for n in range(1, 5)}


def random_noncrossing_digraph(rng: random.Random, n_max: int = 8) -> Digraph:
    """A random noncrossing digraph on at most n_max vertices, built without
    rejection: the vertex pairs are visited in random order, and each draws
    forward, backward, both or (5 times in 8) no arcs, which are added only
    if the pair's span crosses no span chosen before.  Every noncrossing
    digraph can be drawn."""
    n = rng.randint(1, n_max)
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    rng.shuffle(pairs)
    spans, arcs = [], set()
    for (u, v) in pairs:
        state = rng.randrange(8)
        if not 1 <= state <= 3 or any(a < u < b < v or u < a < v < b
                                      for (a, b) in spans):
            continue
        spans.append((u, v))
        if state & 1:
            arcs.add((u, v))
        if state & 2:
            arcs.add((v, u))
    return Digraph(n, frozenset(arcs))
