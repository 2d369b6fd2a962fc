import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_noncrossing_digraph
from ncdigraph.codec import (CodecError, decode_digraph, decode_graph,
                             encode_digraph, encode_graph, glue)
from ncdigraph.digraphs import (Digraph, Graph, enumerate_noncrossing_digraphs,
                                enumerate_noncrossing_graphs, make_digraph,
                                make_graph, underlying)

REFERENCE_GRAPH = make_graph(4, [(1, 2), (2, 2), (2, 4), (1, 4)])
REFERENCE_DIGRAPH = make_digraph(4, [(1, 2), (2, 2), (4, 1), (4, 2)],
                             allow_loops=True)


def test_encode_graph_reference_fixture():
    assert encode_graph(REFERENCE_GRAPH) == "[[{}][[]{}{}]]"


def test_encode_graph_trivial():
    assert encode_graph(Graph(1, frozenset())) == ""
    assert encode_graph(Graph(2, frozenset())) == "{}"


def test_decode_graph_reference_fixture():
    assert decode_graph("[[{}][[]{}{}]]") == REFERENCE_GRAPH
    assert decode_graph("") == Graph(1, frozenset())


def test_encode_digraph_reference_fixture():
    assert encode_digraph(REFERENCE_DIGRAPH) == "</{}><[]{}{}\\\\"


def test_encode_digraph_trivial():
    assert encode_digraph(Digraph(3, frozenset())) == "{}{}"


def test_decode_digraph_examples():
    assert decode_digraph("</{}><[]{}{}\\\\") == REFERENCE_DIGRAPH
    assert decode_digraph("/{}>") == Digraph(2, frozenset({(1, 2)}))


def test_decoder_errors():
    with pytest.raises(CodecError):
        decode_digraph("/{}\\")  # closer kind disagrees with opener kind
    with pytest.raises(CodecError):
        decode_digraph("/{}")
    with pytest.raises(CodecError):
        decode_digraph("{x}")
    with pytest.raises(CodecError):
        decode_graph("]")
    with pytest.raises(CodecError):
        decode_digraph("{/}>")  # '{' not immediately followed by '}'
    with pytest.raises(CodecError):
        decode_digraph("[]", allow_loops=False)


def test_decoder_rejects_strings_no_digraph_encodes_to():
    for s in ("//{}>>", "/>", "<\\", "[[]]", "[][", "[{}[]]"):
        with pytest.raises(CodecError):
            decode_digraph(s)
    with pytest.raises(CodecError):
        decode_graph("[[{}]]")  # the grammar rejects it too


def _bracket_string(moves) -> str:
    """Balanced bracket string from (move, kind) pairs: move 0 opens a pair
    of the kind, 1 closes the innermost pair, 2 writes a separator."""
    out, stack = [], []
    for m, kind in moves:
        if m == 0:
            out.append("[/<"[kind])
            stack.append("]>\\"[kind])
        elif m == 1 and stack:
            out.append(stack.pop())
        elif m == 2:
            out.append("{}")
    return "".join(out + stack[::-1])


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=24))
@settings(max_examples=300, deadline=None)
def test_every_accepted_string_re_encodes_to_itself(moves):
    s = _bracket_string(moves)
    try:
        g = decode_digraph(s)
    except CodecError:
        return
    assert encode_digraph(g) == s


def test_encoder_rejects_crossing():
    with pytest.raises(CodecError):
        encode_digraph(Digraph(4, frozenset({(1, 3), (2, 4)})))
    with pytest.raises(CodecError):
        encode_graph(Graph(4, frozenset({(1, 3), (2, 4)})))


def test_round_trip_exhaustive_small():
    for n in range(1, 5):
        for g in enumerate_noncrossing_digraphs(n):
            assert decode_digraph(encode_digraph(g)) == g
    for n in range(1, 5):
        for g in enumerate_noncrossing_graphs(n, with_loops=True):
            assert decode_graph(encode_graph(g)) == g


def test_reversal_symmetry_exhaustive():
    swap = str.maketrans("/><\\", "<\\/>")
    for n in range(1, 5):
        for g in enumerate_noncrossing_digraphs(n):
            assert encode_digraph(g.reverse()) == \
                encode_digraph(g).translate(swap)


def test_length_formula(digraphs_by_n):
    for g in digraphs_by_n[4]:
        edges = {(min(u, v), max(u, v)) for (u, v) in g.arcs}
        assert len(encode_digraph(g)) == 2 * (g.n - 1) + 2 * len(edges)


def test_concatenation_respects_glue():
    rng = random.Random(5)
    for _ in range(200):
        g1 = underlying(random_noncrossing_digraph(rng, 5))
        g2 = underlying(random_noncrossing_digraph(rng, 5))
        glued = glue(g1, g2)
        assert encode_graph(glued) == encode_graph(g1) + encode_graph(g2)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_round_trip_random(seed):
    rng = random.Random(seed)
    g = random_noncrossing_digraph(rng, 8)
    assert decode_digraph(encode_digraph(g)) == g
