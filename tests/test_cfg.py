import functools
import itertools
import random

import pytest

from ncdigraph.cfg import (DyckSpec, Grammar, GraphReg, ProductDfa,
                           cs_components_graph, derivation_count, dyck_check,
                           grammar_dyck2, grammar_nc_graph,
                           graph_preimage_count, membership, reg_strings,
                           string_counts_by_length, tokenize_primed)
from ncdigraph.codec import encode_graph
from ncdigraph.digraphs import enumerate_noncrossing_graphs, make_graph


@functools.cache
def loopfree_images_by_length(max_len):
    """Encoded loop-free noncrossing graphs with string length <= max_len.
    Cached: the length-14 set enumerates every noncrossing graph up to
    n = 8, and two tests read it."""
    images = set()
    n = 1
    while 2 * (n - 1) <= max_len:
        for g in enumerate_noncrossing_graphs(n):
            s = encode_graph(g)
            if len(s) <= max_len:
                images.add(s)
        n += 1
    return frozenset(images)


def test_grammar_shape():
    g = grammar_nc_graph()
    assert g.start == "S"
    assert g.nonterminals == {"S", "S'", "T"}
    assert g.terminals == {"[", "]", "{", "}"}


def test_membership_basics():
    g = grammar_nc_graph()
    assert membership(g, "")          # the epsilon production
    assert not membership(g, "[")
    assert membership(g, "[{}]")
    assert membership(g, "[[{}][{}]]")


def test_membership_rejects_duplicate_pair_shape():
    g = grammar_nc_graph()
    assert not membership(g, "[[{}]]")
    assert not membership(g, "[]")


def test_derivation_count_on_images():
    g = grammar_nc_graph()
    assert derivation_count(g, "") == 1
    assert derivation_count(g, "]") == 0
    for n in range(1, 5):
        for graph in enumerate_noncrossing_graphs(n):
            assert derivation_count(g, encode_graph(graph)) == 1


def test_derivation_count_long_path():
    # about 1600 brackets: the counter keeps no call stack per position
    path = make_graph(400, [(i, i + 1) for i in range(1, 400)])
    assert derivation_count(grammar_nc_graph(), encode_graph(path)) == 1


def test_left_recursive_counts_are_catalan():
    g = Grammar("S", (("S", ("S", "S")), ("S", ("a",))))
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    assert [derivation_count(g, "a" * k) for k in range(1, 9)] == catalan
    assert string_counts_by_length(g, 8) == [0] + catalan


def test_infinitely_many_derivations_raise():
    for g in (Grammar("S", (("S", ("S",)), ("S", ("a",)))),
              Grammar("S", (("S", ("S", "S")), ("S", ())))):
        with pytest.raises(ValueError):
            derivation_count(g, "a")
        with pytest.raises(ValueError):
            string_counts_by_length(g, 2)


def test_same_position_reads_after_nullable_symbols():
    # S reads X at its own start position once the nullable N is skipped;
    # X is left-recursive, and S -> N S loops through N -> ε
    g = Grammar("S", (("S", ("N", "X")), ("N", ()), ("N", ("b",)),
                      ("X", ("a",)), ("X", ("X", "c"))))
    assert [derivation_count(g, s) for s in ("a", "ba", "acc", "b", "")] == [1, 1, 1, 0, 0]
    assert string_counts_by_length(g, 3) == [0, 1, 2, 2]
    loop = Grammar("S", (("S", ("N", "S")), ("S", ("a",)), ("N", ()), ("N", ("b",))))
    with pytest.raises(ValueError):
        derivation_count(loop, "a")


def test_image_equivalence_up_to_length_14():
    g = grammar_nc_graph()
    images = loopfree_images_by_length(14)
    for s in images:
        assert membership(g, s), s
    counts = string_counts_by_length(g, 14)
    by_len = {}
    for s in images:
        by_len[len(s)] = by_len.get(len(s), 0) + 1
    for length in range(15):
        assert counts[length] == by_len.get(length, 0), length


def test_d2_strictly_contains_images():
    d2 = DyckSpec((("[", "]"), ("{", "}")))
    images = loopfree_images_by_length(8)
    for s in images:
        assert dyck_check(d2, s)
    in_d2 = set()
    for length in range(0, 9, 2):
        for tup in itertools.product("[]{}", repeat=length):
            s = "".join(tup)
            if dyck_check(d2, s):
                in_d2.add(s)
    assert images < in_d2
    assert "[]" in in_d2 - images
    assert "{[}]" not in in_d2
    # the S -> [S]S | {S}S | eps grammar generates the same language
    g2 = grammar_dyck2()
    for length in range(0, 7, 2):
        for tup in itertools.product("[]{}", repeat=length):
            s = "".join(tup)
            assert membership(g2, s) == dyck_check(d2, s)


def test_dyck_check_trivia():
    d3, _, _ = cs_components_graph()
    assert dyck_check(d3, ())
    assert not dyck_check(d3, tokenize_primed("['[']'"))
    assert dyck_check(d3, tokenize_primed("['{}]'"))


def test_homomorphism_worked_example():
    d3, reg, h = cs_components_graph()
    s = tokenize_primed("['['{}]'[['{}]'{}]]'")
    assert "".join(h.apply(s)) == "[[{}][[{}]{}]]"
    assert dyck_check(d3, s)
    assert reg.accepts(s)


def test_representation_identity_up_to_14():
    d3, reg, h = cs_components_graph()
    rep = {"".join(h.apply(s)) for s in reg_strings(reg, d3, 14)}
    assert rep == loopfree_images_by_length(14)


def test_preimage_uniqueness_graphs():
    for n in range(1, 6):
        for g in enumerate_noncrossing_graphs(n):
            assert graph_preimage_count(encode_graph(g), limit=3) == 1


def test_preimage_count_long_path():
    # about 1200 brackets: the search keeps its own stack
    path = make_graph(300, [(i, i + 1) for i in range(1, 300)])
    assert graph_preimage_count(encode_graph(path), limit=3) == 1


def test_intersection_with_universal_is_identity():
    class Universal(GraphReg):
        def step(self, q, sym):
            return q

        def is_final(self, q):
            return True

    d3, reg, h = cs_components_graph()
    both = ProductDfa([reg, Universal()])
    for s in reg_strings(reg, d3, 10):
        assert both.accepts(s)


def test_bar_hillel_sanity_random_strings():
    d3, reg, _ = cs_components_graph()
    other = GraphReg()
    prod = ProductDfa([reg, other])
    rng = random.Random(11)
    toks = ("[", "['", "]", "]'", "{", "}")
    for _ in range(500):
        s = tuple(rng.choice(toks) for _ in range(rng.randrange(0, 12)))
        assert prod.accepts(s) == (reg.accepts(s) and other.accepts(s))
