import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_noncrossing_digraph
from ncdigraph.digraphs import (ALL_PROPERTIES, Digraph, PropertyId,
                                check_property,
                                count_noncrossing_digraphs_bruteforce,
                                enumerate_noncrossing_digraphs,
                                enumerate_noncrossing_graphs,
                                find_forbidden_configuration, is_noncrossing,
                                make_digraph, make_graph, parse_property_set,
                                uacyclic_chain_scan, underlying)
from ncdigraph.latent import constraint_accepts, latent_encode


def test_make_digraph_with_self_loop():
    g = make_digraph(4, [(1, 2), (2, 2), (4, 1), (4, 2)], allow_loops=True)
    assert g.n == 4
    assert g.arcs == frozenset({(1, 2), (2, 2), (4, 1), (4, 2)})


def test_make_digraph_trivial_and_collapse():
    assert make_digraph(1, []).arcs == frozenset()
    assert make_digraph(3, [(1, 2), (1, 2)]).arcs == frozenset({(1, 2)})


def test_make_digraph_errors():
    with pytest.raises(ValueError):
        make_digraph(3, [(1, 4)])
    with pytest.raises(ValueError):
        make_digraph(3, [(2, 2)])
    make_digraph(3, [(2, 2)], allow_loops=True)


def test_is_noncrossing():
    assert not is_noncrossing(Digraph(4, frozenset({(1, 3), (2, 4)})))
    assert is_noncrossing(Digraph(4, frozenset({(1, 4), (2, 3)})))


def _noncrossing_pairwise(arcs) -> bool:
    """The definition: no two spans interleave, tested pair by pair."""
    spans = sorted({(min(u, v), max(u, v)) for (u, v) in arcs})
    return not any(a1 < b1 < a2 < b2
                   for (a1, a2), (b1, b2) in itertools.combinations(spans, 2))


@given(st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(st.just(n), st.frozensets(
        st.tuples(st.integers(1, n), st.integers(1, n)), max_size=12))))
@settings(max_examples=300, deadline=None)
def test_is_noncrossing_matches_pairwise_definition(case):
    n, arcs = case  # loops included
    assert is_noncrossing(Digraph(n, arcs)) == _noncrossing_pairwise(arcs)
    assert is_noncrossing(underlying(Digraph(n, arcs))) == _noncrossing_pairwise(arcs)


def test_noncrossing_count_n4_bruteforce_oracle():
    # all 4^6 orientation assignments of the six vertex pairs, minus crossings
    assert count_noncrossing_digraphs_bruteforce(4) == 1792


def test_underlying():
    assert underlying(Digraph(2, frozenset({(1, 2), (2, 1)}))).edges == \
        frozenset({(1, 2)})
    assert underlying(Digraph(1, frozenset())).edges == frozenset()
    g = make_digraph(4, [(1, 2), (2, 2), (4, 1), (4, 2)], allow_loops=True)
    assert underlying(g).edges == frozenset({(1, 2), (2, 2), (2, 4), (1, 4)})


def test_check_property_basics():
    cyc = make_digraph(3, [(1, 2), (2, 3), (3, 1)])
    assert not check_property(cyc, PropertyId.ACYC_D)
    assert check_property(cyc, PropertyId.ORIENTED)
    assert check_property(cyc, PropertyId.CONN_W)
    assert not check_property(cyc, PropertyId.ACYC_U)

    star = make_digraph(3, [(1, 2), (1, 3)])
    assert check_property(star, PropertyId.UNAMB_S)

    pair = make_digraph(2, [(1, 2), (2, 1)])
    assert check_property(pair, PropertyId.INV)
    assert not check_property(pair, PropertyId.ORIENTED)
    assert check_property(pair, PropertyId.UNAMB_S)
    assert not check_property(pair, PropertyId.ACYC_D)
    assert check_property(pair, PropertyId.ACYC_U)


def test_projectivity():
    # outgoing arc 1->3 properly covers incoming arc 2->1
    assert not check_property(make_digraph(3, [(2, 1), (1, 3)]), PropertyId.PROJ_W)
    assert check_property(make_digraph(3, [(1, 2), (2, 3)]), PropertyId.PROJ_W)
    assert check_property(make_digraph(3, [(3, 2), (2, 1)]), PropertyId.PROJ_W)


def test_crossing_symmetric_under_reversal(digraphs_by_n):
    for g in digraphs_by_n[4]:
        assert is_noncrossing(g) == is_noncrossing(g.reverse())


def test_inv_and_oriented_forces_arcless(digraphs_by_n):
    for n in (2, 3):
        for g in digraphs_by_n[n]:
            if check_property(g, PropertyId.INV) and \
               check_property(g, PropertyId.ORIENTED):
                assert not g.arcs


def test_uacyclic_chain_scan_examples():
    assert not uacyclic_chain_scan(make_graph(3, [(1, 2), (2, 3), (1, 3)]))
    assert uacyclic_chain_scan(make_graph(3, [(1, 2), (2, 3)]))


def test_uacyclic_chain_scan_agrees_small():
    for n in range(1, 6):
        for g in enumerate_noncrossing_graphs(n):
            want = check_property(
                Digraph(g.n, frozenset((u, v) for (u, v) in g.edges)
                        | frozenset((v, u) for (u, v) in g.edges)),
                PropertyId.ACYC_U)
            assert uacyclic_chain_scan(g) == want


def test_enumeration_counts(digraphs_by_n):
    assert len(digraphs_by_n[1]) == 1
    assert len(digraphs_by_n[3]) == 64  # 4^3 assignments, none crossing
    for n in (1, 2, 3, 4):
        assert len(digraphs_by_n[n]) == count_noncrossing_digraphs_bruteforce(n)


def test_enumeration_is_deterministic_lexicographic():
    first = list(itertools.islice(enumerate_noncrossing_digraphs(2), 4))
    assert [sorted(g.arcs) for g in first] == \
        [[], [(1, 2)], [(2, 1)], [(1, 2), (2, 1)]]


def test_enumeration_reaches_n50_without_recursion():
    # 1225 vertex pairs: the walk keeps its own stack
    first = list(itertools.islice(enumerate_noncrossing_digraphs(50), 5))
    assert [sorted(g.arcs) for g in first] == \
        [[], [(49, 50)], [(50, 49)], [(49, 50), (50, 49)], [(48, 50)]]
    assert all(g.n == 50 for g in first)
    first = list(itertools.islice(enumerate_noncrossing_graphs(50), 3))
    assert [sorted(g.edges) for g in first] == [[], [(49, 50)], [(48, 50)]]
    assert all(g.n == 50 for g in first)


def test_random_noncrossing_digraph_is_constructive():
    # no rejection loop: 40 vertices take milliseconds, not forever
    rng = random.Random(40)
    t0 = time.perf_counter()
    draws = [random_noncrossing_digraph(rng, 40) for _ in range(20)]
    assert time.perf_counter() - t0 < 10
    assert all(is_noncrossing(g) for g in draws)
    assert max(g.n for g in draws) > 30 and max(len(g.arcs) for g in draws) > 30


def test_enumeration_yields_unique_noncrossing(digraphs_by_n):
    seen = set(g.arcs for g in digraphs_by_n[4])
    assert len(seen) == 1792
    assert all(is_noncrossing(g) for g in digraphs_by_n[4])


def test_witness_examples():
    pair = make_digraph(2, [(1, 2), (2, 1)])
    assert find_forbidden_configuration(pair, PropertyId.ACYC_D) == \
        [(1, 2), (2, 1)]
    assert find_forbidden_configuration(pair, PropertyId.ORIENTED) == \
        [(1, 2), (2, 1)]
    assert find_forbidden_configuration(
        make_digraph(3, [(1, 2), (3, 2)]), PropertyId.OUT) == [(1, 2), (3, 2)]
    assert find_forbidden_configuration(
        make_digraph(3, [(1, 2), (2, 1), (2, 3)]), PropertyId.INV) == [(2, 3)]
    assert find_forbidden_configuration(
        make_digraph(3, [(2, 1), (1, 3)]), PropertyId.PROJ_W) == \
        [(1, 3), (2, 1)]
    empty = make_digraph(1, [])
    for p in ALL_PROPERTIES:
        assert find_forbidden_configuration(empty, p) is None


def test_witness_equivalence_exhaustive(digraphs_by_n):
    # the latent scanners are an independent implementation of the eight
    # properties: a witness exists exactly when the scanner rejects, and the
    # witness arcs alone are rejected too
    for n in (1, 2, 3, 4):
        for g in digraphs_by_n[n]:
            s = latent_encode(g)
            for p in ALL_PROPERTIES:
                witness = find_forbidden_configuration(g, p)
                assert (witness is None) == constraint_accepts(p, s)
                if witness is not None:
                    assert witness == sorted(set(witness))
                    assert set(witness) <= g.arcs
                    assert not constraint_accepts(
                        p, latent_encode(Digraph(n, frozenset(witness))))


def test_searches_on_a_long_path():
    # 1 -> 2 -> ... -> 1000: deep enough to exhaust a recursive path walk
    g = make_digraph(1000, [(i, i + 1) for i in range(1, 1000)])
    for p in (PropertyId.UNAMB_S, PropertyId.ACYC_D, PropertyId.ACYC_U,
              PropertyId.CONN_W):
        assert find_forbidden_configuration(g, p) is None
        assert check_property(g, p)


def test_parse_property_set_aliases():
    assert parse_property_set("polytree") == frozenset({
        PropertyId.CONN_W, PropertyId.ACYC_U, PropertyId.UNAMB_S,
        PropertyId.ACYC_D, PropertyId.ORIENTED})
    assert parse_property_set("ACYC_D,OUT") == \
        frozenset({PropertyId.ACYC_D, PropertyId.OUT})
    with pytest.raises(ValueError):
        parse_property_set("bogus")


@given(st.integers(min_value=1, max_value=5))
@settings(max_examples=5, deadline=None)
def test_graph_enumeration_matches_inv_family(n):
    from ncdigraph.ontology import count_family
    graphs = sum(1 for _ in enumerate_noncrossing_graphs(n))
    assert graphs == count_family(n, frozenset({PropertyId.INV}))
