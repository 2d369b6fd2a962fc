"""Acceptance suite: one test per criterion, exact tolerances, stated
runtime caps.  Each test prints a single pass/fail line (run with -s to see
them while the suite runs)."""

import random
import sys
import time
from contextlib import contextmanager

import pytest

from ncdigraph import cfg
from ncdigraph.codec import (decode_digraph, decode_graph, encode_digraph,
                             encode_graph)
from ncdigraph.digraphs import (ALL_PROPERTIES, Digraph, PropertyId,
                                check_property,
                                count_noncrossing_digraphs_bruteforce,
                                enumerate_noncrossing_digraphs,
                                enumerate_noncrossing_graphs, is_noncrossing,
                                make_digraph, make_graph, parse_property_set,
                                uacyclic_chain_scan)
from ncdigraph.inference import (LexicalConstraint, WeightMatrix,
                                 brute_force_max, parse_max)
from ncdigraph.latent import (constraint_accepts, constraint_dfa, d55,
                              h_lat, latent_encode, preimage_count, reg_lat)
from ncdigraph.ontology import build_lattice, signature_string


@contextmanager
def criterion(num, title, limit):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"criterion {num} ({title}): FAIL", file=sys.stderr)
        raise
    elapsed = time.time() - t0
    print(f"criterion {num} ({title}): PASS in {elapsed:.1f}s "
          f"(limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded its runtime limit"


def test_criterion_1_encoding_bijection():
    with criterion(1, "encoding bijection", 30):
        total = 0
        for n in range(1, 6):
            for g in enumerate_noncrossing_digraphs(n):
                total += 1
                assert decode_digraph(encode_digraph(g)) == g
        # 1 + 4 + 64 + 1792 + 62464 digraphs for n = 1..5
        assert total == 64325
        for n in range(1, 7):
            for g in enumerate_noncrossing_graphs(n, with_loops=True):
                assert decode_graph(encode_graph(g)) == g


def test_criterion_2_reference_string_fixtures():
    with criterion(2, "reference string fixtures", 10):
        graph = make_graph(4, [(1, 2), (2, 2), (2, 4), (1, 4)])
        assert encode_graph(graph) == "[[{}][[]{}{}]]"
        digraph = make_digraph(4, [(1, 2), (2, 2), (4, 1), (4, 2)],
                               allow_loops=True)
        assert encode_digraph(digraph) == "</{}><[]{}{}\\\\"
        _d3, _reg, h = cfg.cs_components_graph()
        lifted = cfg.tokenize_primed("['['{}]'[['{}]'{}]]'")
        assert "".join(h.apply(lifted)) == "[[{}][[{}]{}]]"


def test_criterion_3_cardinalities():
    with criterion(3, "cardinalities", 60):
        want = [1, 4, 64, 1792, 62464]
        for n, expect in zip(range(1, 6), want):
            assert sum(1 for _ in enumerate_noncrossing_digraphs(n)) == expect
        for n in range(1, 5):
            assert count_noncrossing_digraphs_bruteforce(n) == want[n - 1]


# the 23 realized six-property signatures on 5 vertices with their sizes
EXPECTED_CELLS_N5 = {
    "------": 5460, "C-----": 43571, "-U----": 80, "--O---": 140,
    "-U-A--": 1200, "-U--T-": 10, "CU----": 600, "C-O---": 1160,
    "-UO---": 80, "--O--D": 840, "-UO-T-": 130, "-U-AT-": 435,
    "CU-A--": 3355, "-UO--D": 10, "C-O--D": 2960, "CUO---": 370,
    "CU-AT-": 220, "CUO-T-": 132, "CUO--D": 50, "-UOA-D": 300,
    "CUOA-D": 605, "-UOATD": 481, "CUOATD": 275,
}


def test_criterion_4_ontology():
    with criterion(4, "ontology cells at n=5", 300):
        lat = build_lattice(5)
        got = {signature_string(c.signature): c.count for c in lat.classes}
        assert len(got) == 23
        assert sum(got.values()) == 62464
        assert got == EXPECTED_CELLS_N5


def test_criterion_5_axiom_equivalence():
    with criterion(5, "axiom equivalence", 600):
        reg = reg_lat()
        spec = d55()
        for n in range(1, 6):
            for g in enumerate_noncrossing_digraphs(n):
                s = latent_encode(g)
                assert h_lat(s) == encode_digraph(g)
                assert reg.accepts(s)
                assert cfg.dyck_check(spec, s)
                for p in ALL_PROPERTIES:
                    assert constraint_accepts(p, s) == check_property(g, p)


def test_criterion_6_unambiguity():
    with criterion(6, "unambiguity of representations", 300):
        grammar = cfg.grammar_nc_graph()
        for n in range(1, 6):
            for g in enumerate_noncrossing_graphs(n):
                assert cfg.derivation_count(grammar, encode_graph(g)) == 1
        for n in range(1, 5):
            for g in enumerate_noncrossing_digraphs(n):
                assert preimage_count(encode_digraph(g), limit=2) == 1
        extras = [constraint_dfa(PropertyId.ACYC_D),
                  constraint_dfa(PropertyId.CONN_W)]
        for n in range(1, 5):
            for g in enumerate_noncrossing_digraphs(n):
                inside = (check_property(g, PropertyId.ACYC_D)
                          and check_property(g, PropertyId.CONN_W))
                got = preimage_count(encode_digraph(g), extra=extras, limit=2)
                assert got == (1 if inside else 0)


def test_criterion_7_logspace_routine():
    with criterion(7, "logspace ACYC_U routine", 120):
        for n in range(1, 7):
            for g in enumerate_noncrossing_graphs(n):
                inv = Digraph(g.n,
                              frozenset((u, v) for (u, v) in g.edges)
                              | frozenset((v, u) for (u, v) in g.edges))
                assert uacyclic_chain_scan(g) == \
                    check_property(inv, PropertyId.ACYC_U)


FAMILIES = [frozenset({p}) for p in ALL_PROPERTIES] + [
    parse_property_set("mixed-tree"),
    parse_property_set("polytree"),
    parse_property_set("multitree"),
    parse_property_set("wc-dag"),
    parse_property_set("out-tree"),
]

TRIALS = 100
SEED = 20170701


@pytest.fixture(scope="module")
def inference_suite():
    """Shared randomized suite: per (n, trial) one weight matrix, parsed
    under all 13 families; results recorded for criteria 8 and 9."""
    rng = random.Random(SEED)
    records = []
    for n in (2, 3, 4, 5):
        for trial in range(TRIALS):
            w = WeightMatrix(n, {(i, j): rng.randrange(0, 100)
                                 for i in range(1, n + 1)
                                 for j in range(1, n + 1) if i != j})
            row = {}
            for fam in FAMILIES:
                res = parse_max(w, fam)
                row[fam] = res
            records.append((n, trial, w, row))
    return records


def test_criterion_8_inference_exactness(inference_suite):
    with criterion(8, "inference exactness", 600):
        for (n, _trial, w, row) in inference_suite:
            for fam, res in row.items():
                oracle = brute_force_max(w, fam)
                assert res.weight == oracle.weight, (n, sorted(fam))


def test_criterion_9_inference_invariants(inference_suite):
    with criterion(9, "inference feasibility and monotonicity", 600):
        chains = [
            (parse_property_set("out-tree"), parse_property_set("polytree")),
            (parse_property_set("polytree"), parse_property_set("mixed-tree")),
            (parse_property_set("polytree"), parse_property_set("multitree")),
            (parse_property_set("wc-dag"), frozenset({PropertyId.ACYC_D})),
        ]
        rng = random.Random(SEED + 1)
        for (n, trial, w, row) in inference_suite:
            for fam, res in row.items():
                assert is_noncrossing(res.digraph)
                assert all(check_property(res.digraph, p) for p in fam)
                assert res.weight == sum(w.get(i, j)
                                         for (i, j) in res.digraph.arcs)
            unconstrained = parse_max(w).weight
            for fam, res in row.items():
                assert res.weight <= unconstrained
            for larger, smaller in chains:
                assert row[larger].weight <= row[smaller].weight
            if trial % 25 == 0:
                scaled = WeightMatrix(n, {k: 13 * v for k, v in w.w.items()})
                for fam in (frozenset({PropertyId.ACYC_D}),
                            frozenset({PropertyId.OUT})):
                    assert parse_max(scaled, fam).digraph == row[fam].digraph
            if trial % 25 == 0 and n >= 2:
                v = rng.randrange(1, n + 1)
                lex = LexicalConstraint(
                    {v: frozenset({"out-left", "out-right"})})
                res = parse_max(w, (), lex)
                assert all(b != v for (_a, b) in res.digraph.arcs)
