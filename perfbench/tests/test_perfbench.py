"""The benchmark's oracles against the program at small n, and the input
generators.  Run with ``python -m pytest perfbench/tests``."""

import itertools
import random
from fractions import Fraction

import pytest

from ncdigraph import inference
from ncdigraph.digraphs import ALL_PROPERTIES, Digraph, check_property

import gen
import oracles
import run
import workloads
from workloads import FAMILIES


def crossing_free(arcs) -> bool:
    spans = {(min(u, v), max(u, v)) for (u, v) in arcs}
    return not any(a < c < b < d or c < a < d < b
                   for (a, b), (c, d) in itertools.combinations(spans, 2))


@pytest.mark.parametrize("n", range(1, 9))
def test_interval_dp_matches_parse_max(n):
    rng = random.Random(n)
    for _ in range(3):
        w = gen.int_weights(rng, n)
        res = inference.parse_max(inference.WeightMatrix(n, w))
        assert res.weight == oracles.unrestricted_max(n, w)
        assert oracles.check_parse(res.digraph, res.weight, n, w) == []


@pytest.mark.parametrize("n", range(2, 7))
def test_interval_dp_matches_lexicon_parses(n):
    rng = random.Random(100 + n)
    for k in range(3):
        w = {a: Fraction(x) for a, x in gen.decimal_weights(rng, n).items()}
        flags = gen.lexicon_flags(k, n)
        lex = inference.LexicalConstraint(flags)
        res = inference.parse_max(inference.WeightMatrix(n, w), (), lex)
        assert res.weight == oracles.unrestricted_max(n, w, flags)
        assert oracles.check_parse(res.digraph, res.weight, n, w, (), lex, flags) == []


@pytest.mark.parametrize("family", ["", "polytree", "PROJ_W", "ACYC_D"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_brute_force_agrees(family, n):
    rng = random.Random(7 * n)
    w = gen.int_weights(rng, n)
    wm = inference.WeightMatrix(n, w)
    req = FAMILIES[family]
    brute = inference.brute_force_max(wm, req)
    res = inference.parse_max(wm, req)
    assert (res.weight, res.digraph) == (brute.weight, brute.digraph)
    assert oracles.check_parse(res.digraph, res.weight, n, w, req) == []
    if not family:
        assert brute.weight == oracles.unrestricted_max(n, w)


def test_check_parse_reports_wrong_answers():
    n = 5
    w = gen.int_weights(random.Random(1), n)
    res = inference.parse_max(inference.WeightMatrix(n, w))
    assert oracles.check_parse(res.digraph, res.weight + 1, n, w)
    fewer = Digraph(n, frozenset(sorted(res.digraph.arcs)[1:]))
    weight = sum(w[a] for a in fewer.arcs)
    assert oracles.check_parse(fewer, weight, n, w)
    cyclic = Digraph(3, frozenset({(1, 2), (2, 3), (3, 1)}))
    weight = sum(w[a] for a in cyclic.arcs)
    assert oracles.check_parse(cyclic, weight, 3, w, FAMILIES["ACYC_D"])


@pytest.mark.parametrize("family", ["polytree", "mixed-tree", "out-tree"])
def test_closed_forms(family):
    for n in range(1, 7):
        got = inference.count_family_strings(n, FAMILIES[family])
        assert got == oracles.tree_family_count(family, n)
    letters = oracles.FAMILY_LETTERS[family]
    assert oracles.lattice_family_count(letters) == oracles.tree_family_count(family, 5)


def test_lattice_cells():
    assert len(oracles.LATTICE_N5) == 23
    assert sum(oracles.LATTICE_N5.values()) == oracles.NONCROSSING_DIGRAPHS[5]
    assert [oracles.noncrossing_trees(n) for n in range(1, 7)] == [1, 1, 3, 12, 55, 273]


@pytest.mark.parametrize("kind", gen.KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 48])
def test_generator_is_noncrossing_and_seeded(kind, n):
    for seed in range(5):
        arcs = gen.noncrossing_arcs(random.Random(f"{seed}:{kind}"), n, kind)
        again = gen.noncrossing_arcs(random.Random(f"{seed}:{kind}"), n, kind)
        assert arcs == again
        assert crossing_free(arcs)
        assert all(u != v and 1 <= u <= n and 1 <= v <= n for u, v in arcs)
        g = Digraph(n, arcs)
        assert all(check_property(g, p) for p in workloads.GUARANTEED[kind])


def test_generator_mixes_properties():
    shares = {p: 0 for p in ALL_PROPERTIES}
    draws = 0
    for seed in range(4):
        for kind in gen.KINDS:
            g = Digraph(32, gen.noncrossing_arcs(random.Random(seed), 32, kind))
            draws += 1
            for p in ALL_PROPERTIES:
                shares[p] += check_property(g, p)
    assert all(0 < count < draws for count in shares.values())


def test_lexicons_are_distinct():
    for n in (2, 4, 6):
        seen = {tuple(sorted(gen.lexicon_flags(k, n).items())) for k in range(5 ** n)}
        assert len(seen) == 5 ** n
    flags = gen.lexicon_flags(3, 6)
    assert sorted(flags) == list(range(1, 7))
    assert all(len(f) == 4 for f in flags.values())


def test_read_parse_output():
    g, weight = workloads.read_parse_output("n 3\n1 2\n3 1\nweight 17/4\n")
    assert g == Digraph(3, frozenset({(1, 2), (3, 1)}))
    assert weight == Fraction(17, 4)
    with pytest.raises(ValueError):
        workloads.read_parse_output("error\n")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_probe_requests_pass(name, tmp_path):
    ctx = workloads.Context(3, str(tmp_path))
    wl = workloads.WORKLOADS[name](ctx, small=True)
    wl.setup()
    res = run.run_loop(wl, 0, count=2 * len(wl.cycle))
    assert res["failed"] == 0
    assert res["attempted"] == len(res["latencies"])

