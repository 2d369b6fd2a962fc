import math
import operator
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdigraph import cfg
from ncdigraph.digraphs import (PropertyId, check_property,
                                enumerate_noncrossing_digraphs, is_noncrossing,
                                parse_property_set)
from ncdigraph.fileio import parse_lexicon, parse_weights
from ncdigraph.inference import (LEX_FLAGS, LexicalConstraint, NoParseError,
                                 WeightMatrix, brute_force_max,
                                 build_intersection_grammar,
                                 count_family_strings, family_automaton,
                                 parse_max)
from ncdigraph.latent import latent_encode
from ncdigraph.ontology import count_family


def random_weights(rng, n, hi=60):
    return WeightMatrix(n, {(i, j): rng.randrange(0, hi)
                            for i in range(1, n + 1)
                            for j in range(1, n + 1) if i != j})


def test_family_table_acyclic_n5():
    # Reg_lat ∩ A_D accepts exactly the latent encodings of the 5-vertex dags
    auto = family_automaton(frozenset({PropertyId.ACYC_D}))
    dags = 0
    for g in enumerate_noncrossing_digraphs(5):
        is_dag = check_property(g, PropertyId.ACYC_D)
        assert auto.accepts(latent_encode(g)) == is_dag
        dags += is_dag
    assert count_family_strings(5, {PropertyId.ACYC_D}) == dags


def test_intersection_grammar_language_sizes(digraphs_by_n):
    assert count_family_strings(5) == 62464
    for n in (1, 2, 3, 4):
        assert count_family_strings(n) == len(digraphs_by_n[n])


def _nc_tree_count(n):
    # noncrossing spanning trees on n points (OEIS A001764)
    return math.comb(3 * n - 3, n - 1) // (2 * n - 1)


def test_tree_family_counts_match_closed_forms():
    for n in (6, 7, 8, 9):
        t = _nc_tree_count(n)
        assert count_family_strings(n, parse_property_set("polytree")) == 2 ** (n - 1) * t
        assert count_family_strings(n, parse_property_set("mixed-tree")) == 3 ** (n - 1) * t
        assert count_family_strings(n, parse_property_set("out-tree")) == n * t


def _weighted_nc_graph_counts(max_n, y=3):
    """Σ over noncrossing graphs on 1..n of y^edges, by an interval
    recurrence on m = j - i + 1 points: vertex i is isolated, or its
    farthest neighbour k splits i..j into the inside of the edge (i, k) and
    the interval k..j.  The outer edge (i, k) crosses nothing on i..k, so
    the graphs on i..k without it are 1/(1+y) of all graphs on i..k:
    f(m) = f(m-1) + Σ_{2≤l≤m} y (f(l)/(1+y)) f(m-l+1), which solved for
    f(m) gives f(m) = (1+y) f(m-1) + y Σ_{2≤l<m} f(l) f(m-l+1).  An edge
    of a digraph is one of 3 arc sets (forward, backward or both), and of
    an oriented digraph one of 2."""
    f = [0, 1]
    for m in range(2, max_n + 1):
        f.append((1 + y) * f[m - 1] + y * sum(f[l] * f[m - l + 1] for l in range(2, m)))
    return f


def test_unrestricted_count_matches_interval_recurrence():
    f = _weighted_nc_graph_counts(10)
    assert f[1:6] == [1, 4, 64, 1792, 62464]
    for n in range(1, 11):
        assert count_family_strings(n) == f[n]


# Series of Flajolet & Noy (1999), in exact integers, as count oracles past
# enumeration.  A series is the list of its coefficients of z^0..z^max_n; a
# structure on n vertices 1..n counts at z^n.  The families that still have
# no oracle past n ≤ 6 are UNAMB_S, ACYC_D and PROJ_W alone; OUT alone has
# the interval DP `_out_counts` below.

def _times(a, b):
    """Product of two series, cut at the length of a."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                out[i + j] += x * b[j]
    return out


def _connected_counts(max_n, y):
    """Connected graphs, weighted by y^edges.  Vertex 1's component has k
    vertices, and each of the k gaps after them holds any graph, which no
    edge of another gap or of the component crosses: G(z) = 1 + C(z G(z)),
    solved for C one coefficient at a time.  (z G)^k starts at z^k with
    coefficient 1, so c_k is g_k less the z^k coefficient of the terms
    with j < k."""
    g = [1] + _weighted_nc_graph_counts(max_n, y)[1:]
    zg, power, known = [0] + g[:max_n], [1] + [0] * max_n, [0] * (max_n + 1)
    c = [0] * (max_n + 1)
    for k in range(1, max_n + 1):
        power = _times(power, zg)
        c[k] = g[k] - known[k]
        known = [x + c[k] * p for x, p in zip(known, power)]
    return c


def _forest_counts(max_n, tree_weight):
    """Forests whose k-vertex trees weigh tree_weight(k) · t_k each, t_k the
    noncrossing trees on k points: F(z) = 1 + T(z F(z)) with T the tree
    series, in the gaps after a tree's vertices as for connected graphs.
    f_n reads f_0..f_{n-1} only, so the coefficients come in order."""
    t = [0] + [_nc_tree_count(k) * tree_weight(k) for k in range(1, max_n + 1)]
    f = [1] + [0] * max_n
    for n in range(1, max_n + 1):
        zf, power = [0] + f[:n], [1] + [0] * n
        for k in range(1, n + 1):
            power = _times(power, zf)
            f[n] += t[k] * power[n]
    return f


def _series_counts(max_n):
    """Count oracles for eleven families: graphs with y = 3 (digraphs),
    y = 2 (oriented) or y = 1 (INV: each arc with its reverse, so one arc
    set per edge), connected graphs, forests (y^{k−1} per tree of k
    vertices) and out-forests: a tree with a root, its arcs pointing away
    from it (k ways), or a tree with one pair both ways and every other arc
    away from it (k − 1 more ways)."""
    P = PropertyId
    return {
        frozenset(): _weighted_nc_graph_counts(max_n, 3),
        frozenset({P.ORIENTED}): _weighted_nc_graph_counts(max_n, 2),
        frozenset({P.CONN_W}): _connected_counts(max_n, 3),
        frozenset({P.ORIENTED, P.CONN_W}): _connected_counts(max_n, 2),
        frozenset({P.ACYC_U}): _forest_counts(max_n, lambda k: 3 ** (k - 1)),
        frozenset({P.ORIENTED, P.ACYC_U}): _forest_counts(max_n, lambda k: 2 ** (k - 1)),
        frozenset({P.OUT, P.ACYC_U}): _forest_counts(max_n, lambda k: 2 * k - 1),
        frozenset({P.OUT, P.ACYC_U, P.ORIENTED}): _forest_counts(max_n, lambda k: k),
        frozenset({P.INV}): _weighted_nc_graph_counts(max_n, 1),
        frozenset({P.INV, P.CONN_W}): _connected_counts(max_n, 1),
        frozenset({P.INV, P.ACYC_U}): _forest_counts(max_n, lambda k: 1),
    }


def test_series_counts_match_enumeration():
    # the series agree with the brute-force oracle, which knows no chart
    from ncdigraph.inference import _family_members

    for fam, f in _series_counts(5).items():
        assert f[1:] == [len(_family_members(n, fam)[0]) for n in range(1, 6)], sorted(fam)


def test_family_counts_match_series_past_n_10():
    for fam, f in _series_counts(12).items():
        for n in (11, 12):
            assert count_family_strings(n, fam) == f[n], (sorted(fam), n)


def _out_counts(max_n):
    """Digraphs with in-degree ≤ 1 everywhere (OUT), by the interval DP of
    `_weighted_nc_graph_counts` on m = j - i + 1 points.  g[m][a, b] counts
    those on i..j with in-degree a at i and b at j, h[m] those without the
    edge (i, j); one point counts as (0, 0).  Vertex i is isolated, or its
    farthest neighbour k splits i..j into i..k, whose edge (i, k) adds 1
    to the in-degree of i, of k or of both, and the interval k..j.  The two
    parts' in-degrees at the shared k sum to at most 1."""
    g, h = [None, Counter({(0, 0): 1})], [None, None]
    for m in range(2, max_n + 1):
        h.append(Counter())
        for (_a, b), x in g[m - 1].items():
            h[m][0, b] += x
        g.append(Counter())
        for l in range(2, m + 1):
            for (a, c), x in h[l].items():
                for da, dc in ((1, 0), (0, 1), (1, 1)):
                    a1, c1 = a + da, c + dc
                    if a1 > 1 or c1 > 1:
                        continue
                    if l == m:
                        g[m][a1, c1] += x
                        continue
                    for (c2, b), y in g[m - l + 1].items():
                        if c1 + c2 <= 1:
                            h[m][a1, b] += x * y
        g[m].update(h[m])
    return [0] + [sum(gm.values()) for gm in g[1:]]


def test_out_counts_match_enumeration_and_chart():
    from ncdigraph.inference import _family_members

    f = _out_counts(12)
    out = frozenset({PropertyId.OUT})
    assert f[1:6] == [len(_family_members(n, out)[0]) for n in range(1, 6)]
    for n in (11, 12):
        assert count_family_strings(n, out) == f[n], n


def test_family_automaton_minimal_state_counts():
    want = {"": 32, "ACYC_D": 31, "ACYC_U": 18, "UNAMB_S": 23, "PROJ_W": 48,
            "OUT": 59, "polytree": 18, "out-tree": 32, "multitree": 21}
    got = {name: len(family_automaton(parse_property_set(name)).delta)
           for name in want}
    assert got == want


def test_family_automaton_is_built_once_per_family():
    # the table knows no n and no lexicon: one build serves them all
    from ncdigraph.inference import _INTERSECTION_CACHE

    fams = (frozenset(), parse_property_set("out-tree"))
    lex = LexicalConstraint({1: frozenset({"out-right", "in-right"})})
    _INTERSECTION_CACHE.clear()
    family_automaton.cache_clear()
    for fam in fams:
        for n in range(1, 9):
            for lx in (None, lex):
                count_family_strings(n, fam, lx)
    assert family_automaton.cache_info().misses == len(fams)


def test_intersection_grammar_object(digraphs_by_n):
    g = build_intersection_grammar(2)
    assert g.start == ("S0",)
    # language = four 2-vertex digraphs; count derivations by length
    total = sum(cfg.string_counts_by_length(g, 8))
    assert total == 4
    fam = frozenset({PropertyId.ACYC_D})
    g = build_intersection_grammar(4, fam)
    # 3 boundary pairs and at most 2n - 3 = 5 arc pairs, two tokens each
    assert sum(cfg.string_counts_by_length(g, 16)) == \
        count_family_strings(4, fam) == \
        sum(check_property(g, PropertyId.ACYC_D) for g in digraphs_by_n[4])


def test_intersection_grammar_empty_family():
    lex = LexicalConstraint({1: frozenset(), 2: frozenset()})
    g = build_intersection_grammar(2, {PropertyId.CONN_W}, lex)
    assert sum(cfg.string_counts_by_length(g, 10)) == 0
    # S0 -> DEAD, DEAD -> DEAD: an unproductive cycle counts 0
    assert cfg.derivation_count(g, ()) == 0
    assert not cfg.membership(g, ())


def _grammar_strings(g, max_len=60):
    table = g.by_lhs()
    out = set()
    stack = [((g.start,), ())]
    while stack:
        syms, acc = stack.pop()
        while syms and syms[0] not in table:
            acc = acc + (syms[0],)
            syms = syms[1:]
        if not syms:
            out.add(acc)
            continue
        if len(acc) > max_len:
            continue
        for rhs in table[syms[0]]:
            stack.append((tuple(rhs) + tuple(syms[1:]), acc))
    return out


# vertex 1 only sends arcs rightwards; vertex 3 only receives from the left
# or takes part in a two-way pair
_LEX_FLAGS = {1: frozenset({"out-right"}), 3: frozenset({"in-left", "bidir"})}


def _lexicon(n):
    return LexicalConstraint({v: f for v, f in _LEX_FLAGS.items() if v <= n})


def _lexicon_permits(d, lex):
    """Direct reading of the lexicon flags on the arcs of a digraph."""
    for (a, b) in d.arcs:
        if (b, a) in d.arcs:
            need = ((a, "bidir"), (b, "bidir"))
        elif a < b:
            need = ((a, "out-right"), (b, "in-left"))
        else:
            need = ((a, "out-left"), (b, "in-right"))
        if not all(flag in lex.allowed(v) for v, flag in need):
            return False
    return True


def test_intersection_grammar_language_is_family():
    from ncdigraph.latent import latent_to_str

    fams = (frozenset(), frozenset({PropertyId.ACYC_D}),
            frozenset({PropertyId.CONN_W, PropertyId.ACYC_U}))
    for fam in fams:
        for n in (1, 2, 3):
            for lex in (None, _lexicon(n)):
                g = build_intersection_grammar(n, fam, lex)
                got = {"".join(b.token for b in s) for s in _grammar_strings(g)}
                want = {latent_to_str(latent_encode(d))
                        for d in enumerate_noncrossing_digraphs(n)
                        if all(check_property(d, p) for p in fam)
                        and (lex is None or _lexicon_permits(d, lex))}
                assert got == want
    # the lexicon does cut the n = 3 family down, but not to nothing
    lex = _lexicon(3)
    kept = [d for d in enumerate_noncrossing_digraphs(3)
            if _lexicon_permits(d, lex)]
    assert 0 < len(kept) < count_family(3, frozenset())


_PROGRAM_FAMS = (frozenset(), frozenset({PropertyId.ACYC_D}),
                 frozenset({PropertyId.UNAMB_S}), parse_property_set("out-tree"))


def _assert_set_once_and_coreachable(program, cells=None):
    """Each cell (by default 0 .. ncells - 1) is set once, as an input or by
    one group, a group reads only cells already set, and a search down from
    the finals meets every cell."""
    ncells, empty, pair_cells, groups, finals = program
    cells = sorted(range(ncells) if cells is None else cells)
    inputs = list(empty) + [c for c, *_kind in pair_cells]
    assert sorted(inputs + [d for d, _l, _r in groups]) == cells
    ready = set(inputs)
    for dst, lefts, rights in groups:
        assert ready.issuperset(lefts) and ready.issuperset(rights)
        ready.add(dst)
    reads = {dst: lefts + rights for dst, lefts, rights in groups}
    seen = {c for _qf, c in finals}
    todo = list(seen)
    while todo:
        for c in reads.get(todo.pop(), ()):
            if c not in seen:
                seen.add(c)
                todo.append(c)
    assert seen == set(cells)


def _is_empty_cell(key):
    kind, a, b = key
    return kind == "{}" or (kind == "S" and a == b)


def _labelled_values(alg, keys, groups):
    """Reference replay of the compiler's labelled groups, one term at a
    time: the value of every cell the compiler made, before the trim and
    the sharing."""
    times, join = (operator.mul, sum) if alg.zero == 0 else (operator.add, max)
    values = {}
    for c, key in enumerate(keys):
        if key[0] == "pair":
            values[c] = alg.pair(key[1], *key[2])
        elif _is_empty_cell(key):
            values[c] = alg.empty()
    for dst, (lefts, rights) in groups.items():
        values[dst] = join(map(times, map(values.get, lefts), map(values.get, rights)))
    return values


def _kept_program(keys, shared, groups, finals):
    """The labelled groups of the kept cells (those with a shared cell) as
    a program over their labelled ids, and those ids."""
    kept = [c for c, s in enumerate(shared) if s >= 0]
    program = (None, [c for c in kept if _is_empty_cell(keys[c])],
               [(c,) for c in kept if keys[c][0] == "pair"],
               [(dst, lefts, rights) for dst, (lefts, rights) in groups.items()
                if shared[dst] >= 0],
               finals)
    return program, kept


def test_compiled_program_leaves_no_dead_value():
    # the program is the reduced chart: every cell, pair value and P(a, b)
    # cell the compiler keeps counts > 0 and is read, through the labelled
    # groups, by a final
    from ncdigraph.inference import _CountAlgebra, _Intersection

    for fam in _PROGRAM_FAMS:
        for n in (1, 2, 3, 4, 5):
            inter = _Intersection(n, fam)
            _prog, (keys, shared, groups, openers, finals) = inter._compile()
            labelled, kept = _kept_program(keys, shared, groups, finals)
            cells = _labelled_values(_CountAlgebra(), keys, groups)
            assert len(shared) == len(keys) == len(cells)
            assert all(cells[c] > 0 for c in kept)
            assert all(cells[left] * cells[right] > 0
                       for _dst, lefts, rights in labelled[3]
                       for left, right in zip(lefts, rights))
            folds = [c for c in kept if keys[c][0] == "P"]
            assert (n > 1) == bool(folds) and all(cells[f] > 0 for f in folds)
            assert sorted(set(openers) & set(kept)) == folds
            assert all(keys[f][0] == "P" for f in openers)
            _assert_set_once_and_coreachable(labelled, kept)


_SHARED_CASES = ([(frozenset(), n) for n in range(1, 10)]
                 + [(fam, n) for fam in (parse_property_set("out-tree"),
                                         frozenset({PropertyId.PROJ_W}),
                                         frozenset({PropertyId.UNAMB_S}),
                                         frozenset({PropertyId.ACYC_D}))
                    for n in range(1, 8)])


def test_shared_program_gives_the_unshared_values():
    # the cached replay program is the hash-consed reduced chart: under
    # either algebra, with or without a lexicon, each final has the value
    # it has in the labelled groups that grammar materialization reads, and
    # so does every kept cell through its shared id
    from ncdigraph.inference import _CountAlgebra, _Intersection, _MaxAlgebra

    rng = random.Random(47)
    for fam, n in _SHARED_CASES:
        inter = _Intersection(n, fam)
        shared_program, (keys, shared, groups, _openers, finals) = inter._compile()
        program = inter._program()
        assert shared_program == program
        assert [qf for qf, _c in program[4]] == [qf for qf, _c in finals]
        for lex in (None, _random_lexicon(rng, n)):
            w = random_weights(rng, n, hi=100)
            for alg in (_CountAlgebra(lex), _MaxAlgebra(w, lex)):
                want = _labelled_values(alg, keys, groups)
                got = inter.replay(alg)
                assert ([got[c] for _qf, c in program[4]]
                        == [want[c] for _qf, c in finals]), (n, sorted(fam), lex)
                if not program[1]:
                    got.insert(0, alg.empty())  # the identity no group reads
                assert all(got[s] == want[c] for c, s in enumerate(shared) if s >= 0)


def test_shared_program_is_maximally_shared():
    # set once, read after set and co-reachable, like the labelled groups;
    # one identity cell, one cell per term multiset, and no group that only
    # renames its one non-identity operand
    from ncdigraph.inference import _Intersection

    for fam, n in _SHARED_CASES:
        program = _Intersection(n, fam)._program()
        _assert_set_once_and_coreachable(program)
        _ncells, empty, pair_cells, groups, _finals = program
        assert len(empty) <= 1
        assert len({(o, u, v) for _c, o, u, v in pair_cells}) == len(pair_cells)
        terms = [tuple(sorted(zip(lefts, rights))) for _d, lefts, rights in groups]
        assert len(set(terms)) == len(terms), (n, sorted(fam))
        assert not any(len(t) == 1 and set(t[0]) & set(empty) for t in terms)


def test_shared_program_keeps_repeated_terms(monkeypatch):
    # two joins that become the same term after sharing are both kept, so a
    # count replay still counts each derivation.  No family table makes
    # such a chart, so a hand-made one does: two forward openers, each
    # followed by its own boundary pair and its own closer into one final
    # state, give P(1, 2) two labelled terms that share to one
    from ncdigraph import inference
    from ncdigraph.cfg import TableDfa
    from ncdigraph.chains import FORWARD
    from ncdigraph.inference import _CountAlgebra, _Intersection
    from ncdigraph.latent import BOUNDARY_CLOSE, BOUNDARY_OPEN, alphabet

    symbols = alphabet()
    o1, o2 = [b for b in symbols if b.is_opener and b.orientation == FORWARD][:2]
    moves = {(0, o1): 1, (1, BOUNDARY_OPEN): 2, (2, BOUNDARY_CLOSE): 3, (3, o1.partner()): 4,
             (0, o2): 5, (5, BOUNDARY_OPEN): 6, (6, BOUNDARY_CLOSE): 7, (7, o2.partner()): 4}
    table = TableDfa(symbols, tuple(tuple(moves.get((q, b), -1) for b in symbols)
                                    for q in range(8)),
                     tuple(q == 4 for q in range(8)))
    monkeypatch.setattr(inference, "family_automaton", lambda req: table)
    inter = _Intersection(2)
    program, (keys, shared, groups, _openers, _finals) = inter._compile()
    # cell 0 is the identity, 1 the pair and 2 joins it with each boundary pair
    assert program == (3, (0,), ((1, FORWARD, 1, 2),), ((2, (1, 1), (0, 0)),), ((4, 2),))
    [(lefts, rights)] = [lr for dst, lr in groups.items() if keys[dst][0] == "P" and shared[dst] == 2]
    assert len(set(zip(lefts, rights))) == 2
    assert inter.replay(_CountAlgebra(), program)[2] == 2


def test_join_kernels_replay_long_and_single_groups():
    # a hand-made program: one identity cell, the pair cells of n = 6, a
    # ladder of groups j joining j identity terms, then a group of 5,000
    # random terms over all of them and a group of one term; each group's
    # value is the join computed here, under both algebras, and a kernel is
    # compiled once per term count and shared by the algebra's instances
    from ncdigraph.chains import BACKWARD, BIDIRECTIONAL, FORWARD
    from ncdigraph.inference import _CountAlgebra, _Intersection, _MaxAlgebra

    n, rng = 6, random.Random(59)
    pairs = tuple((1 + i, o, u, v) for i, (o, u, v) in enumerate(
        (o, u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
        for o in (FORWARD, BACKWARD, BIDIRECTIONAL)))
    ncells = 1 + len(pairs)
    groups = [(ncells + j - 1, (0,) * j, (0,) * j) for j in range(1, 9)]
    ncells += len(groups)
    groups.append((ncells, tuple(rng.randrange(ncells) for _ in range(5000)),
                   tuple(rng.randrange(ncells) for _ in range(5000))))
    groups.append((ncells + 1, (ncells,), (rng.randrange(ncells),)))
    program = (ncells + 2, (0,), pairs, tuple(groups), ((0, ncells + 1),))
    lex = _random_lexicon(rng, n)
    for alg, times, join in ((_CountAlgebra(lex), operator.mul, sum),
                             (_MaxAlgebra(random_weights(rng, n), lex), operator.add, max)):
        want = [alg.empty()] + [alg.pair(o, u, v) for _c, o, u, v in pairs]
        for _dst, lefts, rights in groups:
            want.append(join(times(want[a], want[b]) for a, b in zip(lefts, rights)))
        assert _Intersection(n).replay(alg, program) == want
        assert alg.kernels[5000] is alg.kernels[5000] is type(alg).kernels[5000]
        assert alg.kernels[1] is alg.kernels[1]


def test_shared_program_sizes():
    # unshared at ∅ n = 9: 4,193 cells, 3,857 groups and 24,260 terms
    from ncdigraph.inference import _Intersection

    ncells, _empty, _pairs, groups, _finals = _Intersection(9)._program()
    assert (ncells, len(groups), sum(len(lefts) for _d, lefts, _r in groups)) == (
        1_599, 1_490, 11_932)


def test_pair_insides_and_sequences_have_distinct_heads():
    # the compiler gives each node one row of S cells, chosen by its state:
    # pair insides for a state right after an opener, sequences for the
    # start, a state after {} and a state after a closer; no state is both
    from ncdigraph.inference import _Intersection

    names = [p.value for p in PropertyId] + [
        "polytree", "mixed-tree", "multitree", "wc-dag", "out-tree"]
    fams = {parse_property_set(name) for name in names} | set(_PROGRAM_FAMS)
    for fam in fams:
        inter = _Intersection(1, fam)
        auto = inter.auto
        inside = {q1 for moves in inter.openers for _o, q1, _c in moves}
        closers = [a for a, b in enumerate(auto.symbols) if b.is_closer]
        heads = {auto.start, *inter.boundary}
        heads |= {row[a] for row in auto.delta for a in closers}
        assert inside and not inside & (heads - {-1}), sorted(fam)


def test_pair_fold_has_the_grammar_shape():
    # one fold cell per ("P", a, b) nonterminal of the materialized grammar,
    # and the joins meet the continuation once per (a, b), not once per pair
    from ncdigraph.inference import _Intersection

    for fam in _PROGRAM_FAMS:
        for n in (1, 2, 3, 4, 5):
            _prog, (keys, shared, _groups, _openers, _finals) = _Intersection(n, fam)._compile()
            g = build_intersection_grammar(n, fam)
            p_lhs = {lhs for lhs, _rhs in g.productions if lhs[0] == "P"}
            assert len(p_lhs) == sum(key[0] == "P" and s >= 0 for key, s in zip(keys, shared))
    _prog, (keys, shared, groups, _openers, _finals) = _Intersection(9)._compile()
    joins = sum(len(lefts) for dst, (lefts, _rights) in groups.items()
                if shared[dst] >= 0 and keys[dst][0] != "P")
    # 169,631 before the fold, 25,639 before the trim to the reduced chart
    assert joins == 12_088


def test_grammar_sizes_on_the_benchmark_chart_grid():
    # the benchmark's inference.chart_items and inference.chart_productions:
    # nonterminals and productions summed over ∅ n = 3..6 and out-tree n = 5
    grid = [(frozenset(), n) for n in (3, 4, 5, 6)] + [(parse_property_set("out-tree"), 5)]
    grammars = [build_intersection_grammar(n, fam) for fam, n in grid]
    assert sum(len(g.nonterminals) for g in grammars) == 2_268
    assert sum(len(g.productions) for g in grammars) == 6_915


def _reduced(g):
    """Whether every nonterminal of g is reachable from the start and
    derives some terminal string."""
    table = g.by_lhs()
    productive: set = set()
    grew = True
    while grew:
        grew = False
        for lhs, rhss in table.items():
            if lhs not in productive and any(
                    all(sym not in table or sym in productive for sym in rhs)
                    for rhs in rhss):
                productive.add(lhs)
                grew = True
    reachable, todo = {g.start}, [g.start]
    while todo:
        for rhs in table[todo.pop()]:
            for sym in rhs:
                if sym in table and sym not in reachable:
                    reachable.add(sym)
                    todo.append(sym)
    return productive == reachable == set(table)


def test_intersection_grammar_is_reduced():
    rng = random.Random(43)
    for fam in _PROGRAM_FAMS:
        for n in (1, 2, 3, 4, 5):
            for lex in (None, _lexicon(n), _random_lexicon(rng, n)):
                g = build_intersection_grammar(n, fam, lex)
                if count_family_strings(n, fam, lex):
                    assert _reduced(g), (n, sorted(fam), lex)
                else:
                    assert g.nonterminals == {("S0",), ("DEAD",)}


def test_parse_max_all_ones_n3():
    w = WeightMatrix(3, {(i, j): 1 for i in range(1, 4)
                         for j in range(1, 4) if i != j})
    res = parse_max(w)
    assert res.weight == 6
    assert res.digraph.arcs == frozenset(
        {(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)})


def test_out_tree_has_n_minus_1_arcs():
    rng = random.Random(2)
    fam = parse_property_set("out-tree")
    for n in (2, 3, 4, 5):
        w = WeightMatrix(n, {(i, j): rng.randrange(1, 50)
                             for i in range(1, n + 1)
                             for j in range(1, n + 1) if i != j})
        res = parse_max(w, fam)
        assert len(res.digraph.arcs) == n - 1
        assert all(check_property(res.digraph, p) for p in fam)


def test_parse_matches_brute_random():
    rng = random.Random(4)
    fams = [frozenset(), frozenset({PropertyId.ACYC_D}),
            frozenset({PropertyId.OUT}), parse_property_set("polytree")]
    for n in (2, 3, 4):
        for fam in fams:
            for _ in range(5):
                w = random_weights(rng, n)
                pm = parse_max(w, fam)
                bm = brute_force_max(w, fam)
                assert pm.weight == bm.weight
                assert is_noncrossing(pm.digraph)
                assert all(check_property(pm.digraph, p) for p in fam)


def test_parse_tie_break_matches_brute():
    # tie-heavy weights: many equal-weight optima, broken by fewest arcs and
    # then by the smallest sorted arc list; the digraph, the weight and its
    # type must all match the oracle
    rng = random.Random(31)
    fams = [frozenset(), frozenset({PropertyId.ACYC_D}),
            frozenset({PropertyId.UNAMB_S}), frozenset({PropertyId.PROJ_W}),
            frozenset({PropertyId.INV}), parse_property_set("out-tree"),
            parse_property_set("polytree"), parse_property_set("mixed-tree")]
    small = (0, 1, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3))
    for n in (2, 3, 4, 5):
        for fam in fams:
            for trial in range(6 if n < 5 else 3):
                ints = trial % 3 > 0
                w = WeightMatrix(n, {(i, j): rng.randrange(3) if ints
                                     else rng.choice(small)
                                     for i in range(1, n + 1)
                                     for j in range(1, n + 1)
                                     if i != j and rng.random() < 0.7})
                pm = parse_max(w, fam)
                bm = brute_force_max(w, fam)
                assert pm.digraph == bm.digraph, (n, sorted(fam), w.w)
                assert pm.weight == bm.weight
                assert type(pm.weight) is type(bm.weight)


def test_no_numpy_anywhere():
    # the package, its CLI and the integer oracle path import no numpy
    script = """
import sys
import ncdigraph, ncdigraph.cli
from ncdigraph.inference import WeightMatrix, brute_force_max
res = brute_force_max(WeightMatrix(3, {(1, 2): 4, (2, 3): 1, (3, 1): 2}))
assert res.weight == 7 and type(res.weight) is int, res
assert ncdigraph.cli.run(["count", "-n", "5"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert not loaded, loaded
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "62464\n"


def test_zero_matrix_tie_breaking():
    w = WeightMatrix(4, {})
    res = parse_max(w)
    assert res.weight == 0
    assert res.digraph.arcs == frozenset()
    res = brute_force_max(w)
    assert res.digraph.arcs == frozenset()


def test_monotone_in_constraints():
    rng = random.Random(9)
    for _ in range(10):
        w = random_weights(rng, 4)
        w_all = parse_max(w).weight
        w_dag = parse_max(w, {PropertyId.ACYC_D}).weight
        w_tree = parse_max(w, parse_property_set("out-tree")).weight
        assert w_tree <= w_dag <= w_all


def test_scale_invariance_of_argmax():
    rng = random.Random(10)
    for _ in range(10):
        w = random_weights(rng, 4)
        scaled = WeightMatrix(4, {k: 7 * v for k, v in w.w.items()})
        assert parse_max(w).digraph == parse_max(scaled).digraph


def test_lexical_in_degree_zero():
    rng = random.Random(12)
    lex = LexicalConstraint({2: frozenset({"out-left", "out-right"})})
    for _ in range(5):
        w = random_weights(rng, 4)
        res = parse_max(w, (), lex)
        assert all(v != 2 for (_u, v) in res.digraph.arcs)


def test_no_parse_error():
    w = WeightMatrix(2, {(1, 2): 3})
    with pytest.raises(NoParseError):
        parse_max(w, {PropertyId.CONN_W, PropertyId.INV, PropertyId.ORIENTED})
    with pytest.raises(NoParseError):
        brute_force_max(w, {PropertyId.CONN_W, PropertyId.INV,
                            PropertyId.ORIENTED})


def test_fraction_weights_and_files():
    text = "n 3\n1 2 1.5\n2 3 0.25\n3 1 2\n"
    w = parse_weights(text)
    assert w.get(1, 2) == Fraction(3, 2)
    res = parse_max(w, {PropertyId.ACYC_D})
    brute = brute_force_max(w, {PropertyId.ACYC_D})
    assert res.weight == brute.weight
    assert isinstance(res.weight, Fraction) or res.weight == brute.weight


def test_parse_rejects_lexicon_vertex_out_of_range():
    w = WeightMatrix(3, {(1, 2): 1})
    for v in (0, 4, 7):
        lex = LexicalConstraint({v: frozenset({"bidir"})})
        with pytest.raises(ValueError, match="out of range"):
            parse_max(w, (), lex)


def test_chart_entry_points_reject_bad_input_before_caching():
    from ncdigraph.inference import _INTERSECTION_CACHE

    before = len(_INTERSECTION_CACHE)
    for call in (count_family_strings, build_intersection_grammar):
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                call(n)
        for v in (0, 4, 9):
            lex = LexicalConstraint({v: frozenset()})
            with pytest.raises(ValueError, match="out of range"):
                call(3, (), lex)
    assert len(_INTERSECTION_CACHE) == before


def test_weight_matrix_rejects_unrankable_weights():
    for val in (float("nan"), float("inf"), -float("inf"), "3", None, 1j):
        with pytest.raises(ValueError):
            WeightMatrix(2, {(1, 2): val})
    # finite floats are ranked exactly
    w = WeightMatrix(3, {(1, 2): 0.1, (2, 3): 0.2, (1, 3): 0.3})
    res = parse_max(w, {PropertyId.ACYC_U})
    assert res.digraph.arcs == frozenset({(1, 3), (2, 3)})
    assert res == brute_force_max(w, {PropertyId.ACYC_U})


def test_lexicon_parsing():
    lex = parse_lexicon("1 out-left,out-right\n3 bidir in-left\n")
    assert lex.allowed(1) == frozenset({"out-left", "out-right"})
    assert lex.allowed(2) == frozenset({"in-left", "in-right", "out-left",
                                        "out-right", "bidir"})


def _random_lexicon(rng, n):
    flags = sorted(LEX_FLAGS)
    return LexicalConstraint({v: frozenset(rng.sample(flags, rng.randrange(5)))
                              for v in range(1, n + 1) if rng.random() < 0.5})


def test_lexicons_share_one_program_per_family():
    # the lexicon is applied at replay, so it never keys the cache
    from ncdigraph.inference import _INTERSECTION_CACHE

    rng = random.Random(41)
    fams = (frozenset(), parse_property_set("out-tree"))
    _INTERSECTION_CACHE.clear()
    for fam in fams:
        for n in (3, 5, 7):
            for _ in range(6):
                lex = _random_lexicon(rng, n)
                count_family_strings(n, fam, lex)
                try:
                    parse_max(random_weights(rng, n), fam, lex)
                except NoParseError:
                    pass
    assert sorted(_INTERSECTION_CACHE, key=repr) == sorted(
        ((n, fam) for fam in fams for n in (3, 5, 7)), key=repr)


def _interval_max(w, lex):
    """Best weight of a noncrossing digraph whose arcs the lexicon allows,
    by an O(n^3) interval DP independent of the chart.  g[i][k] is the best
    gain of the vertex pair i < k on its own; f[i][j] is the best weight
    within vertices i..j, which may use the pair (i, j) since gains are
    nonnegative and the outer pair crosses nothing inside.  Without (i, j),
    either i has no partner or its farthest partner k < j splits i..j into
    i..k and k..j."""
    n = w.n
    need = {"f": ("out-right", "in-left"), "b": ("in-right", "out-left"),
            "i": ("bidir", "bidir")}
    g = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            gains = {"f": w.get(i, k), "b": w.get(k, i),
                     "i": w.get(i, k) + w.get(k, i)}
            g[i][k] = max([0] + [gain for o, gain in gains.items()
                                 if need[o][0] in lex.allowed(i)
                                 and need[o][1] in lex.allowed(k)])
    f = [[0] * (n + 2) for _ in range(n + 2)]
    for span in range(1, n):
        for i in range(1, n - span + 1):
            j = i + span
            inner = max([f[i + 1][j]] + [f[i][k] + f[k][j] for k in range(i + 1, j)])
            f[i][j] = g[i][j] + inner
    return f[1][n]


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_lexicon_parse_weight_matches_interval_dp(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    w = random_weights(rng, n)
    lex = _random_lexicon(rng, n)
    assert parse_max(w, (), lex).weight == _interval_max(w, lex)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_parse_weight_matches_interval_dp(seed):
    # no lexicon, sizes well past the brute-force oracle's n <= 6
    rng = random.Random(seed)
    n = rng.randint(1, 20)
    w = random_weights(rng, n)
    assert parse_max(w).weight == _interval_max(w, LexicalConstraint({}))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_parse_weight_is_arc_sum(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    w = random_weights(rng, n) if n > 1 else WeightMatrix(1, {})
    res = parse_max(w)
    assert res.weight == sum(w.get(i, j) for (i, j) in res.digraph.arcs)


@given(st.integers(min_value=1, max_value=7),
       st.sampled_from(("int", "fraction", "float")), st.booleans(),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_max_keys_follow_the_documented_formula(n, kind, with_lexicon, seed):
    # key(A) = W(A)·M1 − |A|·M2 + mask(A) for the arcs A of each pair, and
    # −(W_total+2)·M1 for a pair the lexicon forbids, as exact integers
    from ncdigraph.chains import BACKWARD, BIDIRECTIONAL, FORWARD
    from ncdigraph.inference import _MaxAlgebra

    rng = random.Random(seed)
    draw = {"int": lambda: rng.randrange(100),
            "fraction": lambda: Fraction(rng.randrange(50), rng.randrange(1, 12)),
            "float": lambda: rng.randrange(1000) / rng.choice((1, 3, 4, 10))}[kind]
    w = WeightMatrix(n, {(i, j): draw() for i in range(1, n + 1)
                         for j in range(1, n + 1) if i != j and rng.random() < 0.8})
    lex = _random_lexicon(rng, n) if with_lexicon else None
    exact = {ij: Fraction(v) for ij, v in w.w.items()}
    scale = math.lcm(*(f.denominator for f in exact.values()))
    m2 = 2 ** (n * n)
    m1 = (n * n + 2) * m2

    def key(arcs):
        weight = sum(exact.get(arc, 0) for arc in arcs) * scale
        mask = sum(2 ** (n * n - 1 - ((i - 1) * n + (j - 1))) for i, j in arcs)
        return int(weight) * m1 - len(arcs) * m2 + mask

    forbidden = -(int(sum(exact.values()) * scale) + 2) * m1
    alg = _MaxAlgebra(w, lex)
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            for o, arcs in ((FORWARD, [(u, v)]), (BACKWARD, [(v, u)]),
                            (BIDIRECTIONAL, [(u, v), (v, u)])):
                want = key(arcs) if lex is None or lex.allows(o, u, v) else forbidden
                got = alg.pair(o, u, v)
                assert got == want and type(got) is int
