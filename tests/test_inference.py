import math
import operator
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdigraph import cfg
from ncdigraph.digraphs import (Digraph, PropertyId, check_property,
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
    for n in (6, 7, 8, 9, 11, 12):
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
    want = {"": 23, "ACYC_D": 21, "ACYC_U": 18, "UNAMB_S": 20, "PROJ_W": 30,
            "OUT": 33, "polytree": 17, "out-tree": 24, "multitree": 17}
    got = {name: len(family_automaton(parse_property_set(name)).delta)
           for name in want}
    assert got == want


def test_family_automaton_is_the_minimal_product():
    # folding integer-table products gives the very table that minimizing
    # the symbol-by-symbol product of the recognizers gives: the same delta
    # and the same final, for the 64 ontology families and a few with INV
    # or PROJ_W, the empty {INV, ORIENTED, CONN_W} among them
    from itertools import combinations

    from ncdigraph.cfg import ProductDfa, TableDfa
    from ncdigraph.latent import alphabet, constraint_dfa, reg_lat
    from ncdigraph.ontology import SIX_PROPERTIES

    empty = frozenset({PropertyId.INV, PropertyId.ORIENTED, PropertyId.CONN_W})
    fams = [frozenset(c) for k in range(7) for c in combinations(SIX_PROPERTIES, k)]
    fams += [frozenset({PropertyId.INV}), frozenset({PropertyId.PROJ_W}), empty,
             parse_property_set("INV,CONN_W,ACYC_U"), parse_property_set("PROJ_W,OUT,ACYC_D"),
             frozenset(PropertyId)]
    for fam in fams:
        comps = [reg_lat()] + [constraint_dfa(p) for p in sorted(fam, key=lambda p: p.value)]
        want = TableDfa.compile(ProductDfa(comps), alphabet())
        got = family_automaton(fam)
        assert (got.delta, got.final) == (want.delta, want.final), sorted(p.value for p in fam)
    assert family_automaton(empty).delta == ((-1,) * len(alphabet()),)


def test_count_up_sets_equals_the_family_counts():
    # every up-set count of the depth-first walk is the family's chart
    # count, and the walk caches no table and no program
    from ncdigraph import inference
    from ncdigraph.inference import count_up_sets
    from ncdigraph.ontology import SIX_PROPERTIES

    for n in range(1, 7):
        programs = dict(inference._PROGRAMS)
        tables = family_automaton.cache_info().currsize
        up = count_up_sets(n, SIX_PROPERTIES)
        assert inference._PROGRAMS == programs
        assert family_automaton.cache_info().currsize == tables
        assert len(up) == 64
        for req, count in up.items():
            assert count == count_family_strings(n, req), (n, sorted(p.value for p in req))


def test_family_automaton_is_built_once_per_family():
    # the table knows no n and no lexicon: one build serves them all, and
    # so does one build of its candidate projections
    from ncdigraph.inference import _PROGRAMS, _projections, coarse_automaton

    fams = (frozenset(), parse_property_set("out-tree"))
    lex = LexicalConstraint({1: frozenset({"out-right", "in-right"})})
    _PROGRAMS.clear()
    for cached in (family_automaton, _projections, coarse_automaton):
        cached.cache_clear()
    for fam in fams:
        for n in range(1, 9):
            for lx in (None, lex):
                count_family_strings(n, fam, lx)
    assert family_automaton.cache_info().misses == len(fams)
    assert _projections.cache_info().misses == len(fams)


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


def _groups(program):
    """The rows of `program` as (dst, lefts, rights) groups, in replay order."""
    _ncells, _pairs, rows, _batches = program
    return [(row[0], row[1:k + 1], row[k + 1:]) for row in rows for k in [len(row) >> 1]]


def _assert_set_once_and_coreachable(ncells, pair_cells, groups, empty=(0,), cells=None):
    """Each cell (by default 0 .. ncells - 1) is set once, as an empty cell,
    a pair cell or by one group, a group reads only cells already set, the
    last group writes the last cell, the answer, and a search down from the
    answer meets every cell."""
    cells = sorted(range(ncells) if cells is None else cells)
    inputs = list(empty) + [c for c, *_kind in pair_cells]
    assert sorted(inputs + [d for d, _l, _r in groups]) == cells
    ready = set(inputs)
    for dst, lefts, rights in groups:
        assert ready.issuperset(lefts) and ready.issuperset(rights)
        ready.add(dst)
    assert groups[-1][0] == ncells - 1
    reads = {dst: lefts + rights for dst, lefts, rights in groups}
    seen = {ncells - 1}
    todo = list(seen)
    while todo:
        for c in reads.get(todo.pop(), ()):
            if c not in seen:
                seen.add(c)
                todo.append(c)
    assert seen == set(cells)


def _assert_level_batches(program):
    """Row i writes cell P + 1 + i, where a traceback finds it, and reads
    only earlier cells.  The batches hold the rows themselves, each row
    once: one batch per (level, term count), in program order, the batches
    sorted by level, where a row's level is 1 + its operands' top level,
    the identity and pair cells being level 0.  So a batch reads only
    cells its earlier batches set."""
    _ncells, pair_cells, rows, batches = program
    first = len(pair_cells) + 1
    level = [0] * first
    for i, row in enumerate(rows, first):
        assert row[0] == i and len(row) % 2 == 1 and max(row[1:]) < i
        level.append(1 + max(level[c] for c in row[1:]))
    seen, ready, batched = [], set(range(first)), []
    for k, batch in batches:
        assert batch and all(row is rows[row[0] - first] for row in batch)
        assert {(level[row[0]], len(row)) for row in batch} == {(level[batch[0][0]], 2 * k + 1)}
        assert all(ready.issuperset(row[1:]) for row in batch)
        ready.update(row[0] for row in batch)
        seen.append((level[batch[0][0]], k))
        cells = [row[0] for row in batch]
        assert cells == sorted(cells)
        batched += cells
    assert sorted(batched) == list(range(first, first + len(rows)))
    assert seen == sorted(set(seen))


def _is_empty_cell(key):
    kind, a, b = key
    return kind == "{}" or (kind == "S" and a == b)


def _times_join(alg):
    """The product and the join of `alg`, as plain Python functions."""
    return (operator.mul, sum) if alg.zero == 0 else (operator.add, max)


def _labelled_values(alg, keys, groups):
    """Reference replay of the compiler's labelled groups, one term at a
    time: the value of every cell the compiler made, before the
    sharing."""
    times, join = _times_join(alg)
    pairs = [(c, key[1], *key[2]) for c, key in enumerate(keys) if key[0] == "pair"]
    values = dict(zip([c for c, _o, _u, _v in pairs], alg.pairs(pairs)))
    for c, key in enumerate(keys):
        if _is_empty_cell(key):
            values[c] = alg.empty
    for dst, (lefts, rights) in groups.items():
        values[dst] = join(map(times, map(values.get, lefts), map(values.get, rights)))
    return values


def _kept_program(keys, shared, groups, finals):
    """The labelled groups of the kept cells (those with a shared cell) as
    a program over their labelled ids, with a root cell after them that
    joins each final with the empty S cell at its end node; its empty
    cells; and the kept ids."""
    kept = [c for c, s in enumerate(shared) if s >= 0]
    root = len(keys)
    ends = tuple(keys.index(("S", keys[c][2], keys[c][2])) for _qf, c in finals)
    program = (root + 1, [(c,) for c in kept if keys[c][0] == "pair"],
               [(dst, lefts, rights) for dst, (lefts, rights) in groups.items()
                if shared[dst] >= 0]
               + [(root, tuple(c for _qf, c in finals), ends)])
    return program, [c for c in kept if _is_empty_cell(keys[c])], kept


def test_compiled_program_leaves_no_dead_value():
    # the program is the reduced chart: every cell, pair value and P(a, b)
    # cell the compiler keeps counts > 0 and is read, through the labelled
    # groups, by a final.  The compiler makes only cells it keeps, so every
    # labelled cell has a shared cell, on the family and the coarse tables
    from ncdigraph.inference import _compile, _CountAlgebra, coarse_automaton

    for fam in _PROGRAM_FAMS:
        for n in (1, 2, 3, 4, 5):
            for auto in (family_automaton(fam), coarse_automaton(n, fam)):
                _prog, (keys, shared, groups, openers, finals) = _compile(n, auto)
                assert all(s >= 0 for s in shared), (n, sorted(fam), len(auto.delta))
                labelled, empty, kept = _kept_program(keys, shared, groups, finals)
                cells = _labelled_values(_CountAlgebra(), keys, groups)
                assert len(shared) == len(keys) == len(cells)
                assert all(cells[c] > 0 for c in kept)
                assert all(cells[left] * cells[right] > 0
                           for _dst, lefts, rights in labelled[2]
                           for left, right in zip(lefts, rights))
                folds = [c for c in kept if keys[c][0] == "P"]
                assert (n > 1) == bool(folds) and all(cells[f] > 0 for f in folds)
                assert sorted(set(openers) & set(kept)) == folds
                assert all(keys[f][0] == "P" for f in openers)
                _assert_set_once_and_coreachable(*labelled, empty, kept + [labelled[0] - 1])


def test_compile_builds_only_the_terms_it_keeps():
    # at n = 20 each coarse table's labelled compile holds exactly the
    # terms of its kept cells; a compile that built forward and trimmed
    # afterwards made 29,565 terms for out-tree and 7,922 for mixed-tree
    from ncdigraph.inference import _compile, coarse_automaton

    want = {"out-tree": 16_168, "mixed-tree": 5_413, "polytree": 4_881, "PROJ_W": 19_060,
            "": 5_262}
    got = {}
    for name in want:
        _prog, (keys, shared, groups, _openers, _finals) = _compile(
            20, coarse_automaton(20, _family(name)))
        assert all(s >= 0 for s in shared), name
        got[name] = sum(len(lefts) for lefts, _rights in groups.values())
    assert got == want


def test_compile_walk_depth_does_not_grow_with_n():
    # a two-state table over { } alone: its one string at n is n - 1
    # boundary pairs, so the chart is one chain of n - 1 S cells, each
    # reading the next.  The compile walks it on a stack of its own, so
    # n = 1,100 is past the interpreter's default recursion limit of 1,000
    from ncdigraph.cfg import TableDfa
    from ncdigraph.inference import _compile, _CountAlgebra, _replay
    from ncdigraph.latent import BOUNDARY_CLOSE, BOUNDARY_OPEN

    table = TableDfa((BOUNDARY_OPEN, BOUNDARY_CLOSE), ((1, -1), (-1, 0)), (True, False))
    assert _replay(_compile(1_100, table)[0], _CountAlgebra())[-1] == 1


_SHARED_CASES = ([(frozenset(), n) for n in range(1, 10)]
                 + [(fam, n) for fam in (parse_property_set("out-tree"),
                                         frozenset({PropertyId.PROJ_W}),
                                         frozenset({PropertyId.UNAMB_S}),
                                         frozenset({PropertyId.ACYC_D}))
                    for n in range(1, 8)])


def test_shared_program_gives_the_unshared_values():
    # a compiled program is the hash-consed reduced chart: under either
    # algebra, with or without a lexicon, its answer is the join of the
    # finals' values in the labelled groups, and every kept cell, each
    # final among them, has its labelled value through its shared id.
    # This holds for the family table's compile, which grammar
    # materialization reads, and for the coarse table's, which is the
    # cached replay program
    from ncdigraph.inference import (_compile, _CountAlgebra, _MaxAlgebra, _program,
                                     _replay, coarse_automaton)

    rng = random.Random(47)
    for fam, n in _SHARED_CASES:
        for auto in (family_automaton(fam), coarse_automaton(n, fam)):
            program, (keys, shared, groups, _openers, finals) = _compile(n, auto)
            assert program[2][-1] == (program[0] - 1, *(shared[c] for _qf, c in finals),
                                      *(0,) * len(finals))
            for lex in (None, _random_lexicon(rng, n)):
                w = random_weights(rng, n, hi=100)
                for alg in (_CountAlgebra(lex), _MaxAlgebra(w, lex)):
                    want = _labelled_values(alg, keys, groups)
                    got = _replay(program, alg)
                    _times, join = _times_join(alg)
                    assert got[-1] == join(want[c] for _qf, c in finals), (n, sorted(fam), lex)
                    assert all(got[s] == want[c] for c, s in enumerate(shared) if s >= 0)
        assert program == _program(n, fam)


def test_shared_program_is_maximally_shared():
    # set once, read after set and co-reachable, like the labelled groups,
    # and replayed in level batches; the identity at 0 and the pair cells
    # at 1..P; before the root, one cell per term multiset and no group that
    # only renames its one non-identity operand; the root joins each final
    # with the identity
    from ncdigraph.inference import _program

    for fam, n in _SHARED_CASES:
        program = _program(n, fam)
        ncells, pair_cells, _rows, _batches = program
        groups = _groups(program)
        _assert_set_once_and_coreachable(ncells, pair_cells, groups)
        _assert_level_batches(program)
        assert [c for c, _o, _u, _v in pair_cells] == list(range(1, len(pair_cells) + 1))
        assert len({(o, u, v) for _c, o, u, v in pair_cells}) == len(pair_cells)
        *body, (root, finals, identities) = groups
        terms = [tuple(sorted(zip(lefts, rights))) for _d, lefts, rights in body]
        assert len(set(terms)) == len(terms), (n, sorted(fam))
        assert not any(len(t) == 1 and 0 in t[0] for t in terms)
        assert root == ncells - 1 and finals and identities == (0,) * len(finals)


def test_shared_program_keeps_repeated_terms():
    # two joins that become the same term after sharing are both kept, so a
    # count replay still counts each derivation.  No family table makes
    # such a chart, so a hand-made one does: two forward openers, each
    # followed by its own boundary pair and its own closer into one final
    # state, give P(1, 2) two labelled terms that share to one
    from ncdigraph.cfg import TableDfa
    from ncdigraph.chains import FORWARD
    from ncdigraph.inference import _compile, _CountAlgebra, _replay
    from ncdigraph.latent import BOUNDARY_CLOSE, BOUNDARY_OPEN, alphabet

    symbols = alphabet()
    o1, o2 = [b for b in symbols if b.is_opener and b.orientation == FORWARD][:2]
    moves = {(0, o1): 1, (1, BOUNDARY_OPEN): 2, (2, BOUNDARY_CLOSE): 3, (3, o1.partner()): 4,
             (0, o2): 5, (5, BOUNDARY_OPEN): 6, (6, BOUNDARY_CLOSE): 7, (7, o2.partner()): 4}
    table = TableDfa(symbols, tuple(tuple(moves.get((q, b), -1) for b in symbols)
                                    for q in range(8)),
                     tuple(q == 4 for q in range(8)))
    program, (keys, shared, groups, _openers, _finals) = _compile(2, table)
    # cell 0 is the identity, 1 the pair, 2 joins it with each boundary pair
    # and 3, the answer, joins the one final with the identity: one batch
    # of one two-term row, then one of one one-term row
    rows = ((2, 1, 1, 0, 0), (3, 2, 0))
    assert program == (4, ((1, FORWARD, 1, 2),), rows, ((2, rows[:1]), (1, rows[1:])))
    [(lefts, rights)] = [lr for dst, lr in groups.items() if keys[dst][0] == "P" and shared[dst] == 2]
    assert len(set(zip(lefts, rights))) == 2
    assert _replay(program, _CountAlgebra())[2:] == [2, 2]


def test_chart_compiles_any_table_of_paired_brackets():
    # the chart reads each opener's closer from the table's own symbols, so
    # a table over brackets that alphabet() does not hold compiles too: one
    # forward pair / > and the boundary pair, with a state after the
    # opener, one after {, and one final state for everything else.  Its
    # strings are the noncrossing graphs, each edge one forward arc, so the
    # counts are theirs and a max replay picks the best such graph under
    # the documented tie-break
    from ncdigraph.cfg import TableDfa
    from ncdigraph.digraphs import enumerate_noncrossing_graphs
    from ncdigraph.inference import (_compile, _CountAlgebra, _MaxAlgebra,
                                     _replay, _tight_arcs)
    from ncdigraph.latent import LatentBracket, alphabet

    opener = LatentBracket("/", None)
    symbols = (LatentBracket("{", None), LatentBracket("}", None), opener, opener.partner())
    assert not set(symbols[2:]) & set(alphabet())
    moves = {(0, 0): 2, (1, 0): 2, (2, 1): 0, (0, 2): 1, (1, 2): 1, (0, 3): 0}
    table = TableDfa(symbols, tuple(tuple(moves.get((q, a), -1) for a in range(4))
                                    for q in range(3)), (True, False, False))
    rng = random.Random(26)
    for n in range(1, 7):
        program = _compile(n, table)[0]
        graphs = [sorted(g.edges) for g in enumerate_noncrossing_graphs(n)]
        assert _replay(program, _CountAlgebra())[-1] == len(graphs)
        if n > 5:
            continue
        w = WeightMatrix(n, {(i, j): rng.choice((0, 1, 2)) for i in range(1, n + 1)
                             for j in range(1, n + 1) if i != j})
        best = min(graphs, key=lambda arcs: (-sum(w.get(*a) for a in arcs), len(arcs), arcs))
        cells = _replay(program, _MaxAlgebra(w))
        assert _tight_arcs(program, cells, n) == frozenset(best)


def test_join_kernels_replay_long_and_single_groups():
    # a hand-made program: one identity cell, the pair cells of n = 6, a
    # ladder of batches j of two rows, one joining j identity terms and one
    # j terms over pair cells, then a batch of one row of 5,000 random terms
    # over all of them and a batch of one one-term row; each row's value is
    # the join computed here, under both algebras, and a kernel is compiled
    # once per term count and shared by the algebra's instances
    from ncdigraph.chains import BACKWARD, BIDIRECTIONAL, FORWARD
    from ncdigraph.inference import _CountAlgebra, _MaxAlgebra, _replay

    n, rng = 6, random.Random(59)
    pairs = tuple((1 + i, o, u, v) for i, (o, u, v) in enumerate(
        (o, u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
        for o in (FORWARD, BACKWARD, BIDIRECTIONAL)))
    first = 1 + len(pairs)
    groups = []
    for j in range(1, 9):
        groups.append(((0,) * j, (0,) * j))
        groups.append((tuple(rng.randrange(1, first) for _ in range(j)),
                       tuple(rng.randrange(first) for _ in range(j))))
    ncells = first + len(groups)
    groups.append((tuple(rng.randrange(ncells) for _ in range(5000)),
                   tuple(rng.randrange(ncells) for _ in range(5000))))
    groups.append(((ncells,), (rng.randrange(ncells),)))
    rows = tuple((first + i, *lefts, *rights) for i, (lefts, rights) in enumerate(groups))
    batches = tuple((j, rows[2 * j - 2:2 * j]) for j in range(1, 9)) + (
        (5000, rows[16:17]), (1, rows[17:]))
    program = (first + len(rows), pairs, rows, batches)
    _assert_level_batches(program)
    lex = _random_lexicon(rng, n)
    for alg, times, join in ((_CountAlgebra(lex), operator.mul, sum),
                             (_MaxAlgebra(random_weights(rng, n), lex), operator.add, max)):
        want = [alg.empty, *alg.pairs(pairs)]
        for lefts, rights in groups:
            want.append(join(times(want[a], want[b]) for a, b in zip(lefts, rights)))
        assert _replay(program, alg) == want
        assert alg.kernels[5000] is alg.kernels[5000] is type(alg).kernels[5000]
        assert alg.kernels[1] is alg.kernels[1]


def test_shared_program_sizes():
    # the family table's compile at ∅ n = 9, unshared: 4,193 cells, 3,857
    # groups and 24,260 terms; shared, before the root cell and its row:
    # 1,599 cells, 1,490 rows and 11,932 terms, and the root adds one term
    # per final (20); the rows replay in 149 level batches.  The replay
    # program, on the 5-state coarse table, is far smaller
    from ncdigraph.inference import _compile, _program

    def sizes(program):
        ncells, _pairs, rows, batches = program
        return ncells, len(rows), sum(len(row) >> 1 for row in rows), len(batches)

    program, (keys, _shared, groups, _openers, _finals) = _compile(9, family_automaton(frozenset()))
    assert sizes(program) == (1_600, 1_491, 11_952, 149)
    assert sizes(_program(9)) == (201, 92, 324, 23)
    assert (len(keys), len(groups), sum(len(lefts) for lefts, _rights in groups.values())) == (
        4_193, 3_857, 24_260)


def test_each_algebra_compiles_the_kernels_it_replays(monkeypatch):
    # with both kernel tables empty, a count compiles the count kernel of
    # every term count of its program, the root's included, and no max
    # kernel; the first parse then compiles the max kernels, and a second
    # count and a second parse compile none
    from ncdigraph import inference
    from ncdigraph.inference import _CountAlgebra, _MaxAlgebra

    fam, n = parse_property_set("mixed-tree"), 8
    w = random_weights(random.Random(71), n)
    monkeypatch.setattr(inference, "_PROGRAMS", {})
    monkeypatch.setattr(_CountAlgebra, "kernels", {})
    monkeypatch.setattr(_MaxAlgebra, "kernels", {})
    made = []
    kernel = inference._kernel
    monkeypatch.setattr(inference, "_kernel",
                        lambda algebra, k: made.append((algebra, k)) or kernel(algebra, k))
    count = count_family_strings(n, fam)
    sizes = {k for k, _batch in inference._PROGRAMS[n, fam][3]}
    assert len(sizes) > 1
    assert sorted(k for _alg, k in made) == sorted(sizes)
    assert {alg for alg, _k in made} == {_CountAlgebra}
    assert set(_CountAlgebra.kernels) == sizes and _MaxAlgebra.kernels == {}
    made.clear()
    parse = parse_max(w, fam)
    assert sorted(k for _alg, k in made) == sorted(sizes)
    assert {alg for alg, _k in made} == {_MaxAlgebra}
    assert set(_MaxAlgebra.kernels) == sizes
    made.clear()
    assert (count_family_strings(n, fam), parse_max(w, fam)) == (count, parse)
    assert made == []


# max keys with many ties: the zero, two forbidden-size keys and small and
# wide legal ones; a count cell holds 0 where a max cell holds the zero
_KEY_POOL = (-math.inf, -(7 << 90), -(7 << 90) + 1, 0, 1, 2, 3, 1 << 64, (1 << 64) + 1)


@lru_cache(maxsize=None)
def _join_kernel(algebra, k):
    """`_kernel(algebra, k)`, compiled once per term count for the
    hypothesis test below, as a replay compiles it once."""
    from ncdigraph.inference import _kernel

    return _kernel(algebra, k)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_join_kernels_match_the_builtin_joins(data):
    # for each term count k: up to 8 cells drawn from the pool, then one
    # cell above every pool key and one legal 0, and a batch of one to
    # three rows of k terms over them, each writing a cell of its own; the
    # top term (top, 0) goes first, last, at every third term or nowhere,
    # so the maximum is met at either end and in ties
    from ncdigraph.inference import _CountAlgebra, _MaxAlgebra

    for k in range(1, 65):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        keys = rng.choices(_KEY_POOL, k=rng.randrange(1, 9))
        top, zero = len(keys), len(keys) + 1
        keys += [1 << 100, 0]
        where = data.draw(st.sampled_from(("first", "last", "every third", "nowhere")))
        rows = []
        for d in range(len(keys), len(keys) + rng.randrange(1, 4)):
            lefts = [rng.randrange(len(keys)) for _ in range(k)]
            rights = [rng.randrange(len(keys)) for _ in range(k)]
            for i in {"first": [0], "last": [k - 1], "every third": range(0, k, 3),
                      "nowhere": []}[where]:
                lefts[i], rights[i] = top, zero
            rows.append((d, *lefts, *rights))
        counts = [0 if key == -math.inf else key for key in keys]
        maxes, sums = keys + [None] * len(rows), counts + [None] * len(rows)
        _join_kernel(_MaxAlgebra, k)(maxes, tuple(rows))
        _join_kernel(_CountAlgebra, k)(sums, tuple(rows))
        for d, *operands in rows:
            terms = list(zip(operands[:k], operands[k:]))
            assert maxes[d] == max(keys[a] + keys[b] for a, b in terms), (k, where)
            assert sums[d] == sum(counts[a] * counts[b] for a, b in terms), (k, where)


def test_generated_max_kernels_call_no_max():
    # the max join is a chain of compares, k - 1 per row, not a call of the
    # builtin
    import dis

    from ncdigraph.inference import _kernel, _MaxAlgebra

    for k in (1, 2, 7, 64):
        code = _kernel(_MaxAlgebra, k).__code__
        assert "max" not in code.co_names
        assert sum(i.opname == "COMPARE_OP" for i in dis.get_instructions(code)) == k - 1


def test_cold_kernel_tables_fill_before_any_parse(monkeypatch):
    # with both kernel tables empty and nothing cached for the key, the
    # grammar, the count and the parse all run and give what a warm run
    # gives.  The grammar compiles the family table; the count then
    # compiles the coarse table, a different one for polytree, and only
    # count kernels; the parse compiles no program, since the count cached
    # the one it replays, and only max kernels
    from ncdigraph import inference

    fam, n = parse_property_set("polytree"), 7
    rng = random.Random(67)
    w, lex = random_weights(rng, n), _random_lexicon(rng, n)
    coarse = inference.coarse_automaton(n, fam)
    assert coarse is not family_automaton(fam)

    monkeypatch.setattr(inference, "_PROGRAMS", {})
    monkeypatch.setattr(inference, "_CHARTS", {})
    monkeypatch.setattr(inference._CountAlgebra, "kernels", {})
    monkeypatch.setattr(inference._MaxAlgebra, "kernels", {})
    compiled, kernels = [], []
    for name, made in (("_compile", compiled), ("_kernel", kernels)):
        made_by = getattr(inference, name)
        monkeypatch.setattr(inference, name,
                            lambda *args, f=made_by, made=made: made.append(args) or f(*args))
    grammar = build_intersection_grammar(n, fam, lex)
    assert compiled == [(n, family_automaton(fam))] and inference._PROGRAMS == {}
    compiled.clear()
    kernels.clear()
    count = count_family_strings(n, fam, lex)
    assert compiled == [(n, coarse)]
    assert {args[0] for args in kernels} <= {inference._CountAlgebra}
    compiled.clear()
    kernels.clear()
    parse = parse_max(w, fam)
    assert compiled == []
    assert kernels and {args[0] for args in kernels} == {inference._MaxAlgebra}
    monkeypatch.undo()
    # a warm run: fresh compiles, with every kernel already made
    inference._PROGRAMS.pop((n, fam), None)
    inference._CHARTS.pop((n, fam), None)
    assert (grammar, count, parse) == (build_intersection_grammar(n, fam, lex),
                                       count_family_strings(n, fam, lex), parse_max(w, fam))


def test_grammar_materialization_caches_its_own_compile(monkeypatch):
    # the grammar keeps the family table's labelled compile per (n, family)
    # apart from the coarse replay programs: a second grammar of the key,
    # under another lexicon, compiles nothing and gives what a fresh
    # compile gives, and neither call caches a replay program
    from ncdigraph import inference

    fam, n = parse_property_set("mixed-tree"), 6
    rng = random.Random(73)
    lexicons = [_random_lexicon(rng, n) for _ in range(2)]
    monkeypatch.setattr(inference, "_PROGRAMS", {})
    monkeypatch.setattr(inference, "_CHARTS", {})
    compiled = []
    compile_ = inference._compile
    monkeypatch.setattr(inference, "_compile",
                        lambda *args: compiled.append(args) or compile_(*args))
    first = build_intersection_grammar(n, fam, lexicons[0])
    assert len(compiled) == 1
    second = build_intersection_grammar(n, fam, lexicons[1])
    assert len(compiled) == 1 and inference._PROGRAMS == {}
    inference._CHARTS.clear()
    assert (first, second) == tuple(build_intersection_grammar(n, fam, lex) for lex in lexicons)
    assert len(compiled) == 2


def test_empty_family_program_has_no_root():
    # {INV, ORIENTED, CONN_W} has no member past one vertex: no final, so
    # no root group, and the answer cell keeps the algebra's zero
    from ncdigraph.inference import _program

    fam = frozenset({PropertyId.INV, PropertyId.ORIENTED, PropertyId.CONN_W})
    rng = random.Random(61)
    for n in range(2, 7):
        assert _program(n, fam) == (2, (), (), ())
        assert count_family_strings(n, fam) == 0
        with pytest.raises(NoParseError):
            parse_max(random_weights(rng, n), fam)
        g = build_intersection_grammar(n, fam)
        assert g.start == ("S0",)
        assert set(g.productions) == {(("S0",), (("DEAD",),)), (("DEAD",), (("DEAD",),))}


def test_identity_is_cell_0_when_only_the_root_reads_it():
    # at n = 2 a connected digraph has an arc, so no row of the family
    # table's programs but the root reads the identity.  (A coarse table
    # may merge the finals into one state, whose P cell then joins each
    # pair with the empty inside, so there the invariant need not hold.)
    from ncdigraph.inference import _compile, _CountAlgebra, _family_members, _program, _replay

    for name in ("CONN_W", "polytree", "mixed-tree", "wc-dag", "out-tree"):
        fam = parse_property_set(name)
        program = _compile(2, family_automaton(fam))[0]
        ncells = program[0]
        *body, (root, finals, identities) = _groups(program)
        assert not any(0 in lefts + rights for _dst, lefts, rights in body), name
        assert root == ncells - 1 and identities == (0,) * len(finals)
        cells = _replay(program, _CountAlgebra())
        assert cells[0] == 1
        assert cells[-1] == count_family_strings(2, fam) == len(_family_members(2, fam)[0])
        assert _replay(_program(2, fam), _CountAlgebra())[-1] == cells[-1]


def test_pair_insides_and_sequences_have_distinct_heads():
    # the compiler gives each node one row of S cells, chosen by its state:
    # pair insides for a state right after an opener, sequences for the
    # start, a state after {} and a state after a closer; no state is both.
    # This holds for every family table and every candidate coarse table
    from ncdigraph.inference import _moves, _projections

    names = [p.value for p in PropertyId] + [
        "polytree", "mixed-tree", "multitree", "wc-dag", "out-tree"]
    fams = {parse_property_set(name) for name in names} | set(_PROGRAM_FAMS)
    for fam in fams:
        for auto in (family_automaton(fam), *_projections(fam)):
            boundary, openers = _moves(auto)
            inside = {q1 for moves in openers for _o, q1, _c in moves}
            closers = [a for a, b in enumerate(auto.symbols) if b.is_closer]
            heads = {auto.start, *boundary}
            heads |= {row[a] for row in auto.delta for a in closers}
            assert inside and not inside & (heads - {-1}), (sorted(fam), len(auto.delta))


# the fourteen family specs of the certificate tests, by name
_COARSE_GRID = ("", "out-tree", "mixed-tree", "polytree", "OUT", "PROJ_W", "ACYC_D",
                "UNAMB_S", "CONN_W", "ORIENTED,ACYC_U", "ORIENTED,INV,CONN_W",
                "multitree", "INV", "wc-dag")


def _family(name):
    return parse_property_set(name) if name else frozenset()


def test_span_count_is_the_positional_count():
    # positions dropped, the chart's row rules count what the positional
    # replay counts, on the family table and on the chosen coarse table
    from ncdigraph.inference import _compile, _CountAlgebra, _replay, _span_count, coarse_automaton

    for name in _COARSE_GRID:
        fam = _family(name)
        for n in range(1, 11):
            for auto in (family_automaton(fam), coarse_automaton(n, fam)):
                assert _span_count(auto, n) == _replay(_compile(n, auto)[0], _CountAlgebra())[-1], (
                    name, n, len(auto.delta))
    # and past the replays: f(32) of the interval recurrence
    f = _weighted_nc_graph_counts(32)
    assert _span_count(family_automaton(frozenset()), 32) == f[32]


def test_coarse_tables_each_family_replays():
    # (states, symbols) of the table each family replays at n = 9: a
    # projection for every family but UNAMB_S and multitree, which keep
    # their family tables over all 162 symbols.  14 symbols keep (base,
    # prime), 20 add loose, and more keep the classes the family reads
    from ncdigraph.inference import coarse_automaton

    want = {"": (5, 14), "out-tree": (8, 20), "mixed-tree": (5, 20), "polytree": (5, 20),
            "OUT": (8, 14), "PROJ_W": (7, 14), "ACYC_D": (8, 36), "UNAMB_S": (20, 162),
            "CONN_W": (6, 20), "ORIENTED,ACYC_U": (5, 20), "ORIENTED,INV,CONN_W": (1, 14),
            "multitree": (17, 162), "INV": (5, 14), "wc-dag": (9, 42)}
    got = {}
    for name in _COARSE_GRID:
        auto = coarse_automaton(9, _family(name))
        got[name] = (len(auto.delta), len(auto.symbols))
        assert (auto is family_automaton(_family(name))) == (name in ("UNAMB_S", "multitree"))
    assert got == want


def test_a_too_coarse_projection_fails_the_certificate():
    # out-tree under (base, prime) derives more strings than the family
    # has at n = 9, so the parser takes (base, prime, loose), a table
    # whose pairs keep base, prime and loose and nothing else; UNAMB_S
    # and multitree fail every projection and keep their family tables
    from ncdigraph.inference import _projections, _span_count, coarse_automaton

    fam = parse_property_set("out-tree")
    coarsest, loose = _projections(fam)[:2]
    assert _span_count(coarsest, 9) > _span_count(family_automaton(fam), 9) == 9 * 43_263
    assert coarse_automaton(9, fam) is loose
    openers = [b for b in loose.symbols if b.is_opener]
    assert {b.base for b in openers} == {"/", "<", "["}
    assert len({(b.base, b.primed, b.loose) for b in openers}) == len(openers) == 9
    for name in ("UNAMB_S", "multitree"):
        fam = parse_property_set(name)
        for n in range(3, 10):
            want = _span_count(family_automaton(fam), n)
            assert all(_span_count(t, n) != want for t in _projections(fam)), (name, n)
            assert coarse_automaton(n, fam) is family_automaton(fam)


@lru_cache(maxsize=None)
def _family_program(n, fam):
    """The replay program of the family table itself, compiled once."""
    from ncdigraph.inference import _compile

    return _compile(n, family_automaton(fam))[0]


def _program_max(program, w, lex):
    """The answer key of a max replay of `program` and the tie-break's
    arcs, or None where no member is left."""
    from ncdigraph.inference import _MaxAlgebra, _replay, _tight_arcs

    cells = _replay(program, _MaxAlgebra(w, lex))
    if cells[-1] < -w.n * w.n:
        return None
    return cells[-1], _tight_arcs(program, cells, w.n)


@given(st.sampled_from([name for name in _COARSE_GRID if name not in ("UNAMB_S", "multitree")]),
       st.integers(min_value=1, max_value=9), st.booleans(),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_coarse_parses_equal_the_family_table_parses(name, n, with_lexicon, seed):
    # the coarse program and the family table's program give the same max
    # key and the same tie-break, and under a lexicon the same count
    from ncdigraph.inference import _CountAlgebra, _program, _replay

    fam = _family(name)
    rng = random.Random(seed)
    w = random_weights(rng, n, hi=rng.choice((2, 100)))
    lex = _random_lexicon(rng, n) if with_lexicon else None
    coarse, full = _program(n, fam), _family_program(n, fam)
    assert _program_max(coarse, w, lex) == _program_max(full, w, lex)
    assert _replay(coarse, _CountAlgebra(lex))[-1] == _replay(full, _CountAlgebra(lex))[-1]


def test_pair_fold_has_the_grammar_shape():
    # one fold cell per ("P", a, b) nonterminal of the materialized grammar,
    # and the joins meet the continuation once per (a, b), not once per pair
    from ncdigraph.inference import _compile

    for fam in _PROGRAM_FAMS:
        for n in (1, 2, 3, 4, 5):
            _prog, (keys, shared, _groups, _openers, _finals) = _compile(n, family_automaton(fam))
            g = build_intersection_grammar(n, fam)
            p_lhs = {lhs for lhs, _rhs in g.productions if lhs[0] == "P"}
            assert len(p_lhs) == sum(key[0] == "P" and s >= 0 for key, s in zip(keys, shared))
    _prog, (keys, shared, groups, _openers, _finals) = _compile(9, family_automaton(frozenset()))
    joins = sum(len(lefts) for dst, (lefts, _rights) in groups.items()
                if shared[dst] >= 0 and keys[dst][0] != "P")
    # a chart without the fold joined 169,631 times, and one built forward
    # and then trimmed to the reduced chart built 25,639 joins
    assert joins == 12_088


def test_grammar_sizes_on_the_benchmark_chart_grid():
    # the benchmark's inference.chart_items and inference.chart_productions:
    # nonterminals and productions summed over ∅ n = 3..6 and out-tree n = 5
    grid = [(frozenset(), n) for n in (3, 4, 5, 6)] + [(parse_property_set("out-tree"), 5)]
    grammars = [build_intersection_grammar(n, fam) for fam, n in grid]
    assert sum(len(g.nonterminals) for g in grammars) == 2_268
    assert sum(len(g.productions) for g in grammars) == 6_915


def test_grammar_productions_do_not_depend_on_the_hash_seed():
    # the productions come in the order the grammar walk meets them, so two
    # interpreters with different hash seeds list the same tuple
    script = """
from ncdigraph.digraphs import parse_property_set
from ncdigraph.inference import LexicalConstraint, build_intersection_grammar
lex = LexicalConstraint({2: frozenset({"in-left", "out-right"}),
                         4: frozenset({"bidir", "in-right", "out-left"})})
print(repr(build_intersection_grammar(5, parse_property_set("polytree"), lex).productions))
print(repr(build_intersection_grammar(4).productions))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]
    assert len(out[0].splitlines()) == 2 and "S0" in out[0]


# the family specs of scripts/sweep_outputs.py
_SWEEP_FAMILIES = ("", "OUT", "INV", "ORIENTED", "PROJ_W", "ACYC_D", "ACYC_U", "CONN_W",
                   "UNAMB_S", "polytree", "mixed-tree", "multitree", "wc-dag", "out-tree",
                   "OUT,PROJ_W", "ORIENTED,ACYC_U,CONN_W")


def test_grammar_productions_come_in_the_stated_order():
    # whatever order the compile numbers its cells in, the start's
    # productions come first, and every production that names another
    # nonterminal comes before that nonterminal's first production
    rng = random.Random(29)
    for name in _SWEEP_FAMILIES:
        for n in (1, 2, 3, 4):
            for lex in (None, _random_lexicon(rng, n)):
                productions = build_intersection_grammar(n, _family(name), lex).productions
                starts = [i for i, (lhs, _rhs) in enumerate(productions) if lhs == ("S0",)]
                assert starts == list(range(len(starts))) and starts, (name, n, lex)
                first: dict = {}  # nonterminal -> index of its first production
                for i, (lhs, _rhs) in enumerate(productions):
                    first.setdefault(lhs, i)
                named: dict = {}  # nonterminal -> index of the last production naming it
                for i, (lhs, rhs) in enumerate(productions):
                    for sym in rhs:
                        if sym in first and sym != lhs:
                            named[sym] = i
                assert set(named) == set(first) - {("S0",)}, (name, n, lex)
                assert all(named[x] < first[x] for x in named), (name, n, lex)


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


def test_tight_traceback_breaks_a_tie_by_the_arc_masks():
    # a hand-made program on 4 vertices, five forward pairs of weight 1:
    # cell 6 reads the pairs (2, 4) and (1, 2); cell 7 joins {(2, 3), (3, 4)}
    # and then {(1, 3), (3, 4)}; the answer, cell 8, joins cell 7 and then
    # cell 6.  Every derivation has two arcs of weight 2, so every term is
    # tight and both multi-term rows tie; the tie-break's choice is the
    # smallest sorted list, [(1, 2), (2, 4)], where taking the first tight
    # term of each row would give [(2, 3), (3, 4)]
    from ncdigraph.chains import FORWARD
    from ncdigraph.inference import _MaxAlgebra, _replay, _tight_arcs

    arcs = [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4)]
    pairs = tuple((c, FORWARD, u, v) for c, (u, v) in enumerate(arcs, 1))
    rows = ((6, 5, 1), (7, 2, 4, 3, 3), (8, 7, 6, 0, 0))
    program = (9, pairs, rows, ((1, rows[:1]), (2, rows[1:2]), (2, rows[2:])))
    _assert_level_batches(program)
    cells = _replay(program, _MaxAlgebra(WeightMatrix(4, dict.fromkeys(arcs, 1))))
    assert cells[6:] == [2 * 16 - 2] * 3
    assert _tight_arcs(program, cells, 4) == {(1, 2), (2, 4)}


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
    from ncdigraph.inference import _CHARTS, _PROGRAMS

    before = len(_PROGRAMS), len(_CHARTS)
    for call in (count_family_strings, build_intersection_grammar):
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                call(n)
        for v in (0, 4, 9):
            lex = LexicalConstraint({v: frozenset()})
            with pytest.raises(ValueError, match="out of range"):
                call(3, (), lex)
    assert (len(_PROGRAMS), len(_CHARTS)) == before


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
    from ncdigraph.inference import _PROGRAMS

    rng = random.Random(41)
    fams = (frozenset(), parse_property_set("out-tree"))
    _PROGRAMS.clear()
    for fam in fams:
        for n in (3, 5, 7):
            for _ in range(6):
                lex = _random_lexicon(rng, n)
                count_family_strings(n, fam, lex)
                try:
                    parse_max(random_weights(rng, n), fam, lex)
                except NoParseError:
                    pass
    assert sorted(_PROGRAMS, key=repr) == sorted(
        ((n, fam) for fam in fams for n in (3, 5, 7)), key=repr)


def _interval_max(w, lex, value=None):
    """Best value of a noncrossing digraph whose arcs the lexicon allows,
    by an O(n^3) interval DP independent of the chart.  value(arcs) is what
    the arcs of one vertex pair add, by default their weight, and the pair
    on its own adds the best of the options the lexicon allows and 0, no
    arc.  g[i][k] is that best gain of the vertex pair i < k; f[i][j] is
    the best value within vertices i..j, which may use the pair (i, j)
    since gains are nonnegative and the outer pair crosses nothing inside.
    Without (i, j), either i has no partner or its farthest partner k < j
    splits i..j into i..k and k..j."""
    n = w.n
    if value is None:
        def value(arcs):
            return sum(w.get(i, j) for i, j in arcs)
    need = {"f": ("out-right", "in-left"), "b": ("in-right", "out-left"),
            "i": ("bidir", "bidir")}
    g = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            gains = {"f": value([(i, k)]), "b": value([(k, i)]),
                     "i": value([(i, k), (k, i)])}
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


def _interval_argmax(w, lex):
    """The tie-break's choice, by `_interval_max` on packed keys of integer
    weights: key(A) = W(A)·M1 − |A|·M2 + mask(A), where mask sets bit N−1−r
    for the arc of rank r = (i−1)·n + (j−1), N = n², M2 = 2^N and M1 =
    (N+2)·M2.  The fields stay apart, so the largest key has the largest
    weight, then the fewest arcs, then the largest mask: of two arc sets of
    one size, the one holding the smallest arc of their symmetric
    difference, the lexicographically smaller sorted list.  Keys of
    disjoint arc sets add.  Returns the digraph and its weight."""
    n = w.n
    nn = n * n
    m2 = 1 << nn
    m1 = (nn + 2) * m2

    def key(arcs):
        return (sum(w.get(i, j) for i, j in arcs) * m1 - len(arcs) * m2
                + sum(1 << (nn - 1 - (i - 1) * n - (j - 1)) for i, j in arcs))

    mask = _interval_max(w, lex, key) % m2
    arcs = frozenset((r // n + 1, r % n + 1) for r in range(nn) if mask >> (nn - 1 - r) & 1)
    return Digraph(n, arcs), sum(w.get(i, j) for i, j in arcs)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_lexicon_parse_weight_matches_interval_dp(seed):
    # the digraph and its weight, with weights 0..59 or tie-heavy 0/1
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    w = random_weights(rng, n, hi=rng.choice((2, 60)))
    lex = _random_lexicon(rng, n)
    res = parse_max(w, (), lex)
    assert res.weight == _interval_max(w, lex)
    assert (res.digraph, res.weight) == _interval_argmax(w, lex)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_parse_weight_matches_interval_dp(seed):
    # no lexicon, sizes well past the brute-force oracle's n <= 6: the
    # digraph and its weight, with weights 0..59 or tie-heavy 0/1
    rng = random.Random(seed)
    n = rng.randint(1, 20)
    w = random_weights(rng, n, hi=rng.choice((2, 60)))
    res = parse_max(w)
    assert res.weight == _interval_max(w, LexicalConstraint({}))
    assert (res.digraph, res.weight) == _interval_argmax(w, LexicalConstraint({}))


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
    # key(A) = W(A)·n² − |A| for the arcs A that the codec states for each
    # pair, and −(W_total+2)·n² for a pair the lexicon forbids, as exact
    # integers
    from ncdigraph.codec import PAIRS, pair_arcs
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

    def key(arcs):
        weight = sum(exact.get(arc, 0) for arc in arcs) * scale
        return int(weight) * n * n - len(arcs)

    forbidden = -(int(sum(exact.values()) * scale) + 2) * n * n
    pair_cells, want = [], []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            for o in PAIRS:
                arcs = pair_arcs(o, u, v)
                pair_cells.append((len(pair_cells) + 1, o, u, v))
                want.append(key(arcs) if lex is None or lex.allows(o, u, v) else forbidden)
    got = _MaxAlgebra(w, lex).pairs(tuple(pair_cells))
    assert got == want and all(type(key) is int for key in got)
