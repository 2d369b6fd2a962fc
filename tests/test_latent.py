import itertools
import os
import random
import string
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ncdigraph import cfg, inference
from ncdigraph.chains import (BACKWARD, BIDIRECTIONAL, COVER_CYCLE,
                              COVER_NONE, COVER_TWO_TURN, FORWARD, LOOSE, ONE,
                              STATES, ZERO, chain_step)
from ncdigraph.codec import encode_digraph
from ncdigraph.digraphs import (ALL_PROPERTIES, PropertyId,
                                check_property, enumerate_noncrossing_digraphs,
                                make_digraph)
from ncdigraph.latent import (BOUNDARY_CLOSE, BOUNDARY_OPEN, END, FORBIDDEN,
                              START, ConstraintDfa, LatentBracket, RegLat,
                              alphabet, bracket_classes, bracket_valid,
                              constraint_accepts, constraint_dfa, d55, h_lat,
                              latent_encode, latent_to_str, maximal_chains,
                              parse_latent, preimage_count, reg_lat)


def test_chain_step_glosses():
    f2 = chain_step(chain_step(ZERO, FORWARD), FORWARD)
    assert f2.name == "F"
    i2 = chain_step(chain_step(ZERO, BIDIRECTIONAL), BIDIRECTIONAL)
    assert i2.name == "I"
    assert chain_step(ZERO, BACKWARD).name == "f"
    assert chain_step(chain_step(ZERO, FORWARD), BACKWARD).name == "C"
    assert chain_step(ONE, FORWARD) == LOOSE


def test_chain_step_case_swap_symmetry():
    comp = {FORWARD: BACKWARD, BACKWARD: FORWARD,
            BIDIRECTIONAL: BIDIRECTIONAL}
    for length in range(1, 5):
        for seq in itertools.product((FORWARD, BACKWARD, BIDIRECTIONAL),
                                     repeat=length):
            st = ZERO
            for d in seq:
                st = chain_step(st, d)
            mirrored = ZERO
            for d in seq:
                mirrored = chain_step(mirrored, comp[d])
            assert mirrored == st.mirror()
            expected = st.name if st.mirror() == st else st.name.swapcase()
            assert mirrored.name == expected


def test_six_chain_decomposition():
    arcs = [(1, 2), (1, 7), (2, 3), (2, 4), (3, 4), (4, 5), (4, 7), (6, 7),
            (7, 10), (8, 9)]
    chains = maximal_chains(make_digraph(10, arcs))
    grouping = {frozenset(edges): loose for edges, loose in chains}
    assert grouping == {
        frozenset({(1, 7), (7, 10)}): False,
        frozenset({(1, 2), (2, 4), (4, 7)}): False,
        frozenset({(2, 3), (3, 4)}): False,
        frozenset({(4, 5)}): False,
        frozenset({(6, 7)}): True,
        frozenset({(8, 9)}): True,
    }


def test_single_arc_chain():
    s = latent_encode(make_digraph(2, [(1, 2)]))
    assert latent_to_str(s) == "/F'{}>F'"
    chains = maximal_chains(make_digraph(2, [(1, 2)]))
    assert chains == [(((1, 2),), False)]


def test_cycle_ambiguity_disconnection_example():
    # directed cycle 1->2->7->1, ambiguous paths 2->1 and 2->7->1,
    # vertices 5,6 disconnected from the rest
    g = make_digraph(7, [(7, 1), (1, 2), (2, 1), (2, 3), (2, 7), (7, 4),
                         (5, 6)])
    s = latent_encode(g)
    assert h_lat(s) == encode_digraph(g) == "<[{}]//{}>{}<{}/{}>{}\\>\\"
    assert not constraint_accepts(PropertyId.ACYC_D, s)
    assert not constraint_accepts(PropertyId.UNAMB_S, s)
    assert not constraint_accepts(PropertyId.CONN_W, s)


def test_h_lat_trivial():
    assert h_lat(()) == ""


def test_latent_round_trip_tokens():
    for n in range(1, 4):
        for g in enumerate_noncrossing_digraphs(n):
            s = latent_encode(g)
            parsed = parse_latent(latent_to_str(s))
            assert parsed == s
            # both are alphabet()'s own brackets, so a table lookup of an
            # encoded string finds them by identity
            assert all(a is b for a, b in zip(s, parsed))


def test_parse_latent_reads_each_token_by_its_parts():
    # every token the tokenizer can read (a base, an optional chain mark and
    # an optional cover suffix) is the bracket its parts name when that
    # bracket is in the alphabet, and an error naming the token otherwise
    cover_of = {"": COVER_NONE, "*": COVER_CYCLE, "^": COVER_TWO_TURN}
    letters = string.ascii_letters
    marks = ["", LOOSE, *letters, *(c + "'" for c in letters)]
    symbols = set(alphabet())
    accepted = 0
    for base in "{}[]/><\\":
        for mark in marks:
            for suffix in cover_of:
                token = base + mark + suffix
                if base in "{}":
                    want = LatentBracket(base, None) if not mark + suffix else None
                else:
                    b = LatentBracket(base, mark.rstrip("'") or None,
                                      mark.endswith("'"), cover_of[suffix])
                    want = b if b in symbols else None
                if want is None:
                    with pytest.raises(ValueError) as info:
                        parse_latent(token)
                    assert repr(token) in str(info.value)
                else:
                    assert parse_latent(token) == (want,), token
                    accepted += 1
    assert len(marks) * 3 * 8 == 2_544
    assert accepted == len(alphabet()) == 162


def test_parse_latent_names_a_well_formed_token_reg_lat_never_reads():
    # a forward edge never ends a chain in state f (one backward step), so
    # the well-formed brackets /f and >f are not in the alphabet
    for token in ("/f", ">f"):
        [b] = [b for b in _inventory() if b.token == token]
        assert bracket_valid(b) and b not in alphabet()
        with pytest.raises(ValueError) as info:
            parse_latent("/F'" + token)
        assert repr(token) in str(info.value)


def _inventory() -> list:
    """Every combination of edge base, chain mark, prime and cover (540
    brackets), and the boundary pair."""
    marks = [".", *(st.name for st in STATES)]
    return [BOUNDARY_OPEN, BOUNDARY_CLOSE] + [
        LatentBracket(base, mark, primed, cover) for base in "/><\\[]" for mark in marks
        for primed in (False, True) for cover in (COVER_NONE, COVER_CYCLE, COVER_TWO_TURN)]


def test_alphabet_is_what_reg_lat_reads():
    # Reg_lat compiled over the whole inventory reads 80 openers; the
    # alphabet is those pairs and the boundary pair, closed under partners
    # (each bracket's partner has a column of the alphabet's tables, and
    # pairing twice gives the bracket back), and holds every opener that
    # the ∅ chart keeps at n = 8
    inventory = _inventory()
    assert len(inventory) == len(set(inventory)) == 542
    table = cfg.TableDfa.compile(RegLat(), inventory)
    read = {inventory[a] for row in table.delta for a, q in enumerate(row) if q >= 0}
    openers = {b for b in read if b.is_opener}
    assert len(openers) == 80
    assert set(alphabet()) == ({BOUNDARY_OPEN, BOUNDARY_CLOSE} | openers
                               | {o.partner() for o in openers})
    assert len(alphabet()) == 162
    index = reg_lat().index
    assert all(b.partner() in index and b.partner().partner() == b for b in alphabet())
    assert d55().symbols() == frozenset(alphabet())
    _program, (_keys, shared, _groups, chart_openers, _finals) = inference._compile(
        8, inference.family_automaton(frozenset()))
    kept = {o for f, pair_openers in chart_openers.items() if shared[f] >= 0
            for o in pair_openers if o is not None}
    assert len(kept) == 68 and kept <= openers


def test_bracket_hash_survives_pickling_across_processes():
    # a bracket caches its hash, so a pickle must not carry that hash into
    # a process whose string hashes differ, or every lookup there would miss
    src = str(Path(__file__).resolve().parents[1] / "src")
    dump = ("import pickle, sys\n"
            "from ncdigraph.latent import alphabet\n"
            "sys.stdout.buffer.write(pickle.dumps(alphabet()))\n")
    load = ("import pickle, sys\n"
            "from ncdigraph.latent import alphabet, reg_lat\n"
            "brackets = pickle.loads(sys.stdin.buffer.read())\n"
            "assert set(brackets) == set(alphabet())\n"
            "assert all(b in reg_lat().index for b in brackets)\n")
    env = dict(os.environ, PYTHONPATH=src)
    dumped = subprocess.run([sys.executable, "-c", dump], capture_output=True,
                            env=dict(env, PYTHONHASHSEED="0"), timeout=120)
    assert dumped.returncode == 0, dumped.stderr.decode()
    loaded = subprocess.run([sys.executable, "-c", load], input=dumped.stdout,
                            capture_output=True,
                            env=dict(env, PYTHONHASHSEED="1"), timeout=120)
    assert loaded.returncode == 0, loaded.stderr.decode()


def test_reg_lat_rejects_garbage():
    reg = reg_lat()
    for token in (">F'", "\\.", "]I'"):
        assert not reg.accepts(parse_latent(token))
    # loose-marked bracket at string start
    assert not reg.accepts(parse_latent("/.{}>."))
    # well-formed image accepted
    assert reg.accepts(parse_latent("/F'{}>F'"))


def test_reg_lat_accepts_images_small():
    reg = reg_lat()
    spec = d55()
    for n in range(1, 5):
        for g in enumerate_noncrossing_digraphs(n):
            s = latent_encode(g)
            assert reg.accepts(s)
            assert cfg.dyck_check(spec, s)


def test_constraint_trivials():
    assert all(constraint_accepts(p, ()) for p in ALL_PROPERTIES)
    pair = latent_encode(make_digraph(2, [(1, 2), (2, 1)]))
    assert constraint_accepts(PropertyId.INV, pair)
    assert not constraint_accepts(PropertyId.ORIENTED, pair)


def test_axiom_equivalence_small():
    for n in range(1, 5):
        for g in enumerate_noncrossing_digraphs(n):
            s = latent_encode(g)
            for p in ALL_PROPERTIES:
                assert constraint_accepts(p, s) == check_property(g, p), \
                    (sorted(g.arcs), p, latent_to_str(s))


def test_preimage_uniqueness_small():
    for n in range(1, 4):
        for g in enumerate_noncrossing_digraphs(n):
            assert preimage_count(encode_digraph(g), limit=3) == 1


def test_preimage_count_long_path():
    # about 1200 brackets: the search keeps its own stack
    path = make_digraph(300, [(i, i + 1) for i in range(1, 300)])
    assert preimage_count(encode_digraph(path), limit=3) == 1


def test_preimage_uniqueness_sampled_n5_n6():
    import random

    from conftest import random_noncrossing_digraph
    rng = random.Random(17)
    for _ in range(12):
        g = random_noncrossing_digraph(rng, 6)
        assert preimage_count(encode_digraph(g), limit=2) == 1


def test_axiom_equivalence_randomized_n8():
    import random

    from conftest import random_noncrossing_digraph
    rng = random.Random(23)
    for _ in range(150):
        g = random_noncrossing_digraph(rng, 8)
        s = latent_encode(g)
        for p in ALL_PROPERTIES:
            assert constraint_accepts(p, s) == check_property(g, p), \
                (sorted(g.arcs), p)


def test_intersected_preimage_uniqueness_small():
    extras = [constraint_dfa(PropertyId.ACYC_D),
              constraint_dfa(PropertyId.ACYC_U)]
    for n in range(1, 4):
        for g in enumerate_noncrossing_digraphs(n):
            expect = 1 if (check_property(g, PropertyId.ACYC_D)
                           and check_property(g, PropertyId.ACYC_U)) else 0
            got = preimage_count(encode_digraph(g), extra=extras, limit=3)
            assert got == expect


def test_conjunction_is_intersection_small(digraphs_by_n):
    import itertools as it
    props = (PropertyId.ACYC_D, PropertyId.CONN_W, PropertyId.OUT)
    for g in digraphs_by_n[4]:
        s = latent_encode(g)
        for k in (2, 3):
            for combo in it.combinations(props, k):
                assert all(constraint_accepts(p, s) for p in combo) == \
                    all(check_property(g, p) for p in combo)


def test_bracket_classes_are_fixed_sets():
    classes = bracket_classes()
    assert classes["Sigma"] == frozenset(alphabet())
    assert classes["B_bar"] == classes["Sigma"] - classes["B"]
    assert classes["R"] >= classes["R_>"] - classes["B"]
    assert classes["Sigma_in"] == classes["L_<"] | classes["R_>"]
    assert classes["R_nonloose"] == classes["R"] - classes["R_loose"]
    for b in classes["R_loose"]:
        assert b.base == "}" or b.is_closer


def test_forbidden_table_is_table_1():
    # every class a factor names is a bracket class, and no factor is
    # redundant: dropping any one changes its property's compiled table
    classes = bracket_classes()
    assert set(FORBIDDEN) == set(ALL_PROPERTIES)
    for p, factors in FORBIDDEN.items():
        for first, gap, last in factors:
            assert first == START or first in classes, (p, first)
            assert gap is None or gap in classes, (p, gap)
            assert last == END or last in classes, (p, last)
    for p, factors in FORBIDDEN.items():
        full = constraint_dfa(p)
        for k in range(len(factors)):
            less = factors[:k] + factors[k + 1:]
            with pytest.MonkeyPatch.context() as mp:
                mp.setitem(FORBIDDEN, p, less)
                table = cfg.TableDfa.compile(ConstraintDfa(p), alphabet())
            assert (table.delta, table.final) != (full.delta, full.final), \
                (p, factors[k])


def test_alphabet_is_built_once_and_shared():
    # one bracket inventory keys every recognizer table
    assert alphabet() is alphabet()
    tables = [reg_lat(), inference.family_automaton(frozenset({PropertyId.OUT}))]
    tables += [constraint_dfa(p) for p in ALL_PROPERTIES]
    assert all(t.symbols is alphabet() for t in tables)


def test_alphabet_size_regression_warning():
    """A tighter annotation folding gets by with 54 bracket pairs; ours
    carries the cover class explicitly and may use more.  Count the pairs
    actually used on digraphs with n <= 5 and warn beyond the target."""
    marks = set()
    for n in range(1, 6):
        for g in enumerate_noncrossing_digraphs(n):
            for b in latent_encode(g):
                if b.is_opener:
                    marks.add((b.orientation, b.chain, b.primed, b.cover))
    if len(marks) > 54:
        warnings.warn(f"reachable edge-pair inventory has {len(marks)} pairs "
                      "(folded target is 54)")
    assert len(marks) <= len(alphabet())


def test_reg_lat_state_count_regression_warning():
    reg = reg_lat()
    seen = {reg.start}
    frontier = [reg.start]
    syms = alphabet()
    while frontier:
        q = frontier.pop()
        for b in syms:
            q2 = reg.step(q, b)
            if q2 is not None and q2 not in seen:
                seen.add(q2)
                frontier.append(q2)
    if len(seen) > 24:
        warnings.warn(f"Reg_lat uses {len(seen)} reachable states "
                      "(folded target is 24)")
    assert len(seen) < 500


def test_recognizer_table_sizes():
    assert isinstance(reg_lat(), cfg.TableDfa)
    assert reg_lat() is reg_lat()
    assert len(reg_lat().delta) == 23
    want = {PropertyId.OUT: 2, PropertyId.INV: 1, PropertyId.ORIENTED: 1,
            PropertyId.PROJ_W: 3, PropertyId.ACYC_D: 4, PropertyId.ACYC_U: 2,
            PropertyId.CONN_W: 4, PropertyId.UNAMB_S: 4}
    assert {p: len(constraint_dfa(p).delta) for p in ALL_PROPERTIES} == want
    assert all(constraint_dfa(p) is constraint_dfa(p) for p in ALL_PROPERTIES)


def test_tables_agree_with_definitions_off_encodings():
    # random walks over the definition's live moves, each ending in one
    # random symbol, are mostly not encodings; the table must accept every
    # prefix exactly when the definition does
    syms = alphabet()
    rng = random.Random(5)
    for definition, table in [(RegLat(), reg_lat())] + [
            (ConstraintDfa(p), constraint_dfa(p)) for p in ALL_PROPERTIES]:
        live: dict = {}  # definition state -> its live moves
        verdicts = set()
        for _walk in range(60):
            q, word = definition.start, []
            for _step in range(rng.randint(0, 24)):
                if q not in live:
                    live[q] = [b for b in syms if definition.step(q, b) is not None]
                if not live[q]:
                    break
                word.append(rng.choice(live[q]))
                q = definition.step(q, word[-1])
            word.append(rng.choice(syms))
            for k in range(len(word) + 1):
                got = table.accepts(word[:k])
                assert got == definition.accepts(word[:k]), latent_to_str(word[:k])
                verdicts.add(got)
        assert verdicts == {True, False}


def test_callers_step_only_tables(monkeypatch):
    # once the component tables exist, scans, preimage counts and a new
    # family's product table never step the recognizer definitions
    for p in ALL_PROPERTIES:
        constraint_dfa(p)
    reg_lat()
    calls = {"RegLat": 0, "ConstraintDfa": 0}
    for cls in (RegLat, ConstraintDfa):
        def counted(self, q, b, _name=cls.__name__, _step=cls.step):
            calls[_name] += 1
            return _step(self, q, b)
        monkeypatch.setattr(cls, "step", counted)
    g = make_digraph(5, [(1, 2), (2, 3), (5, 3), (1, 5), (4, 5)])
    s = latent_encode(g)
    for p in ALL_PROPERTIES:
        assert constraint_accepts(p, s) == check_property(g, p)
    assert preimage_count(encode_digraph(g)) == 1
    extras = [constraint_dfa(PropertyId.ACYC_D), constraint_dfa(PropertyId.OUT)]
    assert preimage_count(encode_digraph(g), extra=extras) == 0  # 3 has two in-arcs
    g = make_digraph(5, [(1, 2), (2, 3), (3, 4), (1, 5)])
    assert preimage_count(encode_digraph(g), extra=extras) == 1
    inference.family_automaton.cache_clear()
    fam = frozenset({PropertyId.UNAMB_S, PropertyId.INV})
    assert inference.family_automaton(fam).delta
    assert inference.family_automaton.cache_info().misses == 1
    assert calls == {"RegLat": 0, "ConstraintDfa": 0}
    # the counters do see a definition that is stepped
    RegLat().accepts(s)
    ConstraintDfa(PropertyId.CONN_W).accepts(s)
    assert min(calls.values()) > 0
