from ncdigraph.digraphs import (ALL_PROPERTIES, PropertyId,
                                enumerate_noncrossing_graphs,
                                make_digraph, uacyclic_chain_scan)
from ncdigraph.ontology import (FAMILY_NAMES, SIX_PROPERTIES, build_lattice,
                                classify, count_family, sequence,
                                signature_string)


def test_classify_trivials():
    assert classify(make_digraph(1, [])) == frozenset(ALL_PROPERTIES)
    sig = classify(make_digraph(3, [(1, 2), (2, 3), (3, 1)]))
    assert PropertyId.ORIENTED in sig and PropertyId.CONN_W in sig
    assert PropertyId.ACYC_D not in sig and PropertyId.ACYC_U not in sig


def test_signature_string():
    assert signature_string(frozenset()) == "------"
    assert signature_string(frozenset(SIX_PROPERTIES)) == "CUOATD"
    assert signature_string(frozenset({PropertyId.CONN_W,
                                       PropertyId.ACYC_D})) == "C----D"


def test_lattice_n1():
    lat = build_lattice(1)
    assert len(lat.classes) == 1
    assert lat.classes[0].count == 1
    assert lat.classes[0].signature == frozenset(SIX_PROPERTIES)


def test_lattice_partition_sums(digraphs_by_n):
    for n in (2, 3, 4):
        lat = build_lattice(n)
        assert sum(c.count for c in lat.classes) == len(digraphs_by_n[n])


def test_lattice_order_is_hasse():
    lat = build_lattice(4)
    sigs = [c.signature for c in lat.classes]
    for (i, j) in lat.order:
        assert sigs[i] < sigs[j]
        assert not any(sigs[i] < s < sigs[j] for s in sigs)


def test_lattice_entailments(digraphs_by_n):
    """Every multitree is a dag with UNAMB_S; every polytree is a weakly
    connected m-forest multitree."""
    for g in digraphs_by_n[4]:
        sig = classify(g)
        if PropertyId.ACYC_U in sig:
            assert PropertyId.UNAMB_S in sig
        if PropertyId.OUT in sig:
            assert PropertyId.UNAMB_S in sig
        if PropertyId.ACYC_D in sig:
            assert PropertyId.ORIENTED in sig
        if {PropertyId.ACYC_U, PropertyId.ORIENTED} <= sig:
            assert PropertyId.ACYC_D in sig


def test_count_family_consistency():
    assert count_family(3, frozenset()) == 64
    for req in (frozenset({PropertyId.ACYC_D}),
                frozenset({PropertyId.ACYC_D, PropertyId.CONN_W})):
        direct = count_family(4, req)
        lat = build_lattice(4)
        assert direct == sum(c.count for c in lat.classes
                             if req <= c.signature)


def test_count_family_matches_lattice_n5():
    # each named family's chart count is the sum of the enumerated exact-
    # signature cells above it
    cells = build_lattice(5).classes
    for sig in FAMILY_NAMES:
        assert count_family(5, sig) == sum(c.count for c in cells
                                           if sig <= c.signature), sig


def test_inv_oriented_single():
    for n in range(1, 6):
        assert count_family(
            n, frozenset({PropertyId.INV, PropertyId.ORIENTED})) == 1


def test_noncrossing_tree_count_vs_edge_subsets():
    req = frozenset({PropertyId.INV, PropertyId.CONN_W, PropertyId.ACYC_U})
    for n in range(1, 6):
        trees = 0
        for g in enumerate_noncrossing_graphs(n):
            if len(g.edges) == n - 1 and uacyclic_chain_scan(g):
                trees += 1
        assert count_family(n, req) == trees


def test_sequence_monotone():
    base = sequence(frozenset(), 4)
    assert base == [1, 4, 64, 1792]
    for p in ALL_PROPERTIES:
        restricted = sequence(frozenset({p}), 4)
        assert all(r <= b for r, b in zip(restricted, base))
    allprops = sequence(frozenset(ALL_PROPERTIES), 4)
    assert allprops[0] == 1
    assert all(a <= r for a, r in zip(allprops, base))


def test_family_names_present():
    lat = build_lattice(4)
    names = {c.name for c in lat.classes if c.name}
    assert "polytree" in names
    assert "out oriented tree" in names
    assert len(FAMILY_NAMES) == 23
