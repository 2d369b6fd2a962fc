"""Answers computed without the code under test, and the checks that
compare the program's responses with them.

Only the membership and lexicon checks call the program (``check_property``,
``latent_encode`` and ``LexicalConstraint.permits``), as the definitions of
those properties; every number the program returns is compared with an
independent computation.
"""

from __future__ import annotations

from math import comb

# Lexicon flags a vertex needs for each kind of incident pair.  For a pair
# u < v: a forward arc u->v needs out-right at u and in-left at v, a
# backward arc v->u needs in-right at u and out-left at v, and a
# bidirectional pair needs bidir at both ends.
ALL_FLAGS = ("in-left", "in-right", "out-left", "out-right", "bidir")


def max_noncrossing(n: int, value) -> object:
    """Largest total of value(u, v) >= 0 over noncrossing sets of pairs
    u < v on vertices 1..n, by an O(n^3) interval recurrence.

    best[i][j] covers the pairs inside [i, j].  The outer pair (i, j)
    crosses nothing inside, so it is added freely; without it either i has
    no pair inside (best[i+1][j]) or its farthest partner m < j splits the
    interval at m (best[i][m] + best[m][j]).
    """
    best = [[0] * (n + 2) for _ in range(n + 2)]
    for span in range(1, n):
        for i in range(1, n - span + 1):
            j = i + span
            inner = best[i + 1][j]
            for m in range(i + 1, j):
                cand = best[i][m] + best[m][j]
                if cand > inner:
                    inner = cand
            best[i][j] = value(i, j) + inner
    return best[1][n] if n >= 1 else 0


def pair_value(w: dict, u: int, v: int, flags=None) -> object:
    """Best weight the pair u < v can add, under per-vertex flag sets."""
    fu = ALL_FLAGS if flags is None else flags.get(u, ALL_FLAGS)
    fv = ALL_FLAGS if flags is None else flags.get(v, ALL_FLAGS)
    fwd, bwd = w.get((u, v), 0), w.get((v, u), 0)
    options = [0]
    if "out-right" in fu and "in-left" in fv:
        options.append(fwd)
    if "in-right" in fu and "out-left" in fv:
        options.append(bwd)
    if "bidir" in fu and "bidir" in fv:
        options.append(fwd + bwd)
    return max(options)


def unrestricted_max(n: int, w: dict, flags=None) -> object:
    return max_noncrossing(n, lambda u, v: pair_value(w, u, v, flags))


def noncrossing_trees(n: int) -> int:
    """T(n) = C(3n-3, n-1) / (2n-1), noncrossing spanning trees (A001764)."""
    return comb(3 * n - 3, n - 1) // (2 * n - 1)


def tree_family_count(family: str, n: int) -> int:
    """Closed forms for the tree families: each tree edge takes 2
    orientations (polytree) or 3 pair states (mixed tree), and an out-tree
    is fixed by its root."""
    t = noncrossing_trees(n)
    if family == "polytree":
        return 2 ** (n - 1) * t
    if family == "mixed-tree":
        return 3 ** (n - 1) * t
    if family == "out-tree":
        return n * t
    raise ValueError(f"no closed form for {family!r}")


# The 23 nonempty property-signature cells at n = 5 (letters CUOATD: CONN_W,
# UNAMB_S, ORIENTED, ACYC_U, OUT, ACYC_D), from the paper's ontology.
LATTICE_N5 = {
    "------": 5460, "C-----": 43571, "-U----": 80, "--O---": 140,
    "-U-A--": 1200, "-U--T-": 10, "CU----": 600, "C-O---": 1160,
    "-UO---": 80, "--O--D": 840, "-UO-T-": 130, "-U-AT-": 435,
    "CU-A--": 3355, "-UO--D": 10, "C-O--D": 2960, "CUO---": 370,
    "CU-AT-": 220, "CUO-T-": 132, "CUO--D": 50, "-UOA-D": 300,
    "CUOA-D": 605, "-UOATD": 481, "CUOATD": 275,
}

# Signature letters of the family aliases the workloads count.
FAMILY_LETTERS = {"polytree": "CUOAD", "mixed-tree": "CUA", "out-tree": "CUOATD"}


# Noncrossing loop-free digraphs on n vertices (the paper's cardinalities).
NONCROSSING_DIGRAPHS = {1: 1, 2: 4, 3: 64, 4: 1792, 5: 62464}


def lattice_family_count(letters: str) -> int:
    """Members at n = 5 of the family with the given signature letters."""
    return sum(count for sig, count in LATTICE_N5.items()
               if all(c in sig for c in letters))


def parse_lattice_tsv(text: str) -> dict:
    cells = {}
    for line in text.splitlines():
        sig, count = line.split("\t")[:2]
        cells[sig] = int(count)
    return cells


def check_parse(digraph, weight, n: int, w: dict, req=frozenset(),
                lex=None, flags=None) -> list:
    """Problems with a parse response; an empty list means it passed.

    ``w`` holds the weights as given, ``lex`` the program's
    LexicalConstraint and ``flags`` the same lexicon as per-vertex flag
    sets (both None without a lexicon).
    """
    from ncdigraph import digraphs, latent
    problems = []
    if digraph.n != n:
        problems.append(f"vertex count {digraph.n} != {n}")
    if not digraphs.is_noncrossing(digraph) or any(u == v for u, v in digraph.arcs):
        problems.append("result is not a loop-free noncrossing digraph")
        return problems
    for p in req:
        if not digraphs.check_property(digraph, p):
            problems.append(f"result violates {p.value}")
    total = sum(w.get(a, 0) for a in digraph.arcs)
    if total != weight:
        problems.append(f"reported weight {weight} != arc sum {total}")
    if lex is not None:
        vertex = 1
        for b in latent.latent_encode(digraph):
            if b.base == "{":
                vertex += 1
            elif not lex.permits(b, vertex):
                problems.append(f"bracket {b.token} at vertex {vertex} "
                                "violates the lexicon")
    best = unrestricted_max(n, w, flags)
    if not req and weight != best:
        problems.append(f"weight {weight} != interval DP optimum {best}")
    if req and weight > best:
        problems.append(f"weight {weight} exceeds unrestricted optimum {best}")
    return problems
