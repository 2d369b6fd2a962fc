"""The three benchmark workloads.

Each workload is a closed loop with one client: the runner asks for
request i, times ``call()``, then checks the response with ``check`` outside
the timed region.  Request i is a fixed slot of a repeating cycle (family
and size) filled with inputs drawn from
``random.Random(f"{seed}:{workload}:{i}")``,
so a seed fixes every input and runs with different seeds do the same
mix of work.  ``small=True`` builds the probe variant: the same requests at
small sizes, run in a traced run to time layers that the workload itself
does not call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
from fractions import Fraction

from ncdigraph import (cfg, cli, codec, digraphs, inference, latent,
                       ontology)
from ncdigraph.digraphs import ALL_PROPERTIES, PropertyId

import gen
import oracles

FAMILIES = {
    "": frozenset(),
    "out-tree": frozenset({PropertyId.OUT, PropertyId.CONN_W,
                           PropertyId.ACYC_U, PropertyId.UNAMB_S,
                           PropertyId.ACYC_D, PropertyId.ORIENTED}),
    "polytree": frozenset({PropertyId.CONN_W, PropertyId.ACYC_U,
                           PropertyId.UNAMB_S, PropertyId.ACYC_D,
                           PropertyId.ORIENTED}),
    "mixed-tree": frozenset({PropertyId.CONN_W, PropertyId.ACYC_U,
                             PropertyId.UNAMB_S}),
    "PROJ_W": frozenset({PropertyId.PROJ_W}),
    "ACYC_D": frozenset({PropertyId.ACYC_D}),
    "UNAMB_S": frozenset({PropertyId.UNAMB_S}),
}

# Properties a generated digraph has by construction (see gen.KINDS).
GUARANTEED = {
    "out-tree": FAMILIES["out-tree"],
    "polytree": FAMILIES["polytree"],
    "forest": frozenset({PropertyId.ORIENTED, PropertyId.ACYC_D,
                         PropertyId.ACYC_U, PropertyId.UNAMB_S}),
    "dag": frozenset({PropertyId.ORIENTED, PropertyId.ACYC_D,
                      PropertyId.CONN_W}),
    "symmetric": frozenset({PropertyId.INV}),
    "mixed": frozenset(),
}


def properties_of(g) -> frozenset:
    return frozenset(p for p in ALL_PROPERTIES if digraphs.check_property(g, p))


class Context:
    """Per-run state shared by the workloads: seed, scratch directory,
    tracer (None when untraced) and the automaton keys already built."""

    def __init__(self, seed: int, workdir: str, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.built: set = set()

    def rng(self, tag: str, i: int) -> random.Random:
        return random.Random(f"{self.seed}:{tag}:{i}")

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def chart_count(self, n: int, family: str, lex=None) -> int:
        """count_family_strings, labelled as a build on the first call for
        an automaton key and as a chart count afterwards."""
        key = (n, family, lex.key() if lex is not None else None)
        name = "inference.count" if key in self.built else "inference.build"
        self.built.add(key)
        with self.span(name):
            return inference.count_family_strings(n, FAMILIES[family], lex)


class Workload:
    name = ""
    cycle: tuple = ()   # slots of the repeating cycle
    tail_pct = 90       # fixed tail percentile (>= 10 samples beyond it)
    trace_requests = 0  # requests in the traced pass, a whole number of cycles
    # peak memory is read after this many requests, so that it does not
    # grow with throughput where every request adds to a cache
    memory_requests = 10

    def __init__(self, ctx: Context):
        self.ctx = ctx
        # calls made and failed in setup; the runner adds them to the result
        self.setup_attempted = 0
        self.setup_failed = 0

    def setup(self) -> None:
        pass

    def warm(self, call, check) -> None:
        """Run one checked call in setup, untimed."""
        self.setup_attempted += 1
        try:
            problems, _ = check(call())
        except Exception as exc:  # any exception is a failed call
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.setup_failed += 1
            print(f"# {self.name} setup call failed: {'; '.join(problems)}",
                  file=sys.stderr)

    def slot(self, i: int):
        return self.cycle[i % len(self.cycle)]

    def request(self, i: int):
        """(call, check): call() is timed; check(response) returns
        (problems, property set of the digraph involved or None)."""
        raise NotImplementedError


class ParseWarm(Workload):
    """parse_max on automata built in setup, integer weights 0..99."""

    name = "parse-warm"
    tail_pct = 90
    trace_requests = 12
    memory_requests = 6

    def __init__(self, ctx, small=False):
        super().__init__(ctx)
        # Sorted by time the slots are PROJ_W 5 and out-tree 9, then the
        # unrestricted family at n = 7 (twice), 8 and 9, each step about
        # twice the last.  The median falls in the middle of the n = 7 pair
        # and the p90 tail inside n = 9, not on a border between slots,
        # where a few slow samples would move them from one slot's time to
        # the next.
        self.cycle = ((("", 5),) if small else
                      (("", 7), ("out-tree", 9), ("", 8), ("PROJ_W", 5),
                       ("", 7), ("", 9)))

    def setup(self) -> None:
        for family, n in dict.fromkeys(self.cycle):
            self.ctx.chart_count(n, family)

    def request(self, i):
        family, n = self.slot(i)
        req = FAMILIES[family]
        w = gen.int_weights(self.ctx.rng(self.name, i), n)
        wm = inference.WeightMatrix(n, w)

        def call():
            return inference.parse_max(wm, req)

        def check(res):
            g = res.digraph
            return (oracles.check_parse(g, res.weight, n, w, req),
                    properties_of(g))

        return call, check


class ParseCold(Workload):
    """ncdigraph parse in process, with a fresh weight file and lexicon file
    per request, so every request misses the automaton cache.

    The build cost depends mostly on the lexicon, so the lexicon of request
    i does not depend on the seed: every seed asks for the same automata
    and the seed draws the weights.  Seeded lexicons made the median move
    by a third between seeds at the sample counts a run allows."""

    name = "parse-cold"
    tail_pct = 75
    trace_requests = 16
    memory_requests = 32

    def __init__(self, ctx, small=False):
        super().__init__(ctx)
        # Sorted by build time the eight slots are the unrestricted family
        # at n = 5 (twice), ACYC_D 4, the unrestricted family at n = 6
        # (twice), ACYC_D 5 (twice) and UNAMB_S 4, the slowest by far.  The
        # median then falls in the middle of the n = 6 pair and the p75
        # tail in the middle of the ACYC_D 5 pair, away from UNAMB_S, where
        # a few samples more or less would move them a long way.
        self.cycle = ((("", 5),) if small else
                      (("", 5), ("ACYC_D", 5), ("", 6), ("UNAMB_S", 4),
                       ("", 5), ("ACYC_D", 4), ("", 6), ("ACYC_D", 5)))
        self.dir = os.path.join(ctx.workdir, "parse-cold" + ("-probe" if small else ""))

    def setup(self) -> None:
        os.makedirs(self.dir, exist_ok=True)

    def request(self, i):
        family, n = self.slot(i)
        rng = self.ctx.rng(self.name, i)
        w = gen.decimal_weights(rng, n)
        flags = gen.lexicon_flags(i, n)
        wpath = os.path.join(self.dir, f"w{i}.txt")
        lpath = os.path.join(self.dir, f"l{i}.txt")
        with open(wpath, "w", encoding="ascii") as fh:
            fh.write(f"n {n}\n")
            fh.writelines(f"{a} {b} {x}\n" for (a, b), x in w.items())
        with open(lpath, "w", encoding="ascii") as fh:
            fh.writelines(f"{v} {' '.join(sorted(f))}\n" for v, f in flags.items())
        argv = ["parse", "--weights", wpath, "--lexicon", lpath]
        if family:
            argv += ["--family", family]
        lex = inference.LexicalConstraint(flags)

        def call():
            if self.ctx.tracer is not None:
                # build first, so that parse_max below times replay only
                self.ctx.chart_count(n, family, lex)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(argv)
            return rc, out.getvalue(), err.getvalue()

        def check(resp):
            rc, out, err = resp
            for path in (wpath, lpath):
                os.remove(path)
            if rc != 0:
                return [f"exit status {rc}: {err.strip()}"], None
            try:
                g, weight = read_parse_output(out)
            except ValueError as exc:
                return [f"unreadable output: {exc}"], None
            wf = {k: Fraction(x) for k, x in w.items()}
            return (oracles.check_parse(g, weight, n, wf, FAMILIES[family],
                                        lex, flags),
                    properties_of(g))

        return call, check


def read_parse_output(text: str):
    """Digraph and weight from the stdout of ``ncdigraph parse``."""
    lines = text.strip().splitlines()
    if len(lines) < 2 or not lines[0].startswith("n ") \
            or not lines[-1].startswith("weight "):
        raise ValueError(repr(text[:80]))
    n = int(lines[0].split()[1])
    arcs = frozenset(tuple(int(x) for x in line.split()) for line in lines[1:-1])
    return digraphs.Digraph(n, arcs), Fraction(lines[-1].split()[1])


class Classify(Workload):
    """The non-parsing toolkit: codec and latent round trips, the eight
    scans against the direct checks, ontology classification and
    derivation counts on seeded digraphs, plus chart counts of tree
    families and ``ncdigraph count``.  Setup runs ``ncdigraph lattice`` and
    builds the automata of the chart counts; both fill caches that the
    timed requests then read."""

    name = "classify"
    tail_pct = 99
    SIZES = (8, 12, 16, 24, 32, 48)
    COUNT_KEYS = (("out-tree", 7), ("polytree", 6), ("mixed-tree", 5))
    trace_requests = 6 * (len(SIZES) * len(gen.KINDS) + 2)
    memory_requests = 3 * (len(SIZES) * len(gen.KINDS) + 2)

    def __init__(self, ctx, small=False):
        super().__init__(ctx)
        sizes = (12,) if small else self.SIZES
        self.lattice_n = 4 if small else 5
        self.count_keys = (("out-tree", 4),) if small else self.COUNT_KEYS
        self.cycle = tuple(("digraph", kind, n) for n in sizes
                           for kind in gen.KINDS) + (("chart-count",), ("cli-count",))
        self.grammar = cfg.grammar_nc_graph()

    def setup(self) -> None:
        self.warm(*self._lattice())
        for family, n in self.count_keys:
            self.warm(*self._chart_count(family, n))

    def request(self, i):
        slot = self.slot(i)
        turn = i // len(self.cycle)
        if slot[0] == "chart-count":
            family, n = self.count_keys[turn % len(self.count_keys)]
            return self._chart_count(family, n)
        if slot[0] == "cli-count":
            family = tuple(oracles.FAMILY_LETTERS)[turn % len(oracles.FAMILY_LETTERS)]
            return self._cli(["count", "-n", str(self.lattice_n), "--family", family],
                             lambda out: _expect(int(out), oracles.tree_family_count(
                                 family, self.lattice_n)))
        _, kind, n = slot
        return self._digraph(kind, n, self.ctx.rng(self.name, i))

    def _digraph(self, kind, n, rng):
        g = digraphs.Digraph(n, gen.noncrossing_arcs(rng, n, kind))
        grammar = self.grammar

        def call():
            s = codec.encode_digraph(g)
            back = codec.decode_digraph(s)
            ug = digraphs.underlying(g)
            gs = codec.encode_graph(ug)
            gback = codec.decode_graph(gs)
            lat = latent.latent_encode(g)
            relat = latent.parse_latent(latent.latent_to_str(lat))
            scans = frozenset(p for p in ALL_PROPERTIES
                              if latent.constraint_accepts(p, lat))
            checks = frozenset(p for p in ALL_PROPERTIES
                               if digraphs.check_property(g, p))
            cls = ontology.classify(g)
            deriv = cfg.derivation_count(grammar, gs) if n <= 16 else 1
            return back, ug, gback, lat, relat, scans, checks, cls, deriv

        def check(resp):
            back, ug, gback, lat, relat, scans, checks, cls, deriv = resp
            problems = []
            if back != g:
                problems.append("digraph codec round trip differs")
            if gback != ug:
                problems.append("graph codec round trip differs")
            if relat != lat:
                problems.append("latent string round trip differs")
            if scans != checks:
                problems.append(f"scans {sorted(p.value for p in scans)} != "
                                f"checks {sorted(p.value for p in checks)}")
            if cls != checks:
                problems.append("ontology.classify differs from the checks")
            if not GUARANTEED[kind] <= checks:
                problems.append(f"{kind} lacks a property it has by construction")
            if deriv != 1:
                problems.append(f"{deriv} derivations of an encoded graph")
            return problems, checks

        return call, check

    def _chart_count(self, family, n):
        def call():
            return self.ctx.chart_count(n, family)
        return call, lambda got: (_expect(got, oracles.tree_family_count(family, n)), None)

    def _lattice(self):
        n = self.lattice_n

        def expect(out):
            cells = oracles.parse_lattice_tsv(out)
            if n == 5:
                return _expect(cells, oracles.LATTICE_N5)
            return _expect(sum(cells.values()), oracles.NONCROSSING_DIGRAPHS[n])

        return self._cli(["lattice", "-n", str(n)], expect)

    @staticmethod
    def _cli(argv, expect):
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.run(argv)
            return rc, out.getvalue()

        def check(resp):
            rc, out = resp
            if rc != 0:
                return [f"{' '.join(argv)}: exit status {rc}"], None
            try:
                return expect(out), None
            except ValueError as exc:
                return [f"{' '.join(argv)}: unreadable output: {exc}"], None

        return call, check


def _expect(got, want) -> list:
    return [] if got == want else [f"got {got!r}, expected {want!r}"]


WORKLOADS = {w.name: w for w in (ParseWarm, ParseCold, Classify)}
