"""Spans and counters recorded from outside the program.

The tracer replaces public functions and methods of ncdigraph modules by
wrappers that record one span per call (name, start, end, parent span,
request id), or that only count calls.  Spans stay in memory until the
run writes them out.  Calls the program makes through names it imported
with ``from x import f`` bypass the wrappers; the metrics only use calls
made through module attributes.
"""

from __future__ import annotations

import functools
import json
import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []     # [request, name, start, end, parent index]
        self.counts: dict = {}
        self.request = None
        self.active = True        # False while the runner checks responses
        self._stack: list = []
        self._patches: list = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.request, name, perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span around every call of owner.attr."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            idx = self._open(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self._close(idx)

        self._patch(owner, attr, orig, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count the calls of owner.attr without timing them."""
        orig = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return orig(*args, **kwargs)

        self._patch(owner, attr, orig, counted)

    def _patch(self, owner, attr, orig, repl) -> None:
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, repl)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def durations(self, name: str) -> list:
        return [s[3] - s[2] for s in self.spans
                if s[1] == name and s[3] is not None]

    def median(self, name: str):
        d = self.durations(name)
        return statistics.median(d) if d else None

    def self_times(self) -> dict:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] is not None and s[3] is not None:
                child[s[4]] += s[3] - s[2]
        out: dict = {}
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                out[s[1]] = out.get(s[1], 0.0) + (s[3] - s[2]) - child[i]
        return out

    def dump(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["counts"] = self.counts
        doc["self_time_s"] = self.self_times()
        doc["spans"] = self.spans
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points the per-layer metrics are built from."""
    from ncdigraph import (cfg, cli, codec, digraphs, fileio, inference,
                           latent, ontology)
    for owner, attr, name in (
            (codec, "encode_digraph", "codec.encode"),
            (codec, "encode_graph", "codec.encode"),
            (codec, "decode_digraph", "codec.decode"),
            (codec, "decode_graph", "codec.decode"),
            (latent, "latent_encode", "latent.encode"),
            (latent, "parse_latent", "latent.parse"),
            (latent, "constraint_accepts", "latent.scan"),
            (digraphs, "check_property", "digraphs.check"),
            (cfg, "derivation_count", "cfg.derivation"),
            (ontology, "classify", "ontology.classify"),
            (ontology, "count_family", "ontology.count"),
            (ontology, "build_lattice", "ontology.lattice"),
            (inference, "parse_max", "inference.parse"),
            (cli, "run", "cli.run"),
            (fileio, "parse_weights", "fileio.parse_weights"),
            (fileio, "parse_lexicon", "fileio.parse_lexicon")):
        tracer.wrap(owner, attr, name)
    tracer.count(cfg.ProductDfa, "step", "cfg.product_steps")
    tracer.count(latent.ConstraintDfa, "step", "latent.scanner_steps")
