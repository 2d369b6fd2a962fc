"""Command-line interface: encode, decode, classify, enumerate, lattice,
count, parse.

Exit status 1 on malformed input, 2 when the requested family is empty.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import codec, fileio, inference, latent, ontology
from .digraphs import (ALL_PROPERTIES, check_property, is_noncrossing,
                       parse_property_set, underlying)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _family(args) -> frozenset:
    if not getattr(args, "family", None):
        return frozenset()
    return parse_property_set(args.family)


def cmd_encode(args) -> int:
    g = fileio.parse_digraph(_read_text(args.file))
    if args.digraph:
        print(codec.encode_digraph(g))
    else:
        print(codec.encode_graph(underlying(g)))
    return 0


def cmd_decode(args) -> int:
    if args.digraph:
        g = codec.decode_digraph(args.string)
        sys.stdout.write(fileio.format_digraph(g))
    else:
        sys.stdout.write(fileio.format_graph(codec.decode_graph(args.string)))
    return 0


def cmd_classify(args) -> int:
    # the properties are defined on loop-free digraphs
    g = fileio.parse_digraph(_read_text(args.file), allow_loops=False)
    for p in ALL_PROPERTIES:
        if check_property(g, p):
            print(p.value)
    print("noncrossing: " + ("yes" if is_noncrossing(g) else "no"))
    return 0


def cmd_enumerate(args) -> int:
    if args.count_only:  # the same number `count` takes from the chart
        return cmd_count(args)
    from .digraphs import enumerate_noncrossing_digraphs
    req = _family(args)
    for g in enumerate_noncrossing_digraphs(args.n):
        if req and not all(check_property(g, p) for p in req):
            continue
        if args.latent:
            print(latent.latent_to_str(latent.latent_encode(g)))
        else:
            print(codec.encode_digraph(g))
    return 0


def cmd_lattice(args) -> int:
    lat = ontology.build_lattice(args.n)
    for cls in lat.classes:
        name = cls.name or ""
        print(f"{ontology.signature_string(cls.signature)}\t{cls.count}\t{name}")
    return 0


def cmd_count(args) -> int:
    print(ontology.count_family(args.n, _family(args)))
    return 0


def cmd_parse(args) -> int:
    w = fileio.parse_weights(_read_text(args.weights))
    lex = None
    if args.lexicon:
        lex = fileio.parse_lexicon(_read_text(args.lexicon))
    try:
        result = inference.parse_max(w, _family(args), lex)
    except inference.NoParseError as exc:
        print(f"no parse: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(fileio.format_digraph(result.digraph))
    weight = result.weight
    if hasattr(weight, "denominator") and weight.denominator == 1:
        weight = int(weight)
    print(f"weight {weight}")
    return 0


# built once: parsing leaves the parser as it was
@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ncdigraph",
                                 description="noncrossing digraph toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="digraph file -> bracket string")
    p.add_argument("file")
    p.add_argument("--digraph", action="store_true",
                   help="oriented brackets instead of the underlying graph")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="bracket string -> digraph file")
    p.add_argument("string")
    p.add_argument("--digraph", action="store_true")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("classify", help="print satisfied properties")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="stream noncrossing digraphs")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--family", default="")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--latent", action="store_true",
                   help="emit latent encodings")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("lattice", help="property-signature classes as TSV")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("count", help="family cardinality")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--family", default="")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("parse", help="max-weight digraph in a family")
    p.add_argument("--weights", required=True)
    p.add_argument("--family", default="")
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_parse)

    return ap


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
