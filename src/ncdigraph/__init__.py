"""Noncrossing digraph toolkit: bracket codecs, latent finite-state axioms
for digraph families, the family ontology, and exact arc-factored
max-weight inference with a declaratively selected search space."""

from .digraphs import (ALL_PROPERTIES, Digraph, Graph, PropertyId,
                       check_property, enumerate_noncrossing_digraphs,
                       enumerate_noncrossing_graphs,
                       find_forbidden_configuration, is_noncrossing,
                       make_digraph, make_graph, parse_property_set,
                       uacyclic_chain_scan, underlying)
from .codec import (CodecError, decode_digraph, decode_graph, encode_digraph,
                    encode_graph)
from .latent import (LatentBracket, constraint_accepts, h_lat, latent_encode,
                     latent_to_str, maximal_chains, parse_latent, reg_lat)
from .ontology import (FamilyClass, Lattice, build_lattice, classify,
                       count_family, sequence)
from .inference import (LexicalConstraint, NoParseError, ParseResult,
                        WeightMatrix, build_intersection_grammar,
                        count_family_strings, parse_max)
from .cfg import (DyckSpec, Grammar, Homomorphism, cs_components_graph,
                  derivation_count, dyck_check, grammar_nc_graph, membership)

__all__ = [name for name in dir() if not name.startswith("_")]
