"""Toolkit for graphs with no induced six-vertex path and no induced
four-cycle: certified 3/4-coloring, five-cycle neighborhood structure,
clique-cutset decomposition, obstruction catalogs, and hardness gadgets.
"""

__version__ = "0.1.0"  # set before the submodules, which read it

from .graphs import Graph, induced_subgraph
from .codec import Graph6Error, from_graph6, to_graph6
from .canon import canonical_code, is_isomorphic
from .detect import Embedding, find_induced_copy, is_free
from .coloring import (
    Certificate,
    Coloring,
    NotP6C4FreeError,
    certify_color,
    chromatic_number,
    k_color,
    verify_coloring,
)
from .structure import check_properties, classify, decompose, find_clique_cutset
from .enumeration import (
    SearchConfig,
    enumerate_critical,
    enumerate_family,
    find_nice_critical,
)
from .reductions import SatInstance, build_ghi, build_nae, check_equivalence

__all__ = [
    "Certificate",
    "Coloring",
    "Embedding",
    "Graph",
    "Graph6Error",
    "NotP6C4FreeError",
    "SatInstance",
    "SearchConfig",
    "build_ghi",
    "build_nae",
    "canonical_code",
    "certify_color",
    "check_equivalence",
    "check_properties",
    "chromatic_number",
    "classify",
    "decompose",
    "enumerate_critical",
    "enumerate_family",
    "find_clique_cutset",
    "find_induced_copy",
    "find_nice_critical",
    "from_graph6",
    "induced_subgraph",
    "is_free",
    "is_isomorphic",
    "k_color",
    "to_graph6",
    "verify_coloring",
]
