"""Critical independence structure toolkit for finite simple graphs."""

from .errors import (FormatError, GraphError, InvalidVertexError,
                     LimitExceededError, NotUnicyclicError, PartitionError,
                     PreconditionError, ScriptError)
from .graphs import (Graph, connected_components, delete_vertices, difference,
                     find_unique_cycle, induced_subgraph, neighborhood,
                     parse_edge_list, parse_graph6, to_edge_list, to_graph6)
from .independence import (alpha, core, enumerate_maximum_independent_sets,
                           is_independent)
from .matching import (Matching, has_perfect_matching, is_factor_critical,
                       matching_from_into, max_matching_bipartite,
                       max_matching_bruteforce, max_matching_general, mu)
from .critical import (HXGadget, MinimalDecomposition, build_hx,
                       cover_ker, critical_difference,
                       critical_difference_oracle, decompose_minimal, diadem,
                       diadem_oracle, enumerate_critical_sets,
                       enumerate_minimal_positive_sets, ker, ker_without,
                       min_cardinality_positive_subset, verify_hx_ker)
from .unicyclic import (BuildScript, ColoredUnicyclic, disconnected_invariants,
                        generate, generate_random, is_ke, parse_script,
                        recognize, script_to_text)
# The decomposition function lives at critindep.gallai_edmonds.gallai_edmonds;
# importing it here would shadow the submodule attribute.
from .gallai_edmonds import GallaiEdmondsPartition, check_theorem_53

__version__ = "0.1.0"
