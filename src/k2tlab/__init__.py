"""k2tlab: exact combinatorics for graphs with no induced K_(2,t).

Clique lower bounds, induced Turan upper bounds, constructive witness
extraction, exact small Ramsey numbers, extremal generators, and
exhaustive verification suites, all with machine-checkable certificates.
"""

from .bounds import (
    BoundReport,
    TuranBound,
    beta,
    beta_identity_residual,
    clique_guarantee,
    clique_lower_report,
    induced_turan_upper,
    theorem_clique_r,
    triangle_theorem_condition,
    triangle_upper,
)
from .bitslice import delta_max
from .constructions import (
    complete,
    complete_bipartite,
    cycle,
    empty,
    enumerate_labelled,
    path,
    polarity_graph,
    random_gnp,
    standard,
    turan,
)
from .detect import (
    Embedding,
    InducedK2tCertificate,
    SelfCheckError,
    contains_family_member,
    contains_subgraph,
    find_independent_set,
    find_induced_k2t,
    max_clique,
)
from .graphs import (
    Graph,
    GraphError,
    InducedSubgraph,
    build,
    density,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    missing_edges,
    parse_edge_text,
)
from .ramsey import (
    GraphFamily,
    RamseyQuery,
    RamseyResult,
    explicit_family,
    family_minus_ebar,
    family_minus_vertex,
    is_isomorphic,
    known_ramsey,
    ramsey_exact,
)
from .witness import (
    OUTCOME_BOUNDARY_DEGENERATE,
    OUTCOME_H_EMBEDDED,
    OUTCOME_HYPOTHESIS_NOT_MET,
    OUTCOME_INDUCED_K2T,
    Ledger,
    ProofTrace,
    extract,
    greedy_packing,
    ledger,
    pigeonhole_edge,
    verify_trace,
)

__version__ = "0.1.0"
