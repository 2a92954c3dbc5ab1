"""Controllability analysis for uniform and non-uniform hypergraphs."""

from .controllability import (
    ControllabilityVerdict,
    ReducedControllabilityMatrix,
    VerdictKind,
    closure_basis,
    verdict,
)
from .hypergraph import (
    Hypergraph,
    adjacency_auto,
    complete,
    hyperchain,
    hyperring,
    hyperstar,
    overlap_variant,
    random_uniform,
)
from .ingest import (
    TimeSeriesMatrix,
    build_hypergraph,
    load_time_series_csv,
    multi_correlation,
)
from .mcn import (
    Component,
    ExactSearchGuardError,
    MCNResult,
    connected_components,
    mcn_exact,
    mcn_greedy,
    mcn_predicted,
)
from .tensor import AdjacencyTensor, ControlMatrix, degrees

__version__ = "0.1.0"
