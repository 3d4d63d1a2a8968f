"""Edge-inducibility toolkit: induced-copy counting, fractional
independence with half-integral witnesses, blow-up constructions and
closed-form bounds, exact small-budget search, and numeric verification
of the entropy-method inequalities behind the bounds."""

__version__ = "0.1.0"

from .graph import Graph, Graph6Error, parse_graph6, parse_graph6_file, write_graph6
from .kernels import (
    BACKEND,
    CanonicalForm,
    CountSummary,
    automorphism_order,
    canonical_form,
    canonical_label,
    count_induced,
    count_ordered,
    enumerate_ordered,
)
from .fracind import (
    ABCDecomposition,
    HalfIntegralWeighting,
    WeightingInvariantError,
    alpha_f,
    optimal_weighting,
)
from .blowups import (
    BlowupSpec,
    BoundValue,
    blow_up,
    bound_eval,
    construction,
    effective_upper,
    lower_bound_construction,
    optimize_part_sizes,
)
from .search import (
    CeilingError,
    SandwichError,
    SearchResult,
    enumerate_m_edge_graphs,
    rho_exact,
    verify_sandwich,
)
# The entropy lab is imported on first use, since rho and sandwich never
# need it; its names are served by __getattr__ (PEP 562).
_ENTROPY_NAMES = frozenset({
    "C6HypergraphReport",
    "ClaimLedger",
    "CopyDistribution",
    "EmptySupportError",
    "EntropyReport",
    "InvalidTupleError",
    "alpha_extension_edges",
    "alpha_extensions",
    "beta_embeddings",
    "c6_hypergraph_check",
    "characterizes_cycle",
    "cycle_extension_ledger",
    "cycle_path_shearer",
    "drop_one_covers",
    "full_tuple_identity",
    "gamma_table",
    "induced_cycles",
    "is_well_ordered",
    "projection_entropy",
    "validate_edge_tuple",
    "verify_chain_shearer",
    "verify_path_decomposition",
})


def __getattr__(name):
    if name == "entropy" or name in _ENTROPY_NAMES:
        # not ``from . import entropy``, whose lookup would call this again
        from importlib import import_module

        entropy = import_module(".entropy", __name__)
        return entropy if name == "entropy" else getattr(entropy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["entropy", *_ENTROPY_NAMES])
