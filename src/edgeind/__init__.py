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
from .search import CeilingError, SearchResult, enumerate_m_edge_graphs, rho_exact

# The modules that rho and count never need are imported on first use: the
# fractional independence number, the blow-up layer with the sandwich
# check, and the entropy lab.  Their names are served by __getattr__
# (PEP 562) from this table, name -> defining module; a module's own name
# maps to itself.
_LAZY = {
    **dict.fromkeys(("fracind", "ABCDecomposition", "HalfIntegralWeighting",
                     "WeightingInvariantError", "alpha_f", "optimal_weighting"), "fracind"),
    **dict.fromkeys(("blowups", "BlowupSpec", "BoundValue", "SandwichError", "blow_up",
                     "bound_eval", "construction", "effective_upper",
                     "lower_bound_construction", "optimize_part_sizes", "verify_sandwich"),
                    "blowups"),
    **dict.fromkeys((
        "entropy",
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
    ), "entropy"),
}


def __getattr__(name):
    owner = _LAZY.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not ``from . import ...``, whose lookup would call this again
    from importlib import import_module

    module = import_module("." + owner, __name__)
    return module if name == owner else getattr(module, name)


__all__ = sorted({name for name in dir() if not name.startswith("_")} | _LAZY.keys())
