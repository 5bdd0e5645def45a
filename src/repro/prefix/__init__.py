"""``repro.prefix`` — parallel prefix-graph circuit representation.

The discrete search space X of the paper: N x N grid encodings of prefix
circuits, legalization, classical structures, functional verification, and
structural metrics.
"""

from .encoding import (
    bits_to_graph,
    bits_to_graphs,
    free_cells,
    graph_to_bits,
    graph_to_grid,
    grid_to_graph,
    legalize_bits,
    num_free_cells,
    random_graph,
    unique_random_graphs,
)
from .graph import PrefixGraph, Span
from .io import graph_from_dict, graph_to_dict, load_designs, save_designs
from .legalize import legalize, legalize_grid, legalize_grids, prune_redundant
from .metrics import (
    batch_depths,
    batch_levels,
    batch_node_counts,
    depth,
    fanout_histogram,
    hamming_distance,
    max_fanout,
    node_count,
    stacked_grids,
    structure_summary,
)
from .structures import (
    STRUCTURES,
    brent_kung,
    han_carlson,
    kogge_stone,
    ladner_fischer,
    make_structure,
    ripple_carry,
    sklansky,
)
from .verify import (
    check_adder,
    check_gray_to_binary,
    check_leading_zeros,
    gray_encode,
    simulate_adder,
    simulate_gray_to_binary,
    simulate_leading_zeros,
)

__all__ = [
    "PrefixGraph",
    "Span",
    "graph_to_dict",
    "graph_from_dict",
    "save_designs",
    "load_designs",
    "legalize",
    "legalize_grid",
    "legalize_grids",
    "prune_redundant",
    "ripple_carry",
    "sklansky",
    "kogge_stone",
    "brent_kung",
    "han_carlson",
    "ladner_fischer",
    "STRUCTURES",
    "make_structure",
    "check_adder",
    "check_gray_to_binary",
    "check_leading_zeros",
    "simulate_adder",
    "simulate_leading_zeros",
    "simulate_gray_to_binary",
    "gray_encode",
    "free_cells",
    "num_free_cells",
    "graph_to_bits",
    "bits_to_graph",
    "bits_to_graphs",
    "legalize_bits",
    "graph_to_grid",
    "grid_to_graph",
    "random_graph",
    "unique_random_graphs",
    "node_count",
    "depth",
    "max_fanout",
    "fanout_histogram",
    "hamming_distance",
    "structure_summary",
    "stacked_grids",
    "batch_levels",
    "batch_depths",
    "batch_node_counts",
]
