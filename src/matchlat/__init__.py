"""Distributive lattices on the perfect matchings of plane bipartite graphs.

The package builds the face-flip digraph on the perfect matchings of a
plane bipartite graph, orders it into a distributive lattice, analyzes
finite distributive lattices through their join-irreducibles, and
generates witness graph families (fused-hexagon systems, outerplane
realizations of oriented trees, linked components) for exhaustive,
desk-scale verification of the structural theory.
"""

from .caps import DEFAULT_CAPS, SizeCaps
from .errors import MatchlatError
from .lattice import (
    Decomposition,
    FiniteLattice,
    FinitePoset,
    central_elements,
    chain_poset,
    complements,
    direct_product,
    grid_poset,
    grid_sublattice,
    irreducible_decomposition,
    is_distributive,
    join_irreducibles,
    lattice_from_poset,
    lattice_isomorphic,
    order_ideal_lattice,
    poset_isomorphic,
    rank_check,
)
from .matching import (
    AlternatingCycleReport,
    Matching,
    all_alternating_cycles,
    classify_alternating_faces,
    enumerate_perfect_matchings,
)
from .plane_graph import (
    BLACK,
    WHITE,
    DualDigraph,
    FaceWalk,
    PlaneBipartiteGraph,
    find_e_cuts,
    load_graph,
    load_graph_file,
    load_graph_json,
    oriented_dual,
)
from .ztransform import (
    ExtremalMatchings,
    ZDigraph,
    build_z_digraph,
    extremal_matchings,
    face_poset_outerplane,
    matching_lattice,
    matching_poset,
    sigma,
    verify_iso_matchings_ideals,
)
from .generators import (
    OrientedTree,
    TruncatedParallelogram,
    TruncatedParallelogramSpec,
    hexagon_poset,
    link_components,
    parallelogram_spec,
    parse_spec,
    prolate_triangle_spec,
    tree_to_outerplane,
    truncated_parallelogram,
    verify_iso_parallelogram,
)

__version__ = "0.1.0"
