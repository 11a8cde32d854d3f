"""Walk-neighborhood complexes of finite graphs: exact-length walk
neighborhoods, linked-pair posets, integral homology via Smith normal form,
involution heights, discrete Morse collapses, and graph-homomorphism
obstruction certificates."""

from .errors import (
    CollapseError,
    ConsistencyError,
    FreenessError,
    ResourceLimitError,
)
from .graphs import (
    Graph,
    SearchOutcome,
    graph_from_json_obj,
    graph_to_json_obj,
    hom_search,
    kneser_walk_test,
    load_graph,
    make_cycle,
    make_kneser,
    odd_girth,
    parse_edge_list,
    save_graph,
    validate_hom,
)
from .complexes import (
    DEFAULT_FACE_LIMIT,
    Poset,
    SimplicialComplex,
    complex_from_json_obj,
    complex_to_json_obj,
    neighborhood_complex,
    order_complex,
    pair_poset,
)
from .homology import (
    HomologyResult,
    Presentation,
    abelianize,
    edge_path_presentation,
    h1_summand_certificate,
    homology,
    homology_connectivity,
    smith_normal_form,
)
from .z2 import (
    FreenessReport,
    HeightBounds,
    Involution,
    KneserReport,
    ObstructionReport,
    check_free_involution,
    height_bounds,
    kneser_certificate,
    obstruction_check,
    pair_space_height,
    pair_swap_involution,
    z2_height,
)
from .morse import (
    MorseMatching,
    collapse_cycle_tower,
    cycle_matching,
)

__version__ = "0.1.0"
