"""Exact matching counts for planar graphs with boundary.

Signed adjacency matrices are constructed by deforming a canonical
drawing to the target and flipping an edge's sign whenever a vertex
passes through it; determinant and Pfaffian minors of the result count
matchings by boundary trace, exactly, and everything is checked against a
brute-force oracle.
"""

from .geometry import (
    QuadNum,
    QuadPoly,
    SegmentRelation,
    motion_collinearity_poly,
    orient,
    roots_in_open_unit_interval,
    segment_relation,
)
from .graphs import (
    GraphWithBoundary,
    ValidationReport,
    boundary_of,
    edge_key,
    graph_kind,
    make_graph,
    matching_weight,
    validate,
)
from .fixtures import (
    generate_aztec,
    generate_grid,
    generate_random_disc_graph,
    generate_triangulation_subgraph,
)
from .immersion import (
    canonical_start,
    crossing_number,
    is_disc_embedding,
    is_embedding,
    is_immersion,
    keeps_disc_rule,
    matching_sign,
)
from .transport import (
    DegeneratePath,
    EventRecord,
    RetriesExhausted,
    SignAssignment,
    build_path,
    compute_signed_structure,
    transport_signs,
)
from .linalg import (
    OddLeadingBlock,
    RatMatrix,
    SingularLeadingBlock,
    SingularLeftBlock,
    SkewMatrix,
    det,
    matrix,
    minor,
    pfaffian,
    pfaffian_minor,
    reduce_left_block,
    skew,
    skew_congruence_reduce,
)
from .oracle import (
    EnumerationCapExceeded,
    enumerate_matchings,
    oracle_measurement,
    signed_sum,
)
from .measurements import (
    BaseCaseZero,
    GrassmannPoint,
    KasteleynMatrix,
    MeasurementTable,
    PfaffianPoint,
    SkewKasteleynMatrix,
    grassmann_point,
    kasteleyn_matrix,
    measurement_table,
    pfaffian_point,
    skew_kasteleyn_matrix,
)
from .identities import (
    IdentityReport,
    check_kuo_bipartite,
    check_kuo_general,
    check_pfaffian_consistency,
    check_plucker_three_term,
)
from .graphfile import GraphFileError, parse, serialize

__version__ = "0.1.0"
