"""Rotation-invariant nodal force descriptors for spatial truss design.

Pipeline: analyze a pin-jointed truss, turn each node's axial force demands
into a spherical function, expand it in spherical harmonics, and keep the
per-degree energies as a fixed-length, orientation-independent signature.
Signatures feed distance matrices, low-dimensional embeddings, complexity
scores (minimal enclosing sphere radius) and clustering for connection
standardization studies.
"""

from .analysis import (
    BoundingSphere,
    ClusterAssignment,
    Embedding,
    classical_mds,
    complexity_score,
    kmeans,
    min_enclosing_ball,
    principal_coordinates,
)
from .descriptor import (
    DistanceMatrix,
    FeatureVector,
    ForceFunctionSpec,
    build_force_function,
    distance_matrix,
    equilibrium_perturbation,
    node_expansions,
    node_feature_vectors,
)
from .fea import (
    AnalysisResult,
    DemandEntry,
    NodalDemand,
    SingularStructureError,
    SizingResult,
    extract_demands,
    size_members,
    solve,
)
from .generator import (
    GridTrussParams,
    generate_grid_truss,
    latin_hypercube,
    sweep,
)
from .harmonics import (
    HarmonicExpansion,
    QuadratureGrid,
    SphericalSamples,
    build_grid,
    expand,
    truncation_error,
)
from .model import (
    ModelFormatError,
    Point3,
    PointLoad,
    Support,
    TrussElement,
    TrussModel,
    TrussNode,
    UnknownFieldWarning,
    read_model,
    validate,
    write_model,
)

__version__ = "0.1.0"
