"""Exact combinatorics and linear algebra for coverings of nodal curves.

The package computes with the free-product fundamental groups of nodal
curves, the coverings attached to their finite-dimensional representations
over F_p(t), constant-coefficient descent twists and their integral models,
Frobenius-divided data, and function Hopf algebras of finite groups.
"""

__version__ = "0.1.0"

from .field import (
    FunctionField,
    RationalFunction,
    MatrixK,
    LatticeK,
    solve_linear,
    lattice_hermite,
    rf_from_string,
    rf_to_string,
    INFINITY,
)
from .groups import (
    FiniteGroup,
    FPSignature,
    FPWord,
    fp_normalize,
    fp_mul,
    enumerate_words,
    kernel_words,
)
from .curves import NodalCurve, Pi1Presentation, dual_graph, betti_rank, pi1_presentation
from .reps import (
    ContinuousRep,
    FiniteQuotientRep,
    rep_tensor,
    inflate,
)
from .covering import (
    ComponentIndex,
    FiniteCover,
    InvariantOpen,
    FundamentalDomain,
    component_action,
    certify_free_action,
    find_separating_open,
    fundamental_domain,
    cover_witness,
    build_finite_cover,
)
from .descent import (
    MeromorphicCocycle,
    LatticeAssignment,
    FiniteCocycle,
    datum_from_rep,
    check_cocycle,
    hom_cocycle,
    integralize,
    det_valuation_conserved,
    descend_inflation,
)
from .stratified import (
    FDividedDatum,
    fdiv_from_rep,
    hom_fdiv,
    tensor_fdiv,
)
from .specialize import (
    SpecializationResult,
    sp_pipeline,
    F_pipeline,
    commuting_square_check,
)
from .hopf import HopfAlgebra, QuotientTower, function_hopf, tower_hull
