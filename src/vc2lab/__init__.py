"""VC- and VC2-dimension computations for Green-Sanders sets over F_p^n."""

from .fp import FieldCtx, as_points, mat_rank, orth_complement, solve_affine
from .highrank import HighRankBasis, IrreduciblePoly, build_irreducible, build_trace_basis, check_high_rank
from .gs import ExplicitSet, GsSet, QgsSet
from .shatter import (
    ContainmentMap,
    NotShattered,
    QuadShatterCertificate,
    ShatterCertificate,
    VcDimResult,
    shatters,
    vc2_realizes,
    vc2_shatters,
    vc_dim,
)
from .factor import (
    CheckResult,
    QuadraticFactor,
    ShatterPairConstruction,
    atom_census,
    check_forced_zeros,
    construct_shatter_pair,
    find_in_atom,
    find_in_atoms,
    forced_zero_probe,
    planted_qualifying_sets,
    realize_map,
    realize_maps,
    zero_forcing_map,
)
from .ramsey import (
    BicliqueWitness,
    BipartiteColouring,
    BrBound,
    br_upper_bound,
    find_mono_biclique,
    random_colouring,
)

__all__ = [name for name in dir() if not name.startswith("_")]
