"""Exact geometry and representation theory of permutation polytopes.

The polytope of a finite permutation group is the convex hull of its
permutation matrices.  This package builds such polytopes for arbitrary
faithful actions (natural, coset sums, generator images), decides when
two of them are stably or effectively equivalent by two independent
routes (affine kernels and character constituents), and computes face,
lattice, and volume data, all over exact rational and cyclotomic
arithmetic.
"""

from .characters import (CharacterTable, Constituents, IsotypeReport,
                         RealIrreducible, character_table, constituents,
                         invariant_factors, permutation_character,
                         real_irreducibles, stably_equivalent_by_characters,
                         verify_isotype)
from .groups import (CosetAction, CycleParseError, FiniteGroup, GroupMap,
                     Permutation, SizeCapError, Subgroup, automorphisms,
                     generator_correspondence, isomorphisms,
                     isomorphisms_iter, parse_cycles)
from .polytopes import (FaceCensusEntry, FaceResult, LatticeData, Membership,
                        PermutationPolytope, ShapeDescriptor,
                        UnsupportedShapeError, build_polytope, is_face,
                        lattice_structure, normalized_volume,
                        point_membership, polytopes_equal, shape_descriptor,
                        subgroup_face_census)
from .report import Report, canonical_json
from .reps import (AffineKernel, EquivariantMap, NotFaithfulError,
                   NotStablyEquivalentError, PermRep, affine_kernel,
                   build_equivariant_map, compose_with_map,
                   cycle_divisor_obstruction, effectively_equivalent,
                   stably_equivalent_by_kernel)
from .scenarios import SCENARIOS, run_scenario

__version__ = "0.1.0"

__all__ = [
    "AffineKernel", "CharacterTable", "Constituents", "CosetAction",
    "CycleParseError", "EquivariantMap", "FaceCensusEntry", "FaceResult",
    "FiniteGroup", "GroupMap", "IsotypeReport", "LatticeData", "Membership",
    "NotFaithfulError", "NotStablyEquivalentError", "PermRep", "Permutation",
    "PermutationPolytope", "RealIrreducible", "Report", "SCENARIOS",
    "ShapeDescriptor", "SizeCapError", "Subgroup", "UnsupportedShapeError",
    "affine_kernel", "automorphisms", "build_equivariant_map",
    "build_polytope", "canonical_json", "character_table", "compose_with_map",
    "constituents", "cycle_divisor_obstruction", "effectively_equivalent",
    "generator_correspondence", "invariant_factors", "is_face",
    "isomorphisms", "isomorphisms_iter", "lattice_structure",
    "normalized_volume", "parse_cycles",
    "permutation_character", "point_membership", "polytopes_equal",
    "real_irreducibles", "run_scenario", "shape_descriptor",
    "stably_equivalent_by_characters", "stably_equivalent_by_kernel",
    "subgroup_face_census", "verify_isotype",
]
