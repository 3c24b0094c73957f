"""Exact cohomology of finite groupoids with abelian coefficients.

Subpackages mirror the mathematical layers: integer linear algebra
(`abelian`), finite groupoids and their nerves (`groupoid`), coefficient
modules (`gmodule`), the cochain complex and H^n (`cohomology`), the
low-degree dictionaries with torsors and extensions (`classify`), covers of
simplicial spaces with refinement and homotopy operators (`cech`), Morita
invariance checks (`morita`) and a batch CLI (`cli`).
"""

from .abelian import (
    AbComplex,
    AbHom,
    FinAbGroup,
    IntegerMatrix,
    InvariantFactors,
    canonical_form,
    homology_at,
    hom_is_well_defined,
    smith_normal_form,
)
from .groupoid import (
    FiniteGroupoid,
    GroupoidMorphism,
    MonotoneMap,
    NerveTuple,
    action_groupoid,
    cover_groupoid,
    cyclic_group,
    pair_groupoid,
    unit_groupoid,
)
from .gmodule import GModule, constant_module, pullback_module, validate_module
from .cohomology import (
    Cochain,
    cochain_group,
    cohomology,
    differential,
    differential_matrix,
    invariant_sections,
    is_coboundary,
    is_cocycle,
    make_cochain,
)
from .classify import (
    EquivariantTorsor,
    Extension,
    are_equivalent,
    baer_sum,
    cocycle_from_extension,
    cocycle_from_torsor,
    ext_classes,
    extension_from_cocycle,
    extension_inverse,
    is_strictly_trivial,
    strictly_trivial_extension,
    torsor_from_cocycle,
    validate_extension,
    validate_torsor,
    verify_psi_coherence,
)
from .cech import (
    Budget,
    BudgetExceeded,
    ConstantCoefficients,
    ConstantSpace,
    Cover,
    InducedSimplicialCover,
    MaximalSimplicialCover,
    ModuleCoefficients,
    NerveSpace,
    Refinement,
    cech_cohomology_on_cover,
    check_homotopy_identity,
    constant_space_comparison,
    face_table,
    homotopy_operator,
    refinement_map,
    sigma_cover,
    single_set_cover,
    use_budget,
)
from .morita import cover_nerve_structure, morita_compare
from .randomized import run_homotopy_trials

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
