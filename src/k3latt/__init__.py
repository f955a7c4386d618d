"""Exact-arithmetic classification of even integral lattices.

Core pieces: exact lattice linear algebra (determinant, signature, Smith
normal form, discriminant groups), finite discriminant forms with
isomorphism testing, reduction and enumeration of positive-definite even
binary forms, rank-3 candidate verification, ternary isotropy certificates,
and a bundled catalog of K3 transcendental-lattice data with a CLI.
"""

from .lattice import (
    A2,
    E8,
    K3_LATTICE,
    T_HESS,
    U,
    DegenerateLattice,
    DimensionMismatch,
    GramMatrix,
    NotInDual,
    OddLattice,
    SNFResult,
    as_vector,
    determinant,
    direct_sum,
    discriminant_group,
    is_dual_vector,
    order_in_quotient,
    pairing_modZ,
    qnorm_mod2Z,
    signature,
    smith_normal_form,
    sublattice_index_law,
    twist,
)
from .discforms import FiniteQF, InvalidForm, TooLarge, parse_form_literal
from .binforms import (
    CMSurd,
    EmptyResult,
    EvenBinaryForm,
    MathFailure,
    UnimodularTransform,
    apply_transform,
    class_number,
    cm_moduli,
    enumerate_reduced,
    equivalent,
    genus_partition,
    hessian_embeddable,
    match_disc_form,
    reduce,
)
from .rank3 import (
    Ambiguous,
    NoMatch,
    Rank3Candidate,
    is_small_discriminant,
    transcendental_of_singular,
    verify_candidate,
)
from .ternary import (
    IsotropyVerdict,
    SearchTooLarge,
    TernaryForm,
    WrongSignature,
    decide_isotropy,
    find_isotropic,
    is_simple_shioda_inose,
    local_obstruction,
)
from .nsverify import CurveConfig, check_divisible_class, generators_report
from .catalog import (
    Catalog,
    CatalogError,
    load_catalog,
    repro_section4,
    repro_section5,
    repro_table1,
)

__version__ = "0.1.0"
