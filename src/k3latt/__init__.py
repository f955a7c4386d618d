"""Exact-arithmetic classification of even integral lattices.

Core pieces: exact lattice linear algebra (determinant, signature, Smith
normal form, discriminant groups), finite discriminant forms with
isomorphism testing, reduction and enumeration of positive-definite even
binary forms, rank-3 candidate verification, ternary isotropy certificates,
and a bundled catalog of K3 transcendental-lattice data with a CLI.

``import k3latt`` loads no submodule.  Each public name is bound on first
use (PEP 562): ``k3latt.X`` or ``from k3latt import X`` imports the module
that defines X, as listed in ``_EXPORTS``, and caches X here.  ``__all__``
and ``dir(k3latt)`` list every name, and ``from k3latt import *`` binds
them all.  So a program, and each CLI command, pays only for the modules
it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "lattice": (
        "A2", "E8", "K3_LATTICE", "T_HESS", "U", "DegenerateLattice", "DimensionMismatch",
        "GramMatrix", "NotInDual", "OddLattice", "SNFResult", "as_vector", "determinant",
        "direct_sum", "discriminant_group", "is_dual_vector", "order_in_quotient",
        "pairing_modZ", "qnorm_mod2Z", "signature", "smith_normal_form",
        "sublattice_index_law", "twist"),
    "discforms": ("FiniteQF", "TooLarge", "parse_form_literal"),
    "errors": ("InvalidForm", "MathFailure"),
    "binforms": (
        "CMSurd", "EmptyResult", "EvenBinaryForm", "UnimodularTransform", "apply_transform",
        "class_number", "cm_moduli", "enumerate_reduced", "equivalent", "genus_partition",
        "hessian_embeddable", "match_disc_form", "reduce"),
    "rank3": ("Ambiguous", "NoMatch", "Rank3Candidate", "is_small_discriminant",
              "transcendental_of_singular", "verify_candidate"),
    "ternary": ("IsotropyVerdict", "SearchTooLarge", "TernaryForm", "WrongSignature",
                "decide_isotropy", "find_isotropic", "is_simple_shioda_inose",
                "local_obstruction"),
    "nsverify": ("CurveConfig", "check_divisible_class", "generators_report"),
    "catalog": ("Catalog", "CatalogError", "load_catalog", "repro_section4", "repro_section5",
                "repro_table1"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
