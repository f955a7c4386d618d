"""Divisibility and generator checks on user-supplied intersection data.

Configurations of curves come in as a labeled Gram matrix of intersection
numbers; candidate classes are integer combinations divided by n.  Reports
are granular (membership, norm, order, generated subgroup) so multi-part
hand computations can be cross-checked line by line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Optional, Sequence

from .lattice import (
    DimensionMismatch,
    GramMatrix,
    determinant,
    is_dual_vector,
    order_in_quotient,
    qnorm_mod2Z,
    smith_normal_form,
)


class InvalidConfig(ValueError):
    """Configuration data violates its declared constraints."""


@dataclass(frozen=True)
class CurveConfig:
    names: tuple[str, ...]
    gram: GramMatrix
    rational_curves: bool = False

    def __post_init__(self):
        if len(self.names) != self.gram.n:
            raise InvalidConfig("one label per basis curve required")
        if self.rational_curves:
            for i in range(self.gram.n):
                if self.gram.rows[i][i] != -2:
                    raise InvalidConfig(
                        f"curve {self.names[i]} has self-intersection "
                        f"{self.gram.rows[i][i]}, expected -2")


@dataclass(frozen=True)
class ClassReport:
    coeffs: tuple[int, ...]
    n: int
    in_dual: bool
    qnorm: Optional[Fraction]
    order: Optional[int]

    def line(self) -> str:
        frac = f"({' '.join(str(c) for c in self.coeffs)})/{self.n}"
        if not self.in_dual:
            return f"{frac}: NOT in dual"
        return f"{frac}: in dual, q = {self.qnorm} mod 2Z, order {self.order}"


def check_divisible_class(cfg: CurveConfig, coeffs: Sequence[int], n: int) -> ClassReport:
    """Membership, norm mod 2Z and quotient order of coeffs/n."""
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) != cfg.gram.n:
        raise DimensionMismatch(
            f"expected {cfg.gram.n} coefficients, got {len(coeffs)}")
    if n < 1:
        raise ValueError("divisor n must be >= 1")
    v = tuple(Fraction(c, n) for c in coeffs)
    if not is_dual_vector(cfg.gram, v):
        return ClassReport(coeffs, n, False, None, None)
    return ClassReport(coeffs, n, True, qnorm_mod2Z(cfg.gram, v),
                       order_in_quotient(cfg.gram, v))


@dataclass(frozen=True)
class GeneratorsReport:
    classes: tuple[ClassReport, ...]
    subgroup_order: int
    expected_order: int

    @property
    def generates_full_group(self) -> bool:
        return self.subgroup_order == self.expected_order

    def lines(self) -> list[str]:
        out = [r.line() for r in self.classes]
        verdict = "generate" if self.generates_full_group else "do NOT generate"
        out.append(f"candidates {verdict} the discriminant group: "
                   f"subgroup order {self.subgroup_order} of {self.expected_order}")
        return out


def generators_report(cfg: CurveConfig,
                      candidates: Sequence[tuple[Sequence[int], int]]) -> GeneratorsReport:
    """Per-candidate reports plus the order of the subgroup they generate.

    The subgroup lives in L^dual/L, realized as vectors mod Z^r.  With N
    the lcm of the dual candidates' divisors n_i, multiplying by N carries
    it onto the subgroup of (Z/N)^r generated by w_i = (N/n_i) c_i, whose
    order is N^r divided by the index of the lattice spanned by the w_i
    and N Z^r: the product of the Smith normal form diagonal of
    [w_1 ... w_k | N I].  Time and memory do not grow with the order.
    """
    reports = tuple(check_divisible_class(cfg, coeffs, n) for coeffs, n in candidates)
    dual = [r for r in reports if r.in_dual]
    scale = lcm(*(r.n for r in dual))
    rank = cfg.gram.n
    mat = [[scale // r.n * r.coeffs[i] for r in dual]
           + [scale if i == j else 0 for j in range(rank)] for i in range(rank)]
    index = prod(smith_normal_form(mat).invariant_factors)
    return GeneratorsReport(reports, scale ** rank // index, abs(determinant(cfg.gram)))
