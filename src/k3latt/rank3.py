"""Rank-3 transcendental-lattice verification and the singular-case pipeline.

For rank 3 the candidate lattice is pinned down by signature, determinant,
discriminant form, and a cube-divisor smallness test that guarantees
one class per genus.  For rank 2 the pipeline negates the Picard-side
discriminant form and matches it against the reduced forms of the right
discriminant, insisting on a unique hit.  The smallness test is plain
integer arithmetic; the functions that need lattices and forms import them.
"""

from __future__ import annotations

from .errors import MathFailure
from .value import Value


class ZeroDiscriminant(ValueError):
    """Smallness is undefined for d == 0."""


class NoMatch(MathFailure):
    """No reduced form of the given discriminant has the target form."""


class Ambiguous(MathFailure):
    """Several classes share the target form: the genus is not a singleton."""


def is_small_discriminant(d: int) -> bool:
    """True iff no k >= 2 with k == 0, 1 (mod 4) has k^3 dividing 4|d|.

    Small discriminants have one class per genus in rank 3, so signature
    plus discriminant form determines the lattice.
    """
    if d == 0:
        raise ZeroDiscriminant("smallness is undefined for 0")
    bound = 4 * abs(d)
    k = 2
    while k * k * k <= bound:
        if k % 4 in (0, 1) and bound % (k * k * k) == 0:
            return False
        k += 1
    return True


class Rank3Candidate(Value):
    __slots__ = ("gram", "expected_d", "expected_form")
    gram: GramMatrix
    expected_d: int
    expected_form: FiniteQF

    def __init__(self, gram: GramMatrix, expected_d: int, expected_form: FiniteQF):
        self._assign(gram, expected_d, expected_form)


class CandidateReport(Value):
    __slots__ = ("signature_ok", "determinant_ok", "disc_form_ok", "small_ok", "det")
    signature_ok: bool
    determinant_ok: bool
    disc_form_ok: bool
    small_ok: bool
    det: int

    def __init__(self, signature_ok: bool, determinant_ok: bool, disc_form_ok: bool,
                 small_ok: bool, det: int):
        self._assign(signature_ok, determinant_ok, disc_form_ok, small_ok, det)

    @property
    def verified(self) -> bool:
        return (self.signature_ok and self.determinant_ok
                and self.disc_form_ok and self.small_ok)


def verify_candidate(cand: Rank3Candidate) -> CandidateReport:
    """Check signature (2,1), determinant, discriminant form, and smallness."""
    from .discforms import FiniteQF
    from .lattice import determinant, signature
    det = determinant(cand.gram)
    sig_ok = det != 0 and signature(cand.gram) == (2, 1)
    det_ok = det == cand.expected_d
    form_ok = (det != 0 and cand.gram.is_even()
               and FiniteQF.from_lattice(cand.gram).is_isomorphic(cand.expected_form))
    small_ok = det != 0 and is_small_discriminant(det)
    return CandidateReport(sig_ok, det_ok, form_ok, small_ok, det)


def transcendental_of_singular(d: int, ns_form: FiniteQF) -> EvenBinaryForm:
    """The rank-2 transcendental lattice from the Picard discriminant form.

    The orthogonal complement carries the negated form, so we match
    -ns_form over the reduced forms of discriminant d and demand a unique
    answer; several matches mean the genus has more than one class and the
    caller cannot conclude.
    """
    from .binforms import match_disc_form
    matches = match_disc_form(d, ns_form.negate())
    if not matches:
        raise NoMatch(f"no reduced form of discriminant {d} matches the negated form")
    if len(matches) > 1:
        raise Ambiguous(
            f"forms {', '.join(str(m) for m in matches)} all match: genus is not a singleton")
    return matches[0]
