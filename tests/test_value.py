"""Value semantics of the immutable classes: what ``@dataclass(frozen=True)``
gave them, kept by the ``Value`` base."""

import copy
import importlib
import pickle
from fractions import Fraction

import pytest

from k3latt.binforms import CMSurd, EvenBinaryForm, UnimodularTransform
from k3latt.catalog import (
    Catalog,
    FamilyRecord,
    GeneralCase,
    Report,
    ReportRow,
    SingularCase,
)
from k3latt.discforms import FiniteQF, parse_form_literal
from k3latt.lattice import A2, GramMatrix, SNFResult, smith_normal_form
from k3latt.nsverify import ClassReport, CurveConfig, GeneratorsReport
from k3latt.rank3 import CandidateReport, Rank3Candidate
from k3latt.ternary import IsotropyVerdict, TernaryForm
from k3latt.value import Value

G3 = GramMatrix.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, -2]])
Z2 = parse_form_literal("Z2(1/2)")
ROW = ReportRow("G6", "1", "derivation", True, "derived [2 1; 1 8]")
CLASS = ClassReport((1, 0), 2, True, Fraction(1, 2), 2)
FAMILY = FamilyRecord("G6", "G_6", GeneralCase(G3, -6, Z2), (SingularCase("1", A2, 3),))

# class -> (fields, a factory, a factory of an instance with one field changed)
CASES = {
    GramMatrix: (("rows",), lambda: GramMatrix(((2, 1), (1, 2))),
                 lambda: GramMatrix(((2, 1), (1, 4)))),
    SNFResult: (("U", "D", "V"), lambda: smith_normal_form([[4, 1], [1, 4]]),
                lambda: smith_normal_form([[4, 1], [1, 6]])),
    EvenBinaryForm: (("a", "b", "c"), lambda: EvenBinaryForm(2, 3, 1),
                     lambda: EvenBinaryForm(2, 3, -1)),
    UnimodularTransform: (("m",), lambda: UnimodularTransform(((1, 1), (0, 1))),
                          lambda: UnimodularTransform(((1, 0), (1, 1)))),
    CMSurd: (("p", "q", "r", "d"), lambda: CMSurd(1, 1, 2, 15), lambda: CMSurd(1, 1, 2, 23)),
    FiniteQF: (("orders", "n", "Q", "B"), lambda: parse_form_literal("Z2(1/2)+Z3(2/3)"),
               lambda: parse_form_literal("Z2(3/2)+Z3(2/3)")),
    Rank3Candidate: (("gram", "expected_d", "expected_form"),
                     lambda: Rank3Candidate(G3, -6, Z2), lambda: Rank3Candidate(G3, 6, Z2)),
    CandidateReport: (("signature_ok", "determinant_ok", "disc_form_ok", "small_ok", "det"),
                      lambda: CandidateReport(True, True, True, True, -6),
                      lambda: CandidateReport(True, False, True, True, -6)),
    TernaryForm: (("gram",), lambda: TernaryForm(G3),
                  lambda: TernaryForm(GramMatrix.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 2]]))),
    IsotropyVerdict: (("kind", "witness", "prime", "precision", "bound", "primes_tested"),
                      lambda: IsotropyVerdict("obstruction", prime=5, precision=4),
                      lambda: IsotropyVerdict("obstruction", prime=7, precision=4)),
    CurveConfig: (("names", "gram", "rational_curves"), lambda: CurveConfig(("C1", "C2"), A2),
                  lambda: CurveConfig(("C1", "C3"), A2)),
    ClassReport: (("coeffs", "n", "in_dual", "qnorm", "order"),
                  lambda: ClassReport((1, 0), 2, True, Fraction(1, 2), 2),
                  lambda: ClassReport((1, 0), 2, True, Fraction(3, 2), 2)),
    GeneratorsReport: (("classes", "subgroup_order", "expected_order"),
                       lambda: GeneratorsReport((CLASS,), 2, 4),
                       lambda: GeneratorsReport((CLASS,), 2, 8)),
    SingularCase: (("case", "gram", "d", "ns_form", "derivation", "note"),
                   lambda: SingularCase("1", A2, 3, ns_form=Z2),
                   lambda: SingularCase("1", A2, 3, ns_form=Z2, note="withheld")),
    GeneralCase: (("gram", "d", "expected_form", "derivation", "note"),
                  lambda: GeneralCase(G3, -6, Z2), lambda: GeneralCase(G3, -6, None)),
    FamilyRecord: (("name", "display", "general", "singular", "extremal"),
                   lambda: FamilyRecord("G6", "G_6", None, ()),
                   lambda: FamilyRecord("G6", "G_6", None, (), True)),
    Catalog: (("families", "extremal_ids"), lambda: Catalog((FAMILY,), (1, 2)),
              lambda: Catalog((FAMILY,), (1,))),
    ReportRow: (("family", "case", "status", "ok", "detail"),
                lambda: ReportRow("G6", "1", "derivation", True),
                lambda: ReportRow("G6", "1", "derivation", False)),
    Report: (("title", "rows"), lambda: Report("table1", (ROW,)), lambda: Report("table1", ())),
}
PARAMS = pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)


def test_every_value_class_is_covered():
    for module in ("lattice", "binforms", "discforms", "rank3", "ternary", "nsverify",
                   "catalog"):
        mod = importlib.import_module(f"k3latt.{module}")
        defined = {c for c in vars(mod).values()
                   if isinstance(c, type) and issubclass(c, Value) and c.__module__ == mod.__name__}
        assert defined <= set(CASES), module
    assert len(CASES) == 19


@PARAMS
def test_equality_and_hash(cls):
    fields, make, changed = CASES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != changed() and changed() != a
    assert a != tuple(getattr(a, f) for f in fields)


@PARAMS
def test_another_class_with_the_same_fields_is_unequal(cls):
    fields, make, _ = CASES[cls]
    a = make()
    twin = object.__new__(type("Twin", (cls,), {"__slots__": ()}))
    for f in fields:
        object.__setattr__(twin, f, getattr(a, f))
    assert a != twin and twin != a


@PARAMS
def test_repr_names_every_field(cls):
    fields, make, _ = CASES[cls]
    a = make()
    inner = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
    assert repr(a) == f"{cls.__name__}({inner})"


@PARAMS
def test_assignment_and_deletion_raise(cls):
    fields, make, _ = CASES[cls]
    a = make()
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == make()


@PARAMS
def test_pickle_and_copy_round_trip(cls):
    _, make, _ = CASES[cls]
    a = make()
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is cls and b == a and hash(b) == hash(a)
        with pytest.raises(AttributeError):
            b.not_a_field = 1


def test_defaults():
    v = IsotropyVerdict("witness", witness=(1, 0, 0))
    assert (v.prime, v.precision, v.bound, v.primes_tested) == (None,) * 4
    assert CurveConfig(("C1", "C2"), A2).rational_curves is False
    case = SingularCase("1", A2, 3)
    assert (case.ns_form, case.derivation, case.note) == (None, None, None)
    assert GeneralCase(G3, -6).expected_form is None
    assert FamilyRecord("G6", "G_6", None, ()).extremal is False
    assert ReportRow("G6", "1", "ok", True).detail == ""


def test_transform_validates_in_init():
    with pytest.raises(ValueError, match="determinant 1"):
        UnimodularTransform(((2, 0), (0, 1)))


def test_gram_entries_become_ints_once():
    g = GramMatrix.from_rows([[Fraction(2), True], [1, 2.0]])
    assert g.rows == ((2, 1), (1, 2)) and all(type(x) is int for r in g.rows for x in r)
    assert g == GramMatrix([(2, 1), (1, 2)])


def test_finite_qf_keeps_a_dict_for_its_cached_split():
    f = parse_form_literal("Z4(1/4)+Z3(2/3)")
    key = f.genus_key()
    assert "_split" in f.__dict__
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g.genus_key() == key and copy.deepcopy(f).genus_key() == key
    assert f == parse_form_literal("Z4(1/4)+Z3(2/3)")  # a cached _split is not a field
