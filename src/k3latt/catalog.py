"""Embedded dataset of K3 families and end-to-end reproduction reports.

The dataset lives in ``data/families.json`` so it stays diffable.  Rows that
carry recorded Picard-side discriminant forms are re-derived through the
matching pipeline; rows without usable derivation data get consistency
checks only (determinant vs d, evenness, positive definiteness,
reducedness).  Loading needs only the lattice and discriminant-form modules;
each report imports the modules its checks use.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from importlib.resources import files
from typing import Optional

from .discforms import FiniteQF, parse_form_literal
from .errors import InvalidForm, MathFailure
from .lattice import GramMatrix, U, determinant, direct_sum
from .value import Value


class SingularCase(Value):
    __slots__ = ("case", "gram", "d", "ns_form", "derivation", "note")
    case: str
    gram: GramMatrix
    d: int
    ns_form: Optional[FiniteQF]
    derivation: Optional[str]
    note: Optional[str]

    def __init__(self, case: str, gram: GramMatrix, d: int, ns_form: Optional[FiniteQF] = None,
                 derivation: Optional[str] = None, note: Optional[str] = None):
        self._assign(case, gram, d, ns_form, derivation, note)


class GeneralCase(Value):
    __slots__ = ("gram", "d", "expected_form", "derivation", "note")
    gram: GramMatrix
    d: int
    expected_form: Optional[FiniteQF]
    derivation: Optional[str]
    note: Optional[str]

    def __init__(self, gram: GramMatrix, d: int, expected_form: Optional[FiniteQF] = None,
                 derivation: Optional[str] = None, note: Optional[str] = None):
        self._assign(gram, d, expected_form, derivation, note)


class FamilyRecord(Value):
    __slots__ = ("name", "display", "general", "singular", "extremal")
    name: str
    display: str
    general: Optional[GeneralCase]
    singular: tuple[SingularCase, ...]
    extremal: bool

    def __init__(self, name: str, display: str, general: Optional[GeneralCase],
                 singular: tuple[SingularCase, ...], extremal: bool = False):
        self._assign(name, display, general, singular, extremal)


class Catalog(Value):
    __slots__ = ("families", "extremal_ids")
    families: tuple[FamilyRecord, ...]
    extremal_ids: tuple[int, ...]

    def __init__(self, families: tuple[FamilyRecord, ...], extremal_ids: tuple[int, ...]):
        self._assign(families, extremal_ids)

    def family(self, name: str) -> FamilyRecord:
        for fam in self.families:
            if fam.name == name:
                return fam
        raise CatalogError(f"catalog has no family {name!r}")

    def rank2_matrices(self) -> list[tuple[str, str, EvenBinaryForm]]:
        from .binforms import EvenBinaryForm
        out = []
        for fam in self.families:
            for case in fam.singular:
                out.append((fam.name, case.case, EvenBinaryForm.from_matrix(case.gram.rows)))
        return out


def _parse_form(data) -> FiniteQF:
    if isinstance(data, str):
        return parse_form_literal(data)
    pairings = {(int(i), int(j)): v for i, j, v in data.get("b", [])}
    return FiniteQF.from_generators(data["orders"], data["q"], pairings)


class CatalogError(ValueError):
    """A catalog file or record is malformed: a missing key or a wrong value."""


@contextmanager
def _record(where: str):
    """Turn any error in reading one part of the catalog into a CatalogError naming it."""
    try:
        yield
    except KeyError as exc:
        raise CatalogError(f"catalog {where}: missing key {exc.args[0]!r}") from None
    except (LookupError, TypeError, AttributeError, ValueError, ArithmeticError) as exc:
        raise CatalogError(f"catalog {where}: {type(exc).__name__}: {exc}") from None


def load_catalog(path: Optional[str] = None) -> Catalog:
    with _record("file"):
        if path is None:
            raw = json.loads(files("k3latt").joinpath("data/families.json").read_text())
        else:
            with open(path) as fh:
                raw = json.load(fh)
        records = list(raw["families"])
        ids = tuple(raw.get("extremal_ids", {}).get("ids", ()))
    fams = []
    for n, rec in enumerate(records):
        with _record(f"family #{n + 1}"):
            name, rows = rec["name"], list(rec["singular"])
            g, display = rec.get("general"), rec.get("display", name)
            extremal = rec.get("extremal", False)
        general = None
        if g:
            with _record(f"family {name}, case general"):
                general = GeneralCase(
                    gram=GramMatrix.from_rows(g["matrix"]),
                    d=int(g["d"]),
                    expected_form=(_parse_form(g["expected_form"])
                                   if "expected_form" in g else None),
                    derivation=g.get("derivation"),
                    note=g.get("note"),
                )
        cases = []
        for k, c in enumerate(rows):
            label = c.get("case", f"#{k + 1}") if isinstance(c, dict) else f"#{k + 1}"
            with _record(f"family {name}, case {label}"):
                cases.append(SingularCase(
                    case=c["case"],
                    gram=GramMatrix.from_rows(c["matrix"]),
                    d=int(c["d"]),
                    ns_form=_parse_form(c["ns_form"]) if "ns_form" in c else None,
                    derivation=c.get("derivation"),
                    note=c.get("note"),
                ))
        fams.append(FamilyRecord(name, display, general, tuple(cases), extremal))
    return Catalog(tuple(fams), ids)


class ReportRow(Value):
    __slots__ = ("family", "case", "status", "ok", "detail")
    family: str
    case: str
    status: str
    ok: bool
    detail: str

    def __init__(self, family: str, case: str, status: str, ok: bool, detail: str = ""):
        self._assign(family, case, status, ok, detail)

    def line(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        detail = f" ({self.detail})" if self.detail else ""
        return f"{mark}  {self.family} {self.case}: {self.status}{detail}"

    def to_json(self) -> dict:
        return {"family": self.family, "case": self.case, "status": self.status,
                "ok": self.ok, "detail": self.detail}


class Report(Value):
    __slots__ = ("title", "rows")
    title: str
    rows: tuple[ReportRow, ...]

    def __init__(self, title: str, rows: tuple[ReportRow, ...]):
        self._assign(title, rows)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.rows]
        out.append(f"{self.title}: {'all rows pass' if self.passed else 'FAILURES present'}")
        return out

    def to_json(self) -> dict:
        return {"report": self.title, "passed": self.passed,
                "rows": [r.to_json() for r in self.rows]}


def _consistency_row(fam: str, case: str, gram: GramMatrix, d: int) -> ReportRow:
    from .binforms import EvenBinaryForm
    problems = []
    det = determinant(gram)
    if det != d:
        problems.append(f"det {det} != {d}")
    if not gram.is_even():
        problems.append("matrix not even")
    elif gram.n == 2:
        if gram.rows[0][0] <= 0 or det <= 0:
            problems.append("matrix not positive definite")
        elif not EvenBinaryForm.from_matrix(gram.rows).is_reduced():
            problems.append("matrix not reduced")
    if problems:
        return ReportRow(fam, case, "consistency", False, "; ".join(problems))
    return ReportRow(fam, case, "consistency", True)


def repro_table1(catalog: Optional[Catalog] = None) -> Report:
    """Re-derive every catalog row that carries derivation data; diff vs stored."""
    from .binforms import EvenBinaryForm, reduce as reduce_form
    from .rank3 import Rank3Candidate, transcendental_of_singular, verify_candidate
    cat = catalog or load_catalog()
    rows: list[ReportRow] = []
    for fam in cat.families:
        if fam.general is not None:
            g = fam.general
            if g.expected_form is not None:
                rep = verify_candidate(Rank3Candidate(g.gram, g.d, g.expected_form))
                detail = (f"signature {rep.signature_ok}, det {rep.determinant_ok}, "
                          f"disc form {rep.disc_form_ok}, small {rep.small_ok}")
                rows.append(ReportRow(fam.name, "general", "rank-3 verification",
                                      rep.verified, detail))
            else:
                rows.append(_consistency_row(fam.name, "general", g.gram, g.d))
        for case in fam.singular:
            if case.ns_form is None:
                row = _consistency_row(fam.name, case.case, case.gram, case.d)
                if case.note:
                    row = ReportRow(row.family, row.case, "consistency (derivation withheld)",
                                    row.ok, row.detail)
                rows.append(row)
                continue
            stored = reduce_form(EvenBinaryForm.from_matrix(case.gram.rows))[0]
            try:
                derived = transcendental_of_singular(case.d, case.ns_form)
            except MathFailure as exc:
                rows.append(ReportRow(fam.name, case.case, "derivation", False, str(exc)))
                continue
            ok = derived == stored
            detail = f"derived {derived}" + ("" if ok else f", stored {stored}")
            rows.append(ReportRow(fam.name, case.case, "derivation", ok, detail))
    return Report("table1", tuple(rows))


def repro_section4(catalog: Optional[Catalog] = None) -> Report:
    """Simple-Shioda-Inose certificates for the two rank-3 general lattices."""
    from .ternary import is_simple_shioda_inose
    cat = catalog or load_catalog()
    rows: list[ReportRow] = []
    for name in ("TxV", "OxT"):
        fam = cat.family(name)
        if fam.general is None:
            raise CatalogError(f"catalog family {name} has no general lattice")
        verdict = is_simple_shioda_inose(fam.general.gram)
        ok = verdict.kind == "obstruction"
        detail = (f"obstruction at p={verdict.prime}, e={verdict.precision}"
                  if ok else f"verdict {verdict.kind}")
        rows.append(ReportRow(name, "general", "simple structure", ok, detail))
    control = direct_sum(U, GramMatrix.from_rows([[2]]))
    verdict = is_simple_shioda_inose(control)
    rows.append(ReportRow("control", "U+(2)", "witness expected",
                          verdict.kind == "witness",
                          f"verdict {verdict.kind} {verdict.witness or ''}".strip()))
    return Report("section4", tuple(rows))


def repro_section5(catalog: Optional[Catalog] = None) -> Report:
    """Embeddability screen over every stored rank-2 matrix.

    A matrix that is not a positive-definite even binary form gives a failed
    row that names it, as in ``repro_table1``.
    """
    from .binforms import EvenBinaryForm, hessian_embeddable
    cat = catalog or load_catalog()
    rows = []
    for fam in cat.families:
        for case in fam.singular:
            try:
                form = EvenBinaryForm.from_matrix(case.gram.rows)
            except InvalidForm as exc:
                rows.append(ReportRow(fam.name, case.case, "hessian-embeddable", False, str(exc)))
                continue
            rows.append(ReportRow(fam.name, case.case, f"hessian-embeddable {form}",
                                  hessian_embeddable(form)))
    return Report("section5", tuple(rows))
