"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 mathematical failure (no match,
non-equivalence, failed reproduction), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import binforms, catalog, discforms, nsverify, rank3, ternary
from .binforms import EvenBinaryForm
from .formats import (
    format_bracket_matrix,
    parse_bracket_matrix,
    parse_gram_text,
)
from .lattice import GramMatrix

PASS, MATH_FAIL, USAGE = 0, 1, 2


def _load_gram(arg: str) -> GramMatrix:
    """Inline `[..]` matrix, `-` for stdin, or a file in rank-then-rows format."""
    if arg.strip().startswith("["):
        return GramMatrix.from_rows(parse_bracket_matrix(arg))
    text = sys.stdin.read() if arg == "-" else open(arg).read()
    return parse_gram_text(text)


def _load_binary_form(arg: str) -> EvenBinaryForm:
    return EvenBinaryForm.from_matrix(parse_bracket_matrix(arg))


def _form_record(f: EvenBinaryForm) -> dict:
    return {"a": f.a, "b": f.b, "c": f.c, "d": f.d,
            "matrix": [list(r) for r in f.matrix]}


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _finiteqf_json(f: discforms.FiniteQF) -> dict:
    b = f.b
    return {
        "orders": list(f.orders),
        "q": [str(v) for v in f.q],
        "b": [[i, j, str(b[i][j])]
              for i in range(len(f.orders)) for j in range(i + 1, len(f.orders))
              if b[i][j] != 0],
        "literal": f.literal(),
    }


def cmd_enumerate(args) -> int:
    forms = binforms.enumerate_reduced(args.d)
    _emit(args, {"d": args.d, "forms": [_form_record(f) for f in forms]},
          [str(f) for f in forms])
    return PASS


def cmd_reduce(args) -> int:
    f = _load_binary_form(args.form)
    red, t = binforms.reduce(f)
    _emit(args, {"reduced": _form_record(red), "transform": [list(r) for r in t.m]},
          [f"reduced: {red}", f"transform: {format_bracket_matrix(t.m)}"])
    return PASS


def cmd_equivalent(args) -> int:
    f1 = _load_binary_form(args.form1)
    f2 = _load_binary_form(args.form2)
    t = binforms.equivalent(f1, f2)
    if t is None:
        _emit(args, {"equivalent": False}, ["not equivalent"])
        return MATH_FAIL
    _emit(args, {"equivalent": True, "transform": [list(r) for r in t.m]},
          [f"equivalent via {format_bracket_matrix(t.m)}"])
    return PASS


def cmd_classnum(args) -> int:
    try:
        n = binforms.class_number(args.d)
    except binforms.EmptyResult:
        n = 0
    _emit(args, {"d": args.d, "class_number": n}, [str(n)])
    return PASS


def cmd_discform(args) -> int:
    g = _load_gram(args.gram)
    f = discforms.FiniteQF.from_lattice(g)
    _emit(args, _finiteqf_json(f), [str(f)])
    return PASS


def cmd_match(args) -> int:
    target = discforms.parse_form_literal(args.form)
    forms = binforms.match_disc_form(args.d, target)
    _emit(args, {"d": args.d, "matches": [_form_record(f) for f in forms]},
          [str(f) for f in forms] or ["no match"])
    return PASS if forms else MATH_FAIL


def cmd_small(args) -> int:
    small = rank3.is_small_discriminant(args.d)
    _emit(args, {"d": args.d, "small": small}, [f"small: {str(small).lower()}"])
    return PASS


def _parse_primes(text: str | None) -> list[int] | None:
    if text is None:
        return None
    return [int(tok) for tok in text.split(",") if tok.strip()]


def cmd_isotropy(args) -> int:
    f = ternary.TernaryForm(_load_gram(args.gram))
    verdict = ternary.decide_isotropy(f, bound=args.bound,
                                      primes=_parse_primes(args.primes))
    lines = {
        "witness": lambda: [f"witness: {verdict.witness}"],
        "obstruction": lambda: [f"local obstruction at p={verdict.prime}, "
                                f"precision {verdict.precision}"],
        "inconclusive": lambda: [f"inconclusive up to bound {verdict.bound}, "
                                 f"primes tested {list(verdict.primes_tested or ())}"],
    }[verdict.kind]()
    _emit(args, verdict.to_json(), lines)
    return PASS if verdict.kind != "inconclusive" else MATH_FAIL


def cmd_simple(args) -> int:
    t = _load_gram(args.gram)
    verdict = ternary.is_simple_shioda_inose(t, bound=args.bound,
                                             primes=_parse_primes(args.primes))
    simple = verdict.kind == "obstruction"
    payload = verdict.to_json()
    payload["simple"] = simple if verdict.kind != "inconclusive" else None
    if verdict.kind == "inconclusive":
        _emit(args, payload, ["inconclusive"])
        return MATH_FAIL
    _emit(args, payload, [f"simple: {str(simple).lower()}"])
    return PASS


def cmd_hessian(args) -> int:
    f = _load_binary_form(args.form)
    ok = binforms.hessian_embeddable(f)
    _emit(args, {"form": _form_record(f), "embeddable": ok},
          [f"embeddable: {str(ok).lower()}"])
    return PASS


def cmd_cm_moduli(args) -> int:
    f = _load_binary_form(args.form)
    t1, t2 = binforms.cm_moduli(f)
    payload = {"tau1": {"p": t1.p, "q": t1.q, "r": t1.r, "d": t1.d},
               "tau2": {"p": t2.p, "q": t2.q, "r": t2.r, "d": t2.d}}
    _emit(args, payload, [f"tau1 = {t1}", f"tau2 = {t2}"])
    return PASS


def cmd_ns_check(args) -> int:
    text = sys.stdin.read() if args.config == "-" else open(args.config).read()
    cfg, candidates = _parse_ns_config(text, args.rational_curves)
    report = nsverify.generators_report(cfg, candidates)
    payload = {
        "classes": [{"coeffs": list(r.coeffs), "n": r.n, "in_dual": r.in_dual,
                     "qnorm": str(r.qnorm) if r.qnorm is not None else None,
                     "order": r.order} for r in report.classes],
        "subgroup_order": report.subgroup_order,
        "expected_order": report.expected_order,
        "generates_full_group": report.generates_full_group,
    }
    _emit(args, payload, report.lines())
    return PASS if all(r.in_dual for r in report.classes) else MATH_FAIL


def _parse_ns_config(text: str, rational_curves: bool):
    lines = [ln for ln in (s.strip() for s in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty configuration")
    names = tuple(lines[0].split())
    n = len(names)
    if len(lines) < 1 + n:
        raise ValueError(f"expected {n} matrix rows after the names line")
    rows = [[int(tok) for tok in lines[1 + i].split()] for i in range(n)]
    cfg = nsverify.CurveConfig(names, GramMatrix.from_rows(rows), rational_curves)
    candidates = []
    for ln in lines[1 + n:]:
        if "/" not in ln:
            raise ValueError(f"candidate line {ln!r} must be 'coeffs / n'")
        lhs, rhs = ln.rsplit("/", 1)
        candidates.append(([int(tok) for tok in lhs.split()], int(rhs)))
    return cfg, candidates


def cmd_repro(args) -> int:
    cat = catalog.load_catalog(args.data)
    report = {
        "table1": catalog.repro_table1,
        "section4": catalog.repro_section4,
        "section5": catalog.repro_section5,
    }[args.target](cat)
    _emit(args, report.to_json(), report.lines())
    return PASS if report.passed else MATH_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="k3latt",
        description="Exact classification of even lattices via discriminant "
                    "forms and reduced binary quadratic forms.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    p = add("enumerate", cmd_enumerate, "reduced forms of a discriminant")
    p.add_argument("d", type=int)

    p = add("reduce", cmd_reduce, "Gauss-reduce an even binary form")
    p.add_argument("form", help="matrix like '[8 2; 2 8]'")

    p = add("equivalent", cmd_equivalent, "test SL2(Z)-equivalence of two forms")
    p.add_argument("form1")
    p.add_argument("form2")

    p = add("classnum", cmd_classnum, "class number of a discriminant")
    p.add_argument("d", type=int)

    p = add("discform", cmd_discform, "discriminant form of an even Gram matrix")
    p.add_argument("gram", help="inline '[..]', file path, or '-' for stdin")

    p = add("match", cmd_match, "reduced forms with a given discriminant form")
    p.add_argument("d", type=int)
    p.add_argument("form", help="literal like 'Z2(3/2)+Z30(23/30)'")

    p = add("small", cmd_small, "cube-divisor smallness test of a discriminant")
    p.add_argument("d", type=int)

    p = add("isotropy", cmd_isotropy, "integer zero or local obstruction of a ternary form")
    p.add_argument("gram")
    p.add_argument("--bound", type=int, default=ternary.DEFAULT_BOUND)
    p.add_argument("--primes", default=None, help="comma-separated prime list")

    p = add("simple", cmd_simple, "simple Shioda-Inose test for a rank-3 lattice")
    p.add_argument("gram")
    p.add_argument("--bound", type=int, default=ternary.DEFAULT_BOUND)
    p.add_argument("--primes", default=None)

    p = add("hessian", cmd_hessian, "Hessian-lattice embeddability of a rank-2 form")
    p.add_argument("form")

    p = add("cm-moduli", cmd_cm_moduli, "CM period points of a rank-2 form")
    p.add_argument("form")

    p = add("ns-check", cmd_ns_check, "verify divisible classes against intersection data")
    p.add_argument("config", help="config file or '-' for stdin")
    p.add_argument("--rational-curves", action="store_true",
                   help="require self-intersection -2 on the diagonal")

    p = add("repro", cmd_repro, "re-run the catalog reproductions")
    p.add_argument("target", choices=["table1", "section4", "section5"])
    p.add_argument("--data", default=None, help="override the bundled catalog file")

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (binforms.EmptyResult, rank3.NoMatch, rank3.Ambiguous)):
            return MATH_FAIL
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
