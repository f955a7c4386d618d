"""Command-line front end.

Exit codes: 0 success / all checks pass; 1 a mathematical failure (a
``MathFailure`` such as no match, a non-equivalence, a failed reproduction
or an inconclusive verdict); 2 an input error or a declared limit
(``TooLarge``, ``SearchTooLarge``).  The ``--primes`` of ``isotropy`` and
``simple`` must be primes.

Each command imports the modules it calls when it runs, so that it pays
only for its own imports.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import MathFailure

PASS, MATH_FAIL, USAGE = 0, 1, 2
BOUND_HELP = "largest |coordinate| of the witness search, at most 500 (default: 20)"
PRIMES_HELP = ("comma-separated primes to test for a local obstruction, in order "
               "(default: the odd primes dividing 2*det, largest first)")


def _load_gram(arg: str) -> GramMatrix:
    """Inline `[..]` matrix, `-` for stdin, or a file in rank-then-rows format."""
    from .formats import parse_bracket_matrix, parse_gram_text
    from .lattice import GramMatrix
    if arg.strip().startswith("["):
        return GramMatrix.from_rows(parse_bracket_matrix(arg))
    if arg == "-":
        return parse_gram_text(sys.stdin.read())
    with open(arg) as fh:
        return parse_gram_text(fh.read())


def _load_binary_form(arg: str) -> EvenBinaryForm:
    from .binforms import EvenBinaryForm
    from .formats import parse_bracket_matrix
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
    from . import binforms
    forms = binforms.enumerate_reduced(args.d)
    _emit(args, {"d": args.d, "forms": [_form_record(f) for f in forms]},
          [str(f) for f in forms])
    return PASS


def cmd_reduce(args) -> int:
    from . import binforms
    from .formats import format_bracket_matrix
    f = _load_binary_form(args.form)
    red, t = binforms.reduce(f)
    _emit(args, {"reduced": _form_record(red), "transform": [list(r) for r in t.m]},
          [f"reduced: {red}", f"transform: {format_bracket_matrix(t.m)}"])
    return PASS


def cmd_equivalent(args) -> int:
    from . import binforms
    from .formats import format_bracket_matrix
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
    from . import binforms
    try:
        n = binforms.class_number(args.d)
    except binforms.EmptyResult:
        n = 0
    _emit(args, {"d": args.d, "class_number": n}, [str(n)])
    return PASS


def cmd_discform(args) -> int:
    from . import discforms
    g = _load_gram(args.gram)
    f = discforms.FiniteQF.from_lattice(g)
    _emit(args, _finiteqf_json(f), [str(f)])
    return PASS


def cmd_match(args) -> int:
    from . import binforms, discforms
    target = discforms.parse_form_literal(args.form)
    forms = binforms.match_disc_form(args.d, target)
    _emit(args, {"d": args.d, "matches": [_form_record(f) for f in forms]},
          [str(f) for f in forms] or ["no match"])
    return PASS if forms else MATH_FAIL


def cmd_small(args) -> int:
    from . import rank3
    small = rank3.is_small_discriminant(args.d)
    _emit(args, {"d": args.d, "small": small}, [f"small: {str(small).lower()}"])
    return PASS


def _parse_primes(text: str | None) -> list[int] | None:
    if text is None:
        return None
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _bound(args) -> int:
    from .ternary import DEFAULT_BOUND
    return DEFAULT_BOUND if args.bound is None else args.bound


def cmd_isotropy(args) -> int:
    from . import ternary
    f = ternary.TernaryForm(_load_gram(args.gram))
    verdict = ternary.decide_isotropy(f, bound=_bound(args),
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
    from . import ternary
    t = _load_gram(args.gram)
    verdict = ternary.is_simple_shioda_inose(t, bound=_bound(args),
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
    from . import binforms
    f = _load_binary_form(args.form)
    ok = binforms.hessian_embeddable(f)
    _emit(args, {"form": _form_record(f), "embeddable": ok},
          [f"embeddable: {str(ok).lower()}"])
    return PASS


def cmd_cm_moduli(args) -> int:
    from . import binforms
    f = _load_binary_form(args.form)
    t1, t2 = binforms.cm_moduli(f)
    payload = {"tau1": {"p": t1.p, "q": t1.q, "r": t1.r, "d": t1.d},
               "tau2": {"p": t2.p, "q": t2.q, "r": t2.r, "d": t2.d}}
    _emit(args, payload, [f"tau1 = {t1}", f"tau2 = {t2}"])
    return PASS


def cmd_ns_check(args) -> int:
    from . import nsverify
    if args.config == "-":
        text = sys.stdin.read()
    else:
        with open(args.config) as fh:
            text = fh.read()
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
    from . import nsverify
    from .lattice import GramMatrix
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
    from . import catalog
    cat = catalog.load_catalog(args.data)
    report = {
        "table1": catalog.repro_table1,
        "section4": catalog.repro_section4,
        "section5": catalog.repro_section5,
    }[args.target](cat)
    _emit(args, report.to_json(), report.lines())
    return PASS if report.passed else MATH_FAIL


BOUND = ("--bound", {"type": int, "default": None, "help": BOUND_HELP})
PRIMES = ("--primes", {"default": None, "help": PRIMES_HELP})


def command_table() -> dict[str, tuple]:
    """name -> (handler, help, arguments after --json as (name or flag, keywords)).

    Built when called, so the handlers are the module's functions at that
    time, also when something has since wrapped them.
    """
    return {
        "enumerate": (cmd_enumerate, "reduced forms of a discriminant", [("d", {"type": int})]),
        "reduce": (cmd_reduce, "Gauss-reduce an even binary form",
                   [("form", {"help": "matrix like '[8 2; 2 8]'"})]),
        "equivalent": (cmd_equivalent, "test SL2(Z)-equivalence of two forms",
                       [("form1", {}), ("form2", {})]),
        "classnum": (cmd_classnum, "class number of a discriminant", [("d", {"type": int})]),
        "discform": (cmd_discform, "discriminant form of an even Gram matrix",
                     [("gram", {"help": "inline '[..]', file path, or '-' for stdin"})]),
        "match": (cmd_match, "reduced forms with a given discriminant form",
                  [("d", {"type": int}), ("form", {"help": "literal like 'Z2(3/2)+Z30(23/30)'"})]),
        "small": (cmd_small, "cube-divisor smallness test of a discriminant",
                  [("d", {"type": int})]),
        "isotropy": (cmd_isotropy, "integer zero or local obstruction of a ternary form",
                     [("gram", {}), BOUND, PRIMES]),
        "simple": (cmd_simple, "simple Shioda-Inose test for a rank-3 lattice",
                   [("gram", {}), BOUND, PRIMES]),
        "hessian": (cmd_hessian, "Hessian-lattice embeddability of a rank-2 form", [("form", {})]),
        "cm-moduli": (cmd_cm_moduli, "CM period points of a rank-2 form", [("form", {})]),
        "ns-check": (cmd_ns_check, "verify divisible classes against intersection data",
                     [("config", {"help": "config file or '-' for stdin"}),
                      ("--rational-curves",
                       {"action": "store_true",
                        "help": "require self-intersection -2 on the diagonal"})]),
        "repro": (cmd_repro, "re-run the catalog reproductions",
                  [("target", {"choices": ["table1", "section4", "section5"]}),
                   ("--data", {"default": None, "help": "override the bundled catalog file"})]),
    }


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it is one.

    Building one subparser instead of all of them saves a few ms per run.
    The usage line still names every command, so each help, usage and
    error text is the one the full parser prints.
    """
    ap = argparse.ArgumentParser(
        prog="k3latt",
        description="Exact classification of even lattices via discriminant "
                    "forms and reduced binary quadratic forms.")
    commands = command_table()
    names = [command] if command in commands else list(commands)
    metavar = "{" + ",".join(commands) + "}" if len(names) == 1 else None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        fn, help_text, arguments = commands[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return ap


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser(argv[0] if argv else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MATH_FAIL if isinstance(exc, MathFailure) else USAGE


if __name__ == "__main__":
    sys.exit(main())
