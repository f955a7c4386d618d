"""Every subcommand on random input: an exit code 0, 1 or 2, never an exception.

Inputs are kept small enough that each command finishes in well under a
second: discriminants up to 10^6 and bracket matrices of size 0-4 with
entries in [-3, 3].  The matrices given to ``isotropy`` and ``simple`` have
entries in [-2, 2]: at [-3, 3] a split form with 11 | det has a modular
search of 11^8 = 2*10^8 cells within the budget, whose numpy grids take
gigabytes.  For the same reason ``--primes`` draws its primes up to 11.
``--bound`` is at most 25 or above the cap ``MAX_BOUND``, which is refused
at once: the witness scan is quadratic in it.
"""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib.resources import files
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from k3latt.cli import main
from k3latt.ternary import MAX_BOUND

BUNDLED = json.loads(files("k3latt").joinpath("data/families.json").read_text())
COMMANDS = ("enumerate", "classnum", "small", "reduce", "hessian", "cm-moduli", "equivalent",
            "discform", "match", "isotropy", "simple", "ns-check", "repro")
FLAGS = ("--json", "--bound", "--primes", "--data", "--rational-curves", "--", "-", "--help")

D = st.integers(-10, 10 ** 6).map(str)


def text(rows) -> str:
    return "[" + "; ".join(" ".join(str(x) for x in row) for row in rows) + "]"


def square(n: int, bound: int):
    entries = st.integers(-bound, bound)
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def symmetric(n: int, bound: int, even: bool = False):
    return square(n, bound).map(lambda r: [
        [r[i][i] * (2 if even else 1) if i == j else r[min(i, j)][max(i, j)] for j in range(n)]
        for i in range(n)])


def matrix(bound: int):
    """`[..]` text: square, symmetric, even symmetric or ragged, of size 0 to 4."""
    size = st.integers(0, 4)
    return st.one_of(
        size.flatmap(lambda n: square(n, bound)),
        size.flatmap(lambda n: symmetric(n, bound)),
        size.flatmap(lambda n: symmetric(n, bound, even=True)),
        st.lists(st.lists(st.integers(-bound, bound), max_size=4), max_size=4)).map(text)


MATRIX = st.one_of(matrix(3), symmetric(2, 3, even=True).map(text))
TERNARY = st.one_of(matrix(2), symmetric(3, 2).map(text))

# zero and negative orders and denominators included
TOKEN = st.builds(lambda m, num, den: f"Z{m}({num}{'' if den is None else f'/{den}'})",
                  st.integers(-2, 40), st.integers(-5, 80), st.none() | st.integers(-3, 40))
LITERAL = st.one_of(st.lists(TOKEN, min_size=1, max_size=3).map("+".join),
                    st.sampled_from(["trivial", "", "Z", "Z2(1/2)+", "Z2(1/2", "+"]))

PRIMES = st.lists(st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 7, 9, 11, 25, 10 ** 40]),
                  max_size=3).map(lambda ps: ",".join(map(str, ps)))

RANDOM = st.one_of(st.sampled_from(FLAGS), st.integers(-5, 60).map(str),
                   st.text("[]-;,0123456789/Z()+. ", max_size=2))


def ns_config():
    """Names line, matrix rows and `coeffs / n` candidate lines, often well formed."""
    def config(n, rows, cands):
        lines = [" ".join(f"M{i + 1}" for i in range(n))] + [" ".join(map(str, r)) for r in rows]
        return "\n".join(lines + [f"{' '.join(map(str, c))} / {k}" for c, k in cands])

    small = st.integers(-3, 3)
    cands = st.lists(st.tuples(st.lists(small, max_size=4), st.integers(-1, 6)), max_size=3)
    return st.one_of(
        st.integers(1, 4).flatmap(lambda n: st.builds(
            config, st.just(n), symmetric(n, 2).map(
                lambda r: [[-2 if i == j else x for j, x in enumerate(row)]
                           for i, row in enumerate(r)]), cands)),
        st.builds(config, st.integers(0, 4), st.lists(st.lists(small, max_size=4), max_size=4),
                  cands),
        st.text("M0123456789 -/#\n", max_size=30))


def gram_text():
    rows = st.lists(st.lists(st.integers(-3, 3), max_size=4), max_size=4)
    return st.builds(lambda n, r: "\n".join([str(n)] + [" ".join(map(str, x)) for x in r]),
                     st.integers(-1, 4), rows)


def catalog_json():
    """The bundled catalog with one value replaced, catalog-shaped data, or random JSON."""
    leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
                     st.floats(allow_nan=True, allow_infinity=True))
    anything = st.recursive(leaf, lambda kids: st.one_of(
        st.lists(kids, max_size=3), st.dictionaries(st.text(max_size=3), kids, max_size=3)),
        max_leaves=8)
    gram = st.one_of(st.integers(0, 4).flatmap(lambda n: symmetric(n, 2, even=True)), anything)
    form = st.one_of(LITERAL, st.fixed_dictionaries(
        {"orders": st.lists(st.integers(-1, 12), max_size=3),
         "q": st.lists(st.sampled_from(["0", "1/2", "2/3", "1/0", 1]), max_size=3)}), anything)
    d = st.one_of(st.integers(-10, 10 ** 6), anything)
    value = {"matrix": gram, "d": d, "ns_form": form, "expected_form": form,
             "case": anything, "name": anything, "singular": anything, "general": anything}

    def replace(fam, where, key, new):
        data = copy.deepcopy(BUNDLED)
        rec = data["families"][fam]
        target = {"family": rec, "general": rec.get("general") or {},
                  "case": rec["singular"][0] if rec["singular"] else {}}[where]
        target[key] = new
        return data

    mutated = st.tuples(st.integers(0, len(BUNDLED["families"]) - 1),
                        st.sampled_from(["family", "general", "case"]),
                        st.sampled_from(sorted(value))).flatmap(
        lambda t: value[t[2]].map(lambda new: replace(*t, new)))
    case = st.fixed_dictionaries({"case": st.text(max_size=2), "matrix": gram, "d": d},
                                 optional={"ns_form": form, "note": anything})
    general = st.fixed_dictionaries({"matrix": gram, "d": d}, optional={"expected_form": form})
    family = st.fixed_dictionaries(
        {"name": st.sampled_from(["TxV", "OxT", "F"]), "singular": st.lists(case, max_size=2)},
        optional={"general": st.one_of(general, anything), "extremal": anything})
    return st.one_of(mutated, st.fixed_dictionaries({"families": st.lists(family, max_size=3)}),
                     anything)


def argv_for(cmd: str):
    bound = st.one_of(st.integers(-2, 25), st.integers(MAX_BOUND + 1, 10 ** 12))
    options = st.lists(st.one_of(st.tuples(st.just("--bound"), bound.map(str)),
                                 st.tuples(st.just("--primes"), PRIMES)), max_size=2)
    isotropy = st.tuples(TERNARY, options).map(lambda t: [t[0]] + [x for o in t[1] for x in o])
    return {
        "enumerate": st.tuples(D),
        "classnum": st.tuples(D),
        "small": st.tuples(st.just("--"), D),
        "reduce": st.tuples(MATRIX),
        "hessian": st.tuples(MATRIX),
        "cm-moduli": st.tuples(MATRIX),
        "equivalent": st.tuples(MATRIX, MATRIX),
        "discform": st.tuples(st.one_of(MATRIX, st.just("-"))),
        "match": st.tuples(D, LITERAL),
        "isotropy": isotropy,
        "simple": isotropy,
        "ns-check": st.sampled_from([("-",), ("-", "--rational-curves")]),
        "repro": st.tuples(st.sampled_from(["table1", "section4", "section5"]),
                           st.just("--data"), st.just("CATALOG")),
    }[cmd].map(list)


ARGV = st.sampled_from(COMMANDS).flatmap(lambda cmd: st.one_of(
    argv_for(cmd), st.lists(RANDOM, max_size=4)).map(lambda rest: [cmd, *rest]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGV, json_flag=st.booleans(), stdin=st.one_of(ns_config(), gram_text()),
       catalog=catalog_json())
def test_cli_exits_0_1_or_2(argv, json_flag, stdin, catalog):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "catalog.json")
        with open(path, "w") as fh:
            json.dump(catalog, fh)
        argv = [path if a == "CATALOG" else a for a in argv] + (["--json"] if json_flag else [])
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), \
                redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2 and not err.getvalue().startswith("usage"):
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
