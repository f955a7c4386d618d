"""The three benchmark workloads: seeded query generators, execution, checks.

Every workload is a closed loop with one client.  Queries come in rounds; a
round draws one input from each stratum of a population sorted by a cost
proxy computed here (never by k3latt), so each round has the same cost
profile and runs on different seeds stay comparable.  A timed run stops
only at the end of a round, so it keeps the round's mix.  ``execute`` is the
only timed part.  ``judge`` returns ``"ok"`` or the reason a query failed,
and raises ``WrongVerdict`` when an answer is wrong.  A failure is an
exception (a declared limit such as ``SearchTooLarge``, ``TooLarge`` or
``MemoryError`` included), exit code 2, a traceback or an "inconclusive"
verdict; ``Ambiguous``, ``NoMatch`` and exit code 1 are verdicts.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from math import isqrt

import oracle as O

class WrongVerdict(Exception):
    """The program returned a wrong answer; the whole run is invalid."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise WrongVerdict(msg)


MIN_QUERIES = 100  # per timed run, so that p90 has ten or more samples beyond it
CYCLE = 8  # rounds over which every fine stratum is drawn exactly once
SPREAD = (0, 4, 2, 6, 1, 5, 3, 7)  # stratum order in a cycle: any prefix spans the range


def strata(items, weights, k):
    """Cut items (sorted by cost proxy) into k strata of equal weight.

    An item whose weight crosses a stratum boundary lands in both strata,
    each with the overlapping part of its weight.
    """
    total = sum(weights)
    out = [([], []) for _ in range(k)]
    acc = 0.0
    for it, w in zip(items, weights):
        lo, hi = acc / total * k, (acc + w) / total * k
        for s in range(int(lo), min(k, math.ceil(hi))):
            part = min(hi, s + 1) - max(lo, s)
            if part > 0:
                out[s][0].append(it)
                out[s][1].append(part)
        acc += w
    return out


def cycled(rng, items, weights, n):
    """Yield, per round, n draws from a population sorted by cost proxy.

    The population is cut into n * CYCLE strata of equal weight; each round
    draws once from every group of CYCLE neighbouring strata, and over
    CYCLE rounds every stratum is drawn once, in a fixed order.  Rounds then
    share one coarse cost profile, and a run that ends inside a cycle has
    drawn the same strata whatever the seed.
    """
    fine = strata(items, weights, n * CYCLE)
    while True:
        for j in SPREAD:
            yield [rng.choices(*fine[i * CYCLE + (i + j) % CYCLE])[0] for i in range(n)]


def random_sl2(rng):
    """A unimodular 2x2 matrix from a few random shears and swaps."""
    m = ((1, 0), (0, 1))
    for _ in range(3):
        k = rng.choice((-2, -1, 1, 2))
        for step in (((1, k), (0, 1)), ((0, -1), (1, 0))):
            (a, b), (c, d) = m
            (e, f), (g, h) = step
            m = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    return m


def random_gl3(rng):
    """A unimodular 3x3 matrix from random elementary column operations."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(5):
        i, j = rng.sample(range(3), 2)
        q = rng.choice((-1, 1))
        for r in range(3):
            m[r][j] += q * m[r][i]
    return m


def bracket(rows) -> str:
    return "[" + "; ".join(" ".join(str(x) for x in r) for r in rows) + "]"


@dataclass
class Query:
    kind: str
    args: dict = field(default_factory=dict)


# -- genus_ladder -------------------------------------------------------------

class GenusLadder:
    """genus_partition(d) plus transcendental_of_singular on a form of disc d.

    d is drawn log-uniformly from [D_LO, D_HI], stratified by |G| * h(d),
    the two properties that set the cost of the exhaustive searches.  Each
    round also asks for one d past the program's exhaustive-search bound
    (|G| > 10^5), whose declared limit counts as a failed query.
    """

    name = "genus_ladder"
    in_process = True
    D_LO, D_HI = 50, 1500
    LIMIT_D = (100_003, 200_000)
    STRATA = 20
    TRACE_ROUNDS = 2

    def __init__(self, seed: int, k3=None):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.k3 = k3
        self.forms = {d: O.reduced_forms(d) for d in range(self.D_LO, self.D_HI + 1)
                      if d % 4 in (0, 3)}

    def rounds(self):
        rng = self.rng
        ds = sorted(self.forms, key=lambda d: d * len(self.forms[d]))
        for picks in cycled(rng, ds, [1 / d for d in ds], self.STRATA):
            lo, hi = self.LIMIT_D
            while True:
                d = int(math.exp(rng.uniform(math.log(lo), math.log(hi))))
                if d % 4 in (0, 3):
                    break
            qs = [self._query(d, O.reduced_forms(d))]
            body = [self._query(d, self.forms[d]) for d in picks]
            rng.shuffle(body)
            yield qs + body

    def _query(self, d, forms):
        base = self.rng.choice(forms)
        return Query("genus", {"d": d, "base": base,
                               "form": O.apply_unimodular(base, random_sl2(self.rng))})

    def execute(self, q):
        k3, d = self.k3, q.args["d"]
        try:
            genera = k3.genus_partition(d)
            f = k3.EvenBinaryForm(*q.args["form"])
            ns = k3.FiniteQF.from_lattice(f.gram).negate()
            try:
                t = k3.transcendental_of_singular(d, ns)
            except k3.Ambiguous:
                t = "ambiguous"
            except k3.NoMatch:
                t = "nomatch"
            return {"genera": genera, "t": t}
        except Exception as exc:  # a raised exception is a measured failure
            return {"error": exc}

    def judge(self, q, res):
        if "error" in res:
            return type(res["error"]).__name__
        d, base = q.args["d"], q.args["base"]
        got = [[(f.a, f.b, f.c) for f in g] for g in res["genera"]]
        flat = sorted(x for g in got for x in g)
        ref = O.genera(d)
        expect(flat == sorted(x for g in ref.values() for x in g),
               f"genus_partition({d}) does not partition the reduced forms exactly once")
        expect(sorted(map(sorted, got)) == sorted(map(sorted, ref.values())),
               f"genus_partition({d}) groups differ from the genus characters")
        mates = ref[O.genus_key(base)]
        t = res["t"]
        if len(mates) == 1:
            expect(not isinstance(t, str) and (t.a, t.b, t.c) == base,
                   f"transcendental_of_singular({d}) gave {t}, expected {base}")
        else:
            expect(t == "ambiguous",
                   f"transcendental_of_singular({d}) gave {t} for a genus of {len(mates)}")
        return "ok"


# -- isotropy_mix -------------------------------------------------------------

BUDGET = 500_000_000  # the program's default modular-search work budget


def _det3(g):
    return (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))


# RLIMIT_AS of every workload process and its CLI children.  HEAVY_CELLS is
# tied to it: larger m^2 grids need int64 arrays that fail as MemoryError
# under this cap, so predict() classes them as limits.
MEM_CAP_MB = 1024
HEAVY_CELLS = 30_000_000


def predict(g, aniso, split: bool) -> tuple[bool, int]:
    """(fails, cells) of the largest-prime-first modular search on g.

    cells counts the grid cells visited, a proxy for cost: the split search
    fills its whole m^2 grid, the general one stops after its first m^2
    slices unless p obstructs.  fails marks a search stopped by the work
    budget or by a GB-scale grid.  A form that is isotropic over Q is
    expected to get a witness before any search.
    """
    if not aniso:
        return False, 0
    det2 = 2 * abs(_det3(g))
    cells = 0
    for p in sorted(O.odd_primes(det2), reverse=True):
        m = p ** (3 + O.valuation(det2, p))
        w = m * m if split else m ** 3
        if w > BUDGET or (split and w > HEAVY_CELLS):
            return True, cells
        if p in aniso:
            return False, cells + w
        cells += m * m
    return False, cells


WITNESS_BOX = 20  # the program's default witness-search bound


def scan_cost(g, bound: int = WITNESS_BOX) -> int:
    """(x, y) pairs an outward box scan visits before a zero of g, a cost proxy.

    The scan runs x, then y, over 0, 1, -1, ..., bound, -bound and solves
    g(x, y, z) = 0 for an integer z with |z| <= bound; a form with no such
    zero costs the whole box.
    """
    order = [0] + [s * i for i in range(1, bound + 1) for s in (1, -1)]
    a = g[2][2]
    n = 0
    for x in order:
        for y in order:
            n += 1
            b = 2 * (g[0][2] * x + g[1][2] * y)
            c = g[0][0] * x * x + 2 * g[0][1] * x * y + g[1][1] * y * y
            if a == 0:
                zs = [1] if b == c == 0 else [-c // b] if b and c % b == 0 else []
            else:
                disc = b * b - 4 * a * c
                r = isqrt(disc) if disc >= 0 else -1
                zs = [(-b + s) // (2 * a) for s in (r, -r)
                      if r >= 0 and r * r == disc and (-b + s) % (2 * a) == 0]
            if any(abs(z) <= bound and (x, y, z) != (0, 0, 0) for z in zs):
                return n
    return n


class IsotropyMix:
    """is_simple_shioda_inose(T), T = (2a c; c 2b) + <-2k>, d <= 200, k <= 8.

    Each lattice is asked twice: in its split basis (the m^2 search path)
    and after a random unimodular change of basis (the m^3 path).  The
    lattices are split by the Hilbert symbols and the predicted modular
    search into four classes: isotropic ones (a witness), ones whose
    searches both end in an obstruction, ones where only one does (in
    practice the split one; the m^3 search exceeds the work budget), and
    ones where both hit a limit.  A round of LATTICES lattices takes from
    each class its share of the whole population (at least one), so the
    mix is that of uniform draws without their round-to-round swings.
    Each lattice gets its changed basis once per seed, and within a class
    the draws are stratified by the cost proxies of both bases: predicted
    grid cells, then the box-scan cost of finding a witness.  The first
    round also asks the catalog's TxV, OxT and the U + <2> control.
    """

    name = "isotropy_mix"
    in_process = True
    D_MAX, K_MAX = 200, 8
    CLASSES = ("witness", "both_decided", "one_decided", "limits")
    LATTICES = 25  # per round, two queries each
    TRACE_ROUNDS = 2
    CATALOG = (("TxV", [[4, 1, 0], [1, 4, 0], [0, 0, -2]], ("obstruction", 5)),
               ("OxT", [[10, 4, 0], [4, 10, 0], [0, 0, -2]], ("obstruction", 7)),
               ("control", [[0, 1, 0], [1, 0, 0], [0, 0, 2]], ("witness", None)))

    def __init__(self, seed: int, k3=None):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.k3 = k3
        pop = {name: [] for name in self.CLASSES}
        for d in range(3, self.D_MAX + 1):
            for a, b, c in O.reduced_forms(d) if d % 4 in (0, 3) else ():
                for k in range(1, self.K_MAX + 1):
                    t = [[2 * a, c, 0], [c, 2 * b, 0], [0, 0, -2 * k]]
                    neg = [[-x for x in r] for r in t]
                    aniso = O.anisotropic_primes(neg)
                    (f1, c1), (f2, c2) = predict(neg, aniso, True), predict(neg, aniso, False)
                    while True:
                        moved = O.congruent(t, random_gl3(self.rng))
                        if O.split_axis(moved) is None:
                            break
                    scans = 0 if aniso else scan_cost(neg) + scan_cost(
                        [[-x for x in r] for r in moved])
                    cls = ("witness" if not aniso else
                           ("both_decided", "one_decided", "limits")[f1 + f2])
                    pop[cls].append((c1 + c2, scans, d * k, t, moved, aniso))
        self.pop = {name: [m[3:] for m in sorted(members, key=lambda x: x[:3])]
                    for name, members in pop.items()}
        total = sum(map(len, self.pop.values()))
        self.recipe = {name: max(1, round(self.LATTICES * len(members) / total))
                       for name, members in self.pop.items()}
        self.verdicts: dict[int, set] = {}

    def rounds(self):
        rng = self.rng
        lattice_id = 0
        classes = [cycled(rng, self.pop[name], [1] * len(self.pop[name]), n)
                   for name, n in self.recipe.items()]
        first = True
        while True:
            qs = []
            if first:
                first = False
                for name, t, want in self.CATALOG:
                    qs.append(Query("catalog", {"name": name, "t": t, "want": want,
                                                "aniso": O.anisotropic_primes(
                                                    [[-x for x in r] for r in t])}))
            picks = [p for cls in classes for p in next(cls)]
            rng.shuffle(picks)
            for t, moved, aniso in picks:
                lattice_id += 1
                for basis, g in (("split", t), ("general", moved)):
                    qs.append(Query(basis, {"t": g, "aniso": aniso, "id": lattice_id}))
            yield qs

    def execute(self, q):
        k3 = self.k3
        try:
            return {"verdict": k3.is_simple_shioda_inose(k3.GramMatrix.from_rows(q.args["t"]))}
        except Exception as exc:  # includes MemoryError under the address-space cap
            return {"error": exc}

    def judge(self, q, res):
        if "error" in res:
            return type(res["error"]).__name__
        v = res["verdict"]
        neg = [[-x for x in r] for r in q.args["t"]]
        aniso = q.args["aniso"]
        if v.kind == "witness":
            w = tuple(v.witness)
            expect(any(w) and O.ternary_value(neg, w) == 0,
                   f"witness {w} is not a nonzero zero of T(-1) = {neg}")
            expect(not aniso, f"witness for T(-1) = {neg}, anisotropic at {aniso}")
        elif v.kind == "obstruction":
            expect(v.prime in aniso,
                   f"obstruction at p={v.prime} for T(-1) = {neg}, "
                   f"but the Hilbert symbols give {aniso}")
        if q.kind == "catalog":
            kind, prime = q.args["want"]
            expect((v.kind, v.prime) == (kind, prime),
                   f"{q.args['name']}: verdict {v.kind} p={v.prime}, expected {kind} p={prime}")
        else:
            seen = self.verdicts.setdefault(q.args["id"], set())
            seen.add(v.kind)
            expect(not {"witness", "obstruction"} <= seen,
                   f"lattice {q.args['id']} got a witness in one basis and an "
                   f"obstruction in the other")
        return "inconclusive" if v.kind == "inconclusive" else "ok"


# -- cli_session --------------------------------------------------------------

E8 = [[2, 0, -1, 0, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0, 0], [-1, 0, 2, -1, 0, 0, 0, 0],
      [0, -1, -1, 2, -1, 0, 0, 0], [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
      [0, 0, 0, 0, 0, -1, 2, -1], [0, 0, 0, 0, 0, 0, -1, 2]]


def block_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return out


def scaled(b, s):
    return [[s * x for x in r] for r in b]


U_ = [[0, 1], [1, 0]]
A2_ = [[2, -1], [-1, 2]]
GRAMS = {"k3": block_sum(scaled(E8, -1), scaled(E8, -1), U_, U_, U_),
         "hess": block_sum(U_, scaled(U_, 2), scaled(A2_, -2))}


def _record(f):
    return {"a": f.a, "b": f.b, "c": f.c, "d": f.d,
            "matrix": [[2 * f.a, f.c], [f.c, 2 * f.b]]}


def _qf_json(f):
    k = len(f.orders)
    return {"orders": list(f.orders), "q": [str(v) for v in f.q],
            "b": [[i, j, str(f.b[i][j])] for i in range(k) for j in range(i + 1, k)
                  if f.b[i][j] != 0],
            "literal": f.literal()}


def _rank_gf2(vectors) -> int:
    rows = [int("".join(str(x % 2) for x in v), 2) for v in vectors]
    rank = 0
    for bit in reversed(range(max((r.bit_length() for r in rows), default=0))):
        piv = next((r for r in rows if r >> bit & 1), None)
        if piv is None:
            continue
        rows = [r ^ piv if r >> bit & 1 else r for r in rows if r is not piv]
        rank += 1
    return rank


class CliSession:
    """One ``python -m k3latt.cli ... --json`` subprocess per query.

    A round is a fixed mix of the CLI's commands in a seeded order: the
    three reproductions, enumerate/classnum at d in 10^5..10^7, discform of
    the 22x22 K3 lattice and T_HESS from Gram files, match at small d,
    ns-check on disjoint (-2)-curves, the cheap one-form commands, and one
    isotropy question whose largest prime exceeds the search budget (a
    declared limit, counted as failed).
    """

    name = "cli_session"
    in_process = False
    TRACE_ROUNDS = 1

    def __init__(self, seed: int, k3=None, workdir=None, command=None, trace_dir=None):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.k3 = k3
        self.workdir = workdir
        self.command = command or [sys.executable, "-m", "k3latt.cli"]
        self.trace_dir = trace_dir
        self.counter = 0
        self.expected_cache: dict = {}
        self.small = [f for d in range(3, 301) if d % 4 in (0, 3) for f in O.reduced_forms(d)]
        self.limit_forms = []
        for d in range(3, 201):
            for a, b, c in O.reduced_forms(d) if d % 4 in (0, 3) else ():
                for k in range(1, 9):
                    neg = [[-2 * a, -c, 0], [-c, -2 * b, 0], [0, 0, 2 * k]]
                    primes = O.odd_primes(4 * k * d)
                    if not primes or not O.anisotropic_primes(neg):
                        continue
                    if (primes[-1] ** (3 + O.valuation(4 * k * d, primes[-1]))) ** 2 > BUDGET:
                        self.limit_forms.append(neg)
        if workdir is not None:
            for key, rows in GRAMS.items():
                with open(os.path.join(workdir, f"{key}.gram"), "w") as fh:
                    fh.write("\n".join([str(len(rows))] + [" ".join(map(str, r)) for r in rows]))

    def _big_d(self):
        while True:
            d = int(math.exp(self.rng.uniform(math.log(1e5), math.log(1e7))))
            if d % 4 in (0, 3):
                return d

    def _form(self):
        base = self.rng.choice(self.small)
        return base, O.apply_unimodular(base, random_sl2(self.rng))

    def _ns_config(self):
        rng = self.rng
        n = rng.choice((8, 9, 10))
        cands = []
        while len(cands) < n:
            v = [rng.randint(0, 1) for _ in range(n)]
            if any(v):
                cands.append(v)
        self.counter += 1
        path = os.path.join(self.workdir, f"ns{self.counter}.txt")
        lines = [" ".join(f"C{i + 1}" for i in range(n))]
        lines += [" ".join("-2" if i == j else "0" for j in range(n)) for i in range(n)]
        lines += [" ".join(map(str, v)) + " / 2" for v in cands]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return {"path": path, "n": n, "cands": cands}

    def rounds(self):
        rng = self.rng
        while True:
            f1, g1 = self._form()
            f2, g2 = self._form() if rng.random() < 0.5 else (f1, O.apply_unimodular(
                f1, random_sl2(rng)))
            a, b = rng.randint(1, 8), rng.randint(1, 9)
            m1, m2 = 2 * a, 2 * b
            ns = self._ns_config()
            qs = [
                Query("repro", {"argv": ["repro", "table1"]}),
                Query("repro", {"argv": ["repro", "section4"]}),
                Query("repro", {"argv": ["repro", "section5"]}),
                Query("enumerate", {"argv": ["enumerate", str(self._big_d())]}),
                Query("classnum", {"argv": ["classnum", str(self._big_d())]}),
                Query("discform", {"argv": ["discform", os.path.join(self.workdir, "k3.gram")],
                                   "key": "k3"}),
                Query("discform", {"argv": ["discform", os.path.join(self.workdir, "hess.gram")],
                                   "key": "hess"}),
                Query("match", {"argv": ["match", str(4 * a * b), f"Z{m1}(1/{m1})+Z{m2}(1/{m2})"],
                                "diag": (a, b)}),
                Query("ns-check", {"argv": ["ns-check", ns["path"], "--rational-curves"],
                                   "ns": ns}),
                Query("small", {"argv": ["small", "--", str(rng.choice((-1, 1))
                                                           * rng.randint(1, 10 ** 6))]}),
                Query("reduce", {"argv": ["reduce", bracket(_mat(g1))], "base": f1}),
                Query("equivalent", {"argv": ["equivalent", bracket(_mat(g1)), bracket(_mat(g2))],
                                     "same": f1 == f2}),
                Query("hessian", {"argv": ["hessian", bracket(_mat(g1))]}),
                Query("cm-moduli", {"argv": ["cm-moduli", bracket(_mat(g1))]}),
            ]
            rng.shuffle(qs)
            limit = Query("isotropy", {"argv": ["isotropy", bracket(rng.choice(self.limit_forms))]})
            yield [limit] + qs

    def execute(self, q):
        argv = q.args["argv"]
        argv = [argv[0], "--json", *argv[1:]]  # before any "--" separator
        cmd = list(self.command)
        if self.trace_dir is not None:
            self.counter += 1
            cmd.append(os.path.join(self.trace_dir, f"span{self.counter}.json"))
        proc = subprocess.run(cmd + argv, capture_output=True, text=True, timeout=170)
        return {"code": proc.returncode, "out": proc.stdout, "err": proc.stderr}

    # expected (exit code, payload) from the library call each command wraps
    def _expected(self, q):
        k3 = self.k3
        argv = q.args["argv"]
        key = tuple(argv) if q.kind in ("repro", "discform") else None
        if key in self.expected_cache:
            return self.expected_cache[key]
        cmd = argv[0]
        if cmd == "repro":
            rep = {"table1": k3.repro_table1, "section4": k3.repro_section4,
                   "section5": k3.repro_section5}[argv[1]](k3.load_catalog())
            exp = (0 if rep.passed else 1, rep.to_json())
        elif cmd == "enumerate":
            d = int(argv[1])
            exp = (0, {"d": d, "forms": [_record(f) for f in k3.enumerate_reduced(d)]})
        elif cmd == "classnum":
            d = int(argv[1])
            exp = (0, {"d": d, "class_number": k3.class_number(d) if d % 4 in (0, 3) else 0})
        elif cmd == "discform":
            rows = GRAMS[q.args["key"]]
            exp = (0, _qf_json(k3.FiniteQF.from_lattice(k3.GramMatrix.from_rows(rows))))
        elif cmd == "match":
            d = int(argv[1])
            ms = k3.match_disc_form(d, k3.parse_form_literal(argv[2]))
            exp = (0 if ms else 1, {"d": d, "matches": [_record(f) for f in ms]})
        elif cmd == "ns-check":
            ns = q.args["ns"]
            n = ns["n"]
            cfg = k3.CurveConfig(tuple(f"C{i + 1}" for i in range(n)),
                                 k3.GramMatrix.from_rows([[-2 if i == j else 0 for j in range(n)]
                                                          for i in range(n)]), True)
            rep = k3.generators_report(cfg, [(v, 2) for v in ns["cands"]])
            exp = (0 if all(r.in_dual for r in rep.classes) else 1, {
                "classes": [{"coeffs": list(r.coeffs), "n": r.n, "in_dual": r.in_dual,
                             "qnorm": str(r.qnorm) if r.qnorm is not None else None,
                             "order": r.order} for r in rep.classes],
                "subgroup_order": rep.subgroup_order, "expected_order": rep.expected_order,
                "generates_full_group": rep.generates_full_group})
        elif cmd == "small":
            d = int(argv[2])
            exp = (0, {"d": d, "small": k3.is_small_discriminant(d)})
        elif cmd == "reduce":
            red, t = k3.reduce(_form_of(k3, argv[1]))
            exp = (0, {"reduced": _record(red), "transform": [list(r) for r in t.m]})
        elif cmd == "equivalent":
            t = k3.equivalent(_form_of(k3, argv[1]), _form_of(k3, argv[2]))
            exp = ((1, {"equivalent": False}) if t is None else
                   (0, {"equivalent": True, "transform": [list(r) for r in t.m]}))
        elif cmd == "hessian":
            f = _form_of(k3, argv[1])
            exp = (0, {"form": _record(f), "embeddable": k3.hessian_embeddable(f)})
        elif cmd == "cm-moduli":
            t1, t2 = k3.cm_moduli(_form_of(k3, argv[1]))
            exp = (0, {"tau1": {"p": t1.p, "q": t1.q, "r": t1.r, "d": t1.d},
                       "tau2": {"p": t2.p, "q": t2.q, "r": t2.r, "d": t2.d}})
        elif cmd == "isotropy":
            rows = _rows_of(argv[1])
            try:
                v = k3.decide_isotropy(k3.TernaryForm(k3.GramMatrix.from_rows(rows)))
                exp = (1 if v.kind == "inconclusive" else 0, v.to_json())
            except (ValueError, MemoryError):
                exp = (2, None)
        else:
            raise ValueError(f"unknown command {cmd}")
        exp = (exp[0], json.loads(json.dumps(exp[1])))
        if key is not None:
            self.expected_cache[key] = exp
        return exp

    def judge(self, q, res):
        code, out, err = res["code"], res["out"], res["err"]
        traceback = "Traceback (most recent call last)" in err
        want_code, want = self._expected(q)
        expect(code == want_code or traceback,
               f"{' '.join(q.args['argv'])}: exit {code}, library gives {want_code}")
        if traceback:
            return "traceback"
        if code == 2:
            return "exit 2"
        payload = json.loads(out)
        expect(payload == want, f"{' '.join(q.args['argv'])}: --json payload differs "
                                f"from the library call")
        self._independent(q, payload)
        if payload.get("kind") == "inconclusive":
            return "inconclusive"
        return "ok"

    def _independent(self, q, payload):
        """Checks that do not go through k3latt at all."""
        cmd = q.args["argv"][0]
        if cmd == "repro":
            expect(payload["passed"] is True, f"repro {q.args['argv'][1]} has failing rows")
        elif cmd == "ns-check":
            ns = q.args["ns"]
            expect(payload["subgroup_order"] == 2 ** _rank_gf2(ns["cands"]),
                   "ns-check subgroup order differs from the GF(2) rank")
            expect(payload["expected_order"] == 2 ** ns["n"], "ns-check expected order")
        elif cmd == "small":
            expect(payload["small"] == O.cube_small(payload["d"]), "small verdict")
        elif cmd == "reduce":
            r = payload["reduced"]
            expect(O.is_reduced(r["a"], r["b"], r["c"]) and (r["a"], r["b"], r["c"])
                   == q.args["base"], "reduce did not return the reduced class member")
        elif cmd == "equivalent":
            expect(payload["equivalent"] == q.args["same"], "equivalent verdict")
        elif cmd == "match":
            a, b = q.args["diag"]
            red = tuple(sorted((a, b))) + (0,)
            got = {(m["a"], m["b"], m["c"]) for m in payload["matches"]}
            mates = set(O.genera(4 * a * b)[O.genus_key(red)])
            expect(got == mates, f"match {4 * a * b}: {sorted(got)} is not the genus "
                                 f"{sorted(mates)}")
        elif cmd == "discform":
            order = math.prod(payload["orders"])
            expect(order == (1 if q.args["key"] == "k3" else 48),
                   f"discform group order {order}")


def _mat(f):
    a, b, c = f
    return [[2 * a, c], [c, 2 * b]]


def _rows_of(text):
    return [[int(t) for t in part.split()] for part in text.strip()[1:-1].split(";")]


def _form_of(k3, text):
    return k3.EvenBinaryForm.from_matrix(_rows_of(text))


WORKLOADS = {w.name: w for w in (GenusLadder, IsotropyMix, CliSession)}
