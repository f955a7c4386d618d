"""Spans around k3latt's public functions, installed from outside the package.

``install`` wraps every public function and method defined in a k3latt
module and rebinds the wrapper on the class, in the defining module and in
every k3latt module that imported the name, so internal calls are traced
too.  The source is not touched.  Spans are aggregated in memory per name:
calls, total time and self time (a span minus the time its child spans
cover).  A few observers derive counts from arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.stack: list[list[float]] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            tracer.stack.append(child)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = perf_counter() - t0
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][0] += dt
                st = tracer.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dt
                st[2] += dt - child[0]
                if observe is not None:
                    observe(tracer, args, result, exc)

        return traced

    def merge(self, data: dict) -> None:
        """Add the stats and counts another process dumped with ``dump``."""
        for name, (calls, total, self_s) in data["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        for name, n in data["counts"].items():
            self.count(name, n)

    def dump(self) -> dict:
        return {"stats": self.stats, "counts": self.counts}


# -- observers: counts computed from arguments and results ---------------------

def _is_isomorphic(tr, args, result, exc):
    a, b = args[0], args[1]
    na, nb = math.prod(a.orders), math.prod(b.orders)
    if na == nb:
        tr.count("discforms.is_isomorphic.group_elems", na)
    if result is True:
        tr.count("discforms.is_isomorphic.true")


def _match(tr, args, result, exc):
    if result:
        tr.count("binforms.match_disc_form.hits")


def _transcendental(tr, args, result, exc):
    if type(exc).__name__ == "Ambiguous":
        tr.count("rank3.transcendental_of_singular.ambiguous")


def _find_isotropic(tr, args, result, exc):
    if result is not None:
        tr.count("ternary.find_isotropic.hits")


def _local_obstruction(tr, args, result, exc):
    f, p, e = args[0], args[1], args[2]
    if exc is not None:
        if type(exc).__name__ in ("SearchTooLarge", "MemoryError"):
            tr.count("ternary.local_obstruction.limits")
        return
    rows = f.gram.rows
    split = any(all(rows[k][i] == 0 for i in range(3) if i != k) for k in range(3))
    m = p ** e
    tr.count("ternary.local_obstruction.cells", m * m if split else m ** 3)
    if result:
        tr.count("ternary.local_obstruction.obstructions")


def _generators_report(tr, args, result, exc):
    if result is not None:
        tr.count("nsverify.generators_report.subgroup_order", result.subgroup_order)


OBSERVERS = {
    "discforms.FiniteQF.is_isomorphic": _is_isomorphic,
    "binforms.match_disc_form": _match,
    "rank3.transcendental_of_singular": _transcendental,
    "ternary.find_isotropic": _find_isotropic,
    "ternary.local_obstruction": _local_obstruction,
    "nsverify.generators_report": _generators_report,
}


def install(tracer: Tracer, package: str = "k3latt") -> int:
    """Wrap the public functions of every loaded module of ``package``.

    Returns the number of functions wrapped.
    """
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]
    wrapped = {}
    for mod in mods:
        short = mod.__name__.rpartition(".")[2]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{short}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, OBSERVERS.get(name))
            elif inspect.isclass(obj):
                for mname, raw in list(vars(obj).items()):
                    if mname.startswith("_"):
                        continue
                    kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                    fn = raw.__func__ if kind else raw
                    if not inspect.isfunction(fn):
                        continue
                    name = f"{short}.{obj.__name__}.{mname}"
                    w = tracer.wrap(name, fn, OBSERVERS.get(name))
                    setattr(obj, mname, kind(w) if kind else w)
                    wrapped[fn] = w
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    return len(wrapped)


# -- per-layer metrics ----------------------------------------------------------

SPAN = {"discforms.is_isomorphic": "discforms.FiniteQF.is_isomorphic",
        "discforms.from_lattice": "discforms.FiniteQF.from_lattice"}


def _timed(*names):
    return [(f"{n}.{s}", u, b) for n in names
            for s, u, b in (("calls", "count", "lower"), ("self_s", "s", "lower"))]


def _self(*names):
    return [(f"{n}.self_s", "s", "lower") for n in names]


# (name, unit, better); computed counts are derived from call arguments.
LAYER_METRICS = (
    _timed("discforms.is_isomorphic")
    + [("discforms.is_isomorphic.true_frac", "ratio", "higher"),
       ("discforms.is_isomorphic.group_elems", "count", "lower")]
    + _timed("discforms.from_lattice")
    + _timed("lattice.determinant", "lattice.signature", "lattice.smith_normal_form",
             "lattice.discriminant_group")
    + _timed("binforms.enumerate_reduced", "binforms.reduce", "binforms.genus_partition",
             "binforms.match_disc_form")
    + [("binforms.match_disc_form.hit_frac", "ratio", "higher")]
    + _timed("rank3.transcendental_of_singular")
    + [("rank3.transcendental_of_singular.ambiguous_frac", "ratio", "lower")]
    + _self("rank3.verify_candidate", "rank3.is_small_discriminant")
    + _timed("ternary.find_isotropic")
    + [("ternary.find_isotropic.hit_frac", "ratio", "higher")]
    + _timed("ternary.local_obstruction")
    + [("ternary.local_obstruction.obstruction_frac", "ratio", "higher"),
       ("ternary.local_obstruction.limit_frac", "ratio", "lower"),
       ("ternary.local_obstruction.cells", "count", "lower")]
    + _self("ternary.decide_isotropy", "ternary.is_simple_shioda_inose")
    + _timed("nsverify.generators_report", "nsverify.check_divisible_class")
    + [("nsverify.generators_report.subgroup_order", "count", "lower")]
    + _self("catalog.load_catalog", "catalog.repro_table1", "catalog.repro_section4",
            "catalog.repro_section5", "formats.parse_gram_text", "formats.parse_bracket_matrix")
    + _timed("cli.main")
    + [("import.interpreter_s", "s", "lower"), ("import.numpy_s", "s", "lower"),
       ("import.k3latt_s", "s", "lower"), ("trace.overhead_frac", "ratio", "lower"),
       ("static.src_loc", "count", "lower"), ("static.runtime_deps", "count", "lower")]
)

FRACTIONS = {  # metric -> (count name, denominator span)
    "discforms.is_isomorphic.true_frac": ("discforms.is_isomorphic.true",
                                          "discforms.is_isomorphic"),
    "binforms.match_disc_form.hit_frac": ("binforms.match_disc_form.hits",
                                          "binforms.match_disc_form"),
    "rank3.transcendental_of_singular.ambiguous_frac": (
        "rank3.transcendental_of_singular.ambiguous", "rank3.transcendental_of_singular"),
    "ternary.find_isotropic.hit_frac": ("ternary.find_isotropic.hits",
                                        "ternary.find_isotropic"),
    "ternary.local_obstruction.obstruction_frac": ("ternary.local_obstruction.obstructions",
                                                   "ternary.local_obstruction"),
    "ternary.local_obstruction.limit_frac": ("ternary.local_obstruction.limits",
                                             "ternary.local_obstruction"),
}


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Every LAYER_METRICS entry from the tracer's spans and counts.

    ``extra`` supplies the values measured outside the spans (import times,
    overhead, static counts).  A fraction with no calls reads 0.
    """
    out = {}
    for name, unit, _ in LAYER_METRICS:
        base, _, stat = name.rpartition(".")
        st = tracer.stats.get(SPAN.get(base, base), [0, 0.0, 0.0])
        if name in extra:
            value = extra[name]
        elif stat == "calls":
            value = st[0]
        elif stat == "self_s":
            value = st[2]
        elif name in FRACTIONS:
            num, den = FRACTIONS[name]
            calls = tracer.stats.get(SPAN.get(den, den), [0])[0]
            value = tracer.counts.get(num, 0) / calls if calls else 0.0
        else:
            value = tracer.counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
