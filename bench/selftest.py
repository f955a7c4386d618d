"""Self-test of the benchmark: ``python3 bench/selftest.py``.

Checks that every workload runs at a tiny size, traced and untraced; that
every metric BENCHMARK.json names is emitted with its unit; that planted
wrong verdicts are rejected; and that the reference genus characters agree
with a brute-force count of represented residues.  Exits nonzero on the
first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle as O  # noqa: E402
from run import WORKLOAD_NAMES, child_env  # noqa: E402
from workloads import WORKLOADS, Query, WrongVerdict  # noqa: E402


def check(cond, msg):
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", "3", "--rounds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=175)
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n"
                                f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tiny_runs_emit_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES),
          "BENCHMARK.json workloads differ from run.py's")
    for workload in WORKLOAD_NAMES:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res = run_tiny(workload, trace)
            check(res["correct"] is True and res["attempted"] >= 1,
                  f"{workload} trace={trace}: {res}")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            units = [(k, got[k], want[k]) for k in got if k in want and got[k] != want[k]]
            check(got == want, f"{workload} trace={trace} metrics differ: missing "
                               f"{set(want) - set(got)}, extra {set(got) - set(want)}, "
                               f"units {units}")
            check(all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()),
                  f"{workload} trace={trace}: a metric value is not a number")
        print(f"ok  {workload}: tiny runs emit every declared metric")


def rejects(wl, q, res, what):
    try:
        wl.judge(q, res)
    except WrongVerdict:
        print(f"ok  planted wrong verdict rejected: {what}")
        return
    check(False, f"planted wrong verdict accepted: {what}")


def test_planted_wrong_verdicts():
    import k3latt
    gl = WORKLOADS["genus_ladder"](5, k3latt)
    q = next(q for q in next(gl.rounds()) if q.args["d"] < 10_000 and
             len(O.genera(q.args["d"])) > 1)
    res = gl.execute(q)
    check(gl.judge(q, res) == "ok", "genus_ladder: an honest result was rejected")
    genera = [list(g) for g in res["genera"]]
    genera[1].append(genera[0].pop())
    rejects(gl, q, dict(res, genera=[g for g in genera if g]), "form moved to another genus")
    rejects(gl, q, dict(res, t=k3latt.EvenBinaryForm(1, 10**6, 0)), "wrong transcendental form")

    iso = WORKLOADS["isotropy_mix"](5, k3latt)
    qs = next(iso.rounds())
    tx = qs[0]
    v = iso.execute(tx)["verdict"]
    rejects(iso, tx, {"verdict": type(v)("obstruction", prime=7, precision=5)},
            "TxV obstruction at the wrong prime")
    ctl = next(q for q in qs if q.kind == "catalog" and q.args["name"] == "control")
    rejects(iso, ctl, {"verdict": type(v)("witness", witness=(1, 1, 1))},
            "witness that is not a zero")

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = os.path.join(HERE, ".work", "selftest")
    os.makedirs(workdir, exist_ok=True)
    try:
        cli = WORKLOADS["cli_session"](5, k3latt, workdir=workdir)
        q = Query("enumerate", {"argv": ["enumerate", "60"]})
        forms = [{"a": 1, "b": 15, "c": 0, "d": 60, "matrix": [[2, 0], [0, 30]]}]
        rejects(cli, q, {"code": 0, "out": json.dumps({"d": 60, "forms": forms}), "err": ""},
                "enumerate payload missing forms")
        rejects(cli, Query("repro", {"argv": ["repro", "table1"]}),
                {"code": 1, "out": "{}", "err": ""}, "repro exit code 1")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_genus_characters_against_residues():
    """Same genus iff the primitive parts represent the same units mod |D|."""
    for d in range(3, 100):
        if d % 4 not in (0, 3):
            continue
        classes = {}
        for a, b, c in O.reduced_forms(d):
            g = gcd(gcd(a, b), abs(c))
            pa, pb, pc = a // g, b // g, c // g
            disc = abs(pc * pc - 4 * pa * pb)
            units = frozenset(v % disc for x in range(disc) for y in range(disc)
                              if gcd(v := pa * x * x + pc * x * y + pb * y * y, disc) == 1)
            classes.setdefault((g, units), []).append((a, b, c))
        got = sorted(map(sorted, O.genera(d).values()))
        check(got == sorted(map(sorted, classes.values())), f"genus characters at d={d}")
    print("ok  genus characters agree with represented residues for d < 100")


if __name__ == "__main__":
    os.environ.update(child_env())
    test_genus_characters_against_residues()
    test_planted_wrong_verdicts()
    test_tiny_runs_emit_declared_metrics()
    print("selftest passed")
