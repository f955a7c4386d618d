"""k3latt benchmark: seeded closed-loop workloads with verdict checks.

Run one workload (what BENCHMARK.json's command does), or all of them:

    python3 bench/run.py --workload genus_ladder --seed 1 --seconds 34 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 34

With ``--trace 0`` it prints the end-to-end metrics, taken with tracing off
(timings are CPU time; see worker.py).
With ``--trace 1`` it runs a fixed number of rounds untraced and then
traced, each in a fresh interpreter, and prints the per-layer metrics of
the first traced run and the tracing overhead over all pairs run.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  A wrong verdict sets correct to
false and the exit code to 1.

``--out FILE`` appends each result as a JSON line; ``--compare BASE NEW``
reads two such files and prints, per workload and metric, the medians,
quartiles, the ratio to the base and whether the change is resolved within
the metric's bound from BENCHMARK.json.

Every workload runs in its own interpreter (worker.py) under the
address-space cap MEM_CAP_MB of workloads.py; inputs come from workloads.py
and oracle.py, seeded by ``--seed``, and never from k3latt.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from tracer import Tracer, layer_metrics
from workloads import MEM_CAP_MB, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("genus_ladder", "isotropy_mix", "cli_session")
PROBES = 5  # extra interpreters started per run to take the median set-up time
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one BLAS thread: a fixed address-space baseline under the cap
    return env


class Runner:
    def __init__(self):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = child_env()

    def spawn(self, cfg: dict, flags=()) -> tuple[float, dict, str]:
        """Start a worker; return (spawn stamp, its JSON result, its stderr)."""
        cfg = dict(cfg, mem_cap_mb=MEM_CAP_MB)
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, *flags, WORKER, json.dumps(cfg)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=self.env, cwd=ROOT, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{cfg['workload']} worker ran past {RUN_LIMIT_S:.0f} s")
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"{cfg['workload']} worker exited {proc.returncode}:\n{err[-3000:]}")
        return t0, json.loads(out.strip().splitlines()[-1]), err

    def setups(self, workload: str, n: int = PROBES, flags=()) -> list[tuple[float, dict, str]]:
        return [self.spawn({"workload": workload, "seed": 0, "probe": True}, flags)
                for _ in range(n)]


def quantile(values, q: int, of: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=of, method="inclusive")[q - 1]


def quartiles(values) -> tuple[float, float]:
    """q1 and q3 across runs, as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, workload: str, seed: int, seconds: int, rounds) -> dict:
    probes = runner.setups(workload)
    cfg = {"workload": workload, "seed": seed}
    cfg.update({"rounds": rounds} if rounds else {"seconds": seconds})
    t0, res, _ = runner.spawn(cfg)
    spawned = probes + [(t0, res, "")]
    setup = [p["cpu"]["catalog"] for _, p, _ in spawned]
    setup_wall = [p["stamps"]["catalog"] - s for s, p, _ in spawned]
    lat = res["latencies"]
    failed = sum(res["failures"].values())
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "queries_per_s": metric(len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": metric(1000 * statistics.median(lat), "ms"),
        "latency_p90_ms": metric(1000 * quantile(lat, 9, 10), "ms"),
        "fail_frac": metric(failed / len(lat), "ratio"),
        "peak_rss_mb": metric(res["maxrss_kb"] / 1024, "MB"),
    }
    info = {"samples": len(lat), "query_cpu_s": sum(lat), "query_wall_s": res["wall_s"],
            "setup_wall_s": statistics.median(setup_wall), "failures": res["failures"],
            "error": res["error"], "setup_samples": len(setup)}
    return {"correct": res["correct"], "attempted": len(lat), "failed": failed,
            "metrics": metrics, "info": info}


def numpy_import_s(stderr: str) -> float:
    """Cumulative import time of numpy from ``-X importtime`` output, 0 if absent."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1e6
    return 0.0


def static_counts() -> dict:
    loc = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    loc += sum(1 for _ in fh)
    try:
        import tomllib
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            deps = len(tomllib.load(fh)["project"].get("dependencies", []))
    except ImportError:  # Python 3.10: count the entries of the one-line list
        with open(os.path.join(ROOT, "pyproject.toml")) as fh:
            line = next(ln for ln in fh if ln.startswith("dependencies"))
        deps = line.count('"') // 2
    return {"static.src_loc": loc, "static.runtime_deps": deps}


def traced(runner: Runner, workload: str, seed: int, seconds: int, rounds) -> dict:
    """Per-layer metrics from one traced run of a fixed number of rounds.

    Untraced and traced runs of those rounds alternate until --seconds of
    query CPU time is spent (one pair when --rounds is given), so the
    overhead compares the two over the same stretches of machine speed.
    """
    probes = runner.setups(workload)
    numpy_probes = runner.setups(workload, 3, ("-X", "importtime"))
    cfg = {"workload": workload, "seed": seed,
           "rounds": rounds or WORKLOADS[workload].TRACE_ROUNDS}
    pairs = []
    while not pairs or (not rounds and sum(sum(r["latencies"]) for pair in pairs
                                           for r in pair) < seconds):
        pairs.append((runner.spawn(cfg)[1], runner.spawn(dict(cfg, trace=True))[1]))
    res = pairs[0][1]
    tracer = Tracer()
    tracer.merge(res["trace"])
    plain_s, traced_s = (sum(sum(pair[i]["latencies"]) for pair in pairs) for i in (0, 1))
    extra = {
        "import.interpreter_s": statistics.median(p["cpu"]["start"] for _, p, _ in probes),
        "import.k3latt_s": statistics.median(p["cpu"]["k3latt"] - p["cpu"]["import"]
                                             for _, p, _ in probes),
        "import.numpy_s": statistics.median(numpy_import_s(err) for _, _, err in numpy_probes),
        "trace.overhead_frac": traced_s / plain_s - 1,
        **static_counts(),
    }
    runs = [r for pair in pairs for r in pair]
    return {"correct": all(r["correct"] for r in runs), "attempted": len(res["latencies"]),
            "failed": sum(res["failures"].values()), "metrics": layer_metrics(tracer, extra),
            "info": {"rounds": cfg["rounds"], "pairs": len(pairs),
                     "error": next((r["error"] for r in runs if r["error"]), None),
                     "failures": res["failures"]}}


def show(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:13s} {name:52s} {m['value']:>14.6g} {m['unit']}")
    info = result["info"]
    print(f"{workload:13s} attempted {result['attempted']}, failed {result['failed']} "
          f"{info.get('failures') or ''}, correct {result['correct']}")
    if info.get("error"):
        print(f"{workload:13s} WRONG VERDICT: {info['error']}")


# -- compare ----------------------------------------------------------------------

def load_records(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(base_path: str, new_path: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict = {}
    for side, path in (("base", base_path), ("new", new_path)):
        for rec in load_records(path):
            for name, m in rec["result"]["metrics"].items():
                values.setdefault((rec["workload"], name), {"base": [], "new": []})[side].append(
                    m["value"])
    print(f"{'workload':13s} {'metric':48s} {'base median [q1, q3]':>30s} "
          f"{'new median [q1, q3]':>30s} {'new/base':>9s}  verdict")
    for (workload, name), v in sorted(values.items()):
        b, n = v["base"], v["new"]
        if not b or not n:
            continue
        spec_m = declared.get(name, {})
        bm, nm = statistics.median(b), statistics.median(n)
        ratio = nm / bm if bm else float("nan")
        verdict = ""
        if "bound" in spec_m:
            lower = spec_m["better"] == "lower"
            spread = max((quartiles(x)[1] - quartiles(x)[0]) / abs(statistics.median(x))
                         if statistics.median(x) else 0.0 for x in (b, n))
            worse = ((nm - bm) if lower else (bm - nm)) / bm if bm else 0.0
            all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
            if spread > spec_m["bound"] and not all_better:
                verdict = f"unresolved (spread {spread:.3f} > bound {spec_m['bound']})"
            elif worse > spec_m["bound"]:
                verdict = f"WORSE by {worse:.3f}"
            elif worse < -spec_m["bound"] or all_better:
                verdict = f"better by {-worse:.3f}"
            else:
                verdict = "within bound"

        def cell(x):
            q1, q3 = quartiles(x)
            return f"{statistics.median(x):.5g} [{q1:.5g}, {q3:.5g}]"
        print(f"{workload:13s} {name:48s} {cell(b):>30s} {cell(n):>30s} {ratio:>9.4f}  {verdict}")
    return 0


# -- main -----------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=34,
                    help="query CPU time to measure per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=None,
                    help="run this many query rounds instead of --seconds")
    ap.add_argument("--out", help="append each result as a JSON line to this file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not os.path.isfile(os.path.join(SRC, "k3latt", "__init__.py")):
        print(f"error: no k3latt sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            runner = Runner()
            if args.trace:
                res = traced(runner, name, args.seed, args.seconds, args.rounds)
            else:
                res = end_to_end(runner, name, args.seed, args.seconds, args.rounds)
            show(name, res)
            results[name] = res
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps({"workload": name, "seed": args.seed,
                                         "seconds": args.seconds, "trace": args.trace,
                                         "result": res}) + "\n")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        res = results[names[0]]
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
