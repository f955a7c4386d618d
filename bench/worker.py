"""One workload process: ``python3 bench/worker.py '<json config>'``.

run.py spawns it in a fresh interpreter with ``src`` on PYTHONPATH.  It caps
its own address space first (CLI children inherit the cap), imports k3latt,
loads the catalog, then runs the workload's query rounds and prints one JSON
line with clock stamps, per-query latencies, failure reasons, peak RSS and,
when traced, the aggregated spans.

Latencies and the CPU stamps are CPU time (user + system) of this process
and the children it has waited for: on a shared machine the wall clock also
counts time other tenants take from the CPU, which spreads the same work by
tens of percent, while the program is single-threaded (one BLAS thread) and
waits for nothing, so on an idle machine the two agree.  Wall-clock query
time is reported beside them.

Config keys: workload, seed, mem_cap_mb, and either seconds (run whole
rounds until that much query CPU time is spent, and at least MIN_QUERIES
queries, so every run keeps each round's mix) or rounds (a fixed number of
rounds); trace (bool); probe (stop after set-up).

Only what the cap and the config need is imported before k3latt, so the
set-up time is the program's own.
"""

import time

T_START = time.monotonic()
T_START_CPU = time.process_time()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def cpu_time() -> float:
    """CPU seconds of this process and of its children that have ended."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def main() -> int:
    cfg = json.loads(sys.argv[1])
    cap = cfg["mem_cap_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    stamps = {"start": T_START, "import": time.monotonic()}
    cpu = {"start": T_START_CPU, "import": time.process_time()}
    import k3latt
    stamps["k3latt"], cpu["k3latt"] = time.monotonic(), time.process_time()
    tracer = None
    if cfg.get("trace") and cfg["workload"] != "cli_session":
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    k3latt.load_catalog()
    stamps["catalog"], cpu["catalog"] = time.monotonic(), time.process_time()
    out = {"stamps": stamps, "cpu": cpu}
    if not cfg.get("probe"):
        out.update(run(cfg, k3latt, tracer))
    print(json.dumps(out))
    return 0


def run(cfg, k3latt, tracer) -> dict:
    from workloads import MIN_QUERIES, WORKLOADS, WrongVerdict
    cls = WORKLOADS[cfg["workload"]]
    workdir = None
    if cls.in_process:
        wl = cls(cfg["seed"], k3latt)
    else:
        import tempfile
        os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(HERE, ".work"))
        command = None
        if cfg.get("trace"):
            command = [sys.executable, os.path.join(HERE, "traced_cli.py")]
        wl = cls(cfg["seed"], k3latt, workdir=workdir, command=command,
                 trace_dir=workdir if cfg.get("trace") else None)
    latencies, failures = [], {}
    spent, wall, correct, error = 0.0, 0.0, True, None
    rounds, seconds = cfg.get("rounds"), cfg.get("seconds")
    try:
        for i, batch in enumerate(wl.rounds()):
            if rounds is not None and i >= rounds:
                break
            if rounds is None and spent >= seconds and len(latencies) >= MIN_QUERIES:
                break
            for q in batch:
                t0, c0 = perf_counter(), cpu_time()
                res = wl.execute(q)
                dt = cpu_time() - c0
                wall += perf_counter() - t0
                latencies.append(dt)
                spent += dt
                reason = wl.judge(q, res)
                if reason != "ok":
                    failures[reason] = failures.get(reason, 0) + 1
    except WrongVerdict as exc:
        correct, error = False, str(exc)
    finally:
        if workdir is not None and tracer is None and cfg.get("trace"):
            from tracer import Tracer
            tracer = Tracer()
            for name in os.listdir(workdir):
                if name.startswith("span"):
                    with open(os.path.join(workdir, name)) as fh:
                        tracer.merge(json.load(fh))
        if workdir is not None:
            import shutil
            shutil.rmtree(workdir, ignore_errors=True)
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"latencies": latencies, "wall_s": wall, "failures": failures, "correct": correct,
            "error": error, "maxrss_kb": usage_self if cls.in_process else usage_children,
            "trace": tracer.dump() if tracer is not None else None}


if __name__ == "__main__":
    sys.exit(main())
