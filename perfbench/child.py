"""Repetitions of a benchmark workload, in a fresh interpreter.

Usage: python3 child.py JOB.json RESULT.json T_SPAWN

`run.py` starts this script with PYTHONPATH set to the checkout's `src/`
and passes its own `time.perf_counter()` reading taken just before the
start; on Linux that clock is system-wide, so `setup_s` covers interpreter
start-up, `import wotnet` and, for the query workload, ingesting the log.
The job file says what to run and for how long: repetitions go on until
`slice_s` seconds have passed since the first one started, and at least
one runs.  A CLI repetition is one `wotnet.cli.main(argv)` call into a
fresh output directory; a query repetition is one pass over the query
sequence.  The result file gets the timings of every repetition (and, for
queries, of each query's fastest call), the answers to check and, in a
traced run, the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import warnings


def _encode(kind: str, answer):
    if kind == "trust":
        return answer
    return [
        [u, m.k_in_plus, m.k_in_minus, m.k_out_plus, m.k_out_minus, m.rho_plus, m.rho_minus]
        for u, m in sorted(answer.items())
    ]


def query_pass(wotnet, log, job: dict, tracer, result: dict, samples: dict | None) -> dict:
    """One pass over the seeded query sequence, closed loop, one caller.

    Pools the latencies by kind and keeps each query's fastest wall and
    CPU time over the child's passes in `result`.
    """
    latencies, best_ns, best_cpu_ns = result["latency_ms"], result["best_ns"], result["best_cpu_ns"]
    calls = {"trust": wotnet.gettrust, "history": wotnet.node_metrics}
    sample_ids = set(job["sample"])
    digest = hashlib.sha256()
    run_ns = cpu_ns = 0
    for qid, (kind, viewer, target, cutoff) in enumerate(job["queries"]):
        if tracer is not None:
            tracer.run_id = qid
        args = (log, viewer, target, cutoff) if kind == "trust" else (log, cutoff)
        c0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        answer = calls[kind](*args)
        t1 = time.perf_counter_ns()
        c1 = time.process_time_ns()
        run_ns += t1 - t0
        cpu_ns += c1 - c0
        best_ns[qid] = min(best_ns[qid], t1 - t0)
        best_cpu_ns[qid] = min(best_cpu_ns[qid], c1 - c0)
        latencies[kind].append((t1 - t0) / 1e6)
        encoded = _encode(kind, answer)
        digest.update(repr([kind, encoded]).encode())
        if samples is not None and qid in sample_ids:
            samples[qid] = encoded
    return {"run_s": run_ns / 1e9, "cpu_s": cpu_ns / 1e9, "answers_sha256": digest.hexdigest()}


def _call_main(cli, argv: list[str]) -> tuple[int, float, float]:
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    t1 = time.perf_counter()
    c1 = time.process_time()
    return rc, t1 - t0, c1 - c0


def cli_rep(cli, job: dict, rep: int, tracer) -> dict:
    """One `wotnet.cli.main(argv)` call; a traced run also counts rewire stalls."""
    out = f"{job['out']}/rep{rep}"
    argv = [out if a == "{out}" else a for a in job["argv"]]
    if tracer is None:
        rc, run_s, cpu_s = _call_main(cli, argv)
    else:
        tracer.run_id = rep
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, run_s, cpu_s = _call_main(cli, argv)
        tracer.counters["static.rewire_stalls"] += sum(
            1 for w in caught if str(w.message).startswith("rewiring stalled")
        )
    return {"rc": rc, "run_s": run_s, "cpu_s": cpu_s, "out": out}


def main() -> int:
    job_path, result_path, t_spawn = sys.argv[1], sys.argv[2], float(sys.argv[3])
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)

    import wotnet
    import wotnet.cli

    tracer = None
    if job["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install("wotnet")
        tracer.run_id = -1  # set-up
    log = None
    if job["workload_kind"] == "queries":
        log, _report = wotnet.ingest(job["log"])
    result: dict = {
        "setup_s": time.perf_counter() - t_spawn,
        "wotnet_file": wotnet.__file__,
        "wotnet_version": wotnet.__version__,
        "reps": [],
    }
    if log is not None:
        result["latency_ms"] = {"trust": [], "history": []}
        result["best_ns"] = [float("inf")] * len(job["queries"])
        result["best_cpu_ns"] = [float("inf")] * len(job["queries"])
        result["samples"] = {}
    start = time.perf_counter()
    while not result["reps"] or time.perf_counter() - start < job["slice_s"]:
        if log is not None:
            samples = result["samples"] if not result["reps"] else None
            rep = query_pass(wotnet, log, job, tracer, result, samples)
        else:
            rep = cli_rep(wotnet.cli, job, len(result["reps"]), tracer)
        result["reps"].append(rep)
        if len(result["reps"]) == 1:  # the peak of set-up plus one repetition
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if rep.get("rc", 0) != 0:
            break
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(job["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
