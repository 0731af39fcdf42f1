#!/usr/bin/env python3
"""Seeded benchmark of wotnet, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload otc-eighth-all --seed 1 --seconds 50 --trace 0

The seed makes the synthetic input log (through `wotnet synth`), the
analysis `--seed` and the query sequence; the program only ever sees the
generated files.  A run starts CHILDREN fresh child interpreters
(`child.py`), one at a time, with PYTHONPATH set to this checkout's `src/`;
each sets up once and then repeats the workload for its share of
`--seconds`.  Times are the fastest repetition of the run (for queries, the
sum of each query's fastest call), set-up time and peak RSS the median over
the children: on a shared host the machine's speed swings for seconds to
minutes, and the fastest of many short timings is the figure that repeats
from run to run.  `--trace 0` reports the end-to-end
metrics; `--trace 1` also runs TRACED_CHILDREN traced children of one
repetition each and reports the per-layer metrics (see `layertrace.py`).
Metric names and units come from BENCHMARK.json.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.  The
exit code is 0 only when every output and answer check passed.  Inputs,
run directories, spans and a JSON record of each run are kept under
`.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
WORK = ROOT / ".bench_work"

CHILDREN = 3  # untraced children per run, each repeating for seconds / CHILDREN
TRACED_CHILDREN = 2  # traced children per run, one repetition each
DEADLINE_S = 170  # a run must end within 180 s
QUERY_SAMPLE = 8  # leading queries checked against the brute-force oracles


@dataclass(frozen=True)
class Synth:
    """`wotnet synth` parameters; scores are always skewed like Bitcoin-OTC."""

    users: int
    events: int
    t_span: int

    def argv(self, seed: int, out: Path) -> list[str]:
        return [
            "synth", "--users", str(self.users), "--events", str(self.events),
            "--seed", str(seed), "--scores", "skewed", "--t-span", str(self.t_span),
            "--out", str(out),
        ]  # fmt: skip

    def manifest_config(self, seed: int) -> dict:
        """The entries a cached input's synth manifest must match."""
        return {
            "users": self.users,
            "events": self.events,
            "seed": seed,
            "scores": "skewed",
            "times": "uniform",
            "t_span": self.t_span,
        }


@dataclass(frozen=True)
class Workload:
    name: str
    synth: Synth
    args: tuple[str, ...] = ()  # CLI subcommand and flags; "{seed}" becomes the seed
    queries: int = 0  # queries in one pass; nonzero for the query workload

    def cli_argv(self, log: Path, seed: int) -> list[str]:
        """The CLI arguments; the child puts each repetition's directory for "{out}"."""
        rest = [a.format(seed=seed) for a in self.args[1:]]
        return [self.args[0], "--input", str(log), "--out", "{out}", *rest]


# Shaped like Bitcoin-OTC: 5900 users, 36000 ratings over about 1900 days.
OTC = Synth(users=5_900, events=36_000, t_span=164_000_000)
# An eighth of it: an eighth of the users and of the days, the same ratings per day.
OTC_EIGHTH = Synth(users=738, events=4_500, t_span=20_500_000)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("otc-eighth-all", OTC_EIGHTH, ("all", "--seed", "{seed}", "--null-samples", "2")),
        Workload("otc-1x-queries", OTC, queries=24),
    )
}


# ---------------------------------------------------------------------------
# inputs


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def source_sha256(src: Path = ROOT / "src" / "wotnet") -> str:
    """Digest of the Python sources under `src`; for wotnet it identifies the
    code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(f"{path.relative_to(src)}\0".encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cached_input_ok(directory: Path, expected: dict) -> bool:
    try:
        manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    config = manifest.get("config", {})
    return (
        manifest.get("command") == "synth"
        and manifest.get("outputs") == ["synthetic.csv"]
        and all(config.get(k) == v for k, v in expected.items())
        and (directory / "synthetic.csv").is_file()
    )


def prepare_input(synth: Synth, seed: int, deadline: float, work: Path) -> Path:
    """The synthetic log for (parameters, seed), generated once and cached.

    A cached log is regenerated when its synth manifest does not match the
    parameters.  Generation is never timed.
    """
    expected = synth.manifest_config(seed)
    key = hashlib.sha256(json.dumps(expected, sort_keys=True).encode()).hexdigest()[:16]
    directory = work / "inputs" / key
    if not _cached_input_ok(directory, expected):
        tmp = directory.with_name(key + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(
            [sys.executable, "-c", "import sys; from wotnet.cli import main; sys.exit(main())",
             *synth.argv(seed, tmp)],
            env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )  # fmt: skip
        shutil.rmtree(directory, ignore_errors=True)
        tmp.rename(directory)
        if not _cached_input_ok(directory, expected):
            raise RuntimeError(f"wotnet synth wrote an unexpected manifest in {directory}")
    return directory / "synthetic.csv"


def read_log(path: Path) -> list[tuple[int, int, int, int]]:
    """(rater, ratee, score, timestamp) rows in time order, ties in file order."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        next(fh)  # header
        for line in fh:
            r, e, s, t = line.split(",")
            rows.append((int(r), int(e), int(s), int(t)))
    rows.sort(key=lambda row: row[3])
    return rows


def log_facts(rows) -> dict:
    users = {r for r, _e, _s, _t in rows} | {e for _r, e, _s, _t in rows}
    return {"users": len(users), "events": len(rows)}


# ---------------------------------------------------------------------------
# queries and their oracles


def query_sequence(rows, n: int, seed: int) -> list[list]:
    """Alternating trust and history queries at random cutoffs.

    Both kinds cost time in proportion to the events before their cutoff,
    so the cutoffs are stratified: each kind draws one cutoff event from
    each of n/2 equal slices of the log, in shuffled order.  Seeds then
    differ in which users and times they ask about, not in how much work
    the sequence is.  A trust query asks about a rating pair that exists
    at its cutoff; a history query asks for every user's metrics.
    """
    rng = random.Random(seed)
    per_kind = (n + 1) // 2
    cutoffs = {}
    for kind in ("trust", "history"):
        slices = [int((k + rng.random()) * len(rows) / per_kind) for k in range(per_kind)]
        rng.shuffle(slices)
        cutoffs[kind] = slices
    queries = []
    for q in range(n):
        if q % 2 == 0:
            j = cutoffs["trust"][q // 2]
            rater, ratee, _score, _t = rows[rng.randrange(j + 1)]
            queries.append(["trust", rater, ratee, rows[j][3]])
        else:
            queries.append(["history", None, None, rows[cutoffs["history"][q // 2]][3]])
    return queries


def oracle_history(rows, cutoff: int) -> list[list[int]]:
    """node_metrics at a cutoff, by summing the events up to it."""
    metrics: dict[int, list[int]] = {}
    for rater, ratee, score, t in rows:
        if t > cutoff:
            break
        to, fro = metrics.setdefault(ratee, [0] * 6), metrics.setdefault(rater, [0] * 6)
        if score > 0:
            to[0] += 1
            fro[2] += 1
            to[4] += score
        else:
            to[1] += 1
            fro[3] += 1
            to[5] -= score
    return [[u, *m] for u, m in sorted(metrics.items())]


def oracle_trust(rows, viewer: int, target: int, cutoff: int) -> int:
    """gettrust from a latest-rating dict built by a plain loop."""
    last: dict[tuple[int, int], int] = {}
    for rater, ratee, score, t in rows:
        if t > cutoff:
            break
        last[(rater, ratee)] = score
    total = last.get((viewer, target), 0)
    for (a, j), r_vj in last.items():
        r_jt = last.get((j, target), 0)
        if a == viewer and j != target and r_vj > 0 and r_jt:
            total += min(r_vj, abs(r_jt)) * (1 if r_jt > 0 else -1)
    return total


def check_answers(rows, queries, samples: dict) -> list[str]:
    problems = []
    for qid in range(min(QUERY_SAMPLE, len(queries))):
        kind, viewer, target, cutoff = queries[qid]
        expected = (
            oracle_trust(rows, viewer, target, cutoff)
            if kind == "trust"
            else oracle_history(rows, cutoff)
        )
        if samples.get(str(qid)) != expected:
            problems.append(f"query {qid} ({kind}) disagrees with its brute-force oracle")
    return problems


# ---------------------------------------------------------------------------
# CLI output checks


def csv_digest(out_dir: Path) -> str:
    """Digest over every CSV of a run directory (not the manifest, whose
    `created_utc` varies)."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


def check_outputs(out_dir: Path, input_sha: str, facts: dict) -> list[str]:
    """Manifest against the directory and the input, plus what the input fixes."""
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    problems = []
    present = sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.json")
    if manifest.get("outputs") != present:
        problems.append(f"manifest lists {manifest.get('outputs')}, directory holds {present}")
    if manifest.get("input_sha256") != input_sha:
        problems.append("manifest input_sha256 does not match the input")
    if "categories.csv" in present:
        n = len(_read_csv(out_dir / "categories.csv")) - 1
        if n != facts["users"]:
            problems.append(f"categories.csv has {n} users, the input has {facts['users']}")
    return problems


def check_digest(record: Path, key: str, digest: str) -> list[str]:
    """Compare a digest with the one recorded under `key` by an earlier
    repetition or run, or record it.

    An output digest must be identical across every run of the same sources,
    job and seed, traced or untraced.
    """
    try:
        seen = json.loads(record.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        seen = {}
    if key in seen:
        return [] if seen[key] == digest else [f"{key}: digest {digest} differs from an earlier run's {seen[key]}"]
    seen[key] = digest
    tmp = record.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, record)
    return []


# ---------------------------------------------------------------------------
# child processes


def spawn(job: dict, deadline: float, work: Path) -> tuple[dict | None, str | None]:
    """Run one child to completion; returns (result, None) or (None, error)."""
    jobs = work / "jobs"
    jobs.mkdir(parents=True, exist_ok=True)
    job_path, result_path, err_path = (jobs / f"{os.getpid()}-{n}" for n in ("job.json", "result.json", "stderr.txt"))
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        return None, "time budget of the run exhausted"
    with open(err_path, "w", encoding="utf-8") as err:
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(job_path), str(result_path), repr(t_spawn)],
                cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err, timeout=timeout,
            )  # fmt: skip
        except subprocess.TimeoutExpired:
            return None, "child timed out"
    if proc.returncode != 0 or not result_path.exists():
        tail = err_path.read_text(encoding="utf-8").strip().splitlines()[-3:]
        return None, f"child exited with {proc.returncode}: {' | '.join(tail)}"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    for path in (job_path, result_path, err_path):
        path.unlink()
    if not Path(result["wotnet_file"]).resolve().is_relative_to(ROOT / "src"):
        return None, f"child imported wotnet from {result['wotnet_file']}, not from this checkout"
    return result, None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-int(p * len(ordered)) // 100) - 1)]


class Run:
    """One benchmark run: a workload at a seed, untraced and optionally traced."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool, work: Path = WORK):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        self.deadline = time.perf_counter() + DEADLINE_S
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.record = work / "digests.json"

    def execute(self) -> dict:
        w = self.workload
        self.log = prepare_input(w.synth, self.seed, self.deadline, self.work)
        self.input_sha = sha256_file(self.log)
        self.rows = read_log(self.log)
        self.facts = log_facts(self.rows)
        self.queries = query_sequence(self.rows, w.queries, self.seed) if w.queries else []
        times = [row[3] for row in self.rows]
        # events per repetition: the input, or the events up to each query's cutoff
        self.events = sum(bisect.bisect_right(times, q[3]) for q in self.queries) or self.facts["events"]
        asked = hashlib.sha256(json.dumps([w.args, self.queries]).encode()).hexdigest()
        code = source_sha256()[:16] + source_sha256(BENCH)[:16]
        self.key = f"{w.name}|seed={self.seed}|input={self.input_sha[:16]}|code={code}|job={asked[:16]}"

        untraced = self.repeat(traced=False)
        traced = self.repeat(traced=True) if self.trace and len(untraced) == CHILDREN else []
        return self.report(untraced, traced)

    def job(self, traced: bool, child: int) -> dict:
        w = self.workload
        out = self.work / "runs" / w.name / f"{'traced' if traced else 'child'}{child}"
        shutil.rmtree(out, ignore_errors=True)
        spans = self.work / "results" / f"{w.name}-seed{self.seed}-traced{child}.spans.csv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        return {
            "workload_kind": "queries" if w.queries else "cli",
            "trace": traced,
            "slice_s": 0 if traced else self.seconds / CHILDREN,
            "spans": str(spans),
            "log": str(self.log),
            "argv": [] if w.queries else w.cli_argv(self.log, self.seed),
            "out": str(out),
            "queries": self.queries,
            "sample": list(range(min(QUERY_SAMPLE, len(self.queries)))),
        }

    def repeat(self, traced: bool) -> list[dict]:
        """The children of one mode, one after the other; stops at the first failure."""
        children: list[dict] = []
        ops = len(self.queries) or 1
        for child in range(TRACED_CHILDREN if traced else CHILDREN):
            job = self.job(traced, child)
            result, error = spawn(job, self.deadline, self.work)
            label = f"{'traced ' if traced else ''}child {child}"
            if error:
                self.attempted += ops
                self.failed += ops
                self.problems.append(f"{label}: {error}")
                return children
            self.attempted += ops * len(result["reps"])
            problems = self.check(result)
            if problems:
                self.failed += min(ops, len(problems))
                self.problems.extend(f"{label}: {p}" for p in problems)
                return children
            children.append(result)
        return children

    def check(self, result: dict) -> list[str]:
        problems = []
        for k, rep in enumerate(result["reps"]):
            if self.queries:
                digest_key, digest = f"{self.key}|answers", rep["answers_sha256"]
            else:
                if rep["rc"] != 0:
                    return [f"rep {k}: exit code {rep['rc']}"]
                out = Path(rep["out"])
                problems += [f"rep {k}: {p}" for p in check_outputs(out, self.input_sha, self.facts)]
                digest_key, digest = f"{self.key}|outputs", csv_digest(out)
                rep["digest"] = digest
            problems += [f"rep {k}: {p}" for p in check_digest(self.record, digest_key, digest)]
            if problems:
                return problems
        if self.queries:
            problems = check_answers(self.rows, self.queries, result["samples"])
        return problems

    def report(self, untraced: list[dict], traced: list[dict]) -> dict:
        """Times are the fastest repetition; set-up time and peak RSS, the median child.

        For queries, the time of a repetition (a pass) is the sum of each
        query's fastest call over all passes of the run: a short call
        catches an unslowed moment of a shared host far more often than a
        whole pass does.
        """
        reps = [rep for child in untraced for rep in child["reps"]]

        def metric(value, unit, n, stat, samples=None):
            return {"value": value, "unit": unit, "n": n, "stat": stat, "samples": samples}

        e2e: dict[str, dict] = {}
        extra: dict[str, dict] = {}
        if untraced:
            n, c = len(reps), len(untraced)
            run_s = [r["run_s"] for r in reps]
            cpu_s = [r["cpu_s"] for r in reps]
            setups = [child["setup_s"] for child in untraced]
            if self.queries:
                best_run_s = sum(min(q) for q in zip(*(child["best_ns"] for child in untraced))) / 1e9
                best_cpu_s = sum(min(q) for q in zip(*(child["best_cpu_ns"] for child in untraced))) / 1e9
                stat = "sum of per-query min"
            else:
                best_run_s, best_cpu_s, stat = min(run_s), min(cpu_s), "min"
            e2e = {
                "setup_s": metric(statistics.median(setups), "s", c, "median", setups),
                "run_s": metric(best_run_s, "s", n, stat, run_s),
                "cpu_s": metric(best_cpu_s, "s", n, stat, cpu_s),
                "peak_rss_mb": metric(statistics.median(child["peak_rss_mb"] for child in untraced), "MB", c, "median"),
                "events_per_s": metric(self.events / best_run_s, "1/s", n, "from run_s"),
            }
            if self.queries:
                extra["queries_per_s"] = metric(len(self.queries) / best_run_s, "1/s", n, "from run_s")
                for kind in ("trust", "history"):
                    lat = [v for child in untraced for v in child["latency_ms"][kind]]
                    for p in (50, 90, 99):
                        if p == 50 or len(lat) * (100 - p) / 100 >= 10:  # ten samples beyond it
                            extra[f"{kind}_p{p}_ms"] = metric(percentile(lat, p), "ms", len(lat), f"p{p}")
        layers: dict[str, float] = {}
        if traced:
            layers = self.layer_metrics(traced)
            traced_min = min(rep["run_s"] for child in traced for rep in child["reps"])
            layers["trace.overhead_s"] = traced_min - min(r["run_s"] for r in reps)
        all_reps = reps + [rep for child in traced for rep in child["reps"]]
        digests = sorted({r.get("digest") or r.get("answers_sha256") for r in all_reps})
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "environment": environment(untraced),
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "end_to_end": e2e,
            "extra": extra,
            "digest": digests[0] if len(digests) == 1 else None,
            "layers": layers,
            "wait_s": "none: no layer has a queue, so every span is busy time",
        }

    def layer_metrics(self, traced: list[dict]) -> dict[str, float]:
        """Times are medians over the traced children; counts must repeat exactly."""
        out = {}
        for name in traced[0]["layers"]:
            values = [r["layers"].get(name) for r in traced]
            if name.endswith(".s") or name.endswith("_s"):
                out[name] = statistics.median(values)
            elif len(set(values)) == 1:
                out[name] = values[0]
            else:
                self.problems.append(f"count {name} differs between traced children: {values}")
                out[name] = values[0]
        return out


def environment(reps: list[dict]) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():  # else git would report an enclosing repository
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()  # fmt: skip
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "wotnet": reps[0]["wotnet_version"] if reps else None,
        "commit": commit,
        "src_sha256": source_sha256(),
    }


# ---------------------------------------------------------------------------
# entry point


def print_report(report: dict, spec: dict, trace: bool) -> dict:
    """Human-readable lines; returns the metrics for the final JSON line."""
    env = report["environment"]
    print(f"perfbench {report['workload']} seed={report['seed']} seconds={report['seconds']} trace={int(trace)}")
    print("  environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in {**report["end_to_end"], **report["extra"]}.items():
        print(f"  {name:<22} {m['value']:>14.6g} {m['unit']:<6} {m['stat']} of {m['n']}")
    print(f"  {'fail_ratio':<22} {report['failed'] / max(report['attempted'], 1):>14.6g} ratio  "
          f"{report['failed']} failed of {report['attempted']} attempted")  # fmt: skip
    if report["extra"] and "trust_p99_ms" not in report["extra"]:
        print("  (a p99 needs ten samples beyond it, 1000 per query kind; the percentiles shown have them)")
    print(f"  {'digest':<22} {report['digest']}")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        layers = report["layers"]
        print(f"  wait_s: {report['wait_s']}")
        busiest = sorted(
            (k for k in layers if k.endswith(".self_s") and k.count(".") >= 2 and layers[k] > 0),
            key=lambda k: -layers[k],
        )
        for name in busiest[:15]:
            print(f"  {name:<44} {layers[name]:>10.4f} s  calls={layers[name[:-len('.self_s')] + '.calls']}")
        values = layers
    else:
        values = {k: m["value"] for k, m in report["end_to_end"].items()}
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wotnet" / "__init__.py").is_file():
        print(f"perfbench: no wotnet sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (WORK / "results").mkdir(parents=True, exist_ok=True)

    report = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)).execute()
    metrics = print_report(report, spec, bool(args.trace))
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))  # fmt: skip
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
