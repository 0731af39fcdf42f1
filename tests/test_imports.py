"""Every name imported by the package and by its tests is used, every
private name they bind at module level is read, the package exports exactly
the names it binds and no function that neither a run nor a benchmarked
query calls, a run loads no scipy module and no
`numpy.ma`, and a long calendar costs a run one slice of each table."""

from __future__ import annotations

import ast
import csv
import gzip
import json
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import wotnet
from wotnet.categories import LABEL_TEXTS
from wotnet.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*REPO_ROOT.glob("src/wotnet/*.py"), *REPO_ROOT.glob("tests/*.py")])


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read; `__future__` imports are
    skipped and the strings listed in `__all__` count as reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os, sys\nfrom typing import Any\n__all__ = ['Any']\nsys.exit()\n"
    assert _unused_imports(source) == ["os (line 2)"]


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private functions, classes and constants that the modules
    `sources` (name: text) bind at their top level and that none of them
    reads: as a loaded name, an attribute, an imported name or a word of a
    string that is not a docstring, such as a child process's code."""
    bound: dict[tuple[str, str], int] = {}
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        scopes = (n for n in ast.walk(tree) if isinstance(n, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        docstrings = {id(n.body[0].value) for n in scopes if ast.get_docstring(n, clean=False) is not None}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            else:  # the plain names that an assignment binds
                names = [t.id for t in getattr(node, "targets", [getattr(node, "target", None)]) if isinstance(t, ast.Name)]
            bound.update({(module, name): node.lineno for name in names if name.startswith("_") and not name.startswith("__")})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, (ast.Attribute, ast.alias)):
                read.add(node.attr if isinstance(node, ast.Attribute) else node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                read.update(re.findall(r"\w+", node.value))
    return [f"{module}: {name} (line {line})" for (module, name), line in bound.items() if name not in read]


def test_every_private_name_is_read():
    sources = {f"{p.parent.name}/{p.name}": p.read_text(encoding="utf-8") for p in SOURCES}
    assert _unread_private_names(sources) == []


def test_unread_private_name_is_reported():
    first = '"""Reads `_documented`."""\n_read = 1\n_unread = 2\n_documented: int = 3\n\n\ndef _called():\n    return _read\n\n\nclass _Named:\n    pass\n'
    second = "from first import _called\n\n_called()\nrun('first._Named')\n"
    assert _unread_private_names({"first": first, "second": second}) == ["first: _unread (line 3)", "first: _documented (line 4)"]


def test_all_lists_exactly_the_exported_names():
    bound = {
        name
        for name, value in vars(wotnet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(wotnet.__all__) == len(set(wotnet.__all__))
    assert set(wotnet.__all__) == bound
    assert all(hasattr(wotnet, name) for name in wotnet.__all__)


def _reached_from_cli() -> set[str]:
    """The package's functions and classes that `wotnet.cli` imports, and in
    turn those that their bodies read and do not bind themselves."""
    reads: dict[str, set[str]] = {}
    for path in REPO_ROOT.glob("src/wotnet/*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [n for n in ast.walk(node) if isinstance(n, ast.Name)]
                bound = {n.id for n in names if not isinstance(n.ctx, ast.Load)}
                bound.update(a.arg for a in ast.walk(node) if isinstance(a, ast.arg))
                reads.setdefault(node.name, set()).update(n.id for n in names if n.id not in bound)
    cli = ast.parse((REPO_ROOT / "src/wotnet/cli.py").read_text(encoding="utf-8"))
    todo = [alias.name for node in cli.body if isinstance(node, ast.ImportFrom) and node.level for alias in node.names]
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(reads.get(name, ()))
    return reached


def test_every_exported_function_is_called_by_a_run_or_a_benchmarked_query():
    # `otc-1x-queries` calls `gettrust` and `node_metrics`; BENCHMARK.json
    # times `trajectories` and `latest_ratings` as layers of their own
    queries = {"gettrust", "node_metrics", "latest_ratings", "trajectories"}
    functions = {name for name in wotnet.__all__ if isinstance(getattr(wotnet, name), types.FunctionType)}
    assert sorted(functions - queries - _reached_from_cli()) == []


def _loaded_after_import(*modules: str) -> list[str]:
    """Those of `modules` that importing the package and its CLI loads."""
    code = f"import sys, wotnet, wotnet.cli; print(*(m for m in {modules!r} if m in sys.modules))"
    return _child(code, REPO_ROOT).stdout.split()


def _child(code: str, cwd: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True)


def test_importing_the_package_loads_no_module_it_does_not_need():
    # `categorize` takes the thresholds' own integer ratios, not `Fraction`'s
    # (which loads decimal), and a run's staging directory is named from
    # `os.urandom`, not `secrets` (which loads base64 and hmac)
    assert _loaded_after_import("fractions", "decimal", "secrets", "base64", "hmac") == []


def _queries() -> int:
    """The library's queries at a mid-log cutoff, and the labels of the whole log as `all` wrote them."""
    log, _ = wotnet.ingest("gen/synthetic.csv")
    cutoff = int(np.median(log.timestamps))
    metrics = wotnet.node_metrics(log, cutoff)
    users, fields = wotnet.metric_columns(log, cutoff)
    assert metrics and all(type(m) is wotnet.NodeMetrics for m in metrics.values())
    assert (list(metrics), [list(m) for m in metrics.values()]) == (users.tolist(), fields.T.tolist())
    target = max(metrics, key=lambda u: metrics[u].k_in_plus)
    assert type(wotnet.gettrust(log, min(metrics.keys() - {target}), target, cutoff)) is int
    written = [row["label"] for row in csv.DictReader(Path("run/categories.csv").read_text().splitlines())]
    assert LABEL_TEXTS[wotnet.categorize(wotnet.metric_columns(log))].tolist() == written
    return 0


# each scenario's exit code and its calls, in order: CLI arguments or a function; a whole-run
# check belongs here, in a module that imports neither scipy nor Hypothesis
SCENARIOS = {
    "import": (0, []),
    "all": (0, ["all --input gen/synthetic.csv --out run --seed 1"]),
    "small-log": (0, ["synth --users 30 --events 60 --seed 1 --out small",
                      "all --input small/synthetic.csv --out small-run --seed 1 --null-samples 2"]),
    "tied-log": (0, ["temporal --input tied.csv --out tied"]),
    # projections, `np.unique` and `reduceat` on the empty arrays of an empty layer
    "one-layer": (0, [f"all --input {log}.csv --out {log} --seed 1 --null-samples 2" for log in ("header", "positive", "negative")]),
    "null-gap": (0, ["static --input gen/synthetic.csv --out null4 --seed 1 --null-samples 4"]),
    "twice": (0, [f"all --input gen/synthetic.csv --out twice-{x} --seed 1" for x in "ab"]),
    "sparse": (0, ["synth --users 3000 --events 1500 --seed 13 --out sparse"]
               + [f"all --input sparse/synthetic.csv --out sparse-{x} --seed 1 --topk 5" for x in "ab"]),
    "ingest": (0, [f"{command} --input {log}" for command in ("summary", "ingest-check")
                   for log in ("gen/synthetic.csv", "gen/synthetic.csv.gz", "fractional.csv", "mixed.csv")]),
    "corrupt": (2, [f"summary --input {log}" for log in ("truncated.csv.gz", "latin.csv")]),
    "annotations": (2, [f"{command} --input gen/synthetic.csv --out {name} --seed 1 --annotations {name}.csv"
                        for command, name in (("temporal", "comma"), ("all", "baddate"), ("all", "dir"), ("temporal", "inverted"))]),
    "queries": (0, [_queries]),
}


def _run_scenarios() -> None:
    """Print, as the last line, the exit code of each call here, or the
    exception it raised, and the scenarios during which `numpy.ma` was
    loaded (numpy 1.x loads it with numpy itself, before any scenario)."""
    codes: dict[str, list] = {name: [] for name in SCENARIOS}
    loaded_ma = []
    for name, (_, calls) in SCENARIOS.items():
        had_ma = "numpy.ma" in sys.modules
        for call in calls:
            try:
                codes[name].append(call() if callable(call) else main(call.split()))
            except Exception as exc:  # a lazy import of scipy, say
                codes[name].append(repr(exc))
        if not had_ma and "numpy.ma" in sys.modules:
            loaded_ma.append(name)
    print(json.dumps({"codes": codes, "loaded numpy.ma": loaded_ma}))


@pytest.fixture(scope="module")
def scenario_runs(tmp_path_factory):
    """Where one child process, in which importing scipy or Hypothesis fails, ran each call, and its exit code."""
    where = tmp_path_factory.mktemp("scenarios")
    assert main(["synth", "--users", "25", "--events", "400", "--seed", "7", "--out", str(where / "gen")]) == 0
    log = (where / "gen" / "synthetic.csv").read_bytes()
    inputs = {
        "gen/synthetic.csv.gz": gzip.compress(log),
        "fractional.csv": log + b"1,2,3,1300000000.75\n",
        "mixed.csv": log + b"1,2,3,1300000000.75\n1,2,x,1300000000\n",
        "truncated.csv.gz": gzip.compress(log)[:2000],
        "latin.csv": log + b"1,2,3,\xff\n",
        "tied.csv": b"1,2,5,1300000000\n3,2,4,1300000000\n4,2,3,1300000000\n2,1,-2,1300000100\n3,1,-1,1300000200\n",
        "header.csv": b"rater,ratee,score,timestamp\n",
        "positive.csv": b"1,2,5,100\n2,3,4,200\n",
        "negative.csv": b"1,2,-5,100\n2,3,-4,200\n",
        "comma.csv": b'"bull, run",2013-11-01,2013-11-03\n',
        "baddate.csv": b"label,start,end\nbubble,2013-11-01,2013-13-01\n",
        "inverted.csv": b"label,start,end\ninv,2014-01-01,2013-01-01\n",
    }
    for name, data in inputs.items():
        (where / name).write_bytes(data)
    (where / "dir.csv").mkdir()
    code = "import sys; sys.modules.update(scipy=None, hypothesis=None); import test_imports; test_imports._run_scenarios()"
    return where, json.loads(_child(code, where).stdout.splitlines()[-1])


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_whole_run_loads_no_scipy(scenario_runs, name):
    # numpy is the only runtime dependency; scipy serves the tests as an oracle
    where, runs = scenario_runs
    code, calls = SCENARIOS[name]
    assert runs["codes"][name] == [code] * len(calls)
    # each run published its staging directory or removed it
    assert not list(where.glob(".*"))
    if name == "annotations":  # each stopped before any stage ran
        assert not any((where / out).exists() for out in ("comma", "baddate", "dir", "inverted"))
    if any(str(call).startswith("all ") for call in calls):
        # the quartiles of `categories` take no `np.percentile`, which loads `numpy.ma`
        assert name not in runs["loaded numpy.ma"]
    if name in ("twice", "sparse"):  # two runs in one process write the same bytes
        a, b = ({p.name: p.read_bytes() for p in (where / f"{name}-{x}").iterdir() if p.name != "manifest.json"} for x in "ab")
        assert a == b


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak from /proc/self/status")
def test_a_long_calendar_costs_one_slice_of_memory(tmp_path):
    # two events 400,000 days apart: `temporal` writes 800,000 daily rows (at
    # shift 0 and -6 h), which stream to their file a slice at a time; a
    # whole table held as text peaks at about 140 MB. The child reads VmHWM,
    # the peak of its own address space: `getrusage`'s ru_maxrss carries the
    # peak of the process that started it across exec.
    (tmp_path / "long.csv").write_text(f"1,2,5,0\n2,1,-3,{400_000 * 86_400}\n")
    code = (
        "from pathlib import Path; from wotnet.cli import main; "
        "assert main(['temporal', '--input', 'long.csv', '--out', 'run']) == 0; "
        "print(Path('/proc/self/status').read_text())"
    )
    peak_kib = int(re.search(r"^VmHWM:\s+(\d+) kB$", _child(code, tmp_path).stdout, re.M).group(1))
    assert len((tmp_path / "run" / "daily_activity.csv").read_text().splitlines()) == 1 + 2 * 400_001
    assert peak_kib < 80 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak from /proc/self/status")
def test_ingest_peaks_at_a_few_times_the_log_it_keeps(tmp_path):
    # a log keeps 48 bytes an event: four int64 columns and two int64 rows of
    # user codes. Ingest holds the file's bytes (25 an event here), the table
    # `np.loadtxt` parses and the columns, about 90 bytes an event above the
    # imports; a copy of the body, stacked columns and `np.unique`'s
    # temporaries took it to 183.
    assert main(["synth", "--users", "30000", "--events", "200000", "--seed", "1", "--out", str(tmp_path)]) == 0
    code = (
        "import re; from pathlib import Path; import wotnet; "
        "kib = lambda key: re.search(key + r':\\s+(\\d+) kB', Path('/proc/self/status').read_text()).group(1); "
        "base = kib('VmRSS'); log, _ = wotnet.ingest('synthetic.csv'); print(len(log), base, kib('VmHWM'))"
    )
    events, base_kib, peak_kib = map(int, _child(code, tmp_path).stdout.split())
    assert events == 200_000
    assert (peak_kib - base_kib) * 1024 < 3 * 48 * events


def test_the_build_reads_the_version_of_the_package():
    # pyproject.toml declares the version dynamic, read from wotnet.__version__
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some setuptools versions call [tool.setuptools] beta
        config = pyprojecttoml.read_configuration(REPO_ROOT / "pyproject.toml")
    assert config["project"]["version"] == wotnet.__version__
