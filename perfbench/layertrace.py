"""Span tracer for the benchmark's traced runs.

`Tracer.install` replaces, at run time, every public function and every
public method of a public class in the wotnet layer modules with a timing
wrapper.  Nothing under `src/` changes: the wrapper is also put in place of
each name that other wotnet modules imported by `from .x import y`, so
cross-module calls are traced too.  Private helpers (such as
`static._rewire`) are not wrapped; their time is the self time of the
public function that calls them.

Each wrapped call records a span (name, start, end, parent span, run or
query id).  Spans stay in memory and are written out by `write_spans` when
the run ends.  For a generator function, the call that creates the
generator counts as the call, and each `next()` is a span of its own, so
`s` is the time spent inside `next()`.

None of the layers has a queue or a lock, so there is no wait time to
record: every span is busy time.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import os
from array import array
from time import perf_counter_ns

LAYERS = ("model", "static", "categories", "temporal", "dynamics", "distributions", "cli")


def _on_ingest(counters, args, result):
    _log, report = result
    counters["model.ingest.events"] += report.events_kept
    counters["model.ingest.rejected"] += report.events_rejected


def _on_configuration_null(counters, args, result):
    counters["static.configuration_null.swaps_done"] += sum(result.swaps_done)
    counters["static.configuration_null.swaps_target"] += result.swaps_target * result.n_samples


def _on_write_csv(counters, args, result):
    writer, name = args[0], args[1]
    counters["cli.RunWriter.write_csv.bytes"] += os.path.getsize(writer.out_dir / name)


# Counts taken from what a layer returns, recorded outside its span.
_HOOKS = {
    "model.ingest": _on_ingest,
    "static.configuration_null": _on_configuration_null,
    "cli.RunWriter.write_csv": _on_write_csv,
}
# Generators whose yields are counted: one snapshot per day.
_YIELD_COUNTERS = {"dynamics.snapshot_series": "dynamics.snapshot_series.days"}
COUNTERS = (
    "model.ingest.events",
    "model.ingest.rejected",
    "static.configuration_null.swaps_done",
    "static.configuration_null.swaps_target",
    "cli.RunWriter.write_csv.bytes",
    "dynamics.snapshot_series.days",
    "static.rewire_stalls",
)


class Tracer:
    """Wraps the layers of one wotnet package and accumulates their spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.run_id = 0
        # flat (span_id, parent_id, name_index, start_ns, end_ns, run_id) rows
        self.spans = array("q")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list[int]] = []
        self._next_span = 0
        self._total_ns: list[int] = []
        self._self_ns: list[int] = []
        self._calls: list[int] = []
        self._depth: list[int] = []

    # -- installation -----------------------------------------------------

    def install(self, package_name: str = "wotnet") -> None:
        package = importlib.import_module(package_name)
        modules = {name: importlib.import_module(f"{package_name}.{name}") for name in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                setattr(ns, key, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                    for method, fn in list(vars(obj).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, method, self._wrap(f"{layer}.{attr}.{method}", fn))

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        for column in (self._total_ns, self._self_ns, self._calls, self._depth):
            column.append(0)
        hook = _HOOKS.get(name)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                self._calls[idx] += 1
                return self._iterate(idx, fn(*args, **kwargs), _YIELD_COUNTERS.get(name))

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._calls[idx] += 1
            frame = self._enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return wrapper

    def _iterate(self, idx: int, gen, yield_counter: str | None):
        try:
            while True:
                frame = self._enter(idx)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(frame)
                if yield_counter:
                    self.counters[yield_counter] += 1
                yield item
        finally:
            gen.close()

    # -- spans ------------------------------------------------------------

    def _enter(self, idx: int) -> list[int]:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_span, parent, idx, 0, 0]
        self._next_span += 1
        self._depth[idx] += 1
        self._stack.append(frame)
        frame[3] = perf_counter_ns()
        return frame

    def _exit(self, frame: list[int]) -> None:
        end = perf_counter_ns()
        span_id, parent, idx, start, child_ns = frame
        self._stack.pop()
        duration = end - start
        self._self_ns[idx] += duration - child_ns
        self._depth[idx] -= 1
        if self._depth[idx] == 0:  # count re-entrant time once
            self._total_ns[idx] += duration
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.extend((span_id, parent, idx, start, end, self.run_id))

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """`<name>.s/.self_s/.calls` per wrapped function, module totals and counters."""
        out: dict[str, float] = {}
        modules = {layer: [0, 0] for layer in LAYERS}
        for i, name in enumerate(self.names):
            calls = self._calls[i]
            out[f"{name}.s"] = self._total_ns[i] / 1e9
            out[f"{name}.self_s"] = self._self_ns[i] / 1e9
            out[f"{name}.calls"] = calls
            totals = modules[name.split(".", 1)[0]]
            totals[0] += self._self_ns[i]
            totals[1] += calls
        for layer, (self_ns, calls) in modules.items():
            out[f"{layer}.self_s"] = self_ns / 1e9
            out[f"{layer}.calls"] = calls
        out.update(self.counters)
        target = self.counters["static.configuration_null.swaps_target"]
        done = self.counters["static.configuration_null.swaps_done"]
        out["static.configuration_null.swap_ratio"] = done / target if target else 0.0
        return out

    def write_spans(self, path) -> None:
        """Write every span as CSV: span_id,parent_id,name,start_ns,end_ns,run_id."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,name,start_ns,end_ns,run_id\n")
            for k in range(0, len(spans), 6):
                s, p, i, t0, t1, r = spans[k : k + 6]
                fh.write(f"{s},{p},{self.names[i]},{t0},{t1},{r}\n")
