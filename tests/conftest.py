"""Shared fixtures.

The Bitcoin-OTC dataset is not bundled.  Tests that need it look for the
file named by the WOTNET_DATASET environment variable, falling back to
data/soc-sign-bitcoinotc.csv[.gz] next to the repository root, and skip
with a clear message when it is absent.  Everything else runs data-free.
"""

from __future__ import annotations

import os
import random
from datetime import date
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from wotnet import (
    CategoryLabel,
    EventLog,
    Layer,
    SynthConfig,
    ingest,
    synth_log,
    undirected_projection,
)
from wotnet.categories import CategorySummary
from wotnet.distributions import Distribution
from wotnet.static import Projection

REPO_ROOT = Path(__file__).resolve().parent.parent

_CANDIDATES = (
    REPO_ROOT / "data" / "soc-sign-bitcoinotc.csv.gz",
    REPO_ROOT / "data" / "soc-sign-bitcoinotc.csv",
)


def dataset_path() -> Path | None:
    env = os.environ.get("WOTNET_DATASET")
    if env:
        return Path(env) if os.path.exists(env) else None
    for candidate in _CANDIDATES:
        if candidate.exists():
            return candidate
    return None


requires_dataset = pytest.mark.skipif(
    dataset_path() is None,
    reason="Bitcoin-OTC dataset not found (set WOTNET_DATASET or place "
    "soc-sign-bitcoinotc.csv[.gz] under data/)",
)

# one line per acceptance criterion, replayed after the test summary so the
# verdicts are visible even when stdout capturing is on
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def otc_log() -> EventLog:
    path = dataset_path()
    if path is None:
        pytest.skip("Bitcoin-OTC dataset not available")
    log, _report = ingest(path)
    return log


@pytest.fixture(scope="session")
def small_log() -> EventLog:
    """Deterministic mid-size synthetic log for cross-module tests."""
    return synth_log(SynthConfig(n_users=40, n_events=300, seed=20240817))


def rows(log: EventLog) -> list[tuple[int, int, int, int]]:
    """The log's (rater, ratee, score, timestamp) tuples in time order."""
    return list(zip(*(c.tolist() for c in (log.raters, log.ratees, log.scores, log.timestamps))))


def write_log_csv(log: EventLog, path: str | Path) -> None:
    """Write a log in the ingestible CSV format, headered."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rater,ratee,score,timestamp\n")
        fh.writelines(f"{r},{e},{s},{t}\n" for r, e, s, t in rows(log))


def mode(dist: Distribution) -> int | float:
    """The support value of a distribution's highest probability, the smallest on a tie."""
    return dist.support[int(np.argmax(dist.pmf))].item()


def project(layer: EventLog) -> Projection:
    """The undirected projection of a layer's edges."""
    return undirected_projection(layer.raters, layer.ratees)


def adjacency_sets(projection: Projection) -> dict[int, set[int]]:
    """Neighbor id sets of a projection's nodes, in the projection's order."""
    ids = projection.nodes.tolist()
    out: dict[int, set[int]] = {node: set() for node in ids}
    for a, b in projection.edges.T.tolist():
        out[ids[a]].add(ids[b])
        out[ids[b]].add(ids[a])
    return out


def keeps_projected_degrees(projection: Projection, ends: np.ndarray) -> bool:
    """Whether the rewired edges `ends` (a copy of `projection.edges`) keep
    every node's projected degree and the edge count, with no self-loop and
    no repeated edge."""
    n = len(projection.nodes)
    keys = set(zip(np.minimum(*ends).tolist(), np.maximum(*ends).tolist()))
    return (
        ends.shape[1] == projection.edges.shape[1]
        and not (ends[0] == ends[1]).any()
        and len(keys) == ends.shape[1]
        and np.bincount(ends.ravel(), minlength=n).tolist() == projection.degree.tolist()
    )


def reciprocal_log(n_users: int, n_pairs: int, seed: int) -> EventLog:
    """A log in which every rating is returned: `n_pairs` random user pairs
    rate each other, positively or (one pair in five) negatively, so both
    layers are fully reciprocal."""
    rng = random.Random(seed)
    pairs = rng.sample([(a, b) for a in range(n_users) for b in range(a + 1, n_users)], n_pairs)
    out = []
    for t, (a, b) in enumerate(pairs):
        score = rng.choice((-2, 1, 1, 1, 3))
        out += [(a, b, score, 100 * t), (b, a, score, 100 * t + 50)]
    return EventLog(out)


@pytest.fixture
def tiny_log() -> EventLog:
    # two users trading ratings plus a bystander rated once
    return EventLog(
        [
            (1, 2, 5, 100),
            (2, 1, 1, 200),
            (1, 3, -10, 300),
            (2, 3, 2, 400),
            (1, 2, 3, 500),
        ]
    )


def _fmt_by_isinstance_chain(value) -> str:
    """The CSV cell text as one chain of type tests per cell: the reference
    that every file the writer makes is checked against."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, (Layer, CategoryLabel)):
        return value.value
    return str(value)


class SummaryRow(NamedTuple):
    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


def summary_row(summary: CategorySummary, category: CategoryLabel, quantity: str) -> SummaryRow:
    """The count and the quantiles of one category and quantity of a
    `CategorySummary`."""
    (i,) = [i for i, key in enumerate(zip(summary.category, summary.quantity)) if key == (category, quantity)]
    return SummaryRow(int(summary.count[i]), *summary.quantiles[i].tolist())
