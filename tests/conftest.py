"""Shared fixtures.

The Bitcoin-OTC dataset is not bundled.  Tests that need it look for the
file named by the WOTNET_DATASET environment variable, falling back to
data/soc-sign-bitcoinotc.csv[.gz] next to the repository root, and skip
with a clear message when it is absent.  Everything else runs data-free.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from wotnet import EventLog, LayerView, RatingEvent, SynthConfig, ingest, synth_log
from wotnet.static import _directed_simple_edges

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


def make_log(rows) -> EventLog:
    """Build a log from (rater, ratee, score, timestamp) tuples."""
    return EventLog(RatingEvent(*row) for row in rows)


def degree_sequences(layer: LayerView) -> tuple[dict[int, int], dict[int, int]]:
    """(out-degree, in-degree) of the layer's directed simple graph."""
    out_deg: dict[int, int] = {}
    in_deg: dict[int, int] = {}
    for u, v in _directed_simple_edges(layer):
        out_deg[u] = out_deg.get(u, 0) + 1
        in_deg[v] = in_deg.get(v, 0) + 1
    return out_deg, in_deg


@pytest.fixture
def tiny_log() -> EventLog:
    # two users trading ratings plus a bystander rated once
    return make_log(
        [
            (1, 2, 5, 100),
            (2, 1, 1, 200),
            (1, 3, -10, 300),
            (2, 3, 2, 400),
            (1, 2, 3, 500),
        ]
    )
