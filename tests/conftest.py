from collections.abc import Mapping

import numpy as np
import pytest

from recfuse.baselines import train_incidence
from recfuse.core import IndexedPairs, ScoredItem, PredictionMatrix
from recfuse.data import SplitSpec, split_folds
from recfuse.synthetic import generate_interactions

# Filled by test_acceptance.py; printed after the run so the per-criterion
# verdict lines survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def indexed_pairs(pairs):
    """Literal (user, item) id pairs, or a {user: item ids} holdout, as
    core.IndexedPairs over the ids they hold."""
    if isinstance(pairs, Mapping):
        pairs = [(user, item) for user, items in pairs.items()
                 for item in items]
    pairs = list(pairs)
    return IndexedPairs.of([u for u, _ in pairs], [i for _, i in pairs])


def train_of(pairs):
    """The TrainIncidence of literal (user, item) id pairs."""
    return train_incidence(indexed_pairs(pairs))


def common_items(train):
    """Which items of a TrainIncidence every train user holds."""
    return np.diff(train.columns.indptr) == len(train.users)


@pytest.fixture(scope="session")
def small_dataset():
    """60 users x 90 items, 1800 events; enough structure for real folds."""
    return generate_interactions(60, 90, 1800, seed=101)


@pytest.fixture(scope="session")
def small_folds(small_dataset):
    return split_folds(small_dataset, SplitSpec(seed=202, n_folds=5))


@pytest.fixture()
def tiny_matrix():
    """Two folds, two models, two users; hand-enumerable."""
    return PredictionMatrix.from_entries({
        (0, "A", "u1"): [ScoredItem("i1", 0.9), ScoredItem("i2", 0.8),
                         ScoredItem("i3", 0.1)],
        (0, "A", "u2"): [ScoredItem("i2", 0.7), ScoredItem("i3", 0.6),
                         ScoredItem("i1", 0.2)],
        (0, "B", "u1"): [ScoredItem("i2", 1.0), ScoredItem("i3", 0.6),
                         ScoredItem("i1", 0.5)],
        (0, "B", "u2"): [ScoredItem("i1", 0.8), ScoredItem("i2", 0.4),
                         ScoredItem("i3", 0.3)],
        (1, "A", "u1"): [ScoredItem("i3", 0.9), ScoredItem("i1", 0.5),
                         ScoredItem("i2", 0.4)],
        (1, "A", "u2"): [ScoredItem("i1", 0.6), ScoredItem("i3", 0.5),
                         ScoredItem("i2", 0.2)],
        (1, "B", "u1"): [ScoredItem("i1", 0.7), ScoredItem("i2", 0.6),
                         ScoredItem("i3", 0.2)],
        (1, "B", "u2"): [ScoredItem("i3", 0.9), ScoredItem("i2", 0.8),
                         ScoredItem("i1", 0.1)],
    })
