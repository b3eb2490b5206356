"""TraversalStats unit tests."""

import numpy as np

from repro.rtcore.stats import TraversalStats


def test_counting_with_repeats():
    s = TraversalStats(4)
    s.count_nodes(np.array([0, 0, 2, 3, 3, 3]))
    assert s.nodes_visited.tolist() == [2, 0, 1, 3]


def test_empty_counts_noop():
    s = TraversalStats(3)
    s.count_nodes(np.empty(0, dtype=np.int64))
    s.count_is(np.empty(0, dtype=np.int64))
    assert s.totals()["nodes_visited"] == 0


def test_totals_and_repr():
    s = TraversalStats(2)
    s.count_results(np.array([0, 0, 1]))
    t = s.totals()
    assert t == {
        "rays": 2,
        "nodes_visited": 0,
        "is_invocations": 0,
        "results_emitted": 3,
    }
    assert "results=3" in repr(s)


def test_count_nodes_per_entry():
    """The kernel counts each tested sibling pair as two node visits."""
    s = TraversalStats(4)
    s.count_nodes(np.array([0, 2, 2]), per_entry=2)
    s.count_nodes(np.array([2, 3]))
    assert s.nodes_visited.tolist() == [2, 0, 5, 1]
    s.count_nodes(np.empty(0, dtype=np.int64), per_entry=2)
    assert s.nodes_visited.tolist() == [2, 0, 5, 1]
