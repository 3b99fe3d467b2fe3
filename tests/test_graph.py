"""Agent graph construction, topological order, and window coverage."""

import numpy as np
import pytest

from nia import (
    CycleDetected,
    IndexOutOfRange,
    InvalidDimension,
    InvalidGraph,
    NotAPath,
    build_agent_graph,
    check_m_coverage,
    cyclic_path_assignment,
)


class TestBuildAgentGraph:
    def test_singleton(self):
        g = build_agent_graph([], [{1}], d=1)
        assert g.num_agents == 1
        assert g.topo_order == (1,)
        assert g.parents_of(1) == ()

    def test_path_is_its_own_topological_order(self):
        g = build_agent_graph([(1, 2), (2, 3)], [{1}, {2}, {1}], d=2)
        assert g.topo_order == (1, 2, 3)

    @pytest.mark.parametrize(
        "edges, expected",
        [
            ([(1, 2), (2, 3)], True),
            ([], True),
            ([(3, 1), (1, 2)], True),
            ([(1, 2), (1, 3)], False),
            ([(1, 3), (2, 3)], False),
            ([(1, 2), (2, 3), (1, 3)], False),
            ([(1, 2), (3, 4)], False),
        ],
        ids=["path", "single_agent", "ids_out_of_order", "fork", "merge", "skip_edge", "two_chains"],
    )
    def test_is_path(self, edges, expected):
        agents = max((max(e) for e in edges), default=1)
        g = build_agent_graph(edges, [{1}] * agents, d=1)
        assert g.is_path() is expected

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            build_agent_graph([(1, 2), (2, 1)], [{1}, {1}], d=1)

    def test_self_loop_rejected(self):
        with pytest.raises(CycleDetected):
            build_agent_graph([(1, 1)], [{1}], d=1)

    def test_longer_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            build_agent_graph([(1, 2), (2, 3), (3, 1)], [{1}] * 3, d=1)

    def test_bad_agent_id(self):
        with pytest.raises(IndexOutOfRange):
            build_agent_graph([(1, 5)], [{1}, {1}], d=1)

    def test_bad_feature_index(self):
        with pytest.raises(IndexOutOfRange):
            build_agent_graph([], [{3}], d=2)
        with pytest.raises(IndexOutOfRange):
            build_agent_graph([], [{0}], d=2)

    @pytest.mark.parametrize(
        "edges, sets, value",
        [
            ([(1.9, 2)], [{1}, {2}], "1.9"),
            ([(1, 2)], [{1.7}, {2}], "1.7"),
            ([(1, 2)], [{1}, {np.float32(1.5)}], "1.5"),
        ],
    )
    def test_fractional_ids_and_indices_rejected(self, edges, sets, value):
        with pytest.raises(InvalidGraph, match=value):
            build_agent_graph(edges, sets, d=2)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_boolean_ids_and_indices_rejected(self, flag):
        with pytest.raises(InvalidGraph, match="feature index"):
            build_agent_graph([], [{flag}], d=2)
        with pytest.raises(InvalidGraph, match="edge end"):
            build_agent_graph([(flag, 2)], [{1}, {2}], d=2)

    def test_integral_floats_and_numpy_integers_accepted(self):
        g = build_agent_graph([(np.int64(1), 2.0)], [{1.0}, {np.int32(2)}], d=2)
        assert g.feature_sets == (frozenset({1}), frozenset({2}))
        assert g.parents_of(2) == (1,)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            build_agent_graph([(1, 2), (1, 2)], [{1}, {1}], d=1)

    def test_tie_breaking_ascending_id(self):
        # Diamond: both 2 and 3 become ready after 1; 2 must come first.
        g = build_agent_graph([(1, 2), (1, 3), (2, 4), (3, 4)], [{1}] * 4, d=1)
        assert g.topo_order == (1, 2, 3, 4)
        # Reversed declaration order must not change the tie-breaking.
        g2 = build_agent_graph([(1, 3), (1, 2), (3, 4), (2, 4)], [{1}] * 4, d=1)
        assert g2.topo_order == (1, 2, 3, 4)

    def test_parents_kept_in_input_order(self):
        g = build_agent_graph([(3, 1), (2, 1)], [{1}, {1}, {1}], d=1)
        assert g.parents_of(1) == (3, 2)

    def test_rebuild_from_edges_is_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            edges = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if rng.random() < 0.4
            ]
            sets = [{int(rng.integers(1, 4))} for _ in range(n)]
            g = build_agent_graph(edges, sets, d=3)
            # (parent, child) pairs by child id, then parent order
            rebuilt = [(p, c) for c in range(1, n + 1) for p in g.parents_of(c)]
            g2 = build_agent_graph(rebuilt, g.feature_sets, d=3)
            assert g2.topo_order == g.topo_order
            assert g2.parents == g.parents

    def test_sinks(self):
        g = build_agent_graph([(1, 2), (1, 3)], [{1}] * 3, d=1)
        assert g.sinks() == (2, 3)


class TestCheckMCoverage:
    def test_alternating_pair_covered(self):
        g = build_agent_graph(
            [(1, 2), (2, 3), (3, 4)], [{1}, {2}, {1}, {2}], d=2
        )
        assert check_m_coverage(g, 2, 2) == (True, None)

    def test_first_violating_window_reported(self):
        g = build_agent_graph([(1, 2), (2, 3)], [{1}, {1}, {2}], d=2)
        ok, start = check_m_coverage(g, 2, 2)
        assert not ok
        assert start == 1

    def test_non_path_rejected(self):
        g = build_agent_graph([(1, 3), (2, 3)], [{1}, {1}, {1}], d=1)
        with pytest.raises(NotAPath):
            check_m_coverage(g, 1, 1)

    def test_window_out_of_range(self):
        g = build_agent_graph([(1, 2)], [{1}, {1}], d=1)
        with pytest.raises(InvalidDimension):
            check_m_coverage(g, 3, 1)
        with pytest.raises(InvalidDimension):
            check_m_coverage(g, 0, 1)

    def test_cyclic_assignment_against_brute_force(self):
        # Oracle: enumerate every window explicitly.
        for k in (2, 3, 5):
            depth = 3 * k
            g = cyclic_path_assignment(k, depth)
            for m in range(1, depth + 1):
                expect_ok = True
                expect_start = None
                for start in range(depth - m + 1):
                    union = set()
                    for pos in range(start, start + m):
                        union |= {(pos % k) + 1}
                    if union != set(range(1, k + 1)):
                        expect_ok = False
                        expect_start = start + 1
                        break
                assert check_m_coverage(g, m, k) == (expect_ok, expect_start)

    def test_coverage_monotone_in_window(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            depth, d = int(rng.integers(3, 10)), int(rng.integers(2, 4))
            sets = [{int(x) for x in rng.integers(1, d + 1, size=2)} for _ in range(depth)]
            g = build_agent_graph([(i, i + 1) for i in range(1, depth)], sets, d=d)
            results = [check_m_coverage(g, m, d).ok for m in range(1, depth + 1)]
            # Once covered at m, every larger window stays covered.
            for a, b in zip(results, results[1:]):
                assert b or not a


class TestCyclicPathAssignment:
    def test_k2_depth4(self):
        g = cyclic_path_assignment(2, 4)
        assert [sorted(s) for s in g.feature_sets] == [[1], [2], [1], [2]]
        assert g.parents == ((), (1,), (2,), (3,))

    def test_one_pass_is_identity_assignment(self):
        g = cyclic_path_assignment(3, 3)
        assert [sorted(s) for s in g.feature_sets] == [[1], [2], [3]]

    def test_k_too_small(self):
        with pytest.raises(InvalidDimension):
            cyclic_path_assignment(1, 4)

    @pytest.mark.parametrize("k,depth", [(2, 2), (2, 9), (3, 10), (4, 16), (5, 5)])
    def test_satisfies_window_coverage_at_k(self, k, depth):
        g = cyclic_path_assignment(k, depth)
        if depth >= k:
            assert check_m_coverage(g, k, k).ok
