"""Tests of distributed-output verification and advice accounting."""

import numpy as np
import pytest

from repro.core.advice import AdviceAssignment
from repro.core.bits import BitString
from repro.core.verification import check_outputs
from repro.graphs.generators import path_graph, random_connected_graph
from repro.mst.kruskal import kruskal_mst
from repro.mst.rooted_tree import ROOT_OUTPUT, build_rooted_tree


class TestCheckOutputs:
    def _good_outputs(self, g, root=0):
        tree = build_rooted_tree(g, kruskal_mst(g), root=root)
        return tree.expected_outputs()

    def test_accepts_correct_outputs(self):
        g = random_connected_graph(25, 0.15, seed=1)
        outputs = self._good_outputs(g, root=3)
        check = check_outputs(g, outputs, expected_root=3)
        assert check.ok and check.root == 3
        assert len(check.tree_edge_ids) == g.n - 1
        assert abs(check.tree_weight - check.mst_weight) < 1e-9

    def test_rejects_missing_outputs(self):
        g = path_graph(4, seed=0)
        outputs = self._good_outputs(g)
        del outputs[2]
        assert not check_outputs(g, outputs).ok
        outputs = self._good_outputs(g)
        outputs[2] = None
        assert not check_outputs(g, outputs).ok

    def test_rejects_wrong_root_count(self):
        g = path_graph(4, seed=0)
        outputs = self._good_outputs(g)
        outputs[2] = ROOT_OUTPUT  # two roots now
        assert "root" in check_outputs(g, outputs).reason
        outputs = self._good_outputs(g)
        outputs[0] = 0  # no root at all
        assert not check_outputs(g, outputs).ok

    def test_rejects_unexpected_root(self):
        g = path_graph(4, seed=0)
        outputs = self._good_outputs(g, root=0)
        assert not check_outputs(g, outputs, expected_root=2).ok

    def test_rejects_invalid_port(self):
        g = path_graph(4, seed=0)
        outputs = self._good_outputs(g)
        outputs[1] = 9
        assert "invalid port" in check_outputs(g, outputs).reason

    def test_rejects_parent_cycle(self):
        g = path_graph(4, seed=0)
        outputs = self._good_outputs(g, root=0)
        # make nodes 2 and 3 point at each other: a 2-cycle detached from the root
        outputs[2] = [p for p in g.ports(2) if g.neighbor(2, p) == 3][0]
        outputs[3] = [p for p in g.ports(3) if g.neighbor(3, p) == 2][0]
        check = check_outputs(g, outputs)
        assert not check.ok

    def test_rejects_non_minimum_tree(self):
        # a square where one heavy edge must never be used
        from repro.graphs.weighted_graph import PortNumberedGraph

        g = PortNumberedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 10.0)])
        outputs = {0: ROOT_OUTPUT}
        # chain 3 -> 0 over the heavy edge, 2 -> 3, 1 -> 2: a spanning tree, not minimal
        outputs[3] = [p for p in g.ports(3) if g.neighbor(3, p) == 0][0]
        outputs[2] = [p for p in g.ports(2) if g.neighbor(2, p) == 3][0]
        outputs[1] = [p for p in g.ports(1) if g.neighbor(1, p) == 2][0]
        check = check_outputs(g, outputs)
        assert not check.ok
        assert "weight" in check.reason

    def test_single_node_graph(self):
        from repro.graphs.weighted_graph import PortNumberedGraph

        g = PortNumberedGraph(1, [])
        assert check_outputs(g, {0: ROOT_OUTPUT}).ok


class TestAdviceAssignment:
    def test_stats(self):
        advice = AdviceAssignment.from_strings(
            [BitString([1, 0, 1]), BitString.empty(), BitString([1]), BitString.empty()]
        )
        stats = advice.stats()
        assert stats.max_bits == 3
        assert stats.total_bits == 4
        assert stats.average_bits == 1.0
        assert stats.nodes_with_advice == 2
        assert stats.as_dict()["max_bits"] == 3

    def test_get_default_empty(self):
        advice = AdviceAssignment(np.zeros(0, dtype=np.uint8), np.zeros(4, dtype=np.int64))
        assert advice.get(1) == BitString.empty()
        assert advice.bits_of(1) == 0
        assert advice.stats().max_bits == 0

    def test_arrays_round_trip(self):
        advice = AdviceAssignment([1, 0, 1, 1], [0, 3, 3, 4])
        assert advice.n == 3
        assert advice.get(0) == BitString([1, 0, 1])
        assert advice.get(2) == BitString([1])
        assert [advice.bits_of(u) for u in range(3)] == [3, 0, 1]
        packed = AdviceAssignment.from_strings([advice.get(u) for u in range(3)])
        assert packed.bits.tolist() == advice.bits.tolist()
        assert packed.offsets.tolist() == advice.offsets.tolist()

    def test_payloads_and_iter(self):
        advice = AdviceAssignment.from_strings([BitString.empty(), BitString([1])])
        assert advice.as_payloads() == {0: BitString.empty(), 1: BitString([1])}
        assert [node for node, _ in advice] == [0, 1]
        assert dict(advice) == advice.as_payloads()

    def test_node_range_checks(self):
        advice = AdviceAssignment.from_strings([BitString.empty(), BitString([1])])
        with pytest.raises(ValueError):
            advice.get(5)
        with pytest.raises(ValueError):
            advice.bits_of(-1)
        with pytest.raises(ValueError):
            AdviceAssignment.from_strings([])

    @pytest.mark.parametrize(
        "bits, offsets, message",
        [
            ([1, 0], [0, 1], "offsets must run"),
            ([1, 0], [1, 2], "offsets must run"),
            ([1, 0, 1], [0, 2, 1, 3], "must not decrease"),
            ([1, 2], [0, 2], "0 or 1"),
            ([1], [[0, 1]], "at least one node"),
        ],
    )
    def test_malformed_arrays_are_rejected(self, bits, offsets, message):
        with pytest.raises(ValueError, match=message):
            AdviceAssignment(bits, offsets)
