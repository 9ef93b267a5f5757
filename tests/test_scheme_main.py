"""Tests of Theorem 3: the ``(O(1), O(log n))``-advising scheme (main result)."""

import math

import pytest

from repro.core.oracle import run_scheme
from repro.core.scheme_main import (
    ShortAdviceScheme,
    num_boruvka_phases,
    phase_window_rounds,
    schedule_prefix_rounds,
)
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from repro.graphs.weighted_graph import PortNumberedGraph


class TestSchedule:
    def test_num_phases_values(self):
        assert num_boruvka_phases(2) == 0
        assert num_boruvka_phases(3) == 1
        assert num_boruvka_phases(4) == 1
        assert num_boruvka_phases(16) == 2
        assert num_boruvka_phases(17) == 3
        assert num_boruvka_phases(256) == 3
        assert num_boruvka_phases(1024) == 4
        assert num_boruvka_phases(100000) == 5

    def test_windows_and_prefix(self):
        assert phase_window_rounds(1) == 4
        assert phase_window_rounds(3) == 16
        assert schedule_prefix_rounds(0) == 0
        assert schedule_prefix_rounds(3) == 4 + 8 + 16

    def test_round_bound_is_o_log_n(self):
        scheme = ShortAdviceScheme()
        # the declared bound grows like log n: ratio to log2(n) stays bounded
        ratios = [scheme.round_bound(n) / math.log2(n) for n in (2**6, 2**10, 2**14, 2**18)]
        assert max(ratios) < 16


class TestCorrectness:
    def test_correct_on_zoo(self, graph_zoo):
        scheme = ShortAdviceScheme()
        for name, graph, root in graph_zoo:
            report = run_scheme(scheme, graph, root=root)
            assert report.correct, f"{name}: {report.check.reason}"
            assert report.check.root == root

    def test_correct_with_duplicate_weights(self):
        for seed in range(4):
            graph = random_connected_graph(
                60, 0.08, seed=seed, weight_mode="integer", weight_range=3
            )
            report = run_scheme(ShortAdviceScheme(), graph, root=seed)
            assert report.correct, report.check.reason

    def test_correct_across_roots(self):
        graph = random_connected_graph(50, 0.08, seed=11)
        for root in (0, 13, 49):
            report = run_scheme(ShortAdviceScheme(), graph, root=root)
            assert report.correct and report.check.root == root

    def test_tiny_graphs(self):
        for n in (1, 2, 3, 4, 5):
            if n == 1:
                graph = PortNumberedGraph(1, [])
            else:
                graph = path_graph(n, seed=n)
            report = run_scheme(ShortAdviceScheme(), graph, root=0)
            assert report.correct, f"n={n}: {report.check.reason}"

    def test_structured_topologies_medium(self):
        for graph, root in [
            (complete_graph(32, seed=3), 4),
            (cycle_graph(100, seed=4), 50),
            (star_graph(64, seed=5), 0),
            (star_graph(64, seed=5), 9),
        ]:
            report = run_scheme(ShortAdviceScheme(), graph, root=root)
            assert report.correct, report.check.reason


class TestBounds:
    def test_max_advice_is_constant_in_n(self):
        """The defining property of Theorem 3: max advice does not grow with n."""
        scheme = ShortAdviceScheme()
        maxima = []
        for n in (32, 128, 512, 2048):
            graph = random_connected_graph(n, 6 / n, seed=1)
            maxima.append(scheme.compute_advice(graph, root=0).stats().max_bits)
        assert max(maxima) <= scheme.advice_bound_bits(0)
        # no growth between the two largest sizes
        assert maxima[-1] <= maxima[-2] + 1

    def test_rounds_within_declared_and_paper_bounds(self):
        scheme = ShortAdviceScheme()
        for n in (32, 128, 512):
            graph = random_connected_graph(n, 6 / n, seed=2)
            report = run_scheme(scheme, graph, root=0)
            assert report.correct
            assert report.rounds <= scheme.round_bound(n)
            assert report.rounds <= ShortAdviceScheme.paper_round_bound(n) + 10

    def test_congest_factor_stays_bounded(self):
        """Messages stay O(log n) bits per edge per round."""
        scheme = ShortAdviceScheme()
        factors = []
        for n in (64, 256, 1024):
            graph = random_connected_graph(n, 5 / n, seed=3)
            report = run_scheme(scheme, graph, root=0)
            assert report.correct
            factors.append(report.metrics.congest_factor())
        assert max(factors) < 20
        # the factor must not blow up with n (it should mildly shrink or stay flat)
        assert factors[-1] <= factors[0] * 2

    def test_capacity_packing_uses_smallest_feasible_cap(self):
        scheme = ShortAdviceScheme()
        graph = random_connected_graph(200, 0.03, seed=4)
        advice = scheme.compute_advice(graph, root=0)
        assert advice.layout.capacity == 10  # the first candidate always suffices here

    def test_every_node_gets_header_bits(self):
        scheme = ShortAdviceScheme()
        graph = random_connected_graph(40, 0.1, seed=5)
        advice = scheme.compute_advice(graph, root=0)
        for u in range(graph.n):
            assert advice.bits_of(u) >= 6  # 4-bit phase field + collect flag + final flag

    def test_final_bits_cover_each_fragment_root(self):
        """After the Borůvka phases every fragment root's parent rank is distributed."""
        from repro.mst.boruvka import boruvka_trace

        scheme = ShortAdviceScheme()
        graph = random_connected_graph(120, 0.04, seed=6)
        phases = num_boruvka_phases(graph.n)
        trace = boruvka_trace(graph, root=0)
        final_bits, collect = scheme._assign_final_bits(graph, trace, phases)
        partition = trace.partition_before_phase(phases + 1)
        for f in range(partition.num_fragments):
            r_f = partition.root_of(f)
            width = max(1, graph.degree(r_f).bit_length())
            holders = [u for u in partition.members[f] if final_bits[u] >= 0]
            assert len(holders) == width
            assert collect[r_f]
