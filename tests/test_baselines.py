"""Tests of the no-advice distributed MST baselines."""

import math

import pytest

from repro.distributed.base import run_baseline
from repro.distributed.boruvka_sync import SynchronizedBoruvkaMST
from repro.distributed.full_info import FullInformationMST
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    power_law_graph,
    random_connected_graph,
    star_graph,
    torus_graph,
)
from repro.graphs.properties import diameter
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.simulator.message import estimate_bits
from repro.simulator.node import NodeContext


BASELINE_GRAPHS = [
    ("path10", path_graph(10, seed=1)),
    ("cycle12", cycle_graph(12, seed=2)),
    ("star9", star_graph(9, seed=3)),
    ("complete10", complete_graph(10, seed=4)),
    ("grid3x4", grid_graph(3, 4, seed=5)),
    ("rand24", random_connected_graph(24, 0.12, seed=6)),
    ("rand36", random_connected_graph(36, 0.08, seed=7)),
]


# full-info runs pinned field for field: RunMetrics.as_dict() and
# messages_per_round as measured when the knowledge payload was a plain
# ``(12, entries)`` tuple sized by the generic estimate_bits walk
FULL_INFO_PINNED = [
    (
        "random48",
        lambda: random_connected_graph(48, 0.1, seed=21),
        {
            "n": 48, "rounds": 6, "total_messages": 1718, "total_message_bits": 10810721,
            "max_message_bits": 15037, "max_edge_bits_per_round": 15037,
            "undelivered_messages": 0, "congest_factor": 2692.4084088404093,
        },
        [332, 332, 332, 332, 332, 58],
    ),
    (
        "torus6x6",
        lambda: torus_graph(6, 6, seed=22),
        {
            "n": 36, "rounds": 8, "total_messages": 1152, "total_message_bits": 3834616,
            "max_message_bits": 6647, "max_edge_bits_per_round": 6647,
            "undelivered_messages": 0, "congest_factor": 1285.705304843999,
        },
        [144] * 8,
    ),
    (
        "hypercube5",
        lambda: hypercube_graph(5, seed=23),
        {
            "n": 32, "rounds": 7, "total_messages": 1120, "total_message_bits": 4067530,
            "max_message_bits": 7253, "max_edge_bits_per_round": 7253,
            "undelivered_messages": 0, "congest_factor": 1450.6,
        },
        [160] * 7,
    ),
    (
        "powerlaw40",
        lambda: power_law_graph(40, seed=24),
        {
            "n": 40, "rounds": 8, "total_messages": 927, "total_message_bits": 3036885,
            "max_message_bits": 6962, "max_edge_bits_per_round": 6962,
            "undelivered_messages": 0, "congest_factor": 1308.172503624807,
        },
        [152, 152, 152, 152, 152, 128, 35, 4],
    ),
]


class TestFullInformation:
    @pytest.mark.parametrize("name,graph", BASELINE_GRAPHS, ids=[g[0] for g in BASELINE_GRAPHS])
    def test_correct(self, name, graph):
        report = run_baseline(FullInformationMST(), graph)
        assert report.correct, f"{name}: {report.check.reason}"

    def test_rounds_close_to_diameter(self):
        for _, graph in BASELINE_GRAPHS:
            report = run_baseline(FullInformationMST(), graph)
            assert report.rounds <= diameter(graph) + 3

    def test_messages_are_not_congest(self):
        """The LOCAL baseline pays in bandwidth: messages far exceed O(log n) bits."""
        graph = random_connected_graph(40, 0.2, seed=8)
        report = run_baseline(FullInformationMST(), graph)
        assert report.correct
        assert report.metrics.congest_factor() > 50

    def test_single_node(self):
        report = run_baseline(FullInformationMST(), PortNumberedGraph(1, []))
        assert report.correct
        assert report.rounds == 0

    @pytest.mark.parametrize(
        "name,build,metrics,per_round", FULL_INFO_PINNED, ids=[c[0] for c in FULL_INFO_PINNED]
    )
    def test_accounting_is_pinned(self, monkeypatch, name, build, metrics, per_round):
        sent = []
        send = NodeContext.send

        def capturing_send(ctx, port, payload):
            sent.append(payload)
            send(ctx, port, payload)

        monkeypatch.setattr(NodeContext, "send", capturing_send)
        report = run_baseline(FullInformationMST(), build())
        assert report.correct
        assert report.metrics.as_dict() == metrics
        assert report.metrics.messages_per_round == per_round

        knowledge = {id(p): p for p in sent if not isinstance(p, tuple)}.values()
        assert knowledge
        for payload in knowledge:
            # the precomputed size is exactly the generic walk over the
            # plain tuple form, and the payload prints as that tuple
            plain = (12, payload.entries)
            assert payload.bit_length_exact() == estimate_bits(plain)
            assert estimate_bits(payload) == estimate_bits(plain)
            assert repr(payload) == repr(plain)


class TestSynchronizedBoruvka:
    @pytest.mark.parametrize("name,graph", BASELINE_GRAPHS, ids=[g[0] for g in BASELINE_GRAPHS])
    def test_correct(self, name, graph):
        report = run_baseline(SynchronizedBoruvkaMST(), graph)
        assert report.correct, f"{name}: {report.check.reason}"

    def test_round_cost_matches_the_fixed_schedule(self):
        graph = random_connected_graph(20, 0.15, seed=9)
        baseline = SynchronizedBoruvkaMST()
        report = run_baseline(baseline, graph)
        assert report.correct
        assert report.rounds == baseline.round_bound(graph)
        # Theta(n log n): vastly more rounds than the diameter
        assert report.rounds > 10 * diameter(graph)

    def test_messages_are_congest_sized(self):
        graph = random_connected_graph(30, 0.1, seed=10)
        report = run_baseline(SynchronizedBoruvkaMST(), graph)
        assert report.correct
        assert report.metrics.congest_factor() < 25

    def test_requires_distinct_weights(self):
        graph = random_connected_graph(20, 0.2, seed=11, weight_mode="integer", weight_range=2)
        with pytest.raises(ValueError):
            SynchronizedBoruvkaMST().program_factory(graph)

    def test_requires_distinct_ids(self):
        graph = PortNumberedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)], node_ids=[5, 5, 6])
        with pytest.raises(ValueError):
            SynchronizedBoruvkaMST().program_factory(graph)

    def test_reports_round_bound(self):
        graph = random_connected_graph(16, 0.1, seed=12)
        bound = SynchronizedBoruvkaMST().round_bound(graph)
        assert bound == (4 * (16 + 2) + 8) * math.ceil(math.log2(16))


class TestComparisonShape:
    def test_advised_scheme_beats_no_advice_baselines_in_rounds(self):
        """The qualitative claim of the paper: advice buys an exponential speed-up."""
        from repro.core.oracle import run_scheme
        from repro.core.scheme_main import ShortAdviceScheme

        graph = random_connected_graph(48, 0.08, seed=13)
        advised = run_scheme(ShortAdviceScheme(), graph, root=0)
        no_advice = run_baseline(SynchronizedBoruvkaMST(), graph)
        assert advised.correct and no_advice.correct
        assert advised.rounds * 5 < no_advice.rounds
