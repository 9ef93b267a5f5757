"""White-box tests of the Theorem-3 oracle's bit-packing and schedule.

The correctness of the decoder hinges on one invariant of the oracle's
capacity-constrained DFS packing (DESIGN.md, D6): at every phase, the
concatenation — in DFS-preorder order of the active fragment — of the
*not yet consumed* data bits of its nodes starts with exactly that
phase's fragment advice ``A(F)``.  These tests check the invariant
directly against the Borůvka trace, phase by phase, without running the
simulator, and also pin down the decoder's round-window arithmetic.
"""

import math

import pytest

from repro.core.bits import BitReader, BitString
from repro.core.scheme_level import LevelAdviceScheme
from repro.core.scheme_main import (
    ShortAdviceScheme,
    _MainProgram,
    num_boruvka_phases,
    phase_window_rounds,
    schedule_prefix_rounds,
)
from repro.graphs.generators import complete_graph, random_connected_graph
from repro.mst.boruvka import boruvka_trace


def _check_packing_invariant(graph, root=0, cap=10):
    """Replay the consumption of the packed advice against the trace."""
    scheme = ShortAdviceScheme(capacity_candidates=(cap,))
    phases = num_boruvka_phases(graph.n)
    trace = boruvka_trace(graph, root=root)
    packed = scheme._pack_with_capacity_search(graph, trace, phases)
    data = packed.as_payloads()
    assert packed.layout.capacity == cap

    # capacity respected everywhere
    assert all(len(bits) <= cap for bits in data.values())

    consumed = {u: 0 for u in range(graph.n)}
    for phase, (layout_nodes, layout_takes) in zip(
        trace.phases[:phases], packed.layout.phases, strict=True
    ):
        before = dict(consumed)
        partition = phase.partition
        for sel in phase.selections:
            preorder = partition.dfs_preorder(sel.fragment)
            stream = BitString.empty()
            for u in preorder:
                stream = stream + data[u][consumed[u]:]
            reader = BitReader(stream)
            assert bool(reader.read_bit()) == sel.is_up
            assert reader.read_gamma() == sel.rank_at_choosing
            assert reader.read_gamma() == sel.choosing_dfs_index
            # emulate the decoder's prefix consumption
            to_consume = reader.position
            for u in preorder:
                if to_consume == 0:
                    break
                available = len(data[u]) - consumed[u]
                take = min(available, to_consume)
                consumed[u] += take
                to_consume -= take
            assert to_consume == 0
        # the layout names exactly the bits this phase's decoding consumed
        took = {u: consumed[u] - before[u] for u in consumed if consumed[u] > before[u]}
        assert took == dict(zip(layout_nodes.tolist(), layout_takes.tolist()))
    # after the last packed phase everything that was written has been consumed
    assert all(consumed[u] == len(data[u]) for u in range(graph.n))


class TestPackingInvariant:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_graphs(self, seed):
        graph = random_connected_graph(90, 0.06, seed=seed)
        _check_packing_invariant(graph, root=seed)

    def test_complete_graph(self):
        _check_packing_invariant(complete_graph(48, seed=5), root=7)

    def test_duplicate_weights(self):
        graph = random_connected_graph(70, 0.08, seed=6, weight_mode="integer", weight_range=4)
        # duplicated weights can push ranks above 2^i, which the γ code absorbs;
        # a very small capacity may legitimately fail, so use the scheme default
        scheme = ShortAdviceScheme()
        advice = scheme.compute_advice(graph, root=0)
        assert advice.stats().max_bits <= scheme.advice_bound_bits(graph.n) + 10

    def test_tight_capacity_raises_cleanly(self):
        from repro.core.scheme_main import CapacityError

        graph = random_connected_graph(60, 0.05, seed=7)
        scheme = ShortAdviceScheme(capacity_candidates=(1,))
        with pytest.raises(CapacityError):
            scheme.compute_advice(graph, root=0)


class TestSchedule:
    def test_windows_partition_the_round_axis(self):
        program = _MainProgram()
        program.num_phases = 4
        boundaries = []
        start = 1
        for i in range(1, 5):
            w = phase_window_rounds(i)
            boundaries.append((start, start + w - 1, i))
            start += w
        for lo, hi, phase in boundaries:
            assert program._segment_of_round(lo) == ("phase", phase)
            assert program._segment_of_round(hi) == ("phase", phase)
            assert program._relative_round(lo) == 1
            assert program._relative_round(hi) == hi - lo + 1
        assert program._segment_of_round(start) == ("final", 0)
        assert program._segment_of_round(start + 100) == ("final", 0)

    def test_schedule_total_is_o_log_n(self):
        for n in (64, 1024, 2**16, 2**20):
            phases = num_boruvka_phases(n)
            total = schedule_prefix_rounds(phases)
            assert total <= 8 * math.ceil(math.log2(n))

    def test_num_phases_monotone(self):
        values = [num_boruvka_phases(n) for n in range(2, 5000, 37)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestLevelOracleInternals:
    def test_node_levels_match_the_fragment_tree(self):
        graph = random_connected_graph(80, 0.06, seed=8)
        phases = num_boruvka_phases(graph.n)
        trace = boruvka_trace(graph, root=3)
        levels = LevelAdviceScheme._node_levels(graph, trace, phases)
        for i in range(1, min(phases, len(trace.phases)) + 1):
            ftree = trace.phases[i - 1].fragment_tree
            for u in range(graph.n):
                assert levels[u][i - 1] == ftree.level_of_node(u)

    def test_level_advice_layout_parses(self):
        graph = random_connected_graph(50, 0.08, seed=9)
        scheme = LevelAdviceScheme()
        advice = scheme.compute_advice(graph, root=0)
        phases = num_boruvka_phases(graph.n)
        for u in range(graph.n):
            reader = BitReader(advice.get(u))
            assert reader.read_uint(4) == phases
            reader.read_bit()  # collect flag
            if reader.read_bit() == 1:
                reader.read_bit()  # the final bit
            level_bits = [reader.read_bit() for _ in range(phases)]
            assert all(b in (0, 1) for b in level_bits)
