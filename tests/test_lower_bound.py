"""Tests of the Theorem-1 lower-bound machinery."""

import math

import pytest

import repro.core.lower_bound as lower_bound
from repro.core.lower_bound import (
    average_advice_lower_bound,
    required_bits_at_node,
    run_fooling_experiment,
    truncated_trivial_failures,
)
from repro.core.oracle import run_scheme
from repro.core.scheme_trivial import TrivialRankScheme
from repro.graphs.lowerbound_family import build_gn, fooling_family
from repro.report import generate_report, spec_from_dict


class TestFoolingExperiment:
    @pytest.mark.parametrize("h,i", [(6, 2), (8, 3), (10, 4), (12, 2)])
    def test_premises_hold(self, h, i):
        exp = run_fooling_experiment(h, i)
        assert exp.premises_hold
        assert exp.num_variants == h - i
        assert exp.required_bits == pytest.approx(math.log2(h - i))

    def test_required_bits_increase_with_family_size(self):
        assert required_bits_at_node(20, 2) > required_bits_at_node(20, 10)


class TestPigeonhole:
    def test_zero_advice_forces_failures(self):
        """With 0 advice bits every variant beyond the first must fail."""
        result = truncated_trivial_failures(10, 3, budget_bits=0)
        assert result["num_variants"] == 7
        assert result["num_groups"] == 1
        assert result["min_failures"] == 6

    def test_insufficient_advice_forces_failures(self):
        """Fewer than log2(h - i) bits cannot distinguish all variants."""
        h, i = 12, 3  # 9 variants, needs ceil(log2 9) = 4 bits
        for budget in (0, 1, 2, 3):
            result = truncated_trivial_failures(h, i, budget_bits=budget)
            assert result["min_failures"] >= result["num_variants"] - 2**budget
            assert result["min_failures"] > 0

    def test_sufficient_advice_can_distinguish(self):
        """With the full ⌈log n⌉-bit advice the pigeonhole gives no guaranteed failure."""
        h, i = 10, 5
        full_budget = 16
        result = truncated_trivial_failures(h, i, budget_bits=full_budget)
        assert result["min_failures"] == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            truncated_trivial_failures(8, 3, budget_bits=-1)

    def test_trivial_scheme_is_correct_on_the_whole_family(self):
        """The achievable side: ⌈log n⌉ bits at 0 rounds do solve every variant."""
        scheme = TrivialRankScheme()
        for variant in fooling_family(8, 3):
            graph = variant.instance.graph
            root = variant.instance.v(1)
            report = run_scheme(scheme, graph, root=root)
            assert report.correct
            # and the target node's output is exactly the correct parent port
            advice = scheme.compute_advice(graph, root=root)
            assert advice.bits_of(variant.target_node) >= 1


class TestFamilyBuiltOnce:
    """One build of the fooling family answers every budget's pigeonhole."""

    CASES = [(6, 2), (8, 3), (12, 4)]

    def test_report_pigeonhole_equals_per_budget_truncation(self, tmp_path, monkeypatch):
        builds = []
        original = lower_bound.fooling_family

        def counting(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(lower_bound, "fooling_family", counting)
        spec = spec_from_dict(
            {
                "title": "t",
                "experiment": [
                    {
                        "name": f"lb-{h}-{i}",
                        "kind": "lowerbound",
                        "h": h,
                        "i": i,
                        "max_budget_bits": 6,
                        "h_curve": [4],
                    }
                    for h, i in self.CASES
                ],
            }
        )
        result = generate_report(spec, tmp_path)
        assert result.all_correct
        # fooling_family runs once per lower-bound experiment
        assert builds == [(h, i) for h, i in self.CASES]

        for h, i in self.CASES:
            lines = (tmp_path / f"lb-{h}-{i}_pigeonhole.csv").read_text().splitlines()
            assert lines[0] == "advice_bits,groups,guaranteed_failures"
            rows = [tuple(int(cell) for cell in line.split(",")) for line in lines[1:]]
            expected = []
            for budget in range(7):
                truncated = truncated_trivial_failures(h, i, budget_bits=budget)
                expected.append((budget, truncated["num_groups"], truncated["min_failures"]))
            assert rows == expected

    @pytest.mark.parametrize("seed", [0, 1])
    def test_failures_equal_truncated_trivial_failures(self, seed):
        experiment = run_fooling_experiment(9, 3, seed=seed)
        for budget in range(7):
            assert experiment.failures(budget) == truncated_trivial_failures(
                9, 3, budget_bits=budget, seed=seed
            )

    def test_failures_rejects_a_negative_budget(self):
        with pytest.raises(ValueError, match="non-negative"):
            run_fooling_experiment(8, 3).failures(-1)


class TestAverageBound:
    def test_lower_bound_grows_like_log_n(self):
        values = {h: average_advice_lower_bound(h) for h in (16, 64, 256, 1024)}
        assert values[64] > values[16]
        assert values[1024] > values[256]
        # Theta(log h): ratio to log2 h converges to 1/2
        assert 0.25 <= values[1024] / math.log2(1024) <= 0.75

    def test_trivial_scheme_average_respects_the_lower_bound_shape(self):
        """The measured average of the best 0-round scheme sits above the bound."""
        scheme = TrivialRankScheme()
        for h in (8, 16, 32):
            inst = build_gn(h)
            stats = scheme.compute_advice(inst.graph, root=inst.v(1)).stats()
            assert stats.average_bits >= average_advice_lower_bound(h)
