"""Engine ≡ analytic on generated instances.

The analytic backend claims the engine's exact run for every scheme it
models; for the others it must say so and leave the run to the engine.
The fixed instances of ``test_analytic_backend.py`` pin the model on
shapes chosen by hand.  Here hypothesis draws the instances: a registry
family at up to 48 nodes, its own weights or tied integer weights,
default or shuffled ports and node identifiers (duplicates included),
and any root.  For every registered scheme of every problem, one of
three things holds:

* both backends compute the same advice, ``RunMetrics`` and outputs;
* both raise the same error;
* the analytic side raises :class:`AnalyticUnsupported`, and
  ``run_scheme``'s fallback reports exactly the engine's run.

The examples are derandomized, so a failure reproduces run after run.
"""

import random

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.oracle import run_scheme
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.runner.registry import GRAPH_FAMILIES, build_graph, qualified_names, resolve_scheme
from repro.simulator.analytic import AnalyticUnsupported, run_scheme_analytic
from repro.simulator.engine import run_sync


@st.composite
def instances(draw):
    """``(graph, root)`` drawn over families, weights, ports, ids and roots."""
    family = draw(st.sampled_from(GRAPH_FAMILIES))
    n = draw(st.integers(min_value=1, max_value=48))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    try:
        graph = build_graph(family, n, seed=seed)
    except ValueError:  # below the family's smallest size
        assume(False)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    edges = graph.edge_list()
    ties = draw(st.sampled_from([None, 1, 2, 4]))  # integer weights in 1..ties
    if ties is not None:
        edges = [(u, v, float(rng.randint(1, ties))) for u, v, _ in edges]
    ids = draw(st.sampled_from(["default", "shuffled", "duplicated"]))
    node_ids = {
        "default": None,
        "shuffled": rng.sample(range(1 << 40), graph.n),
        "duplicated": [rng.randrange(max(1, graph.n // 2)) for _ in range(graph.n)],
    }[ids]
    ports = None
    if draw(st.booleans()):
        ports = {u: rng.sample(range(d), d) for u, d in enumerate(graph._degrees.tolist())}
    graph = PortNumberedGraph(graph.n, edges, node_ids=node_ids, port_permutations=ports)
    return graph, draw(st.integers(min_value=0, max_value=graph.n - 1))


def _engine_side(name, graph, root):
    """The engine's (advice, result), or the error the oracle raised."""
    scheme = resolve_scheme(name)
    try:
        advice = scheme.compute_advice(graph, root=root)
    except ValueError as exc:
        return exc
    return advice, run_sync(graph, scheme.program_factory(), advice=advice.as_payloads())


def _assert_same_run(name, engine, analytic):
    (engine_advice, engine_run), (analytic_advice, analytic_run) = engine, analytic
    assert np.array_equal(engine_advice.bits, analytic_advice.bits), name
    assert np.array_equal(engine_advice.offsets, analytic_advice.offsets), name
    assert analytic_run.metrics == engine_run.metrics, name
    assert analytic_run.metrics.messages_per_round == engine_run.metrics.messages_per_round
    assert analytic_run.outputs == engine_run.outputs, name
    assert analytic_run.completed and engine_run.completed, name


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(instances())
def test_every_scheme_runs_alike_on_both_backends(instance):
    graph, root = instance
    for name in qualified_names("scheme"):
        engine = _engine_side(name, graph, root)
        try:
            analytic = run_scheme_analytic(resolve_scheme(name), graph, root=root)
        except AnalyticUnsupported:
            assert not isinstance(engine, Exception), name
            fallback = run_scheme(resolve_scheme(name), graph, root=root, backend="analytic")
            assert fallback.metrics == engine[1].metrics, name
            assert fallback.advice == engine[0].stats(), name
            continue
        except ValueError as exc:
            assert isinstance(engine, ValueError) and str(engine) == str(exc), name
            continue
        assert not isinstance(engine, Exception), (name, engine)
        _assert_same_run(name, engine, analytic)
