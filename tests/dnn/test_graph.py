"""Graph-cut oracle for Section 6.1's prefix-scan partitioning.

An implant/wearable split of a DNN is a downward-closed cut of its
dataflow DAG, and the edges crossing the cut carry the activations that
must be transmitted.  For the paper's sequential stacks the cuts are
exactly the prefixes :mod:`repro.core.comp_centric` scans, so a
brute-force cut search over the dataflow graph is an independent oracle
for it.  The graph is two plain dicts: node -> MACs, and
(tail, head) -> activation values on that edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest

from repro.core.comp_centric import MAX_SPLIT_VALUES, admissible_splits
from repro.dnn.layers import Dense, ReLU
from repro.dnn.models import build_speech_dncnn, build_speech_mlp
from repro.dnn.network import Network

#: Node ids for the synthetic endpoints (the NI and the transmitter).
SOURCE = "source"
SINK = "sink"


@dataclass(frozen=True)
class Dataflow:
    macs: dict[str, int]
    edges: dict[tuple[str, str], int]

    def predecessors(self, node: str) -> list[str]:
        return [tail for tail, head in self.edges if head == node]


@dataclass(frozen=True)
class Cut:
    implant_nodes: frozenset[str]
    crossing_values: int
    implant_macs: int


def build_dataflow_graph(network: Network) -> Dataflow:
    """source -> layer_1 -> ... -> layer_L -> sink, one node per compute
    layer; each edge carries the activation count leaving its tail."""
    sizes = [math.prod(network.input_shape),
             *network.compute_layer_output_values()]
    layers = [f"layer_{index}" for index in range(1, len(sizes))]
    macs = {SOURCE: 0, SINK: 0}
    macs.update((node, profile.total_macs)
                for node, profile in zip(layers, network.mac_profiles()))
    chain = [SOURCE, *layers, SINK]
    return Dataflow(macs, dict(zip(zip(chain, chain[1:]), sizes)))


def topological_order(graph: Dataflow) -> list[str]:
    """Kahn's algorithm; a cycle leaves nodes unordered and raises."""
    indegree = dict.fromkeys(graph.macs, 0)
    for _, head in graph.edges:
        indegree[head] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    order = []
    while ready:
        node = ready.pop()
        order.append(node)
        for tail, head in graph.edges:
            if tail == node:
                indegree[head] -= 1
                if indegree[head] == 0:
                    ready.append(head)
    if len(order) != len(indegree):
        raise ValueError("dataflow graph has a cycle")
    return order


def enumerate_cuts(graph: Dataflow) -> list[Cut]:
    """Every downward-closed node set holding the source, not the sink."""
    order = topological_order(graph)
    seen: set[frozenset[str]] = set()
    stack = [frozenset({SOURCE})]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(current | {node} for node in order
                     if node not in current and node != SINK
                     and all(pred in current
                             for pred in graph.predecessors(node)))
    return [Cut(nodes,
                sum(values for (tail, head), values in graph.edges.items()
                    if tail in nodes and head not in nodes),
                sum(graph.macs[node] for node in nodes))
            for nodes in sorted(seen, key=len)]


def best_cut(graph: Dataflow, max_values: int = 1024) -> Cut:
    """Least implant MACs among cuts transmitting <= ``max_values``."""
    admissible = [cut for cut in enumerate_cuts(graph)
                  if cut.crossing_values <= max_values]
    if not admissible:
        raise ValueError(f"no cut transmits <= {max_values} values")
    return min(admissible, key=lambda cut: cut.implant_macs)


def prefix_cut_equivalence(network: Network,
                           max_values: int = 1024) -> tuple[int | None, int]:
    """(last implant layer of the best cut or None, its implant MACs)."""
    cut = best_cut(build_dataflow_graph(network), max_values)
    layers = [int(node.split("_")[1]) for node in cut.implant_nodes
              if node.startswith("layer_")]
    return (max(layers) if layers else None), cut.implant_macs


def chain_network():
    return Network([Dense(100, 50), ReLU(),
                    Dense(50, 2000), ReLU(),
                    Dense(2000, 10)], input_shape=(100,))


class TestGraphConstruction:
    def test_node_and_edge_counts(self):
        graph = build_dataflow_graph(chain_network())
        assert len(graph.macs) == 5  # source + 3 layers + sink
        assert len(graph.edges) == 4

    def test_is_dag(self):
        graph = build_dataflow_graph(build_speech_mlp(512))
        assert sorted(topological_order(graph)) == sorted(graph.macs)

    def test_edge_values_are_activation_sizes(self):
        graph = build_dataflow_graph(chain_network())
        assert graph.edges[SOURCE, "layer_1"] == 100
        assert graph.edges["layer_1", "layer_2"] == 50
        assert graph.edges["layer_2", "layer_3"] == 2000
        assert graph.edges["layer_3", SINK] == 10

    def test_node_macs_match_profiles(self):
        net = chain_network()
        graph = build_dataflow_graph(net)
        assert sum(graph.macs.values()) == net.total_macs


class TestCutEnumeration:
    def test_chain_has_prefix_cuts(self):
        graph = build_dataflow_graph(chain_network())
        cuts = enumerate_cuts(graph)
        # Source-only plus one per layer prefix = 4 downward-closed sets.
        assert len(cuts) == 4

    def test_cuts_are_downward_closed(self):
        graph = build_dataflow_graph(chain_network())
        for cut in enumerate_cuts(graph):
            for node in cut.implant_nodes:
                for pred in graph.predecessors(node):
                    assert pred in cut.implant_nodes


class TestBestCut:
    def test_avoids_wide_boundary(self):
        # Cutting after layer_2 would transmit 2000 values; the best cut
        # under a 1024 budget stops at layer_1 (50 values) or runs the
        # whole net (10 values) — and layer_1 keeps less compute.
        graph = build_dataflow_graph(chain_network())
        cut = best_cut(graph, max_values=1024)
        assert "layer_2" not in cut.implant_nodes
        assert cut.crossing_values <= 1024

    def test_minimizes_implant_macs(self):
        graph = build_dataflow_graph(chain_network())
        cut = best_cut(graph, max_values=1024)
        admissible = [c for c in enumerate_cuts(graph)
                      if c.crossing_values <= 1024]
        assert cut.implant_macs == min(c.implant_macs for c in admissible)

    def test_source_only_cut_wins_small_inputs(self):
        # With a 100-value input under the budget, transmitting raw input
        # (zero implant compute) is optimal.
        graph = build_dataflow_graph(chain_network())
        cut = best_cut(graph, max_values=1024)
        assert cut.implant_macs == 0

    def test_raises_when_nothing_fits(self):
        net = Network([Dense(5000, 4000), ReLU(), Dense(4000, 3000)],
                      input_shape=(5000,))
        graph = build_dataflow_graph(net)
        with pytest.raises(ValueError):
            best_cut(graph, max_values=1024)


class TestPrefixEquivalence:
    def test_mlp_prefix_matches_partitioning_module(self):
        # For n > 1024 the raw input no longer fits, so the graph cut
        # must agree with the Section 6.1 prefix machinery.
        net = build_speech_mlp(2048)
        prefix, macs = prefix_cut_equivalence(net,
                                              max_values=MAX_SPLIT_VALUES)
        splits = admissible_splits(net.profile())
        # The graph's optimum is the bottleneck split (least implant MACs
        # among admissible prefixes); check consistency.
        assert prefix in splits
        assert macs == net.head(prefix).total_macs

    def test_dncnn_has_no_interior_cut(self):
        net = build_speech_dncnn(2048)
        prefix, macs = prefix_cut_equivalence(net, max_values=1024)
        # Only the full-network cut (crossing = 40 outputs) is admissible.
        assert prefix == net.n_compute_layers
        assert macs == net.total_macs
